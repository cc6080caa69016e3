"""Finite-N Kuramoto model: RK4 integration, order parameters, potential.

Phases are stored lifted to the real line, so the phase diameter and the
gradient potential are well defined; projection to the circle happens only
inside order-parameter and output code.

Everything that needs the phasor mean z = (1/N) sum exp(i theta) takes it,
together with the arrays cos theta and sin theta, from one pass over the
phases (``_phasor``; ``_mean_field_rhs``, per system in a batch).  The drift
omega - K (sin theta Re z - cos theta Im z) then takes two trig calls per
oscillator per right-hand-side evaluation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .order import TWO_PI, OrderParams, _from_phasor


@dataclass(frozen=True, eq=False)
class ParticleState:
    thetas: np.ndarray   # lifted phases, radians
    omegas: np.ndarray   # natural frequencies, frozen in time
    K: float
    t: float = 0.0

    def __post_init__(self):
        th = np.asarray(self.thetas, dtype=float)
        om = np.asarray(self.omegas, dtype=float)
        if th.ndim != 1 or th.size < 1 or th.shape != om.shape:
            raise ValueError("thetas/omegas must be matching nonempty 1-d arrays")
        if self.K < 0:
            raise ValueError("coupling strength must be nonnegative")
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "omegas", om)

    @property
    def n(self) -> int:
        return self.thetas.size


def sample_phases(profile, bound: float, n: int, rng) -> np.ndarray:
    """n phases drawn by rejection from a density profile on [0, 2pi).

    ``bound`` must dominate the profile.  Candidates come from ``rng`` in
    batches of 4 max(n, 64) until n are accepted.
    """
    out = np.empty(0)
    batch = 4 * max(n, 64)
    while out.size < n:
        x = rng.uniform(0.0, TWO_PI, batch)
        u = rng.uniform(0.0, bound, batch)
        out = np.concatenate([out, x[u < profile(x)]])
    return out[:n]


def _phasor(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray, complex]:
    """(cos theta, sin theta, z) with z = (1/N) sum exp(i theta) their mean."""
    c = np.cos(thetas)
    s = np.sin(thetas)
    return c, s, complex(c.mean(), s.mean())


def _mean_field_rhs(thetas: np.ndarray, omegas, K: float) -> np.ndarray:
    """omega - K (sin theta Re z - cos theta Im z) for phases (..., N), each
    row along the last axis one system with its own phasor mean z."""
    c, s = np.cos(thetas), np.sin(thetas)
    z_re, z_im = c.mean(axis=-1, keepdims=True), s.mean(axis=-1, keepdims=True)
    return omegas - K * (s * z_re - c * z_im)


def _rk4(thetas: np.ndarray, omegas, K: float, dt: float) -> np.ndarray:
    """One classical RK4 step of the mean-field system (batched as above)."""
    k1 = _mean_field_rhs(thetas, omegas, K)
    k2 = _mean_field_rhs(thetas + 0.5 * dt * k1, omegas, K)
    k3 = _mean_field_rhs(thetas + 0.5 * dt * k2, omegas, K)
    k4 = _mean_field_rhs(thetas + dt * k3, omegas, K)
    return thetas + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def particle_order(state: ParticleState) -> OrderParams:
    """Amplitude and average phase of the phasor mean (1/N) sum exp(i theta)."""
    return _from_phasor(_phasor(state.thetas)[2])


def particle_rhs(state: ParticleState) -> np.ndarray:
    """dtheta_i/dt in mean-field form omega_i - K r sin(theta_i - phi).

    Algebraically identical to the all-to-all pairwise sum
    omega_i + (K/N) sum_j sin(theta_j - theta_i), but O(N): with
    z = r exp(i phi) = (mean cos theta, mean sin theta),
    r sin(theta_i - phi) = sin theta_i Re z - cos theta_i Im z, so one cos
    and one sin per oscillator give both z and the drift.
    """
    return _mean_field_rhs(state.thetas, state.omegas, state.K)


def particle_step(state: ParticleState, dt: float) -> ParticleState:
    """Classical RK4 update."""
    if dt == 0.0:
        return state
    return replace(state, thetas=_rk4(state.thetas, state.omegas, state.K, dt),
                   t=state.t + dt)


def _potential(state: ParticleState, r: float) -> float:
    pair = 0.5 * state.K * state.n * (1.0 - r * r)
    return float(-np.dot(state.omegas, state.thetas) + pair)


def particle_potential(state: ParticleState) -> float:
    """Gradient-flow potential; the dynamics is its negative gradient.

    V = -sum_i omega_i theta_i + (K/2N) sum_ij (1 - cos(theta_j - theta_i)),
    evaluated through the phasor identity sum_ij cos(theta_j - theta_i)
    = |sum exp(i theta)|^2 = (N r)^2.
    """
    return _potential(state, abs(_phasor(state.thetas)[2]))


def particle_order_rates(state: ParticleState) -> tuple[float, float]:
    """(dr/dt, dphi/dt) from the order-parameter evolution equations.

    dr/dt = -(1/N) sum sin(theta_j - phi) thetadot_j and
    dphi/dt = (1/(rN)) sum cos(theta_j - phi) thetadot_j, with thetadot in
    mean-field form.  With z = r exp(i phi), r sin(theta - phi) and
    r cos(theta - phi) are sin theta Re z - cos theta Im z and
    cos theta Re z + sin theta Im z.  Requires r above tolerance.
    """
    c, s, z = _phasor(state.thetas)
    op = _from_phasor(z)
    if not op.defined:
        raise ValueError("average phase undefined (r below tolerance)")
    r_sin = s * z.real - c * z.imag
    dth = state.omegas - state.K * r_sin
    rdot = -float(np.mean(r_sin * dth)) / op.R
    phidot = float(np.mean((c * z.real + s * z.imag) * dth)) / (op.R * op.R)
    return rdot, phidot


def phase_diameter(state: ParticleState) -> float:
    """Max pairwise difference of the lifted phases."""
    return float(state.thetas.max() - state.thetas.min())


# ---------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True, eq=False)
class ParticleTrajectory:
    ts: np.ndarray        # (n_samples,)
    thetas: np.ndarray    # (n_samples, N), lifted
    omegas: np.ndarray
    K: float

    def state_at(self, i: int) -> ParticleState:
        return ParticleState(self.thetas[i], self.omegas, self.K, t=float(self.ts[i]))

    @property
    def n_samples(self) -> int:
        return self.ts.size


def sample_count(t0: float, t_end: float, sample_every: float) -> int:
    """Number of sample intervals of length sample_every in [t0, t_end].

    Raises ValueError unless (t_end - t0)/sample_every is within 1e-9
    (relative) of a nonnegative integer.
    """
    if t_end < t0:
        raise ValueError("t_end must not precede the state time")
    span = (t_end - t0) / sample_every
    n = round(span)
    if abs(span - n) > 1e-9 * span:
        raise ValueError(f"t_end - t0 = {t_end - t0!r} is not a whole number of "
                         f"sample intervals of {sample_every!r}")
    return n


def run_particles(state: ParticleState, t_end: float, dt: float,
                  sample_every: float) -> ParticleTrajectory:
    """Fixed-step RK4 run sampled at t0 + i sample_every up to t_end.

    t_end - t0 must be a whole number of sample intervals (``sample_count``);
    dt is shrunk if necessary so samples land exactly on step boundaries.
    """
    n_samples = sample_count(state.t, t_end, sample_every)
    per = max(1, int(np.ceil(sample_every / dt)))
    dt = sample_every / per
    ts = state.t + sample_every * np.arange(n_samples + 1)
    snaps = [state.thetas.copy()]
    for _ in range(n_samples):
        for _ in range(per):
            state = particle_step(state, dt)
        snaps.append(state.thetas.copy())
    return ParticleTrajectory(ts, np.array(snaps), state.omegas, state.K)


def trajectory_to_csv(traj: ParticleTrajectory, path) -> np.ndarray:
    """Columns: t, r, phi, D, V_p.  Returns the rows written, one per sample.

    Each sample's phasor mean is computed once and gives r, phi and V_p.
    """
    rows = np.empty((traj.n_samples, 5))
    for i in range(traj.n_samples):
        s = traj.state_at(i)
        op = particle_order(s)
        rows[i] = (s.t, op.R, op.phi, phase_diameter(s), _potential(s, op.R))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "r", "phi", "D", "V_p"])
        for row in rows:
            w.writerow([format(x, ".17g") for x in row])
    return rows


def load_config_csv(path, K: float) -> ParticleState:
    """Initial configuration CSV with columns (theta, omega)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["theta", "omega"]:
            raise ValueError("expected CSV header 'theta,omega'")
        rows = [(float(r[0]), float(r[1])) for r in reader if r]
    th, om = zip(*rows)
    return ParticleState(np.array(th), np.array(om), K=K)


# ---------------------------------------------------------------------------
# asymptotic classification


@dataclass(frozen=True)
class Classification:
    labels: tuple[str, ...]        # "sync" | "anti" | "undetermined" per oscillator
    converged: bool

    @property
    def i_sync(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.labels) if s == "sync")

    @property
    def i_anti(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.labels) if s == "anti")

    @property
    def n_anti(self) -> int:
        return len(self.i_anti)


def _circle_dist(a, b):
    return np.abs((np.asarray(a) - np.asarray(b) + np.pi) % TWO_PI - np.pi)


def classify_asymptotic(traj: ParticleTrajectory, phi_ref=None,
                        tol: float = 1e-6, band: float = 0.1) -> Classification:
    """Partition oscillators into synchronous and anti-synchronous sets.

    An identical-frequency trajectory run to near-stationarity is required:
    if the final frequency spread max|thetadot_i - thetadot_j| exceeds tol,
    every oscillator is labeled undetermined.  ``phi_ref`` maps t to the
    reference phase; by default the trajectory's own final average phase
    (rotating with the common frequency) is used.  An oscillator within
    ``band`` radians of the reference is synchronous, within ``band`` of its
    antipode anti-synchronous, otherwise undetermined.
    """
    final = traj.state_at(traj.n_samples - 1)
    rates = particle_rhs(final)
    if float(rates.max() - rates.min()) > tol:
        return Classification(("undetermined",) * final.n, False)
    if phi_ref is None:
        op = particle_order(final)
        mean_omega = float(np.mean(traj.omegas))
        phi_final = op.phi if op.defined else 0.0
        t_final = final.t

        def phi_ref(t):
            return phi_final + mean_omega * (t - t_final)

    ref = phi_ref(final.t)
    d_sync = _circle_dist(final.thetas, ref)
    d_anti = _circle_dist(final.thetas, ref + np.pi)
    labels = np.where(d_sync < band, "sync",
                      np.where(d_anti < band, "anti", "undetermined"))
    return Classification(tuple(labels.tolist()), True)
