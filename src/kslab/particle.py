"""Finite-N Kuramoto model: RK4 integration, order parameters, potential.

Phases are stored lifted to the real line, so the phase diameter and the
gradient potential are well defined; projection to the circle happens only
inside order-parameter and output code.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .order import TOL_R, OrderParams

TWO_PI = 2.0 * np.pi


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


def particle_order(state: ParticleState) -> OrderParams:
    """Amplitude and average phase of the phasor mean (1/N) sum exp(i theta)."""
    z = np.mean(np.exp(1j * state.thetas))
    r = abs(z)
    if r > TOL_R:
        return OrderParams(float(r), float(np.angle(z) % TWO_PI), True)
    return OrderParams(float(r), 0.0, False)


def particle_rhs(state: ParticleState) -> np.ndarray:
    """dtheta_i/dt in mean-field form omega_i - K r sin(theta_i - phi).

    Algebraically identical to the all-to-all pairwise sum (see
    ``particle_rhs_direct``), but O(N): r sin(theta_i - phi) is the imaginary
    part of exp(i theta_i) times the conjugated phasor mean.
    """
    z = np.mean(np.exp(1j * state.thetas))
    return state.omegas - state.K * np.imag(np.exp(1j * state.thetas) * np.conj(z))


def particle_rhs_direct(state: ParticleState) -> np.ndarray:
    """dtheta_i/dt by the explicit double sum (K/N) sum_j sin(theta_j - theta_i)."""
    diff = state.thetas[None, :] - state.thetas[:, None]
    return state.omegas + (state.K / state.n) * np.sin(diff).sum(axis=1)


def particle_step(state: ParticleState, dt: float) -> ParticleState:
    """Classical RK4 update."""
    if dt == 0.0:
        return state

    def f(th):
        return particle_rhs(replace(state, thetas=th))

    th = state.thetas
    k1 = f(th)
    k2 = f(th + 0.5 * dt * k1)
    k3 = f(th + 0.5 * dt * k2)
    k4 = f(th + dt * k3)
    new = th + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return replace(state, thetas=new, t=state.t + dt)


def particle_potential(state: ParticleState) -> float:
    """Gradient-flow potential; the dynamics is its negative gradient.

    V = -sum_i omega_i theta_i + (K/2N) sum_ij (1 - cos(theta_j - theta_i)),
    evaluated through the phasor identity sum_ij cos(theta_j - theta_i)
    = |sum exp(i theta)|^2 = (N r)^2.
    """
    r = abs(np.mean(np.exp(1j * state.thetas)))
    pair = 0.5 * state.K * state.n * (1.0 - r * r)
    return float(-np.dot(state.omegas, state.thetas) + pair)


def particle_order_rates(state: ParticleState) -> tuple[float, float]:
    """(dr/dt, dphi/dt) from the order-parameter evolution equations.

    dr/dt = -(1/N) sum sin(theta_j - phi) thetadot_j and
    dphi/dt = (1/(rN)) sum cos(theta_j - phi) thetadot_j, with thetadot in
    mean-field form.  Requires r above tolerance.
    """
    op = particle_order(state)
    if not op.defined:
        raise ValueError("average phase undefined (r below tolerance)")
    dth = particle_rhs(state)
    d = state.thetas - op.phi
    rdot = -float(np.mean(np.sin(d) * dth))
    phidot = float(np.mean(np.cos(d) * dth)) / op.R
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


def run_particles(state: ParticleState, t_end: float, dt: float,
                  sample_every: float) -> ParticleTrajectory:
    """Fixed-step RK4 run sampled every sample_every time units.

    dt is shrunk if necessary so samples land exactly on step boundaries.
    """
    if t_end < state.t:
        raise ValueError("t_end must not precede the state time")
    per = max(1, int(np.ceil(sample_every / dt)))
    dt = sample_every / per
    n_samples = int(round((t_end - state.t) / sample_every))
    ts = [state.t]
    snaps = [state.thetas.copy()]
    for _ in range(n_samples):
        for _ in range(per):
            state = particle_step(state, dt)
        ts.append(state.t)
        snaps.append(state.thetas.copy())
    return ParticleTrajectory(np.array(ts), np.array(snaps), state.omegas, state.K)


def trajectory_to_csv(traj: ParticleTrajectory, path) -> None:
    """Columns: t, r, phi, D, V_p."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "r", "phi", "D", "V_p"])
        for i in range(traj.n_samples):
            s = traj.state_at(i)
            op = particle_order(s)
            w.writerow([format(x, ".17g") for x in
                        (s.t, op.R, op.phi, phase_diameter(s), particle_potential(s))])


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
