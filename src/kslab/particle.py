"""Finite-N Kuramoto dynamics: RK4 integration, order parameters, potential.

Phases are stored lifted to the real line, so the phase diameter and the
gradient potential are well defined; projection to the circle happens only
inside order-parameter and output code.  Start phases come from ``frequency``.

Everything that needs the phasor mean z = (1/N) sum exp(i theta) takes it,
together with the arrays cos theta and sin theta, from one pass over the
phases (``_phasor``; ``_drift``, per system in a batch), and the drift
omega - K (sin theta Re z - cos theta Im z) needs no further trig call.
One RK4 step (``_mean_field_step``) takes cos theta and sin theta at the
step start, from np.cos/np.sin or from its caller.  Its stages 2-4 rotate
them by the phase change d since the start, with cos d and sin d from
Taylor polynomials (``_rotate``), whenever the a-priori bound
B = |dt| (max|omega| + K) on |d| is at most ``ROTATION_MAX``; larger steps
call np.cos/np.sin at every stage.  The polynomials take the fewest terms
whose first omitted term at B is below a quarter of an ulp of 1: 5 at
B = 0.1, 4 at B = 0.021 (``_taylor_terms``, decided once per run).
A rotating run (``run_particles``) takes np.cos/np.sin once per sample
interval, at its start, and carries the table from one step start to the
next by the same rotation through the step's phase change.  A run returns
one row (t, r, phi, D, V_p) per sample, with r, phi and V_p from the
phasor mean of the step that starts there, which the exact trig of the
sample phases gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .files import write_csv
from .order import TWO_PI, OrderParams, _from_phasor, rk4_step, sample_count

#: largest a-priori phase change |dt| (max|omega| + K) of one RK4 step at
#: which its stages 2-4, and the next step start, rotate the step-start
#: cos/sin (``_rotate``) instead of calling np.cos/np.sin;
#: |dtheta/dt| <= |omega| + K|z| and |z| <= 1
ROTATION_MAX = 0.1

# Taylor coefficients of cos d (d^8 .. d^0) and sin d / d (d^8 .. d^0) in
# powers of u = d^2; a rotation of n terms takes the last n of each.  At
# |d| <= ROTATION_MAX the first terms left out of all five, d^10/10! and
# d^11/11!, are below 2^-55, a quarter of an ulp of 1.
_COS_TAYLOR = tuple((-1) ** k / math.factorial(2 * k) for k in range(4, -1, -1))
_SIN_TAYLOR = tuple((-1) ** k / math.factorial(2 * k + 1) for k in range(4, -1, -1))


@dataclass(frozen=True, eq=False)
class ParticleState:
    """Phases and natural frequencies of N oscillators at coupling K and time t."""
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


def _phasor(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray, complex]:
    """(cos theta, sin theta, z) with z = (1/N) sum exp(i theta) their mean."""
    c = np.cos(thetas)
    s = np.sin(thetas)
    return c, s, complex(c.mean(), s.mean())


def _drift(c: np.ndarray, s: np.ndarray, omegas, K: float):
    """(omega - K (sin theta Re z - cos theta Im z), Re z, Im z) from cos theta
    and sin theta of phases (..., N), each row along the last axis one system
    with its own phasor mean z, kept as a length-1 axis.  sum / n is numpy's
    ``mean`` bit for bit, without its Python-level overhead."""
    n = c.shape[-1]
    z_re, z_im = c.sum(axis=-1, keepdims=True) / n, s.sum(axis=-1, keepdims=True) / n
    out = s * z_re
    out -= c * z_im
    out *= -K
    out += omegas
    return out, z_re, z_im


def _mean_field_rhs(thetas: np.ndarray, omegas, K: float) -> np.ndarray:
    """The mean-field drift of phases (..., N), one system per row."""
    return _drift(np.cos(thetas), np.sin(thetas), omegas, K)[0]


def _horner(coeffs: tuple, u: np.ndarray) -> np.ndarray:
    """sum_i coeffs[i] u^(n-i), n = len(coeffs) - 1, in place on one new array."""
    p = coeffs[0] * u
    for a in coeffs[1:-1]:
        p += a
        p *= u
    p += coeffs[-1]
    return p


def _rotate(c0: np.ndarray, s0: np.ndarray, d: np.ndarray, terms: int):
    """(cos(theta + d), sin(theta + d)) from c0 = cos theta and s0 = sin theta:
    the rotation by d with cos d and sin d from their Taylor polynomials of
    2 <= terms <= 5 terms, to d^(2 terms - 2) and d^(2 terms - 1), for |d| at
    most the bound that ``_taylor_terms`` picked them for."""
    u = d * d
    cd = _horner(_COS_TAYLOR[-terms:], u)
    sd = _horner(_SIN_TAYLOR[-terms:], u)
    sd *= d
    c = np.multiply(c0, cd, out=u)     # u is spent: one array fewer alive
    c -= s0 * sd
    cd *= s0
    sd *= c0
    cd += sd
    return c, cd


def _taylor_terms(omegas, K: float, dt: float) -> int:
    """The number of Taylor terms with which the stages of one RK4 step
    rotate cos/sin (``_rotate``), or 0 when they call np.cos/np.sin: 0 when
    B = |dt| (max|omega| + K), the a-priori bound on the step's phase change,
    exceeds ROTATION_MAX, else the fewest terms n >= 2 whose first omitted
    term of cos d, B^(2n)/(2n)!, is below 2^-55, a quarter of an ulp of 1
    (that of sin d is B/(2n + 1) times it).  Fixed for a run."""
    bound = abs(dt) * (float(np.max(np.abs(omegas))) + K)
    if not bound <= ROTATION_MAX:
        return 0
    terms = 2
    while bound ** (2 * terms) / math.factorial(2 * terms) >= 2.0 ** -55:
        terms += 1
    return terms


def _mean_field_step(thetas: np.ndarray, omegas, K: float, dt: float, terms: int,
                     trig: tuple | None = None):
    """One RK4 step (``order.rk4_step``) of the mean-field flow for phases
    (..., N), one system per row; returns (new phases, Re z, Im z) with z the
    step-start phasor means.

    cos and sin of the phases are trig = (cos theta, sin theta), if given,
    or taken once, at the step start.  Stages 2-4 get theirs by rotating
    those by d = y - theta through Taylor polynomials of terms > 0 terms
    (``_taylor_terms(omegas, K, dt)``), and from np.cos/np.sin at terms 0.
    """
    c0, s0 = (np.cos(thetas), np.sin(thetas)) if trig is None else trig
    k1, z_re, z_im = _drift(c0, s0, omegas, K)

    def rhs(t, y):
        if y is thetas:             # stage 1, evaluated above
            return k1
        if terms:
            return _drift(*_rotate(c0, s0, y - thetas, terms), omegas, K)[0]
        return _mean_field_rhs(y, omegas, K)

    return rk4_step(rhs, 0.0, thetas, dt), z_re, z_im


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


def _potential(state: ParticleState, r: float) -> float:
    """Gradient-flow potential, whose negative gradient is the dynamics, from
    the amplitude r of the phasor mean:
    V = -sum_i omega_i theta_i + (K/2N) sum_ij (1 - cos(theta_j - theta_i)),
    with sum_ij cos(theta_j - theta_i) = |sum exp(i theta)|^2 = (N r)^2.
    """
    pair = 0.5 * state.K * state.n * (1.0 - r * r)
    return float(-np.dot(state.omegas, state.thetas) + pair)


def phase_diameter(state: ParticleState) -> float:
    """Max pairwise difference of the lifted phases."""
    return float(state.thetas.max() - state.thetas.min())


# ---------------------------------------------------------------------------
# trajectories


def step_plan(state: ParticleState, t_end: float, dt: float,
              sample_every: float) -> tuple[int, int, float, int]:
    """(n_samples, per, dt, terms) of a ``run_particles`` run: per RK4 steps
    of dt in each of the n_samples sample intervals of ``order.sample_count``,
    dt shrunk from the one asked for so that it divides sample_every, and
    the Taylor terms with which the steps rotate cos/sin, 0 if they do not
    (``_taylor_terms``).

    Raises ValueError as ``sample_count`` does, and unless dt is finite and
    positive.
    """
    n_samples = sample_count(state.t, t_end, sample_every)
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be finite and positive")
    per = max(1, math.ceil(sample_every / dt))
    dt = sample_every / per
    return n_samples, per, dt, _taylor_terms(state.omegas, state.K, dt)


def run_particles(state: ParticleState, t_end: float, dt: float,
                  sample_every: float) -> np.ndarray:
    """Fixed-step RK4 run sampled at t0 + i sample_every up to t_end; returns
    the (n_samples + 1, 5) rows t, r, phi, D, V_p, one per sample.

    The steps are those of ``step_plan``, which raises ValueError unless
    t_end - t0 is a whole number of sample intervals and dt is finite and
    positive; the run ends at the last sample.
    When the steps rotate, np.cos/np.sin are taken once per sample interval,
    at its start; each later step start rotates the previous step start's
    table (``_rotate``) through the step's phase change new - old.
    Each row's r, phi and V_p come from the phasor mean of the step that
    starts at its sample; only the final row's is computed afresh.
    """
    n_samples, per, dt, terms = step_plan(state, t_end, dt, sample_every)
    ts = state.t + sample_every * np.arange(n_samples + 1)
    thetas, omegas, K = state.thetas, state.omegas, state.K

    def row(i: int, phases: np.ndarray, z: complex) -> tuple:
        s = ParticleState(phases, omegas, K, t=float(ts[i]))
        op = _from_phasor(z)
        return s.t, op.R, op.phi, phase_diameter(s), _potential(s, op.R)

    rows = np.empty((n_samples + 1, 5))
    for i in range(n_samples):
        start = thetas
        trig = (np.cos(thetas), np.sin(thetas)) if terms else None
        for k in range(per):
            new, z_re, z_im = _mean_field_step(thetas, omegas, K, dt, terms, trig)
            if k == 0:
                rows[i] = row(i, start, complex(z_re[0], z_im[0]))
            if terms and k + 1 < per:
                trig = _rotate(*trig, new - thetas, terms)
            thetas = new
    rows[-1] = row(n_samples, thetas, _phasor(thetas)[2])
    return rows


def trajectory_to_csv(rows: np.ndarray, path) -> None:
    """Write the rows of ``run_particles`` under the header t, r, phi, D, V_p."""
    write_csv(path, ["t", "r", "phi", "D", "V_p"], rows)


# ---------------------------------------------------------------------------
# asymptotic antipodal set


def antipodal_count(final: ParticleState) -> int | None:
    """Number of oscillators of a converged identical-frequency state within
    0.1 radians of the antipode of the average phase (0 when undefined), or
    None when the rate spread max|thetadot_i - thetadot_j| exceeds 1e-6.
    None of them is also within 0.1 of the average phase: the two circle
    distances sum to pi."""
    rates = particle_rhs(final)
    if float(rates.max() - rates.min()) > 1e-6:
        return None
    anti = particle_order(final).phi + np.pi
    d_anti = np.abs((final.thetas - anti + np.pi) % TWO_PI - np.pi)
    return int(np.count_nonzero(d_anti < 0.1))
