"""Finite-N Kuramoto dynamics: RK4 integration, order parameters, potential.

Phases are stored lifted to the real line, so the phase diameter and the
gradient potential are well defined; projection to the circle happens only
inside order-parameter and output code.  Start phases come from ``frequency``.

Everything that needs the phasor mean z = (1/N) sum exp(i theta) takes it
from one complex table w = exp(i theta) of the phases (``_unit``, from
np.cos/np.sin; ``_mean``), and the drift omega - K Im(conj(z) w) needs no
further trig call (``_drift``, per system in a batch).  One RK4 step
(``_mean_field_step``) takes the table at the step start and returns its
phase change.  Its stages 2-4 turn that table by their phase change d,
w exp(i d) with cos d and sin d from Taylor polynomials, in one complex
pass (``_turn``): a stage's table is read once, by one drift.  The one
stepping loop (``_advance``) takes n steps and carries the table from one
step start to the next by the step's phase change in versine form,
w + w v with v = (cos d - 1) + i sin d (``_rotate``), whose rounding does
not drift however often a locked, turning ensemble repeats d.  A run
(``run_particles``) and criterion 10 of ``verify`` take np.cos/np.sin once,
at their start, and step only in that loop.  The rotation plan
(``_rotation``), decided once per run, follows the a-priori bound
B = |dt| (max|omega| + K) on |d|: the fewest doublings m that bring B / 2^m
to at most ``ROTATION_MAX``, and the fewest Taylor terms of cos and sin
whose first omitted term at B / 2^m is below a quarter of an ulp of 1 (5 at
0.1, 4 at 0.021), with one term more for cos d - 1, whose first omitted
term then falls below a quarter of an ulp of cos d - 1 itself.  A plan with
m > 0 takes the polynomials at d / 2^m and squares 1 + v m times,
v <- v (v + 2).  A run returns one row (t, r, phi, D, V_p) per sample, with
r, phi and V_p from the phasor mean of the carried table at that sample,
within roundoff of the exact trig of the sample phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .files import write_csv
from .order import (RATIO_TOL, TIME_TOL, TWO_PI, OrderParams, _from_phasor, rk4_increment,
                    sample_count)

#: largest a-priori phase change |dt| (max|omega| + K) / 2^m at which a
#: rotation takes cos and sin of d / 2^m from Taylor polynomials; a step of
#: a larger bound B takes the fewest doublings m that bring B / 2^m to it
#: (``_rotation``);
#: |dtheta/dt| <= |omega| + K|z| and |z| <= 1
ROTATION_MAX = 0.1

# Taylor coefficients in powers of u = e^2 (u^4 .. u^0), one (2, 1) column
# per power: of cos e and sin e / e (``_EXP``), and of (cos e - 1) / u and
# sin e / e (``_VERSINE``).  A plan of n terms (``_rotation``; at most 5 at
# |e| <= ROTATION_MAX) takes the last n columns.
_EXP = tuple(np.array([[(-1) ** k / math.factorial(2 * k)],
                       [(-1) ** k / math.factorial(2 * k + 1)]]) for k in range(4, -1, -1))
_VERSINE = tuple(np.array([[(-1) ** (k + 1) / math.factorial(2 * k + 2)],
                           [(-1) ** k / math.factorial(2 * k + 1)]]) for k in range(4, -1, -1))


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
        if not 0.0 <= self.K < math.inf:
            raise ValueError("coupling strength must be finite and nonnegative")
        if not (np.isfinite(th).all() and np.isfinite(om).all()):
            raise ValueError("thetas and omegas must be finite")
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "omegas", om)


def _unit(thetas: np.ndarray) -> np.ndarray:
    """The complex table w = exp(i theta) of phases (..., N), from np.cos/np.sin."""
    w = np.empty(np.shape(thetas), complex)
    np.cos(thetas, out=w.real)
    np.sin(thetas, out=w.imag)
    return w


def _mean(w: np.ndarray) -> np.ndarray:
    """The phasor means (..., 1) of the rows of a table w (..., N): sum / n is
    numpy's ``mean`` bit for bit, without its Python-level overhead."""
    return w.sum(axis=-1, keepdims=True) / w.shape[-1]


def _drift(w: np.ndarray, omegas, K: float, spent: bool = False):
    """(omega - K Im(conj(z) w), z) from the table w = exp(i theta) of phases
    (..., N), each row along the last axis one system with its own phasor
    mean z (``_mean``), kept as a length-1 axis.  A spent table, which no one
    reads again, takes the products -K conj(z) w in place."""
    z = _mean(w)
    product = np.multiply(w, -K * z.conj(), out=w if spent else None)
    return np.add(product.imag, omegas), z


def _taylor(d: np.ndarray, coeffs: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, p0, p1): u = d^2 and, shaped as d, the two rows of
    sum_i coeffs[i] u^(n-i), n = len(coeffs) - 1, summed by Horner's rule at
    once on one contiguous (2, d.size) array."""
    u = d * d
    row = u.reshape(1, -1)
    p = row * coeffs[0]
    for a in coeffs[1:-1]:
        p += a
        p *= row
    p += coeffs[-1]
    return u, p[0].reshape(d.shape), p[1].reshape(d.shape)


def _rotate(w0: np.ndarray, d: np.ndarray, rotation: tuple[int, int]) -> np.ndarray:
    """w0 exp(i d) in versine form, w0 + w0 v with v = (cos d - 1) + i sin d,
    for |d| at most the bound that ``_rotation`` made the plan
    rotation = (terms, m) for: the rotation of a carried table, whose
    rounding does not drift however often one d repeats.  v.real and v.imag
    take the Taylor polynomials of cos e - 1, to e^(2 terms), and of sin e,
    to e^(2 terms - 1), at e = d / 2^m (``_taylor``), whose last products
    write into the strided views; m doublings 1 + v <- (1 + v)^2,
    v <- v (v + 2), then make e into d."""
    terms, m = rotation
    if m:
        d = d * 0.5 ** m
    u, c, s = _taylor(d, _VERSINE[-terms:])
    v = np.empty(d.shape, complex)
    np.multiply(c, u, out=v.real)
    np.multiply(s, d, out=v.imag)
    for _ in range(m):
        v *= v + 2.0
    v *= w0
    v += w0
    return v


def _turn(w0: np.ndarray, d: np.ndarray, rotation: tuple[int, int]) -> np.ndarray:
    """w0 exp(i d) for |d| at most the bound that ``_rotation`` made the plan
    rotation = (terms, m) for: the table of one RK4 stage, which one drift
    reads once, so the rounding of cos d near 1 does not build up.  Without
    doublings, exp(i d) takes the Taylor polynomials of cos d, to
    d^(2 terms - 2), and of sin d, to d^(2 terms - 1) (``_taylor``), and w0
    turns in one complex pass; with them, in versine form (``_rotate``),
    whose doublings keep the relative precision of v."""
    terms, m = rotation
    if m:
        return _rotate(w0, d, rotation)
    c, s = _taylor(d, _EXP[-terms:])[1:]
    e = np.empty(d.shape, complex)
    e.real = c
    np.multiply(s, d, out=e.imag)
    e *= w0
    return e


def _rotation(omegas, K: float, dt: float) -> tuple[int, int]:
    """The plan (terms, m) with which one RK4 step turns its stages' tables
    (``_turn``) and rotates the carried one (``_rotate``), fixed for a run.
    B = |dt| (max|omega| + K) bounds the step's phase change; m is the
    fewest doublings with B / 2^m at most ROTATION_MAX, and terms the fewest
    n >= 2 with e^(2n)/(2n)! below 2^-55, a quarter of an ulp of 1, at
    e = B / 2^m.  That is the first term that cos e, of n terms, leaves out;
    sin e, of n terms, leaves out e/(2n + 1) times it; cos e - 1 in versine
    form takes n + 1 terms, to e^(2n), so its first omitted term is below
    2^-55 e^2 / ((2n + 1)(2n + 2)), less than a quarter of an ulp of
    cos e - 1 (about -e^2/2).  Raises ValueError unless B is finite."""
    bound = abs(dt) * (float(np.max(np.abs(omegas))) + K)
    if not bound < math.inf:
        raise ValueError(f"step bound |dt| (max|omega| + K) = {bound!r} is not finite")
    m = 0
    while bound > ROTATION_MAX:
        bound *= 0.5
        m += 1
    terms = 2
    while bound ** (2 * terms) / math.factorial(2 * terms) >= 2.0 ** -55:
        terms += 1
    return terms, m


def _mean_field_step(w: np.ndarray, omegas, K: float, dt: float, rotation: tuple[int, int]):
    """The phase change of one RK4 step (``order.rk4_increment``) of the
    mean-field flow from the table w = exp(i theta) of phases (..., N), one
    system per row.  Stages 2-4 turn w by their phase change d (``_turn``)
    with the plan rotation = ``_rotation(omegas, K, dt)``.
    """
    def rhs(t, d):
        return _drift(_turn(w, d, rotation), omegas, K, spent=True)[0]

    return rk4_increment(rhs, 0.0, dt, _drift(w, omegas, K)[0])


def _advance(w: np.ndarray, thetas: np.ndarray, omegas, K: float, dt: float,
             rotation: tuple[int, int], n: int) -> np.ndarray:
    """n RK4 steps of dt (``_mean_field_step``) of phases thetas (..., N), one
    system per row, from their table w = exp(i theta): advances thetas in
    place, rotates w by each step's phase change (``_rotate``) with the plan
    rotation = ``_rotation(omegas, K, dt)`` and returns the table at the end."""
    for _ in range(n):
        delta = _mean_field_step(w, omegas, K, dt, rotation)
        w = _rotate(w, delta, rotation)
        thetas += delta
    return w


def particle_order(state: ParticleState) -> OrderParams:
    """Amplitude and average phase of the phasor mean (1/N) sum exp(i theta)."""
    return _from_phasor(complex(_mean(_unit(state.thetas))[0]))


def particle_rhs(state: ParticleState) -> np.ndarray:
    """dtheta_i/dt in mean-field form omega_i - K r sin(theta_i - phi).

    Algebraically identical to the all-to-all pairwise sum
    omega_i + (K/N) sum_j sin(theta_j - theta_i), but O(N): with
    z = r exp(i phi) = (mean cos theta, mean sin theta),
    r sin(theta_i - phi) = sin theta_i Re z - cos theta_i Im z, so one cos
    and one sin per oscillator give both z and the drift.
    """
    return _drift(_unit(state.thetas), state.omegas, state.K)[0]


def _potential(thetas: np.ndarray, omegas: np.ndarray, K: float, r: float) -> float:
    """Gradient-flow potential, whose negative gradient is the dynamics, of
    the phases thetas at coupling K from the amplitude r of their phasor mean:
    V = -sum_i omega_i theta_i + (K/2N) sum_ij (1 - cos(theta_j - theta_i)),
    with sum_ij cos(theta_j - theta_i) = |sum exp(i theta)|^2 = (N r)^2.
    """
    pair = 0.5 * K * thetas.size * (1.0 - r * r)
    return float(-np.dot(omegas, thetas) + pair)


def phase_diameter(thetas: np.ndarray) -> float:
    """Max pairwise difference of the lifted phases."""
    return float(thetas.max() - thetas.min())


# ---------------------------------------------------------------------------
# trajectories


def step_plan(state: ParticleState, t_end: float, dt: float,
              sample_every: float) -> tuple[int, int, float, tuple[int, int]]:
    """(n_samples, per, dt, rotation) of a ``run_particles`` run: per RK4
    steps of dt in each of the n_samples sample intervals of
    ``order.sample_count``, dt shrunk from the one asked for so that it
    divides sample_every, and the plan (terms, m) with which the steps
    rotate the table (``_rotation``).  A ratio sample_every / dt within
    ``order.RATIO_TOL`` of a whole number takes that many steps.

    Raises ValueError as ``sample_count`` does, and unless dt is finite and
    exceeds ``order.TIME_TOL`` with sample_every / dt finite.
    """
    n_samples = sample_count(state.t, t_end, sample_every)
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be finite and positive")
    ratio = sample_every / dt
    if not (dt > TIME_TOL and math.isfinite(ratio)):
        raise ValueError(f"dt {dt!r} is too small: it must exceed the time tolerance "
                         f"{TIME_TOL:g} and leave sample_every / dt finite")
    per = round(ratio)
    if abs(ratio - per) > RATIO_TOL * ratio:
        per = math.ceil(ratio)
    dt = sample_every / per
    return n_samples, per, dt, _rotation(state.omegas, state.K, dt)


def run_particles(state: ParticleState, t_end: float, dt: float,
                  sample_every: float) -> np.ndarray:
    """Fixed-step RK4 run sampled at t0 + i sample_every up to t_end; returns
    the (n_samples + 1, 5) rows t, r, phi, D, V_p, one per sample.

    The steps are those of ``step_plan``, which raises ValueError unless
    t_end - t0 is a whole number of sample intervals and dt is finite and
    exceeds ``order.TIME_TOL``; the run ends at the last sample.
    np.cos/np.sin are taken once, at the run start, and the table is
    carried through every sample interval (``_advance``).  Each row's r, phi
    and V_p come from the phasor mean of the carried table at its sample.
    """
    n_samples, per, dt, rotation = step_plan(state, t_end, dt, sample_every)
    ts = state.t + sample_every * np.arange(n_samples + 1)
    thetas, omegas, K = state.thetas.copy(), state.omegas, state.K
    w = _unit(thetas)
    rows = np.empty((n_samples + 1, 5))
    for i, t in enumerate(ts):
        if i:
            w = _advance(w, thetas, omegas, K, dt, rotation, per)
        op = _from_phasor(complex(_mean(w)[0]))
        rows[i] = t, op.R, op.phi, phase_diameter(thetas), _potential(thetas, omegas, K, op.R)
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
    rates, z = _drift(_unit(final.thetas), final.omegas, final.K)
    if float(rates.max() - rates.min()) > 1e-6:
        return None
    anti = _from_phasor(complex(z[0])).phi + np.pi
    d_anti = np.abs((final.thetas - anti + np.pi) % TWO_PI - np.pi)
    return int(np.count_nonzero(d_anti < 0.1))
