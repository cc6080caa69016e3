"""Conservative finite-volume solver for the Kuramoto-Sakaguchi equation.

The transport equation

    df/dt + d/dtheta [ (omega - K R sin(theta - phi)) f ] = 0

is advanced on a periodic cell-centered theta grid, one slice per omega
quadrature node.  Slices never exchange omega; they couple only through the
global order parameters (R, phi), which are recomputed from the full state
at every Runge-Kutta stage because the velocity field is nonlocal.

Discretization choices:

* space: minmod-limited MUSCL reconstruction with upwind face states
  (second order on smooth data, positivity preserving),
* time: two-stage strong-stability-preserving Runge-Kutta (Heun) under a
  CFL restriction measured against the analytic velocity bound.

A step works in place on (n_omega, n_theta + 2) buffers whose column p holds
cell p - 1 (ghost columns 0 and n_theta + 1 repeat cells n_theta - 1 and 0)
or, for velocities and fluxes, edge p between columns p and p + 1.  A stage
fills the ghosts, then makes each full-size operation one ufunc call on the
flat buffer; entries where one slice meets the next are finite junk that no
interior result reads.

Stored values are cell averages of the conditional density f / g per slice;
the omega weights of the quadrature fold g back in whenever an integral over
omega is taken.  With that convention each slice carries constant mass in
time (conservation is exact up to roundoff for flux-form updates) and the
weighted total mass is 1 for normalized initial data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from types import SimpleNamespace

import numpy as np

from .frequency import FrequencyDensity, quadrature_nodes
from .order import TOL_R, TWO_PI, global_order, phasor, rk4_path, sample_count

MIN_CELLS = 16


class CflError(ValueError):
    """Time step exceeds the advective stability limit."""

    def __init__(self, dt: float, admissible: float):
        self.admissible = admissible
        super().__init__(f"dt={dt:.6g} exceeds admissible dt={admissible:.6g}")


class FluxNanError(FloatingPointError):
    """A non-finite flux appeared during a step."""

    def __init__(self, slice_index: int, cell_index: int, t: float):
        self.slice_index = slice_index
        self.cell_index = cell_index
        super().__init__(
            f"non-finite flux at slice {slice_index}, cell {cell_index}, t={t:.6g}")


@dataclass(frozen=True, eq=False)
class PhaseGrid:
    """Uniform periodic grid on [0, 2*pi) with cell centers (j + 1/2) dtheta."""

    n_theta: int
    centers: np.ndarray = field(init=False, repr=False)
    edges: np.ndarray = field(init=False, repr=False)         # left edges j*dtheta
    trig_centers: np.ndarray = field(init=False, repr=False)  # (n_theta, 2): cos, sin
    trig_edges: np.ndarray = field(init=False, repr=False)    # (n_theta, 2): sin, cos

    def __post_init__(self):
        if self.n_theta < MIN_CELLS:
            raise ValueError(f"n_theta must be >= {MIN_CELLS}")
        dth = TWO_PI / self.n_theta
        centers = (np.arange(self.n_theta) + 0.5) * dth
        edges = np.arange(self.n_theta) * dth
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "trig_centers",
                           np.column_stack([np.cos(centers), np.sin(centers)]))
        object.__setattr__(self, "trig_edges",
                           np.column_stack([np.sin(edges), np.cos(edges)]))

    @property
    def dtheta(self) -> float:
        return TWO_PI / self.n_theta


@dataclass(frozen=True, eq=False)
class KineticState:
    """Immutable snapshot of the discretized density.

    values[k, j] is the cell average of the conditional density on omega
    slice k; ``weights`` folds g(omega) into omega integrals.
    """

    grid: PhaseGrid
    omega: np.ndarray     # (n_omega,)
    weights: np.ndarray   # (n_omega,), density-folded
    values: np.ndarray    # (n_omega, n_theta)
    K: float
    t: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.omega.size, self.grid.n_theta):
            raise ValueError("values must have shape (n_omega, n_theta)")
        if self.K < 0:
            raise ValueError("coupling strength must be nonnegative")
        if np.any(values < -1e-13):
            raise ValueError("cell averages must be nonnegative (within roundoff)")
        object.__setattr__(self, "values", values)

    @property
    def n_omega(self) -> int:
        return self.omega.size

    def slice_masses(self) -> np.ndarray:
        return self.values.sum(axis=1) * self.grid.dtheta

    def marginal_density(self) -> np.ndarray:
        """Theta marginal rho(theta) on cell centers."""
        return self.weights @ self.values


# ---------------------------------------------------------------------------
# initial data: profiles are partials of module-level functions, so they
# pickle into the worker processes of a sweep


def cosine_profile(a: float, theta0: float = 0.0):
    """Density (1 + 2 a cos(theta - theta0)) / 2pi; needs |a| <= 1/2."""
    if abs(a) > 0.5:
        raise ValueError("cosine amplitude must satisfy |a| <= 1/2 for positivity")
    return partial(_cosine, a, theta0)


def _cosine(a, theta0, th):
    return (1.0 + 2.0 * a * np.cos(th - theta0)) / TWO_PI


def von_mises_profile(concentration: float, theta0: float = 0.0):
    """Von Mises density with the given concentration, centered at theta0."""
    if concentration < 0:
        raise ValueError("concentration must be nonnegative")
    return partial(_von_mises, concentration, theta0, TWO_PI * _i0e(concentration))


def _von_mises(concentration, theta0, norm, th):
    return np.exp(concentration * (np.cos(th - theta0) - 1.0)) / norm


def _i0e(x: float) -> float:
    """exp(-x) I0(x) for x >= 0, to a few ulps.

    Below 50 this is numpy's I0 times exp(-x) (I0 alone overflows past
    x ~ 713).  From 50 on it is the asymptotic series
    exp(-x) I0(x) ~ (2 pi x)^(-1/2) sum_k ((2k-1)!!)^2 / (k! (8x)^k),
    whose 20th term is below 1e-23 there.
    """
    if x < 50.0:
        return float(np.i0(x)) * math.exp(-x)
    terms = [1.0]
    for k in range(1, 21):
        terms.append(terms[-1] * (2 * k - 1) ** 2 / (8.0 * k * x))
    return math.fsum(terms) / math.sqrt(TWO_PI * x)


def table_profile(thetas, values):
    """Periodic piecewise-linear density through nonnegative (theta, value)
    samples, not all zero."""
    th = np.asarray(thetas, dtype=float) % TWO_PI
    va = np.asarray(values, dtype=float)
    if np.any(va < 0):
        raise ValueError("profile table values must be nonnegative")
    if not np.any(va > 0):
        raise ValueError("profile table has zero mass: every value is 0")
    idx = np.argsort(th)
    th, va = th[idx], va[idx]
    th_ext = np.concatenate([[th[-1] - TWO_PI], th, [th[0] + TWO_PI]])
    va_ext = np.concatenate([[va[-1]], va, [va[0]]])
    return partial(_periodic_interp, th_ext, va_ext)


def _periodic_interp(th_ext, va_ext, x):
    return np.interp(np.asarray(x) % TWO_PI, th_ext, va_ext)


# np.polynomial.legendre.leggauss(4), written out so numpy.polynomial is not imported
_GAUSS4_X = np.array([-0.8611363115940526, -0.33998104358485626,
                      0.33998104358485626, 0.8611363115940526])
_GAUSS4_W = np.array([0.34785484513745357, 0.6521451548625464,
                      0.6521451548625464, 0.34785484513745357])


def project_profile(grid: PhaseGrid, profile) -> np.ndarray:
    """Cell averages of a density profile by 4-point Gauss per cell."""
    half = 0.5 * grid.dtheta
    pts = grid.centers[:, None] + half * _GAUSS4_X[None, :]
    return profile(pts) @ (0.5 * _GAUSS4_W)


def state_from_profile(grid: PhaseGrid, g: FrequencyDensity, n_omega: int,
                       K: float, profile) -> KineticState:
    """Product initial state f0 = g(omega) * rho0(theta), unit slice masses.

    The projected profile is renormalized per slice so the discrete slice
    mass is exactly 1 (the projection itself is accurate to the quadrature
    order; the renormalization removes its residual).
    """
    pairs = np.array(quadrature_nodes(g, n_omega))
    cells = project_profile(grid, profile)
    if np.any(cells < 0):
        raise ValueError("initial profile produced negative cell averages")
    cells = cells / (cells.sum() * grid.dtheta)
    values = np.tile(cells, (pairs.shape[0], 1))
    return KineticState(grid, pairs[:, 0], pairs[:, 1], values, K=K)


# ---------------------------------------------------------------------------
# fluxes and stepping


def _edge_velocity(state: KineticState, z: complex, trig_edges: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """Edge velocities v[k, j] = omega_k - K R sin(theta_j - phi) from the
    phasor z = R exp(i phi), into out, at the edges theta_j whose (sin, cos)
    are the rows of trig_edges: no trig call.  Just omega_k unless
    |z| > TOL_R, so a NaN in one slice leaves the others' fluxes finite."""
    np.copyto(out, state.omega[:, None])
    if state.K != 0.0 and abs(z) > TOL_R:
        np.subtract(out, trig_edges @ (state.K * z.real, -state.K * z.imag), out=out)
    return out


def _omega_max(state: KineticState) -> float:
    return float(np.max(np.abs(state.omega)))


def _cfl_step(state: KineticState, omega_max: float, R: float, cfl: float,
              dt_max: float) -> float:
    """cfl * dtheta over omega_max + K R, omega_max = max|omega|, which no
    edge |v| exceeds, capped at dt_max; a state with all velocities zero gets
    dt_max."""
    bound = omega_max + state.K * (R if R > TOL_R else 0.0)
    return min(cfl * state.grid.dtheta / bound, dt_max) if bound > 0.0 else dt_max


def cfl_dt(state: KineticState, cfl: float) -> float:
    """Largest stable step: cfl * dtheta over the velocity bound max|omega| + K R,
    capped at 1.0, the default dt_max of ``run``."""
    if not 0.0 < cfl <= 1.0:
        raise ValueError("cfl must lie in (0, 1]")
    return _cfl_step(state, _omega_max(state), global_order(state).R, cfl, 1.0)


def _padded(shape: tuple[int, int]) -> SimpleNamespace:
    """A zeroed (n_omega, n_theta + 2) array and the views a stage takes of it."""
    a = np.zeros(shape)
    f, n = a.reshape(-1), shape[1] - 2
    return SimpleNamespace(a=a, f=f, head=f[:-1], tail=f[1:], inner=a[:, 1:-1],
                           ghosts=a[:, ::n + 1], seam=a[:, n:0:1 - n])


class _Workspace:
    """The buffers of SSP-RK2 steps for states of one shape (the layout is in
    the module docstring); `advance` rotates three value buffers."""

    def __init__(self, grid: PhaseGrid, n_omega: int):
        shape, self.dtheta = (n_omega, grid.n_theta + 2), grid.dtheta
        self.trig = grid.trig_edges[np.r_[0:grid.n_theta, 0, 1]]   # edge p at column p
        self.bufs = [_padded(shape) for _ in range(3)]
        self.vel, self.diff, self.slope, self.half, self.face = (_padded(shape) for _ in range(5))
        self.flux = self.diff.a[:, :-2]     # diff ends a stage as fluxes; edges 0 .. n_theta - 1
        self.upwind_right = np.zeros(shape[0] * shape[1] - 1, dtype=bool)

    def load(self, values: np.ndarray) -> np.ndarray:
        self.bufs[0].inner[...] = values
        return self.bufs[0].inner

    def stage(self, state: KineticState, src, dst, dt: float, z: complex,
              t: float) -> None:
        """Forward-Euler stage from src to dst at time t; a FluxNanError names
        the first non-finite value, else the first non-finite flux."""
        d, s, h, face, up = self.diff, self.slope, self.half, self.face, self.upwind_right
        np.copyto(src.ghosts, src.seam)
        _edge_velocity(state, z, self.trig, self.vel.a)
        np.subtract(src.tail, src.head, out=d.head)
        np.minimum(d.head, d.tail, out=s.tail)      # minmod(dl, dr) = median(dl, dr, 0)
        np.maximum(d.head, d.tail, out=h.tail)
        np.minimum(h.f, 0.0, out=h.f)
        np.maximum(s.f, h.f, out=s.f)
        np.copyto(s.ghosts, s.seam)
        np.multiply(s.f, 0.5, out=h.f)
        np.add(src.f, h.f, out=face.f)                          # upwind state at edge p:
        np.less(self.vel.head, 0.0, out=up)                     # column p's right face
        np.subtract(src.tail, h.tail, out=face.head, where=up)  # or p + 1's left face
        np.multiply(self.vel.f, face.f, out=d.f)
        # a non-finite interior flux makes the sum non-finite; junk alone may too
        if not math.isfinite(np.add.reduce(d.f)) and not np.isfinite(self.flux).all():
            bad = ~np.isfinite(src.inner)
            k, j = np.argwhere(bad if bad.any() else ~np.isfinite(self.flux))[0]
            raise FluxNanError(int(k), int(j), t)
        np.subtract(d.tail, d.head, out=h.tail)
        np.multiply(h.f, dt / self.dtheta, out=h.f)
        np.subtract(src.f, h.f, out=dst.f)

    def advance(self, state: KineticState, t: float, dt: float,
                z0: complex) -> np.ndarray:
        """One SSP-RK2 step of the loaded values; returns a view of the result,
        which the next advance overwrites."""
        u0, u1, u2 = self.bufs
        self.stage(state, u0, u1, dt, z0, t)
        self.stage(state, u1, u2, dt, phasor(state.grid, state.weights, u1.inner), t)
        np.add(u0.f, u2.f, out=u2.f)
        np.multiply(u2.f, 0.5, out=u2.f)
        self.bufs = [u2, u0, u1]
        return u2.inner


@lru_cache(maxsize=8)
def _shared_workspace(n_omega: int, n_theta: int) -> _Workspace:
    """The workspace `step` reuses for states of one shape (not thread-safe)."""
    return _Workspace(PhaseGrid(n_theta), n_omega)


def step(state: KineticState, dt: float) -> KineticState:
    """One SSP-RK2 step; order parameters are refreshed at each stage."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    z = phasor(state.grid, state.weights, state.values)
    admissible = _cfl_step(state, _omega_max(state), abs(z), 1.0, np.inf)
    if dt > admissible * (1.0 + 1e-9):
        raise CflError(dt, admissible)
    ws = _shared_workspace(state.n_omega, state.grid.n_theta)
    ws.load(state.values)
    return replace(state, values=ws.advance(state, state.t, dt, z).copy(),
                   t=state.t + dt)


@dataclass
class RunResult:
    records: list
    final_state: KineticState
    n_steps: int
    max_dt: float
    min_step_delta_R: float          # most negative one-step change of R
    max_slice_mass_step_rel: float   # largest per-step slice-mass change, relative
    max_slice_mass_drift_rel: float  # largest drift from the initial slice masses
    max_total_mass_drift: float
    min_cell_value: float            # smallest cell average seen (positivity margin)

    @property
    def min_step_delta_R_ok(self) -> bool:
        """Whether R fell by at most 1e-12 in every step, as it must for
        identical oscillators."""
        return self.min_step_delta_R >= -1e-12


def run(state: KineticState, t_end: float, sample_every: float,
        sampler=None, cfl: float = 0.5, dt_max: float = 1.0) -> RunResult:
    """Advance with adaptive CFL steps through the samples t0 + i sample_every,
    i = 0 .. ``order.sample_count(t0, t_end, sample_every)``, and end at the
    last one; sample_count raises ValueError for any other t_end.

    ``sampler`` maps the state at each sample time, the start included, to a
    record; without it the result holds no records.  Steps are shortened to
    land on sample times and then take that time exactly, so the cadence and
    therefore the output are deterministic for a given configuration.  Each
    step's values must stay above the -1e-13 floor KineticState enforces.
    """
    n_samples = sample_count(state.t, t_end, sample_every)
    if not 0.0 < cfl <= 1.0:
        raise ValueError("cfl must lie in (0, 1]")
    if not dt_max > 0:
        raise ValueError("dt_max must be positive")

    grid, w = state.grid, state.weights
    omega_max = _omega_max(state)       # omega is fixed for the run
    m0 = state.slice_masses()
    m0_safe = np.where(m0 > 0, m0, 1.0)
    total0 = float(w @ m0)
    masses = [m0]               # the last folded slice masses, then one row per step
    min_dR = 0.0
    max_step_rel = 0.0
    max_drift_rel = 0.0
    max_total_drift = 0.0
    max_dt = 0.0
    n_steps = 0
    eps = 1e-12
    ws = _Workspace(grid, state.n_omega)
    values, t0, t = ws.load(state.values), state.t, state.t
    z = phasor(grid, w, values)     # of the current values: drives the next step
    R = abs(z)
    min_value = float(values.min())
    records = [] if sampler is None else [sampler(state)]

    def fold():
        """Fold the slice masses of the steps since the last fold into the maxima."""
        nonlocal max_step_rel, max_drift_rel, max_total_drift
        m = np.array(masses)
        step_rel, drift_rel = (np.abs(m[1:] - ref) / m0_safe for ref in (m[:-1], m0))
        max_step_rel = max(max_step_rel, float(step_rel.max(initial=0.0)))
        max_drift_rel = max(max_drift_rel, float(drift_rel.max(initial=0.0)))
        max_total_drift = max([max_total_drift] + [abs(float(w @ r) - total0) for r in m[1:]])
        del masses[:-1]

    for i in range(1, n_samples + 1):
        t_sample = t0 + i * sample_every
        # the last sample time may round past t_end (3 * 0.1 > 0.3): no step passes t_end
        t_stop = min(t_sample, t_end)
        while t < t_stop - eps:
            dt = min(_cfl_step(state, omega_max, R, cfl, dt_max), t_stop - t)
            values = ws.advance(state, t, dt, z)
            t += dt
            n_steps += 1
            max_dt = max(max_dt, dt)

            min_value = min(min_value, float(values.min()))
            if min_value < -1e-13:
                raise ValueError("cell averages must be nonnegative (within roundoff)")
            masses.append(values.sum(axis=1) * grid.dtheta)
            z = phasor(grid, w, values)
            min_dR = min(min_dR, abs(z) - R)
            R = abs(z)

        t = t_sample
        fold()
        if sampler is not None:
            records.append(sampler(replace(state, values=values.copy(), t=t)))

    return RunResult(records, replace(state, values=values.copy(), t=t), n_steps, max_dt,
                     min_dR, max_step_rel, max_drift_rel, max_total_drift, min_value)


# ---------------------------------------------------------------------------
# characteristics


@dataclass(frozen=True, eq=False)
class OrderSeries:
    """Recorded (R, phi) time series for characteristic integration.

    phi is stored unwrapped on the real line so linear interpolation never
    crosses a branch cut.
    """

    ts: np.ndarray
    R: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=float)
        if ts.size < 2 or np.any(np.diff(ts) <= 0):
            raise ValueError("series times must be strictly increasing, >= 2 samples")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "R", np.asarray(self.R, dtype=float))
        object.__setattr__(self, "phi", np.unwrap(np.asarray(self.phi, dtype=float)))

    @classmethod
    def from_records(cls, records) -> "OrderSeries":
        ts = np.array([r.t for r in records])
        R = np.array([r.R for r in records])
        phi = np.array([r.phi for r in records])
        return cls(ts, R, phi)

    def interp(self, t):
        t = np.asarray(t, dtype=float)
        return np.interp(t, self.ts, self.R), np.interp(t, self.ts, self.phi)

    @property
    def t_min(self) -> float:
        return float(self.ts[0])

    @property
    def t_max(self) -> float:
        return float(self.ts[-1])


def characteristics(series: OrderSeries, theta0, omega0, t0: float, t1: float,
                    K: float):
    """Integrate dtheta/dt = omega - K R(t) sin(theta - phi(t)) by RK4, in
    steps no longer than 0.01 / (1 + K max R + max|omega0|) or the shortest
    sample interval of the series.

    (R, phi) are linearly interpolated in the recorded series; integration
    may run forward (t1 > t0) or backward.  theta0/omega0 broadcast, so many
    characteristics integrate in one vectorized pass.  Returns (ts, thetas)
    with thetas[i] the (unwrapped) phases at ts[i]; thetas has one trailing
    axis per broadcast input shape.
    """
    lo, hi = min(t0, t1), max(t0, t1)
    if lo < series.t_min - 1e-9 or hi > series.t_max + 1e-9:
        raise ValueError("requested interval lies outside the recorded series")
    theta0 = np.asarray(theta0, dtype=float)
    omega0 = np.asarray(omega0, dtype=float)
    span = t1 - t0
    if span == 0.0:
        return np.array([t0]), theta0[None, ...].copy()
    Rmax = float(np.max(series.R))
    max_step = min(0.01 / (1.0 + K * Rmax + float(np.max(np.abs(omega0)))),
                   float(np.min(np.diff(series.ts))))
    n = max(1, int(np.ceil(abs(span) / max_step)))
    th = np.broadcast_to(theta0, np.broadcast_shapes(theta0.shape, omega0.shape))

    def rhs(t, theta):
        R, phi = series.interp(t)
        return omega0 - K * R * np.sin(theta - phi)

    return rk4_path(rhs, t0, th, span / n, n)
