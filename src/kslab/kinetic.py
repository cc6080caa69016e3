"""Conservative finite-volume solver for the Kuramoto-Sakaguchi equation.

The transport equation

    df/dt + d/dtheta [ (omega - K R sin(theta - phi)) f ] = 0

is advanced on a periodic cell-centered theta grid, one slice per omega
quadrature node.  Slices never exchange omega; they couple only through the
global order parameters (R, phi), which are recomputed from the full state
at every Runge-Kutta stage because the velocity field is nonlocal.  The
initial state is the product of a profile rho0 and a density g, both from
``frequency`` (``state_from_profile``).

Discretization choices:

* space: minmod-limited MUSCL reconstruction with upwind face states
  (second order on smooth data, positivity preserving),
* time: two-stage strong-stability-preserving Runge-Kutta (Heun) under a
  CFL restriction measured against the analytic velocity bound.

``run`` keeps the sample clock, the phasor and R monitor and the records.
The MUSCL stepper of one run (``_Muscl``) owns the step length, the step,
and every per-cell check and monitor; ``step`` and ``cfl_dt`` use it too.
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
from types import SimpleNamespace

import numpy as np

from .frequency import FrequencyDensity, quadrature_nodes
from .order import (MIN_CELLS, TIME_TOL, TOL_R, TWO_PI, _from_phasor, global_order, phasor,
                    rk4_path, sample_count)


class CflError(ValueError):
    """Time step exceeds the advective stability limit."""

    def __init__(self, dt: float, admissible: float):
        self.admissible = admissible
        super().__init__(f"dt={dt:.6g} exceeds admissible dt={admissible:.6g}")


class FluxNanError(FloatingPointError):
    """A non-finite flux or cell value appeared during a step."""

    def __init__(self, slice_index: int, cell_index: int, t: float):
        self.slice_index = slice_index
        self.cell_index = cell_index
        super().__init__(
            f"non-finite flux at slice {slice_index}, cell {cell_index}, t={t:.6g}")


@dataclass(frozen=True, eq=False)
class PhaseGrid:
    """Uniform periodic grid on [0, 2*pi) with cell centers (j + 1/2) dtheta."""

    n_theta: int
    dtheta: float = field(init=False, repr=False)  # 2 pi / n_theta
    centers: np.ndarray = field(init=False, repr=False)
    trig_centers: np.ndarray = field(init=False, repr=False)  # (n_theta, 2): cos, sin
    trig_edges: np.ndarray = field(init=False, repr=False)    # (n_theta, 2): sin, cos at j dtheta

    def __post_init__(self):
        if self.n_theta < MIN_CELLS:
            raise ValueError(f"n_theta must be >= {MIN_CELLS}")
        dth = TWO_PI / self.n_theta
        centers = (np.arange(self.n_theta) + 0.5) * dth
        edges = np.arange(self.n_theta) * dth
        object.__setattr__(self, "dtheta", dth)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "trig_centers",
                           np.column_stack([np.cos(centers), np.sin(centers)]))
        object.__setattr__(self, "trig_edges",
                           np.column_stack([np.sin(edges), np.cos(edges)]))


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
        return np.dot(self.weights, self.values)


# ---------------------------------------------------------------------------
# initial data: the cell averages of a profile rho0 (``frequency``)


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
    if state.K != 0.0 and abs(z) > TOL_R:
        return np.subtract(state.omega[:, None],
                           trig_edges @ (state.K * z.real, -state.K * z.imag), out=out)
    np.copyto(out, state.omega[:, None])
    return out


def cfl_dt(state: KineticState, cfl: float) -> float:
    """Largest stable step: cfl * dtheta over the velocity bound max|omega| + K R,
    capped at 1.0, the default dt_max of ``run``."""
    return _Muscl(state, cfl, 1.0).step_length(state, global_order(state).R)


def _padded(shape: tuple[int, int]) -> SimpleNamespace:
    """A zeroed (n_omega, n_theta + 2) array and the views a stage takes of it."""
    a = np.zeros(shape)
    f, n = a.reshape(-1), shape[1] - 2
    return SimpleNamespace(a=a, f=f, head=f[:-1], tail=f[1:], inner=a[:, 1:-1],
                           ghosts=a[:, ::n + 1], seam=a[:, n:0:1 - n])


class _Muscl:
    """The MUSCL stepper of one run from state: its step length, its SSP-RK2
    step on buffers laid out as in the module docstring (`advance` rotates
    three value buffers; bufs[0].inner holds the current values, the loaded
    state's to begin with), and the per-cell checks and monitors of each
    step and sample."""

    def __init__(self, state: KineticState, cfl: float, dt_max: float):
        if not 0.0 < cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if not dt_max > 0:
            raise ValueError("dt_max must be positive")
        grid, self.cfl, self.dt_max = state.grid, cfl, dt_max
        self.omega_max = float(np.max(np.abs(state.omega)))     # omega is fixed for the run
        shape, self.dtheta = (state.n_omega, grid.n_theta + 2), grid.dtheta
        self.trig = grid.trig_edges[np.r_[0:grid.n_theta, 0, 1]]   # edge p at column p
        self.bufs = [_padded(shape) for _ in range(3)]
        self.vel, self.diff, self.slope, self.half, self.face = (_padded(shape) for _ in range(5))
        self.flux = self.diff.a[:, :-2]     # diff ends a stage as fluxes; edges 0 .. n_theta - 1
        self.upwind_right = np.zeros(shape[0] * shape[1] - 1, dtype=bool)
        self.bufs[0].inner[...] = state.values
        self.m0 = state.slice_masses()
        self.m0_safe = np.where(self.m0 > 0, self.m0, 1.0)
        self.total0 = float(state.weights @ self.m0)
        self.masses = []                # slice masses of the steps since the last sample
        self.min_value = float(state.values.min())
        self.max_drift_rel = self.max_total_drift = 0.0

    def step_length(self, state: KineticState, R: float) -> float:
        """cfl * dtheta over omega_max + K R, omega_max = max|omega|, which no
        edge |v| exceeds, capped at dt_max; a state with all velocities zero
        gets dt_max."""
        bound = self.omega_max + state.K * (R if R > TOL_R else 0.0)
        return min(self.cfl * self.dtheta / bound, self.dt_max) if bound > 0.0 else self.dt_max

    def stage(self, state: KineticState, src, dst, dt: float, z: complex) -> None:
        """Forward-Euler stage from src to dst; it leaves the fluxes in
        self.flux and checks nothing (see ``step``)."""
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
        np.subtract(d.tail, d.head, out=h.tail)
        np.multiply(h.f, dt / self.dtheta, out=h.f)
        np.subtract(src.f, h.f, out=dst.f)

    def advance(self, state: KineticState, dt: float, z0: complex) -> np.ndarray:
        """One SSP-RK2 step of the loaded values; returns a view of the result,
        which the next advance overwrites."""
        u0, u1, u2 = self.bufs
        self.stage(state, u0, u1, dt, z0)
        self.stage(state, u1, u2, dt, phasor(state.grid, state.weights, u1.inner))
        np.add(u0.f, u2.f, out=u2.f)
        np.multiply(u2.f, 0.5, out=u2.f)
        self.bufs = [u2, u0, u1]
        return u2.inner

    def step(self, state: KineticState, t: float, dt: float, z0: complex) -> np.ndarray:
        """The advance from t by dt, checked: returns its values (a view that
        the next advance overwrites) and folds their minimum and masses into
        the monitors.  Values below -1e-13, the floor KineticState enforces,
        raise ValueError.  A non-finite value raises FluxNanError: the two
        stages run again from the start values, which advance keeps; the first
        with a non-finite flux names its first non-finite value, else that
        flux, at t.  If neither has one, the first non-finite cell of the
        values is named at t + dt."""
        values = self.advance(state, dt, z0)
        low, mass = float(values.min()), values.sum(axis=1) * self.dtheta
        total = float(state.weights @ mass)
        # a non-finite cell makes the min NaN or -inf, or a slice mass and so
        # the total NaN or +inf
        if not (math.isfinite(low) and math.isfinite(total)):
            k, j = np.argwhere(~np.isfinite(values))[0]     # the rerun overwrites values
            u2, u0, u1 = self.bufs
            for src, dst in ((u0, u1), (u1, u2)):
                z = z0 if src is u0 else phasor(state.grid, state.weights, src.inner)
                self.stage(state, src, dst, dt, z)
                if not np.isfinite(self.flux).all():
                    bad = ~np.isfinite(src.inner)
                    k, j = np.argwhere(bad if bad.any() else ~np.isfinite(self.flux))[0]
                    raise FluxNanError(int(k), int(j), t)
            raise FluxNanError(int(k), int(j), t + dt)
        self.min_value = min(self.min_value, low)
        if self.min_value < -1e-13:
            raise ValueError("cell averages must be nonnegative (within roundoff)")
        self.masses.append(mass)
        self.max_total_drift = max(self.max_total_drift, abs(total - self.total0))
        return values

    def sample(self) -> np.ndarray:
        """Fold the slice-mass drift of the steps since the last sample, set
        the cells whose |value| is below the smallest normal float to 0, and
        return a copy of the current values."""
        # an interval shorter than the time tolerance takes no step and adds no drift
        drift_rel = np.abs(np.array(self.masses or [self.m0]) - self.m0) / self.m0_safe
        self.max_drift_rel = max(self.max_drift_rel, float(drift_rel.max()))
        self.masses.clear()
        values = self.bufs[0].inner
        values[np.abs(values) < np.finfo(float).tiny] = 0.0
        return values.copy()


def step(state: KineticState, dt: float) -> KineticState:
    """One checked SSP-RK2 step; order parameters are refreshed at each stage."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    muscl = _Muscl(state, 1.0, np.inf)
    z = phasor(state.grid, state.weights, muscl.bufs[0].inner)
    admissible = muscl.step_length(state, abs(z))
    # admissible is 0 only for an infinite R: a non-finite cell, which the step names
    if admissible > 0.0 and dt > admissible * (1.0 + 1e-9):
        raise CflError(dt, admissible)
    values = muscl.step(state, state.t, dt, z)
    return replace(state, values=values.copy(), t=state.t + dt)


def _checked_state(state: KineticState, values: np.ndarray, t: float) -> KineticState:
    """state with values and t replaced, built without the scan of
    ``KineticState.__post_init__``: for values a run's per-step checks
    have already passed."""
    new = object.__new__(KineticState)
    new.__dict__.update(vars(state), values=values, t=t)
    return new


@dataclass
class RunResult:
    """The records, final state, step counts and monitors of one run."""
    records: list
    final_state: KineticState
    n_steps: int
    max_dt: float
    min_step_delta_R: float          # most negative one-step change of R
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

    ``sampler(state, op)`` maps the state at each sample time, the start
    included, and its order parameters op to a record; without it the result
    holds no records.  The last sample's state is the result's final_state.
    Steps are shortened to land on sample times and then take that time
    exactly, so the cadence and therefore the output are deterministic for a
    given configuration, and the sample interval caps each step as dt_max
    does.  The stepper (``_Muscl.step`` and ``sample``) owns every per-cell
    check and monitor: a value below the -1e-13 floor raises ValueError, a
    non-finite one FluxNanError, and each sample sets the cells whose
    |value| is below the smallest normal float to 0, in the state the run
    goes on from as well (a contracting run drives its far field there, and
    arithmetic on subnormals is many times slower).  sample_every must
    exceed the time tolerance ``order.TIME_TOL``.
    """
    n_samples = sample_count(state.t, t_end, sample_every)
    if not sample_every > TIME_TOL:
        raise ValueError(f"sample_every must exceed the time tolerance {TIME_TOL:g}")
    muscl = _Muscl(state, cfl, dt_max)
    grid, w = state.grid, state.weights
    n_steps, max_dt, min_dR = 0, 0.0, 0.0
    t0 = t = state.t
    z = phasor(grid, w, muscl.bufs[0].inner)    # of the current values: drives the next step
    R = abs(z)
    records = [] if sampler is None else [sampler(state, _from_phasor(z))]

    for i in range(1, n_samples + 1):
        t_sample = t0 + i * sample_every
        # the last sample time may round past t_end (3 * 0.1 > 0.3): no step passes t_end
        t_stop = min(t_sample, t_end)
        while t < t_stop - TIME_TOL:
            dt = min(muscl.step_length(state, R), t_stop - t)
            z = phasor(grid, w, muscl.step(state, t, dt, z))
            t += dt
            n_steps += 1
            max_dt = max(max_dt, dt)
            min_dR = min(min_dR, abs(z) - R)
            R = abs(z)

        t = t_sample
        state = _checked_state(state, muscl.sample(), t)
        if sampler is not None:
            records.append(sampler(state, _from_phasor(z)))

    return RunResult(records, state, n_steps, max_dt, min_dR, muscl.max_drift_rel,
                     muscl.max_total_drift, muscl.min_value)


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

    def interp(self, t):
        t = np.asarray(t, dtype=float)
        return np.interp(t, self.ts, self.R), np.interp(t, self.ts, self.phi)


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
    if lo < series.ts[0] - 1e-9 or hi > series.ts[-1] + 1e-9:
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
