"""Conservative finite-volume solver for the Kuramoto-Sakaguchi equation.

The transport equation

    df/dt + d/dtheta [ (omega - K R sin(theta - phi)) f ] = 0

is advanced on a periodic cell-centered theta grid, one slice per omega
quadrature node.  Slices never exchange omega; they couple only through the
global order parameters (R, phi), which are recomputed from the full state
at every Runge-Kutta stage because the velocity field is nonlocal.

Discretization choices:

* space: first-order upwind fluxes, optionally minmod-limited MUSCL
  reconstruction (second order on smooth data, positivity preserving),
* time: two-stage strong-stability-preserving Runge-Kutta (Heun) under a
  CFL restriction measured against the analytic velocity bound.

Stored values are cell averages of the conditional density f / g per slice;
the omega weights of the quadrature fold g back in whenever an integral over
omega is taken.  With that convention each slice carries constant mass in
time (conservation is exact up to roundoff for flux-form updates) and the
weighted total mass is 1 for normalized initial data.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .frequency import FrequencyDensity, quadrature_nodes
from .order import TOL_R, TWO_PI, OrderParams, global_order, phasor

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
# initial data


def cosine_profile(a: float, theta0: float = 0.0):
    """Density (1 + 2 a cos(theta - theta0)) / 2pi; needs |a| <= 1/2."""
    if abs(a) > 0.5:
        raise ValueError("cosine amplitude must satisfy |a| <= 1/2 for positivity")
    return lambda th: (1.0 + 2.0 * a * np.cos(th - theta0)) / TWO_PI


def von_mises_profile(concentration: float, theta0: float = 0.0):
    """Von Mises density with the given concentration, centered at theta0."""
    if concentration < 0:
        raise ValueError("concentration must be nonnegative")
    norm = TWO_PI * _i0e(concentration)

    def profile(th):
        return np.exp(concentration * (np.cos(th - theta0) - 1.0)) / norm

    return profile


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
    """Periodic piecewise-linear density through (theta, value) samples."""
    th = np.asarray(thetas, dtype=float) % TWO_PI
    va = np.asarray(values, dtype=float)
    if np.any(va < 0):
        raise ValueError("profile table values must be nonnegative")
    idx = np.argsort(th)
    th, va = th[idx], va[idx]
    th_ext = np.concatenate([[th[-1] - TWO_PI], th, [th[0] + TWO_PI]])
    va_ext = np.concatenate([[va[-1]], va, [va[0]]])
    return lambda x: np.interp(np.asarray(x) % TWO_PI, th_ext, va_ext)


_GAUSS4_X, _GAUSS4_W = np.polynomial.legendre.leggauss(4)


def project_profile(grid: PhaseGrid, profile) -> np.ndarray:
    """Cell averages of a density profile by 4-point Gauss per cell."""
    half = 0.5 * grid.dtheta
    pts = grid.centers[:, None] + half * _GAUSS4_X[None, :]
    return profile(pts) @ (0.5 * _GAUSS4_W)


def state_from_profile(grid: PhaseGrid, g: FrequencyDensity, n_omega: int,
                       K: float, profile, t: float = 0.0) -> KineticState:
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
    return KineticState(grid, pairs[:, 0], pairs[:, 1], values, K=K, t=t)


# ---------------------------------------------------------------------------
# fluxes and stepping


def velocity_field(state: KineticState, op: OrderParams) -> np.ndarray:
    """Edge velocities v[k, j] = omega_k - K R sin(theta_j - phi), edge j at
    theta = j * dtheta between cells j-1 and j; omega_k when phi is undefined."""
    z = op.R * complex(math.cos(op.phi), math.sin(op.phi)) if op.defined else 0j
    return _edge_velocity(state, z)


def _edge_velocity(state: KineticState, z: complex) -> np.ndarray:
    """velocity_field from the phasor z = R exp(i phi) with no trig call, as
    omega_k - K (Re z sin theta_j - Im z cos theta_j); just omega_k unless
    |z| > TOL_R, so a NaN in one slice leaves the others' fluxes finite."""
    if state.K == 0.0 or not abs(z) > TOL_R:
        return np.broadcast_to(state.omega[:, None], (state.n_omega, state.grid.n_theta))
    return state.omega[:, None] - state.grid.trig_edges @ (state.K * z.real,
                                                           -state.K * z.imag)


def _cfl_step(state: KineticState, R: float, cfl: float, dt_max: float) -> float:
    """cfl * dtheta over max|omega| + K R, which no edge |v| exceeds, capped
    at dt_max; a state with all velocities zero gets dt_max."""
    bound = float(np.max(np.abs(state.omega))) + state.K * (R if R > TOL_R else 0.0)
    return min(cfl * state.grid.dtheta / bound, dt_max) if bound > 0.0 else dt_max


def cfl_dt(state: KineticState, cfl: float, dt_max: float = 1.0) -> float:
    """Largest stable step: cfl * dtheta over the velocity bound max|omega| + K R."""
    if not 0.0 < cfl <= 1.0:
        raise ValueError("cfl must lie in (0, 1]")
    return _cfl_step(state, global_order(state).R, cfl, dt_max)


def _shift_right(a: np.ndarray) -> np.ndarray:
    """Periodic shift by +1 along the theta axis (cheaper than np.roll here)."""
    out = np.empty_like(a)
    out[:, 1:] = a[:, :-1]
    out[:, 0] = a[:, -1]
    return out


def _shift_left(a: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    out[:, :-1] = a[:, 1:]
    out[:, -1] = a[:, 0]
    return out


def _minmod_slopes(values: np.ndarray) -> np.ndarray:
    """minmod(dl, dr) = max(min(dl, dr), 0) + min(max(dl, dr), 0)."""
    dr = _shift_left(values) - values
    dl = _shift_right(dr)
    return (np.maximum(np.minimum(dl, dr), 0.0)
            + np.minimum(np.maximum(dl, dr), 0.0))


def _fluxes(values: np.ndarray, v_edges: np.ndarray, scheme: str) -> np.ndarray:
    """Upwind fluxes at left edges; F[k, j] is the flux between cells j-1 and j."""
    if scheme == "muscl":
        slopes = _minmod_slopes(values)
        left = _shift_right(values + 0.5 * slopes)
        right = values - 0.5 * slopes
    elif scheme == "upwind":
        left = _shift_right(values)
        right = values
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return v_edges * np.where(v_edges >= 0.0, left, right)


def _stage(state: KineticState, values: np.ndarray, dt: float, scheme: str,
           z: complex | None = None, t: float | None = None) -> np.ndarray:
    """Forward-Euler stage from values at time t (default state.t); a
    FluxNanError names the first non-finite value, else the first such flux."""
    grid = state.grid
    if z is None:
        z = phasor(grid, state.weights, values)
    flux = _fluxes(values, _edge_velocity(state, z), scheme)
    if not np.all(np.isfinite(flux)):
        bad = ~np.isfinite(values)
        k, j = np.argwhere(bad if bad.any() else ~np.isfinite(flux))[0]
        raise FluxNanError(int(k), int(j), state.t if t is None else t)
    return values - (dt / grid.dtheta) * (_shift_left(flux) - flux)


def _advance(state: KineticState, values: np.ndarray, t: float, dt: float,
             scheme: str, z0: complex) -> np.ndarray:
    f1 = _stage(state, values, dt, scheme, z0, t)
    f2 = _stage(state, f1, dt, scheme, t=t)
    return 0.5 * (values + f2)


def step(state: KineticState, dt: float, scheme: str = "muscl") -> KineticState:
    """One SSP-RK2 step; order parameters are refreshed at each stage."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    z = phasor(state.grid, state.weights, state.values)
    admissible = _cfl_step(state, abs(z), 1.0, np.inf)
    if dt > admissible * (1.0 + 1e-9):
        raise CflError(dt, admissible)
    return replace(state, values=_advance(state, state.values, state.t, dt, scheme, z),
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


def run(state: KineticState, t_end: float, sample_every: float,
        sampler=None, sink=None, cfl: float = 0.5, scheme: str = "muscl",
        dt_max: float = 1.0) -> RunResult:
    """Advance to t_end with adaptive CFL steps, sampling at t0 + i sample_every.

    ``sampler`` maps a state to a record (None records are dropped); ``sink``
    is called with each record as it is produced.  Steps are shortened to
    land on sample times and then take that time exactly, so the cadence and
    therefore the output are deterministic for a given configuration.  Each
    step's values must stay above the -1e-13 floor KineticState enforces.
    """
    if t_end < state.t:
        raise ValueError("t_end must not precede the state time")
    if sample_every <= 0:
        raise ValueError("sample_every must be positive")
    if not 0.0 < cfl <= 1.0:
        raise ValueError("cfl must lie in (0, 1]")

    records = []

    def emit(s):
        rec = sampler(s) if sampler is not None else None
        if rec is not None:
            records.append(rec)
            if sink is not None:
                sink(rec)

    grid, w = state.grid, state.weights
    m0 = state.slice_masses()
    m0_safe = np.where(m0 > 0, m0, 1.0)
    total0 = float(w @ m0)
    prev_m = m0.copy()
    prev_R = None
    min_dR = 0.0
    max_step_rel = 0.0
    max_drift_rel = 0.0
    max_total_drift = 0.0
    max_dt = 0.0
    n_steps = 0
    eps = 1e-12
    values, t0, t = state.values, state.t, state.t
    min_value = float(values.min())

    emit(state)
    i_sample = 1
    while t < t_end - eps:
        next_sample = t0 + i_sample * sample_every
        z = phasor(grid, w, values)
        R = abs(z)
        if prev_R is not None:
            min_dR = min(min_dR, R - prev_R)
        prev_R = R
        dt = min(_cfl_step(state, R, cfl, dt_max), t_end - t, next_sample - t)
        values = _advance(state, values, t, dt, scheme, z)
        t += dt
        n_steps += 1
        max_dt = max(max_dt, dt)

        min_value = min(min_value, float(values.min()))
        if min_value < -1e-13:
            raise ValueError("cell averages must be nonnegative (within roundoff)")
        m = values.sum(axis=1) * grid.dtheta
        max_step_rel = max(max_step_rel, float(np.max(np.abs(m - prev_m) / m0_safe)))
        max_drift_rel = max(max_drift_rel, float(np.max(np.abs(m - m0) / m0_safe)))
        max_total_drift = max(max_total_drift, abs(float(w @ m) - total0))
        prev_m = m

        if t >= next_sample - eps:
            t = next_sample
            emit(replace(state, values=values, t=t))
            i_sample += 1

    final = replace(state, values=values, t=t)
    if prev_R is not None:
        min_dR = min(min_dR, global_order(final).R - prev_R)
    return RunResult(records, final, n_steps, max_dt, min_dR,
                     max_step_rel, max_drift_rel, max_total_drift, min_value)


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
                    K: float, max_step: float | None = None):
    """Integrate dtheta/dt = omega - K R(t) sin(theta - phi(t)) by RK4.

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
    if max_step is None:
        Rmax = float(np.max(series.R))
        max_step = min(0.01 / (1.0 + K * Rmax + float(np.max(np.abs(omega0)))),
                       float(np.min(np.diff(series.ts))))
    n = max(1, int(np.ceil(abs(span) / max_step)))
    h = span / n
    ts = t0 + h * np.arange(n + 1)
    out = np.empty((n + 1,) + np.broadcast_shapes(theta0.shape, omega0.shape))
    th = np.broadcast_to(theta0, out.shape[1:]).astype(float).copy()
    out[0] = th

    def rhs(t, theta):
        R, phi = series.interp(t)
        return omega0 - K * R * np.sin(theta - phi)

    for i in range(n):
        t = ts[i]
        k1 = rhs(t, th)
        k2 = rhs(t + 0.5 * h, th + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, th + 0.5 * h * k2)
        k4 = rhs(t + h, th + h * k3)
        th = th + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = th
    return ts, out


# ---------------------------------------------------------------------------
# external interfaces

_HEADER = struct.Struct("<qqdd")  # n_theta, n_omega, t, K


def save_checkpoint(state: KineticState, path) -> None:
    """Flat binary layout: header (n_theta, n_omega, t, K), then row-major
    cell values as little-endian 64-bit floats."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(state.grid.n_theta, state.n_omega, state.t, state.K))
        fh.write(state.values.astype("<f8").tobytes())


def load_checkpoint(path, g: FrequencyDensity) -> KineticState:
    """Rebuild a state from a checkpoint; the omega rule comes from g."""
    with open(path, "rb") as fh:
        n_theta, n_omega, t, K = _HEADER.unpack(fh.read(_HEADER.size))
        values = np.frombuffer(fh.read(), dtype="<f8").reshape(n_omega, n_theta).copy()
    pairs = np.array(quadrature_nodes(g, n_omega))
    if pairs.shape[0] != n_omega:
        raise ValueError("frequency density quadrature does not match checkpoint")
    return KineticState(PhaseGrid(n_theta), pairs[:, 0], pairs[:, 1], values, K=K, t=t)


def save_initial_csv(state: KineticState, path) -> None:
    import csv as _csv
    with open(path, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["omega_index", "theta_index", "f"])
        for k in range(state.n_omega):
            for j in range(state.grid.n_theta):
                w.writerow([k, j, format(state.values[k, j], ".17g")])


def load_initial_csv(path, g: FrequencyDensity, K: float, t: float = 0.0) -> KineticState:
    """Initial data CSV with columns (omega_index, theta_index, f)."""
    import csv as _csv
    with open(path, newline="") as fh:
        reader = _csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["omega_index", "theta_index", "f"]:
            raise ValueError("expected CSV header 'omega_index,theta_index,f'")
        rows = [(int(r[0]), int(r[1]), float(r[2])) for r in reader if r]
    n_omega = max(r[0] for r in rows) + 1
    n_theta = max(r[1] for r in rows) + 1
    values = np.zeros((n_omega, n_theta))
    for k, j, v in rows:
        values[k, j] = v
    pairs = np.array(quadrature_nodes(g, n_omega))
    if pairs.shape[0] != n_omega:
        raise ValueError("frequency density quadrature does not match CSV data")
    return KineticState(PhaseGrid(n_theta), pairs[:, 0], pairs[:, 1], values, K=K, t=t)
