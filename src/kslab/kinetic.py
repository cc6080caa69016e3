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
from .order import OrderParams, global_order

TWO_PI = 2.0 * np.pi

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
    edges: np.ndarray = field(init=False, repr=False)          # left edges j*dtheta
    phasor_centers: np.ndarray = field(init=False, repr=False)  # exp(i centers)

    def __post_init__(self):
        if self.n_theta < MIN_CELLS:
            raise ValueError(f"n_theta must be >= {MIN_CELLS}")
        dth = TWO_PI / self.n_theta
        centers = (np.arange(self.n_theta) + 0.5) * dth
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "edges", np.arange(self.n_theta) * dth)
        object.__setattr__(self, "phasor_centers", np.exp(1j * centers))

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

    def total_mass(self) -> float:
        return float(self.weights @ self.slice_masses())

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
    """Edge velocities v[k, j] = omega_k - K R sin(theta_j - phi).

    Edge j sits at theta = j * dtheta, between cells j-1 and j (periodic).
    When R is below tolerance the sine term carries a zero factor and the
    velocities are just omega_k.
    """
    KR = state.K * (op.R if op.defined else 0.0)
    if KR == 0.0:
        return np.broadcast_to(state.omega[:, None],
                               (state.n_omega, state.grid.n_theta)).copy()
    s = np.sin(state.grid.edges - op.phi)
    return state.omega[:, None] - KR * s[None, :]


def _velocity_bound(state: KineticState, op: OrderParams) -> float:
    """max|omega| + K R: floors (in fact equals, after flooring) the edge
    maximum of |v|, since |omega - K R sin| never exceeds it."""
    return float(np.max(np.abs(state.omega))) + state.K * (op.R if op.defined else 0.0)


def cfl_dt(state: KineticState, cfl: float, dt_max: float = 1.0) -> float:
    """Largest stable step: cfl * dtheta over the velocity scale.

    The denominator is the measured edge maximum floored by the analytic
    bound max|omega| + K R; the floor always dominates (and never exceeds
    max|omega| + K).  A fully degenerate state, all velocities zero,
    returns dt_max.
    """
    if not 0.0 < cfl <= 1.0:
        raise ValueError("cfl must lie in (0, 1]")
    denom = _velocity_bound(state, global_order(state))
    if denom <= 0.0:
        return dt_max
    return min(cfl * state.grid.dtheta / denom, dt_max)


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
    dr = _shift_left(values) - values
    dl = _shift_right(dr)
    return np.where(dl * dr > 0.0, np.sign(dl) * np.minimum(np.abs(dl), np.abs(dr)), 0.0)


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


def _order_of(grid: PhaseGrid, weights: np.ndarray, values: np.ndarray) -> OrderParams:
    from .order import _from_phasor
    z = ((weights @ values) @ grid.phasor_centers) * grid.dtheta
    return _from_phasor(z)


def _stage(state: KineticState, values: np.ndarray, dt: float, scheme: str,
           op: OrderParams | None = None) -> np.ndarray:
    grid = state.grid
    if op is None:
        op = _order_of(grid, state.weights, values)
    KR = state.K * (op.R if op.defined else 0.0)
    if KR == 0.0:
        v = np.broadcast_to(state.omega[:, None], values.shape)
    else:
        v = state.omega[:, None] - KR * np.sin(grid.edges - op.phi)[None, :]
    flux = _fluxes(values, v, scheme)
    if not np.all(np.isfinite(flux)):
        k, j = np.argwhere(~np.isfinite(flux))[0]
        raise FluxNanError(int(k), int(j), state.t)
    return values - (dt / grid.dtheta) * (_shift_left(flux) - flux)


def _advance(state: KineticState, dt: float, scheme: str,
             op0: OrderParams) -> KineticState:
    f1 = _stage(state, state.values, dt, scheme, op=op0)
    f2 = _stage(state, f1, dt, scheme)
    return replace(state, values=0.5 * (state.values + f2), t=state.t + dt)


def step(state: KineticState, dt: float, scheme: str = "muscl") -> KineticState:
    """One SSP-RK2 step; order parameters are refreshed at each stage."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    op = global_order(state)
    bound = _velocity_bound(state, op)
    admissible = state.grid.dtheta / bound if bound > 0 else np.inf
    if dt > admissible * (1.0 + 1e-9):
        raise CflError(dt, admissible)
    return _advance(state, dt, scheme, op)


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


def run(state: KineticState, t_end: float, sample_every: float,
        sampler=None, sink=None, cfl: float = 0.5, scheme: str = "muscl",
        dt_max: float = 1.0) -> RunResult:
    """Advance to t_end with adaptive CFL steps, sampling every sample_every.

    ``sampler`` maps a state to a record (None records are dropped); ``sink``
    is called with each record as it is produced.  Steps are shortened to
    land exactly on sample times, so the cadence and therefore the output
    are deterministic for a given configuration.
    """
    if t_end < state.t:
        raise ValueError("t_end must not precede the state time")
    if sample_every <= 0:
        raise ValueError("sample_every must be positive")

    records = []

    def emit(s):
        rec = sampler(s) if sampler is not None else None
        if rec is not None:
            records.append(rec)
            if sink is not None:
                sink(rec)

    m0 = state.slice_masses()
    m0_safe = np.where(m0 > 0, m0, 1.0)
    w = state.weights
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

    if not 0.0 < cfl <= 1.0:
        raise ValueError("cfl must lie in (0, 1]")
    emit(state)
    next_sample = state.t + sample_every
    dth = state.grid.dtheta
    while state.t < t_end - eps:
        op = global_order(state)
        if prev_R is not None:
            min_dR = min(min_dR, op.R - prev_R)
        prev_R = op.R
        bound = _velocity_bound(state, op)
        dt = cfl * dth / bound if bound > 0 else dt_max
        dt = min(dt, dt_max, t_end - state.t, next_sample - state.t)
        state = _advance(state, dt, scheme, op)
        n_steps += 1
        max_dt = max(max_dt, dt)

        m = state.slice_masses()
        max_step_rel = max(max_step_rel, float(np.max(np.abs(m - prev_m) / m0_safe)))
        max_drift_rel = max(max_drift_rel, float(np.max(np.abs(m - m0) / m0_safe)))
        max_total_drift = max(max_total_drift, abs(float(w @ m) - total0))
        prev_m = m

        if state.t >= next_sample - eps:
            emit(state)
            next_sample += sample_every

    if prev_R is not None:
        min_dR = min(min_dR, global_order(state).R - prev_R)
    return RunResult(records, state, n_steps, max_dt, min_dR,
                     max_step_rel, max_drift_rel, max_total_drift)


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
