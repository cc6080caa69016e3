"""Input densities: natural frequencies g(omega), with their quadrature rules
and locked states, and the initial phase profiles rho0(theta); both steppers
start from the product f0 = rho0(theta) g(omega).

A density holds only its kind, the bound M of its support and, for a table,
the table.  ``quadrature_nodes(g, n)`` builds an n-point rule whose weights
carry the density folded in: an integral int h(omega) g(omega) domega is
evaluated as sum_k weight_k * h(node_k).  Two kinds are supported:

* ``dirac``   - unit point mass at omega = 0 (identical oscillators),
* ``table``   - piecewise-linear density given by (omega, density) samples,
  renormalized to unit mass at load time.

A uniform density on [-M, M] (``uniform``) is the one-segment table with
constant density 1/(2M), so every continuous g takes the same path.

All densities are required to have (numerically) zero mean; a nonzero-mean
table is rejected, since the rotating-frame reduction is the caller's job.

A profile rho0 (cosine, von Mises or periodic piecewise-linear table) is a
partial of a module-level function of theta, so it pickles into the worker
processes of a sweep.  Every table, of g or of rho0, is drawn by one inverse
CDF (``_inverse_cdf``), any other profile by rejection (``sample_phases``).

The locked-equilibrium functional H(a) = int_{|omega|<=a} sqrt(1-(omega/a)^2)
g(omega) domega is evaluated in closed form.  A table density is linear on
each segment, and int (c0 + c1 s) sqrt(1-s^2) ds has the elementary
antiderivative (c0/2)(s sqrt(1-s^2) + asin s) - (c1/3)(1-s^2)^{3/2}; each
segment's increment is written with difference formulas, so nothing
cancels on short segments or at large a.  The functional accepts an array
of a and gives each element the value a scalar call gives, so
``equilibrium_R``, which solves the locked state R = H(K R), evaluates a
chunk of its scan, or the stretch of its bisection path that a secant
predicts, in one numpy call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .order import TWO_PI

MEAN_TOL = 1e-8

# (a value, table segment) pairs that locked_phasor_mean evaluates at once;
# bounds its temporaries for long tables and long arrays of a
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True, eq=False)
class FrequencyDensity:
    """A density g(omega) of one kind; a table holds its knots and slopes."""
    kind: str                 # "dirac" | "table"
    support: float            # M: g vanishes outside [-M, M]
    table_omega: np.ndarray | None = field(default=None, repr=False)
    table_density: np.ndarray | None = field(default=None, repr=False)
    table_slope: np.ndarray | None = field(default=None, repr=False)   # per segment

    def __post_init__(self):
        if self.kind not in ("dirac", "table"):
            raise ValueError(f"unknown frequency density kind {self.kind!r}")


def dirac_at_zero() -> FrequencyDensity:
    """Identical-oscillator density: a unit point mass at omega = 0."""
    return FrequencyDensity("dirac", 0.0)


def uniform(halfwidth: float) -> FrequencyDensity:
    """Uniform density on [-halfwidth, halfwidth]: the one-segment table."""
    if halfwidth <= 0:
        raise ValueError("halfwidth must be positive")
    return from_table([-halfwidth, halfwidth], [0.5 / halfwidth] * 2)


def from_table(omegas, densities) -> FrequencyDensity:
    """Piecewise-linear density from (omega, density) samples.

    The table is renormalized to unit mass; the renormalization factor is
    logged.  A non-finite knot, negative densities, an all-zero table (no
    mass to renormalize) and a nonzero mean are rejected.
    """
    om = np.asarray(omegas, dtype=float)
    de = np.asarray(densities, dtype=float)
    if om.ndim != 1 or om.size < 2 or om.shape != de.shape:
        raise ValueError("table needs matching 1-d omega/density arrays with >= 2 rows")
    if not (np.isfinite(om).all() and np.isfinite(de).all()):
        raise ValueError("table omegas and densities must be finite")
    if np.any(np.diff(om) <= 0):
        raise ValueError("table omegas must be strictly increasing")
    if np.any(de < 0):
        raise ValueError("table densities must be nonnegative")
    mass = np.trapezoid(de, om)
    if not mass > 0:
        raise ValueError("table density has zero mass")
    factor = 1.0 / mass
    if abs(factor - 1.0) > 1e-12:
        import logging     # ~3 ms per process, so only a run that logs pays it
        logging.getLogger(__name__).info("table density renormalized by factor %.17g", factor)
    de = de * factor
    mean = np.trapezoid(om * de, om)
    if abs(mean) > MEAN_TOL:
        raise ValueError(f"table density has nonzero mean {mean:.3e}; "
                         "shift to the rotating frame first")
    support = float(max(abs(om[0]), abs(om[-1])))
    return FrequencyDensity("table", support, table_omega=om, table_density=de,
                            table_slope=np.diff(de) / np.diff(om))


def _table_rule(om: np.ndarray, de: np.ndarray, n: int) -> np.ndarray:
    # Composite Gauss-Legendre: the density is linear on each segment, so a
    # per-segment rule integrates h*g exactly for polynomial h of low degree.
    x, w = np.polynomial.legendre.leggauss(max(2, math.ceil(n / (om.size - 1))))
    half = 0.5 * np.diff(om)[:, None]
    nodes = 0.5 * (om[:-1] + om[1:])[:, None] + half * x
    weights = half * w * np.interp(nodes, om, de)
    return np.column_stack([nodes.ravel(), weights.ravel()])


def quadrature_nodes(g: FrequencyDensity, n: int) -> np.ndarray:
    """Return a density-folded rule for g as an array of (node, weight) rows.

    A table with n_seg segments gets p = max(2, ceil(n / n_seg)) Gauss
    nodes on each segment, p * n_seg in all: 8 for n = 1 or 8 on a 5-row
    table, 12 for n = 10, and max(2, n) for a uniform density.  The dirac
    kind always collapses to the single pair (0, 1).
    """
    if n < 1:
        raise ValueError("node count must be >= 1")
    if g.kind == "dirac":
        return np.array([[0.0, 1.0]])
    return _table_rule(g.table_omega, g.table_density, n)


def sample(g: FrequencyDensity, n: int, seed: int) -> np.ndarray:
    """Draw n frequencies from g, deterministically for a given seed."""
    if n < 1:
        raise ValueError("sample count must be >= 1")
    rng = np.random.default_rng(seed)
    if g.kind == "dirac":
        return np.zeros(n)
    return _inverse_cdf(g.table_omega, g.table_density, n, rng)


def _inverse_cdf(x: np.ndarray, y: np.ndarray, n: int, rng) -> np.ndarray:
    """n draws on [x[0], x[-1]] from the piecewise-linear density through the
    knots (x, y), x increasing and y >= 0 with positive mass.  Each uniform
    draw u from ``rng`` picks the segment whose mass interval holds it and
    solves y0 s + slope s^2 / 2 = r, r the mass u leaves in the segment, by
    the root 2r / (y0 + sqrt(y0^2 + 2 slope r)), which cancels nothing."""
    h = np.diff(x)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * h * (y[:-1] + y[1:]))])
    u = rng.uniform(0.0, cum[-1], n)
    # a segment without mass holds no draw; u can round up to cum[-1]
    i = np.minimum(np.searchsorted(cum, u, side="right") - 1, h.size - 1)
    r, y0 = u - cum[i], y[i]
    slope = (y[i + 1] - y0) / h[i]
    root = y0 + np.sqrt(np.maximum(y0 * y0 + 2.0 * slope * r, 0.0))
    s = np.divide(2.0 * r, root, out=np.zeros(n), where=root > 0.0)
    return x[i] + np.minimum(s, h[i])


# ---------------------------------------------------------------------------
# initial phase profiles rho0(theta)


def cosine_profile(amplitude: float, center: float = 0.0):
    """Density (1 + 2 amplitude cos(theta - center)) / 2pi; needs |amplitude| <= 1/2."""
    if abs(amplitude) > 0.5:
        raise ValueError("cosine amplitude must satisfy |a| <= 1/2 for positivity")
    return partial(_cosine, amplitude, center)


def _cosine(amplitude, center, th):
    return (1.0 + 2.0 * amplitude * np.cos(th - center)) / TWO_PI


def von_mises_profile(concentration: float, center: float = 0.0):
    """Von Mises density with the given concentration about the angle center."""
    if concentration < 0:
        raise ValueError("concentration must be nonnegative")
    return partial(_von_mises, concentration, center, TWO_PI * _i0e(concentration))


def _von_mises(concentration, center, norm, th):
    return np.exp(concentration * (np.cos(th - center) - 1.0)) / norm


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
    """Periodic piecewise-linear density through finite, nonnegative
    (theta, value) samples, not all zero and one value per theta mod 2 pi."""
    th, va = np.asarray(thetas, dtype=float), np.asarray(values, dtype=float)
    if not (np.isfinite(th).all() and np.isfinite(va).all()):
        raise ValueError("profile table thetas and values must be finite")
    if np.any(va < 0):
        raise ValueError("profile table values must be nonnegative")
    if not np.any(va > 0):
        raise ValueError("profile table has zero mass: every value is 0")
    th = th % TWO_PI
    idx = np.argsort(th)
    th, va = th[idx], va[idx]
    th_ext = np.concatenate([[th[-1] - TWO_PI], th, [th[0] + TWO_PI]])
    va_ext = np.concatenate([[va[-1]], va, [va[0]]])
    # a knot equal to the next, the first knot's 2 pi image after the last included
    clash = th_ext[2:][(np.diff(th_ext[1:]) == 0) & (np.diff(va_ext[1:]) != 0)]
    if clash.size:
        raise ValueError(f"profile table gives two values at theta = {clash[0]:.17g} (mod 2 pi)")
    return partial(_periodic_interp, th_ext, va_ext)


def _periodic_interp(th_ext, va_ext, x):
    return np.interp(np.asarray(x) % TWO_PI, th_ext, va_ext)


def sample_phases(profile, bound: float | None, n: int, rng) -> np.ndarray:
    """n phases on [0, 2pi) drawn from a density profile.

    A table profile is drawn by ``_inverse_cdf`` over the period from its
    first knot, at n uniform draws from ``rng``; it reads no bound, which
    may be None.  Any other profile is drawn by rejection under ``bound``,
    which must dominate it: candidates come from ``rng`` in batches of
    4 max(n, 64) until n are accepted.
    """
    if getattr(profile, "func", None) is _periodic_interp:
        th_ext, va_ext = profile.args
        return _inverse_cdf(th_ext[1:], va_ext[1:], n, rng) % TWO_PI
    out = np.empty(0)
    batch = 4 * max(n, 64)
    while out.size < n:
        x = rng.uniform(0.0, TWO_PI, batch)
        u = rng.uniform(0.0, bound, batch)
        out = np.concatenate([out, x[u < profile(x)]])
    return out[:n]


def locked_phasor_mean(g: FrequencyDensity, a):
    """Average of sqrt(1 - (omega/a)^2) over g, restricted to |omega| <= a.

    This is the self-consistency functional for locked equilibria, evaluated
    at a = K * R.  The part of g outside the lockable band |omega| <= a
    contributes zero, and a <= 0 gives 0.  ``a`` may be a scalar (a float is
    returned) or an array (an array of the same shape is returned).

    Both kinds are in closed form.  For a table, each segment of the band is
    integrated exactly in s = omega/a (see the module docstring).
    """
    a_arr = np.asarray(a, dtype=float)
    out = np.zeros(a_arr.shape)
    pos = a_arr > 0
    ap = a_arr[pos]
    if g.kind == "dirac":
        out[pos] = 1.0
    else:
        om, de, slope = g.table_omega, g.table_density, g.table_slope
        step = max(1, _BLOCK_ENTRIES // (om.size - 1))
        vals = np.empty(ap.size)
        for i in range(0, ap.size, step):
            vals[i:i + step] = _table_locked_mean(om, de, slope, ap[i:i + step])
        out[pos] = vals
    return float(out) if out.ndim == 0 else out


def _table_locked_mean(om: np.ndarray, de: np.ndarray, slope: np.ndarray,
                       a: np.ndarray) -> np.ndarray:
    """H(a) for a piecewise-linear table at positive a, one row per a.

    On the clipped segment [lo, hi] = [omega_l, omega_r] & [-a, a] the
    density is d_m + slope (omega - omega_m) about the midpoint, so with
    s = omega / a the segment contributes a (d_m J0 + slope a (J1 - s_m J0)),
    J0 = int sqrt(1-s^2) ds and J1 = int s sqrt(1-s^2) ds.  With c = sqrt(1-s^2),
    S = s_h + s_l, C = c_h + c_l and ds = (hi - lo)/a, the increments

        s_h c_l - s_l c_h = ds (C^2 + S^2) / (2C)   (sine of the asin increment)
        s_h c_h - s_l c_l = ds (C^2 - S^2) / (2C)
        c_h^3 - c_l^3     = -ds S (c_h^2 + c_h c_l + c_l^2) / C

    are all proportional to ds, so they keep full relative precision on short
    segments and at large a.  C = 0 only when [lo, hi] = [-a, a]: there all
    three increments are 0, and atan2(0, -1) gives the asin increment pi.
    """
    a = a[:, None]
    wl, wr = om[:-1], om[1:]
    lo = np.maximum(wl, -a)
    hi = np.minimum(wr, a)
    live = lo < hi
    lo = np.where(live, lo, 0.0)
    hi = np.where(live, hi, 0.0)
    sl, sh = lo / a, hi / a
    cl = np.sqrt((1.0 - sl) * (1.0 + sl))
    ch = np.sqrt((1.0 - sh) * (1.0 + sh))
    ds = (hi - lo) / a
    S, C = sh + sl, ch + cl
    nz = C > 0
    s2_c = np.divide(S * S, C, out=np.zeros_like(C), where=nz)
    q = np.divide(ch * ch + ch * cl + cl * cl, C, out=np.zeros_like(C), where=nz)
    d_asin = np.arctan2(0.5 * ds * (C + s2_c), ch * cl + sh * sl)
    d_sc = 0.5 * ds * (C - s2_c)
    J0 = 0.5 * (d_sc + d_asin)
    J1 = ds * S * q / 3.0
    wm = 0.5 * (lo + hi)
    dm = de[:-1] + slope * (wm - wl)
    seg = a * (dm * J0 + slope * a * (J1 - (wm / a) * J0))
    return np.where(live, seg, 0.0).sum(axis=1)


# ---------------------------------------------------------------------------
# locked-equilibrium self-consistency


@dataclass(frozen=True)
class EquilibriumResult:
    """The locked amplitude R for one (g, K), with its residual and bounds."""
    found: bool
    R: float | None
    residual: float
    probe_at_one: float          # H(1), handy when no solution exists
    bound_sqrt: float            # sqrt(1 - (M/(K R))^2), 0 when not found
    bound_sqrt_ok: bool
    bound_mass: float            # m * min g on the inner support
    bound_mass_ok: bool
    message: str


def _inner_mass_bound(g: FrequencyDensity) -> float:
    """m min g, the inner-mass lower bound on a locked R (0 for dirac): m is
    the largest radius with [-m, m] inside the support of g, the closure of
    {g > 0}, and a table is least on [-m, m] at -m, at m or at a knot."""
    if g.kind == "dirac":
        return 0.0
    om, de = g.table_omega, g.table_density
    idx = np.flatnonzero(de > 0)
    m = min(-om[max(idx[0] - 1, 0)], om[min(idx[-1] + 1, om.size - 1)])
    if m <= 0:
        return 0.0
    points = np.concatenate(([-m, m], om[(om > -m) & (om < m)]))
    return float(m * np.interp(points, om, de).min())


# a root near R = 1 (large K) lies in the first scan chunk
_SCAN_POINTS = 2048
_SCAN_CHUNK = 64
_PATH_POINTS = 64
_MAX_HALVINGS = 200


def equilibrium_R(g: FrequencyDensity, K: float) -> EquilibriumResult:
    """Largest fixed point of R = H(R) on (M/K, 1], by scan plus bisection.

    psi(R) = R - H(R) is scanned on 2,048 points from R = 1 down to just
    above M/K, in chunks of 64, 128, ... points, one array call each, up to
    the first chunk that holds the bracket (the first point with psi = 0,
    or psi > 0 followed by psi <= 0); H(1) is read at the first point.  The
    bracket is halved at most 200 times, until |psi(mid)| <= 1e-11 and it is
    narrower than 1e-15.  One array call evaluates psi at the next 64
    midpoints of the bisection path that the secant through the bracket
    predicts; the halvings walk those values by sign up to the first
    midpoint whose sign the secant got wrong, and the next call predicts
    from the bracket that midpoint leaves.  Each midpoint is 0.5 (lo + hi)
    of the bracket it halves, so the root is the one a scalar bisection
    finds.  A walk that ends on the predicted path reads the residual at the
    path's next midpoint, which is the root.  Returns "no solution"
    (found=False) when psi has no sign change on the band, which is how a
    too-small coupling manifests.  The two locked-equilibrium lower bounds
    are evaluated on the solution.  K must be positive and finite.
    """
    if not (K > 0 and math.isfinite(K)):
        raise ValueError(f"K must be positive and finite, not {K!r}")
    bound_mass = _inner_mass_bound(g)
    if g.kind == "dirac" or g.support == 0.0:
        return EquilibriumResult(True, 1.0, 0.0, locked_phasor_mean(g, K), 1.0, True,
                                 bound_mass, 1.0 >= bound_mass, "R = 1 (identical oscillators)")
    lo_edge = g.support / K
    if lo_edge >= 1.0:
        probe_1 = locked_phasor_mean(g, K)
        return EquilibriumResult(
            False, None, math.inf, probe_1, 0.0, False, bound_mass, False,
            f"no solution: lock band (M/K, 1] empty or no sign change; H(1)={probe_1:.12g}")

    grid = np.linspace(1.0, lo_edge * (1.0 + 1e-12), _SCAN_POINTS)
    vals = np.empty(_SCAN_POINTS)
    start, size, first = 0, _SCAN_CHUNK, None
    while first is None and start < _SCAN_POINTS:
        stop = min(start + size, _SCAN_POINTS)
        h = locked_phasor_mean(g, K * grid[start:stop])
        if start == 0:
            probe_1 = float(h[0])       # grid[0] == 1.0
        vals[start:stop] = grid[start:stop] - h
        # the pairs (i, i + 1) this chunk completes
        base = max(start - 1, 0)
        v = vals[base:stop]
        hits = np.flatnonzero((v[:-1] == 0.0) | ((v[:-1] > 0.0) & (v[1:] <= 0.0)))
        if hits.size:
            first = base + int(hits[0])
        start, size = stop, 2 * size
    if first is None:
        return EquilibriumResult(
            False, None, math.inf, probe_1, 0.0, False, bound_mass, False,
            f"no solution: R - H(R) has no sign change on (M/K, 1]; H(1)={probe_1:.12g}")
    # psi(a) = fa <= 0 < fb = psi(b) with a < b, or a == b at a scan root
    ends = [first, first] if vals[first] == 0.0 else [first + 1, first]
    (a, b), (fa, fb) = grid[ends].tolist(), vals[ends].tolist()
    halvings, done = 0, False
    while not done:
        # the predicted path: psi <= 0 at a midpoint at or below the secant root r
        r = a - fa * (b - a) / (fb - fa) if fb > fa else a
        lo, hi, mids = a, b, []
        for _ in range(_PATH_POINTS):
            mid = 0.5 * (lo + hi)
            mids.append(mid)
            lo, hi = (mid, hi) if mid <= r else (lo, mid)
        path = np.array(mids)
        psi_path = (path - locked_phasor_mean(g, K * path)).tolist()
        for i, (mid, f) in enumerate(zip(mids, psi_path)):
            if f <= 0.0:
                a, fa = mid, f
            else:
                b, fb = mid, f
            halvings += 1
            done = (abs(f) <= 1e-11 and b - a < 1e-15) or halvings == _MAX_HALVINGS
            on_path = (f <= 0.0) == (mid <= r)
            if done or not on_path:
                break
    root = 0.5 * (a + b)
    if on_path and i + 1 < _PATH_POINTS:
        residual = abs(psi_path[i + 1])         # mids[i + 1] == root
    else:
        residual = abs(root - locked_phasor_mean(g, K * root))
    arg = g.support / (K * root)
    bound_sqrt = math.sqrt(max(0.0, 1.0 - arg * arg))
    return EquilibriumResult(True, root, residual, probe_1,
                             bound_sqrt, root >= bound_sqrt - 1e-12,
                             bound_mass, root >= bound_mass - 1e-12,
                             f"R = {root:.12g}")
