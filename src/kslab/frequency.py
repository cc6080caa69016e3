"""Natural-frequency densities g(omega) and their quadrature rules.

A density holds only its kind, the bound M of its support and, for a table,
the table.  ``quadrature_nodes(g, n)`` builds an n-point rule whose weights
carry the density folded in: an integral int h(omega) g(omega) domega is
evaluated as sum_k weight_k * h(node_k).  Three kinds are supported:

* ``dirac``   - unit point mass at omega = 0 (identical oscillators),
* ``uniform`` - constant density 1/(2M) on [-M, M],
* ``table``   - piecewise-linear density given by (omega, density) samples,
  renormalized to unit mass at load time.

All densities are required to have (numerically) zero mean; a nonzero-mean
table is rejected, since the rotating-frame reduction is the caller's job.

The locked-equilibrium functional H(a) = int_{|omega|<=a} sqrt(1-(omega/a)^2)
g(omega) domega is evaluated in closed form for every kind.  A table density
is linear on each segment, and int (c0 + c1 s) sqrt(1-s^2) ds has the
elementary antiderivative (c0/2)(s sqrt(1-s^2) + asin s) - (c1/3)(1-s^2)^{3/2};
each segment's increment is written with difference formulas, so nothing
cancels on short segments or at large a.  The functional accepts an array
of a and gives each element the value a scalar call gives, so an
equilibrium solve evaluates a chunk of its scan, or several bisection
levels, in one numpy call.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

MEAN_TOL = 1e-8

# (a value, table segment) pairs that locked_phasor_mean evaluates at once;
# bounds its temporaries for long tables and long arrays of a
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True, eq=False)
class FrequencyDensity:
    kind: str                 # "dirac" | "uniform" | "table"
    support: float            # M: g vanishes outside [-M, M]
    table_omega: np.ndarray | None = field(default=None, repr=False)
    table_density: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("dirac", "uniform", "table"):
            raise ValueError(f"unknown frequency density kind {self.kind!r}")


def dirac_at_zero() -> FrequencyDensity:
    """Identical-oscillator density: a unit point mass at omega = 0."""
    return FrequencyDensity("dirac", 0.0)


def uniform(halfwidth: float) -> FrequencyDensity:
    """Uniform density on [-halfwidth, halfwidth]."""
    if halfwidth <= 0:
        raise ValueError("halfwidth must be positive")
    return FrequencyDensity("uniform", halfwidth)


def from_table(omegas, densities) -> FrequencyDensity:
    """Piecewise-linear density from (omega, density) samples.

    The table is renormalized to unit mass; the renormalization factor is
    logged.  Negative densities, an all-zero table (no mass to renormalize)
    and a nonzero mean are rejected.
    """
    om = np.asarray(omegas, dtype=float)
    de = np.asarray(densities, dtype=float)
    if om.ndim != 1 or om.size < 2 or om.shape != de.shape:
        raise ValueError("table needs matching 1-d omega/density arrays with >= 2 rows")
    if np.any(np.diff(om) <= 0):
        raise ValueError("table omegas must be strictly increasing")
    if np.any(de < 0):
        raise ValueError("table densities must be nonnegative")
    mass = np.trapezoid(de, om)
    if not mass > 0:
        raise ValueError("table density has zero mass")
    factor = 1.0 / mass
    if abs(factor - 1.0) > 1e-12:
        logger.info("table density renormalized by factor %.17g", factor)
    de = de * factor
    mean = np.trapezoid(om * de, om)
    if abs(mean) > MEAN_TOL:
        raise ValueError(f"table density has nonzero mean {mean:.3e}; "
                         "shift to the rotating frame first")
    support = float(max(abs(om[0]), abs(om[-1])))
    return FrequencyDensity("table", support, table_omega=om, table_density=de)


def _uniform_rule(halfwidth: float, n: int) -> np.ndarray:
    x, w = np.polynomial.legendre.leggauss(n)
    nodes = halfwidth * x
    weights = 0.5 * w          # GL weight * halfwidth * density 1/(2*halfwidth)
    return np.column_stack([nodes, weights])


def _table_rule(om: np.ndarray, de: np.ndarray, n: int) -> np.ndarray:
    # Composite Gauss-Legendre: the density is linear on each segment, so a
    # per-segment rule integrates h*g exactly for polynomial h of low degree.
    n_seg = om.size - 1
    p = max(2, math.ceil(n / n_seg))
    x, w = np.polynomial.legendre.leggauss(p)
    nodes, weights = [], []
    for i in range(n_seg):
        a, b = om[i], om[i + 1]
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        seg_nodes = mid + half * x
        g = np.interp(seg_nodes, om, de)
        nodes.append(seg_nodes)
        weights.append(half * w * g)
    return np.column_stack([np.concatenate(nodes), np.concatenate(weights)])


def quadrature_nodes(g: FrequencyDensity, n: int) -> list[tuple[float, float]]:
    """Return a density-folded rule for g as (node, weight) pairs.

    A uniform density gets n nodes.  A table with n_seg segments gets
    p = max(2, ceil(n / n_seg)) Gauss nodes on each segment, p * n_seg in
    all: 8 for n = 1 or 8 on a 5-row table, 12 for n = 10.  The dirac kind
    always collapses to the single pair (0, 1).
    """
    if n < 1:
        raise ValueError("node count must be >= 1")
    if g.kind == "dirac":
        return [(0.0, 1.0)]
    if g.kind == "uniform":
        pairs = _uniform_rule(g.support, n)
    else:
        pairs = _table_rule(g.table_omega, g.table_density, n)
    return [tuple(row) for row in pairs]


def sample(g: FrequencyDensity, n: int, seed: int) -> np.ndarray:
    """Draw n frequencies from g, deterministically for a given seed."""
    if n < 1:
        raise ValueError("sample count must be >= 1")
    rng = np.random.default_rng(seed)
    if g.kind == "dirac":
        return np.zeros(n)
    if g.kind == "uniform":
        return rng.uniform(-g.support, g.support, n)
    om, de = g.table_omega, g.table_density
    dmax = float(de.max())
    out = np.empty(0)
    while out.size < n:
        batch = max(2 * (n - out.size), 128)
        x = rng.uniform(om[0], om[-1], batch)
        u = rng.uniform(0.0, dmax, batch)
        out = np.concatenate([out, x[u < np.interp(x, om, de)]])
    return out[:n]


def density_at(g: FrequencyDensity, omega) -> np.ndarray:
    """Pointwise density values; undefined for the dirac kind."""
    if g.kind == "dirac":
        raise ValueError("the dirac density has no pointwise values")
    om = np.asarray(omega, dtype=float)
    if g.kind == "uniform":
        return np.where(np.abs(om) <= g.support, 1.0 / (2.0 * g.support), 0.0)
    return np.interp(om, g.table_omega, g.table_density, left=0.0, right=0.0)


def inner_support_radius(g: FrequencyDensity) -> float:
    """Largest m with [-m, m] inside the support of g (0 for dirac).

    The support is the closure of {g > 0}, so a table whose density decays
    linearly to zero at its end nodes is supported up to those nodes.
    """
    if g.kind == "dirac":
        return 0.0
    if g.kind == "uniform":
        return g.support
    om, de = g.table_omega, g.table_density
    idx = np.flatnonzero(de > 0)
    lo = om[max(idx[0] - 1, 0)]
    hi = om[min(idx[-1] + 1, om.size - 1)]
    if lo < 0.0 < hi:
        return float(min(-lo, hi))
    return 0.0


def min_density_on_inner(g: FrequencyDensity) -> float:
    """min of g over [-m, m] with m the inner support radius.

    A piecewise-linear table takes its minimum there at -m, at m or at a
    knot between them, so only those points are evaluated.
    """
    m = inner_support_radius(g)
    if m <= 0:
        return 0.0
    if g.kind == "uniform":
        return 1.0 / (2.0 * g.support)
    om = g.table_omega
    points = np.concatenate(([-m, m], om[(om > -m) & (om < m)]))
    return float(density_at(g, points).min())


def locked_phasor_mean(g: FrequencyDensity, a):
    """Average of sqrt(1 - (omega/a)^2) over g, restricted to |omega| <= a.

    This is the self-consistency functional for locked equilibria, evaluated
    at a = K * R.  The part of g outside the lockable band |omega| <= a
    contributes zero, and a <= 0 gives 0.  ``a`` may be a scalar (a float is
    returned) or an array (an array of the same shape is returned).

    Every kind is in closed form.  For a table, each segment of the band is
    integrated exactly in s = omega/a (see the module docstring).
    """
    a_arr = np.asarray(a, dtype=float)
    out = np.zeros(a_arr.shape)
    pos = a_arr > 0
    ap = a_arr[pos]
    if g.kind == "dirac":
        out[pos] = 1.0
    elif g.kind == "uniform":
        ell = g.support
        u = ell / np.maximum(ap, ell)   # min(1, ell / a), no overflow at tiny a
        out[pos] = (ap / (2.0 * ell)) * (u * np.sqrt(1.0 - u * u) + np.arcsin(u))
    else:
        om, de = g.table_omega, g.table_density
        step = max(1, _BLOCK_ENTRIES // (om.size - 1))
        vals = np.empty(ap.size)
        for i in range(0, ap.size, step):
            vals[i:i + step] = _table_locked_mean(om, de, ap[i:i + step])
        out[pos] = vals
    return float(out) if out.ndim == 0 else out


def _table_locked_mean(om: np.ndarray, de: np.ndarray, a: np.ndarray) -> np.ndarray:
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
    slope = np.diff(de) / np.diff(om)
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
