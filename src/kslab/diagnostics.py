"""Interval masses, Lyapunov functionals, closed-form constants, comparison
ODEs, rate fitting, the per-sample rows of trajectory.csv and the
summary.json of a kinetic run.

Moving-interval masses use sub-cell linear apportionment at the two end
cells; snapping to whole cells would add O(dtheta) jitter that defeats the
monotonicity checks downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .files import write_csv, write_json
from .order import TWO_PI, OrderParams, _rates, kinetic_potential, phidot_bound, rk4_path

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# moving intervals


@dataclass(frozen=True)
class Interval:
    """A phi-anchored arc of the circle.

    kinds (delta, gamma in (0, pi/2)):
      i_plus(delta):  (phi - delta, phi + delta)
      i_minus(delta): (phi + pi - delta, phi + pi + delta)
      l_plus(gamma):  (phi - pi/2 + gamma, phi + pi/2 - gamma)
      l_minus(gamma): (phi + pi/2 + gamma, phi + 3pi/2 - gamma)

    l_plus(gamma) coincides with i_plus(pi/2 - gamma).
    """

    kind: str
    parameter: float

    def __post_init__(self):
        if self.kind not in ("i_plus", "i_minus", "l_plus", "l_minus"):
            raise ValueError(f"unknown interval kind {self.kind!r}")
        if not 0.0 < self.parameter < math.pi / 2:
            raise ValueError("interval parameter must lie in (0, pi/2)")

    def endpoints(self, phi: float) -> tuple[float, float]:
        p = self.parameter
        if self.kind == "i_plus":
            return phi - p, phi + p
        if self.kind == "i_minus":
            return phi + math.pi - p, phi + math.pi + p
        if self.kind == "l_plus":
            return phi - math.pi / 2 + p, phi + math.pi / 2 - p
        return phi + math.pi / 2 + p, phi + 3 * math.pi / 2 - p

    @property
    def label(self) -> str:
        return f"{self.kind}_{self.parameter:g}"


def _arc_sum(grid, lo: float, hi: float, f: np.ndarray):
    """Integral of the cell-wise constant f[..., j] over the arc [lo, hi]
    (hi - lo clipped to [0, 2pi]): the whole cells it covers, summed directly
    (not as a difference of prefix sums, so small integrals keep their
    relative accuracy) and wrapping past 2pi, plus its two partial end cells.
    """
    n, dth = grid.n_theta, grid.dtheta
    length = min(hi - lo, TWO_PI)
    if length <= 0:
        return 0.0 * f[..., 0]
    lo = lo % TWO_PI
    hi = lo + length
    ja, jb = math.floor(lo / dth), math.floor(hi / dth)
    if ja == jb:
        return length * f[..., ja % n]
    start, count = (ja + 1) % n, jb - ja - 1
    whole = f[..., start:start + count].sum(axis=-1)
    if start + count > n:
        whole = whole + f[..., :start + count - n].sum(axis=-1)
    # end overlaps are measured from the edges j * dtheta: none on an edge
    return (((ja + 1) * dth - lo) * f[..., ja % n] + whole * dth
            + (hi - jb * dth) * f[..., jb % n])


# ---------------------------------------------------------------------------
# rate fitting and transient detection


@dataclass(frozen=True)
class FitResult:
    """Slope and r^2 of a least-squares fit of log(value) against t."""
    slope: float
    r_squared: float


def fit_exponential_rate(series, window: tuple[float, float]) -> FitResult:
    """Least-squares slope of log(value) against t over the window.

    ``series`` is an iterable of (t, value) pairs.  Nonpositive values in
    the window are dropped; at least 5 positive samples are required.
    """
    pts = np.array([(t, v) for t, v in series])
    t_a, t_b = window
    sel = (pts[:, 0] >= t_a) & (pts[:, 0] <= t_b)
    pts = pts[sel & (pts[:, 1] > 0.0)]
    if pts.shape[0] < 5:
        raise ValueError("need at least 5 positive samples in the fit window")
    t = pts[:, 0]
    y = np.log(pts[:, 1])
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    # a flat series has zero variance up to roundoff; that is a perfect fit
    floor = 1e-24 * y.size * max(1.0, float(np.max(np.abs(y))) ** 2)
    r2 = 1.0 if ss_tot <= floor else 1.0 - ss_res / ss_tot
    return FitResult(float(slope), r2)


def detect_transient(ts, values) -> float | None:
    """First sample time from which the values do not increase over 20
    consecutive steps.

    Returns None when no such onset exists.  The onset is reported, never
    hard-coded, so callers can quote it next to fitted rates.
    """
    ts = np.asarray(ts, dtype=float)
    good = np.diff(np.asarray(values, dtype=float)) <= 0
    count = 0
    for i, ok in enumerate(good):
        count = count + 1 if ok else 0
        if count >= 20:
            return float(ts[i + 1 - count])
    return None


def late_window(t_onset: float, t_end: float) -> tuple[float, float]:
    """Second half of [t_onset, t_end]; the rate there is near constant."""
    return t_onset + 0.5 * (t_end - t_onset), t_end


# ---------------------------------------------------------------------------
# closed-form constants


MSTAR_EPS_MAX = 3.0 * SQRT3 / 4.0 - 1.0


def mstar_gamma0_cap(eps0: float) -> float:
    """Upper end of the admissible gamma0 window for a given eps0."""
    return math.asin(1.0 - 2.0 * eps0 / (2.0 * SQRT3 + 1.0))


def mstar(eps0: float, gamma0: float) -> float:
    """Mass threshold (2 + eps0 + cos g0) / ((1 + sin g0)(1 + cos g0)).

    The admissibility window 0 < eps0 < 3*sqrt(3)/4 - 1,
    pi/3 <= gamma0 < arcsin(1 - 2 eps0 / (2 sqrt(3) + 1)) is enforced and
    the strict bounds (1 + eps0)/(1 + sin g0) < value < 1 are asserted for
    interior inputs.
    """
    if not 0.0 < eps0 < MSTAR_EPS_MAX:
        raise ValueError(
            f"eps0={eps0:.6g} violates 0 < eps0 < 3*sqrt(3)/4 - 1 ~ {MSTAR_EPS_MAX:.6g}")
    cap = mstar_gamma0_cap(eps0)
    if not math.pi / 3 <= gamma0 < cap:
        raise ValueError(
            f"gamma0={gamma0:.6g} violates pi/3 <= gamma0 < {cap:.6g}")
    value = (2.0 + eps0 + math.cos(gamma0)) / (
        (1.0 + math.sin(gamma0)) * (1.0 + math.cos(gamma0)))
    if gamma0 > math.pi / 3:
        lower = (1.0 + eps0) / (1.0 + math.sin(gamma0))
        assert lower < value < 1.0, "threshold left its guaranteed bracket"
    return value


def constants_E(K: float, M: float, r_low: float, gamma: float,
                mu: float) -> tuple[float, float, float]:
    """The three error constants controlling the mass/amplitude exchange.

    E1 and E2 bound the sandwich between R and the mass on the quarter-arc;
    E3 bounds the loss in the guaranteed growth of R after a fast-growth
    instant.  Requires gamma in (pi/3, pi/2), positive K, r_low, mu, and a
    positive logarithm argument for E3 (the growth-budget condition
    K^2 mu > M^2/(2 r_low^2) - 3 M^2/(4 r_low)); M = 0 gives the vanishing
    limit E3 = 0.
    """
    if not math.pi / 3 < gamma < math.pi / 2:
        raise ValueError("gamma must lie in (pi/3, pi/2)")
    if min(K, r_low, mu) <= 0:
        raise ValueError("K, r_low, mu must be positive")
    if M < 0:
        raise ValueError("M must be nonnegative")
    sg, cg2 = math.sin(gamma), math.cos(gamma) ** 2
    base = M / (K * r_low)
    e1 = (sg / cg2) * base + 0.5 * (1.0 - sg)
    e2 = 1.0 - sg + (1.0 + sg) * base / cg2 + (sg / cg2) * base
    if M == 0.0:
        return e1, e2, 0.0
    a = r_low * K * mu / 3.0 - (M * M / (6.0 * r_low * K) - M * M / (4.0 * K))
    b = M * M / (4.0 * K) + M * M / (2.0 * r_low * K)
    if a <= 0.0:
        raise ValueError(
            "growth-budget condition K^2 mu > M^2/(2 r_low^2) - 3 M^2/(4 r_low) "
            "fails: E3 logarithm argument is nonpositive")
    e3 = abs((r_low / 12.0) * mu * (b / a)
             + (1.0 / (4.0 * K)) * (M * M / (6.0 * r_low * K) - M * M / (4.0 * K))
             * (1.0 - b / a)
             + b * (1.0 / (4.0 * K)) * math.log(a / b))
    return e1, e2, e3


def r_infinity(M: float, K: float) -> float:
    """Asymptotic amplitude floor 1 + M/K - sqrt(M^2/K^2 + 4 M/K)."""
    if K <= 0:
        raise ValueError("K must be positive")
    if M < 0:
        raise ValueError("M must be nonnegative")
    q = M / K
    return 1.0 + q - math.sqrt(q * q + 4.0 * q)


def r_pm(eta: float, M: float, K: float) -> tuple[float, float]:
    """Equilibria of the comparison Riccati flow, r_minus <= r_plus.

    Roots of x^2 - (sqrt(3)/2) x + 4 sqrt(3) M / K + eta = 0; a negative
    discriminant means the coupling is too small for the comparison flow to
    have fixed points (it needs roughly K > 64 sqrt(3) M / 3 at eta = 0).
    """
    disc = 0.75 - 16.0 * SQRT3 * M / K - 4.0 * eta
    if disc < 0:
        raise ValueError(
            "negative discriminant: K too small for the comparison flow "
            f"(needs K > {64.0 * SQRT3 * M / 3.0:.6g} at eta=0)")
    half = 0.5 * math.sqrt(disc)
    return SQRT3 / 4.0 - half, SQRT3 / 4.0 + half


def riccati_rhs(beta, eta: float, M: float, K: float):
    return (K / (4.0 * SQRT3)) * (-beta * beta + (SQRT3 / 2.0) * beta
                                  - 4.0 * SQRT3 * M / K - eta)


def riccati_solve(T: float, eta: float, beta_T: float, M: float, K: float,
                  horizon: float):
    """RK4 path of the comparison Riccati flow on [T, T + horizon], in at
    least 400 steps of at most 1/50 of the e-folding time near the roots.

    Any start above r_minus converges to r_plus; starts at either root stay
    constant.  Returns (ts, betas).
    """
    r_minus, r_plus = r_pm(eta, M, K)
    gap = max(r_plus - r_minus, 1e-12)
    tau = 4.0 * SQRT3 / (K * gap)
    n_steps = max(400, int(math.ceil(horizon / (0.02 * tau))))

    def rhs(t, beta):
        return riccati_rhs(beta, eta, M, K)

    return rk4_path(rhs, T, float(beta_T), horizon / n_steps, n_steps)


def epsilon_kappa(kappa: float, M: float, K: float) -> tuple[float, bool]:
    """Barrier offset ((kappa+1)/kappa^2)(M/K) + (1-kappa)/kappa.

    Returns (value, valid) with valid true iff the value is below 1, the
    regime in which the barrier construction applies.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    value = ((kappa + 1.0) / kappa ** 2) * (M / K) + (1.0 - kappa) / kappa
    return value, value < 1.0


def barrier_speed(q, kappa: float, K: float, eps_kappa: float):
    """Barrier ODE right-hand side kappa K (sqrt(1-q^2) - eps) sqrt(1-q^2)."""
    root = np.sqrt(np.maximum(0.0, 1.0 - np.asarray(q, dtype=float) ** 2))
    return kappa * K * (root - eps_kappa) * root


def barrier_crossing_bound(eps: float, kappa: float, K: float,
                           eps_kappa: float) -> float:
    """Upper bound 2(sqrt(1-eps_k^2)-eps)/F(sqrt(1-eps_k^2)-eps) on the time a
    barrier needs to cross from -sqrt(1-eps_k^2)+eps to +sqrt(1-eps_k^2)-eps."""
    q = math.sqrt(1.0 - eps_kappa ** 2) - eps
    f = float(barrier_speed(q, kappa, K, eps_kappa))
    if f <= 0:
        raise ValueError("crossing bound undefined: barrier speed vanishes at the endpoint")
    return 2.0 * q / f


def barrier_solve(p_star, t_star: float, T_kappa: float, kappa: float, K: float,
                  eps_kappa: float):
    """Backward RK4 path of the barrier through p_star at t_star, on
    [T_kappa, t_star], in at least 100 steps of at most 0.005 / (kappa K).

    Requires |p_star| <= sqrt(1 - eps_kappa^2).  The exact flow never leaves
    that band (its endpoints are fixed points), so each substep clamps the
    numerical path back into it.  p_star may be an array; the paths share
    the time grid.  Returns (ts ascending, ps with matching leading axis).
    """
    if not 0.0 < eps_kappa < 1.0:
        raise ValueError("eps_kappa must lie in (0, 1)")
    p_lim = math.sqrt(1.0 - eps_kappa ** 2)
    p0 = np.asarray(p_star, dtype=float)
    if np.any(np.abs(p0) > p_lim + 1e-12):
        raise ValueError(f"p_star outside the barrier band [-{p_lim:.6g}, {p_lim:.6g}]")
    span = t_star - T_kappa
    if span < 0:
        raise ValueError("t_star must not precede T_kappa")
    n_steps = max(100, int(math.ceil(span * kappa * K / 0.005)))

    def rhs(t, q):
        return barrier_speed(q, kappa, K, eps_kappa)

    def clip(q):
        return np.clip(q, -p_lim, p_lim)

    ts, ps = rk4_path(rhs, t_star, clip(p0), -span / n_steps, n_steps, project=clip)
    return ts[::-1].copy(), ps[::-1].copy()


# ---------------------------------------------------------------------------
# hypothesis report


#: structural conditions gating a finite-horizon asymptotic-amplitude run;
#: the remaining inequalities carry pessimistic analysis constants that only
#: hold at astronomically large coupling and are reported, not gated.
AMPLITUDE_FLOOR_GATE = ("initial_amplitude_positive", "growth_budget",
                        "coupling_floor", "barrier_level_range",
                        "barrier_level_cap", "barrier_offset_valid",
                        "floor_coupling")


#: the analysis constants mu, gamma, kappa, eps0 and gamma0 of the pinned
#: criteria and of a config's hypothesis section
MU, GAMMA, KAPPA, EPS0, GAMMA0 = 1e-3, 1.45, 0.7, 0.2, 1.1


def hypothesis_check(K: float, M: float, R0: float, mu: float = MU, gamma: float = GAMMA,
                     kappa: float = KAPPA, eps0: float = EPS0,
                     gamma0: float = GAMMA0) -> dict:
    """Pass/fail report, with margins, for every displayed inequality the
    large-coupling results rest on: the dict that summary.json's hypothesis
    section holds, ``{params, all_passed, amplitude_floor_gate_passed,
    checks}``, each check ``{name, group, passed, margin, detail}``.

    Reports, never raises: a failed check is data, so an out-of-hypothesis
    configuration stays distinguishable from a failed verification run.  A
    check is undefined (margin -inf, not passed) when its group has an unmet
    need or its margin is NaN; no margin is NaN.
    """
    checks = []

    def add(name, group, margin, detail, need=None):
        if need is None and math.isnan(margin):
            need = "every term in the float range"
        if need is not None:
            margin, detail = -math.inf, f"undefined: needs {need}"
        checks.append({"name": name, "group": group, "passed": bool(margin > 0),
                       "margin": float(margin), "detail": detail})

    add("initial_amplitude_positive", "initial", R0, f"R0 = {R0:.6g} > 0")

    need = ("R0, K > 0" if not (R0 > 0 and K > 0)
            else "M/K + mu >= 0" if M / K + mu < 0 else None)
    drift = budget = floor = math.nan
    if need is None:
        try:
            drift = (2.0 * M / (K * R0) + 4.0 * M / (K * R0 ** 2)
                     + (2.0 * math.sqrt(2.0) / (R0 * math.sqrt(R0)))
                     * math.sqrt(M / K + mu))
            budget = K * K * mu - (2.0 * M * M / R0 ** 2 - 1.5 * M * M / R0)
            denom = 3.0 - (SQRT3 - 2.0 * R0) ** 2
            floor = max(64.0 * M / SQRT3,
                        64.0 * SQRT3 * M / denom if denom > 0 else math.inf)
        except ArithmeticError:     # R0^2 underflowed to 0 or overflowed
            need = "K R0^2 > 0 and R0^2 finite in floating point"
    add("phase_drift_budget", "coupling", 0.5 - drift,
        f"1/2 > 2M/(K R0) + 4M/(K R0^2) + (2 sqrt2 / R0^1.5) sqrt(M/K + mu) = {drift:.6g}",
        need)
    add("growth_budget", "coupling", budget,
        f"K^2 mu - (2M^2/R0^2 - 3M^2/(2R0)) = {budget:.6g} > 0", need)
    add("coupling_floor", "coupling", K - floor,
        f"K = {K:.6g} > max(64M/sqrt3, 64 sqrt3 M / (3 - (sqrt3 - 2R0)^2)) = {floor:.6g}",
        need)

    gmargin = min(gamma - math.pi / 3, math.pi / 2 - gamma)
    add("sandwich_angle_range", "sandwich", gmargin,
        f"gamma = {gamma:.6g} in (pi/3, pi/2)")
    need = ("gamma in range, R0, K, mu > 0"
            if not (gmargin > 0 and R0 > 0 and K > 0 and mu > 0)
            else "K R0/2 > 0 in floating point" if not K * (R0 / 2.0) > 0
            else "M >= 0" if M < 0 else None)
    e1 = e2 = e3 = math.nan
    if need is None:
        try:
            e1, e2, e3 = constants_E(K, M, R0 / 2.0, gamma, mu)
        except ArithmeticError:     # M^2/K underflowed to 0
            need = "M^2/K > 0 in floating point"
        except ValueError:          # E3's logarithm argument is not positive
            need = "a positive E3 logarithm argument in floating point (the growth budget at R0/2)"
    add("amplitude_retention", "sandwich", (R0 - 2.0 * e1 - e2) - R0 / 2.0,
        f"R0 - 2E1 - E2 = {R0 - 2 * e1 - e2:.6g} > R0/2 = {R0 / 2:.6g}", need)
    add("growth_exceeds_losses", "sandwich", mu * R0 / 24.0 - (2.0 * e1 + e2 + e3),
        f"mu R0/24 = {mu * R0 / 24:.6g} > 2E1 + E2 + E3 = {2 * e1 + e2 + e3:.6g}", need)

    add("barrier_level_range", "barrier", min(kappa - 2.0 / 3.0, SQRT3 / 2.0 - kappa),
        f"kappa = {kappa:.6g} in (2/3, sqrt(3)/2)")
    need = None if K > 0 else "K > 0"     # r_pm takes a negative K
    cap = math.nan
    if need is None:
        try:
            cap = r_pm(0.0, M, K)[1]
        except ValueError:          # the comparison flow has no fixed points
            need = "3 - 64 sqrt3 M/K >= 0"
    add("barrier_level_cap", "barrier", cap - kappa,
        f"kappa < sqrt3/4 + (1/4) sqrt(3 - 64 sqrt3 M/K) = {cap:.6g}", need)
    need = None if kappa > 0 and K > 0 else "kappa, K > 0"
    ek = math.nan
    if need is None:
        try:
            ek = epsilon_kappa(kappa, M, K)[0]
        except ArithmeticError:     # kappa^2 underflowed to 0 or overflowed
            need = "kappa^2 > 0 and finite in floating point"
    add("barrier_offset_valid", "barrier", 1.0 - ek, f"eps_kappa = {ek:.6g} < 1", need)

    thr = (M / eps0) * (1.0 + 1.0 / eps0) if eps0 > 0 else math.nan
    add("arc_trapping_coupling", "arc_trapping", K - thr,
        f"K = {K:.6g} > (M/eps0)(1 + 1/eps0) = {thr:.6g}", None if eps0 > 0 else "eps0 > 0")
    add("mass_threshold_eps_window", "arc_trapping",
        min(eps0, MSTAR_EPS_MAX - eps0),
        f"0 < eps0 = {eps0:.6g} < {MSTAR_EPS_MAX:.6g}")
    in_window = 0 < eps0 < MSTAR_EPS_MAX
    cap = mstar_gamma0_cap(eps0) if in_window else math.nan
    add("mass_threshold_angle_window", "arc_trapping",
        min(gamma0 - math.pi / 3 + 1e-15, cap - gamma0),
        f"pi/3 <= gamma0 = {gamma0:.6g} < {cap:.6g}",
        None if in_window else f"eps0 in (0, {MSTAR_EPS_MAX:.6g})")

    floor2 = 15.0 * M / (2.0 * (math.sqrt(4.0 - 2.0 * math.sqrt(2.0)) - 1.0))
    add("floor_coupling", "floor", K - floor2,
        f"K = {K:.6g} > 15M / (2(sqrt(4 - 2 sqrt2) - 1)) = {floor2:.6g}")

    params = {"K": K, "M": M, "R0": R0, "mu": mu, "gamma": gamma,
              "kappa": kappa, "eps0": eps0, "gamma0": gamma0}
    passed = {c["name"]: c["passed"] for c in checks}
    return {"params": params, "all_passed": all(passed.values()),
            "amplitude_floor_gate_passed": all(passed[name] for name in AMPLITUDE_FLOOR_GATE),
            "checks": checks}


# ---------------------------------------------------------------------------
# per-sample trajectory rows


class RecordSampler:
    """Stateful (state, op) -> trajectory.csv row map, op the order parameters
    of state; carries the last defined phase.

    diagnostics is the parsed ``diagnostics`` section of a config
    (``cli.validate_config``): each of intervals, lambda_interval,
    gamma_plus and gamma_minus that it holds is recorded.  A row maps each
    column name to its value, in column order: the fixed columns t ..
    lambda, mass_<label> per interval, then gamma_plus_<k> and
    gamma_minus_<k> per omega slice k if configured; every row has them all.
    Without a phase (R below tolerance) phi keeps the last defined value and
    the phi-anchored masses and L2 slices are NaN, lambda and the rate
    formulas None, rather than extrapolated.
    """

    def __init__(self, diagnostics: dict):
        self._carried_phi = 0.0
        self._lambda = diagnostics.get("lambda_interval")
        self._masses = [(f"mass_{iv.label}", iv) for iv in diagnostics.get("intervals", [])]
        self._l2 = [(name, diagnostics[name]) for name in ("gamma_plus", "gamma_minus")
                    if name in diagnostics]

    def __call__(self, state, op: OrderParams) -> dict:
        if op.defined:
            self._carried_phi = op.phi
        row = {"t": state.t, "R": op.R, "phi": self._carried_phi,
               "phi_defined": int(op.defined), "v_k": kinetic_potential(state, op),
               "rdot_formula": None, "rdot_measured": None,
               "phidot_formula": None, "phidot_measured": None, "lambda": None}
        if not op.defined:
            row.update((name, math.nan) for name, _ in self._masses)
            for name, _ in self._l2:
                row.update((f"{name}_{k}", math.nan) for k in range(state.n_omega))
            return row
        grid, rho = state.grid, state.marginal_density()
        row["rdot_formula"], row["phidot_formula"] = _rates(state, op, rho)
        if self._lambda is not None:
            row["lambda"] = float(_arc_sum(grid, *self._lambda.endpoints(op.phi), rho ** 2))
        for name, iv in self._masses:
            row[name] = float(_arc_sum(grid, *iv.endpoints(op.phi), rho))
        for name, iv in self._l2:
            per_slice = _arc_sum(grid, *iv.endpoints(op.phi), state.values ** 2)
            row.update((f"{name}_{k}", v) for k, v in enumerate(per_slice))
        return row


def finalize_records(rows, K: float, m_bound: float) -> list[dict]:
    """Fill the measured derivatives (central differences) of the rows and
    return the bound checks of each row.

    The phase is unwrapped before differencing; the two endpoints have only
    one-sided differences and keep None and no checks, and a sample gets a
    measured phidot only when it and both neighbours have a phase (a
    phaseless one carries a stale phi).  m_bound is the support bound M of g.
    """
    n = len(rows)
    checks = [{} for _ in rows]
    if n < 3:
        return checks
    ts = np.array([r["t"] for r in rows])
    rdot = np.gradient(np.array([r["R"] for r in rows]), ts)
    phidot = np.gradient(np.unwrap(np.array([r["phi"] for r in rows])), ts)
    for i in range(1, n - 1):
        r, c = rows[i], checks[i]
        r["rdot_measured"] = float(rdot[i])
        if r["phi_defined"] and rows[i - 1]["phi_defined"] and rows[i + 1]["phi_defined"]:
            r["phidot_measured"] = float(phidot[i])
            if r["R"] > 0:
                bound = phidot_bound(r["R"], m_bound, K)
                margin = bound - abs(r["phidot_measured"])
                c["phidot_bound"] = {"passed": bool(margin >= 0), "margin": float(margin),
                                     "bound": float(bound)}
        lip = (m_bound + K + 0.01) - abs(r["rdot_measured"])
        c["rdot_lipschitz"] = {"passed": bool(lip >= 0), "margin": float(lip)}
    return checks


def records_to_csv(rows, path) -> None:
    """One line per row, under the columns of the first."""
    if not rows:
        raise ValueError("no records to write")
    write_csv(path, list(rows[0]), (r.values() for r in rows))


def bound_checks_to_json(rows, checks, path) -> None:
    write_json(path, [{"t": r["t"], "checks": c} for r, c in zip(rows, checks)])


SLICE_DRIFT_GATE = 1e-12    # a run's largest slice-mass drift, relative to the initial mass
TOTAL_DRIFT_GATE = 1e-10    # a run's largest drift of the weighted total mass


def summarize_run(res, checks, K: float, M: float) -> dict:
    """summary.json of the kinetic run res with its rows' bound checks, M the
    support bound of g.  Flags ``min_step_delta_R_ok`` (R fell by at most 1e-12
    per step) for identical oscillators, M = 0; gives ``lambda_rate``, lambda's
    log-linear slope over the late half after its onset, when it can be fitted."""
    final = res.records[-1]
    summary = {
        "model": "kinetic", "K": K, "M": M, "n_steps": res.n_steps, "max_dt": res.max_dt,
        "final_R": final["R"], "final_t": final["t"],
        "final_masses": {name.removeprefix("mass_"): v for name, v in final.items()
                         if name.startswith("mass_")},
        "min_step_delta_R": res.min_step_delta_R, "positivity_margin": res.min_cell_value,
        "mass_drift": {"per_slice_rel": res.max_slice_mass_drift_rel,
                       "total": res.max_total_mass_drift,
                       "per_slice_ok": res.max_slice_mass_drift_rel <= SLICE_DRIFT_GATE,
                       "total_ok": res.max_total_mass_drift <= TOTAL_DRIFT_GATE},
        "bound_check_failures": sum(not c["passed"] for row in checks for c in row.values()),
    }
    if M == 0.0:
        summary["min_step_delta_R_ok"] = res.min_step_delta_R >= -1e-12
    lam = [(r["t"], r["lambda"]) for r in res.records if r["lambda"] is not None]
    if len(lam) >= 25:
        onset = detect_transient([t for t, _ in lam], [v for _, v in lam])
        if onset is not None:
            try:
                fit = fit_exponential_rate(lam, late_window(onset, lam[-1][0]))
                summary["lambda_rate"] = {"onset": onset, "slope": fit.slope,
                                          "r_squared": fit.r_squared}
            except ValueError:
                pass
    return summary
