"""Interval masses, Lyapunov functionals, closed-form constants, comparison
ODEs, rate fitting, and the per-sample diagnostics records.

Moving-interval masses use sub-cell linear apportionment at the two end
cells; snapping to whole cells would add O(dtheta) jitter that defeats the
monotonicity checks downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Check:
    """One named inequality of a hypothesis report and its margin."""
    name: str
    group: str
    passed: bool
    margin: float        # satisfied amount; negative when violated
    detail: str

    def to_dict(self):
        return {"name": self.name, "group": self.group, "passed": self.passed,
                "margin": self.margin, "detail": self.detail}


#: structural conditions gating a finite-horizon asymptotic-amplitude run;
#: the remaining inequalities carry pessimistic analysis constants that only
#: hold at astronomically large coupling and are reported, not gated.
AMPLITUDE_FLOOR_GATE = ("initial_amplitude_positive", "growth_budget",
                        "coupling_floor", "barrier_level_range",
                        "barrier_level_cap", "barrier_offset_valid",
                        "floor_coupling")


@dataclass(frozen=True)
class HypothesisReport:
    """Every check of the hypothesis inequalities, with their parameters."""
    checks: tuple[Check, ...]
    params: dict

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def passed(self, names) -> bool:
        return all(self.check(n).passed for n in names)

    @property
    def amplitude_floor_gate_passed(self) -> bool:
        return self.passed(AMPLITUDE_FLOOR_GATE)

    def to_dict(self):
        return {"params": self.params,
                "all_passed": self.all_passed,
                "amplitude_floor_gate_passed": self.amplitude_floor_gate_passed,
                "checks": [c.to_dict() for c in self.checks]}


def hypothesis_check(K: float, M: float, R0: float, mu: float = 1e-3, gamma: float = 1.45,
                     kappa: float = 0.7, eps0: float = 0.2,
                     gamma0: float = 1.1) -> HypothesisReport:
    """Structured pass/fail report, with margins, for every displayed
    inequality the large-coupling results rest on; the defaults are the
    analysis constants of the pinned criteria and of a config's hypothesis.

    Reports, never raises: a failed check is data, so an out-of-hypothesis
    configuration stays distinguishable from a failed verification run.
    """
    checks: list[Check] = []

    def add(name, group, margin, detail):
        checks.append(Check(name, group, bool(margin > 0), float(margin), detail))

    add("initial_amplitude_positive", "initial", R0, f"R0 = {R0:.6g} > 0")

    need = ("R0, K > 0" if not (R0 > 0 and K > 0)
            else "M/K + mu >= 0" if M / K + mu < 0 else None)
    if need is None:
        try:
            drift = (2.0 * M / (K * R0) + 4.0 * M / (K * R0 ** 2)
                     + (2.0 * math.sqrt(2.0) / (R0 * math.sqrt(R0)))
                     * math.sqrt(M / K + mu))
            budget = K * K * mu - (2.0 * M * M / R0 ** 2 - 1.5 * M * M / R0)
            denom = 3.0 - (SQRT3 - 2.0 * R0) ** 2
        except ArithmeticError:     # R0^2 underflowed to 0 or overflowed
            need = "K R0^2 > 0 and R0^2 finite in floating point"
    if need is None:
        floor = max(64.0 * M / SQRT3,
                    64.0 * SQRT3 * M / denom if denom > 0 else math.inf)
        add("phase_drift_budget", "coupling", 0.5 - drift,
            f"1/2 > 2M/(K R0) + 4M/(K R0^2) + (2 sqrt2 / R0^1.5) sqrt(M/K + mu) = {drift:.6g}")
        add("growth_budget", "coupling", budget,
            f"K^2 mu - (2M^2/R0^2 - 3M^2/(2R0)) = {budget:.6g} > 0")
        add("coupling_floor", "coupling", K - floor,
            f"K = {K:.6g} > max(64M/sqrt3, 64 sqrt3 M / (3 - (sqrt3 - 2R0)^2)) = {floor:.6g}")
    else:
        for name in ("phase_drift_budget", "growth_budget", "coupling_floor"):
            add(name, "coupling", -math.inf, f"undefined: needs {need}")

    gmargin = min(gamma - math.pi / 3, math.pi / 2 - gamma)
    add("sandwich_angle_range", "sandwich", gmargin,
        f"gamma = {gamma:.6g} in (pi/3, pi/2)")
    if gmargin > 0 and R0 > 0 and K > 0 and mu > 0:
        try:
            e1, e2, e3 = constants_E(K, M, R0 / 2.0, gamma, mu)
            add("amplitude_retention", "sandwich", (R0 - 2.0 * e1 - e2) - R0 / 2.0,
                f"R0 - 2E1 - E2 = {R0 - 2 * e1 - e2:.6g} > R0/2 = {R0 / 2:.6g}")
            add("growth_exceeds_losses", "sandwich",
                mu * R0 / 24.0 - (2.0 * e1 + e2 + e3),
                f"mu R0/24 = {mu * R0 / 24:.6g} > 2E1 + E2 + E3 = {2 * e1 + e2 + e3:.6g}")
        except (ValueError, ArithmeticError) as exc:    # a float that left the range too
            add("amplitude_retention", "sandwich", -math.inf, f"undefined: {exc}")
            add("growth_exceeds_losses", "sandwich", -math.inf, f"undefined: {exc}")
    else:
        add("amplitude_retention", "sandwich", -math.inf,
            "undefined: needs gamma in range, R0, K, mu > 0")
        add("growth_exceeds_losses", "sandwich", -math.inf,
            "undefined: needs gamma in range, R0, K, mu > 0")

    add("barrier_level_range", "barrier", min(kappa - 2.0 / 3.0, SQRT3 / 2.0 - kappa),
        f"kappa = {kappa:.6g} in (2/3, sqrt(3)/2)")
    cap_arg = 3.0 - 64.0 * SQRT3 * M / K if K > 0 else -math.inf
    if cap_arg >= 0:
        cap = SQRT3 / 4.0 + 0.25 * math.sqrt(cap_arg)
        add("barrier_level_cap", "barrier", cap - kappa,
            f"kappa < sqrt3/4 + (1/4) sqrt(3 - 64 sqrt3 M/K) = {cap:.6g}")
    else:
        add("barrier_level_cap", "barrier", -math.inf,
            "undefined: 3 - 64 sqrt3 M/K < 0")
    if kappa > 0 and K > 0:
        try:
            ek = epsilon_kappa(kappa, M, K)[0]
            add("barrier_offset_valid", "barrier", 1.0 - ek, f"eps_kappa = {ek:.6g} < 1")
        except ArithmeticError:     # kappa^2 underflowed to 0 or overflowed
            add("barrier_offset_valid", "barrier", -math.inf,
                "undefined: needs kappa^2 > 0 and finite in floating point")
    else:
        add("barrier_offset_valid", "barrier", -math.inf,
            "undefined: needs kappa, K > 0")

    if eps0 > 0:
        thr = (M / eps0) * (1.0 + 1.0 / eps0)
        add("arc_trapping_coupling", "arc_trapping", K - thr,
            f"K = {K:.6g} > (M/eps0)(1 + 1/eps0) = {thr:.6g}")
    else:
        add("arc_trapping_coupling", "arc_trapping", -math.inf,
            "undefined: needs eps0 > 0")
    add("mass_threshold_eps_window", "arc_trapping",
        min(eps0, MSTAR_EPS_MAX - eps0),
        f"0 < eps0 = {eps0:.6g} < {MSTAR_EPS_MAX:.6g}")
    if 0 < eps0 < MSTAR_EPS_MAX:
        cap = mstar_gamma0_cap(eps0)
        add("mass_threshold_angle_window", "arc_trapping",
            min(gamma0 - math.pi / 3 + 1e-15, cap - gamma0),
            f"pi/3 <= gamma0 = {gamma0:.6g} < {cap:.6g}")
    else:
        add("mass_threshold_angle_window", "arc_trapping", -math.inf,
            "undefined: eps0 out of window")

    floor2 = 15.0 * M / (2.0 * (math.sqrt(4.0 - 2.0 * math.sqrt(2.0)) - 1.0))
    add("floor_coupling", "floor", K - floor2,
        f"K = {K:.6g} > 15M / (2(sqrt(4 - 2 sqrt2) - 1)) = {floor2:.6g}")

    params = {"K": K, "M": M, "R0": R0, "mu": mu, "gamma": gamma,
              "kappa": kappa, "eps0": eps0, "gamma0": gamma0}
    return HypothesisReport(tuple(checks), params)


# ---------------------------------------------------------------------------
# per-sample records


@dataclass
class DiagnosticsRecord:
    """The order parameters, masses, functionals and rates at one sample."""
    t: float
    R: float
    phi: float
    phi_defined: bool
    masses: dict = field(default_factory=dict)
    lambda_value: float | None = None
    gamma_plus: np.ndarray | None = None
    gamma_minus: np.ndarray | None = None
    v_k: float = math.nan
    rdot_formula: float | None = None
    phidot_formula: float | None = None
    rdot_measured: float | None = None
    phidot_measured: float | None = None
    bound_checks: dict | None = None


@dataclass(frozen=True)
class DiagnosticsConfig:
    """The intervals whose masses and L2 functionals each sample records."""
    intervals: tuple[Interval, ...] = ()
    lambda_interval: Interval | None = None
    gamma_plus_interval: Interval | None = None
    gamma_minus_interval: Interval | None = None


class RecordSampler:
    """Stateful (state, op) -> DiagnosticsRecord map, op the order parameters
    of state; carries the last defined phase.

    When R falls below tolerance the logged phi keeps the last defined value
    and the record is flagged undefined; phi-anchored masses are then NaN
    rather than extrapolated.
    """

    def __init__(self, config: DiagnosticsConfig):
        self.config = config
        self._carried_phi = 0.0

    def __call__(self, state, op: OrderParams) -> DiagnosticsRecord:
        cfg = self.config
        if op.defined:
            self._carried_phi = op.phi
        rec = DiagnosticsRecord(t=state.t, R=op.R, phi=self._carried_phi,
                                phi_defined=op.defined)
        rec.v_k = kinetic_potential(state, op)
        if op.defined:
            grid, rho = state.grid, state.marginal_density()
            for iv in cfg.intervals:
                rec.masses[iv.label] = float(_arc_sum(grid, *iv.endpoints(op.phi), rho))
            if cfg.lambda_interval is not None:
                rec.lambda_value = float(_arc_sum(grid, *cfg.lambda_interval.endpoints(op.phi),
                                                  rho ** 2))
            if cfg.gamma_plus_interval is not None:
                rec.gamma_plus = _arc_sum(grid, *cfg.gamma_plus_interval.endpoints(op.phi),
                                          state.values ** 2)
            if cfg.gamma_minus_interval is not None:
                rec.gamma_minus = _arc_sum(grid, *cfg.gamma_minus_interval.endpoints(op.phi),
                                           state.values ** 2)
            rec.rdot_formula, rec.phidot_formula = _rates(state, op, rho)
        else:
            for iv in cfg.intervals:
                rec.masses[iv.label] = math.nan
        return rec


def finalize_records(records, K: float, m_bound: float) -> None:
    """Fill measured derivatives (central differences) and bound checks.

    Mutates the records in place.  The phase is unwrapped before
    differencing; undefined-phase samples get no measured phidot.  m_bound
    is the support bound M of g.
    """
    n = len(records)
    if n < 2:
        return
    ts = np.array([r.t for r in records])
    Rs = np.array([r.R for r in records])
    phis = np.unwrap(np.array([r.phi for r in records]))
    rdot = np.gradient(Rs, ts)
    phidot = np.gradient(phis, ts)
    # the endpoints only have one-sided differences: they keep None
    for i in range(1, n - 1):
        r = records[i]
        r.rdot_measured = float(rdot[i])
        r.phidot_measured = float(phidot[i]) if r.phi_defined else None
        checks = {}
        if r.phi_defined and r.R > 0:
            bound = phidot_bound(r.R, m_bound, K)
            margin = bound - abs(r.phidot_measured)
            checks["phidot_bound"] = {"passed": bool(margin >= 0),
                                      "margin": float(margin),
                                      "bound": float(bound)}
        lip = (m_bound + K + 0.01) - abs(r.rdot_measured)
        checks["rdot_lipschitz"] = {"passed": bool(lip >= 0), "margin": float(lip)}
        r.bound_checks = checks


def record_cells(rec: DiagnosticsRecord) -> list[tuple[str, object]]:
    """The (column, value) pairs of rec's trajectory.csv row: fixed columns,
    interval masses, then the omega slices of each L2 functional it holds."""
    cells = [("t", rec.t), ("R", rec.R), ("phi", rec.phi),
             ("phi_defined", int(rec.phi_defined)), ("v_k", rec.v_k),
             ("rdot_formula", rec.rdot_formula), ("rdot_measured", rec.rdot_measured),
             ("phidot_formula", rec.phidot_formula),
             ("phidot_measured", rec.phidot_measured), ("lambda", rec.lambda_value)]
    cells += [(f"mass_{label}", m) for label, m in rec.masses.items()]
    for name, per_slice in (("gamma_plus", rec.gamma_plus), ("gamma_minus", rec.gamma_minus)):
        if per_slice is not None:
            cells += [(f"{name}_{k}", v) for k, v in enumerate(per_slice)]
    return cells


def records_to_csv(records, path) -> None:
    """One row per sample, under the columns of the first (``record_cells``)."""
    if not records:
        raise ValueError("no records to write")
    write_csv(path, [name for name, _ in record_cells(records[0])],
              ([value for _, value in record_cells(r)] for r in records))


def bound_checks_to_json(records, path) -> None:
    write_json(path, [{"t": r.t, "checks": r.bound_checks or {}} for r in records])
