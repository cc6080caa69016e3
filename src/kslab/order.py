"""Order parameters of a kinetic state and their closed-form rates.

The amplitude R and average phase phi are the modulus and argument of the
phasor mean of the phase distribution; phi is only meaningful when R exceeds
TOL_R, and every phi-dependent quantity here refuses to extrapolate below
that threshold.  The module also holds what every solver module shares:
TWO_PI, the smallest phase grid (MIN_CELLS), the sample clock
(``sample_count``), the classical RK4 step, its increment and the
fixed-step RK4 path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

#: below this amplitude the average phase is treated as undefined
TOL_R = 1e-12

#: the fewest cells a kinetic phase grid may have
MIN_CELLS = 16


@dataclass(frozen=True)
class OrderParams:
    """Amplitude R and average phase phi of a phasor mean."""
    R: float
    phi: float          # in [0, 2*pi); 0.0 when undefined
    defined: bool       # True iff R > TOL_R


def _from_phasor(z: complex) -> OrderParams:
    R = abs(z)
    if R > TOL_R:
        return OrderParams(float(R), float(np.angle(z) % TWO_PI), True)
    return OrderParams(float(R), 0.0, False)


#: a kinetic run steps to within this time of each sample; the sample
#: interval and a particle run's step must exceed it
TIME_TOL = 1e-12

#: a ratio within this relative distance of a whole number counts as it
RATIO_TOL = 1e-9


def sample_count(t0: float, t_end: float, sample_every: float) -> int:
    """Number n of sample intervals from t0 to t_end: a run from t0 samples
    at t0 + i sample_every for i = 0 .. n and ends at its last sample.

    Raises ValueError unless sample_every > 0, t_end >= t0,
    (t_end - t0)/sample_every is within RATIO_TOL (relative) of an integer, and
    sample_every > TIME_TOL, in that order.
    """
    if not sample_every > 0:
        raise ValueError("sample_every must be positive")
    if not t_end >= t0:
        raise ValueError("t_end must not precede the state time")
    span = (t_end - t0) / sample_every
    if not (math.isfinite(span) and abs(span - round(span)) <= RATIO_TOL * span):
        raise ValueError(f"t_end - t0 = {t_end - t0!r} is not a whole number of "
                         f"sample intervals of {sample_every!r}")
    if not sample_every > TIME_TOL:
        raise ValueError(f"sample_every must exceed the time tolerance {TIME_TOL:g}")
    return round(span)


def rk4_increment(f, t, h, k1):
    """The change (h/6)(k1 + 2 k2 + 2 k3 + k4) of one classical Runge-Kutta
    step from time t, given its first slope k1; f(s, d) is the slope at time
    s of the state d away from the step start.  k2, k3 and k4 are summed in
    place, in the order of that formula, so f must return a new float array
    (or a float) at stages 2-4; k1 is left unchanged."""
    half = 0.5 * h
    k2 = f(t + half, half * k1)
    k3 = f(t + half, half * k2)
    k2 *= 2.0
    k2 += k1
    k4 = f(t + h, h * k3)
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= h / 6.0
    return k2


def rk4_step(f, t, y, h):
    """One classical Runge-Kutta step of dy/dt = f(t, y) from y at time t:
    y + ``rk4_increment``, y left unchanged.  f must return a new float
    array (or a float) at stages 2-4, which are summed in place."""
    return y + rk4_increment(lambda s, d: f(s, y + d), t, h, f(t, y))


def rk4_path(f, t0: float, y0, h: float, n: int, project=None):
    """n ``rk4_step`` steps of length h from y0 at t0; returns (ts, ys) with
    ts = t0 + h * arange(n + 1) and ys[i] the float state at ts[i].  Each new
    state is mapped through project, if given, before the next step."""
    ts = t0 + h * np.arange(n + 1)
    ys = np.empty((n + 1,) + np.shape(y0))
    y = ys[0] = y0
    for i in range(n):
        y = rk4_step(f, ts[i], y, h)
        if project is not None:
            y = project(y)
        ys[i + 1] = y
    return ts, ys


def phasor(grid, weights: np.ndarray, values: np.ndarray) -> complex:
    """sum_k weights[k] * midpoint integral of values[k] exp(i theta)."""
    # a 1-d by 2-d product, here, in _rates and in KineticState.marginal_density,
    # is np.dot: the bits of @ (1 to 32 slices), at a fraction of its call cost
    return complex(*(np.dot(weights, values @ grid.trig_centers) * grid.dtheta).tolist())


def global_order(state) -> OrderParams:
    """Phasor mean of f over theta and omega (midpoint in theta, quadrature in omega)."""
    return _from_phasor(phasor(state.grid, state.weights, state.values))


def _rates(state, op: OrderParams, rho: np.ndarray) -> tuple[float, float]:
    """Closed-form dR/dt = -<sin(theta-phi) omega f> + K R <sin^2(theta-phi) rho>
    and dphi/dt = (1/R)<cos(theta-phi) omega f> - (K/2)<sin 2(theta-phi) rho>
    at op, given the theta marginal rho; cos and sin of theta - phi come
    pointwise from the grid's table, no trig per cell."""
    if not op.defined:
        raise ValueError("average phase undefined (R below tolerance)")
    cp, sp = math.cos(op.phi), math.sin(op.phi)
    cs = state.grid.trig_centers @ np.array([[cp, -sp], [sp, cp]])
    c, s = cs[:, 0], cs[:, 1]
    dth = state.grid.dtheta
    drift_c, drift_s = np.dot(state.weights * state.omega, state.values @ cs) * dth
    rdot = -drift_s + state.K * op.R * float(rho @ (s * s)) * dth
    phidot = drift_c / op.R - state.K * float(rho @ (s * c)) * dth
    return float(rdot), float(phidot)


def phidot_bound(R: float, M: float, K: float) -> float:
    """A priori bound on |dphi/dt|: M/R + K(1 - R)."""
    if R <= 0:
        raise ValueError("bound requires R > 0")
    return M / R + K * (1.0 - R)


def kinetic_potential(state, op: OrderParams) -> float:
    """Interaction potential K/2 (1 - R^2) at the order parameters op of
    state; dissipates along the flow."""
    return 0.5 * state.K * (1.0 - op.R ** 2)
