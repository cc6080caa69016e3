"""Global and local order parameters of a kinetic state, and their rates.

The amplitude R and average phase phi are the modulus and argument of the
phasor mean of the phase distribution; phi is only meaningful when R exceeds
TOL_R, and every phi-dependent quantity here refuses to extrapolate below
that threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

#: below this amplitude the average phase is treated as undefined
TOL_R = 1e-12


@dataclass(frozen=True)
class OrderParams:
    R: float
    phi: float          # in [0, 2*pi); 0.0 when undefined
    defined: bool       # True iff R > TOL_R

    def __iter__(self):
        yield self.R
        yield self.phi


def _from_phasor(z: complex) -> OrderParams:
    R = abs(z)
    if R > TOL_R:
        return OrderParams(float(R), float(np.angle(z) % TWO_PI), True)
    return OrderParams(float(R), 0.0, False)


def phasor(grid, weights: np.ndarray, values: np.ndarray) -> complex:
    """sum_k weights[k] * midpoint integral of values[k] exp(i theta)."""
    return complex(*(weights @ (values @ grid.trig_centers) * grid.dtheta).tolist())


def global_order(state) -> OrderParams:
    """Phasor mean of f over theta and omega (midpoint in theta, quadrature in omega)."""
    return _from_phasor(phasor(state.grid, state.weights, state.values))


def local_order(state, k: int) -> OrderParams:
    """Order parameters of the conditional density on omega slice k."""
    mass = float(np.sum(state.values[k]) * state.grid.dtheta)
    if mass <= 0:
        raise ValueError(f"omega slice {k} has no mass")
    return _from_phasor(phasor(state.grid, np.ones(1), state.values[k:k + 1]) / mass)


def _rates(state, op: OrderParams, rho: np.ndarray) -> tuple[float, float]:
    """(rdot_formula, phidot_formula) given the theta marginal rho; cos and
    sin of theta - phi come pointwise from the grid's table, no trig per cell."""
    if not op.defined:
        raise ValueError("average phase undefined (R below tolerance)")
    cp, sp = math.cos(op.phi), math.sin(op.phi)
    cs = state.grid.trig_centers @ np.array([[cp, -sp], [sp, cp]])
    c, s = cs[:, 0], cs[:, 1]
    dth = state.grid.dtheta
    drift_c, drift_s = (state.weights * state.omega) @ (state.values @ cs) * dth
    rdot = -drift_s + state.K * op.R * float(rho @ (s * s)) * dth
    phidot = drift_c / op.R - state.K * float(rho @ (s * c)) * dth
    return float(rdot), float(phidot)


def rdot_formula(state, op: OrderParams | None = None) -> float:
    """Closed-form dR/dt: -<sin(theta-phi) omega f> + K R <sin^2(theta-phi) rho>.

    For identical oscillators (omega = 0) this reduces to K R <sin^2 rho>,
    which is nonnegative.
    """
    op = global_order(state) if op is None else op
    return _rates(state, op, state.marginal_density())[0]


def phidot_formula(state, op: OrderParams | None = None) -> float:
    """Closed-form dphi/dt: (1/R)<cos(theta-phi) omega f> - (K/2)<sin 2(theta-phi) rho>."""
    op = global_order(state) if op is None else op
    return _rates(state, op, state.marginal_density())[1]


def phidot_bound(R: float, M: float, K: float) -> float:
    """A priori bound on |dphi/dt|: M/R + K(1 - R)."""
    if R <= 0:
        raise ValueError("bound requires R > 0")
    return M / R + K * (1.0 - R)


def kinetic_potential(state, op: OrderParams | None = None) -> float:
    """Interaction potential K/2 (1 - R^2); dissipates along the flow."""
    op = global_order(state) if op is None else op
    return 0.5 * state.K * (1.0 - op.R ** 2)
