"""Exact steady states of a single surfactant-covered bubble in extension.

A two-term conformal map z = A0/zeta + b*zeta (|zeta| = 1, constant area
A0^2 - b^2 = 1) describes the steady shape; the surfactant concentration
and the capillary number that sustains the shape follow in closed form
up to one quadrature.  The linear equation of state and Pe = inf are
assumed throughout.

The parametrization used here puts the long axis on the x axis and
traverses the interface clockwise with nu = 0 at the positive-x tip, so
oracle output can be compared pointwise against simulations driven by a
positive extensional rate Q.

Every Q here is the extensional rate of stokes.FlowConfig: the steady
state with map parameter b is a fixed point of FlowConfig(Q=steady_q(b,
E)).  The map's capillary number in Siegel's convention is 2Q; steady_q
is the one place that converts.
"""

from __future__ import annotations

import numpy as np

from .spectral import equal_arclength_parameter, trapezoid, uniform_alpha

QUAD_POINTS = 2048
B_MAX = 2.0         # b_from_q searches the stable branch on (0, B_MAX]


def _B_profile(b: float, nu: np.ndarray) -> np.ndarray:
    return 1.0 + 2.0 * b * b - 2.0 * np.sqrt(1.0 + b * b) * b * np.cos(2.0 * nu)


def _A_coefficient(b: float, E: float) -> float:
    nu = uniform_alpha(QUAD_POINTS)
    B = _B_profile(b, nu)
    return (trapezoid(np.sqrt(B)) - 2.0 * np.pi * E) / trapezoid(B)


def steady_q(b: float, E: float) -> float:
    """FlowConfig Q sustaining the steady shape with parameter b."""
    A = _A_coefficient(b, E)
    return A * b / (2.0 * np.sqrt(1.0 + b * b))


def steady_solution(b: float, E: float, M: int = 256) -> dict:
    """Shape, concentration and Q of the steady state of the map with
    b >= 0, whose A0 = sqrt(1 + b^2) keeps the area.

    Returns z(nu_j), rho(nu_j), the deformation number D, the FlowConfig
    Q that holds the state, and the equal-arclength parameters alphaV(nu_j)
    used to compare against simulation output.
    """
    if b < 0:
        raise ValueError(f"need b >= 0, not {b}")
    if M < 64:
        raise ValueError("need at least 64 points")
    a = -np.sqrt(1.0 + b * b)
    nu = uniform_alpha(M)
    zeta = np.exp(1j * nu)
    z = -a / zeta + b * zeta
    z_nu = 1j * (a / zeta + b * zeta)
    B = _B_profile(b, nu)
    A = _A_coefficient(b, E)
    rho = (1.0 - A * np.sqrt(B)) / E
    if np.any(rho <= 0):
        raise ValueError("flow too strong: steady concentration not positive")
    r = np.abs(z)
    D = (r.max() - r.min()) / (r.max() + r.min())
    alphaV, L = equal_arclength_parameter(np.abs(z_nu))
    return {"nu": nu, "z": z, "z_nu": z_nu, "rho": rho, "D": D,
            "Q": steady_q(b, E), "A": A, "alphaV": alphaV, "length": L}


def _rho_positive(b: float, E: float) -> bool:
    """Whether the steady rho = (1 - A sqrt(B)) / E of b, with E > 0, is
    positive at every nu; sqrt(B) peaks at sqrt(1 + b^2) + b."""
    return _A_coefficient(b, E) * (np.sqrt(1.0 + b * b) + b) < 1.0


def _bisect(below, lo: float, hi: float) -> float:
    """The b in [lo, hi] where below(b) turns from True to False, to
    1e-14."""
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class NoSteadyState(ValueError):
    """Q lies off the stable branch, whose largest Q is q_max."""

    def __init__(self, Q, q_max):
        super().__init__(f"no steady state at Q={Q} (max Q ~ {q_max:.4f})")
        self.q_max = q_max


def b_from_q(Q: float, E: float) -> float:
    """Invert steady_q on the stable branch by bisection (NoSteadyState
    when Q lies off it).

    The branch rises from b = 0 to its peak Q or ends earlier, where rho
    first reaches 0 (at E 0.1 and 0.2, not at E 0.5 or 0.9).
    """
    if Q == 0.0:
        return 0.0
    bs = np.linspace(1e-6, B_MAX, 400)
    qs = np.array([steady_q(b, E) for b in bs])
    lo, hi = 1e-9, bs[int(np.argmax(qs))]
    # the branch ends at its peak or where rho first reaches 0, less 1e-13
    # in b there so that steady_solution accepts the b of q_max
    end = hi if _rho_positive(hi, E) else _bisect(
        lambda b: _rho_positive(b, E), lo, hi) - 1e-13
    q_max = steady_q(end, E)
    if not steady_q(lo, E) <= Q <= q_max:
        raise NoSteadyState(Q, q_max)
    return _bisect(lambda b: steady_q(b, E) < Q, lo, hi)
