"""Coupled adaptive time integration.

Interface positions advance with the explicit midpoint rule (embedded
Euler for the local error); surfactant concentration advances with a
two-stage IMEX scheme whose local error is measured through mass drift.
Both equations exchange information at each stage: the surface tension is
refreshed from the concentration before every Stokes solve.

StepController is the one step-size policy of the package: advance_to
here and pair_oracle.evolve_pair both drive it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import modified_tangential_velocity, normals
from .spectral import krasny_filter
from .stokes import FlowConfig, interface_velocity
from .surfactant import (rhs_explicit, rhs_implicit_apply,
                         rhs_implicit_solve, surface_tension, surfactant_mass,
                         with_rho)

SAFETY = 0.9
GROWTH_CAP = 2.0
STEADY_UNORM = 1e-8     # a steady run stops once max |u.n| is at most this
# largest spacing drift max|s_a - mean|/mean (s_a = |z_alpha|) of a drop
# entering a step: the surfactant transport takes s_a = L/2pi, so nodes
# off equal arclength lose mass at first order in dt.  The presets at
# their documented sizes reach 1.6e-7 (steady_single), 1.2e-5
# (pair_clean) and 9.5e-7 (pair_surfactant); an ellipse of aspect ratio
# 1.26 sampled at equal parameter steps starts at 0.12.  pair_clean at
# 2x64 stops here at t = 0.5977 (drift 1.025e-3); 2x128 reaches t = 0.6.
SPACING_DRIFT_MAX = 1e-3
# GMRES tolerance of the Stokes solves of a step (RunSpec.stokes_tol's
# default); stokes.DEFAULT_TOL is the tighter one of a direct solve
STOKES_TOL = 1e-11


@dataclass
class StepController:
    """The step-size policy: dt_new = dt (SAFETY * tol / r)^(1/2).

    An attempt of size dt with local error r is accepted when r <= tol;
    either way dt moves by that rule, growing at most GROWTH_CAP-fold and
    staying within [dt_min, dt_max].  A rejection counts one retake and
    raises once dt has shrunk to dt_min.  clip shortens an attempt so
    that it lands on the end time; the unclipped dt comes back only
    after that attempt is accepted, so a rejected clipped attempt is
    retaken with a smaller step.
    """

    tol: float = 1e-6
    dt: float = 1e-3
    dt_min: float = 1e-12
    dt_max: float = 0.1
    retake_count: int = 0
    _unclipped: float = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tolerance must be positive, not {self.tol}")
        for name in ("dt", "dt_min", "dt_max"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive, "
                                 f"not {getattr(self, name)}")
        if self.dt_min > self.dt_max:
            raise ValueError(f"dt_min {self.dt_min} exceeds dt_max "
                             f"{self.dt_max}")
        self.dt = min(max(self.dt, self.dt_min), self.dt_max)

    def update(self, r: float, t: float) -> float:
        """Next step size after an error r at time t; raises on a non-finite r."""
        if not np.isfinite(r):
            raise RuntimeError(f"non-finite step error at t={t:.6g} "
                               f"(dt={self.dt:.3e}, r={r})")
        if r == 0.0:
            new = GROWTH_CAP * self.dt
        else:
            new = self.dt * np.sqrt(SAFETY * self.tol / r)
            new = min(new, GROWTH_CAP * self.dt)
        return min(max(new, self.dt_min), self.dt_max)

    def clip(self, remaining: float) -> float:
        """Size of the next attempt, shortened to the time remaining."""
        if remaining < self.dt:
            self._unclipped = self.dt
            self.dt = remaining
        return self.dt

    def judge(self, r: float, t: float) -> bool:
        """Accept or reject the attempt of size dt from t; sets the next dt."""
        accepted = r <= self.tol
        new = self.update(r, t)
        if not accepted:
            self.retake_count += 1
            if new <= self.dt_min:
                raise RuntimeError(f"time step underflow at t={t:.6g} "
                                   f"(r={r:.3e})")
        elif self._unclipped is not None:
            new = self._unclipped
        self._unclipped = None
        self.dt = new
        return accepted


@dataclass
class CoupledState:
    """Interfaces plus per-drop surfactant fields at one time level."""

    ifaces: list
    fields: list
    t: float = 0.0

    def masses(self):
        return [surfactant_mass(i, f) for i, f in zip(self.ifaces, self.fields)]

    def areas(self):
        return [i.area() for i in self.ifaces]


class NegativeConcentrationError(ValueError):
    """A stage left drop `drop` with min rho `rho_min` < 0 at time t."""

    def __init__(self, t: float, drop: int, rho_min: float):
        super().__init__(f"drop {drop}: negative surfactant concentration "
                         f"{rho_min:.3e} at t={t:.6g}")
        self.t, self.drop, self.rho_min = t, drop, rho_min


class SpacingDriftError(ValueError):
    """Drop `drop` entered the program or a step at time t with spacing
    drift `drift` above SPACING_DRIFT_MAX."""

    def __init__(self, t: float, drop: int, drift: float):
        super().__init__(f"drop {drop}: nodes not equidistant in arclength "
                         f"at t={t:.6g} (spacing drift {drift:.3e} > "
                         f"{SPACING_DRIFT_MAX:g}); see to_equal_arclength")
        self.t, self.drop, self.drift = t, drop, drift


def check_spacing(state):
    """Raise SpacingDriftError for the first drop of state whose spacing
    drift exceeds SPACING_DRIFT_MAX."""
    for k, ifc in enumerate(state.ifaces):
        s_a = np.abs(ifc.z_alpha())
        drift = float(np.abs(s_a - s_a.mean()).max() / s_a.mean())
        if drift > SPACING_DRIFT_MAX:
            raise SpacingDriftError(state.t, k, drift)


class NonPositiveTensionError(ValueError):
    """Drop `drop` reached surface tension `sigma_min` <= 0 at time t."""

    def __init__(self, t: float, drop: int, sigma_min: float):
        super().__init__(f"drop {drop}: surface tension {sigma_min:.3e} "
                         f"<= 0 at t={t:.6g}")
        self.t, self.drop, self.sigma_min = t, drop, sigma_min


def check_tension(state):
    """surface_tension of each drop of state, which must be positive."""
    sigmas = [surface_tension(f) for f in state.fields]
    for k, sig in enumerate(sigmas):
        if sig.min() <= 0:
            raise NonPositiveTensionError(state.t, k, float(sig.min()))
    return sigmas


def _filtered_field(f, rho, t, drop):
    """f carrying krasny_filter(rho), which must be nonnegative."""
    rho = krasny_filter(rho)
    if rho.min() < 0:
        raise NegativeConcentrationError(t, drop, float(rho.min()))
    return with_rho(f, rho)


@dataclass
class StepInfo:
    r: float
    r_z: float
    r_rho: float
    dt_used: float
    accepted: bool
    un_max: float
    iterations: int


def local_errors(z_mid, z_euler, mass_before, mass_after):
    """(r_z, r_rho): relative max-norm position error and mass drift."""
    num = max(np.abs(zm - ze).max() for zm, ze in zip(z_mid, z_euler))
    den = max(np.abs(zm).max() for zm in z_mid)
    r_z = num / den if den > 0 else 0.0
    r_rho = 0.0
    for mb, ma in zip(mass_before, mass_after):
        if mb != 0:
            r_rho = max(r_rho, abs(ma - mb) / abs(mb))
    return r_z, r_rho


def _stage_eval(state: CoupledState, cfg: FlowConfig, tol):
    sigmas = check_tension(state)
    u_list, sol, _ = interface_velocity(state.ifaces, sigmas, cfg, tol=tol)
    decomps = [modified_tangential_velocity(i, u)
               for i, u in zip(state.ifaces, u_list)]
    motions = [(d.u_n + 1j * d.u_t_mod) * normals(i)
               for i, d in zip(state.ifaces, decomps)]
    f_exp = [rhs_explicit(i, f, d)
             for i, f, d in zip(state.ifaces, state.fields, decomps)]
    return decomps, motions, f_exp, sol


def step(state: CoupledState, cfg: FlowConfig, ctrl: StepController,
         stokes_tol: float = STOKES_TOL):
    """One coupled midpoint/IMEX2 attempt of size ctrl.dt, judged by ctrl.

    Returns (candidate_state, info).  The drops must enter on
    equal-arclength nodes (SpacingDriftError otherwise); a stage or the
    candidate with rho < 0 or sigma <= 0 raises.  The material parameters
    come from each field's flow; cfg gives the far field.
    """
    dt = ctrl.dt

    check_spacing(state)
    dec1, g1, fE1, _ = _stage_eval(state, cfg, stokes_tol)
    un_max = max(np.abs(d.u_n).max() for d in dec1)

    ifaces_half = [replace(i, z=krasny_filter(i.z + 0.5 * dt * g))
                   for i, g in zip(state.ifaces, g1)]
    fields_half = []
    for k, (ifc_h, f, fe) in enumerate(zip(ifaces_half, state.fields, fE1)):
        s_a = ifc_h.length() / (2 * np.pi)
        rho_h = rhs_implicit_solve(f.rho + 0.5 * dt * fe, s_a, f.flow.Pe,
                                   0.5 * dt)
        fields_half.append(_filtered_field(f, rho_h, state.t + 0.5 * dt, k))
    half = CoupledState(ifaces=ifaces_half, fields=fields_half,
                        t=state.t + 0.5 * dt)

    _, g2, fE2, sol2 = _stage_eval(half, cfg, stokes_tol)

    z_new = [krasny_filter(i.z + dt * g) for i, g in zip(state.ifaces, g2)]
    z_eul = [i.z + dt * g for i, g in zip(state.ifaces, g1)]
    new_ifaces = [replace(i, z=z) for i, z in zip(state.ifaces, z_new)]

    new_fields = []
    for k, (ifc_h, f, fh, fe2) in enumerate(zip(ifaces_half, state.fields,
                                                fields_half, fE2)):
        s_a = ifc_h.length() / (2 * np.pi)
        fI = rhs_implicit_apply(fh, s_a)
        rho_new = f.rho + dt * fe2 + dt * fI
        new_fields.append(_filtered_field(f, rho_new, state.t + dt, k))

    mass_before = state.masses()
    cand = CoupledState(ifaces=new_ifaces, fields=new_fields, t=state.t + dt)
    check_tension(cand)
    r_z, r_rho = local_errors(z_new, z_eul, mass_before, cand.masses())
    r = max(r_z, r_rho)
    accepted = ctrl.judge(r, state.t)
    info = StepInfo(r=r, r_z=r_z, r_rho=r_rho, dt_used=dt, accepted=accepted,
                    un_max=un_max, iterations=sol2.iterations)
    return cand, info


def advance_to(state: CoupledState, cfg: FlowConfig, ctrl: StepController,
               t_end: float, stokes_tol: float = STOKES_TOL, callback=None,
               steady: bool = False):
    """Integrate until t_end (or steady state), retaking rejected steps.

    Returns (state, reached_steady).  ctrl clips the last attempt to land
    on t_end.  callback(state, info) fires after each accepted step.  A
    steady run stops once max |u.n| at the start of an accepted attempt
    is at most STEADY_UNORM; it returns the state that attempt started
    from, which the callback has already seen (or the initial state), and
    discards the attempt.
    """
    while state.t < t_end - 1e-14:
        ctrl.clip(t_end - state.t)
        cand, info = step(state, cfg, ctrl, stokes_tol)
        if not info.accepted:
            continue
        if steady and info.un_max <= STEADY_UNORM:
            return state, True
        state = cand
        if callback is not None:
            callback(state, info)
    return state, False
