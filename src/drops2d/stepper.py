"""Coupled adaptive time integration.

Interface positions advance with the explicit midpoint rule (embedded
Euler for the local error); surfactant concentration advances with a
two-stage IMEX scheme whose local error is measured through mass drift.
Both equations exchange information at each stage: the surface tension is
refreshed from the concentration before every Stokes solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import adapt_resolution, modified_tangential_velocity, normals
from .spectral import krasny_filter
from .stokes import FlowConfig, interface_velocity
from .surfactant import (SurfactantField, rhs_explicit, rhs_implicit_apply,
                         rhs_implicit_solve, surface_tension,
                         surfactant_mass, with_rho)

SAFETY = 0.9
GROWTH_CAP = 2.0


@dataclass
class StepController:
    """Local-error controller: dt_new = dt (SAFETY * tol / r)^(1/2)."""

    tol: float = 1e-6
    dt: float = 1e-3
    dt_min: float = 1e-12
    dt_max: float = 0.1
    retake_count: int = 0

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        self.dt = min(max(self.dt, self.dt_min), self.dt_max)

    def update(self, r: float) -> float:
        if r == 0.0:
            new = GROWTH_CAP * self.dt
        else:
            new = self.dt * np.sqrt(SAFETY * self.tol / r)
            new = min(new, GROWTH_CAP * self.dt)
        return min(max(new, self.dt_min), self.dt_max)


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


def _stage_eval(state: CoupledState, cfg: FlowConfig, tol, mu0=None):
    sigmas = [surface_tension(f) for f in state.fields]
    u_list, sol, _ = interface_velocity(state.ifaces, sigmas, cfg,
                                        tol=tol, mu0=mu0)
    decomps = [modified_tangential_velocity(i, u)
               for i, u in zip(state.ifaces, u_list)]
    motions = [(d.u_n + 1j * d.u_t_mod) * normals(i)
               for i, d in zip(state.ifaces, decomps)]
    f_exp = [rhs_explicit(i, f, d)
             for i, f, d in zip(state.ifaces, state.fields, decomps)]
    return u_list, decomps, motions, f_exp, sol


def step(state: CoupledState, cfg: FlowConfig, ctrl: StepController,
         stokes_tol: float = 1e-11, mu0=None, stage1=None):
    """One coupled midpoint/IMEX2 attempt; ctrl.dt is updated in place.

    Returns (candidate_state, info, mu_stage2, stage1) where stage1 can
    be fed back in on a retake to avoid recomputing the first Stokes
    solve at the unchanged state.
    """
    dt = ctrl.dt
    has_surf = any(np.isfinite(f.Pe) or np.any(f.rho != 0.0)
                   for f in state.fields)

    if stage1 is None:
        stage1 = _stage_eval(state, cfg, stokes_tol, mu0=mu0)
    u1, dec1, g1, fE1, sol1 = stage1
    un_max = max(np.abs(d.u_n).max() for d in dec1)

    ifaces_half = [replace(i, z=krasny_filter(i.z + 0.5 * dt * g), check=False)
                   for i, g in zip(state.ifaces, g1)]
    fields_half = []
    for ifc_h, f, fe in zip(ifaces_half, state.fields, fE1):
        s_a = ifc_h.length() / (2 * np.pi)
        rho_h = rhs_implicit_solve(f.rho + 0.5 * dt * fe, s_a, f.Pe, 0.5 * dt)
        fields_half.append(with_rho(f, krasny_filter(rho_h)))
    half = CoupledState(ifaces=ifaces_half, fields=fields_half,
                        t=state.t + 0.5 * dt)

    u2, dec2, g2, fE2, sol2 = _stage_eval(half, cfg, stokes_tol, mu0=sol1.mu)

    z_new = [krasny_filter(i.z + dt * g) for i, g in zip(state.ifaces, g2)]
    z_eul = [i.z + dt * g for i, g in zip(state.ifaces, g1)]
    new_ifaces = [replace(i, z=z, check=False)
                  for i, z in zip(state.ifaces, z_new)]

    new_fields = []
    for ifc_h, f, fh, fe2 in zip(ifaces_half, state.fields, fields_half, fE2):
        s_a = ifc_h.length() / (2 * np.pi)
        fI = rhs_implicit_apply(fh, s_a)
        rho_new = f.rho + dt * fe2 + dt * fI
        new_fields.append(with_rho(f, krasny_filter(np.maximum(rho_new, 0.0))))

    mass_before = state.masses()
    cand = CoupledState(ifaces=new_ifaces, fields=new_fields, t=state.t + dt)
    r_z, r_rho = local_errors(z_new, z_eul, mass_before, cand.masses())
    r = max(r_z, r_rho if has_surf else 0.0)

    accepted = r <= ctrl.tol
    new_dt = ctrl.update(r)
    if not accepted:
        ctrl.retake_count += 1
        if new_dt <= ctrl.dt_min:
            raise RuntimeError(f"time step underflow at t={state.t:.6g} (r={r:.3e})")
    info = StepInfo(r=r, r_z=r_z, r_rho=r_rho, dt_used=dt, accepted=accepted,
                    un_max=un_max, iterations=sol2.iterations)
    ctrl.dt = new_dt
    return cand, info, sol2.mu, stage1


def advance_to(state: CoupledState, cfg: FlowConfig, ctrl: StepController,
               t_end: float, stokes_tol: float = 1e-11, callback=None,
               steady_unorm: float = None, max_steps: int = 10**6,
               adapt_spacing: float = None):
    """Integrate until t_end (or steady state), retaking rejected steps.

    Returns (state, reached_steady).  callback(state, info) fires after
    each accepted step; steady_unorm stops the run once max |u.n| at the
    start of an accepted step falls below the threshold.
    """
    mu_prev = None
    stage1 = None
    steps = 0
    while state.t < t_end - 1e-14 and steps < max_steps:
        dt_wanted = ctrl.dt
        ctrl.dt = min(ctrl.dt, t_end - state.t)
        clipped = ctrl.dt < dt_wanted
        cand, info, mu2, stage1 = step(state, cfg, ctrl, stokes_tol,
                                       mu0=mu_prev, stage1=stage1)
        if clipped:
            ctrl.dt = min(dt_wanted, ctrl.dt_max)
        steps += 1
        if not info.accepted:
            continue
        if steady_unorm is not None and info.un_max <= steady_unorm:
            if callback is not None:
                callback(state, info)
            return state, True
        state = cand
        mu_prev = mu2
        stage1 = None
        if adapt_spacing is not None:
            changed = False
            ifaces, fields = [], []
            for ifc, f in zip(state.ifaces, state.fields):
                ifc2, (rho2,) = adapt_resolution(ifc, (f.rho,), adapt_spacing)
                changed = changed or (ifc2.n != ifc.n)
                ifaces.append(ifc2)
                fields.append(with_rho(f, rho2))
            if changed:
                state = CoupledState(ifaces=ifaces, fields=fields, t=state.t)
                mu_prev = None
        if callback is not None:
            callback(state, info)
    return state, False


def clean_fields(ifaces, E: float = 0.5) -> list:
    """Zero-surfactant fields matching a set of interfaces."""
    return [SurfactantField(rho=np.zeros(i.n), E=E, Pe=np.inf) for i in ifaces]
