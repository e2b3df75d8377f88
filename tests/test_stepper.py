import numpy as np
import pytest

from drops2d.geometry import circle, normals
from drops2d.spectral import uniform_alpha
from drops2d.stepper import (CoupledState, StepController, advance_to,
                             clean_fields, local_errors, step)
from drops2d.stokes import FlowConfig
from drops2d.surfactant import SurfactantField, surfactant_mass


def make_state(n=64, rho0=None, Pe=np.inf, E=0.5, lam=0.0, radius=1.0):
    c = circle(n, radius=radius, lam=lam)
    if rho0 is None:
        fields = clean_fields([c], E=E)
    else:
        fields = [SurfactantField(rho=rho0 * np.ones(n), E=E, Pe=Pe)]
    return CoupledState(ifaces=[c], fields=fields)


class TestController:
    def test_exact_tolerance_shrink(self):
        ctrl = StepController(tol=1e-6, dt=0.01)
        new = ctrl.update(1e-6)
        assert abs(new / 0.01 - np.sqrt(0.9)) < 1e-12

    def test_large_error_strong_shrink(self):
        ctrl = StepController(tol=1e-6, dt=0.01)
        new = ctrl.update(1e-4)
        assert abs(new / 0.01 - np.sqrt(0.9 / 100)) < 1e-12

    def test_growth_capped(self):
        ctrl = StepController(tol=1e-6, dt=0.01, dt_max=1.0)
        assert ctrl.update(1e-12) == pytest.approx(0.02)


class TestLocalErrors:
    def test_identical_candidates(self):
        z = [np.ones(8, dtype=complex)]
        r_z, r_rho = local_errors(z, z, [1.0], [1.0])
        assert r_z == 0.0 and r_rho == 0.0

    def test_synthetic_shift(self):
        z1 = [np.ones(8, dtype=complex)]
        z2 = [np.ones(8, dtype=complex) + 1e-7]
        r_z, _ = local_errors(z1, z2, [1.0], [1.0])
        assert r_z == pytest.approx(1e-7, rel=1e-6)

    def test_mass_drift(self):
        z = [np.ones(8, dtype=complex)]
        _, r_rho = local_errors(z, z, [2.0], [2.0 + 1e-8])
        assert r_rho == pytest.approx(5e-9, rel=1e-6)


class TestEquilibrium:
    def test_step_accepted_positions_frozen(self):
        state = make_state(n=64)
        cfg = FlowConfig()
        ctrl = StepController(tol=1e-6, dt=1e-3)
        cand, info, mu2, _ = step(state, cfg, ctrl)
        assert info.accepted
        assert np.abs(cand.ifaces[0].z - state.ifaces[0].z).max() < 1e-10
        assert ctrl.dt > 1e-3   # controller grows the step at equilibrium

    def test_advance_keeps_circle(self):
        state = make_state(n=64)
        cfg = FlowConfig()
        ctrl = StepController(tol=1e-6, dt=1e-2, dt_max=0.1)
        out, _ = advance_to(state, cfg, ctrl, t_end=0.5)
        assert np.abs(np.abs(out.ifaces[0].z) - 1).max() < 1e-9


class TestCoupledRun:
    def test_area_and_mass_conservation(self):
        state = make_state(n=96, rho0=1.0, Pe=10.0, E=0.2)
        cfg = FlowConfig(Q=0.05, E=0.2, Pe=10.0)
        ctrl = StepController(tol=1e-7, dt=1e-3)
        area0 = state.areas()[0]
        mass0 = state.masses()[0]
        out, _ = advance_to(state, cfg, ctrl, t_end=0.2)
        assert abs(out.t - 0.2) < 1e-12
        assert abs(out.areas()[0] - area0) / area0 < 5e-7
        assert abs(out.masses()[0] - mass0) / mass0 < 5e-7

    def test_spacing_stays_equidistant(self):
        state = make_state(n=96, rho0=1.0, Pe=10.0, E=0.3)
        cfg = FlowConfig(Q=0.08, E=0.3, Pe=10.0)
        ctrl = StepController(tol=1e-7, dt=1e-3)
        out, _ = advance_to(state, cfg, ctrl, t_end=0.2)
        zp = np.abs(out.ifaces[0].z_alpha())
        assert np.abs(zp - zp.mean()).max() / zp.mean() < 1e-3

    def test_rejected_steps_shrink_dt(self):
        state = make_state(n=96, rho0=1.0, Pe=10.0, E=0.5)
        cfg = FlowConfig(Q=0.3, E=0.5, Pe=10.0)
        ctrl = StepController(tol=1e-10, dt=5e-2)
        cand, info, _, _ = step(state, cfg, ctrl)
        assert not info.accepted
        assert ctrl.dt < 5e-2
        assert ctrl.retake_count == 1


def test_clean_reduces_to_midpoint():
    # with surfactants disabled the accepted state comes from the plain
    # midpoint update on z
    state = make_state(n=64)
    cfg = FlowConfig(Q=0.05)
    ctrl = StepController(tol=1e-5, dt=1e-3)
    cand, info, _, stage1 = step(state, cfg, ctrl)
    assert info.accepted
    # recompute the midpoint update by hand from the same stage data
    from drops2d.stepper import _stage_eval
    u1, dec1, g1, fE1, sol1 = stage1
    from dataclasses import replace
    from drops2d.spectral import krasny_filter
    half = CoupledState(
        ifaces=[replace(state.ifaces[0],
                        z=krasny_filter(state.ifaces[0].z + 0.5e-3 * g1[0]),
                        check=False)],
        fields=state.fields, t=0.5e-3)
    u2, dec2, g2, fE2, sol2 = _stage_eval(half, cfg, 1e-11, mu0=sol1.mu)
    z_manual = krasny_filter(state.ifaces[0].z + 1e-3 * g2[0])
    assert np.abs(z_manual - cand.ifaces[0].z).max() < 1e-14
