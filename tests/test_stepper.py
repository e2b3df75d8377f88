import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drops2d import stepper
from drops2d.geometry import Interface, circle, to_equal_arclength
from drops2d.spectral import uniform_alpha
from drops2d.stepper import (CoupledState, NegativeConcentrationError,
                             NonPositiveTensionError, SpacingDriftError,
                             StepController, advance_to, local_errors, step)
from drops2d.stokes import FlowConfig
from drops2d.surfactant import SurfactantField


def make_state(n=64, rho0=None, flow=FlowConfig()):
    rho = np.zeros(n) if rho0 is None else rho0 * np.ones(n)
    return CoupledState(ifaces=[circle(n)],
                        fields=[SurfactantField(rho, flow)])


class TestController:
    @pytest.mark.parametrize("name", ["dt", "dt_min", "dt_max"])
    @pytest.mark.parametrize("value", [0.0, -1e-3, np.nan, np.inf])
    def test_refuses_bad_step(self, name, value):
        steps = {"dt": 1e-3, "dt_min": 1e-12, "dt_max": 0.1, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite and "
                                             f"positive, not {value}"):
            StepController(tol=1e-6, **steps)

    def test_refuses_dt_min_above_dt_max(self):
        with pytest.raises(ValueError, match="dt_min 0.2 exceeds dt_max 0.1"):
            StepController(dt_min=0.2, dt_max=0.1)

    def test_exact_tolerance_shrink(self):
        ctrl = StepController(tol=1e-6, dt=0.01)
        new = ctrl.update(1e-6, 0.0)
        assert abs(new / 0.01 - np.sqrt(0.9)) < 1e-12

    def test_large_error_strong_shrink(self):
        ctrl = StepController(tol=1e-6, dt=0.01)
        new = ctrl.update(1e-4, 0.0)
        assert abs(new / 0.01 - np.sqrt(0.9 / 100)) < 1e-12

    def test_growth_capped(self):
        ctrl = StepController(tol=1e-6, dt=0.01, dt_max=1.0)
        assert ctrl.update(1e-12, 0.0) == pytest.approx(0.02)

    @pytest.mark.parametrize("ctrl", [
        StepController(tol=1e-6, dt=0.01),
        StepController(tol=np.inf, dt=0.01, dt_min=0.01, dt_max=0.01)])
    def test_non_finite_error_raises(self, ctrl):
        # nan compares false with both tol and dt_min, so without this
        # check a step would be neither accepted nor refused
        with pytest.raises(RuntimeError, match=r"t=0\.25 .*dt=1\.000e-02.*r=nan"):
            ctrl.update(np.nan, 0.25)


    def test_clip_restored_only_after_acceptance(self):
        ctrl = StepController(tol=1e-6, dt=0.01, dt_max=1.0)
        assert ctrl.clip(0.004) == 0.004
        assert not ctrl.judge(1e-4, 0.0)      # rejected: shrink the clipped dt
        assert ctrl.dt == pytest.approx(0.004 * np.sqrt(0.9 / 100))
        assert ctrl.retake_count == 1
        assert ctrl.clip(0.004) == ctrl.dt    # no longer clipped
        assert ctrl.judge(1e-6, 0.0)
        ctrl.dt = 0.01
        ctrl.clip(0.004)
        assert ctrl.judge(1e-6, 0.0)          # accepted: the unclipped dt
        assert ctrl.dt == 0.01

    def test_underflow_raises(self):
        ctrl = StepController(tol=1e-6, dt=1e-12)
        with pytest.raises(RuntimeError, match="underflow"):
            ctrl.judge(1.0, 0.5)


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
        cand, info = step(state, cfg, ctrl)
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
        cfg = FlowConfig(Q=0.05, E=0.2, Pe=10.0)
        state = make_state(n=96, rho0=1.0, flow=cfg)
        ctrl = StepController(tol=1e-7, dt=1e-3)
        area0 = state.areas()[0]
        mass0 = state.masses()[0]
        out, _ = advance_to(state, cfg, ctrl, t_end=0.2)
        assert abs(out.t - 0.2) < 1e-12
        assert abs(out.areas()[0] - area0) / area0 < 5e-7
        assert abs(out.masses()[0] - mass0) / mass0 < 5e-7

    def test_spacing_stays_equidistant(self):
        cfg = FlowConfig(Q=0.08, E=0.3, Pe=10.0)
        state = make_state(n=96, rho0=1.0, flow=cfg)
        ctrl = StepController(tol=1e-7, dt=1e-3)
        out, _ = advance_to(state, cfg, ctrl, t_end=0.2)
        zp = np.abs(out.ifaces[0].z_alpha())
        assert np.abs(zp - zp.mean()).max() / zp.mean() < 1e-3

    def test_rejected_steps_shrink_dt(self):
        cfg = FlowConfig(Q=0.3, E=0.5, Pe=10.0)
        state = make_state(n=96, rho0=1.0, flow=cfg)
        ctrl = StepController(tol=1e-10, dt=5e-2)
        cand, info = step(state, cfg, ctrl)
        assert not info.accepted
        assert ctrl.dt < 5e-2
        assert ctrl.retake_count == 1

    def test_rejected_clipped_step_is_retaken_smaller(self):
        # the first attempt is clipped to land on t_end and rejected; the
        # retake must use the shrunk step, not the same clipped one again
        cfg = FlowConfig(Q=0.3, E=0.5, Pe=10.0)
        state = make_state(n=96, rho0=1.0, flow=cfg)
        ctrl = StepController(tol=1e-10, dt=0.1, dt_max=0.1)
        out, _ = advance_to(state, cfg, ctrl, t_end=5e-4)
        assert out.t == 5e-4
        assert ctrl.retake_count >= 1


def test_clean_reduces_to_midpoint():
    # with surfactants disabled the accepted state comes from the plain
    # midpoint update on z
    state = make_state(n=64)
    cfg = FlowConfig(Q=0.05)
    ctrl = StepController(tol=1e-5, dt=1e-3)
    cand, info = step(state, cfg, ctrl)
    assert info.accepted
    # recompute the midpoint update by hand from the same stage data
    from drops2d.stepper import _stage_eval
    _, g1, _, _ = _stage_eval(state, cfg, 1e-11)
    from dataclasses import replace
    from drops2d.spectral import krasny_filter
    half = CoupledState(
        ifaces=[replace(state.ifaces[0],
                        z=krasny_filter(state.ifaces[0].z + 0.5e-3 * g1[0]))],
        fields=state.fields, t=0.5e-3)
    dec2, g2, fE2, sol2 = _stage_eval(half, cfg, 1e-11)
    z_manual = krasny_filter(state.ifaces[0].z + 1e-3 * g2[0])
    assert np.abs(z_manual - cand.ifaces[0].z).max() < 1e-14


def test_negative_concentration_raises_with_state(monkeypatch):
    # a diffusion term that drives drop 1 below zero at the full stage
    # must stop the step, not be clipped away
    drops = [circle(32, radius=0.5, center=c) for c in (-1.0, 1.0)]
    fields = [SurfactantField(rho=r * np.ones(32), flow=FlowConfig(Pe=10.0))
              for r in (1.0, 0.5)]
    state = CoupledState(ifaces=drops, fields=fields, t=0.25)

    def fake_apply(f, s_alpha):
        return -1e3 * np.ones(f.n) if f.rho.mean() < 0.75 else np.zeros(f.n)

    monkeypatch.setattr(stepper, "rhs_implicit_apply", fake_apply)
    ctrl = StepController(tol=1e-6, dt=1e-3)
    with pytest.raises(NegativeConcentrationError) as err:
        step(state, FlowConfig(Pe=10.0), ctrl)
    assert err.value.drop == 1
    assert err.value.t == pytest.approx(0.251)
    assert err.value.rho_min == pytest.approx(0.5 - 1.0, abs=1e-6)


@pytest.mark.parametrize("dt, t", [(0.05, 0.275), (0.02, 0.27)],
                         ids=["half_step", "candidate"])
def test_step_names_drop_whose_tension_drops_to_zero(dt, t):
    # drop 1 starts at sigma = 1 - 0.5 * 1.98 = 0.01, and the extensional
    # flow sweeps its surfactant to the poles: a step of 0.05 takes rho
    # past 2 at the half step, one of 0.02 only in the candidate.  A plain
    # ValueError without t, drop or value used to come out of
    # surface_tension, and a candidate with sigma < 0 was accepted.
    flow = FlowConfig(Q=0.5)
    state = CoupledState(
        ifaces=[circle(32, center=-3.0), circle(32, center=3.0)],
        fields=[SurfactantField(np.zeros(32), flow),
                SurfactantField(np.full(32, 1.98), flow)], t=0.25)
    with pytest.raises(NonPositiveTensionError) as err:
        step(state, flow, StepController(tol=np.inf, dt=dt, dt_min=dt,
                                         dt_max=dt))
    assert isinstance(err.value, ValueError)
    assert err.value.drop == 1 and err.value.t == pytest.approx(t)
    assert -0.03 < err.value.sigma_min <= 0
    assert str(err.value).startswith("drop 1: surface tension -")


def test_step_rejects_nodes_off_equal_arclength():
    # drop 1, an ellipse of aspect ratio 1.26 sampled at equal steps of t
    # in a cos t - i b sin t, has spacing drift 0.118; to_equal_arclength
    # brings it to 3e-11
    t = uniform_alpha(64)
    raw = Interface(z=2.0 + 0.63 * np.cos(t) - 0.5j * np.sin(t))
    drops = [circle(64, radius=0.5, center=-1.0), raw]
    fields = [SurfactantField(rho=np.ones(64), flow=FlowConfig(Pe=10.0))
              for _ in drops]
    state = CoupledState(ifaces=drops, fields=fields, t=0.25)
    with pytest.raises(SpacingDriftError) as err:
        step(state, FlowConfig(Pe=10.0), StepController(dt=1e-3))
    assert err.value.drop == 1 and err.value.t == 0.25
    assert err.value.drift == pytest.approx(0.118, abs=1e-3)
    state.ifaces[1] = to_equal_arclength(raw)
    _, info = step(state, FlowConfig(Pe=10.0), StepController(dt=1e-3))
    assert info.accepted


@settings(max_examples=15, deadline=None)
@given(b=st.floats(0.5, 1.0), aspect=st.floats(1.2, 1.6),
       turn=st.floats(0, 2 * np.pi), Q=st.floats(0.05, 0.2),
       Pe=st.sampled_from([10.0, np.inf]),
       amps=st.lists(st.floats(-0.15, 0.15), min_size=3, max_size=3),
       shifts=st.lists(st.floats(0, 2 * np.pi), min_size=3, max_size=3))
@example(b=0.6875, aspect=1.53125, turn=4.78125, Q=0.1875, Pe=10.0,
         amps=[0.0, 0.0, 0.0], shifts=[0.0, 0.0, 0.0])
def test_one_step_conserves_mass_to_third_order(b, aspect, turn, Q, Pe, amps,
                                                shifts):
    # An ellipse sampled at equal steps of t in a cos t - i b sin t, then
    # put on equal-arclength nodes as every run's drops are, carrying a
    # smooth rho.  One fixed-dt step changes the mass by the step's local
    # error, O(dt^3).  Over 480 seeded draws at N 64 the relative change
    # at dt 1e-2 was at most 9.7e-8.  Below 1e-9 the dt^3 term may cancel
    # (ratios down to 5.3), and at dt 1e-2 the dt^4 term can reach 13% of
    # it: the pinned example's change 2.05e-9 falls 8.51-fold to dt 5e-3,
    # then 8.26-fold to 2.5e-3.  So the order is read from dt/2 to dt/4,
    # with the cut scaled to the same dt^3 term (1e-9/8 at dt/2); over 240
    # seeded draws those ratios lay within 7.92 - 8.22.
    t = uniform_alpha(64)
    z = np.exp(1j * turn) * (aspect * b * np.cos(t) - 1j * b * np.sin(t))
    iface = to_equal_arclength(Interface(z=z))
    rho = 1 + sum(a * np.cos(k * t + s)
                  for k, (a, s) in enumerate(zip(amps, shifts), 1))
    cfg = FlowConfig(Q=Q, E=0.5, Pe=Pe)
    state = CoupledState(ifaces=[iface],
                         fields=[SurfactantField(rho=rho, flow=cfg)])
    m0 = state.masses()[0]
    change = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        ctrl = StepController(tol=np.inf, dt=dt, dt_min=dt, dt_max=dt)
        cand, _ = step(state, cfg, ctrl)
        change.append((cand.masses()[0] - m0) / m0)
    assert abs(change[0]) <= 2e-7
    if abs(change[1]) > 1e-9 / 8:
        assert 7.5 <= change[1] / change[2] <= 8.5


@settings(max_examples=15, deadline=None)
@given(b=st.floats(0.5, 1.0), aspect=st.floats(1.2, 1.6),
       turn=st.floats(0, 2 * np.pi), Q=st.floats(0.05, 0.2))
@example(b=0.640625, aspect=1.5625, turn=4.0625, Q=0.1953125)
def test_one_step_conserves_area_to_third_order(b, aspect, turn, Q):
    # The clean-drop (rho = 0) twin of the mass test above: one fixed-dt
    # step changes the area by the step's local error, O(dt^3).  At N 64
    # the Stokes discretization leaks area at first order in dt (up to
    # 3.2e-8 per unit time on these shapes), which masks the dt^3 term, so
    # the drop has N 128 (dt = 1e-2 below).  Over 800 seeded draws, 32 of
    # them corners of b, aspect and Q, the relative change at dt was at
    # most 1.7e-7.  The dt^4 term still shows at dt/2: the pinned
    # example's change falls 9.15-fold from dt to dt/2, 8.64-fold to dt/4
    # and 8.42-fold to dt/8.  So the order is read from dt/4 to dt/8, with
    # the cut scaled to the dt^3 term of the old cut of 5e-10 at dt/2.
    # Above it the ratios lay within 7.72 - 8.42 over those draws, and
    # within 7.74 - 8.35 over 1200 more near the orientations where the
    # dt^3 term partly cancels (turn near 0.8 and 4.0, aspect 1.45 - 1.6,
    # Q 0.12 - 0.2); there changes at dt/4 up to 4.7e-11 had ratios
    # outside 7.5 - 8.5.
    t = uniform_alpha(128)
    z = np.exp(1j * turn) * (aspect * b * np.cos(t) - 1j * b * np.sin(t))
    state = CoupledState(ifaces=[to_equal_arclength(Interface(z=z))],
                         fields=[SurfactantField(rho=np.zeros(128))])
    cfg = FlowConfig(Q=Q)
    a0 = state.areas()[0]
    change = []
    for dt in (1e-2, 2.5e-3, 1.25e-3):
        ctrl = StepController(tol=np.inf, dt=dt, dt_min=dt, dt_max=dt)
        cand, _ = step(state, cfg, ctrl)
        change.append((cand.areas()[0] - a0) / a0)
    assert abs(change[0]) <= 2.5e-7
    if abs(change[1]) > 5e-10 / 8:
        assert 7.5 <= change[1] / change[2] <= 8.5


@pytest.mark.parametrize("eos", ["linear", "langmuir"])
def test_fixed_dt_second_order_through_run_scenario(eos):
    # one surfactant ellipse to t = 0.1 at dt = 0.1/8 ... 0.1/64 against
    # dt = 0.1/256; measured orders 2.01-2.07 in z and in rho for both
    # equations of state
    from drops2d.harness import (DropSpec, RunSpec, ScenarioConfig,
                                 run_scenario)

    def final(k):
        cfg = ScenarioConfig(
            name="order", flow=FlowConfig(Q=0.1, E=0.5, Pe=10.0, eos=eos),
            drops=[DropSpec(shape="ellipse", axes=(1.2, 1 / 1.2), rho0=0.5,
                            n=64)],
            run=RunSpec(t_end=0.1, fixed_dt=0.1 / k, output_every=0))
        state = run_scenario(cfg).final_state
        assert state.t == pytest.approx(0.1, abs=1e-14)
        return state.ifaces[0].z, state.fields[0].rho

    z_ref, rho_ref = final(256)
    errs = np.array([[np.abs(z - z_ref).max(), np.abs(rho - rho_ref).max()]
                     for z, rho in map(final, (8, 16, 32, 64))])
    order = np.log2(errs[:-1] / errs[1:])
    assert np.all(order > 1.9), order


def test_adaptive_error_follows_tol_through_run_scenario():
    # one surfactant ellipse to t = 1 at tol 1e-4, 1e-5 and 1e-6 (19, 44
    # and 128 accepted steps) against a tol-1e-7 run (398 steps).  Against
    # that reference the error per tol measured 0.161-0.171 in z and
    # 0.364-0.379 in rho; against a tol-1e-8 run (1,255 steps) 0.163-0.177
    # and 0.373-0.400, so the reference's own error moves the ratio at tol
    # 1e-6 by under 10%.  The band is 0.75x the smallest to 1.4x the
    # largest ratio measured.
    from drops2d.harness import (DropSpec, RunSpec, ScenarioConfig,
                                 run_scenario)

    def final(tol):
        cfg = ScenarioConfig(
            name="tol", flow=FlowConfig(Q=0.1, E=0.5, Pe=10.0),
            drops=[DropSpec(shape="ellipse", axes=(1.2, 1 / 1.2), rho0=0.5,
                            n=64)],
            run=RunSpec(t_end=1.0, tol=tol, output_every=0))
        state = run_scenario(cfg).final_state
        assert state.t == pytest.approx(1.0, abs=1e-14)
        return state.ifaces[0].z, state.fields[0].rho

    z_ref, rho_ref = final(1e-7)
    for tol in (1e-4, 1e-5, 1e-6):
        z, rho = final(tol)
        assert 0.12 <= np.abs(z - z_ref).max() / tol <= 0.24, tol
        assert 0.27 <= np.abs(rho - rho_ref).max() / tol <= 0.53, tol


@pytest.mark.parametrize("lam", [1.0, 4.0])
def test_viscous_ellipse_relaxes_at_linear_rate(lam):
    # a clean ellipse with axes (1.001, 1/1.001) at rest relaxes as
    # D(t) = D(0) exp(-t/(1 + lam)) at linear order.  To t = 1 at tol 1e-9
    # (332 and 144 accepted steps, about 1 s and 0.4 s) the largest
    # relative deviation over the snapshots measured 9.0e-7 at lam 1 and
    # 4.4e-7 at lam 4; the bound is twice the larger
    from drops2d.geometry import deformation_number
    from drops2d.harness import (DropSpec, RunSpec, ScenarioConfig,
                                 run_scenario)

    cfg = ScenarioConfig(
        name="relax", flow=FlowConfig(),
        drops=[DropSpec(shape="ellipse", axes=(1.001, 1 / 1.001), lam=lam,
                        n=64)],
        run=RunSpec(t_end=1.0, tol=1e-9, output_every=20))
    snaps = run_scenario(cfg).snapshots
    t = np.array([s["t"] for s in snaps])
    D = np.array([deformation_number(Interface(s["drops"][0]["x"]
                                               + 1j * s["drops"][0]["y"]))
                  for s in snaps])
    assert t[-1] == pytest.approx(1.0, abs=1e-14) and len(t) > 5
    assert np.abs(D / D[0] * np.exp(t / (1 + lam)) - 1).max() <= 2e-6
