import numpy as np
import pytest

from drops2d.harness import PAIR_CLEAN_PHI0, _pair_center, build_state, preset
from drops2d.pair_oracle import (ConformalPairState, PairOracleError,
                                 bubble_area, evolve_pair, geometry,
                                 interface_velocity, kinematic_coefficients,
                                 mapping_rhs, min_gap, pair_from_circles,
                                 physical_frame, solve_b, solve_flow,
                                 step_first_order, surfactant_mass_pair,
                                 surfactant_rhs, surfactant_sigma)


def test_initial_circles_geometry():
    st = pair_from_circles(48, phi=0.35)
    z, zz, _, _ = geometry(st)
    c = (1 + 0.35) / (2 * np.sqrt(0.35))
    assert np.abs(np.abs(z - c) - 1.0).max() < 1e-12   # unit circle at +c
    assert abs(bubble_area(st) - np.pi) < 1e-12


def test_surfactant_center_matches_quoted_value():
    # phi(0) = 0.2875 corresponds to centers +-1.201 (paper's pairing)
    st = pair_from_circles(32, phi=0.2875)
    c = (1 + st.phi) / (2 * np.sqrt(st.phi))
    assert abs(c - 1.201) < 5e-4


class TestFlowSolve:
    def test_equilibrium(self):
        st = pair_from_circles(64, phi=0.35)
        fl = solve_flow(st, 0.0)
        assert fl.residual < 1e-12
        f_pos, phidot, zt, u = mapping_rhs(st, fl)
        assert np.abs(f_pos).max() < 1e-12
        assert abs(phidot) < 1e-12
        assert np.abs(u).max() < 1e-12

    def test_residual_small_with_flow(self):
        st = pair_from_circles(96, phi=0.35)
        fl = solve_flow(st, -0.5)
        assert fl.residual < 1e-9

    def test_rhs_is_real(self):
        st = pair_from_circles(64, phi=0.35)
        fl = solve_flow(st, -0.5)
        f_pos, phidot, _, _ = mapping_rhs(st, fl)
        assert np.abs(f_pos.imag).max() < 1e-12
        assert np.isreal(phidot)

    def test_isolated_bubble_limit(self):
        # widely separated pair behaves like isolated bubbles in extension:
        # u = Q conj(c) + 2 Q conj(z - c) + O(1/c)-interaction terms
        from scipy.optimize import brentq
        phiw = brentq(lambda p: (1 + p) / (2 * np.sqrt(p)) - 20.0, 1e-8, 0.9)
        st = pair_from_circles(48, phi=phiw)
        Qm = -0.5
        fl = solve_flow(st, Qm)
        u = interface_velocity(st, fl)
        z, _, _, _ = geometry(st)
        cw = 20.0
        u_iso = Qm * cw + Qm / cw + (2 * Qm - Qm / cw**2) * np.conj(z - cw)
        assert np.abs(u - u_iso).max() < 2e-4


class TestSolveB:
    def test_initial_consistency(self):
        st = pair_from_circles(48, phi=0.35)
        assert solve_b(st, st.b) == pytest.approx(st.b, abs=1e-12)

    def test_restores_area_after_perturbation(self):
        st = pair_from_circles(48, phi=0.35)
        st.a_pos[2] = 0.01          # perturb a_2
        b2 = solve_b(st, st.b)
        st2 = ConformalPairState(b=b2, phi=st.phi, a_pos=st.a_pos)
        assert abs(bubble_area(st2) - np.pi) < 1e-10


class TestSurfactant:
    def test_quiescent_uniform_rho(self):
        st = pair_from_circles(64, phi=0.35, rho0=1.0, E=0.5, Pe=10.0)
        sigma = surfactant_sigma(st)
        fl = solve_flow(st, 0.0, sigma)
        _, _, zt, u = mapping_rhs(st, fl, sigma)
        f_exp = surfactant_rhs(st, zt, u)
        assert np.abs(f_exp).max() < 1e-10
        assert np.abs(u).max() < 1e-11

    def test_mass_conserved_fixed_steps(self):
        st = pair_from_circles(64, phi=0.2875, rho0=1.0, E=0.5, Pe=10.0)
        m0 = surfactant_mass_pair(st)
        out = st
        dt = 1e-3
        for _ in range(20):
            out = step_first_order(out, -0.5, dt)
        m1 = surfactant_mass_pair(out)
        assert abs(m1 - m0) / m0 < 1e-5 * 20 * dt / 1e-3  # O(dt) drift


class TestEvolution:
    def test_stationary_at_zero_q(self):
        st = pair_from_circles(48, phi=0.35)
        out, _ = evolve_pair(st, Q_phys=0.0, t_end=1.0, dt=0.01,
                             scheme="fixed_first_order")
        assert abs(out.phi - st.phi) < 1e-8
        assert abs(out.b - st.b) < 1e-8
        assert np.abs(out.a_pos[1:]).max() < 1e-8

    def test_structure_preserved(self):
        st = pair_from_circles(64, phi=0.35)
        out, _ = evolve_pair(st, Q_phys=0.5, t_end=0.2,
                             scheme="adaptive_second_order", tol=1e-7)
        assert out.a_pos[0] == pytest.approx(out.b / (2 * np.sqrt(out.phi)),
                                             abs=1e-14)
        assert abs(bubble_area(out) - np.pi) < 1e-8
        assert np.isrealobj(out.a_pos)

    def test_first_order_convergence(self):
        st = pair_from_circles(48, phi=0.35)
        ref, _ = evolve_pair(st, Q_phys=0.5, t_end=0.1, dt=0.1 / 256,
                             scheme="fixed_first_order")
        errs = []
        for m in (8, 16):
            out, _ = evolve_pair(st, Q_phys=0.5, t_end=0.1, dt=0.1 / m,
                                 scheme="fixed_first_order")
            errs.append(abs(out.phi - ref.phi)
                        + np.abs(out.a_pos - ref.a_pos).max())
        order = np.log2(errs[0] / errs[1])
        assert order > 0.9

    def test_gap_closes_under_positive_q(self):
        st = pair_from_circles(64, phi=0.35)
        g0 = min_gap(st)
        out, _ = evolve_pair(st, Q_phys=0.5, t_end=0.2,
                             scheme="adaptive_second_order", tol=1e-7)
        assert min_gap(out) < g0


def test_physical_frame_orientation():
    st = pair_from_circles(48, phi=0.35)
    z, rho, aV = physical_frame(st)
    c = (1 + 0.35) / (2 * np.sqrt(0.35))
    # upper bubble on the positive imaginary axis, nu = 0 at its top
    assert abs(z[0] - 1j * (c + 1.0)) < 1e-12
    assert np.abs(np.abs(z - 1j * c) - 1).max() < 1e-12
    assert aV[0] == 0.0
    assert np.all(np.diff(aV) > 0)


def _solver_oracle_error(phi, n, nv):
    """Largest upper-drop velocity error of the solver against the oracle.

    The boundary-integral solver and the conformal-map oracle describe the
    same clean pair (Q = 0.5, unit circles at +-i c(phi)) at t = 0; the
    oracle works in a frame rotated by -90 degrees, so its velocity is
    rotated by i.  Returns the error and the solver's near-pair count.
    """
    from dataclasses import replace

    from drops2d.spectral import fourier_interp
    from drops2d.stokes import DirectKernels
    from drops2d.stokes import interface_velocity as solver_velocity

    cfg = preset("pair_clean", n=n)
    c = _pair_center(phi)
    cfg.drops = [replace(d, center=s * 1j * c)
                 for d, s in zip(cfg.drops, (1, -1))]
    state = build_state(cfg)
    u_list, _, disc = solver_velocity(state.ifaces,
                                      [np.ones(i.n) for i in state.ifaces],
                                      cfg.flow)
    st = pair_from_circles(nv, phi=phi)
    u_oracle = 1j * interface_velocity(st, solve_flow(st, -cfg.flow.Q))
    _, _, alphaV = physical_frame(st)
    u_upper = fourier_interp(u_list[0], alphaV)
    return np.abs(u_upper - u_oracle).max(), len(DirectKernels(disc).pairs)


# gaps 2 (c - 1): 0.28 at phi = 0.35, 0.066 at 0.6, 0.0028 at 0.9; at
# the smaller gaps the oracle needs nv >= 256 and is the weaker side
@pytest.mark.parametrize("phi, n, nv, tol, n_pairs", [
    (PAIR_CLEAN_PHI0, 192, 48, 1e-10, 28),
    (0.6, 256, 128, 1e-8, 96),
    (0.9, 256, 256, 1e-3, 124),
], ids=["phi0.35", "phi0.6", "phi0.9"])
def test_solver_velocity_matches_oracle_at_t0(phi, n, nv, tol, n_pairs):
    err, pairs = _solver_oracle_error(phi, n, nv)
    assert err < tol
    assert pairs == n_pairs


def test_close_pair_error_falls_under_refinement():
    # gap 0.0125
    e256, _ = _solver_oracle_error(0.8, 256, 256)
    e512, _ = _solver_oracle_error(0.8, 512, 256)
    assert e512 < e256


def test_cli_pair_oracle_defaults_to_pair_preset_q(tmp_path):
    from drops2d.cli import main

    main(["oracle", "pair", "--out-dir", str(tmp_path), "--nv", "16",
          "--t-end", "1e-3"])
    with open(tmp_path / "pair_oracle.csv") as fh:
        header = dict(item.strip("# \n").split(" = ")
                      for item in fh.readline().split(","))
    assert float(header["Q"]) == preset("pair_clean").flow.Q == 0.5
    assert float(header["t"]) == pytest.approx(1e-3)
