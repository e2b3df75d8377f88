from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from drops2d import pair_oracle
from drops2d.harness import (PAIR_CLEAN_PHI0, PAIR_SURF_PHI0, _pair_center,
                             build_state, compare_to_oracle, preset,
                             run_scenario)
from drops2d.pair_oracle import (FLOW_RESIDUAL_TOL, ConformalPairState,
                                 PairFlowField, PairOracleError,
                                 _apply_update, _real_root,
                                 bubble_area, evolve_pair,
                                 interface_velocity, mapping_rhs, min_gap,
                                 pair_from_circles, physical_frame, solve_b,
                                 solve_flow, step_midpoint,
                                 surfactant_implicit_solve,
                                 surfactant_mass_pair, surfactant_rhs,
                                 surfactant_sigma, zhat_deriv_at)
from drops2d.spectral import spectral_derivative
from drops2d.stokes import FlowConfig


def test_initial_circles_geometry():
    st = pair_from_circles(48, phi=0.35)
    z, zz, _, _ = st.geometry
    c = (1 + 0.35) / (2 * np.sqrt(0.35))
    assert np.abs(np.abs(z - c) - 1.0).max() < 1e-12   # unit circle at +c
    assert abs(bubble_area(st) - np.pi) < 1e-12


def test_surfactant_center_matches_quoted_value():
    # phi(0) = 0.2875 corresponds to centers +-1.201 (paper's pairing)
    st = pair_from_circles(32, phi=0.2875)
    c = (1 + st.phi) / (2 * np.sqrt(st.phi))
    assert abs(c - 1.201) < 5e-4


def test_state_is_immutable():
    st = pair_from_circles(16, phi=0.35, rho0=1.0)
    for arr in (st.a_pos, st.rho, st.zeta, st.nu, *st.geometry, st.diffusion):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    with pytest.raises(FrozenInstanceError):
        st.b = 0.5
    # the map is evaluated once per state
    assert st.geometry is st.geometry


def _solve_flow_on_grid(state, Q):
    """solve_flow with every basis column collocated on the grid and
    transformed: the reference for the spectral column build.

    The powers zeta^p are grid points looked up by index; complex powers
    with exponents up to NV + 1 carry a rounding error that the close
    pairs' conditioning lifts to 2e-11 in the coefficients."""
    nv, m, phi = state.nv, state.n_grid, state.phi
    sq = np.sqrt(phi)
    zeta = state.zeta
    zinv = 1 / zeta

    def pw(p):
        return zeta[(p * np.arange(m)) % m]

    z, zz, zz_inv, _ = state.geometry
    sigma = surfactant_sigma(state)
    P0 = 1 / (zeta - sq) + 1 / (2 * sq)
    G0 = Q * state.b / (2 * sq)

    def fpair(h, hp_inv):
        base = z * hp_inv / zz_inv
        return h + base, 1j * h - 1j * base

    cols = []
    cre, cim = fpair(P0, -1 / (zinv - sq) ** 2)
    cols += [cre, cim]
    for k in range(1, nv + 1):
        h = pw(k) - phi**k * pw(-k)
        hp_inv = k * (pw(1 - k) + phi**k * pw(k + 1))
        cre, cim = fpair(h, hp_inv)
        cols += [cre, cim]
    for k in range(1, nv + 1):
        s_img = pw(-k) - phi**k * pw(k)
        cols += [s_img, -1j * s_img]
    cols += [-z, -1j * z, -np.ones(m), -1j * np.ones(m)]
    A = np.array(cols).T
    rhs_grid = 0.5 * sigma * zeta * zz / np.abs(zz) - Q * state.b / (zinv - sq) - G0

    spec = np.fft.fft(A, axis=0) / m
    R = np.fft.fft(rhs_grid) / m
    rows = np.arange(-nv, nv + 1)
    Mc = spec[rows % m, :]
    bc = R[rows % m]
    ncol = A.shape[1]
    Mreal = np.concatenate([Mc.real, Mc.imag], axis=0)
    breal = np.concatenate([bc.real, bc.imag])
    crow_re = np.zeros(ncol)
    crow_im = np.zeros(ncol)
    for k in range(1, nv + 1):
        wgt = 2 * k * phi ** ((k - 1) / 2.0)
        crow_re[2 + 2 * nv + 2 * (k - 1)] = wgt
        crow_im[2 + 2 * nv + 2 * (k - 1) + 1] = wgt
    closure = Q * zhat_deriv_at(state, sq)
    rot = np.zeros(ncol)
    rot[1] = 1.0
    Mfull = np.vstack([Mreal, crow_re, crow_im, rot])
    bfull = np.concatenate([breal, [closure, 0.0, 0.0]])
    x, *_ = np.linalg.lstsq(Mfull, bfull, rcond=None)
    residual = float(np.abs(Mfull @ x - bfull).max())
    assert residual <= FLOW_RESIDUAL_TOL
    return PairFlowField(cp=x[0] + 1j * x[1],
                         F=x[2:2 + 2 * nv:2] + 1j * x[3:3 + 2 * nv:2],
                         qz=x[-4] + 1j * x[-3], K=x[-2] + 1j * x[-1],
                         residual=residual)


@pytest.mark.parametrize("nv", [32, 64, 128])
@pytest.mark.parametrize("phi", [0.35, 0.6, 0.8, 0.9])
def test_spectral_columns_match_grid_columns(nv, phi):
    # a perturbed map carrying nonuniform surfactant
    rng = np.random.default_rng(nv)
    st = pair_from_circles(nv, phi=phi, rho0=1.0)
    a_pos = np.zeros(nv + 1)
    a_pos[1:] = (1e-3 * phi ** (np.arange(1, nv + 1) / 2)
                 * rng.standard_normal(nv))
    st = replace(st, a_pos=a_pos, rho=1 + 0.1 * np.cos(st.nu))
    st = replace(st, b=solve_b(st, st.b))
    fl, ref = solve_flow(st, -0.5), _solve_flow_on_grid(st, -0.5)
    coef = np.concatenate([[fl.cp, fl.qz, fl.K], fl.F])
    coef_ref = np.concatenate([[ref.cp, ref.qz, ref.K], ref.F])
    assert np.abs(coef - coef_ref).max() <= 1e-11 * np.abs(coef_ref).max()
    u_ref = interface_velocity(st, ref)
    assert (np.abs(interface_velocity(st, fl) - u_ref).max()
            <= 1e-11 * np.abs(u_ref).max())


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
        z, _, _, _ = st.geometry
        cw = 20.0
        u_iso = Qm * cw + Qm / cw + (2 * Qm - Qm / cw**2) * np.conj(z - cw)
        assert np.abs(u - u_iso).max() < 2e-4


class TestSolveB:
    def test_initial_consistency(self):
        st = pair_from_circles(48, phi=0.35)
        assert solve_b(st, st.b) == pytest.approx(st.b, abs=1e-12)

    def test_restores_area_after_perturbation(self):
        st = pair_from_circles(48, phi=0.35)
        a_pos = st.a_pos.copy()
        a_pos[2] = 0.01             # perturb a_2
        st = replace(st, a_pos=a_pos)
        st2 = replace(st, b=solve_b(st, st.b))
        assert abs(bubble_area(st2) - np.pi) < 1e-10

    def test_root_tolerance_scales_with_the_root(self):
        # scaling the map coefficients by s scales the area root by s; at
        # s = 1e14 rounding leaves the root an imaginary part above 1e-8,
        # which a tolerance without the scale of the root rejects
        st = pair_from_circles(32, phi=0.35)
        rng = np.random.default_rng(0)
        a = np.zeros(33)
        a[1:] = (1e-3 * 0.35 ** (np.arange(1, 33) / 2)
                 * rng.standard_normal(32))
        b = [solve_b(replace(st, a_pos=s * a), st.b) / s
             for s in (1e10, 1e14)]
        assert b[1] == pytest.approx(b[0], rel=1e-12)

    def test_no_real_root_carries_both_roots(self):
        with pytest.raises(PairOracleError) as err:
            _real_root(1 + 0j, 0j, 1 + 0j, 0.0)
        assert err.value.roots == (1j, -1j)


class TestSurfactant:
    def test_quiescent_uniform_rho(self):
        st = pair_from_circles(64, phi=0.35, rho0=1.0, E=0.5, Pe=10.0)
        assert np.array_equal(surfactant_sigma(st), np.full(st.n_grid, 0.5))
        _, _, zt, u = mapping_rhs(st, solve_flow(st, 0.0))
        f_exp = surfactant_rhs(st, zt, u)
        assert np.abs(f_exp).max() < 1e-10
        assert np.abs(u).max() < 1e-11

    def test_mass_conserved_fixed_steps(self):
        st = pair_from_circles(64, phi=0.2875, rho0=1.0, E=0.5, Pe=10.0)
        m0 = surfactant_mass_pair(st)
        out = st
        dt = 1e-3
        for _ in range(20):
            out, _ = step_midpoint(out, -0.5, dt)
        m1 = surfactant_mass_pair(out)
        assert abs(m1 - m0) / m0 < 1e-8

    def test_stiff_diffusion_solve(self):
        # nv = 192 (the CLI default), Pe = 1, half step 2.5e-3: a stiff
        # system, c |L|_inf = 8.3e3
        st = pair_from_circles(192, phi=0.35, rho0=1.0, E=0.5, Pe=1.0)
        rhs = st.rho + 0.01 * np.cos(3 * st.nu)
        rho = surfactant_implicit_solve(st, rhs, 2.5e-3)
        resid = rho - 2.5e-3 * diffusion_by_fft(st, rho) - rhs
        assert np.abs(resid).max() <= 1e-12 * np.linalg.norm(rhs)

    def test_small_pe_diffusion_solve(self):
        # Pe = 0.1, c |L|_inf = 8.3e4.  The residual of a direct solve
        # scales with c |L|: it measured 0.093 eps c |L|_inf |rhs|_2
        # (1.7e-12 |rhs|_2)
        st = pair_from_circles(192, phi=0.35, rho0=1.0, E=0.5, Pe=0.1)
        rhs = st.rho + 0.01 * np.cos(3 * st.nu)
        c = 2.5e-3
        rho = surfactant_implicit_solve(st, rhs, c)
        resid = rho - c * diffusion_by_fft(st, rho) - rhs
        c_norm = c * np.linalg.norm(st.diffusion, np.inf)
        assert np.abs(resid).max() <= (0.5 * np.finfo(float).eps * c_norm
                                       * np.linalg.norm(rhs))


def diffusion_by_fft(st, r):
    """L r = (1/(|z_nu| Pe)) d_nu(r_nu/|z_nu|) by two FFT derivatives: a
    reference for the matrix st.diffusion."""
    _, zz, _, _ = st.geometry
    sp = np.abs(1j * st.zeta * zz)
    return spectral_derivative(spectral_derivative(r) / sp) / (sp * st.Pe)


@pytest.mark.parametrize("Pe", [np.nan, 0.0, -1.0])
def test_state_rejects_pe_as_flow_config_does(Pe):
    with pytest.raises(ValueError) as want:
        FlowConfig(Pe=Pe)
    with pytest.raises(ValueError) as got:
        pair_from_circles(16, phi=0.35, rho0=1.0, Pe=Pe)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("E", [np.nan, np.inf, -np.inf])
def test_state_rejects_e_as_flow_config_does(E):
    # E nan once failed later, as "phi left (0,1): nan"
    with pytest.raises(ValueError) as want:
        FlowConfig(E=E)
    with pytest.raises(ValueError) as got:
        pair_from_circles(16, phi=0.35, rho0=1.0, E=E)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("nv", [0, -1])
def test_pair_from_circles_refuses_nv_below_one(nv):
    # nv 0 ran on a 1-point grid; nv -1 failed building an array
    with pytest.raises(ValueError, match=f"nv must be at least 1, not {nv}"):
        pair_from_circles(nv, phi=0.35)


def test_state_refuses_nv_below_one():
    with pytest.raises(ValueError, match="nv must be at least 1, not 0"):
        ConformalPairState(b=0.65, phi=0.35, a_pos=np.zeros(1),
                           rho=np.zeros(1))


def test_state_refuses_rho_off_its_grid():
    st = pair_from_circles(16, phi=0.35, rho0=1.0)
    with pytest.raises(ValueError, match="rho must live on the 2\\*MV\\+1"):
        replace(st, rho=st.rho[:-1])


@pytest.mark.parametrize("rho0", [-1.0, np.nan])
def test_pair_from_circles_refuses_negative_rho0(rho0):
    # -1 failed mid-run with PairOracleError
    with pytest.raises(ValueError, match="rho0 must be non-negative"):
        pair_from_circles(16, phi=0.35, rho0=rho0)


def test_flow_solve_refuses_a_residual_above_its_tolerance(monkeypatch):
    monkeypatch.setattr(pair_oracle, "FLOW_RESIDUAL_TOL", 0.0)
    with pytest.raises(PairOracleError, match=r"^flow solve residual "
                       r"\S+ exceeds 0e\+00 \(NV=16, phi=0\.3500\)$"):
        solve_flow(pair_from_circles(16, phi=0.35), 0.5)


def test_sigma_refuses_negative_concentration():
    st = pair_from_circles(16, phi=0.35, rho0=1.0)
    st = replace(st, rho=np.full_like(st.rho, -1e-9))
    with pytest.raises(PairOracleError,
                       match="^negative surfactant concentration$"):
        surfactant_sigma(st)


def test_update_refuses_phi_leaving_the_unit_interval():
    st = pair_from_circles(16, phi=0.35)
    with pytest.raises(PairOracleError, match=r"^phi left \(0,1\): 1\.1"):
        _apply_update(st, np.zeros(st.nv), 0.75)


@pytest.fixture(scope="module")
def pair_march():
    """The phi = 0.35 pair and the state it reaches at t = 0.2 under
    Q = 0.5 (355 accepted steps), marched once for the tests that read it."""
    st = pair_from_circles(64, phi=0.35)
    return st, evolve_pair(st, Q_phys=0.5, t_end=0.2, tol=1e-7)[0]


class TestEvolution:
    def test_clean_pair_keeps_rho_zero(self, pair_march):
        # a clean pair is the rho = 0 case: sigma is exactly 1 and every
        # step keeps rho exactly 0, which physical_frame hands on
        st, out = pair_march
        assert np.array_equal(surfactant_sigma(st), np.ones(st.n_grid))
        assert out.rho.shape == (out.n_grid,) and not np.any(out.rho)
        assert np.array_equal(physical_frame(out)[1], out.rho)

    def test_stationary_at_zero_q(self):
        st = pair_from_circles(48, phi=0.35)
        out, _ = evolve_pair(st, Q_phys=0.0, t_end=1.0)
        assert abs(out.phi - st.phi) < 1e-8
        assert abs(out.b - st.b) < 1e-8
        assert np.abs(out.a_pos[1:]).max() < 1e-8

    def test_structure_preserved(self, pair_march):
        _, out = pair_march
        assert out.a_pos[0] == pytest.approx(out.b / (2 * np.sqrt(out.phi)),
                                             abs=1e-14)
        assert abs(bubble_area(out) - np.pi) < 1e-8
        assert np.isrealobj(out.a_pos)

    def test_midpoint_convergence(self):
        def march(m):
            out = pair_from_circles(48, phi=0.35)
            for _ in range(m):
                out, _ = step_midpoint(out, -0.5, 0.1 / m)
            return out
        ref = march(128)
        errs = []
        for m in (8, 16):
            out = march(m)
            errs.append(abs(out.phi - ref.phi)
                        + np.abs(out.a_pos - ref.a_pos).max())
        order = np.log2(errs[0] / errs[1])
        assert order > 1.9

    def test_gap_closes_under_positive_q(self, pair_march):
        st, out = pair_march
        assert min_gap(out) < min_gap(st)


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


def test_solver_evolution_matches_oracle():
    # pair_surfactant at 2x192 and the oracle at nv = 48 after a short
    # run; the gates are those of the benchmark's pair_n192 workload
    from dataclasses import replace

    cfg = preset("pair_surfactant", n=192)
    cfg = replace(cfg, run=replace(cfg.run, t_end=0.02))
    final = run_scenario(cfg).final_state
    start = pair_from_circles(48, phi=PAIR_SURF_PHI0, rho0=cfg.drops[0].rho0,
                              E=cfg.flow.E, Pe=cfg.flow.Pe)
    out, _ = evolve_pair(start, Q_phys=cfg.flow.Q, t_end=cfg.run.t_end)
    z, rho, alphaV = physical_frame(out)
    # drop 0 is the upper one, the oracle's bubble
    cmp = compare_to_oracle(final, {"alphaV": alphaV, "z": z, "rho": rho})
    assert cmp["e_z_max"] < 1e-7
    assert cmp["e_rho_max"] < 1e-6


def test_cli_pair_oracle_defaults_to_pair_preset_q(tmp_path):
    from drops2d.cli import main

    main(["oracle", "pair", "--out-dir", str(tmp_path), "--nv", "16",
          "--t-end", "1e-3"])
    with open(tmp_path / "pair_oracle.csv") as fh:
        header = dict(item.strip("# \n").split(" = ")
                      for item in fh.readline().split(","))
        assert fh.readline() == "nu,alphaV,x,y,rho\n"
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    assert float(header["Q"]) == preset("pair_clean").flow.Q == 0.5
    assert float(header["t"]) == pytest.approx(1e-3)
    # the default --rho0 0 is a clean pair: a zero rho column
    assert rows.shape == (4 * 16 + 1, 5) and not np.any(rows[:, 4])
