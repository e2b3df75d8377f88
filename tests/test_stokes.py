import numpy as np
import pytest

from drops2d.geometry import Interface, circle, normals, to_equal_arclength
from drops2d.spectral import uniform_alpha
from drops2d.stokes import (DirectKernels, FlowConfig, discretize,
                            evaluate_velocity_offgrid,
                            evaluate_velocity_on_interface, interface_velocity,
                            sigma_to_gl, solve_density)


def solve_setup(ifaces, cfg, sigma=None):
    disc = discretize(ifaces)
    kern = DirectKernels(disc)
    if sigma is None:
        sigma = [np.ones(i.n) for i in ifaces]
    sig_gl = sigma_to_gl(ifaces, sigma)
    sol = solve_density(ifaces, sig_gl, cfg, disc=disc, kernels=kern)
    return disc, kern, sol


class TestSolveDensity:
    def test_lambda_one_identity(self):
        c = circle(128, lam=1.0)
        cfg = FlowConfig()
        disc, kern, sol = solve_setup([c], cfg)
        sig_gl = sigma_to_gl([c], [np.ones(128)])
        expected = -sig_gl * 0.25 * disc.zp / np.abs(disc.zp)
        assert np.abs(sol.mu - expected).max() < 1e-13

    def test_lambda_one_operator_is_identity(self):
        # applying the assembled operator to random mu returns mu
        c = circle(64, lam=1.0)
        cfg = FlowConfig()
        disc = discretize([c])
        kern = DirectKernels(disc)
        rng = np.random.default_rng(0)
        mu = rng.standard_normal(disc.n) + 1j * rng.standard_normal(disc.n)
        beta = 0.0
        out = mu - (beta / np.pi) * (kern.apply_m1(mu) + kern.apply_m2_conj(mu))
        assert np.abs(out - mu).max() < 1e-14

    def test_equilibrium_circle_density(self):
        # the density itself carries a per-drop pressure gauge; the
        # physical content is the zero velocity (checked in TestVelocity)
        c = circle(128, lam=0.0)
        cfg = FlowConfig()
        disc, kern, sol = solve_setup([c], cfg)
        assert sol.residual < 1e-10
        assert np.isfinite(sol.mu).all()

    def test_solvability_independent_of_n(self):
        # the solve must stay uniformly well-posed under refinement
        a = uniform_alpha(256)
        z = (1 + 0.2 * np.cos(3 * a)) * np.exp(-1j * a)
        base = to_equal_arclength(Interface(z=z, check=False))
        cfg = FlowConfig(Q=0.05)
        for n in (128, 256):
            from drops2d.spectral import resample
            iface = Interface(z=resample(base.z, n), check=False)
            disc, kern, sol = solve_setup([iface], cfg)
            assert sol.residual < 1e-8


class TestVelocity:
    def test_equilibrium_circle_velocity(self):
        c = circle(128, lam=0.0)
        cfg = FlowConfig()
        disc, kern, sol = solve_setup([c], cfg)
        u = evaluate_velocity_on_interface(disc, sol, cfg, kernels=kern)
        n = -1j * disc.zp / np.abs(disc.zp)
        assert np.abs(np.real(u * np.conj(n))).max() < 1e-10
        assert np.abs(u).max() < 1e-10

    def test_far_field_only_extension(self):
        c = circle(64, lam=0.0)
        cfg = FlowConfig(Q=0.1)
        disc = discretize([c])
        sol_zero = type("S", (), {"mu": np.zeros(disc.n, dtype=complex)})()
        u = evaluate_velocity_offgrid(disc, sol_zero, cfg, [1.0 + 1.0j])
        assert abs(u[0] - (0.1 - 0.1j)) < 1e-14

    def test_far_field_only_shear(self):
        c = circle(64, lam=0.0)
        cfg = FlowConfig(Q=0.0, B=1.0, G=2.0)
        disc = discretize([c])
        sol_zero = type("S", (), {"mu": np.zeros(disc.n, dtype=complex)})()
        zt = 0.5 + 1.0j
        u = evaluate_velocity_offgrid(disc, sol_zero, cfg, [zt])
        # u = i conj(z) - i z = 2 y, purely real
        assert abs(u[0] - 2 * zt.imag) < 1e-14

    def test_single_bubble_extension_analytic(self):
        # exact instantaneous response: u = 2 Q conj(z) on the unit circle
        Q = 0.3
        c = circle(160, lam=0.0)
        cfg = FlowConfig(Q=Q)
        disc, kern, sol = solve_setup([c], cfg)
        u = evaluate_velocity_on_interface(disc, sol, cfg, kernels=kern)
        assert np.abs(u - 2 * Q * np.conj(disc.z)).max() < 1e-11

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0])
    def test_single_drop_extension_all_lambda(self, lam):
        # normal velocity 2 Q cos(2 theta)/(1 + lambda), outward
        Q = 0.3
        c = circle(160, lam=lam)
        cfg = FlowConfig(Q=Q)
        disc, kern, sol = solve_setup([c], cfg)
        u = evaluate_velocity_on_interface(disc, sol, cfg, kernels=kern)
        n_in = -1j * disc.zp / np.abs(disc.zp)
        un = np.real(u * np.conj(n_in))
        th = np.angle(disc.z)
        assert np.abs(un + 2 * Q * np.cos(2 * th) / (1 + lam)).max() < 1e-11

    def test_exterior_quiescent_ring(self):
        c = circle(128, lam=0.0)
        cfg = FlowConfig()
        disc, kern, sol = solve_setup([c], cfg)
        ring = 1.5 * np.exp(1j * uniform_alpha(32))
        u = evaluate_velocity_offgrid(disc, sol, cfg, ring)
        assert np.abs(u).max() < 1e-10

    def test_off_grid_far_disturbance_matches_analytic(self):
        Q = 0.3
        c = circle(160, lam=0.0)
        cfg = FlowConfig(Q=Q)
        disc, kern, sol = solve_setup([c], cfg)
        t0 = 5.0 + 3.0j
        u = evaluate_velocity_offgrid(disc, sol, cfg, [t0])[0]
        # Goursat pair of the solution: f = -Q/z, g' = Qz - Q/z^3
        u_exact = Q / t0 + t0 * np.conj(Q / t0**2) + np.conj(Q * t0 - Q / t0**3)
        assert abs(u - u_exact) < 1e-12

    def test_near_target_correction(self):
        # evaluation 1e-3 from the interface agrees with the analytic field
        Q = 0.2
        c = circle(160, lam=0.0)
        cfg = FlowConfig(Q=Q)
        disc, kern, sol = solve_setup([c], cfg)
        t0 = (1.0 + 1e-3) * np.exp(0.37j)
        u = evaluate_velocity_offgrid(disc, sol, cfg, [t0])[0]
        u_exact = Q / t0 + t0 * np.conj(Q / t0**2) + np.conj(Q * t0 - Q / t0**3)
        assert abs(u - u_exact) < 5e-11

    def test_node_target_rejected(self):
        c = circle(64, lam=0.0)
        cfg = FlowConfig()
        disc, kern, sol = solve_setup([c], cfg)
        with pytest.raises(ValueError):
            evaluate_velocity_offgrid(disc, sol, cfg, [disc.z[3]])


class TestSelfConvergence:
    def test_density_panel_convergence(self):
        a = uniform_alpha(192)
        z = (1 + 0.1 * np.cos(3 * a)) * np.exp(-1j * a)
        base = to_equal_arclength(Interface(z=z, check=False))
        cfg = FlowConfig(Q=0.05)
        from drops2d.spectral import resample

        mus = {}
        for n in (192, 384):
            iface = Interface(z=resample(base.z, n), check=False)
            disc, kern, sol = solve_setup([iface], cfg)
            mus[n] = (disc, sol)
        # density at coincident points: node 0 of each panel set differs,
        # so compare through off-grid velocities and through the density
        # interpolated back to a shared uniform grid
        from drops2d.spectral import panel_interp_to_uniform
        m1 = resample(panel_interp_to_uniform(mus[192][1].mu, 12, 192), 96)
        m2 = resample(panel_interp_to_uniform(mus[384][1].mu, 24, 384), 96)
        assert np.abs(m1 - m2).max() < 1e-10

    def test_interface_velocity_self_convergence(self):
        # band-limit the curve at the coarse grid so both resolutions see
        # the identical analytic interface
        a = uniform_alpha(192)
        z = (1 + 0.1 * np.cos(3 * a)) * np.exp(-1j * a)
        base = to_equal_arclength(Interface(z=z, check=False))
        cfg = FlowConfig(Q=0.05)
        from drops2d.spectral import resample

        us = {}
        for n in (192, 384):
            iface = Interface(z=resample(base.z, n), check=False)
            u_list, sol, disc = interface_velocity([iface],
                                                   [np.ones(n)], cfg)
            us[n] = resample(u_list[0], 64)
        assert np.abs(us[192] - us[384]).max() < 1e-10


def test_two_bubble_solve_basics():
    # symmetric pair: solution exists, flux-free per bubble, u odd
    c0 = 1.6
    n = 128
    i1 = circle(n, center=c0, lam=0.0, id=0)
    i2 = circle(n, center=-c0, lam=0.0, id=1)
    cfg = FlowConfig(Q=-0.1)
    disc, kern, sol = solve_setup([i1, i2], cfg)
    u = evaluate_velocity_on_interface(disc, sol, cfg, kernels=kern)
    n_in = -1j * disc.zp / np.abs(disc.zp)
    un = np.real(u * np.conj(n_in))
    m = disc.n // 2
    flux1 = np.sum(un[:m] * disc.w[:m] * np.abs(disc.zp[:m]))
    assert abs(flux1) < 1e-10
    # mirror symmetry z -> -z; bubble2's node alpha maps to alpha+pi on
    # bubble1 under the mirror
    assert np.abs(u[m:] + np.roll(u[:m], -m // 2)).max() < 1e-10
