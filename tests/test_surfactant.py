import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drops2d.geometry import Interface, VelocityDecomposition, circle, curvature
from drops2d.spectral import (krasny_filter, resample, spectral_derivative,
                              uniform_alpha)
from drops2d.stokes import FlowConfig
from drops2d.surfactant import (SurfactantField, rhs_explicit,
                                rhs_implicit_solve, surface_tension,
                                surfactant_mass, with_rho)


def decomp(u_n, u_t, u_t_mod):
    return VelocityDecomposition(u_n=u_n, u_t=u_t, u_t_mod=u_t_mod)


class TestSurfaceTension:
    def test_clean_interface(self):
        for eos in ("linear", "langmuir"):
            f = SurfactantField(rho=np.zeros(64), flow=FlowConfig(eos=eos))
            assert np.abs(surface_tension(f) - 1.0).max() < 1e-15

    def test_linear_formula(self):
        f = SurfactantField(rho=np.ones(64), flow=FlowConfig(eos="linear"))
        assert np.abs(surface_tension(f) - 0.5).max() < 1e-15

    def test_langmuir_formula(self):
        f = SurfactantField(rho=0.5 * np.ones(64),
                            flow=FlowConfig(eos="langmuir"))
        want = 1 + 0.5 * np.log(0.5)
        assert np.abs(surface_tension(f) - want).max() < 1e-15

    def test_langmuir_requires_subunit_rho(self):
        with pytest.raises(ValueError):
            SurfactantField(rho=np.ones(64), flow=FlowConfig(eos="langmuir"))

    def test_field_refuses_negative_rho(self):
        rho = np.ones(64)
        rho[5] = -1e-3
        with pytest.raises(ValueError, match="must be nonnegative"):
            SurfactantField(rho=rho)

    @pytest.mark.parametrize("params", [
        dict(Pe=-1.0), dict(Pe=0.0), dict(Pe=None), dict(Pe=-0.01),
        dict(E=1.5, eos="langmuir"), dict(eos="frumkin")])
    def test_field_and_flow_reject_the_same_parameters(self, params):
        # one check of E, Pe and eos, in FlowConfig: a field with
        # Pe = -0.01 would run the diffusion backwards, and a field takes
        # its material parameters only from a FlowConfig
        with pytest.raises(ValueError):
            FlowConfig(**params)
        with pytest.raises(TypeError):
            SurfactantField(rho=np.zeros(64), **params)

    def test_monotone_decreasing(self):
        rho = np.linspace(0, 0.8, 64)
        for eos in ("linear", "langmuir"):
            f = SurfactantField(rho=rho, flow=FlowConfig(eos=eos))
            sig = surface_tension(f)
            assert np.all(np.diff(sig) < 0)


class TestExplicitRHS:
    def test_uniform_rho_zero_velocity(self):
        c = circle(64)
        f = SurfactantField(rho=np.ones(64))
        z = np.zeros(64)
        fe = rhs_explicit(c, f, decomp(z, z, z))
        assert np.abs(fe).max() < 1e-14

    def test_uniform_shrink_stretching(self):
        # circle kappa = -1; u_n = c, rho = 1 -> f_E = -rho u_n kappa = c
        c = circle(64)
        f = SurfactantField(rho=np.ones(64))
        u_n = 0.3 * np.ones(64)
        z = np.zeros(64)
        fe = rhs_explicit(c, f, decomp(u_n, z, z))
        assert np.abs(fe - 0.3).max() < 1e-12

    def test_rigid_rotation_no_stretching(self):
        # uniform rho, pure rigid-rotation tangential field on a circle
        c = circle(128)
        f = SurfactantField(rho=np.ones(128))
        u_t = 0.7 * np.ones(128)
        fe = rhs_explicit(c, f, decomp(np.zeros(128), u_t, u_t))
        assert np.abs(fe).max() < 1e-11

    def test_against_finite_differences(self):
        # independent oracle: 4th-order finite differences on a 16x grid
        n = 64
        c = circle(n)
        a = uniform_alpha(n)
        rho = 1 + 0.3 * np.cos(2 * a)
        u_n = 0.2 * np.sin(a)
        u_t = 0.1 * np.cos(3 * a)
        u_tm = 0.05 * np.sin(2 * a)
        f = SurfactantField(rho=rho)
        fe = rhs_explicit(c, f, decomp(u_n, u_t, u_tm))

        m = 16 * n
        am = uniform_alpha(m)
        rho_m = 1 + 0.3 * np.cos(2 * am)
        u_n_m = 0.2 * np.sin(am)
        u_t_m = 0.1 * np.cos(3 * am)
        u_tm_m = 0.05 * np.sin(2 * am)
        h = 2 * np.pi / m

        def d4(g):
            return (-np.roll(g, -2) + 8 * np.roll(g, -1)
                    - 8 * np.roll(g, 1) + np.roll(g, 2)) / (12 * h)

        s_a = 1.0   # unit circle: L = 2 pi
        kap = -1.0
        fe_ref = (u_tm_m / s_a) * d4(rho_m) - d4(rho_m * u_t_m) / s_a \
            - rho_m * u_n_m * kap
        assert np.abs(fe - fe_ref[::16]).max() < 1e-8


def _dealiased_product(a, b):
    """One product on a 3/2 zero-padded grid, truncated and filtered."""
    n = a.shape[0]
    m = 3 * n // 2
    return krasny_filter(resample(resample(a, m) * resample(b, m), n))


def rhs_explicit_nested(iface, f, d):
    """rhs_explicit as four separate de-aliased products."""
    s_a = iface.length() / (2 * np.pi)
    rho_a = spectral_derivative(f.rho, 1)
    kap = curvature(iface)
    t1 = _dealiased_product(d.u_t_mod, rho_a) / s_a
    t2 = spectral_derivative(_dealiased_product(f.rho, d.u_t), 1) / s_a
    t3 = _dealiased_product(f.rho, _dealiased_product(d.u_n, kap))
    return krasny_filter(t1 - t2 - t3)


def _smooth(rng, a, modes, scale):
    return sum(scale * rng.standard_normal() / k
               * np.cos(k * a + rng.uniform(0, 2 * np.pi))
               for k in range(1, modes + 1))


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([32, 64, 96, 128, 192, 288]),
       mode=st.integers(2, 5), amp=st.floats(0.0, 0.2),
       modes=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_batched_rhs_equals_nested_products(n, mode, amp, modes, seed):
    # the batched de-aliasing is bit for bit the per-product one
    rng = np.random.default_rng(seed)
    a = uniform_alpha(n)
    iface = Interface(z=np.exp(-1j * a) * (1 + amp * np.cos(mode * a)))
    f = SurfactantField(rho=1 + 0.5 * np.tanh(_smooth(rng, a, modes, 1.0)))
    d = decomp(*(_smooth(rng, a, modes, 0.3) for _ in range(3)))
    assert np.array_equal(rhs_explicit(iface, f, d),
                          rhs_explicit_nested(iface, f, d))


class TestImplicit:
    def test_mean_preserved(self):
        rho = 1 + 0.2 * np.cos(3 * uniform_alpha(64))
        out = rhs_implicit_solve(rho, 1.0, 10.0, 0.1)
        assert abs(out.mean() - rho.mean()) < 1e-14

    def test_single_mode_decay_factor(self):
        a = uniform_alpha(64)
        rho = np.cos(3 * a)
        out = rhs_implicit_solve(rho, 1.0, 10.0, 0.1)
        want = rho / (1 + 0.1 * 9 / 10.0)
        assert np.abs(out - want).max() < 1e-14

    def test_pe_infinite_identity(self):
        rho = 1 + 0.2 * np.cos(3 * uniform_alpha(64))
        out = rhs_implicit_solve(rho, 1.0, np.inf, 0.1)
        assert np.abs(out - rho).max() == 0.0

    def test_diffusion_decay_rate(self):
        # one implicit Euler step approximates exp decay of each mode to O(dt^2)
        a = uniform_alpha(64)
        Pe, s_a, dt = 10.0, 1.0, 1e-3
        rho = 1 + 0.5 * np.cos(4 * a)
        out = rhs_implicit_solve(rho, s_a, Pe, dt)
        decay = np.exp(-16 * dt / (Pe * s_a**2))
        want = 1 + 0.5 * decay * np.cos(4 * a)
        assert np.abs(out - want).max() < 1e-2 * 16 * dt / Pe

    def test_maxnorm_nonincreasing_mass_constant(self):
        c = circle(64)
        a = uniform_alpha(64)
        f = SurfactantField(rho=1 + 0.4 * np.cos(2 * a),
                            flow=FlowConfig(Pe=5.0))
        m0 = surfactant_mass(c, f)
        rho = f.rho
        for _ in range(50):
            rho = rhs_implicit_solve(rho, 1.0, 5.0, 0.01)
        f2 = with_rho(f, rho)
        assert surfactant_mass(c, f2) == pytest.approx(m0, abs=1e-12)
        assert rho.max() <= f.rho.max() + 1e-12
        assert np.abs(rho - rho.mean()).max() < np.abs(f.rho - f.rho.mean()).max()


class TestMass:
    def test_unit_circle_uniform(self):
        c = circle(64)
        f = SurfactantField(rho=np.ones(64))
        assert abs(surfactant_mass(c, f) - 2 * np.pi) < 1e-13

    def test_oscillation_integrates_out(self):
        c = circle(64)
        f = SurfactantField(rho=1 + np.cos(uniform_alpha(64)))
        assert abs(surfactant_mass(c, f) - 2 * np.pi) < 1e-12

