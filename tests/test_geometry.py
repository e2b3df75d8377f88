import numpy as np
import pytest
from scipy.integrate import quad

from drops2d.geometry import (Interface, advance_positions, adapt_resolution,
                              circle, curvature, deformation_number,
                              ellipse, min_distance, modified_tangential_velocity,
                              normals, point_spacing, signed_area,
                              to_equal_arclength)
from drops2d.spectral import trapezoid, uniform_alpha


def test_interface_requires_clockwise():
    a = uniform_alpha(64)
    with pytest.raises(ValueError):
        Interface(z=np.exp(1j * a))  # counterclockwise


def test_interface_grid_validation():
    # N >= 32 and a multiple of 16, whatever the shape checks say
    with pytest.raises(ValueError, match="at least 32"):
        Interface(z=np.zeros(16), check=False)
    with pytest.raises(ValueError, match="not divisible"):
        Interface(z=np.zeros(40), check=False)
    Interface(z=np.zeros(32), check=False)


def test_circle_helper_is_valid():
    c = circle(64)
    assert signed_area(c.z) < 0
    assert abs(c.area() - np.pi) < 1e-12
    assert abs(c.length() - 2 * np.pi) < 1e-12


class TestNormals:
    def test_unit_circle(self):
        c = circle(64)
        n = normals(c)
        assert abs(n[0] - (-1.0)) < 1e-13   # inward at z = 1
        assert np.abs(np.abs(n) - 1).max() < 1e-13

    def test_radius_two(self):
        c = circle(64, radius=2.0)
        n = normals(c)
        assert abs(n[0] - (-1.0)) < 1e-13

    def test_ellipse_major_axis(self):
        e = ellipse(128, 2.0, 1.0)
        k = int(np.argmin(np.abs(e.z - 2.0)))
        n = normals(e)
        # at (2, 0) the inward normal is (-1, 0)
        assert abs(n[k] - (-1.0)) < 1e-5


class TestCurvature:
    def test_unit_circle(self):
        c = circle(64)
        assert np.abs(curvature(c) + 1).max() < 1e-10

    def test_radius_r(self):
        for R in (0.5, 2.0, 3.7):
            c = circle(64, radius=R)
            assert np.abs(curvature(c) + 1 / R).max() < 1e-10

    def test_ellipse_tip(self):
        a_ax, b_ax = 2.0, 1.0
        e = ellipse(256, a_ax, b_ax)
        k = int(np.argmin(np.abs(e.z - a_ax)))
        # |kappa| = a/b^2 at the end of the major axis; sign negative
        assert abs(curvature(e)[k] + a_ax / b_ax**2) < 1e-4


class TestModifiedTangential:
    def test_constant_normal_velocity_circle(self):
        c = circle(64)
        u = 0.37 * normals(c)          # u_n = 0.37, u_t = 0
        d = modified_tangential_velocity(c, u)
        assert np.abs(d.u_t_mod).max() < 1e-12

    def test_pure_tangential(self):
        c = circle(64)
        t = 1j * normals(c)
        d = modified_tangential_velocity(c, 0.8 * t)
        assert np.abs(d.u_t_mod).max() < 1e-12
        assert np.abs(d.u_t - 0.8).max() < 1e-12

    def test_cos_profile_against_quadrature(self):
        n = 128
        c = circle(n)
        a = uniform_alpha(n)
        u_n = np.cos(a)
        u = u_n * normals(c)
        d = modified_tangential_velocity(c, u)
        # independent oracle: adaptive quadrature of the defining integrals;
        # Im(z''/z') = -1 on this clockwise circle
        h = lambda q: -np.cos(q)
        total = quad(h, 0, 2 * np.pi, limit=200)[0]
        ref = []
        for ai in a[:16]:
            part = quad(h, 0, ai, limit=200)[0]
            ref.append(ai / (2 * np.pi) * total - part)
        assert np.abs(d.u_t_mod[:16] - np.array(ref)).max() < 1e-10

    def test_equidistance_preserved_after_step(self):
        n = 128
        c = circle(n)
        a = uniform_alpha(n)
        u = (0.2 * np.cos(2 * a) + 0.05 * np.sin(3 * a)) * normals(c) \
            + 0.1 * np.cos(a) * 1j * normals(c)
        d = modified_tangential_velocity(c, u)
        nxt = advance_positions(c, d, 1e-3)
        sp = point_spacing(nxt.z)
        assert np.abs(sp - sp.mean()).max() / sp.mean() < 1e-3


class TestAdvance:
    def test_zero_velocity_identity(self):
        c = circle(64)
        d = modified_tangential_velocity(c, np.zeros(64, dtype=complex))
        nxt = advance_positions(c, d, 0.1)
        assert np.abs(nxt.z - c.z).max() < 1e-15

    def test_uniform_shrink(self):
        c = circle(64)
        d = modified_tangential_velocity(c, -0.1 * normals(c))
        # u_n = -0.1 moves against the inward normal: radius grows by 0.01;
        # u_n = +0.1 shrinks.  Follow the stated convention: u = u_n * n.
        d2 = modified_tangential_velocity(c, 0.1 * normals(c))
        nxt = advance_positions(c, d2, 0.1)
        assert np.abs(np.abs(nxt.z) - 0.99).max() < 1e-12


class TestAdapt:
    def test_no_change_in_band(self):
        c = circle(64)
        ds = c.spacing()
        out, _ = adapt_resolution(c, (), ds_target=ds)
        assert out.n == 64

    def test_growth_doubles(self):
        c = circle(64, radius=2.0)
        target = 2 * np.pi / 64   # spacing of a unit circle with N=64
        out, _ = adapt_resolution(c, (), ds_target=target)
        assert out.n == 128
        assert abs(out.spacing() / target - 1) < 1.2

    def test_mass_preserved(self):
        c = circle(64, radius=2.0)
        rho = 1 + 0.3 * np.cos(2 * uniform_alpha(64))
        sp = np.abs(c.z_alpha())
        mass0 = float(np.real(trapezoid(rho * sp)))
        out, (rho2,) = adapt_resolution(c, (rho,), ds_target=2 * np.pi / 64)
        sp2 = np.abs(out.z_alpha())
        mass1 = float(np.real(trapezoid(rho2 * sp2)))
        assert abs(mass1 - mass0) < 1e-12

    def test_curve_unchanged(self):
        c = circle(64, radius=2.0)
        out, _ = adapt_resolution(c, (), ds_target=2 * np.pi / 64)
        # resampled points must lie on the original circle
        assert np.abs(np.abs(out.z) - 2.0).max() < 1e-10


class TestDeformation:
    def test_circle(self):
        assert deformation_number(circle(64)) < 1e-12

    def test_two_mode_map(self):
        b = 0.3
        a = np.sqrt(1.09)
        nu = uniform_alpha(256)
        z = a * np.exp(-1j * nu) + b * np.exp(1j * nu)
        iface = Interface(z=z, check=False)
        want = b / a
        assert abs(deformation_number(iface) - want) < 1e-12

    def test_ellipse(self):
        e = ellipse(128, 2.0, 1.0)
        assert abs(deformation_number(e) - 1 / 3) < 1e-6


def test_equal_arclength_reparam():
    a = uniform_alpha(256)
    z = (1 + 0.2 * np.cos(3 * a)) * np.exp(-1j * a)
    iface = to_equal_arclength(Interface(z=z, check=False))
    # equidistance in arclength <=> |z_alpha| constant (up to the spectral
    # tail of the reparametrized curve at this resolution)
    sp = np.abs(iface.z_alpha())
    assert np.abs(sp - sp.mean()).max() / sp.mean() < 1e-8


def test_min_distance_circles():
    c1 = circle(64, center=0.0)
    c2 = circle(64, center=3.0)
    assert abs(min_distance(c1, c2) - 1.0) < 1e-3
