import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from drops2d.geometry import (Interface, circle, curvature,
                              deformation_number, ellipse, interfaces_cross,
                              min_distance, modified_tangential_velocity,
                              normals, self_intersects, to_equal_arclength)
from drops2d.spectral import (antiderivative, fourier_interp, krasny_filter,
                              resample, spectral_derivative, trapezoid,
                              uniform_alpha)


def test_interface_grid_validation():
    # N >= 32 and a multiple of 16; the shape is checked by harness
    with pytest.raises(ValueError, match="at least 32"):
        Interface(z=np.zeros(16))
    with pytest.raises(ValueError, match="not divisible"):
        Interface(z=np.zeros(40))
    Interface(z=np.zeros(32))


def test_cached_derivatives_match_spectral_derivative():
    z = ellipse(96, 1.4, 0.8).z * np.exp(0.3j) + 0.2
    iface = Interface(z=z)
    assert np.array_equal(iface.z_alpha(), spectral_derivative(z, 1))
    assert np.array_equal(iface.z_alpha2(), spectral_derivative(z, 2))
    assert iface.z_alpha() is iface.z_alpha()
    for d in (iface.z_alpha(), iface.z_alpha2()):
        with pytest.raises(ValueError):
            d[0] = 0.0


def test_circle_helper_is_valid():
    c = circle(64)
    assert c.signed_area() < 0
    assert abs(c.area() - np.pi) < 1e-12
    assert abs(c.length() - 2 * np.pi) < 1e-12


def test_zero_tangent_has_no_normal_or_curvature():
    # a constant z has z' = 0 at every node
    point = Interface(z=np.full(32, 1.0 + 0j))
    for fn in (normals, curvature):
        with pytest.raises(ValueError, match="degenerate curve: zero tangent"):
            fn(point)


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


class TestDeformation:
    def test_circle(self):
        assert deformation_number(circle(64)) < 1e-12

    def test_two_mode_map(self):
        b = 0.3
        a = np.sqrt(1.09)
        nu = uniform_alpha(256)
        z = a * np.exp(-1j * nu) + b * np.exp(1j * nu)
        iface = Interface(z=z)
        want = b / a
        assert abs(deformation_number(iface) - want) < 1e-12

    def test_ellipse(self):
        e = ellipse(128, 2.0, 1.0)
        assert abs(deformation_number(e) - 1 / 3) < 1e-6


def test_equal_arclength_reparam():
    a = uniform_alpha(256)
    z = (1 + 0.2 * np.cos(3 * a)) * np.exp(-1j * a)
    iface = to_equal_arclength(Interface(z=z))
    # equidistance in arclength <=> |z_alpha| constant (up to the spectral
    # tail of the reparametrized curve at this resolution)
    sp = np.abs(iface.z_alpha())
    assert np.abs(sp - sp.mean()).max() / sp.mean() < 1e-8


def _to_equal_arclength_reference(iface):
    """Reference: the former to_equal_arclength, its own Newton on the
    cumulative arclength, three fourier_interp per iteration."""
    z0 = iface.z
    alpha = uniform_alpha(z0.shape[0])
    zp0 = iface.z_alpha()
    total = float(np.real(trapezoid(np.abs(zp0))))
    mean = total / (2 * np.pi)
    osc = antiderivative(np.abs(zp0) - mean)
    osc_0 = fourier_interp(osc, np.array([0.0]))[0]
    t = alpha.copy()
    target = total * alpha / (2 * np.pi)
    for _ in range(100):
        cum = mean * t + (fourier_interp(osc, t) - osc_0)
        corr = (target - cum) / np.abs(fourier_interp(zp0, t))
        t = t + corr
        if np.abs(corr).max() < 1e-12:
            break
    return Interface(z=krasny_filter(fourier_interp(z0, t)), lam=iface.lam)


def _spacing_drift(iface):
    s_a = np.abs(iface.z_alpha())
    return np.abs(s_a - s_a.mean()).max() / s_a.mean()


@pytest.mark.parametrize("n", [64, 128, 256])
def test_equal_arclength_matches_reference(n):
    # ellipses of aspect 1 - 1.8 with three smaller radial modes, sampled
    # at equal parameter steps (spacing drift 0.07 - 0.43).  Over 240 such
    # seeded draws the two maps agreed to 3.1e-15 relative, and their
    # spacing drifts (6e-11 - 1.3e-3) differed by at most 6.5e-14 either
    # way, a rounding difference that the 1e-13 allowance covers
    rng = np.random.default_rng(n)
    t = uniform_alpha(n)
    for _ in range(8):
        r = 1 + sum(a * np.cos(k * t + s) for k, a, s in
                    zip((2, 3, 4), rng.uniform(-0.08, 0.08, 3),
                        rng.uniform(0, 2 * np.pi, 3)))
        z = (np.exp(1j * rng.uniform(0, 2 * np.pi)) * r
             * (rng.uniform(1.0, 1.8) * np.cos(t) - 1j * np.sin(t)))
        raw = Interface(z=z)
        want = _to_equal_arclength_reference(raw)
        got = to_equal_arclength(raw)
        assert np.abs(got.z - want.z).max() <= 1e-13 * np.abs(want.z).max()
        assert _spacing_drift(got) <= _spacing_drift(want) + 1e-13


def test_min_distance_circles():
    c1 = circle(64, center=0.0)
    c2 = circle(64, center=3.0)
    assert abs(min_distance(c1, c2) - 1.0) < 1e-3


def _cross_ref(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def self_intersects_ref(iface):
    """Brute-force reference: every segment against every non-adjacent one."""
    z = iface.z
    n = z.shape[0]
    p = np.stack([z.real, z.imag], axis=1)
    q = np.roll(p, -1, axis=0)
    js = np.arange(n)
    for i in range(n):
        a, b = p[i], q[i]
        mask = (js != i) & (js != (i - 1) % n) & (js != (i + 1) % n)
        c, d = p[mask], q[mask]
        d1 = _cross_ref(b - a, c - a)
        d2 = _cross_ref(b - a, d - a)
        d3 = _cross_ref(d - c, a - c)
        d4 = _cross_ref(d - c, b - c)
        if np.any((d1 * d2 < 0) & (d3 * d4 < 0)):
            return True
    return False


def interfaces_cross_ref(a, b):
    """Brute-force reference: every segment of a against every one of b."""
    p, q = a.z[:, None], np.roll(a.z, -1)[:, None]
    r, s = b.z[None, :], np.roll(b.z, -1)[None, :]
    cross = lambda u, v: u.real * v.imag - u.imag * v.real
    return bool(np.any((cross(q - p, r - p) * cross(q - p, s - p) < 0)
                       & (cross(s - r, p - r) * cross(s - r, q - r) < 0)))


def min_distance_ref(a, b, refine=4):
    """Dense reference: all pairs of the two refined grids."""
    za = resample(a.z, refine * a.n)
    zb = resample(b.z, refine * b.n)
    return float(np.abs(za[:, None] - zb[None, :]).min())


def curve(kind, n, amp, phase):
    """Closed test curves, not equidistant.

    star: five arms, looping through the centre (crossing) for amp > 1;
    eight: a figure eight, crossing at its waist; pinched: two lobes
    joined by a neck of width 2*amp, thin but never crossing.
    """
    t = uniform_alpha(n) + phase
    if kind == "star":
        z = (1 + amp * np.cos(5 * t)) * np.exp(-1j * t)
    elif kind == "eight":
        z = np.sin(t) - 1j * amp * np.sin(2 * t)
    else:
        z = np.cos(t) - 1j * np.sin(t) * (amp + (1 - amp) * np.cos(t) ** 2)
    return Interface(z=z)


shapes = st.tuples(st.sampled_from(["star", "eight", "pinched"]),
                   st.sampled_from(range(32, 193, 16)),
                   st.floats(1e-4, 1.6), st.floats(0, 2 * np.pi))


@settings(max_examples=60, deadline=None)
@given(shape=shapes)
@example(shape=("star", 64, 1.5, 0.1))         # loops through the centre
@example(shape=("pinched", 128, 1e-3, 0.05))   # neck 2e-3, no crossing
def test_self_intersects_matches_reference(shape):
    iface = curve(*shape)
    assert self_intersects(iface) == self_intersects_ref(iface)


def test_self_intersects_examples():
    assert self_intersects(curve("star", 64, 1.5, 0.1))
    assert self_intersects(curve("eight", 96, 0.5, 0.1))
    assert not self_intersects(curve("pinched", 128, 1e-3, 0.05))
    assert not self_intersects(circle(32))


@settings(max_examples=60, deadline=None)
@given(sa=shapes, sb=shapes, scale=st.floats(0.2, 2.0),
       shift=st.complex_numbers(max_magnitude=4.0))
@example(sa=("pinched", 128, 1e-3, 0.0), sb=("pinched", 64, 0.1, 0.3),
         scale=1.0, shift=2.0005 + 0j)          # gap 5e-4, no crossing
@example(sa=("star", 32, 0.3, 0.0), sb=("eight", 192, 0.8, 1.0),
         scale=0.5, shift=1.1 + 0.2j)
def test_pair_checks_match_reference(sa, sb, scale, shift):
    a = curve(*sa)
    b = Interface(z=shift + scale * curve(*sb).z)
    assert min_distance(a, b) == min_distance_ref(a, b)
    assert interfaces_cross(a, b) == interfaces_cross_ref(a, b)
