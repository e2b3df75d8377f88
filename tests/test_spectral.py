import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drops2d import spectral
from drops2d.spectral import (GL_NODES, GL_WEIGHTS, fourier_interp,
                              krasny_filter, panel_grid,
                              panel_interp_to_uniform,
                              panel_to_uniform_matrix, resample,
                              spectral_derivative, trapezoid, uniform_alpha)


class TestSpectralDerivative:
    def test_constant(self):
        f = np.full(64, 3.7 + 0j)
        for order in (1, 2, 3):
            assert np.abs(spectral_derivative(f, order)).max() < 1e-13

    def test_fourier_eigenfunction(self):
        a = uniform_alpha(64)
        f = np.exp(1j * a)
        err = np.abs(spectral_derivative(f, 1) - 1j * f).max()
        assert err < 1e-13

    def test_cos3_second_derivative(self):
        a = uniform_alpha(32)
        f = np.cos(3 * a)
        err = np.abs(spectral_derivative(f, 2) + 9 * np.cos(3 * a)).max()
        assert err < 1e-12

    @pytest.mark.parametrize("n", [16, 17, 193])
    def test_derivative_matrix_matches_transform(self, n):
        # the circulant build equals the transform of the identity up to
        # rounding, also for even n with its Nyquist mode zeroed: measured
        # 1.8e-16, 1.6e-16 and 4.6e-16 of max |D|
        D = spectral.derivative_matrix(n)
        assert not D.flags.writeable and spectral.derivative_matrix(n) is D
        want = spectral_derivative(np.eye(n))
        assert np.abs(D - want).max() <= 2e-15 * np.abs(want).max()


class TestResample:
    def test_round_trip(self):
        a = uniform_alpha(64)
        f = np.cos(2 * a) + 0.3 * np.sin(5 * a)
        back = resample(resample(f, 128), 64)
        assert np.abs(back - f).max() < 1e-14

    def test_constant_any_size(self):
        f = np.ones(64)
        for m in (32, 48, 96, 131):
            assert np.abs(resample(f, m) - 1.0).max() < 1e-14

    def test_band_limited_exact(self):
        a32 = uniform_alpha(32)
        f = np.cos(3 * a32)
        up = resample(f, 64)
        assert np.abs(up - np.cos(3 * uniform_alpha(64))).max() < 1e-13

    def test_refuses_fewer_than_two_points(self):
        with pytest.raises(ValueError, match="new_n must be at least 2"):
            resample(np.ones(8), 1)

    def test_trapezoid_invariant(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal(7)
        a = uniform_alpha(64)
        f = sum(ci * np.cos((i + 1) * a) for i, ci in enumerate(c)) + 2.0
        assert abs(trapezoid(resample(f, 128)) - trapezoid(f)) < 1e-13


class TestKrasny:
    def test_identity_above_threshold(self):
        a = uniform_alpha(32)
        f = np.cos(a) + 1e-6 * np.sin(4 * a)
        assert np.abs(krasny_filter(f) - f).max() < 1e-15

    def test_small_mode_zeroed(self):
        a = uniform_alpha(32)
        f = np.cos(a) + 1e-13 * np.cos(5 * a)
        out = krasny_filter(f)
        coef = np.fft.fft(out) / 32
        assert abs(coef[5]) < 1e-16  # zeroed up to FFT round-trip noise

    def test_zero(self):
        assert np.abs(krasny_filter(np.zeros(32))).max() == 0.0


class TestFourierInterp:
    def test_complex_exponential(self):
        a = uniform_alpha(64)
        f = np.exp(1j * a)
        val = fourier_interp(f, [0.3])[0]
        assert abs(val - np.exp(0.3j)) < 1e-13

    def test_grid_points_exact(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        f = krasny_filter(resample(resample(f, 16 + 16), 32))
        a = uniform_alpha(32)
        vals = fourier_interp(f, a)
        assert np.abs(vals - f).max() < 1e-12

    def test_against_oversampled_series(self):
        # independent oracle: evaluate through a 10x oversampled grid with
        # nearest-grid collocation refined by direct series evaluation
        rng = np.random.default_rng(2)
        n = 32
        coef = np.zeros(n, dtype=complex)
        for k in range(-7, 8):
            coef[k % n] = rng.standard_normal() + 1j * rng.standard_normal()
        f = np.fft.ifft(coef) * n
        grid = panel_grid(4)
        k = spectral.modes(n)
        direct = np.array([np.sum((coef / 1.0) * np.exp(1j * k * t)) for t in grid.alpha])
        vals = fourier_interp(f, grid.alpha)
        assert np.abs(vals - direct).max() < 1e-12


class TestPanels:
    def test_weights_sum_to_panel_length(self):
        g = panel_grid(8)
        h = 2 * np.pi / 8
        for p in range(8):
            assert abs(g.weights[16 * p:16 * (p + 1)].sum() - h) < 1e-14

    def test_gl16_monomial_exactness(self):
        val = np.sum(GL_WEIGHTS * GL_NODES**30)
        exact = 2.0 / 31.0
        assert abs(val - exact) / exact < 1e-14

    def test_panel_interp_polynomial_exact(self):
        g = panel_grid(4)
        n_out = 64
        # degree <= 15 polynomial of the local panel coordinate
        edges = g.endpoints
        h = edges[1] - edges[0]
        idx = np.minimum((g.alpha / h).astype(int), 3)
        xi = 2 * (g.alpha - edges[idx]) / h - 1
        vals = 0.3 * xi**7 - xi**2 + 0.1
        out = panel_to_uniform_matrix(4, n_out) @ vals
        # direct evaluation of the same piecewise polynomial on the fine grid
        fine = uniform_alpha(2 * n_out)
        idx_f = np.minimum((fine / h).astype(int), 3)
        xi_f = 2 * (fine - edges[idx_f]) / h - 1
        ref = spectral.resample(0.3 * xi_f**7 - xi_f**2 + 0.1, n_out)
        assert np.abs(out - ref).max() < 1e-12

    def test_panel_interp_constant(self):
        out = panel_to_uniform_matrix(8, 64) @ np.ones(8 * 16)
        assert np.abs(out - 1).max() < 1e-13

    def test_panel_interp_sin(self):
        g = panel_grid(8)
        vals = np.sin(g.alpha)
        out = panel_interp_to_uniform(vals, 8, 128)
        assert np.abs(out - np.sin(uniform_alpha(128))).max() < 1e-10

    @pytest.mark.parametrize("n_panels, n_out",
                             [(2, 32), (8, 64), (8, 128), (12, 192)])
    def test_panel_interp_matches_per_panel_loop(self, n_panels, n_out):
        rng = np.random.default_rng(n_panels * n_out)
        g = (rng.standard_normal(16 * n_panels)
             + 1j * rng.standard_normal(16 * n_panels))
        want = krasny_filter(resample(_per_panel_loop(g, n_panels, n_out),
                                      n_out))
        out = panel_interp_to_uniform(g, n_panels, n_out)
        assert np.abs(out - want).max() <= 1e-13 * np.abs(g).max()


def _per_panel_loop(vals, n_panels, n_out):
    """Reference: each panel's degree-15 barycentric interpolant evaluated
    at the 2 n_out uniform points that fall on it, one panel at a time."""
    w = np.array([1.0 / np.prod(GL_NODES[k] - np.delete(GL_NODES, k))
                  for k in range(16)])
    fine = uniform_alpha(2 * n_out)
    edges = np.linspace(0.0, 2 * np.pi, n_panels + 1)
    h = edges[1] - edges[0]
    idx = np.minimum((fine / h).astype(int), n_panels - 1)
    out = np.empty(fine.size, dtype=complex)
    for p in range(n_panels):
        sel = idx == p
        diff = (2 * (fine[sel] - edges[p]) / h - 1)[:, None] - GL_NODES
        hit = np.isclose(diff, 0.0, atol=1e-15)
        diff[hit] = 1.0
        c = w / diff
        f = vals[16 * p:16 * (p + 1)]
        val = (c @ f) / c.sum(axis=1)
        rows, cols = np.nonzero(hit)
        val[rows] = f[cols]
        out[sel] = val
    return out


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=5))
def test_derivative_commutes_with_resample(k, seed):
    rng = np.random.default_rng(seed)
    a = uniform_alpha(64)
    f = sum(rng.standard_normal() * np.cos(m * a + rng.standard_normal())
            for m in range(1, 9))
    order = k % 3 + 1
    d_then_r = resample(spectral_derivative(f, order), 128)
    r_then_d = spectral_derivative(resample(f, 128), order)
    scale = max(np.abs(d_then_r).max(), 1.0)
    assert np.abs(d_then_r - r_then_d).max() / scale < 1e-12


def _stack(n, k, dtype, seed):
    """k smooth fields of n samples as the columns of an (n, k) array, with
    coefficients decaying past KRASNY_TOL (n >= 64) so that the filter
    cuts some."""
    rng = np.random.default_rng(seed)
    decay = np.exp(-np.abs(spectral.modes(n)))[:, None]
    coef = rng.standard_normal((n, k)) * decay
    if dtype is complex:
        coef = coef + 1j * rng.standard_normal((n, k)) * decay**0.8
        return np.fft.ifft(coef, axis=0) * n
    return (np.fft.ifft(coef, axis=0) * n).real


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [32, 128, 192, 288])
def test_axis0_batch_equals_columns(n, dtype):
    # a stacked call is bit for bit the 1-D calls on its columns
    vals = _stack(n, 5, dtype, n)
    cols = [vals[:, j].copy() for j in range(vals.shape[1])]

    def each(fn):
        return np.stack([fn(c) for c in cols], axis=1)

    assert np.array_equal(krasny_filter(vals), each(krasny_filter))
    for order in (1, 2, 3):
        assert np.array_equal(spectral_derivative(vals, order),
                              each(lambda c: spectral_derivative(c, order)))
    for m in (3 * n // 2, n // 2, n + 16):
        assert np.array_equal(resample(vals, m), each(lambda c: resample(c, m)))
    both = spectral.spectral_derivatives(vals, (1, 2))
    assert np.array_equal(both[0], spectral_derivative(vals, 1))
    assert np.array_equal(both[1], spectral_derivative(vals, 2))


@pytest.mark.parametrize("fn", [lambda v: spectral.uniform_to_gl(v, 4),
                                spectral.antiderivative],
                         ids=["uniform_to_gl", "antiderivative"])
def test_complex_input_acts_on_real_and_imaginary_parts(fn):
    vals = _stack(64, 1, complex, 7)[:, 0]
    want = fn(vals.real) + 1j * fn(vals.imag)
    assert np.abs(fn(vals) - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("fn", [
    lambda v: spectral.spectral_derivatives(v, (1, 2)),
    lambda v: resample(v, 96),
    krasny_filter,
    lambda v: fourier_interp(v, np.linspace(0.0, 6.0, 7)),
    lambda v: spectral.uniform_to_gl(v, 4),
    spectral.antiderivative,
], ids=["spectral_derivatives", "resample", "krasny_filter", "fourier_interp",
        "uniform_to_gl", "antiderivative"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_real_input_gives_real_output(fn, dtype):
    out = fn(_stack(64, 1, dtype, 3)[:, 0])
    for arr in (out if isinstance(out, tuple) else (out,)):
        assert arr.dtype == np.dtype(dtype)


@pytest.mark.parametrize("new_n", [32, 33])
def test_resample_pads_even_n_splitting_its_nyquist_mode(new_n):
    # random samples of even n carry a Nyquist mode, which the padded
    # samples evaluate as cos(n/2 alpha), as fourier_interp does
    vals = _stack(16, 1, complex, 5)[:, 0] + 0.3 * (-1.0) ** np.arange(16)
    want = fourier_interp(vals, uniform_alpha(new_n))
    assert np.abs(resample(vals, new_n) - want).max() < 1e-14
    want = fourier_interp(vals.real, uniform_alpha(new_n))
    assert np.abs(resample(vals.real, new_n) - want).max() < 1e-14


@pytest.mark.parametrize("n", [32, 33])
def test_resample_truncates_to_even_n_folding_its_nyquist_mode(n):
    # modes |k| <= 8 survive on 16 points, where e^{8i alpha} and
    # e^{-8i alpha} take the same values; every higher mode is dropped
    rng = np.random.default_rng(n)
    k = np.arange(-((n - 1) // 2), (n - 1) // 2 + 1)
    c = rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)

    def series(modes, alpha):
        return np.exp(1j * np.outer(alpha, k[modes])) @ c[modes]

    want = series(np.abs(k) <= 8, uniform_alpha(16))
    got = resample(series(np.abs(k) >= 0, uniform_alpha(n)), 16)
    assert np.abs(got - want).max() < 1e-13


def test_read_only_is_the_package_rule():
    from drops2d.geometry import Interface
    from drops2d.pair_oracle import pair_from_circles

    a = np.arange(3.0)
    assert spectral.read_only(a) is a and not a.flags.writeable
    iface = Interface(z=np.exp(-1j * uniform_alpha(32)))
    st = pair_from_circles(16, phi=0.35, rho0=1.0)
    for arr in (iface.z_alpha(), iface.z_alpha2(), st.a_pos, st.rho, st.zeta,
                st.nu, *st.geometry, st.diffusion):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_cached_multipliers_are_read_only():
    assert spectral.modes(64) is spectral.modes(64)
    with pytest.raises(ValueError):
        spectral.modes(64)[0] = 1


def test_cached_transfers_are_read_only():
    grid = panel_grid(8)
    assert grid is panel_grid(8)
    assert spectral.uniform_to_gl_matrix(64, 4) is (
        spectral.uniform_to_gl_matrix(64, 4))
    assert panel_to_uniform_matrix(4, 64) is panel_to_uniform_matrix(4, 64)
    for arr in (grid.alpha, grid.weights, grid.endpoints,
                spectral.uniform_to_gl_matrix(64, 4),
                panel_to_uniform_matrix(4, 64)):
        with pytest.raises(ValueError):
            arr[0] = 1


@pytest.mark.parametrize("n, m", [(64, 64), (128, 256), (96, 48)])
def test_equal_arclength_nodes_invert_the_parameter(n, m):
    # alpha_V at the nodes, from its interpolant, takes n equal steps
    nu = uniform_alpha(m)
    z = (1 + 0.2 * np.cos(3 * nu)) * (1.3 * np.cos(nu) - 1j * np.sin(nu))
    speed = np.abs(spectral_derivative(z))
    alpha_v, _ = spectral.equal_arclength_parameter(speed)
    t = spectral.equal_arclength_nodes(speed, n)
    at_nodes = t + fourier_interp(alpha_v - nu, t)
    assert np.abs(at_nodes - uniform_alpha(n)).max() < 1e-12


def test_equal_arclength_nodes_raise_without_convergence(monkeypatch):
    nu = uniform_alpha(64)
    speed = np.abs(spectral_derivative(1.5 * np.cos(nu) - 1j * np.sin(nu)))
    monkeypatch.setattr(spectral, "ARCLENGTH_MAXITER", 2)
    with pytest.raises(RuntimeError, match="ARCLENGTH_TOL"):
        spectral.equal_arclength_nodes(speed, 64)
