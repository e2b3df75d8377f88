import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from drops2d import spectral
from drops2d.spectral import (GL_NODES, GL_WEIGHTS, fourier_interp,
                              krasny_filter, panel_grid,
                              panel_interp_to_uniform, resample,
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
        out = panel_interp_to_uniform(vals, 4, n_out, filt=False)
        a = uniform_alpha(n_out)
        idx_a = np.minimum((a / h).astype(int), 3)
        xi_a = 2 * (a - edges[idx_a]) / h - 1
        want = spectral.resample(np.interp(a, a, 0 * a), n_out)  # placeholder
        # direct evaluation of the same piecewise polynomial on the fine grid
        fine = uniform_alpha(2 * n_out)
        idx_f = np.minimum((fine / h).astype(int), 3)
        xi_f = 2 * (fine - edges[idx_f]) / h - 1
        ref = spectral.resample(0.3 * xi_f**7 - xi_f**2 + 0.1, n_out)
        assert np.abs(out - ref).max() < 1e-12

    def test_panel_interp_constant(self):
        out = panel_interp_to_uniform(np.ones(8 * 16), 8, 64, filt=False)
        assert np.abs(out - 1).max() < 1e-13

    def test_panel_interp_sin(self):
        g = panel_grid(8)
        vals = np.sin(g.alpha)
        out = panel_interp_to_uniform(vals, 8, 128)
        assert np.abs(out - np.sin(uniform_alpha(128))).max() < 1e-10


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
