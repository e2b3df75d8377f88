"""Periodic spectral utilities and composite Gauss-Legendre panel machinery.

Everything in this module works on samples taken at the equidistant nodes
alpha_i = 2*pi*i/N, i = 0..N-1, or on composite 16-point Gauss-Legendre
panels covering the same parameter interval [0, 2*pi).

It is the one home of every map between the package's grids: uniform to
GL panels (uniform_to_gl, gl_geometry), GL panels to uniform
(panel_interp_to_uniform), uniform to any parameters (fourier_interp), and
the equal-arclength parameter alpha_V (equal_arclength_parameter) with its
inverse (equal_arclength_nodes), the only cumulative-arclength code.

The uniform-grid transforms (spectral_derivative, resample, krasny_filter)
act along axis 0, so that one call transforms the k fields of an (N, k)
stack, each bit for bit as a call on it alone.  modes(n), the derivative
multipliers, the derivative matrix, panel_grid and both transfer
matrices are cached per size on first use (functools.cache), read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np
from numpy.polynomial.legendre import leggauss

MIN_POINTS = 32
PANEL_ORDER = 16
KRASNY_TOL = 1e-12
ARCLENGTH_TOL = 1e-12       # equal_arclength_nodes stops below this Newton step
ARCLENGTH_MAXITER = 100

# 16-point Gauss-Legendre rule on [-1, 1], shared by every panel.
GL_NODES, GL_WEIGHTS = leggauss(PANEL_ORDER)

# Barycentric weights of the reference nodes; backward-stable degree-15
# interpolation and differentiation on each panel.
_BARY_W = np.array([1.0 / np.prod(GL_NODES[k] - np.delete(GL_NODES, k))
                    for k in range(PANEL_ORDER)])


def _bary_diff_matrix() -> np.ndarray:
    d = np.zeros((PANEL_ORDER, PANEL_ORDER))
    for i in range(PANEL_ORDER):
        for j in range(PANEL_ORDER):
            if i != j:
                d[i, j] = (_BARY_W[j] / _BARY_W[i]) / (GL_NODES[i] - GL_NODES[j])
        d[i, i] = -d[i].sum()
    return d


# Differentiation matrix on the reference panel: (D f)(x_i) = f'(x_i).
DIFF16 = _bary_diff_matrix()


def uniform_alpha(n: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(n) / n


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@cache
def modes(n: int) -> np.ndarray:
    """Signed Fourier mode numbers in FFT layout."""
    return _read_only(np.fft.fftfreq(n, 1.0 / n).round().astype(int))


@cache
def _derivative_factor(n: int, order: int, ndim: int) -> np.ndarray:
    """(ik)^order along axis 0 of an ndim array.  The Nyquist mode is zeroed
    for odd orders, where it carries no usable phase information."""
    fac = (1j * modes(n)) ** order
    if n % 2 == 0 and order % 2 == 1:
        fac[n // 2] = 0.0
    return _read_only(fac).reshape((n,) + (1,) * (ndim - 1))


def spectral_derivatives(f, orders) -> tuple:
    """d^k f / d alpha^k for each k in orders, from one forward FFT."""
    vals = np.asarray(f)
    coef = np.fft.fft(vals, axis=0)
    out = (np.fft.ifft(coef * _derivative_factor(len(vals), k, vals.ndim),
                       axis=0) for k in orders)
    return tuple(d.real if np.isrealobj(vals) else d for d in out)


def spectral_derivative(f, order: int = 1) -> np.ndarray:
    """d^order f / d alpha^order via the discrete Fourier transform."""
    return spectral_derivatives(f, (order,))[0]


@cache
def derivative_matrix(n: int) -> np.ndarray:
    """The real n x n matrix D with D @ f = spectral_derivative(f), built from
    its first column: D is circulant, D[i, j] = D[(i - j) mod n, 0]."""
    k = np.arange(n)
    return _read_only(spectral_derivative(k == 0)[np.subtract.outer(k, k) % n])


def resample(f, new_n: int) -> np.ndarray:
    """Fourier zero-padding (upsample) or truncation (downsample) along axis 0.

    Constants are preserved exactly; band-limited inputs round-trip to
    machine precision.
    """
    vals = np.asarray(f)
    n = vals.shape[0]
    if new_n < 2:
        raise ValueError("new_n must be at least 2")
    if new_n == n:
        return vals.copy()
    coef = np.fft.fft(vals, axis=0) / n
    out = np.zeros((new_n,) + vals.shape[1:], dtype=complex)
    keep = min(n, new_n)
    h = keep // 2
    out[: h + (keep % 2)] = coef[: h + (keep % 2)]
    if h > 0:
        out[-h:] = coef[-h:]
    if keep % 2 == 0:
        # split the shared Nyquist mode symmetrically to keep real data real
        nyq = coef[h] if n <= new_n else coef[-h]
        if n < new_n:
            out[h] = 0.5 * nyq
            out[-h] = 0.5 * nyq
        elif n > new_n:
            out[h] = coef[h] + coef[-h] if new_n % 2 == 0 else coef[h]
    res = np.fft.ifft(out, axis=0) * new_n
    if np.isrealobj(vals):
        return res.real
    return res


def krasny_filter(f) -> np.ndarray:
    """Zero every Fourier mode whose amplitude |c_k| falls below KRASNY_TOL."""
    vals = np.asarray(f)
    n = vals.shape[0]
    coef = np.fft.fft(vals, axis=0) / n
    coef[np.abs(coef) < KRASNY_TOL] = 0.0
    out = np.fft.ifft(coef, axis=0) * n
    if np.isrealobj(vals):
        return out.real
    return out


def fourier_matrix(n: int, targets) -> np.ndarray:
    """Evaluation matrix of the trigonometric interpolant of n samples.

    fourier_matrix(n, t) @ fft(f) evaluates the interpolant of f at the
    parameters t.  The Nyquist mode of an even n is evaluated as
    cos(n/2 alpha), which keeps real data real.
    """
    t = np.atleast_1d(np.asarray(targets, dtype=float))
    E = np.exp(1j * np.outer(t, modes(n)))
    if n % 2 == 0:
        E[:, n // 2] = np.cos(n // 2 * t)
    return E / n


def fourier_interp(f, targets) -> np.ndarray:
    """Evaluate the trigonometric interpolant of f at arbitrary parameters.

    Direct Fourier-series evaluation through fourier_matrix, O(N * M).
    """
    vals = np.asarray(f)
    out = fourier_matrix(vals.shape[0], targets) @ np.fft.fft(vals)
    if np.isrealobj(vals):
        return out.real
    return out


@cache
def uniform_to_gl_matrix(n: int, n_panels: int) -> np.ndarray:
    """Cached fourier_matrix of n uniform samples at the panel layout.

    Its first 16*n_panels rows evaluate at the composite GL nodes, its last
    n_panels rows at the panel starts.
    """
    grid = panel_grid(n_panels)
    return _read_only(fourier_matrix(n, np.concatenate([grid.alpha,
                                                        grid.endpoints[:-1]])))


def uniform_to_gl(values, n_panels: int) -> np.ndarray:
    vals = np.asarray(values)
    out = (uniform_to_gl_matrix(vals.shape[0], n_panels)[:PANEL_ORDER * n_panels]
           @ np.fft.fft(vals))
    if np.isrealobj(vals):
        return out.real
    return out


def gl_geometry(z, n_panels: int):
    """A closed curve's z, z' and z'' at the composite GL nodes, from one FFT.

    Returns the (3, 16*n_panels) samples and z at the n_panels panel
    starts.  The derivatives multiply the Fourier coefficients by ik and
    (ik)^2; z' drops the Nyquist mode, as spectral_derivative does.
    """
    n, c = len(z), np.fft.fft(z)
    k = modes(n)
    out = uniform_to_gl_matrix(n, n_panels) @ np.stack(
        [c, _derivative_factor(n, 1, 1) * c, -(k * k) * c], axis=1)
    return out[:-n_panels].T, out[-n_panels:, 0]


def trapezoid(f) -> complex:
    """Spectrally accurate integral of periodic samples over [0, 2*pi)."""
    vals = np.asarray(f)
    return vals.sum() * (2.0 * np.pi / vals.shape[0])


def antiderivative(f) -> np.ndarray:
    """Periodic antiderivative of the zero-mean part of f.

    The returned samples have zero mean; the mean of f itself is dropped
    (it would produce a secular, non-periodic term).
    """
    vals = np.asarray(f)
    n = vals.shape[0]
    coef = np.fft.fft(vals)
    k = modes(n)
    out = np.zeros_like(coef)
    nz = k != 0
    out[nz] = coef[nz] / (1j * k[nz])
    if n % 2 == 0:
        out[n // 2] = 0.0
    res = np.fft.ifft(out)
    if np.isrealobj(vals):
        return res.real
    return res


def equal_arclength_parameter(speed):
    """alpha_V = 2 pi S/L, S the arclength from nu = 0, and the length L of
    a closed curve with speed |z_nu| on the uniform grid nu."""
    mean = speed.mean()
    osc = antiderivative(speed - mean)
    S = mean * uniform_alpha(speed.shape[0]) + (osc - osc[0])
    L = mean * 2 * np.pi
    return S * 2 * np.pi / L, L


def equal_arclength_nodes(speed, n: int) -> np.ndarray:
    """The n parameters nu_j at which alpha_V = 2 pi j/n: the inverse of
    equal_arclength_parameter, by Newton on the interpolant of alpha_V - nu
    and its derivative, one fourier_matrix product per iteration.  Raises
    RuntimeError unless a step falls below ARCLENGTH_TOL within
    ARCLENGTH_MAXITER iterations."""
    m = speed.shape[0]
    alpha_v, _ = equal_arclength_parameter(speed)
    c = np.fft.fft(alpha_v - uniform_alpha(m))
    coef = np.stack([c, _derivative_factor(m, 1, 1) * c], axis=1)
    t = target = uniform_alpha(n)
    for _ in range(ARCLENGTH_MAXITER):
        per, dper = (fourier_matrix(m, t) @ coef).real.T
        corr = (target - t - per) / (1.0 + dper)
        t = t + corr
        if np.abs(corr).max() < ARCLENGTH_TOL:
            return t
    raise RuntimeError(f"equal_arclength_nodes: Newton step "
                       f"{np.abs(corr).max():.3e} above ARCLENGTH_TOL")


@dataclass(frozen=True)
class PanelGrid:
    """Composite 16-point Gauss-Legendre grid on the parameter interval.

    alpha are the node parameter values; weights are the associated
    quadrature weights in parameter space.  Per-panel weights sum to the
    panel length.
    """

    alpha: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    endpoints: np.ndarray = field(repr=False)


@cache
def panel_grid(n_panels: int) -> PanelGrid:
    edges = np.linspace(0.0, 2.0 * np.pi, n_panels + 1)
    h = edges[1] - edges[0]
    alpha = (edges[:-1, None] + (GL_NODES[None, :] + 1.0) * h / 2.0).ravel()
    weights = np.tile(GL_WEIGHTS * h / 2.0, n_panels)
    return PanelGrid(alpha=_read_only(alpha), weights=_read_only(weights),
                     endpoints=_read_only(edges))


@cache
def panel_to_uniform_matrix(n_panels: int, n_out: int) -> np.ndarray:
    """Cached real matrix from composite GL samples to n_out uniform ones.

    Column j is the degree-15 interpolant of the unit sample at GL node j,
    barycentric on its own panel and zero on the others, evaluated at
    2*n_out uniform points and resampled to n_out.  The matrix is built
    one panel's 16 columns at a time.
    """
    n_fine = 2 * n_out
    fine_alpha = uniform_alpha(n_fine)
    edges = panel_grid(n_panels).endpoints
    h = edges[1] - edges[0]
    idx = np.minimum((fine_alpha / h).astype(int), n_panels - 1)
    blocks = []
    for p in range(n_panels):
        sel = idx == p
        xi = 2.0 * (fine_alpha[sel] - edges[p]) / h - 1.0
        diff = xi[:, None] - GL_NODES
        hit = np.isclose(diff, 0.0, atol=1e-15)
        diff[hit] = 1.0
        c = _BARY_W / diff
        c /= c.sum(axis=1)[:, None]
        rows, cols = np.nonzero(hit)
        c[rows] = np.eye(PANEL_ORDER)[cols]
        fine = np.zeros((n_fine, PANEL_ORDER))
        fine[sel] = c
        blocks.append(resample(fine, n_out))
    return _read_only(np.concatenate(blocks, axis=1))


def panel_interp_to_uniform(g, n_panels: int, n_out: int) -> np.ndarray:
    """Go from composite Gauss-Legendre samples back to the uniform grid.

    One product with the cached panel_to_uniform_matrix (each panel's
    degree-15 interpolant on twice the target resolution, downsampled to
    n_out points), then the Krasny filter.
    """
    vals = np.asarray(g)
    P = panel_to_uniform_matrix(n_panels, n_out)
    # P is real: applied to the real and imaginary parts apart, not cast
    if np.iscomplexobj(vals):
        return krasny_filter(P @ vals.real + 1j * (P @ vals.imag))
    return krasny_filter(P @ vals)
