"""Periodic spectral utilities and composite Gauss-Legendre panel machinery.

Everything in this module works on samples taken at the equidistant nodes
alpha_i = 2*pi*i/N, i = 0..N-1, or on composite 16-point Gauss-Legendre
panels covering the same parameter interval [0, 2*pi).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

MIN_POINTS = 32
PANEL_ORDER = 16
KRASNY_TOL = 1e-12

# 16-point Gauss-Legendre rule on [-1, 1], shared by every panel.
GL_NODES, GL_WEIGHTS = leggauss(PANEL_ORDER)

# Barycentric weights of the reference nodes; backward-stable degree-15
# interpolation and differentiation on each panel.
_BARY_W = np.array([1.0 / np.prod(GL_NODES[k] - np.delete(GL_NODES, k))
                    for k in range(PANEL_ORDER)])


def _bary_eval(fvals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate the degree-15 interpolant of nodal values at points x."""
    x = np.atleast_1d(x)
    diff = x[:, None] - GL_NODES[None, :]
    hit = np.isclose(diff, 0.0, atol=1e-15)
    diff[hit] = 1.0
    c = _BARY_W[None, :] / diff
    out = (c @ fvals) / c.sum(axis=1)
    rows, cols = np.nonzero(hit)
    out[rows] = fvals[cols]
    return out


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


def modes(n: int) -> np.ndarray:
    """Signed Fourier mode numbers in FFT layout."""
    return np.fft.fftfreq(n, 1.0 / n).round().astype(int)


def spectral_derivative(f, order: int = 1) -> np.ndarray:
    """d^order f / d alpha^order via the discrete Fourier transform.

    The Nyquist mode is zeroed for odd derivative orders, where it carries
    no usable phase information.
    """
    vals = np.asarray(f)
    n = vals.shape[0]
    k = modes(n)
    fac = (1j * k) ** order
    if n % 2 == 0 and order % 2 == 1:
        fac[n // 2] = 0.0
    out = np.fft.ifft(np.fft.fft(vals) * fac)
    if np.isrealobj(vals):
        return out.real
    return out


def resample(f, new_n: int) -> np.ndarray:
    """Fourier zero-padding (upsample) or truncation (downsample).

    Constants are preserved exactly; band-limited inputs round-trip to
    machine precision.
    """
    vals = np.asarray(f)
    n = vals.shape[0]
    if new_n < 2:
        raise ValueError("new_n must be at least 2")
    if new_n == n:
        return vals.copy()
    coef = np.fft.fft(vals) / n
    out = np.zeros(new_n, dtype=complex)
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
    res = np.fft.ifft(out) * new_n
    if np.isrealobj(vals):
        return res.real
    return res


def krasny_filter(f, tol: float = KRASNY_TOL) -> np.ndarray:
    """Zero every Fourier mode whose amplitude |c_k| falls below tol."""
    vals = np.asarray(f)
    n = vals.shape[0]
    coef = np.fft.fft(vals) / n
    coef[np.abs(coef) < tol] = 0.0
    out = np.fft.ifft(coef) * n
    if np.isrealobj(vals):
        return out.real
    return out


def fourier_interp(f, targets) -> np.ndarray:
    """Evaluate the trigonometric interpolant of f at arbitrary parameters.

    Direct Fourier-series evaluation, O(N * M).  Adequate at the problem
    sizes used here; a non-uniform FFT could be dropped in behind the same
    signature.
    """
    vals = np.asarray(f)
    n = vals.shape[0]
    t = np.atleast_1d(np.asarray(targets, dtype=float))
    coef = np.fft.fft(vals) / n
    k = modes(n)
    if n % 2 == 0:
        # treat the Nyquist mode symmetrically: cos(n/2 * a) behaviour
        coef = coef.copy()
        nyq = coef[n // 2]
        coef[n // 2] = 0.0
        extra = nyq * np.cos(n // 2 * t)
    else:
        extra = 0.0
    out = np.exp(1j * np.outer(t, k)) @ coef + extra
    if np.isrealobj(vals):
        return out.real
    return out


_GL_INTERP_CACHE = {}


def uniform_to_gl_matrix(n: int, n_panels: int) -> np.ndarray:
    """Cached dense evaluation matrix from the FFT of n uniform samples.

    Its first 16*n_panels rows evaluate at the composite GL nodes, its last
    n_panels rows at the panel starts.  The Nyquist mode of an even n is
    evaluated as cos(n/2 alpha).
    """
    key = (n, n_panels)
    M = _GL_INTERP_CACHE.get(key)
    if M is None:
        grid = panel_grid(n_panels)
        targets = np.concatenate([grid.alpha, grid.endpoints[:-1]])
        k = modes(n)
        E = np.exp(1j * np.outer(targets, k))
        if n % 2 == 0:
            E[:, n // 2] = np.cos(n // 2 * targets)
        M = E / n
        _GL_INTERP_CACHE[key] = M
    return M


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
    c1 = 1j * k * c
    if n % 2 == 0:
        c1[n // 2] = 0.0
    out = uniform_to_gl_matrix(n, n_panels) @ np.stack([c, c1, -(k * k) * c],
                                                       axis=1)
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


@dataclass(frozen=True)
class PanelGrid:
    """Composite 16-point Gauss-Legendre grid on the parameter interval.

    nodes16 are parameter values; weights are the associated quadrature
    weights in parameter space.  Per-panel weights sum to the panel length.
    """

    n_panels: int
    alpha: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    endpoints: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return 16 * self.n_panels


def panel_grid(n_panels: int) -> PanelGrid:
    edges = np.linspace(0.0, 2.0 * np.pi, n_panels + 1)
    h = edges[1] - edges[0]
    alpha = (edges[:-1, None] + (GL_NODES[None, :] + 1.0) * h / 2.0).ravel()
    weights = np.tile(GL_WEIGHTS * h / 2.0, n_panels)
    return PanelGrid(n_panels=n_panels, alpha=alpha, weights=weights, endpoints=edges)


def panel_interp_to_uniform(g, n_panels: int, n_out: int, filt: bool = True) -> np.ndarray:
    """Go from composite Gauss-Legendre samples back to the uniform grid.

    Each panel's degree-15 interpolant is evaluated on a uniform grid with
    twice the target resolution; the result is then downsampled to n_out
    points and Krasny-filtered.
    """
    vals = np.asarray(g)
    if vals.shape[0] != 16 * n_panels:
        raise ValueError("samples do not match the panel layout")
    n_fine = 2 * n_out
    fine_alpha = uniform_alpha(n_fine)
    edges = np.linspace(0.0, 2.0 * np.pi, n_panels + 1)
    h = edges[1] - edges[0]
    out = np.empty(n_fine, dtype=complex)
    idx = np.minimum((fine_alpha / h).astype(int), n_panels - 1)
    for p in range(n_panels):
        sel = idx == p
        if not np.any(sel):
            continue
        xi = 2.0 * (fine_alpha[sel] - edges[p]) / h - 1.0
        if np.any(xi < -1 - 1e-12) or np.any(xi > 1 + 1e-12):
            raise ValueError("target parameter outside all panels")
        out[sel] = _bary_eval(vals[16 * p: 16 * (p + 1)], xi)
    res = resample(out if np.iscomplexobj(vals) else out.real, n_out)
    if filt:
        res = krasny_filter(res)
    return res

