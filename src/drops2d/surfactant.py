"""Insoluble surfactant transport on drop interfaces.

Concentration lives on the same equidistant parameter grid as the
interface.  Convection and stretching are treated explicitly and
pseudo-spectrally, surface diffusion implicitly; with Pe = inf the
implicit stage is skipped entirely.

A field holds its samples and a reference to the run's stokes.FlowConfig,
the one home of the material parameters E, Pe and eos.

Products are de-aliased by 3/2 zero-padding (Orszag 1971) and the Krasny
filter, in batches: rhs_explicit pads its six factors in one resample of a
stack, truncates and filters its three products in one more, and only the
nested rho (u_n kappa) takes a second round; bit for bit the same as
de-aliasing each product alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import Interface, VelocityDecomposition, curvature
from .spectral import (krasny_filter, modes, resample, spectral_derivative,
                       trapezoid)
from .stokes import FlowConfig


@dataclass(frozen=True)
class SurfactantField:
    """Concentration samples plus the FlowConfig whose E, Pe and eos
    they obey (default: E 0.5, Pe inf, linear)."""

    rho: np.ndarray
    flow: FlowConfig = FlowConfig()

    def __post_init__(self):
        vals = np.asarray(self.rho, dtype=float)
        object.__setattr__(self, "rho", vals)
        if np.any(vals < 0):
            raise ValueError("surfactant concentration must be nonnegative")
        if self.flow.eos == "langmuir" and np.any(vals >= 1):
            raise ValueError("langmuir equation of state needs rho < 1")

    @property
    def n(self):
        return self.rho.shape[0]


def surface_tension(f: SurfactantField) -> np.ndarray:
    """sigma(rho): 1 - E rho (linear) or 1 + E log(1 - rho) (langmuir);
    stepper.check_tension requires it positive."""
    if f.flow.eos == "linear":
        return 1.0 - f.flow.E * f.rho
    return 1.0 + f.flow.E * np.log(1.0 - f.rho)


def rhs_explicit(iface: Interface, f: SurfactantField,
                 decomp: VelocityDecomposition) -> np.ndarray:
    """Convection and stretching terms of the transport equation.

    f_E = (u_t_mod/s_a) rho_a - (1/s_a) (rho u_t)_a - rho u_n kappa,
    with s_a = L/(2 pi); products are de-aliased by 3/2 padding.
    """
    m = 3 * f.n // 2
    s_a = iface.length() / (2 * np.pi)
    u_tm, rho_a, rho, u_t, u_n, kap = resample(np.stack(
        [decomp.u_t_mod, spectral_derivative(f.rho, 1), f.rho, decomp.u_t,
         decomp.u_n, curvature(iface)], axis=1), m).T
    p1, p2, w = krasny_filter(resample(np.stack(
        [u_tm * rho_a, rho * u_t, u_n * kap], axis=1), f.n)).T
    t1 = p1 / s_a
    t2 = spectral_derivative(p2, 1) / s_a
    t3 = krasny_filter(resample(rho * resample(w, m), f.n))
    return krasny_filter(t1 - t2 - t3)


def implicit_factor(n: int, s_alpha: float, Pe: float, dt_coeff: float) -> np.ndarray:
    """Fourier multipliers of (1 - dt_coeff * diffusion)^{-1}, Pe finite."""
    j = modes(n)
    return 1.0 / (1.0 + dt_coeff * j.astype(float) ** 2 / (Pe * s_alpha**2))


def rhs_implicit_solve(rhs_samples, s_alpha: float, Pe: float,
                       dt_coeff: float) -> np.ndarray:
    """Mode-wise exact solve of (1 - dt_coeff * D) rho = rhs."""
    vals = np.asarray(rhs_samples, dtype=float)
    if not np.isfinite(Pe):
        return vals.copy()
    coef = np.fft.fft(vals) * implicit_factor(vals.shape[0], s_alpha, Pe, dt_coeff)
    return np.fft.ifft(coef).real


def rhs_implicit_apply(f: SurfactantField, s_alpha: float) -> np.ndarray:
    """Diffusion term (1/(Pe s_a^2)) rho_aa; zero when Pe = inf."""
    if not np.isfinite(f.flow.Pe):
        return np.zeros(f.n)
    return spectral_derivative(f.rho, 2) / (f.flow.Pe * s_alpha**2)


def surfactant_mass(iface: Interface, f: SurfactantField) -> float:
    """Trapezoidal surface integral of rho, spectrally accurate."""
    sp = np.abs(iface.z_alpha())
    return float(np.real(trapezoid(f.rho * sp)))


def with_rho(f: SurfactantField, rho) -> SurfactantField:
    return replace(f, rho=np.asarray(rho, dtype=float))
