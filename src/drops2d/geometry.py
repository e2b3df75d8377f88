"""Interface state and differential geometry for closed drop boundaries.

Interfaces are stored clockwise on an equal-arclength parameter grid
(alpha in [0, 2*pi)); with that convention the inward unit normal is
-i z'/|z'| and the curvature of a circle is negative.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .spectral import (MIN_POINTS, PANEL_ORDER, antiderivative,
                       fourier_interp, krasny_filter, resample,
                       spectral_derivative, trapezoid, uniform_alpha)

EQUIDISTANT_RTOL = 1e-3


@dataclass(frozen=True)
class Interface:
    """One closed drop boundary.

    z holds complex positions at the equidistant-in-arclength nodes,
    traversed clockwise (negative signed area).  lam is the viscosity
    ratio of the drop interior to the bulk; this is its only home, and
    stokes.solve_density reads it from here.
    """

    z: np.ndarray
    lam: float = 0.0
    id: int = 0
    check: bool = True

    def __post_init__(self):
        vals = np.asarray(self.z, dtype=complex)
        n = vals.shape[0]
        # the uniform grid must split into whole 16-point GL panels
        if n < MIN_POINTS:
            raise ValueError(f"need at least {MIN_POINTS} points, got {n}")
        if n % PANEL_ORDER != 0:
            raise ValueError(f"N={n} is not divisible by {PANEL_ORDER}")
        object.__setattr__(self, "z", vals)
        if self.lam < 0:
            raise ValueError("viscosity ratio must be nonnegative")
        if self.check:
            if signed_area(vals) >= 0:
                raise ValueError("interface must be traversed clockwise")
            sp = point_spacing(vals)
            dev = np.abs(sp - sp.mean()).max() / sp.mean()
            if dev > 10 * EQUIDISTANT_RTOL:
                raise ValueError(f"nodes far from equidistant (rel dev {dev:.2e})")

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def alpha(self) -> np.ndarray:
        return uniform_alpha(self.n)

    def z_alpha(self) -> np.ndarray:
        return spectral_derivative(self.z, 1)

    def z_alpha2(self) -> np.ndarray:
        return spectral_derivative(self.z, 2)

    def length(self) -> float:
        return float(np.real(trapezoid(np.abs(self.z_alpha()))))

    def area(self) -> float:
        return abs(signed_area(self.z))

    def spacing(self) -> float:
        return self.length() / self.n


@dataclass(frozen=True)
class VelocityDecomposition:
    """Normal/tangential split of an interface velocity field.

    The interface moves with [u_n + i*u_t_mod] n, which shares the normal
    motion of the physical velocity [u_n + i*u_t] n but redistributes
    points so they stay equidistant in arclength.
    """

    u_n: np.ndarray
    u_t: np.ndarray
    u_t_mod: np.ndarray


def signed_area(z) -> float:
    zp = spectral_derivative(z, 1)
    return float(0.5 * np.real(trapezoid(np.imag(np.conj(z) * zp))))


def point_spacing(z) -> np.ndarray:
    return np.abs(np.roll(z, -1) - z)


def normals(iface: Interface) -> np.ndarray:
    """Inward unit normals; -i z'/|z'| for clockwise traversal."""
    zp = iface.z_alpha()
    mag = np.abs(zp)
    if np.any(mag == 0):
        raise ValueError("degenerate curve: zero tangent")
    return -1j * zp / mag


def curvature(iface: Interface) -> np.ndarray:
    """Signed curvature; equals -1/R on a clockwise circle of radius R."""
    zp = iface.z_alpha()
    zpp = iface.z_alpha2()
    mag = np.abs(zp)
    if np.any(mag == 0):
        raise ValueError("degenerate curve: zero tangent")
    return np.imag(np.conj(zp) * zpp) / mag**3


def decompose_velocity(iface: Interface, u) -> tuple[np.ndarray, np.ndarray]:
    n = normals(iface)
    w = np.asarray(u) * np.conj(n)
    return w.real, w.imag


def modified_tangential_velocity(iface: Interface, u) -> VelocityDecomposition:
    """Tangential velocity that keeps the nodes equidistant in arclength.

    With h = Im(z''/z') u_n, the modified tangential velocity is the
    periodic antiderivative of mean(h) - h, normalized so u_t_mod(0) = 0;
    both integrals reduce to FFTs.
    """
    u_n, u_t = decompose_velocity(iface, u)
    zp = iface.z_alpha()
    zpp = iface.z_alpha2()
    h = np.imag(zpp / zp) * u_n
    H = antiderivative(h - h.mean())
    u_t_mod = H[0] - H
    return VelocityDecomposition(u_n=u_n, u_t=u_t, u_t_mod=u_t_mod)


def advance_positions(iface: Interface, decomp: VelocityDecomposition,
                      dt: float, check: bool = False) -> Interface:
    """Euler building block: move along [u_n + i u_t_mod] n."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = normals(iface)
    znew = iface.z + dt * (decomp.u_n + 1j * decomp.u_t_mod) * n
    return replace(iface, z=krasny_filter(znew), check=check)


def adapt_resolution(iface: Interface, fields=(), ds_target: float = None,
                     grow: float = 1.2, shrink: float = 0.5):
    """Double or halve N to keep the mean spacing near ds_target.

    All associated periodic fields are resampled identically.  N stays
    a multiple of 16 and at least 32 by construction (factor-2 moves).
    """
    if ds_target is None:
        return iface, tuple(fields)
    ds = iface.spacing()
    n = iface.n
    if ds > grow * ds_target:
        new_n = 2 * n
    elif ds < shrink * ds_target and n >= 64:
        new_n = n // 2
    else:
        return iface, tuple(fields)
    znew = resample(iface.z, new_n)
    out_fields = tuple(resample(f, new_n) for f in fields)
    return replace(iface, z=znew, check=False), out_fields


def deformation_number(iface: Interface) -> float:
    """D = (R_max - R_min)/(R_max + R_min) about the boundary centroid."""
    c = iface.z.mean()
    r = np.abs(iface.z - c)
    return float((r.max() - r.min()) / (r.max() + r.min()))


def min_distance(a: Interface, b: Interface, refine: int = 4) -> float:
    """Minimum point distance between two interfaces on refined grids."""
    za = resample(a.z, refine * a.n)
    zb = resample(b.z, refine * b.n)
    return float(np.abs(za[:, None] - zb[None, :]).min())


def _cross(u, v):
    """z-component of the cross product of 2-vectors stored in the last axis."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def self_intersects(iface: Interface) -> bool:
    """Coarse segment-pair test for self-intersection."""
    z = iface.z
    n = z.shape[0]
    p = np.stack([z.real, z.imag], axis=1)
    q = np.roll(p, -1, axis=0)
    js = np.arange(n)
    for i in range(n):
        a, b = p[i], q[i]
        mask = (js != i) & (js != (i - 1) % n) & (js != (i + 1) % n)
        c, d = p[mask], q[mask]
        d1 = _cross(b - a, c - a)
        d2 = _cross(b - a, d - a)
        d3 = _cross(d - c, a - c)
        d4 = _cross(d - c, b - c)
        if np.any((d1 * d2 < 0) & (d3 * d4 < 0)):
            return True
    return False


def circle(n: int, radius: float = 1.0, center: complex = 0.0,
           lam: float = 0.0, id: int = 0) -> Interface:
    """Clockwise circle on the equidistant grid."""
    a = uniform_alpha(n)
    return Interface(z=center + radius * np.exp(-1j * a), lam=lam, id=id)


def ellipse(n: int, a_axis: float, b_axis: float, center: complex = 0.0,
            lam: float = 0.0, id: int = 0, tol: float = 1e-12) -> Interface:
    """Clockwise ellipse reparametrized to equal arclength."""
    m = max(8 * n, 4096)
    t = uniform_alpha(m)
    z = center + a_axis * np.cos(t) - 1j * b_axis * np.sin(t)
    iface = Interface(z=resample(z, n), lam=lam, id=id, check=False)
    iface = to_equal_arclength(iface, tol=tol)
    return replace(iface, lam=lam, id=id)


def to_equal_arclength(iface: Interface, tol: float = 1e-12,
                       maxiter: int = 100) -> Interface:
    """Reparametrize so the nodes are equidistant in arclength.

    Newton iteration on the parameter map: sample the trigonometric
    interpolant at parameters where the cumulative arclength is uniform.
    """
    z0 = iface.z
    n = z0.shape[0]
    alpha = uniform_alpha(n)
    zp0 = spectral_derivative(z0, 1)
    sp_abs = np.abs(zp0)
    total = float(np.real(trapezoid(sp_abs)))

    def cumlen(t):
        # cumulative arclength of the original parametrization at t
        sp_t = np.abs(fourier_interp(zp0, t))
        mean = total / (2 * np.pi)
        osc = antiderivative(np.abs(zp0) - mean)
        osc_t = fourier_interp(osc, t)
        osc_0 = fourier_interp(osc, np.array([0.0]))[0]
        return mean * t + (osc_t - osc_0), sp_t

    t = alpha.copy()
    target = total * alpha / (2 * np.pi)
    for _ in range(maxiter):
        cum, sp_t = cumlen(t)
        corr = (target - cum) / sp_t
        t = t + corr
        if np.abs(corr).max() < tol:
            break
    zs = krasny_filter(fourier_interp(z0, t))
    return replace(iface, z=zs, check=False)
