"""Interface state and differential geometry for closed drop boundaries.

Interfaces are stored clockwise on an equal-arclength parameter grid
(alpha in [0, 2*pi)); with that convention the inward unit normal is
-i z'/|z'| and the curvature of a circle is negative.  The grid maps,
the equal-arclength one included, live in spectral; to_equal_arclength
only applies it to an Interface.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .spectral import (MIN_POINTS, PANEL_ORDER, antiderivative,
                       equal_arclength_nodes, fourier_interp, krasny_filter,
                       read_only, resample, spectral_derivatives, trapezoid,
                       uniform_alpha)

REFINE = 4                  # refined points per node in min_distance


@dataclass(frozen=True)
class Interface:
    """One closed drop boundary.

    z holds complex positions at the equidistant-in-arclength nodes,
    traversed clockwise (negative signed area).  lam is the viscosity
    ratio of the drop interior to the bulk; this is its only home, and
    stokes.solve_density reads it from here.  Construction checks only
    the grid (N >= 32, a multiple of 16) and lam >= 0: orientation,
    simplicity and disjointness are checked by harness.check_drops when
    drops enter a run, and crossings after every accepted step.

    z' and z'' are computed once per object, from one FFT of z on first
    use, as read-only arrays that every geometric quantity reads.
    """

    z: np.ndarray
    lam: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.z, dtype=complex)
        n = vals.shape[0]
        # the uniform grid must split into whole 16-point GL panels
        if n < MIN_POINTS:
            raise ValueError(f"need at least {MIN_POINTS} points, got {n}")
        if n % PANEL_ORDER != 0:
            raise ValueError(f"N={n} is not divisible by {PANEL_ORDER}")
        object.__setattr__(self, "z", vals)
        if not 0 <= self.lam < np.inf:
            raise ValueError("viscosity ratio must be finite and "
                             f"nonnegative, not {self.lam}")

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def alpha(self) -> np.ndarray:
        return uniform_alpha(self.n)

    @cached_property
    def _derivatives(self):
        return tuple(map(read_only, spectral_derivatives(self.z, (1, 2))))

    def z_alpha(self) -> np.ndarray:
        return self._derivatives[0]

    def z_alpha2(self) -> np.ndarray:
        return self._derivatives[1]

    def length(self) -> float:
        return float(np.real(trapezoid(np.abs(self.z_alpha()))))

    def signed_area(self) -> float:
        """Negative when clockwise."""
        return float(0.5 * np.real(trapezoid(np.imag(np.conj(self.z)
                                                     * self.z_alpha()))))

    def area(self) -> float:
        return abs(self.signed_area())


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


def modified_tangential_velocity(iface: Interface, u) -> VelocityDecomposition:
    """Tangential velocity that keeps the nodes equidistant in arclength.

    With h = Im(z''/z') u_n, the modified tangential velocity is the
    periodic antiderivative of mean(h) - h, normalized so u_t_mod(0) = 0;
    both integrals reduce to FFTs.
    """
    w = np.asarray(u) * np.conj(normals(iface))
    u_n, u_t = w.real, w.imag
    zp = iface.z_alpha()
    zpp = iface.z_alpha2()
    h = np.imag(zpp / zp) * u_n
    H = antiderivative(h - h.mean())
    u_t_mod = H[0] - H
    return VelocityDecomposition(u_n=u_n, u_t=u_t, u_t_mod=u_t_mod)


def deformation_number(iface: Interface) -> float:
    """D = (R_max - R_min)/(R_max + R_min) about the boundary centroid."""
    c = iface.z.mean()
    r = np.abs(iface.z - c)
    return float((r.max() - r.min()) / (r.max() + r.min()))


def min_distance(a: Interface, b: Interface) -> float:
    """Minimum point distance between two interfaces on refined grids.

    Each refined grid holds a block of REFINE points per node, starting
    at the node.  The nodes are refined points, so the smallest node
    distance d0 bounds the result, and the closest refined pair lies in
    the blocks of nodes within d0 + r_a + r_b of the other drop, r being
    the largest distance of a refined point from its block's node.  Only
    those blocks are compared (the reach is doubled against rounding), so
    the result equals the minimum over all refined pairs.
    """
    fa, ra = _refine(a.z)
    fb, rb = _refine(b.z)
    dz = np.abs(a.z[:, None] - b.z[None, :])
    reach = dz.min() + 2 * (ra + rb)
    za = fa[dz.min(axis=1) <= reach].ravel()
    zb = fb[dz.min(axis=0) <= reach].ravel()
    rows = max(1, dz.size // zb.size)    # no block beyond N_a x N_b
    return float(min(np.abs(za[s:s + rows, None] - zb).min()
                     for s in range(0, za.size, rows)))


def _refine(z):
    """Refined grid, one row of REFINE points per node, and the largest
    distance of a point from its row's node."""
    fine = resample(z, REFINE * z.size).reshape(-1, REFINE)
    return fine, np.abs(fine - z[:, None]).max()


def _cross(u, v):
    """z-component of the cross product of 2-vectors stored as complex."""
    return u.real * v.imag - u.imag * v.real


def _close_segments(za, zb) -> np.ndarray:
    """Mask of the segment pairs of closed polylines za, zb that may cross.

    Crossing segments have midpoints at most the longest segment apart;
    the cull keeps twice that, far beyond rounding.  Sums of endpoints
    stand for the midpoints.
    """
    ea, eb = np.roll(za, -1), np.roll(zb, -1)
    reach = max(np.abs(ea - za).max(), np.abs(eb - zb).max())
    return np.abs((za + ea)[:, None] - (zb + eb)[None, :]) <= 4 * reach


def _any_crossing(za, zb, close) -> bool:
    """Whether segment i of za properly crosses segment j of zb for some
    pair (i, j) in the mask close: each segment's ends lie strictly on
    both sides of the other's line."""
    i, j = np.nonzero(close)
    a, b = za[i], np.roll(za, -1)[i]
    c, d = zb[j], np.roll(zb, -1)[j]
    d1 = _cross(b - a, c - a)
    d2 = _cross(b - a, d - a)
    d3 = _cross(d - c, a - c)
    d4 = _cross(d - c, b - c)
    return bool(np.any((d1 * d2 < 0) & (d3 * d4 < 0)))


def self_intersects(iface: Interface) -> bool:
    """Whether two non-adjacent segments of the node polygon cross."""
    # segments that share a node (also 0 and N-1) have a zero cross
    # product there and never pass the strict test
    z = iface.z
    return _any_crossing(z, z, np.triu(_close_segments(z, z), 2))


def interfaces_cross(a: Interface, b: Interface) -> bool:
    """Whether a segment of a's node polygon crosses one of b's."""
    return _any_crossing(a.z, b.z, _close_segments(a.z, b.z))


def circle(n: int, radius: float = 1.0, center: complex = 0.0,
           lam: float = 0.0, phase: float = 0.0) -> Interface:
    """Clockwise circle on the equidistant grid; node 0 sits at angle phase."""
    a = uniform_alpha(n)
    return Interface(z=center + radius * np.exp(1j * (phase - a)), lam=lam)


def ellipse(n: int, a_axis: float, b_axis: float, center: complex = 0.0,
            lam: float = 0.0) -> Interface:
    """Clockwise ellipse reparametrized to equal arclength."""
    m = max(8 * n, 4096)
    t = uniform_alpha(m)
    z = center + a_axis * np.cos(t) - 1j * b_axis * np.sin(t)
    return to_equal_arclength(Interface(z=resample(z, n), lam=lam))


def to_equal_arclength(iface: Interface) -> Interface:
    """Reparametrize so the nodes are equidistant in arclength: z's
    trigonometric interpolant at spectral.equal_arclength_nodes, then the
    Krasny filter."""
    t = equal_arclength_nodes(np.abs(iface.z_alpha()), iface.n)
    return replace(iface, z=krasny_filter(fourier_interp(iface.z, t)))
