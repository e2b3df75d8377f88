"""Boundary-integral solver for drops in 2D Stokes flow.

The velocity is represented by a complex layer density mu sampled on
composite 16-point Gauss-Legendre grids, one per drop.  Interfaces are
stored clockwise; with quadrature weights w the interfacial velocity is

    u = -(w/pi) mu' - (1/pi) sum_{j!=i} (mu_j - mu_i) w_j Re{z'_j/(z_j-z_i)}
        - (1/(i pi)) sum_j conj(mu_j) M2_ij + (Q + iB) conj(z) - (iG/2) z,

and the stress balance on a drop with viscosity ratio lambda reads

    2 i lambda mu + (1 - lambda) [u + 2 f] = -(i/2) sigma z'/|z'|,

with f the fluid-side limit of the Cauchy transform of mu.  Each drop
adds three real gauge unknowns (a real multiple of z and a complex
constant on its own nodes) and one real row asking for zero net normal
flux through it.  solve_density solves the resulting real
(2N + n_d) x (2N + 3 n_d) system by weighted least squares.

The minus signs on the integral sums are the orientation cost of storing
interfaces clockwise.  The sign set is pinned by four independent
physical checks: a circular interface under uniform tension is
stationary, a clean ellipse relaxes toward a circle, Marangoni flow runs
from low to high surface tension, and an isolated drop in extension moves
with u.n = 2 Q cos(2 theta)/(1 + lambda).

Matrix-vector products use direct dense summation behind a small
acceleration interface; near-singular cross-interface blocks are replaced
by the special quadrature of the neareval module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from . import neareval
from .spectral import (DIFF16, fourier_interp, panel_derivative, panel_grid,
                       uniform_to_gl)

DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class FlowConfig:
    """Far-field and material parameters.

    Q is the extensional rate (capillary number), B and G the shear
    parameters of the linear far field.  E and Pe describe the surfactant
    (Pe = inf disables surface diffusion); eos selects the equation of
    state.  Viscosity ratios are per drop and live on Interface.lam.
    """

    Q: float = 0.0
    B: float = 0.0
    G: float = 0.0
    E: float = 0.5
    Pe: float = np.inf
    eos: str = "linear"

    def __post_init__(self):
        for v, name in ((self.Q, "Q"), (self.B, "B"), (self.G, "G")):
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite")
        if self.eos not in ("linear", "langmuir"):
            raise ValueError("eos must be 'linear' or 'langmuir'")
        if not (self.Pe > 0):
            raise ValueError("Pe must be positive (np.inf allowed)")
        if self.eos == "langmuir" and not (0 < self.E < 1):
            raise ValueError("langmuir needs 0 < E < 1")


class SolverError(RuntimeError):
    def __init__(self, msg, residuals=None):
        super().__init__(msg)
        self.residuals = residuals or []


@dataclass
class DensitySolution:
    mu: np.ndarray
    residual: float
    iterations: int


@dataclass
class Discretization:
    """Composite Gauss-Legendre view of a set of interfaces."""

    ifaces: list
    z: np.ndarray
    zp: np.ndarray
    zpp: np.ndarray
    w: np.ndarray
    drop_of: np.ndarray
    n_panels: list
    panel_slices: list = field(default_factory=list)
    panel_drop: list = field(default_factory=list)
    panels: list = field(default_factory=list)
    offsets: list = field(default_factory=list)

    @property
    def n(self):
        return self.z.shape[0]


def discretize(ifaces) -> Discretization:
    """Interpolate interface geometry onto the composite GL grids."""
    zs, zps, zpps, ws, drops = [], [], [], [], []
    n_panels, slices, pdrop, panels, offsets = [], [], [], [], []
    off = 0
    for k, ifc in enumerate(ifaces):
        npan = ifc.n // 16
        grid = panel_grid(npan)
        zp_u = ifc.z_alpha()
        zpp_u = ifc.z_alpha2()
        z_gl = uniform_to_gl(ifc.z, npan)
        zp_gl = uniform_to_gl(zp_u, npan)
        zpp_gl = uniform_to_gl(zpp_u, npan)
        z_edges = fourier_interp(ifc.z, grid.endpoints[:-1])
        z_edges = np.append(z_edges, z_edges[0])
        zs.append(z_gl)
        zps.append(zp_gl)
        zpps.append(zpp_gl)
        ws.append(grid.weights)
        drops.append(np.full(z_gl.shape[0], k))
        n_panels.append(npan)
        for p in range(npan):
            sl = slice(off + 16 * p, off + 16 * (p + 1))
            slices.append(sl)
            pdrop.append(k)
            panels.append(neareval.prepare_panel(
                z_gl[16 * p:16 * (p + 1)], zp_gl[16 * p:16 * (p + 1)],
                grid.weights[16 * p:16 * (p + 1)],
                z_edges[p], z_edges[p + 1]))
        offsets.append(off)
        off += z_gl.shape[0]
    return Discretization(
        ifaces=list(ifaces),
        z=np.concatenate(zs), zp=np.concatenate(zps), zpp=np.concatenate(zpps),
        w=np.concatenate(ws), drop_of=np.concatenate(drops),
        n_panels=n_panels, panel_slices=slices, panel_drop=pdrop,
        panels=panels, offsets=offsets)


def sigma_to_gl(ifaces, sigma_uniform) -> np.ndarray:
    """Interpolate per-drop uniform surface tension to the GL grids."""
    out = []
    for ifc, sig in zip(ifaces, sigma_uniform):
        out.append(uniform_to_gl(np.asarray(sig, dtype=float), ifc.n // 16))
    return np.concatenate(out)


def _near_pairs(disc: Discretization):
    """Cross-drop point-panel pairs requiring special quadrature, with frames."""
    pairs = []
    centers = np.array([0.5 * (p.za + p.zb) for p in disc.panels])
    lengths = np.array([p.length for p in disc.panels])
    for ip, panel in enumerate(disc.panels):
        d = np.abs(disc.z - centers[ip])
        cand = np.nonzero(d < (neareval.CULL_FACTOR + 0.75) * lengths[ip])[0]
        for i in cand:
            if disc.drop_of[i] == disc.panel_drop[ip]:
                continue
            frame = neareval.needs_correction(panel, disc.z[i], 1.0)
            if frame is not None:
                pairs.append((i, ip, frame))
    return pairs


def layer_matrices(z, zp, zpp, w):
    """Weighted dense kernels of the layer potential on one node set.

    Returns (C, M1, M2) with, for i != j,

        C_ij  = w_j z'_j/(z_j - z_i)
        M1_ij = Im C_ij
        M2_ij = w_j Im{z'_j conj(z_j - z_i)}/conj(z_j - z_i)^2.

    C has a zero diagonal (the sums that use it subtract the singularity);
    M1 and M2 carry their smooth diagonal limits.
    """
    dz = z[None, :] - z[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        C = zp[None, :] / dz
        cj = np.conj(dz)
        M2 = np.imag(zp[None, :] * cj) / cj**2
    M1 = C.imag.copy()
    idx = np.arange(z.shape[0])
    C[idx, idx] = 0.0
    M1[idx, idx] = np.imag(zpp / (2 * zp))
    M2[idx, idx] = np.imag(zpp * np.conj(zp)) / (2 * np.conj(zp) ** 2)
    return C * w[None, :], M1 * w[None, :], M2 * w[None, :]


class DirectKernels:
    """Dense kernel matrices with near-singular corrections folded in.

    This is the direct O(N^2) acceleration backend; a fast summation
    method could replace it behind the same apply_* methods.
    """

    def __init__(self, disc: Discretization, correct: bool = True):
        self.disc = disc
        self.CAU, self.M1, self.M2 = layer_matrices(disc.z, disc.zp,
                                                    disc.zpp, disc.w)
        self.pairs = _near_pairs(disc) if correct else []
        for i, ip, frame in self.pairs:
            sl = disc.panel_slices[ip]
            r1, rJ2, rJ3 = neareval.kernel_rows(disc.panels[ip], frame)
            self.M1[i, sl] = np.imag(r1)
            self.M2[i, sl] = 0.5j * (np.conj(rJ2) + np.conj(rJ3))
            self.CAU[i, sl] = r1
        self.K1re = np.ascontiguousarray(self.CAU.real)

    def apply_m1(self, mu):
        return self.M1 @ mu

    def apply_m2_conj(self, mu):
        return self.M2 @ np.conj(mu)

    def apply_re_subtracted(self, mu):
        return self.K1re @ mu - self.K1re.sum(axis=1) * mu


def _diff_operator(disc: Discretization) -> np.ndarray:
    """Block-diagonal per-panel differentiation matrix d/d alpha."""
    N = disc.n
    D = np.zeros((N, N))
    off = 0
    for k in range(len(disc.ifaces)):
        npan = disc.n_panels[k]
        h = 2 * np.pi / npan
        for p in range(npan):
            sl = slice(off + 16 * p, off + 16 * (p + 1))
            D[sl, sl] = (2 / h) * DIFF16
        off += 16 * npan
    return D


def _velocity_operators(disc: Discretization, kernels: DirectKernels):
    """Dense (C-linear, anti-linear) parts of the layer velocity."""
    w = disc.w
    D = _diff_operator(disc)
    Kre = kernels.K1re
    U_lin = (-(w[:, None] / np.pi) * D
             - (Kre - np.diag(Kre.sum(axis=1))) / np.pi)
    U_conj = -kernels.M2 / (1j * np.pi)
    return U_lin, U_conj, D


def solve_density(ifaces, sigma_gl, cfg: FlowConfig, tol: float = DEFAULT_TOL,
                  disc: Discretization = None, kernels: DirectKernels = None,
                  mu0: np.ndarray = None) -> DensitySolution:
    """Solve the interfacial stress balance for the layer density.

    sigma_gl holds surface tension samples on the composite GL grid (all
    drops concatenated); each drop's viscosity ratio is its Interface.lam.
    The stress balance is real-linear in mu (the conjugate-density terms
    are antilinear), so it is split into real and imaginary parts: 2N rows
    of stress balance plus one zero-net-flux row per drop, against 2N
    density unknowns plus three gauge columns per drop (-z, -1 and -i on
    that drop's nodes).  This real (2N + n_d) x (2N + 3 n_d) system is
    underdetermined; it is solved by pivoted-QR least squares (gelsy)
    with the density columns weighted so that the minimum-norm solution
    minimizes the discrete integral of |mu|^2 ds plus the squared gauge
    coefficients.  That gauge does not depend on the resolution.  The
    solve is direct: tol and mu0 are not used.  A residual above 1e-8
    (relative 1e-10 for large data) raises SolverError.
    """
    if disc is None:
        disc = discretize(ifaces)
    N = disc.n
    nd = len(ifaces)
    z, zp, w = disc.z, disc.zp, disc.w
    lam = np.array([ifc.lam for ifc in ifaces])[disc.drop_of]
    if np.all(lam == 1.0):
        # the balance collapses to the exact identity (canonical gauge)
        mu = -0.25 * sigma_gl * zp / np.abs(zp)
        return DensitySolution(mu=mu, residual=0.0, iterations=0)
    if kernels is None:
        kernels = DirectKernels(disc)
    U_lin, U_conj, D = _velocity_operators(disc, kernels)
    CAU = kernels.CAU
    # fluid-side limit of the Cauchy transform (constants cancel):
    # 2 f(mu) = (1/pi) [sum_{j != i} (mu_j - mu_i) CAU_ij + w_i mu'_i]
    F2_lin = (CAU - np.diag(CAU.sum(axis=1)) + w[:, None] * D) / np.pi
    oml = (1.0 - lam)[:, None]
    L = np.diag(2j * lam) + oml * (U_lin + F2_lin)
    A_conj = oml * U_conj
    tau = zp / np.abs(zp)
    far = (cfg.Q + 1j * cfg.B) * np.conj(z) - 0.5j * cfg.G * z
    rhs = -0.5j * sigma_gl * tau - oml[:, 0] * far

    ncol = 2 * N + 3 * nd
    A = np.zeros((2 * N + nd, ncol))
    A[:N, :N] = L.real + A_conj.real
    A[:N, N:2 * N] = -L.imag + A_conj.imag
    A[N:2 * N, :N] = L.imag + A_conj.imag
    A[N:2 * N, N:2 * N] = L.real - A_conj.real
    b = np.zeros(2 * N + nd)
    b[:N] = rhs.real
    b[N:2 * N] = rhs.imag
    n_in = -1j * tau
    for k in range(nd):
        sel = disc.drop_of == k
        cols = (-z * sel, -1.0 * sel + 0j, -1j * sel + 0j)
        for j, colc in enumerate(cols):
            A[:N, 2 * N + 3 * k + j] = colc.real
            A[N:2 * N, 2 * N + 3 * k + j] = colc.imag
        wt = sel * w * np.abs(zp)
        avec = np.conj(n_in) * wt
        rc = avec @ U_lin
        ra = avec @ U_conj
        A[2 * N + k, :N] = rc.real + ra.real
        A[2 * N + k, N:2 * N] = -rc.imag + ra.imag
        b[2 * N + k] = -np.sum(wt * np.real(far * np.conj(n_in)))
    # weight the density unknowns so the minimum-norm gauge minimizes the
    # continuous integral of |mu|^2 ds: the selected gauge is then
    # resolution-independent and densities converge pointwise under
    # panel refinement; rows are scaled to unit norm
    swt = 1.0 / np.sqrt(w * np.abs(zp))
    scale = np.concatenate([swt, swt, np.ones(3 * nd)])
    B = A * scale[None, :]
    rnorm = np.sqrt((B * B).sum(axis=1))
    rnorm[rnorm == 0] = 1.0
    B /= rnorm[:, None]
    xw, _, _, _ = sla.lstsq(B, b / rnorm, cond=1e-12, lapack_driver="gelsy")
    x = scale * xw
    res = float(np.abs(A @ x - b).max())
    bnorm = float(np.abs(b).max())
    if res > max(1e-8, 1e-10 * max(1.0, bnorm)):
        raise SolverError(f"stress-balance solve residual {res:.2e}",
                          residuals=[res])
    mu = x[:N] + 1j * x[N:2 * N]
    return DensitySolution(mu=mu, residual=res, iterations=A.shape[0])


def evaluate_velocity_on_interface(disc: Discretization, sol: DensitySolution,
                                   cfg: FlowConfig,
                                   kernels: DirectKernels = None) -> np.ndarray:
    """Interfacial velocity at the GL nodes via singularity subtraction."""
    if kernels is None:
        kernels = DirectKernels(disc)
    mu = sol.mu
    mup = np.concatenate([
        panel_derivative(mu[disc.offsets[k]:disc.offsets[k] + 16 * disc.n_panels[k]],
                         disc.n_panels[k])
        for k in range(len(disc.ifaces))])
    u = (-(disc.w / np.pi) * mup
         - kernels.apply_re_subtracted(mu) / np.pi
         - kernels.apply_m2_conj(mu) / (1j * np.pi)
         + (cfg.Q + 1j * cfg.B) * np.conj(disc.z)
         - 0.5j * cfg.G * disc.z)
    return u


def evaluate_velocity_offgrid(disc: Discretization, sol: DensitySolution,
                              cfg: FlowConfig, targets) -> np.ndarray:
    """Velocity at points off the interfaces, with near corrections.

    Targets must not coincide with quadrature nodes.
    """
    t = np.atleast_1d(np.asarray(targets, dtype=complex))
    mu = sol.mu
    if np.any(np.min(np.abs(disc.z[None, :] - t[:, None]), axis=1) == 0.0):
        raise ValueError("target coincides with a quadrature node")
    d = disc.z[None, :] - t[:, None]
    base = disc.w * disc.zp
    K1 = np.real(base[None, :] / d)
    cj = np.conj(d)
    K2 = np.imag(base[None, :] * cj) / cj**2
    u = -(K1 @ mu) / np.pi - (K2 @ np.conj(mu)) / (1j * np.pi)
    # near corrections: K1 takes the real part of the Cauchy increment
    dI, dIc, dJ = neareval.near_correct(disc.panels, mu, t)
    u -= 0.5 * (dI + dIc) / np.pi + dJ / (1j * np.pi)
    u += (cfg.Q + 1j * cfg.B) * np.conj(t) - 0.5j * cfg.G * t
    return u


def interface_velocity(ifaces, sigma_uniform, cfg: FlowConfig,
                       tol: float = DEFAULT_TOL, mu0=None):
    """One Stokes solve: returns per-drop uniform-grid velocities.

    Handles the hybrid-grid transfers: uniform -> GL for the solve,
    per-panel interpolation + downsampling + Krasny filter on the way
    back.
    """
    from .spectral import panel_interp_to_uniform

    disc = discretize(ifaces)
    kernels = DirectKernels(disc)
    sigma_gl = sigma_to_gl(ifaces, sigma_uniform)
    sol = solve_density(ifaces, sigma_gl, cfg, tol=tol, disc=disc,
                        kernels=kernels, mu0=mu0)
    u_gl = evaluate_velocity_on_interface(disc, sol, cfg, kernels=kernels)
    out = []
    for k, ifc in enumerate(ifaces):
        npan = disc.n_panels[k]
        sl = slice(disc.offsets[k], disc.offsets[k] + 16 * npan)
        out.append(panel_interp_to_uniform(u_gl[sl], npan, ifc.n))
    return out, sol, disc
