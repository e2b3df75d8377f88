"""Boundary-integral solver for drops in 2D Stokes flow.

The velocity is represented by a complex layer density mu sampled on
composite 16-point Gauss-Legendre grids, one per drop.  Interfaces are
stored clockwise; with quadrature weights w the interfacial velocity is

    u = -(w/pi) mu' - (1/pi) sum_{j!=i} (mu_j - mu_i) w_j Re{z'_j/(z_j-z_i)}
        - (1/(i pi)) sum_j conj(mu_j) M2_ij + (Q + iB) conj(z) - (iG/2) z,

and the stress balance on a drop with viscosity ratio lambda reads

    2 i lambda mu + (1 - lambda) [u + 2 f] = -(i/2) sigma z'/|z'|,

with f the fluid-side limit of the Cauchy transform of mu.  On a drop
with lambda = 0 the rigid motions {1, i, iz} of mu span the null space
of the balance; solve_density completes it (Greengard, Kropinski & Mayo
1996) into one square, nonsingular, real-linear 2N x 2N system and
solves that matrix-free by GMRES.

The minus signs on the integral sums are the orientation cost of storing
interfaces clockwise.  The sign set is pinned by four independent
physical checks: a circular interface under uniform tension is
stationary, a clean ellipse relaxes toward a circle, Marangoni flow runs
from low to high surface tension, and an isolated drop in extension moves
with u.n = 2 Q cos(2 theta)/(1 + lambda).

DirectKernels assembles the two dense operators of u once per geometry,
u = U mu + Uc conj(mu) + far field; the density solve and the velocity
evaluation both read them.  Near-singular blocks are handled one way for
every target set: the special quadrature rows of the neareval module
overwrite the plain entries of the weighted kernels C and M2, for the
cross-interface pairs of the nodes (DirectKernels) and for targets off
the interfaces (near_layer_matrices).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.sparse.linalg import LinearOperator, gmres

from . import neareval
from .spectral import DIFF16, gl_geometry, panel_grid, uniform_to_gl

DEFAULT_TOL = 1e-12
# GMRES iteration cap; its basis takes (KRYLOV_DIM + 1) x 2N floats
KRYLOV_DIM = 200


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
    """Composite Gauss-Legendre view of a set of interfaces.

    z, zp, zpp and w hold the nodes of all drops, concatenated in drop
    order, and drop_of the drop of each node.  panels is their stacked
    neareval.PanelData: panel g covers nodes 16g:16g+16 and belongs to
    drop drop_of[16g]; n_panels counts the panels of each drop.
    """

    ifaces: list
    z: np.ndarray
    zp: np.ndarray
    zpp: np.ndarray
    w: np.ndarray
    drop_of: np.ndarray
    n_panels: list
    panels: neareval.PanelData

    @property
    def n(self):
        return self.z.shape[0]


def discretize(ifaces) -> Discretization:
    """Interpolate interface geometry onto the composite GL grids."""
    n_panels = [ifc.n // 16 for ifc in ifaces]
    geo = [gl_geometry(ifc.z, npan) for ifc, npan in zip(ifaces, n_panels)]
    z, zp, zpp = np.concatenate([g for g, _ in geo], axis=1)
    za = np.concatenate([starts for _, starts in geo])
    zb = np.concatenate([np.roll(starts, -1) for _, starts in geo])
    w = np.concatenate([panel_grid(npan).weights for npan in n_panels])
    panels = neareval.prepare_panel(z.reshape(-1, 16), zp.reshape(-1, 16),
                                    w.reshape(-1, 16), za, zb)
    return Discretization(
        ifaces=list(ifaces), z=z, zp=zp, zpp=zpp, w=w,
        drop_of=np.repeat(np.arange(len(n_panels)), 16 * np.array(n_panels)),
        n_panels=n_panels, panels=panels)


def sigma_to_gl(ifaces, sigma_uniform) -> np.ndarray:
    """Interpolate per-drop uniform surface tension to the GL grids."""
    return np.concatenate([uniform_to_gl(np.asarray(sig, dtype=float),
                                         ifc.n // 16)
                           for ifc, sig in zip(ifaces, sigma_uniform)])


def layer_matrices(z, zp, zpp, w, targets=None):
    """Weighted dense kernels of the layer potential on the nodes z.

    Returns (C, M2), one row per target t_i (the nodes themselves when
    targets is None), with, for t_i != z_j,

        C_ij  = w_j z'_j/(z_j - t_i)
        M2_ij = w_j Im{z'_j conj(z_j - t_i)}/conj(z_j - t_i)^2.

    On the nodes, C has a zero diagonal (the sums that use it subtract the
    singularity) and M2 carries its smooth diagonal limit from z''.
    Off-grid targets must not coincide with a node (ValueError).
    """
    t = z if targets is None else np.atleast_1d(np.asarray(targets, dtype=complex))
    dz = z[None, :] - t[:, None]
    if targets is not None and np.any(dz == 0):
        raise ValueError("target coincides with a quadrature node")
    with np.errstate(divide="ignore", invalid="ignore"):
        C = zp[None, :] / dz
        cj = np.conj(dz)
        M2 = np.imag(zp[None, :] * cj) / cj**2
    if targets is None:
        idx = np.arange(z.shape[0])
        C[idx, idx] = 0.0
        M2[idx, idx] = np.imag(zpp * np.conj(zp)) / (2 * np.conj(zp) ** 2)
    return C * w[None, :], M2 * w[None, :]


def near_layer_matrices(geom, mu, targets):
    """layer_matrices at off-grid targets with the near pairs corrected.

    geom carries the nodes z, zp, zpp, w and their stacked panels (a
    Discretization or a dirichlet.DirichletSolution), and mu the density
    at the nodes, whose max-norm on each panel enters the estimates.
    Every candidate pair of the targets that the estimate flags gets its
    special rows (neareval.overwrite_near_blocks).
    """
    t = np.atleast_1d(np.asarray(targets, dtype=complex))
    C, M2 = layer_matrices(geom.z, geom.zp, geom.zpp, geom.w, targets=t)
    mu_inf = np.abs(mu).reshape(len(geom.panels), 16).max(axis=1)
    ti, ip = neareval.candidates(geom.panels, t)
    neareval.overwrite_near_blocks(C, M2, geom.panels, t, ti, ip, mu_inf[ip])
    return C, M2


class DirectKernels:
    """Dense, near-corrected operators of the interfacial velocity.

    CAU is the weighted Cauchy matrix of layer_matrices.  U and Uc are
    the C-linear and antilinear parts of u = U mu + Uc conj(mu) + far:

        U  = -(w/pi) D - (Re CAU - diag(sum_j Re CAU_ij))/pi,
        Uc = i M2/pi,

    with D the block-diagonal per-panel d/d alpha.  Before U and Uc are
    formed, neareval.overwrite_near_blocks runs on the cross-drop
    candidate pairs of disc.panels, with unit density norm: each flagged
    pair (i, g) has its special rows written over row i, columns
    16g:16g+16, of CAU and M2, as for targets off the interfaces (see
    near_layer_matrices).  pairs holds one (i, g) row per corrected pair.
    """

    def __init__(self, disc: Discretization):
        self.CAU, M2 = layer_matrices(disc.z, disc.zp, disc.zpp, disc.w)
        i, ip = neareval.candidates(disc.panels, disc.z)
        cross = disc.drop_of[i] != disc.drop_of[16 * ip]
        self.pairs = np.column_stack(neareval.overwrite_near_blocks(
            self.CAU, M2, disc.panels, disc.z, i[cross], ip[cross], 1.0))
        D = sla.block_diag(*[(npan / np.pi) * DIFF16
                             for npan in disc.n_panels for _ in range(npan)])
        Kre = self.CAU.real
        self.U = (-(disc.w[:, None] / np.pi) * D
                  - (Kre - np.diag(Kre.sum(axis=1))) / np.pi)
        self.Uc = 1j * M2 / np.pi


def far_field(cfg: FlowConfig, z) -> np.ndarray:
    """Velocity of the linear far field at the points z."""
    return (cfg.Q + 1j * cfg.B) * np.conj(z) - 0.5j * cfg.G * z


def solve_density(ifaces, sigma_gl, cfg: FlowConfig, tol: float = DEFAULT_TOL,
                  disc: Discretization = None,
                  kernels: DirectKernels = None) -> DensitySolution:
    """Solve the interfacial stress balance for the layer density.

    sigma_gl holds surface tension samples on the composite GL grid (all
    drops concatenated); each drop's viscosity ratio is its Interface.lam.
    The balance i K mu + (1 - lambda) Uc conj(mu) = rhs is real-linear in
    mu, with K real (see below) and Uc from DirectKernels.  On a drop with
    lambda = 0 its left side vanishes on the rigid motions {1, i, iz};
    adding G V^T mu, with V their orthonormal basis in the ds-weighted
    real inner product and G the gauge columns -z, -1, -i on that drop,
    makes the 2N x 2N system nonsingular.  The gauge of mu is then its
    resolution-independent component along V.  GMRES solves the system
    divided by i (K = 2 I at lambda = 1) on [Re mu, Im mu] to the
    relative residual tol in at most KRYLOV_DIM iterations, without
    restarts; iterations is its count.  SolverError is raised when it
    does not converge or the max-norm residual exceeds tol |b|_2, the
    bound that its convergence implies.
    """
    if disc is None:
        disc = discretize(ifaces)
    if kernels is None:
        kernels = DirectKernels(disc)
    N = disc.n
    lam_drop = np.array([ifc.lam for ifc in ifaces])
    lam = lam_drop[disc.drop_of]
    oml = 1.0 - lam
    # The fluid-side limit of the Cauchy transform is
    # 2 f(mu) = (1/pi) [sum_{j != i} (mu_j - mu_i) CAU_ij + w_i mu'_i], so
    # the C-linear part of u + 2 f is U + (CAU - diag(row sums) + w D)/pi.
    # w and D are real: the mu' terms and the real parts cancel, leaving
    # i (Im CAU - diag(row sums of Im CAU))/pi.  The C-linear part of the
    # stress balance is therefore i K with K real; CAU has a zero diagonal.
    K = kernels.CAU.imag * (oml / np.pi)[:, None]
    idx = np.arange(N)
    K[idx, idx] = 2 * lam - K.sum(axis=1)
    # rigid-motion completion: G holds the gauge columns of each lambda = 0
    # drop and Re(W mu) the coordinates of mu along its rigid motions,
    # orthonormal in <a, b> = sum ds Re(conj(a) b)
    sq = np.sqrt(disc.w * np.abs(disc.zp))
    G, W = [], []
    for k in np.flatnonzero(lam_drop == 0.0):
        on = disc.drop_of == k
        sel = on.astype(float)
        # QR of the drop's own rows only: zero rows of other drops ahead of
        # them would let rounding noise pick the orientation of the basis,
        # and with it the gauge of mu
        rigid = np.stack([sel, 1j * sel, 1j * disc.z * sel])[:, on] * sq[on]
        q, _ = np.linalg.qr(np.concatenate([rigid.real, rigid.imag], axis=1).T)
        q_re, q_im = q.reshape(2, -1, 3)
        Wk = np.zeros((3, N), dtype=complex)
        Wk[:, on] = (q_re - 1j * q_im).T * sq[on]
        W.extend(Wk)
        G.extend([-disc.z * sel, -sel, -1j * sel])
    G, W = np.reshape(G, (-1, N)).T, np.reshape(W, (-1, N))
    Uc = kernels.Uc
    tau = disc.zp / np.abs(disc.zp)
    # the balance divided by i: K mu - i [(1 - lambda) Uc conj(mu) + G V^T mu]
    rhs = -0.5 * sigma_gl * tau + 1j * oml * far_field(cfg, disc.z)

    def matvec(x):
        mu = x[:N] + 1j * x[N:]
        out = (K @ x[:N] + 1j * (K @ x[N:])
               - 1j * (oml * (Uc @ np.conj(mu)) + G @ (W @ mu).real))
        return np.concatenate([out.real, out.imag])

    A = LinearOperator((2 * N, 2 * N), matvec=matvec)
    b = np.concatenate([rhs.real, rhs.imag])
    steps = []
    x, info = gmres(A, b, rtol=tol, atol=0.0, restart=KRYLOV_DIM, maxiter=1,
                    callback=steps.append, callback_type="pr_norm")
    res = float(np.abs(A @ x - b).max())
    # GMRES stops at |r|_2 <= tol |b|_2, which bounds |r|_inf as well
    if info != 0 or not res <= tol * np.linalg.norm(b):
        raise SolverError(f"stress-balance solve residual {res:.2e} after "
                          f"{len(steps)} GMRES iterations (info={info})",
                          residuals=[res])
    return DensitySolution(mu=x[:N] + 1j * x[N:], residual=res,
                           iterations=len(steps))


def evaluate_velocity_on_interface(disc: Discretization, sol: DensitySolution,
                                   cfg: FlowConfig,
                                   kernels: DirectKernels = None) -> np.ndarray:
    """Interfacial velocity at the GL nodes via singularity subtraction."""
    if kernels is None:
        kernels = DirectKernels(disc)
    mu, U = sol.mu, kernels.U
    # U is real: applied to the real and imaginary parts apart, not copied
    return (U @ mu.real + 1j * (U @ mu.imag) + kernels.Uc @ np.conj(mu)
            + far_field(cfg, disc.z))


def evaluate_velocity_offgrid(disc: Discretization, sol: DensitySolution,
                              cfg: FlowConfig, targets) -> np.ndarray:
    """Velocity at points off the interfaces, with near corrections.

    Targets must not coincide with quadrature nodes.
    """
    t = np.atleast_1d(np.asarray(targets, dtype=complex))
    mu = sol.mu
    C, M2 = near_layer_matrices(disc, mu, t)
    u = -(C.real @ mu) / np.pi - (M2 @ np.conj(mu)) / (1j * np.pi)
    return u + far_field(cfg, t)


def interface_velocity(ifaces, sigma_uniform, cfg: FlowConfig,
                       tol: float = DEFAULT_TOL):
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
                        kernels=kernels)
    u_gl = evaluate_velocity_on_interface(disc, sol, cfg, kernels=kernels)
    out = [panel_interp_to_uniform(u, npan, ifc.n) for ifc, npan, u in
           zip(ifaces, disc.n_panels,
               np.split(u_gl, 16 * np.cumsum(disc.n_panels)[:-1]))]
    return out, sol, disc
