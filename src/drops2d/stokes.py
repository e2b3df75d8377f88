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

DirectKernels assembles the two dense kernels once per geometry: the
weighted Cauchy matrix CAU and the antilinear operator Uc of u.  The
density solve and the velocity evaluation both read them; the C-linear
part of u is applied from CAU and the per-panel derivative of mu, never
assembled.  Near-singular blocks are handled one way for every target
set: the special quadrature rows of the neareval module overwrite the
plain entries of the weighted kernels C and M2, for the cross-interface
pairs of the nodes (DirectKernels) and for targets off the interfaces
(near_layer_matrices).  neareval.cull alone chooses those pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import neareval
from .spectral import (DIFF16, PANEL_ORDER, gl_geometry, panel_grid,
                       uniform_to_gl)

DEFAULT_TOL = 1e-12
# most iterations of a GMRES solve, which runs one cycle without restart
KRYLOV_DIM = 200


@dataclass(frozen=True)
class FlowConfig:
    """Far-field and material parameters.

    Q is the extensional rate (capillary number), B and G the shear
    parameters of the linear far field (Q + iB) conj(z) - (iG/2) z.  E
    and Pe describe the surfactant (Pe = inf disables surface diffusion);
    eos selects the equation of state.  This is the one home of E, Pe and
    eos: every surfactant.SurfactantField of a run refers to its
    FlowConfig, and only this class checks them.  Viscosity ratios are
    per drop and live on Interface.lam.

    This Q is the one convention of the package, and both oracles take
    it: pair_oracle.evolve_pair's Q_phys is this Q, and the steady state
    of steady_oracle.b_from_q(Q, E) is a fixed point of this Q.
    """

    Q: float = 0.0
    B: float = 0.0
    G: float = 0.0
    E: float = 0.5
    Pe: float = np.inf
    eos: str = "linear"

    def __post_init__(self):
        for v, name in ((self.Q, "Q"), (self.B, "B"), (self.G, "G"),
                        (self.E, "E")):
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, not {v}")
        if self.eos not in ("linear", "langmuir"):
            raise ValueError("eos must be 'linear' or 'langmuir'")
        if self.Pe is None or not self.Pe > 0:
            raise ValueError("Pe must be positive (np.inf allowed), "
                             f"not {self.Pe}")
        if self.eos == "langmuir" and not (0 < self.E < 1):
            raise ValueError("langmuir needs 0 < E < 1")


class SolverError(RuntimeError):
    """A solve that did not converge: residuals[0] is its true max-norm
    residual and iterations the count it ran."""

    def __init__(self, msg, residuals=None, iterations=None):
        super().__init__(msg)
        self.residuals = residuals or []
        self.iterations = iterations


def gmres_solve(matvec, b, tol: float):
    """GMRES (Saad & Schultz 1986) on matvec(x) = b from x = 0: one cycle
    of at most KRYLOV_DIM iterations, without restart.

    The cycle builds its Arnoldi basis by classical Gram-Schmidt applied
    twice, two matrix-vector products on the basis per pass, and reduces
    the Hessenberg columns by Givens rotations as they come.  It ends when
    the residual estimate reaches tol |b|_2, at KRYLOV_DIM iterations, or
    when h[j+1, j] = 0 (the solution lies in the basis).  The true
    residual b - A x is then formed once, so a solve costs iterations + 1
    matvecs.

    Returns (x, max-norm residual, iteration count).  SolverError is
    raised unless the estimate reaches tol |b|_2 and the max-norm residual
    is within that bound too; non-finite data fail so too.
    """
    x = np.zeros(b.size)
    if not b.any():
        return x, 0.0, 0
    beta = float(np.linalg.norm(b))
    bound = tol * beta
    V = np.empty((min(KRYLOV_DIM, b.size) + 1, b.size))
    V[0] = b / beta
    # g: the rotated right-hand side, whose last entry is the residual
    # estimate; cols[j]: column j of the triangular factor R
    g, cols, rots, k = [beta], [], [], 0
    while k < len(V) - 1 and not abs(g[k]) <= bound:
        w = matvec(V[k])
        Vk = V[:k + 1]
        h = Vk @ w
        w = w - h @ Vk
        h2 = Vk @ w
        w -= h2 @ Vk
        col = (h + h2).tolist()
        h_next = float(np.linalg.norm(w))
        for i, (c, s) in enumerate(rots):
            col[i], col[i + 1] = (c * col[i] + s * col[i + 1],
                                  c * col[i + 1] - s * col[i])
        mag = math.hypot(col[k], h_next)
        c, s = col[k] / mag, h_next / mag
        col[k] = mag
        rots.append((c, s))
        cols.append(col)
        g.append(-s * g[k])
        g[k] *= c
        k += 1
        if h_next == 0.0:       # happy breakdown: g[k] = 0
            break
        V[k] = w / h_next
    y = g[:k]
    for j in reversed(range(k)):
        y[j] /= cols[j][j]
        for i in range(j):
            y[i] -= cols[j][i] * y[j]
    x += np.array(y) @ V[:k]
    r = b - matvec(x)
    res = float(np.abs(r).max())
    if abs(g[k]) <= bound and res <= bound:
        return x, res, k
    raise SolverError(f"GMRES residual {res:.2e} after {k} iterations",
                      residuals=[res], iterations=k)


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
    n_panels = [ifc.n // PANEL_ORDER for ifc in ifaces]
    geo = [gl_geometry(ifc.z, npan) for ifc, npan in zip(ifaces, n_panels)]
    z, zp, zpp = np.concatenate([g for g, _ in geo], axis=1)
    za = np.concatenate([starts for _, starts in geo])
    zb = np.concatenate([np.roll(starts, -1) for _, starts in geo])
    w = np.concatenate([panel_grid(npan).weights for npan in n_panels])
    panels = neareval.prepare_panel(
        *(a.reshape(-1, PANEL_ORDER) for a in (z, zp, w)), za, zb)
    return Discretization(
        ifaces=list(ifaces), z=z, zp=zp, zpp=zpp, w=w,
        drop_of=np.repeat(np.arange(len(n_panels)),
                          PANEL_ORDER * np.array(n_panels)),
        n_panels=n_panels, panels=panels)


def sigma_to_gl(ifaces, sigma_uniform) -> np.ndarray:
    """Interpolate per-drop uniform surface tension to the GL grids."""
    return np.concatenate([uniform_to_gl(np.asarray(sig, dtype=float),
                                         ifc.n // PANEL_ORDER)
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
    # two complex N x N buffers, dz (which becomes M2) and C, and one real
    # one, |dz|^2, whose squares are staged in the buffer of C
    dz = z[None, :] - t[:, None]
    C = np.empty_like(dz)
    sq = np.square(dz.view(float), out=C.view(float))
    d2 = sq[:, ::2] + sq[:, 1::2]
    if targets is not None and not d2.all():
        raise ValueError("target coincides with a quadrature node")
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(zp * w, dz, out=C)
        # M2 = Im(C) dz^2/|dz|^2, in place in the buffer of dz
        M2 = np.square(dz, out=dz)
        M2 *= np.divide(C.imag, d2, out=d2)
    if targets is None:
        idx = np.arange(z.shape[0])
        C[idx, idx] = 0.0
        M2[idx, idx] = np.imag(zpp * np.conj(zp)) / (2 * np.conj(zp) ** 2) * w
    return C, M2


def near_layer_matrices(geom, mu, targets):
    """layer_matrices at off-grid targets with the near pairs corrected.

    geom carries the nodes z, zp, zpp, w and their stacked panels (a
    Discretization or a dirichlet.DirichletSolution), and mu the density
    at the nodes, whose max-norm on each panel enters the estimates.
    Every pair within its panel's reach (neareval.cull) that the estimate
    flags gets its special rows (neareval.overwrite_near_blocks).
    """
    t = np.atleast_1d(np.asarray(targets, dtype=complex))
    C, M2 = layer_matrices(geom.z, geom.zp, geom.zpp, geom.w, targets=t)
    mu_inf = np.abs(mu).reshape(-1, PANEL_ORDER).max(axis=1)
    ti, ip = neareval.cull(geom.panels, t, geom.panels.reach)
    neareval.overwrite_near_blocks(C, M2, geom.panels, t, ti, ip, mu_inf[ip])
    return C, M2


class DirectKernels:
    """Dense, near-corrected kernels of the interfacial velocity.

    CAU is the weighted Cauchy matrix of layer_matrices and Uc = i M2/pi
    the antilinear part of u; evaluate_velocity_on_interface applies the
    C-linear part from CAU.  Before Uc is formed,
    neareval.overwrite_near_blocks runs on the pairs of the nodes of each
    drop and the panels of the others within reach (neareval.cull; a lone
    drop has none), with unit density norm: each flagged pair (i, g) has
    its special rows written over row i, columns 16g:16g+16, of CAU and
    M2, as for targets off the interfaces (see near_layer_matrices).
    pairs holds one (i, g) row per corrected pair.
    """

    def __init__(self, disc: Discretization):
        self.CAU, M2 = layer_matrices(disc.z, disc.zp, disc.zpp, disc.w)
        ti = ip = np.zeros(0, dtype=np.intp)
        if len(disc.n_panels) > 1:
            # drop by drop, so the pairs come target-major over all nodes
            panel_drop = disc.drop_of[::PANEL_ORDER]
            found = []
            for k in range(len(disc.n_panels)):
                on = np.flatnonzero(disc.drop_of == k)
                other = np.flatnonzero(panel_drop != k)
                t, g = neareval.cull(disc.panels[other], disc.z[on],
                                     disc.panels.reach[other])
                found.append((on[t], other[g]))
            ti, ip = map(np.concatenate, zip(*found))
        self.pairs = np.column_stack(neareval.overwrite_near_blocks(
            self.CAU, M2, disc.panels, disc.z, ti, ip, 1.0))
        self.Uc = np.multiply(M2, 1j / np.pi, out=M2)


def far_field(cfg: FlowConfig, z) -> np.ndarray:
    """Velocity of the linear far field at the points z."""
    return (cfg.Q + 1j * cfg.B) * np.conj(z) - 0.5j * cfg.G * z


def solve_density(disc: Discretization, sigma_gl, cfg: FlowConfig,
                  kernels: DirectKernels,
                  tol: float = DEFAULT_TOL) -> DensitySolution:
    """Solve the interfacial stress balance for the layer density.

    sigma_gl holds surface tension samples on the composite GL grid (all
    drops concatenated); each drop's viscosity ratio is the lam of its
    interface in disc.ifaces.
    The balance i K mu + (1 - lambda) Uc conj(mu) = rhs is real-linear in
    mu, with K real (see below) and Uc from DirectKernels.  On a drop with
    lambda = 0 its left side vanishes on the rigid motions {1, i, iz};
    adding G V^T mu, with V their orthonormal basis in the ds-weighted
    real inner product and G the gauge columns -z, -1, -i on that drop,
    makes the 2N x 2N system nonsingular.  The gauge of mu is then its
    resolution-independent component along V.  gmres_solve solves the
    system divided by i (K = 2 I at lambda = 1) on [Re mu, Im mu] to the
    relative residual tol; iterations is its count.
    """
    N = disc.n
    lam_drop = np.array([ifc.lam for ifc in disc.ifaces])
    lam = lam_drop[disc.drop_of]
    oml = 1.0 - lam
    # The fluid-side limit of the Cauchy transform is
    # 2 f(mu) = (1/pi) [sum_{j != i} (mu_j - mu_i) CAU_ij + w_i mu'_i], so
    # the C-linear part of u + 2 f is U + (CAU - diag(row sums) + w D)/pi,
    # with U the C-linear part of u (evaluate_velocity_on_interface) and
    # D the per-panel d/d alpha.
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

    x, res, iterations = gmres_solve(
        matvec, np.concatenate([rhs.real, rhs.imag]), tol)
    return DensitySolution(mu=x[:N] + 1j * x[N:], residual=res,
                           iterations=iterations)


def evaluate_velocity_on_interface(disc: Discretization, sol: DensitySolution,
                                   cfg: FlowConfig,
                                   kernels: DirectKernels) -> np.ndarray:
    """Interfacial velocity at the GL nodes via singularity subtraction.

    u = U mu + Uc conj(mu) + far, with the C-linear part applied as

        U mu = -(w/pi) D mu - (Re CAU mu - (sum_j Re CAU_ij) mu_i)/pi,

    D the per-panel d/d alpha (DIFF16 scaled by n_panels/pi).
    """
    mu = sol.mu
    dmu = ((mu.reshape(-1, PANEL_ORDER) @ DIFF16.T).ravel()
           * (np.asarray(disc.n_panels)[disc.drop_of] / np.pi))
    # Re CAU on Re mu, Im mu and ones (its row sums) in one real product:
    # CAU viewed as (re, im) pairs, with zero weight on every im entry
    # (the strided view CAU.real multiplies at a fraction of the speed)
    V = np.zeros((2 * disc.n, 3))
    V[::2] = np.stack([mu.real, mu.imag, np.ones(disc.n)], axis=1)
    R = kernels.CAU.view(float) @ V
    Kmu = R[:, 0] + 1j * R[:, 1] - R[:, 2] * mu
    return (-(disc.w / np.pi) * dmu - Kmu / np.pi + kernels.Uc @ np.conj(mu)
            + far_field(cfg, disc.z))


def evaluate_velocity_offgrid(disc: Discretization, sol: DensitySolution,
                              cfg: FlowConfig, targets) -> np.ndarray:
    """Velocity at points off the interfaces, with near corrections.

    Targets must not coincide with quadrature nodes.
    """
    t = np.atleast_1d(np.asarray(targets, dtype=complex))
    mu = sol.mu
    C, M2 = near_layer_matrices(disc, mu, t)
    # Re C on [Re mu, Im mu]: Re C @ mu would cast it to a complex copy
    ReCmu = C.real @ np.column_stack([mu.real, mu.imag]) @ [1, 1j]
    u = -ReCmu / np.pi - (M2 @ np.conj(mu)) / (1j * np.pi)
    return u + far_field(cfg, t)


def interface_velocity(ifaces, sigma_uniform, cfg: FlowConfig,
                       tol: float = DEFAULT_TOL):
    """One Stokes solve: returns per-drop uniform-grid velocities.

    Handles the hybrid-grid transfers: uniform -> GL for the solve, and
    one cached matrix (spectral.panel_to_uniform_matrix) plus the Krasny
    filter on the way back.
    """
    from .spectral import panel_interp_to_uniform

    disc = discretize(ifaces)
    kernels = DirectKernels(disc)
    sigma_gl = sigma_to_gl(ifaces, sigma_uniform)
    sol = solve_density(disc, sigma_gl, cfg, kernels, tol=tol)
    u_gl = evaluate_velocity_on_interface(disc, sol, cfg, kernels)
    out = [panel_interp_to_uniform(u, npan, ifc.n) for ifc, npan, u in
           zip(ifaces, disc.n_panels,
               np.split(u_gl, PANEL_ORDER * np.cumsum(disc.n_panels)[:-1]))]
    return out, sol, disc
