"""Point-panel special quadrature and quadrature-error estimation.

The near-singular layer-potential integrals over a 16-point panel are
replaced by a semi-analytic rule: the density is interpolated by a
degree-15 polynomial in the affinely transformed position variable, and
the singular moments

    p_j = int_{-1}^{1} tau^j/(tau - z0) dtau
    q_j = int_{-1}^{1} tau^j/(tau - z0)^2 dtau

are generated by forward recursion.  A separate contour-integral remainder
estimate predicts the plain Gauss-Legendre error for each point-panel pair
and decides when the special rule is needed.  candidates is the one
distance cull: only the pairs it returns are ever estimated or corrected.

Every stage runs on a batch of (target, panel) pairs at once.  gather
stacks the panel data of all candidate pairs of a call along a leading
pair axis; locate_preimage then runs Newton elementwise over the batch,
and estimate_error and needs_correction act on whole arrays.
corrected_pairs builds the kernel rows of the flagged pairs panel by
panel: one moment recursion over all of a panel's targets and one
Vandermonde solve with one right-hand side per target.  One panel and one
target form a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
import scipy.linalg as sla
from numpy.polynomial import legendre as npleg

from .spectral import GL_NODES

N_GL = 16

# Legendre-Vandermonde on the reference nodes; orthogonality makes the
# panel-parametrization fit eta backward-stable out to moderate |xi|.
_LEGV = npleg.legvander(GL_NODES, N_GL - 1)
_LEGV_INV = np.linalg.inv(_LEGV)
# estimated plain-GL panel error above which the correction is applied
ACTIVATION_THRESHOLD = 1e-13
# targets farther than this many panel lengths are never corrected
CULL_FACTOR = 1.5
# Newton for the panel preimage: iteration cap and relative acceptance
NEWTON_MAXITER = 20
NEWTON_TOL = 1e-13


def candidates(panels, targets):
    """(target, panel) index pairs that may need the special rule.

    A pair is a candidate when the panel node nearest the target lies
    within CULL_FACTOR panel lengths of it.  Returns two index arrays,
    target-major, as np.nonzero does.
    """
    t = np.atleast_1d(np.asarray(targets, dtype=complex))
    nodes = np.array([p.z_nodes for p in panels])
    lengths = np.array([p.length for p in panels])
    dmin = np.abs(nodes[None, :, :] - t[:, None, None]).min(axis=2)
    return np.nonzero(dmin <= CULL_FACTOR * lengths)


@dataclass
class PanelData:
    """Reusable per-panel quantities for near evaluation.

    All positions live in the transformed frame where the panel endpoints
    sit at -1 and +1.  A PanelData made by gather describes one panel per
    pair: every field but vand_lu gains a leading pair axis, and vand_lu
    is None.
    """

    z_nodes: np.ndarray          # physical node positions
    zp_nodes: np.ndarray         # dz/dalpha at the nodes
    w_alpha: np.ndarray          # parameter-space GL weights
    scale: complex               # affine scale: t = scale*(z - mid)
    mid: complex
    nodes_t: np.ndarray          # transformed node positions
    vand_lu: tuple               # LU factors of the transformed Vandermonde
    eta: np.ndarray              # poly coefficients, eta(GL_NODES) = nodes_t
    eta_p: np.ndarray            # derivative coefficients of eta
    length: float                # physical panel length (approx)

    def transform(self, z0):
        return self.scale * (z0 - self.mid)


@dataclass
class PanelLocalFrame:
    """Target-specific frames of a batch of point-panel pairs.

    Each field holds one entry per pair, shaped like the batch (0-d for a
    single pair).  pair numbers the pairs in the batch that
    locate_preimage solved; take keeps those numbers.
    """

    z0: np.ndarray
    z0t: np.ndarray              # transformed target
    xi0: np.ndarray              # preimage of the target under eta
    newton_ok: np.ndarray
    residue: np.ndarray          # 0 or +-2*pi*i added to p_0
    pair: np.ndarray

    def take(self, sel) -> PanelLocalFrame:
        return PanelLocalFrame(*(getattr(self, f.name)[sel]
                                 for f in fields(self)))


def prepare_panel(z_nodes, zp_nodes, w_alpha, za, zb) -> PanelData:
    """Precompute the transformed frame and interpolation data of a panel."""
    mid = 0.5 * (za + zb)
    scale = 2.0 / (zb - za)
    nodes_t = scale * (np.asarray(z_nodes) - mid)
    V = np.vander(nodes_t, N_GL, increasing=True)
    lu = sla.lu_factor(V)
    # degree-15 parametrization of the transformed panel: eta(xi) with
    # eta(GL_NODES[k]) = nodes_t[k], stored as Legendre coefficients;
    # noise-level coefficients are zeroed so evaluation stays stable a
    # couple of panel lengths out
    eta = _LEGV_INV @ nodes_t
    eta[np.abs(eta) < 1e-14 * np.abs(eta).max()] = 0.0
    eta_p = npleg.legder(eta)
    length = float(np.sum(np.abs(zp_nodes) * w_alpha))
    return PanelData(
        z_nodes=np.asarray(z_nodes),
        zp_nodes=np.asarray(zp_nodes),
        w_alpha=np.asarray(w_alpha),
        scale=scale,
        mid=mid,
        nodes_t=nodes_t,
        vand_lu=lu,
        eta=eta,
        eta_p=eta_p,
        length=length,
    )


def gather(panels, ip) -> PanelData:
    """Panel data of a batch of pairs: row k describes panels[ip[k]]."""
    ip = np.asarray(ip, dtype=int)
    return PanelData(vand_lu=None, **{
        f.name: np.array([getattr(p, f.name) for p in panels])[ip]
        for f in fields(PanelData) if f.name != "vand_lu"})


def _per_pair(panel: PanelData, name: str, shape):
    """Field name of panel with one row per pair of a batch, flattened.

    A single panel is shared by every pair; a gathered one already has
    its leading pair axis.
    """
    a = np.asarray(getattr(panel, name))
    tail = a.shape[np.ndim(panel.scale):]
    return np.broadcast_to(a, shape + tail).reshape((-1,) + tail)


def locate_preimage(panel: PanelData, z0) -> PanelLocalFrame:
    """Solve eta(xi0) = z0 (transformed) by Newton from the affine guess.

    panel is one panel shared by all targets z0, or a gather with one
    panel per target.  Each pair stops when eta' vanishes at its iterate
    or its Newton step falls below 1e-15, or after NEWTON_MAXITER steps;
    its preimage is accepted (newton_ok) when the residual is within
    NEWTON_TOL relative to max(1, |z0t|) and |xi0| < 10.
    """
    shape = np.broadcast_shapes(np.shape(z0), np.shape(panel.scale))
    z0 = np.broadcast_to(np.asarray(z0, dtype=complex), shape)
    # flat arrays throughout: a single pair then takes the same array
    # arithmetic as a batch (NumPy scalar operators round differently)
    zt = panel.transform(z0.ravel())
    eta = _per_pair(panel, "eta", shape)
    eta_p = _per_pair(panel, "eta_p", shape)
    xi = zt.copy()
    live = np.arange(zt.size)
    for _ in range(NEWTON_MAXITER):
        dp = npleg.legval(xi[live], eta_p[live].T, tensor=False)
        moving = dp != 0
        live, dp = live[moving], dp[moving]
        step = (npleg.legval(xi[live], eta[live].T, tensor=False)
                - zt[live]) / dp
        xi[live] -= step
        live = live[~(np.abs(step) < 1e-15)]
        if live.size == 0:
            break
    resid = np.abs(npleg.legval(xi, eta.T, tensor=False) - zt)
    ok = ((resid <= NEWTON_TOL * np.maximum(1.0, np.abs(zt)))
          & (np.abs(xi) < 10.0))
    residue = _residue_correction(panel, shape, zt, xi, ok)
    return PanelLocalFrame(
        z0=z0, z0t=zt.reshape(shape), xi0=xi.reshape(shape),
        newton_ok=ok.reshape(shape), residue=residue.reshape(shape),
        pair=np.arange(zt.size).reshape(shape))


def _residue_correction(panel: PanelData, shape, z0t, xi0, ok):
    """Path-deformation residues for targets between the panel and [-1, 1].

    Near the panel, eta is a graph-like perturbation of the identity, so
    the target sits in the lens between the curved panel and the straight
    segment exactly when Im(xi0) and Im(z0t) carry opposite signs; the
    residue is then -2*pi*i times the sign of Im(z0t): the closed contour
    formed by the arc and the segment runs counterclockwise when the arc
    bulges below the segment and clockwise when above.  Away from the panel
    (no reliable preimage) a comparison of the principal-branch p_0 with
    the 16-point rule along the actual arc settles the branch; plain
    quadrature of p_0 is accurate there.  z0t, xi0 and ok are flat arrays
    over the batch of the given shape.
    """
    residue = np.zeros(z0t.shape, dtype=complex)
    on_segment = (np.abs(z0t.imag) < 1e-14) & (np.abs(z0t.real) <= 1.0)
    lens_test = ~on_segment & ok & (np.abs(xi0) < 1.2)
    # beyond the panel ends (|Re xi0| > 1) the target is outside the lens
    # whatever the sign of Im(xi0)
    between = (lens_test & (np.abs(xi0.real) <= 1.0)
               & (xi0.imag * z0t.imag < 0.0))
    residue[between] = -2j * np.pi * np.sign(z0t.imag[between])
    far = np.flatnonzero(~on_segment & ~lens_test)
    zt = z0t[far]
    tp = (_per_pair(panel, "scale", shape)[far, None]
          * _per_pair(panel, "zp_nodes", shape)[far])
    p0_num = np.sum(_per_pair(panel, "w_alpha", shape)[far] * tp
                    / (_per_pair(panel, "nodes_t", shape)[far] - zt[:, None]),
                    axis=1)
    p0_an = np.log(1.0 - zt) - np.log(-1.0 - zt)
    best, corr = np.abs(p0_num - p0_an), np.zeros(far.size, dtype=complex)
    for s in (-1.0, 1.0):
        cand = 2j * np.pi * s
        d = np.abs(p0_num - (p0_an + cand))
        closer = d < best
        best, corr = np.where(closer, d, best), np.where(closer, cand, corr)
    residue[far] = corr
    return residue


def recursion_pq(z0t, residue=0.0) -> tuple[np.ndarray, np.ndarray]:
    """Monomial moments p_j, q_j on [-1, 1], moment index first.

    p[j] and q[j] have the shape of z0t.  A nonzero residue (+-2*pi*i) is
    folded into p_0 before recursing; the recursions then propagate it to
    every higher moment consistently.  Forward recursion is stable in the
    activation region (preimages within about half a panel length,
    |z0| <~ 1.5); farther out the absolute error grows like eps |z0|^15,
    where the special rule is never selected.
    """
    shape = np.shape(z0t)
    z = np.ravel(np.asarray(z0t, dtype=complex))
    if np.any((z.imag == 0.0) & (np.abs(z.real) <= 1.0)):
        raise ValueError("target preimage lies on the panel segment")
    p = np.empty((N_GL, z.size), dtype=complex)
    q = np.empty_like(p)
    p[0] = np.log(1.0 - z) - np.log(-1.0 - z) + np.ravel(residue)
    q[0] = -1.0 / (1.0 + z) - 1.0 / (1.0 - z)
    for j in range(1, N_GL):
        p[j] = z * p[j - 1] + (1.0 - (-1.0) ** j) / j
        q[j] = z * q[j - 1] + p[j - 1]
    return p.reshape((N_GL,) + shape), q.reshape((N_GL,) + shape)


def correction_rows(panel: PanelData, frame: PanelLocalFrame):
    """Row functionals for the two singular panel integrals.

    Returns (r1, r2), one row of N_GL weights per target of frame, with

        int_panel f(tau)/(tau - z0) dtau          ~ r1 . f(nodes)
        int_panel f(tau)/(tau - z0)^2 dtau        ~ r2 . f(nodes)

    where f is sampled at the nodes of the one panel and interpolated in
    the transformed position variable.
    """
    shape = np.shape(frame.z0t) + (N_GL,)
    p, q = recursion_pq(frame.z0t, frame.residue)
    # I1: row = p^T V^{-1}; I2 carries the affine Jacobian of 1/(tau-z0)^2;
    # one solve takes the moments of every target as its right-hand sides
    r1 = sla.lu_solve(panel.vand_lu, p.reshape(N_GL, -1), trans=1)
    r2 = panel.scale * sla.lu_solve(panel.vand_lu, q.reshape(N_GL, -1),
                                    trans=1)
    return r1.T.reshape(shape), r2.T.reshape(shape)


def kernel_rows(panel: PanelData, frame: PanelLocalFrame):
    """Correction rows for the two kernels of the velocity representation.

    For a target z0 and density samples mu on the one panel,

        int mu(tau) dtau/(tau - z0)                     = rI1 . mu
        int mu(tau) nbar^2 dtau/(tau - z0)              = rJ2 . mu
        int mu(tau) (conj(tau) - conj(z0)) dtau/(tau-z0)^2 = rJ3 . mu

    with nbar the conjugated outward unit normal factor entering the
    split of the conjugate kernel; one row per target of frame.
    """
    r1, r2 = correction_rows(panel, frame)
    tang = panel.zp_nodes / np.abs(panel.zp_nodes)
    nbar2 = -np.conj(tang) ** 2
    rJ2 = r1 * nbar2
    rJ3 = r2 * (np.conj(panel.z_nodes) - np.conj(frame.z0)[..., None])
    return r1, rJ2, rJ3


def plain_rows(panel: PanelData, z0):
    """Plain Gauss-Legendre rows for the same three integrals.

    panel is one panel shared by all targets z0, or a gather with one
    panel per target.
    """
    z0 = np.asarray(z0)[..., None]
    d = panel.z_nodes - z0
    base = panel.w_alpha * panel.zp_nodes
    r1 = base / d
    tang = panel.zp_nodes / np.abs(panel.zp_nodes)
    nbar2 = -np.conj(tang) ** 2
    rJ2 = r1 * nbar2
    rJ3 = base * (np.conj(panel.z_nodes) - np.conj(z0)) / d**2
    return r1, rJ2, rJ3


def correct_panel_integrals(panel: PanelData, mu_panel, z0: complex):
    """Corrected contributions of one panel to the two velocity kernels.

    Returns (K1, K2) with

        K1 = int mu(tau) Re{dtau/(tau - z0)}
        K2 = int conj(mu(tau)) Im{dtau (conj tau - conj z0)}/(conj tau - conj z0)^2

    or None when the frame could not be built (caller keeps plain GL).
    """
    frame = locate_preimage(panel, z0)
    if not frame.newton_ok:
        return None
    mu_panel = np.asarray(mu_panel)
    r1, rJ2, rJ3 = kernel_rows(panel, frame)
    I1 = r1 @ mu_panel
    I1c = r1 @ np.conj(mu_panel)
    J2 = rJ2 @ mu_panel
    J3 = rJ3 @ mu_panel
    K1 = 0.5 * (I1 + np.conj(I1c))
    K2 = 0.5j * (np.conj(J2) + np.conj(J3))
    return K1, K2


def corrected_pairs(panels, ti, ip, targets, mu_inf):
    """The candidate pairs that need the special rule, with their rows.

    (ti, ip) index candidate pairs into targets and panels, and mu_inf is
    the density max-norm of each pair's panel (or one value for all).
    Returns (ti, ip, rows) restricted to the pairs needs_correction flags,
    in their candidate order, with rows[0], rows[1], rows[2] the
    kernel_rows r1, rJ2, rJ3 of those pairs, one row per pair.  The rows
    are built one panel at a time.
    """
    # no candidates, as for a lone drop in DirectKernels: skip the fixed
    # cost of an empty pass
    frame = (needs_correction(gather(panels, ip), targets[ti], mu_inf)
             if ti.size else None)
    if frame is None:
        return ti[:0], ip[:0], np.zeros((3, 0, N_GL), dtype=complex)
    ti, ip = ti[frame.pair], ip[frame.pair]
    rows = np.empty((3, ti.size, N_GL), dtype=complex)
    order = np.argsort(ip, kind="stable")
    for sel in np.split(order, np.flatnonzero(np.diff(ip[order])) + 1):
        rows[:, sel] = kernel_rows(panels[ip[sel[0]]], frame.take(sel))
    return ti, ip, rows


def near_correct(panels, mu, targets):
    """Special-minus-plain panel integrals, summed per target.

    mu holds the density at the nodes of panels, N_GL values per panel in
    panel order.  For every candidate pair that needs_correction flags,
    with (r1, rJ2, rJ3) the kernel_rows and (p1, pJ2, pJ3) the plain_rows
    of the pair, the increments

        dI  = sum (r1 - p1) mu
        dIc = sum conj(r1 - p1) mu
        dJ  = (i/2) conj(sum (rJ2 - pJ2) mu) + (i/2) conj(sum (rJ3 - pJ3) mu)

    are accumulated.  The real and imaginary parts of the Cauchy-integral
    increment are (dI + dIc)/2 and (dI - dIc)/2i; dJ is the increment of
    the conjugate kernel.  Returns (dI, dIc, dJ), one value per target.
    """
    t = np.atleast_1d(np.asarray(targets, dtype=complex))
    mu_p = np.asarray(mu).reshape(len(panels), N_GL)
    ti, ip = candidates(panels, t)
    ti, ip, (r1, rJ2, rJ3) = corrected_pairs(
        panels, ti, ip, t, np.abs(mu_p).max(axis=1)[ip])
    p1, pJ2, pJ3 = plain_rows(gather(panels, ip), t[ti])
    m = mu_p[ip]
    d1 = r1 - p1
    out = np.zeros((3, t.shape[0]), dtype=complex)
    np.add.at(out[0], ti, np.sum(d1 * m, axis=1))
    np.add.at(out[1], ti, np.conj(np.sum(d1 * np.conj(m), axis=1)))
    np.add.at(out[2], ti, 0.5j * (np.conj(np.sum((rJ2 - pJ2) * m, axis=1))
                                  + np.conj(np.sum((rJ3 - pJ3) * m, axis=1))))
    return out[0], out[1], out[2]


def estimate_error(panel: PanelData, frame: PanelLocalFrame, mu_inf):
    """Contour-integral estimate of the plain-GL error of each pair.

    Combines the remainders of the three kernel integrals, using the
    max-norm mu_inf of the density on the panel (per pair, or one value
    for all) in place of its analytic continuation.  An estimate is +inf
    where Newton found no preimage, where the preimage degenerates onto
    the panel segment and where eta' vanishes at it.
    """
    shape = np.shape(frame.xi0)
    xi0 = np.ravel(frame.xi0)
    mu = np.broadcast_to(mu_inf, shape).ravel()
    est = np.full(xi0.shape, np.inf)
    on_segment = (np.abs(xi0.imag) < 1e-14) & (np.abs(xi0.real) <= 1.0)
    k = np.flatnonzero(np.ravel(frame.newton_ok) & ~on_segment)
    xi, mu = xi0[k], mu[k]
    eta = _per_pair(panel, "eta", shape)[k]
    eta_p = _per_pair(panel, "eta_p", shape)[k]
    # characteristic remainder function of the N_GL-point GL rule
    s = np.sqrt(xi * xi - 1.0)
    s = np.where(np.abs(xi + s) < 1.0, -s, s)
    kn = 2.0 * np.pi / (xi + s) ** (2 * N_GL + 1)
    knp = kn * (-(2 * N_GL + 1) / s)
    etap0 = npleg.legval(xi, eta_p.T, tensor=False)
    # pairs with eta'(xi0) == 0 divide by zero here and get inf below
    with np.errstate(divide="ignore", invalid="ignore"):
        nbar2 = -npleg.legval(xi, np.conj(eta_p).T, tensor=False) / etap0
        R1 = np.imag(kn * mu)
        R2 = kn * mu * nbar2
        R3 = knp / etap0 * (
            np.conj(npleg.legval(np.conj(xi), eta.T, tensor=False))
            - np.conj(npleg.legval(xi, eta.T, tensor=False))) * mu
        est[k] = np.where(etap0 == 0, np.inf,
                          np.abs(-(1j / np.pi) * R1 + np.conj(R2) / (2 * np.pi)
                                 + np.conj(R3) / (2 * np.pi)))
    return est.reshape(shape)


def needs_correction(panel: PanelData, z0, mu_inf):
    """Decide which point-panel pairs of a batch need the special rule.

    A pair needs it when Newton found its preimage and its estimate
    exceeds ACTIVATION_THRESHOLD.  Returns the frame of those pairs
    (pair numbers them in the batch), or None when there are none.
    """
    frame = locate_preimage(panel, z0)
    est = estimate_error(panel, frame, np.maximum(mu_inf, 1e-30))
    flag = frame.newton_ok & ~(est <= ACTIVATION_THRESHOLD)
    if not flag.any():
        return None
    return frame.take(flag)
