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

Panels come as one stacked PanelData, built in one vectorised
prepare_panel pass, with a leading panel axis on every field.  Indexing
it like an array gives a subset: panels[k] is one panel and panels[ip]
has one row per entry of ip.  Every stage runs on a batch of (target,
panel) pairs whose panel rows match its targets one for one:
locate_preimage runs Newton elementwise over the batch, estimate_error
and needs_correction act on whole arrays, and kernel_rows takes one
moment recursion and one batched Vandermonde solve for all of its pairs.
One panel and one target form a batch of one.

There is one correction mechanism: overwrite_near_blocks writes the
special rows of the flagged pairs over the plain entries of the weighted
kernels, for the interface nodes (stokes.DirectKernels) and for targets
off the interfaces alike.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
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


def _rows(obj, sel):
    """obj with every field indexed by sel along their shared leading axis."""
    return type(obj)(*(getattr(obj, f.name)[sel] for f in fields(obj)))


def candidates(panels, targets):
    """(target, panel) index pairs that may need the special rule.

    A pair is a candidate when the panel node nearest the target lies
    within CULL_FACTOR panel lengths of it.  Returns two index arrays,
    target-major, as np.nonzero does.
    """
    t = np.atleast_1d(np.asarray(targets, dtype=complex))
    dmin = np.abs(panels.z_nodes[None, :, :] - t[:, None, None]).min(axis=2)
    return np.nonzero(dmin <= CULL_FACTOR * panels.length)


@dataclass
class PanelData:
    """A stacked set of panels and the quantities near evaluation reuses.

    Every field has a leading panel axis (none for a single panel), and
    node fields a trailing axis of N_GL nodes.  Positions of the
    transformed frame put each panel's endpoints at -1 and +1.  Indexing
    acts on all fields at once: panels[k] is panel k and panels[ip] holds
    one row per entry of ip; len and iteration run over the panels.
    """

    z_nodes: np.ndarray          # physical node positions
    zp_nodes: np.ndarray         # dz/dalpha at the nodes
    w_alpha: np.ndarray          # parameter-space GL weights
    scale: np.ndarray            # affine scale: t = scale*(z - mid)
    mid: np.ndarray
    nodes_t: np.ndarray          # transformed node positions
    eta: np.ndarray              # poly coefficients, eta(GL_NODES) = nodes_t
    eta_p: np.ndarray            # derivative coefficients of eta
    length: np.ndarray           # physical panel length (approx)

    __getitem__ = _rows

    def __len__(self):
        return len(self.scale)

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

    take = _rows


def prepare_panel(z_nodes, zp_nodes, w_alpha, za, zb) -> PanelData:
    """The transformed frames and interpolation data of a stack of panels.

    z_nodes, zp_nodes and w_alpha hold (..., N_GL) node samples and za, zb
    the (...) endpoints of each panel; the leading axes become the panel
    axes of the result.
    """
    z_nodes = np.asarray(z_nodes, dtype=complex)
    za, zb = np.asarray(za, dtype=complex), np.asarray(zb, dtype=complex)
    mid = 0.5 * (za + zb)
    scale = 2.0 / (zb - za)
    nodes_t = scale[..., None] * (z_nodes - mid[..., None])
    # degree-15 parametrization of each transformed panel: eta(xi) with
    # eta(GL_NODES[k]) = nodes_t[k], stored as Legendre coefficients;
    # noise-level coefficients are zeroed so evaluation stays stable a
    # couple of panel lengths out; one matrix-vector product per panel
    # keeps each panel's coefficients independent of the stack
    eta = (_LEGV_INV @ nodes_t[..., None])[..., 0]
    eta[np.abs(eta) < 1e-14 * np.abs(eta).max(axis=-1, keepdims=True)] = 0.0
    return PanelData(z_nodes=z_nodes, zp_nodes=np.asarray(zp_nodes),
                     w_alpha=np.asarray(w_alpha), scale=scale, mid=mid,
                     nodes_t=nodes_t, eta=eta,
                     eta_p=npleg.legder(eta, axis=-1),
                     length=np.sum(np.abs(zp_nodes) * w_alpha, axis=-1))


def _batch(panel: PanelData) -> PanelData:
    """The panel rows of a batch with one leading axis (one for a single pair)."""
    return panel if np.ndim(panel.scale) else panel[None]


def locate_preimage(panel: PanelData, z0) -> PanelLocalFrame:
    """Solve eta(xi0) = z0 (transformed) by Newton from the affine guess.

    panel holds one row per target z0.  Each pair stops when eta'
    vanishes at its iterate, when its Newton step falls below 1e-14
    relative to max(1, |xi|), or after NEWTON_MAXITER steps; its preimage
    is accepted (newton_ok) when the residual is within NEWTON_TOL
    relative to max(1, |z0t|) and |xi0| < 10.
    """
    shape = np.shape(panel.scale)
    z0 = np.broadcast_to(np.asarray(z0, dtype=complex), shape)
    panel = _batch(panel)
    # flat arrays throughout: a single pair then takes the same array
    # arithmetic as a batch (NumPy scalar operators round differently)
    zt = panel.transform(z0.ravel())
    xi = zt.copy()
    live = np.arange(zt.size)
    for _ in range(NEWTON_MAXITER):
        dp = npleg.legval(xi[live], panel.eta_p[live].T, tensor=False)
        moving = dp != 0
        live, dp = live[moving], dp[moving]
        step = (npleg.legval(xi[live], panel.eta[live].T, tensor=False)
                - zt[live]) / dp
        xi[live] -= step
        live = live[~(np.abs(step)
                      < 1e-14 * np.maximum(1.0, np.abs(xi[live])))]
        if live.size == 0:
            break
    resid = np.abs(npleg.legval(xi, panel.eta.T, tensor=False) - zt)
    ok = ((resid <= NEWTON_TOL * np.maximum(1.0, np.abs(zt)))
          & (np.abs(xi) < 10.0))
    residue = _residue_correction(panel, zt, xi, ok)
    return PanelLocalFrame(
        z0=z0, z0t=zt.reshape(shape), xi0=xi.reshape(shape),
        newton_ok=ok.reshape(shape), residue=residue.reshape(shape),
        pair=np.arange(zt.size).reshape(shape))


def _residue_correction(panel: PanelData, z0t, xi0, ok):
    """Path-deformation residues for targets between the panel and [-1, 1].

    Near the panel, eta is a graph-like perturbation of the identity, so
    the target sits in the lens between the curved panel and the straight
    segment exactly when Im(xi0) and Im(z0t) carry opposite signs; the
    residue is then -2*pi*i times the sign of Im(z0t): the closed contour
    formed by the arc and the segment runs counterclockwise when the arc
    bulges below the segment and clockwise when above.  Away from the panel
    (no reliable preimage) a comparison of the principal-branch p_0 with
    the 16-point rule along the actual arc settles the branch; plain
    quadrature of p_0 is accurate there.  panel, z0t, xi0 and ok are flat
    over the batch.
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
    zt, pf = z0t[far], panel[far]
    p0_num = np.sum(pf.w_alpha * (pf.scale[:, None] * pf.zp_nodes)
                    / (pf.nodes_t - zt[:, None]), axis=1)
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

    Returns (r1, r2), one row of N_GL weights per pair of frame, with

        int_panel f(tau)/(tau - z0) dtau          ~ r1 . f(nodes)
        int_panel f(tau)/(tau - z0)^2 dtau        ~ r2 . f(nodes)

    where f is sampled at the nodes of the pair's panel (its row of panel)
    and interpolated in the transformed position variable.
    """
    p, q = recursion_pq(frame.z0t, frame.residue)
    # transformed Vandermonde V[..., k, j] = nodes_t[k]^j, built as
    # np.vander builds it
    V = np.empty(np.shape(panel.nodes_t) + (N_GL,), dtype=complex)
    V[..., 0] = 1.0
    V[..., 1:] = panel.nodes_t[..., None]
    np.multiply.accumulate(V[..., 1:], out=V[..., 1:], axis=-1)
    # I1: row = p^T V^{-1}; I2 carries the affine Jacobian of 1/(tau-z0)^2;
    # one batched solve of V^T r = (p, q) covers every pair
    r = np.linalg.solve(np.swapaxes(V, -1, -2),
                        np.stack([np.moveaxis(p, 0, -1),
                                  np.moveaxis(q, 0, -1)], axis=-1))
    return r[..., 0], panel.scale[..., None] * r[..., 1]


def kernel_rows(panel: PanelData, frame: PanelLocalFrame):
    """Correction rows for the two kernels of the velocity representation.

    For a target z0 and density samples mu on its panel,

        int mu(tau) dtau/(tau - z0)                     = rI1 . mu
        int mu(tau) nbar^2 dtau/(tau - z0)              = rJ2 . mu
        int mu(tau) (conj(tau) - conj(z0)) dtau/(tau-z0)^2 = rJ3 . mu

    with nbar the conjugated outward unit normal factor entering the
    split of the conjugate kernel; one row per pair of frame, whose panel
    is the matching row of panel.
    """
    r1, r2 = correction_rows(panel, frame)
    tang = panel.zp_nodes / np.abs(panel.zp_nodes)
    nbar2 = -np.conj(tang) ** 2
    rJ2 = r1 * nbar2
    rJ3 = r2 * (np.conj(panel.z_nodes) - np.conj(frame.z0)[..., None])
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


def overwrite_near_blocks(C, M2, panels, targets, ti, ip, mu_inf):
    """Write the special rows of the flagged pairs over the plain entries.

    C and M2 are the weighted kernels of stokes.layer_matrices, one row
    per target, with panel g on columns 16g:16g+16.  (ti, ip) index
    candidate pairs into targets and panels, and mu_inf is the density
    max-norm of each pair's panel (or one value for all).  For every pair
    that needs_correction flags, the kernel_rows (r1, rJ2, rJ3) replace
    row ti, columns 16 ip:16 ip+16, in place:

        C  <- r1
        M2 <- (i/2) (conj rJ2 + conj rJ3)

    The plain Gauss-Legendre rows of the same integrals are exactly the
    entries they replace, so the result is the plain operator plus the
    special-minus-plain increment of every flagged pair.  Returns (ti, ip)
    of the corrected pairs, in candidate order.
    """
    # no candidates, as for a lone drop: skip the fixed cost of an empty pass
    frame = (needs_correction(panels[ip], targets[ti], mu_inf)
             if ti.size else None)
    if frame is None:
        return ti[:0], ip[:0]
    ti, ip = ti[frame.pair], ip[frame.pair]
    r1, rJ2, rJ3 = kernel_rows(panels[ip], frame)
    rows, cols = ti[:, None], N_GL * ip[:, None] + np.arange(N_GL)
    C[rows, cols] = r1
    M2[rows, cols] = 0.5j * (np.conj(rJ2) + np.conj(rJ3))
    return ti, ip


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
    xi, mu, pk = xi0[k], mu[k], _batch(panel)
    eta, eta_p = pk.eta[k], pk.eta_p[k]
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
