"""Point-panel special quadrature and quadrature-error estimation.

The near-singular layer-potential integrals over a 16-point panel are
replaced by a semi-analytic rule: the density is interpolated by a
degree-15 polynomial in the affinely transformed position variable, and
the singular moments

    p_j = int_{-1}^{1} tau^j/(tau - z0) dtau
    q_j = int_{-1}^{1} tau^j/(tau - z0)^2 dtau

are generated by forward recursion.  A separate contour-integral remainder
estimate predicts the plain Gauss-Legendre error for each point-panel pair
and decides when the special rule is needed.

One distance cull, cull, chooses the pairs that get a preimage and an
estimate: the targets within a radius of a panel's nearest node.  The
pairs that may be corrected (stokes.DirectKernels and
stokes.near_layer_matrices) lie within the panel's reach, beyond which
the estimate, set by the Bernstein ellipse of the preimage, cannot come
near the activation threshold; it follows the panel's shape, about 0.9
panel lengths on a well-resolved one.  dirichlet.estimate_field sums the
pairs within ESTIMATE_RADIUS panel lengths, wider, so that the terms the
sums leave out stay below 1e-20.

Panels come as one stacked PanelData, built in one vectorised
prepare_panel pass, with a leading panel axis on every field.  Indexing
it like an array gives a subset: panels[ip] has one row per entry of ip.
Every stage takes and returns one 1-D pair axis: a batch of m (target,
panel) pairs is m targets and the m panel rows panels[ip] that match them
one for one.  locate_preimage runs Newton elementwise over the batch,
estimate_error and needs_correction act on whole arrays, and kernel_rows
takes one moment recursion and one batched Vandermonde solve for all of
its pairs.  The path-deformation residues of p_0 are built in
correction_rows, only for the pairs it builds rows for.

The panel map eta is one polynomial.  prepare_panel fits it in Legendre
polynomials and converts the fit once into monomial coefficients
(PanelData.power); locate_preimage, the only reader of eta', forms it
from them by the power rule once per call.  On a few hundred pairs a
series costs its count of NumPy operations, not its length, so each
evaluation of a batch is one Horner pass: every Newton step and the
frame's four series values, which the residual check and estimate_error
read.  A preimage is accepted on the evaluation of eta that Newton
converged on.  The rim points of the reach are one product of power with
their monomial Vandermonde.

There is one correction mechanism: overwrite_near_blocks writes the
special rows of the flagged pairs over the plain entries of the weighted
kernels, for the interface nodes (stokes.DirectKernels) and for targets
off the interfaces alike.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import comb

import numpy as np
from numpy.polynomial import legendre as npleg

from .spectral import GL_NODES, PANEL_ORDER

# inverse Legendre-Vandermonde on the reference nodes; orthogonality makes
# the panel-parametrization fit eta backward-stable out to moderate |xi|
_LEGV_INV = np.linalg.inv(npleg.legvander(GL_NODES, PANEL_ORDER - 1))
# power-basis coefficients of the Legendre polynomials, P_j on column j,
# from the explicit sum: integer numerators over 2^j, so every entry is exact
_LEG2POW = np.zeros((PANEL_ORDER, PANEL_ORDER))
for _j in range(PANEL_ORDER):
    for _k in range(_j // 2 + 1):
        _LEG2POW[_j - 2 * _k, _j] = ((-1) ** _k * comb(_j, _k)
                                     * comb(2 * _j - 2 * _k, _j) / 2 ** _j)
# estimated plain-GL panel error above which the correction is applied
ACTIVATION_THRESHOLD = 1e-13
# the Bernstein ellipse E_rho outside which no preimage needs the special
# rule: 2 pi/rho^33 is 7e-18 at rho = 3.5, and no pair outside a panel's
# reach (prepare_panel) has measured above 5.0e-17 (star targets at 25-100
# panels, a pinched drop, pair_clean nodes at 2x64-2x512).  The reach
# follows the panel: 0.83-0.94 panel lengths on the 50-panel star, up to 15
# on the tips of an under-resolved pinched drop, where a fixed 1.0 would
# miss estimates up to 1.8e-12
REACH_RHO = 3.5
# 32 points of E_rho's boundary (the Joukowski image of the circle of
# radius rho), their monomial Vandermonde, and for each the node nearest
# its real part, clipped to the panel
_RIM = np.cos(2 * np.pi * np.arange(32) / 32 - 1j * np.log(REACH_RHO))
_RIM_POW = np.vander(_RIM, PANEL_ORDER, increasing=True)
_RIM_NODE = np.abs(np.clip(_RIM.real, -1, 1)[:, None] - GL_NODES).argmin(1)
# the cull of estimate_field's summed estimates, in panel lengths: at 1.0
# the terms it would drop reach 2.3e-18 on the 25-panel star
ESTIMATE_RADIUS = 1.5
# Newton for the panel preimage: iteration cap and relative acceptance
NEWTON_MAXITER = 20
NEWTON_TOL = 1e-13


def _rows(obj, sel):
    """obj with every field indexed by sel along their shared leading axis."""
    return type(obj)(*(getattr(obj, f.name)[sel] for f in fields(obj)))


def _horner(coef, x):
    """sum_k coef[k] x^k by Horner's rule, coefficient axis first;
    elementwise, so a value does not depend on the rest of its batch."""
    val = coef[-1]
    for row in coef[-2::-1]:
        val = val * x + row
    return val


def cull(panels, targets, radius):
    """(target, panel) pairs of a 1-D array of targets whose nearest node
    of panel g lies within radius[g], target-major, as np.nonzero gives.

    Node distances are formed only where the chord midpoint lies within
    radius + extent (prepare_panel): a target beyond is beyond radius of
    every node.  That bound is widened by 1e-12 relative against rounding.
    """
    gap = panels.mid - targets[:, None]
    bound = (radius + panels.extent) ** 2 * (1 + 1e-12)
    ti, ip = np.nonzero(gap.real ** 2 + gap.imag ** 2 <= bound)
    d = panels.z_nodes[ip] - targets[ti, None]
    near = (d.real ** 2 + d.imag ** 2).min(axis=1) <= radius[ip] ** 2
    return ti[near], ip[near]


@dataclass
class PanelData:
    """A stacked set of panels and the quantities near evaluation reuses.

    Every field has a leading panel axis, and node fields a trailing axis
    of PANEL_ORDER nodes.  Positions of the transformed frame put each
    panel's endpoints at -1 and +1.  Indexing acts on all fields at once:
    panels[ip], ip a 1-D index array, holds one row per entry of ip and is
    what the stages take; panels[k] is panel k without the panel axis, for
    reading its fields.  len and iteration run over the panels.  power is
    the one polynomial of the panel map: PANEL_ORDER monomial coefficients
    of eta per panel, lowest degree first; locate_preimage forms eta'
    from them.
    """

    z_nodes: np.ndarray          # physical node positions
    zp_nodes: np.ndarray         # dz/dalpha at the nodes
    w_alpha: np.ndarray          # parameter-space GL weights
    scale: np.ndarray            # affine scale: t = scale*(z - mid)
    mid: np.ndarray
    nodes_t: np.ndarray          # transformed node positions
    power: np.ndarray            # eta, eta(GL_NODES) = nodes_t
    length: np.ndarray           # physical panel length (approx)
    reach: np.ndarray            # cull radius of the correction (prepare_panel)
    extent: np.ndarray           # largest distance of a node from mid

    __getitem__ = _rows

    def __len__(self):
        return len(self.scale)

    def transform(self, z0):
        # a named difference is never overwritten by the product: NumPy
        # reuses large temporaries in place, and that product rounds
        # differently, so a pair's frame would depend on its batch size
        diff = z0 - self.mid
        return self.scale * diff


@dataclass
class PanelLocalFrame:
    """Target-specific frames of a batch of point-panel pairs.

    Each field holds one entry per pair along the batch's 1-D pair axis.
    pair numbers the pairs in the batch that locate_preimage solved; take
    keeps those numbers.  series holds, per pair, the four series values
    that the residual check and estimate_error read, from one Horner
    pass.  The frame carries no residue of p_0: correction_rows builds
    it for the pairs it corrects.
    """

    z0: np.ndarray
    z0t: np.ndarray              # transformed target
    xi0: np.ndarray              # preimage of the target under eta
    # (m, 4): eta, eta' and conj(eta') at xi0, and eta at conj(xi0)
    series: np.ndarray
    newton_ok: np.ndarray
    pair: np.ndarray

    take = _rows


def prepare_panel(z_nodes, zp_nodes, w_alpha, za, zb) -> PanelData:
    """The transformed frames and interpolation data of a stack of panels.

    z_nodes, zp_nodes and w_alpha hold (n_panels, PANEL_ORDER) node
    samples and za, zb the endpoints of each panel.
    """
    z_nodes = np.asarray(z_nodes, dtype=complex)
    za, zb = np.asarray(za, dtype=complex), np.asarray(zb, dtype=complex)
    mid = 0.5 * (za + zb)
    scale = 2.0 / (zb - za)
    nodes_t = scale[:, None] * (z_nodes - mid[:, None])
    # degree-15 parametrization of each transformed panel: eta(xi) with
    # eta(GL_NODES[k]) = nodes_t[k], fitted in Legendre coefficients;
    # noise-level coefficients are zeroed so evaluation stays stable a
    # couple of panel lengths out; one matrix-vector product per panel
    # keeps each panel's coefficients independent of the stack
    eta = (_LEGV_INV @ nodes_t[:, :, None])[:, :, 0]
    eta[np.abs(eta) < 1e-14 * np.abs(eta).max(axis=-1, keepdims=True)] = 0.0
    # to monomials by one real matrix product per panel
    power = (_LEG2POW @ eta[:, :, None].view(float)).view(complex)[:, :, 0]
    # reach: the largest distance from a point of eta(boundary of E_rho) to
    # its _RIM_NODE node (at most 2% above the nearest-node distance); a
    # target farther from every node has its preimage outside E_rho.  One
    # matrix product costs a tenth of a Horner pass here; its rounding may
    # vary with the stack size, which moves only pairs whose estimates lie
    # far below the threshold
    rim = power @ _RIM_POW.T
    reach = np.abs(rim - nodes_t[:, _RIM_NODE]).max(axis=1)
    return PanelData(z_nodes=z_nodes, zp_nodes=np.asarray(zp_nodes),
                     w_alpha=np.asarray(w_alpha), scale=scale, mid=mid,
                     nodes_t=nodes_t, power=power,
                     length=np.sum(np.abs(zp_nodes) * w_alpha, axis=-1),
                     reach=reach / np.abs(scale),
                     extent=np.abs(z_nodes - mid[:, None]).max(axis=1))


def locate_preimage(panel: PanelData, z0) -> PanelLocalFrame:
    """Solve eta(xi0) = z0 (transformed) by Newton from the affine guess.

    panel holds one row per target z0.  eta' is formed from panel.power
    before the loop, and each Newton step evaluates [eta'; eta] at
    [xi; xi] of the live pairs by one _horner pass.  Each pair stops when
    eta' vanishes at its iterate, when its Newton step falls below 1e-14
    relative to max(1, |xi|), or after NEWTON_MAXITER steps.  One more
    pass fills the frame's series values at xi0 for every pair, and its
    preimage is accepted (newton_ok) when the residual |eta(xi0) - z0t|
    is within NEWTON_TOL relative to max(1, |z0t|) and |xi0| < 10.
    """
    zt = panel.transform(z0)
    xi = zt.copy()
    # (PANEL_ORDER, 2, m): eta' then eta, per pair; eta' by the power rule
    # p'_k = (k + 1) p_{k+1} with a zero top coefficient, so one pass sums both
    power = np.zeros((PANEL_ORDER, 2, zt.size), dtype=complex)
    eta_p, eta = power[:, 0], power[:, 1]
    eta[:] = panel.power.T
    eta_p[:-1] = np.arange(1.0, PANEL_ORDER)[:, None] * eta[1:]
    live = np.arange(zt.size)
    for _ in range(NEWTON_MAXITER):
        x = xi[live]
        both = _horner(power[:, :, live].reshape(PANEL_ORDER, -1),
                       np.concatenate((x, x)))
        dp, val = both[:live.size], both[live.size:]
        moving = dp != 0
        live, dp = live[moving], dp[moving]
        step = (val[moving] - zt[live]) / dp
        xi[live] -= step
        live = live[~(np.abs(step)
                      < 1e-14 * np.maximum(1.0, np.abs(xi[live])))]
        if live.size == 0:
            break
    series = _horner(
        np.concatenate((eta, eta_p, np.conj(eta_p), eta), axis=1),
        np.concatenate((xi, xi, xi, np.conj(xi)))).reshape(4, -1).T
    resid = np.abs(series[:, 0] - zt)
    ok = ((resid <= NEWTON_TOL * np.maximum(1.0, np.abs(zt)))
          & (np.abs(xi) < 10.0))
    return PanelLocalFrame(z0=z0, z0t=zt, xi0=xi, series=series,
                           newton_ok=ok, pair=np.arange(zt.size))


def _residue_correction(panel: PanelData, frame: PanelLocalFrame):
    """Path-deformation residues for targets between the panel and [-1, 1].

    Near the panel, eta is a graph-like perturbation of the identity, so
    the target sits in the lens between the curved panel and the straight
    segment exactly when Im(xi0) and Im(z0t) carry opposite signs; the
    residue is then -2*pi*i times the sign of Im(z0t): the closed contour
    formed by the arc and the segment runs counterclockwise when the arc
    bulges below the segment and clockwise when above.  Away from the panel
    (no reliable preimage) a comparison of the principal-branch p_0 with
    the 16-point rule along the actual arc settles the branch; plain
    quadrature of p_0 is accurate there.
    """
    z0t, xi0 = frame.z0t, frame.xi0
    residue = np.zeros(z0t.shape, dtype=complex)
    on_segment = (np.abs(z0t.imag) < 1e-14) & (np.abs(z0t.real) <= 1.0)
    lens_test = ~on_segment & frame.newton_ok & (np.abs(xi0) < 1.2)
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


def recursion_pq(z, residue=0.0) -> tuple[np.ndarray, np.ndarray]:
    """Monomial moments p_j, q_j on [-1, 1], moment index first.

    z is a 1-D batch of transformed targets, and p[j] and q[j] have its
    shape.  A nonzero residue (+-2*pi*i) is folded into p_0 before
    recursing; the recursions then propagate it to every higher moment
    consistently.  Forward recursion is stable in the activation region
    (preimages within about half a panel length, |z0| <~ 1.5); farther
    out the absolute error grows like eps |z0|^15, where the special rule
    is never selected.
    """
    if np.any((z.imag == 0.0) & (np.abs(z.real) <= 1.0)):
        raise ValueError("target preimage lies on the panel segment")
    p = np.empty((PANEL_ORDER, z.size), dtype=complex)
    q = np.empty_like(p)
    p[0] = np.log(1.0 - z) - np.log(-1.0 - z) + residue
    q[0] = -1.0 / (1.0 + z) - 1.0 / (1.0 - z)
    for j in range(1, PANEL_ORDER):
        p[j] = z * p[j - 1] + (1.0 - (-1.0) ** j) / j
        q[j] = z * q[j - 1] + p[j - 1]
    return p, q


def correction_rows(panel: PanelData, frame: PanelLocalFrame):
    """Row functionals for the two singular panel integrals.

    Returns (r1, r2), one row of PANEL_ORDER weights per pair of frame,
    with

        int_panel f(tau)/(tau - z0) dtau          ~ r1 . f(nodes)
        int_panel f(tau)/(tau - z0)^2 dtau        ~ r2 . f(nodes)

    where f is sampled at the nodes of the pair's panel (its row of panel)
    and interpolated in the transformed position variable.  Only these
    pairs get the path-deformation residue of p_0.
    """
    p, q = recursion_pq(frame.z0t, _residue_correction(panel, frame))
    # transformed Vandermonde V[m, k, j] = nodes_t[m, k]^j, built as
    # np.vander builds it
    V = np.empty(panel.nodes_t.shape + (PANEL_ORDER,), dtype=complex)
    V[:, :, 0] = 1.0
    V[:, :, 1:] = panel.nodes_t[:, :, None]
    np.multiply.accumulate(V[:, :, 1:], out=V[:, :, 1:], axis=2)
    # I1: row = p^T V^{-1}; I2 carries the affine Jacobian of 1/(tau-z0)^2;
    # one batched solve of V^T r = (p, q) covers every pair
    r = np.linalg.solve(np.swapaxes(V, 1, 2), np.stack([p.T, q.T], axis=2))
    return r[:, :, 0], panel.scale[:, None] * r[:, :, 1]


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
    rJ3 = r2 * (np.conj(panel.z_nodes) - np.conj(frame.z0)[:, None])
    return r1, rJ2, rJ3


def overwrite_near_blocks(C, M2, panels, targets, ti, ip, mu_inf):
    """Write the special rows of the flagged pairs over the plain entries.

    C and M2 are the weighted kernels of stokes.layer_matrices, one row
    per target, with panel g on columns 16g:16g+16 (16 = PANEL_ORDER).
    (ti, ip) index candidate pairs into targets and panels, and mu_inf is
    the density max-norm of each pair's panel (or one value for all).
    For every pair that needs_correction flags, the kernel_rows (r1, rJ2,
    rJ3) replace row ti, columns 16 ip:16 ip+16, in place:

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
    rows = ti[:, None]
    cols = PANEL_ORDER * ip[:, None] + np.arange(PANEL_ORDER)
    C[rows, cols] = r1
    M2[rows, cols] = 0.5j * (np.conj(rJ2) + np.conj(rJ3))
    return ti, ip


def estimate_error(panel: PanelData, frame: PanelLocalFrame, mu_inf):
    """Contour-integral estimate of the plain-GL error of each pair.

    Combines the remainders of the three kernel integrals, using the
    max-norm mu_inf of the density on the panel (per pair, or one value
    for all) in place of its analytic continuation.  The values of eta,
    eta' and conj(eta') at xi0 and of eta at conj(xi0) come from
    frame.series, so no series is evaluated here.  An estimate is +inf
    where Newton found no preimage, where the preimage degenerates onto
    the panel segment and where eta' vanishes at it.
    """
    xi0 = frame.xi0
    mu = np.broadcast_to(mu_inf, xi0.shape)
    est = np.full(xi0.shape, np.inf)
    on_segment = (np.abs(xi0.imag) < 1e-14) & (np.abs(xi0.real) <= 1.0)
    k = np.flatnonzero(frame.newton_ok & ~on_segment)
    xi, mu = xi0[k], mu[k]
    eta0, etap0, cetap0, eta_c = frame.series[k].T
    # characteristic remainder function of the PANEL_ORDER-point GL rule
    s = np.sqrt(xi * xi - 1.0)
    s = np.where(np.abs(xi + s) < 1.0, -s, s)
    kn = 2.0 * np.pi / (xi + s) ** (2 * PANEL_ORDER + 1)
    # a named quotient: NumPy would reuse a large unnamed temporary in place
    # and swap the complex operands, so the bits would depend on batch size
    dlog = -(2 * PANEL_ORDER + 1) / s
    knp = kn * dlog
    # pairs with eta'(xi0) == 0 divide by zero here and get inf below
    with np.errstate(divide="ignore", invalid="ignore"):
        nbar2 = -cetap0 / etap0
        R1 = np.imag(kn * mu)
        R2 = kn * mu * nbar2
        R3 = knp / etap0 * (np.conj(eta_c) - np.conj(eta0)) * mu
        est[k] = np.where(etap0 == 0, np.inf,
                          np.abs(-(1j / np.pi) * R1 + np.conj(R2) / (2 * np.pi)
                                 + np.conj(R3) / (2 * np.pi)))
    return est


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
