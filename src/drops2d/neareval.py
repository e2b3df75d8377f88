"""Per point-panel special quadrature and quadrature-error estimation.

The near-singular layer-potential integrals over a 16-point panel are
replaced, target by target, by a semi-analytic rule: the density is
interpolated by a degree-15 polynomial in the affinely transformed
position variable, and the singular moments

    p_j = int_{-1}^{1} tau^j/(tau - z0) dtau
    q_j = int_{-1}^{1} tau^j/(tau - z0)^2 dtau

are generated by forward recursion.  A separate contour-integral remainder
estimate predicts the plain Gauss-Legendre error for each point-panel pair
and decides when the special rule is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class PanelData:
    """Reusable per-panel quantities for near evaluation.

    All positions live in the transformed frame where the panel endpoints
    sit at -1 and +1.
    """

    z_nodes: np.ndarray          # physical node positions
    zp_nodes: np.ndarray         # dz/dalpha at the nodes
    w_alpha: np.ndarray          # parameter-space GL weights
    za: complex                  # physical start point
    zb: complex                  # physical end point
    scale: complex               # affine scale: t = scale*(z - mid)
    mid: complex
    nodes_t: np.ndarray          # transformed node positions
    vand_lu: tuple               # LU factors of the transformed Vandermonde
    eta: np.ndarray              # poly coefficients, eta(GL_NODES) = nodes_t
    eta_p: np.ndarray            # derivative coefficients of eta
    length: float                # physical panel length (approx)

    def transform(self, z0: complex) -> complex:
        return self.scale * (z0 - self.mid)


@dataclass
class PanelLocalFrame:
    """Target-specific frame for one point-panel pair."""

    z0: complex
    z0t: complex                 # transformed target
    xi0: complex                 # preimage of the target under eta
    newton_ok: bool
    residue: complex             # 0 or +-2*pi*i added to p_0


def prepare_panel(z_nodes, zp_nodes, w_alpha, za, zb) -> PanelData:
    """Precompute the transformed frame and interpolation data of a panel."""
    mid = 0.5 * (za + zb)
    scale = 2.0 / (zb - za)
    nodes_t = scale * (np.asarray(z_nodes) - mid)
    V = np.vander(nodes_t, N_GL, increasing=True)
    import scipy.linalg as sla

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
        za=za,
        zb=zb,
        scale=scale,
        mid=mid,
        nodes_t=nodes_t,
        vand_lu=lu,
        eta=eta,
        eta_p=eta_p,
        length=length,
    )


def _polyval(coef, x):
    return npleg.legval(x, coef)


def locate_preimage(panel: PanelData, z0: complex, maxiter: int = 20,
                    tol: float = 1e-13) -> PanelLocalFrame:
    """Solve eta(xi0) = z0 (transformed) by Newton from the affine guess."""
    z0t = panel.transform(z0)
    xi = z0t
    ok = False
    for _ in range(maxiter):
        dp = _polyval(panel.eta_p, xi)
        if dp == 0:
            break
        step = (_polyval(panel.eta, xi) - z0t) / dp
        xi = xi - step
        if abs(step) < 1e-15:
            break
    if abs(_polyval(panel.eta, xi) - z0t) <= tol * max(1.0, abs(z0t)) and abs(xi) < 10.0:
        ok = True
    residue = _residue_correction(panel, z0t, xi if ok else None)
    return PanelLocalFrame(z0=z0, z0t=z0t, xi0=xi, newton_ok=ok, residue=residue)


def _residue_correction(panel: PanelData, z0t: complex, xi0) -> complex:
    """Path-deformation residue for targets between the panel and [-1, 1].

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
    if abs(z0t.imag) < 1e-14 and abs(z0t.real) <= 1.0:
        return 0.0
    if xi0 is not None and abs(xi0) < 1.2:
        # beyond the panel ends (|Re xi0| > 1) the target is outside the
        # lens whatever the sign of Im(xi0)
        between = abs(xi0.real) <= 1.0 and (xi0.imag * z0t.imag) < 0.0
        if between:
            return -2j * np.pi * np.sign(z0t.imag)
        return 0.0
    tp = panel.scale * panel.zp_nodes
    p0_num = np.sum(panel.w_alpha * tp / (panel.nodes_t - z0t))
    p0_an = np.log(complex(1.0 - z0t)) - np.log(complex(-1.0 - z0t))
    best, corr = abs(p0_num - p0_an), 0.0
    for s in (-1.0, 1.0):
        cand = 2j * np.pi * s
        d = abs(p0_num - (p0_an + cand))
        if d < best:
            best, corr = d, cand
    return corr


def recursion_pq(z0t: complex, residue: complex = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Monomial moments p_j, q_j on [-1, 1].

    A nonzero residue (+-2*pi*i) is folded into p_0 before recursing; the
    recursions then propagate it to every higher moment consistently.
    Forward recursion is stable in the activation region (preimages within
    about half a panel length, |z0| <~ 1.5); farther out the absolute error
    grows like eps |z0|^15, where the special rule is never selected.
    """
    if z0t.imag == 0.0 and abs(z0t.real) <= 1.0:
        raise ValueError("target preimage lies on the panel segment")
    p = np.empty(N_GL, dtype=complex)
    q = np.empty(N_GL, dtype=complex)
    p[0] = np.log(complex(1.0 - z0t)) - np.log(complex(-1.0 - z0t)) + residue
    q[0] = -1.0 / (1.0 + z0t) - 1.0 / (1.0 - z0t)
    for j in range(1, N_GL):
        p[j] = z0t * p[j - 1] + (1.0 - (-1.0) ** j) / j
        q[j] = z0t * q[j - 1] + p[j - 1]
    return p, q


def correction_rows(panel: PanelData, frame: PanelLocalFrame):
    """Row functionals for the two singular panel integrals.

    Returns (r1, r2) with

        int_panel f(tau)/(tau - z0) dtau          ~ r1 . f(nodes)
        int_panel f(tau)/(tau - z0)^2 dtau        ~ r2 . f(nodes)

    where f is sampled at the panel nodes and interpolated in the
    transformed position variable.
    """
    import scipy.linalg as sla

    p, q = recursion_pq(frame.z0t, frame.residue)
    # I1: row = p^T V^{-1}; I2 carries the affine Jacobian of 1/(tau-z0)^2
    r1 = sla.lu_solve(panel.vand_lu, p, trans=1)
    r2 = panel.scale * sla.lu_solve(panel.vand_lu, q, trans=1)
    return r1, r2


def kernel_rows(panel: PanelData, frame: PanelLocalFrame):
    """Correction rows for the two kernels of the velocity representation.

    For a target z0 and density samples mu on the panel,

        int mu(tau) dtau/(tau - z0)                     = rI1 . mu
        int mu(tau) nbar^2 dtau/(tau - z0)              = rJ2 . mu
        int mu(tau) (conj(tau) - conj(z0)) dtau/(tau-z0)^2 = rJ3 . mu

    with nbar the conjugated outward unit normal factor entering the
    split of the conjugate kernel.
    """
    r1, r2 = correction_rows(panel, frame)
    tang = panel.zp_nodes / np.abs(panel.zp_nodes)
    nbar2 = -np.conj(tang) ** 2
    rJ2 = r1 * nbar2
    rJ3 = r2 * (np.conj(panel.z_nodes) - np.conj(frame.z0))
    return r1, rJ2, rJ3


def plain_rows(panel: PanelData, z0: complex):
    """Plain Gauss-Legendre rows for the same three integrals."""
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


def near_correct(panels, mu, targets):
    """Special-minus-plain panel integrals, summed per target.

    mu holds the density at the nodes of panels, N_GL values per panel in
    panel order.  For every target z0 and every panel that
    needs_correction flags, with (r1, rJ2, rJ3) the kernel_rows and
    (p1, pJ2, pJ3) the plain_rows of the pair, the increments

        dI  = sum (r1 - p1) mu
        dIc = sum conj(r1 - p1) mu
        dJ  = (i/2) conj(sum (rJ2 - pJ2) mu) + (i/2) conj(sum (rJ3 - pJ3) mu)

    are accumulated.  The real and imaginary parts of the Cauchy-integral
    increment are (dI + dIc)/2 and (dI - dIc)/2i; dJ is the increment of
    the conjugate kernel.  Returns (dI, dIc, dJ), one value per target.
    """
    t = np.atleast_1d(np.asarray(targets, dtype=complex))
    mu_p = np.asarray(mu).reshape(len(panels), N_GL)
    mu_inf = np.abs(mu_p).max(axis=1)
    out = np.zeros((3, t.shape[0]), dtype=complex)
    for k, z0 in enumerate(t):
        for panel, m, m_inf in zip(panels, mu_p, mu_inf):
            frame = needs_correction(panel, z0, m_inf)
            if frame is None:
                continue
            r1, rJ2, rJ3 = kernel_rows(panel, frame)
            p1, pJ2, pJ3 = plain_rows(panel, z0)
            d1 = r1 - p1
            out[0, k] += d1 @ m
            out[1, k] += np.conj(d1 @ np.conj(m))
            out[2, k] += 0.5j * (np.conj((rJ2 - pJ2) @ m)
                                 + np.conj((rJ3 - pJ3) @ m))
    return out[0], out[1], out[2]


def _kn(xi: complex, n: int = N_GL):
    """Characteristic remainder function of the n-point GL rule."""
    s = np.sqrt(xi * xi - 1.0)
    if abs(xi + s) < 1.0:
        s = -s
    return 2.0 * np.pi / (xi + s) ** (2 * n + 1), s


def estimate_error(panel: PanelData, frame: PanelLocalFrame, mu_inf: float) -> float:
    """Contour-integral estimate of the plain-GL error for this pair.

    Combines the remainders of the three kernel integrals, using the
    max-norm of the density on the panel in place of its analytic
    continuation.  Returns +inf when the preimage degenerates onto the
    panel segment.
    """
    xi0 = frame.xi0
    if not frame.newton_ok:
        return np.inf
    if abs(xi0.imag) < 1e-14 and abs(xi0.real) <= 1.0:
        return np.inf
    kn, s = _kn(xi0)
    knp = kn * (-(2 * N_GL + 1) / s)
    etap0 = _polyval(panel.eta_p, xi0)
    if etap0 == 0:
        return np.inf
    eta_conj = np.conj(panel.eta)
    etap_conj = np.conj(panel.eta_p)
    nbar2 = -_polyval(etap_conj, xi0) / etap0
    R1 = np.imag(kn * mu_inf)
    R2 = kn * mu_inf * nbar2
    R3 = knp / etap0 * (np.conj(_polyval(panel.eta, np.conj(xi0))) -
                        np.conj(_polyval(panel.eta, xi0))) * mu_inf
    return abs(-(1j / np.pi) * R1 + np.conj(R2) / (2 * np.pi) + np.conj(R3) / (2 * np.pi))


def needs_correction(panel: PanelData, z0: complex, mu_inf: float,
                     threshold: float = ACTIVATION_THRESHOLD):
    """Decide whether the special rule is needed for this point-panel pair.

    Returns the frame when correction should be applied, otherwise None.
    A cheap distance cull skips the estimate for clearly-far targets.
    """
    dmin = np.min(np.abs(panel.z_nodes - z0))
    if dmin > CULL_FACTOR * panel.length:
        return None
    frame = locate_preimage(panel, z0)
    if not frame.newton_ok:
        return None
    if estimate_error(panel, frame, max(mu_inf, 1e-30)) <= threshold:
        return None
    return frame
