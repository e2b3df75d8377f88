"""Semi-analytic evolution of a reflectionally symmetric bubble pair.

The two inviscid bubbles are the images of |zeta| = 1 and |zeta| = phi
under

    z(zeta, t) = b(t)/(zeta - sqrt(phi(t))) + sum_n a_n(t) zeta^n,

with a_0 = b/(2 sqrt(phi)) and a_{-n} = -phi^n a_n; the map obeys the
deck symmetry z(phi/zeta) = -z(zeta) that swaps the bubbles through the
origin.  In this computational frame the bubbles sit on the real axis;
the physical configuration of interest (bubbles stacked on the imaginary
axis in an extensional far field Q(x, -y)) is the 90-degree rotation
z_phys = i z, which maps the physical rate Q onto -Q here.

At each instant the flow is found from the stress balance written for a
Goursat pair (f, g') composed with the map: deck-odd Laurent series for
f and the disturbance part of g', one pole basis carrying the
pressure-gauge mode of f, a per-bubble pressure term, and an integration
constant, closed by the zero-flux condition and pinned rotation-free.
The interface velocity and the map evolution follow from

    u   = sigma zeta z_zeta/(2|z_zeta|) + K + q_z z - 2 F(zeta)
    z_t = zeta z_zeta I(zeta) + q_z z - 2 F(zeta)

where Re I = D on |zeta| = 1 with D = sigma/(2|z_zeta|) + Re[K/(zeta z_zeta)],
and the coefficients of I follow from the deck symmetry
I(phi/zeta) = -I(zeta) - phidot/phi:

    Re I_n = 2 Re D_n/(1 - phi^n),  Im I_n = 2 Im D_n/(1 + phi^n),
    I_{-n} = -phi^n I_n,            phidot = -2 phi I_0.

All of this is the n >= 1 Laurent content of z_t; a_0 and the negative
coefficients are restored algebraically, and b comes from the constant
bubble-area quadratic each step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .spectral import antiderivative

FLOW_RESIDUAL_TOL = 1e-9


class PairOracleError(RuntimeError):
    pass


@dataclass
class ConformalPairState:
    """Map parameters plus surfactant samples on the upper bubble."""

    b: float
    phi: float
    a_pos: np.ndarray          # a_0 .. a_NV (a_0 dependent); real
    rho: np.ndarray = None     # at zeta_j, 2*MV+1 points; None for clean
    E: float = 0.5
    Pe: float = np.inf
    t: float = 0.0

    def __post_init__(self):
        if not (0 < self.phi < 1):
            raise ValueError("phi must lie in (0, 1)")
        self.a_pos = np.asarray(self.a_pos, dtype=float).copy()
        self.a_pos[0] = self.b / (2 * np.sqrt(self.phi))
        if self.rho is not None:
            self.rho = np.asarray(self.rho, dtype=float).copy()
            if self.rho.shape[0] != self.n_grid:
                raise ValueError("rho must live on the 2*MV+1 point grid")

    @property
    def nv(self) -> int:
        return self.a_pos.shape[0] - 1

    @property
    def mv(self) -> int:
        return 2 * self.nv

    @property
    def n_grid(self) -> int:
        return 2 * self.mv + 1

    @property
    def zeta(self) -> np.ndarray:
        j = np.arange(self.n_grid)
        return np.exp(2j * np.pi * j / self.n_grid)

    @property
    def nu(self) -> np.ndarray:
        return 2 * np.pi * np.arange(self.n_grid) / self.n_grid

    def spectrum(self) -> np.ndarray:
        """Full coefficient array a_n, n = -NV..NV, in FFT layout."""
        m = self.n_grid
        a = np.zeros(m)
        n = np.arange(1, self.nv + 1)
        a[0] = self.a_pos[0]
        a[1:self.nv + 1] = self.a_pos[1:]
        a[m - self.nv:] = (-self.phi**n * self.a_pos[1:])[::-1]
        return a

    def copy(self) -> "ConformalPairState":
        return ConformalPairState(b=self.b, phi=self.phi,
                                  a_pos=self.a_pos.copy(),
                                  rho=None if self.rho is None else self.rho.copy(),
                                  E=self.E, Pe=self.Pe, t=self.t)


@dataclass
class PairFlowField:
    cp: complex
    qz: complex
    K: complex
    F: np.ndarray
    G: np.ndarray
    residual: float


def _ev(spec, m):
    return np.fft.ifft(spec) * m


def _flip(spec):
    return np.concatenate([spec[:1], spec[1:][::-1]])


def geometry(state: ConformalPairState):
    """z, z_zeta, z_zeta at 1/zeta, z_zetazeta on the collocation grid."""
    m = state.n_grid
    sq = np.sqrt(state.phi)
    zeta = state.zeta
    a = state.spectrum().astype(complex)
    n_idx = np.fft.fftfreq(m, 1 / m).round().astype(int)
    da = a * n_idx
    dda = da * (n_idx - 1)
    z = state.b / (zeta - sq) + _ev(a, m)
    zz = -state.b / (zeta - sq) ** 2 + _ev(da, m) / zeta
    zz_inv = -state.b / (1 / zeta - sq) ** 2 + _ev(_flip(da), m) * zeta
    zzz = 2 * state.b / (zeta - sq) ** 3 + _ev(dda, m) / zeta**2
    return z, zz, zz_inv, zzz


def zhat_deriv_at(state: ConformalPairState, w: float) -> float:
    """zhat_zeta evaluated via the stable folded form."""
    n = np.arange(1, state.nv + 1)
    return float(np.sum(n * state.a_pos[1:] *
                        (w ** (n - 1.0) + state.phi**n * w ** (-n - 1.0))))


def solve_flow(state: ConformalPairState, Q: float, sigma=None) -> PairFlowField:
    """Instantaneous flow coefficients from the interfacial stress balance.

    The linear system is real: conjugations in the stress bracket act
    antilinearly, so real and imaginary parts of every coefficient carry
    separate columns.  A least-squares solve with the collocation rows,
    the two zero-flux rows and the rotation pin is rank-deficient only
    along the velocity-invisible pressure gauge.
    """
    nv, m, phi = state.nv, state.n_grid, state.phi
    sq = np.sqrt(phi)
    zeta = state.zeta
    zinv = 1 / zeta
    z, zz, zz_inv, _ = geometry(state)
    if sigma is None:
        sigma = np.ones(m)
    P0 = 1 / (zeta - sq) + 1 / (2 * sq)
    G0 = Q * state.b / (2 * sq)

    def fpair(h, hp_inv):
        base = z * hp_inv / zz_inv
        return h + base, 1j * h - 1j * base

    cols = []
    cre, cim = fpair(P0, -1 / (zinv - sq) ** 2)
    cols += [cre, cim]
    for k in range(1, nv + 1):
        h = zeta**k - phi**k * zeta ** (-1.0 * k)
        hp_inv = k * (zinv ** (k - 1.0) + phi**k * zinv ** (-k - 1.0))
        cre, cim = fpair(h, hp_inv)
        cols += [cre, cim]
    for k in range(1, nv + 1):
        s_img = zinv ** (1.0 * k) - phi**k * zinv ** (-1.0 * k)
        cols += [s_img, -1j * s_img]
    cols += [-z, -1j * z, -np.ones(m), -1j * np.ones(m)]
    A = np.array(cols).T
    rhs_grid = 0.5 * sigma * zeta * zz / np.abs(zz) - Q * state.b / (zinv - sq) - G0

    spec = np.fft.fft(A, axis=0) / m
    R = np.fft.fft(rhs_grid) / m
    rows = np.arange(-nv, nv + 1)
    Mc = spec[rows % m, :]
    bc = R[rows % m]
    ncol = A.shape[1]
    Mreal = np.concatenate([Mc.real, Mc.imag], axis=0)
    breal = np.concatenate([bc.real, bc.imag])
    crow_re = np.zeros(ncol)
    crow_im = np.zeros(ncol)
    for k in range(1, nv + 1):
        wgt = 2 * k * phi ** ((k - 1) / 2.0)
        crow_re[2 + 2 * nv + 2 * (k - 1)] = wgt
        crow_im[2 + 2 * nv + 2 * (k - 1) + 1] = wgt
    closure = Q * zhat_deriv_at(state, sq)
    rot = np.zeros(ncol)
    rot[1] = 1.0
    Mfull = np.vstack([Mreal, crow_re, crow_im, rot])
    bfull = np.concatenate([breal, [closure, 0.0, 0.0]])
    x, *_ = np.linalg.lstsq(Mfull, bfull, rcond=None)
    residual = float(np.abs(Mfull @ x - bfull).max())
    if residual > FLOW_RESIDUAL_TOL:
        raise PairOracleError(f"flow solve residual {residual:.3e} exceeds "
                              f"{FLOW_RESIDUAL_TOL:.0e} (NV={nv}, phi={phi:.4f})")
    cp = x[0] + 1j * x[1]
    F = x[2:2 + 2 * nv:2] + 1j * x[3:3 + 2 * nv:2]
    G = x[2 + 2 * nv:2 + 4 * nv:2] + 1j * x[3 + 2 * nv:3 + 4 * nv:2]
    qz = x[-4] + 1j * x[-3]
    K = x[-2] + 1j * x[-1]
    return PairFlowField(cp=cp, qz=qz, K=K, F=F, G=G, residual=residual)


def _f_on_grid(state: ConformalPairState, fl: PairFlowField):
    m, nv, phi = state.n_grid, state.nv, state.phi
    sq = np.sqrt(phi)
    k = np.arange(1, nv + 1)
    spec = np.zeros(m, dtype=complex)
    spec[1:nv + 1] = fl.F
    spec[m - nv:] = (-phi**k * fl.F)[::-1]
    P0 = 1 / (state.zeta - sq) + 1 / (2 * sq)
    return fl.cp * P0 + _ev(spec, m)


def interface_velocity(state: ConformalPairState, fl: PairFlowField, sigma=None):
    """Fluid velocity on the upper bubble, computational frame."""
    z, zz, _, _ = geometry(state)
    if sigma is None:
        sigma = np.ones(state.n_grid)
    Fg = _f_on_grid(state, fl)
    return 0.5 * sigma * state.zeta * zz / np.abs(zz) + fl.K + fl.qz * z - 2 * Fg


def kinematic_coefficients(state: ConformalPairState, fl: PairFlowField,
                           sigma=None):
    """I(zeta) on the grid and phidot from the kinematic condition."""
    m, phi = state.n_grid, state.phi
    z, zz, _, _ = geometry(state)
    if sigma is None:
        sigma = np.ones(m)
    D = 0.5 * sigma / np.abs(zz) + np.real(fl.K / (state.zeta * zz))
    Dsp = np.fft.fft(D) / m
    n = np.arange(1, state.mv + 1)
    Isp = np.zeros(m, dtype=complex)
    Isp[0] = Dsp[0].real
    In = (2 * Dsp[1:state.mv + 1].real / (1 - phi**n)
          + 2j * Dsp[1:state.mv + 1].imag / (1 + phi**n))
    Isp[1:state.mv + 1] = In
    Isp[m - state.mv:] = (-phi**n * In)[::-1]
    Ig = _ev(Isp, m)
    phidot = -2 * phi * Isp[0].real
    return Ig, phidot


def mapping_rhs(state: ConformalPairState, fl: PairFlowField, sigma=None):
    """Laurent RHS (f_n for n >= 1, g = phidot) plus z_t and u on the grid."""
    z, zz, _, _ = geometry(state)
    Ig, phidot = kinematic_coefficients(state, fl, sigma)
    Fg = _f_on_grid(state, fl)
    zt = state.zeta * zz * Ig + fl.qz * z - 2 * Fg
    zts = np.fft.fft(zt) / state.n_grid
    f_pos = zts[1:state.nv + 1]
    u = interface_velocity(state, fl, sigma)
    return f_pos, phidot, zt, u


def solve_b(state: ConformalPairState, b_prev: float) -> float:
    """Restore bubble area pi via the quadratic in b (root tracking).

    The contour integrals use the current a_n and phi; the root closest
    to the previous b is selected.
    """
    m = state.n_grid
    sq = np.sqrt(state.phi)
    zeta = state.zeta
    a = state.spectrum().astype(complex)
    a[0] = 0.0  # a_0 is b-dependent; fold it into the quadratic instead
    n_idx = np.fft.fftfreq(m, 1 / m).round().astype(int)
    da = a * n_idx
    zh_inv = _ev(_flip(a), m)
    zh_z = _ev(da, m) / zeta
    dzeta = 1j * zeta * (2 * np.pi / m)
    # a_0 = b/(2 sq) contributes b/(2 sq) to zhat(1/zeta) and nothing to
    # zhat_zeta; collect powers of b explicitly
    K2 = np.sum(1 / ((1 / zeta - sq) * (zeta - sq) ** 2) * dzeta) \
        + np.sum(1 / (2 * sq) / (zeta - sq) ** 2 * dzeta)
    K1 = np.sum((zh_inv / (zeta - sq) ** 2 - zh_z / (1 / zeta - sq)) * dzeta)
    K0 = np.sum(zh_inv * zh_z * dzeta)
    # area: b^2 K2 + b K1 - K0' = 2 i pi with K0' folding the a0-free terms
    c2 = K2
    c1 = K1
    c0 = -K0 - 2j * np.pi
    disc = np.sqrt(c1 * c1 - 4 * c2 * c0)
    r1 = (-c1 + disc) / (2 * c2)
    r2 = (-c1 - disc) / (2 * c2)
    roots = [r for r in (r1, r2) if abs(r.imag) < 1e-8]
    if not roots:
        raise PairOracleError("area constraint has no admissible real root")
    b_new = min(roots, key=lambda r: abs(r.real - b_prev)).real
    return float(b_new)


def bubble_area(state: ConformalPairState) -> float:
    m = state.n_grid
    sq = np.sqrt(state.phi)
    zeta = state.zeta
    a = state.spectrum().astype(complex)
    n_idx = np.fft.fftfreq(m, 1 / m).round().astype(int)
    z_inv = state.b / (1 / zeta - sq) + _ev(_flip(a), m)
    zz = -state.b / (zeta - sq) ** 2 + _ev(a * n_idx, m) / zeta
    val = np.sum(z_inv * zz * 1j * zeta) * (2 * np.pi / m)
    return float((-1 / 2j * val).real)


def surfactant_sigma(state: ConformalPairState) -> np.ndarray:
    if state.rho is None:
        return np.ones(state.n_grid)
    if np.any(state.rho < -1e-12):
        raise PairOracleError("negative surfactant concentration")
    return 1.0 - state.E * state.rho


def surfactant_rhs(state: ConformalPairState, fl: PairFlowField):
    """Explicit transport term f_exp on the nu grid (surfactant case)."""
    m = state.n_grid
    if state.rho is None:
        raise PairOracleError("clean state has no surfactant equation")
    sigma = surfactant_sigma(state)
    z, zz, _, zzz = geometry(state)
    zeta = state.zeta
    z_nu = 1j * zeta * zz
    z_nunu = -zeta * zz - zeta**2 * zzz
    sp = np.abs(z_nu)
    _, _, zt, u = mapping_rhs(state, fl, sigma)
    n_idx = np.fft.fftfreq(m, 1 / m).round().astype(int)
    rho_nu = np.fft.ifft(np.fft.fft(state.rho) * 1j * n_idx).real
    P = u * np.conj(z_nu) * state.rho / sp
    dReP = np.fft.ifft(np.fft.fft(P.real) * 1j * n_idx).real
    f_exp = (np.real(rho_nu / z_nu * zt)
             - dReP / sp
             + np.imag(z_nunu / z_nu) * P.imag / sp)
    return f_exp, zt, u


def surfactant_implicit_solve(state: ConformalPairState, rhs, dt_coeff: float,
                              tol: float = 1e-12) -> np.ndarray:
    """Solve (I - dt_coeff * L) rho = rhs, L the surface diffusion operator.

    L rho = (1/(|z_nu| Pe)) d_nu(rho_nu/|z_nu|) is non-diagonal through
    |z_nu|; GMRES converges quickly at the relevant step sizes.
    """
    if not np.isfinite(state.Pe):
        return np.asarray(rhs, dtype=float).copy()
    m = state.n_grid
    z, zz, _, _ = geometry(state)
    sp = np.abs(1j * state.zeta * zz)
    n_idx = np.fft.fftfreq(m, 1 / m).round().astype(int)

    def L(r):
        r_nu = np.fft.ifft(np.fft.fft(r) * 1j * n_idx).real
        return np.fft.ifft(np.fft.fft(r_nu / sp) * 1j * n_idx).real / (sp * state.Pe)

    def mv(x):
        return x - dt_coeff * L(x)

    A = LinearOperator((m, m), matvec=mv)
    x, info = gmres(A, np.asarray(rhs, dtype=float), rtol=tol, atol=0.0,
                    maxiter=300, restart=300)
    if info != 0:
        raise PairOracleError("implicit surfactant solve stagnated")
    return x


def surfactant_mass_pair(state: ConformalPairState) -> float:
    """Mass on the upper bubble, int rho |z_nu| d nu."""
    if state.rho is None:
        return 0.0
    _, zz, _, _ = geometry(state)
    sp = np.abs(1j * state.zeta * zz)
    return float(np.sum(state.rho * sp) * 2 * np.pi / state.n_grid)


def _krasny_real(arr, tol=1e-12):
    out = np.asarray(arr, dtype=float).copy()
    out[np.abs(out) < tol] = 0.0
    return out


def _apply_update(state: ConformalPairState, da_pos, dphi, drho):
    new = state.copy()
    new.a_pos = state.a_pos.copy()
    new.a_pos[1:] = _krasny_real(state.a_pos[1:] + da_pos)
    new.phi = state.phi + dphi
    if not (0 < new.phi < 1):
        raise PairOracleError(f"phi left (0,1): {new.phi}")
    new.b = solve_b(new, state.b)
    new.a_pos[0] = new.b / (2 * np.sqrt(new.phi))
    if drho is not None:
        new.rho = drho
    return new


def _stage(state: ConformalPairState, Q: float):
    sigma = surfactant_sigma(state)
    fl = solve_flow(state, Q, sigma)
    f_pos, phidot, zt, u = mapping_rhs(state, fl, sigma)
    f_exp = None
    if state.rho is not None:
        f_exp, _, _ = surfactant_rhs(state, fl)
    return sigma, fl, f_pos.real, phidot, f_exp, u


def step_first_order(state: ConformalPairState, Q: float, dt: float):
    """One explicit Euler / IMEX-Euler step of the parameter ODEs."""
    sigma, fl, f_re, phidot, f_exp, u = _stage(state, Q)
    rho_new = None
    if state.rho is not None:
        half = state.copy()
        half.a_pos[1:] = state.a_pos[1:] + dt * f_re
        half.phi = state.phi + dt * phidot
        rho_rhs = state.rho + dt * f_exp
        rho_new = surfactant_implicit_solve(half, rho_rhs, dt)
        rho_new = _krasny_real(rho_new)
    return _apply_update(state, dt * f_re, dt * phidot, rho_new)


def step_midpoint(state: ConformalPairState, Q: float, dt: float):
    """Midpoint/IMEX2 step; returns (new_state, r_combined)."""
    sigma1, fl1, f1, g1, fe1, _ = _stage(state, Q)
    half = _apply_update(state, 0.5 * dt * f1, 0.5 * dt * g1, None)
    if state.rho is not None:
        rho_half = surfactant_implicit_solve(half, state.rho + 0.5 * dt * fe1,
                                             0.5 * dt)
        half.rho = _krasny_real(rho_half)
    half.t = state.t + 0.5 * dt
    sigma2, fl2, f2, g2, fe2, _ = _stage(half, Q)
    new = _apply_update(state, dt * f2, dt * g2, None)
    params_mid = np.concatenate([state.a_pos[1:] + dt * f2,
                                 [state.phi + dt * g2]])
    params_eul = np.concatenate([state.a_pos[1:] + dt * f1,
                                 [state.phi + dt * g1]])
    scale = max(1.0, np.abs(params_mid).max())
    r_map = np.abs(params_mid - params_eul).max() / scale
    r_rho = 0.0
    if state.rho is not None:
        if np.isfinite(state.Pe):
            fI2 = _diffusion_apply(half, half.rho)
        else:
            fI2 = 0.0
        rho_new = _krasny_real(state.rho + dt * fe2 + dt * fI2)
        mass0 = surfactant_mass_pair(state)
        new.rho = rho_new
        mass1 = surfactant_mass_pair(new)
        r_rho = abs(mass1 - mass0) / abs(mass0) if mass0 != 0 else 0.0
    new.t = state.t + dt
    return new, max(r_map, r_rho)


def _diffusion_apply(state: ConformalPairState, rho):
    m = state.n_grid
    _, zz, _, _ = geometry(state)
    sp = np.abs(1j * state.zeta * zz)
    n_idx = np.fft.fftfreq(m, 1 / m).round().astype(int)
    r_nu = np.fft.ifft(np.fft.fft(rho) * 1j * n_idx).real
    return np.fft.ifft(np.fft.fft(r_nu / sp) * 1j * n_idx).real / (sp * state.Pe)


def pair_from_circles(nv: int, phi: float = None, center: float = None,
                      rho0: float = None, E: float = 0.5,
                      Pe: float = np.inf) -> ConformalPairState:
    """Initial state: two unit circles.

    Either phi or the center distance may be given; centers sit at
    +-(1+phi)/(2 sqrt(phi)) in the computational frame and the radius is
    exactly b/(1-phi) = 1 with b = 1 - phi.
    """
    if phi is None:
        if center is None:
            raise ValueError("give phi or center")
        s = center - np.sqrt(center**2 - 1)
        phi = s**2
    b = 1.0 - phi
    a_pos = np.zeros(nv + 1)
    st = ConformalPairState(b=b, phi=phi, a_pos=a_pos, E=E, Pe=Pe)
    if rho0 is not None:
        st.rho = rho0 * np.ones(st.n_grid)
    return st


def min_gap(state: ConformalPairState) -> float:
    """Minimum distance between the two bubbles (= 2 min Re z here)."""
    z, _, _, _ = geometry(state)
    return float(2 * np.abs(z.real).min())


def physical_frame(state: ConformalPairState):
    """Upper-bubble trace rotated to the physical frame (bubbles on +-i c).

    Returns (z_phys, rho, alphaV) with alphaV the equal-arclength
    parameter measured clockwise from nu = 0 (top of the upper bubble).
    """
    z, zz, _, _ = geometry(state)
    z_nu = 1j * state.zeta * zz
    sp = np.abs(z_nu)
    mean = sp.mean()
    osc = antiderivative(sp - mean)
    S = mean * state.nu + (osc - osc[0])
    L = mean * 2 * np.pi
    alphaV = S * 2 * np.pi / L
    return 1j * z, (None if state.rho is None else state.rho.copy()), alphaV


def evolve_pair(state: ConformalPairState, Q_phys: float, t_end: float,
                scheme: str = "adaptive_second_order", dt: float = 1e-3,
                tol: float = 1e-8, record_every: int = 0,
                dt_max: float = 5e-3):
    """March the conformal-map ODEs to t_end.

    Q_phys is the extensional rate in the physical (rotated) frame; the
    computational frame uses -Q_phys.  Returns (final_state, trajectory)
    where the trajectory holds (t, state_copy) pairs when record_every is
    positive.
    """
    Q = -Q_phys
    traj = []
    st = state.copy()
    steps = 0
    if scheme == "fixed_first_order":
        n_steps = int(round((t_end - st.t) / dt))
        for k in range(n_steps):
            st = step_first_order(st, Q, dt)
            st.t = state.t + (k + 1) * dt
            steps += 1
            if record_every and steps % record_every == 0:
                traj.append((st.t, st.copy()))
        return st, traj
    if scheme != "adaptive_second_order":
        raise ValueError("unknown scheme")
    h = dt
    while st.t < t_end - 1e-13:
        h = min(h, t_end - st.t, dt_max)
        cand, r = step_midpoint(st, Q, h)
        if r <= tol:
            st = cand
            steps += 1
            if record_every and steps % record_every == 0:
                traj.append((st.t, st.copy()))
            h = min(h * min(2.0, np.sqrt(0.9 * tol / max(r, 1e-30))), dt_max)
        else:
            h = h * np.sqrt(0.9 * tol / r)
            if h < 1e-12:
                raise PairOracleError("pair-oracle step underflow")
    return st, traj
