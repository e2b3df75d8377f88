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

A clean pair is the rho = 0 case of the same equations: sigma = 1 - E*0
is exactly 1, and every step keeps rho exactly 0.

A ConformalPairState is immutable: its arrays are read-only and a step
builds new states with dataclasses.replace.  So the map is evaluated on
the grid once per state (ConformalPairState.geometry, cached), however
many of the functions below read it, and so is the diffusion matrix
(ConformalPairState.diffusion).  The flow solve works on Fourier modes:
every column of its system is a two-mode sequence or a shift of the
spectrum of one grid function, and only five grid functions are
transformed (see solve_flow).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .spectral import (KRASNY_TOL, derivative_matrix,
                       equal_arclength_parameter, modes, spectral_derivative,
                       uniform_alpha)
from .stepper import StepController

FLOW_RESIDUAL_TOL = 1e-9
DT0 = 1e-3        # first attempted step of evolve_pair
DT_MAX = 5e-3     # largest step of evolve_pair


class PairOracleError(RuntimeError):
    """An oracle step failed; roots holds both roots of the area quadratic
    when it has no admissible real one."""

    def __init__(self, message: str, roots=None):
        super().__init__(message)
        self.roots = roots


@dataclass(frozen=True)
class ConformalPairState:
    """Map parameters plus surfactant samples on the upper bubble.

    Immutable: a_pos and rho are read-only copies of the arrays passed
    in, and dataclasses.replace builds a changed state.
    """

    b: float
    phi: float
    a_pos: np.ndarray          # a_0 .. a_NV (a_0 dependent); real
    rho: np.ndarray            # at zeta_j, 2*MV+1 points; 0 on a clean pair
    E: float = 0.5
    Pe: float = np.inf
    t: float = 0.0

    def __post_init__(self):
        if not (0 < self.phi < 1):
            raise ValueError("phi must lie in (0, 1)")
        if self.Pe is None or not self.Pe > 0:    # as stokes.FlowConfig
            raise ValueError("Pe must be positive (np.inf allowed), "
                             f"not {self.Pe}")
        a_pos = np.array(self.a_pos, dtype=float)
        if a_pos.size < 2:
            raise ValueError(f"nv must be at least 1, not {a_pos.size - 1}")
        a_pos[0] = self.b / (2 * np.sqrt(self.phi))
        object.__setattr__(self, "a_pos", _read_only(a_pos))
        object.__setattr__(self, "rho",
                           _read_only(np.array(self.rho, dtype=float)))
        if self.rho.shape != (self.n_grid,):
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

    @cached_property
    def zeta(self) -> np.ndarray:
        j = np.arange(self.n_grid)
        return _read_only(np.exp(2j * np.pi * j / self.n_grid))

    @cached_property
    def nu(self) -> np.ndarray:
        return _read_only(uniform_alpha(self.n_grid))

    def spectrum(self) -> np.ndarray:
        """Full coefficient array a_n, n = -NV..NV, in FFT layout."""
        return _deck_odd(self.a_pos[0], self.a_pos[1:], self.phi, self.n_grid)

    @cached_property
    def geometry(self):
        """z, z_zeta, z_zeta at 1/zeta, z_zetazeta on the collocation grid,
        read-only and evaluated once per state."""
        m = self.n_grid
        sq = np.sqrt(self.phi)
        zeta = self.zeta
        a = self.spectrum().astype(complex)
        n_idx = modes(m)
        da = a * n_idx
        dda = da * (n_idx - 1)
        z = self.b / (zeta - sq) + _ev(a, m)
        zz = -self.b / (zeta - sq) ** 2 + _ev(da, m) / zeta
        zz_inv = -self.b / (1 / zeta - sq) ** 2 + _ev(_flip(da), m) * zeta
        zzz = 2 * self.b / (zeta - sq) ** 3 + _ev(dda, m) / zeta**2
        return tuple(_read_only(v) for v in (z, zz, zz_inv, zzz))

    @cached_property
    def diffusion(self) -> np.ndarray:
        """Surface diffusion L = diag(1/(|z_nu| Pe)) D diag(1/|z_nu|) D, D the
        Fourier derivative matrix: L rho = d_nu(rho_nu/|z_nu|)/(|z_nu| Pe)."""
        sp = np.abs(1j * self.zeta * self.geometry[1])
        D = derivative_matrix(self.n_grid)
        return _read_only((D / sp) @ D / (sp * self.Pe)[:, None])


@dataclass
class PairFlowField:
    cp: complex
    qz: complex
    K: complex
    F: np.ndarray
    residual: float


def _read_only(arr):
    arr.flags.writeable = False
    return arr


def _deck_odd(c0, c_pos, phi, m):
    """Length-m FFT layout of c_0, c_n (n >= 1) and c_{-n} = -phi^n c_n, the
    Laurent coefficients of a deck-odd function."""
    n = np.arange(1, len(c_pos) + 1)
    out = np.zeros(m, dtype=np.result_type(c_pos, float))
    out[0] = c0
    out[1:len(c_pos) + 1] = c_pos
    out[m - len(c_pos):] = (-phi**n * c_pos)[::-1]
    return out


def _ev(spec, m):
    return np.fft.ifft(spec) * m


def _flip(spec):
    return np.concatenate([spec[:1], spec[1:][::-1]])


def zhat_deriv_at(state: ConformalPairState, w: float) -> float:
    """zhat_zeta evaluated via the stable folded form."""
    n = np.arange(1, state.nv + 1)
    return float(np.sum(n * state.a_pos[1:] *
                        (w ** (n - 1.0) + state.phi**n * w ** (-n - 1.0))))


def solve_flow(state: ConformalPairState, Q: float) -> PairFlowField:
    """Instantaneous flow coefficients from the interfacial stress balance
    with sigma = surfactant_sigma(state), exactly 1 on a clean pair.

    The linear system is real: conjugations in the stress bracket act
    antilinearly, so a complex unknown c enters the balance as
    c H + conj(c) C, and its real and imaginary parts carry the columns
    H + C and i(H - C).  The unknowns are the pole coefficient of P0, the
    Laurent coefficients F_k of f with basis h_k = zeta^k - phi^k zeta^-k,
    the image coefficients, q_z and K.  The rows are the Fourier modes
    -NV..NV of the balance, built from spectra: h_k and the image basis
    zeta^-k - phi^k zeta^k are two modes each, and the base term of h_k,
    g k (zeta^(1-k) + phi^k zeta^(k+1)) with g = z/z_zeta(1/zeta), is two
    index shifts of the spectrum of g.  Only P0, its base term, g, z and
    the right-hand side are transformed.  A least-squares solve with these
    rows, the two zero-flux rows and the rotation pin is rank-deficient
    only along the velocity-invisible pressure gauge.
    """
    nv, m, phi = state.nv, state.n_grid, state.phi
    sq = np.sqrt(phi)
    zeta = state.zeta
    zinv = 1 / zeta
    z, zz, zz_inv, _ = state.geometry
    sigma = surfactant_sigma(state)
    g = z / zz_inv
    P0 = 1 / (zeta - sq) + 1 / (2 * sq)
    G0 = Q * state.b / (2 * sq)
    rhs_grid = 0.5 * sigma * zeta * zz / np.abs(zz) - Q * state.b / (zinv - sq) - G0
    g_spec, P0_spec, base0_spec, z_spec, R = np.fft.fft(
        [g, P0, -g / (zinv - sq) ** 2, z, rhs_grid]) / m

    r = np.arange(-nv, nv + 1)             # the Fourier mode of each row
    rc = r[:, None]
    k = np.arange(1, nv + 1)
    pk = phi**k
    h = (rc == k) - pk * (rc == -k)
    H = np.zeros((2 * nv + 1, 2 * nv + 3), dtype=complex)
    C = np.zeros_like(H)
    H[:, 0], C[:, 0] = P0_spec[r], base0_spec[r]
    H[:, 1:nv + 1] = h
    C[:, 1:nv + 1] = k * (g_spec[(rc + k - 1) % m]
                          + pk * g_spec[(rc - k - 1) % m])
    C[:, nv + 1:2 * nv + 1] = h[::-1]          # the image basis
    C[:, -2] = -z_spec[r]
    C[nv, -1] = -1.0
    Mc = np.stack([H + C, 1j * H - 1j * C], axis=-1).reshape(2 * nv + 1, -1)
    bc = R[r]
    # zero flux, sum_k 2 k phi^((k-1)/2) G_k = Q zhat_zeta(sqrt(phi)) on the
    # image coefficients G_k, and the rotation pin Im cp = 0
    pins = np.zeros((3, Mc.shape[1]))
    pins[0, 2 + 2 * nv:2 + 4 * nv:2] = pins[1, 3 + 2 * nv:3 + 4 * nv:2] = (
        2 * k * phi ** ((k - 1) / 2.0))
    pins[2, 1] = 1.0
    Mfull = np.vstack([Mc.real, Mc.imag, pins])
    bfull = np.concatenate([bc.real, bc.imag,
                            [Q * zhat_deriv_at(state, sq), 0.0, 0.0]])
    x, *_ = np.linalg.lstsq(Mfull, bfull, rcond=None)
    residual = float(np.abs(Mfull @ x - bfull).max())
    if residual > FLOW_RESIDUAL_TOL:
        raise PairOracleError(f"flow solve residual {residual:.3e} exceeds "
                              f"{FLOW_RESIDUAL_TOL:.0e} (NV={nv}, phi={phi:.4f})")
    cp = x[0] + 1j * x[1]
    F = x[2:2 + 2 * nv:2] + 1j * x[3:3 + 2 * nv:2]
    qz = x[-4] + 1j * x[-3]
    K = x[-2] + 1j * x[-1]
    return PairFlowField(cp=cp, qz=qz, K=K, F=F, residual=residual)


def interface_velocity(state: ConformalPairState, fl: PairFlowField):
    """Fluid velocity on the upper bubble, computational frame."""
    return mapping_rhs(state, fl)[3]


def kinematic_coefficients(state: ConformalPairState, fl: PairFlowField):
    """I(zeta) on the grid and phidot from the kinematic condition."""
    m, phi = state.n_grid, state.phi
    z, zz, _, _ = state.geometry
    D = 0.5 * surfactant_sigma(state) / np.abs(zz) + np.real(fl.K / (state.zeta * zz))
    Dsp = np.fft.fft(D) / m
    n = np.arange(1, state.mv + 1)
    Isp = _deck_odd(Dsp[0].real,
                    2 * Dsp[1:state.mv + 1].real / (1 - phi**n)
                    + 2j * Dsp[1:state.mv + 1].imag / (1 + phi**n), phi, m)
    Ig = _ev(Isp, m)
    phidot = -2 * phi * Isp[0].real
    return Ig, phidot


def mapping_rhs(state: ConformalPairState, fl: PairFlowField):
    """Laurent RHS (f_n for n >= 1, g = phidot) plus z_t and u on the grid."""
    m, nv, phi = state.n_grid, state.nv, state.phi
    sq = np.sqrt(phi)
    z, zz, _, _ = state.geometry
    Ig, phidot = kinematic_coefficients(state, fl)
    Fg = (fl.cp * (1 / (state.zeta - sq) + 1 / (2 * sq))
          + _ev(_deck_odd(0.0, fl.F, phi, m), m))
    zt = state.zeta * zz * Ig + fl.qz * z - 2 * Fg
    f_pos = (np.fft.fft(zt) / m)[1:nv + 1]
    u = (0.5 * surfactant_sigma(state) * state.zeta * zz / np.abs(zz) + fl.K
         + fl.qz * z - 2 * Fg)
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
    n_idx = modes(m)
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
    return _real_root(K2, K1, -K0 - 2j * np.pi, b_prev)


def _real_root(c2, c1, c0, b_prev: float) -> float:
    """The root of c2 b^2 + c1 b + c0 closest to b_prev among those that
    are real up to rounding, which scales with the root: |Im r| <=
    1e-8 max(1, |r|)."""
    disc = np.sqrt(c1 * c1 - 4 * c2 * c0)
    r1 = (-c1 + disc) / (2 * c2)
    r2 = (-c1 - disc) / (2 * c2)
    roots = [r for r in (r1, r2) if abs(r.imag) <= 1e-8 * max(1.0, abs(r))]
    if not roots:
        raise PairOracleError("area constraint has no admissible real root "
                              f"(roots {r1}, {r2})", roots=(r1, r2))
    return float(min(roots, key=lambda r: abs(r.real - b_prev)).real)


def bubble_area(state: ConformalPairState) -> float:
    """-(1/2i) times the contour integral of z(1/zeta) dz; z(1/zeta) is
    conj(z) on |zeta| = 1, the map coefficients being real."""
    z, zz, _, _ = state.geometry
    dz = zz * 1j * state.zeta * (2 * np.pi / state.n_grid)
    return float((-1 / 2j * np.sum(np.conj(z) * dz)).real)


def surfactant_sigma(state: ConformalPairState) -> np.ndarray:
    """Linear equation of state sigma = 1 - E rho; exactly 1 when clean."""
    if np.any(state.rho < -1e-12):
        raise PairOracleError("negative surfactant concentration")
    return 1.0 - state.E * state.rho


def surfactant_rhs(state: ConformalPairState, zt, u):
    """Explicit transport term f_exp on the nu grid, zero when rho is.

    zt and u are the map velocity and the interface velocity that
    mapping_rhs returns for the same state.
    """
    _, zz, _, zzz = state.geometry
    zeta = state.zeta
    z_nu = 1j * zeta * zz
    z_nunu = -zeta * zz - zeta**2 * zzz
    sp = np.abs(z_nu)
    rho_nu = spectral_derivative(state.rho)
    P = u * np.conj(z_nu) * state.rho / sp
    dReP = spectral_derivative(P.real)
    return (np.real(rho_nu / z_nu * zt)
            - dReP / sp
            + np.imag(z_nunu / z_nu) * P.imag / sp)


def surfactant_implicit_solve(state: ConformalPairState, rhs,
                              dt_coeff: float) -> np.ndarray:
    """Solve (I - dt_coeff * state.diffusion) rho = rhs by one dense LU."""
    if not np.isfinite(state.Pe):
        return np.asarray(rhs, dtype=float).copy()
    return np.linalg.solve(np.eye(len(rhs)) - dt_coeff * state.diffusion, rhs)


def surfactant_mass_pair(state: ConformalPairState) -> float:
    """Mass on the upper bubble, int rho |z_nu| d nu."""
    _, zz, _, _ = state.geometry
    sp = np.abs(1j * state.zeta * zz)
    return float(np.sum(state.rho * sp) * 2 * np.pi / state.n_grid)


def _krasny_real(arr):
    out = np.asarray(arr, dtype=float).copy()
    out[np.abs(out) < KRASNY_TOL] = 0.0
    return out


def _apply_update(state: ConformalPairState, da_pos, dphi):
    """The state with a_n += da_pos, phi += dphi and b restoring the area."""
    phi = state.phi + dphi
    if not (0 < phi < 1):
        raise PairOracleError(f"phi left (0,1): {phi}")
    a_pos = np.concatenate([[0.0], _krasny_real(state.a_pos[1:] + da_pos)])
    probe = replace(state, phi=phi, a_pos=a_pos)
    return replace(probe, b=solve_b(probe, state.b))


def _stage(state: ConformalPairState, Q: float):
    f_pos, phidot, zt, u = mapping_rhs(state, solve_flow(state, Q))
    return f_pos.real, phidot, surfactant_rhs(state, zt, u)


def step_midpoint(state: ConformalPairState, Q: float, dt: float):
    """Midpoint/IMEX2 step; returns (new_state, r_combined)."""
    f1, g1, fe1 = _stage(state, Q)
    half_map = _apply_update(state, 0.5 * dt * f1, 0.5 * dt * g1)
    half = replace(half_map, t=state.t + 0.5 * dt, rho=_krasny_real(
        surfactant_implicit_solve(half_map, state.rho + 0.5 * dt * fe1,
                                  0.5 * dt)))
    f2, g2, fe2 = _stage(half, Q)
    params_mid = np.concatenate([state.a_pos[1:] + dt * f2,
                                 [state.phi + dt * g2]])
    params_eul = np.concatenate([state.a_pos[1:] + dt * f1,
                                 [state.phi + dt * g1]])
    scale = max(1.0, np.abs(params_mid).max())
    r_map = np.abs(params_mid - params_eul).max() / scale
    # half has half_map's geometry, and so its diffusion matrix
    fI2 = half_map.diffusion @ half.rho if np.isfinite(state.Pe) else 0.0
    new = replace(_apply_update(state, dt * f2, dt * g2), t=state.t + dt,
                  rho=_krasny_real(state.rho + dt * fe2 + dt * fI2))
    mass0 = surfactant_mass_pair(state)
    mass1 = surfactant_mass_pair(new)
    r_rho = abs(mass1 - mass0) / abs(mass0) if mass0 != 0 else 0.0
    return new, max(r_map, r_rho)


def pair_from_circles(nv: int, phi: float, rho0: float = 0.0, E: float = 0.5,
                      Pe: float = np.inf) -> ConformalPairState:
    """Initial state: two unit circles carrying uniform rho0 (0: clean).

    Centers sit at +-(1+phi)/(2 sqrt(phi)) in the computational frame and
    the radius is exactly b/(1-phi) = 1 with b = 1 - phi.  nv < 1 and
    rho0 < 0 raise ValueError, as rho0 < 0 does in harness.build_state.
    """
    if nv < 1:      # here too: np.full below fails first at a negative nv
        raise ValueError(f"nv must be at least 1, not {nv}")
    if not rho0 >= 0:
        raise ValueError(f"rho0 must be non-negative, not {rho0}")
    return ConformalPairState(b=1.0 - phi, phi=phi, a_pos=np.zeros(nv + 1),
                              rho=np.full(4 * nv + 1, float(rho0)), E=E, Pe=Pe)


def min_gap(state: ConformalPairState) -> float:
    """Minimum distance between the two bubbles (= 2 min Re z here)."""
    z = state.geometry[0]
    return float(2 * np.abs(z.real).min())


def physical_frame(state: ConformalPairState):
    """Upper-bubble trace rotated to the physical frame (bubbles on +-i c).

    Returns (z_phys, rho, alphaV) with rho a copy (zero on a clean pair)
    and alphaV the equal-arclength parameter measured clockwise from
    nu = 0 (top of the upper bubble).
    """
    z, zz, _, _ = state.geometry
    alphaV, _ = equal_arclength_parameter(np.abs(1j * state.zeta * zz))
    return 1j * z, state.rho.copy(), alphaV


def evolve_pair(state: ConformalPairState, Q_phys: float, t_end: float,
                tol: float = 1e-8):
    """March the conformal-map ODEs to t_end with step_midpoint.

    The step size follows stepper.StepController, the one step policy of
    the package, from DT0 and capped at DT_MAX.  Q_phys is the
    extensional rate in the physical (rotated) frame; the computational
    frame uses -Q_phys.  Returns (final_state, accepted_steps).
    """
    Q = -Q_phys
    ctrl = StepController(tol=tol, dt=DT0, dt_max=DT_MAX)
    steps = 0
    while state.t < t_end - 1e-14:
        cand, r = step_midpoint(state, Q, ctrl.clip(t_end - state.t))
        if ctrl.judge(r, state.t):
            state = cand
            steps += 1
    return state, steps
