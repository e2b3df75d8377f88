"""Fixed-boundary Stokes Dirichlet problem used for quadrature studies.

A counterclockwise star-shaped contour encloses the domain; boundary
velocity data comes from an exact Stokes field built from rational
Goursat functions with poles outside the closure.  The integral equation
takes stream-gradient data (i times the complex velocity); the velocity
anywhere inside follows from the same kernels.  This problem isolates the
near-singular evaluation error studied by the remainder estimates: the
density solve is accurate everywhere, so all error comes from evaluating
the velocity close to the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from . import neareval
from .spectral import panel_grid
from .stokes import layer_matrices, near_layer_matrices


def star_contour(n_panels: int, amplitude: float = 0.3, mode: int = 3):
    """Composite-GL discretization of z(a) = (1 + amplitude cos(mode a)) e^{ia}."""
    grid = panel_grid(n_panels)
    a = grid.alpha
    r = 1 + amplitude * np.cos(mode * a)
    dr = -amplitude * mode * np.sin(mode * a)
    ddr = -amplitude * mode**2 * np.cos(mode * a)
    e = np.exp(1j * a)
    z = r * e
    zp = (dr + 1j * r) * e
    zpp = (ddr + 2j * dr - r) * e
    edges_a = grid.endpoints
    r_e = 1 + amplitude * np.cos(mode * edges_a)
    z_edges = r_e * np.exp(1j * edges_a)
    return grid, z, zp, zpp, z_edges


@dataclass(frozen=True)
class GoursatReference:
    """Exact Stokes velocity -phi + z conj(phi') + conj(psi) from simple poles."""

    pole1: complex = 1.8 + 1.6j
    pole2: complex = -2.0 - 1.1j

    def velocity(self, z):
        z = np.asarray(z, dtype=complex)
        phi = 1.0 / (z - self.pole1)
        dphi = -1.0 / (z - self.pole1) ** 2
        psi = 1.0 / (z - self.pole2) ** 2
        return -phi + z * np.conj(dphi) + np.conj(psi)


@dataclass
class DirichletSolution:
    grid: object
    z: np.ndarray
    zp: np.ndarray
    zpp: np.ndarray
    w: np.ndarray
    mu: np.ndarray
    panels: neareval.PanelData   # panel g covers nodes 16g:16g+16
    residual: float


def solve_dirichlet(n_panels: int, boundary_velocity, amplitude: float = 0.3,
                    mode: int = 3, tol: float = 1e-13) -> DirichletSolution:
    """Solve the interior Dirichlet problem for the given velocity trace."""
    grid, z, zp, zpp, z_edges = star_contour(n_panels, amplitude, mode)
    w = grid.weights
    n = z.shape[0]
    Cw, M2w = layer_matrices(z, zp, zpp, w)
    # Im C with its smooth diagonal limit
    M1w = Cw.imag.copy()
    M1w[np.arange(n), np.arange(n)] = w * np.imag(zpp / (2 * zp))

    u_b = boundary_velocity(z)
    data = 1j * u_b  # stream-gradient form of the velocity data

    def matvec(x):
        mu = x[:n] + 1j * x[n:]
        out = mu + (M1w @ mu) / np.pi - (M2w @ np.conj(mu)) / np.pi
        return np.concatenate([out.real, out.imag])

    A = LinearOperator((2 * n, 2 * n), matvec=matvec)
    b = np.concatenate([data.real, data.imag])
    x, info = gmres(A, b, rtol=tol, atol=0.0, maxiter=600, restart=600)
    res = float(np.abs(A @ x - b).max())
    panels = neareval.prepare_panel(z.reshape(-1, 16), zp.reshape(-1, 16),
                                    w.reshape(-1, 16), z_edges[:-1],
                                    z_edges[1:])
    return DirichletSolution(grid=grid, z=z, zp=zp, zpp=zpp, w=w,
                             mu=x[:n] + 1j * x[n:], panels=panels,
                             residual=res)


def evaluate_velocity(sol: DirichletSolution, targets, corrected: bool = True):
    """Interior velocity; near-panel contributions use the special rule.

    With corrected=False every panel takes the plain Gauss-Legendre rule.
    """
    t = np.atleast_1d(np.asarray(targets, dtype=complex))
    mu = sol.mu
    C, M2 = (near_layer_matrices(sol, mu, t) if corrected else
             layer_matrices(sol.z, sol.zp, sol.zpp, sol.w, targets=t))
    return (-1j / np.pi) * (C.imag @ mu) + (1j / np.pi) * (M2 @ np.conj(mu))


def estimate_field(sol: DirichletSolution, targets):
    """Summed per-panel remainder estimates at each target.

    One batched preimage and estimate pass covers every candidate pair.
    """
    t = np.atleast_1d(np.asarray(targets, dtype=complex))
    mu_inf = np.abs(sol.mu).reshape(len(sol.panels), 16).max(axis=1)
    ti, ip = neareval.candidates(sol.panels, t)
    pk = sol.panels[ip]
    est = neareval.estimate_error(pk, neareval.locate_preimage(pk, t[ti]),
                                  mu_inf[ip])
    # pairs without a usable preimage carry inf and are left out
    fin = np.isfinite(est)
    return np.bincount(ti[fin], weights=est[fin], minlength=t.shape[0])


def inside_star(points, amplitude: float = 0.3, mode: int = 3,
                margin: float = 0.0) -> np.ndarray:
    """Mask of points strictly inside the star contour (radial test)."""
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    th = np.angle(pts)
    r_b = 1 + amplitude * np.cos(mode * th)
    return np.abs(pts) < r_b - margin
