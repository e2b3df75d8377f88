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

from . import neareval
from .spectral import PANEL_ORDER, panel_grid
from .stokes import gmres_solve, layer_matrices, near_layer_matrices

# the star r(a) = 1 + AMPLITUDE cos(MODE a) of the quadrature studies
AMPLITUDE, MODE = 0.3, 3
SOLVE_TOL = 1e-13   # relative GMRES residual of the density solve


def star_contour(n_panels: int):
    """Composite-GL discretization of z(a) = r(a) e^{ia}, r the star."""
    grid = panel_grid(n_panels)
    a = grid.alpha
    r = 1 + AMPLITUDE * np.cos(MODE * a)
    dr = -AMPLITUDE * MODE * np.sin(MODE * a)
    ddr = -AMPLITUDE * MODE**2 * np.cos(MODE * a)
    e = np.exp(1j * a)
    z = r * e
    zp = (dr + 1j * r) * e
    zpp = (ddr + 2j * dr - r) * e
    edges_a = grid.endpoints
    r_e = 1 + AMPLITUDE * np.cos(MODE * edges_a)
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
    z: np.ndarray
    zp: np.ndarray
    zpp: np.ndarray
    w: np.ndarray
    mu: np.ndarray
    panels: neareval.PanelData   # panel g covers nodes 16g:16g+16
    residual: float


def solve_dirichlet(n_panels: int, boundary_velocity) -> DirichletSolution:
    """Solve the interior Dirichlet problem for the given velocity trace
    (stokes.SolverError when the density solve fails)."""
    grid, z, zp, zpp, z_edges = star_contour(n_panels)
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
        # M1w on [Re mu, Im mu]: M1w @ mu would cast it to a complex copy
        out = (mu + (M1w @ x.reshape(2, n).T @ [1, 1j]) / np.pi
               - (M2w @ np.conj(mu)) / np.pi)
        return np.concatenate([out.real, out.imag])

    x, res, _ = gmres_solve(matvec, np.concatenate([data.real, data.imag]),
                            SOLVE_TOL)
    panels = neareval.prepare_panel(
        *(a.reshape(-1, PANEL_ORDER) for a in (z, zp, w)), z_edges[:-1],
        z_edges[1:])
    return DirichletSolution(z=z, zp=zp, zpp=zpp, w=w,
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
    # Im C on [Re mu, Im mu]: Im C @ mu would cast it to a complex copy
    ImCmu = C.imag @ np.column_stack([mu.real, mu.imag]) @ [1, 1j]
    return (-1j / np.pi) * ImCmu + (1j / np.pi) * (M2 @ np.conj(mu))


def estimate_field(sol: DirichletSolution, targets):
    """Summed per-panel remainder estimates at each target.

    One batched preimage and estimate pass covers every pair that
    neareval.cull keeps within ESTIMATE_RADIUS panel lengths: wider than
    the reach of the correction, so that the terms the sum leaves out stay
    below 1e-20.
    """
    t = np.atleast_1d(np.asarray(targets, dtype=complex))
    mu_inf = np.abs(sol.mu).reshape(-1, PANEL_ORDER).max(axis=1)
    ti, ip = neareval.cull(sol.panels, t,
                           neareval.ESTIMATE_RADIUS * sol.panels.length)
    pk = sol.panels[ip]
    est = neareval.estimate_error(pk, neareval.locate_preimage(pk, t[ti]),
                                  mu_inf[ip])
    # pairs without a usable preimage carry inf and are left out
    fin = np.isfinite(est)
    return np.bincount(ti[fin], weights=est[fin], minlength=t.shape[0])


def inside_star(points, margin: float = 0.0) -> np.ndarray:
    """Mask of points strictly inside the star contour (radial test)."""
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    th = np.angle(pts)
    r_b = 1 + AMPLITUDE * np.cos(MODE * th)
    return np.abs(pts) < r_b - margin
