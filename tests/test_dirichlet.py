import numpy as np
import pytest

from drops2d import neareval
from drops2d.dirichlet import (DirichletSolution, GoursatReference,
                               estimate_field, evaluate_velocity,
                               inside_star, solve_dirichlet)


def test_interior_reproduction_far():
    ref = GoursatReference()
    sol = solve_dirichlet(25, ref.velocity)
    assert sol.residual < 1e-11
    pts = np.array([0.2 + 0.1j, -0.3 + 0.25j, 0.0j, 0.5 - 0.3j])
    u = evaluate_velocity(sol, pts, corrected=False)
    assert np.abs(u - ref.velocity(pts)).max() < 1e-12


def test_interior_reproduction_near_boundary():
    ref = GoursatReference()
    sol = solve_dirichlet(50, ref.velocity)
    # points a distance 1e-3 inside the boundary along several rays
    th = np.linspace(0.05, np.pi / 2, 9)
    r_b = 1 + 0.3 * np.cos(3 * th)
    pts = (r_b - 1e-3) * np.exp(1j * th)
    u = evaluate_velocity(sol, pts)
    err = np.abs(u - ref.velocity(pts)).max()
    assert err < 1e-9


def test_target_beyond_panel_end_gets_no_lens_residue():
    # near a concave part of the star the preimage of z0 on panel 24 is
    # xi0 = 1.19 + 0.03i: beyond the panel end, so outside the lens
    # between the panel and its chord even though Im(xi0) and Im(z0t)
    # have opposite signs
    ref = GoursatReference()
    sol = solve_dirichlet(50, ref.velocity)
    z0 = -0.69864 - 0.00861j
    u = evaluate_velocity(sol, [z0])
    assert abs(u[0] - ref.velocity(z0)) < 1e-10


def test_plain_quadrature_fails_near_boundary():
    # sanity: without the correction the same points are badly wrong
    ref = GoursatReference()
    sol = solve_dirichlet(25, ref.velocity)
    th = np.array([0.3])
    pts = (1 + 0.3 * np.cos(3 * th) - 1e-3) * np.exp(1j * th)
    u_plain = evaluate_velocity(sol, pts, corrected=False)
    assert np.abs(u_plain - ref.velocity(pts)).max() > 1e-4


def test_estimate_tracks_measured_error():
    ref = GoursatReference()
    sol = solve_dirichlet(25, ref.velocity)
    th = 0.45
    r_b = 1 + 0.3 * np.cos(3 * th)
    dists = np.array([0.3, 0.2, 0.12, 0.07, 0.04])
    pts = (r_b - dists) * np.exp(1j * th)
    u_plain = evaluate_velocity(sol, pts, corrected=False)
    u_true = ref.velocity(pts)
    measured = np.abs(u_plain - u_true)
    est = estimate_field(sol, pts)
    sel = (measured > 1e-12) & (measured < 1e-2)
    assert np.any(sel)
    ratio = est[sel] / measured[sel]
    assert np.all(ratio > 0.1) and np.all(ratio < 10.0)


@pytest.mark.parametrize("n_panels", [25, 50])
def test_estimate_field_matches_uncull_sum(n_panels):
    # the cull drops only pairs whose estimates are far below rounding
    sol = solve_dirichlet(n_panels, GoursatReference().velocity)
    rng = np.random.default_rng(7)
    th = rng.uniform(0, 2 * np.pi, 400)
    depth = rng.uniform(0.002, 0.6, 400)
    pts = (1 + 0.3 * np.cos(3 * th) - depth) * np.exp(1j * th)
    mu_inf = np.abs(sol.mu).reshape(n_panels, 16).max(axis=1)
    # one batch per target over every panel, with no cull
    pk = neareval.gather(sol.panels, np.arange(n_panels))
    want = np.zeros(pts.shape[0])
    for k, z0 in enumerate(pts):
        frame = neareval.locate_preimage(pk, np.full(n_panels, z0))
        for e in neareval.estimate_error(pk, frame, mu_inf):
            if np.isfinite(e):
                want[k] += e
    assert np.abs(estimate_field(sol, pts) - want).max() < 1e-20


def test_inside_star_mask():
    assert inside_star([0.0 + 0j])[0]
    assert not inside_star([2.0 + 0j])[0]
