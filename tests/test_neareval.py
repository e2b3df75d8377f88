import warnings
from dataclasses import fields
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from drops2d import neareval
from drops2d.neareval import (ACTIVATION_THRESHOLD, ESTIMATE_RADIUS,
                              NEWTON_MAXITER, PanelData,
                              _residue_correction, cull, estimate_error,
                              kernel_rows, locate_preimage,
                              needs_correction, overwrite_near_blocks,
                              prepare_panel, recursion_pq)
from drops2d.spectral import GL_NODES, GL_WEIGHTS
from drops2d.stokes import layer_matrices, near_layer_matrices

warnings.filterwarnings("ignore", message=".*roundoff.*")


def one_panel(z, zp, za, zb):
    """A panel set holding the one panel with nodes z and endpoints za, zb."""
    return prepare_panel(z[None], zp[None], GL_WEIGHTS[None].copy(),
                         np.array([za]), np.array([zb]))


def one(z0):
    """The batch of the one target z0."""
    return np.array([z0], dtype=complex)


def quarter_circle_panel():
    """Counterclockwise quarter-ish arc used as a strongly curved panel."""
    th_a, th_b = 0.0, np.pi / 4
    th = th_a + (GL_NODES + 1) * (th_b - th_a) / 2
    z = np.exp(1j * th)
    zp = 1j * np.exp(1j * th) * (th_b - th_a) / 2   # dz/dxi
    return (one_panel(z, zp, np.exp(1j * th_a), np.exp(1j * th_b)),
            (th_a, th_b))


def flat_panel():
    return one_panel(GL_NODES.astype(complex), np.ones(16, dtype=complex),
                     -1.0 + 0j, 1.0 + 0j)


def plain_rows(panel, z0):
    """Plain Gauss-Legendre rows of the three kernel_rows integrals.

    panel holds one row per target z0.
    """
    z0 = z0[:, None]
    d = panel.z_nodes - z0
    base = panel.w_alpha * panel.zp_nodes
    r1 = base / d
    tang = panel.zp_nodes / np.abs(panel.zp_nodes)
    rJ2 = r1 * -np.conj(tang) ** 2
    rJ3 = base * (np.conj(panel.z_nodes) - np.conj(z0)) / d**2
    return r1, rJ2, rJ3


def cquad(f, a, b):
    re = quad(lambda t: f(t).real, a, b, limit=400, epsabs=1e-14, epsrel=1e-14)[0]
    im = quad(lambda t: f(t).imag, a, b, limit=400, epsabs=1e-14, epsrel=1e-14)[0]
    return re + 1j * im


class TestPreimage:
    def test_flat_panel_interior_point(self):
        panel = flat_panel()
        fr = locate_preimage(panel, one(0.5j))
        assert fr.newton_ok
        assert abs(fr.xi0 - 0.5j) < 1e-13

    def test_flat_panel_real_exterior(self):
        panel = flat_panel()
        fr = locate_preimage(panel, one(2.0))
        assert abs(fr.xi0 - 2.0) < 1e-13

    def test_curved_panel_residual(self):
        panel, (ta, tb) = quarter_circle_panel()
        z0 = 0.98 * np.exp(1j * np.pi / 8)
        fr = locate_preimage(panel, one(z0))
        assert fr.newton_ok
        eta_val = np.polynomial.polynomial.polyval(fr.xi0, panel.power[0])
        assert abs(eta_val - panel.transform(z0)) < 1e-13


class TestRecursion:
    def test_p0_at_two(self):
        p, q = recursion_pq(one(2.0))
        assert abs(p[0] + np.log(3.0)) < 1e-14

    def test_q0_at_two(self):
        p, q = recursion_pq(one(2.0))
        assert abs(q[0] - 2.0 / 3.0) < 1e-14

    def test_on_segment_rejected(self):
        with pytest.raises(ValueError):
            recursion_pq(one(0.3))

    @pytest.mark.parametrize("z0", [0.2 + 0.05j, -0.7 + 0.3j, 1.3 - 0.8j])
    def test_against_adaptive_quadrature(self, z0):
        p, q = recursion_pq(one(z0))
        for j in range(16):
            pj = cquad(lambda t: t**j / (t - z0), -1, 1)
            qj = cquad(lambda t: t**j / (t - z0) ** 2, -1, 1)
            assert abs(p[j] - pj) < 1e-12 * max(1, abs(pj))
            assert abs(q[j] - qj) < 5e-12 * max(1, abs(qj))

    def test_forward_stability_outside_disk(self):
        # the special rule only activates for preimages within ~1.5 of the
        # panel; forward recursion is machine-accurate there
        rng = np.random.default_rng(3)
        for _ in range(8):
            r = 1.05 + 0.45 * rng.random()
            th = rng.random() * 2 * np.pi
            z0 = r * np.exp(1j * th)
            p, q = recursion_pq(one(z0))
            split = float(np.clip(z0.real, -1.0, 1.0))
            for j in (7, 15):
                f = lambda t: t**j / (t - z0)
                pj = f(0) * 0.0
                pieces = [-1.0, split, 1.0] if -1 < split < 1 else [-1.0, 1.0]
                pj = sum(cquad(f, a, b) for a, b in zip(pieces[:-1], pieces[1:]))
                assert abs(p[j] - pj) < 1e-12 * max(1.0, abs(pj))


class TestCorrection:
    def test_far_target_matches_plain(self):
        panel, _ = quarter_circle_panel()
        mu = np.exp(panel.z_nodes[0])
        z0 = one(0.3 + 0.1j)
        fr = locate_preimage(panel, z0)
        r1, rJ2, rJ3 = kernel_rows(panel, fr)
        p1, pJ2, pJ3 = plain_rows(panel, z0)
        assert abs(r1 @ mu - p1 @ mu) < 1e-12
        assert abs(rJ2 @ mu - pJ2 @ mu) < 1e-12
        assert abs(rJ3 @ mu - pJ3 @ mu) < 1e-11

    def test_near_target_matches_adaptive_quadrature(self):
        panel, (ta, tb) = quarter_circle_panel()
        mu_f = lambda tau: np.exp(tau) * (1 + 0.2 * tau**2)
        mid = np.exp(1j * (ta + tb) / 2)
        for dist, side in ((1e-3, 1), (1e-3, -1), (0.03, 1)):
            z0 = mid * (1 + side * dist)
            fr = locate_preimage(panel, one(z0))
            r1, _, _ = kernel_rows(panel, fr)
            got = r1 @ mu_f(panel.z_nodes[0])
            # split the parameter interval at the closest point for quad
            tm = (ta + tb) / 2
            f = lambda t: mu_f(np.exp(1j * t)) * 1j * np.exp(1j * t) / (np.exp(1j * t) - z0)
            want = cquad(f, ta, tm) + cquad(f, tm, tb)
            assert abs(got - want) < 1e-10

    def test_zero_density(self):
        panel, _ = quarter_circle_panel()
        fr = locate_preimage(panel, one(1.001 * np.exp(1j * np.pi / 8)))
        assert fr.newton_ok
        for r in kernel_rows(panel, fr):
            assert np.all(r @ np.zeros(16) == 0)

    def test_residue_branch_both_sides(self):
        # mirrored targets very close to the curved panel: both need the
        # path-deformation residue handled correctly
        panel, (ta, tb) = quarter_circle_panel()
        mid = np.exp(1j * (ta + tb) / 2)
        mu_f = lambda tau: 1.0 + 0.5 * tau
        tm = (ta + tb) / 2
        for side in (1, -1):
            z0 = mid * (1 + side * 2e-3)
            fr = locate_preimage(panel, one(z0))
            r1, _, _ = kernel_rows(panel, fr)
            got = r1 @ mu_f(panel.z_nodes[0])
            f = lambda t: mu_f(np.exp(1j * t)) * 1j * np.exp(1j * t) / (np.exp(1j * t) - z0)
            want = cquad(f, ta, tm) + cquad(f, tm, tb)
            assert abs(got - want) < 1e-10


class TestEstimate:
    def test_far_estimate_tiny(self):
        panel, (ta, tb) = quarter_circle_panel()
        z0 = np.exp(1j * np.pi / 8) * (1 + 1.0 * panel.length)
        fr = locate_preimage(panel, z0)
        assert estimate_error(panel, fr, 1.0) < 1e-13

    def test_tracks_measured_error(self):
        panel, (ta, tb) = quarter_circle_panel()
        mid = np.exp(1j * (ta + tb) / 2)
        mu_f = lambda tau: np.exp(tau)
        mu = mu_f(panel.z_nodes[0])
        tm = (ta + tb) / 2
        for dist in (0.3, 0.15, 0.08):
            z0 = mid * (1 + dist)
            fr = locate_preimage(panel, one(z0))
            est = estimate_error(panel, fr, np.abs(mu).max())
            # measured plain-GL error of the combined kernel value
            # I = -(i/pi) Im-part + conj parts
            def kernel_exact():
                def g(t):
                    tau = np.exp(1j * t)
                    tp = 1j * tau
                    m = mu_f(tau)
                    nb2 = np.conj(tau) ** 2
                    J1 = m * np.imag(tp / (tau - z0))
                    J2 = m * nb2 * tp / (tau - z0)
                    J3 = m * (np.conj(tau) - np.conj(z0)) * tp / (tau - z0) ** 2
                    return (-1j / np.pi) * J1 + np.conj(J2) / (2 * np.pi) + np.conj(J3) / (2 * np.pi)
                return cquad(g, ta, tm) + cquad(g, tm, tb)

            zn = panel.z_nodes[0]
            base = panel.w_alpha[0] * panel.zp_nodes[0]
            d = zn - z0
            J1 = np.sum(mu * np.imag(base / d))
            nb2 = np.conj(zn) ** 2
            J2 = np.sum(mu * nb2 * base / d)
            J3 = np.sum(mu * (np.conj(zn) - np.conj(z0)) * base / d**2)
            plain = (-1j / np.pi) * J1 + np.conj(J2) / (2 * np.pi) + np.conj(J3) / (2 * np.pi)
            measured = abs(plain - kernel_exact())
            if measured > 1e-12:
                ratio = est / measured
                assert 0.1 < ratio < 10.0

    def test_zero_density_zero_estimate(self):
        panel, _ = quarter_circle_panel()
        fr = locate_preimage(panel, one(1.05 * np.exp(1j * np.pi / 8)))
        assert estimate_error(panel, fr, 0.0) == 0.0


def test_idempotence_where_plain_accurate():
    panel, (ta, tb) = quarter_circle_panel()
    mu = np.cos(panel.z_nodes[0])
    z0 = np.exp(1j * np.pi / 8) * (1 + 1.0 * panel.length)
    fr = locate_preimage(panel, z0)
    r1, rJ2, rJ3 = kernel_rows(panel, fr)
    p1, pJ2, pJ3 = plain_rows(panel, z0)
    for rc, rp in ((r1, p1), (rJ2, pJ2), (rJ3, pJ3)):
        assert abs(rc @ mu - rp @ mu) < 1e-12


def pair_clean_disc(phi, n=128):
    """Discretization of the pair_clean preset at the gap parameter phi."""
    from dataclasses import replace

    from drops2d.harness import _pair_center, build_state, preset
    from drops2d.stokes import discretize

    cfg = preset("pair_clean", n=n)
    c = _pair_center(phi)
    cfg.drops = [replace(d, center=s * 1j * c)
                 for d, s in zip(cfg.drops, (1, -1))]
    return discretize(build_state(cfg).ifaces)


def brute_force_pairs(panels, targets, reach):
    """A cull by its definition, pair by pair: min over a panel's nodes of
    |z - t| within reach[g] of panel g."""
    return {(k, ip) for k, z0 in enumerate(targets)
            for ip, panel in enumerate(panels)
            if np.min(np.abs(panel.z_nodes - z0)) <= reach[ip]}


def check_pairs(ti, pi, want):
    got = set(zip(ti.tolist(), pi.tolist()))
    assert len(got) == len(ti)
    assert got == want
    # target-major, as np.nonzero returns them
    assert np.all(np.diff(ti) >= 0)


class TestCandidates:
    @pytest.mark.parametrize("n_panels", [25, 50])
    def test_matches_brute_force(self, n_panels):
        from drops2d.dirichlet import GoursatReference, solve_dirichlet

        panels = solve_dirichlet(n_panels, GoursatReference().velocity).panels
        rng = np.random.default_rng(n_panels)
        # points in and around the star, two nodes and a chord midpoint
        box = 3 * (rng.random(300) - 0.5) + 3j * (rng.random(300) - 0.5)
        targets = np.concatenate([box, panels[3].z_nodes[:2], [panels[7].mid]])
        ti, pi = cull(panels, targets, ESTIMATE_RADIUS * panels.length)
        want = brute_force_pairs(panels, targets,
                                 ESTIMATE_RADIUS * panels.length)
        check_pairs(ti, pi, want)
        assert len(want) > len(targets)

    def test_cull_of_assembly_off_grid(self):
        # the pairs of near_layer_matrices
        from drops2d.dirichlet import GoursatReference, solve_dirichlet

        sol = solve_dirichlet(50, GoursatReference().velocity)
        rng = np.random.default_rng(50)
        box = 3 * (rng.random(300) - 0.5) + 3j * (rng.random(300) - 0.5)
        targets = np.concatenate([box, [sol.panels[7].mid]])
        want = brute_force_pairs(sol.panels, targets, sol.panels.reach)
        check_pairs(*cull(sol.panels, targets, sol.panels.reach), want)
        assert (len(targets) - 1, 7) in want
        # within the pairs of estimate_field, on the well-resolved star
        wide = brute_force_pairs(sol.panels, targets,
                                 ESTIMATE_RADIUS * sol.panels.length)
        assert len(want) > len(targets) / 2 and want < wide

    def test_cull_of_assembly_on_nodes(self):
        disc = pair_clean_disc(0.6)
        ti, pi = cull(disc.panels, disc.z, disc.panels.reach)
        want = brute_force_pairs(disc.panels, disc.z, disc.panels.reach)
        check_pairs(ti, pi, want)
        assert len(want) > disc.n
        # cross-drop pairs are among them
        assert any(disc.drop_of[k] != disc.drop_of[16 * g] for k, g in want)

    @pytest.mark.parametrize("radius", ["reach", "estimate"])
    def test_pinched_drop(self, radius):
        # reach up to 15 panel lengths on the tips; pairs whose chord
        # midpoint lies beyond the radius are kept by the extent margin of
        # cull's pre-test
        panels = pinched_disc().panels
        r = (panels.reach if radius == "reach"
             else ESTIMATE_RADIUS * panels.length)
        rng = np.random.default_rng(15)
        g, k = rng.integers(0, len(panels), 400), rng.integers(0, 16, 400)
        tang = panels.zp_nodes[g, k] / np.abs(panels.zp_nodes[g, k])
        targets = np.concatenate([
            panels.z_nodes[g, k]
            + 1j * tang * rng.uniform(-16, 16, g.size) * panels.length[g],
            panels.z_nodes.ravel()])
        want = brute_force_pairs(panels, targets, r)
        check_pairs(*cull(panels, targets, r), want)
        assert any(abs(targets[t] - panels.mid[p]) > r[p] for t, p in want)


def beyond_reach(panels, targets, mu_inf, keep=None):
    """Estimates of the (target, panel) pairs outside the panel's reach and
    within three panel lengths; Newton failures, which are never
    corrected, read 0.  keep(ti, ip) may select among the pairs."""
    d = panels.z_nodes[None, :, :] - targets[:, None, None]
    dist = np.sqrt((d.real ** 2 + d.imag ** 2).min(axis=2))
    ti, ip = np.nonzero((dist > panels.reach) & (dist <= 3 * panels.length))
    if keep is not None:
        sel = keep(ti, ip)
        ti, ip = ti[sel], ip[sel]
    pk = panels[ip]
    frame = locate_preimage(pk, targets[ti])
    est = estimate_error(pk, frame, np.broadcast_to(mu_inf, len(panels))[ip])
    return np.where(frame.newton_ok, est, 0.0)


@lru_cache(maxsize=None)
def star_solution():
    from drops2d.dirichlet import GoursatReference, solve_dirichlet

    return solve_dirichlet(50, GoursatReference().velocity)


class TestReach:
    """No pair outside a panel's reach has an estimate above 1e-3 of
    ACTIVATION_THRESHOLD, so cull loses no pair that needs the rule."""

    BOUND = 1e-3 * ACTIVATION_THRESHOLD

    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from(["star", "pinched"]),
           seed=st.integers(0, 2**32 - 1), m=st.integers(1, 2000))
    def test_drawn_targets(self, shape, seed, m):
        # targets up to three panel lengths from the curve, on both sides:
        # radially from the 50-panel star with its density's norms, and
        # along the normal of a node of the pinched drop with unit density
        rng = np.random.default_rng(seed)
        if shape == "star":
            sol = star_solution()
            panels = sol.panels
            mu_inf = np.abs(sol.mu).reshape(-1, 16).max(axis=1)
            th = rng.uniform(0, 2 * np.pi, m)
            depth = rng.uniform(-3, 3, m) * np.mean(panels.length)
            targets = (1 + 0.3 * np.cos(3 * th) - depth) * np.exp(1j * th)
        else:
            panels, mu_inf = equivalence_panels()["pinched"], 1.0
            g, k = rng.integers(0, len(panels), m), rng.integers(0, 16, m)
            tang = panels.zp_nodes[g, k] / np.abs(panels.zp_nodes[g, k])
            targets = (panels.z_nodes[g, k] + 1j * tang
                       * rng.uniform(-3, 3, m) * panels.length[g])
        assert np.all(beyond_reach(panels, targets, mu_inf) <= self.BOUND)

    @pytest.mark.parametrize("phi", [0.6, 0.9])
    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_cross_drop_nodes(self, phi, n):
        # the pairs of stokes.DirectKernels, with unit density
        disc = pair_clean_disc(phi, n)
        cross = lambda ti, ip: disc.drop_of[ti] != disc.drop_of[16 * ip]
        est = beyond_reach(disc.panels, disc.z, 1.0, cross)
        assert est.size > 0 and np.all(est <= self.BOUND)

    def test_reach_follows_the_panel(self):
        # well-resolved panels reach less than one panel length; the tip
        # panels of the under-resolved pinched drop reach much farther
        star = star_solution().panels
        assert np.all(star.reach < star.length)
        pinched = equivalence_panels()["pinched"]
        assert np.any(pinched.reach > 3 * pinched.length)


class TestPanelSet:
    """A stacked panel set indexes like an array of panels."""

    def test_rows_match_single_panels(self):
        from drops2d.dirichlet import GoursatReference, solve_dirichlet

        panels = solve_dirichlet(25, GoursatReference().velocity).panels
        ip = np.array([3, 0, 24, 3, 17])
        rows = panels[ip]
        assert len(rows) == ip.size and len(panels) == 25
        for k, g in enumerate(ip):
            one = panels[g]
            for f in fields(PanelData):
                assert np.array_equal(getattr(rows, f.name)[k],
                                      getattr(one, f.name))
        with pytest.raises(IndexError):
            panels[25]

    def test_lengths_sum_to_perimeter(self):
        # the read of the benchmark: iterate the set, take each length
        from drops2d.dirichlet import GoursatReference, solve_dirichlet

        panels = solve_dirichlet(25, GoursatReference().velocity).panels
        a = np.linspace(0, 2 * np.pi, 2048, endpoint=False)
        r, dr = 1 + 0.3 * np.cos(3 * a), -0.9 * np.sin(3 * a)
        perimeter = np.mean(np.hypot(r, dr)) * 2 * np.pi
        assert abs(sum(p.length for p in panels) - perimeter) < 1e-12


class TestNearCorrect:
    """Corrected minus plain kernels against pair-by-pair panel integrals.

    near_layer_matrices overwrites the flagged blocks of layer_matrices;
    the difference of the two, applied to mu, is the summed increment of
    the special rule over the plain one.
    """

    @staticmethod
    def reference(panels, mu, targets):
        """Summed (K1, K2) increments over the panels the estimate flags,
        one (target, panel) pair at a time, with

            K1 = int mu(tau) Re{dtau/(tau - z0)}
            K2 = int conj(mu(tau)) Im{dtau (conj tau - conj z0)}
                 / (conj tau - conj z0)^2
        """
        mu_p = mu.reshape(len(panels), 16)
        dK1 = np.zeros(len(targets), dtype=complex)
        dK2 = np.zeros(len(targets), dtype=complex)
        dI = np.zeros(len(targets), dtype=complex)
        hits = 0
        for k, z0 in enumerate(targets):
            for g, m in enumerate(mu_p):
                panel, z = panels[[g]], one(z0)
                if needs_correction(panel, z, np.abs(m).max()) is None:
                    continue
                hits += 1
                r1, rJ2, rJ3 = (r[0] for r in kernel_rows(
                    panel, locate_preimage(panel, z)))
                p1, pJ2, pJ3 = (r[0] for r in plain_rows(panel, z))
                K1 = 0.5 * (r1 @ m + np.conj(r1 @ np.conj(m)))
                K2 = 0.5j * (np.conj(rJ2 @ m) + np.conj(rJ3 @ m))
                dK1[k] += K1 - np.real(p1) @ m
                dK2[k] += K2 - 0.5j * (np.conj(pJ2 @ m) + np.conj(pJ3 @ m))
                dI[k] += r1 @ m - p1 @ m
        return dK1, dK2, dI, hits

    def check(self, geom, mu, targets):
        C0, M20 = layer_matrices(geom.z, geom.zp, geom.zpp, geom.w,
                                 targets=targets)
        C, M2 = near_layer_matrices(geom, mu, targets)
        dI = (C - C0) @ mu
        dK1 = (C - C0).real @ mu
        dK2 = (M2 - M20) @ np.conj(mu)
        ref_K1, ref_K2, ref_I, hits = self.reference(geom.panels, mu, targets)
        assert hits > 0
        assert np.abs(dK1 - ref_K1).max() < 1e-13
        assert np.abs(dK2 - ref_K2).max() < 1e-13
        assert np.abs(dI - ref_I).max() < 1e-13
        self.check_plain_outside_blocks(geom, mu, targets, C, M2)

    @staticmethod
    def check_plain_outside_blocks(geom, mu, targets, C, M2):
        """Only the flagged blocks differ from layer_matrices, bitwise."""
        C0, M20 = layer_matrices(geom.z, geom.zp, geom.zpp, geom.w,
                                 targets=targets)
        ti, ip = cull(geom.panels, targets,
                      ESTIMATE_RADIUS * geom.panels.length)
        mu_inf = np.abs(mu).reshape(-1, 16).max(axis=1)[ip]
        C1, M21 = C0.copy(), M20.copy()
        ti, ip = overwrite_near_blocks(C1, M21, geom.panels, targets, ti, ip,
                                       mu_inf)
        assert ti.size > 0
        assert np.array_equal(C1, C) and np.array_equal(M21, M2)
        block = np.zeros(C0.shape, dtype=bool)
        block[ti[:, None], 16 * ip[:, None] + np.arange(16)] = True
        assert np.array_equal(C[~block], C0[~block])
        assert np.array_equal(M2[~block], M20[~block])
        assert np.all(C[block] != C0[block])

    def test_two_drop_discretization(self):
        from drops2d.geometry import circle
        from drops2d.stokes import discretize

        disc = discretize([circle(64, center=1.15),
                           circle(64, center=-1.15)])
        mu = (1 + 0.3j) * np.exp(0.4 * disc.z) + 0.2 * np.conj(disc.z)
        targets = np.array([0.0, 0.05 + 0.1j, -0.08 - 0.2j, 0.1 + 0.02j,
                            1.15 + 1.02j, -1.15 - 0.97j])
        self.check(disc, mu, targets)

    def test_star_contour(self):
        from drops2d.dirichlet import GoursatReference, solve_dirichlet

        sol = solve_dirichlet(25, GoursatReference().velocity)
        th = np.linspace(0.1, 2 * np.pi, 7, endpoint=False)
        depth = np.array([1e-3, 0.01, 0.03, 0.1, 0.02, 5e-3, 0.06])
        targets = (1 + 0.3 * np.cos(3 * th) - depth) * np.exp(1j * th)
        self.check(sol, sol.mu, targets)

    def test_direct_kernels_plain_outside_blocks(self):
        from drops2d.stokes import DirectKernels

        disc = pair_clean_disc(0.6)
        kern = DirectKernels(disc)
        C0, _ = layer_matrices(disc.z, disc.zp, disc.zpp, disc.w)
        i, g = kern.pairs.T
        assert i.size > 0
        assert np.all(disc.drop_of[i] != disc.drop_of[16 * g])
        block = np.zeros(C0.shape, dtype=bool)
        block[i[:, None], 16 * g[:, None] + np.arange(16)] = True
        assert np.array_equal(kern.CAU[~block], C0[~block])
        assert np.all(kern.CAU[block] != C0[block])

    def test_lone_drop_culls_nothing(self):
        # the pinched drop has many pairs within reach of its own panels;
        # DirectKernels culls only the nodes of each drop against the
        # panels of the others
        from drops2d.stokes import DirectKernels

        disc = pinched_disc()
        assert len(cull(disc.panels, disc.z, disc.panels.reach)[0]) > disc.n
        with mock.patch.object(neareval, "cull", wraps=cull) as spy:
            assert DirectKernels(disc).pairs.shape == (0, 2)
            assert spy.call_count == 0
            DirectKernels(pair_clean_disc(0.6))
            assert spy.call_count == 2


def stack(*sets):
    """One panel set holding the panels of sets in order."""
    return PanelData(*(np.concatenate([getattr(p, f.name) for p in sets])
                       for f in fields(PanelData)))


@lru_cache(maxsize=None)
def batch_geometries():
    """Panels of the 25-panel star and of the phi = 0.6 pair, and its c."""
    from dataclasses import replace

    from drops2d.dirichlet import GoursatReference, solve_dirichlet
    from drops2d.harness import _pair_center, build_state, preset
    from drops2d.stokes import discretize

    star = solve_dirichlet(25, GoursatReference().velocity).panels
    cfg = preset("pair_clean", n=256)
    c = _pair_center(0.6)
    cfg.drops = [replace(d, center=s * 1j * c)
                 for d, s in zip(cfg.drops, (1, -1))]
    return star, discretize(build_state(cfg).ifaces).panels, c


# (target, star panel) pairs: Newton converges within 4 steps; Newton
# cycles until NEWTON_MAXITER and is rejected; Newton converges to
# |xi0| >= 10 and is rejected
FEW = (0.1339 + 0.8428j, 5)
CAP = (-0.8789 - 0.1114j, 11)
FAR = (0.383 + 0.7848j, 3)
# (target, star panel) pair whose Newton converges to |xi0| = 3.7 in six
# steps, the last of a few ulps
ULPS = (0.8351 - 0.1006j, 24)


def at_preimage(star, xi):
    """The (target, panel) pair of star panel 5 whose preimage is xi.

    At xi = 0.3 the target lies on the panel and its estimate is inf; at
    xi = 0.3 + 0.01i it lies between the panel and its chord and carries
    the residue 2 pi i.
    """
    panel = star[5]
    return (complex(panel.mid + np.polynomial.polynomial.polyval(
        xi, panel.power) / panel.scale), 5)


class TestBatchInvariance:
    """A mixed batch of pairs gives the frames of each pair on its own."""

    def test_special_pairs_cover_the_newton_cases(self):
        star, _, _ = batch_geometries()

        def frame(pair, maxiter=NEWTON_MAXITER):
            with mock.patch.object(neareval, "NEWTON_MAXITER", maxiter):
                return locate_preimage(star[[pair[1]]], one(pair[0]))

        few = frame(FEW)
        assert few.newton_ok and few.xi0 == frame(FEW, 4).xi0
        cap = frame(CAP)
        assert not cap.newton_ok
        assert cap.xi0 != frame(CAP, NEWTON_MAXITER + 1).xi0
        far = frame(FAR)
        assert not far.newton_ok and abs(far.xi0) >= 10
        assert far.xi0 == frame(FAR, NEWTON_MAXITER + 1).xi0
        on = frame(at_preimage(star, 0.3))
        assert on.newton_ok and np.isinf(estimate_error(star[[5]], on, 1.0))
        # the p_0 branch test that replaces the lens test without Newton
        for maxiter in (NEWTON_MAXITER, 0):
            lens = frame(at_preimage(star, 0.3 + 0.01j), maxiter)
            assert lens.newton_ok == (maxiter > 0)
            assert _residue_correction(star[[5]], lens) == 2j * np.pi

    def test_newton_stops_on_relative_step(self):
        star, _, _ = batch_geometries()

        def frame(maxiter):
            with mock.patch.object(neareval, "NEWTON_MAXITER", maxiter):
                return locate_preimage(star[[ULPS[1]]], one(ULPS[0]))

        done = frame(NEWTON_MAXITER)
        assert done.newton_ok and 2 < abs(done.xi0) < 10
        assert done.xi0 == frame(6).xi0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_star=st.integers(0, 8),
           n_pair=st.integers(0, 8),
           maxiter=st.sampled_from([NEWTON_MAXITER, 0]))
    def test_mixed_batch_matches_batches_of_one(self, seed, n_star, n_pair,
                                                maxiter):
        # with maxiter = 0 only the flat panel's pairs keep a preimage; all
        # others go through the p_0 branch test
        with mock.patch.object(neareval, "NEWTON_MAXITER", maxiter):
            self.check_mixed_batch(seed, n_star, n_pair)

    @staticmethod
    def check_mixed_batch(seed, n_star, n_pair):
        star, pair, c = batch_geometries()
        panels = stack(star, pair, flat_panel())
        rng = np.random.default_rng(seed)
        th = rng.uniform(0, 2 * np.pi, n_star)
        depth = rng.uniform(-0.05, 0.3, n_star)
        near_star = (1 + 0.3 * np.cos(3 * th) - depth) * np.exp(1j * th)
        th = rng.uniform(0, 2 * np.pi, n_pair)
        gap = rng.uniform(-0.03, 0.1, n_pair)
        near_pair = (rng.choice([1j * c, -1j * c], n_pair)
                     + (1 + gap) * np.exp(1j * th))
        ts, ps = cull(star, near_star, ESTIMATE_RADIUS * star.length)
        tq, pq = cull(pair, near_pair, ESTIMATE_RADIUS * pair.length)
        flat = len(panels) - 1
        special = [FEW, CAP, FAR, at_preimage(star, 0.3),
                   at_preimage(star, 0.3 + 0.01j), (0.5 + 0.3j, flat),
                   (-0.2 - 0.1j, flat)]
        z0 = np.concatenate([[z for z, _ in special], near_star[ts],
                             near_pair[tq]])
        ip = np.concatenate([[p for _, p in special], ps, len(star) + pq])
        order = rng.permutation(z0.size)
        z0, ip = z0[order], ip[order]
        mu_inf = rng.uniform(0.5, 2.0, z0.size)
        pk = panels[ip]
        frame = locate_preimage(pk, z0)
        est = estimate_error(pk, frame, mu_inf)
        rows = kernel_rows(pk, frame)
        residue = _residue_correction(pk, frame)
        assert np.isinf(est).sum() >= 3
        assert np.any(residue != 0)
        for k in range(z0.size):
            pk1, z1 = panels[ip[k:k + 1]], z0[k:k + 1]
            fr1 = locate_preimage(pk1, z1)
            assert abs(frame.xi0[k] - fr1.xi0[0]) <= 1e-15
            assert frame.newton_ok[k] == fr1.newton_ok[0]
            assert residue[k] == _residue_correction(pk1, fr1)[0]
            e = estimate_error(pk1, fr1, mu_inf[k:k + 1])[0]
            assert e == est[k] or abs(e - est[k]) <= 1e-13 * abs(e)
            for r, r_one in zip(rows, kernel_rows(pk1, fr1)):
                assert (np.abs(r[k] - r_one[0]).max()
                        <= 1e-13 * np.abs(r_one[0]).max())

    def test_large_batch_matches_small_batches(self):
        # beyond 16,384 complex entries NumPy may reuse a temporary in
        # place, whose product rounds differently; frames must not change
        star, _, _ = batch_geometries()
        rng = np.random.default_rng(7)
        th = rng.uniform(0, 2 * np.pi, 5000)
        near = ((1 + 0.3 * np.cos(3 * th) - rng.uniform(-0.05, 0.3, th.size))
                * np.exp(1j * th))
        ti, ip = cull(star, near, ESTIMATE_RADIUS * star.length)
        z0 = near[ti]
        assert z0.size > 16_384
        big = locate_preimage(star[ip], z0)
        parts = [locate_preimage(star[ip[s:s + 1000]], z0[s:s + 1000])
                 for s in range(0, z0.size, 1000)]
        for f in ("z0t", "xi0", "newton_ok"):
            assert np.array_equal(getattr(big, f),
                                  np.concatenate([getattr(p, f)
                                                  for p in parts])), f
        # so do the residues that correction_rows builds from the frames
        assert np.array_equal(
            _residue_correction(star[ip], big),
            np.concatenate([_residue_correction(star[ip[s:s + 1000]], p)
                            for s, p in zip(range(0, z0.size, 1000),
                                            parts)]))
        # the estimates, computed from each side's own frames, match bitwise
        mu_inf = rng.uniform(0.5, 2.0, z0.size)
        est = estimate_error(star[ip], big, mu_inf)
        est_parts = [estimate_error(star[ip[s:s + 1000]], p,
                                    mu_inf[s:s + 1000])
                     for s, p in zip(range(0, z0.size, 1000), parts)]
        assert np.array_equal(est, np.concatenate(est_parts))

    def test_empty_batch(self):
        # one drop: no cross-drop candidate pairs, as on single_n128
        from drops2d.geometry import circle
        from drops2d.stokes import DirectKernels, discretize

        disc = discretize([circle(128)])
        assert DirectKernels(disc).pairs.shape == (0, 2)
        none = np.zeros(0, dtype=int)
        pk = disc.panels[none]
        frame = locate_preimage(pk, np.zeros(0, dtype=complex))
        assert frame.xi0.shape == (0,)
        assert estimate_error(pk, frame, 1.0).shape == (0,)
        assert needs_correction(pk, np.zeros(0, dtype=complex), 1.0) is None
        C0, M20 = layer_matrices(disc.z, disc.zp, disc.zpp, disc.w)
        C, M2 = C0.copy(), M20.copy()
        ti, ip = overwrite_near_blocks(C, M2, disc.panels, disc.z, none,
                                       none, 1.0)
        assert ti.size == ip.size == 0
        assert np.array_equal(C, C0) and np.array_equal(M2, M20)
        # a far target has candidates neither
        far = np.array([5.0 + 0j])
        C, M2 = near_layer_matrices(disc, np.ones(disc.n), far)
        C0, M20 = layer_matrices(disc.z, disc.zp, disc.zpp, disc.w,
                                 targets=far)
        assert np.array_equal(C, C0) and np.array_equal(M2, M20)


def horner(coef, x):
    """sum_k coef[:, k] x^k, one series per row, by Horner's rule."""
    val = coef[:, -1]
    for k in range(14, -1, -1):
        val = val * x + coef[:, k]
    return val


def derivative(eta):
    """Monomial coefficients of eta' from those of eta, one series per
    row, by p'_k = (k + 1) p_{k+1} with a zero top coefficient."""
    eta_p = np.zeros_like(eta)
    eta_p[:, :-1] = np.arange(1.0, 16) * eta[:, 1:]
    return eta_p


def reference_frame(panel, z0):
    """(xi0, newton_ok) of locate_preimage, one evaluation per series.

    The Newton of the per-series evaluation: at each step eta' and then
    eta are summed from panel.power by Horner's rule, each on its own, and
    so is eta for the residual.
    """
    eta = panel.power
    eta_p = derivative(eta)
    zt = panel.transform(z0)
    xi = zt.copy()
    live = np.arange(zt.size)
    for _ in range(neareval.NEWTON_MAXITER):
        dp = horner(eta_p[live], xi[live])
        moving = dp != 0
        live, dp = live[moving], dp[moving]
        step = (horner(eta[live], xi[live]) - zt[live]) / dp
        xi[live] -= step
        live = live[~(np.abs(step)
                      < 1e-14 * np.maximum(1.0, np.abs(xi[live])))]
        if live.size == 0:
            break
    resid = np.abs(horner(eta, xi) - zt)
    ok = ((resid <= neareval.NEWTON_TOL * np.maximum(1.0, np.abs(zt)))
          & (np.abs(xi) < 10.0))
    return xi, ok


def legendre_fit(panel):
    """Legendre coefficients of eta and of eta' (with a zero top one),
    fitted to nodes_t and cut as prepare_panel fits and cuts them."""
    eta = (neareval._LEGV_INV @ panel.nodes_t[:, :, None])[:, :, 0]
    eta[np.abs(eta) < 1e-14 * np.abs(eta).max(axis=-1, keepdims=True)] = 0.0
    eta_p = np.zeros_like(eta)
    eta_p[:, :-1] = npleg.legder(eta, axis=-1)
    return eta, eta_p


def legendre_newton(panel, z0):
    """(xi0, newton_ok, capped) of a Newton that evaluates eta and eta'
    as Legendre series, the basis locate_preimage once ran in.

    Each step is one Clenshaw sweep over the stacked [eta'; eta]; capped
    marks the pairs still moving after NEWTON_MAXITER steps, and
    newton_ok is judged at the last double-precision iterate.  xi0 is that
    iterate polished by two more steps in extended precision, so that the
    reference root carries no rounding of its own.
    """
    eta, eta_p = legendre_fit(panel)
    zt = panel.transform(z0)
    xi = zt.copy()
    live = np.arange(zt.size)
    for _ in range(neareval.NEWTON_MAXITER):
        x = xi[live]
        both = npleg.legval(np.concatenate((x, x)), np.concatenate(
            (eta_p[live], eta[live])).T, tensor=False)
        dp, val = both[:live.size], both[live.size:]
        moving = dp != 0
        live, dp = live[moving], dp[moving]
        step = (val[moving] - zt[live]) / dp
        xi[live] -= step
        live = live[~(np.abs(step)
                      < 1e-14 * np.maximum(1.0, np.abs(xi[live])))]
        if live.size == 0:
            break
    capped = np.zeros(zt.size, dtype=bool)
    capped[live] = True
    resid = np.abs(npleg.legval(xi, eta.T, tensor=False) - zt)
    ok = ((resid <= neareval.NEWTON_TOL * np.maximum(1.0, np.abs(zt)))
          & (np.abs(xi) < 10.0))
    x, z, e = (a.astype(np.clongdouble) for a in (xi, zt, eta.T))
    with np.errstate(all="ignore"):
        for _ in range(2):
            x = x - ((npleg.legval(x, e, tensor=False) - z)
                     / npleg.legval(x, npleg.legder(e), tensor=False))
    return x, ok, capped


def reference_estimate(panel, xi0, newton_ok, mu_inf):
    """estimate_error with its own four Horner evaluations of
    panel.power."""
    mu = np.broadcast_to(mu_inf, xi0.shape)
    est = np.full(xi0.shape, np.inf)
    on_segment = (np.abs(xi0.imag) < 1e-14) & (np.abs(xi0.real) <= 1.0)
    k = np.flatnonzero(newton_ok & ~on_segment)
    xi, mu = xi0[k], mu[k]
    eta = panel.power[k]
    eta_p = derivative(eta)
    s = np.sqrt(xi * xi - 1.0)
    s = np.where(np.abs(xi + s) < 1.0, -s, s)
    kn = 2.0 * np.pi / (xi + s) ** 33
    dlog = -33 / s
    knp = kn * dlog
    etap0 = horner(eta_p, xi)
    with np.errstate(divide="ignore", invalid="ignore"):
        nbar2 = -horner(np.conj(eta_p), xi) / etap0
        R1 = np.imag(kn * mu)
        R2 = kn * mu * nbar2
        R3 = knp / etap0 * (np.conj(horner(eta, np.conj(xi)))
                            - np.conj(horner(eta, xi))) * mu
        est[k] = np.where(etap0 == 0, np.inf,
                          np.abs(-(1j / np.pi) * R1 + np.conj(R2) / (2 * np.pi)
                                 + np.conj(R3) / (2 * np.pi)))
    return est


@lru_cache(maxsize=None)
def pinched_disc():
    """Discretization of an equal-arclength pinched ellipse (N 256, neck
    half-width 0.3), under-resolved at its tips."""
    from drops2d.geometry import Interface, to_equal_arclength
    from drops2d.spectral import uniform_alpha
    from drops2d.stokes import discretize

    t = uniform_alpha(256)
    z = np.cos(t) - 1j * np.sin(t) * (0.3 + 0.7 * np.cos(t) ** 2)
    return discretize([to_equal_arclength(Interface(z=z))])


@lru_cache(maxsize=None)
def equivalence_panels():
    """Panels of the 25-panel star, of the pinched drop and of the
    phi = 0.6 pair at 2x256."""
    star, pair, _ = batch_geometries()
    return {"star": star, "pinched": pinched_disc().panels, "pair": pair}


class TestStackedSweep:
    """locate_preimage and estimate_error equal the per-series evaluation
    of panel.power bit for bit, and their Newton finds the preimages of a
    Newton on the Legendre fit."""

    @pytest.mark.parametrize("shape", ["star", "pinched", "pair"])
    def test_power_reproduces_the_nodes(self, shape):
        panels = equivalence_panels()[shape]
        eta = horner(np.repeat(panels.power, 16, axis=0),
                     np.tile(GL_NODES, len(panels))).reshape(-1, 16)
        assert np.all(np.abs(eta - panels.nodes_t) <= 1e-14)

    def test_power_basis_matches_numpy(self):
        # _LEG2POW is exact; leg2poly, by recursion, is off by up to 3.6e-12
        # on entries up to 2.5e4
        ref = np.column_stack([np.pad(npleg.leg2poly(np.eye(16)[j]),
                                      (0, 15 - j)) for j in range(16)])
        top = np.abs(neareval._LEG2POW).max()
        assert np.all(np.abs(neareval._LEG2POW - ref) <= 1e-15 * top)

    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from(["star", "pinched", "pair"]),
           n=st.integers(1, 1000), seed=st.integers(0, 2**32 - 1),
           maxiter=st.sampled_from([NEWTON_MAXITER, 3]))
    def test_matches_per_series_evaluation(self, shape, n, seed, maxiter):
        panels = equivalence_panels()[shape]
        rng = np.random.default_rng(seed)
        ip = rng.integers(0, len(panels), n)
        # transformed targets cycling through the four quadrants, from on
        # the panel's chord out to three half-lengths
        quad = np.arange(n) % 4
        zt = (np.where(quad % 3 == 0, 1, -1) * rng.uniform(0, 3, n)
              + 1j * np.where(quad < 2, 1, -1) * rng.uniform(0, 1.5, n))
        pk = panels[ip]
        z0 = pk.mid + zt / pk.scale
        mu_inf = rng.uniform(0.5, 2.0, n)
        with mock.patch.object(neareval, "NEWTON_MAXITER", maxiter):
            frame = locate_preimage(pk, z0)
            xi0, ok = reference_frame(pk, z0)
        assert np.array_equal(frame.xi0, xi0, equal_nan=True)
        assert np.array_equal(frame.newton_ok, ok)
        assert np.array_equal(estimate_error(pk, frame, mu_inf),
                              reference_estimate(pk, xi0, ok, mu_inf))

    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from(["star", "pinched", "pair"]),
           reach=st.sampled_from([1.5, 3.0, 6.0]),
           n=st.integers(1, 1000), seed=st.integers(0, 2**32 - 1))
    @example(shape="star", reach=6.0, n=139, seed=717)
    def test_matches_legendre_newton(self, shape, reach, n, seed):
        # a pair that the Legendre Newton leaves still moving at the cap is
        # accepted or not by its residual at an arbitrary iterate, and two
        # roundings of the same path can fall either side of NEWTON_TOL
        # (seen once in 2e4 pinched-drop pairs at three half-lengths).  The
        # pinned example has a preimage at |xi0| 8.07 whose double-precision
        # Legendre root lies 2.1e-14 from the exact one and the program's
        # 7.0e-14, against a tolerance of 8.07e-14: the two differ by 8.7e-14
        panels = equivalence_panels()[shape]
        rng = np.random.default_rng(seed)
        ip = rng.integers(0, len(panels), n)
        # transformed targets in the square of half-width reach
        zt = rng.uniform(-reach, reach, n) + 1j * rng.uniform(-reach, reach, n)
        pk = panels[ip]
        frame = locate_preimage(pk, pk.mid + zt / pk.scale)
        xi0, ok, capped = legendre_newton(pk, pk.mid + zt / pk.scale)
        assert np.array_equal(frame.newton_ok[~capped], ok[~capped])
        both = frame.newton_ok & ok & ~capped
        assert np.all(np.abs(frame.xi0 - xi0)[both]
                      <= 1e-14 * np.maximum(1.0, np.abs(xi0[both])))
