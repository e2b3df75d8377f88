import warnings
from dataclasses import fields
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from drops2d import neareval
from drops2d.neareval import (CULL_FACTOR, NEWTON_MAXITER, PanelData,
                              candidates, correct_panel_integrals,
                              correction_rows, estimate_error, kernel_rows,
                              locate_preimage, needs_correction,
                              overwrite_near_blocks, prepare_panel,
                              recursion_pq)
from drops2d.spectral import GL_NODES, GL_WEIGHTS
from drops2d.stokes import layer_matrices, near_layer_matrices

warnings.filterwarnings("ignore", message=".*roundoff.*")


def quarter_circle_panel():
    """Counterclockwise quarter-ish arc used as a strongly curved panel."""
    th_a, th_b = 0.0, np.pi / 4
    th = th_a + (GL_NODES + 1) * (th_b - th_a) / 2
    z = np.exp(1j * th)
    zp = 1j * np.exp(1j * th) * (th_b - th_a) / 2   # dz/dxi
    w = GL_WEIGHTS.copy()
    return prepare_panel(z, zp, w, np.exp(1j * th_a), np.exp(1j * th_b)), (th_a, th_b)


def flat_panel():
    z = GL_NODES.astype(complex)
    zp = np.ones(16, dtype=complex)
    return prepare_panel(z, zp, GL_WEIGHTS.copy(), -1.0 + 0j, 1.0 + 0j)


def plain_rows(panel, z0):
    """Plain Gauss-Legendre rows of the three kernel_rows integrals.

    panel holds one row per target z0.
    """
    z0 = np.asarray(z0)[..., None]
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
        fr = locate_preimage(panel, 0.5j)
        assert fr.newton_ok
        assert abs(fr.xi0 - 0.5j) < 1e-13

    def test_flat_panel_real_exterior(self):
        panel = flat_panel()
        fr = locate_preimage(panel, 2.0 + 0j)
        assert abs(fr.xi0 - 2.0) < 1e-13

    def test_curved_panel_residual(self):
        panel, (ta, tb) = quarter_circle_panel()
        z0 = 0.98 * np.exp(1j * np.pi / 8)
        fr = locate_preimage(panel, z0)
        assert fr.newton_ok
        eta_val = np.polynomial.legendre.legval(fr.xi0, panel.eta)
        assert abs(eta_val - panel.transform(z0)) < 1e-13


class TestRecursion:
    def test_p0_at_two(self):
        p, q = recursion_pq(2.0 + 0j)
        assert abs(p[0] + np.log(3.0)) < 1e-14

    def test_q0_at_two(self):
        p, q = recursion_pq(2.0 + 0j)
        assert abs(q[0] - 2.0 / 3.0) < 1e-14

    def test_on_segment_rejected(self):
        with pytest.raises(ValueError):
            recursion_pq(0.3 + 0j)

    @pytest.mark.parametrize("z0", [0.2 + 0.05j, -0.7 + 0.3j, 1.3 - 0.8j])
    def test_against_adaptive_quadrature(self, z0):
        p, q = recursion_pq(z0)
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
            p, q = recursion_pq(z0)
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
        mu = np.exp(panel.z_nodes)
        z0 = 0.3 + 0.1j
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
            fr = locate_preimage(panel, z0)
            r1, _, _ = kernel_rows(panel, fr)
            got = r1 @ mu_f(panel.z_nodes)
            # split the parameter interval at the closest point for quad
            tm = (ta + tb) / 2
            f = lambda t: mu_f(np.exp(1j * t)) * 1j * np.exp(1j * t) / (np.exp(1j * t) - z0)
            want = cquad(f, ta, tm) + cquad(f, tm, tb)
            assert abs(got - want) < 1e-10

    def test_zero_density(self):
        panel, _ = quarter_circle_panel()
        out = correct_panel_integrals(panel, np.zeros(16), 1.001 * np.exp(1j * np.pi / 8))
        assert out is not None
        assert abs(out[0]) == 0 and abs(out[1]) == 0

    def test_residue_branch_both_sides(self):
        # mirrored targets very close to the curved panel: both need the
        # path-deformation residue handled correctly
        panel, (ta, tb) = quarter_circle_panel()
        mid = np.exp(1j * (ta + tb) / 2)
        mu_f = lambda tau: 1.0 + 0.5 * tau
        tm = (ta + tb) / 2
        for side in (1, -1):
            z0 = mid * (1 + side * 2e-3)
            fr = locate_preimage(panel, z0)
            r1, _, _ = kernel_rows(panel, fr)
            got = r1 @ mu_f(panel.z_nodes)
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
        mu = mu_f(panel.z_nodes)
        tm = (ta + tb) / 2
        for dist in (0.3, 0.15, 0.08):
            z0 = mid * (1 + dist)
            fr = locate_preimage(panel, z0)
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

            base = panel.w_alpha * panel.zp_nodes
            d = panel.z_nodes - z0
            J1 = np.sum(mu * np.imag(base / d))
            nb2 = np.conj(panel.z_nodes) ** 2
            J2 = np.sum(mu * nb2 * base / d)
            J3 = np.sum(mu * (np.conj(panel.z_nodes) - np.conj(z0)) * base / d**2)
            plain = (-1j / np.pi) * J1 + np.conj(J2) / (2 * np.pi) + np.conj(J3) / (2 * np.pi)
            measured = abs(plain - kernel_exact())
            if measured > 1e-12:
                ratio = est / measured
                assert 0.1 < ratio < 10.0

    def test_zero_density_zero_estimate(self):
        panel, _ = quarter_circle_panel()
        fr = locate_preimage(panel, 1.05 * np.exp(1j * np.pi / 8))
        assert estimate_error(panel, fr, 0.0) == 0.0


def test_idempotence_where_plain_accurate():
    panel, (ta, tb) = quarter_circle_panel()
    mu = np.cos(panel.z_nodes)
    z0 = np.exp(1j * np.pi / 8) * (1 + 1.0 * panel.length)
    fr = locate_preimage(panel, z0)
    r1, rJ2, rJ3 = kernel_rows(panel, fr)
    p1, pJ2, pJ3 = plain_rows(panel, z0)
    for rc, rp in ((r1, p1), (rJ2, pJ2), (rJ3, pJ3)):
        assert abs(rc @ mu - rp @ mu) < 1e-12


class TestCandidates:
    @pytest.mark.parametrize("n_panels", [25, 50])
    def test_matches_brute_force(self, n_panels):
        from drops2d.dirichlet import GoursatReference, solve_dirichlet

        panels = solve_dirichlet(n_panels, GoursatReference().velocity).panels
        rng = np.random.default_rng(n_panels)
        # points in and around the star, two nodes and a chord midpoint
        box = 3 * (rng.random(300) - 0.5) + 3j * (rng.random(300) - 0.5)
        targets = np.concatenate([box, panels[3].z_nodes[:2], [panels[7].mid]])
        want = {(k, ip) for k, z0 in enumerate(targets)
                for ip, panel in enumerate(panels)
                if np.min(np.abs(panel.z_nodes - z0)) <= CULL_FACTOR * panel.length}
        ti, pi = candidates(panels, targets)
        got = set(zip(ti.tolist(), pi.tolist()))
        assert len(got) == len(ti)
        assert got == want
        assert len(want) > len(targets)


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
    """Corrected minus plain kernels against correct_panel_integrals.

    near_layer_matrices overwrites the flagged blocks of layer_matrices;
    the difference of the two, applied to mu, is the summed increment of
    the special rule over the plain one.
    """

    @staticmethod
    def reference(panels, mu, targets):
        """Summed (K1, K2) increments over the panels the estimate flags."""
        mu_p = mu.reshape(len(panels), 16)
        dK1 = np.zeros(len(targets), dtype=complex)
        dK2 = np.zeros(len(targets), dtype=complex)
        dI = np.zeros(len(targets), dtype=complex)
        hits = 0
        for k, z0 in enumerate(targets):
            for panel, m in zip(panels, mu_p):
                if needs_correction(panel, z0, np.abs(m).max()) is None:
                    continue
                hits += 1
                K1, K2 = correct_panel_integrals(panel, m, z0)
                p1, pJ2, pJ3 = plain_rows(panel, z0)
                dK1[k] += K1 - np.real(p1) @ m
                dK2[k] += K2 - 0.5j * (np.conj(pJ2 @ m) + np.conj(pJ3 @ m))
                r1, _, _ = kernel_rows(panel, locate_preimage(panel, z0))
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
        ti, ip = candidates(geom.panels, targets)
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

        disc = discretize([circle(64, center=1.15, id=0),
                           circle(64, center=-1.15, id=1)])
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
        from dataclasses import replace

        from drops2d.harness import _pair_center, build_state, preset
        from drops2d.stokes import DirectKernels, discretize

        cfg = preset("pair_clean", n=128)
        c = _pair_center(0.6)
        cfg.drops = [replace(d, center=s * 1j * c)
                     for d, s in zip(cfg.drops, (1, -1))]
        disc = discretize(build_state(cfg).ifaces)
        kern = DirectKernels(disc)
        C0, _ = layer_matrices(disc.z, disc.zp, disc.zpp, disc.w)
        i, g = kern.pairs.T
        assert i.size > 0
        assert np.all(disc.drop_of[i] != disc.drop_of[16 * g])
        block = np.zeros(C0.shape, dtype=bool)
        block[i[:, None], 16 * g[:, None] + np.arange(16)] = True
        assert np.array_equal(kern.CAU[~block], C0[~block])
        assert np.all(kern.CAU[block] != C0[block])


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
    return (complex(panel.mid + np.polynomial.legendre.legval(xi, panel.eta)
                    / panel.scale), 5)


class TestBatchInvariance:
    """A mixed batch of pairs gives the frames of each pair on its own."""

    def test_special_pairs_cover_the_newton_cases(self):
        star, _, _ = batch_geometries()

        def frame(pair, maxiter=NEWTON_MAXITER):
            with mock.patch.object(neareval, "NEWTON_MAXITER", maxiter):
                return locate_preimage(star[pair[1]], pair[0])

        few = frame(FEW)
        assert few.newton_ok and few.xi0 == frame(FEW, 4).xi0
        cap = frame(CAP)
        assert not cap.newton_ok
        assert cap.xi0 != frame(CAP, NEWTON_MAXITER + 1).xi0
        far = frame(FAR)
        assert not far.newton_ok and abs(far.xi0) >= 10
        assert far.xi0 == frame(FAR, NEWTON_MAXITER + 1).xi0
        on = frame(at_preimage(star, 0.3))
        assert on.newton_ok and np.isinf(estimate_error(star[5], on, 1.0))
        # the p_0 branch test that replaces the lens test without Newton
        for maxiter in (NEWTON_MAXITER, 0):
            lens = frame(at_preimage(star, 0.3 + 0.01j), maxiter)
            assert lens.newton_ok == (maxiter > 0)
            assert lens.residue == 2j * np.pi

    def test_newton_stops_on_relative_step(self):
        star, _, _ = batch_geometries()

        def frame(maxiter):
            with mock.patch.object(neareval, "NEWTON_MAXITER", maxiter):
                return locate_preimage(star[ULPS[1]], ULPS[0])

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
        panels = stack(star, pair, flat_panel()[None])
        rng = np.random.default_rng(seed)
        th = rng.uniform(0, 2 * np.pi, n_star)
        depth = rng.uniform(-0.05, 0.3, n_star)
        near_star = (1 + 0.3 * np.cos(3 * th) - depth) * np.exp(1j * th)
        th = rng.uniform(0, 2 * np.pi, n_pair)
        gap = rng.uniform(-0.03, 0.1, n_pair)
        near_pair = (rng.choice([1j * c, -1j * c], n_pair)
                     + (1 + gap) * np.exp(1j * th))
        ts, ps = candidates(star, near_star)
        tq, pq = candidates(pair, near_pair)
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
        assert np.isinf(est).sum() >= 3
        assert np.any(frame.residue != 0)
        for k in range(z0.size):
            one = locate_preimage(panels[ip[k]], z0[k])
            assert abs(frame.xi0[k] - one.xi0) <= 1e-15
            assert frame.newton_ok[k] == one.newton_ok
            assert frame.residue[k] == one.residue
            e = estimate_error(panels[ip[k]], one, mu_inf[k])
            assert e == est[k] or abs(e - est[k]) <= 1e-13 * abs(e)
            for r, r_one in zip(rows, kernel_rows(panels[ip[k]], one)):
                assert (np.abs(r[k] - r_one).max()
                        <= 1e-13 * np.abs(r_one).max())

    def test_empty_batch(self):
        # one drop: no cross-drop candidate pairs, as on single_n128
        from drops2d.geometry import circle
        from drops2d.stokes import DirectKernels, discretize

        disc = discretize([circle(128, id=0)])
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
