import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from drops2d.geometry import Interface, modified_tangential_velocity
from drops2d.spectral import equal_arclength_nodes, fourier_interp
from drops2d.steady_oracle import (NoSteadyState, b_from_q, steady_q,
                                   steady_solution)
from drops2d.stokes import FlowConfig, interface_velocity
from drops2d.surfactant import SurfactantField, rhs_explicit, surface_tension


class TestSteadyMap:
    def test_invariant_enforced(self):
        # b >= 0; the map's A0 = sqrt(1 + b^2) follows from b
        with pytest.raises(ValueError, match="b >= 0"):
            steady_solution(-0.3, E=0.5)
        steady_solution(0.3, E=0.5)

    def test_degenerate_circle(self):
        sol = steady_solution(0.0, E=0.5)
        assert sol["D"] == pytest.approx(0.0, abs=1e-14)
        assert sol["Q"] == pytest.approx(0.0, abs=1e-14)
        assert np.abs(sol["rho"] - 1.0).max() < 1e-13
        assert np.abs(np.abs(sol["z"]) - 1.0).max() < 1e-13


class TestSteadySolution:
    def test_deformation_value(self):
        sol = steady_solution(0.3, E=0.5)
        assert sol["D"] == pytest.approx(0.3 / np.sqrt(1.09), abs=1e-12)

    def test_q_by_independent_quadrature(self):
        b, E = 0.3, 0.5
        B = lambda nu: 1 + 2 * b**2 - 2 * np.sqrt(1 + b**2) * b * np.cos(2 * nu)
        i1 = quad(lambda nu: np.sqrt(B(nu)), 0, 2 * np.pi, limit=200)[0]
        i2 = quad(B, 0, 2 * np.pi, limit=200)[0]
        A = (i1 - 2 * np.pi * E) / i2
        want = A * b / (2 * np.sqrt(1 + b**2))
        assert steady_q(b, E) == pytest.approx(want, abs=5e-13)

    def test_mass_is_two_pi(self):
        for b, E in ((0.1, 0.5), (0.3, 0.5), (0.25, 0.9)):
            sol = steady_solution(b, E=E, M=512)
            mass = np.sum(sol["rho"] * np.abs(sol["z_nu"])) * 2 * np.pi / 512
            assert mass == pytest.approx(2 * np.pi, abs=1e-12)

    def test_area_is_pi(self):
        for b in (0.1, 0.3, 0.5):
            sol = steady_solution(b, E=0.5, M=512)
            z, z_nu = sol["z"], sol["z_nu"]
            area = 0.5 * np.sum(np.imag(np.conj(z) * z_nu)) * 2 * np.pi / 512
            assert abs(abs(area) - np.pi) < 1e-12

    def test_positivity_guard(self):
        with pytest.raises(ValueError):
            steady_solution(1.5, E=0.05)

    def test_d_increasing_in_b(self):
        D = [steady_solution(b, 0.5, M=128)["D"]
             for b in np.linspace(0.0, 0.6, 13)]
        assert np.all(np.diff(D) > 0)


@pytest.mark.parametrize("E", [0.0, -0.5, np.nan, np.inf])
@pytest.mark.parametrize("entry", [
    lambda E: steady_q(0.2, E),
    lambda E: steady_solution(0.2, E),
    lambda E: b_from_q(0.05, E),
    lambda E: b_from_q(0.0, E),
], ids=["steady_q", "steady_solution", "b_from_q", "b_from_q-at-0"])
def test_refuses_e_outside_its_formulas(entry, E):
    # E = 0 divided by zero, and E < 0 or nan gave an oracle state
    with pytest.raises(ValueError, match=f"finite E > 0, not {E}"):
        entry(E)


def test_b_from_q_round_trip():
    for E in (0.5, 0.9):
        assert b_from_q(0.0, E) == 0.0
        for b in (0.05, 0.2, 0.3):
            q = steady_q(b, E)
            assert b_from_q(q, E) == pytest.approx(b, abs=1e-10)


@pytest.mark.parametrize("Q, E", [(0.07, 0.5), (0.05, 0.5), (0.1, 0.5),
                                  (0.025, 0.2), (0.05, 0.2), (0.05, 0.1),
                                  (0.005, 0.9), (0.01, 0.9)])
def test_b_from_q_matches_brentq(Q, E):
    # the bisection against scipy's root finder on the same bracket
    bs = np.linspace(1e-6, 2.0, 400)
    peak = bs[np.argmax([steady_q(b, E) for b in bs])]
    ref = brentq(lambda b: steady_q(b, E) - Q, 1e-9, peak, xtol=1e-14)
    assert abs(b_from_q(Q, E) - ref) < 1e-14


@pytest.mark.parametrize("Q, E", [(-0.1, 0.5), (0.3, 0.5), (0.1, 0.1)],
                         ids=["-0.1", "0.3", "0.1-0.1"])
def test_b_from_q_rejects_q_off_the_branch(Q, E):
    # the branch at E = 0.5 holds 0 < Q <= 0.1297; at E = 0.1 rho reaches
    # 0 at Q = 0.0540, before the branch's peak at Q = 0.1794
    with pytest.raises(NoSteadyState, match="no steady state"):
        b_from_q(Q, E)


@pytest.mark.parametrize("E, q_end", [(0.1, 0.053996), (0.2, 0.114145)])
def test_branch_ends_where_rho_reaches_zero(E, q_end):
    # the stable branch rises to Q 0.1794 at E 0.1 and 0.1661 at E 0.2,
    # but rho reaches 0 earlier; every Q b_from_q accepts has a state
    with pytest.raises(NoSteadyState) as exc:
        b_from_q(q_end + 1e-6, E)
    q_max = exc.value.q_max
    assert abs(q_max - q_end) < 1e-6
    for Q in np.linspace(0.0, q_max, 41):
        sol = steady_solution(b_from_q(Q, E), E=E)
        assert sol["rho"].min() > 0
        assert sol["Q"] == pytest.approx(Q, abs=1e-12)


def test_known_regime_values():
    # Q = 0.07 at E = 0.5 sits near deformation 0.29
    b = b_from_q(0.07, 0.5)
    sol = steady_solution(b, E=0.5)
    assert 0.28 < sol["D"] < 0.30


def oracle_on_uniform_alpha(sol, n):
    """Oracle shape and surfactant at n nodes equidistant in arclength."""
    nu = equal_arclength_nodes(np.abs(sol["z_nu"]), n)
    return fourier_interp(sol["z"], nu), fourier_interp(sol["rho"], nu)


class TestSolverConvention:
    """One Stokes solve at the oracle state of Q = 0.07 and E = 0.5."""

    @staticmethod
    def solve(Q):
        sol = steady_solution(b_from_q(0.07, 0.5), E=0.5)
        z, rho = oracle_on_uniform_alpha(sol, 128)
        iface = Interface(z, lam=0.0)
        flow = FlowConfig(Q=Q, E=0.5)
        field = SurfactantField(rho, flow)
        u, _, _ = interface_velocity([iface], [surface_tension(field)], flow)
        decomp = modified_tangential_velocity(iface, u[0])
        return u[0], decomp.u_n, rhs_explicit(iface, field, decomp)

    def test_oracle_q_is_a_fixed_point(self):
        u, _, drho = self.solve(0.07)
        assert np.abs(u).max() < 5e-9
        assert np.abs(drho).max() < 5e-8

    def test_twice_oracle_q_is_not_at_rest(self):
        # Siegel's capillary number of this state is 0.14; as a FlowConfig
        # Q it overdrives the state
        _, u_n, _ = self.solve(2 * 0.07)
        assert np.abs(u_n).max() > 0.1


def test_cli_steady_oracle_defaults_to_steady_preset_q(tmp_path):
    from drops2d.cli import main
    from drops2d.harness import preset

    main(["oracle", "steady", "--out-dir", str(tmp_path), "--points", "64"])
    with open(tmp_path / "steady_oracle.csv") as fh:
        header = dict(item.strip("# \n").split(" = ")
                      for item in fh.readline().split(","))
    Q = preset("steady_single").flow.Q
    assert float(header["Q"]) == pytest.approx(Q, abs=1e-15)
    assert float(header["b"]) == b_from_q(Q, 0.5)
