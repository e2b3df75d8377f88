import glob
import os
from dataclasses import replace

import numpy as np
import pytest

from drops2d.harness import (DropSpec, RunSpec, ScenarioConfig, build_state,
                             circularity, compare_to_oracle, load_checkpoint,
                             preset, run_scenario)
from drops2d.stokes import FlowConfig


def tiny_config(fixed_dt=None, n=64):
    return ScenarioConfig(
        name="tiny",
        drops=[DropSpec(shape="circle", center=0.0, radius=1.0, lam=0.0,
                        rho0=1.0, n=n)],
        flow=FlowConfig(Q=0.05, E=0.3, Pe=10.0),
        run=RunSpec(t_end=0.02, tol=1e-6, dt0=2e-3, fixed_dt=fixed_dt,
                    output_every=2, checkpoint_every=0))


class TestPresets:
    def test_pair_clean_q(self):
        assert preset("pair_clean", n=64).flow.Q == 0.5

    def test_pair_surfactant_pe(self):
        assert preset("pair_surfactant", n=64).flow.Pe == 10.0

    def test_steady_single(self):
        cfg = preset("steady_single")
        assert cfg.flow.Q == 0.14 and cfg.run.steady
        assert not np.isfinite(cfg.flow.Pe)

    def test_swiss_roll_threshold(self):
        from drops2d.harness import SWISS_CIRCULAR_TOL
        assert SWISS_CIRCULAR_TOL == 1e-4

    def test_unknown(self):
        with pytest.raises(ValueError):
            preset("nope")


class TestConfigRoundTrip:
    def test_json(self):
        cfg = tiny_config()
        cfg2 = ScenarioConfig.from_json(cfg.to_json())
        assert cfg2.to_json() == cfg.to_json()
        assert cfg2.config_hash() == cfg.config_hash()

    def test_flow_lambdas_rejected(self):
        # viscosity ratios live on the drops; a stale flow key must fail
        import json
        raw = json.loads(tiny_config().to_json())
        raw["flow"]["lambdas"] = [0.0]
        with pytest.raises(TypeError, match="lambdas"):
            ScenarioConfig.from_json(json.dumps(raw))

    def test_infinite_pe_round_trip(self):
        cfg = preset("steady_single")
        cfg2 = ScenarioConfig.from_json(cfg.to_json())
        assert not np.isfinite(cfg2.flow.Pe)


class TestDeterminism:
    def test_fixed_dt_byte_identical(self, tmp_path):
        cfg = tiny_config(fixed_dt=2e-3)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_scenario(cfg, out_dir=str(d1))
        run_scenario(cfg, out_dir=str(d2))
        for f1 in sorted(glob.glob(str(d1 / "*.csv"))):
            f2 = str(d2 / os.path.basename(f1))
            assert open(f1, "rb").read() == open(f2, "rb").read()

    def test_restart_reproduces_tail(self, tmp_path):
        cfg = tiny_config(fixed_dt=2e-3)
        cfg.run.t_end = 0.014
        cfg.run.checkpoint_every = 5
        d_full = tmp_path / "full"
        rec_full = run_scenario(cfg, out_dir=str(d_full))
        # restart from the checkpoint written at step 5 and finish the run;
        # 7 steps in all, so that no later checkpoint overwrites that one
        cfg2 = tiny_config(fixed_dt=2e-3)
        cfg2.run.t_end = 0.014
        rec_tail = run_scenario(cfg2, restart_from=str(d_full / "checkpoint.npz"))
        assert len(rec_full.series) == 7
        assert len(rec_tail.series) == 2
        zf = rec_full.final_state.ifaces[0].z
        zt = rec_tail.final_state.ifaces[0].z
        assert np.array_equal(zf, zt)
        assert np.array_equal(rec_full.final_state.fields[0].rho,
                              rec_tail.final_state.fields[0].rho)
        assert np.array_equal(rec_tail.series_array("iterations"),
                              rec_full.series_array("iterations")[-2:])

    def test_restart_takes_material_parameters_from_config(self, tmp_path):
        cfg = tiny_config(fixed_dt=2e-3)
        cfg.run.t_end = 0.014
        cfg.run.checkpoint_every = 5
        run_scenario(cfg, out_dir=str(tmp_path))
        cfg2 = tiny_config(fixed_dt=2e-3)
        cfg2.run.t_end = 0.014
        cfg2.flow = replace(cfg2.flow, E=0.1)
        rec = run_scenario(cfg2, restart_from=str(tmp_path / "checkpoint.npz"))
        assert len(rec.series) == 2
        assert [f.E for f in rec.final_state.fields] == [0.1]
        cfg2.drops = cfg2.drops * 2
        with pytest.raises(ValueError, match="drops"):
            load_checkpoint(str(tmp_path / "checkpoint.npz"), cfg2)


class TestCompare:
    def test_self_comparison_zero(self):
        cfg = tiny_config(fixed_dt=2e-3)
        rec = run_scenario(cfg)
        st = rec.final_state
        oracle = {"alphaV": st.ifaces[0].alpha,
                  "z": st.ifaces[0].z,
                  "rho": st.fields[0].rho}
        out = compare_to_oracle(st, oracle)
        assert out["e_z_max"] < 1e-13
        assert out["e_rho_max"] < 1e-13

    def test_synthetic_shift(self):
        cfg = tiny_config(fixed_dt=2e-3)
        rec = run_scenario(cfg)
        st = rec.final_state
        oracle = {"alphaV": st.ifaces[0].alpha,
                  "z": st.ifaces[0].z + 1e-7,
                  "rho": st.fields[0].rho}
        out = compare_to_oracle(st, oracle)
        assert out["e_z_max"] == pytest.approx(1e-7, rel=1e-6)

    def test_window_restriction(self):
        cfg = tiny_config(fixed_dt=2e-3)
        rec = run_scenario(cfg)
        st = rec.final_state
        oracle = {"alphaV": st.ifaces[0].alpha, "z": st.ifaces[0].z}
        out = compare_to_oracle(st, oracle,
                                window=(2 * np.pi / 3, 4 * np.pi / 3))
        lo, hi = 2 * np.pi / 3, 4 * np.pi / 3
        assert np.all((out["alphaV"] >= lo) & (out["alphaV"] <= hi))


def test_series_contains_conservation_columns(tmp_path):
    cfg = tiny_config(fixed_dt=2e-3)
    rec = run_scenario(cfg, out_dir=str(tmp_path))
    head = open(tmp_path / "series.csv").readline().strip().split(",")
    assert "area_0" in head and "mass_0" in head and "min_dist" in head
    # the true GMRES count of each step's second-stage density solve
    iterations = np.loadtxt(tmp_path / "series.csv", delimiter=",",
                            skiprows=1, ndmin=2)[:, head.index("iterations")]
    assert np.all(iterations >= 1)
    assert np.array_equal(iterations, rec.series_array("iterations"))
    areas = rec.series_array("areas")
    assert np.abs(areas / areas[0] - 1).max() < 1e-8


def test_build_state_rejects_overlap():
    cfg = ScenarioConfig(
        name="overlap",
        drops=[DropSpec(center=0.0, n=64), DropSpec(center=0.5, n=64)],
        flow=FlowConfig(),
        run=RunSpec())
    with pytest.raises(ValueError):
        build_state(cfg)
