import glob
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from drops2d import harness
from drops2d.geometry import Interface
from drops2d.harness import (DropSpec, RunSpec, ScenarioConfig, build_state,
                             PRESETS, compare_to_oracle, load_checkpoint,
                             preset, read_snapshot, run_scenario)
from drops2d.spectral import uniform_alpha
from drops2d.stepper import SpacingDriftError
from drops2d.steady_oracle import b_from_q, steady_solution
from drops2d.stokes import FlowConfig, interface_velocity
from drops2d.surfactant import SurfactantField, surface_tension

from test_steady_oracle import oracle_on_uniform_alpha


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
        # the preset's Q holds the steady oracle state of that Q
        cfg = preset("steady_single")
        assert cfg.run.steady and not np.isfinite(cfg.flow.Pe)
        flow, n = cfg.flow, cfg.drops[0].n
        sol = steady_solution(b_from_q(flow.Q, flow.E), E=flow.E)
        z, rho = oracle_on_uniform_alpha(sol, n)
        iface = Interface(z, lam=cfg.drops[0].lam)
        field = SurfactantField(rho, flow)
        u, _, _ = interface_velocity([iface], [surface_tension(field)], flow)
        assert np.abs(u[0]).max() < 5e-9

    def test_unknown(self):
        with pytest.raises(ValueError):
            preset("nope")

    @pytest.mark.parametrize("name, n, digest", [
        ("steady_single", None, "4b580240ed8d31b9"),
        ("steady_single", 64, "b52a9551b434cae8"),
        ("pair_clean", None, "f04f238d5ca95cd7"),
        ("pair_clean", 64, "faaf61c92aa52da6"),
        ("pair_surfactant", None, "efd5aa680122abb0"),
        ("pair_surfactant", 64, "c4574f5b3c5f233f")])
    def test_config_pinned(self, name, n, digest):
        # the validation configurations: a change to any field changes
        # the hash that every manifest of their runs carries
        assert preset(name, n).config_hash() == digest


class TestConfigRoundTrip:
    def test_json(self):
        cfg = tiny_config()
        cfg2 = ScenarioConfig.from_json(cfg.to_json())
        assert cfg2.to_json() == cfg.to_json()
        assert cfg2.config_hash() == cfg.config_hash()

    def test_custom_complex_points_round_trip(self):
        # complex boundary samples nest one level below the drop's keys;
        # the reloaded config must build the same state bit for bit
        t = uniform_alpha(64)
        cfg = tiny_config()
        cfg.drops = [DropSpec(shape="custom", n=64, rho0=0.5,
                              points=list(1.2 * np.cos(t) - 0.8j * np.sin(t)))]
        text = cfg.to_json()
        cfg2 = ScenarioConfig.from_json(text)
        assert cfg2.to_json() == text
        s1, s2 = build_state(cfg), build_state(cfg2)
        assert np.array_equal(s1.ifaces[0].z, s2.ifaces[0].z)
        assert np.array_equal(s1.fields[0].rho, s2.fields[0].rho)

    @pytest.mark.parametrize("section, key", [
        ("flow", "lambdas"), ("run", "adapt_spacing"), ("run", "steady_unorm")])
    def test_stale_key_rejected(self, section, key):
        # viscosity ratios live on the drops, and N and the steady
        # threshold are fixed: a config naming a stale key must fail
        import json
        raw = json.loads(tiny_config().to_json())
        raw[section][key] = 1e-8
        with pytest.raises(TypeError, match=key):
            ScenarioConfig.from_json(json.dumps(raw))

    def test_numpy_values_round_trip(self):
        # NumPy scalars and arrays go through the encoder's .item() and
        # .tolist() branches
        cfg = tiny_config()
        t = uniform_alpha(32)
        cfg.drops = [replace(cfg.drops[0], n=np.int64(32),
                             radius=np.float32(0.9)),
                     DropSpec(shape="custom", n=32,
                              points=3.0 + 0.5 * np.exp(-1j * t))]
        text = cfg.to_json()
        cfg2 = ScenarioConfig.from_json(text)
        assert cfg2.to_json() == text
        assert cfg2.config_hash() == cfg.config_hash()
        assert type(cfg2.drops[0].n) is int and cfg2.drops[0].n == 32
        assert cfg2.drops[0].radius == float(np.float32(0.9))
        assert np.array_equal(cfg2.drops[1].points, cfg.drops[1].points)

    def test_value_without_encoding_refused(self):
        cfg = tiny_config()
        cfg.drops[0] = replace(cfg.drops[0], points=[object()])
        with pytest.raises(TypeError, match="object"):
            cfg.to_json()

    def test_infinite_pe_round_trip(self):
        cfg = preset("steady_single")
        cfg2 = ScenarioConfig.from_json(cfg.to_json())
        assert not np.isfinite(cfg2.flow.Pe)

    def test_null_pe_rejected(self):
        # to_json writes Pe = inf as Infinity; a null is no Peclet number
        import json
        raw = json.loads(preset("steady_single").to_json())
        raw["flow"]["Pe"] = None
        with pytest.raises(ValueError, match="Pe must be positive"):
            ScenarioConfig.from_json(json.dumps(raw))


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
        fields = rec.final_state.fields
        assert len(fields) == 1 and fields[0].flow is cfg2.flow
        assert fields[0].flow.E == 0.1
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

    def test_read_snapshot_round_trip(self, tmp_path):
        rec = run_scenario(tiny_config(fixed_dt=2e-3), out_dir=str(tmp_path))
        paths = sorted(glob.glob(str(tmp_path / "snapshot_*.csv")))
        assert len(paths) == len(rec.snapshots)
        for path, snap in zip(paths, rec.snapshots):
            back = read_snapshot(path)
            assert back["t"] == snap["t"]
            for d_back, d in zip(back["drops"], snap["drops"], strict=True):
                assert d_back.keys() == d.keys()
                for key in d:
                    assert np.array_equal(d_back[key], d[key])

    def test_cli_compare_two_runs(self, tmp_path, capsys):
        import json

        from drops2d.cli import main

        def run(name, Q):
            cfg = preset("pair_clean", n=64)
            cfg = replace(cfg, flow=replace(cfg.flow, Q=Q),
                          run=replace(cfg.run, t_end=0.01, fixed_dt=2e-3))
            run_scenario(cfg, out_dir=str(tmp_path / name))
            return str(tmp_path / name)

        a, b, c = run("a", 0.5), run("b", 0.5), run("c", 0.45)
        main(["compare", a, b])
        same = json.loads(capsys.readouterr().out)
        assert same["t"] == pytest.approx(0.01, abs=1e-15)
        assert same["window"] == [2 * np.pi / 3, 4 * np.pi / 3]
        assert sorted(same["drops"]) == ["0", "1"]
        for rep in same["drops"].values():
            assert rep["e_z_max"] < 1e-13 and rep["e_rho_max"] == 0.0
        main(["compare", a, c, "--window", "0", str(2 * np.pi)])
        diff = json.loads(capsys.readouterr().out)
        for rep in diff["drops"].values():
            assert 1e-6 < rep["e_z_max"] < 1e-2

    def test_cli_compare_refuses_unmatched_directories(self, tmp_path):
        from drops2d.cli import main

        for name, t in (("a", 0.0), ("b", 0.5)):
            (tmp_path / name).mkdir()
            harness.write_csv(str(tmp_path / name / "snapshot_000000.csv"),
                              f"# t = {t}\ndrop,alpha,x,y,rho,sigma",
                              [[0], [0.0], [1.0], [0.0], [0.0], [1.0]])
        (tmp_path / "empty").mkdir()
        a, b, empty = (str(tmp_path / name) for name in ("a", "b", "empty"))
        with pytest.raises(SystemExit, match=f"no snapshots in {empty}"):
            main(["compare", a, empty])
        with pytest.raises(SystemExit,
                           match="snapshot times differ: 0.0 vs 0.5"):
            main(["compare", a, b])


def test_series_contains_conservation_columns(tmp_path):
    cfg = tiny_config(fixed_dt=2e-3)
    rec = run_scenario(cfg, out_dir=str(tmp_path))
    with open(tmp_path / "series.csv") as fh:
        head = fh.readline().strip().split(",")
    assert "area_0" in head and "mass_0" in head and "min_dist" in head
    # the true GMRES count of each step's second-stage density solve
    iterations = np.loadtxt(tmp_path / "series.csv", delimiter=",",
                            skiprows=1, ndmin=2)[:, head.index("iterations")]
    assert np.all(iterations >= 1)
    assert np.array_equal(iterations, rec.series_array("iterations"))
    areas = rec.series_array("areas")
    assert np.abs(areas / areas[0] - 1).max() < 1e-8


def test_write_csv_prints_every_value_as_17_digits(tmp_path):
    # %.17g round-trips every float64, keeps the sign of zero, prints an
    # integer as its digits, and no rows leave the header lines alone
    vals = np.array([0.1, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                     np.finfo(float).max, 1 / 3, 17.0, -2.0])
    path = tmp_path / "a.csv"
    harness.write_csv(path, "# t = 0\na,b,n", [vals, vals[::-1], range(10)])
    text = path.read_text()
    assert text == "# t = 0\na,b,n\n" + "".join(
        f"{a:.17g},{b:.17g},{k}\n" for k, (a, b) in
        enumerate(zip(vals, vals[::-1])))
    assert text.splitlines()[2] == "0.10000000000000001,-2,0"
    back = np.loadtxt(path, delimiter=",", skiprows=2)
    assert np.array_equal(back[:, 0], vals, equal_nan=True)
    assert np.signbit(back[1, 0])
    harness.write_csv(path, "a,b", [[], []])
    assert path.read_text() == "a,b\n"


def test_clean_drop_carries_zero_rho_at_the_flow_pe():
    # a clean drop is the rho = 0 case of the surfactant equations: it
    # refers to the run's flow like any drop, and every step keeps rho at 0
    cfg = preset("pair_surfactant", n=64)
    cfg.drops[1] = replace(cfg.drops[1], rho0=0.0)
    cfg = replace(cfg, run=replace(cfg.run, t_end=0.01))
    rec = run_scenario(cfg)
    clean = rec.final_state.fields[1]
    assert len(rec.series) > 1 and rec.final_state.t == pytest.approx(0.01)
    assert all(f.flow is cfg.flow for f in rec.final_state.fields)
    assert cfg.flow.Pe == 10.0
    assert np.array_equal(clean.rho, np.zeros(64))
    assert np.any(rec.final_state.fields[0].rho != 1.0)


def test_build_state_rejects_overlap():
    # at 1.5i neither start point lies inside the other drop and the
    # refined grids stay 0.014 apart, but the circles overlap in a lens
    for center in (0.5, 1.5j):
        cfg = ScenarioConfig(
            name="overlap",
            drops=[DropSpec(center=0.0, n=64), DropSpec(center=center, n=64)],
            flow=FlowConfig(),
            run=RunSpec())
        with pytest.raises(ValueError, match="drops must start disjoint"):
            build_state(cfg)
    for name in PRESETS:
        cfg = preset(name)
        assert len(build_state(cfg).ifaces) == len(cfg.drops)


def test_build_state_checks_every_pair_of_three_drops():
    def drops(third):
        return ScenarioConfig(
            name="three", drops=[DropSpec(center=0.0, n=64),
                                 DropSpec(center=3.0, n=64), third],
            flow=FlowConfig(), run=RunSpec())
    assert len(build_state(drops(DropSpec(center=3j, n=64))).ifaces) == 3
    with pytest.raises(ValueError, match="drops 0 and 2 are nested"):
        build_state(drops(DropSpec(center=0.2, radius=0.3, n=32)))


def test_steady_stop_records_only_steps_taken(tmp_path):
    # the attempt that finds the flow steady is discarded, so it adds no
    # row: the last row is the final state, and a drop steady from the
    # start has none
    def relax(shape):
        cfg = ScenarioConfig(
            name="relax", drops=[DropSpec(shape=shape, axes=(1.001, 1 / 1.001),
                                          n=32)],
            flow=FlowConfig(Q=0.0), run=RunSpec(t_end=100.0, steady=True))
        return run_scenario(cfg, out_dir=str(tmp_path / shape))

    rec = relax("ellipse")
    t = np.loadtxt(tmp_path / "ellipse" / "series.csv", delimiter=",",
                   skiprows=1, ndmin=2)[:, 0]
    assert rec.steady and len(rec.series) == t.size == 132
    assert np.all(np.diff(t) > 0) and t[-1] == rec.final_state.t
    rec = relax("circle")
    assert rec.steady and rec.series == [] and rec.final_state.t == 0.0


def custom_drop(z, n=128):
    return DropSpec(shape="custom", n=n, points=[(p.real, p.imag) for p in z])


T = uniform_alpha(256)


@pytest.mark.parametrize("drop, message", [
    # an ellipse stored counterclockwise would move backwards
    (custom_drop(np.cos(T) + 0.7j * np.sin(T)), "drop 1 is not clockwise"),
    (custom_drop(np.exp(-1j * T) - 0.6 * np.exp(-3j * T)),
     "drop 1 crosses itself"),
    (DropSpec(shape="ellipse", axes=(1.0, 0.7), phase=0.3),
     "drop 1: phase applies to circles only"),
    (replace(custom_drop(np.exp(-1j * T)), phase=0.3),
     "drop 1: phase applies to circles only"),
    (DropSpec(center=-3.2, radius=0.3, n=32), "drops 0 and 1 are nested"),
    (DropSpec(center=3.0, n=32, rho0=-0.1),
     "drop 1: rho0 must be finite and non-negative, not -0.1"),
    # each NaN below used to pass and fail at the first density solve as
    # "GMRES residual nan"; an infinite radius passed build_state too
    (DropSpec(center=3.0, n=32, rho0=np.nan),
     "drop 1: rho0 must be finite and non-negative, not nan"),
    (DropSpec(center=3.0, n=32, rho0=np.inf), "drop 1: rho0 must be finite"),
    (DropSpec(center=3.0, n=32, lam=np.nan),
     "drop 1: lam must be finite and non-negative, not nan"),
    (DropSpec(center=3.0, n=32, radius=np.nan),
     "drop 1: radius must be finite and non-negative, not nan"),
    (DropSpec(center=3.0, n=32, radius=np.inf),
     "drop 1: radius must be finite and non-negative, not inf"),
    # a zero radius or axis, or a negative axis, used to be refused as a
    # drop that is not clockwise or crosses itself
    (DropSpec(center=3.0, n=32, radius=0.0),
     "drop 1: radius must be positive, not 0.0"),
    (DropSpec(shape="ellipse", center=3.0, axes=(0.0, 1.0), n=32),
     r"drop 1: axes must be positive, not \(0.0, 1.0\)"),
    (DropSpec(shape="ellipse", center=3.0, axes=(1.0, 0.0), n=32),
     r"drop 1: axes must be positive, not \(1.0, 0.0\)"),
    (DropSpec(shape="ellipse", center=3.0, axes=(-1.0, 1.0), n=32),
     r"drop 1: axes must be positive, not \(-1.0, 1.0\)"),
    (DropSpec(center=complex(np.nan, 0), n=32),
     "drop 1 has non-finite nodes"),
    (DropSpec(shape="blob", center=3.0, n=32), "drop 1: unknown shape blob"),
    # non-finite axes used to stop in equal_arclength_nodes ("Newton step
    # nan"), naming no drop; custom points that are None or plain reals
    # raised a TypeError
    (DropSpec(shape="ellipse", center=3.0, axes=(np.nan, 0.5), n=32),
     r"drop 1: axes must be finite, not \(nan, 0.5\)"),
    (DropSpec(shape="ellipse", center=3.0, axes=(0.5, np.inf), n=32),
     r"drop 1: axes must be finite, not \(0.5, inf\)"),
    (DropSpec(shape="custom", n=32), "drop 1: custom points must be finite"),
    (DropSpec(shape="custom", n=32, points=[3.0, 3.5, 4.0, 3.5]),
     "drop 1: custom points must be finite"),
    (DropSpec(shape="custom", n=32, points=[]),
     "drop 1: custom points must be finite"),
    (DropSpec(shape="custom", n=32,
              points=[complex(np.nan, 0)] + list(3.0 + 0.5 * np.exp(-1j * T))),
     "drop 1: custom points must be finite"),
    # sigma = 1 - E rho0 with the default E 0.5: these used to pass and
    # fail at the first solve
    (DropSpec(center=3.0, n=32, rho0=2.5),
     r"drop 1: surface tension -2\.500e-01 <= 0 at t=0"),
    (DropSpec(center=3.0, n=32, rho0=2.0), "drop 1: surface tension 0"),
], ids=["counterclockwise", "self_crossing", "ellipse_phase", "custom_phase",
        "nested", "negative_rho0", "nan_rho0", "inf_rho0", "nan_lam",
        "nan_radius", "inf_radius", "zero_radius", "zero_first_axis",
        "zero_second_axis", "negative_axis", "nan_center", "unknown_shape",
        "nan_axes", "inf_axes", "custom_points_none", "custom_points_reals",
        "custom_points_empty", "custom_points_nan", "tension_negative",
        "tension_zero"])
def test_build_state_rejects_bad_drop(drop, message):
    cfg = ScenarioConfig(name="bad", drops=[DropSpec(center=-3.0, n=64), drop],
                         flow=FlowConfig(), run=RunSpec())
    with pytest.raises(ValueError, match=message):
        build_state(cfg)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_flow_refuses_non_finite_e(value):
    # a NaN E used to reach the first density solve of a run
    with pytest.raises(ValueError, match=f"E must be finite, not {value}"):
        replace(tiny_config().flow, E=value)


def test_interface_refuses_nan_viscosity_ratio():
    with pytest.raises(ValueError, match="viscosity ratio .* not nan"):
        Interface(z=np.exp(-1j * uniform_alpha(32)), lam=np.nan)


@pytest.mark.parametrize("run, name", [
    # fixed_dt -1e-3 stepped backwards for ever; 0 ended in "GMRES
    # residual nan"
    (RunSpec(fixed_dt=-1e-3), "dt"),
    (RunSpec(fixed_dt=0.0), "dt"),
    (RunSpec(fixed_dt=np.nan), "dt"),
    (RunSpec(dt0=np.nan), "dt"),
    (RunSpec(dt0=-1e-3), "dt"),
    (RunSpec(dt_max=0.0), "dt_max"),
    (RunSpec(dt_max=np.nan), "dt_max"),
], ids=["fixed_dt_negative", "fixed_dt_zero", "fixed_dt_nan", "dt0_nan",
        "dt0_negative", "dt_max_zero", "dt_max_nan"])
def test_controller_refuses_bad_steps(run, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite and "
                                         "positive"):
        harness._controller(run)


def test_build_state_rejects_unresolved_ellipse():
    # N 32 cannot put an ellipse of aspect ratio 2 on equal arclength:
    # geometry.ellipse leaves a spacing drift of 3.6e-3
    cfg = ScenarioConfig(
        name="coarse", flow=FlowConfig(), run=RunSpec(),
        drops=[DropSpec(center=-3.0, n=64),
               DropSpec(shape="ellipse", axes=(1.0, 0.5), center=3.0, n=32)])
    with pytest.raises(SpacingDriftError) as err:
        build_state(cfg)
    assert err.value.t == 0.0 and err.value.drop == 1
    assert err.value.drift == pytest.approx(3.6e-3, abs=1e-4)
    cfg.drops[1].n = 64
    build_state(cfg)


def test_load_checkpoint_rejects_drop_off_equal_arclength(tmp_path):
    cfg = tiny_config(fixed_dt=2e-3)
    cfg.run.t_end, cfg.run.checkpoint_every = 4e-3, 1
    run_scenario(cfg, out_dir=str(tmp_path))
    path = str(tmp_path / "checkpoint.npz")
    data = dict(np.load(path))
    # the same circle, its nodes moved along it by up to 0.1 radians
    t = uniform_alpha(64)
    np.savez(path, **{**data, "z_0": np.exp(-1j * (t + 0.1 * np.sin(t)))})
    with pytest.raises(SpacingDriftError) as err:
        load_checkpoint(path, cfg)
    assert err.value.t == pytest.approx(4e-3) and err.value.drop == 0


def test_load_checkpoint_rejects_reversed_drop(tmp_path):
    cfg = tiny_config(fixed_dt=2e-3)
    cfg.run.t_end, cfg.run.checkpoint_every = 4e-3, 1
    run_scenario(cfg, out_dir=str(tmp_path))
    path = str(tmp_path / "checkpoint.npz")
    data = dict(np.load(path))
    np.savez(path, **{**data, "z_0": data["z_0"][::-1]})
    with pytest.raises(ValueError, match="drop 0 is not clockwise"):
        load_checkpoint(path, cfg)


def _meta(data, **meta):
    return json.dumps({**json.loads(str(data["meta"])), **meta})


@pytest.mark.parametrize("edit, message", [
    # a NaN rho used to pass and stop the restart at its first solve as
    # "GMRES residual nan"; a negative one was refused naming no drop
    (lambda d: {"rho_0": np.where(np.arange(64) == 5, np.nan, d["rho_0"])},
     "drop 0: rho must be finite and non-negative, not nan"),
    (lambda d: {"rho_0": np.where(np.arange(64) == 5, -0.25, d["rho_0"])},
     "drop 0: rho must be finite and non-negative, not -0.25"),
    # a NaN t used to pass, and the restart ended after 0 steps at t = nan
    (lambda d: {"meta": _meta(d, t=np.nan)}, "t must be finite, not nan"),
    (lambda d: {"meta": _meta(d, t=np.inf)}, "t must be finite, not inf"),
    # a rho cut to 32 samples used to pass, and the restart stopped at its
    # first step with "all input arrays must have the same shape"
    (lambda d: {"rho_0": d["rho_0"][:32]},
     "drop 0: checkpoint has 32 rho samples, config has N 64"),
], ids=["nan_rho", "negative_rho", "nan_t", "inf_t", "short_rho"])
def test_load_checkpoint_rejects_bad_values(tmp_path, edit, message):
    cfg = tiny_config(fixed_dt=2e-3)
    cfg.run.t_end, cfg.run.checkpoint_every = 4e-3, 1
    run_scenario(cfg, out_dir=str(tmp_path))
    path = str(tmp_path / "checkpoint.npz")
    data = dict(np.load(path))
    np.savez(path, **{**data, **edit(data)})
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_checkpoint(path, cfg)


def test_run_stops_before_recording_crossed_drops(tmp_path, monkeypatch):
    # the extension drives the drops together; the fifth step crosses them
    records = []

    class Kept(harness.RunRecord):
        def __init__(self, **kw):
            super().__init__(**kw)
            records.append(self)

    monkeypatch.setattr(harness, "RunRecord", Kept)
    c = 1.03
    cfg = ScenarioConfig(
        name="crossing",
        drops=[DropSpec(center=1j * c, n=64, phase=np.pi / 2),
               DropSpec(center=-1j * c, n=64, phase=-np.pi / 2)],
        flow=FlowConfig(Q=1.0),
        run=RunSpec(t_end=1.0, fixed_dt=0.03, output_every=1,
                    checkpoint_every=1))
    with pytest.raises(RuntimeError, match="t=0.15: drops 0 and 1 cross"):
        run_scenario(cfg, out_dir=str(tmp_path))
    rec, = records
    # the checkpoint holds the last step before the crossing, and loading
    # it runs the drop check
    state, _, counter = load_checkpoint(str(tmp_path / "checkpoint.npz"), cfg)
    assert counter == len(rec.series) == 4
    assert rec.series[-1]["t"] == rec.snapshots[-1]["t"] == state.t
    assert state.t == pytest.approx(0.12)


def test_restart_rejects_checkpoint_at_other_n(tmp_path):
    cfg = tiny_config(fixed_dt=2e-3)
    cfg.run.t_end, cfg.run.checkpoint_every = 4e-3, 1
    run_scenario(cfg, out_dir=str(tmp_path))
    with pytest.raises(ValueError,
                       match="drop 0: checkpoint has N 64, config has N 128"):
        run_scenario(tiny_config(fixed_dt=2e-3, n=128),
                     restart_from=str(tmp_path / "checkpoint.npz"))
