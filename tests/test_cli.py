"""Tiny runs of the command-line entry points through cli.main."""

import json

import numpy as np
import pytest

from drops2d import pair_oracle, steady_oracle
from drops2d.cli import main
from drops2d.harness import (PAIR_CLEAN_PHI0, DropSpec, RunSpec,
                             ScenarioConfig, preset)
from drops2d.steady_oracle import b_from_q
from drops2d.stokes import FlowConfig


def lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def test_estimate_study_writes_grid(tmp_path):
    assert main(["estimate-study", "--panels", "8", "--grid", "6",
                 "--out-dir", str(tmp_path)]) == 0
    out = lines(tmp_path / "estimate_grid_8.csv")
    assert out[0] == "x,y,measured_error,estimate"
    assert len(out) == 1 + 6 * 6


def test_oracle_steady_writes_curve(tmp_path):
    assert main(["oracle", "steady", "--points", "64",
                 "--out-dir", str(tmp_path)]) == 0
    out = lines(tmp_path / "steady_oracle.csv")
    assert out[0].startswith("# Q = ")
    assert out[1] == "nu,alphaV,x,y,rho"
    assert len(out) == 2 + 64


class Captured(Exception):
    """Raised by a stand-in oracle once it holds its arguments."""


def test_oracle_defaults_come_from_presets(monkeypatch, tmp_path):
    # each unset option with a preset counterpart reads the preset the
    # oracle checks; the stand-ins stop before any oracle work
    calls = []

    def capture(*args, **kwargs):
        calls.append((args, kwargs))
        raise Captured

    monkeypatch.setattr(steady_oracle, "steady_solution", capture)
    monkeypatch.setattr(pair_oracle, "evolve_pair", capture)
    for argv in (["steady"], ["steady", "--E", "0.3", "--b", "0.2"], ["pair"]):
        with pytest.raises(Captured):
            main(["oracle", *argv, "--out-dir", str(tmp_path)])
    steady, set_steady, pair = calls

    flow = preset("steady_single").flow
    assert steady == ((b_from_q(flow.Q, flow.E),), {"E": flow.E, "M": 512})
    assert set_steady == ((0.2,), {"E": 0.3, "M": 512})

    cfg = preset("pair_clean")
    (st,), kwargs = pair
    assert kwargs == {"Q_phys": cfg.flow.Q, "t_end": cfg.run.t_end,
                      "tol": 1e-7}
    assert (st.nv, st.phi, st.E, st.Pe) == (192, PAIR_CLEAN_PHI0,
                                            cfg.flow.E, cfg.flow.Pe)
    assert np.all(st.rho == cfg.drops[0].rho0)
    # the values the options had as literal defaults
    assert flow.E == 0.5
    assert (PAIR_CLEAN_PHI0, cfg.drops[0].rho0, cfg.run.t_end, cfg.flow.E,
            cfg.flow.Pe, cfg.flow.Q) == (0.35, 0.0, 1.5, 0.5, np.inf, 0.5)


@pytest.mark.parametrize("argv", [
    ["oracle", "steady", "--Pe", "10", "--rho0", "0.3", "--nv", "7"],
    ["oracle", "pair", "--b", "0.3", "--points", "9"],
], ids=["steady", "pair"])
def test_oracle_rejects_options_it_does_not_read(argv, tmp_path):
    with pytest.raises(SystemExit) as err:
        main(argv + ["--out-dir", str(tmp_path)])
    assert err.value.code == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["pair", "--nv", "16", "--Pe", "0"],
    ["pair", "--nv", "16", "--phi", "2"],
    ["pair", "--nv", "0"],
    ["pair", "--nv", "-1"],
    ["pair", "--nv", "16", "--rho0", "-1"],
    ["pair", "--nv", "16", "--tol", "0"],
    ["pair", "--nv", "16", "--tol", "nan"],
    ["steady", "--b", "-1"],
    ["steady", "--points", "8"],
    ["steady", "--Q", "5"],
], ids=lambda argv: " ".join(argv))
def test_oracle_refuses_bad_values_before_writing(argv, tmp_path, capsys):
    # each ended in a traceback (exit 1) after creating --out-dir
    out = tmp_path / "D"
    with pytest.raises(SystemExit) as err:
        main(["oracle", *argv, "--out-dir", str(out)])
    assert err.value.code == 2
    assert f"drops2d oracle {argv[0]}: error:" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_steady_reports_q_of_the_command_line(tmp_path, capsys):
    # the error once read "no steady state at Q=10.0 (max Q ~ 0.2593)",
    # in Siegel's convention of twice the Q of the command line
    q_max = max(steady_oracle.steady_q(b, 0.5)
                for b in np.linspace(1e-6, steady_oracle.B_MAX, 400))
    with pytest.raises(SystemExit) as err:
        main(["oracle", "steady", "--Q", "5", "--out-dir", str(tmp_path)])
    assert err.value.code == 2
    assert (f"error: no steady state at Q=5.0 (max Q ~ {q_max:.4f})"
            in capsys.readouterr().err)
    assert 0.1296 <= q_max <= 0.1297


def test_oracle_steady_refuses_q_past_positive_rho(tmp_path, capsys):
    # at E 0.1 rho reaches 0 at Q 0.0540, before the branch's peak; Q 0.1
    # used to pass b_from_q and be refused as "flow too strong"
    out = tmp_path / "D"
    with pytest.raises(SystemExit) as err:
        main(["oracle", "steady", "--E", "0.1", "--Q", "0.1",
              "--out-dir", str(out)])
    assert err.value.code == 2
    assert ("error: no steady state at Q=0.1 (max Q ~ 0.0540)"
            in capsys.readouterr().err)
    assert not out.exists()


def test_run_from_config_file(tmp_path):
    cfg = ScenarioConfig(
        name="tiny", drops=[DropSpec(shape="circle", rho0=1.0, n=32)],
        flow=FlowConfig(Q=0.05, E=0.3),
        run=RunSpec(t_end=6e-3, fixed_dt=2e-3, output_every=1))
    path = tmp_path / "tiny.json"
    path.write_text(cfg.to_json())
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(path),
                 "--out-dir", str(out_dir)]) == 0
    series = lines(out_dir / "series.csv")
    assert series[0].startswith("t,dt,r,r_z,r_rho,accepted,un_max,iterations")
    assert len(series) == 1 + 3
    head, _ = json.JSONDecoder().raw_decode((out_dir / "manifest.json")
                                            .read_text())
    assert head["steps"] == 3 and head["snapshots"] == 4
    assert head["config_hash"] == cfg.config_hash()


def test_run_preset_with_checkpoints(tmp_path, monkeypatch):
    # --preset and --checkpoint-every, on a tiny stand-in for the preset
    from drops2d import harness

    def tiny(name, n=None):
        return ScenarioConfig(
            name=name, drops=[DropSpec(shape="circle", rho0=1.0, n=32)],
            flow=FlowConfig(Q=0.05, E=0.3),
            run=RunSpec(t_end=6e-3, fixed_dt=2e-3, output_every=0))

    monkeypatch.setattr(harness, "preset", tiny)
    out_dir = tmp_path / "out"
    assert main(["run", "--preset", "steady_single", "--checkpoint-every",
                 "1", "--out-dir", str(out_dir)]) == 0
    assert len(lines(out_dir / "series.csv")) == 1 + 3
    cfg = tiny("steady_single")
    state, _, counter = harness.load_checkpoint(
        str(out_dir / "checkpoint.npz"), cfg)
    assert counter == 3 and state.t == pytest.approx(6e-3)
