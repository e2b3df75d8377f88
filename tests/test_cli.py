"""Tiny runs of the command-line entry points through cli.main."""

import json

import pytest

from drops2d.cli import main
from drops2d.harness import DropSpec, RunSpec, ScenarioConfig
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


@pytest.mark.parametrize("argv", [
    ["oracle", "steady", "--Pe", "10", "--rho0", "0.3", "--nv", "7"],
    ["oracle", "pair", "--b", "0.3", "--points", "9"],
], ids=["steady", "pair"])
def test_oracle_rejects_options_it_does_not_read(argv, tmp_path):
    with pytest.raises(SystemExit) as err:
        main(argv + ["--out-dir", str(tmp_path)])
    assert err.value.code == 2
    assert not any(tmp_path.iterdir())


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
