"""Tests of the benchmark itself: python -m pytest bench -q"""

import importlib
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
import tracing
import workloads

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def _result(capsys, argv):
    code = run.main(argv)
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.TINY))
def test_tiny_workload_reports_every_metric(capsys, name, trace):
    code, out = _result(capsys, ["--tiny", "--workload", name, "--seconds",
                                 "0", "--trace", str(trace)])
    assert code == 0 and out["correct"] and out["failed"] == 0
    assert out["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0
    if trace and name == "near_eval":
        for k, v in out["metrics"].items():
            if k.startswith(("stokes.", "geometry.", "stepper.")):
                assert v["value"] == 0.0, k


def test_failed_gate_exits_nonzero(capsys, monkeypatch):
    spec = workloads.TINY["single_n128"]
    monkeypatch.setitem(workloads.TINY, "single_n128",
                        replace(spec, gates={"area_drift": 0.0}))
    code, out = _result(capsys, ["--tiny", "--workload", "single_n128",
                                 "--seconds", "0"])
    assert code == 1
    assert not out["correct"] and out["failed"] == out["attempted"] == 1


def test_self_times_on_synthetic_tree():
    spans = [("a", 0.0, 10.0, -1),   # 0
             ("b", 1.0, 4.0, 0),     # 1
             ("c", 5.0, 9.0, 0),     # 2
             ("b", 6.0, 8.0, 2),     # 3: b nested under c
             ("a", 20.0, 21.5, -1)]  # 4
    got = tracing.self_times(spans)
    assert got == pytest.approx({"a": 3.0 + 1.5, "b": 3.0 + 2.0, "c": 2.0})


def test_tracer_records_parents_and_counts():
    tracer = tracing.Tracer()

    def inner(x):
        return None if x else object()

    wrapped_inner = tracer.wrap(inner, "neareval.needs_correction")
    outer = tracer.wrap(lambda: [wrapped_inner(0), wrapped_inner(1)], "outer")
    outer()
    names = [s[0] for s in tracer.spans()]
    parents = [s[3] for s in tracer.spans()]
    assert names == ["outer", "neareval.needs_correction",
                     "neareval.needs_correction"]
    assert parents == [-1, 0, 0]
    assert tracer.counts["neareval.hits"] == 1


def _bindings():
    return {(m, a): getattr(importlib.import_module(f"drops2d.{m}"), a)
            for m, a, _ in tracing.WRAPS + [("harness", "advance_to", "")]}


def test_installed_restores_originals_even_on_error():
    workloads.import_program()
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            assert all(getattr(importlib.import_module(f"drops2d.{m}"), a)
                       is not before[(m, a)] for m, a, _ in tracing.WRAPS)
            raise RuntimeError
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_no_wrapper_left_after_traced_run(capsys):
    code, _ = _result(capsys, ["--tiny", "--workload", "pair_n192",
                               "--seconds", "0", "--trace", "1"])
    assert code == 0
    for (mod, attr), obj in _bindings().items():
        assert "<locals>" not in obj.__qualname__, (mod, attr)
        assert obj.__module__.startswith("drops2d."), (mod, attr)


def test_exits_nonzero_without_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "near_eval",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_traced_run_alternates_wrapped_and_plain_operations():
    workloads.import_program()
    wrapped = []

    class Probe:
        name, gates = "probe", {}

        def run_op(self, ctx, index):
            step = importlib.import_module("drops2d.stepper").step
            wrapped.append("<locals>" in step.__qualname__)
            return workloads.Op(steps=[1.0], work=1.0, wall=1.0)

        def check(self, ctx, op):
            pass

    ops, attempted, failed = run.measure(Probe(), None, 0.0, tracing.Tracer())
    assert wrapped == [True, False] and (attempted, failed) == (2, 0)
    assert [op.traced for op in ops] == [True, False]
