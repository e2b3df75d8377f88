"""drops2d benchmark: end-to-end rates and a traced per-layer run.

    python3 bench/run.py                          # every workload, one process
    python3 bench/run.py --workload pair_n192 --seed 3 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from its
src/.  BLAS is pinned to one thread before numpy loads.  Each metric is
printed as a line ``<workload> <name> = <value> <unit>``; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end_to_end metrics of BENCHMARK.json with ``--trace 0``,
the per_layer ones with ``--trace 1``).  The exit code is 1 when any
operation raised or exceeded a correctness gate.  Results, the recorded
environment and (traced runs) the spans go to .bench_out/.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import WRAPS, Tracer, installed, self_times  # noqa: E402
from workloads import ROOT, TINY, WORKLOADS, import_program  # noqa: E402

SETUPS = 11
OUT = ROOT / ".bench_out"
# Layers whose only calls happen in set-up or in the untimed reference;
# their self time is reported per call rather than per step.
SETUP_LAYERS = ("dirichlet.solve_dirichlet", "pair_oracle.evolve_pair")


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if it is found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_",
                     None)
        if fn is not None:
            return fn()
    return None


def git_sha():
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "blas_threads": blas_threads(),
            "thread_env": {v: os.environ.get(v) for v in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "git_sha": git_sha(),
            "seed": seed}


def measure(w, ctx, seconds, tracer=None, before_op=None):
    """Run whole operations until `seconds` have passed.

    With a tracer, every other operation runs with the wrappers installed,
    so that traced and untraced operations see the same machine load.
    before_op(elapsed seconds) runs untimed ahead of each operation.
    """
    ops, failed = [], 0
    start = perf_counter()
    index = 0
    at_least = 1 if tracer is None else 2
    while index < at_least or perf_counter() - start < seconds:
        if before_op is not None:
            before_op(perf_counter() - start)
        traced = tracer is not None and index % 2 == 0
        op = None
        try:
            if traced:
                tracer.current_op = index
                with installed(tracer):
                    op = w.run_op(ctx, index)
            else:
                op = w.run_op(ctx, index)
            op.traced = traced
            w.check(ctx, op)
            bad = [k for k, lim in w.gates.items()
                   if not op.checks[k] <= lim]
            if bad:
                failed += 1
                worst = op.extra.get("worst_target")
                print(f"{w.name} op {index}: gate exceeded: " + ", ".join(
                    f"{k}={op.checks[k]!r} > {w.gates[k]!r}" for k in bad)
                    + ("" if worst is None else f", worst target {worst}"),
                    file=sys.stderr)
        except Exception:  # a failing operation is counted, not fatal
            failed += 1
            traceback.print_exc()
        if op is not None:
            ops.append(op)
        index += 1
    return ops, index, failed


def _sum(ops, key):
    return sum(op.extra[key] for op in ops)


def _steps(ops):
    return [s for op in ops for s in op.steps]


def workload_figures(ops):
    """Median step, rates and accuracy; 0 where a workload has no such figure.

    These vary with the machine's load or exist on one workload only, so
    they are reported without a bound.
    """
    out = dict.fromkeys(("sim_rate", "targets_per_s", "estimates_per_s",
                         "oracle_err", "oracle_rho_err", "area_drift",
                         "mass_drift", "eval_err", "solve_residual"), 0.0)
    out["step_p50_s"] = float(np.quantile(_steps(ops), 0.5))
    if "eval_s" in ops[0].extra:
        n = sum(op.work for op in ops)
        out["targets_per_s"] = n / _sum(ops, "eval_s")
        out["estimates_per_s"] = n / _sum(ops, "estimate_s")
    else:
        out["sim_rate"] = (sum(op.work for op in ops)
                           / sum(op.wall for op in ops))
    for op in ops:
        for k, v in op.checks.items():
            if k in out:
                out[k] = max(out[k], v)
    return out


def end_to_end(ops, setup_times):
    return {
        "setup_s": statistics.median(setup_times),
        "step_p90_s": float(np.quantile(_steps(ops), 0.9)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_layer(setup_tracer, tracer, plain_ops, traced_ops):
    steps = len(_steps(traced_ops))
    loop = self_times(tracer.spans())
    calls = tracer.calls()
    setup = self_times(setup_tracer.spans())
    setup_calls = setup_tracer.calls()
    out = {}
    for name in {span for _, _, span in WRAPS}:
        if name in SETUP_LAYERS:
            out[f"{name}.self_s"] = (setup[name] / setup_calls[name]
                                     if setup_calls[name] else 0.0)
        else:
            out[f"{name}.self_s"] = loop.get(name, 0.0) / steps
    c, m = tracer.counts, tracer.maxima
    episodes = len(traced_ops)
    out.update({
        "stokes.solve_density.calls": calls["stokes.solve_density"] / steps,
        "stokes.solve_residual_max": m["stokes.solve_residual_max"],
        "stokes.solve_rows": m["stokes.solve_rows"],
        "stokes.near_pairs": (c["stokes.near_pairs"] / c["stokes.assemblies"]
                              if c["stokes.assemblies"] else 0.0),
        "neareval.hit_ratio": (c["neareval.hits"]
                               / calls["neareval.needs_correction"]
                               if calls["neareval.needs_correction"] else 0.0),
        "stepper.attempts": c["stepper.attempts"] / episodes,
        "stepper.rejected": c["stepper.rejected"] / episodes,
        "stepper.accept_ratio": (1.0 - c["stepper.rejected"]
                                 / c["stepper.attempts"]
                                 if c["stepper.attempts"] else 0.0),
        "tracing.overhead": _wall_per_step(traced_ops)
        / _wall_per_step(plain_ops),
    })
    return out


def _wall_per_step(ops):
    return sum(op.wall for op in ops) / len(_steps(ops))


def run_workload(w, seed, seconds, trace):
    """One workload: metric values, figures for the log, operation counts."""
    if not trace:
        setup_times = []

        def set_up():
            t0 = perf_counter()
            ctx = w.build(import_program(), seed)
            setup_times.append(perf_counter() - t0)
            return ctx

        def set_up_when_due(elapsed):
            # Repeated set-ups are spread over the run so that they meet the
            # same machine load as the operations; the operations keep using
            # the first set-up's modules and state.
            while (len(setup_times) < SETUPS
                   and elapsed >= len(setup_times) * seconds / SETUPS):
                set_up()

        ctx = set_up()
        w.reference(ctx)
        ops, attempted, failed = measure(w, ctx, seconds,
                                         before_op=set_up_when_due)
        while len(setup_times) < SETUPS:
            set_up()
        if not ops:
            raise RuntimeError(f"{w.name}: every operation raised")
        steps = _steps(ops)
        extra = workload_figures(ops)
        extra["step_samples"] = len(steps)
        return SimpleNamespace(
            values=end_to_end(ops, setup_times), extra=extra,
            attempted=attempted, failed=failed, tracer=None,
            record={"setup_s": setup_times, "step_s": steps})
    setup_tracer = Tracer()
    mods = import_program()
    with installed(setup_tracer):
        ctx = w.build(mods, seed)
        w.reference(ctx)
    tracer = Tracer()
    ops, attempted, failed = measure(w, ctx, seconds, tracer)
    plain_ops = [op for op in ops if not op.traced]
    traced_ops = [op for op in ops if op.traced]
    if not plain_ops or not traced_ops:
        raise RuntimeError(f"{w.name}: every traced or untraced "
                           "operation raised")
    values = per_layer(setup_tracer, tracer, plain_ops, traced_ops)
    values.update(workload_figures(plain_ops))
    values["failed_frac"] = failed / attempted
    return SimpleNamespace(values=values, extra={}, attempted=attempted,
                           failed=failed, tracer=tracer, record={})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="reduced sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    why = {m["name"]: m["why"] for m in spec["workloads"]}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    table = TINY if args.tiny else WORKLOADS
    names = list(table) if args.workload == "all" else [args.workload]

    env = environment(args.seed)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        w = table[name]
        res = run_workload(w, args.seed, seconds, args.trace)
        attempted, failed = res.attempted, res.failed
        metrics = {k: {"value": res.values[k], "unit": units[k]}
                   for k in units}
        for k, m in metrics.items():
            print(f"{name} {k} = {m['value']!r} {m['unit']}")
        for k, v in res.extra.items():
            print(f"{name} {k} = {v!r}")
        print(f"{name} failed_frac = {failed / attempted!r} "
              f"({failed} of {attempted} operations)")
        result = {"correct": failed == 0, "attempted": attempted,
                  "failed": failed, "metrics": metrics}
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        OUT.mkdir(exist_ok=True)
        (OUT / f"{stem}.json").write_text(json.dumps(
            {"env": env, "workload": name, "why": why[name],
             "extra": res.extra, "gates": w.gates, **res.record, **result},
            indent=1, sort_keys=True) + "\n")
        if res.tracer is not None:
            res.tracer.write(OUT / f"{stem}-spans.csv.gz")
        total["correct"] &= result["correct"]
        total["attempted"] += attempted
        total["failed"] += failed
        total["metrics"].update(
            metrics if len(names) == 1
            else {f"{name}.{k}": m for k, m in metrics.items()})
    bad = [k for k, m in total["metrics"].items()
           if not math.isfinite(m["value"])]
    if bad:
        raise SystemExit(f"bench: non-finite metrics {bad}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
