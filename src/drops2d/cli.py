"""Command-line entry points: run, oracle, compare, estimate-study."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np


def _cmd_run(args):
    from .harness import ScenarioConfig, preset, run_scenario

    if args.preset:
        cfg = preset(args.preset)
    else:
        with open(args.config) as fh:
            cfg = ScenarioConfig.from_json(fh.read())
    if args.checkpoint_every:
        cfg.run.checkpoint_every = args.checkpoint_every
    rec = run_scenario(cfg, out_dir=args.out_dir,
                       restart_from=args.restart_from)
    print(f"{cfg.name}: {len(rec.series)} accepted steps to t={rec.final_state.t:.6g}"
          + (" (steady)" if rec.steady else ""))
    if args.out_dir:
        print(f"outputs in {args.out_dir}")
    return 0


def _cmd_oracle(args):
    from .harness import PAIR_CLEAN_PHI0, preset, write_csv
    from .pair_oracle import (evolve_pair, min_gap, pair_from_circles,
                              physical_frame)
    from .steady_oracle import b_from_q, steady_solution
    from .stepper import StepController

    # an unset option takes its value from the preset the oracle checks
    cfg = preset({"steady": "steady_single", "pair": "pair_clean"}[args.kind])
    unset = {"Q": cfg.flow.Q, "E": cfg.flow.E}
    if args.kind == "pair":
        unset.update(Pe=cfg.flow.Pe, phi=PAIR_CLEAN_PHI0,
                     rho0=cfg.drops[0].rho0, t_end=cfg.run.t_end)
    for name, value in unset.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    # the oracle's input first: a value it refuses exits with status 2
    # before --out-dir is created
    try:
        if args.kind == "steady":
            b = args.b if args.b is not None else b_from_q(args.Q, args.E)
            sol = steady_solution(b, E=args.E, M=args.points)
        else:
            st = pair_from_circles(args.nv, phi=args.phi, rho0=args.rho0,
                                   E=args.E, Pe=args.Pe)
            StepController(tol=args.tol)    # evolve_pair's check of tol
    except ValueError as exc:
        args.usage_error(str(exc))
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, f"{args.kind}_oracle.csv")
    if args.kind == "steady":
        nu, aV, z, rho = sol["nu"], sol["alphaV"], sol["z"], sol["rho"]
        head = (f"# Q = {sol['Q']:.17g}, D = {sol['D']:.17g}, "
                f"E = {args.E}, b = {b:.17g}")
        done = f"steady oracle: Q={sol['Q']:.6f} D={sol['D']:.6f}"
    else:
        out, _ = evolve_pair(st, Q_phys=args.Q, t_end=args.t_end,
                             tol=args.tol)
        nu, (z, rho, aV) = out.nu, physical_frame(out)
        head = (f"# t = {out.t:.17g}, phi = {out.phi:.17g}, b = {out.b:.17g}, "
                f"min_gap = {min_gap(out):.17g}, Q = {args.Q:.17g}")
        done = f"pair oracle: t={out.t:.4f} min_gap={min_gap(out):.5f}"
    write_csv(path, head + "\nnu,alphaV,x,y,rho",
              [nu, aV, z.real, z.imag, rho])
    print(f"{done} -> {path}")
    return 0


def _cmd_compare(args):
    # compare the final snapshots of two run directories inside a window,
    # run A standing in for the oracle; a drop with the same N in both is
    # compared node for node, so identical runs compare at exactly 0
    import glob

    from .harness import compare_to_oracle, read_snapshot

    snaps = []
    for d in (args.dir_a, args.dir_b):
        paths = sorted(glob.glob(os.path.join(d, "snapshot_*.csv")))
        if not paths:
            raise SystemExit(f"no snapshots in {d}")
        snaps.append(read_snapshot(paths[-1]))
    a, b = snaps
    if abs(a["t"] - b["t"]) > 1e-9:
        raise SystemExit(f"snapshot times differ: {a['t']} vs {b['t']}")
    lo, hi = args.window
    report = {}
    for k, d in enumerate(a["drops"]):
        oracle = {"alphaV": d["alpha"], "z": d["x"] + 1j * d["y"],
                  "rho": d["rho"]}
        d_b = b["drops"][k]
        if len(d_b["x"]) == len(d["x"]):
            sel = (d["alpha"] >= lo) & (d["alpha"] <= hi)
            z_b = d_b["x"] + 1j * d_b["y"]
            cmp = {"e_z_max": np.abs(z_b - oracle["z"])[sel].max(),
                   "e_rho_max": np.abs(d_b["rho"] - d["rho"])[sel].max()}
        else:
            cmp = compare_to_oracle(b, oracle, window=args.window, drop=k)
        report[k] = {key: float(cmp[key]) for key in ("e_z_max", "e_rho_max")}
    print(json.dumps({"t": a["t"], "window": args.window, "drops": report},
                     indent=2))
    return 0


def _cmd_estimate_study(args):
    from .dirichlet import (GoursatReference, estimate_field,
                            evaluate_velocity, inside_star, solve_dirichlet)
    from .harness import write_csv

    ref = GoursatReference()
    os.makedirs(args.out_dir, exist_ok=True)
    xs = np.linspace(0.0, 1.35, args.grid)
    X, Y = np.meshgrid(xs, xs)
    pts = (X + 1j * Y).ravel()
    mask = inside_star(pts, margin=1e-6)
    for n_panels in args.panels:
        sol = solve_dirichlet(n_panels, ref.velocity)
        err, est = np.full((2, pts.size), np.nan)
        # one grid row at a time: the kernels are targets x nodes matrices
        for row in np.split(np.arange(pts.size), args.grid):
            sel = row[mask[row]]
            u_plain = evaluate_velocity(sol, pts[sel], corrected=False)
            err[sel] = np.abs(u_plain - ref.velocity(pts[sel]))
            est[sel] = estimate_field(sol, pts[sel])
        path = os.path.join(args.out_dir, f"estimate_grid_{n_panels}.csv")
        write_csv(path, "x,y,measured_error,estimate",
                  [pts.real, pts.imag, err, est])
        print(f"{n_panels} panels -> {path}")
    return 0


def main(argv=None):
    from .harness import PRESETS

    ap = argparse.ArgumentParser(prog="drops2d",
                                 description="2D Stokes drop simulation and "
                                             "validation oracles")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="run a scenario")
    g = p_run.add_mutually_exclusive_group(required=True)
    g.add_argument("--config", help="JSON scenario file")
    g.add_argument("--preset", help="named preset", choices=PRESETS)
    p_run.add_argument("--out-dir", default=None)
    p_run.add_argument("--checkpoint-every", type=int, default=0)
    p_run.add_argument("--restart-from", default=None,
                       help="checkpoint.npz to continue from; it must hold "
                            "the config's number of drops at the config's "
                            "N, and lambda, E, Pe and eos come from the "
                            "config")
    p_run.set_defaults(func=_cmd_run)

    p_or = sub.add_parser("oracle", help="generate oracle data")
    p_or.set_defaults(func=_cmd_oracle)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out-dir", required=True)
    # options with a preset counterpart default to None: _cmd_oracle
    # reads them from the steady_single or pair_clean preset
    shared.add_argument("--Q", type=float, default=None,
                        help="extensional rate in the convention of "
                             "stokes.FlowConfig (default: the preset's)")
    shared.add_argument("--E", type=float, default=None)
    # each kind accepts only the options it reads
    kinds = p_or.add_subparsers(dest="kind", required=True)
    p_steady = kinds.add_parser("steady", parents=[shared],
                                help="steady single bubble")
    p_steady.add_argument("--b", type=float, default=None)
    p_steady.add_argument("--points", type=int, default=512)
    p_pair = kinds.add_parser("pair", parents=[shared], help="bubble pair")
    p_pair.add_argument("--Pe", type=float, default=None)
    p_pair.add_argument("--phi", type=float, default=None)
    p_pair.add_argument("--rho0", type=float, default=None)
    p_pair.add_argument("--nv", type=int, default=192)
    p_pair.add_argument("--t-end", dest="t_end", type=float, default=None)
    p_pair.add_argument("--tol", type=float, default=1e-7)
    for p in (p_steady, p_pair):
        p.set_defaults(usage_error=p.error)

    p_cmp = sub.add_parser("compare", help="compare two run directories")
    p_cmp.add_argument("dir_a")
    p_cmp.add_argument("dir_b")
    p_cmp.add_argument("--window", type=float, nargs=2,
                       default=[2 * np.pi / 3, 4 * np.pi / 3])
    p_cmp.set_defaults(func=_cmd_compare)

    p_est = sub.add_parser("estimate-study",
                           help="near-singular error/estimate grids")
    p_est.add_argument("--out-dir", required=True)
    p_est.add_argument("--panels", type=int, nargs="+", default=[25, 50])
    p_est.add_argument("--grid", type=int, default=60)
    p_est.set_defaults(func=_cmd_estimate_study)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
