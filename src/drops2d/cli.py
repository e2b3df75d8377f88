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
    from .harness import preset

    os.makedirs(args.out_dir, exist_ok=True)
    # by default each oracle runs at the Q of the preset it checks
    if args.Q is None:
        args.Q = preset({"steady": "steady_single",
                         "pair": "pair_clean"}[args.kind]).flow.Q
    if args.kind == "steady":
        from .steady_oracle import SteadyMap, b_from_q, steady_solution
        b = args.b if args.b is not None else b_from_q(args.Q, args.E)
        sol = steady_solution(SteadyMap.from_b(b), E=args.E, M=args.points)
        path = os.path.join(args.out_dir, "steady_oracle.csv")
        with open(path, "w") as fh:
            fh.write(f"# Q = {sol['Q']:.17g}, D = {sol['D']:.17g}, "
                     f"E = {args.E}, b = {b:.17g}\n")
            fh.write("nu,alphaV,x,y,rho\n")
            for j in range(sol["nu"].shape[0]):
                fh.write(",".join(format(v, ".17g") for v in
                                  (sol["nu"][j], sol["alphaV"][j],
                                   sol["z"][j].real, sol["z"][j].imag,
                                   sol["rho"][j])) + "\n")
        print(f"steady oracle: Q={sol['Q']:.6f} D={sol['D']:.6f} -> {path}")
        return 0
    if args.kind == "pair":
        from .pair_oracle import (evolve_pair, min_gap, pair_from_circles,
                                  physical_frame)
        st = pair_from_circles(args.nv, phi=args.phi,
                               rho0=args.rho0 if args.rho0 > 0 else None,
                               E=args.E, Pe=args.Pe)
        out, traj = evolve_pair(st, Q_phys=args.Q, t_end=args.t_end,
                                scheme="adaptive_second_order", tol=args.tol)
        z, rho, aV = physical_frame(out)
        path = os.path.join(args.out_dir, "pair_oracle.csv")
        with open(path, "w") as fh:
            fh.write(f"# t = {out.t:.17g}, phi = {out.phi:.17g}, "
                     f"b = {out.b:.17g}, min_gap = {min_gap(out):.17g}, "
                     f"Q = {args.Q:.17g}\n")
            fh.write("nu,alphaV,x,y" + (",rho" if rho is not None else "") + "\n")
            for j in range(aV.shape[0]):
                row = [out.nu[j], aV[j], z[j].real, z[j].imag]
                if rho is not None:
                    row.append(rho[j])
                fh.write(",".join(format(v, ".17g") for v in row) + "\n")
        print(f"pair oracle: t={out.t:.4f} min_gap={min_gap(out):.5f} -> {path}")
        return 0
    raise SystemExit(f"unknown oracle kind {args.kind}")


def _read_snapshot(path):
    with open(path) as fh:
        header = fh.readline()
        t = float(header.split("=")[1])
    data = np.genfromtxt(path, delimiter=",", skip_header=2)
    return t, data


def _cmd_compare(args):
    # compare the final snapshots of two run directories inside a window
    import glob

    outs = []
    for d in (args.dir_a, args.dir_b):
        snaps = sorted(glob.glob(os.path.join(d, "snapshot_*.csv")))
        if not snaps:
            raise SystemExit(f"no snapshots in {d}")
        outs.append(_read_snapshot(snaps[-1]))
    (ta, A), (tb, B) = outs
    if abs(ta - tb) > 1e-9:
        raise SystemExit(f"snapshot times differ: {ta} vs {tb}")
    lo, hi = args.window
    report = {}
    for drop in np.unique(A[:, 0]).astype(int):
        a = A[A[:, 0] == drop]
        b = B[B[:, 0] == drop]
        from .spectral import fourier_interp
        za = a[:, 2] + 1j * a[:, 3]
        zb = b[:, 2] + 1j * b[:, 3]
        al = a[:, 1]
        sel = (al >= lo) & (al <= hi)
        zbi = fourier_interp(zb, al[sel])
        rbi = fourier_interp(b[:, 4], al[sel])
        e_z = np.abs(za[sel] - zbi)
        e_r = np.abs(a[sel, 4] - rbi)
        report[int(drop)] = {"e_z_max": float(e_z.max()),
                             "e_rho_max": float(e_r.max())}
    print(json.dumps({"t": ta, "window": [lo, hi], "drops": report}, indent=2))
    return 0


def _cmd_estimate_study(args):
    from .dirichlet import (GoursatReference, estimate_field,
                            evaluate_velocity, inside_star, solve_dirichlet)

    ref = GoursatReference()
    os.makedirs(args.out_dir, exist_ok=True)
    for n_panels in args.panels:
        sol = solve_dirichlet(n_panels, ref.velocity)
        xs = np.linspace(0.0, 1.35, args.grid)
        ys = np.linspace(0.0, 1.35, args.grid)
        X, Y = np.meshgrid(xs, ys)
        pts = (X + 1j * Y).ravel()
        mask = inside_star(pts, margin=1e-6)
        err = np.full(pts.shape, np.nan)
        est = np.full(pts.shape, np.nan)
        # one grid row at a time: the kernels are targets x nodes matrices
        for row in np.split(np.arange(pts.size), args.grid):
            sel = row[mask[row]]
            u_plain = evaluate_velocity(sol, pts[sel], corrected=False)
            err[sel] = np.abs(u_plain - ref.velocity(pts[sel]))
            est[sel] = estimate_field(sol, pts[sel])
        path = os.path.join(args.out_dir, f"estimate_grid_{n_panels}.csv")
        with open(path, "w") as fh:
            fh.write("x,y,measured_error,estimate\n")
            for p, e1, e2 in zip(pts, err, est):
                fh.write(f"{p.real:.17g},{p.imag:.17g},{e1:.17g},{e2:.17g}\n")
        print(f"{n_panels} panels -> {path}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(prog="drops2d",
                                 description="2D Stokes drop simulation and "
                                             "validation oracles")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="run a scenario")
    g = p_run.add_mutually_exclusive_group(required=True)
    g.add_argument("--config", help="JSON scenario file")
    g.add_argument("--preset", help="named preset",
                   choices=["steady_single", "pair_clean", "pair_surfactant",
                            "swiss_roll"])
    p_run.add_argument("--out-dir", default=None)
    p_run.add_argument("--checkpoint-every", type=int, default=0)
    p_run.add_argument("--restart-from", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_or = sub.add_parser("oracle", help="generate oracle data")
    p_or.add_argument("kind", choices=["steady", "pair"])
    p_or.add_argument("--out-dir", required=True)
    p_or.add_argument("--Q", type=float, default=None,
                      help="extensional rate (default: the Q of the "
                           "steady_single or pair_clean preset)")
    p_or.add_argument("--E", type=float, default=0.5)
    p_or.add_argument("--Pe", type=float, default=np.inf)
    p_or.add_argument("--b", type=float, default=None)
    p_or.add_argument("--phi", type=float, default=0.35)
    p_or.add_argument("--rho0", type=float, default=0.0)
    p_or.add_argument("--nv", type=int, default=192)
    p_or.add_argument("--t-end", dest="t_end", type=float, default=1.5)
    p_or.add_argument("--tol", type=float, default=1e-7)
    p_or.add_argument("--points", type=int, default=512)
    p_or.set_defaults(func=_cmd_oracle)

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
