"""The benchmark's workloads: set-up, one timed operation, and its checks.

Each workload runs the program only through drops2d's public functions.
An operation is one ``harness.run_scenario`` episode for the simulation
workloads and one batch of targets for ``near_eval``; it fails when it
raises or when any of its gates is exceeded.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from tracing import step_clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# an estimate off the measured plain-rule error by more than this factor
# counts as a miss (ratios measured over seeds 1-120 lie within 0.021-68.6)
ESTIMATE_RATIO = (0.01, 100.0)
MODULES = ("harness", "stepper", "stokes", "neareval", "spectral", "geometry",
           "surfactant", "dirichlet", "pair_oracle")


def import_program():
    """Import drops2d afresh from the checkout's src/.

    Dropping the cached modules first makes every set-up pay the package's
    import-time work and refill its first-use caches (such as
    spectral._GL_INTERP_CACHE), so work moved there shows in setup_s.
    """
    if not (SRC / "drops2d" / "__init__.py").is_file():
        raise SystemExit(f"bench: no drops2d package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "drops2d" or m.startswith("drops2d.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{m: importlib.import_module(f"drops2d.{m}")
                              for m in MODULES})
    if Path(mods.harness.__file__).resolve().parent != SRC / "drops2d":
        raise SystemExit("bench: drops2d was imported from outside src/")
    return mods


@dataclass
class Op:
    """Outcome of one timed operation."""

    steps: list            # wall seconds per step
    work: float            # simulated time, or targets
    wall: float            # wall seconds of the timed calls
    checks: dict = field(default_factory=dict)   # gate name -> value
    extra: dict = field(default_factory=dict)    # call times, outputs
    traced: bool = False


@dataclass
class Simulation:
    """Repeated run_scenario episodes of a preset from t = 0 to t_end."""

    name: str
    preset: str
    n: int
    t_end: float
    gates: dict
    seeded_phase: bool = False
    oracle_nv: int = 0

    def build(self, mods, seed):
        cfg = mods.harness.preset(self.preset, n=self.n)
        cfg = replace(cfg, run=replace(cfg.run, t_end=self.t_end))
        if self.seeded_phase:
            rng = np.random.default_rng(seed)
            cfg.drops = [replace(d, phase=float(rng.uniform(0, 2 * np.pi)))
                         for d in cfg.drops]
        state = mods.harness.build_state(cfg)
        mods.stokes.discretize(state.ifaces)
        return SimpleNamespace(mods=mods, cfg=cfg, areas=state.areas(),
                               masses=state.masses(), oracle=None)

    def reference(self, ctx):
        """Pair-oracle shape and surfactant at t_end (untimed)."""
        if not self.oracle_nv:
            return
        po, cfg = ctx.mods.pair_oracle, ctx.cfg
        start = po.pair_from_circles(
            self.oracle_nv, phi=ctx.mods.harness.PAIR_SURF_PHI0,
            rho0=cfg.drops[0].rho0, E=cfg.flow.E, Pe=cfg.flow.Pe)
        final, _ = po.evolve_pair(start, Q_phys=cfg.flow.Q, t_end=self.t_end)
        z, rho, alpha = po.physical_frame(final)
        ctx.oracle = {"alphaV": alpha, "z": z, "rho": rho}

    def run_op(self, ctx, index):
        harness = ctx.mods.harness
        with step_clock(harness) as stamps:
            t0 = perf_counter()
            rec = harness.run_scenario(ctx.cfg)
            wall = perf_counter() - t0
        return Op(steps=list(np.diff(stamps)),
                  work=float(rec.final_state.t), wall=wall,
                  extra={"rec": rec})

    def check(self, ctx, op):
        rec = op.extra.pop("rec")
        final = rec.final_state
        areas = rec.series_array("areas")
        masses = rec.series_array("masses")
        a0, m0 = np.array(ctx.areas), np.array(ctx.masses)
        op.checks["area_drift"] = float(np.max(np.abs(areas - a0) / a0))
        m_scale = np.where(m0 > 0, m0, 1.0)
        op.checks["mass_drift"] = float(np.max(np.abs(masses - m0) / m_scale))
        # the solver returns its residual but run_scenario does not keep
        # it: solve once more at the episode's final state
        mods = ctx.mods
        sigmas = [mods.surfactant.surface_tension(f) for f in final.fields]
        _, sol, _ = mods.stokes.interface_velocity(
            final.ifaces, sigmas, ctx.cfg.flow, tol=ctx.cfg.run.stokes_tol)
        op.checks["solve_residual"] = sol.residual
        if ctx.oracle is not None:
            upper = int(np.argmax([i.z.imag.mean() for i in final.ifaces]))
            cmp = mods.harness.compare_to_oracle(final, ctx.oracle,
                                                 drop=upper)
            op.checks["oracle_err"] = cmp["e_z_max"]
            op.checks["oracle_rho_err"] = cmp["e_rho_max"]


@dataclass
class NearEval:
    """Corrected evaluation and error estimates at seeded interior targets.

    Half the targets lie within one panel length of the boundary (depth
    0.01 to 1 panel length), half deeper (1 to 4 panel lengths), measured
    radially from the star contour.
    """

    name: str
    panels: int
    batch: int
    n_batches: int
    gates: dict

    def build(self, mods, seed):
        ref = mods.dirichlet.GoursatReference()
        sol = mods.dirichlet.solve_dirichlet(self.panels, ref.velocity)
        length = float(np.mean([p.length for p in sol.panels]))
        rng = np.random.default_rng(seed)
        m = self.batch * self.n_batches
        theta = rng.uniform(0, 2 * np.pi, m)
        near = np.arange(m) % 2 == 0
        depth = np.where(near, rng.uniform(0.01, 1.0, m),
                         rng.uniform(1.0, 4.0, m)) * length
        targets = (1 + 0.3 * np.cos(3 * theta) - depth) * np.exp(1j * theta)
        return SimpleNamespace(mods=mods, sol=sol, targets=targets,
                               exact=ref.velocity(targets))

    def reference(self, ctx):
        return

    def run_op(self, ctx, index):
        d = ctx.mods.dirichlet
        sl = slice((index % self.n_batches) * self.batch,
                   (index % self.n_batches + 1) * self.batch)
        t0 = perf_counter()
        u = d.evaluate_velocity(ctx.sol, ctx.targets[sl], corrected=True)
        t1 = perf_counter()
        est = d.estimate_field(ctx.sol, ctx.targets[sl])
        t2 = perf_counter()
        return Op(steps=[t2 - t0], work=float(self.batch), wall=t2 - t0,
                  extra={"eval_s": t1 - t0, "estimate_s": t2 - t1,
                         "u": u, "est": est, "sl": sl})

    def check(self, ctx, op):
        u, est, sl = (op.extra.pop(k) for k in ("u", "est", "sl"))
        err = np.abs(u - ctx.exact[sl])
        op.checks["eval_err"] = float(err.max())
        op.extra["worst_target"] = int(sl.start + np.argmax(err))
        # the estimate predicts the plain rule's error; compare where that
        # error stands well above rounding
        plain = ctx.mods.dirichlet.evaluate_velocity(
            ctx.sol, ctx.targets[sl], corrected=False)
        measured = np.abs(plain - ctx.exact[sl])
        sel = measured > 1e-10
        ratio = est[sel] / measured[sel]
        lo, hi = ESTIMATE_RATIO
        bad = (~np.isfinite(est)) | (est < 0)
        op.checks["estimate_misses"] = float(
            np.sum(bad) + np.sum((ratio < lo) | (ratio > hi)))


WORKLOADS = {w.name: w for w in [
    Simulation(
        name="single_n128",
        preset="steady_single", n=128, t_end=0.2, seeded_phase=True,
        gates={"area_drift": 1e-7, "mass_drift": 1e-7,
               "solve_residual": 1e-9}),
    Simulation(
        name="pair_n192",
        preset="pair_surfactant", n=192, t_end=0.02, oracle_nv=48,
        gates={"area_drift": 1e-8, "mass_drift": 1e-8,
               "solve_residual": 1e-9, "oracle_err": 1e-7,
               "oracle_rho_err": 1e-6}),
    NearEval(
        name="near_eval",
        panels=50, batch=16, n_batches=256,
        gates={"eval_err": 1e-10, "estimate_misses": 0.0}),
]}

# Reduced sizes for the benchmark's own tests; accuracy gates follow the
# resolution.
TINY = {
    "single_n128": replace(WORKLOADS["single_n128"], n=32, t_end=0.01),
    "pair_n192": replace(WORKLOADS["pair_n192"], n=64, t_end=0.002,
                         oracle_nv=16,
                         gates={"area_drift": 1e-4, "mass_drift": 1e-4,
                                "solve_residual": 1e-9, "oracle_err": 1e-2,
                                "oracle_rho_err": 1e-2}),
    "near_eval": replace(WORKLOADS["near_eval"], batch=4,
                         n_batches=2,
                         gates={"eval_err": 1e-6, "estimate_misses": 0.0}),
}
