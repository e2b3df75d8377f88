"""Scenario configuration, run driving, data output and oracle comparison.

Configs are JSON key-trees of ScenarioConfig: a list of DropSpec, a
stokes.FlowConfig and a RunSpec, whose fields are the keys.  Runs are
deterministic: rerunning a config byte-reproduces the outputs, and a
restart from a checkpoint reproduces the remaining snapshots.

A state enters a run only through _admit, which build_state (from a
config) and load_checkpoint (from a file) call on the interfaces and rho
samples they build.  It refuses a non-finite t and, naming the drop, an
interface or a rho whose length is not its drop's N and a rho sample
that is not finite or is negative; then it runs check_drops (each drop
clockwise and free of self-crossings, each pair disjoint), refers every
field to cfg.flow, and runs stepper.check_spacing (equal arclength) and
stepper.check_tension (positive surface tension).  After every accepted
step, run_scenario runs the crossing part of check_drops before the step
reaches the series, a snapshot or a checkpoint.

Output files.  write_csv writes every CSV of the package: header lines,
then rows of comma-separated %.17g values, which round-trip every float64.
- series.csv: t,dt,r,r_z,r_rho,accepted,un_max,iterations, area_k and
  mass_k per drop k, min_dist; one row per accepted step (accepted is
  always 1): the time after it, its size, its local error max(r_z, r_rho)
  of position and mass, max |u.n| at its start, the GMRES iterations of
  its second Stokes solve, areas, masses, the least distance of two drops.
- snapshot_NNNNNN.csv: a "# t = <t>" line, then drop,alpha,x,y,rho,sigma
  per node of each drop in turn (read_snapshot reads it back): the start,
  one every output_every accepted steps, and the end.
- steady_oracle.csv ("# Q = <Q>, D = <D>, E = <E>, b = <b>") and
  pair_oracle.csv, the upper bubble ("# t = <t>, phi = <phi>, b = <b>,
  min_gap = <gap>, Q = <Q>"), then nu,alphaV,x,y,rho per point of the
  map; alphaV is the simulation's alpha.
- estimate_grid_<panels>.csv: x,y,measured_error,estimate per grid point.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from itertools import combinations

import numpy as np

from .geometry import (Interface, circle, ellipse, interfaces_cross,
                       min_distance, self_intersects, to_equal_arclength)
from .spectral import fourier_interp, resample
from .stepper import (STOKES_TOL, CoupledState, StepController, advance_to,
                      check_spacing, check_tension)
from .stokes import FlowConfig
from .surfactant import SurfactantField, surface_tension

SNAPSHOT_COLUMNS = ("alpha", "x", "y", "rho", "sigma")


@dataclass
class DropSpec:
    shape: str = "circle"          # circle | ellipse | custom
    center: complex = 0.0
    radius: float = 1.0
    axes: tuple = (1.0, 1.0)
    lam: float = 0.0
    rho0: float = 0.0
    n: int = 128
    points: list = None            # custom shape: complex boundary samples
    phase: float = 0.0             # circle only: angle of node 0 (radians)


@dataclass
class RunSpec:
    t_end: float = 1.0
    steady: bool = False
    tol: float = 1e-6
    dt0: float = 1e-3
    dt_max: float = 0.1
    fixed_dt: float = None
    output_every: int = 50
    checkpoint_every: int = 0
    stokes_tol: float = STOKES_TOL


@dataclass
class ScenarioConfig:
    drops: list
    flow: FlowConfig
    run: RunSpec
    name: str = "scenario"

    def to_json(self) -> str:
        def enc(o):
            if isinstance(o, complex):
                return {"re": o.real, "im": o.imag}
            if isinstance(o, (np.floating, np.integer)):
                return o.item()
            if isinstance(o, np.ndarray):
                return o.tolist()
            raise TypeError(type(o))
        payload = {"name": self.name, "drops": [asdict(d) for d in self.drops],
                   "flow": asdict(self.flow), "run": asdict(self.run)}
        return json.dumps(payload, default=enc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        raw = json.loads(text)

        def dec(v):
            if isinstance(v, dict) and set(v) == {"re", "im"}:
                return complex(v["re"], v["im"])
            if isinstance(v, list):
                return [dec(x) for x in v]
            return v
        drops = [DropSpec(**{k: tuple(v) if k == "axes" and v else dec(v)
                             for k, v in d.items()}) for d in raw["drops"]]
        return cls(drops=drops, flow=FlowConfig(**raw["flow"]),
                   run=RunSpec(**raw["run"]), name=raw.get("name", "scenario"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]


@dataclass
class RunRecord:
    """Per-step series plus field snapshots at the output cadence."""

    config: ScenarioConfig
    series: list = field(default_factory=list)   # dicts per accepted step
    snapshots: list = field(default_factory=list)
    final_state: CoupledState = None
    steady: bool = False

    def series_array(self, key):
        return np.array([row[key] for row in self.series])


def build_state(cfg: ScenarioConfig) -> CoupledState:
    """Initial state of cfg, admitted by _admit at t = 0; rho0, lam and
    radius must be finite and >= 0.  A clean drop carries rho = 0."""
    for k, d in enumerate(cfg.drops):
        for name in ("rho0", "lam", "radius"):
            if not 0 <= getattr(d, name) < np.inf:
                raise ValueError(f"drop {k}: {name} must be finite and "
                                 f"non-negative, not {getattr(d, name)}")
    return _admit(cfg, [_interface(k, d) for k, d in enumerate(cfg.drops)],
                  [np.full(d.n, d.rho0) for d in cfg.drops])


def _admit(cfg: ScenarioConfig, ifaces, rhos, t=0.0) -> CoupledState:
    """The state of cfg at time t with these interfaces and rho samples,
    one per drop: the only way a state enters a run.

    Raises ValueError unless t is finite and, naming the drop, unless
    each interface and its rho have their drop's N and every rho sample
    is finite and >= 0; then runs check_drops, refers every field to
    cfg.flow, and runs stepper.check_spacing and stepper.check_tension.
    """
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, not {t}")
    for k, (ifc, rho, d) in enumerate(zip(ifaces, rhos, cfg.drops)):
        # build_state makes every interface at N; only a checkpoint can differ
        if ifc.n != d.n:
            raise ValueError(f"drop {k}: checkpoint has N {ifc.n}, "
                             f"config has N {d.n}")
        if len(rho) != d.n:
            raise ValueError(f"drop {k}: checkpoint has {len(rho)} rho "
                             f"samples, config has N {d.n}")
        bad = rho[~((0 <= rho) & (rho < np.inf))]
        if bad.size:
            raise ValueError(f"drop {k}: rho must be finite and "
                             f"non-negative, not {bad[0]}")
    check_drops(ifaces)
    state = CoupledState(ifaces=ifaces, t=t, fields=[
        SurfactantField(rho, cfg.flow) for rho in rhos])
    check_spacing(state)
    check_tension(state)
    return state


def _interface(k: int, d: DropSpec) -> Interface:
    """Equal-arclength interface of drop k from its spec."""
    if d.shape == "circle":
        if d.radius == 0:
            raise ValueError(f"drop {k}: radius must be positive, "
                             f"not {d.radius}")
        return circle(d.n, d.radius, d.center, d.lam, d.phase)
    if d.shape not in ("ellipse", "custom"):
        raise ValueError(f"drop {k}: unknown shape {d.shape}")
    if d.phase != 0:
        raise ValueError(f"drop {k}: phase applies to circles only, "
                         f"not to {d.shape} drops")
    if d.shape == "ellipse":
        if not np.isfinite(d.axes).all():
            raise ValueError(f"drop {k}: axes must be finite, not {d.axes}")
        if min(d.axes) <= 0:
            raise ValueError(f"drop {k}: axes must be positive, not {d.axes}")
        return ellipse(d.n, d.axes[0], d.axes[1], center=d.center, lam=d.lam)
    try:
        z = np.asarray([complex(p[0], p[1]) if not np.iscomplexobj(p) else p
                        for p in d.points], dtype=complex)
    except (TypeError, IndexError):
        z = np.array([])
    if not (z.size and np.isfinite(z).all()):
        raise ValueError(f"drop {k}: custom points must be finite complex "
                         "samples or (x, y) pairs")
    return to_equal_arclength(Interface(z=resample(z, d.n), lam=d.lam))


def check_drops(ifaces):
    """Raise ValueError, naming the drop, unless every drop has finite
    nodes, is clockwise and free of self-crossings and every pair of drops
    is disjoint: no crossing, neither inside the other."""
    for k, ifc in enumerate(ifaces):
        if not np.isfinite(ifc.z).all():
            raise ValueError(f"drop {k} has non-finite nodes")
        if ifc.signed_area() >= 0:
            raise ValueError(f"drop {k} is not clockwise")
    fault = _crossing(ifaces) or next(
        (f"drops {j} and {k} are nested"
         for (j, a), (k, b) in combinations(enumerate(ifaces), 2)
         if _encloses(a, b.z[0]) or _encloses(b, a.z[0])), None)
    if fault is not None:
        raise ValueError(f"drops must start disjoint and simple: {fault}")


def _crossing(ifaces):
    """The first self-crossing drop or crossing pair of drops, or None."""
    for k, ifc in enumerate(ifaces):
        if self_intersects(ifc):
            return f"drop {k} crosses itself"
    for (j, a), (k, b) in combinations(enumerate(ifaces), 2):
        if interfaces_cross(a, b):
            return f"drops {j} and {k} cross"
    return None


def _encloses(iface: Interface, pt: complex) -> bool:
    """Whether the node polygon of iface winds around the point pt."""
    with np.errstate(divide="ignore", invalid="ignore"):
        turns = np.angle((np.roll(iface.z, -1) - pt) / (iface.z - pt)).sum()
    return abs(turns) > np.pi


def _snapshot(state: CoupledState):
    return {"t": state.t, "drops": [
        dict(zip(SNAPSHOT_COLUMNS, (ifc.alpha.copy(), ifc.z.real.copy(),
                                    ifc.z.imag.copy(), f.rho.copy(),
                                    surface_tension(f))))
        for ifc, f in zip(state.ifaces, state.fields)]}


def run_scenario(cfg: ScenarioConfig, out_dir: str = None,
                 restart_from: str = None) -> RunRecord:
    """Execute a scenario; optionally write outputs and checkpoints."""
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    if restart_from is not None:
        state, ctrl, counter = load_checkpoint(restart_from, cfg)
    else:
        state, ctrl, counter = build_state(cfg), _controller(cfg.run), 0
    rec = RunRecord(config=cfg)
    rec.snapshots.append(_snapshot(state))
    count = [counter]

    def cb(s, info):
        fault = _crossing(s.ifaces)
        if fault is not None:
            raise RuntimeError(f"interface crossing at t={s.t:.6g}: {fault}")
        count[0] += 1
        rec.series.append({
            "t": s.t, "dt": info.dt_used, "r": info.r, "r_z": info.r_z,
            "r_rho": info.r_rho, "accepted": 1, "un_max": info.un_max,
            "iterations": info.iterations,
            "areas": s.areas(), "masses": s.masses(),
            "min_dist": min((min_distance(a, b) for a, b in
                             combinations(s.ifaces, 2)), default=np.inf),
        })
        if cfg.run.output_every and count[0] % cfg.run.output_every == 0:
            rec.snapshots.append(_snapshot(s))
        if (out_dir and cfg.run.checkpoint_every
                and count[0] % cfg.run.checkpoint_every == 0):
            save_checkpoint(os.path.join(out_dir, "checkpoint.npz"),
                            s, ctrl, count[0])

    final, steady = advance_to(
        state, cfg.flow, ctrl,
        t_end=cfg.run.t_end, stokes_tol=cfg.run.stokes_tol, callback=cb,
        steady=cfg.run.steady)
    rec.final_state = final
    rec.steady = steady
    if rec.snapshots[-1]["t"] != final.t:
        rec.snapshots.append(_snapshot(final))
    if out_dir:
        write_outputs(rec, out_dir)
    return rec


def write_csv(path: str, header: str, columns):
    """Write equal-length columns as CSV rows under the header lines, each
    value as %.17g; no columns of length zero leave the header alone."""
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=header, comments="")


SERIES_KEYS = ("t", "dt", "r", "r_z", "r_rho", "accepted", "un_max",
               "iterations")


def write_outputs(rec: RunRecord, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    nd = len(rec.config.drops)
    head = [*SERIES_KEYS, *(f"{name}_{k}" for name in ("area", "mass")
                            for k in range(nd)), "min_dist"]
    table = np.array([[*(row[key] for key in SERIES_KEYS), *row["areas"],
                       *row["masses"], row["min_dist"]]
                      for row in rec.series], dtype=float)
    write_csv(os.path.join(out_dir, "series.csv"), ",".join(head),
              table.reshape(-1, len(head)).T)
    names = "drop," + ",".join(SNAPSHOT_COLUMNS)
    for i, snap in enumerate(rec.snapshots):
        drops = snap["drops"]
        write_csv(os.path.join(out_dir, f"snapshot_{i:06d}.csv"),
                  f"# t = {snap['t']:.17g}\n{names}",
                  [np.concatenate([np.full(d["x"].size, k)
                                   for k, d in enumerate(drops)])]
                  + [np.concatenate([d[key] for d in drops])
                     for key in SNAPSHOT_COLUMNS])
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        fh.write(json.dumps({"config_hash": rec.config.config_hash(),
                             "snapshots": len(rec.snapshots),
                             "steps": len(rec.series),
                             "steady": rec.steady},
                            indent=2, sort_keys=True) + "\n")
        fh.write(rec.config.to_json() + "\n")


def read_snapshot(path: str) -> dict:
    """The snapshot dict (as _snapshot builds it) of a written snapshot file."""
    with open(path) as fh:
        t = float(fh.readline().split("=")[1])
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    return {"t": t, "drops": [
        dict(zip(SNAPSHOT_COLUMNS, data[data[:, 0] == k, 1:].T.copy()))
        for k in np.unique(data[:, 0])]}


def _controller(run: RunSpec, dt: float = None) -> StepController:
    """Step controller of a run, starting from dt (default run.dt0).

    A fixed_dt run pins the step: dt_min = dt_max = fixed_dt and a
    tolerance that accepts every attempt.
    """
    if run.fixed_dt is not None:
        return StepController(tol=np.inf, dt=run.fixed_dt,
                              dt_min=run.fixed_dt, dt_max=run.fixed_dt)
    return StepController(tol=run.tol, dt=run.dt0 if dt is None else dt,
                          dt_max=run.dt_max)


def save_checkpoint(path: str, state: CoupledState, ctrl: StepController,
                    counter: int):
    arrays = {}
    meta = {"t": state.t, "dt": ctrl.dt, "retakes": ctrl.retake_count,
            "counter": counter, "n_drops": len(state.ifaces)}
    for k, (ifc, f) in enumerate(zip(state.ifaces, state.fields)):
        arrays[f"z_{k}"] = ifc.z
        arrays[f"rho_{k}"] = f.rho
    np.savez(path, meta=json.dumps(meta), **arrays)


def load_checkpoint(path: str, cfg: ScenarioConfig):
    """State and controller saved by save_checkpoint.

    The checkpoint holds positions, concentrations, t and the controller;
    lambda comes from cfg.drops and every field refers to cfg.flow.  It
    must hold cfg's number of drops; _admit admits its state.
    """
    data = np.load(path, allow_pickle=False)
    meta = json.loads(str(data["meta"]))
    if meta["n_drops"] != len(cfg.drops):
        raise ValueError(f"checkpoint has {meta['n_drops']} drops, "
                         f"config has {len(cfg.drops)}")
    state = _admit(cfg, [Interface(z=data[f"z_{k}"], lam=d.lam)
                         for k, d in enumerate(cfg.drops)],
                   [data[f"rho_{k}"] for k in range(len(cfg.drops))],
                   meta["t"])
    ctrl = _controller(cfg.run, dt=meta["dt"])
    ctrl.retake_count = meta["retakes"]
    return state, ctrl, meta["counter"]


def compare_to_oracle(state_or_snapshot, oracle: dict, window=(0.0, 2 * np.pi),
                      drop: int = 0):
    """Largest pointwise errors against oracle data on its parameter grid.

    oracle carries 'alphaV', 'z' and optionally 'rho'; the simulation
    fields are trigonometrically interpolated to alphaV, restricted to
    the window, and compared pointwise.  Returns the compared alphaV and
    the max-norm errors e_z_max and (with 'rho') e_rho_max.
    """
    if isinstance(state_or_snapshot, CoupledState):
        zs = state_or_snapshot.ifaces[drop].z
        rhos = state_or_snapshot.fields[drop].rho
    else:
        d = state_or_snapshot["drops"][drop]
        zs = d["x"] + 1j * d["y"]
        rhos = d["rho"]
    aV = np.asarray(oracle["alphaV"])
    lo, hi = window
    sel = (aV >= lo) & (aV <= hi)
    z_sim = fourier_interp(zs, aV[sel])
    e_z = np.abs(z_sim - np.asarray(oracle["z"])[sel])
    out = {"alphaV": aV[sel], "e_z_max": float(e_z.max())}
    if "rho" in oracle:
        rho_sim = fourier_interp(rhos, aV[sel])
        e_r = np.abs(rho_sim - np.asarray(oracle["rho"])[sel])
        out["e_rho_max"] = float(e_r.max())
    return out


PAIR_CLEAN_PHI0 = 0.35
PAIR_SURF_PHI0 = 0.2875


def _pair_center(phi0: float) -> float:
    return (1 + phi0) / (2 * np.sqrt(phi0))


PRESETS = ("steady_single", "pair_clean", "pair_surfactant")


def _pair(name, n, phi0, rho0, Pe, t_end):
    """The two unit bubbles on +-i c whose conformal map has phi0."""
    c = _pair_center(phi0)
    drops = [DropSpec(shape="circle", center=s * 1j * c, radius=1.0,
                      lam=0.0, rho0=rho0, n=n or 576, phase=s * np.pi / 2)
             for s in (1, -1)]
    return ScenarioConfig(
        name=name, drops=drops, flow=FlowConfig(Q=0.5, E=0.5, Pe=Pe),
        run=RunSpec(t_end=t_end, tol=1e-6, dt0=1e-3, dt_max=0.02,
                    output_every=100))


def preset(name: str, n: int = None) -> ScenarioConfig:
    """The validation configuration named name, one of PRESETS."""
    if name == "steady_single":
        return ScenarioConfig(
            name=name,
            drops=[DropSpec(shape="circle", center=0.0, radius=1.0,
                            lam=0.0, rho0=1.0, n=n or 128)],
            flow=FlowConfig(Q=0.07, E=0.5, Pe=np.inf, eos="linear"),
            run=RunSpec(t_end=200.0, steady=True, tol=1e-6, dt0=1e-3,
                        dt_max=0.1, output_every=200))
    if name == "pair_clean":
        return _pair(name, n, PAIR_CLEAN_PHI0, 0.0, np.inf, 1.5)
    if name == "pair_surfactant":
        return _pair(name, n, PAIR_SURF_PHI0, 1.0, 10.0, 1.0)
    raise ValueError(f"unknown preset {name}")
