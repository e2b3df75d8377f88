"""Scenario configuration, run driving, data output and oracle comparison.

Configs are JSON key-trees of ScenarioConfig: a list of DropSpec, a
stokes.FlowConfig and a RunSpec, whose fields are the keys.  Outputs are
columnar CSV time series plus one snapshot file per output tick and a
manifest carrying the config and its hash.  Runs are deterministic:
rerunning a config byte-reproduces the outputs, and a restart from a
checkpoint reproduces the remaining snapshots.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .geometry import (Interface, ellipse, min_distance, self_intersects,
                       signed_area, to_equal_arclength)
from .spectral import fourier_interp, resample, uniform_alpha
from .stepper import CoupledState, StepController, advance_to
from .stokes import FlowConfig
from .surfactant import SurfactantField, surface_tension


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
    phase: float = 0.0             # parameter origin rotation (radians)


@dataclass
class RunSpec:
    t_end: float = 1.0
    steady: bool = False
    steady_unorm: float = 1e-8
    tol: float = 1e-6
    dt0: float = 1e-3
    dt_max: float = 0.1
    fixed_dt: float = None
    output_every: int = 50
    checkpoint_every: int = 0
    adapt_spacing: bool = False
    stokes_tol: float = 1e-11


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
        payload = {
            "name": self.name,
            "drops": [asdict(d) for d in self.drops],
            "flow": asdict(self.flow),
            "run": asdict(self.run),
        }
        return json.dumps(payload, default=enc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        raw = json.loads(text)

        def dec(v):
            if isinstance(v, dict) and set(v) == {"re", "im"}:
                return complex(v["re"], v["im"])
            return v
        drops = []
        for d in raw["drops"]:
            d = {k: dec(v) for k, v in d.items()}
            if d.get("axes"):
                d["axes"] = tuple(d["axes"])
            drops.append(DropSpec(**d))
        fl = dict(raw["flow"])
        if fl.get("Pe") is None:
            fl["Pe"] = np.inf
        flow = FlowConfig(**fl)
        run = RunSpec(**raw["run"])
        return cls(drops=drops, flow=flow, run=run, name=raw.get("name", "scenario"))

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
    ifaces, fields = [], []
    for k, d in enumerate(cfg.drops):
        if d.shape == "circle":
            a = uniform_alpha(d.n)
            z = d.center + d.radius * np.exp(1j * (d.phase - a))
            ifc = Interface(z=z, lam=d.lam, id=k)
        elif d.shape == "ellipse":
            ifc = ellipse(d.n, d.axes[0], d.axes[1], center=d.center,
                          lam=d.lam, id=k)
        elif d.shape == "custom":
            z = np.asarray([complex(p[0], p[1]) if not np.iscomplexobj(p)
                            else p for p in d.points])
            ifc = to_equal_arclength(Interface(z=resample(z, d.n),
                                               lam=d.lam, id=k, check=False))
        else:
            raise ValueError(f"unknown shape {d.shape}")
        ifaces.append(ifc)
        fields.append(_field(cfg, d, np.full(d.n, max(d.rho0, 0.0))))
    for a in ifaces:
        for b in ifaces:
            if a.id < b.id and _overlapping(a, b):
                raise ValueError("drops must start disjoint")
    return CoupledState(ifaces=ifaces, fields=fields)


def _field(cfg: ScenarioConfig, d: DropSpec, rho) -> SurfactantField:
    """Surfactant field of drop d carrying rho; clean drops do not diffuse."""
    return SurfactantField(rho=rho, E=cfg.flow.E,
                           Pe=cfg.flow.Pe if d.rho0 > 0 else np.inf,
                           eos=cfg.flow.eos)


def _point_inside(pt: complex, iface: Interface) -> bool:
    """Even-odd rule against the polygonal boundary."""
    z = iface.z
    x, y = pt.real, pt.imag
    x1, y1 = z.real, z.imag
    x2, y2 = np.roll(z.real, -1), np.roll(z.imag, -1)
    cond = (y1 > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xin = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    return bool(np.sum(cond & (x < xin)) % 2)


def _overlapping(a: Interface, b: Interface) -> bool:
    return (_point_inside(b.z[0], a) or _point_inside(a.z[0], b)
            or min_distance(a, b) <= 0)


def _snapshot(state: CoupledState):
    rows = []
    for ifc, f in zip(state.ifaces, state.fields):
        sig = surface_tension(f)
        rows.append({
            "alpha": ifc.alpha.copy(),
            "x": ifc.z.real.copy(),
            "y": ifc.z.imag.copy(),
            "rho": f.rho.copy(),
            "sigma": np.asarray(sig, dtype=float),
        })
    return {"t": state.t, "drops": rows}


def _min_dist_all(state: CoupledState):
    if len(state.ifaces) < 2:
        return np.inf
    out = np.inf
    for a in state.ifaces:
        for b in state.ifaces:
            if a.id < b.id:
                out = min(out, min_distance(a, b))
    return out


def run_scenario(cfg: ScenarioConfig, out_dir: str = None,
                 restart_from: str = None) -> RunRecord:
    """Execute a scenario; optionally write outputs and checkpoints."""
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    if restart_from is not None:
        state, ctrl, counter = load_checkpoint(restart_from, cfg)
    else:
        state = build_state(cfg)
        ctrl = _controller(cfg.run)
        counter = 0
    rec = RunRecord(config=cfg)
    rec.snapshots.append(_snapshot(state))
    count = [counter]

    spacing = state.ifaces[0].spacing() if cfg.run.adapt_spacing else None

    def cb(s, info):
        count[0] += 1
        rec.series.append({
            "t": s.t, "dt": info.dt_used, "r": info.r, "r_z": info.r_z,
            "r_rho": info.r_rho, "accepted": 1, "un_max": info.un_max,
            "iterations": info.iterations,
            "areas": s.areas(), "masses": s.masses(),
            "min_dist": _min_dist_all(s),
        })
        if cfg.run.output_every and count[0] % cfg.run.output_every == 0:
            rec.snapshots.append(_snapshot(s))
        if (out_dir and cfg.run.checkpoint_every
                and count[0] % cfg.run.checkpoint_every == 0):
            save_checkpoint(os.path.join(out_dir, "checkpoint.npz"),
                            s, ctrl, count[0])
        for iface in s.ifaces:
            if self_intersects(iface):
                raise RuntimeError(f"interface crossing at t={s.t:.6g}")

    final, steady = advance_to(
        state, cfg.flow, ctrl,
        t_end=cfg.run.t_end, stokes_tol=cfg.run.stokes_tol, callback=cb,
        steady_unorm=cfg.run.steady_unorm if cfg.run.steady else None,
        adapt_spacing=spacing)
    rec.final_state = final
    rec.steady = steady
    if rec.snapshots[-1]["t"] != final.t:
        rec.snapshots.append(_snapshot(final))
    if out_dir:
        write_outputs(rec, out_dir)
    return rec


def _fmt(x):
    return format(float(x), ".17g")


def write_outputs(rec: RunRecord, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    nd = len(rec.config.drops)
    with open(os.path.join(out_dir, "series.csv"), "w") as fh:
        head = ["t", "dt", "r", "r_z", "r_rho", "accepted", "un_max",
                "iterations"]
        head += [f"area_{k}" for k in range(nd)]
        head += [f"mass_{k}" for k in range(nd)]
        head += ["min_dist"]
        fh.write(",".join(head) + "\n")
        for row in rec.series:
            vals = [_fmt(row[k]) for k in ("t", "dt", "r", "r_z", "r_rho")]
            vals.append(str(row["accepted"]))
            vals.append(_fmt(row["un_max"] if row["un_max"] is not None else np.nan))
            vals.append(str(row["iterations"]))
            vals += [_fmt(a) for a in row["areas"]]
            vals += [_fmt(m) for m in row["masses"]]
            vals.append(_fmt(row["min_dist"]))
            fh.write(",".join(vals) + "\n")
    for i, snap in enumerate(rec.snapshots):
        path = os.path.join(out_dir, f"snapshot_{i:06d}.csv")
        with open(path, "w") as fh:
            fh.write(f"# t = {_fmt(snap['t'])}\n")
            fh.write("drop,alpha,x,y,rho,sigma\n")
            for k, d in enumerate(snap["drops"]):
                for j in range(d["alpha"].shape[0]):
                    fh.write(",".join([str(k), _fmt(d["alpha"][j]),
                                       _fmt(d["x"][j]), _fmt(d["y"][j]),
                                       _fmt(d["rho"][j]), _fmt(d["sigma"][j])])
                             + "\n")
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        fh.write(json.dumps({"config_hash": rec.config.config_hash(),
                             "snapshots": len(rec.snapshots),
                             "steps": len(rec.series),
                             "steady": rec.steady},
                            indent=2, sort_keys=True) + "\n")
        fh.write(rec.config.to_json() + "\n")


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
    the material parameters (lambda, E, Pe, eos) come from cfg.
    """
    data = np.load(path, allow_pickle=False)
    meta = json.loads(str(data["meta"]))
    if meta["n_drops"] != len(cfg.drops):
        raise ValueError(f"checkpoint has {meta['n_drops']} drops, "
                         f"config has {len(cfg.drops)}")
    ifaces, fields = [], []
    for k, d in enumerate(cfg.drops):
        ifaces.append(Interface(z=data[f"z_{k}"], lam=d.lam, id=k,
                                check=False))
        fields.append(_field(cfg, d, data[f"rho_{k}"]))
    state = CoupledState(ifaces=ifaces, fields=fields, t=meta["t"])
    ctrl = _controller(cfg.run, dt=meta["dt"])
    ctrl.retake_count = meta["retakes"]
    return state, ctrl, meta["counter"]


def compare_to_oracle(state_or_snapshot, oracle: dict, window=(0.0, 2 * np.pi),
                      drop: int = 0):
    """Pointwise errors against oracle data on the oracle's parameter grid.

    oracle carries 'alphaV', 'z' and optionally 'rho'; the simulation
    fields are trigonometrically interpolated to alphaV, restricted to
    the window, and compared pointwise.
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
    e_x = np.abs(z_sim.real - np.asarray(oracle["z"]).real[sel])
    e_y = np.abs(z_sim.imag - np.asarray(oracle["z"]).imag[sel])
    e_z = np.abs(z_sim - np.asarray(oracle["z"])[sel])
    out = {"alphaV": aV[sel], "e_x": e_x, "e_y": e_y, "e_z": e_z,
           "e_z_max": float(e_z.max()), "e_z_l2":
           float(np.sqrt(np.mean(e_z**2)))}
    if "rho" in oracle and oracle["rho"] is not None:
        rho_sim = fourier_interp(rhos, aV[sel])
        e_r = np.abs(rho_sim - np.asarray(oracle["rho"])[sel])
        out.update({"e_rho": e_r, "e_rho_max": float(e_r.max()),
                    "e_rho_l2": float(np.sqrt(np.mean(e_r**2)))})
    return out


PAIR_CLEAN_PHI0 = 0.35
PAIR_SURF_PHI0 = 0.2875


def _pair_center(phi0: float) -> float:
    return (1 + phi0) / (2 * np.sqrt(phi0))


def preset(name: str, n: int = None) -> ScenarioConfig:
    """The validation configurations of the study cases."""
    if name == "steady_single":
        n = n or 128
        return ScenarioConfig(
            name=name,
            drops=[DropSpec(shape="circle", center=0.0, radius=1.0,
                            lam=0.0, rho0=1.0, n=n)],
            flow=FlowConfig(Q=0.14, E=0.5, Pe=np.inf, eos="linear"),
            run=RunSpec(t_end=200.0, steady=True, steady_unorm=1e-8,
                        tol=1e-6, dt0=1e-3, dt_max=0.1, output_every=200))
    if name == "pair_clean":
        n = n or 576
        c = _pair_center(PAIR_CLEAN_PHI0)
        drops = [DropSpec(shape="circle", center=1j * c, radius=1.0,
                          lam=0.0, rho0=0.0, n=n, phase=np.pi / 2),
                 DropSpec(shape="circle", center=-1j * c, radius=1.0,
                          lam=0.0, rho0=0.0, n=n, phase=-np.pi / 2)]
        return ScenarioConfig(
            name=name, drops=drops,
            flow=FlowConfig(Q=0.5, E=0.5, Pe=np.inf),
            run=RunSpec(t_end=1.5, tol=1e-6, dt0=1e-3, dt_max=0.02,
                        output_every=100))
    if name == "pair_surfactant":
        n = n or 576
        c = _pair_center(PAIR_SURF_PHI0)
        drops = [DropSpec(shape="circle", center=1j * c, radius=1.0,
                          lam=0.0, rho0=1.0, n=n, phase=np.pi / 2),
                 DropSpec(shape="circle", center=-1j * c, radius=1.0,
                          lam=0.0, rho0=1.0, n=n, phase=-np.pi / 2)]
        return ScenarioConfig(
            name=name, drops=drops,
            flow=FlowConfig(Q=0.5, E=0.5, Pe=10.0, eos="linear"),
            run=RunSpec(t_end=1.0, tol=1e-6, dt0=1e-3, dt_max=0.02,
                        output_every=100))
    if name == "swiss_roll":
        return _swiss_roll_config()
    raise ValueError(f"unknown preset {name}")


SWISS_CIRCULAR_TOL = 1e-4


def _swiss_roll_geometry(n_roll: int = 512, n_ell: int = 128):
    """Spiral roll plus surrounding ellipses, best-effort geometry.

    The roll is an Archimedean-spiral tube, closed smoothly and
    low-pass filtered so it is spectrally representable; lengths are
    normalized by half the bounding-box side.
    """
    turns = 2.25
    m = 4096
    s = np.linspace(0, 1, m, endpoint=False)
    th = 2 * np.pi * turns * s
    rad = 0.16 + 0.40 * s
    cl = rad * np.exp(1j * th)
    width = 0.11 * np.sin(np.pi * np.clip((s + 0.02) / 1.04, 0, 1)) ** 0.5
    t_vec = np.gradient(cl, s)
    t_hat = t_vec / np.abs(t_vec)
    n_hat = 1j * t_hat
    outer = cl + 0.5 * width * n_hat
    inner = cl - 0.5 * width * n_hat
    boundary = np.concatenate([outer, inner[::-1]])
    coef = np.fft.fft(boundary) / boundary.shape[0]
    k = np.fft.fftfreq(boundary.shape[0], 1 / boundary.shape[0])
    coef *= np.exp(-(np.abs(k) / 60.0) ** 4)
    smooth = np.fft.ifft(coef * boundary.shape[0])
    z = resample(smooth, n_roll)
    roll = to_equal_arclength(Interface(z=z, lam=1.0, id=0, check=False))
    if signed_area(roll.z) > 0:
        roll = to_equal_arclength(Interface(z=roll.z[::-1], lam=1.0, id=0,
                                            check=False))
    ells = []
    ring = 1.05
    for i, ang in enumerate(np.linspace(0, 2 * np.pi, 5, endpoint=False)):
        e = ellipse(n_ell, 0.30, 0.16, center=ring * np.exp(1j * (ang + 0.3)),
                    lam=1.0, id=i + 1)
        rot = np.exp(1j * (ang + 0.3 + np.pi / 2))
        c = ring * np.exp(1j * (ang + 0.3))
        z_rot = c + (e.z - c) * rot
        ells.append(to_equal_arclength(
            Interface(z=z_rot, lam=1.0, id=i + 1, check=False)))
    return [roll] + ells


def _swiss_roll_config() -> ScenarioConfig:
    ifaces = _swiss_roll_geometry()
    # characteristic length: half the bounding square side
    allz = np.concatenate([i.z for i in ifaces])
    span = max(allz.real.max() - allz.real.min(),
               allz.imag.max() - allz.imag.min())
    scale = 2.0 / span
    drops = []
    for k, ifc in enumerate(ifaces):
        drops.append(DropSpec(
            shape="custom", n=ifc.n, lam=1.0,
            rho0=1.0 if k == 0 else 0.0,
            points=[(p.real * scale, p.imag * scale) for p in ifc.z]))
    return ScenarioConfig(
        name="swiss_roll", drops=drops,
        flow=FlowConfig(Q=0.0, E=0.1, Pe=10.0, eos="linear"),
        run=RunSpec(t_end=100.0, tol=1e-5, dt0=1e-4, dt_max=0.05,
                    output_every=200, adapt_spacing=True))


def circularity(iface: Interface) -> float:
    c = iface.z.mean()
    r = np.abs(iface.z - c)
    return abs(1 - r.max() / r.mean())
