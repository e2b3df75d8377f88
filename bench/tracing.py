"""In-memory spans around calls into drops2d's public functions.

A traced run replaces module attributes with timing wrappers at the names
their callers bind (``stepper`` does ``from .stokes import
interface_velocity``, so the wrapper goes on
``drops2d.stepper.interface_velocity``), records one span per call, and
puts every original back when it ends.  Spans are kept in arrays and
written out once, after the run.

A span's self time is its duration minus the durations of its child
spans; calls run on one thread, so children nest inside their parent and
never overlap each other.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module under drops2d, attribute, span name).  The span name is the layer
# (the module that defines the function) and the function; one function
# bound by several modules is wrapped at each binding.
WRAPS = [
    ("harness", "run_scenario", "harness.run_scenario"),
    ("harness", "self_intersects", "geometry.self_intersects"),
    ("harness", "min_distance", "geometry.min_distance"),
    ("stepper", "step", "stepper.step"),
    ("stepper", "interface_velocity", "stokes.interface_velocity"),
    ("stepper", "modified_tangential_velocity",
     "geometry.modified_tangential_velocity"),
    ("stepper", "krasny_filter", "spectral.krasny_filter"),
    ("surfactant", "krasny_filter", "spectral.krasny_filter"),
    ("spectral", "krasny_filter", "spectral.krasny_filter"),
    ("stepper", "rhs_explicit", "surfactant.rhs_explicit"),
    ("stepper", "rhs_implicit_solve", "surfactant.implicit"),
    ("stepper", "rhs_implicit_apply", "surfactant.implicit"),
    ("stokes", "discretize", "stokes.discretize"),
    ("stokes", "uniform_to_gl", "spectral.uniform_to_gl"),
    ("stokes", "DirectKernels", "stokes.DirectKernels"),
    ("stokes", "solve_density", "stokes.solve_density"),
    ("stokes", "evaluate_velocity_on_interface",
     "stokes.evaluate_velocity_on_interface"),
    ("spectral", "panel_interp_to_uniform",
     "spectral.panel_interp_to_uniform"),
    ("neareval", "needs_correction", "neareval.needs_correction"),
    ("neareval", "locate_preimage", "neareval.locate_preimage"),
    ("neareval", "estimate_error", "neareval.estimate_error"),
    ("neareval", "kernel_rows", "neareval.kernel_rows"),
    ("dirichlet", "solve_dirichlet", "dirichlet.solve_dirichlet"),
    ("dirichlet", "evaluate_velocity", "dirichlet.evaluate_velocity"),
    ("dirichlet", "estimate_field", "dirichlet.estimate_field"),
    ("pair_oracle", "evolve_pair", "pair_oracle.evolve_pair"),
]


def _count_attempt(tracer, out):
    info = out[1]
    tracer.counts["stepper.attempts"] += 1
    tracer.counts["stepper.rejected"] += 0 if info.accepted else 1


def _count_pairs(tracer, kernels):
    tracer.counts["stokes.assemblies"] += 1
    tracer.counts["stokes.near_pairs"] += len(kernels.pairs)


def _record_solve(tracer, sol):
    # DensitySolution.iterations holds the row count 2N + n_d of the
    # least-squares system, not an iteration count.
    tracer.maxima["stokes.solve_rows"] = max(
        tracer.maxima["stokes.solve_rows"], sol.iterations)
    tracer.maxima["stokes.solve_residual_max"] = max(
        tracer.maxima["stokes.solve_residual_max"], sol.residual)


def _count_hit(tracer, frame):
    tracer.counts["neareval.hits"] += frame is not None


# Counters read from what a wrapped call returns.
OBSERVE = {
    "stepper.step": _count_attempt,
    "stokes.DirectKernels": _count_pairs,
    "stokes.solve_density": _record_solve,
    "neareval.needs_correction": _count_hit,
}


class Tracer:
    """Span recorder with counters read from the wrapped calls' results."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.current_op = -1
        self.counts = defaultdict(int)
        self.maxima = defaultdict(float)

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name):
        nid = self._id(name)
        observe = OBSERVE.get(name)

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.current_op)
            self.start.append(perf_counter())
            self.end.append(0.0)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.end[idx] = perf_counter()
            if observe is not None:
                observe(self, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def spans(self):
        """(name, start, end, parent index) per recorded span."""
        return [(self.names[n], s, e, p) for n, s, e, p in
                zip(self.name_id, self.start, self.end, self.parent)]

    def calls(self):
        out = defaultdict(int)
        for n in self.name_id:
            out[self.names[n]] += 1
        return out

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,op,parent,start,end\n")
            for i, (n, op, p, s, e) in enumerate(zip(
                    self.name_id, self.op, self.parent, self.start, self.end)):
                fh.write(f"{i},{self.names[n]},{op},{p},{s!r},{e!r}\n")


def self_times(spans):
    """Total self time per span name from (name, start, end, parent) rows."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    for (name, start, end, _), covered in zip(spans, child):
        out[name] += (end - start) - covered
    return out


@contextmanager
def installed(tracer):
    """Wrap every WRAPS entry on the current drops2d modules, then restore."""
    saved = []
    try:
        for mod_name, attr, span in WRAPS:
            mod = importlib.import_module(f"drops2d.{mod_name}")
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, tracer.wrap(original, span))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


@contextmanager
def step_clock(harness):
    """Time stamps at each accepted step that run_scenario sees.

    run_scenario passes its per-step callback (diagnostics, crossing check)
    to the advance_to it binds; the shim stamps the clock when advance_to
    starts and after each callback returns.  It is the one patch an
    untraced run carries, for the length of one run_scenario call.
    """
    stamps = []
    original = harness.advance_to

    def advance_to(*args, callback=None, **kwargs):
        def stamped(state, info):
            callback(state, info)
            stamps.append(perf_counter())
        stamps.append(perf_counter())
        return original(*args, callback=stamped, **kwargs)

    harness.advance_to = advance_to
    try:
        yield stamps
    finally:
        harness.advance_to = original
