"""Span tracing of fisherkpp from outside the package.

Each traced layer function is replaced, for the duration of an
``instrument`` block, by a wrapper that records one span per call: name,
start, end, parent span and integration id. The wrappers are installed on
the names the *calling* module imported (``fisherkpp.stepper.cg_solve``,
``fisherkpp.linsolve.apply_laplacian``, ...), so no file of the package
changes, and the original objects are put back when the block ends.

All times come from ``time.monotonic`` (CLOCK_MONOTONIC on Linux), which
is shared between processes, so a parent can subtract its own spawn time
from a worker's first-integration time.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

clock = time.monotonic

def _nfev(args, kwargs, result):
    return {"nfev": int(result.nfev)}


def _iters(args, kwargs, result):
    return {"iters": int(getattr(result, "iterations", 0))}


def _laplacian_bytes(args, kwargs, result):
    # compulsory traffic only: read the input field, write the output field
    return {"bytes": 16 * int(args[0].size)}


def _integration(args, kwargs, result):
    tgrid, sgrid = args[1], args[2]
    return {"cell_steps": int(sgrid.n_interior) * int(tgrid.M),
            "finite": bool(np.isfinite(result[0]).all())}


# span name -> (module, attribute) pairs wrapped under it, and an optional
# function (args, kwargs, result) -> dict of counters stored on the span
LAYERS = {
    "cli.config": ([("fisherkpp.cli", "parse_config")], None),
    "cli.artifact": ([("fisherkpp.cli", "field_to_csv"),
                      ("fisherkpp.stepper", "RunReport.to_csv"),
                      ("fisherkpp.analysis", "ConvergenceTable.write_csv"),
                      ("fisherkpp.analysis", "ConvergenceTable.write_plot_data")], None),
    # the CLI and the sweep start each integration here; untraced runs wrap only this
    "stepper.integrate": ([("fisherkpp.cli", "integrate"),
                           ("fisherkpp.analysis", "integrate")], _integration),
    "stepper.starter": ([("fisherkpp.stepper", "solve_ivp")], _nfev),
    "stepper.step": ([("fisherkpp.stepper", "bdf_imex_step")], None),
    "linsolve.solve": ([("fisherkpp.stepper", "cg_solve"),
                        ("fisherkpp.stepper", "direct_solve_small")], _iters),
    "spatial.laplacian": ([("fisherkpp.stepper", "apply_laplacian"),
                           ("fisherkpp.linsolve", "apply_laplacian")], _laplacian_bytes),
    "spatial.lifting": ([("fisherkpp.stepper", "boundary_contribution")], None),
    "spatial.eval_interior": ([("fisherkpp.stepper", "eval_interior"),
                               ("fisherkpp.problems", "eval_interior"),
                               ("fisherkpp.analysis", "eval_interior")], None),
    "problems.reaction": ([("fisherkpp.stepper", "f_eval")], None),
    "problems.source": ([("fisherkpp.stepper", "source_at_shifted_time")], None),
    "coeffs": ([("fisherkpp.stepper", "uniform_coeffs"),
                ("fisherkpp.stepper", "nonuniform_coeffs")], None),
    "timegrid": ([("fisherkpp.timegrid", "uniform_grid"),
                  ("fisherkpp.timegrid", "graded_grid"),
                  ("fisherkpp.analysis", "uniform_grid"),
                  ("fisherkpp.analysis", "graded_grid")], None),
    "analysis.sweep": ([("fisherkpp.analysis", "temporal_sweep"),
                        ("fisherkpp.analysis", "spatial_sweep")], None),
    "analysis.error": ([("fisherkpp.analysis", "exact_final_field"),
                        ("fisherkpp.analysis", "linf_error"),
                        ("fisherkpp.analysis", "l2_error")], None),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "attrs")

    def __init__(self, name, parent, run):
        self.name = name
        self.parent = parent
        self.run = run
        self.start = self.end = 0.0
        self.attrs = None

    def as_dict(self, index):
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "run": self.run,
                "attrs": self.attrs}


class Tracer:
    """In-memory span recorder.

    Every span inside an integration carries that integration's id
    (``run``, counting from 1); spans outside any integration carry 0.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.integrations = 0

    def call(self, name, fn, args, kwargs, attrs_fn=None):
        parent = self._stack[-1] if self._stack else -1
        if name == "stepper.integrate":
            self.integrations += 1
            run = self.integrations
        else:
            run = self.spans[parent].run if parent >= 0 else 0
        span = Span(name, parent, run)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.end = clock()
            span.attrs = {"error": type(exc).__name__}
            raise
        finally:
            self._stack.pop()
        span.end = clock()
        if attrs_fn is not None:
            span.attrs = attrs_fn(args, kwargs, result)
        return result

    def wrap(self, name, fn, attrs_fn=None):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs_fn)

        wrapper.__wrapped__ = fn
        return wrapper


def owner_of(module, attr):
    """(object holding the final name, final name) for 'Class.method' paths."""
    obj = importlib.import_module(module)
    *path, last = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, last


@contextmanager
def patched(replacements):
    """Set each (module, attr) to a new object; restore the originals on exit.

    ``replacements`` maps (module, attr) to a function original -> new.
    """
    saved = []
    try:
        for (module, attr), make in replacements.items():
            owner, last = owner_of(module, attr)
            original = vars(owner)[last]
            saved.append((owner, last, original))
            setattr(owner, last, make(original))
        yield
    finally:
        for owner, last, original in reversed(saved):
            setattr(owner, last, original)


def instrument(tracer, layers=None):
    """Context manager wrapping every target of ``layers`` (default: all)."""
    layers = LAYERS if layers is None else layers
    replacements = {}
    for name, (targets, attrs_fn) in layers.items():
        for target in targets:
            replacements[target] = (
                lambda fn, name=name, attrs_fn=attrs_fn: tracer.wrap(name, fn, attrs_fn)
            )
    return patched(replacements)


def self_times(spans):
    """Per-span self time: duration minus the time covered by child spans."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def layer_totals(spans):
    """Aggregate spans by name: calls, inclusive time, self time, counters.

    Inclusive time counts only the outermost span of a name, so a layer
    that calls itself is not counted twice.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    counters = defaultdict(int)
    for i, s in enumerate(spans):
        calls[s.name] += 1
        self_s[s.name] += selfs[i]
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            incl[s.name] += s.end - s.start
        for key, value in (s.attrs or {}).items():
            if key != "error" and not isinstance(value, bool):
                counters[f"{s.name}.{key}"] += value
    return calls, incl, self_s, counters


def layer_metrics(spans, wall_s):
    """Per-layer metrics of one traced CLI call whose traced wall time is wall_s."""
    calls, incl, self_s, n = layer_totals(spans)
    solves = calls["linsolve.solve"]
    per_step = (incl["spatial.lifting"] + incl["problems.reaction"]
                + incl["problems.source"] + incl["coeffs"])
    return {
        "stepper.starter_s": (incl["stepper.starter"], "s"),
        "stepper.starter_nfev": (n["stepper.starter.nfev"], "count"),
        "stepper.step_calls": (calls["stepper.step"], "count"),
        "stepper.step_self_s": (self_s["stepper.step"], "s"),
        "stepper.integrate_s": (incl["stepper.integrate"], "s"),
        "linsolve.solve_s": (incl["linsolve.solve"], "s"),
        "linsolve.solve_self_s": (self_s["linsolve.solve"], "s"),
        "linsolve.solve_calls": (solves, "count"),
        "linsolve.iters": (n["linsolve.solve.iters"], "count"),
        "linsolve.iters_per_solve": (n["linsolve.solve.iters"] / solves if solves else 0.0,
                                     "iters/solve"),
        "spatial.laplacian_calls": (calls["spatial.laplacian"], "count"),
        "spatial.laplacian_s": (incl["spatial.laplacian"], "s"),
        "spatial.laplacian_bytes": (n["spatial.laplacian.bytes"], "B_computed"),
        "spatial.lifting_calls": (calls["spatial.lifting"], "count"),
        "spatial.lifting_s": (incl["spatial.lifting"], "s"),
        "spatial.eval_interior_calls": (calls["spatial.eval_interior"], "count"),
        "spatial.eval_interior_s": (incl["spatial.eval_interior"], "s"),
        "problems.reaction_calls": (calls["problems.reaction"], "count"),
        "problems.reaction_s": (incl["problems.reaction"], "s"),
        "problems.source_calls": (calls["problems.source"], "count"),
        "problems.source_s": (incl["problems.source"], "s"),
        "coeffs.calls": (calls["coeffs"], "count"),
        "coeffs.s": (incl["coeffs"], "s"),
        "timegrid.calls": (calls["timegrid"], "count"),
        "timegrid.s": (incl["timegrid"], "s"),
        "analysis.self_s": (self_s["analysis.sweep"] + self_s["analysis.error"], "s"),
        "analysis.error_s": (incl["analysis.error"], "s"),
        "cli.config_s": (incl["cli.config"], "s"),
        "cli.artifact_s": (incl["cli.artifact"], "s"),
        "share.starter": (incl["stepper.starter"] / wall_s, "frac"),
        "share.linsolve": (incl["linsolve.solve"] / wall_s, "frac"),
        "share.lifting_problems_coeffs": (per_step / wall_s, "frac"),
        "trace.spans": (len(spans), "count"),
    }
