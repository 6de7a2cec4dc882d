"""Spans around the calls into each `stabvax` layer, installed from outside.

Nothing here edits the package: `install` replaces public functions (and the
numpy/scipy kernels the package looks up at call time) with wrappers in every
module namespace that holds them. Spans hold a name, start, end, parent index
and optional attributes; they stay in memory and are written out when the
run ends. Forked sweep workers inherit the wrappers, drop what they inherited
and write their own spans at worker exit.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import sys
import time
from collections import Counter
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    def __init__(self, spool: Path):
        self.spool = spool
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()

    def _adopt_forked_worker(self) -> None:
        """In a forked worker, forget the parent's spans and flush at exit."""
        self.pid = os.getpid()
        self.spans, self.stack, self.counters = [], [], Counter()
        multiprocessing.util.Finalize(self, self.write, exitpriority=10)

    def wrap(self, name: str, fn, attrs=None):
        """Wrapper recording a span; attrs(result) adds attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                self._adopt_forked_worker()
            idx = len(self.spans)
            span = [name, _clock(), 0.0, self.stack[-1] if self.stack else -1, None]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = {"raised": type(exc).__name__}
                raise
            else:
                if attrs is not None:
                    span[4] = attrs(result, args, kwargs)
                return result
            finally:
                span[2] = _clock()
                self.stack.pop()

        return traced

    def counting(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)
        return counted

    def write(self) -> None:
        self.spool.mkdir(parents=True, exist_ok=True)
        (self.spool / f"spans-{self.pid}.json").write_text(json.dumps(
            {"pid": self.pid, "spans": self.spans, "counters": dict(self.counters)}))


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------

def _stats_attrs(result, args, kwargs):
    stats = result[-1]
    return {"cuts": stats.cuts, "iterations": stats.iterations}


def _allocation_attrs(result, args, kwargs):
    return {"doses": result.doses, "method": result.stats.method,
            "satisfied": bool(result.certificate.satisfied)}


def _bisection_attrs(result, args, kwargs):
    budget = kwargs.get("budget", args[4] if len(args) > 4 else None)
    return {"budget": float(budget)}


def _trajectory_attrs(result, args, kwargs):
    return {"clamp_events": int(result.clamp_events)}


def _dim_attrs(result, args, kwargs):
    return {"dim": int(args[0].shape[0])}


# (module, function, span name, attrs); the same function object is wrapped
# under the same span name in every stabvax module that imported it
PUBLIC = (
    ("ingest", "synthetic_instance", "ingest.synthetic_instance", None),
    ("model", "calibrate_transmission", "model.calibrate_transmission", None),
    ("model", "build_flow_matrix", "model.build_flow_matrix", None),
    ("model", "check_decay_certificate", "model.check_decay_certificate", None),
    ("allocator", "max_decay_binary_search", "allocator.max_decay_binary_search",
     _bisection_attrs),
    ("allocator", "solve_allocation", "allocator.solve_allocation",
     _allocation_attrs),
    ("allocator", "lmi_box_maximize", "allocator.lmi_box_maximize", _stats_attrs),
    ("allocator", "spectral_box_minimize", "allocator.spectral_box_minimize",
     _stats_attrs),
    ("dynamics", "simulate_policy", "dynamics.simulate_policy", _trajectory_attrs),
    ("dynamics", "integrate", "dynamics.integrate", None),
    ("policies", "emit_doses", "policies.emit_doses", None),
    ("bubar", "solve_bubar_allocation", "bubar.solve_bubar_allocation", None),
    ("bubar", "simulate_bubar", "bubar.simulate_bubar", None),
    ("cli", "main", "cli.main", None),
    ("cli", "_write_atomic", "cli.io", None),
    ("cli", "_sweep_point", "cli.sweep_point", None),
)

# kernels the package looks up as attributes at call time
KERNELS = (
    ("scipy.optimize", "linprog", "kernel.lp"),
    ("numpy.linalg", "eig", "kernel.eig"),
    ("numpy.linalg", "eigvals", "kernel.eig"),
    ("numpy.linalg", "eigh", "kernel.eig"),
    ("numpy.linalg", "eigvalsh", "kernel.eig"),
    ("scipy.linalg", "eig", "kernel.eig"),
    ("scipy.linalg", "eigvals", "kernel.eig"),
    ("scipy.linalg", "eigh", "kernel.eig"),
    ("scipy.linalg", "eigvalsh", "kernel.eig"),
    ("numpy.linalg", "inv", "kernel.inv"),
    ("scipy.linalg", "inv", "kernel.inv"),
)

RHS_FACTORIES = (("dynamics", "covid_rhs_factory"), ("bubar", "bubar_rhs_factory"))

# spans that start a CLI call: cli.main, and _sweep_point in a sweep worker
ROOTS = ("cli.main", "cli.sweep_point")


def install(tracer: Tracer) -> None:
    """Install every wrapper; call once, after importing stabvax.cli."""
    from stabvax import dynamics, policies

    mods = [m for name, m in sys.modules.items()
            if name.startswith("stabvax.") and m is not None]
    for mod_name, fn_name, span, attrs in PUBLIC:
        original = getattr(importlib.import_module(f"stabvax.{mod_name}"), fn_name)
        wrapped = tracer.wrap(span, original, attrs)
        for mod in mods:
            if getattr(mod, fn_name, None) is original:
                setattr(mod, fn_name, wrapped)
    for mod_name, fn_name, span in KERNELS:
        mod = importlib.import_module(mod_name)
        attrs = None if span == "kernel.lp" else _dim_attrs
        setattr(mod, fn_name, tracer.wrap(span, getattr(mod, fn_name), attrs))
    for mod_name, fn_name in RHS_FACTORIES:
        mod = importlib.import_module(f"stabvax.{mod_name}")
        factory = getattr(mod, fn_name)

        def counted_factory(*args, _factory=factory, **kwargs):
            return tracer.counting("dynamics.rhs", _factory(*args, **kwargs))

        setattr(mod, fn_name, functools.wraps(factory)(counted_factory))
    dynamics.Trajectory.to_csv = tracer.wrap("cli.io", dynamics.Trajectory.to_csv)
    policies.DosePlanner.__init__ = tracer.wrap("policies.DosePlanner",
                                                policies.DosePlanner.__init__)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def load(spool: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(spool.glob("spans-*.json"))]


def summarize(dumps: list[dict]) -> dict:
    """Per span name: calls (counters included), inclusive and self seconds;
    plus the figures derived from span attributes, summed over processes."""
    calls: Counter = Counter()
    incl: Counter = Counter()
    self_s: Counter = Counter()
    derived: Counter = Counter()
    for dump in dumps:
        spans = dump["spans"]
        calls.update(dump["counters"])
        # only calls made by the CLI count, not the benchmark's own checks
        inside = [False] * len(spans)
        covered = [0.0] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            inside[i] = inside[parent] if parent >= 0 else name in ROOTS
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            if not inside[i]:
                continue
            dur = end - start
            calls[name] += 1
            incl[name] += dur
            self_s[name] += dur - covered[i]
            attrs = attrs or {}
            if name == "kernel.eig":
                derived["kernel.eig.m3_sum"] += attrs.get("dim", 0) ** 3
            elif name == "allocator.lmi_box_maximize":
                derived["allocator.cuts"] += attrs.get("cuts", 0)
            elif name == "allocator.spectral_box_minimize":
                derived["allocator.slp_iterations"] += attrs.get("iterations", 0)
            elif name == "dynamics.simulate_policy":
                derived["dynamics.clamp_events"] += attrs.get("clamp_events", 0)
            elif name == "allocator.solve_allocation":
                if "raised" not in attrs:
                    derived["results"] += 1
                    derived["lmi_results"] += attrs["method"] == "lmi-cutting-plane"
                    derived["allocator.uncertified"] += not attrs["satisfied"]
                owner = _ancestor(spans, i, "allocator.max_decay_binary_search")
                if owner >= 0:
                    derived["probes"] += 1
                    budget = (spans[owner][4] or {}).get("budget")
                    if ("raised" not in attrs and budget is not None
                            and attrs["doses"] <= budget + 1e-9 * (1.0 + budget)):
                        derived["feasible_probes"] += 1
    return {"calls": dict(calls), "incl_s": dict(incl), "self_s": dict(self_s),
            "derived": dict(derived)}


def _ancestor(spans, idx: int, name: str) -> int:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return parent
        parent = spans[parent][3]
    return -1
