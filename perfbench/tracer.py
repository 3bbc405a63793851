"""Per-layer timing of confpair from outside the program.

`Tracer.install()` replaces every public function of each confpair module,
and every public method of the classes those modules define (plus the
arithmetic operators of `Jet3`), with a wrapper that records a span.  The
references that other modules imported by name, such as
`pair_pipeline.align_frames`, and the functions held in module-level dicts
are rebound too, so a call is timed whichever name it goes through.  Spans
are kept as running sums per name (calls, self time, total time): a span's
self time is its duration minus the time of the spans it directly contains.
The numpy.linalg entry points are counted, not timed, so their time stays
with the layer that calls them.

Nothing in the program changes; `uninstall()` restores every binding.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
from time import perf_counter

import numpy as np

MODULES = ("cli", "conformal_calc", "expr", "extension", "gallery", "indefinite_linalg",
           "jet3", "jets", "lightcone", "pair_pipeline", "regions")

# Jet3 evaluates closed forms through operator overloading; its operators are
# the jet-evaluation layer.
_OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__pow__"}

LINALG = ("svd", "qr", "eigh", "eigvalsh", "eig", "eigvals", "solve", "inv", "pinv",
          "lstsq", "cholesky", "det", "slogdet", "matrix_rank")

# finite-difference stencils, the path that inline value tables take
STENCIL = ("jets.grid_derivative", "jets.scalar_fd_jets", "jets.ImmersionJet.from_values",
           "jets.ImmersionMap.jet_fd")

REPORT_JSON = "cli.report_json"


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _align_points(args, kwargs, result):
    spans = _arg(args, kwargs, 0, "spans")
    mask = _arg(args, kwargs, 3, "mask")
    return int(spans.shape[0] if mask is None else np.count_nonzero(mask))


# counters taken from a call's arguments or result: span name -> (counter, fn)
_COUNTERS = {
    "jets.align_frames": ("jets.align_frames.points", _align_points),
    "jets.fundamental_data": ("jets.fundamental_data.points",
                              lambda a, k, r: _arg(a, k, 0, "jet").chart.npoints),
    "jet3.variables": ("jet3.points", lambda a, k, r: len(_arg(a, k, 0, "points"))),
    "pair_pipeline.analyze_pair": ("pair_pipeline.regions", lambda a, k, r: len(r.regions)),
}


def report_json(report: dict) -> str:
    """The report text exactly as `confpair analyze` writes it."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


class Tracer:
    """Span sums and counters for the confpair layers, reset per operation."""

    def __init__(self):
        self.stats: dict[str, list] = {}     # name -> [calls, self_s, total_s]
        self.counts: dict[str, int] = {}
        self._stack: list[float] = []        # child time of each open span
        self._linalg_depth = 0
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        stats, stack = self.stats, self._stack
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                rec = stats.get(name)
                if rec is None:
                    rec = stats[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur - child
                rec[2] += dur
            if counter is not None:
                key, count = counter
                self.counts[key] = self.counts.get(key, 0) + count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _count_linalg(self, fn):
        counts = self.counts

        def counted(a, *args, **kwargs):
            if self._linalg_depth == 0:
                counts["numpy.linalg.calls"] = counts.get("numpy.linalg.calls", 0) + 1
                shape = np.shape(a)
                counts["numpy.linalg.matrices"] = (counts.get("numpy.linalg.matrices", 0)
                                                   + math.prod(shape[:-2]))
            self._linalg_depth += 1
            try:
                return fn(a, *args, **kwargs)
            finally:
                self._linalg_depth -= 1

        counted.__wrapped__ = fn
        return counted

    def take(self) -> tuple[dict, dict]:
        """Return the sums recorded since the last call and start afresh."""
        stats = {k: list(v) for k, v in self.stats.items()}
        counts = dict(self.counts)
        self.stats.clear()
        self.counts.clear()
        return stats, counts

    # -- installing --------------------------------------------------------

    def _set(self, owner, attr, value):
        # the raw entry, so that a staticmethod is restored as one
        self._undo.append((owner, attr, (owner if isinstance(owner, dict) else vars(owner))[attr]))
        _assign(owner, attr, value)

    def install(self):
        mods = {short: importlib.import_module(f"confpair.{short}") for short in MODULES}
        wrapped: dict = {}  # original function -> wrapper
        for short, mod in mods.items():
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(val):
                    wrapped[val] = self.wrap(f"{short}.{attr}", val)
                    self._set(mod, attr, wrapped[val])
                elif inspect.isclass(val):
                    self._install_class(f"{short}.{attr}", val)
        # references imported by name, and functions kept in module dicts
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._set(mod, attr, wrapped[val])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if inspect.isfunction(item) and item in wrapped:
                            self._set(val, key, wrapped[item])
        for attr in LINALG:
            self._set(np.linalg, attr, self._count_linalg(getattr(np.linalg, attr)))

    def _install_class(self, prefix: str, cls):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _OPERATORS:
                continue
            name = f"{prefix}.{attr}"
            if isinstance(val, staticmethod):
                self._set(cls, attr, staticmethod(self.wrap(name, val.__func__)))
            elif isinstance(val, classmethod):
                self._set(cls, attr, classmethod(self.wrap(name, val.__func__)))
            elif inspect.isfunction(val):
                self._set(cls, attr, self.wrap(name, val))

    def uninstall(self):
        while self._undo:
            _assign(*self._undo.pop())


def _assign(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (metric, unit, better); self_s of a module sums every span of that module
PER_LAYER = [
    ("jets.align_frames.self_s", "s", "lower"),
    ("jets.align_frames.calls", "count", "lower"),
    ("jets.align_frames.points", "count", "lower"),
    ("regions.self_s", "s", "lower"),
    ("regions.axis_neighbors.calls", "count", "lower"),
    ("indefinite_linalg.self_s", "s", "lower"),
    ("indefinite_linalg.orthonormal_columns.calls", "count", "lower"),
    ("numpy.linalg.calls", "count", "lower"),
    ("numpy.linalg.matrices", "count", "lower"),
    ("numpy.linalg.matrices_per_call", "matrices/call", "higher"),
    ("jet3.self_s", "s", "lower"),
    ("jet3.points", "count", "lower"),
    ("jets.fundamental_data.self_s", "s", "lower"),
    ("jets.fundamental_data.calls", "count", "lower"),
    ("jets.fundamental_data.points", "count", "lower"),
    ("pair_pipeline.build_joint.self_s", "s", "lower"),
    ("pair_pipeline.degeneracy_test.self_s", "s", "lower"),
    ("pair_pipeline.analyze_pair.self_s", "s", "lower"),
    ("pair_pipeline.verify_compatibility.self_s", "s", "lower"),
    ("pair_pipeline.regions", "count", "lower"),
    ("jets.stencil.self_s", "s", "lower"),
    ("jets.grid_derivative.calls", "count", "lower"),
    ("extension.generate_conformal_pair.self_s", "s", "lower"),
    ("extension.extension_obstruction.self_s", "s", "lower"),
    ("extension.ruled_extension.self_s", "s", "lower"),
    ("extension.verify_extension.self_s", "s", "lower"),
    ("lightcone.self_s", "s", "lower"),
    ("conformal_calc.self_s", "s", "lower"),
    ("cli.run_manifest.self_s", "s", "lower"),
    ("cli.report_json.self_s", "s", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.unaccounted_share", "ratio", "lower"),
]


def merge(into: tuple[dict, dict], part: tuple[dict, dict]):
    """Add one operation's (stats, counts) into a pass total."""
    stats, counts = into
    for name, rec in part[0].items():
        acc = stats.setdefault(name, [0, 0.0, 0.0])
        for i in range(3):
            acc[i] += rec[i]
    for name, val in part[1].items():
        counts[name] = counts.get(name, 0) + val


def self_total(stats: dict) -> float:
    return sum(rec[1] for rec in stats.values())


_COUNTED = ("jets.align_frames.points", "jets.fundamental_data.points", "jet3.points",
            "pair_pipeline.regions", "numpy.linalg.calls", "numpy.linalg.matrices")


def layer_values(stats: dict, counts: dict) -> dict[str, float]:
    """Per-layer metric values of one pass (without the trace.* entries)."""
    out: dict[str, float] = {key: counts.get(key, 0) for key in _COUNTED}
    calls = out["numpy.linalg.calls"]
    out["numpy.linalg.matrices_per_call"] = out["numpy.linalg.matrices"] / calls if calls else 0.0
    for metric, _unit, _better in PER_LAYER:
        if metric in out or metric.startswith("trace."):
            continue
        head, kind = metric.rsplit(".", 1)
        if head == "jets.stencil":
            out[metric] = sum(stats[n][1] for n in STENCIL if n in stats)
        elif head in MODULES:
            out[metric] = sum(rec[1] for n, rec in stats.items() if n.split(".")[0] == head)
        else:
            rec = stats.get(head, [0, 0.0, 0.0])
            out[metric] = rec[1] if kind == "self_s" else rec[0]
    return out
