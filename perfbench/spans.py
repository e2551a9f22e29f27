"""Span tracing from outside the library.

`Tracer.install` wraps the public functions and methods of each prismlab
module and rebinds every name a prismlab module holds for them (for example
`witt_op` inside `derham`), so each call records one span: name, start,
end, parent span and the task it belongs to.  Spans live in flat integer
arrays while the workload runs and are written out when it ends;
`layer_metrics` turns them into the per-layer metrics.

The scalar rings `IntRing`, `RatRing` and `IntModRing`, and the generic
operations they inherit from `Ring`, are not wrapped, and of the other
rings (`PolyQuotRing`, `SeriesCoeffRing`, `B0Ring`) only `mul` is: an
addition, coefficient access or conversion costs less than recording a
span, so its time stays in the self time of the caller.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from types import FunctionType

MODULES = ("ringcore", "witt", "fgl", "intpoly", "qhopf", "pd_dual",
           "cartier_witt", "derham", "qprism", "harness")
LEAF_CLASSES = ("Ring", "IntRing", "RatRing", "IntModRing")
DUNDERS = ("__add__", "__sub__", "__mul__", "__neg__", "__pow__",
           "__call__")

# span flags
ERROR = 1        # an exception escaped the call
HIT = 2          # cache hit (witt_universal, structure_constants) or a
                 # repeated request (canonical_point)
Q_SCALARS = 4    # PolyQuotRing over Fraction scalars
Z_SCALARS = 8    # PolyQuotRing over integer scalars

COLUMNS = ("name", "start", "end", "parent", "task", "flag", "value")
TYPECODES = {"name": "i", "start": "q", "end": "q", "parent": "i",
             "task": "i", "flag": "i", "value": "q"}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.cols = {c: array(TYPECODES[c]) for c in COLUMNS}
        self.task = -1
        self._stack = [-1]
        self._restore: list = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, probe=None, measure=None):
        """A wrapper recording one span per call of fn.  probe(args, kwargs)
        returns flag bits set before the call; measure(result) an integer
        stored with the span."""
        nid = self._name_id(name)
        c = self.cols
        c_name, c_start, c_end = c["name"], c["start"], c["end"]
        c_parent, c_task, c_flag, c_value = (c["parent"], c["task"],
                                             c["flag"], c["value"])
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(c_start)
            c_name.append(nid)
            c_parent.append(stack[-1])
            c_task.append(tracer.task)
            c_flag.append(probe(args, kwargs) if probe else 0)
            c_value.append(0)
            c_end.append(0)
            stack.append(idx)
            c_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                c_end[idx] = clock()
                c_flag[idx] |= ERROR
                stack.pop()
                raise
            c_end[idx] = clock()
            stack.pop()
            if measure is not None:
                c_value[idx] = measure(result)
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every public function and method of the prismlab modules and
        rebind each name that any prismlab module holds for one of them."""
        wrapped: dict = {}
        # import everything first: import-time code must not record spans
        mods = [importlib.import_module("prismlab." + m) for m in MODULES]
        for modname, mod in zip(MODULES, mods):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, FunctionType) and obj.__module__ == mod.__name__:
                    name = "%s.%s" % (modname, attr)
                    probe, measure = _probes(mod, modname, attr)
                    wrapped[obj] = self.wrap(obj, name, probe, measure)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and attr not in LEAF_CLASSES):
                    self._wrap_class(obj, modname)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("prismlab"):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, FunctionType) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
                elif isinstance(obj, list):
                    self._rebind_list(obj, wrapped)

    def _wrap_class(self, cls, modname: str):
        from prismlab.ringcore import Ring
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            if issubclass(cls, Ring) and attr != "mul":
                continue
            name = "%s.%s.%s" % (modname, cls.__name__, attr)
            probe = _polyquot_probe if (cls.__name__ == "PolyQuotRing"
                                        and attr == "mul") else None
            if isinstance(val, FunctionType):
                self._set(cls, attr, self.wrap(val, name, probe))
            elif isinstance(val, (classmethod, staticmethod)):
                self._set(cls, attr, type(val)(self.wrap(val.__func__, name)))

    def _rebind_list(self, items: list, wrapped: dict):
        """Module-level registries such as harness.SUITES hold functions in
        tuples; rebind those too."""
        for i, item in enumerate(items):
            if isinstance(item, tuple) and any(
                    isinstance(x, FunctionType) and x in wrapped
                    for x in item):
                new = tuple(wrapped.get(x, x) if isinstance(x, FunctionType)
                            else x for x in item)
                self._restore.append((items, i, item))
                items[i] = new

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        """Put every original binding back."""
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, list):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    # -- output -------------------------------------------------------------

    def dump(self, path: str):
        """Write the spans: a JSON header line, then the raw columns."""
        header = {"names": self.names, "columns": list(COLUMNS),
                  "count": len(self.cols["start"])}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for c in COLUMNS:
                self.cols[c].tofile(fh)


def load(path: str) -> tuple:
    """(names, columns) as written by Tracer.dump."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for c in header["columns"]:
            a = array(TYPECODES[c])
            a.fromfile(fh, header["count"])
            cols[c] = a
    return header["names"], cols


def _polyquot_probe(args, kwargs):
    scalar = type(args[0].scalar).__name__
    if scalar == "RatRing":
        return Q_SCALARS
    if scalar in ("IntRing", "IntModRing"):
        return Z_SCALARS
    return 0


def _probes(mod, modname: str, attr: str) -> tuple:
    """Counters recorded at a boundary: cache hits and table sizes."""
    if (modname, attr) == ("witt", "witt_universal"):
        cache = mod._universal_cache

        def probe(args, kwargs):
            key = _args(args, kwargs, ("op", "p", "L"), {})
            return HIT if key in cache else 0

        def measure(polys):
            return sum(len(s.coeffs) for s in polys)
        return probe, measure
    if (modname, attr) == ("qhopf", "structure_constants"):
        cache = mod._gamma_cache

        def probe(args, kwargs):
            m, n = _args(args, kwargs, ("m", "n"), {})
            return HIT if (min(m, n), max(m, n)) in cache else 0
        return probe, None
    if (modname, attr) == ("qprism", "canonical_point"):
        seen: set = set()

        def probe(args, kwargs):
            key = _args(args, kwargs, ("p", "n_p", "n_q", "L"), {"L": 2})
            hit = key in seen
            seen.add(key)
            return HIT if hit else 0
        return probe, None
    return None, None


def _args(args, kwargs, names, defaults) -> tuple:
    """The leading parameters of a call, by position or keyword."""
    return tuple(args[i] if i < len(args) else kwargs.get(n, defaults.get(n))
                 for i, n in enumerate(names))


# ---------------------------------------------------------------------------
# metrics from spans


def self_times(cols) -> array:
    """Self time of every span in ns: its duration minus the part of its
    interval that its child spans cover (overlapping children count once)."""
    start, end, parent = cols["start"], cols["end"], cols["parent"]
    n = len(start)
    covered = array("q", bytes(8 * n))
    reach = array("q", start)      # end of the part covered so far
    # a Tracer records spans in start order; other inputs get sorted
    in_order = all(start[i] <= start[i + 1] for i in range(n - 1))
    for i in (range(n) if in_order else
              sorted(range(n), key=start.__getitem__)):
        par = parent[i]
        if par < 0:
            continue
        lo = max(start[i], reach[par])
        hi = min(end[i], end[par])
        if hi > lo:
            covered[par] += hi - lo
        reach[par] = max(reach[par], hi)
    for i in range(n):
        covered[i] = end[i] - start[i] - covered[i]
    return covered


GHOST = ("witt.ghost", "witt.ghost_in_ring", "witt.from_ghost",
         "witt.from_ghost_exact")
BIGWITT_FUNCS = ("witt.teichmuller_big", "witt.teich_mul",
                 "witt.ghost_big_in_ring", "witt.ghost_big",
                 "witt.from_ghost_big", "witt.bigwitt_mul",
                 "witt.frobenius_big", "witt.bigwitt_scalar_mul")

# layer -> selector of its spans by (span name, span flags)
LAYERS = {
    "witt.eval_int_poly": lambda n, f: n == "witt.eval_int_poly",
    "witt.ghost": lambda n, f: n in GHOST,
    "witt.bigwitt": lambda n, f: (n in BIGWITT_FUNCS
                                  or n.startswith("witt.BigWitt.")),
    "witt.witt_op": lambda n, f: n == "witt.witt_op",
    "witt.scalar_mul": lambda n, f: n == "witt.scalar_mul",
    "ringcore.polyquot_mul_q": lambda n, f: (n == "ringcore.PolyQuotRing.mul"
                                             and f & Q_SCALARS),
    "ringcore.polyquot_mul_z": lambda n, f: (n == "ringcore.PolyQuotRing.mul"
                                             and f & Z_SCALARS),
    "ringcore.series_mul": lambda n, f: n == "ringcore.TruncSeries.__mul__",
    "ringcore.series_subs": lambda n, f: n == "ringcore.TruncSeries.subs",
    "ringcore.series_inverse": lambda n, f: n == "ringcore.series_inverse",
    "qhopf.structure_constants": lambda n, f: n == "qhopf.structure_constants",
    "qhopf.adams": lambda n, f: n == "qhopf.adams",
    "qhopf.b0_mul": lambda n, f: n == "qhopf.b0_mul",
    "qprism.canonical_point": lambda n, f: n == "qprism.canonical_point",
    "derham.witt_series_eval": lambda n, f: n == "derham.witt_series_eval",
}
LAYER_CALLS = ("witt.eval_int_poly", "witt.witt_op", "witt.scalar_mul",
               "ringcore.polyquot_mul_q", "ringcore.polyquot_mul_z",
               "ringcore.series_mul", "ringcore.series_subs",
               "ringcore.series_inverse", "qhopf.structure_constants",
               "qprism.canonical_point", "derham.witt_series_eval")
LAYER_SELF = ("witt.eval_int_poly", "witt.ghost", "witt.bigwitt",
              "witt.witt_op", "witt.scalar_mul", "ringcore.polyquot_mul_q",
              "ringcore.polyquot_mul_z", "ringcore.series_mul",
              "ringcore.series_subs", "ringcore.series_inverse",
              "qhopf.adams", "qhopf.b0_mul", "qprism.canonical_point",
              "derham.witt_series_eval")
MODULE_CALLS = ("fgl", "intpoly", "pd_dual", "cartier_witt")


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {"witt.universal.builds": "count", "witt.universal.build_s": "s",
             "witt.universal.monomials": "count",
             "witt.universal.hit_ratio": "ratio",
             "qhopf.structure_constants.hit_ratio": "ratio",
             "qprism.canonical_point.repeat_ratio": "ratio"}
    for layer in LAYER_CALLS:
        units[layer + ".calls"] = "count"
    for layer in LAYER_SELF:
        units[layer + ".self_s"] = "s"
    for mod in MODULE_CALLS:
        units[mod + ".calls"] = "count"
    for mod in MODULES:
        units[mod + ".self_s"] = "s"
        units[mod + ".errors"] = "count"
    units["harness.checks"] = "count"
    units["harness.checks_failed"] = "count"
    units["trace_overhead"] = "ratio"
    return units


def layer_metrics(names: list, cols) -> dict:
    """Per-layer counts and self times (in s) from one traced run."""
    selfs = self_times(cols)
    name_col, flag, value = cols["name"], cols["flag"], cols["value"]
    start, end = cols["start"], cols["end"]
    out = {k: 0 for k, unit in metric_units().items()
           if k not in ("harness.checks", "harness.checks_failed",
                        "trace_overhead")}
    selectors = list(LAYERS.items())
    hits: dict = {}
    universal_calls = universal_hits = 0
    for i in range(len(selfs)):
        name, f = names[name_col[i]], flag[i]
        module = name.split(".", 1)[0]
        out[module + ".self_s"] += selfs[i]
        if f & ERROR:
            out[module + ".errors"] += 1
        if module in MODULE_CALLS:
            out[module + ".calls"] += 1
        for layer, sel in selectors:
            if sel(name, f):
                if layer + ".calls" in out:
                    out[layer + ".calls"] += 1
                if layer + ".self_s" in out:
                    out[layer + ".self_s"] += selfs[i]
                if f & HIT:
                    hits[layer] = hits.get(layer, 0) + 1
        if name == "witt.witt_universal":
            universal_calls += 1
            if f & HIT:
                universal_hits += 1
            else:
                out["witt.universal.builds"] += 1
                out["witt.universal.build_s"] += end[i] - start[i]
                out["witt.universal.monomials"] += value[i]
    out["witt.universal.build_s"] /= 1e9
    out["witt.universal.hit_ratio"] = _ratio(universal_hits, universal_calls)
    out["qhopf.structure_constants.hit_ratio"] = _ratio(
        hits.get("qhopf.structure_constants", 0),
        out["qhopf.structure_constants.calls"])
    out["qprism.canonical_point.repeat_ratio"] = _ratio(
        hits.get("qprism.canonical_point", 0),
        out["qprism.canonical_point.calls"])
    for k in out:
        if k.endswith(".self_s"):
            out[k] /= 1e9
    return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
