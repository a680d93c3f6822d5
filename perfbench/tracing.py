"""Per-layer numbers from outside the library: spans and a profile.

The traced pass wraps each public entry point in ``TARGETS`` and records
one span per call: name, start, end, parent span and operation id.  Spans
stay in memory until the run ends.  A module function is replaced in every
module of the package that bound it by import (``cli.act``,
``analytic.is_member_Can``, ...), and ``install`` refuses to proceed if any
reference to an original is left, so a span cannot go missing silently.

``padic`` has no spans: it is called tens of millions of times, so its
numbers come from a separate cProfile pass with no wrappers installed.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
import sys
import time
from collections import defaultdict
from typing import Dict, List

from rigidpadic import padic, series
from rigidpadic.functions import PiecewiseFunction
from rigidpadic.verdict import Verdict

PACKAGE = "rigidpadic"


def _offset_terms(args, _result) -> dict:
    """Taylor-shift work of recenter/translate: (deg+1)(deg+2)/2 when it shifts."""
    f = args[0]
    deg = f.degree
    if deg < 0 or f.ctx.num(args[1]).is_zero:
        return {"terms": 0}
    return {"terms": (deg + 1) * (deg + 2) // 2}


def _leaves_built(args, _result) -> dict:
    return {"leaves": len(args[0].leaves)}


def _refine_sizes(args, result) -> dict:
    a, b = result
    return {"in": len(args[0].leaves) + len(args[1].leaves),
            "out": len(a.leaves) + len(b.leaves)}


def _can_status(_args, result) -> dict:
    return {"indeterminate": int(result.status is Verdict.INDETERMINATE)}


def _leaves_in(args, _result) -> dict:
    f = args[1]
    return {"leaves": len(f.leaves) if isinstance(f, PiecewiseFunction) else 0}


def _series_per_expand(_args, result) -> dict:
    return {"series": sum(len(e.components) for e in result.values())}


def _bytes_in(args, _result) -> dict:
    return {"bytes": len(args[0].encode("utf-8"))}


def _bytes_out(_args, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


#: (span name, defining module, attribute path, attribute hook)
TARGETS = [
    ("series.recenter", "series", "TateSeries.recenter", _offset_terms),
    ("series.translate", "series", "TateSeries.translate", _offset_terms),
    ("series.raw_mobius", "series", "TateSeries.raw_mobius", None),
    ("series.mul", "series", "TateSeries.__mul__", None),
    ("series.mobius_twist", "series", "TateSeries.mobius_twist", None),
    ("series.evaluate_tracked", "series", "TateSeries.evaluate_tracked", None),
    ("functions.construct", "functions", "PiecewiseFunction.__init__", _leaves_built),
    ("functions.refine", "functions", "PiecewiseFunction.refine", None),
    ("functions.common_refinement", "functions", "PiecewiseFunction.common_refinement",
     _refine_sizes),
    ("functions.is_member_Can", "functions", "is_member_Can", _can_status),
    ("actions.act", "actions", "act", _leaves_in),
    ("actions.act_cell", "actions", "act_cell", None),
    ("actions.act_smooth", "actions", "act_smooth", _leaves_in),
    ("actions.act_locally_algebraic", "actions", "act_locally_algebraic", None),
    ("analytic.bound_report", "analytic", "bound_report", None),
    ("analytic.expand_all", "analytic", "expand_all", _series_per_expand),
    ("analytic.is_analytic_vector", "analytic", "is_analytic_vector", None),
    ("analytic.orbit_membership", "analytic", "orbit_membership", None),
    ("analytic.cokernel_equal", "analytic", "cokernel_equal", None),
    ("io.load", "io", "load", _bytes_in),
    ("io.wrap", "io", "wrap", _bytes_out),
    ("galois.in_S_star", "galois", "in_S_star", None),
    ("galois.in_S_cris", "galois", "in_S_cris", None),
    ("galois.ext1_dimension", "galois", "ext1_dimension", None),
    ("cli.main", "cli", "main", None),
]

LAYERS = ("series", "functions", "actions", "analytic", "io", "galois", "cli")

# span record fields
NAME, START, END, PARENT, OP, CHILD_NS, ATTRS = range(7)


class Tracer:
    """In-memory span recorder; ``op_id`` tags spans of the current operation."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op_id = -1
        self._restore: List[tuple] = []

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0, 0, parent, self.op_id, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ATTRS] = {"exc": type(exc).__name__}
                raise
            finally:
                end = rec[END] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD_NS] += end - rec[START]
            if hook is not None:
                rec[ATTRS] = hook(args, result)
            return result

        return traced

    def install(self, extra_modules=()) -> None:
        """Wrap every target wherever it is bound; raise if one is missed."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        modules += list(extra_modules)
        originals = {}
        for name, mod_name, path, hook in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[attr]
                self._restore.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(name, fn, hook))
                continue
            fn = getattr(owner, path)
            wrapped = self._wrap(name, fn, hook)
            originals[id(fn)] = fn
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, wrapped)
        for mod in modules:
            for key, value in vars(mod).items():
                if id(value) in originals and value is originals[id(value)]:
                    self.uninstall()
                    raise RuntimeError(f"{mod.__name__}.{key} still holds an unwrapped target")

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()


def _attr_values(spans, name: str, key: str) -> list:
    """The `key` attribute of every `name` span that returned normally."""
    return [s[ATTRS][key] for s in spans if s[NAME] == name and s[ATTRS] and key in s[ATTRS]]


def _attr_sum(spans, name: str, key: str) -> int:
    return sum(_attr_values(spans, name, key))


def _attr_mean(spans, name: str, key: str) -> float:
    values = _attr_values(spans, name, key)
    return _ratio(sum(values), len(values))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(spans: List[list]) -> Dict[str, float]:
    """Per-layer metrics of the traced pass (times in seconds)."""
    self_ns: Dict[str, int] = defaultdict(int)
    incl_ns: Dict[str, int] = defaultdict(int)
    calls: Dict[str, int] = defaultdict(int)
    under_actions = [False] * len(spans)
    recenter_in_actions = 0
    for i, s in enumerate(spans):
        name = s[NAME]
        dur = s[END] - s[START]
        self_ns[name.split(".")[0]] += dur - s[CHILD_NS]
        incl_ns[name] += dur
        calls[name] += 1
        parent = s[PARENT]
        under_actions[i] = name.startswith("actions.") or (parent >= 0 and under_actions[parent])
        if name == "series.recenter" and under_actions[i]:
            recenter_in_actions += 1

    def sec(ns: int) -> float:
        return ns / 1e9

    shift_terms = (_attr_sum(spans, "series.recenter", "terms")
                   + _attr_sum(spans, "series.translate", "terms"))
    shift_ns = incl_ns["series.recenter"] + incl_ns["series.translate"]
    leaves_in = (_attr_sum(spans, "actions.act", "leaves")
                 + _attr_sum(spans, "actions.act_smooth", "leaves"))
    out = {f"{layer}.self_s": sec(self_ns[layer]) for layer in LAYERS}
    out.update({
        "series.recenter_calls": calls["series.recenter"],
        "series.translate_calls": calls["series.translate"],
        "series.raw_mobius_s": sec(incl_ns["series.raw_mobius"]),
        "series.mul_s": sec(incl_ns["series.mul"]),
        "series.shift_terms": shift_terms,
        "series.shift_ns_per_term": _ratio(shift_ns, shift_terms),
        "functions.construct_s": sec(incl_ns["functions.construct"]),
        "functions.leaves_built": _attr_sum(spans, "functions.construct", "leaves"),
        "functions.refine_yield": _ratio(
            _attr_sum(spans, "functions.common_refinement", "in"),
            _attr_sum(spans, "functions.common_refinement", "out")),
        "functions.member_can_s": sec(incl_ns["functions.is_member_Can"]),
        "functions.indeterminate_ratio": _attr_mean(
            spans, "functions.is_member_Can", "indeterminate"),
        "actions.act_s": sec(incl_ns["actions.act"]),
        "actions.act_cell_s": sec(incl_ns["actions.act_cell"]),
        "actions.leaves_in": leaves_in,
        "actions.recenter_per_leaf": _ratio(recenter_in_actions, leaves_in),
        "analytic.bound_report_s": sec(incl_ns["analytic.bound_report"]),
        "analytic.expand_all_calls": calls["analytic.expand_all"],
        "analytic.series_per_expand": _attr_mean(spans, "analytic.expand_all", "series"),
        "analytic.membership_s": sec(incl_ns["analytic.is_analytic_vector"]
                                     + incl_ns["analytic.orbit_membership"]),
        "analytic.cokernel_equal_s": sec(incl_ns["analytic.cokernel_equal"]),
        "io.load_s": sec(incl_ns["io.load"]),
        "io.wrap_s": sec(incl_ns["io.wrap"]),
        "io.bytes_in": _attr_sum(spans, "io.load", "bytes"),
        "io.bytes_out": _attr_sum(spans, "io.wrap", "bytes"),
        "galois.calls": sum(calls[n] for n in calls if n.startswith("galois.")),
        "cli.main_s": sec(incl_ns["cli.main"]),
        "cli.uncaught": sum(1 for s in spans if s[NAME] == "cli.main" and s[ATTRS]
                            and s[ATTRS].get("exc") not in (None, "SystemExit")),
    })
    return out


def _key(fn) -> tuple:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def profile_metrics(prof: cProfile.Profile, top: int = 5):
    """padic call counts and self-time share, the profiled counts of two
    traced metrics (to cross-check the passes) and the top functions by
    self time."""
    stats = pstats.Stats(prof).stats
    total = sum(entry[2] for entry in stats.values())

    def calls(fn) -> int:
        entry = stats.get(_key(fn))
        return entry[1] if entry else 0

    padic_tt = sum(entry[2] for key, entry in stats.items() if key[0] == padic.__file__)
    metrics = {
        "padic.mul_calls": calls(padic.PadicNumber.__mul__),
        "padic.add_calls": calls(padic.PadicNumber.__add__),
        "padic.alloc_calls": calls(padic.PadicNumber.__init__),
        "padic.binom_calls": calls(padic.PadicContext.binom),
        "padic.self_share": _ratio(padic_tt, total),
    }
    cross = {"series.recenter_calls": calls(series.TateSeries.recenter),
             "series.translate_calls": calls(series.TateSeries.translate)}
    ranked = sorted(stats.items(), key=lambda kv: kv[1][2], reverse=True)[:top]
    top_rows = [{"function": f"{key[0].rsplit('/', 1)[-1]}:{key[1]}({key[2]})",
                 "tottime_s": entry[2], "share": _ratio(entry[2], total), "calls": entry[1]}
                for key, entry in ranked]
    return metrics, cross, top_rows
