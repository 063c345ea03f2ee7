"""Spans around orbitsep's public functions, recorded from outside the package.

Each listed function is replaced, at every orbitsep.* module binding of that
function object, by a wrapper that records a span: name, start, end, parent
span, op id, and the exception type when one escapes.  Spans stay in memory;
counts that need the call's arguments or result are taken after the op ends,
outside its wall time.  Per-layer metrics are derived from the span list.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import sys
import time
from pathlib import Path

# (module, function) -> span name.  Span names are the stage names the
# program's own tracing should reuse.
SPANS = {
    ("io", "read_signal_json"): "io.read",
    ("io", "read_image_csv"): "io.read",
    ("io", "read_pgm"): "io.read",
    ("io", "emit_json"): "io.emit",
    ("io", "write_output"): "io.emit",
    ("groups", "make_group"): "groups",
    ("groups", "shift_action_spec"): "groups",
    ("groups", "to_fourier"): "groups",
    ("groups", "enumerate_group"): "groups.enumerate",
    ("exponents", "build_exponent_table"): "exponents.table",
    ("transforms", "eval_monomial_map"): "transforms.F",
    ("transforms", "eval_phase_map"): "transforms.Theta",
    ("transforms", "eval_norm_scaled"): "transforms.PhiF",
    ("transforms", "eval_lowdim"): "transforms.Phi",
    ("transforms", "default_reduction"): "transforms.reduction",
    ("transforms", "lipschitz_bound"): "transforms.reduction",
    ("hermite", "hermite_multiplier"): "hermite.reduce",
    ("hermite", "hermite_normal_form"): "hermite.hnf",
    ("hermite", "integer_determinant"): "hermite.det",
    ("hermite", "scaling_vector"): "hermite.solve",
    ("hermite", "eval_rational_invariants"): "hermite.eval",
    ("hermite", "eval_scaled_invariants"): "hermite.eval",
    ("metric", "orbit_distance"): "metric.orbit_distance",
    ("metric", "lipschitz_ratio_scan"): "metric.scan",
    ("cli", "main"): "cli",
}
LAYERS = ("io", "groups", "exponents", "transforms", "hermite", "metric", "cli")
TRANSFORM_SPANS = ("transforms.F", "transforms.Theta", "transforms.PhiF", "transforms.Phi")
SELF_MS = (
    "exponents.table", *TRANSFORM_SPANS, "transforms.reduction", "io.read", "io.emit",
    "groups", "groups.enumerate", "metric.orbit_distance", "metric.scan",
    "hermite.reduce", "hermite.hnf", "hermite.det", "hermite.solve", "hermite.eval", "cli",
)

# Per-layer metric -> span names it is derived from (absent if none is wrapped).
METRIC_SOURCES = {
    **{f"{name}.self_ms": (name,) for name in SELF_MS},
    "exponents.table.calls": ("exponents.table",),
    "exponents.table.components": ("exponents.table",),
    "exponents.table.repeat_share": ("exponents.table",),
    "exponents.table.max_exponent": ("exponents.table",),
    "transforms.components": TRANSFORM_SPANS,
    "io.emit.bytes": ("io.emit",),
    "groups.enumerate.elements": ("groups.enumerate",),
    "metric.orbit_distance.calls": ("metric.orbit_distance",),
    "metric.elements_scanned": ("metric.orbit_distance",),
    "hermite.reduce.calls": ("hermite.reduce",),
    "hermite.max_entry_bits": ("hermite.hnf",),
    **{f"{layer}.errors": ("cli",) for layer in LAYERS},
}

NAME, START, END, PARENT, OP, ERROR, COUNTS = range(7)


def _table_counts(args, kwargs, table):
    exps = (e for _, comp in table.components() for e in comp)
    return {"components": table.total_dim, "max_exponent": max(exps, default=0),
            "key": (table.group, kwargs.get("max_tuple_size", args[1] if len(args) > 1 else 3))}


def _bits(args, kwargs, result):
    return {"bits": max((abs(v).bit_length() for m in result for row in m for v in row), default=0)}


# (module, function) -> counts taken from the call's arguments and result.
COUNTERS = {
    ("exponents", "build_exponent_table"): _table_counts,
    ("io", "write_output"): lambda a, k, r: {"bytes": len(a[0].encode())},
    ("groups", "enumerate_group"): lambda a, k, r: {"elements": len(r)},
    ("hermite", "hermite_normal_form"): _bits,
    **{key: (lambda a, k, r: {"components": len(r.values)})
       for key, name in SPANS.items() if name in TRANSFORM_SPANS},
}


class Tracer:
    """Records spans while installed; uninstall() restores the originals."""

    def __init__(self):
        self.spans: list = []
        self.op_id = -1
        self._stack: list = []
        self._pending: list = []  # (span index, counter, args, kwargs, result)
        self._restore: list = []
        self.wrapped: set = set()
        self.missing: list = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "orbitsep" or name.startswith("orbitsep."))]
        for (mod_name, func_name), span in SPANS.items():
            try:
                original = getattr(importlib.import_module(f"orbitsep.{mod_name}"), func_name)
            except (ImportError, AttributeError):
                self.missing.append(f"orbitsep.{mod_name}.{func_name}")
                continue
            wrapper = self._wrap(span, original, COUNTERS.get((mod_name, func_name)))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))
            self.wrapped.add(span)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn, counter):
        spans, stack, pending = self.spans, self._stack, self._pending
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op_id, None, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                pending.append((index, counter, args, kwargs, result))
            return result

        return wrapper

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    def end_op(self) -> None:
        """Take the deferred counts and drop the references they needed."""
        for index, counter, args, kwargs, result in self._pending:
            self.spans[index][COUNTS] = counter(args, kwargs, result)
        self._pending.clear()

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                counts = span[COUNTS]
                if counts and "key" in counts:
                    counts = {k: v for k, v in counts.items() if k != "key"}
                fh.write(json.dumps([*span[:COUNTS], counts]) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def error_layer(spans, op_id: int) -> str:
    """Layer of the innermost span that raised in the op, else 'cli'."""
    raised = [s for s in spans if s[OP] == op_id and s[ERROR] is not None]
    if not raised:
        return "cli"
    return min(raised, key=lambda s: s[END])[NAME].split(".")[0]


def elements_scanned(spans):
    """Elements the orbit distance scanned: those enumerated by the
    groups.enumerate spans directly under each metric.orbit_distance call
    that returned.  None when such a call enumerated nothing the tracer saw,
    so the count cannot be seen from outside."""
    calls = {i for i, s in enumerate(spans) if s[NAME] == "metric.orbit_distance" and s[ERROR] is None}
    seen, total = set(), 0
    for s in spans:
        if s[NAME] == "groups.enumerate" and s[PARENT] in calls and s[COUNTS]:
            seen.add(s[PARENT])
            total += s[COUNTS]["elements"]
    return total if seen == calls else None


def layer_metrics(tracer: Tracer, failed_ops, attempted: int) -> tuple:
    """Per-layer metrics and the names of those absent because a traced
    function no longer exists."""
    spans = tracer.spans
    self_ms = dict.fromkeys(SELF_MS, 0.0)
    for s, t in zip(spans, self_times(spans)):
        self_ms[s[NAME]] += t * 1e3

    def counts(name):
        return [s[COUNTS] for s in spans if s[NAME] == name and s[COUNTS]]

    tables = counts("exponents.table")
    keys = [c["key"] for c in tables]
    outermost = [s[COUNTS]["components"] for s in spans
                 if s[NAME] in TRANSFORM_SPANS and s[COUNTS]
                 and (s[PARENT] < 0 or spans[s[PARENT]][NAME] not in TRANSFORM_SPANS)]
    errors = collections.Counter(error_layer(spans, op_id) for op_id in failed_ops)
    metrics = {f"{name}.self_ms": self_ms[name] / max(1, attempted) for name in SELF_MS}
    metrics.update({
        "exponents.table.calls": len(tables),
        "exponents.table.components": sum(c["components"] for c in tables),
        "exponents.table.repeat_share": (len(keys) - len(set(keys))) / len(keys) if keys else 0.0,
        "exponents.table.max_exponent": max((c["max_exponent"] for c in tables), default=0),
        "transforms.components": sum(outermost),
        "io.emit.bytes": sum(c["bytes"] for c in counts("io.emit")),
        "groups.enumerate.elements": sum(c["elements"] for c in counts("groups.enumerate")),
        "metric.orbit_distance.calls": sum(s[NAME] == "metric.orbit_distance" for s in spans),
        "hermite.reduce.calls": sum(s[NAME] == "hermite.reduce" for s in spans),
        "hermite.max_entry_bits": max((c["bits"] for c in counts("hermite.hnf")), default=0),
        **{f"{layer}.errors": errors[layer] for layer in LAYERS},
    })
    absent = [m for m, sources in METRIC_SOURCES.items() if not any(src in tracer.wrapped for src in sources)]
    scanned = elements_scanned(spans)
    if scanned is None:
        absent.append("metric.elements_scanned")
    else:
        metrics["metric.elements_scanned"] = scanned
    absent = sorted(set(absent))
    return {m: metrics[m] for m in METRIC_SOURCES if m not in absent}, absent
