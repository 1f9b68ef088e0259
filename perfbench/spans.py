"""Per-layer tracing from outside the program.

The worker wraps public callables of each ``poincarelab`` module in
span-recording wrappers (``Tracer.install``), keeps the spans in memory
and writes them out as JSON lines when the sample ends.  The parent
turns a span file into per-layer metrics (``layer_metrics``).

A span is ``{"id", "parent", "name", "start", "end", "sample", "attrs",
"charged"}`` with times in nanoseconds of ``time.perf_counter_ns``;
``parent`` is -1 for a root span.  ``charged`` is benchmark work done
while the span was the innermost open one: a child's attribute callback,
which runs after the child ends, and the speed probe's timer ticks.  It
is taken off the span's times: self time is the span's duration minus
the durations of its direct children (which nest inside it because the
worker is single threaded) minus its own charged time, and inclusive
time is the duration minus the charged time of the span and all its
descendants.  So the self times plus the charged times of all spans add
up to the durations of the root spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict


def _nullspace_attrs(tracer, args, result):
    rows, ncols = args
    return {"cells": len(rows) * ncols}


def _pair_attrs(tracer, args, result):
    """Number the distinct operand pairs, keyed as the product memo is."""
    a, b = args
    key = (a.frozen(), b.frozen())
    return {"pair": tracer.pairs.setdefault(key, len(tracer.pairs))}


def _apply_attrs(tracer, args, result):
    op, state = args
    n = state.grid.points
    return {
        "n": n,
        "points": op.blocks * n**3 * state.spin.dim,
        "bytes": state.values.nbytes + result.values.nbytes,
    }


# (module, attribute path, span name, attrs(tracer, args, result) or None)
TARGETS = (
    ("exactnum", "nullspace", "exactnum.nullspace", _nullspace_attrs),
    ("spin_algebra", "spin_commutant_dimension",
     "spin_algebra.spin_commutant_dimension", None),
    ("symop", "ScalarOp.__mul__", "symop.ScalarOp.mul", _pair_attrs),
    ("symop", "ScalarOp.adjoint", "symop.ScalarOp.adjoint", None),
    ("symop", "BlockOp.__mul__", "symop.BlockOp.mul", None),
    ("symop", "Coefficient.eval", "symop.Coefficient.eval", None),
    ("catalog", "build", "catalog.build", None),
    ("catalog", "verify_lie_relations", "catalog.verify_lie_relations", None),
    ("catalog", "verify_discrete_relations",
     "catalog.verify_discrete_relations", None),
    ("catalog", "verify_casimirs", "catalog.verify_casimirs", None),
    ("catalog", "verify_self_adjointness",
     "catalog.verify_self_adjointness", None),
    ("localization", "localization_report",
     "localization.localization_report", None),
    ("localization", "verify_position_axioms",
     "localization.verify_position_axioms", None),
    ("commutant", "reduce_to_constant_blocks",
     "commutant.reduce_to_constant_blocks", None),
    ("commutant", "commutant_basis", "commutant.commutant_basis", None),
    ("gridlab", "apply", "gridlab.apply", _apply_attrs),
    ("gridlab", "residual", "gridlab.residual", None),
    ("gridlab", "inner", "gridlab.inner", None),
    ("gridlab", "sample_gaussian", "gridlab.sample_gaussian", None),
    ("gridlab", "standard_state", "gridlab.standard_state", None),
    ("gridlab", "convergence_study", "gridlab.convergence_study", None),
    ("gridlab", "isometry_defect", "gridlab.isometry_defect", None),
    ("report", "RelationReport.as_dict", "report.RelationReport.as_dict", None),
    ("cli", "main", "cli.main", None),
)

MODULES = ("exactnum", "spin_algebra", "symop", "catalog", "localization",
           "commutant", "gridlab", "report", "cli")


class Tracer:
    """Records spans of wrapped callables for one sample."""

    def __init__(self, sample: int):
        self.sample = sample
        self.spans: list = []
        self.pairs: dict = {}
        self.charged: dict[int, int] = defaultdict(int)
        self._stack: list[int] = []

    def charge(self, ns: int) -> None:
        """Book benchmark work to the innermost open span, if any."""
        if self._stack:
            self.charged[self._stack[-1]] += ns

    def wrap(self, name: str, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (name, parent, start, clock(), None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            extra = None
            if attrs:
                extra = attrs(self, args, result)
                self.charge(clock() - end)  # lands in the parent's time
            spans[sid] = (name, parent, start, end, extra)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every target in every module that refers to it.

        Modules import some functions by name (``commutant`` and
        ``spin_algebra`` both hold ``nullspace``), so each module
        attribute bound to the original object is replaced, not only
        the one in the defining module.
        """
        mods = [importlib.import_module(f"poincarelab.{m}") for m in MODULES]
        for mod_name, path, name, attrs in TARGETS:
            owner = importlib.import_module(f"poincarelab.{mod_name}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, attrs)
            if cls_path:
                setattr(owner, attr, wrapped)
                continue
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, parent, start, end, attrs) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": start, "end": end, "sample": self.sample,
                    "attrs": attrs, "charged": self.charged.get(sid, 0),
                }) + "\n")


def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced sample.

    For every span name: ``.calls``, ``.s`` (inclusive seconds; a span
    nested in a span of the same name is counted once) and ``.self_s``,
    both net of charged time.  Then the derived ones: nullspace cells,
    distinct product operand pairs and their reuse ratio, ``apply`` time
    per grid size, per-call percentiles at N = 128, points per second and
    bytes, and the total charged time ``trace.charged_s``.
    """
    by_id = {s["id"]: s for s in spans}
    child_ns: dict[int, int] = defaultdict(int)
    subtree_charged: dict[int, int] = defaultdict(int)
    for s in sorted(spans, key=lambda s: -s["id"]):  # children before parents
        subtree_charged[s["id"]] += s["charged"]
        if s["parent"] >= 0:
            child_ns[s["parent"]] += s["end"] - s["start"]
            subtree_charged[s["parent"]] += subtree_charged[s["id"]]

    def net_ns(s) -> int:
        return s["end"] - s["start"] - subtree_charged[s["id"]]

    def nested_in_same(s) -> bool:
        p = s["parent"]
        while p >= 0:
            if by_id[p]["name"] == s["name"]:
                return True
            p = by_id[p]["parent"]
        return False

    out: dict[str, float] = defaultdict(float)
    for _mod, _path, name, _attrs in TARGETS:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = out[f"{name}.self_s"] = 0.0
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        by_name[name].append(s)
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (dur - child_ns[s["id"]] - s["charged"]) / 1e9
        if not nested_in_same(s):
            out[f"{name}.s"] += net_ns(s) / 1e9
    # a call that raised has no attrs
    with_attrs = {k: [s for s in v if s["attrs"]] for k, v in by_name.items()}

    out["exactnum.nullspace.cells"] = sum(
        s["attrs"]["cells"] for s in with_attrs.get("exactnum.nullspace", []))
    mul = with_attrs.get("symop.ScalarOp.mul", [])
    distinct = len({s["attrs"]["pair"] for s in mul})
    out["symop.ScalarOp.mul.distinct"] = distinct
    out["symop.ScalarOp.mul.reuse_ratio"] = 1 - distinct / len(mul) if mul else 0.0

    applies = with_attrs.get("gridlab.apply", [])
    for n in (32, 64, 128):
        durs = [net_ns(s) / 1e9 for s in applies if s["attrs"]["n"] == n]
        out[f"gridlab.apply.n{n}.s"] = float(sum(durs))
        out[f"gridlab.apply.n{n}.p50_s"] = _quantile(durs, 0.5)
        out[f"gridlab.apply.n{n}.p90_s"] = _quantile(durs, 0.9)
    apply_s = out["gridlab.apply.s"]
    points = sum(s["attrs"]["points"] for s in applies)
    out["gridlab.apply.mpoints_per_s"] = points / apply_s / 1e6 if apply_s else 0.0
    out["gridlab.apply.bytes_computed"] = sum(s["attrs"]["bytes"] for s in applies)
    out["trace.spans"] = len(spans)
    out["trace.charged_s"] = sum(s["charged"] for s in spans) / 1e9
    return dict(out)


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced samples."""
    return {k: statistics.median(m[k] for m in samples) for k in samples[0]}
