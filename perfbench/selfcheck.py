"""Checks of the benchmark itself (about 70 s).

    python3 perfbench/selfcheck.py

* every seed yields the same command multiset, and seeds do reorder;
* ``BENCHMARK.json`` names exactly the workloads defined here, every
  per-layer metric it names is one the span aggregation produces, and
  ``layers.json`` maps each of them to the end-to-end metric it moves;
* a traced and an untraced sample of sym-highspin give identical rows,
  and both match the reference; in the traced one, the self times plus
  the charged times (attribute callbacks, probe ticks) add up to the root
  spans, and no self time is negative;
* the worker's load check flags an extra thread, CPU time of children
  and more CPU time than wall time, and passes a single busy thread;
* negative controls: copies of real reports (sym-highspin and
  grid-refine) with one status flipped, one verdict changed, one slope
  nudged by 0.001, one exact residual raised to 2e-12, one row dropped
  or a non-zero exit code are each caught by the oracle, row by row.

Exits 1 if any check fails.
"""

from __future__ import annotations

import copy
import json
import sys
import threading

import oracle
import run
import spans
import worker
import workloads

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def seeds_keep_multiset() -> None:
    for w in workloads.WORKLOADS:
        base = sorted(map(workloads.command_id, workloads.commands(w, 0)))
        orders = set()
        same = True
        for seed in range(20):
            ids = list(map(workloads.command_id, workloads.commands(w, seed)))
            same = same and sorted(ids) == base
            orders.add(tuple(ids))
        check(same, f"{w}: seeds 0-19 give the same {len(base)} commands")
        if len(base) > 1:
            check(len(orders) > 1, f"{w}: seeds change the command order")


def benchmark_file_matches() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    check(names == list(workloads.WORKLOADS), "BENCHMARK.json lists the defined workloads")
    produced = set(spans.layer_metrics([])) | {
        "trace.run_s", "trace.untraced_run_s", "trace.overhead_s"}
    unknown = [m["name"] for m in bench["per_layer"] if m["name"] not in produced]
    check(not unknown, f"every per-layer metric is produced (unknown: {unknown})")
    layers = json.loads((run.HERE / "layers.json").read_text())["layers"]
    mapped = sorted(m for layer in layers for m in layer["metrics"])
    check(mapped == sorted(m["name"] for m in bench["per_layer"]),
          "layers.json maps every per-layer metric exactly once")


def failures(reference, outputs) -> int:
    return oracle.compare(reference, outputs)[1]


def mutated(outputs, change):
    outs = copy.deepcopy(outputs)
    change(outs)
    return outs


def _row(outputs, pred):
    for o in outputs:
        for c in o["checks"]:
            if pred(c):
                return c
    raise LookupError("no row matches")


def span_ledger(sample: dict) -> None:
    layers = sample["layers"]
    recorded = spans.read_spans(sample["span_file"])
    root_s = sum(s["end"] - s["start"] for s in recorded if s["parent"] < 0) / 1e9
    self_s = [v for k, v in layers.items() if k.endswith(".self_s")]
    booked = sum(self_s) + layers["trace.charged_s"]
    check(abs(booked - root_s) < 1e-6,
          f"sym-highspin: self times + charged {booked:.6f} s = root spans {root_s:.6f} s")
    check(layers["trace.charged_s"] > 0, "sym-highspin: tracer work is charged")
    check(min(self_s) >= 0, f"sym-highspin: no negative self time (min {min(self_s):.2e} s)")


def load_controls() -> None:
    check(worker._load_errors("control", 1.0, 1.0, 0.0) == [],
          "load check: one busy thread passes")
    check(len(worker._load_errors("control", 1.0, 1.0, 0.5)) == 1,
          "load check: CPU time of children is flagged")
    check(len(worker._load_errors("control", 1.0, 1.5, 0.0)) == 1,
          "load check: more CPU than wall time is flagged")
    # last: a joined thread can stay in /proc/self/task for a moment
    stop = threading.Event()
    extra = threading.Thread(target=stop.wait)
    extra.start()
    try:
        errors = worker._load_errors("control", 1.0, 1.0, 0.0)
    finally:
        stop.set()
        extra.join()
    check(len(errors) == 1, f"load check: an extra thread is flagged ({errors})")


def symbolic_controls(runner) -> None:
    ref = oracle.load_reference("sym-highspin")
    plain = runner.worker("run")["outputs"]
    traced_sample = runner.worker("trace")
    span_ledger(traced_sample)
    traced = traced_sample["outputs"]
    check(plain == traced, "sym-highspin: traced and untraced rows are identical")
    check(failures(ref, plain) == 0, "sym-highspin: untraced sample matches the reference")
    check(failures(ref, traced) == 0, "sym-highspin: traced sample matches the reference")

    def flip(outs):
        c = outs[0]["checks"][0]
        c["status"] = "fail" if c["status"] == "pass" else "pass"

    def verdict(outs):
        _row(outs, lambda c: c["name"] == "commutant-dimension")["detail"] = "reducible, dim 2"

    def drop(outs):
        outs[-1]["checks"].pop()

    def exit_code(outs):
        outs[0]["rc"] = 1

    def raised(outs):
        outs[0]["error"] = "RuntimeError: injected"

    n0 = len(plain[0]["checks"])
    for name, change, want in (("flipped status", flip, 1), ("changed verdict", verdict, 1),
                               ("dropped row", drop, 1), ("exit code 1", exit_code, n0),
                               ("raised", raised, n0)):
        got = failures(ref, mutated(plain, change))
        check(got == want, f"sym-highspin control, {name}: {got} failed rows (want {want})")


def grid_controls(runner) -> None:
    ref = oracle.load_reference("grid-refine")
    plain = runner.worker("run")["outputs"]
    check(failures(ref, plain) == 0, "grid-refine: sample matches the reference")

    def nudge(outs):
        c = _row(outs, lambda c: c["detail"].startswith("slope "))
        slope, rest = c["detail"][len("slope "):].split(" ", 1)
        c["detail"] = f"slope {float(slope) + 0.001:.3f} {rest}"

    def exact(outs):
        c = _row(outs, lambda c: c["detail"].startswith("exact "))
        c["detail"] = "exact (residuals 1.000e-16, 2.000e-12, 1.000e-16)"

    def isometry(outs):
        _row(outs, lambda c: "norm preservation" in c["name"])["status"] = "fail"

    for name, change in (("slope +0.001", nudge), ("exact residual 2e-12", exact),
                         ("norm row failed", isometry)):
        got = failures(ref, mutated(plain, change))
        check(got == 1, f"grid-refine control, {name}: {got} failed rows (want 1)")


def main() -> int:
    seeds_keep_multiset()
    benchmark_file_matches()
    load_controls()
    out_dir = run.HERE / "out"
    out_dir.mkdir(exist_ok=True)
    symbolic_controls(run.Runner("sym-highspin", 0, out_dir))
    grid_controls(run.Runner("grid-refine", 0, out_dir))
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
