"""Steadiness evidence: two sets of repeated runs, interleaved across workloads.

    python3 perfbench/steady.py

Runs ``run.py`` with ``--trace 0`` once per (seed, workload) for seeds
1-10, rotating the workload order each repetition so that drift in CPU
speed hits every workload, and does that twice.  For each set and each
end-to-end metric it reports the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
and for each metric the shift of the second set's median from the
first's, each next to the metric's bound in ``BENCHMARK.json``; and for
each workload the log-log slope of body wall time on the speed probe's
loop time, next to the workload's ``SPEED_EXPONENT``.  Writes
``perfbench/results/steadiness.json``.  Exits 1 if a run fails or is
incorrect, or if a spread (other than ``setup_s``'s) or a shift exceeds
its bound.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time

from run import HERE, ROOT, environment
from worker import SPEED_EXPONENT

SEEDS = range(1, 11)
SETS = 2
OUT = HERE / "results" / "steadiness.json"


def one_run(workload: str, seed: int, run_seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(run_seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    record = json.loads((HERE / "out" / f"result-{workload}-seed{seed}-trace0.json").read_text())
    # wall_s, the body's wall time before rescaling to the reference CPU
    # speed, is not a bounded metric; it shows what the rescaling removes.
    samples = [s for s in record["samples"] if s["mode"] == "run"]
    wall_s = statistics.median(s["wall_s"] for s in samples)
    values = {name: m["value"] for name, m in result["metrics"].items()} | {"wall_s": wall_s}
    return {"workload": workload, "seed": seed, "elapsed_s": elapsed, "values": values,
            "samples": [{"wall_s": s["wall_s"], "probe_s": s["probe_s"]} for s in samples]}


def speed_slope(samples: list[dict]) -> float:
    """Log-log slope of body wall time on probe loop time (least squares)."""
    x = [math.log(s["probe_s"]) for s in samples]
    y = [math.log(s["wall_s"]) for s in samples]
    mx, my = statistics.mean(x), statistics.mean(y)
    return (sum((a - mx) * (b - my) for a, b in zip(x, y))
            / sum((a - mx) ** 2 for a in x))


def quartiles(vals: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": vals}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    metrics = list(bounds) + ["wall_s"]

    runs = []
    for set_no in range(SETS):
        for rep, seed in enumerate(SEEDS):
            shift = rep % len(names)
            for w in names[shift:] + names[:shift]:
                try:
                    r = one_run(w, seed, bench["run_seconds"])
                except RuntimeError as exc:
                    print(exc, file=sys.stderr)
                    return 1
                runs.append(r | {"set": set_no})
                print(f"set {set_no} {w} seed {seed}: " + ", ".join(
                    f"{k} {v:.4g}" for k, v in r["values"].items())
                    + f" ({r['elapsed_s']:.0f} s)", flush=True)

    over = []
    summary = {}
    print(f"\n{'workload':14s} {'metric':12s} {'set':>3s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for w in names:
        for name in metrics:
            bound = bounds.get(name)
            sets = [quartiles([r["values"][name] for r in runs
                               if r["workload"] == w and r["set"] == k]) for k in range(SETS)]
            shift = sets[-1]["median"] / sets[0]["median"] - 1
            summary.setdefault(w, {})[name] = {"bound": bound, "sets": sets, "shift": shift}
            for k, q in enumerate(sets):
                print(f"{w:14s} {name:12s} {k:3d} {q['median']:10.4f} {q['q1']:10.4f} "
                      f"{q['q3']:10.4f} {q['spread']:7.3f} {bound or float('nan'):6.2f}")
                if bound is not None and name != "setup_s" and q["spread"] > bound:
                    over.append(f"{w} {name} set {k} spread {q['spread']:.3f}")
            print(f"{w:14s} {name:12s} shift of the median {shift:+.3f}")
            if bound is not None and shift > bound:
                over.append(f"{w} {name} shift {shift:+.3f}")
    elapsed = {w: statistics.mean(r["elapsed_s"] for r in runs if r["workload"] == w)
               for w in names}
    print("mean wall time per run: " + ", ".join(f"{w} {s:.1f} s" for w, s in elapsed.items()))
    slopes = {w: speed_slope([s for r in runs if r["workload"] == w for s in r["samples"]])
              for w in names}
    print("wall time ~ probe loop time ^ slope: " + ", ".join(
        f"{w} {s:.2f} (SPEED_EXPONENT {SPEED_EXPONENT[w]})" for w, s in slopes.items()))
    for o in over:
        print(f"over its bound: {o}")
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps({
        "env": environment(), "run_seconds": bench["run_seconds"],
        "seeds": [SEEDS[0], SEEDS[-1]], "sets": SETS, "mean_elapsed_s": elapsed,
        "speed_slope": slopes, "metrics": summary, "runs": runs,
    }, indent=1) + "\n")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
