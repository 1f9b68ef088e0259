"""poincarelab benchmark: one workload, fresh worker process per sample.

    python3 perfbench/run.py --workload sym-catalog --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  Workers run one at a time with BLAS/OpenMP thread
counts pinned to 1 and ``PYTHONHASHSEED`` derived from the seed, so the
same seed gives the same inputs.  Each sample is cold, as every CLI
invocation is: empty multiplication memo, empty ``lru_cache``s.

``--trace 0`` starts workers until ``--seconds`` have passed (at least
one), plus set-up-only workers until set-up was timed eight times, and
reports the end-to-end metrics: medians of ``setup_s``, ``run_s`` and
``peak_rss_mb``, with the times rescaled to the reference CPU speed by
the worker's speed probe (``worker.SpeedProbe``).  ``--trace 1`` alternates untraced and traced workers
(at least one of each) and reports the per-layer metrics of the traced
ones, the tracing overhead (traced minus untraced ``run_s``) and checks
that traced and untraced samples produce identical rows.

Every sample's rows are compared with ``perfbench/reference``; the last
line of stdout is ``{"correct", "attempted", "failed", "metrics"}`` and
the exit code is 1 on any mismatch.  ``--record`` runs one sample and
rewrites the workload's reference instead.  The full result, with the
machine description, is also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import spans  # noqa: E402
from worker import PROBE_REF_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 8
DEADLINE_S = 170.0  # every worker must end by then; the run fails otherwise


class BenchError(Exception):
    pass


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


class Runner:
    """Starts workers one at a time and keeps what they report."""

    def __init__(self, workload: str, seed: int, out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.start = time.monotonic()
        self.count = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def worker(self, mode: str) -> dict:
        sample = self.count
        self.count += 1
        env = dict(os.environ)
        # cached bytecode, as an installed package has after its first import
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env.update({
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONHASHSEED": str((self.seed * 1009 + sample) % 4294967295),
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        })
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
               "--workload", self.workload, "--seed", str(self.seed),
               "--sample", str(sample), "--mode", mode]
        span_file = self.out_dir / f"spans-{self.workload}-seed{self.seed}-{sample}.jsonl"
        if mode == "trace":
            cmd += ["--spans", str(span_file)]
        timeout = DEADLINE_S - self.elapsed()
        if timeout <= 0:
            raise BenchError(f"out of time before sample {sample}")
        launch = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"sample {sample} ({mode}) did not end by {DEADLINE_S:.0f} s")
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(
                f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["load_errors"]:
            raise BenchError(f"sample {sample} ({mode}) was not single-threaded: "
                             + "; ".join(result["load_errors"]))
        result["setup_wall_s"] = result["ready"] - launch
        result["setup_s"] = result["setup_wall_s"] * PROBE_REF_S / result["setup_probe_s"]
        result["mode"] = mode
        if mode == "trace":
            result["span_file"] = str(span_file)
            result["layers"] = spans.layer_metrics(spans.read_spans(span_file))
        return result


def _rows(sample: dict) -> list:
    return [(o["id"], o["rc"], o["error"], o["checks"]) for o in sample["outputs"]]


def measure(runner: Runner, seconds: float, trace: bool) -> list[dict]:
    """Samples of one run; set-up-only workers go before and after the
    measured ones so that set-up is timed across the whole run."""
    runner.worker("setup")  # untimed: compiles bytecode once per checkout
    setups = [] if trace else [runner.worker("setup") for _ in range(SETUP_SAMPLES // 2)]
    samples = []
    modes = ("run", "trace") if trace else ("run",)
    while not samples or runner.elapsed() < seconds or len(samples) < len(modes):
        samples.append(runner.worker(modes[len(samples) % len(modes)]))
    if not trace:
        while len(setups) + len(samples) < SETUP_SAMPLES:
            setups.append(runner.worker("setup"))
    return setups + samples


def summarize(samples: list[dict], reference: dict, bench: dict, trace: bool):
    attempted = failed = 0
    problems: list[str] = []
    runs = [s for s in samples if s["mode"] != "setup"]
    for s in runs:
        a, f, p = oracle.compare(reference, s["outputs"])
        attempted += a
        failed += f
        problems += [f"sample {s['mode']}: {x}" for x in p[:5]]
    untraced = [s for s in runs if s["mode"] == "run"]
    if trace:
        base = _rows(untraced[0])
        for s in runs:
            if s["mode"] == "trace" and _rows(s) != base:
                failed += 1
                problems.append("traced rows differ from untraced rows")
        traced = [s for s in runs if s["mode"] == "trace"]
        values = spans.median_metrics([s["layers"] for s in traced])
        values["trace.run_s"] = statistics.median(s["run_s"] for s in traced)
        values["trace.untraced_run_s"] = statistics.median(s["run_s"] for s in untraced)
        values["trace.overhead_s"] = values["trace.run_s"] - values["trace.untraced_run_s"]
        wanted = bench["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in samples),
            "run_s": statistics.median(s["run_s"] for s in untraced),
            "peak_rss_mb": statistics.median(s["peak_rss_kb"] for s in untraced) / 1024,
        }
        wanted = bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics named in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return attempted, failed, problems, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="poincarelab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="run one sample and rewrite the workload's reference")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "poincarelab" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    env = environment()
    runner = Runner(args.workload, args.seed, out_dir)
    try:
        if args.record:
            sample = runner.worker("run")
            path = oracle.write_reference(args.workload, sample["outputs"], env)
            print(f"recorded {path}")
            return 0
        reference = oracle.load_reference(args.workload)
        samples = measure(runner, args.seconds, bool(args.trace))
        attempted, failed, problems, metrics = summarize(
            samples, reference, bench, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for p in problems:
        print(f"mismatch: {p}", file=sys.stderr)
    runs = [s for s in samples if s["mode"] != "setup"]
    timings = ", ".join(f"{s['mode']} {s['run_s']:.3f} s (wall {s['wall_s']:.3f} s)"
                        for s in runs)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(runs)} samples ({timings}), {len(samples)} set-ups, "
          f"{runner.elapsed():.1f} s")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_share {failed / attempted if attempted else 1.0:.6g} ({failed}/{attempted} rows)")
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  env=env, samples=[{k: v for k, v in s.items() if k != "outputs"}
                                    for s in samples])
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
