"""One benchmark sample, run in a fresh single-threaded process.

    python3 perfbench/worker.py --root . --workload sym-catalog --seed 1 \
        --sample 0 --mode run|trace|setup [--spans FILE]

Set-up imports numpy and ``poincarelab`` from ``<root>/src`` and builds
the workload's command list.  The worker then reports the monotonic
clock reading at which set-up ended (``ready``), so the parent, which
noted the clock before launching it, can time set-up, and the speed
probe's loop time just after (``setup_probe_s``), to rescale that time
to the reference CPU speed.  ``--mode setup`` stops there.

Otherwise the worker runs every command (``--mode trace`` with span
wrappers installed), reads its own peak RSS, and prints one JSON line:
``{"ready", "setup_probe_s", "load_errors", "wall_s", "probe_s", "run_s",
"peak_rss_kb", "outputs"}`` where each output is ``{"id", "rc", "error", "checks"}``.
``wall_s`` is the body's wall time; ``run_s`` is ``wall_s`` rescaled by
the probe's loop time ``probe_s`` measured throughout the body, to the
power ``SPEED_EXPONENT`` of the workload.  In
traced samples each probe tick is charged to the span open at the time,
and taken off that span's times.

The rescaling holds only while the probe is the sole load the worker
adds beside the program: a thread or child process busy during the body
would slow the probe and shrink ``run_s`` without the program doing less
work.  So the worker also reports ``load_errors``: an extra thread
(Python or native), CPU time of waited-for children, or more CPU time
than wall time, seen over set-up or the body.  The parent fails the run
on any of them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import gc
import os
import resource
import signal
import sys
import threading
import time
from pathlib import Path


# The probe loop's mean time on the reference machine (2-vCPU Intel Xeon
# VM, Python 3.11) at its faster CPU level; times rescaled by the probe
# are in seconds at that speed.
PROBE_REF_S = 0.6e-3
# How each workload's body time follows the probe loop's time when the
# CPU speed changes: the log-log slope of body wall time on loop time.
# Fitted on thirty runs per workload on the reference machine, it came
# out 1.01-1.09 for the interpreter-bound symbolic workloads and
# 0.71-0.74 for grid-refine, whose numpy work slows less than the loop;
# steady.py refits it on every set.  A body time at reference speed is
# wall_s * (PROBE_REF_S / loop time) ** SPEED_EXPONENT[workload].
SPEED_EXPONENT = {"sym-catalog": 1.0, "sym-highspin": 1.0, "grid-refine": 0.75}
PROBE_INTERVAL_S = 0.05
PROBE_EDGE_LOOPS = 8
# CPU time above wall time allowed for clock granularity before the
# worker counts it as a second busy thread
CPU_SLACK = 1.02
CPU_SLACK_S = 0.002


class SpeedProbe:
    """Measures the CPU speed the worker sees while it works.

    The CPU speed seen by one process on a small shared VM changes by up
    to 1.5x within seconds, and can stay at one level for minutes, which
    no affordable run length averages away.  The probe loop is fixed
    exact rational arithmetic, so it slows down with the interpreter-bound
    symbolic code it is set beside.  ``loops`` times it back to back;
    between ``start`` and ``stop`` a timer signal also runs it every
    ``PROBE_INTERVAL_S`` (about 1.5% of the time, kept in ``ticks_s`` so
    that it can be taken off the measured interval).  A set-up time at
    reference speed is the measured time times ``PROBE_REF_S / loop_s``;
    body times are rescaled with ``SPEED_EXPONENT``.
    """

    def __init__(self):
        from fractions import Fraction  # after set-up: not part of it

        self._table = [Fraction(i, 7 + i % 13) for i in range(512)]
        self.times: list[float] = []
        self.ticks_s = 0.0
        self.on_tick = None  # called with each tick's seconds
        self._loop()  # untimed: the first pass runs colder than the rest

    def _loop(self) -> None:
        # Collection stays off while the loop runs, and everything it
        # allocates is freed when it returns, so it neither triggers nor
        # delays the program's garbage collections.
        enabled = gc.isenabled()
        gc.disable()
        try:
            table, seen, acc = self._table, {}, self._table[0]
            for i in range(0, 4096, 37):
                acc += table[i % 512] * table[i * 31 % 512]
                seen[i, acc.denominator & 255] = acc
        finally:
            if enabled:
                gc.enable()

    def _timed_loop(self) -> float:
        t0 = time.perf_counter()
        self._loop()
        dt = time.perf_counter() - t0
        self.times.append(dt)
        return dt

    def loops(self, n: int) -> None:
        for _ in range(n):
            self._timed_loop()

    def _tick(self, signum, frame) -> None:
        dt = self._timed_loop()
        self.ticks_s += dt
        if self.on_tick is not None:
            self.on_tick(dt)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def loop_s(self) -> float:
        return sum(self.times) / len(self.times)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _load_errors(phase: str, wall_s: float, cpu_s: float, child_cpu_s: float) -> list[str]:
    """Signs that the worker ran more than one busy thread in ``phase``."""
    errors = []
    tasks = len(os.listdir("/proc/self/task"))
    if tasks > 1 or threading.active_count() > 1:
        errors.append(f"{phase}: {tasks} threads ({threading.active_count()} Python)")
    if child_cpu_s > 0:
        errors.append(f"{phase}: child processes used {child_cpu_s:.3f} s CPU")
    if cpu_s > wall_s * CPU_SLACK + CPU_SLACK_S:
        errors.append(f"{phase}: {cpu_s:.3f} s CPU in {wall_s:.3f} s wall")
    return errors


def _execute(cmd, cli, catalog, localization):
    """Run one command as a user would; returns (rc, report text or dict)."""
    kind, argv = cmd
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        if kind == "cli":
            return cli.main(list(argv)), out.getvalue()
        label, two_s = argv
        report = localization.localization_report(catalog.build(label, int(two_s)))
        return 0, report.as_dict()


def _run_guarded(execute, cmd, *mods):
    try:
        rc, report = execute(cmd, *mods)
    except SystemExit as exc:  # argparse rejects an argument vector
        return exc.code, None, f"exit {exc.code}"
    except Exception as exc:  # record any failure as this command's result
        return None, None, f"{type(exc).__name__}: {exc}"
    return rc, report, None


def _checks(report) -> list[dict]:
    doc = json.loads(report) if isinstance(report, str) else report
    return [
        {k: c.get(k, "") for k in ("name", "method", "status", "detail")}
        for c in doc["checks"]
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sample", type=int, default=0)
    parser.add_argument("--mode", choices=("run", "trace", "setup"), default="run")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    import numpy  # noqa: F401  (part of every CLI invocation's set-up)
    import poincarelab
    from poincarelab import catalog, cli, localization

    src = (Path(args.root) / "src").resolve()
    if Path(poincarelab.__file__).resolve().parent.parent != src:
        print(f"poincarelab was imported from {poincarelab.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads

    cmds = workloads.commands(args.workload, args.seed)
    ready = time.monotonic()
    setup_probe = SpeedProbe()
    cpu0, t0 = time.process_time(), time.perf_counter()
    setup_probe.loops(2 * PROBE_EDGE_LOOPS)
    # children of set-up show up here too: RUSAGE_CHILDREN starts at 0
    setup = {"ready": ready, "setup_probe_s": setup_probe.loop_s,
             "load_errors": _load_errors("set-up", time.perf_counter() - t0,
                                         time.process_time() - cpu0, _children_cpu_s())}
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    execute = _execute
    tracer = None
    if args.mode == "trace":
        from spans import Tracer

        tracer = Tracer(args.sample)
        tracer.install()
        execute = tracer.wrap("bench.command", _execute)

    mods = (cli, catalog, localization)
    probe = SpeedProbe()
    if tracer is not None:
        probe.on_tick = lambda dt: tracer.charge(round(dt * 1e9))
    probe.loops(PROBE_EDGE_LOOPS)
    probe.start()
    child0, cpu0 = _children_cpu_s(), time.process_time()
    t0 = time.perf_counter()
    results = [_run_guarded(execute, cmd, *mods) for cmd in cmds]
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    probe.stop()
    setup["load_errors"] += _load_errors("body", wall_s, cpu_s, _children_cpu_s() - child0)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    # loops after the body cover bodies that hold the interpreter in
    # native code, where the timer signal waits
    probe.loops(PROBE_EDGE_LOOPS)
    wall_s -= probe.ticks_s
    if tracer is not None:
        tracer.write(args.spans)
    outputs = []
    for cmd, (rc, report, error) in zip(cmds, results):
        checks = []
        if report is not None:
            try:
                checks = _checks(report)
            except (ValueError, KeyError, TypeError) as exc:
                error = f"unreadable report: {exc}"
        outputs.append({"id": workloads.command_id(cmd), "rc": rc,
                        "error": error, "checks": checks})
    print(json.dumps({**setup, "wall_s": wall_s, "probe_s": probe.loop_s,
                      "run_s": wall_s * (PROBE_REF_S / probe.loop_s)
                      ** SPEED_EXPONENT[args.workload],
                      "peak_rss_kb": peak_rss_kb, "outputs": outputs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
