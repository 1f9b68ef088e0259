"""The benchmark's workloads as deterministic command lists.

A command is ``(kind, argv)``.  ``kind`` is ``"cli"`` for an argument
vector passed to ``poincarelab.cli.main`` (always with ``--json``), or
``"localization"`` for ``localization.localization_report`` on a
``(label, two_s)`` pair, the one suite that has no subcommand.  The
seed only shuffles the order: every seed yields the same multiset.
"""

from __future__ import annotations

import random

WORKLOADS = ("sym-catalog", "sym-highspin", "grid-refine")

# The catalog at two_s = 0, 1, 2 (38 entries).  Spelled out here rather
# than read from the program, so a change to the catalog cannot silently
# change the workload.
_LABELS = (
    "up", "down",
    "sym1", "sym2", "sym3", "sym4", "sym5", "sym6",
    "newup:identity", "newup:symplectic",
    "newdown:identity", "newdown:symplectic",
)
_QUAD_LABELS = ("quad:+1", "quad:-1")  # two_s = 0 only; 4 blocks


def _labels(two_s: int) -> tuple[str, ...]:
    return _LABELS + (_QUAD_LABELS if two_s == 0 else ())


def _cli(*argv) -> tuple[str, tuple[str, ...]]:
    return ("cli", tuple(str(a) for a in argv) + ("--json",))


def _sym_catalog() -> list:
    cmds = []
    for two_s in (0, 1, 2):
        for label in _labels(two_s):
            cmds.append(_cli("verify", "--rep", label, "--two-s", two_s))
            cmds.append(_cli("commutant", "--rep", label, "--two-s", two_s))
            if label not in _QUAD_LABELS:  # localization needs blocks <= 2
                cmds.append(("localization", (label, str(two_s))))
        cmds.append(_cli("catalog", "--two-s", two_s))
    return cmds


def _sym_highspin() -> list:
    return [
        _cli(sub, "--rep", label, "--two-s", 8)
        for label in ("up", "sym3")
        for sub in ("verify", "commutant")
    ]


def _grid_refine() -> list:
    return [_cli("grid", "--rep", "up", "--two-s", 1)]


_BUILDERS = {
    "sym-catalog": _sym_catalog,
    "sym-highspin": _sym_highspin,
    "grid-refine": _grid_refine,
}


def commands(workload: str, seed: int) -> list:
    """The workload's commands in the order given by ``seed``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    cmds = _BUILDERS[workload]()
    random.Random(seed).shuffle(cmds)
    return cmds


def command_id(cmd) -> str:
    """Stable name of a command, used as its key in the reference."""
    kind, argv = cmd
    if kind == "localization":
        return "localization " + " ".join(argv)
    return " ".join(a for a in argv if a != "--json")
