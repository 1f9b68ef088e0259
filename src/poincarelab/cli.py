"""Command-line front end for the verification laboratory.

Subcommands run the symbolic suites, the commutant solver, the spectrum
classification table, and the numerical grid studies, and render one
report as text or JSON.  ``main`` alone decides how a command ends.
Exit code 0 means every check passed (recorded rows do not fail a run),
1 means at least one check failed, 2 means the invocation itself was
invalid (a ValueError: among them a run whose estimated memory is over
the budget, refused by ``refuse_over_budget`` before it is built, and
an ``--out`` file that cannot be written), 3 means any other exception
inside the laboratory, printed as ``internal error: <Type>: <message>``.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from itertools import groupby
from pathlib import Path

from . import catalog, commutant, gridlab
from .report import PASS, RECORDED, RelationReport

_KINDS = (catalog.ANTIUNITARY, catalog.UNITARY)
_SPECTRUM_PHRASE = {
    frozenset({"up", "down"}): "up or down spectrum only",
    frozenset({"symmetric"}): "symmetric spectrum",
}


# Share of MemAvailable a command may plan to fill.
MEMORY_SHARE = 0.5


def memory_budget() -> int | None:
    """MEMORY_SHARE of MemAvailable in bytes; None without /proc/meminfo."""
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(int(line.split()[1]) * 1024 * MEMORY_SHARE)
    except OSError:
        pass
    return None


def refuse_over_budget(what: str, need: int) -> None:
    """Refuse (ValueError, exit 2) a run estimated at ``need`` bytes over
    the memory budget; no MemAvailable, no refusal."""
    budget = memory_budget()
    if budget is not None and need > budget:
        raise ValueError(
            f"{what} needs about {need / 2**20:,.0f} MiB, "
            f"over the {budget / 2**20:,.0f} MiB budget "
            f"({MEMORY_SHARE:.0%} of MemAvailable)"
        )


# Peak RSS of a whole verify or commutant run at spin dimension dim, fitted
# to measured peaks at two_s 16, 32, 48 and 64 for up and sym6 (the largest
# of the two-block entries) on CPython 3.11, within 3 MiB at every point.
# commutant's largest system is the spin Schur check, 3 * dim^2 complex
# constraints on dim^2 real unknowns held as sparse rows with a column
# index, so it grows as dim^2: 30.9-31.1 MiB at two_s 16, 36.1-36.4 at
# 32, 44.2-44.7 at 48 and 55.3-56.1 at 64 (86.6-87.8 MiB at 96, where it
# runs in 1.9 s).  verify grows slowly too (131 MiB at 64).  grid's line
# is the peak of building its spec (catalog.build), before the study the
# working-set estimate covers: fitted to the peaks of a child process that
# imports poincarelab and builds up or sym6 at two_s 16, 64, 128, 192, 256
# and 320, within 4 MiB at every point (28.7-28.8 MiB at 16, 84.0-91.3 at
# 320, where the build takes 3.8-4.0 s), and within 8 MiB of 136.9-151.0
# at 448.  catalog solves each entry's commutant, so its line is
# commutant's.  One row per subcommand with --two-s:
# (MiB, MiB per dim, KiB per dim^2).
_SPIN_PEAK = {
    "verify": (24.5, 1.36, 4.5),
    "commutant": (29.5, 0, 6.4),
    "grid": (28.5, 0, 0.59),
}
_SPIN_PEAK["catalog"] = _SPIN_PEAK["commutant"]


def spin_peak_bytes(command: str, two_s: int) -> int:
    """Estimated peak bytes of ``command`` at this spin (for grid, of
    building the spec it studies)."""
    mib, per_dim, kib_per_dim2 = _SPIN_PEAK[command]
    dim = two_s + 1
    return int((mib + per_dim * dim) * 2**20 + kib_per_dim2 * 2**10 * dim**2)


def cmd_verify(args) -> RelationReport:
    rep = catalog.build(args.rep, args.two_s)
    print(f"verifying {rep.label} at two_s={rep.two_s}", file=sys.stderr)
    return catalog.full_verification(rep)


def cmd_commutant(args) -> RelationReport:
    rep = catalog.build(args.rep, args.two_s)
    report = RelationReport(rep.label, rep.two_s)
    verdict = commutant.irreducibility_verdict(rep)
    detail = f"{verdict}: {verdict.premise}" if verdict.premise else str(verdict)
    if not verdict.premise:
        report.add(
            "identity-in-commutant",
            "linear-solve",
            commutant.contains(verdict.basis, commutant.identity_matrix(rep.blocks)),
            "identity block matrix solves the constraint system",
        )
        # commutant_basis has rechecked every basis matrix with
        # check_solution and raises (exit 3) if one fails, so reaching
        # here means they passed
        report.add(
            "basis-satisfies-constraints",
            "linear-solve",
            True,
            f"{verdict.dimension} basis matrices recheck against every constraint",
        )
    # dimension 0, a failed row, when the premise fails
    report.add("commutant-dimension", "linear-solve", verdict.dimension >= 1, detail)
    print(f"{rep.label}: {detail}", file=sys.stderr)
    return report


def cmd_classify(args) -> RelationReport:
    pairs = [(t, p) for t in _KINDS for p in _KINDS
             if args.theta in (None, t) and args.pi in (None, p)]
    report = RelationReport("classification-table", 0)
    for theta_kind, pi_kind in pairs:
        kinds = catalog.allowed_spectra(theta_kind, pi_kind)
        report.add(
            f"spectrum(theta={theta_kind}, pi={pi_kind})",
            "symbolic",
            True,
            _SPECTRUM_PHRASE[frozenset(kinds)],
        )
    return report


def cmd_grid(args) -> RelationReport:
    rep = catalog.build(args.rep, args.two_s)
    grids = [gridlab.Grid(args.extent, n, args.mu) for n in args.n]
    gridlab.refining(grids)
    refuse_over_budget(f"grid study at N = {', '.join(map(str, args.n))}",
                       gridlab.working_set_bytes(rep, grids))
    report = RelationReport(rep.label, rep.two_s)
    relations = gridlab.representative_relations(rep)
    print(
        f"running {len(relations)} convergence studies on N={args.n}",
        file=sys.stderr,
    )
    defects = {}
    for study in gridlab.study(rep, relations, grids, defects=defects):
        report.add(study.relation, "numeric", study.ok, study.detail())
    for op_name, defect in defects.items():
        report.add(
            f"{op_name} norm preservation",
            "numeric",
            defect < gridlab.EXACT_TOL,
            f"relative defect {defect:.3e}",
        )
    return report


def _sign_word(value) -> str:
    return "+1" if value.to_complex().real > 0 else "-1"


def cmd_catalog(args) -> RelationReport:
    report = RelationReport("catalog", args.two_s)
    labels = catalog.catalog_labels(args.two_s)
    entries = [e for e in catalog.CATALOG if e.label in labels]
    for group, members in groupby(entries, key=lambda e: e.group):
        reps = [catalog.build(e.label, args.two_s) for e in members]
        head = reps[0]
        ok = all(
            r.theta_kind == head.theta_kind
            and r.pi_kind == head.pi_kind
            and r.spectrum == head.spectrum
            for r in reps
        )
        ok = ok and catalog.verify_spectrum(head).all_passed()
        cols = [
            f"theta {head.theta_kind} (theta^2 = {_sign_word(head.theta_square)})",
            f"pi {head.pi_kind} (pi^2 = {_sign_word(head.pi_square)})",
            f"spectrum {head.spectrum}",
        ]
        verdicts = []
        for r in reps:
            v = commutant.irreducibility_verdict(r)
            ok = ok and not v.premise
            tag = f" [{r.label.split(':', 1)[1]}]" if len(reps) > 1 else ""
            verdicts.append(f"{v}{tag}")
        cols.append("; ".join(verdicts))
        report.add(group, "linear-solve", ok, "; ".join(cols))
    return report


def render_text(report: RelationReport) -> str:
    doc = report.as_dict()
    lines = [f"{doc['representation']} (two_s = {doc['two_s']})"]
    width = max(len(c["name"]) for c in doc["checks"])
    for chk in doc["checks"]:
        lines.append(
            f"  {chk['status']:8s} {chk['method']:12s} "
            f"{chk['name']:{width}s}  {chk['detail']}"
        )
    npass = sum(1 for c in doc["checks"] if c["status"] == PASS)
    nfail = sum(1 for c in doc["checks"] if c["status"] == "fail")
    nrec = sum(1 for c in doc["checks"] if c["status"] == RECORDED)
    lines.append(
        f"{len(doc['checks'])} checks: {npass} pass, {nfail} fail, {nrec} recorded"
    )
    return "\n".join(lines)


def _sizes(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid size list: {text!r}")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first call.  Parsing leaves
    it unchanged: every parse gets a fresh namespace, and the one mutable
    default (--n) is a string, converted anew on each parse."""
    parser = argparse.ArgumentParser(
        prog="poincarelab",
        description="verification laboratory for mass-shell representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--rep", required=True, help="representation label")
        p.add_argument("--two-s", type=int, default=0, dest="two_s",
                       help="twice the spin (default 0)")
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--out", help="also write the report to this file")

    p = sub.add_parser("verify", help="run the symbolic relation suites")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("commutant", help="solve for the commutant")
    common(p)
    p.set_defaults(func=cmd_commutant)

    p = sub.add_parser("classify", help="allowed spectrum per symmetry kinds")
    p.add_argument("--theta", choices=_KINDS)
    p.add_argument("--pi", choices=_KINDS)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("grid", help="numerical convergence studies")
    common(p)
    p.add_argument("--mu", type=float, default=1.0, help="mass (default 1.0)")
    p.add_argument("--n", type=_sizes, default="32,64,128",
                   help="comma-separated grid sizes (default 32,64,128)")
    p.add_argument("--extent", type=float, default=4.0,
                   help="half-width of the momentum cube (default 4.0)")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("catalog", help="summarize the whole catalog")
    p.add_argument("--two-s", type=int, default=0, dest="two_s")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "two_s" in args:  # no row for the subcommand: a KeyError, exit 3
            refuse_over_budget(f"{args.command} at two_s = {args.two_s}",
                               spin_peak_bytes(args.command, args.two_s))
        report = args.func(args)
        text = (json.dumps(report.as_dict(), indent=2) if args.json
                else render_text(report))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(text)
    if args.out:
        try:
            Path(args.out).write_text(text + "\n")
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    return 0 if report.all_passed() else 1


if __name__ == "__main__":
    sys.exit(main())
