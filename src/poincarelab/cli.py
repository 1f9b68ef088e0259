"""Command-line front end for the verification laboratory.

Subcommands run the symbolic suites, the commutant solver, the spectrum
classification table, and the numerical grid studies, and render one
report as text or JSON.  Exit code 0 means every check passed (recorded
rows do not fail a run), 1 means at least one check failed, 2 means the
invocation itself was invalid (an ``--out`` file that cannot be written
included), 3 means an internal invariant broke (an AssertionError in the
laboratory itself, not a failed check).
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

_KINDS = ("antiunitary", "unitary")
_SPECTRUM_PHRASE = {
    frozenset({"up", "down"}): "up or down spectrum only",
    frozenset({"symmetric"}): "symmetric spectrum",
}


def _phrase(kinds: set[str]) -> str:
    return _SPECTRUM_PHRASE[frozenset(kinds)]


# Peak RSS of a whole verify or commutant run at spin dimension dim, fitted
# to measured peaks at two_s 16, 32, 48 and 64 for up and sym6 (the largest
# of the two-block entries) on CPython 3.11, within 3 MiB at every point.
# commutant's largest system is the spin Schur check, 3 * dim^2 complex
# constraints on dim^2 real unknowns held as sparse rows with a column
# index, so it grows as dim^2: 30.9-31.1 MiB at two_s 16, 36.1-36.4 at
# 32, 44.2-44.7 at 48 and 55.3-56.1 at 64 (86.6-87.8 MiB at 96, where it
# runs in 1.9 s).  verify grows slowly too (131 MiB at 64).
def spin_peak_bytes(command: str, two_s: int) -> int:
    """Estimated peak bytes of `verify` or of `commutant` at this spin."""
    dim = two_s + 1
    if command == "verify":
        return int((24.5 + 1.36 * dim) * 2**20 + 4.5 * 2**10 * dim**2)
    return int(29.5 * 2**20 + 6.4 * 2**10 * dim**2)


def check_spin_cost(command: str, two_s: int, budget: int | None) -> None:
    """Refuse, before building anything, a spin that would not fit."""
    need = spin_peak_bytes(command, two_s)
    if budget is not None and need > budget:
        raise ValueError(
            f"{command} at two_s = {two_s} needs about {need / 2**20:,.0f} MiB, "
            f"over the {budget / 2**20:,.0f} MiB budget "
            f"({gridlab.MEMORY_SHARE:.0%} of MemAvailable)"
        )


def cmd_verify(args) -> RelationReport:
    check_spin_cost("verify", args.two_s, gridlab.memory_budget())
    rep = catalog.build(args.rep, args.two_s)
    print(f"verifying {rep.label} at two_s={rep.two_s}", file=sys.stderr)
    return catalog.full_verification(rep)


def cmd_commutant(args) -> RelationReport:
    check_spin_cost("commutant", args.two_s, gridlab.memory_budget())
    rep = catalog.build(args.rep, args.two_s)
    report = RelationReport(rep.label, rep.two_s)
    problem = commutant.reduce_to_constant_blocks(rep)
    if problem.premise:
        detail = f"{commutant.UNDETERMINED}: {problem.premise}"
        report.add("commutant-dimension", "linear-solve", False, detail)
        print(f"{rep.label}: {detail}", file=sys.stderr)
        return report
    result = commutant.commutant_basis(problem)
    report.add(
        "identity-in-commutant",
        "linear-solve",
        commutant.contains(result, commutant.identity_matrix(rep.blocks)),
        "identity block matrix solves the constraint system",
    )
    # commutant_basis has rechecked every basis matrix with check_solution
    # and raises (exit 3) if one fails, so reaching here means they passed
    report.add(
        "basis-satisfies-constraints",
        "linear-solve",
        True,
        f"{result.dimension} basis matrices recheck against every constraint",
    )
    word = "irreducible" if result.dimension == 1 else "reducible"
    report.add(
        "commutant-dimension",
        "linear-solve",
        result.dimension >= 1,
        f"{word}, dim {result.dimension}",
    )
    print(f"{rep.label}: {word}, dim {result.dimension}", file=sys.stderr)
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
            _phrase(kinds),
        )
    return report


def cmd_grid(args) -> RelationReport:
    rep = catalog.build(args.rep, args.two_s)
    sizes = args.n
    grids = [gridlab.Grid(args.extent, n, args.mu) for n in sizes]
    if len(grids) < 3:
        raise ValueError("non-nested grid sequence: need at least three grids")
    gridlab.check_working_set(rep, grids, gridlab.memory_budget())
    report = RelationReport(rep.label, rep.two_s)
    relations = gridlab.representative_relations(rep)
    print(
        f"running {len(relations)} convergence studies on N={sizes}",
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
    check_spin_cost("commutant", args.two_s, gridlab.memory_budget())
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
        ok = ok and head.spectrum in catalog.allowed_spectra(
            head.theta_kind, head.pi_kind
        )
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

    def common(p, rep_required=True):
        p.add_argument("--rep", required=rep_required, help="representation label")
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
        report = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    text = (
        json.dumps(report.as_dict(), indent=2)
        if args.json
        else render_text(report)
    )
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
