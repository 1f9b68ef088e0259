"""Correctness oracle: compare a sample's report rows with the reference.

The reference (``perfbench/reference/<workload>.json``) holds, for every
command, the digest of each report row in report order:

* symbolic and linear-solve rows: ``[name, method, status, detail]``;
  the detail carries commutant verdicts such as "irreducible, dim 1";
* numeric convergence studies: ``[name, method, status, "slope 2.001"]``
  (slope to 3 decimals) or ``"exact"``, where an exact row whose
  residuals are not all below 1e-12 digests to a failing marker;
* other numeric rows (norm preservation): ``[name, method, status, ""]``.

A row fails if its digest differs from the reference, if it is missing
or extra, if its command raised, or if its command exited non-zero.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

EXACT_TOL = 1e-12
_EXACT = re.compile(r"^exact \(residuals (.*)\)")
_SLOPE = re.compile(r"^slope (\S+)")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def digest(check: dict) -> list:
    name, method, status = check["name"], check["method"], check["status"]
    detail = check.get("detail", "")
    if method != "numeric":
        return [name, method, status, detail]
    m = _EXACT.match(detail)
    if m:
        residuals = [float(x) for x in m.group(1).split(",")]
        ok = max(residuals) < EXACT_TOL
        return [name, method, status, "exact" if ok else "exact above 1e-12"]
    m = _SLOPE.match(detail)
    if m:
        return [name, method, status, f"slope {float(m.group(1)):.3f}"]
    return [name, method, status, ""]


def compare(reference: dict[str, list], outputs: list[dict]):
    """Count rows attempted and failed; list what differed.

    ``outputs`` are the worker's per-command results:
    ``{"id", "rc", "error", "checks"}``.
    """
    attempted = failed = 0
    problems: list[str] = []
    seen = set()
    for out in outputs:
        cid = out["id"]
        seen.add(cid)
        want = reference.get(cid, [])
        got = [digest(c) for c in out["checks"]]
        rows = max(len(want), len(got))
        attempted += rows
        if cid not in reference:
            failed += rows
            problems.append(f"{cid}: not in the reference")
        elif out["error"] or out["rc"] != 0:
            failed += rows
            problems.append(f"{cid}: exit code {out['rc']} {out['error'] or ''}".strip())
        else:
            for i in range(rows):
                if i >= len(got) or i >= len(want) or got[i] != want[i]:
                    failed += 1
                    if len(problems) < 20:
                        problems.append(
                            f"{cid}: row {i}: got {got[i] if i < len(got) else None}"
                            f", want {want[i] if i < len(want) else None}"
                        )
    for cid, want in reference.items():
        if cid not in seen:
            attempted += len(want)
            failed += len(want)
            problems.append(f"{cid}: not run")
    return attempted, failed, problems


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict[str, list]:
    return json.loads(reference_path(workload).read_text())["commands"]


def write_reference(workload: str, outputs: list[dict], env: dict) -> Path:
    """Record the digests of one sample's rows, one command per line."""
    commands = {o["id"]: [digest(c) for c in o["checks"]] for o in outputs}
    lines = [
        f"  {json.dumps(cid)}: {json.dumps(commands[cid])}"
        for cid in sorted(commands)
    ]
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        "{\n"
        f'"workload": {json.dumps(workload)},\n'
        f'"recorded_with": {json.dumps(env, sort_keys=True)},\n'
        '"commands": {\n' + ",\n".join(lines) + "\n}}\n"
    )
    return path
