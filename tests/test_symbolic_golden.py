"""Byte-level guard for the symbolic side.

`golden/symbolic.json` holds the sha256 of the exact `--json` output of
`verify` and `commutant` for every catalog entry at two_s 0..2, of
`catalog` at two_s 0, 1 and 2, and of the localization report of every
entry with at most two blocks, together with each exit code.  Any change
to how relations are written down or evaluated must reproduce every
byte of every report: names, statuses, details and their order.
"""

import hashlib
import json
from pathlib import Path

from poincarelab import catalog
from poincarelab.cli import main
from poincarelab.localization import localization_report

GOLDEN = Path(__file__).parent / "golden" / "symbolic.json"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(capsys, argv) -> dict:
    code = main(argv)
    return {"exit_code": code, "sha256": _sha(capsys.readouterr().out)}


def digests(capsys) -> dict:
    out = {}
    for two_s in (0, 1, 2):
        for label in catalog.catalog_labels(two_s):
            for sub in ("verify", "commutant"):
                argv = [sub, "--rep", label, "--two-s", str(two_s), "--json"]
                out[" ".join(argv)] = _run(capsys, argv)
            rep = catalog.build(label, two_s)
            if rep.blocks <= 2:
                doc = localization_report(rep).as_dict()
                out[f"localization {label} {two_s}"] = {
                    "sha256": _sha(json.dumps(doc, indent=2))
                }
        argv = ["catalog", "--two-s", str(two_s), "--json"]
        out[" ".join(argv)] = _run(capsys, argv)
    return out


def test_symbolic_outputs_match_golden(capsys):
    golden = json.loads(GOLDEN.read_text())
    got = digests(capsys)
    assert sorted(got) == sorted(golden)
    changed = [key for key in golden if got[key] != golden[key]]
    assert not changed, changed
