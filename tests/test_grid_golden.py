"""Fast numeric guard for the grid kernels.

`golden/` holds the row digests (name, status, exact flag, slope to 3
decimals) of two `grid --json` runs at N = 16, 32, 64, recorded from
the program before `apply` evaluated coefficients through cached
per-grid fields.  Any later change to stencils, fields, norms or
states must reproduce them.  At these sizes some slopes sit below the
band, so both runs exit 1; that is part of the record.
"""

import json
from pathlib import Path

import pytest

from poincarelab.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _digest(check: dict) -> list:
    detail = check["detail"]
    slope = detail.split()[1] if detail.startswith("slope ") else None
    return [check["name"], check["status"], detail.startswith("exact"), slope]


@pytest.mark.parametrize("name", ["grid-up-2s1", "grid-quad+1"])
def test_grid_digests_match_golden(capsys, name):
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    code = main(golden["argv"])
    doc = json.loads(capsys.readouterr().out)
    assert [_digest(c) for c in doc["checks"]] == golden["rows"]
    assert code == golden["exit_code"]
