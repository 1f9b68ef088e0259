"""Command-line behavior: exit codes, the JSON schema, text rendering,
and the frozen details of the commutant, classify, and catalog views.
"""

import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from poincarelab import cli
from poincarelab.cli import main

METHODS = {"symbolic", "numeric", "linear-solve"}
STATUSES = {"pass", "fail", "recorded"}


def test_verify_up_passes(capsys):
    assert main(["verify", "--rep", "up"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("up (two_s = 0)")
    assert " 0 fail" in out


def test_verify_rejects_quad_at_nonzero_spin(capsys):
    assert main(["verify", "--rep", "quad:+1", "--two-s", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_rejects_unknown_label(capsys):
    assert main(["verify", "--rep", "pentad"]) == 2
    assert "error:" in capsys.readouterr().err


def test_grid_needs_three_sizes(capsys):
    assert main(["grid", "--rep", "up", "--n", "8"]) == 2
    assert "at least three" in capsys.readouterr().err


def test_grid_checks_the_refinement_before_the_guard(monkeypatch, capsys):
    # a sequence that is not a nested refinement is refused before the
    # working-set estimate runs or a study is announced
    from poincarelab import gridlab

    def forbidden(*args):
        raise AssertionError("ran the working-set estimate")

    monkeypatch.setattr(gridlab, "working_set_bytes", forbidden)
    for sizes in ("32,64,128,128", "32,64"):
        assert main(["grid", "--rep", "up", "--two-s", "1",
                     "--n", sizes]) == 2
        err = capsys.readouterr().err
        assert "error: non-nested grid sequence" in err
        assert "running" not in err


@pytest.mark.parametrize("flag,value,what", [
    ("--extent", "1e-300", "width"),  # its square underflows to 0
    ("--extent", "1e200", "extent"),  # its square and cube overflow
    ("--mu", "1e160", "mu"),  # its square overflows
    # its spacing cubed underflows, so the state's norm is 0
    ("--extent", "1e-150", "state norm is 0: the spacing cubed"),
])
def test_grid_refuses_an_extreme_extent_or_mu(monkeypatch, capsys, flag,
                                              value, what):
    # refused before the study makes a row of the state or of a word
    _forbid_rows(monkeypatch)
    _refused(["grid", "--rep", "up", "--n", "8,16,32", flag, value], what,
             capsys)


def test_grid_refuses_an_extreme_mu_where_p0_is_zero(monkeypatch, capsys):
    # mu squared underflows to 0 and an odd N puts p = 0 on the grid, so
    # 1/p0 would divide by 0: refused with its cause when the grid is
    # made, before any row (even N, or mu = 1e-160, runs)
    _forbid_rows(monkeypatch)
    _refused(["grid", "--rep", "up", "--n", "9,17,33", "--mu", "1e-200"],
             "mu squared underflows to 0, so p0 is 0", capsys)


@pytest.mark.parametrize("label", ["up", "sym3"])
def test_grid_refuses_an_extreme_component_norm(label, capsys):
    # at --extent 1e100 the entries are finite but P1 P2 psi is about
    # 1e200 psi, so the squares of a component overflow: refused, naming
    # the relation, the grid and the cause, not a row of inf residuals
    _refused(["grid", "--rep", label, "--two-s", "1", "--n", "12,24,48",
              "--extent", "1e100"],
             "relation [P1,P2] == 0 at N = 12: a component norm is inf: "
             "its values are too large to square", capsys)


def _forbid_rows(monkeypatch):
    """Make any row of a word or of the standard state an error."""
    from poincarelab import gridlab

    def forbidden(*args):
        raise AssertionError("made a row")

    monkeypatch.setattr(gridlab, "_apply_rows", forbidden)
    monkeypatch.setattr(gridlab._Gaussian, "rows", forbidden)


def _refused(argv, what, capsys):
    """argv is an invalid invocation (exit 2, one error line naming
    ``what``), not a traceback, with no floating-point warning on the
    way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and what in errors[0], err
    assert "Traceback" not in err
    assert "Warning" not in err and not caught, [str(w) for w in caught]


def test_grid_rejects_malformed_size_list():
    with pytest.raises(SystemExit) as exc:
        main(["grid", "--rep", "up", "--n", "8,foo"])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_verify_requires_rep():
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2


def test_json_schema(capsys):
    code = main(["verify", "--rep", "sym3", "--two-s", "1", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["representation"] == "sym3"
    assert doc["two_s"] == 1
    names = [c["name"] for c in doc["checks"]]
    assert names == sorted(names)
    assert len(names) == len(set(names))
    assert len(names) >= 60
    assert {c["method"] for c in doc["checks"]} <= METHODS
    assert {c["status"] for c in doc["checks"]} <= STATUSES
    assert all(set(c) == {"name", "method", "status", "detail"}
               for c in doc["checks"])


def test_text_and_json_agree_on_the_check_set(capsys):
    main(["verify", "--rep", "sym1", "--json"])
    doc = json.loads(capsys.readouterr().out)
    main(["verify", "--rep", "sym1"])
    text = capsys.readouterr().out
    assert f"{len(doc['checks'])} checks:" in text
    for chk in doc["checks"]:
        assert chk["name"] in text


def test_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code = main(["verify", "--rep", "down", "--out", str(target)])
    out = capsys.readouterr().out
    assert code == 0
    assert target.read_text() == out


def test_out_file_json(tmp_path, capsys):
    target = tmp_path / "report.json"
    main(["classify", "--json", "--out", str(target)])
    capsys.readouterr()
    doc = json.loads(target.read_text())
    assert doc["schema"] == 1


def test_unwritable_out_is_an_invalid_invocation(tmp_path):
    # exit 1 means a check failed; a report that cannot be written is an
    # invalid invocation (2), told in one line without a traceback
    target = tmp_path / "missing" / "x.json"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "poincarelab.cli", "classify", "--out",
         str(target)], capture_output=True, text=True, env=env)
    assert done.returncode == 2
    assert done.stderr.startswith(f"error: cannot write --out {target}: ")
    assert "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) == 1
    assert not target.exists()


def test_catalog_row_counts(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "12 checks: 12 pass" in out
    assert main(["catalog", "--two-s", "1"]) == 0
    out = capsys.readouterr().out
    assert "10 checks: 10 pass" in out


def test_catalog_carries_per_variant_verdicts(capsys):
    main(["catalog", "--json"])
    doc = json.loads(capsys.readouterr().out)
    rows = {c["name"]: c["detail"] for c in doc["checks"]}
    assert "irreducible, dim 1" in rows["up"]
    assert "reducible, dim 2 [identity]" in rows["newup"]
    assert "irreducible, dim 1 [symplectic]" in rows["newup"]
    assert "spectrum up" in rows["newup"]
    assert "reducible, dim 3" in rows["quad:+1"]
    assert "irreducible, dim 1" in rows["quad:-1"]


@pytest.mark.parametrize(
    "label,phrase",
    [("quad:-1", "irreducible, dim 1"),
     ("quad:+1", "reducible, dim 3"),
     ("newup:identity", "reducible, dim 2")],
)
def test_commutant_verdict_lines(label, phrase, capsys):
    assert main(["commutant", "--rep", label]) == 0
    captured = capsys.readouterr()
    assert phrase in captured.out
    assert phrase in captured.err


def test_classify_all_pairs(capsys):
    assert main(["classify"]) == 0
    out = capsys.readouterr().out
    assert "spectrum(theta=antiunitary, pi=unitary)" in out
    assert "up or down spectrum only" in out
    assert out.count("symmetric spectrum") == 3
    assert "4 checks: 4 pass" in out


def test_classify_single_pair(capsys):
    assert main(["classify", "--theta", "antiunitary", "--pi", "unitary"]) == 0
    out = capsys.readouterr().out
    assert "1 checks: 1 pass" in out
    assert "up or down spectrum only" in out


@pytest.mark.parametrize("flag", ["theta", "pi"])
@pytest.mark.parametrize("kind", ["antiunitary", "unitary"])
def test_classify_single_flag_keeps_matching_rows(capsys, flag, kind):
    assert main(["classify", f"--{flag}", kind, "--json"]) == 0
    names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
    assert len(names) == 2
    assert all(f"{flag}={kind}" in name for name in names)


def test_classify_rejects_unknown_kind():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--theta", "sideways"])
    assert exc.value.code == 2


def test_grid_underresolved_coarse_sequence_fails_honestly(capsys):
    # N=16 does not resolve the default bump, so the two relations whose
    # commutator needs second derivatives sit below the slope band; the
    # run must report that as a failure, not paper over it
    code = main(["grid", "--rep", "up", "--n", "16,32,64", "--json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    rows = {c["name"]: c for c in doc["checks"]}
    assert rows["[J1,J2] == i*J3"]["status"] == "fail"
    assert rows["Theta^2 == 1"]["status"] == "pass"
    assert rows["Theta norm preservation"]["status"] == "pass"
    assert rows["Pi norm preservation"]["status"] == "pass"


def test_grid_passes_on_resolved_sequence(capsys):
    code = main(["grid", "--rep", "up", "--n", "24,48,96"])
    out = capsys.readouterr().out
    assert code == 0
    assert " 0 fail" in out


@pytest.mark.parametrize("module,attr,argv,message,error", [
    ("catalog", "build", ["verify", "--rep", "up"],
     "up: discrete squares are not constant", AssertionError),
    ("commutant", "commutant_basis", ["commutant", "--rep", "up"],
     "identity is not in the solved commutant", AssertionError),
    # one fault that is not a ValueError in each layer
    ("symop", "BlockOp.kappa_parity", ["verify", "--rep", "up"],
     "unsupported operand", TypeError),
    ("catalog", "full_verification", ["verify", "--rep", "up"], "K3",
     KeyError),
    ("commutant", "irreducibility_verdict", ["commutant", "--rep", "up"],
     "list index out of range", IndexError),
    ("gridlab", "study", ["grid", "--rep", "up", "--n", "16,32,64"],
     "study failed", RuntimeError),
])
def test_broken_internal_invariant_exits_3(monkeypatch, capsys, module, attr,
                                           argv, message, error):
    # any exception but a ValueError is an internal failure, told with its
    # type in one line: never exit 1 (a failed check) or a traceback
    def broken(*args, **kwargs):
        raise error(message)

    monkeypatch.setattr(f"poincarelab.{module}.{attr}", broken)
    assert main(argv) == 3
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines()
             if line.startswith("internal error:")]
    assert lines == [f"internal error: {error.__name__}: {error(message)}"]
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_failed_solution_recheck_exits_3(monkeypatch, capsys):
    # commutant_basis rechecks every basis matrix with check_solution
    from poincarelab import commutant

    monkeypatch.setattr(commutant, "check_solution", lambda prob, mat: False)
    assert main(["commutant", "--rep", "up"]) == 3
    captured = capsys.readouterr()
    assert ("internal error: AssertionError: solver output fails a constraint"
            in captured.err)
    assert captured.out == ""


def test_commutant_checks_each_basis_matrix_once(monkeypatch, capsys):
    # the basis-satisfies-constraints row reports commutant_basis's own
    # recheck instead of running a second one
    from poincarelab import commutant

    calls = []
    real = commutant.check_solution

    def counted(prob, mat):
        calls.append(mat)
        return real(prob, mat)

    monkeypatch.setattr(commutant, "check_solution", counted)
    assert main(["commutant", "--rep", "quad:+1", "--json"]) == 0
    rows = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    dim = int(rows["commutant-dimension"]["detail"].rsplit(" ", 1)[1])
    assert len(calls) == dim
    assert rows["basis-satisfies-constraints"]["status"] == "pass"
    assert rows["basis-satisfies-constraints"]["detail"] == (
        f"{dim} basis matrices recheck against every constraint")


def test_grid_refuses_an_oversized_study_before_allocating(monkeypatch,
                                                           capsys):
    from poincarelab import gridlab

    def forbidden(*args):
        raise AssertionError("allocated a state")

    # the plan at N = 1024 needs about 2.8 GiB, so a budget under that
    monkeypatch.setattr(cli, "memory_budget", lambda: 2 * 2**30)
    monkeypatch.setattr(gridlab, "standard_state", forbidden)
    # nor does it build its state's factors
    monkeypatch.setattr(gridlab, "_gaussian", forbidden)
    assert main(["grid", "--rep", "up", "--two-s", "1",
                 "--n", "256,512,1024"]) == 2
    err = capsys.readouterr().err
    assert "error: grid study at N = 256, 512, 1024 needs about" in err
    assert " MiB, over the 2,048 MiB budget (50% of MemAvailable)" in err


@pytest.mark.parametrize("argv,command,two_s", [
    (["commutant", "--rep", "up", "--two-s", "1000"], "commutant", 1000),
    (["catalog", "--two-s", "1000"], "catalog", 1000),
    (["verify", "--rep", "sym6", "--two-s", "4000"], "verify", 4000),
    (["grid", "--rep", "up", "--two-s", "4000"], "grid", 4000),
])
def test_high_spin_is_refused_before_building(monkeypatch, capsys, argv,
                                              command, two_s):
    from poincarelab import catalog

    def forbidden(*args):
        raise AssertionError("built a representation")

    monkeypatch.setattr(cli, "memory_budget", lambda: 4 * 2**30)
    monkeypatch.setattr(catalog, "build", forbidden)
    assert main(argv) == 2
    err = capsys.readouterr().err
    need = cli.spin_peak_bytes(command, two_s) / 2**20
    assert f"error: {command} at two_s = {two_s} needs about {need:,.0f} MiB" in err
    assert "over the 4,096 MiB budget (50% of MemAvailable)" in err


def test_spin_guard_admits_the_measured_spins(monkeypatch):
    from poincarelab.cli import refuse_over_budget, spin_peak_bytes

    # the fit reproduces the peaks it was fitted to within a few MiB
    assert abs(spin_peak_bytes("commutant", 64) / 2**20 - 56) < 5
    assert abs(spin_peak_bytes("verify", 64) / 2**20 - 131) < 5
    # building the spec grid studies: 84.0-91.3 MiB at 320
    assert abs(spin_peak_bytes("grid", 320) / 2**20 - 88) < 5
    assert cli.memory_budget() is None or cli.memory_budget() > 0
    monkeypatch.setattr(cli, "memory_budget", lambda: 4 * 2**30)
    for command in ("verify", "commutant", "grid", "catalog"):
        refuse_over_budget(command, spin_peak_bytes(command, 64))
    monkeypatch.setattr(cli, "memory_budget", lambda: 2**30)
    with pytest.raises(ValueError, match="^commutant at two_s = 500 needs"):
        refuse_over_budget("commutant at two_s = 500",
                           spin_peak_bytes("commutant", 500))
    monkeypatch.setattr(cli, "memory_budget", lambda: None)
    # no MemAvailable, no refusal
    refuse_over_budget("commutant", spin_peak_bytes("commutant", 10**6))


def test_spin_table_has_a_row_for_every_two_s_subcommand(monkeypatch,
                                                         capsys):
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions
             if isinstance(a, argparse._SubParsersAction)]
    with_spin = {name for name, p in sub.choices.items()
                 if any(a.dest == "two_s" for a in p._actions)}
    assert with_spin == {"verify", "commutant", "grid", "catalog"}
    for name in with_spin:
        assert cli.spin_peak_bytes(name, 0) > 0
    # catalog solves each entry's commutant, so it reads commutant's line
    assert cli.spin_peak_bytes("catalog", 300) == cli.spin_peak_bytes(
        "commutant", 300)
    # a subcommand with --two-s and no row is an internal error, not a
    # silent pass
    monkeypatch.delitem(cli._SPIN_PEAK, "catalog")
    assert main(["catalog"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: KeyError: 'catalog'\n"
    assert captured.out == ""


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process; after a usage error, calls in
    # the same process print what fresh processes print
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))

    def fresh(argv):
        done = subprocess.run([sys.executable, "-m", "poincarelab.cli", *argv],
                              capture_output=True, text=True, env=env)
        return done.returncode, done.stdout, done.stderr

    bad = ["verify", "--two-s", "1"]
    with pytest.raises(SystemExit) as exc:
        main(bad)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == fresh(bad)
    for argv in (["verify", "--rep", "up", "--two-s", "1", "--json"],
                 ["grid", "--rep", "up", "--n", "8,16,32", "--json"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == fresh(argv)
    assert cli.build_parser() is cli.build_parser()
    first = cli.build_parser().parse_args(["grid", "--rep", "up"])
    second = cli.build_parser().parse_args(["grid", "--rep", "up"])
    assert first.n == second.n == [32, 64, 128] and first.n is not second.n
