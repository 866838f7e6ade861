"""CLI behavior: sources, budgets, reports, schemas, exit codes."""

import functools
import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

jsonschema = pytest.importorskip("jsonschema")

from heckebialg import cli
from heckebialg.cli import (
    CLIError,
    Worker,
    builtin_operator,
    load_operator,
    main,
    operator_from_document,
    operator_to_document,
    save_operator,
)
from heckebialg.exactnum import MAX_POWER_SIZE
from heckebialg import linalg
from heckebialg.rmatrix import dj_r_matrix, memoised, super_flip
from test_qalg import dense_dj2

SCHEMA_DIR = __file__.rsplit("/", 2)[0] + "/docs"


def report_schema():
    with open(SCHEMA_DIR + "/verification-report.schema.json") as fh:
        return json.load(fh)


def file_schema():
    with open(SCHEMA_DIR + "/rmatrix-file.schema.json") as fh:
        return json.load(fh)


def run(args):
    return main(args)


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# sources


def test_builtin_parsing():
    assert builtin_operator("dj:2").d == 2
    assert builtin_operator("flip:3").d == 3
    assert builtin_operator("superflip:1|1").d == 2
    for bad in ("dj", "dj:x", "superflip:1", "gauss:2"):
        with pytest.raises(CLIError):
            builtin_operator(bad)


def test_operator_document_roundtrip():
    op = dj_r_matrix(2)
    doc = operator_to_document(op)
    jsonschema.validate(doc, file_schema())
    back = operator_from_document(doc)
    assert back.d == op.d and back.q == op.q
    assert back.R == op.R
    # canonical-form stability: a second serialization is identical
    assert operator_to_document(back)["entries"] == doc["entries"]


def test_operator_file_roundtrip(tmp_path):
    op = super_flip(1, 1)
    path = str(tmp_path / "op.json")
    save_operator(op, path)
    back = load_operator(path)
    assert back.R == op.R and back.q == op.q


def test_corrupted_entry_rejected(tmp_path):
    doc = operator_to_document(dj_r_matrix(2))
    doc["entries"][0][0] = "5"  # breaks the quadratic relation
    with pytest.raises(CLIError, match="rejected"):
        operator_from_document(doc)


def test_bad_scalar_rejected():
    doc = operator_to_document(dj_r_matrix(2))
    doc["entries"][1][2] = "p +* 3"
    with pytest.raises(CLIError, match=r"\(1, 2\)"):
        operator_from_document(doc)


def test_wrong_shape_rejected():
    doc = operator_to_document(dj_r_matrix(2))
    doc["entries"] = doc["entries"][:3]
    with pytest.raises(CLIError, match="4x4"):
        operator_from_document(doc)


def test_zero_dimensional_document_rejected():
    # the schema asks for d >= 1; a 0x0 operator would pass every axiom vacuously
    doc = operator_to_document(dj_r_matrix(2))
    doc["d"], doc["entries"] = 0, []
    with pytest.raises(CLIError, match="d >= 1"):
        operator_from_document(doc)
    # and for an integer: no truncation of 2.5, no reading of "2" or true
    for d in (2.5, "2", True):
        doc = operator_to_document(dj_r_matrix(2))
        doc["d"] = d
        with pytest.raises(CLIError, match="malformed operator document"):
            operator_from_document(doc)


def test_oversized_power_rejected():
    doc = operator_to_document(dj_r_matrix(2))
    doc["entries"][1][2] = f"p^{MAX_POWER_SIZE + 1}"
    with pytest.raises(CLIError, match=r"bad scalar at entry \(1, 2\).*size bound"):
        operator_from_document(doc)


@pytest.mark.parametrize(
    "field, message",
    [("entry", "bad scalar at entry (1, 2)"), ("q", "malformed operator document")],
    ids=["entry", "q"],
)
def test_deeply_nested_scalar_refused(field, message, tmp_path, capsys):
    # the parser recurses per parenthesis, so deep nesting is refused before it starts
    deep = "(" * 5000 + "p" + ")" * 5000
    doc = operator_to_document(dj_r_matrix(2))
    if field == "q":
        doc["q"] = deep
    else:
        doc["entries"][1][2] = deep
    path = tmp_path / "op.json"
    path.write_text(json.dumps(doc))
    assert run(["axioms", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "nested deeper" in captured.err
    assert captured.out == ""


def test_deeply_nested_json_refused(tmp_path, capsys):
    # the JSON decoder recurses per nested array, so the file is refused, not a traceback
    path = tmp_path / "op.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert run(["axioms", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert "nested too deeply" in captured.err
    assert captured.out == ""


def test_file_over_budget_refused_before_parsing(tmp_path, capsys):
    # the Yang-Baxter check of a d = 2 file works in dimension d^3 = 8
    path = tmp_path / "op.json"
    doc = operator_to_document(dj_r_matrix(2))
    path.write_text(json.dumps(doc))
    assert run(["axioms", "--file", str(path), "--max-dim", "8"]) == 0
    capsys.readouterr()
    doc["entries"][0][0] = "p +* 3"  # never read: the size is refused first
    path.write_text(json.dumps(doc))
    assert run(["axioms", "--file", str(path), "--max-dim", "7"]) == 2
    captured = capsys.readouterr()
    assert "Yang-Baxter" in captured.err and "budget 7" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("budget", ["2", "26"])
def test_builtin_over_budget_refused_by_axioms(budget, capsys):
    # the Yang-Baxter check of dj:3 works in dimension d^3 = 27
    assert run(["axioms", "--builtin", "dj:3", "--max-dim", budget]) == 2
    captured = capsys.readouterr()
    assert "Yang-Baxter" in captured.err and f"budget {budget}" in captured.err
    assert captured.out == ""


def test_builtin_within_budget_runs_axioms(capsys):
    assert run(["axioms", "--builtin", "dj:3", "--max-dim", "27"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_missing_file():
    with pytest.raises(CLIError, match="cannot read"):
        load_operator("/nonexistent/op.json")


def test_specialized_document_roundtrip(tmp_path):
    op = dj_r_matrix(2).specialize(Fraction(3, 2))
    doc = operator_to_document(op)
    assert doc["parameter"] == "3/2"
    jsonschema.validate(doc, file_schema())
    back = operator_from_document(doc)
    assert back.specialized_at == Fraction(3, 2)
    # the saved name already says where p was pinned: it is not added twice
    assert back.name == "dj:2@p=3/2"
    path, out = str(tmp_path / "op.json"), str(tmp_path / "r.json")
    save_operator(op, path)
    assert run(["dims", "--file", path, "-a", "S", "-N", "1", "-o", out]) == 0
    assert read_report(out)["operator"] == "dj:2@p=3/2"


# ---------------------------------------------------------------------------
# subcommands and exit codes


def test_axioms_pass():
    assert run(["axioms", "--builtin", "dj:2"]) == 0
    assert run(["axioms", "--builtin", "superflip:1|1"]) == 0


def test_axioms_elapsed_covers_the_computation(tmp_path, monkeypatch):
    import heckebialg.cli as cli

    computed = cli.operator_axiom_report

    def slow_report(*args, **kwargs):
        time.sleep(0.02)
        return computed(*args, **kwargs)

    monkeypatch.setattr(cli, "operator_axiom_report", slow_report)
    out = str(tmp_path / "r.json")
    assert run(["axioms", "--builtin", "dj:2", "-o", out]) == 0
    assert all(c["elapsed"] >= 0.02 for c in read_report(out)["checks"])


@pytest.mark.parametrize("name", ["dj:0", "flip:0", "superflip:0|0", "superflip:-1|2"])
def test_degenerate_builtin_refused(name, capsys):
    assert run(["axioms", "--builtin", name]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "args",
    [["dims", "-a", "E"], ["koszul", "-a", "E"], ["schur"], ["poincare"], ["report"]],
    ids=["dims", "koszul", "schur", "poincare", "report"],
)
def test_specialization_with_vanishing_q_refused(args, capsys):
    # at p = 0, q = p^2 = 0 and R^2 = -R: no inverse, so no check may run
    assert run(args + ["--builtin", "dj:2", "--specialize", "p=0"]) == 2
    captured = capsys.readouterr()
    assert "q = 0" in captured.err and "not invertible" in captured.err
    assert captured.out == ""


def test_requires_exactly_one_source(capsys):
    assert run(["axioms"]) == 2
    assert "exactly one" in capsys.readouterr().err
    assert run(["axioms", "--builtin", "dj:2", "--file", "x.json"]) == 2


def test_dims_s(tmp_path):
    out = str(tmp_path / "r.json")
    assert run(["dims", "--builtin", "dj:2", "-a", "S", "-N", "5", "-o", out]) == 0
    doc = read_report(out)
    vals = [c["computed"]["direct-rank"] for c in doc["checks"]]
    assert vals == [1, 2, 3, 4, 5, 6]
    jsonschema.validate(doc, report_schema())


def test_dims_edual(tmp_path):
    out = str(tmp_path / "r.json")
    assert run(["dims", "--builtin", "dj:2", "-a", "Edual", "-N", "5", "-o", out]) == 0
    vals = [c["computed"]["direct-rank"] for c in read_report(out)["checks"]]
    assert vals == [1, 4, 6, 4, 1, 0]


def test_dims_e_has_centralizer_route(tmp_path):
    out = str(tmp_path / "r.json")
    assert run(["dims", "--builtin", "dj:2", "-a", "E", "-N", "3", "-o", out]) == 0
    doc = read_report(out)
    n2 = doc["checks"][2]
    assert n2["computed"] == {"direct-rank": 10, "centralizer": 10}
    assert n2["expected"] == 10
    assert set(n2["routes"]) == {"direct-rank", "centralizer"}


def test_dims_trivial_flip1(tmp_path):
    out = str(tmp_path / "r.json")
    assert run(["dims", "--builtin", "flip:1", "-a", "E", "-N", "6", "-o", out]) == 0
    vals = [c["computed"]["direct-rank"] for c in read_report(out)["checks"]]
    assert vals == [1] * 7


def test_poincare_dj2(tmp_path):
    out = str(tmp_path / "r.json")
    assert run(["poincare", "--builtin", "dj:2", "-N", "4", "-o", out]) == 0
    doc = read_report(out)
    e_vals = [
        c["expected"] for c in doc["checks"] if c["name"] == "poincare/e-dimension"
    ]
    assert e_vals == [1, 4, 10, 20, 35]
    # records merged from several routes carry the time of their computation
    merged = [
        c
        for c in doc["checks"]
        if c["name"] == "poincare/p-sequence"
        or (c["name"] in ("poincare/e-dimension", "poincare/b-dimension") and c["degree"] >= 2)
    ]
    assert merged and all(c["elapsed"] > 0 for c in merged)
    jsonschema.validate(doc, report_schema())


def test_poincare_dj3(tmp_path):
    out = str(tmp_path / "r.json")
    assert run(["poincare", "--builtin", "dj:3", "-N", "3", "-o", out]) == 0
    e_vals = [
        c["expected"]
        for c in read_report(out)["checks"]
        if c["name"] == "poincare/e-dimension"
    ]
    assert e_vals == [1, 9, 45, 165]


def test_poincare_superflip(tmp_path):
    out = str(tmp_path / "r.json")
    assert run(["poincare", "--builtin", "superflip:1|1", "-N", "3", "-o", out]) == 0
    doc = read_report(out)
    e_vals = [
        c["expected"] for c in doc["checks"] if c["name"] == "poincare/e-dimension"
    ]
    assert e_vals == [1, 4, 8, 12]
    rec = [c for c in doc["checks"] if c["name"] == "poincare/character-recursion"]
    assert rec and rec[0]["ok"]


def test_koszul_s_distributive():
    assert run(["koszul", "--builtin", "dj:2", "-a", "S", "-n", "4"]) == 0


def test_koszul_inconclusive_exits_nonzero(tmp_path):
    out = str(tmp_path / "r.json")
    code = run(["koszul", "--builtin", "dj:2", "-a", "E", "-n", "3", "--cap", "1", "-o", out])
    assert code == 1
    doc = read_report(out)
    dist = [c for c in doc["checks"] if "distributivity" in c["name"]][0]
    assert dist["computed"]["status"] == "inconclusive"
    assert not doc["ok"]


def test_inconclusive_record_names_its_limit(tmp_path):
    out = str(tmp_path / "r.json")
    assert run(["koszul", "--builtin", "dj:2", "-a", "E", "-n", "4", "--cap", "5", "-o", out]) == 1
    dist = [c for c in read_report(out)["checks"] if "distributivity" in c["name"]][0]
    # the basis holds, and --cap runs the closure as a second route that stops at the cap
    assert dist["computed"] == {
        "status": "inconclusive",
        "free": 35,
        "dual": 1,
        "closure_size": 9,
        "eliminations": 6,
        "certified": 0,
        "limit": "closure exceeded cap 5",
    }
    assert dist["routes"] == ["distributing-basis", "closure"]
    # a settled verdict carries no limit
    assert run(["koszul", "--builtin", "dj:2", "-a", "S", "-n", "3", "--cap", "200", "-o", out]) == 0
    dist = [c for c in read_report(out)["checks"] if "distributivity" in c["name"]][0]
    assert set(dist["computed"]) == {"status", "free", "dual", "closure_size", "eliminations", "certified"}


def test_plain_koszul_runs_no_closure(tmp_path):
    out = str(tmp_path / "r.json")
    assert run(["koszul", "--builtin", "dj:2", "-a", "E", "-n", "4", "-o", out]) == 0
    doc = read_report(out)
    series = [c for c in doc["checks"] if c["name"].startswith("koszul/series/")][0]
    dist = [c for c in doc["checks"] if c["name"].startswith("koszul/distributivity/")][0]
    assert dist["routes"] == ["distributing-basis"]
    assert dist["computed"] == {"status": "distributive", "free": 35, "dual": 1}
    # the basis's counts are a third route for dim A_n and dim (A^!)_n
    assert (35, 1) == (series["computed"]["dims"][4], series["computed"]["dual_dims"][4])
    assert dist["ok"] and doc["parameters"]["cap"] is None


@pytest.mark.parametrize(
    "args",
    [
        ["koszul", "-a", "E", "-n", "3"],
        ["report", "-N", "2"],
    ],
)
def test_exhausted_time_budget_is_inconclusive(args, tmp_path):
    out = str(tmp_path / "r.json")
    assert run(args + ["--builtin", "dj:2", "--time-budget", "1e-9", "-o", out]) == 1
    doc = read_report(out)
    assert doc["parameters"]["time_budget"] == 1e-9
    dist = [c for c in doc["checks"] if "distributivity" in c["name"]]
    assert dist
    for c in dist:
        assert c["computed"]["status"] == "inconclusive"
        assert c["computed"]["limit"] == "time budget of 1e-09 s exhausted"
        assert not c["ok"]


def test_ample_time_budget_changes_no_check(tmp_path):
    plain, timed = str(tmp_path / "plain.json"), str(tmp_path / "timed.json")
    args = ["koszul", "--builtin", "dj:2", "-a", "S", "-n", "3"]
    assert run(args + ["-o", plain]) == 0
    assert run(args + ["--time-budget", "600", "-o", timed]) == 0
    plain, timed = read_report(plain), read_report(timed)
    # without the option the parameters are what they always were
    assert "time_budget" not in plain["parameters"]
    assert timed["parameters"] == {**plain["parameters"], "time_budget": 600.0}
    for doc in (plain, timed):
        for c in doc["checks"]:
            c.pop("elapsed")
    assert timed["checks"] == plain["checks"]


@pytest.mark.parametrize("value", ["0", "-1", "nan"])
@pytest.mark.parametrize("command", [["koszul", "-n", "3"], ["report", "-N", "2"]])
def test_nonpositive_time_budget_refused(command, value, capsys):
    assert run(command + ["--builtin", "dj:2", "--time-budget", value]) == 2
    captured = capsys.readouterr()
    assert "time budget" in captured.err
    assert captured.out == ""  # refused before any check ran


def test_schur_dj2(tmp_path):
    out = str(tmp_path / "r.json")
    assert run(["schur", "--builtin", "dj:2", "-n", "3", "-o", out]) == 0
    doc = read_report(out)
    three = [c for c in doc["checks"] if c["name"] == "schur/dimension-three-routes"][0]
    assert three["computed"]["sum_of_squares"] == 20
    assert three["computed"]["centralizer"] == 20
    assert three["computed"]["e_dimension"] == 20


def test_schur_specialized_runs_two_routes(tmp_path):
    out = str(tmp_path / "r.json")
    code = run(
        ["schur", "--builtin", "dj:2", "--specialize", "p=3/2", "-n", "2", "-o", out]
    )
    assert code == 0
    doc = read_report(out)
    names = [c["name"] for c in doc["checks"]]
    assert "schur/dimension-two-routes" in names
    assert all(c["elapsed"] > 0 for c in doc["checks"] if c["name"] == "schur/dimension-two-routes")
    assert "schur/dimension-three-routes" not in names
    assert "@p=3/2" in doc["operator"]


def test_poincare_specialized(tmp_path):
    out = str(tmp_path / "r.json")
    assert run(["poincare", "--builtin", "dj:2", "--specialize", "p=5/3", "-N", "3", "-o", out]) == 0
    doc = read_report(out)
    p_rec = [c for c in doc["checks"] if c["name"] == "poincare/p-sequence"][0]
    assert p_rec["routes"] == ["formula"]


def numeric_q_file(tmp_path):
    """dj:2 with every entry at p = 2 and q = 4, in a file that says symbolic-p."""
    doc = operator_to_document(dj_r_matrix(2).specialize(2))
    doc.update(name="dj2-q4", parameter="symbolic-p")
    path = str(tmp_path / "q4.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


@pytest.mark.parametrize(
    "args",
    [["schur", "-n", "2"], ["poincare", "-N", "3"], ["report", "-N", "3"]],
    ids=["schur", "poincare", "report"],
)
def test_numeric_q_runs_only_the_routes_of_every_q(args, tmp_path, capsys):
    # q = 4 stays 4 at p = 1: the q = 1 trace and multiplicity routes do not apply
    out = str(tmp_path / "r.json")
    assert run(args + ["--file", numeric_q_file(tmp_path), "-o", out]) == 0
    assert capsys.readouterr().err == ""
    checks = {c["name"]: c for c in read_report(out)["checks"]}
    if "poincare/p-sequence" in checks:
        assert checks["poincare/p-sequence"]["routes"] == ["formula"]
        assert checks["poincare/b-dimension"]["ok"]
    if args[0] != "poincare":
        assert "schur/dimension-two-routes" in checks
        assert "schur/dimension-three-routes" not in checks


@pytest.mark.parametrize(
    "args",
    [
        ["schur", "--builtin", "flip:2", "-n", "3", "--specialize", "p=3/2"],
        ["report", "--builtin", "dj:2", "-N", "3", "--specialize", "p=1"],
    ],
    ids=["flip2@p=3/2", "dj2@p=1"],
)
def test_specialized_q_one_keeps_the_q_one_routes(args, tmp_path):
    out = str(tmp_path / "r.json")
    assert run(args + ["-o", out]) == 0
    checks = {c["name"]: c for c in read_report(out)["checks"]}
    assert checks["schur/dimension-three-routes"]["ok"]
    assert "schur/dimension-two-routes" not in checks
    if "poincare/p-sequence" in checks:
        assert checks["poincare/p-sequence"]["routes"] == ["direct-rank", "formula"]


def test_bad_specialization(tmp_path, capsys):
    assert run(["dims", "--builtin", "dj:2", "--specialize", "3/2"]) == 2
    assert "p=<rational>" in capsys.readouterr().err
    # a file already at p = 3/2 holds numbers: a second value of p would
    # only relabel what was computed at the first
    path = str(tmp_path / "op.json")
    save_operator(dj_r_matrix(2).specialize(Fraction(3, 2)), path)
    assert run(["dims", "--file", path, "-a", "S", "-N", "2", "--specialize", "p=2"]) == 2
    out = capsys.readouterr()
    assert "already specialized at p = 3/2" in out.err and not out.out


# ---------------------------------------------------------------------------
# budgets


def test_budget_refusal(capsys):
    code = run(["dims", "--builtin", "dj:2", "-a", "E", "-N", "8", "--max-dim", "100"])
    assert code == 2
    err = capsys.readouterr().err
    assert "budget" in err and "HBL_MAX_AMBIENT" in err


def test_budget_env(monkeypatch, capsys):
    monkeypatch.setenv("HBL_MAX_AMBIENT", "10")
    assert run(["dims", "--builtin", "dj:2", "-a", "E", "-N", "3"]) == 2
    # an explicit flag wins over the environment
    assert run(["dims", "--builtin", "dj:2", "-a", "E", "-N", "3", "--max-dim", "4096"]) == 0


def test_budget_env_not_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("HBL_MAX_AMBIENT", "abc")
    assert run(["dims", "--builtin", "dj:2", "-N", "1"]) == 2
    assert "HBL_MAX_AMBIENT" in capsys.readouterr().err


def test_report_into_missing_directory_refused(tmp_path, capsys):
    out = str(tmp_path / "missing" / "r.json")
    assert run(["dims", "--builtin", "dj:2", "-N", "1", "-o", out]) == 2
    captured = capsys.readouterr()
    assert "no such directory" in captured.err
    assert captured.out == ""  # refused before any check ran


def test_run_without_checks_refused(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["dims", "--builtin", "dj:2", "-N", "-1", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert "no checks" in captured.err
    assert "all checks passed" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["poincare", "-N", "0"],
        ["poincare", "-N", "-1"],
        ["report", "-N", "0"],
        ["report", "-N", "-1"],
        ["schur", "-n", "0"],
        ["schur", "-n", "9", "--max-dim", "300000"],
        ["koszul", "-n", "0"],
        ["koszul", "-n", "1"],
        ["axioms", "-N", "0"],
        ["axioms", "-N", "-3"],
    ],
)
def test_out_of_range_degree_refused(args, capsys):
    assert run(args + ["--builtin", "dj:2"]) == 2
    captured = capsys.readouterr()
    assert "degree" in captured.err or "character table" in captured.err
    assert captured.out == ""  # refused before any check ran


@pytest.mark.parametrize(
    "args",
    [
        ["koszul", "-a", "S", "-n", "2", "--cap", "0"],
        ["koszul", "-a", "S", "-n", "2", "--cap", "-5"],
        ["report", "-N", "2", "--cap", "0"],
    ],
)
def test_closure_cap_below_one_refused(args, capsys):
    # a cap of 0 would stop the closure at once and read as inconclusive (exit 1)
    assert run(args + ["--builtin", "dj:2"]) == 2
    captured = capsys.readouterr()
    assert "--cap" in captured.err
    assert captured.out == ""


def test_report_degree_one_skips_koszul(tmp_path):
    # at N = 1 the Koszul checks have no relations to test, so they are left out
    out = str(tmp_path / "r.json")
    assert run(["report", "--builtin", "dj:2", "-N", "1", "-o", out]) == 0
    names = [c["name"] for c in read_report(out)["checks"]]
    assert not any(n.startswith("koszul/") for n in names)
    assert "poincare/character-recursion" in names and "axioms/hecke-quadratic" in names


def test_budget_skips_optional_direct_route(tmp_path):
    # over-budget direct ranks are skipped inside poincare (the formula
    # route carries on), while the mandatory S-series stays within budget
    out = str(tmp_path / "r.json")
    assert run(["poincare", "--builtin", "dj:2", "-N", "4", "--max-dim", "64", "-o", out]) == 0
    doc = read_report(out)
    e4 = [c for c in doc["checks"] if c["name"] == "poincare/e-dimension"][4]
    assert e4["routes"] == ["formula"]


# ---------------------------------------------------------------------------
# the aggregate report


def test_report_small(tmp_path):
    out = str(tmp_path / "r.json")
    assert run(["report", "--builtin", "dj:2", "-N", "2", "-o", out]) == 0
    doc = read_report(out)
    assert doc["ok"] is True
    assert doc["command"] == "report"
    jsonschema.validate(doc, report_schema())
    names = {c["name"] for c in doc["checks"]}
    assert "axioms/hecke-quadratic" in names
    assert "poincare/character-recursion" in names
    assert any(n.startswith("koszul/distributivity") for n in names)
    assert any(n.startswith("schur/") for n in names)


def test_report_computes_each_dimension_once(monkeypatch, tmp_path):
    # the dims, poincare, koszul and schur checks ask 35 times for dim A_n,
    # 20 times for dim (A^!)_n and 5 times for a centralizer.  Each degree
    # n >= 2 of a relation sum is one elimination, resumed from the degree
    # below: S to n = 4, Lambda and E to n = 3, 7 in all.  Each distinct
    # dual dimension with n >= 3 takes one rank, 3, and each of the three
    # distributing bases one more, its full-rank test: 6 ranks in qalg.
    # The centralizer of each degree n >= 2 is one elimination too, 2 in
    # schur.  Every call appends a line to a file, which the forked worker
    # (it takes the double centralizers) would share
    log = tmp_path / "eliminations"
    for module, name in (("qalg", "forward_eliminate"), ("qalg", "rank"), ("schur", "forward_eliminate")):
        original = getattr(linalg, name)

        def counted(*args, tag=f"{module}.{name}", original=original):
            with open(log, "a") as fh:
                fh.write(tag + "\n")
            return original(*args)

        monkeypatch.setattr(f"heckebialg.{module}.{name}", counted)
    assert run(["report", "--builtin", "dj:2", "-N", "3"]) == 0
    assert Counter(log.read_text().split()) == {
        "qalg.forward_eliminate": 7,
        "qalg.rank": 6,
        "schur.forward_eliminate": 2,
    }


# ---------------------------------------------------------------------------
# the centralizer worker


def dense_dj2_file(tmp_path):
    path = str(tmp_path / "dense-dj2.json")
    save_operator(dense_dj2(), path)
    return path


def run_without_elapsed(args, tmp_path, capsys):
    """(exit code, stdout, report with every elapsed dropped) of one run."""
    out = str(tmp_path / "worker-report.json")
    code = run(args + ["-o", out])
    doc = read_report(out)
    for check in doc["checks"]:
        del check["elapsed"]
    return code, capsys.readouterr().out, doc


def no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


# each run kind and the forks it makes: one worker per run that has
# centralizer values for it, none for any other
WORKER_RUNS = {
    "report-dj2-N3": (["report", "--builtin", "dj:2", "-N", "3"], 1),
    "report-dj3-N2": (["report", "--builtin", "dj:3", "-N", "2"], 1),
    "schur-dj2-n3": (["schur", "--builtin", "dj:2", "-n", "3"], 1),
    "dims-dense-E-N3": (["dims", "--file", "{dense}", "-a", "E", "-N", "3"], 1),
    "dims-dj2-S-N4": (["dims", "--builtin", "dj:2", "-a", "S", "-N", "4"], 0),
    "dims-dj2-Edual-N3": (["dims", "--builtin", "dj:2", "-a", "Edual", "-N", "3"], 0),
    "koszul-dj2-E-n3": (["koszul", "--builtin", "dj:2", "-a", "E", "-n", "3"], 0),
    "poincare-dj2-N4": (["poincare", "--builtin", "dj:2", "-N", "4"], 0),
    "axioms-dj2": (["axioms", "--builtin", "dj:2"], 0),
}


@pytest.mark.parametrize("name", list(WORKER_RUNS))
def test_worker_runs_match_the_inline_runs(name, monkeypatch, tmp_path, capsys):
    # without os.fork every value is computed inline; nothing else may differ
    args, workers = WORKER_RUNS[name]
    args = [dense_dj2_file(tmp_path) if a == "{dense}" else a for a in args]
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    forked = run_without_elapsed(args, tmp_path, capsys)
    assert len(forks) == workers
    monkeypatch.delattr(os, "fork")
    assert run_without_elapsed(args, tmp_path, capsys) == forked
    assert forked[0] == 0
    assert no_children_left()


def lost_in_the_worker(fn, how):
    """``fn`` that raises or exits in any process but this one."""
    parent = os.getpid()

    def wrapped(*args):
        if os.getpid() != parent:
            if how == "raise":
                raise RuntimeError("lost in the worker")
            os._exit(1)
        return fn(*args)

    return wrapped


@pytest.mark.parametrize("how", ["raise", "exit"])
def test_a_lost_worker_costs_only_time(how, monkeypatch, tmp_path, capsys):
    args = ["report", "--builtin", "dj:2", "-N", "3"]
    expected = run_without_elapsed(args, tmp_path, capsys)
    for name in ("centralizer_dimension", "bicommutant_check"):
        monkeypatch.setattr(f"heckebialg.cli.{name}", lost_in_the_worker(getattr(cli, name), how))
    assert run_without_elapsed(args, tmp_path, capsys) == expected
    assert no_children_left()


@memoised
def pid(owner, n):
    return os.getpid()


@memoised
def boom(owner, n):
    raise ValueError("boom")


@memoised
def slow(owner, n):
    time.sleep(60)
    return os.getpid()


def job(fn, owner, n):
    """A worker job for the memoised ``fn(owner, n)``: its memo key and thunk."""
    return (fn.__name__, n), functools.partial(fn, owner, n)


def test_worker_raises_where_the_sequential_run_raises():
    owner = SimpleNamespace(memo={})
    with Worker(owner, [job(pid, owner, 1), job(boom, owner, 2), job(pid, owner, 3)]) as memo:
        assert owner.memo is memo
        assert pid(owner, 1) != os.getpid()
        with pytest.raises(ValueError, match="boom"):
            boom(owner, 2)
        # the pipe ended at the raise: what the child did not send is computed here
        assert pid(owner, 3) == os.getpid()
    assert no_children_left()


def test_the_memo_holds_what_the_worker_sent():
    owner = SimpleNamespace(memo={("pid", 0): "kept"})
    with Worker(owner, [job(pid, owner, n) for n in (1, 2, 3)] + [job(slow, owner, 5)]):
        # a key no job names is computed here at once, not waited for
        started = time.monotonic()
        here = pid(owner, 4)
        assert time.monotonic() - started < 30
        assert here == os.getpid()
        # asking for the last value reads every value before it
        child = pid(owner, 3)
        assert child != here
        assert dict(owner.memo) == {
            ("pid", 0): "kept",
            ("pid", 1): child,
            ("pid", 2): child,
            ("pid", 3): child,
            ("pid", 4): here,
        }
    assert no_children_left()


def test_a_refused_fork_runs_every_job_here(monkeypatch):
    def refused():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", refused)
    owner = SimpleNamespace(memo={})
    with Worker(owner, [job(pid, owner, 1), job(pid, owner, 2)]):
        assert (pid(owner, 2), pid(owner, 1)) == (os.getpid(), os.getpid())
    assert no_children_left()


def test_refusal_kills_and_reaps_the_worker(monkeypatch, capsys):
    # E(dj:3) is refused at n = 4, long after the double-centralizer worker
    # started; here that worker would sleep for a minute
    parent = os.getpid()
    check = cli.bicommutant_check

    def slow(op, n):
        if os.getpid() != parent:
            time.sleep(60)
        return check(op, n)

    monkeypatch.setattr("heckebialg.cli.bicommutant_check", slow)
    started = time.monotonic()
    assert run(["report", "--builtin", "dj:3", "-N", "5"]) == 2
    assert time.monotonic() - started < 30
    assert "over the budget" in capsys.readouterr().err
    assert no_children_left()


def test_report_deterministic(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run(["report", "--builtin", "superflip:1|1", "-N", "2", "-o", a]) == 0
    assert run(["report", "--builtin", "superflip:1|1", "-N", "2", "-o", b]) == 0

    def strip(doc):
        for c in doc["checks"]:
            c["elapsed"] = 0.0
        return doc

    assert strip(read_report(a)) == strip(read_report(b))


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "heckebialg.cli", "axioms", "--builtin", "dj:2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "all checks passed" in proc.stdout


def test_import_leaves_out_dataclasses():
    # every hbl run is a fresh interpreter, so each module the import pulls
    # in adds to the start-up of every run.  Diffed against the bare
    # interpreter, since site preloads modules on some machines; pickle and
    # signal are the worker's, imported only when it forks
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = "import sys; before = set(sys.modules); import heckebialg.cli; print(*set(sys.modules) - before)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "heckebialg.cli" in added
    heavy = {"dataclasses", "inspect", "ast", "typing", "pickle", "signal", "subprocess", "threading"}
    assert not added & heavy


def test_file_source_through_cli(tmp_path):
    path = str(tmp_path / "op.json")
    save_operator(dj_r_matrix(2), path)
    assert run(["axioms", "--file", path]) == 0
