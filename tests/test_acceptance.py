"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line (written to the real stdout so it
survives capture) with the elapsed time against the stated budget, then
asserts.  Budgets are wall-clock ceilings, not targets; everything here
runs orders of magnitude faster on a laptop.
"""

import json
import time
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from math import comb

from heckebialg.cli import main, operator_to_document
from heckebialg.exactnum import MAX_NESTING, MAX_POWER_SIZE, ONE, rf_eval_at_one
from heckebialg.linalg import Matrix, echelonize
from heckebialg.poincare import (
    b_sequence,
    poincare_E,
    t_specialize_p_from_operator,
    verify_character_recursion,
)
from heckebialg.qalg import (
    build_e,
    build_lambda,
    build_s,
    distributivity_check,
    dual_component,
    graded_dimension,
    koszul_series_check,
)
from heckebialg.rmatrix import (
    dj_r_matrix,
    flip_operator,
    matrix_space_operator,
    operator_axiom_report,
    rho,
    staircase_projector,
    staircase_projector_trace,
    super_flip,
)
from heckebialg.schur import (
    bicommutant_check,
    centralizer_dimension,
    schur_dimension_check,
)
from heckebialg.symhecke import antisymmetrizer, symmetrizer

# shared so the representation caches carry across criteria, as they would
# in a single verification run
DJ2 = dj_r_matrix(2)
DJ3 = dj_r_matrix(3)
SFLIP = super_flip(1, 1)


@contextmanager
def criterion(number, budget_seconds, detail, capsys=None):
    started = time.monotonic()
    outcome = {"ok": False}
    try:
        yield outcome
        outcome["ok"] = True
    finally:
        elapsed = time.monotonic() - started
        over = elapsed >= budget_seconds
        state = "FAIL" if (not outcome["ok"] or over) else "PASS"
        uncaptured = capsys.disabled() if capsys is not None else nullcontext()
        with uncaptured:
            print(
                f"[{state}] criterion {number}: {detail} "
                f"({elapsed:.2f}s, budget {budget_seconds:.0f}s)",
                flush=True,
            )
        if outcome["ok"] and over:
            raise AssertionError(
                f"criterion {number} exceeded budget: {elapsed:.1f}s"
            )


def test_criterion_1_operator_axioms(capsys):
    ops = [DJ2, DJ3, flip_operator(1), flip_operator(2), flip_operator(3), SFLIP]
    with criterion(1, 10, "Hecke + Yang-Baxter axioms for all builtin operators", capsys):
        for op in ops:
            for name, result in operator_axiom_report(op):
                assert result.ok, f"{op.name}: {name} fails at {result.witness}"


def test_criterion_2_symmetric_and_exterior_dimensions(capsys):
    with criterion(2, 120, "S and Lambda dimensions, direct rank and projector rank", capsys):
        for op, top in ((DJ2, 5), (DJ3, 4)):
            d = op.d
            sym = build_s(op)
            lam = build_lambda(op)
            for n in range(top + 1):
                assert graded_dimension(sym, n) == comb(d + n - 1, n)
                assert graded_dimension(lam, n) == comb(d, n)
            for n in range(1, top + 1):
                rx = echelonize(rho(op, n, symmetrizer(n, op.q)).data, d**n).dim
                ry = echelonize(rho(op, n, antisymmetrizer(n, op.q)).data, d**n).dim
                assert rx == comb(d + n - 1, n), (op.name, n, rx)
                assert ry == comb(d, n), (op.name, n, ry)


def test_criterion_3_endomorphism_dimensions_three_routes(capsys):
    expected = [1, 4, 10, 20, 35]
    with criterion(3, 600, "dim E_n for dj:2 by rank, centralizer, and exp-formula", capsys):
        alg = build_e(DJ2)
        for n in range(4):
            assert graded_dimension(alg, n) == expected[n]
        for n in range(1, 4):
            assert centralizer_dimension(DJ2, n) == expected[n]
        p = t_specialize_p_from_operator(DJ2, 4)
        series = poincare_E(p, 4)
        assert [series[n] for n in range(5)] == [
            Fraction(e) for e in expected
        ]


def test_criterion_4_dual_dimensions_and_staircase_images(capsys):
    with criterion(4, 900, "b_n = C(4,n) two ways; staircase image = dual component", capsys):
        p = t_specialize_p_from_operator(DJ2, 4)
        assert b_sequence(p, 5) == [Fraction(comb(4, n)) for n in range(6)]
        wop = matrix_space_operator(DJ2)
        s = wop.R.scale(-ONE)
        for n in range(1, 6):
            tr = rf_eval_at_one(staircase_projector_trace(s, n, wop.q, wop.d))
            assert tr == comb(4, n), (n, tr)
        alg = build_e(DJ2)
        image1 = echelonize(staircase_projector(s, 1, wop.q, wop.d).data, 4)
        assert image1.dim == 4
        for n in (2, 3):
            image = echelonize(
                staircase_projector(s, n, wop.q, wop.d).data, 4**n
            )
            assert image == dual_component(alg, n), n


def test_criterion_5_character_recursion(capsys):
    with criterion(5, 300, "symbolic character recursion for dj:2, p_0 = d", capsys):
        report = verify_character_recursion(DJ2, 5)
        assert report.ok, str(report)
        assert report.p_zero == "2"
        assert report.naive_p0_fails
        assert "p_0 = 1" in report.note and "n = 1" in report.note


def test_criterion_6_superflip_dimensions(capsys):
    expected = [1, 4, 8, 12]
    with criterion(6, 300, "superflip e_n by rank and by exp-formula", capsys):
        alg = build_e(SFLIP)
        assert [graded_dimension(alg, n) for n in range(4)] == expected
        p = t_specialize_p_from_operator(SFLIP, 3)
        assert p == [Fraction(1 + (-1) ** k) for k in range(4)]
        series = poincare_E(p, 3)
        assert [series[n] for n in range(4)] == [
            Fraction(e) for e in expected
        ]
        # not the dimension sequence of any polynomial ring
        for m in range(1, 33):
            assert [comb(m + n - 1, n) for n in range(4)] != expected


def test_criterion_7_distributivity_and_koszul_series(capsys):
    with criterion(7, 1800, "degree-4 distributivity and Koszul series identities", capsys):
        for build in (build_s, build_lambda, build_e):
            report = distributivity_check(build(DJ2), 4, time_budget=1740)
            assert report.status == "distributive", str(report)
        for alg in (build_s(DJ2), build_lambda(DJ2), build_e(DJ2), build_e(SFLIP)):
            series = koszul_series_check(alg, 4)
            assert series.ok, str(series)


def test_criterion_8_schur_weyl_dimensions(capsys):
    with criterion(8, 600, "multiplicity mass, centralizer, and bicommutant checks", capsys):
        for n, total in ((2, 10), (3, 20)):
            report = schur_dimension_check(DJ2, n)
            assert report.ok, str(report)
            assert report.sum_of_squares == total
            assert report.table.total_dimension() == 2**n
        sflip_report = schur_dimension_check(SFLIP, 2)
        assert sflip_report.ok, str(sflip_report)
        assert sflip_report.sum_of_squares == 8
        assert sflip_report.table.total_dimension() == 4
        for n in (1, 2, 3):
            bicom = bicommutant_check(DJ2, n)
            assert bicom.ok, str(bicom)


def test_criterion_9_full_report_run(tmp_path, capsys):
    out = tmp_path / "report.json"
    with criterion(9, 900, "full verification report for dj:2 at N = 3", capsys):
        code = main(
            ["report", "--builtin", "dj:2", "-N", "3", "-o", str(out)]
        )
        assert code == 0
        document = json.loads(out.read_text())
        assert document["ok"] is True
        assert all(check["ok"] for check in document["checks"])


# ---------------------------------------------------------------------------
# the exit-code contract: 0 when every check passed, 1 when a check failed,
# 2 when the run was refused, with no check run and nothing on stdout


def refused(args, capsys, reason):
    """True when ``hbl args`` exits 2 before any check, naming ``reason``."""
    code = main(args)
    captured = capsys.readouterr()
    return code == 2 and reason in captured.err and captured.out == ""


def test_criterion_10_exit_codes(tmp_path, capsys):
    with criterion(10, 60, "exit 0 when all checks pass, 1 when one fails, 2 when refused", capsys):
        out = tmp_path / "pass.json"
        assert main(["axioms", "--builtin", "dj:2", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["ok"] is True
        # a closure capped at one member leaves the distributivity check inconclusive
        out = tmp_path / "fail.json"
        assert main(["koszul", "--builtin", "dj:2", "-a", "E", "-n", "3", "--cap", "1", "-o", str(out)]) == 1
        failed = [c["name"] for c in json.loads(out.read_text())["checks"] if not c["ok"]]
        assert failed == ["koszul/distributivity/E(dj:2)"]
        capsys.readouterr()
        out = tmp_path / "refused.json"
        assert refused(["dims", "--builtin", "dj:2", "-a", "E", "-N", "7", "-o", str(out)], capsys, "budget")
        assert not out.exists()


def test_criterion_11_no_vacuous_pass(capsys):
    with criterion(11, 60, "no checks, koszul -n 1, degree 0 and dimension 0 are refused", capsys):
        assert refused(["dims", "--builtin", "dj:2", "-N", "-1"], capsys, "no checks")
        assert refused(["koszul", "--builtin", "dj:2", "-n", "1"], capsys, "degree")
        assert refused(["koszul", "--builtin", "dj:2", "-n", "0"], capsys, "degree")
        assert refused(["poincare", "--builtin", "dj:2", "-N", "0"], capsys, "degree")
        assert refused(["axioms", "--builtin", "dj:0"], capsys, "d >= 1")


def test_criterion_12_input_bounds(tmp_path, capsys):
    with criterion(12, 60, "oversized powers, deep nesting and d^3 over the budget are refused", capsys):
        path = tmp_path / "op.json"
        for entry, reason in (
            (f"p^{MAX_POWER_SIZE + 1}", "size bound"),
            ("(" * (MAX_NESTING + 1) + "p" + ")" * (MAX_NESTING + 1), "nested deeper"),
        ):
            doc = operator_to_document(DJ2)
            doc["entries"][1][2] = entry
            path.write_text(json.dumps(doc))
            assert refused(["axioms", "--file", str(path)], capsys, reason)
        assert refused(["axioms", "--builtin", "dj:3", "--max-dim", "26"], capsys, "Yang-Baxter")
        path.write_text("[" * 200_000 + "]" * 200_000)
        assert refused(["axioms", "--file", str(path)], capsys, "nested too deeply")


def test_criterion_13_vanishing_q_refused(capsys):
    with criterion(13, 60, "a specialization at q = 0 is refused: R is not invertible", capsys):
        for args in (["dims", "-a", "E"], ["koszul", "-a", "E"], ["schur"], ["poincare"], ["report"]):
            assert refused(args + ["--builtin", "dj:2", "--specialize", "p=0"], capsys, "q = 0"), args
