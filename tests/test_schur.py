"""Character table, multiplicities, centralizer and bicommutant checks."""

import math
from fractions import Fraction

import pytest

from heckebialg.exactnum import ONE, Q, ZERO, Scalar
from heckebialg import linalg
from heckebialg.linalg import (
    Matrix,
    commutant,
    commutant_equations,
    echelonize,
    pivots_at_point,
    rank,
)
from heckebialg.qalg import build_e, graded_dimension
from heckebialg.rmatrix import HeckeOperator, dj_r_matrix, flip_operator, rho_basis, super_flip
from heckebialg.schur import (
    _unvec,
    _vec_row,
    bicommutant_check,
    centralizer_dimension,
    class_size,
    cycle_type_representative,
    hook_length_dimension,
    multiplicities,
    partitions,
    schur_dimension_check,
    sn_character_table,
)
from heckebialg.symhecke import all_permutations, cycle_type, length
from test_qalg import RESUME_OPERATORS


# ---------------------------------------------------------------------------
# partitions and class combinatorics


def test_partitions_small():
    assert partitions(0) == [()]
    assert partitions(1) == [(1,)]
    assert partitions(3) == [(3,), (2, 1), (1, 1, 1)]
    assert len(partitions(8)) == 22


def test_class_sizes_sum_to_group_order():
    for n in range(1, 7):
        assert sum(class_size(mu) for mu in partitions(n)) == math.factorial(n)


def test_class_size_oracle_s4():
    sizes = {mu: class_size(mu) for mu in partitions(4)}
    assert sizes == {(4,): 6, (3, 1): 8, (2, 2): 3, (2, 1, 1): 6, (1, 1, 1, 1): 1}


def test_representative_has_right_type_and_minimal_length():
    for n in range(1, 7):
        for mu in partitions(n):
            w = cycle_type_representative(mu)
            assert cycle_type(w) == mu
            assert length(w) == sum(part - 1 for part in mu)


# ---------------------------------------------------------------------------
# the character table against brute force


def brute_character_values(n):
    """Characters of the trivial, sign, and (for n=3) standard modules,
    computed from the permutations themselves."""
    reps = {mu: cycle_type_representative(mu) for mu in partitions(n)}
    fix = {mu: sum(1 for i, v in enumerate(w, 1) if v == i) for mu, w in reps.items()}
    sign = {mu: (-1) ** length(w) for mu, w in reps.items()}
    out = {
        (n,): {mu: 1 for mu in reps},
        (1,) * n: sign,
    }
    if n == 3:
        out[(2, 1)] = {mu: fix[mu] - 1 for mu in reps}
    return out


def test_table_matches_brute_force_n2():
    t = sn_character_table(2)
    brute = brute_character_values(2)
    for lam, row in brute.items():
        for mu, val in row.items():
            assert t.chi(lam, mu) == val


def test_table_matches_brute_force_n3():
    t = sn_character_table(3)
    brute = brute_character_values(3)
    for lam, row in brute.items():
        for mu, val in row.items():
            assert t.chi(lam, mu) == val


def test_spec_values():
    t2 = sn_character_table(2)
    assert (t2.chi((2,), (1, 1)), t2.chi((2,), (2,))) == (1, 1)
    assert (t2.chi((1, 1), (1, 1)), t2.chi((1, 1), (2,))) == (1, -1)
    t3 = sn_character_table(3)
    assert t3.chi((2, 1), (3,)) == -1
    assert [t3.dimension(lam) for lam in t3.parts] == [1, 2, 1]


def test_dimensions_match_hook_lengths():
    for n in range(1, 8):
        t = sn_character_table(n)
        for lam in t.parts:
            assert t.dimension(lam) == hook_length_dimension(lam)


def test_sum_of_squared_dimensions():
    for n in range(1, 7):
        t = sn_character_table(n)
        assert sum(t.dimension(lam) ** 2 for lam in t.parts) == math.factorial(n)


def test_row_orthogonality():
    for n in range(1, 7):
        t = sn_character_table(n)
        fact = math.factorial(n)
        for lam in t.parts:
            for lam2 in t.parts:
                dot = sum(
                    class_size(mu) * t.chi(lam, mu) * t.chi(lam2, mu)
                    for mu in t.parts
                )
                assert dot == (fact if lam == lam2 else 0)


def test_table_bounds():
    with pytest.raises(ValueError):
        sn_character_table(0)
    with pytest.raises(ValueError):
        sn_character_table(9)


# ---------------------------------------------------------------------------
# multiplicities


def test_multiplicities_n1():
    t = multiplicities(dj_r_matrix(2), 1)
    assert t.mult == {(1,): 2}
    t3 = multiplicities(dj_r_matrix(3), 1)
    assert t3.mult == {(1,): 3}


def test_multiplicities_dj2_n2():
    t = multiplicities(dj_r_matrix(2), 2)
    assert t.mult == {(2,): 3, (1, 1): 1}
    assert t.sum_of_squares() == 10
    assert t.total_dimension() == 4


def test_multiplicities_dj2_n3():
    t = multiplicities(dj_r_matrix(2), 3)
    assert t.mult == {(3,): 4, (2, 1): 2, (1, 1, 1): 0}
    assert t.sum_of_squares() == 20
    assert t.total_dimension() == 8


def test_multiplicities_vanish_beyond_d_rows():
    t = multiplicities(dj_r_matrix(2), 4)
    for lam, m in t.mult.items():
        if len(lam) > 2:
            assert m == 0
    assert t.total_dimension() == 16


def test_multiplicities_dj3_n2():
    t = multiplicities(dj_r_matrix(3), 2)
    assert t.mult == {(2,): 6, (1, 1): 3}
    assert t.sum_of_squares() == 45
    assert t.total_dimension() == 9


def test_multiplicities_superflip_n2():
    t = multiplicities(super_flip(1, 1), 2)
    assert t.mult == {(2,): 2, (1, 1): 2}
    assert t.sum_of_squares() == 8


def test_multiplicities_refuse_specialized_operator():
    op = dj_r_matrix(2).specialize(Fraction(3, 2))
    with pytest.raises(ValueError, match="specialized"):
        multiplicities(op, 2)


# ---------------------------------------------------------------------------
# centralizer dimensions


def test_centralizer_n1_is_full_matrix_algebra():
    assert centralizer_dimension(dj_r_matrix(2), 1) == 4
    assert centralizer_dimension(dj_r_matrix(3), 1) == 9


def test_centralizer_dj2():
    op = dj_r_matrix(2)
    assert centralizer_dimension(op, 2) == 10
    assert centralizer_dimension(op, 3) == 20


def test_centralizer_dj3_n2():
    assert centralizer_dimension(dj_r_matrix(3), 2) == 45


def test_centralizer_superflip_n2():
    assert centralizer_dimension(super_flip(1, 1), 2) == 8


@pytest.mark.parametrize("name", list(RESUME_OPERATORS))
def test_resumed_centralizers_match_the_elimination_from_scratch(name):
    make, budget = RESUME_OPERATORS[name]
    op = make()
    for n in range(1, 6):
        size = op.d**n
        if size * size > budget:
            break
        equations = commutant_equations([op.lifted(i, n) for i in range(1, n)], size)
        assert centralizer_dimension(op, n) == size * size - rank(equations), n


def test_centralizer_matches_e_dimension():
    for op in (dj_r_matrix(2), flip_operator(2), super_flip(1, 1)):
        e = build_e(op)
        for n in (2, 3):
            assert centralizer_dimension(op, n) == graded_dimension(e, n)


# ---------------------------------------------------------------------------
# double centralizer


def test_hecke_span_dims_dj2():
    op = dj_r_matrix(2)
    assert bicommutant_check(op, 2).hecke_span == 2
    # the sign isotypic block is dead at d=2, so 1 + 4 rather than 6
    assert bicommutant_check(op, 3).hecke_span == 5


def test_bicommutant_dj2():
    op = dj_r_matrix(2)
    for n in (1, 2, 3):
        rep = bicommutant_check(op, n)
        assert rep.ok, str(rep)
        assert rep.hecke_span == rep.bicommutant


def test_bicommutant_flip2():
    rep = bicommutant_check(flip_operator(2), 3)
    assert rep.ok
    assert rep.hecke_span == 5


def bicommutant_oracle(op, n):
    """(span, centralizer, bicommutant, ok) with the bicommutant built in full.

    c2 is the commutant of every basis matrix of c1, kernel basis and all,
    and the check compares it with the span of the rho(T_w) literally.
    """
    size = op.d**n
    c1 = commutant([op.lifted(i, n) for i in range(1, n)], size)
    c2 = commutant([_unvec(row, size) for row in c1.basis], size)
    images = rho_basis(op, n)
    span = echelonize([_vec_row(images[w]) for w in sorted(images)], size * size)
    return span.dim, c1.dim, c2.dim, span == c2


def conjugate(op, rows):
    g = Matrix.from_rows(rows)
    gg = g.kron(g)
    return HeckeOperator(op.d, gg * op.R * gg.inverse(), op.q, f"{op.name}^g")


def diagonal_operator():
    # not a Hecke operator: its bicommutant is all diagonal matrices
    entries = [Scalar(k) for k in (1, 2, 3, 4)]
    return HeckeOperator(2, Matrix(4, 4, [{i: v} for i, v in enumerate(entries)]), Q, "diag")


BICOMMUTANT_CASES = (
    [("dj:2", lambda: dj_r_matrix(2), n) for n in (1, 2, 3, 4)]
    + [("dj:3", lambda: dj_r_matrix(3), n) for n in (2, 3)]
    + [("superflip:1|1", lambda: super_flip(1, 1), n) for n in (3, 4)]
    + [("flip:2", lambda: flip_operator(2), 3)]
    + [("dj:2@p=3/2", lambda: dj_r_matrix(2).specialize(Fraction(3, 2)), n) for n in (2, 3)]
    + [("dj:2^g", lambda: conjugate(dj_r_matrix(2), [[ONE, Scalar(2)], [ZERO, ONE]]), 3)]
    + [("diag", diagonal_operator, n) for n in (2, 3)]
)


@pytest.mark.parametrize(
    "make, n",
    [case[1:] for case in BICOMMUTANT_CASES],
    ids=[f"{name}-n{n}" for name, _, n in BICOMMUTANT_CASES],
)
def test_bicommutant_matches_full_commutant_oracle(make, n):
    op = make()
    rep = bicommutant_check(op, n)
    assert (rep.hecke_span, rep.centralizer, rep.bicommutant, rep.ok) == bicommutant_oracle(op, n)


def test_bicommutant_builds_no_equations_past_full_rank(monkeypatch):
    # c1's basis matrices stream into the elimination one at a time, and
    # none after the one whose equations reach full rank is built: for
    # dj:3 at n = 3, 80 of the centralizer's 165 (one kernel vector per
    # free column, in column order), with the oracle's verdict.  The one
    # other call takes the two generators, whose equations c1 solves.
    built, generators = [], []

    def counted(mats, size):
        (built if len(mats) == 1 else generators).append(mats)
        return commutant_equations(mats, size)

    monkeypatch.setattr("heckebialg.schur.commutant_equations", counted)
    op = dj_r_matrix(3)
    rep = bicommutant_check(op, 3)
    assert (rep.hecke_span, rep.centralizer, rep.bicommutant, rep.ok) == bicommutant_oracle(op, 3)
    assert (len(built), rep.centralizer) == (80, 165)
    assert [len(mats) for mats in generators] == [2]


def test_the_exact_route_builds_no_equations_past_full_rank(monkeypatch):
    # at p = 0, a pole of c1, the exact route counts E_P by an elimination
    # that stops at full rank too: the same 80 matrices of dj:3 at n = 3
    built = []

    def counted(mats, size):
        if len(mats) == 1:
            built.append(mats)
        return commutant_equations(mats, size)

    monkeypatch.setattr("heckebialg.schur.commutant_equations", counted)
    streamed = exact_streams(monkeypatch)
    monkeypatch.setattr(linalg, "POINT", 0)
    op = dj_r_matrix(3)
    rep = bicommutant_check(op, 3)
    assert (rep.hecke_span, rep.centralizer, rep.bicommutant, rep.ok) == bicommutant_oracle(op, 3)
    assert (len(built), streamed) == (80, [3**6 - rep.hecke_span])


def exact_streams(monkeypatch):
    """The list the exact route's ranks of E_P append their values to."""
    streamed = []

    def counted(rows, cols):
        span = echelonize(rows, cols)
        streamed.append(span.dim)
        return span

    monkeypatch.setattr("heckebialg.schur.echelonize", counted)
    return streamed


def test_bicommutant_fails_on_a_diagonal_operator(monkeypatch):
    # the bicommutant holds every diagonal matrix, the span does not: the
    # check must fail, and the failure comes from the exact rank of E_P,
    # N - |P| - (dim c2 - dim span)
    streamed = exact_streams(monkeypatch)
    for n, span, bicommutant in ((2, 2, 4), (3, 5, 8)):
        rep = bicommutant_check(diagonal_operator(), n)
        assert (rep.hecke_span, rep.bicommutant, rep.ok) == (span, bicommutant, False)
    assert streamed == [2**4 - 2 - 2, 2**6 - 5 - 3]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bicommutant_certified_at_the_point_needs_no_exact_stream(monkeypatch, n):
    streamed = exact_streams(monkeypatch)
    op = dj_r_matrix(2)
    rep = bicommutant_check(op, n)
    assert (rep.hecke_span, rep.centralizer, rep.bicommutant, rep.ok) == bicommutant_oracle(op, n)
    assert streamed == []


@pytest.mark.parametrize("n", [2, 3])
def test_bicommutant_at_a_pole_falls_back_to_the_exact_route(monkeypatch, n):
    # c1 of dj:2 has entries with denominator p, so p = 0 is a pole
    streamed = exact_streams(monkeypatch)
    monkeypatch.setattr(linalg, "POINT", 0)
    op = dj_r_matrix(2)
    rep = bicommutant_check(op, n)
    assert (rep.hecke_span, rep.centralizer, rep.bicommutant, rep.ok) == bicommutant_oracle(op, n)
    assert len(streamed) == 1


@pytest.mark.parametrize("at_stop", [False, True], ids=["span", "E_P"])
@pytest.mark.parametrize("make, n", [(lambda: dj_r_matrix(2), 3), (lambda: dj_r_matrix(3), 3), (diagonal_operator, 3)])
def test_bicommutant_after_a_rank_drop_at_the_point_is_the_exact_one(monkeypatch, make, n, at_stop):
    # the point drops one pivot, of the span or of E_P: the span's pivots
    # then miss a column and E_P falls short, or E_P does; either way the
    # exact route decides, and with the same record
    streamed = exact_streams(monkeypatch)

    def drop(rows, stop=None):
        found = pivots_at_point(rows, stop)
        return found[:-1] if found and (stop is not None) == at_stop else found

    monkeypatch.setattr("heckebialg.schur.pivots_at_point", drop)
    op = make()
    rep = bicommutant_check(op, n)
    assert (rep.hecke_span, rep.centralizer, rep.bicommutant, rep.ok) == bicommutant_oracle(op, n)
    assert len(streamed) == 1


# ---------------------------------------------------------------------------
# the three-route check


def test_schur_dimension_check_dj2():
    op = dj_r_matrix(2)
    for n, expected in ((2, 10), (3, 20)):
        rep = schur_dimension_check(op, n)
        assert rep.ok, str(rep)
        assert rep.sum_of_squares == rep.centralizer == rep.e_dimension == expected


def test_schur_dimension_check_superflip():
    rep = schur_dimension_check(super_flip(1, 1), 2)
    assert rep.ok
    assert rep.sum_of_squares == 8
