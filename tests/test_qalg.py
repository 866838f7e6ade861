"""Quadratic algebras: graded dimensions, Koszul series, distributivity."""

import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from heckebialg.exactnum import ONE, ZERO
from heckebialg.linalg import Matrix, echelonize, lift_rows, subspace_sum
from heckebialg.qalg import (
    DistributingBasis,
    QuadraticAlgebra,
    _Lattice,
    algebra_by_key,
    build_e,
    build_lambda,
    build_s,
    distributing_basis,
    distributivity_check,
    dual_graded_dimension,
    graded_dimension,
    koszul_series_check,
    lattice_distributivity,
    relation_lifts,
    subspace_lattice_distributivity,
)
from heckebialg.rmatrix import HeckeOperator, dj_r_matrix, flip_operator, super_flip
from test_linalg import zassenhaus_intersect


def binom(n, k):
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


# ---------------------------------------------------------------------------
# construction


def test_relation_dimensions_dj2():
    op = dj_r_matrix(2)
    assert build_s(op).relations.dim == 1
    assert build_lambda(op).relations.dim == 3
    assert build_e(op).relations.dim == 6


def test_relation_dimensions_dj3():
    op = dj_r_matrix(3)
    assert build_s(op).relations.dim == 3
    assert build_lambda(op).relations.dim == 6


def test_s_and_lambda_relations_are_complementary():
    # R has exactly the eigenvalues q and -1, so the two images fill V (x) V
    op = dj_r_matrix(2)
    s, lam = build_s(op), build_lambda(op)
    assert subspace_sum(s.relations, lam.relations).dim == 4


@pytest.mark.parametrize("d", [2, 3])
def test_complementary_operator_swaps_s_and_lambda(d):
    # (R + 1)(R - q) = 0 makes R' = (q - 1) - R a Hecke operator with
    # R' - q = -(R + 1) and R' + 1 = -(R - q): S and Lambda trade relations
    op = dj_r_matrix(d)
    shifted = Matrix.identity(d * d).scale(op.q - 1) - op.R
    other = HeckeOperator(d, shifted, op.q, f"{op.name}'")
    assert build_s(other).relations == build_lambda(op).relations
    assert build_lambda(other).relations == build_s(op).relations


def dense_dj2():
    # dj:2 conjugated by g (x) g, g = [[1, -1], [0, 1]]: every entry is dense
    base = dj_r_matrix(2)
    g = Matrix.from_rows([[ONE, -ONE], [ZERO, ONE]])
    gg = g.kron(g)
    return HeckeOperator(2, gg * base.R * gg.inverse(), base.q, "dense-dj2")


LIFT_OPERATORS = {
    "dj:2": lambda: dj_r_matrix(2),
    "dj:3": lambda: dj_r_matrix(3),
    "superflip:1|1": lambda: super_flip(1, 1),
    "superflip:2|1": lambda: super_flip(2, 1),
    "dense-dj2": dense_dj2,
    "dense-dj2@p=3/2": lambda: dense_dj2().specialize(Fraction(3, 2)),
}


@pytest.mark.parametrize("build", [build_s, build_lambda, build_e], ids=["S", "Lambda", "E"])
@pytest.mark.parametrize("name", list(LIFT_OPERATORS))
def test_relation_lifts_are_the_echelon_form_of_the_lifted_rows(name, build):
    # lifting a reduced echelon basis needs no elimination
    algebra = build(LIFT_OPERATORS[name]())
    m = algebra.generators
    for n in range(2, 6):
        if m**n > 4096:
            break
        lifts = relation_lifts(algebra, n)
        assert lifts == tuple(
            echelonize(lift_rows(algebra.relations.basis, i, n, m), m**n) for i in range(1, n)
        )
        assert relation_lifts(algebra, n) is lifts


def test_algebra_by_key():
    op = dj_r_matrix(2)
    assert algebra_by_key(op, "S").label == build_s(op).label
    assert algebra_by_key(op, "lambda").relations == build_lambda(op).relations
    assert algebra_by_key(op, "E").generators == 4
    with pytest.raises(ValueError):
        algebra_by_key(op, "nope")


# ---------------------------------------------------------------------------
# graded dimensions


def test_degree_zero_and_one_are_free():
    a = build_e(dj_r_matrix(2))
    assert graded_dimension(a, 0) == 1
    assert graded_dimension(a, 1) == 4
    assert dual_graded_dimension(a, 0) == 1
    assert dual_graded_dimension(a, 1) == 4


def test_s_dimensions_dj2():
    s = build_s(dj_r_matrix(2))
    assert [graded_dimension(s, n) for n in range(6)] == [
        binom(2 + n - 1, n) for n in range(6)
    ]


def test_lambda_dimensions_dj2():
    lam = build_lambda(dj_r_matrix(2))
    assert [graded_dimension(lam, n) for n in range(5)] == [
        binom(2, n) for n in range(5)
    ]


def test_s_dimensions_dj3():
    s = build_s(dj_r_matrix(3))
    assert [graded_dimension(s, n) for n in range(5)] == [
        binom(3 + n - 1, n) for n in range(5)
    ]


def test_lambda_dimensions_dj3():
    lam = build_lambda(dj_r_matrix(3))
    assert [graded_dimension(lam, n) for n in range(5)] == [
        binom(3, n) for n in range(5)
    ]


def test_duality_swaps_s_and_lambda_dj2():
    op = dj_r_matrix(2)
    s, lam = build_s(op), build_lambda(op)
    for n in range(5):
        assert dual_graded_dimension(s, n) == graded_dimension(lam, n)
        assert dual_graded_dimension(lam, n) == graded_dimension(s, n)


def test_e_dimensions_dj2():
    e = build_e(dj_r_matrix(2))
    assert [graded_dimension(e, n) for n in range(4)] == [1, 4, 10, 20]


def test_e_dual_dimensions_dj2():
    e = build_e(dj_r_matrix(2))
    assert [dual_graded_dimension(e, n) for n in range(5)] == [
        binom(4, n) for n in range(5)
    ]


def test_e_dimensions_superflip():
    e = build_e(super_flip(1, 1))
    assert [graded_dimension(e, n) for n in range(4)] == [1, 4, 8, 12]


def test_e_of_flip_is_commutative_polynomial_size():
    # flip on V of dim 2 gives the honest 2x2 matrix function algebra
    e = build_e(flip_operator(2))
    assert [graded_dimension(e, n) for n in range(4)] == [1, 4, 10, 20]


# ---------------------------------------------------------------------------
# Koszul series identity


def test_koszul_series_s_lambda_dj2():
    op = dj_r_matrix(2)
    for key in ("S", "lambda"):
        rep = koszul_series_check(algebra_by_key(op, key), 4)
        assert rep.ok, str(rep)
        assert all(r == 0 for r in rep.residuals)


def test_koszul_series_s_dj3():
    rep = koszul_series_check(build_s(dj_r_matrix(3)), 3)
    assert rep.ok, str(rep)


def test_koszul_series_e_superflip():
    rep = koszul_series_check(build_e(super_flip(1, 1)), 4)
    assert rep.ok, str(rep)
    assert rep.dims == [1, 4, 8, 12, 16]


def test_koszul_series_detects_imbalance():
    # a one-relation algebra on two generators whose dual series cannot
    # cancel: relations spanned by x(x)x only
    rel = echelonize([{0: ONE}], 4)
    a = QuadraticAlgebra(2, rel, "toy")
    rep = koszul_series_check(a, 3)
    assert [r == 0 for r in rep.residuals].count(False) >= 1 or rep.ok


def test_koszul_series_e_dj2():
    rep = koszul_series_check(build_e(dj_r_matrix(2)), 4)
    assert rep.ok, str(rep)
    assert rep.dims == [1, 4, 10, 20, 35]
    assert rep.dual_dims == [1, 4, 6, 4, 1]


# ---------------------------------------------------------------------------
# distributivity


def line(ambient, coords):
    return echelonize([{j: v for j, v in coords.items()}], ambient)


def test_three_lines_in_plane_not_distributive():
    u = line(2, {0: ONE})
    v = line(2, {1: ONE})
    w = line(2, {0: ONE, 1: ONE})
    rep = subspace_lattice_distributivity([u, v, w], label="M3")
    assert rep.status == "non_distributive"
    assert rep.witness is not None
    wu, wv, ww, lhs, rhs = rep.witness
    assert lhs.dim != rhs.dim


def test_two_generated_lattice_distributive():
    u = line(3, {0: ONE})
    v = line(3, {1: ONE})
    rep = subspace_lattice_distributivity([u, v])
    assert rep.status == "distributive"
    # closure: u, v, u+v, 0
    assert rep.closure_size == 4


def test_cap_gives_inconclusive():
    op = dj_r_matrix(2)
    rep = distributivity_check(build_s(op), 3, cap=1)
    assert rep.status == "inconclusive"
    assert "cap" in rep.note


def test_time_budget_gives_inconclusive():
    op = dj_r_matrix(2)
    rep = distributivity_check(build_e(op), 3, time_budget=0.0)
    assert rep.status == "inconclusive"
    assert "budget" in rep.note


def test_s_dj2_distributive_n3():
    rep = distributivity_check(build_s(dj_r_matrix(2)), 3)
    assert rep.status == "distributive"


def test_s_dj2_distributive_n4():
    rep = distributivity_check(build_s(dj_r_matrix(2)), 4)
    assert rep.status == "distributive"


def test_lambda_dj2_distributive_n4():
    rep = distributivity_check(build_lambda(dj_r_matrix(2)), 4)
    assert rep.status == "distributive"


def closed_lattice(gens):
    lat = _Lattice()
    for g in gens:
        lat.add(g)
    while True:
        size = len(lat.members)
        pending = [(i, j) for i in range(size) for j in range(i, size) if (i, j) not in lat.sum_table]
        if not pending:
            return lat
        for i, j in pending:
            lat.resolve_pair(i, j)


@pytest.mark.parametrize(
    "build, n", [(build_s, 3), (build_e, 3), (build_s, 4)], ids=["S-n3", "E-n3", "S-n4"]
)
def test_lattice_tables_match_direct_sum_and_intersection(build, n):
    lat = closed_lattice(relation_lifts(build(dj_r_matrix(2)), n))
    size = len(lat.members)
    assert len(lat.sum_table) == len(lat.meet_table) == size * (size + 1) // 2
    for (i, j), s in lat.sum_table.items():
        u, w = lat.members[i], lat.members[j]
        assert lat.members[s] == subspace_sum(u, w)
        assert lat.members[lat.meet_table[(i, j)]] == zassenhaus_intersect(u, w)


@pytest.mark.parametrize(
    "make, build, n, counters",
    [
        (lambda: dj_r_matrix(2), build_e, 4, (18, 84, 222)),
        (lambda: super_flip(1, 1), build_e, 4, (18, 84, 222)),
        (lambda: dj_r_matrix(2), build_lambda, 5, (34, 484, 638)),
        (lambda: dj_r_matrix(3), build_s, 4, (18, 84, 222)),
        (lambda: dj_r_matrix(2), build_s, 4, (10, 26, 64)),
    ],
    ids=["E-dj2-n4", "E-superflip11-n4", "Lambda-dj2-n5", "S-dj3-n4", "S-dj2-n4"],
)
def test_lattice_counters_are_pinned(make, build, n, counters):
    # the verdict alone would not show a closure that does more or less work;
    # a cap runs the closure as a second route
    rep = distributivity_check(build(make()), n, cap=200)
    assert rep.status == "distributive"
    assert rep.routes == ["distributing-basis", "closure"]
    assert (rep.closure_size, rep.honest_ops, rep.certified_ops) == counters


def test_e_dj2_distributive_n3():
    rep = distributivity_check(build_e(dj_r_matrix(2)), 3, cap=200)
    assert rep.status == "distributive"
    assert rep.certified_ops > 0


def test_e_dj2_distributive_n4():
    rep = distributivity_check(build_e(dj_r_matrix(2)), 4, cap=200)
    assert rep.status == "distributive"
    assert rep.closure_size == 18


def test_report_str_mentions_status():
    rep = distributivity_check(build_s(dj_r_matrix(2)), 3)
    assert "distributive" in str(rep)


# ---------------------------------------------------------------------------
# the distributing basis


@pytest.mark.parametrize(
    "spec, build, n, free, dual",
    [
        ("dj:2", build_e, 4, 35, 1),
        ("dj:2", build_e, 5, 56, 0),
        ("superflip:1|1", build_e, 4, 16, 16),
        ("dj:2", build_lambda, 5, 0, 6),
        ("dj:3", build_s, 4, 15, 0),
        ("dj:2", build_s, 6, 7, 0),
    ],
    ids=["E-dj2-n4", "E-dj2-n5", "E-superflip11-n4", "Lambda-dj2-n5", "S-dj3-n4", "S-dj2-n6"],
)
def test_distributing_basis_counts_the_top_dimensions(spec, build, n, free, dual):
    kind, _, arg = spec.partition(":")
    op = dj_r_matrix(int(arg)) if kind == "dj" else super_flip(1, 1)
    algebra = build(op)
    rep = distributivity_check(algebra, n)
    assert rep.status == "distributive"
    assert rep.routes == ["distributing-basis"]
    assert (rep.closure_size, rep.honest_ops, rep.certified_ops) == (0, 0, 0)
    assert (rep.free, rep.dual) == (free, dual)
    assert (free, dual) == (graded_dimension(algebra, n), dual_graded_dimension(algebra, n))


def test_three_lines_fail_the_basis_and_get_a_witness():
    lines = [line(2, {0: ONE}), line(2, {1: ONE}), line(2, {0: ONE, 1: ONE})]
    assert not distributing_basis(lines).certify()
    rep = lattice_distributivity(lines, label="M3")
    assert rep.status == "non_distributive"
    assert rep.routes == ["distributing-basis", "closure"]
    wu, wv, ww, lhs, rhs = rep.witness
    assert lhs != rhs


def test_non_koszul_algebra_gets_a_witness():
    # xy = 0 and yx + y^2 = 0: the degree-4 lattice of its relation lifts
    # is not distributive, and the failed basis still counts dim A_4, dim A^!_4
    algebra = QuadraticAlgebra(2, echelonize([{1: ONE}, {2: ONE, 3: ONE}], 4), "toy")
    rep = distributivity_check(algebra, 4)
    assert rep.status == "non_distributive" and rep.witness is not None
    assert rep.routes == ["distributing-basis", "closure"]
    assert (rep.free, rep.dual) == (graded_dimension(algebra, 4), dual_graded_dimension(algebra, 4)) == (1, 0)


def test_certify_needs_full_rank():
    # two copies of one line: a vector in both and one in neither, as many
    # vectors as the ambient and each count right, but they are dependent
    x = line(2, {0: ONE})
    basis = DistributingBasis([x, x], {0b11: ({0: ONE},), 0b01: (), 0b10: (), 0: ({0: ONE},)})
    assert not basis.certify()
    assert distributing_basis([x, x]).certify()


def test_certify_needs_membership_and_counts():
    x, y = line(2, {0: ONE}), line(2, {1: ONE})
    good = {0b11: (), 0b01: ({0: ONE},), 0b10: ({1: ONE},), 0: ()}
    assert DistributingBasis([x, y], good).certify()
    # e0 + e1 tagged as lying in x
    assert not DistributingBasis([x, y], {**good, 0b01: ({0: ONE, 1: ONE},)}).certify()
    # too few vectors tagged for y, the missing one left free
    assert not DistributingBasis([x, y], {**good, 0b10: (), 0: ({1: ONE},)}).certify()


def test_time_budget_bounds_the_basis():
    rep = distributivity_check(build_e(dj_r_matrix(2)), 2, time_budget=1e-9)
    assert rep.status == "inconclusive" and rep.note == "time budget of 1e-09 s exhausted"
    assert rep.routes == ["distributing-basis"] and rep.free is None


small_entries = st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)])


@st.composite
def subspace_families(draw):
    """2 to 4 subspaces of k^2..k^4 spanned by rows of small Fractions."""
    ambient = draw(st.integers(2, 4))
    row = st.lists(small_entries, min_size=ambient, max_size=ambient)
    family = []
    for _ in range(draw(st.integers(2, 4))):
        rows = draw(st.lists(row, min_size=1, max_size=ambient - 1))
        family.append(echelonize([{j: v for j, v in enumerate(r) if v} for r in rows], ambient))
    return family


def _family(ambient, *spans):
    return [echelonize([{j: Fraction(v) for j, v in enumerate(r) if v} for r in rows], ambient) for rows in spans]


@settings(max_examples=200, deadline=None)
@given(subspace_families())
@example(_family(2, [[1, 0]], [[0, 1]], [[1, 1]]))
@example(_family(3, [[1, 0, 0]], [[0, 1, 0]], [[1, 1, 0]], [[0, 0, 1]]))
@example(_family(3, [[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1]]))
@example(_family(4, [[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 1, 0], [0, 0, 0, 1]], [[1, 0, 1, 0], [0, 1, 0, 1]]))
def test_distributing_basis_agrees_with_the_closure(family):
    holds = distributing_basis(family).certify()
    closure = subspace_lattice_distributivity(family, cap=30)
    assert closure.status != "distributive" or holds
    if closure.status != "inconclusive":
        assert holds == (closure.status == "distributive")
