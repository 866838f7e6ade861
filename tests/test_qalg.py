"""Quadratic algebras: graded dimensions, Koszul series, distributivity."""

import copy
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from heckebialg.exactnum import ONE, P, ZERO, Scalar
from heckebialg import linalg
from heckebialg.linalg import (
    Matrix,
    commutant_equations,
    echelonize,
    forward_eliminate,
    lift_rows,
    pivot_columns,
    pivots_at_point,
    rank,
    row_space,
    subspace_intersect,
    subspace_sum,
)
from heckebialg.qalg import (
    DistributingBasis,
    QuadraticAlgebra,
    _Lattice,
    _interval_meets,
    _relation_sum,
    algebra_by_key,
    build_e,
    build_lambda,
    build_s,
    distributing_basis,
    distributivity_check,
    dual_component,
    dual_graded_dimension,
    graded_dimension,
    koszul_series_check,
    lattice_distributivity,
    relation_lifts,
    subspace_lattice_distributivity,
)
from heckebialg.rmatrix import HeckeOperator, dj_r_matrix, flip_operator, matrix_space_operator, super_flip
from heckebialg.schur import _commutant_state, centralizer_dimension
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


def numeric_q_dj2():
    # dj:2 with every entry at p = 2 and q = 4, held as constant Scalars as
    # a file that says symbolic-p holds them
    rows = [{j: Scalar(v) for j, v in row.items()} for row in dj_r_matrix(2).specialize(2).R.data]
    return HeckeOperator(2, Matrix(4, 4, rows), Scalar(4), "dj2-q4")


def non_koszul_toy():
    # xy = 0 and yx + y^2 = 0 on the generators x, y
    return QuadraticAlgebra(2, [{1: ONE}, {2: ONE, 3: ONE}], "toy")


LIFT_OPERATORS = {
    "dj:2": lambda: dj_r_matrix(2),
    "dj:3": lambda: dj_r_matrix(3),
    "superflip:1|1": lambda: super_flip(1, 1),
    "superflip:2|1": lambda: super_flip(2, 1),
    "dense-dj2": dense_dj2,
    "dense-dj2@p=3/2": lambda: dense_dj2().specialize(Fraction(3, 2)),
}


def unitriangular(d, upper):
    """The d x d unitriangular matrix with the given entries above the
    diagonal, row by row."""
    upper = iter(upper)
    return Matrix.from_rows(
        [[ONE if i == j else next(upper) if j > i else ZERO for j in range(d)] for i in range(d)]
    )


def conjugated(op, g):
    """(g (x) g) R (g (x) g)^-1, a Hecke operator with the same dimensions."""
    gg = g.kron(g)
    return HeckeOperator(op.d, gg * op.R * gg.inverse(), op.q, f"{op.name}^g")


def seeded_dense(d, seed):
    """dj:d conjugated by g (x) g, g unitriangular with random signs above
    the diagonal: every entry is dense."""
    rng = random.Random(seed)
    signs = [Scalar(rng.choice((-1, 1))) for _ in range(d * (d - 1) // 2)]
    return conjugated(dj_r_matrix(d), unitriangular(d, signs))


ORACLE_OPERATORS = {
    "dj:2": lambda: dj_r_matrix(2),
    "dj:3": lambda: dj_r_matrix(3),
    "dj:4": lambda: dj_r_matrix(4),
    "superflip:1|1": lambda: super_flip(1, 1),
    "superflip:2|1": lambda: super_flip(2, 1),
    "superflip:1|2": lambda: super_flip(1, 2),
    **{f"dense-dj2-{seed}": lambda seed=seed: seeded_dense(2, seed) for seed in (1, 2, 3)},
    **{f"dense-dj3-{seed}": lambda seed=seed: seeded_dense(3, seed) for seed in (1, 2)},
    **{
        f"{name}@p={x}": lambda make=make, x=x: make().specialize(x)
        for name, make in (("dj:2", lambda: dj_r_matrix(2)), ("dense-dj2-1", lambda: seeded_dense(2, 1)))
        for x in (Fraction(3, 2), Fraction(2), Fraction(-5, 7))
    },
}


def relation_rows(key, op):
    """(rows, ambient): the operator image whose row space is the relations."""
    if key == "E":
        op = matrix_space_operator(op)
    m = op.d * op.d
    shift = {"S": -op.q, "Lambda": ONE, "E": -ONE}[key]
    return (op.R + Matrix.identity(m).scale(shift)).data, m


@pytest.mark.parametrize("key", ["S", "Lambda", "E"])
@pytest.mark.parametrize("name", list(ORACLE_OPERATORS))
def test_relations_are_the_echelon_form_of_the_operator_image(name, key):
    # the fraction-free build and the Scalar elimination give the one reduced basis
    op = ORACLE_OPERATORS[name]()
    relations = {"S": build_s, "Lambda": build_lambda, "E": build_e}[key](op).relations
    rows, m = relation_rows(key, op)
    assert relations == echelonize(rows, m)
    assert relations.dim == rank(rows)
    assert all(isinstance(v, Scalar) for row in relations.basis for v in row.values())


@settings(max_examples=6, deadline=None)
@given(st.integers(2, 3), st.lists(st.sampled_from([-2, -1, 1, 2, "p", "-p"]), min_size=3, max_size=3))
def test_conjugate_relations_are_the_base_relations_moved_by_g(d, upper):
    # x -> x (g (x) g) R (g (x) g)^-1 has image Im(R - c) (g (x) g)^-1 for c = q, -1
    g = unitriangular(d, (P if a == "p" else -P if a == "-p" else Scalar(a) for a in upper))
    base = dj_r_matrix(d)
    op = conjugated(base, g)
    gg_inv = g.kron(g).inverse()
    m = d * d
    for build in (build_s, build_lambda):
        rel = build(base).relations
        moved = Matrix(rel.dim, m, list(rel.basis)) * gg_inv
        assert build(op).relations == row_space(forward_eliminate(moved.data), m) != rel


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


# each operator with the largest ambient dimension its from-scratch ranks
# are taken in: the dense rows of the symbolic file make its degree-5 ranks
# take seconds, not milliseconds
RESUME_OPERATORS = {
    "dj:2": (lambda: dj_r_matrix(2), 1024),
    "dj:3": (lambda: dj_r_matrix(3), 1024),
    "superflip:1|1": (lambda: super_flip(1, 1), 1024),
    "dense-dj2": (dense_dj2, 256),
    "dense-dj2@p=3/2": (lambda: dense_dj2().specialize(Fraction(3, 2)), 256),
    "dj2-q4": (numeric_q_dj2, 1024),
}

# S, Lambda and E of each of those, and an algebra that is not Koszul
RESUME_ALGEBRAS = {
    f"{name}-{key}": (lambda make=make, build=build: build(make()), budget)
    for name, (make, budget) in RESUME_OPERATORS.items()
    for key, build in (("S", build_s), ("Lambda", build_lambda), ("E", build_e))
}
RESUME_ALGEBRAS["non-koszul-toy"] = (non_koszul_toy, 1024)


def ideal_rank_from_scratch(algebra, n):
    """rank I_n by one elimination of every lift, no degree resumed."""
    m = algebra.generators
    return rank([row for i in range(1, n) for row in lift_rows(algebra.relations.basis, i, n, m)])


def dual_from_scratch(algebra, n):
    """D_n by the doubled-block intersections of the lifts, head to tail."""
    lifts = relation_lifts(algebra, n)
    acc = lifts[0]
    for nxt in lifts[1:]:
        acc = zassenhaus_intersect(acc, nxt)
    return acc


@pytest.mark.parametrize("name", list(RESUME_ALGEBRAS))
def test_resumed_dimensions_match_the_eliminations_from_scratch(name):
    # each degree takes in only the copies of R over a complement of degree n - 2
    make, budget = RESUME_ALGEBRAS[name]
    algebra = make()
    m = algebra.generators
    for n in range(2, 6):
        if m**n > budget:
            break
        assert graded_dimension(algebra, n) == m**n - ideal_rank_from_scratch(algebra, n), n
        dual = dual_from_scratch(algebra, n)
        assert dual_graded_dimension(algebra, n) == dual.dim, n
        assert dual_component(algebra, n) == dual, n


@pytest.mark.parametrize("build", [build_s, build_lambda, build_e], ids=["S", "Lambda", "E"])
@pytest.mark.parametrize("make", [lambda: dj_r_matrix(2), lambda: super_flip(1, 1), dense_dj2], ids=["dj:2", "superflip:1|1", "dense-dj2"])
def test_interval_meets_are_the_intersections_they_copy(make, build):
    # X_i & ... & X_j is V^(i-1) (x) D_(j-i+2) (x) V^(n-j-1): copied, not intersected
    algebra = build(make())
    for n in range(3, 6):
        lifts = relation_lifts(algebra, n)
        intersected = {}
        for i in range(n - 1):
            acc = lifts[i]
            for j in range(i + 1, n - 1):
                acc = subspace_intersect(acc, lifts[j])
                intersected[(1 << (j + 1)) - (1 << i)] = acc
        assert _interval_meets(algebra, n) == intersected, n


# the operators above and two more q = 1 operators
FRT_OPERATORS = {
    **{name: make for name, (make, _) in RESUME_OPERATORS.items()},
    "superflip:2|1": lambda: super_flip(2, 1),
    "flip:3": lambda: flip_operator(3),
}


@pytest.mark.parametrize("name", list(FRT_OPERATORS))
def test_e_relations_are_the_frt_relations(name):
    # Im(Rbar - 1) is spanned by the FRT relations R T1 T2 = T2 T1 R: the
    # commutant equations of R, X[(r1,r2),(c1,c2)] read at the W (x) W index
    # (c1 d + r1) d^2 + (c2 d + r2), with no Rinv and no regrouped kron
    op = FRT_OPERATORS[name]()
    d, sq = op.d, op.d * op.d

    def place(k):
        (r1, r2), (c1, c2) = (divmod(x, d) for x in divmod(k, sq))
        return (c1 * d + r1) * sq + c2 * d + r2

    rows = [{place(k): v for k, v in row.items()} for row in commutant_equations([op.R], sq)]
    assert echelonize(rows, sq * sq) == build_e(op).relations


def test_matrix_space_operator_matches_its_entry_formula():
    # Rbar[(a,i),(b,j); (a',i'),(b',j')] = Rinv[(a',b'),(a,b)] * R[(i,j),(i',j')]
    op = dense_dj2()
    d, sq = op.d, op.d * op.d
    rinv, rbar = op.inverse_matrix(), matrix_space_operator(op).R
    for a, i, b, j, a2, i2, b2, j2 in product(range(d), repeat=8):
        expected = rinv.entry(a2 * d + b2, a * d + b) * op.R.entry(i * d + j, i2 * d + j2)
        assert rbar.entry((a * d + i) * sq + b * d + j, (a2 * d + i2) * sq + b2 * d + j2) == expected
    assert all(v for row in rbar.data for v in row.values())  # no stored zeros


def test_a_state_is_unchanged_after_a_higher_degree_resumes_from_it():
    # every degree copies the memoised states below it before eliminating,
    # and the build's state is still the elimination of the raw relation
    # rows after the relations were back-substituted from it
    op = dense_dj2()
    algebra = build_e(op)
    assert algebra.state == forward_eliminate(relation_rows("E", op)[0])
    assert _relation_sum(algebra, 2) is algebra.state
    states = {
        "ideal-2": algebra.state,
        "ideal-3": _relation_sum(algebra, 3),
        "commutant-2": _commutant_state(op, 2),
        "commutant-3": _commutant_state(op, 3),
    }
    kept = copy.deepcopy(states)
    assert graded_dimension(algebra, 4) == 35
    assert centralizer_dimension(op, 4) == 35
    assert _relation_sum(algebra, 2) is states["ideal-2"]
    assert _relation_sum(algebra, 3) is states["ideal-3"]
    assert _commutant_state(op, 2) is states["commutant-2"]
    assert _commutant_state(op, 3) is states["commutant-3"]
    assert states == kept


def test_each_degree_takes_in_only_the_copies_over_a_complement(monkeypatch):
    # degree n eliminates dim A_(n-2) copies of R's dim R rows into the
    # ideal and centralizer_dimension(n - 2) copies of the degree-2
    # equations' rank E_2 rows into the commutant: 210 and 210 for E(dj:2)
    # at n = 6, where the whole last lift has 4^4 * 6 = 1536 rows and T_5
    # up to 2^12 = 4096 equations
    op = dj_r_matrix(2)
    algebra = build_e(op)
    n = 6
    for k in range(2, n):
        graded_dimension(algebra, k)
        centralizer_dimension(op, k)
    taken = []
    original = linalg._eliminate

    def counted(state, rows):
        rows = list(rows)
        taken.append(len(rows))
        return original(state, rows)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    assert graded_dimension(algebra, n) == centralizer_dimension(op, n) == 84
    rank_e2 = len(_commutant_state(op, 2).pivots)
    assert taken == [
        graded_dimension(algebra, n - 2) * algebra.relations.dim,
        centralizer_dimension(op, n - 2) * rank_e2,
    ]
    assert taken == [210, 210]


def test_algebra_by_key():
    op = dj_r_matrix(2)
    assert algebra_by_key(op, "s").label == build_s(op).label
    assert algebra_by_key(op, "lambda").relations == build_lambda(op).relations
    assert algebra_by_key(op, "e").generators == 4
    # one key per algebra: no aliases, no second spelling
    for key in ("nope", "S", "sym", "lam", "ext", "end", "edual"):
        with pytest.raises(ValueError):
            algebra_by_key(op, key)


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
    for key in ("s", "lambda"):
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
    a = QuadraticAlgebra(2, [{0: ONE}], "toy")
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
    rep = subspace_lattice_distributivity([u, v, w])
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
    rep = lattice_distributivity(lines)
    assert rep.status == "non_distributive"
    assert rep.routes == ["distributing-basis", "closure"]
    wu, wv, ww, lhs, rhs = rep.witness
    assert lhs != rhs


def test_non_koszul_algebra_gets_a_witness():
    # xy = 0 and yx + y^2 = 0: the degree-4 lattice of its relation lifts
    # is not distributive, and the failed basis still counts dim A_4, dim A^!_4
    algebra = non_koszul_toy()
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


FALLBACK_CASES = [
    ("E-dj2-n3", lambda: build_e(dj_r_matrix(2)), 3),
    ("Lambda-dj2-n4", lambda: build_lambda(dj_r_matrix(2)), 4),
    ("S-dj3-n3", lambda: build_s(dj_r_matrix(3)), 3),
    ("toy-n4", lambda: non_koszul_toy(), 4),
]


def exact_ranks(monkeypatch):
    """The list of ambients each exact full-rank test of ``certify`` appends to."""
    ranked = []

    def counted(rows):
        ranked.append(len(rows))
        return rank(rows)

    monkeypatch.setattr("heckebialg.qalg.rank", counted)
    return ranked


def exact_distributivity(make, n, monkeypatch):
    """The report of the exact route: no pivots or ranks taken at the point."""
    with monkeypatch.context() as m:
        m.setattr("heckebialg.qalg.pivots_at_point", lambda rows, stop=None: None)
        return distributivity_check(make(), n)


@pytest.mark.parametrize("name, make, n", FALLBACK_CASES, ids=[c[0] for c in FALLBACK_CASES])
def test_distributivity_after_a_rank_drop_at_the_point_is_the_exact_one(monkeypatch, name, make, n):
    # every pivot set found at the point loses its last column: the blocks
    # overflow and the full-rank test falls short, so only the exact blocks
    # and the exact rank can decide
    expected = exact_distributivity(make, n, monkeypatch)
    ranked = exact_ranks(monkeypatch)

    def drop(rows, stop=None):
        found = pivots_at_point(rows, stop)
        return found[:-1] if found else found

    monkeypatch.setattr("heckebialg.qalg.pivots_at_point", drop)
    assert distributivity_check(make(), n) == expected
    assert ranked == ([make().generators ** n] if expected.status == "distributive" else [])


@pytest.mark.parametrize("name, make, n", FALLBACK_CASES[:2], ids=[c[0] for c in FALLBACK_CASES[:2]])
def test_distributivity_at_a_pole_falls_back_to_the_exact_route(monkeypatch, name, make, n):
    # the relations of E(dj:2) and Lambda(dj:2) have entries with
    # denominator p, so p = 0 is a pole
    expected = exact_distributivity(make, n, monkeypatch)
    ranked = exact_ranks(monkeypatch)
    monkeypatch.setattr(linalg, "POINT", 0)
    assert distributivity_check(make(), n) == expected
    assert ranked == [make().generators ** n]


def block_pivots(monkeypatch, at_point):
    """(the blocks ``at_point`` shows dependent, the blocks given exact pivots):
    ``at_point`` stands in for ``pivots_at_point`` in the blocks of the
    distributing basis, and ``certify``'s full-rank test stays as it is."""
    dependent, exact = [], []

    def blocks_at_point(rows, stop=None):
        if stop is not None:
            return pivots_at_point(rows, stop)
        found = at_point(rows)
        if found is None or len(found) < len(rows):
            dependent.append(rows)
        return found

    def exact_pivots(rows):
        exact.append(rows)
        return pivot_columns(rows)

    monkeypatch.setattr("heckebialg.qalg.pivots_at_point", blocks_at_point)
    monkeypatch.setattr("heckebialg.qalg.pivot_columns", exact_pivots)
    return dependent, exact


def test_a_failed_basis_is_decided_by_the_exact_blocks(monkeypatch):
    built = []

    def recorded(*args):
        built.append(args)
        return distributing_basis(*args)

    monkeypatch.setattr("heckebialg.qalg.distributing_basis", recorded)
    dependent, exact = block_pivots(monkeypatch, pivots_at_point)
    algebra = non_koszul_toy()
    rep = distributivity_check(algebra, 4)
    assert rep.status == "non_distributive" and (rep.free, rep.dual) == (1, 0)
    assert len(built) == 1
    assert exact == dependent != []


def test_a_rank_drop_on_one_block_sends_only_that_block_to_the_exact_pivots(monkeypatch):
    # the first block with rows loses a pivot at the point; every other
    # block keeps the point's pivots, and the record is the exact route's
    make, n = FALLBACK_CASES[0][1:]
    expected = exact_distributivity(make, n, monkeypatch)
    assert expected.status == "distributive"
    dropped = []

    def drop_once(rows):
        found = pivots_at_point(rows)
        if found and not dropped:
            dropped.append(rows)
            return found[:-1]
        return found

    dependent, exact = block_pivots(monkeypatch, drop_once)
    assert distributivity_check(make(), n) == expected
    assert exact == dependent == dropped != []


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
