"""Sparse matrix and subspace tests.

Dimension identities (rank-nullity, the modular law) act as independent
oracles: they are checked on randomly generated subspaces over Q(p) and
over Q, with seeds fixed so failures reproduce.
"""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from heckebialg import linalg
from heckebialg.exactnum import ONE, P, Q, ZERO, Scalar
from heckebialg.linalg import (
    Echelon,
    Matrix,
    commutant,
    commutant_equations,
    copy_state,
    echelonize,
    forward_eliminate,
    kernel,
    lift_rows,
    lift_to_position,
    pivot_columns,
    rank,
    row_space,
    specialize_matrix,
    specialize_rows,
    subspace_intersect,
    subspace_sum,
    sum_and_intersection,
)
from heckebialg.qalg import build_e
from heckebialg.rmatrix import HeckeOperator, dj_r_matrix, super_flip
from heckebialg.schur import centralizer_dimension


def rand_matrix(rng, rows, cols, density=0.4, symbolic=False):
    data = []
    for _ in range(rows):
        r = {}
        for j in range(cols):
            if rng.random() < density:
                c = rng.randint(-4, 4)
                if not c:
                    continue
                if symbolic and rng.random() < 0.3:
                    r[j] = Scalar(c) * P
                else:
                    r[j] = Scalar(c) if symbolic else Fraction(c)
        data.append(r)
    return Matrix(rows, cols, data)


def rand_subspace(rng, ambient, nrows, symbolic=False):
    return echelonize(rand_matrix(rng, nrows, ambient, symbolic=symbolic).data, ambient)


def sparse_rows(rng, nrows, ambient, per_row=4):
    """Sparse Fraction rows on a few clustered columns, some of them dependent."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.25:
            # a combination of earlier rows keeps the rank below the row count
            row = {}
            for src in rng.sample(rows, min(2, len(rows))):
                c = Fraction(rng.choice((-3, -1, 1, 2)))
                for j, v in src.items():
                    row[j] = row.get(j, 0) + c * v
            rows.append({j: v for j, v in row.items() if v})
            continue
        base = rng.randrange(ambient)
        cols = {(base + rng.randrange(16)) % ambient for _ in range(per_row)}
        rows.append({j: Fraction(rng.choice((-2, -1, 1, 3))) for j in cols})
    return rows


def zassenhaus_intersect(u, w):
    """U & W by the doubled-block trick, independent of the remainder route.

    Echelonize [u|u] stacked over [w|0] in 2m columns; the rows whose pivot
    is in the right block carry the intersection.
    """
    m = u.ambient
    if u.dim == 0 or w.dim == 0:
        return echelonize([], m)
    stacked = []
    for row in u.basis:
        d = dict(row)
        for j, v in row.items():
            d[j + m] = v
        stacked.append(d)
    stacked.extend(dict(row) for row in w.basis)
    big = echelonize(stacked, 2 * m)
    inter_rows = []
    for p, row in zip(big.pivots, big.basis):
        if p >= m:
            inter_rows.append({j - m: v for j, v in row.items()})
    return echelonize(inter_rows, m)


def dense_rref(rows, ambient):
    """Dense Gauss-Jordan over Fractions, independent of the sparse kernel.

    Returns (pivots, basis rows as dicts), the same shape as a Subspace.
    """
    mat = [[Fraction(r.get(j, 0)) for j in range(ambient)] for r in rows]
    pivots = []
    for col in range(ambient):
        r = len(pivots)
        pick = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pick is None:
            continue
        mat[r], mat[pick] = mat[pick], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            f = mat[i][col]
            if i != r and f:
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
    return tuple(pivots), [{j: v for j, v in enumerate(mat[i]) if v} for i in range(len(pivots))]


# ---------------------------------------------------------------------------
# matrices


def test_matrix_product_against_dense_oracle():
    rng = random.Random(1)
    for _ in range(15):
        a = rand_matrix(rng, 4, 5)
        b = rand_matrix(rng, 5, 3)
        c = a * b
        for i in range(4):
            for j in range(3):
                want = sum((a.entry(i, k) * b.entry(k, j) for k in range(5)), Fraction(0))
                assert c.entry(i, j) == want


def test_identity_and_scale():
    eye = Matrix.identity(4)
    m = rand_matrix(random.Random(2), 4, 4, symbolic=True)
    assert eye * m == m
    assert m * eye == m
    assert m.scale(2) == m + m
    assert (m - m).nnz() == 0


def test_transpose_and_trace():
    m = rand_matrix(random.Random(3), 5, 5)
    assert m.transpose().transpose() == m
    assert m.trace() == sum((m.entry(i, i) for i in range(5)), Fraction(0))
    n = rand_matrix(random.Random(4), 5, 5)
    # tr(AB) = tr(BA)
    assert (m * n).trace() == (n * m).trace()


def test_kron_mixed_product_rule():
    rng = random.Random(5)
    a = rand_matrix(rng, 2, 2)
    b = rand_matrix(rng, 3, 3)
    c = rand_matrix(rng, 2, 2)
    d = rand_matrix(rng, 3, 3)
    assert a.kron(b) * c.kron(d) == (a * c).kron(b * d)


def test_inverse():
    rng = random.Random(6)
    for _ in range(8):
        m = rand_matrix(rng, 4, 4, density=0.7)
        eye = Matrix.identity(4, one=Fraction(1))
        m = m + eye  # push away from singularity most of the time
        try:
            inv = m.inverse()
        except ValueError:
            continue
        assert m * inv == eye
        assert inv * m == eye
    with pytest.raises(ValueError):
        Matrix.zeros(3, 3).inverse()


def test_inverse_symbolic():
    m = Matrix.from_rows([[Q, ONE], [ZERO, P]])
    inv = m.inverse()
    assert m * inv == Matrix.identity(2)
    rng = random.Random(61)
    for _ in range(4):
        m = rand_matrix(rng, 5, 5, density=0.5, symbolic=True) + Matrix.identity(5).scale(Q)
        try:
            inv = m.inverse()
        except ValueError:
            continue
        assert m * inv == Matrix.identity(5)
        assert inv * m == Matrix.identity(5)


def test_inverse_rejects_singular_symbolic():
    # det = p^2 - q vanishes identically, though no entry or row is zero
    with pytest.raises(ValueError, match="singular"):
        Matrix.from_rows([[P, Q], [ONE, P]]).inverse()
    # the last row is the sum of the first two
    with pytest.raises(ValueError, match="singular"):
        Matrix.from_rows([[P, Q, ONE], [ONE, P, ZERO], [P + 1, Q + P, ONE]]).inverse()


# ---------------------------------------------------------------------------
# echelon form and subspaces


def test_echelon_is_canonical():
    rng = random.Random(7)
    for _ in range(10):
        sub = rand_subspace(rng, 6, 4)
        # re-echelonizing shuffled scaled generators gives identical basis
        gens = [dict(r) for r in sub.basis]
        rng.shuffle(gens)
        gens = [{j: v * Fraction(3, 2) for j, v in r.items()} for r in gens]
        again = echelonize(gens, 6)
        assert again == sub
        for p, row in zip(again.pivots, again.basis):
            assert row[p] == 1
            # pivot columns vanish on all other rows
            for other in again.basis:
                if other is not row:
                    assert p not in other


def test_echelonize_matches_dense_oracle():
    rng = random.Random(71)
    cases = [(sparse_rows(rng, 40, ambient), ambient) for ambient in (64, 96, 128, 192, 256)]
    # empty input, zero rows (one with an explicit zero entry) and duplicates
    rows = sparse_rows(rng, 30, 64)
    cases += [([], 8), ([{}, {3: Fraction(0)}], 8), (rows + [{}] + rows[::2], 64)]
    for rows, ambient in cases:
        ech = echelonize(rows, ambient)
        pivots, basis = dense_rref(rows, ambient)
        assert ech.pivots == pivots
        assert list(ech.basis) == basis
        assert rank(rows) == len(pivots)
        assert row_space(rows, ambient) == ech


def test_echelonize_ignores_row_order_and_scale():
    rng = random.Random(72)
    for ambient in (64, 160, 256):
        rows = sparse_rows(rng, 48, ambient)
        ech = echelonize(rows, ambient)
        moved = []
        for r in rows:
            c = Fraction(rng.choice((-5, -1, 2, 7)), 3)
            moved.append({j: v * c for j, v in r.items()})
        rng.shuffle(moved)
        assert echelonize(moved, ambient) == ech


class Unreadable(dict):
    def items(self):
        raise AssertionError("echelonize read a row after reaching full rank")


def test_echelonize_stops_at_full_rank():
    # rows spanning k^4 over Q(p), then a row that must never be read
    m = 4
    rows = [{j: P**j + i for j in range(i, m)} for i in range(m)][::-1]
    ech = echelonize(rows + [Unreadable({0: ONE})], m)
    assert ech.pivots == tuple(range(m))
    assert list(ech.basis) == [{j: ONE} for j in range(m)]
    assert ech == echelonize(rows, m)


def test_echelon_fed_in_batches_matches_one_pass():
    # the accumulator carries its reduced rows from batch to batch
    rng = random.Random(73)
    for ambient in (64, 160):
        rows = sparse_rows(rng, 48, ambient)
        acc = Echelon(ambient)
        start = 0
        for size in (1, 2, 5, 11, 29):
            acc.feed(rows[start : start + size])
            start += size
            assert acc.rank == rank(rows[:start])
        assert acc.subspace() == echelonize(rows, ambient)
    # full after the first batch: a later batch is never read
    m = 4
    acc = Echelon(m)
    acc.feed([{j: P**j + i for j in range(i, m)} for i in range(m)])
    acc.feed([Unreadable({0: ONE})])
    assert acc.rank == m

    def stream():
        yield from [{j: P**j + i for j in range(i, m)} for i in range(m)]
        raise AssertionError("advanced past full rank")

    # a lazy stream is not advanced past the row that fills the space
    acc = Echelon(m)
    acc.feed(stream())
    assert acc.rank == m


def test_echelonize_symbolic_relations_match_specialized_oracle():
    algebra = build_e(dj_r_matrix(2))
    m, n = algebra.generators, 3
    rows = []
    for i in range(1, n):
        rows.extend(lift_rows(algebra.relations.basis, i, n, m))
    ech = echelonize(rows, m**n)
    assert 0 < ech.dim < m**n
    # a generic point: the rank and every pivot survive specialization
    x = Fraction(5, 7)
    pivots, basis = dense_rref(specialize_rows(rows, x), m**n)
    assert ech.pivots == pivots
    assert specialize_rows(ech.basis, x) == basis


polys = st.lists(st.integers(-3, 3), max_size=3)


@st.composite
def field_entries(draw, symbolic):
    """A zero, or a nonzero Scalar (den != 1 allowed) or Fraction."""
    if draw(st.integers(0, 4)) == 0:
        return ZERO if symbolic else Fraction(0)
    if symbolic:
        num = draw(polys.filter(any))
        return Scalar._reduced(tuple(num), tuple(draw(polys.filter(any))))
    return Fraction(draw(st.integers(-4, 4).filter(bool)), draw(st.integers(1, 3)))


@st.composite
def row_lists(draw, symbolic=None):
    """Sparse rows on a small ambient, some of them repeated or dependent."""
    if symbolic is None:
        symbolic = draw(st.booleans())
    ambient = draw(st.integers(1, 8))
    entries = field_entries(symbolic)
    row = st.dictionaries(st.integers(0, ambient - 1), entries, max_size=4)
    rows = draw(st.lists(row, max_size=10))
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        c = draw(entries)
        combo = dict(a)
        for j, v in b.items():
            combo[j] = combo.get(j, 0 * v) + c * v
        rows.insert(draw(st.integers(0, len(rows))), combo)
    return rows, ambient


@settings(max_examples=200, deadline=None)
@given(row_lists())
@example(([], 4))
@example(([{0: ONE / (P + 1), 1: P}, {0: ONE, 1: P * P + P}, {1: ONE / (P - 1)}], 2))
@example(([{2: Fraction(1, 3)}, {2: Fraction(1, 3)}, {0: Fraction(0)}], 3))
# pivots sharing a factor: the lead divides the entry met (p + 1 | p^2 - 1),
# the entry met divides the lead, where the row must be scaled first, and
# constant leads, whose common factor is an integer
@example(([{0: P + 1, 1: ONE}, {0: P * P - 1, 1: P - 1}], 2))
@example(([{0: P * P - 1, 1: ONE}, {0: P + 1, 1: ONE}], 2))
@example(([{0: Scalar(2), 1: P}, {0: 4 * P, 1: 2 * P * P}, {0: Scalar(6), 1: P + 1}], 2))
# polynomial denominators, cleared by their lcm on arrival
@example(([{0: ONE / (P + 1), 1: P / (P * P - 1)}, {0: P - 1, 1: P}, {1: ONE / (P - 1), 2: Q}], 3))
# more rows than fit in the drawn lists, most of them dependent
@example(
    (
        [{j: (P + 1) ** (j + k) / (P - k) for j in range(4)} for k in range(4)]
        + [{0: P, 1: Q}, {0: P * P * P, 1: Q * Q}, {2: P + 1, 3: P * P - 1}, {0: P, 4: ONE}]
        + [{0: P + 1, 1: P * P - 1}] * 3,
        6,
    )
)
def test_rank_matches_echelonize(case):
    rows, ambient = case
    assert rank(rows) == echelonize(rows, ambient).dim


@settings(max_examples=100, deadline=None)
@given(row_lists(), row_lists(), st.integers(1, 3))
@example(([{0: P, 1: ONE}, {1: P + 1}], 2), ([{0: ONE, 3: P}, {1: Q, 2: ONE}], 4), 2)
def test_copied_state_resumes_like_one_elimination(case, extra, copies):
    # copies under c -> c * copies + j share no column, so their states stack
    # with no elimination; resuming with more rows must span what all the
    # rows span, and the state copied from stays as it was
    rows, _ = case
    more, _ = extra
    state = forward_eliminate(rows)
    kept = copy.deepcopy(state)
    start = copy_state(state, lambda c: c * copies, range(copies))
    assert len(start.pivots) == copies * len(state.pivots)
    resumed = forward_eliminate(more, start)
    assert state == kept
    moved = [{c * copies + j: v for c, v in row.items()} for j in range(copies) for row in rows]
    assert tuple(sorted(resumed.pivots)) == pivot_columns(moved + more)


# Packed rows: coefficients that pass the packing shift.  Those from 2^8 to
# 2^14 fit the first shift, so the first products cross it partway through
# a reduction; those from 2^30 to 2^80 widen it before packing and again
# partway through.
wide_coefficients = st.builds(
    lambda sign, c: sign * c,
    st.sampled_from((1, -1)),
    st.one_of(st.integers(2**8, 2**14), st.integers(2**30, 2**80), st.integers(0, 3)),
)


@st.composite
def wide_row_lists(draw):
    """Dense rows over Q(p) with wide coefficients, some of them dependent."""
    ambient = draw(st.integers(2, 5))
    num = st.lists(wide_coefficients, min_size=1, max_size=3).filter(any)
    den = st.sampled_from(((1,), (1,), (1, 1), (-1, 0, 1)))
    entry = st.builds(lambda n, d: Scalar._reduced(tuple(n), d), num, den)
    row = st.dictionaries(st.integers(0, ambient - 1), entry, min_size=1, max_size=ambient)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        combo = dict(a)
        for j, v in b.items():
            combo[j] = combo.get(j, ZERO) + draw(entry) * v
        rows.insert(draw(st.integers(0, len(rows))), combo)
    return rows, ambient


C = 2**40 + 1
WIDE_EXAMPLES = (
    # coefficients near 2^12: the second row's first step crosses the first shift
    (
        [
            {0: 4096 * P + 4001, 1: 4093 * Q, 2: ONE, 3: 4001 * P},
            {0: 3999 * P + 4093, 1: 4091 * P, 2: 4089 * Q + 1, 4: P},
            {1: 4007 * P, 2: 4003 * P + 1, 3: 4013 * Q},
        ],
        5,
    ),
    # coefficients near 2^40 and 2^80, as in dj:2 conjugated by [[1, 2^40 + 1], [0, 1]]
    (
        [
            {0: C * P - C, 1: C * C * Q - 2 * C * C * P + C * C, 2: P, 3: -C * P + C, 4: C * Q},
            {1: Q - 1, 2: C * P - C, 3: P, 5: ONE},
            {0: P, 1: C * Q, 3: C * C * P - 1, 4: P + 1},
            {0: Q, 2: C * C * Q - C, 3: ONE, 5: C * P},
        ],
        6,
    ),
    # the last row is the sum of the first two: its reduction cancels to zero
    (
        [
            {0: C * P + 1, 1: C * Q, 2: ONE},
            {0: ONE, 1: C * C * P - C, 2: C * P},
            {0: C * P + 2, 1: C * Q + C * C * P - C, 2: C * P + 1},
        ],
        3,
    ),
)


@settings(max_examples=60, deadline=None)
@given(wide_row_lists())
@example(WIDE_EXAMPLES[0])
@example(WIDE_EXAMPLES[1])
@example(WIDE_EXAMPLES[2])
def test_packed_elimination_matches_echelonize_past_the_shift(case):
    rows, ambient = case
    ech = echelonize(rows, ambient)
    assert rank(rows) == ech.dim
    assert pivot_columns(rows) == ech.pivots
    assert row_space(rows, ambient) == ech


@pytest.mark.parametrize("case", WIDE_EXAMPLES[:2], ids=["near-2^12", "near-2^80"])
def test_a_reduction_that_crosses_the_shift_widens_it_partway(case, monkeypatch):
    # the row under reduction is re-encoded along with the stored rows
    rows, ambient = case
    widened = []
    original = linalg._widen

    def spy(state, bound, vec):
        widened.append(len(vec))
        original(state, bound, vec)

    monkeypatch.setattr(linalg, "_widen", spy)
    state = forward_eliminate(rows)
    assert any(widened), widened
    ech = echelonize(rows, ambient)
    assert len(state.pivots) == ech.dim
    assert row_space(rows, ambient) == ech


@settings(max_examples=40, deadline=None)
@given(row_lists(symbolic=True), wide_row_lists(), st.integers(1, 3))
@example(([{0: P, 1: ONE}, {1: P + 1}], 2), WIDE_EXAMPLES[1], 2)
def test_a_copy_widened_on_resuming_leaves_its_source_alone(case, extra, copies):
    # the copies share the source's packed ints; widening must rewrite only the copy's rows
    rows, _ = case
    more, _ = extra
    state = forward_eliminate(rows)
    kept = copy.deepcopy(state)
    resumed = forward_eliminate(more, copy_state(state, lambda c: c * copies, range(copies)))
    assert state == kept
    moved = [{c * copies + j: v for c, v in row.items()} for j in range(copies) for row in rows]
    assert tuple(sorted(resumed.pivots)) == pivot_columns(moved + more)


def test_packing_round_trips_balanced_digits():
    for k in (16, 17, 64):
        half = 1 << (k - 1)
        for poly in ((1,), (-1,), (half - 1, -(half - 1)), (0, 0, -5), (3, half - 1, 0, -7), (-(half - 1),) * 4):
            assert linalg._unpack(linalg._pack(poly, k), k) == poly


@settings(max_examples=100, deadline=None)
@given(row_lists())
def test_pivot_columns_match_echelonize(case):
    # the pivots of the forward elimination are those of the reduced echelon form
    rows, ambient = case
    assert pivot_columns(rows) == echelonize(rows, ambient).pivots


@settings(max_examples=100, deadline=None)
@given(row_lists())
@example(([], 4))
@example(([{2: Fraction(1, 3)}, {2: Fraction(1, 3)}, {0: Fraction(0)}], 3))
@example(([{0: P + 1, 1: ONE}, {0: P * P - 1, 1: P - 1}], 2))
@example(([{0: Scalar(2), 1: P}, {0: 4 * P, 1: 2 * P * P}, {0: Scalar(6), 1: P + 1}], 2))
@example(([{0: ONE / (P + 1), 1: P / (P * P - 1)}, {0: P - 1, 1: P}, {1: ONE / (P - 1), 2: Q}], 3))
# a later row whose pivot lies left of an earlier row's: the earlier row
# holds no pivot of it, so back-substitution clears only pivots to the right
@example(([{1: P, 2: ONE, 3: P + 1}, {0: ONE, 2: Q}, {2: P - 1, 3: ONE}], 4))
def test_row_space_matches_echelonize(case):
    rows, ambient = case
    ech = echelonize(rows, ambient)
    span = row_space(rows, ambient)
    assert span == ech
    assert span.dim == rank(rows)
    for p, row in zip(span.pivots, span.basis):
        assert row[p] is ONE
        assert all(isinstance(v, Scalar) and v for v in row.values())


@settings(max_examples=50, deadline=None)
@given(row_lists(), st.data())
def test_row_space_ignores_scale_order_and_combinations(case, data):
    # the row space, not the rows that span it, fixes the reduced basis
    rows, ambient = case
    span = row_space(rows, ambient)
    scales = field_entries(True).filter(bool)
    moved = []
    for r in rows:
        c = data.draw(scales)
        moved.append({j: v * c for j, v in r.items()})
    moved = data.draw(st.permutations(moved))
    for _ in range(data.draw(st.integers(0, 3))):
        if not rows:
            break
        combo = {}
        for r in data.draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
            c = data.draw(scales)
            for j, v in r.items():
                combo[j] = combo.get(j, ZERO) + c * v
        moved.append(combo)
    assert row_space(moved, ambient) == span


@settings(max_examples=150, deadline=None)
@given(row_lists(symbolic=True), st.fractions(-3, 3, max_denominator=4))
@example(([{0: P - 1}], 1), Fraction(1))
@example(([{0: ONE, 1: P}, {0: ONE, 1: ONE}, {1: Q - 1}], 2), Fraction(-1))
def test_rank_at_a_specialization_is_at_most_symbolic(case, x):
    # a minor that vanishes in Q(p) vanishes at every point: rank can only drop
    rows, _ = case
    try:
        special = specialize_rows(rows, x)
    except ZeroDivisionError:  # x is a pole of an entry
        assume(False)
    assert rank(special) <= rank(rows)


def test_rank_of_e_relations_survives_p_equal_2():
    algebra = build_e(dj_r_matrix(2))
    m, n = algebra.generators, 3
    rows = [r for i in range(1, n) for r in lift_rows(algebra.relations.basis, i, n, m)]
    assert rank(specialize_rows(rows, Fraction(2))) == rank(rows) == m**n - 20


CENTRALIZER_OPS = {
    "dj2": lambda: dj_r_matrix(2),
    "dj3": lambda: dj_r_matrix(3),
    "superflip11": lambda: super_flip(1, 1),
    "dense-dj2": lambda: conjugate(dj_r_matrix(2), [[ONE, Scalar(2)], [ZERO, ONE]]),
}


def conjugate(op, rows):
    g = Matrix.from_rows(rows)
    gg = g.kron(g)
    return HeckeOperator(op.d, gg * op.R * gg.inverse(), op.q, f"{op.name}^g")


@pytest.mark.parametrize("name", sorted(CENTRALIZER_OPS))
def test_centralizer_rank_matches_commutant_basis(name):
    op = CENTRALIZER_OPS[name]()  # a fresh operator: no memoised value
    for n in range(1, 4):
        size = op.d**n
        gens = [op.lifted(i, n) for i in range(1, n)]
        c = commutant(gens, size)
        assert centralizer_dimension(op, n) == c.dim
        assert rank(commutant_equations(gens, size)) == size * size - c.dim


def test_reduce_vector_agrees_with_sum_dimension():
    rng = random.Random(73)
    outcomes = set()
    for trial in range(12):
        symbolic = trial % 3 == 0
        w = rand_subspace(rng, 9, 5, symbolic=symbolic)
        if trial % 2:
            # a subspace of w, from combinations of its basis
            combos = []
            for _ in range(3):
                row = {}
                for src in rng.sample(list(w.basis), min(2, w.dim)):
                    c = Fraction(rng.choice((-2, 1, 3)))
                    for j, v in src.items():
                        row[j] = row.get(j, ZERO if symbolic else Fraction(0)) + c * v
                combos.append(row)
            u = echelonize(combos, 9)
        else:
            u = rand_subspace(rng, 9, 3, symbolic=symbolic)
        outcomes.add(u.is_subspace_of(w))
        assert u.is_subspace_of(w) == (subspace_sum(u, w).dim == w.dim)
        for vec in u.basis:
            rest = w.reduce_vector(vec)
            assert (not rest) == (subspace_sum(echelonize([vec], 9), w).dim == w.dim)
            # the remainder holds no pivot of w and differs from vec by a member of w
            assert not set(rest) & set(w.pivots)
            diff = {j: vec.get(j, 0) - rest.get(j, 0) for j in vec.keys() | rest.keys()}
            assert w.contains_vector(diff)
    assert outcomes == {True, False}


def test_rank_nullity():
    rng = random.Random(8)
    for _ in range(12):
        m = rand_matrix(rng, 5, 7)
        r = echelonize(m.data, 7).dim
        k = kernel(m).dim
        assert r + k == 7
        # kernel vectors annihilate: M x = 0 read as rows of M dot x
        for vec in kernel(m).basis:
            for row in m.data:
                acc = Fraction(0)
                for j, v in row.items():
                    acc += v * vec.get(j, Fraction(0))
                assert acc == 0


def test_modular_dimension_law():
    rng = random.Random(9)
    for trial in range(12):
        symbolic = trial % 3 == 0
        u = rand_subspace(rng, 8, 4, symbolic=symbolic)
        w = rand_subspace(rng, 8, 3, symbolic=symbolic)
        s = subspace_sum(u, w)
        i = subspace_intersect(u, w)
        assert s.dim + i.dim == u.dim + w.dim
        assert i.is_subspace_of(u) and i.is_subspace_of(w)
        assert u.is_subspace_of(s) and w.is_subspace_of(s)


@st.composite
def subspace_pairs(draw):
    """Two sparse subspaces of one ambient; the first may lie in the second.

    Half the draws build the first from combinations of the second's
    basis, which gives contained pairs and, when the combinations span,
    equal spaces held as distinct objects.
    """
    symbolic = draw(st.booleans())
    ambient = draw(st.integers(1, 8))
    entries = field_entries(symbolic)
    row = st.dictionaries(st.integers(0, ambient - 1), entries, max_size=4)
    w = echelonize(draw(st.lists(row, max_size=6)), ambient)
    if draw(st.booleans()) and w.dim:
        combos = []
        for _ in range(draw(st.integers(1, w.dim + 1))):
            combo = {}
            for src in w.basis:
                c = draw(entries)
                for j, v in src.items():
                    combo[j] = combo.get(j, 0 * v) + c * v
            combos.append(combo)
        u = echelonize(combos, ambient)
    else:
        u = echelonize(draw(st.lists(row, max_size=6)), ambient)
    return u, w


def _pair(rows_u, rows_w, ambient):
    return echelonize(rows_u, ambient), echelonize(rows_w, ambient)


@settings(max_examples=200, deadline=None)
@given(subspace_pairs())
@example(_pair([], [], 3))
@example(_pair([], [{0: Fraction(1, 2)}], 3))
@example(_pair([{0: ONE}, {1: ONE}], [{2: ONE}, {3: ONE}], 4))
@example(_pair([{0: ONE, 1: P}], [{0: P + 1, 1: P * P + P}, {2: ONE}], 3))
@example(_pair([{0: ONE / (P + 1), 1: P}, {2: Q}], [{0: ONE, 1: P * P + P}, {1: ONE / (P - 1)}], 3))
@example(_pair([{0: Fraction(1, 3), 2: Fraction(2)}], [{2: Fraction(6)}, {0: Fraction(1)}], 3))
def test_sum_and_intersection_match_oracles(pair):
    u, w = pair
    for a, b in ((u, w), (w, u)):
        total, meet = sum_and_intersection(a, b)
        assert total == subspace_sum(a, b)
        assert meet == zassenhaus_intersect(a, b)
        assert subspace_intersect(a, b) == meet
        small, big = (a, b) if a.dim <= b.dim else (b, a)
        if small.is_subspace_of(big):
            # a comparable pair hands back its operands, so the lattice counts it certified
            assert total is big and meet is small
        else:
            assert meet is not a and meet is not b


def test_subspace_equality_and_membership():
    u = echelonize([{0: ONE, 1: P}, {2: ONE}], 4)
    assert u.contains_vector({0: Q, 1: Q * P})
    assert not u.contains_vector({3: ONE})
    w = echelonize([{2: Scalar(5)}, {0: P, 1: P * P}], 4)
    assert u == w


def test_intersection_of_disjoint_is_zero():
    u = echelonize([{0: ONE}, {1: ONE}], 4)
    w = echelonize([{2: ONE}, {3: ONE}], 4)
    assert subspace_intersect(u, w).dim == 0
    assert subspace_sum(u, w).dim == 4


# ---------------------------------------------------------------------------
# lifting to tensor positions


def test_lift_to_position_matches_kron():
    rng = random.Random(10)
    d = 2
    r = rand_matrix(rng, d * d, d * d, symbolic=True)
    eye = Matrix.identity(d)
    assert lift_to_position(r, 1, 3, d) == r.kron(eye)
    assert lift_to_position(r, 2, 3, d) == eye.kron(r)
    assert lift_to_position(r, 2, 4, d) == eye.kron(r).kron(eye)


def test_lifted_operators_on_distant_positions_commute():
    rng = random.Random(11)
    d = 2
    a = rand_matrix(rng, d * d, d * d)
    b = rand_matrix(rng, d * d, d * d)
    a1 = lift_to_position(a, 1, 4, d)
    b3 = lift_to_position(b, 3, 4, d)
    assert a1 * b3 == b3 * a1


def test_lift_rows_spans_image_of_lifted_operator():
    rng = random.Random(12)
    d = 2
    m = rand_matrix(rng, d * d, d * d, density=0.5)
    u = echelonize(m.data, d * d)
    for i in (1, 2):
        lifted_op = lift_to_position(m, i, 3, d)
        image = echelonize(lifted_op.data, d**3)
        spanned = echelonize(lift_rows(u.basis, i, 3, d), d**3)
        assert image == spanned


# ---------------------------------------------------------------------------
# commutant


def test_commutant_of_identity_is_everything():
    eye = Matrix.identity(3)
    assert commutant([eye], 3).dim == 9


def test_commutant_of_generic_diagonal():
    # distinct eigenvalues commute only with diagonals
    diag = Matrix(3, 3, [{0: Scalar(1)}, {1: Scalar(2)}, {2: Scalar(5)}])
    c = commutant([diag], 3)
    assert c.dim == 3
    for vec in c.basis:
        for pos in vec:
            assert pos in (0, 4, 8)


def test_commutant_members_commute():
    rng = random.Random(13)
    g = rand_matrix(rng, 3, 3, density=0.6, symbolic=True)
    c = commutant([g], 3)
    for vec in c.basis:
        x = Matrix(3, 3, [dict() for _ in range(3)])
        for pos, v in vec.items():
            x.data[pos // 3][pos % 3] = v
        assert x * g == g * x


def test_specialize_matrix():
    m = Matrix.from_rows([[Q, ONE / (P + 1)], [ZERO, P]])
    s = specialize_matrix(m, Fraction(3))
    assert s.entry(0, 0) == 9
    assert s.entry(0, 1) == Fraction(1, 4)
    assert s.entry(1, 1) == 3
