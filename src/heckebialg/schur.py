"""Centralizer algebras and symmetric-group multiplicities.

The commutant of the represented Hecke generators on V^(x)n is the degree-n
dual component of the matrix bialgebra, so its dimension must match both the
rank computation and the multiplicity formula sum m_lambda^2.  The m_lambda
come from evaluating traces at q = 1 against the ordinary symmetric-group
character table, computed here by the Murnaghan-Nakayama rule on beta-sets.

The relations of E are the FRT relations R T1 T2 = T2 T1 R: the commutant
equations of R, X[(r1,r2),(c1,c2)] moved to the W (x) W index
(c1 d + r1) d^2 + (c2 d + r2), span Im(Rbar - 1).  So the equations of
the lifted generators on V^(x)n, columns moved alike, span the relation
sum I_n of E in W^(x)n, and ``centralizer_dimension`` and the direct rank
of E rank one subspace from two spanning sets in two column orders: they
cross-check the construction of Rbar and the elimination engine.  The
multiplicities are the route that carries Schur-Weyl duality.

The double centralizer (q-Schur-Weyl duality) says the span of the
represented Hecke algebra is the commutant of that commutant.  The span
always lies in the bicommutant, so ``bicommutant_check`` needs only a rank:
the commutant equations of the centralizer, with the span's pivot columns
deleted, must have full column rank, and the elimination stops once they
do.  No basis of the bicommutant is built, and a pass is certified by full
rank at one point mod a prime.  Where the point hits a pole or falls
short, the exact route decides on the engines of ``linalg``: the span's
pivots from ``pivot_columns`` and the equations' rank from
``echelonize``, which stops at full rank too.
"""

import math
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache

from .exactnum import rf_eval_at_one
from .linalg import (
    Matrix,
    Subspace,
    commutant_equations,
    copy_state,
    echelonize,
    eliminate_copies,
    forward_eliminate,
    kernel_rows,
    pivot_columns,
    pivots_at_point,
    row_space,
    rows_at_point,
)
from .qalg import algebra_by_key, graded_dimension
from .rmatrix import character, memoised, rho_basis

__all__ = [
    "MAX_TABLE_DEGREE",
    "partitions",
    "class_size",
    "cycle_type_representative",
    "CharacterTable",
    "sn_character_table",
    "hook_length_dimension",
    "MultiplicityTable",
    "multiplicities",
    "centralizer_dimension",
    "BicommutantReport",
    "bicommutant_check",
    "SchurDimensionReport",
    "schur_dimension_check",
]

MAX_TABLE_DEGREE = 8  # largest n with a character table of S_n


def partitions(n):
    """All partitions of n as descending tuples, largest part first."""
    if n == 0:
        return [()]
    out = []

    def rec(remaining, largest, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(largest, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(n, n, [])
    return out


def class_size(mu):
    """Size of the conjugacy class of cycle type mu: n! / z_mu."""
    n = sum(mu)
    z = 1
    for part, count in Counter(mu).items():
        z *= part**count * math.factorial(count)
    return math.factorial(n) // z


def cycle_type_representative(mu):
    """A minimal-length permutation of cycle type mu, in one-line form.

    Built from disjoint consecutive blocks, each a shifted copy of the
    long cycle (k, 1, 2, ..., k-1).
    """
    word = []
    offset = 0
    for part in mu:
        word.append(offset + part)
        word.extend(range(offset + 1, offset + part))
        offset += part
    return tuple(word)


# ---------------------------------------------------------------------------
# Murnaghan-Nakayama on beta-sets


def _beta_set(lam):
    l = len(lam)
    return tuple(sorted(lam[i] + (l - 1 - i) for i in range(l)))


def _partition_from_beta(beta_sorted):
    parts = [beta_sorted[i] - i for i in range(len(beta_sorted))]
    return tuple(sorted((p for p in parts if p > 0), reverse=True))


@lru_cache(maxsize=None)
def _mn_character(lam, mu):
    if not mu:
        return 1 if not lam else 0
    k, rest = mu[0], mu[1:]
    beta = _beta_set(lam)
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in bset:
            continue
        # removing the strip: swap b for b-k; the height is the number of
        # occupied beta positions jumped over
        height = sum(1 for x in beta if nb < x < b)
        new_beta = tuple(sorted((bset - {b}) | {nb}))
        total += (-1) ** height * _mn_character(_partition_from_beta(new_beta), rest)
    return total


def hook_length_dimension(lam):
    """f_lambda by the hook length formula, an independent route."""
    n = sum(lam)
    if n == 0:
        return 1
    cols = [0] * lam[0]
    for row_len in lam:
        for j in range(row_len):
            cols[j] += 1
    prod = 1
    for i, row_len in enumerate(lam):
        for j in range(row_len):
            prod *= (row_len - j) + (cols[j] - i) - 1
    return math.factorial(n) // prod


class CharacterTable(namedtuple("CharacterTable", "n parts values")):
    """``parts`` are the partitions of n, largest first; ``values`` maps
    (lam, mu) to the integer character value."""

    __slots__ = ()

    def chi(self, lam, mu):
        return self.values[(tuple(lam), tuple(mu))]

    def dimension(self, lam):
        return self.chi(lam, (1,) * self.n)


def sn_character_table(n):
    """Irreducible characters of the symmetric group on n letters, n <= 8."""
    if not 1 <= n <= MAX_TABLE_DEGREE:
        raise ValueError(f"character table supported for 1 <= n <= {MAX_TABLE_DEGREE}")
    parts = tuple(partitions(n))
    values = {
        (lam, mu): _mn_character(lam, mu) for lam in parts for mu in parts
    }
    return CharacterTable(n, parts, values)


# ---------------------------------------------------------------------------
# multiplicities at q = 1


class MultiplicityTable(namedtuple("MultiplicityTable", "mult dims")):
    """``mult`` maps each partition to a nonnegative integer, ``dims`` to f_lambda."""

    __slots__ = ()

    def __new__(cls, mult, dims):
        assert set(mult) == set(dims)
        for lam, m in mult.items():
            assert m >= 0, f"negative multiplicity at {lam}"
        return super().__new__(cls, mult, dims)

    def sum_of_squares(self):
        return sum(m * m for m in self.mult.values())

    def total_dimension(self):
        return sum(m * self.dims[lam] for lam, m in self.mult.items())


def multiplicities(op, n):
    """m_lambda = (1/n!) sum_mu |class mu| (chi(T_w_mu))_t chi^lambda(mu).

    One trace per cycle type mu, of the word product for its minimal-length
    representative, evaluated at p = 1, which must be q = 1
    (``HeckeOperator.q_tends_to_one``); each multiplicity must come out a
    nonnegative integer or the operator is not a valid input.
    """
    op.require_q_tends_to_one("the multiplicity route")
    table = sn_character_table(n)
    traces = {}
    for mu in table.parts:
        w = cycle_type_representative(mu)
        traces[mu] = rf_eval_at_one(character(op, n, w))
    fact = math.factorial(n)
    mult = {}
    for lam in table.parts:
        acc = Fraction(0)
        for mu in table.parts:
            acc += class_size(mu) * traces[mu] * table.chi(lam, mu)
        m = acc / fact
        if m.denominator != 1 or m < 0:
            raise ValueError(f"multiplicity at {lam} is {m}, not a nonnegative integer")
        mult[lam] = int(m)
    dims = {lam: table.dimension(lam) for lam in table.parts}
    out = MultiplicityTable(mult, dims)
    if out.total_dimension() != op.d**n:
        raise ValueError(
            f"multiplicities sum to {out.total_dimension()}, expected {op.d**n}"
        )
    return out


# ---------------------------------------------------------------------------
# centralizer and bicommutant


@memoised
def centralizer_dimension(op, n):
    """dim of the commutant of the represented generators on V^(x)n.

    That is size^2 minus the rank of the equations X T_i = T_i X, i < n,
    size = d^n (``_commutant_state``): no kernel basis is built.
    """
    assert n >= 1
    size = op.d**n
    if n == 1:
        return size * size
    return size * size - len(_commutant_state(op, n).pivots)


@memoised
def _commutant_state(op, n):
    """The forward elimination of the commutant equations on V^(x)n
    (n >= 2), resumed from degree n-1.

    T_k = T'_k (x) 1 for k <= n-2, T'_k its degree-(n-1) lift.  So the
    equation of T_k at the entry (e*d + a, f*d + b) is that of T'_k at
    (e, f) with each X'[r, c] replaced by X[r*d + a, c*d + b].  Vectorized
    row-major, the d^2 maps (a, b) are increasing with disjoint images, so
    the degree-(n-1) state copied under them (``copy_state``) is a state
    for T_1..T_(n-2).

    T_(n-1) = 1 (x) R on V^(n-2) (x) V^2: its equations are those of
    degree 2 in every block X[(e, .), (f, .)], e, f indexing V^(n-2), so
    they span k^(N) (x) Q_2, N = d^(2(n-2)) and Q_2 the span of the
    degree-2 equations.  The unit vectors (e, f) off the pivot columns of
    degree n-2 complete its span Q_(n-2) to k^N (all of k^N for n = 3),
    and Q_(n-2) (x) Q_2 lies in Q_(n-2) (x) k^(d^4), the span of the
    equations of T_1..T_(n-3) in every slice X[(., a), (., b)], a, b
    indexing V^2: those are among the copies.  So only the copies of the
    degree-2 state in the blocks (e, f) off those pivots are eliminated
    (``eliminate_copies``): ``centralizer_dimension(op, n - 2)`` copies of
    rank Q_2 rows, not the up to d^(2n) equations of T_(n-1).
    """
    d, size = op.d, op.d**n
    if n == 2:
        return forward_eliminate(commutant_equations([op.R], size))
    prev, sq = size // d, d * d

    def spread(k):
        r, c = divmod(k, prev)
        return r * d * size + c * d

    offsets = [a * size + b for a in range(d) for b in range(d)]
    below = copy_state(_commutant_state(op, n - 1), spread, offsets)

    def place(k):
        a, b = divmod(k, sq)
        return a * size + b

    outer = size // sq
    held = _commutant_state(op, n - 2).index_of if n > 3 else {}
    blocks = [e * sq * size + f * sq for e in range(outer) for f in range(outer) if e * outer + f not in held]
    return eliminate_copies(_commutant_state(op, 2), place, blocks, below)


def _vec_row(mat):
    row = {}
    for r, entries in enumerate(mat.data):
        base = r * mat.cols
        for c, v in entries.items():
            row[base + c] = v
    return row


def _unvec(row, dim):
    data = [dict() for _ in range(dim)]
    for k, v in row.items():
        data[k // dim][k % dim] = v
    return Matrix(dim, dim, data)


BicommutantReport = namedtuple("BicommutantReport", "hecke_span centralizer bicommutant ok")


@memoised
def bicommutant_check(op, n):
    """The represented Hecke algebra equals its own bicommutant on V^(x)n.

    c1 is the commutant of the lifted generators T_i and c2 the commutant
    of c1; the span is that of the rho(T_w).  Each rho(T_w) is a product
    of the T_i, which every element of c1 commutes with, so span <= c2.
    Let P be a set of columns, N = (d^n)^2, such that the span restricted
    to P has rank |P|, so that restriction onto k^P is onto.  An X in c2
    minus an element of the span that matches X on P lies in c2 and is
    zero on P, so

        c2 = span + {X in c2 : X = 0 on P},

    whose second summand is the kernel of E_P, the commutant equations of
    c1 with the columns in P deleted.  If E_P has full column rank N - |P|
    that summand is 0: then c2 = span, and restriction is injective on the
    span as well, so dim span = |P|.  With P the span's pivots, the sum is
    direct and dim c2 = dim span + (N - |P|) - rank E_P exactly.

    The certificate takes P from the span's pivots at one point mod a
    prime (``linalg.pivots_at_point``): a maximal minor nonzero at the
    point is nonzero over Q(p), so the span restricted to P has exact rank
    |P|.  E_P is built from c1's exact basis (``_centralizer_basis``)
    evaluated once at the point, and its rows stream into one elimination
    at the point that stops at full rank; full rank there is full rank
    over Q(p).  So the check passes with c2 = span and dim span = |P|, all
    exact, and no matrix after the one that reaches full rank is read.  If
    the point hits a pole or falls short of full rank, the exact route
    runs: P the span's exact pivots (``linalg.pivot_columns``) and E_P's
    rank over Q(p) from ``linalg.echelonize`` of the same lazy stream,
    which stops reading matrices at full rank as well.  So every failure
    comes from the exact route, and every dimension in the report is
    exact on both routes.
    """
    size = op.d**n
    c1 = _centralizer_basis(op, n)
    images = rho_basis(op, n)
    span_rows = [_vec_row(images[w]) for w in sorted(images)]
    pivots = pivots_at_point(span_rows)
    at_point = None if pivots is None else rows_at_point(c1)
    if at_point is not None:
        free, rows = _restricted_equations(at_point, pivots, size)
        reached = pivots_at_point(rows, free)
        if reached is not None and len(reached) == free:
            return BicommutantReport(len(pivots), len(c1), len(pivots), True)
    pivots = pivot_columns(span_rows)
    free, rows = _restricted_equations(c1, pivots, size)
    bicommutant = len(pivots) + free - echelonize(rows, free).dim
    return BicommutantReport(len(pivots), len(c1), bicommutant, bicommutant == len(pivots))


def _centralizer_basis(op, n):
    """A basis of c1, the commutant of the lifted generators on V^(x)n,
    read off the reduced echelon form of its equations by
    ``linalg.kernel_rows``: one vector per free column, in column order.

    That form is ``row_space`` of ``_commutant_state``, the elimination
    ``centralizer_dimension`` holds for the same degree, so the equations
    of the n - 1 generators are not built again.  At n = 1 there are no
    equations and the form is empty.
    """
    ambient = (op.d**n) ** 2
    if n == 1:
        return kernel_rows(Subspace(ambient, (), ()))
    return kernel_rows(row_space(_commutant_state(op, n), ambient))


def _restricted_equations(c1, pivots, size):
    """(N - |P|, the rows of E_P): the commutant equations of the elements
    of c1, one matrix at a time, with the entries of X at the columns P
    left out and the others numbered 0..N - |P| - 1 in order, so that an
    elimination that stops at N - |P| rows stops at full rank."""
    pivots = set(pivots)
    kept = {c: k for k, c in enumerate(c for c in range(size * size) if c not in pivots)}
    rows = (
        {kept[c]: v for c, v in eq.items() if c in kept}
        for row in c1
        for eq in commutant_equations([_unvec(row, size)], size)
    )
    return len(kept), rows


# ---------------------------------------------------------------------------
# the three-route dimension check


SchurDimensionReport = namedtuple("SchurDimensionReport", "sum_of_squares centralizer e_dimension table ok")


def schur_dimension_check(op, n):
    """Verify sum m_lambda^2 = centralizer dimension = dim E_n."""
    table = multiplicities(op, n)
    cdim = centralizer_dimension(op, n)
    edim = graded_dimension(algebra_by_key(op, "e"), n)
    squares = table.sum_of_squares()
    return SchurDimensionReport(
        sum_of_squares=squares,
        centralizer=cdim,
        e_dimension=edim,
        table=table,
        ok=squares == cdim == edim,
    )
