"""Centralizer algebras and symmetric-group multiplicities.

The commutant of the represented Hecke generators on V^(x)n is the degree-n
dual component of the matrix bialgebra, so its dimension must match both the
rank computation and the multiplicity formula sum m_lambda^2.  The m_lambda
come from evaluating traces at q = 1 against the ordinary symmetric-group
character table, computed here by the Murnaghan-Nakayama rule on beta-sets.

The double centralizer (q-Schur-Weyl duality) says the span of the
represented Hecke algebra is the commutant of that commutant.  The span
always lies in the bicommutant, so ``bicommutant_check`` needs only a rank:
the commutant equations of the centralizer, with the span's pivot columns
deleted, must have full column rank, and the elimination stops once they
do.  No basis of the bicommutant is built.
"""

import math
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache

from .exactnum import rf_eval_at_one
from .linalg import (
    Matrix,
    _reduced_echelon,
    commutant,
    commutant_equations,
    copy_state,
    echelonize,
    forward_eliminate,
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
    for T_1..T_(n-2), and only the equations of T_(n-1) are eliminated.
    """
    d, size = op.d, op.d**n
    below = None
    if n > 2:
        prev = size // d

        def spread(k):
            r, c = divmod(k, prev)
            return r * d * size + c * d

        offsets = [a * size + b for a in range(d) for b in range(d)]
        below = copy_state(_commutant_state(op, n - 1), spread, offsets)
    return forward_eliminate(commutant_equations([op.lifted(n - 1, n)], size), below)


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
    Let P be the span's pivot columns, N = (d^n)^2.  An X in c2 minus the
    combination of span rows that matches X on P lies in c2 and is zero
    on P, and a nonzero element of the span is not zero on P, so

        c2 = span (+) {X in c2 : X = 0 on P},

    whose second summand is the kernel of E_P, the commutant equations of
    c1 with the columns in P deleted:

        dim c2 = dim span + (N - |P|) - rank E_P.

    The check passes exactly when E_P has full column rank N - |P|, so no
    basis of c2 is built: the rows of E_P stream into one elimination
    (``linalg._reduced_echelon``), built from c1's basis matrices one
    matrix at a time, and the elimination stops when it reaches full rank
    or the matrices run out.  No matrix after the one that reaches full
    rank is read.
    """
    size = op.d**n
    gens = [op.lifted(i, n) for i in range(1, n)]
    c1 = commutant(gens, size)
    images = rho_basis(op, n)
    span = echelonize([_vec_row(images[w]) for w in sorted(images)], size * size)
    # E_P's columns: the entries of X off the span's pivots, renumbered
    off_pivots = sorted(set(range(size * size)) - set(span.pivots))
    keep = {k: i for i, k in enumerate(off_pivots)}
    free = len(keep)
    rows = (
        {keep[k]: v for k, v in eq.items() if k in keep}
        for row in c1.basis
        for eq in commutant_equations([_unvec(row, size)], size)
    )
    bicommutant = span.dim + free - len(_reduced_echelon(rows, free))
    return BicommutantReport(
        hecke_span=span.dim,
        centralizer=c1.dim,
        bicommutant=bicommutant,
        ok=bicommutant == span.dim,
    )


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
