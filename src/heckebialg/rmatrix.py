"""Hecke operators on V (x) V and the structures they induce.

A Hecke operator is an invertible R on V (x) V satisfying the braid
relation R_1 R_2 R_1 = R_2 R_1 R_2 on V^(x)3 and the quadratic relation
(R + 1)(R - q) = 0.  Everything acts on row vectors from the right, so
images are row spaces and words of operators multiply left to right.

Built-in families:

* ``dj_r_matrix(d)``: the standard type-A deformation on k^d, q = p^2,
  acting by  x_i (x) x_i -> q x_i (x) x_i,
             x_i (x) x_j -> sqrt(q) x_j (x) x_i + (q-1) x_i (x) x_j  (i < j),
             x_j (x) x_i -> sqrt(q) x_i (x) x_j                      (i < j).
* ``flip_operator(d)``: plain transposition, q = 1.
* ``super_flip(r, s)``: signed transposition on a Z/2-graded space with r
  even and s odd basis vectors, q = 1.

The Hecke algebra H_n acts on V^(x)n through T_{v_i} -> R_i.  ``rho`` of a
permutation multiplies the lifted generators along one reduced word, so a
trace (a cycle trace p_k, a class value for the multiplicities) costs one
word product, not the n! matrices of ``rho_basis``.

``matrix_space_operator`` transports R to W = V* (x) V (the degree-one part
of the coordinate space of matrices), as Rinv^T (x) R with its factors
regrouped; the result satisfies the braid relation but generally not the
quadratic one.  ``staircase_projector`` builds the q-averaged projector
family P_n(S) by the staircase recursion of the q-symmetrizer.  For S =
-Rbar its image is the intersection of the shifted images of S, the
degree-n dual component; the library takes dual graded dimensions from
``qalg.dual_component`` instead, and the projector image is the tests'
independent route to them.  For S = R it is the represented symmetrizer,
whose trace ``staircase_projector_trace`` gives without building all of
S_n.  The lifts R_i and the staircase's P (x) 1 are tensor copies,
``linalg.embed``.
"""

import functools
from fractions import Fraction
from itertools import product

from .exactnum import ONE, P, Q, Scalar, ZERO, q_int, scalar
from .linalg import Matrix, embed, lift_to_position, specialize_matrix
from .symhecke import (
    HeckeElement,
    adjacent_transposition,
    compose,
    length,
    long_cycle,
    reduced_word,
)

__all__ = [
    "HeckeOperator",
    "dj_r_matrix",
    "flip_operator",
    "super_flip",
    "CheckResult",
    "check_hecke",
    "check_yang_baxter",
    "operator_axiom_report",
    "memoised",
    "rho_basis",
    "rho",
    "character",
    "matrix_space_operator",
    "staircase_projector",
    "staircase_projector_trace",
]


def memoised(fn):
    """``fn(owner, arg)`` computed once per owner and arg, kept in ``owner.memo``.

    The owner is a HeckeOperator or a ``qalg.QuadraticAlgebra``; a run
    makes each once, so a memoised value is computed once per run and
    lives as long as the run.  The entry is keyed by the function's name
    and arg, so two functions never share an entry.  Only exact values are
    memoised, and none is changed once kept: the elimination states of
    ``qalg`` and ``schur`` are copied (``linalg.copy_state``,
    ``linalg.eliminate_copies``) before the next degree resumes from them,
    and ``linalg.row_space`` back-substitutes in a copy.
    """
    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(owner, arg):
        key = (name, arg)
        memo = owner.memo
        if key not in memo:
            memo[key] = fn(owner, arg)
        return memo[key]

    return wrapper


class HeckeOperator:
    """An operator R on the square of a d-dimensional space, with its q.

    Also used for the induced operator on W = V* (x) V, which satisfies the
    braid relation only; run the check functions to see which axioms hold.
    ``specialized_at`` records a numeric value substituted for p, None for
    honest symbolic entries.  ``memo`` holds the values ``memoised``
    functions computed from this operator.
    """

    def __init__(self, d, matrix, q, name, specialized_at=None):
        assert matrix.rows == d * d and matrix.cols == d * d
        self.d = d
        self.R = matrix
        self.q = scalar(q)
        self.name = name
        self.specialized_at = specialized_at
        self._inverse = None
        self.memo = {}

    def __repr__(self):
        return f"HeckeOperator({self.name}, d={self.d})"

    def lifted(self, i, n):
        """R_i^n acting at tensor position (i, i+1) of V^(x)n."""
        return lift_to_position(self.R, i, n, self.d)

    def inverse_matrix(self):
        if self._inverse is None:
            self._inverse = self.R.inverse()
        return self._inverse

    def q_tends_to_one(self):
        """Whether q is 1 at p = 1 (false at a pole), so that H_n at p = 1 is
        the group algebra of S_n and the q = 1 routes (cycle traces and S_n
        multiplicities evaluated at p = 1) apply.
        """
        try:
            return self.q.evaluate(1) == 1
        except ZeroDivisionError:
            return False

    def require_q_tends_to_one(self, what):
        """Raise ValueError, naming ``what``, unless ``q_tends_to_one``."""
        if not self.q_tends_to_one():
            at = "" if self.specialized_at is None else f", specialized at p = {self.specialized_at}"
            raise ValueError(f"{what} needs q = 1 at p = 1; {self.name} has q = {self.q}{at}")

    def specialize(self, p0):
        """The same operator with p evaluated at a rational point.

        An operator that is already specialized holds numbers, not
        expressions in p, so it is refused rather than relabelled.
        """
        if self.specialized_at is not None:
            raise ValueError(f"already specialized at p = {self.specialized_at}")
        p0 = Fraction(p0)
        return HeckeOperator(
            self.d,
            specialize_matrix(self.R, p0),
            Scalar(self.q.evaluate(p0)),
            f"{self.name}@p={p0}",
            specialized_at=p0,
        )


def dj_r_matrix(d):
    """The standard type-A Hecke operator on k^d with q = p^2."""
    size = d * d
    data = [dict() for _ in range(size)]
    for a in range(d):
        for b in range(d):
            row = a * d + b
            if a == b:
                data[row][row] = Q
            else:
                data[row][b * d + a] = P
                if a < b:
                    data[row][row] = Q - 1
    return HeckeOperator(d, Matrix(size, size, data), Q, f"dj:{d}")


def flip_operator(d):
    """The transposition operator on k^d (x) k^d, q = 1."""
    size = d * d
    data = [dict() for _ in range(size)]
    for a in range(d):
        for b in range(d):
            data[a * d + b][b * d + a] = ONE
    return HeckeOperator(d, Matrix(size, size, data), ONE, f"flip:{d}")


def super_flip(r, s):
    """The signed flip on a graded space with r even and s odd directions."""
    d = r + s
    size = d * d
    data = [dict() for _ in range(size)]
    for a in range(d):
        for b in range(d):
            sign = -ONE if (a >= r and b >= r) else ONE
            data[a * d + b][b * d + a] = sign
    return HeckeOperator(d, Matrix(size, size, data), ONE, f"superflip:{r}|{s}")


class CheckResult:
    """Boolean with an attached witness for failures."""

    __slots__ = ("ok", "witness")

    def __init__(self, ok, witness=None):
        self.ok = ok
        self.witness = witness

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "pass" if self.ok else f"FAIL at {self.witness}"


def _first_nonzero(mat):
    for i, row in enumerate(mat.data):
        if row:
            j = min(row)
            return (i, j, row[j])
    return None


def check_hecke(op):
    """(R + 1)(R - q) = 0; witness is the first nonzero entry otherwise."""
    eye = Matrix.identity(op.d * op.d)
    prod = (op.R + eye) * (op.R - eye.scale(op.q))
    w = _first_nonzero(prod)
    return CheckResult(w is None, w)


def check_yang_baxter(op):
    """R_1 R_2 R_1 = R_2 R_1 R_2 on V^(x)3."""
    r1 = op.lifted(1, 3)
    r2 = op.lifted(2, 3)
    diff = r1 * r2 * r1 - r2 * r1 * r2
    w = _first_nonzero(diff)
    return CheckResult(w is None, w)


def check_invertible(op):
    try:
        op.inverse_matrix()
    except ValueError:
        return CheckResult(False, "singular matrix")
    return CheckResult(True)


def operator_axiom_report(op, max_degree=8):
    """All operator axioms as (name, CheckResult) pairs.

    Includes nonvanishing of [k]_q up to the working degree, which is what
    the symmetrizer and projector constructions divide by.
    """
    out = [
        ("hecke-quadratic", check_hecke(op)),
        ("yang-baxter", check_yang_baxter(op)),
        ("invertible", check_invertible(op)),
    ]
    bad_k = None
    for k in range(1, max_degree + 1):
        if not q_int(k, op.q):
            bad_k = k
            break
    out.append(
        ("q-integers-nonzero", CheckResult(bad_k is None, f"[{bad_k}]_q = 0" if bad_k else None))
    )
    return out


# ---------------------------------------------------------------------------
# the Hecke algebra representation on V^(x)n


def rho_basis(op, n):
    """rho(T_w) for every w in S_n, built by extending reduced words.

    All n! matrices.  Only what needs the whole image uses it: the span in
    ``schur.bicommutant_check`` and ``rho`` of a HeckeElement.
    """
    d = op.d
    lifts = {i: op.lifted(i, n) for i in range(1, n)} if n > 1 else {}
    images = {tuple(range(1, n + 1)): Matrix.identity(d**n)}
    frontier = list(images)
    while frontier:
        new_frontier = []
        for w in frontier:
            base = images[w]
            for i in range(1, n):
                wv = compose(w, adjacent_transposition(i, n))
                if wv in images or length(wv) != length(w) + 1:
                    continue
                images[wv] = base * lifts[i]
                new_frontier.append(wv)
        frontier = new_frontier
    return images


def rho(op, n, x):
    """The representing matrix of a permutation or of a Hecke element.

    A permutation w is the product of the lifted generators along its
    reduced word, left to right; nothing is cached.
    """
    if isinstance(x, tuple):
        word = reduced_word(x)
        if not word:
            return Matrix.identity(op.d**n)
        out = op.lifted(word[0], n)
        for i in word[1:]:
            out = out * op.lifted(i, n)
        return out
    assert isinstance(x, HeckeElement) and x.n == n
    images = rho_basis(op, n)
    out = Matrix(op.d**n, op.d**n)
    for w, c in x.terms.items():
        out = out + images[w].scale(c)
    return out


def character(op, n, x):
    """chi(x) = trace of rho(x) on V^(x)n, an exact Scalar."""
    return rho(op, n, x).trace()


@memoised
def cycle_trace(op, k):
    """p_k = chi(T_{c_{k+1}}) on V^(x)(k+1); p_0 = d, the trace of 1 on V.

    Memoised on the operator: the q = 1 specialization and the character
    recursion read the same p_k.
    """
    n = k + 1
    return character(op, n, long_cycle(n, n))


# ---------------------------------------------------------------------------
# the induced operator on W = V* (x) V


def matrix_space_operator(op):
    """Transport R to W = V* (x) V.

    On W (x) W = V* (x) V (x) V* (x) V, regroup the two dual factors and the
    two plain factors, act by the transpose-inverse on the dual pair and by
    R on the plain pair, and regroup back: Rinv^T (x) R (``Matrix.kron``)
    with rows and columns moved from ((a,b),(i,j)) to ((a,i),(b,j)).
    Entrywise, with W-index (a, i) = a*d + i,

        Rbar[(a,i),(b,j) ; (a',i'),(b',j')] = Rinv[(a',b'),(a,b)] * R[(i,j),(i',j')].

    The result satisfies the braid relation; its quadratic relation has
    three roots in general, so it is returned as a plain braid operator.
    """
    d = op.d
    size = d**4
    kron = op.inverse_matrix().transpose().kron(op.R)
    # kron is indexed ((a,b),(i,j)); the regrouping swaps the middle two
    # factors, so it is its own inverse and one index list moves rows and columns
    source = [((a * d + b) * d + i) * d + j for a, i, b, j in product(range(d), repeat=4)]
    data = [{source[c]: v for c, v in kron.data[k].items()} for k in source]
    return HeckeOperator(
        d * d, Matrix(size, size, data), op.q, f"{op.name}::matrix-space",
        specialized_at=op.specialized_at,
    )


# ---------------------------------------------------------------------------
# staircase projector family


def _staircase_chain(s_op, m, dim):
    """I + S_{m-1} + S_{m-1}S_{m-2} + ... + S_{m-1}...S_1 on (k^dim)^(x)m."""
    size = dim**m
    chain = Matrix.identity(size)
    prod = None
    for k in range(1, m):
        step = lift_to_position(s_op, m - k, m, dim)
        prod = step if prod is None else prod * step
        chain = chain + prod
    return chain


def staircase_projector(s_op, n, q, dim):
    """P_n(S) = (P_{n-1} (x) 1)(I + S_{n-1} + ... + S_{n-1}...S_1) / [n]_q.

    P_1 = identity.  For S = -Rbar the image of P_n is the intersection of
    the images of Rbar_i - 1, the degree-n component of the dual quadratic
    algebra; the tests compare it with ``qalg.dual_component``.
    """
    proj = Matrix.identity(dim)
    for m in range(2, n + 1):
        chain = _staircase_chain(s_op, m, dim)
        lifted = Matrix(proj.rows * dim, proj.cols * dim, embed(proj.data, 1, proj.cols, dim))
        proj = (lifted * chain).scale(ONE / q_int(m, q))
    return proj


def staircase_projector_trace(s_op, n, q, dim):
    """trace of P_n(S) without materializing P_n.

    Builds P_{n-1} in full, then pairs it against the sparse staircase
    chain: tr((P (x) 1) C) = sum over C[(v,a),(u,a)] of P[u,v] * C-entry.
    """
    if n == 1:
        return scalar(dim)
    prev = staircase_projector(s_op, n - 1, q, dim)
    chain = _staircase_chain(s_op, n, dim)
    acc = ZERO
    for r, row in enumerate(chain.data):
        v, a = divmod(r, dim)
        for c, val in row.items():
            u, b = divmod(c, dim)
            if a != b:
                continue
            pv = prev.data[u].get(v)
            if pv is not None:
                acc = acc + pv * val
    return acc / q_int(n, q)
