"""Quadratic algebras attached to a Hecke operator, and Koszulness checks.

A quadratic algebra is the tensor algebra on m generators modulo relations
spanned by a subspace of the degree-two component.  The three families
built from an operator R on V (x) V:

* Lambda: relations Im(R + 1), the q-exterior algebra of V,
* S:      relations Im(R - q), the q-symmetric algebra of V,
* E:      relations Im(Rbar - 1) on W = V* (x) V, the function algebra of
          the associated matrix bialgebra.

Graded dimensions come from honest subspace arithmetic: the degree-n
component of A is W^(x)n modulo the sum I_n of shifted relation subspaces,
and the degree-n component of the quadratic dual is their intersection
D_n.  Each degree is built from the one below (Polishchuk and Positselski,
*Quadratic Algebras*, Ch. 1): I_n = (I_(n-1) (x) V) + (V^(n-2) (x) R) and
D_n = (D_(n-1) (x) V) & (V^(n-2) (x) R).  Tensoring with V on the right
copies a space into m blocks of columns that share none, so it costs no
elimination: the forward elimination of I_n resumes from m copies of that
of I_(n-1) (``linalg.copy_state``), and D_n is one intersection of
D_(n-1) (x) V with the last lift, both placed by ``_placed``.  Of the
last lift I_n takes in only C (x) R, C the unit vectors off the pivot
columns of I_(n-2): they
complete I_(n-2) to V^(n-2), so V^(n-2) (x) R = I_(n-2) (x) R + C (x) R,
and I_(n-2) (x) R lies in I_(n-2) (x) V (x) V, which lies in
I_(n-1) (x) V.  So I_n = (I_(n-1) (x) V) + (C (x) R) for every quadratic
algebra, and degree n eliminates dim A_(n-2) copies of R's rows, not
m^(n-2).  Those copies are of the state the algebra's build made of the
raw relation rows (``linalg.eliminate_copies``): R is eliminated once per
algebra.  No basis of I_n is built, and the top degree of D_n needs only
a rank, of the remainders of the copies modulo the last lift.

One run asks for the same value from several checks, so ``algebra_by_key``,
``relation_lifts``, ``_placed``, ``graded_dimension`` and
``dual_graded_dimension`` (and ``schur.centralizer_dimension``,
``schur.bicommutant_check`` and ``rmatrix.cycle_trace``) are
``rmatrix.memoised``: each value is kept in
the ``memo`` of the operator or algebra it is computed from.  A run makes
its operator once, so a value is computed once per run and lives as long
as the run; each function keeps its own entries, so routes stay
independent.

``distributivity_check`` decides the lattice criterion for Koszulness: the
subspace lattice generated by the shifted relation spaces X_1..X_k of
degree n (k = n - 1) must be distributive.  It decides it with a
distributing basis (Backelin 1982; Polishchuk and Positselski, *Quadratic
Algebras*, Ch. 1 sections 6-7): a basis B of the whole space and, for each
b, a set I(b) of generators, such that every X_i is spanned by the b with
i in I(b).  The certificate is checked exactly, whatever built B:

* |B| equals the ambient dimension and so does rank(B);
* every b reduces to zero modulo each X_i with i in I(b);
* #{b : i in I(b)} = dim X_i for every i.

The rank is full when it is full at one point mod a prime
(``linalg.pivots_at_point``: the point sends each minor to its value
there, so a minor nonzero at the point is nonzero over Q(p)), and only
when the point falls short is it taken over Q(p); the membership and the
counts are exact.

B itself is built block by block, each block's pivot columns taken at the
point and, for that block alone, over Q(p) (``linalg.pivot_columns``)
when the point hits a pole or shows its rows dependent.  So every block
B_I is an exact complement in X_I of S_I, the sum of the X_J just above
I: rows independent at the point are independent over Q(p), and
otherwise the pivots are the exact ones.  By induction from the top
subset down, the B_K with K containing I span X_I, so |B_I| = dim X_I -
dim S_I, whatever complements were chosen.  The counts ``free`` and
``dual`` and the verdict of ``certify`` are then those of the all-exact
basis, and a failure never rests on the point.  On a distributive
lattice the rows of each block are independent, so a passing check
takes no exact pivots.

The second and third conditions make the b with i in I(b) dim X_i
independent vectors of X_i, hence a basis of it.  So X_i = span B_i for
subsets B_i of the basis B, and since B is independent, span P + span Q =
span (P | Q) and span P & span Q = span (P & Q) for any subsets P, Q of
B.  The lattice is then the image of the lattice of subsets generated by
the B_i under an injective map that preserves sum and meet; a lattice of
sets is distributive, so the lattice is too.  B is built from the meets
X_I of the generators (``distributing_basis``); its cost grows with the
2^k subsets, not with the lattice.  A meet of consecutive generators,
X_i & ... & X_j, is V^(i-1) (x) D_(j-i+2) (x) V^(n-j-1), a dual component
placed by ``_placed``, so only the other meets are intersected.  The vectors
in no generator number dim A_n and those in all of them dim (A^!)_n,
which the report compares with the ranks.

The closure (``subspace_lattice_distributivity``) runs only to find a
witness when the basis fails, or as a second route when a cap is given.
It is computed symbolically throughout.  Each pair of members is settled
from one reduction of the smaller member's basis modulo the larger: all
remainders zero means the pair is comparable, and otherwise one
elimination of the tagged remainders gives both the exact meet and the
rows that complete the larger member to the sum.  Once the lattice is
closed, the distributive law is checked on lists of sum and meet indices.
"""

import time
from collections import namedtuple

from .exactnum import ONE
from .linalg import (
    Matrix,
    Subspace,
    copy_state,
    eliminate_copies,
    embed,
    forward_eliminate,
    pivot_columns,
    pivots_at_point,
    rank,
    row_space,
    subspace_intersect,
    sum_and_intersection,
)
from .rmatrix import matrix_space_operator, memoised

__all__ = [
    "QuadraticAlgebra",
    "build_lambda",
    "build_s",
    "build_e",
    "algebra_by_key",
    "relation_lifts",
    "graded_dimension",
    "dual_graded_dimension",
    "KoszulSeriesReport",
    "koszul_series_check",
    "DistributivityReport",
    "distributivity_check",
    "lattice_distributivity",
    "DistributingBasis",
    "distributing_basis",
    "subspace_lattice_distributivity",
]


class QuadraticAlgebra:
    """m generators and the relation subspace spanned by ``rows`` inside
    the m^2-dim square.

    ``state`` is the forward elimination of the rows, which the relation
    sum of every degree takes its copies of R from (``_relation_sum``),
    and ``relations`` the reduced echelon basis back-substituted from a
    copy of it.  ``memo`` holds the values ``rmatrix.memoised`` functions
    computed from the algebra.
    """

    __slots__ = ("generators", "relations", "state", "label", "memo")

    def __init__(self, generators, rows, label):
        self.generators = generators
        self.state = forward_eliminate(rows)
        self.relations = row_space(self.state, generators**2)
        self.label = label
        self.memo = {}


def build_lambda(op):
    """The q-exterior algebra: relations Im(R + 1)."""
    m = op.d * op.d
    return QuadraticAlgebra(op.d, (op.R + Matrix.identity(m)).data, f"Lambda({op.name})")


def build_s(op):
    """The q-symmetric algebra (quantum plane): relations Im(R - q)."""
    m = op.d * op.d
    return QuadraticAlgebra(op.d, (op.R - Matrix.identity(m).scale(op.q)).data, f"S({op.name})")


def build_e(op):
    """The matrix-bialgebra function algebra: relations Im(Rbar - 1) on W."""
    wop = matrix_space_operator(op)
    m = wop.d * wop.d
    return QuadraticAlgebra(wop.d, (wop.R - Matrix.identity(m)).data, f"E({op.name})")


@memoised
def algebra_by_key(op, key):
    """S, Lambda or E of the operator, by the key ``s``, ``lambda`` or ``e``."""
    if key == "s":
        return build_s(op)
    if key == "lambda":
        return build_lambda(op)
    if key == "e":
        return build_e(op)
    raise ValueError(f"unknown algebra key {key!r}")


@memoised
def relation_lifts(algebra, n):
    """R_i^n(A) = V^(i-1) (x) R (x) V^(n-i-1) for i = 1..n-1, as
    echelonized subspaces of m^n: the one-generator interval meets
    (``_placed``, no elimination)."""
    return tuple(_placed(algebra, (n, i, 2)) for i in range(n - 1))


@memoised
def graded_dimension(algebra, n):
    """dim A_n = m^n - rank I_n, I_n the sum of the shifted relations."""
    m = algebra.generators
    if n < 2:
        return m**n
    return m**n - len(_relation_sum(algebra, n).pivots)


@memoised
def _relation_sum(algebra, n):
    """The forward elimination of I_n (n >= 2), resumed from I_(n-1).

    Degree 2 is the algebra's ``state``, the elimination of R's rows.
    Beyond it, I_n = (I_(n-1) (x) V) + (C (x) R), C the unit vectors off
    the pivot columns of I_(n-2) (all of V for n = 3).  Those unit vectors
    complete I_(n-2) to V^(n-2), so V^(n-2) (x) R = I_(n-2) (x) R + C (x) R,
    and I_(n-2) (x) R lies in I_(n-2) (x) V (x) V, inside I_(n-1) (x) V
    since I_(n-2) (x) V lies in I_(n-1).  Tensoring with V on the right
    sends column c to c*m + j for the j-th basis vector of V, so the state
    of degree n-1 copied under those m maps (``copy_state``) is a state for
    I_(n-1) (x) V, and only the copies of R's state at the offsets x*m^2,
    x in C, are eliminated into it (``eliminate_copies``): dim A_(n-2) *
    dim R rows, not the m^(n-2) * dim R of the whole last lift.  Nothing
    here asks A to be Koszul.
    """
    if n == 2:
        return algebra.state
    m = algebra.generators
    below = copy_state(_relation_sum(algebra, n - 1), lambda c: c * m, range(m))
    held = _relation_sum(algebra, n - 2).index_of if n > 3 else {}
    complement = [x * m * m for x in range(m ** (n - 2)) if x not in held]
    return eliminate_copies(algebra.state, lambda c: c, complement, below)


@memoised
def dual_graded_dimension(algebra, n):
    """dim (A^!)_n read off A: the intersection D_n of the shifted relations.

    D_n = U & W for U = D_(n-1) (x) V and W = X_(n-1), the lift at
    position n-1, and only its dimension is needed.  Let r_i be the
    remainder of the basis row u_i of U modulo W.  Then sum a_i u_i lies in
    W exactly when sum a_i r_i does, and as a combination of remainders
    that is zero, so dim(U & W) = dim U - rank(r_i): a rank of dim U rows,
    no more than dim W, as D_(n-1) lies in a lift of degree n-1.
    ``dual_component`` builds D_n itself.
    """
    if n < 2:
        return 1 if n == 0 else algebra.generators
    if n == 2:
        return algebra.relations.dim
    head, last = _placed(algebra, (n, 0, n - 1)), _placed(algebra, (n, n - 2, 2))
    return head.dim - rank([last.reduce_vector(row) for row in head.basis])


@memoised
def dual_component(algebra, n):
    """D_n, the subspace whose dimension is dim (A^!)_n, for n >= 2: R for
    n = 2, and beyond it one intersection of D_(n-1) (x) V with the last
    lift V^(n-2) (x) R."""
    assert n >= 2
    if n == 2:
        return algebra.relations
    return subspace_intersect(_placed(algebra, (n, 0, n - 1)), _placed(algebra, (n, n - 2, 2)))


@memoised
def _placed(algebra, key):
    """V^i (x) D_k (x) V^(n-i-k) in degree n, for key = (n, i, k) and D_k
    the ``dual_component`` (D_2 = R).  Its reduced echelon basis is the
    copies of D_k's (``linalg.embed``): the copies share no column, so
    copies of a reduced echelon basis are again reduced echelon, sorted by
    pivot, with no elimination.  Each row's pivot is its first column."""
    n, i, k = key
    m = algebra.generators
    inner = dual_component(algebra, k)
    rows = tuple(embed(inner.basis, m**i, inner.ambient, m ** (n - i - k)))
    return Subspace(m**n, rows, tuple(map(min, rows)))


def _interval_meets(algebra, n):
    """The meets X_i & ... & X_j (i < j) of the shifted relations of degree
    n, by the bitmask of their generators, with no elimination: each is
    V^(i-1) (x) D_(j-i+2) (x) V^(n-j-1), placed by ``_placed``."""
    return {
        (1 << (j + 1)) - (1 << i): _placed(algebra, (n, i, j - i + 2))
        for i in range(n - 1)
        for j in range(i + 1, n - 1)
    }


# ---------------------------------------------------------------------------
# numerical Koszul criterion on Hilbert series


# ``residuals[n - 1]`` is the coefficient n of P_A(t) * P_dual(-t), n = 1..N
KoszulSeriesReport = namedtuple("KoszulSeriesReport", "dims dual_dims residuals ok")


def koszul_series_check(algebra, max_degree):
    """Check sum_j (-1)^j dim(A^!)_j dim A_(n-j) = 0 for 1 <= n <= N.

    This is the coefficientwise form of P_A(t) P_{A^!}(-t) = 1, the series
    identity a Koszul algebra must satisfy.
    """
    a = [graded_dimension(algebra, k) for k in range(max_degree + 1)]
    b = [dual_graded_dimension(algebra, k) for k in range(max_degree + 1)]
    residuals = []
    for n in range(1, max_degree + 1):
        residuals.append(sum((-1) ** j * b[j] * a[n - j] for j in range(n + 1)))
    return KoszulSeriesReport(
        dims=a,
        dual_dims=b,
        residuals=residuals,
        ok=all(r == 0 for r in residuals),
    )


# ---------------------------------------------------------------------------
# lattice distributivity


class DistributivityReport(
    namedtuple(
        "DistributivityReport",
        "status closure_size honest_ops certified_ops witness note routes free dual",
        defaults=(0, 0, 0, None, "", ("closure",), None, None),
    )
):
    """The verdict on one lattice, ``distributive``, ``non_distributive`` or
    ``inconclusive``.  ``witness`` is (u, v, w, lhs, rhs) as Subspaces;
    ``note`` names the limit that stopped an inconclusive run; ``free`` and
    ``dual`` count the vectors of the distributing basis in no generator
    and in every generator."""

    __slots__ = ()


def distributivity_check(algebra, n, cap=None, time_budget=None):
    """Decide distributivity of the lattice generated by the shifted
    relation spaces in degree n: ``lattice_distributivity`` of the
    ``relation_lifts``."""
    return lattice_distributivity(
        relation_lifts(algebra, n),
        cap=cap,
        time_budget=time_budget,
        known=_interval_meets(algebra, n),
    )


def lattice_distributivity(gens, cap=None, time_budget=None, known=None):
    """Decide distributivity of the lattice generated by ``gens``.

    The distributing basis decides it.  The closure runs only when the
    basis fails, to find a witness (up to ``cap`` members, 200 when no cap
    is given), or as a second route when a ``cap`` is given; the status is
    ``distributive`` only if every route that ran says so, and
    ``non_distributive`` only with the closure's witness.  ``time_budget``
    bounds both routes together; a route that does not finish makes the
    status ``inconclusive`` and ``note`` names its limit.  ``known`` maps
    bitmasks of generators to their meets, where those are already built.
    """
    deadline = None if time_budget is None else time.monotonic() + time_budget
    out_of_time = f"time budget of {time_budget} s exhausted"
    basis = distributing_basis(gens, known, deadline)
    if basis is None or _expired(deadline):
        return DistributivityReport("inconclusive", note=out_of_time, routes=["distributing-basis"])
    holds = basis.certify()
    counts = {"free": basis.free, "dual": basis.dual}
    if holds and cap is None:
        return DistributivityReport("distributive", routes=["distributing-basis"], **counts)
    closure = subspace_lattice_distributivity(gens, cap=200 if cap is None else cap, deadline=deadline)
    report = closure._replace(routes=["distributing-basis", "closure"], **counts)
    if closure.note == _EXPIRED:
        report = report._replace(note=out_of_time)
    if closure.status == "distributive" and not holds:
        report = report._replace(
            status="inconclusive", note="the closure is distributive but the distributing basis fails"
        )
    return report


_EXPIRED = "time budget exhausted"  # the closure's note: it sees only the deadline


def _expired(deadline):
    """True once the ``time.monotonic`` reading ``deadline`` has passed."""
    return deadline is not None and time.monotonic() > deadline


# ---------------------------------------------------------------------------
# the distributing basis


class DistributingBasis(namedtuple("DistributingBasis", "gens blocks")):
    """A candidate distributing basis of the lattice generated by ``gens``.

    ``blocks`` maps each subset I of the generators, a bitmask, to the
    vectors B_I whose index set I(b) is I: the generators meant to hold b.
    """

    __slots__ = ()

    @property
    def free(self):
        """|B_empty|: the vectors in no generator, dim A_n for relation lifts."""
        return len(self.blocks[0])

    @property
    def dual(self):
        """|B_all|: the vectors in every generator, dim (A^!)_n for relation lifts."""
        return len(self.blocks[(1 << len(self.gens)) - 1])

    def certify(self):
        """True when the vectors are a basis and each generator is spanned
        by the vectors whose index set holds it.

        Checked exactly, whatever built the blocks: as many vectors as the
        ambient dimension and of full rank; every b in B_I reduces to zero
        modulo each X_i, i in I; and #{b : i in I(b)} = dim X_i.  Full rank
        at one point mod a prime (``linalg.pivots_at_point``) is full rank
        over Q(p); only when the point falls short or hits a pole is the
        rank taken over Q(p).
        """
        ambient = self.gens[0].ambient
        vectors = [b for block in self.blocks.values() for b in block]
        if len(vectors) != ambient:
            return False
        for i, x in enumerate(self.gens):
            held = [b for mask, block in self.blocks.items() if mask >> i & 1 for b in block]
            if len(held) != x.dim or not all(x.contains_vector(b) for b in held):
                return False
        at_point = pivots_at_point(vectors, ambient)
        return (at_point is not None and len(at_point) == ambient) or rank(vectors) == ambient


def distributing_basis(gens, known=None, deadline=None):
    """Blocks B_I built from the meets X_I of the generators X_i.

    X_I is the intersection of the X_i, i in I: taken from ``known``, a
    map from bitmasks to meets already built, or else one
    ``subspace_intersect`` from X_(I minus max I); for the empty I it is
    the whole space with the unit basis.  ``certify`` checks the blocks
    whatever the meets were.  The subsets are visited from the
    largest down, and B_I is a complement in X_I of S_I, the sum of the
    X_J just above I.  By induction X_J is spanned by the B_K with K
    containing J, so S_I is spanned by the B_J with J strictly containing
    I.  A vector v of X_I is the sum of v[p] x_p over the basis rows x_p
    of X_I and their pivots p, so its entries at those pivots are its
    coordinates; B_I is the rows x_p off the pivot columns of S_I's
    spanning rows in those coordinates, with no echelon form built.  For
    the empty I these are the unit vectors off the pivots of the sum of
    the generators.  Returns None once the ``time.monotonic`` reading
    ``deadline`` has passed.

    The pivot columns are taken at one point mod a prime
    (``linalg.pivots_at_point``).  Rows independent there are independent
    over Q(p), so their pivots serve; where the point hits a pole or finds
    fewer pivots than rows, that block's pivots are taken over Q(p)
    (``pivot_columns``).  Every block is then an exact complement, so the
    blocks and their counts are as good as the all-exact ones.
    """
    ambient = gens[0].ambient
    full = (1 << len(gens)) - 1
    meets = {1 << i: x for i, x in enumerate(gens)}
    meets.update(known or {})
    for mask in range(3, full + 1):
        if mask not in meets:
            top = 1 << (mask.bit_length() - 1)
            meets[mask] = subspace_intersect(meets[mask ^ top], meets[top])
            if _expired(deadline):
                return None
    one = next((v for x in gens for row in x.basis for v in row.values()), ONE) ** 0
    meets[0] = Subspace(ambient, tuple({j: one} for j in range(ambient)), tuple(range(ambient)))
    blocks = {}
    for mask in range(full, -1, -1):  # every superset of mask comes first
        if _expired(deadline):
            return None
        meet = meets[mask]
        index = {p: k for k, p in enumerate(meet.pivots)}
        coords = [
            {index[p]: v for p, v in b.items() if p in index}
            for sup, block in blocks.items()
            if sup & mask == mask
            for b in block
        ]
        taken = pivots_at_point(coords)
        if taken is None or len(taken) < len(coords):
            taken = pivot_columns(coords)
        taken = set(taken)
        blocks[mask] = tuple(x for k, x in enumerate(meet.basis) if k not in taken)
    return DistributingBasis(gens, blocks)


# ---------------------------------------------------------------------------
# the lattice closure


class _Lattice:
    """Closure of subspaces under sum and intersection, fully certified.

    Every table entry is backed by exact symbolic row-reduction: each pair
    is one ``sum_and_intersection``, which reduces the smaller member's
    basis modulo the larger.  When every remainder is zero the pair is
    comparable and the members themselves come back (``certified``: the
    larger is the sum, the smaller the meet); otherwise one elimination of
    the tagged remainders gives the meet and the sum (``eliminations``).
    """

    def __init__(self):
        self.members = []
        self.by_shape = {}
        self.sum_table = {}
        self.meet_table = {}
        self.honest_ops = 0
        self.certified_ops = 0

    def add(self, sub):
        """Deduplicated insert; returns the member index."""
        key = (sub.dim, sub.pivots)
        for k in self.by_shape.get(key, ()):
            if self.members[k] == sub:
                return k
        idx = len(self.members)
        self.members.append(sub)
        self.by_shape.setdefault(key, []).append(idx)
        return idx

    def resolve_pair(self, i, j):
        """Fill sum_table and meet_table at the unordered pair (i, j)."""
        key = (i, j) if i <= j else (j, i)
        if key in self.sum_table:
            return
        if i == j:
            self.sum_table[key] = i
            self.meet_table[key] = i
            return
        u, w = self.members[i], self.members[j]
        total, meet = sum_and_intersection(u, w)
        if meet is u or meet is w:
            # the operands came back: the pair is comparable
            self.certified_ops += 2
            self.sum_table[key] = i if total is u else j
            self.meet_table[key] = i if meet is u else j
            return
        self.honest_ops += 2
        self.sum_table[key] = self.add(total)
        self.meet_table[key] = self.add(meet)

    def op(self, table, i, j):
        return table[(i, j) if i <= j else (j, i)]


def subspace_lattice_distributivity(gens, cap=200, deadline=None):
    """Decide distributivity by closing the lattice under sum and meet.

    The status is ``distributive``, ``non_distributive`` (with a witness
    triple and both sides), or ``inconclusive`` when the closure exceeds
    ``cap`` subspaces or the ``time.monotonic`` reading ``deadline``
    passes.  A closure round that does not close the lattice adds a
    member, so the cap also bounds the number of rounds.
    """
    lat = _Lattice()
    for g in gens:
        lat.add(g)

    def report(status, note="", witness=None):
        return DistributivityReport(
            status, len(lat.members), lat.honest_ops, lat.certified_ops, witness, note
        )

    while True:
        size = len(lat.members)
        if size > cap:
            return report("inconclusive", f"closure exceeded cap {cap}")
        pending = [
            (i, j)
            for i in range(size)
            for j in range(i, size)
            if (i, j) not in lat.sum_table
        ]
        if not pending:
            break
        for i, j in pending:
            lat.resolve_pair(i, j)
            if _expired(deadline):
                return report("inconclusive", _EXPIRED)

    # closure complete: distributivity is now pure table lookup
    size = len(lat.members)
    join = [[lat.op(lat.sum_table, i, j) for j in range(size)] for i in range(size)]
    meet = [[lat.op(lat.meet_table, i, j) for j in range(size)] for i in range(size)]
    for u in range(size):
        meet_u = meet[u]
        for v in range(size):
            join_v = join[v]
            join_uv = join[meet_u[v]]
            for w in range(v, size):
                lhs = meet_u[join_v[w]]
                rhs = join_uv[meet_u[w]]
                if lhs != rhs:
                    witness = tuple(lat.members[k] for k in (u, v, w, lhs, rhs))
                    return report("non_distributive", witness=witness)
    return report("distributive")
