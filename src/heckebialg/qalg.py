"""Quadratic algebras attached to a Hecke operator, and Koszulness checks.

A quadratic algebra is the tensor algebra on m generators modulo relations
spanned by a subspace of the degree-two component.  The three families
built from an operator R on V (x) V:

* Lambda: relations Im(R + 1), the q-exterior algebra of V,
* S:      relations Im(R - q), the q-symmetric algebra of V,
* E:      relations Im(Rbar - 1) on W = V* (x) V, the function algebra of
          the associated matrix bialgebra.

Graded dimensions come from honest subspace arithmetic: the degree-n
component of A is W^(x)n modulo the sum of shifted relation subspaces, and
the degree-n component of the quadratic dual is their intersection.  Both
dimensions need only ranks (``linalg.rank``), not bases.

One run asks for the same value from several checks, so ``algebra_by_key``,
``relation_lifts``, ``graded_dimension`` and ``dual_graded_dimension`` (and
``schur.centralizer_dimension``, ``schur.bicommutant_check`` and
``rmatrix.cycle_trace``) are ``rmatrix.memoised``: each value is kept in
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

The second and third conditions make the b with i in I(b) dim X_i
independent vectors of X_i, hence a basis of it.  So X_i = span B_i for
subsets B_i of the basis B, and since B is independent, span P + span Q =
span (P | Q) and span P & span Q = span (P & Q) for any subsets P, Q of
B.  The lattice is then the image of the lattice of subsets generated by
the B_i under an injective map that preserves sum and meet; a lattice of
sets is distributive, so the lattice is too.  B is built from the meets
X_I of the generators (``distributing_basis``); its cost grows with the
2^k subsets, not with the lattice.  The vectors in no generator number
dim A_n and those in all of them dim (A^!)_n, which the report compares
with the ranks.

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
from dataclasses import dataclass, field, replace

from .exactnum import ONE
from .linalg import (
    Matrix,
    Subspace,
    echelonize,
    lift_rows,
    pivot_columns,
    rank,
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


@dataclass(frozen=True)
class QuadraticAlgebra:
    """m generators and a relation subspace inside the m^2-dim square."""

    generators: int
    relations: Subspace
    label: str
    memo: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        assert self.relations.ambient == self.generators**2


def build_lambda(op):
    """The q-exterior algebra: relations Im(R + 1)."""
    m = op.d * op.d
    rel = echelonize((op.R + Matrix.identity(m)).data, m)
    return QuadraticAlgebra(op.d, rel, f"Lambda({op.name})")


def build_s(op):
    """The q-symmetric algebra (quantum plane): relations Im(R - q)."""
    m = op.d * op.d
    rel = echelonize((op.R - Matrix.identity(m).scale(op.q)).data, m)
    return QuadraticAlgebra(op.d, rel, f"S({op.name})")


def build_e(op, wop=None):
    """The matrix-bialgebra function algebra: relations Im(Rbar - 1) on W."""
    if wop is None:
        wop = matrix_space_operator(op)
    m = wop.d * wop.d
    rel = echelonize((wop.R - Matrix.identity(m)).data, m)
    return QuadraticAlgebra(wop.d, rel, f"E({op.name})")


@memoised
def algebra_by_key(op, key):
    key = key.lower()
    if key in ("s", "sym"):
        return build_s(op)
    if key in ("lambda", "lam", "ext"):
        return build_lambda(op)
    if key in ("e", "end", "edual"):
        return build_e(op)
    raise ValueError(f"unknown algebra key {key!r}")


@memoised
def relation_lifts(algebra, n):
    """R_i^n(A) for i = 1..n-1, as echelonized subspaces of m^n.

    No elimination is needed: ``lift_rows`` sends the reduced echelon
    basis of the relations, block by block, to rows with disjoint columns
    (one block per prefix and suffix index), and within a block its column
    map is increasing.  So the lifted rows are zero at each other's pivots,
    the pivot of a lifted row is the image of its pivot, and sorted by
    pivot they are the reduced echelon basis of the lift.
    """
    m = algebra.generators
    out = []
    for i in range(1, n):
        rows = sorted(lift_rows(algebra.relations.basis, i, n, m), key=min)
        out.append(Subspace(m**n, tuple(rows), tuple(min(row) for row in rows)))
    return tuple(out)


@memoised
def graded_dimension(algebra, n):
    """dim A_n = m^n - rank of the stacked shifted relation rows.

    The rank is taken by forward elimination alone; no basis of the
    relation sum is built.
    """
    m = algebra.generators
    if n == 0:
        return 1
    if n == 1:
        return m
    rows = []
    for i in range(1, n):
        rows.extend(lift_rows(algebra.relations.basis, i, n, m))
    return m**n - rank(rows)


@memoised
def dual_graded_dimension(algebra, n):
    """dim (A^!)_n read off A: the intersection of the shifted relations.

    All intersections but the last are exact subspaces; the last needs
    only its dimension, dim(U & W) = dim U + dim W - rank(U + W).
    ``dual_component`` builds the whole intersection.
    """
    if n < 2:
        return 1 if n == 0 else algebra.generators
    *head, last = relation_lifts(algebra, n)
    if not head:
        return last.dim
    acc = _intersect_all(head)
    return acc.dim + last.dim - rank(acc.basis + last.basis)


def dual_component(algebra, n):
    """The subspace whose dimension is dim (A^!)_n, for n >= 2."""
    assert n >= 2
    return _intersect_all(relation_lifts(algebra, n))


def _intersect_all(subspaces):
    acc = subspaces[0]
    for nxt in subspaces[1:]:
        if acc.dim == 0:
            break
        acc = subspace_intersect(acc, nxt)
    return acc


# ---------------------------------------------------------------------------
# numerical Koszul criterion on Hilbert series


@dataclass
class KoszulSeriesReport:
    label: str
    max_degree: int
    dims: list
    dual_dims: list
    residuals: list  # coefficient n of P_A(t) * P_dual(-t), n = 1..N
    ok: bool

    def __str__(self):
        state = "pass" if self.ok else "FAIL"
        return (
            f"koszul-series {self.label} N={self.max_degree} {state} "
            f"dims={self.dims} dual={self.dual_dims}"
        )


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
        label=algebra.label,
        max_degree=max_degree,
        dims=a,
        dual_dims=b,
        residuals=residuals,
        ok=all(r == 0 for r in residuals),
    )


# ---------------------------------------------------------------------------
# lattice distributivity


@dataclass
class DistributivityReport:
    label: str
    degree: int
    status: str  # "distributive" | "non_distributive" | "inconclusive"
    closure_size: int = 0
    honest_ops: int = 0
    certified_ops: int = 0
    witness: tuple = None  # (u, v, w, lhs, rhs) as Subspaces
    note: str = ""  # for an inconclusive run, the limit that stopped it
    routes: list = field(default_factory=lambda: ["closure"])
    free: int = None  # vectors of the distributing basis in no generator
    dual: int = None  # vectors of the distributing basis in every generator

    def __bool__(self):
        return self.status == "distributive"

    def __str__(self):
        extra = ""
        if self.free is not None:
            extra += f" (basis: {self.free} free, {self.dual} dual)"
        if "closure" in self.routes:
            extra += (
                f" (closure {self.closure_size}, {self.honest_ops} eliminations,"
                f" {self.certified_ops} certified)"
            )
        if self.witness:
            extra += f" witness dims {tuple(s.dim for s in self.witness[:3])}"
        if self.note:
            extra += f" {self.note}"
        return f"distributivity {self.label} n={self.degree}: {self.status}{extra}"


def distributivity_check(algebra, n, cap=None, time_budget=None):
    """Decide distributivity of the lattice generated by the shifted
    relation spaces in degree n: ``lattice_distributivity`` of the
    ``relation_lifts``."""
    return lattice_distributivity(
        relation_lifts(algebra, n),
        cap=cap,
        time_budget=time_budget,
        label=algebra.label,
        degree=n,
    )


def lattice_distributivity(gens, cap=None, time_budget=None, label="lattice", degree=0):
    """Decide distributivity of the lattice generated by ``gens``.

    The distributing basis decides it.  The closure runs only when the
    basis fails, to find a witness (up to ``cap`` members, 200 when no cap
    is given), or as a second route when a ``cap`` is given; the status is
    ``distributive`` only if every route that ran says so, and
    ``non_distributive`` only with the closure's witness.  ``time_budget``
    bounds both routes together; a route that does not finish makes the
    status ``inconclusive`` and ``note`` names its limit.
    """
    started = time.monotonic()
    basis = distributing_basis(gens, time_budget, started)
    if basis is None or _expired(time_budget, started):
        return DistributivityReport(
            label, degree, "inconclusive", note=_budget_note(time_budget), routes=["distributing-basis"]
        )
    holds = basis.certify()
    counts = {"free": basis.free, "dual": basis.dual}
    if holds and cap is None:
        return DistributivityReport(label, degree, "distributive", routes=["distributing-basis"], **counts)
    closure = subspace_lattice_distributivity(
        gens,
        cap=200 if cap is None else cap,
        time_budget=time_budget,
        label=label,
        degree=degree,
        started=started,
    )
    report = replace(closure, routes=["distributing-basis", "closure"], **counts)
    if closure.status == "distributive" and not holds:
        report.status = "inconclusive"
        report.note = "the closure is distributive but the distributing basis fails"
    return report


def _expired(time_budget, started):
    return time_budget is not None and time.monotonic() - started > time_budget


def _budget_note(time_budget):
    return f"time budget of {time_budget} s exhausted"


# ---------------------------------------------------------------------------
# the distributing basis


@dataclass
class DistributingBasis:
    """A candidate distributing basis of the lattice generated by ``gens``.

    ``blocks`` maps each subset I of the generators, a bitmask, to the
    vectors B_I whose index set I(b) is I: the generators meant to hold b.
    """

    gens: list
    blocks: dict

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
        modulo each X_i, i in I; and #{b : i in I(b)} = dim X_i.
        """
        ambient = self.gens[0].ambient
        vectors = [b for block in self.blocks.values() for b in block]
        if len(vectors) != ambient:
            return False
        for i, x in enumerate(self.gens):
            held = [b for mask, block in self.blocks.items() if mask >> i & 1 for b in block]
            if len(held) != x.dim or not all(x.contains_vector(b) for b in held):
                return False
        return rank(vectors) == ambient


def distributing_basis(gens, time_budget=None, started=None):
    """Blocks B_I built from the meets X_I of the generators X_i.

    X_I is the intersection of the X_i, i in I, each one
    ``subspace_intersect`` from X_(I minus max I); for the empty I it is
    the whole space with the unit basis.  The subsets are visited from the
    largest down, and B_I is a complement in X_I of S_I, the sum of the
    X_J just above I.  By induction X_J is spanned by the B_K with K
    containing J, so S_I is spanned by the B_J with J strictly containing
    I.  A vector v of X_I is the sum of v[p] x_p over the basis rows x_p
    of X_I and their pivots p, so its entries at those pivots are its
    coordinates; B_I is the rows x_p off the ``pivot_columns`` of S_I's
    spanning rows in those coordinates, with no echelon form built.  For
    the empty I these are the unit vectors off the pivots of the sum of
    the generators.  Returns None once ``time_budget`` seconds have passed
    since ``started``.
    """
    if started is None:
        started = time.monotonic()
    ambient = gens[0].ambient
    full = (1 << len(gens)) - 1
    meets = {1 << i: x for i, x in enumerate(gens)}
    for mask in range(3, full + 1):
        if mask not in meets:
            top = 1 << (mask.bit_length() - 1)
            meets[mask] = subspace_intersect(meets[mask ^ top], meets[top])
            if _expired(time_budget, started):
                return None
    one = next((v for x in gens for row in x.basis for v in row.values()), ONE) ** 0
    meets[0] = Subspace(ambient, tuple({j: one} for j in range(ambient)), tuple(range(ambient)))
    blocks = {}
    for mask in range(full, -1, -1):  # every superset of mask comes first
        if _expired(time_budget, started):
            return None
        meet = meets[mask]
        index = {p: k for k, p in enumerate(meet.pivots)}
        coords = [
            {index[p]: v for p, v in b.items() if p in index}
            for sup, block in blocks.items()
            if sup & mask == mask
            for b in block
        ]
        taken = set(pivot_columns(coords))
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


def subspace_lattice_distributivity(
    gens,
    cap=200,
    time_budget=None,
    label="lattice",
    degree=0,
    started=None,
):
    """Decide distributivity by closing the lattice under sum and meet.

    The status is ``distributive``, ``non_distributive`` (with a witness
    triple and both sides), or ``inconclusive`` when the closure exceeds
    ``cap`` subspaces or ``time_budget`` seconds pass after ``started``.
    A closure round that does not close the lattice adds a member, so the
    cap also bounds the number of rounds.
    """
    if started is None:
        started = time.monotonic()
    lat = _Lattice()
    for g in gens:
        lat.add(g)

    report = DistributivityReport(label=label, degree=degree, status="inconclusive")
    while True:
        size = len(lat.members)
        if size > cap:
            report.note = f"closure exceeded cap {cap}"
            break
        pending = [
            (i, j)
            for i in range(size)
            for j in range(i, size)
            if (i, j) not in lat.sum_table
        ]
        if not pending:
            report.status = "closed"
            break
        for i, j in pending:
            lat.resolve_pair(i, j)
            if _expired(time_budget, started):
                report.note = _budget_note(time_budget)
                report.closure_size = len(lat.members)
                report.honest_ops = lat.honest_ops
                report.certified_ops = lat.certified_ops
                return report

    report.closure_size = len(lat.members)
    report.honest_ops = lat.honest_ops
    report.certified_ops = lat.certified_ops
    if report.status != "closed":
        return report

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
                    report.status = "non_distributive"
                    report.witness = (
                        lat.members[u],
                        lat.members[v],
                        lat.members[w],
                        lat.members[lhs],
                        lat.members[rhs],
                    )
                    return report
    report.status = "distributive"
    return report
