"""Sparse exact linear algebra over an exact field.

Matrices are rows of {column: entry} dicts; entries are Scalars (or, after
specialization, Fractions).  Stored entries are never zero.  All operators
act on row vectors from the right, x -> x*M, so the image of an operator is
the row space of its matrix and products compose left to right.

Subspaces are kept in reduced row echelon form, which is unique, so
subspace equality is literal row equality.  ``sum_and_intersection``
settles a pair U, W (dim U <= dim W) by reducing each basis row u_i of U
modulo W, whose pivot lookup already exists: r_i is the remainder, so
u_i - r_i lies in W.  If every r_i is zero, U lies in W and the operands
are the answer.  Otherwise it echelonizes the tagged rows [r_i | u_i] in
2m columns (no inner products, exactness preserved).  A row whose pivot
is in the right block has a zero left part, a combination of the r_i
that vanishes, so its right part lies in U & W, and these rows span it.
Among themselves they are already in reduced echelon form, since every
row of the echelon form is zero at the other rows' pivots; shifted, they
are the basis of U & W without a second elimination.  The left parts of
the other rows are zero at W's pivots, as the r_i are, so appended to
W's basis they give U + W in one more ``echelonize`` that clears nothing
on arrival.  ``subspace_intersect`` is the meet half alone;
``subspace_sum`` (stack and re-echelonize) and ``Subspace.is_subspace_of``
stay as the independent routes the tests compare against.

The elimination kernel (``echelonize``, ``Subspace.reduce_vector``) costs
what the nonzeros it touches cost, not the rank, by two invariants:

* stored rows are fully reduced, so clearing a pivot from a row brings in
  no other pivot, and a row needs clearing only at the pivot columns it
  holds when it arrives, found by a lookup from pivot column to row;
* the back-elimination of a new pivot column visits only the stored rows
  that hold that column, found by an index from each non-pivot column to
  the rows that may hold it.

Both visit their rows in ascending pivot order, the order of a full scan,
so the exact operations performed do not depend on the lookups.
``echelonize`` also stops reading rows once it holds as many as the
ambient dimension: they span the whole space, whose reduced basis is the
identity, so no later row can change the result.  Its loop is the
``Echelon`` accumulator, which also takes rows batch by batch, so a
full-rank test (the bicommutant check's) reads each row once and costs
only the rows it takes to reach full rank.

A dimension needs no basis, and ``rank`` returns only that: it is forward
elimination, with no back-elimination and no basis built.  Its invariant
is weaker than the echelon form's: the stored row k is zero at the pivots
of rows 0..k-1 (it may hold later pivots).  So reducing an incoming row by
row k can only fill in pivots of later rows, and the row is cleared by the
stored rows whose pivots it holds, in insertion order, through a heap of
insertion indices.  In dense rational-function rows most of the cost of
``echelonize`` is back-elimination, which is why the dimension-only routes
(``graded_dimension``, ``centralizer_dimension``, the last intersection of
``dual_graded_dimension``) take a rank.  The same elimination gives
``pivot_columns``, the columns at which vectors of the span start, which
are the pivots of the reduced echelon form too; the unit vectors off them
complete a span to the whole space, so the distributing basis takes its
complements from them without an echelon form.

``rank`` is also fraction-free, in the style of Bareiss (1968).  A row
scaled by a nonzero element of Q(p) spans the same line, so rows are
taken into Z[p] and combined by polynomial multipliers only; the count is
exact without a single reduced fraction, which spares the gcd that every
Scalar sum and product pays.  The multipliers are gcd cofactors and each
stored row is made primitive, which holds the entries small.
``echelonize`` and everything built on it stay in reduced Scalars: their
bases must be canonical.
"""

import heapq
from fractions import Fraction

from .exactnum import ONE, ZERO, Scalar, zp_cofactors, zp_combine, zp_primitive, zp_row

__all__ = [
    "Matrix",
    "Subspace",
    "echelonize",
    "Echelon",
    "rank",
    "pivot_columns",
    "subspace_sum",
    "subspace_intersect",
    "sum_and_intersection",
    "kernel",
    "commutant_equations",
    "commutant",
    "lift_to_position",
    "lift_rows",
    "specialize_scalar",
    "specialize_matrix",
    "specialize_rows",
]


class Matrix:
    """A sparse rows x cols matrix over an exact field."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            data = [dict() for _ in range(rows)]
        self.data = data

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def identity(cls, n, one=ONE):
        return cls(n, n, [{i: one} for i in range(n)])

    @classmethod
    def from_rows(cls, rows_of_entries, cols=None):
        rows_of_entries = [list(r) for r in rows_of_entries]
        if cols is None:
            cols = len(rows_of_entries[0]) if rows_of_entries else 0
        data = []
        for r in rows_of_entries:
            data.append({j: v for j, v in enumerate(r) if v})
        return cls(len(data), cols, data)

    def entry(self, i, j):
        return self.data[i].get(j, ZERO)

    def nnz(self):
        return sum(len(r) for r in self.data)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, nnz={self.nnz()})"

    def __add__(self, other):
        assert self.rows == other.rows and self.cols == other.cols
        data = []
        for a, b in zip(self.data, other.data):
            r = dict(a)
            for j, v in b.items():
                s = r.get(j)
                s = v if s is None else s + v
                if s:
                    r[j] = s
                elif j in r:
                    del r[j]
            data.append(r)
        return Matrix(self.rows, self.cols, data)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix(
            self.rows, self.cols, [{j: -v for j, v in r.items()} for r in self.data]
        )

    def scale(self, c):
        if not c:
            return Matrix.zeros(self.rows, self.cols)
        return Matrix(
            self.rows, self.cols, [{j: v * c for j, v in r.items()} for r in self.data]
        )

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        assert self.cols == other.rows, "shape mismatch"
        odata = other.data
        out = []
        for arow in self.data:
            acc = {}
            for k, a in arow.items():
                for j, b in odata[k].items():
                    cur = acc.get(j)
                    v = a * b if cur is None else cur + a * b
                    acc[j] = v
            out.append({j: v for j, v in acc.items() if v})
        return Matrix(self.rows, other.cols, out)

    def transpose(self):
        data = [dict() for _ in range(self.cols)]
        for i, r in enumerate(self.data):
            for j, v in r.items():
                data[j][i] = v
        return Matrix(self.cols, self.rows, data)

    def trace(self):
        acc = None
        for i in range(min(self.rows, self.cols)):
            v = self.data[i].get(i)
            if v is not None:
                acc = v if acc is None else acc + v
        return acc if acc is not None else ZERO

    def kron(self, other):
        """Kronecker product in the row-lex index convention."""
        rr, rc = other.rows, other.cols
        data = [dict() for _ in range(self.rows * rr)]
        for i, arow in enumerate(self.data):
            for k, brow in enumerate(other.data):
                tgt = data[i * rr + k]
                for j, a in arow.items():
                    base = j * rc
                    for l, b in brow.items():
                        tgt[base + l] = a * b
        return Matrix(self.rows * rr, self.cols * rc, data)

    def inverse(self):
        """Inverse from the reduced echelon form of [M | I].

        M is invertible exactly when the pivots are the columns of M; the
        right block of the basis is then the inverse.  Raises ValueError
        when M is singular.
        """
        assert self.rows == self.cols
        n = self.rows
        # take the multiplicative unit from the entries themselves so the
        # routine works over Scalars and Fractions alike
        sample = next((v for r in self.data for v in r.values()), None)
        one = ONE if sample is None else sample**0
        ech = echelonize([{**row, n + i: one} for i, row in enumerate(self.data)], 2 * n)
        if ech.pivots != tuple(range(n)):
            raise ValueError("matrix is singular")
        return Matrix(n, n, [{j - n: v for j, v in row.items() if j >= n} for row in ech.basis])


def _row_axpy(target, factor, source, skip=None):
    """target += factor * source, dropping zeros; 'skip' omits one column.

    factor must be nonzero: a fill-in is then a product of nonzeros.
    """
    get = target.get
    for j, v in source.items():
        if j == skip:
            continue
        cur = get(j)
        if cur is None:
            target[j] = factor * v
            continue
        s = cur + factor * v
        if s:
            target[j] = s
        else:
            del target[j]


class Subspace:
    """A subspace of k^ambient held as unique reduced row echelon basis."""

    __slots__ = ("ambient", "basis", "pivots", "_row_of")

    def __init__(self, ambient, basis, pivots):
        self.ambient = ambient
        self.basis = basis  # tuple of row dicts, pivot entries are exact ones
        self.pivots = pivots  # tuple of pivot columns, increasing
        self._row_of = None  # pivot column -> basis row, built on first reduction

    @property
    def dim(self):
        return len(self.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient == other.ambient
            and self.pivots == other.pivots
            and list(self.basis) == list(other.basis)
        )

    def __hash__(self):
        # cheap structural hash; equality does the fine screening
        return hash((self.ambient, self.pivots))

    def __le__(self, other):
        return self.is_subspace_of(other)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"

    def reduce_vector(self, vec):
        """Remainder of a row vector after reduction by this basis."""
        vec = {j: v for j, v in vec.items() if v}
        row_of = self._row_of
        if row_of is None:
            row_of = self._row_of = dict(zip(self.pivots, self.basis))
        # the basis is fully reduced: only the pivots vec holds now need clearing
        for p in sorted(row_of.keys() & vec.keys()):
            _row_axpy(vec, -vec.pop(p), row_of[p], skip=p)
        return vec

    def contains_vector(self, vec):
        return not self.reduce_vector(vec)

    def is_subspace_of(self, other):
        assert self.ambient == other.ambient
        if self.dim > other.dim:
            return False
        return all(other.contains_vector(row) for row in self.basis)

    def matrix(self):
        return Matrix(self.dim, self.ambient, [dict(r) for r in self.basis])


def echelonize(rows, ambient):
    """Reduced row echelon Subspace spanned by the given sparse rows: an
    ``Echelon`` fed once."""
    acc = Echelon(ambient)
    acc.feed(rows)
    return acc.subspace()


class Echelon:
    """The reduced row echelon form of the rows fed so far, batch by batch.

    Two invariants keep the cost with the nonzeros touched:

    * stored rows are fully reduced, so an incoming row is cleared, in one
      ascending pass, at exactly the pivot columns it holds on arrival;
    * the back-elimination of a new pivot column visits only the stored
      rows that hold it, in ascending pivot order.  ``holders`` maps each
      non-pivot column to the pivots of the rows that may hold it: a row
      is entered on every fill-in and never taken out on cancellation, so
      the index may name a row that no longer holds the column, or name it
      twice, but never misses one.

    Once the stored rows number ``ambient`` they span k^ambient, every
    later row lies in their span and the basis is the identity already,
    so no later row is read.
    """

    __slots__ = ("ambient", "row_of", "holders")

    def __init__(self, ambient):
        self.ambient = ambient
        self.row_of = {}  # pivot column -> its row, pivot entry an exact one
        self.holders = {}  # non-pivot column -> pivot columns of the rows that may hold it

    @property
    def rank(self):
        return len(self.row_of)

    def feed(self, rows):
        """Take the rows in order, stopping once the whole space is spanned."""
        row_of, holders = self.row_of, self.holders
        for raw in rows:
            if len(row_of) == self.ambient:
                break  # the whole space: every later row lies in it
            vec = {j: v for j, v in raw.items() if v}
            for p in sorted(row_of.keys() & vec.keys()):
                _row_axpy(vec, -vec.pop(p), row_of[p], skip=p)
            if not vec:
                continue
            col = min(vec)
            lead = vec.pop(col)
            one = lead**0
            if lead != one:
                inv = one / lead
                for j in vec:
                    vec[j] = vec[j] * inv
            for j in vec:
                holders.setdefault(j, []).append(col)
            vec[col] = one
            for p in sorted(holders.pop(col, ())):
                row = row_of[p]
                if col not in row:
                    continue
                # the columns the row lacks all fill in (products of nonzeros)
                fills = vec.keys() - row.keys()
                _row_axpy(row, -row.pop(col), vec, skip=col)
                for j in fills:
                    holders[j].append(p)
            row_of[col] = vec

    def subspace(self):
        """The span so far.  It shares the stored rows, which a later batch
        may change, so take it after the last batch."""
        pivots = tuple(sorted(self.row_of))
        return Subspace(self.ambient, tuple(self.row_of[p] for p in pivots), pivots)


def rank(rows):
    """Dimension of the span of the given sparse rows: the number of its
    ``pivot_columns``."""
    return len(pivot_columns(rows))


def pivot_columns(rows):
    """Pivot columns of the span of the given sparse rows, increasing.

    A column is a pivot when some vector of the span starts there, so the
    set is that of any echelon form of the span, the reduced one included.
    Forward elimination over Z[p], fraction-free.  Scaling a row by a
    nonzero element of Q(p) leaves the dimension alone, so an incoming row
    is taken into Z[p] by the lcm of its denominators (``zp_row``) and no
    step divides: a row holding f at the pivot of stored row k becomes
    (lead_k/g) vec - (f/g) row_k, g = gcd(lead_k, f), which clears that
    pivot and keeps the multipliers as small as they can be
    (``zp_cofactors``, ``zp_combine``).  A row is made primitive once,
    when it is stored (``zp_primitive``), which holds down the growth of
    its entries.

    ``stored[k]`` is the k-th independent row without its pivot entry
    ``leads[k]``; it is zero at the pivots of rows 0..k-1.  The rows an
    incoming row is reduced by are popped from a heap of insertion
    indices: a fill-in from row k can only be a pivot of a later row, so
    each row is met once, in order.  A column that cancels and fills in
    again is pushed twice; the second pop finds it absent and skips it.
    """
    stored = []  # insertion index -> primitive Z[p] row without its pivot entry
    leads = []  # insertion index -> pivot entry of that row
    pivots = []  # insertion index -> pivot column
    index_of = {}  # pivot column -> insertion index
    for raw in rows:
        vec = zp_row(raw)
        heap = [index_of[j] for j in vec.keys() & index_of.keys()]
        heapq.heapify(heap)
        while heap:
            k = heapq.heappop(heap)
            f = vec.pop(pivots[k], None)
            if f is None:
                continue
            row = stored[k]
            for j in row.keys() - vec.keys():
                later = index_of.get(j)
                if later is not None:
                    heapq.heappush(heap, later)
            a, b = zp_cofactors(leads[k], f)
            zp_combine(vec, a, b, row)
        if not vec:
            continue
        col = min(vec)
        vec = zp_primitive(vec)
        index_of[col] = len(stored)
        leads.append(vec.pop(col))
        pivots.append(col)
        stored.append(vec)
    return tuple(sorted(pivots))


def subspace_sum(u, w):
    assert u.ambient == w.ambient
    if u.dim == 0:
        return w
    if w.dim == 0:
        return u
    return echelonize(list(u.basis) + list(w.basis), u.ambient)


def subspace_intersect(u, w):
    """U & W: the meet half of ``sum_and_intersection``, no sum built."""
    small, _, tagged = _reduce_by_larger(u, w)
    if tagged is None:
        return small
    return _split_tagged(tagged, u.ambient)[0]


def sum_and_intersection(u, w):
    """(U + W, U & W) from the smaller space's remainders modulo the larger.

    When the smaller space lies in the larger, the operands themselves
    come back, the larger as the sum and the smaller as the meet; any
    other pair gets two new Subspaces.
    """
    small, big, tagged = _reduce_by_larger(u, w)
    if tagged is None:
        return big, small
    meet, left = _split_tagged(tagged, u.ambient)
    return echelonize(list(big.basis) + left, u.ambient), meet


def _reduce_by_larger(u, w):
    """(small, big, tagged) with dim small <= dim big, u first on a tie.

    ``tagged`` is None when every basis row of small reduces to zero
    modulo big; otherwise it is the echelon form of the rows [r_i | u_i]
    in 2m columns, r_i the remainder of the basis row u_i.
    """
    assert u.ambient == w.ambient
    small, big = (u, w) if u.dim <= w.dim else (w, u)
    remainders = [big.reduce_vector(row) for row in small.basis]
    if not any(remainders):
        return small, big, None
    m = u.ambient
    for rem, row in zip(remainders, small.basis):
        for j, v in row.items():
            rem[j + m] = v
    return small, big, echelonize(remainders, 2 * m)


def _split_tagged(tagged, m):
    """Split a tagged echelon form into U & W and the left parts for U + W."""
    meet_rows, meet_pivots, left = [], [], []
    for p, row in zip(tagged.pivots, tagged.basis):
        if p >= m:
            meet_rows.append({j - m: v for j, v in row.items()})
            meet_pivots.append(p - m)
        else:
            left.append({j: v for j, v in row.items() if j < m})
    return Subspace(m, tuple(meet_rows), tuple(meet_pivots)), left


def kernel(mat):
    """Right kernel {x : M x = 0} as a Subspace of k^cols."""
    ech = echelonize(mat.data, mat.cols)
    pivot_set = set(ech.pivots)
    free_cols = [j for j in range(mat.cols) if j not in pivot_set]
    sample = next((v for r in ech.basis for v in r.values()), None)
    one = ONE if sample is None else sample**0
    rows = []
    for f in free_cols:
        vec = {f: one}
        for p, row in zip(ech.pivots, ech.basis):
            v = row.get(f)
            if v is not None:
                vec[p] = -v
        rows.append(vec)
    return echelonize(rows, mat.cols)


def commutant_equations(gens, dim):
    """Rows of the linear system X G - G X = 0, X vectorized row-major.

    One row per generator G and entry (i, j), with columns indexing the
    dim*dim entries of X; zero rows are left out.
    """
    eq_rows = []
    for g in gens:
        assert g.rows == dim and g.cols == dim
        gt = g.transpose()
        for i in range(dim):
            # row i of -G, negated once for all dim equations that use it
            neg_row = [(a, v, -v) for a, v in g.data[i].items()]
            for j in range(dim):
                row = {}
                # (XG)_ij term: X_ib G_bj  -> coefficient at column i*dim+b
                for b, v in gt.data[j].items():
                    row[i * dim + b] = v
                # (GX)_ij term: -G_ia X_aj -> coefficient at column a*dim+j
                for a, v, nv in neg_row:
                    key = a * dim + j
                    cur = row.get(key)
                    s = nv if cur is None else cur - v
                    if s:
                        row[key] = s
                    elif cur is not None:
                        del row[key]
                if row:
                    eq_rows.append(row)
    return eq_rows


def commutant(gens, dim):
    """Matrices commuting with every generator, vectorized row-major.

    Returns the solution space of X G = G X for all G as a Subspace of
    k^(dim*dim); the commutant algebra dimension is its dim, which
    ``dim**2 - rank(commutant_equations(gens, dim))`` gives without a basis.
    """
    eq_rows = commutant_equations(gens, dim)
    return kernel(Matrix(len(eq_rows), dim * dim, eq_rows))


def lift_to_position(mat, i, n, d):
    """Embed an operator on V(x)V as position (i, i+1) of V^(x)n.

    Basis of V^(x)n is lexicographic in the multi-index, first factor most
    significant.  1 <= i <= n-1.
    """
    assert mat.rows == d * d and mat.cols == d * d
    assert 1 <= i <= n - 1
    pre = d ** (i - 1)
    suf = d ** (n - i - 1)
    size = d**n
    data = [dict() for _ in range(size)]
    for rc in range(d * d):
        row_entries = mat.data[rc]
        if not row_entries:
            continue
        for a in range(pre):
            base_r = (a * d * d + rc) * suf
            for cc, v in row_entries.items():
                base_c = (a * d * d + cc) * suf
                for s in range(suf):
                    data[base_r + s][base_c + s] = v
    return Matrix(size, size, data)


def lift_rows(basis_rows, i, n, d):
    """Rows spanning V^(i-1) (x) U (x) V^(n-i-1) for U spanned on V(x)V."""
    pre = d ** (i - 1)
    suf = d ** (n - i - 1)
    out = []
    for a in range(pre):
        for s in range(suf):
            for row in basis_rows:
                out.append({(a * d * d + j) * suf + s: v for j, v in row.items()})
    return out


# ---------------------------------------------------------------------------
# specialization at a rational point, for HeckeOperator.specialize (the
# ``--specialize`` option); the lattice and dimension checks stay symbolic


def specialize_scalar(value, x):
    if isinstance(value, Scalar):
        return value.evaluate(x)
    return Fraction(value)


def specialize_rows(rows, x):
    return [{j: specialize_scalar(v, x) for j, v in r.items()} for r in rows]


def specialize_matrix(mat, x):
    return Matrix(mat.rows, mat.cols, specialize_rows(mat.data, x))
