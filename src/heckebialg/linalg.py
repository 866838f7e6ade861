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
identity, so no later row can change the result.

A dimension needs no basis, and ``rank`` returns only that: it is forward
elimination, with no back-elimination and no basis built.  Its invariant
is weaker than the echelon form's: the stored row k is zero at the pivots
of rows 0..k-1 (it may hold later pivots).  So reducing an incoming row by
row k can only fill in pivots of later rows, and the row is cleared by the
stored rows whose pivots it holds, in insertion order, through a heap of
insertion indices.  In dense rational-function rows most of the cost of
``echelonize`` is back-elimination, which is why the dimension-only routes
(``graded_dimension``, ``centralizer_dimension``, the last intersection of
``dual_graded_dimension``) take a rank.  The elimination can resume:
``copy_state`` copies a state under increasing column maps with disjoint
images, which keeps the invariant with no elimination, so a rank that
grows degree by degree takes in only the rows each degree adds.  Those
rows are copies of a small state's rows, and ``eliminate_copies``
eliminates them into the grown state as they are stored, in Z[p] and
primitive, so the raw rows the small state was made from are eliminated
once.  The same
elimination gives ``pivot_columns``, the columns at which vectors of the
span start, which are the pivots of the reduced echelon form too; the
unit vectors off them complete a span to the whole space, so the
distributing basis takes its complements from them without an echelon
form.

``rank`` is also fraction-free, in the style of Bareiss (1968).  A row
scaled by a nonzero element of Q(p) spans the same line, so rows are
taken into Z[p] and combined by polynomial multipliers only; the count is
exact without a single reduced fraction, which spares the gcd that every
Scalar sum and product pays.  The multipliers are gcd cofactors and each
stored row is made primitive, which holds the entries small.  Each entry
is held as one int, the polynomial's value at p = 2^k (Kronecker
substitution; Harvey, J. Symbolic Comput. 44, 2009), so combining two
rows costs one product and one difference of ints per entry and the
inner loop runs in the interpreter's integer code.  The shift k grows
with the coefficients: the elimination bounds them, and re-encodes its
rows at a wider shift before a bound could pass 2^(k-1).

``row_space`` builds a canonical basis the same way: from the forward
elimination of ``rank``, one back-substitution over Z[p] on a copy of its
rows, so the state stays fit to resume from, and one division per entry
at the end.  The reduced echelon form is unique and Scalars are
canonical, so it returns exactly what ``echelonize`` does.  It serves the
one-shot images of operator matrices, the relation spaces of S, Lambda
and E, and the commutant equations whose kernel ``kernel_rows`` reads
off that form for the double centralizer; their dense rows make the
Scalar back-elimination cost a gcd per operation.  ``echelonize`` (the
intersections and ``Matrix.inverse``) stays in reduced Scalars: it is
fed many small, sparse systems, where a fraction-free accumulator
measured slower (on 2 cores the lattice closure of S(dj:2) at n = 6 took
19.7 s against 12.4 s).

A full-rank test needs no exact elimination when it passes at one point.
Sending p to ``POINT`` and reducing mod the prime ``MODULUS`` = 2^61 - 1
is a ring homomorphism from the elements of Q(p) with no pole there onto
Z/MODULUS, and it sends every minor of a matrix to the same minor of the
matrix's image.  So a minor that is nonzero at the point is nonzero over
Q(p): the rank at the point is at most the exact rank, and full column
rank at the point is full column rank.  ``pivots_at_point`` is that
elimination, in ints mod ``MODULUS`` with the invariants of
``echelonize``; it reads rows lazily, stops at a given rank and
answers None (inconclusive) at a pole.  A rank short of full at the point
proves nothing, since the rank may drop exactly there, so its callers (the
double centralizer in ``schur``, the distributing basis in ``qalg``) then
fall back to their exact eliminations: no verdict rests on the point
being generic.  ``POINT`` is a constant, so every run gives the same
reports.
"""

import heapq
from fractions import Fraction
from itertools import chain

from .exactnum import _PONE, ONE, ZERO, Scalar, zp_cofactors, zp_primitive, zp_row

__all__ = [
    "Matrix",
    "Subspace",
    "echelonize",
    "rank",
    "pivot_columns",
    "Elimination",
    "forward_eliminate",
    "copy_state",
    "eliminate_copies",
    "row_space",
    "subspace_sum",
    "subspace_intersect",
    "sum_and_intersection",
    "MODULUS",
    "POINT",
    "rows_at_point",
    "pivots_at_point",
    "kernel_rows",
    "commutant_equations",
    "commutant",
    "lift_to_position",
    "lift_rows",
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
            return Matrix(self.rows, self.cols)
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


def echelonize(rows, ambient):
    """Reduced row echelon Subspace spanned by the given sparse rows, each
    pivot entry an exact one.

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
    so no later row is read, and a lazy stream of rows is not advanced.
    """
    row_of = {}  # pivot column -> its row
    holders = {}  # non-pivot column -> pivot columns of the rows that may hold it
    if not ambient:
        return Subspace(0, (), ())  # the zero space: no row can add to it
    for raw in rows:
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
        if len(row_of) == ambient:
            break  # the whole space: every later row lies in it
    pivots = tuple(sorted(row_of))
    return Subspace(ambient, tuple(row_of[p] for p in pivots), pivots)


def rank(rows):
    """Dimension of the span of the given sparse rows: the number of its
    ``pivot_columns``."""
    return len(forward_eliminate(rows).pivots)


def pivot_columns(rows):
    """Pivot columns of the span of the given sparse rows, increasing.

    A column is a pivot when some vector of the span starts there, so the
    set is that of any echelon form of the span, the reduced one included.
    """
    return tuple(sorted(forward_eliminate(rows).pivots))


# Full rank at one point.  p -> POINT, mod the prime MODULUS, is a ring
# homomorphism from the Scalars without a pole there onto Z/MODULUS, and it
# sends every minor of a matrix to the same minor of the matrix's image.

MODULUS = (1 << 61) - 1  # a Mersenne prime
POINT = 0x5DEECE66D  # far from the small integers where q-integers vanish


def _horner(poly, x):
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % MODULUS
    return acc


def _value_at_point(v):
    """An int, Fraction or Scalar at p = POINT mod MODULUS; -1 at a pole."""
    if isinstance(v, Scalar):
        num, den = _horner(v.num, POINT), _horner(v.den, POINT)
    else:
        v = Fraction(v)
        num, den = v.numerator % MODULUS, v.denominator % MODULUS
    if not den:
        return -1
    return num * pow(den, -1, MODULUS) % MODULUS


def _row_at_point(raw, cache):
    """A row at the point, zeros dropped, or None at a pole; ``cache``
    keeps each non-int entry's value for the rows after it."""
    vec = {}
    for j, v in raw.items():
        if type(v) is int:
            v %= MODULUS
        else:
            x = cache.get(v)
            if x is None:
                x = cache[v] = _value_at_point(v)
            if x < 0:
                return None
            v = x
        if v:
            vec[j] = v
    return vec


def rows_at_point(rows):
    """The rows at p = ``POINT`` mod ``MODULUS``, as rows of ints, or None
    when an entry has a pole there."""
    cache, out = {}, []
    for raw in rows:
        vec = _row_at_point(raw, cache)
        if vec is None:
            return None
        out.append(vec)
    return out


def pivots_at_point(rows, stop=None):
    """Pivot columns of the rows at p = ``POINT`` mod ``MODULUS``,
    increasing, or None (inconclusive) when a row read has an entry with a
    pole there.  Stops reading rows once it holds ``stop`` pivots.

    The rows read, restricted to the columns returned, have a nonzero
    maximal minor at the point, so that minor is nonzero over Q(p): the
    exact rank is at least the number returned, and full column rank at
    the point is full column rank.  A smaller count proves nothing; the
    rank may drop exactly at the point.

    The loop is ``echelonize``'s over ints mod ``MODULUS``, with
    both its invariants (stored rows fully reduced, the ``holders``
    index), so a row that reduces to zero costs only the pivots it holds
    on arrival.  Each pivot entry is 1 and left out of its stored row.
    The rows are read lazily, one at a time, and may hold ints (taken as
    constants) as well as Scalars and Fractions.
    """
    if stop == 0:
        return ()
    cache = {}
    row_of = {}  # pivot column -> its row, the pivot entry left out
    holders = {}  # non-pivot column -> pivot columns of the rows that may hold it
    for raw in rows:
        vec = _row_at_point(raw, cache)
        if vec is None:
            return None
        for p in row_of.keys() & vec.keys():
            # a stored row holds no other pivot, so the set stays exact
            f = vec.pop(p)
            get = vec.get
            for j, v in row_of[p].items():
                s = (get(j, 0) - f * v) % MODULUS
                if s:
                    vec[j] = s
                else:
                    del vec[j]
        if not vec:
            continue
        col = min(vec)
        lead = vec.pop(col)
        if lead != 1:
            inv = pow(lead, -1, MODULUS)
            for j in vec:
                vec[j] = vec[j] * inv % MODULUS
        for j in vec:
            holders.setdefault(j, []).append(col)
        for p in holders.pop(col, ()):
            row = row_of[p]
            f = row.pop(col, None)
            if f is None:
                continue
            get = row.get
            for j, v in vec.items():
                cur = get(j)
                if cur is None:
                    row[j] = -f * v % MODULUS
                    holders[j].append(p)
                else:
                    s = (cur - f * v) % MODULUS
                    if s:
                        row[j] = s
                    else:
                        del row[j]
        row_of[col] = vec
        if len(row_of) == stop:
            break
    return tuple(sorted(row_of))


# Packed Z[p] entries.  A polynomial with coefficients below 2^(k-1) in
# absolute value is held as its value at p = 2^k, one int (Kronecker
# substitution), so a product or sum of entries is one operation on ints.
# The value is exact while the coefficients stay in that range: then the
# balanced base-2^k digits of the int are the coefficients, and the int is
# zero only for the zero polynomial.

_MIN_SHIFT = 16  # the smallest shift a state starts with
_SLACK = 16  # the bits of headroom a shift is chosen with


def _pack(poly, k):
    """The value of a Z[p] tuple at p = 2^k."""
    x = poly[-1]
    for c in poly[-2::-1]:
        x = (x << k) + c
    return x


def _unpack(x, k):
    """The Z[p] tuple packed at the shift k as x: its balanced base-2^k
    digits, each taken off the bottom in turn."""
    half = 1 << (k - 1)
    if -half < x < half:
        return (x,) if x else ()
    mask, full = (1 << k) - 1, 1 << k
    out = []
    while x:
        c = x & mask
        if c >= half:
            c -= full
        out.append(c)
        x = (x - c) >> k
    return tuple(out)


def _pack_row(row, k):
    """A row of Z[p] tuples packed at the shift k; constants pack as themselves."""
    return {j: v[0] if len(v) == 1 else _pack(v, k) for j, v in row.items()}


def _unpack_row(row, k):
    """A row packed at the shift k as Z[p] tuples."""
    half = 1 << (k - 1)
    return {j: (v,) if -half < v < half else _unpack(v, k) for j, v in row.items()}


def _height(polys):
    """The largest absolute value of a coefficient of the polynomials."""
    return max(map(abs, chain.from_iterable(polys)), default=0)


def _norm(poly):
    """The sum of the absolute values of the coefficients."""
    return sum(map(abs, poly))


class Elimination:
    """The state of ``forward_eliminate``; the rank is ``len(pivots)``.

    Lists are indexed by insertion.  ``stored[k]`` is the k-th independent
    row without its pivot entry ``leads[k]``, a Z[p] tuple; its entries are
    packed at the state's ``shift`` and ``heights[k]`` bounds the absolute
    values of their coefficients.  ``index_of`` maps each pivot column to
    its insertion index.
    """

    __slots__ = ("stored", "leads", "pivots", "index_of", "heights", "shift")

    def __init__(self, stored, leads, pivots, heights, shift):
        self.stored = stored
        self.leads = leads
        self.pivots = pivots
        self.index_of = {p: k for k, p in enumerate(pivots)}
        self.heights = heights
        self.shift = shift

    def __eq__(self, other):
        if not isinstance(other, Elimination):
            return NotImplemented
        return all(getattr(self, s) == getattr(other, s) for s in self.__slots__)

    __hash__ = None


def _widen(state, bound, vec):
    """Re-encode the state's rows and ``vec`` at a shift that holds
    coefficients up to ``bound``, at least half as wide again."""
    k = state.shift
    wide = max(bound.bit_length() + _SLACK, k + k // 2)
    for row in state.stored + [vec]:
        for j, v in row.items():
            row[j] = _pack(_unpack(v, k), wide)
    state.shift = wide


def _clear(state, vec, height, i, f):
    """Clear the pivot of stored row i from the packed row ``vec``, which
    held ``f`` there (already popped) and has coefficients at most
    ``height``: vec <- a vec - b row_i, (a, b) = ``zp_cofactors``(lead_i,
    f), in place.  Returns the height bound of the result,
    |a|_1 height + |b|_1 height_i, widening the state's shift first when
    that bound would not fit in it.
    """
    k = state.shift
    lead, below = state.leads[i], state.heights[i]
    if lead == _PONE:
        # a = 1 and b = f: f needs no decoding, and its norm is at most its
        # height (that of vec) times its number of coefficients
        a = b = None
        bound = height + height * (abs(f).bit_length() // k + 1) * below
    else:
        a, b = zp_cofactors(lead, _unpack(f, k))
        bound = _norm(a) * height + _norm(b) * below
    if bound >> (k - 1):
        # the bounds of a stored row that kept its unit entry may be loose
        height = _height(_unpack_row(vec, k).values())
        below = state.heights[i] = _height(_unpack_row(state.stored[i], k).values())
        if b is None:
            a, b = _PONE, _unpack(f, k)
        bound = _norm(a) * height + _norm(b) * below
        if bound >> (k - 1):
            _widen(state, bound, vec)
            k = state.shift
    if b is not None:
        f = b[0] if len(b) == 1 else _pack(b, k)
        if a != _PONE:
            scale = a[0] if len(a) == 1 else _pack(a, k)
            for j, v in vec.items():
                vec[j] = v * scale
    get = vec.get
    for j, v in state.stored[i].items():  # fetched after any re-encoding
        s = get(j, 0) - f * v
        if s:
            vec[j] = s
        else:
            del vec[j]
    return bound


def _primitive(state, vec, height):
    """A nonzero packed row, coefficients at most ``height``, made
    primitive: (its pivot column, its lead as a Z[p] tuple, the rest packed,
    a bound on the rest's coefficients).

    An entry 1 or -1 leaves no content and no common factor, so such a row
    only takes the sign that makes its lead's leading coefficient positive,
    the sign of the packed lead, and keeps its bound.  Any other row is
    decoded for ``_primitive_poly``.
    """
    if 1 in vec.values() or -1 in vec.values():
        col = min(vec)
        if vec[col] < 0:
            vec = {j: -v for j, v in vec.items()}
        return col, _unpack(vec.pop(col), state.shift), vec, height
    return _primitive_poly(state, _unpack_row(vec, state.shift))


def _primitive_poly(state, poly):
    """A nonzero row of Z[p] tuples made primitive (``zp_primitive``), as
    ``_primitive`` gives it, widening the state's shift if the rest needs it."""
    poly = zp_primitive(poly)
    col = min(poly)
    lead = poly.pop(col)
    height = _height(poly.values())
    if height >> (state.shift - 1):
        _widen(state, height, {})
    return col, lead, _pack_row(poly, state.shift), height


def forward_eliminate(rows):
    """Forward elimination over Z[p], fraction-free, as an ``Elimination``.

    Scaling a row by a nonzero element of Q(p) leaves its span alone, so
    an incoming row is taken into Z[p] by the lcm of its denominators
    (``zp_row``) and no step divides: a row holding f at the pivot of
    stored row k becomes (lead_k/g) vec - (f/g) row_k, g = gcd(lead_k, f),
    which clears that pivot and keeps the multipliers as small as they can
    be (``zp_cofactors``).  A row is made primitive once, when it is
    stored (``zp_primitive``), which holds down the growth of its entries.

    Entries are packed (``_pack``), so a step costs one product and one
    difference of ints per entry.  A row under reduction carries a bound
    on its coefficients, which each step multiplies out; when the bound
    would pass the shift, it is first recomputed from the row itself and
    only if that does not fit either are the state's rows and the row
    re-encoded at a wider shift.  Only the pivot entry is decoded at each
    step, and a new row at most once, to be made primitive.

    The stored row k is zero at the pivots of rows 0..k-1.  The rows an
    incoming row is reduced by are popped from a heap of insertion
    indices: a fill-in from row k can only be a pivot of a later row, so
    each row is met once, in order.  A column that cancels and fills in
    again is pushed twice; the second pop finds it absent and skips it.
    """
    return _eliminate(Elimination([], [], [], [], _MIN_SHIFT), map(zp_row, rows))


def _eliminate(state, rows):
    """The loop of ``forward_eliminate`` and ``eliminate_copies``: the Z[p]
    rows (fresh dicts of tuples) eliminated into ``state``, which grows in
    place, so resume only from a state that nothing else keeps."""
    stored, pivots, index_of = state.stored, state.pivots, state.index_of
    for vec in rows:
        heap = [index_of[j] for j in vec.keys() & index_of.keys()]
        if not heap:
            made = vec and _primitive_poly(state, vec)
        else:
            height = _height(vec.values())
            if height >> (state.shift - 1):
                _widen(state, height, {})
            vec = _pack_row(vec, state.shift)
            heapq.heapify(heap)
            while heap:
                i = heapq.heappop(heap)
                f = vec.pop(pivots[i], None)
                if f is None:
                    continue
                for j in stored[i].keys() - vec.keys():
                    later = index_of.get(j)
                    if later is not None:
                        heapq.heappush(heap, later)
                height = _clear(state, vec, height, i, f)
            made = vec and _primitive(state, vec, height)
        if made:
            col, lead, row, height = made
            index_of[col] = len(stored)
            stored.append(row)
            state.leads.append(lead)
            pivots.append(col)
            state.heights.append(height)
    return state


def copy_state(state, spread, offsets):
    """An ``Elimination`` of copies of a state's rows, one copy per offset:
    the copy for offset o sends column c to spread(c) + o.

    Each such map must be increasing and the maps' images disjoint.  A
    copied row then starts at its copied pivot and holds, of the copied
    pivots, only those of the later rows of its own copy, so the copies,
    one after another and each in its insertion order, keep the invariant
    of ``forward_eliminate`` with no elimination, and the rank is the
    state's rank times the number of copies.  The copies keep the state's
    shift and heights; ``state`` is left as it is.
    """
    spread_rows = [{spread(c): v for c, v in row.items()} for row in state.stored]
    spread_pivots = [spread(c) for c in state.pivots]
    stored, leads, pivots, heights = [], [], [], []
    for o in offsets:
        stored.extend({c + o: v for c, v in row.items()} for row in spread_rows)
        leads.extend(state.leads)
        pivots.extend(p + o for p in spread_pivots)
        heights.extend(state.heights)
    return Elimination(stored, leads, pivots, heights, state.shift)


def eliminate_copies(state, spread, offsets, start):
    """``start`` grown in place by the copies of a state's rows, the copy
    for offset o sending column c to spread(c) + o, as ``copy_state``
    makes them; ``state`` is left as it is.

    Unlike ``copy_state`` this eliminates: the copies meet the rows of
    ``start``, so each is taken back to Z[p] (its lead put back at its
    pivot) and reduced like a row of ``forward_eliminate``.  A copy holds
    the stored row's entries, already in Z[p] and primitive, so it needs
    no common denominator and none of the growth of the raw rows that made
    the state.
    """
    k = state.shift
    rows = []
    for row, lead, p in zip(state.stored, state.leads, state.pivots):
        row = {spread(c): v for c, v in _unpack_row(row, k).items()}
        row[spread(p)] = lead
        rows.append(row)
    return _eliminate(start, ({c + o: v for c, v in row.items()} for o in offsets for row in rows))


def row_space(state, ambient):
    """Reduced row echelon Subspace spanned by the rows a
    ``forward_eliminate`` state was made from, the same as ``echelonize``'s
    of those rows, built fraction-free; ``state`` is left as it is.

    The stored row k holds only pivots of rows inserted after it.
    Back-substitution runs on a copy of the packed rows in reverse
    insertion order, so those rows are fully reduced when row k is
    reached and clearing them from it brings in no other pivot.  A touched
    row is made primitive once; then each entry is decoded and divided by
    the row's lead once, so pivot entries are ``ONE`` and every entry is a
    canonical Scalar.
    """
    state = copy_state(state, lambda c: c, (0,))
    stored, leads, pivots, index_of = state.stored, state.leads, state.pivots, state.index_of
    for k in reversed(range(len(stored))):
        held = stored[k].keys() & index_of.keys()
        if not held:
            continue
        # out of the list while it is reduced, so a re-encoding meets it once
        vec, stored[k] = stored[k], {}
        height = max(state.heights[k], _height([leads[k]]))
        if height >> (state.shift - 1):
            _widen(state, height, vec)
        vec[pivots[k]] = _pack(leads[k], state.shift)
        for col in held:
            height = _clear(state, vec, height, index_of[col], vec.pop(col))
        _, leads[k], stored[k], state.heights[k] = _primitive(state, vec, height)
    k = state.shift
    basis = []
    for i in sorted(range(len(stored)), key=pivots.__getitem__):
        lead = leads[i]
        row = {j: Scalar._reduced(_unpack(v, k), lead) for j, v in stored[i].items()}
        row[pivots[i]] = ONE
        basis.append(row)
    return Subspace(ambient, tuple(basis), tuple(sorted(pivots)))


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


def kernel_rows(ech):
    """A basis of the right kernel {x : M x = 0} of a matrix M, read off
    the reduced echelon form ``ech`` of its rows (``echelonize`` or
    ``row_space``) in one pass, with no elimination.  The basis is not
    reduced: one vector per free column f, 1 at f and minus the echelon
    rows' entries in column f at their pivots."""
    sample = next((v for r in ech.basis for v in r.values()), None)
    one = ONE if sample is None else sample**0
    pivot_set = set(ech.pivots)
    vecs = {f: {f: one} for f in range(ech.ambient) if f not in pivot_set}
    for p, row in zip(ech.pivots, ech.basis):
        for f, v in row.items():
            if f != p:  # a reduced row holds no other pivot
                vecs[f][p] = -v
    return list(vecs.values())


def commutant_equations(gens, dim):
    """Rows of the linear system X G - G X = 0, X vectorized row-major.

    One row per generator G and entry (i, j), with columns indexing the
    dim*dim entries of X; zero rows are left out.
    """
    eq_rows = []
    for g in gens:
        assert g.rows == dim and g.cols == dim
        gt = g.transpose()
        held = [j for j in range(dim) if gt.data[j]]
        for i in range(dim):
            # row i of -G, negated once for all dim equations that use it
            neg_row = [(a, v, -v) for a, v in g.data[i].items()]
            # an empty row i leaves only the (XG)_ij terms, of G's nonzero columns j
            for j in range(dim) if neg_row else held:
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
    n = dim * dim
    return echelonize(kernel_rows(echelonize(commutant_equations(gens, dim), n)), n)


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


def specialize_rows(rows, x):
    """The rows at p = x, as Fractions."""
    return [
        {j: v.evaluate(x) if isinstance(v, Scalar) else Fraction(v) for j, v in r.items()}
        for r in rows
    ]


def specialize_matrix(mat, x):
    return Matrix(mat.rows, mat.cols, specialize_rows(mat.data, x))
