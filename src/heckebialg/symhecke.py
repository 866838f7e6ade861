"""Symmetric groups and Iwahori-Hecke algebras of type A.

Permutations are one-line tuples of 1-based values: w = (w(1), ..., w(n)).
Composition is left to right, (w * v)(i) = v(w(i)), matching the row-vector
action convention used everywhere else in the package.  The adjacent
transposition v_i swaps the values i and i+1.

The Hecke algebra H_n over Q(p) (q = p^2) has basis {T_w}, T_id = 1, with
T_w T_v = T_{wv} when lengths add and T_{v_i}^2 = q + (q-1) T_{v_i}.  The
q-symmetrizer and q-antisymmetrizer are built here; their defining
eigenvalue identities T_w x_n = q^l(w) x_n and T_w y_n = (-1)^l(w) y_n are
pinned by tests.
"""

from itertools import permutations as _itperms

from .exactnum import ONE, Q, Scalar, ZERO, q_int

__all__ = [
    "identity_perm",
    "adjacent_transposition",
    "compose",
    "inverse",
    "length",
    "reduced_word",
    "perm_from_word",
    "all_permutations",
    "cycle_type",
    "long_cycle",
    "HeckeElement",
    "hecke_unit",
    "hecke_generator",
    "hecke_multiply",
    "symmetrizer",
    "antisymmetrizer",
]


def identity_perm(n):
    return tuple(range(1, n + 1))


def adjacent_transposition(i, n):
    """v_i in S_n, swapping i and i+1 (1 <= i <= n-1)."""
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def compose(w, v):
    """(w * v)(i) = v(w(i)): apply w first, then v."""
    return tuple(v[w[i] - 1] for i in range(len(w)))


def inverse(w):
    out = [0] * len(w)
    for i, x in enumerate(w):
        out[x - 1] = i + 1
    return tuple(out)


def length(w):
    """Coxeter length = inversion count."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def reduced_word(w):
    """The lexicographically smallest reduced word for w.

    Greedy: always strip the smallest available first letter.  Writing
    w = v_i * w' (v_i applied first) shortens w exactly when position i is
    a descent, and w' is v_i * w as a position swap.
    """
    w = list(w)
    word = []
    while True:
        i = next((k for k in range(len(w) - 1) if w[k] > w[k + 1]), None)
        if i is None:
            return tuple(word)
        word.append(i + 1)
        w[i], w[i + 1] = w[i + 1], w[i]


def perm_from_word(word, n):
    w = identity_perm(n)
    for i in word:
        w = compose(w, adjacent_transposition(i, n))
    return w


def all_permutations(n):
    return [tuple(p) for p in _itperms(range(1, n + 1))]


def cycle_type(w):
    """Cycle lengths, sorted decreasing: a partition of n."""
    n = len(w)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = w[j] - 1
            ln += 1
        parts.append(ln)
    parts.sort(reverse=True)
    return tuple(parts)


def long_cycle(k, n):
    """c_k = v_1 v_2 ... v_{k-1} embedded in S_n.

    One-line form (k, 1, 2, ..., k-1, k+1, ..., n): feeding i through the
    generator chain sends 1 up to k and shifts 2..k down by one.
    """
    assert 1 <= k <= n
    return (k,) + tuple(range(1, k)) + tuple(range(k + 1, n + 1))


class HeckeElement:
    """An element of H_n: a finite Scalar combination of basis words T_w."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {w: c for w, c in (terms or {}).items() if c}

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return f"HeckeElement(n={self.n}, 0)"
        parts = [f"({c})*T{w}" for w, c in sorted(self.terms.items())]
        return f"HeckeElement(n={self.n}, " + " + ".join(parts) + ")"

    def __add__(self, other):
        assert self.n == other.n
        terms = dict(self.terms)
        for w, c in other.terms.items():
            s = terms.get(w, ZERO) + c
            if s:
                terms[w] = s
            elif w in terms:
                del terms[w]
        return HeckeElement(self.n, terms)

    def __sub__(self, other):
        return self + other.scale(-ONE)

    def scale(self, c):
        c = c if isinstance(c, Scalar) else Scalar(c)
        if not c:
            return HeckeElement(self.n)
        return HeckeElement(self.n, {w: v * c for w, v in self.terms.items()})

    def coefficient(self, w):
        return self.terms.get(w, ZERO)


def hecke_unit(n):
    return HeckeElement(n, {identity_perm(n): ONE})


def hecke_generator(i, n):
    return HeckeElement(n, {adjacent_transposition(i, n): ONE})


def _mul_generator(elem, i, q):
    """Right multiplication by T_{v_i} via the quadratic rule."""
    n = elem.n
    out = {}
    qm1 = q - 1

    def bump(w, c):
        s = out.get(w)
        s = c if s is None else s + c
        if s:
            out[w] = s
        elif w in out:
            del out[w]

    for w, c in elem.terms.items():
        # w * v_i swaps the values i and i+1; length grows iff the value i
        # sits left of the value i+1 in w
        wi = list(w)
        pos_i = wi.index(i)
        pos_i1 = wi.index(i + 1)
        wi[pos_i], wi[pos_i1] = wi[pos_i1], wi[pos_i]
        wv = tuple(wi)
        if pos_i < pos_i1:
            bump(wv, c)
        else:
            bump(wv, c * q)
            bump(w, c * qm1)
    return HeckeElement(n, out)


def hecke_multiply(a, b, q=Q):
    """Product in H_n, expanding each basis word of b generator by generator."""
    assert a.n == b.n
    n = a.n
    out = HeckeElement(n)
    for w, c in b.terms.items():
        acc = a.scale(c)
        for i in reduced_word(w):
            acc = _mul_generator(acc, i, q)
        out = out + acc
    return out


def symmetrizer(n, q=Q):
    """The q-symmetrizer x_n, the idempotent with T_w x_n = q^l(w) x_n.

    Built by the staircase recursion
      [n]_q x_n = x_{n-1} (1 + T_{v_{n-1}} + T_{v_{n-1}}T_{v_{n-2}} + ...),
    each chain product T_{v_{n-1}} ... T_{v_{n-k}} being a reduced word.
    """
    x = hecke_unit(1)
    for m in range(2, n + 1):
        ext = HeckeElement(m, {w + (m,): c for w, c in x.terms.items()})
        stair = hecke_unit(m)
        w = identity_perm(m)
        for k in range(1, m):
            # chain v_{m-1} v_{m-2} ... v_{m-k}, earlier letters applied first
            w = compose(w, adjacent_transposition(m - k, m))
            stair = stair + HeckeElement(m, {w: ONE})
        x = hecke_multiply(ext, stair, q).scale(ONE / q_int(m, q))
    return x


def antisymmetrizer(n, q=Q):
    """The q-antisymmetrizer y_n with T_w y_n = (-1)^l(w) y_n.

    Normalizer sum_w q^(-l(w)) is forced by idempotency.
    """
    terms = {}
    norm = ZERO
    qinv = ONE / q
    for w in all_permutations(n):
        l = length(w)
        norm = norm + qinv**l
        terms[w] = (-1) ** l * qinv**l
    return HeckeElement(n, terms).scale(ONE / norm)
