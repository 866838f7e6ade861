"""Exact scalars for q-deformed linear algebra.

The ground field is Q(p), rational functions in one parameter ``p`` over the
rationals, with the deformation parameter entering as q = p^2 so that square
roots of q stay inside the field.  A :class:`Scalar` is a fully reduced
fraction of integer polynomials; all arithmetic is exact and canonical, so
``==`` is a decision procedure for equality in Q(p).

Polynomials are plain tuples of ints, coefficient of degree k at index k,
no trailing zeros, ``()`` for zero.  Keeping coefficients in Z (contents
carried along instead of cleared into Q) makes gcd reduction fraction-free
and fast.

Products and sums are memoised on the operands' ``(num, den)`` tuples.  The
operands are canonical, so one key always stands for one value, and a cache
hit returns exactly what the computation would: memoising changes no
result.  It pays because an elimination meets the same few coefficients
many times: after each of the 14 jobs of ``perfbench`` the sum, product
and gcd caches answer 28-100%, 49-100% and 45-94% of their calls (93%,
96% and 94% on ``report --builtin dj:3 -N 3``, least on the dense files).
The caches are bounded LRU caches, together with
the one on ``_pgcd``, all of one size ``_CACHE_SIZE``: a dense operator
file has little reuse, and unbounded caches there more than double the
peak memory of a run.

The ``zp_*`` helpers serve the fraction-free ``linalg.rank``.  They work on
polynomials in Z[p] in the same tuple format, and on rows of them,
{column: tuple} dicts, and never form a fraction: ``zp_row`` takes a row of
Scalars, Fractions or ints into Z[p] by the lcm of its denominators,
``zp_cofactors`` gives the multipliers that clear a pivot, and
``zp_primitive`` divides a row by the gcd of its entries.  ``linalg``
applies the multipliers itself, to rows whose entries it packs into one
int each (their values at p = 2^k), so a product of entries is one
product of ints.  A rank counts the same after a row is scaled by any
nonzero element of Q(p), which is why no result needs the canonical form
of a Scalar.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd as _igcd

__all__ = [
    "Scalar",
    "ZERO",
    "ONE",
    "P",
    "Q",
    "scalar",
    "q_int",
    "rf_eval_at_one",
    "PoleAtOneError",
    "parse_scalar",
]


# ---------------------------------------------------------------------------
# integer polynomial helpers (dense tuples, low degree first)


def _ptrim(c):
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return tuple(c[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return _ptrim(out)


def _pneg(a):
    return tuple(-x for x in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _ptrim(out)


def _pscale(a, k):
    if not k:
        return ()
    return tuple(x * k for x in a)


def _pcontent(a):
    g = 0
    for x in a:
        g = _igcd(g, x)
        if g == 1:
            return 1
    return g


def _pprim(a):
    """Split off the (positive) integer content.  Zero maps to (0, ())."""
    if not a:
        return 0, ()
    c = _pcontent(a)
    if c == 1:
        return 1, a
    return c, tuple(x // c for x in a)


def _pquo_exact(a, b):
    """Exact quotient a / b in Z[p]; b must divide a."""
    if not a:
        return ()
    db = len(b) - 1
    lb = b[-1]
    rem = list(a)
    out = [0] * (len(a) - db)
    for i in range(len(a) - 1 - db, -1, -1):
        top = rem[db + i]
        if top:
            c, r = divmod(top, lb)
            if r:
                raise ArithmeticError("inexact polynomial division")
            out[i] = c
            for j in range(db + 1):
                rem[i + j] -= c * b[j]
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return _ptrim(out)


def _pprem(a, b):
    """Pseudo-remainder of a by b (b nonzero)."""
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        return a
    lb = b[-1]
    r = list(a)
    for i in range(da - db, -1, -1):
        c = r[db + i]
        r = [lb * t for t in r]
        if c:
            for j in range(db + 1):
                r[i + j] -= c * b[j]
        del r[db + i:]
    return _ptrim(r)


# one bound for every memo in this module: the gcd, product and sum caches
# together must stay small next to the matrices of a dense elimination
_CACHE_SIZE = 1 << 12


@lru_cache(maxsize=_CACHE_SIZE)
def _pgcd(a, b):
    """Primitive gcd in Z[p], leading coefficient positive; gcd(0,0) = ()."""
    _, a = _pprim(a)
    _, b = _pprim(b)
    if not a:
        a, b = b, a
    if not b:
        if a and a[-1] < 0:
            a = _pneg(a)
        return a
    if len(a) < len(b):
        a, b = b, a
    # primitive PRS: strip content every round to stop coefficient growth
    while True:
        if len(b) == 1:
            return (1,)
        r = _pprem(a, b)
        if not r:
            if b[-1] < 0:
                b = _pneg(b)
            return b
        _, r = _pprim(r)
        a, b = b, r


def _peval(a, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


_PONE = (1,)


class PoleAtOneError(ArithmeticError):
    """Raised when a scalar is evaluated at p = 1 but has a pole there."""


class Scalar:
    """A rational function in p with exact, canonical arithmetic.

    Construct from ints, Fractions, or via the module constants ``P`` (the
    parameter) and ``Q`` (= P*P).  Instances are immutable; arithmetic
    returns new canonical instances, so ``==`` and ``hash`` are reliable.

    >>> f = (Q**3 - 1) / (Q - 1)
    >>> f == q_int(3)
    True
    >>> rf_eval_at_one(f)
    Fraction(3, 1)
    """

    __slots__ = ("num", "den")

    def __init__(self, value=0):
        if isinstance(value, Scalar):
            num, den = value.num, value.den
        elif isinstance(value, int):
            num = (value,) if value else ()
            den = _PONE
        elif isinstance(value, Fraction):
            n, d = value.numerator, value.denominator
            num = (n,) if n else ()
            den = (d,)
        else:
            raise TypeError(f"cannot make a Scalar from {type(value).__name__}")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- construction ------------------------------------------------------

    @staticmethod
    def _make(num, den):
        self = object.__new__(Scalar)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    @staticmethod
    def _reduced(num, den):
        num = _ptrim(num)
        den = _ptrim(den)
        if not den:
            raise ZeroDivisionError("scalar with zero denominator")
        if not num:
            return Scalar._make((), _PONE)
        if den == _PONE:
            return Scalar._make(num, _PONE)
        cn, pn = _pprim(num)
        cd, pd = _pprim(den)
        g = _pgcd(pn, pd)
        if len(g) > 1:
            pn = _pquo_exact(pn, g)
            pd = _pquo_exact(pd, g)
        c = _igcd(cn, cd)
        if c > 1:
            cn //= c
            cd //= c
        num = _pscale(pn, cn)
        den = _pscale(pd, cd)
        if den[-1] < 0:
            num = _pneg(num)
            den = _pneg(den)
        return Scalar._make(num, den)

    @staticmethod
    def _content_reduced(num, den):
        """Canonicalize a pair already coprime as polynomials."""
        if not num:
            return ZERO
        c = _igcd(_pcontent(num), _pcontent(den))
        if c > 1:
            num = tuple(x // c for x in num)
            den = tuple(x // c for x in den)
        if den[-1] < 0:
            num = _pneg(num)
            den = _pneg(den)
        return Scalar._make(num, den)

    # -- ring structure ----------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self == Scalar(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        return Scalar._make(_pneg(self.num), self.den)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        elif not isinstance(other, Scalar):
            return NotImplemented
        return _add_pair(self.num, self.den, other.num, other.den)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        elif not isinstance(other, Scalar):
            return NotImplemented
        return _add_pair(self.num, self.den, _pneg(other.num), other.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        elif not isinstance(other, Scalar):
            return NotImplemented
        if not self.num or not other.num:
            return ZERO
        return _mul_pair(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        elif not isinstance(other, Scalar):
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("scalar division by zero")
        inv = Scalar._make(other.den, other.num)
        return self * inv

    def __rtruediv__(self, other):
        if not self.num:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(other) * Scalar._make(self.den, self.num)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return ONE
        base = self
        if k < 0:
            if not self.num:
                raise ZeroDivisionError("0 ** negative")
            base = Scalar._make(self.den, self.num)
            if base.den[-1] < 0:
                base = Scalar._make(_pneg(base.num), _pneg(base.den))
            k = -k
        out = ONE
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- evaluation and display --------------------------------------------

    def evaluate(self, x):
        """Value at p = x as an exact Fraction; raises on a pole."""
        x = Fraction(x)
        d = _peval(self.den, x)
        if d == 0:
            raise ZeroDivisionError(f"pole at p = {x}")
        return Fraction(_peval(self.num, x)) / d

    def __str__(self):
        if self.den == _PONE:
            return _poly_str(self.num)
        num = _poly_str(self.num)
        den = _poly_str(self.den)
        if len(self.num) <= 1 and self.num and self.num[0] > 0:
            pass  # bare positive constant numerator reads fine unwrapped
        else:
            num = "(" + num + ")"
        return f"{num}/({den})"

    def __repr__(self):
        return f"Scalar[{self}]"


@lru_cache(maxsize=_CACHE_SIZE)
def _add_pair(n1, d1, n2, d2):
    """Sum of two canonical fractions, reduced via the denominator gcd."""
    if d1 == d2:
        t = _padd(n1, n2)
        if d1 == _PONE:
            return Scalar._make(t, _PONE) if t else ZERO
        return Scalar._reduced(t, d1)
    g = _pgcd(d1, d2)
    if len(g) == 1:
        # coprime denominators: only integer content can cancel
        t = _padd(_pmul(n1, d2), _pmul(n2, d1))
        return Scalar._content_reduced(t, _pmul(d1, d2))
    a1 = _pquo_exact(d1, g)
    a2 = _pquo_exact(d2, g)
    t = _padd(_pmul(n1, a2), _pmul(n2, a1))
    if not t:
        return ZERO
    g2 = _pgcd(t, g)
    if len(g2) > 1:
        t = _pquo_exact(t, g2)
        g = _pquo_exact(g, g2)
    return Scalar._content_reduced(t, _pmul(g, _pmul(a1, a2)))


@lru_cache(maxsize=_CACHE_SIZE)
def _mul_pair(n1, d1, n2, d2):
    """Product of two nonzero canonical fractions."""
    if d1 == _PONE and d2 == _PONE:
        return Scalar._make(_pmul(n1, n2), _PONE)
    # cross-reduce first; the product of the reduced pairs is then
    # already coprime as polynomials, so only contents remain
    g = _pgcd(n1, d2)
    if len(g) > 1:
        n1 = _pquo_exact(n1, g)
        d2 = _pquo_exact(d2, g)
    g = _pgcd(n2, d1)
    if len(g) > 1:
        n2 = _pquo_exact(n2, g)
        d1 = _pquo_exact(d1, g)
    return Scalar._content_reduced(_pmul(n1, n2), _pmul(d1, d2))


# ---------------------------------------------------------------------------
# rows over Z[p], for the fraction-free rank: {column: polynomial} dicts
# whose entries are nonzero polynomial tuples


def _plcm(a, b):
    """lcm of two nonzero polynomials with positive leading coefficients."""
    ca, pa = _pprim(a)
    cb, pb = _pprim(b)
    g = _pgcd(pa, pb)
    if len(g) > 1:
        pb = _pquo_exact(pb, g)
    return _pscale(_pmul(pa, pb), ca // _igcd(ca, cb) * cb)


def zp_row(row):
    """A row of Scalars, Fractions or ints as a Z[p] row: its entries times
    the lcm of their denominators (a specialized row lands in Z, as
    constant polynomials).  Zero entries are dropped."""
    entries = {}
    dens = set()
    for j, v in row.items():
        if v:
            if not isinstance(v, Scalar):
                v = Scalar(v)
            entries[j] = v
            dens.add(v.den)
    dens.discard(_PONE)
    if not dens:
        return {j: v.num for j, v in entries.items()}
    lcm = _PONE
    for d in dens:
        lcm = _plcm(lcm, d)
    factor = {d: _pquo_exact(lcm, d) for d in dens}
    factor[_PONE] = lcm
    return {j: _pmul(v.num, factor[v.den]) for j, v in entries.items()}


def zp_primitive(row):
    """A nonzero Z[p] row divided by the gcd of its entries in Z[p] (their
    common integer content times their primitive gcd), signed so that the
    entry in its first column has a positive leading coefficient."""
    c = 0
    for v in row.values():
        c = _igcd(c, _pcontent(v))
        if c == 1:
            break
    if row[min(row)][-1] < 0:
        c = -c
    g = min(row.values(), key=len)
    if len(g) > 1:
        for v in row.values():
            g = _pgcd(g, v)
            if len(g) == 1:
                break
    if len(g) > 1:
        row = {j: _pquo_exact(v, g) for j, v in row.items()}
    if c != 1:
        row = {j: tuple(x // c for x in v) for j, v in row.items()}
    return row


def zp_cofactors(lead, f):
    """(lead / g, f / g) for g the gcd of two nonzero polynomials in Z[p].

    g is the positive integer content of the gcd times its primitive part,
    so lead / g keeps the sign of lead.  A constant operand makes g an
    integer, found without a polynomial gcd.
    """
    # the two commonest cases on sparse relation rows, with no gcd at all
    if lead == _PONE:
        return lead, f
    if lead == f:
        return _PONE, _PONE
    c = _igcd(_pcontent(lead), _pcontent(f))
    if len(lead) > 1 and len(f) > 1:
        g = _pgcd(lead, f)
        if len(g) > 1:
            lead = _pquo_exact(lead, g)
            f = _pquo_exact(f, g)
    if c > 1:
        lead = tuple(x // c for x in lead)
        f = tuple(x // c for x in f)
    return lead, f


def _poly_str(c):
    if not c:
        return "0"
    parts = []
    for k in range(len(c) - 1, -1, -1):
        a = c[k]
        if not a:
            continue
        if k == 0:
            mono = str(abs(a))
        else:
            head = "" if abs(a) == 1 else f"{abs(a)}*"
            mono = f"{head}p" if k == 1 else f"{head}p^{k}"
        if not parts:
            parts.append(("-" if a < 0 else "") + mono)
        else:
            parts.append((" - " if a < 0 else " + ") + mono)
    return "".join(parts)


ZERO = Scalar(0)
ONE = Scalar(1)
P = Scalar._make((0, 1), _PONE)
Q = Scalar._make((0, 0, 1), _PONE)


def scalar(x):
    """Coerce an int, Fraction, string, or Scalar to a Scalar."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, str):
        return parse_scalar(x)
    return Scalar(x)


def q_int(n, q=Q):
    """[n]_q = 1 + q + ... + q^(n-1), by default with q = p^2; [0]_q = 0."""
    if n < 0:
        raise ValueError("q_int needs n >= 0")
    if q is Q:
        coeffs = [0] * (2 * n)
        for k in range(n):
            coeffs[2 * k] = 1
        return Scalar._make(_ptrim(coeffs), _PONE)
    out = ZERO
    for k in range(n):
        out = out + q**k
    return out


def rf_eval_at_one(f):
    """Evaluate a scalar at p = 1 (so q = 1), as an exact Fraction.

    The input is already in lowest terms, so a vanishing denominator is an
    honest pole and raises PoleAtOneError; no limits are taken.
    """
    f = scalar(f)
    d = _peval(f.den, 1)
    if d == 0:
        raise PoleAtOneError(f"pole at p = 1: {f}")
    return Fraction(_peval(f.num, 1), d)


# ---------------------------------------------------------------------------
# scalar expression parser
#
# grammar:  expr   := term (('+'|'-') term)*
#           term   := factor (('*'|'/') factor)*
#           factor := ('+'|'-')* base ('^' exponent)?
#           base   := INT | 'p' | '(' expr ')'
# '^' binds tighter than unary minus, so -p^2 means -(p^2).
#
# A power is the one place where a short text asks for a large value, so
# each is refused before it is taken when k * size(base) would pass
# MAX_POWER_SIZE.  Size counts the degree in p and the coefficient bit
# length, which both grow about linearly in k; nested powers are caught because
# the size of the inner result is measured.
#
# The parser recurses once per level of parentheses, so a text nested
# deeper than MAX_NESTING is refused before parsing starts, not left to
# exhaust the interpreter's stack.

MAX_POWER_SIZE = 1024
MAX_NESTING = 100


def _size(x):
    """Largest degree or coefficient bit length of x's numerator and denominator."""
    return max(
        max(len(c) - 1, max((abs(a).bit_length() for a in c), default=0))
        for c in (x.num, x.den)
    )


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j])))
            i = j
        elif ch == "p":
            toks.append(("p", None))
            i += 1
        elif ch in "+-*/^()":
            toks.append((ch, None))
            i += 1
        else:
            raise ValueError(f"bad character {ch!r} in scalar expression")
    return toks


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expr(self):
        val = self.term()
        while self.peek() in ("+", "-"):
            op, _ = self.take()
            rhs = self.term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def term(self):
        val = self.factor()
        while self.peek() in ("*", "/"):
            op, _ = self.take()
            rhs = self.factor()
            val = val * rhs if op == "*" else val / rhs
        return val

    def factor(self):
        sign = 1
        while self.peek() in ("+", "-"):
            op, _ = self.take()
            if op == "-":
                sign = -sign
        val = self.base()
        if self.peek() == "^":
            self.take()
            esign = 1
            while self.peek() in ("+", "-"):
                op, _ = self.take()
                if op == "-":
                    esign = -esign
            kind, k = self.take()
            if kind != "int":
                raise ValueError("exponent must be an integer")
            if k * _size(val) > MAX_POWER_SIZE:
                raise ValueError(
                    f"a power with exponent {esign * k} of a base of size {_size(val)} "
                    f"is over the size bound {MAX_POWER_SIZE}"
                )
            val = val ** (esign * k)
        return val if sign > 0 else -val

    def base(self):
        kind, payload = self.take() if self.pos < len(self.toks) else (None, None)
        if kind == "int":
            return Scalar(payload)
        if kind == "p":
            return P
        if kind == "(":
            val = self.expr()
            if self.peek() != ")":
                raise ValueError("unbalanced parentheses")
            self.take()
            return val
        raise ValueError("malformed scalar expression")


def parse_scalar(text):
    """Parse an expression in p into a canonical Scalar.

    Accepts integer and rational literals, the parameter p, the operators
    + - * / ^, and parentheses nested at most MAX_NESTING deep.
    str(Scalar) round-trips through this.
    """
    toks = _tokenize(text)
    depth = 0
    for kind, _ in toks:
        if kind == "(":
            depth += 1
            if depth > MAX_NESTING:
                raise ValueError(f"parentheses nested deeper than {MAX_NESTING}")
        elif kind == ")":
            depth -= 1
    parser = _Parser(toks)
    val = parser.expr()
    if parser.pos != len(parser.toks):
        raise ValueError(f"trailing input in scalar expression: {text!r}")
    return val

