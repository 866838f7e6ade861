"""The series pipeline: cycle traces, Poincare series, and the
recursions that tie them to the graded dimensions.

Every arrow of the chain is one recursion, read off coefficient by
coefficient.  A series A with a_0 = 1 and A' = C A, that is
A = exp of the integral of C, satisfies

    n a_n = sum_{k<n} c_k a_{n-1-k},

which runs forward from c to a and solves backward from a to c.  So

    s_n  --backward-->  p_k  --forward on p_k^2-->  e_n
                          \\--forward on (-1)^k p_k^2-->  b_n

and the character recursion [n]_q s_n = sum_{k<n} p_k s_{n-1-k} is the
same sum.  Every arrow is cross-validated elsewhere against direct rank
computations, so the formulas and the linear algebra must agree or the
tests fail.  All arithmetic is exact (Fractions, or Scalars when the
input is symbolic in p).
"""

from collections import namedtuple
from fractions import Fraction

from .exactnum import ONE, Scalar, q_int, rf_eval_at_one
from .rmatrix import cycle_trace, staircase_projector_trace

__all__ = [
    "p_sequence_from_s",
    "poincare_E",
    "b_sequence",
    "t_specialize_p_from_operator",
    "CharacterRecursionReport",
    "verify_character_recursion",
]


def _exact(x):
    """Coerce plain ints to Fractions; leave exact field elements alone."""
    if isinstance(x, (Scalar, Fraction)):
        return x
    return Fraction(x)


def _lagged_sum(c, a, n):
    """sum_{k<n} c_k a_{n-1-k}, the coefficient of t^(n-1) in C(t) A(t); n >= 1."""
    acc = c[0] * a[n - 1]
    for k in range(1, n):
        acc = acc + c[k] * a[n - 1 - k]
    return acc


def _exp_integral(c, max_degree):
    """a_0..a_N with a_0 = 1 and n a_n = sum_{k<n} c_k a_{n-1-k}.

    The coefficients of exp of the termwise integral of sum c_k t^k; needs
    c_0..c_{N-1}.
    """
    a = [c[0] ** 0 if c else Fraction(1)]
    for n in range(1, max_degree + 1):
        a.append(_lagged_sum(c, a, n) / n)
    return a


def p_sequence_from_s(s, max_index):
    """p_0..p_N from the coefficients s_0..s_{N+1} of a symmetric-algebra
    Poincare series P_S, so that sum p_k t^k = P'_S / P_S.

    Solves the recursion for p: p_k = (k+1) s_{k+1} - sum_{j<k} p_j s_{k-j}.
    The series must have constant term 1 and at least N + 2 coefficients.
    """
    s = [_exact(x) for x in s]
    if not s or s[0] != s[0] ** 0:
        raise ValueError("Poincare series must have constant term 1")
    if len(s) < max_index + 2:
        raise ValueError(
            f"need order {max_index + 1} to read p_0..p_{max_index}, "
            f"got order {len(s) - 1}"
        )
    tail, p = s[1:], []
    for k in range(max_index + 1):
        p.append((k + 1) * tail[k] - (_lagged_sum(p, tail, k) if k else 0))
    return p


def poincare_E(p, max_degree):
    """e_0..e_N: exp of the integral of sum p_k^2 t^k, truncated at N."""
    vals = [_exact(x) for x in p]
    if len(vals) < max_degree:
        raise ValueError(f"need p_0..p_{max_degree - 1} for order {max_degree}")
    return _exp_integral([v * v for v in vals[:max_degree]], max_degree)


def b_sequence(p, max_index):
    """b_0 = 1 and n b_n = sum_{k<n} (-1)^k p_k^2 b_{n-k-1}."""
    vals = [_exact(x) for x in p]
    if len(vals) < max_index:
        raise ValueError(f"need p_0..p_{max_index - 1} for b_{max_index}")
    signed = [v * v if k % 2 == 0 else -(v * v) for k, v in enumerate(vals[:max_index])]
    return _exp_integral(signed, max_index)


def t_specialize_p_from_operator(op, max_index):
    """p_k = (trace of the long cycle on k+1 factors) at p = 1, which must be
    q = 1 (``HeckeOperator.q_tends_to_one``); raises PoleAtOneError when a
    trace is singular there.
    """
    op.require_q_tends_to_one("the q = 1 trace route")
    return [rf_eval_at_one(cycle_trace(op, k)) for k in range(max_index + 1)]


# ---------------------------------------------------------------------------
# the character recursion, verified as an identity of Scalars


# ``rows`` holds (n, lhs string, rhs string, ok) for n = 1..N
CharacterRecursionReport = namedtuple("CharacterRecursionReport", "rows ok p_zero naive_p0_fails note")


def verify_character_recursion(op, max_degree):
    """Check [n]_q s_n = sum_{k=0}^{n-1} p_k s_{n-1-k} exactly, n = 1..N.

    Here s_n is the trace of the represented symmetrizer on n factors,
    taken by the staircase recursion of ``staircase_projector_trace``,
    p_k the trace of the long cycle on k+1 factors, and p_0 comes out as
    the trace of the identity, that is d.  Taking p_0 = 1 instead breaks
    the recursion already at n = 1 (s_1 = p_0 s_0 forces p_0 = s_1 = d);
    the report records that failure explicitly.
    """
    p = [cycle_trace(op, k) for k in range(max_degree)]
    s = [ONE]
    for n in range(1, max_degree + 1):
        s.append(staircase_projector_trace(op.R, n, op.q, op.d))

    rows = []
    all_ok = True
    for n in range(1, max_degree + 1):
        lhs = q_int(n, op.q) * s[n]
        rhs = _lagged_sum(p, s, n)
        ok = lhs == rhs
        all_ok = all_ok and ok
        rows.append((n, str(lhs), str(rhs), ok))

    naive_rhs = ONE * s[0]  # the recursion at n = 1 with p_0 replaced by 1
    naive_fails = naive_rhs != s[1]
    note = (
        "substituting p_0 = 1 breaks n = 1: "
        f"{s[1]} != {naive_rhs}"
        if naive_fails
        else "p_0 = 1 happens to work here (d = 1)"
    )
    return CharacterRecursionReport(
        rows=rows,
        ok=all_ok,
        p_zero=str(p[0]) if p else str(ONE),
        naive_p0_fails=naive_fails,
        note=note,
    )
