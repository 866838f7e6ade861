"""The series pipeline: cycle traces, Poincare series, and the two
recursions that tie them to the graded dimensions.

The chain runs

    s_n  --log-derivative-->  p_k  --exp-integral-->  e_n
                                \\--signed recursion-->  b_n

and every arrow is cross-validated elsewhere against direct rank
computations, so the formulas and the linear algebra must agree or the
tests fail.  All arithmetic is exact (Fractions, or Scalars when the
input is symbolic in p).
"""

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import (
    ONE,
    PowerSeries,
    Scalar,
    q_int,
    rf_eval_at_one,
    series_exp_integral,
    series_log_derivative,
)
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


def p_sequence_from_s(series, max_index):
    """p_0..p_N from a symmetric-algebra Poincare series: P'_S / P_S.

    The series must have constant term 1 and order at least N + 1.
    """
    one = series.coeffs[0] ** 0
    if series.coeffs[0] != one:
        raise ValueError("Poincare series must have constant term 1")
    if series.order < max_index + 1:
        raise ValueError(
            f"need order {max_index + 1} to read p_0..p_{max_index}, "
            f"got order {series.order}"
        )
    logd = series_log_derivative(series)
    return list(logd.coeffs[: max_index + 1])


def poincare_E(p, max_degree):
    """exp of the termwise integral of sum p_k^2 t^k, truncated at N."""
    vals = [_exact(x) for x in p]
    if max_degree == 0:
        one = vals[0] ** 0 if vals else Fraction(1)
        return PowerSeries([one])
    if len(vals) < max_degree:
        raise ValueError(f"need p_0..p_{max_degree - 1} for order {max_degree}")
    squares = PowerSeries([v * v for v in vals[:max_degree]])
    return series_exp_integral(squares)


def b_sequence(p, max_index):
    """b_0 = 1 and n b_n = sum_{k<n} (-1)^k p_k^2 b_{n-k-1}."""
    vals = [_exact(x) for x in p]
    if max_index > 0 and len(vals) < max_index:
        raise ValueError(f"need p_0..p_{max_index - 1} for b_{max_index}")
    one = vals[0] ** 0 if vals else Fraction(1)
    out = [one]
    for n in range(1, max_index + 1):
        acc = one * 0
        for k in range(n):
            term = vals[k] * vals[k] * out[n - k - 1]
            acc = acc + term if k % 2 == 0 else acc - term
        out.append(acc / n)
    return out


def t_specialize_p_from_operator(op, max_index):
    """p_k = (trace of the long cycle on k+1 factors) evaluated at q = 1.

    Needs the symbolic operator: once p is pinned to a number the q -> 1
    limit is gone.  Raises PoleAtOneError when a trace is singular there.
    """
    if op.specialized_at is not None:
        raise ValueError(
            "the q = 1 trace needs the symbolic operator; "
            f"this one is specialized at p = {op.specialized_at}"
        )
    return [rf_eval_at_one(cycle_trace(op, k)) for k in range(max_index + 1)]


# ---------------------------------------------------------------------------
# the character recursion, verified as an identity of Scalars


@dataclass
class CharacterRecursionReport:
    operator: str
    max_degree: int
    rows: list  # (n, lhs string, rhs string, ok)
    ok: bool
    p_zero: str
    naive_p0_fails: bool
    note: str = ""

    def __str__(self):
        head = (
            f"character recursion for {self.operator}, n = 1..{self.max_degree}: "
            f"{'pass' if self.ok else 'FAIL'} (p_0 = {self.p_zero})"
        )
        lines = [head]
        for n, lhs, rhs, ok in self.rows:
            lines.append(f"  n={n}: [{n}]_q s_{n} = {lhs} ?= {rhs}  {'ok' if ok else 'MISMATCH'}")
        if self.note:
            lines.append("  " + self.note)
        return "\n".join(lines)


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
        rhs = s[0] * 0
        for k in range(n):
            rhs = rhs + p[k] * s[n - 1 - k]
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
        operator=op.name,
        max_degree=max_degree,
        rows=rows,
        ok=all_ok,
        p_zero=str(p[0]) if p else str(ONE),
        naive_p0_fails=naive_fails,
        note=note,
    )
