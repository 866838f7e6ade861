"""Series pipeline tests: the coefficient recursion both ways, and the
character recursion."""

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from heckebialg.exactnum import (
    ONE,
    P,
    PoleAtOneError,
    Scalar,
)
from heckebialg.linalg import Matrix
from heckebialg.poincare import (
    CharacterRecursionReport,
    _exp_integral,
    b_sequence,
    p_sequence_from_s,
    poincare_E,
    t_specialize_p_from_operator,
    verify_character_recursion,
)
from heckebialg.qalg import build_e, build_s, dual_graded_dimension, graded_dimension
from heckebialg.rmatrix import HeckeOperator, dj_r_matrix, flip_operator, super_flip


def frac_series(ints):
    return [Fraction(x) for x in ints]


# ---------------------------------------------------------------------------
# p from the symmetric series


def test_p_from_geometric_square():
    # (1-t)^{-2} has coefficients n+1
    ps = frac_series([1, 2, 3, 4, 5, 6])
    assert p_sequence_from_s(ps, 4) == [Fraction(2)] * 5


def test_p_from_one_plus_t():
    ps = frac_series([1, 1, 0, 0, 0, 0])
    assert p_sequence_from_s(ps, 4) == [Fraction((-1) ** k) for k in range(5)]


def test_p_from_constant_one():
    ps = frac_series([1, 0, 0, 0])
    assert p_sequence_from_s(ps, 2) == [Fraction(0)] * 3


def test_p_rejects_bad_constant_term():
    with pytest.raises(ValueError):
        p_sequence_from_s(frac_series([2, 1, 1]), 1)


def test_p_rejects_short_series():
    with pytest.raises(ValueError):
        p_sequence_from_s(frac_series([1, 2]), 3)


small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@settings(deadline=None)
@given(st.lists(small_fractions, min_size=1, max_size=7))
def test_p_inverts_the_forward_recursion(c):
    # the forward recursion is exp of the integral; solving it for c is P'/P
    n = len(c)
    a = _exp_integral(c, n)
    assert len(a) == n + 1 and a[0] == 1
    assert p_sequence_from_s(a, n - 1) == c
    # the same inversion reads p_k^2 back from e_n and (-1)^k p_k^2 from b_n
    assert p_sequence_from_s(poincare_E(c, n), n - 1) == [x * x for x in c]
    signed = [(-1) ** k * x * x for k, x in enumerate(c)]
    assert p_sequence_from_s(b_sequence(c, n), n - 1) == signed


# ---------------------------------------------------------------------------
# the exponential formula and the signed recursion


def test_poincare_e_constant_two():
    e = poincare_E([2] * 5, 5)
    assert e == [Fraction(x) for x in [1, 4, 10, 20, 35, 56]]


def test_poincare_e_alternating():
    p = [1 + (-1) ** k for k in range(5)]
    e = poincare_E(p, 5)
    assert e == [Fraction(x) for x in [1, 4, 8, 12, 16, 20]]


def test_poincare_e_zero():
    e = poincare_E([0, 0, 0], 3)
    assert e == [Fraction(1), 0, 0, 0]


def test_poincare_e_order_zero():
    assert poincare_E([2], 0) == [Fraction(1)]


def test_poincare_e_needs_enough_values():
    with pytest.raises(ValueError):
        poincare_E([2, 2], 3)


def test_b_constant_two():
    assert b_sequence([2] * 5, 5) == [Fraction(x) for x in [1, 4, 6, 4, 1, 0]]


def test_b_alternating_selfdual():
    p = [1 + (-1) ** k for k in range(4)]
    assert b_sequence(p, 4) == [Fraction(x) for x in [1, 4, 8, 12, 16]]


def test_b_zero():
    assert b_sequence([0, 0], 2) == [Fraction(1), 0, 0]


def test_koszul_duality_closure():
    # P_E(t) * sum (-1)^n b_n t^n = 1 through the shared order
    for p in ([2] * 6, [1 + (-1) ** k for k in range(6)], [3] * 6):
        e = poincare_E(p, 6)
        b = b_sequence(p, 6)
        prod = [sum((-1) ** j * b[j] * e[n - j] for j in range(n + 1)) for n in range(7)]
        assert prod == [Fraction(1)] + [Fraction(0)] * 6


# ---------------------------------------------------------------------------
# specialization from an operator


def test_specialized_p_dj():
    assert t_specialize_p_from_operator(dj_r_matrix(2), 4) == [Fraction(2)] * 5
    assert t_specialize_p_from_operator(dj_r_matrix(3), 3) == [Fraction(3)] * 4


def test_specialized_p_flip():
    assert t_specialize_p_from_operator(flip_operator(3), 3) == [Fraction(3)] * 4


def test_specialized_p_superflip():
    got = t_specialize_p_from_operator(super_flip(1, 1), 4)
    assert got == [Fraction(1 + (-1) ** k) for k in range(5)]


def test_specialized_p_refuses_q_away_from_one():
    # numbers from dj:2 at p = 2, with q = 4 at every p
    op = HeckeOperator(2, dj_r_matrix(2).specialize(2).R, Scalar(4), "dj2-q4")
    with pytest.raises(ValueError, match="q = 1 at p = 1"):
        t_specialize_p_from_operator(op, 2)


def test_specialized_p_pole_raises():
    bad = HeckeOperator(1, Matrix(1, 1, [{0: ONE / (P - ONE)}]), P * P, "pole-demo")
    with pytest.raises(PoleAtOneError):
        t_specialize_p_from_operator(bad, 1)


# ---------------------------------------------------------------------------
# pipeline consistency across independent code paths


def test_p_from_s_matches_operator_route_dj2():
    s = build_s(dj_r_matrix(2))
    dims = [Fraction(graded_dimension(s, n)) for n in range(6)]
    from_series = p_sequence_from_s(dims, 4)
    from_op = t_specialize_p_from_operator(dj_r_matrix(2), 4)
    assert from_series == from_op


def test_p_from_s_matches_operator_route_flip3():
    s = build_s(flip_operator(3))
    dims = [graded_dimension(s, n) for n in range(6)]  # plain ints, as the CLI passes them
    assert p_sequence_from_s(dims, 4) == t_specialize_p_from_operator(
        flip_operator(3), 4
    )


def test_exp_formula_matches_direct_rank_dj2():
    op = dj_r_matrix(2)
    e = build_e(op)
    coeffs = poincare_E(t_specialize_p_from_operator(op, 3), 3)
    assert [int(c) for c in coeffs] == [graded_dimension(e, n) for n in range(4)]


def test_b_recursion_matches_dual_rank_dj2():
    op = dj_r_matrix(2)
    e = build_e(op)
    b = b_sequence(t_specialize_p_from_operator(op, 3), 4)
    assert [int(x) for x in b] == [dual_graded_dimension(e, n) for n in range(5)]


def test_b_recursion_matches_dual_rank_superflip():
    op = super_flip(1, 1)
    e = build_e(op)
    b = b_sequence(t_specialize_p_from_operator(op, 3), 3)
    assert [int(x) for x in b] == [dual_graded_dimension(e, n) for n in range(4)]


# ---------------------------------------------------------------------------
# the character recursion as a symbolic identity


def test_character_recursion_dj2():
    rep = verify_character_recursion(dj_r_matrix(2), 5)
    assert rep.ok
    assert all(ok for (_, _, _, ok) in rep.rows)
    assert rep.p_zero == "2"
    assert rep.naive_p0_fails
    assert "p_0 = 1" in rep.note or "p_0" in rep.note


def test_character_recursion_dj3():
    rep = verify_character_recursion(dj_r_matrix(3), 3)
    assert rep.ok
    assert rep.p_zero == "3"


def test_character_recursion_superflip():
    rep = verify_character_recursion(super_flip(1, 1), 3)
    assert rep.ok


def test_character_recursion_n2_values_dj2():
    # [2]_q s_2 = p_0 s_1 + p_1 s_0 reads 3(q+1) = 2*2 + (3q-1)*1
    rep = verify_character_recursion(dj_r_matrix(2), 2)
    n, lhs, rhs, ok = rep.rows[1]
    assert n == 2 and ok
    assert lhs == rhs
