"""Scalar field tests.

Expected values were frozen from independent oracles: pointwise Fraction
arithmetic at random sample points for the field axioms.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from heckebialg.exactnum import (
    MAX_NESTING,
    MAX_POWER_SIZE,
    ONE,
    P,
    Q,
    ZERO,
    PoleAtOneError,
    Scalar,
    parse_scalar,
    q_int,
    rf_eval_at_one,
    scalar,
)
from heckebialg.exactnum import _add_pair, _mul_pair, _pgcd
from heckebialg.linalg import Matrix, echelonize
from heckebialg.qalg import algebra_by_key, distributivity_check, graded_dimension
from heckebialg.rmatrix import HeckeOperator, dj_r_matrix, matrix_space_operator

CACHES = (_pgcd, _mul_pair, _add_pair)


def rand_scalar(rng, degree=4, terms=3):
    """Random rational function with small integer coefficients, nonzero den."""

    def rand_poly():
        coeffs = [0] * (degree + 1)
        for _ in range(terms):
            coeffs[rng.randrange(degree + 1)] = rng.randint(-6, 6)
        out = ZERO
        for k, c in enumerate(coeffs):
            if c:
                out = out + Scalar(c) * P**k
        return out

    num = rand_poly()
    den = ZERO
    while not den:
        den = rand_poly()
    return num / den


def test_constants_and_coercion():
    assert Scalar(0) == ZERO
    assert Scalar(1) == ONE
    assert Scalar(7) - 7 == ZERO
    assert Q == P * P
    assert scalar(Fraction(3, 4)) * 4 == 3
    assert bool(ZERO) is False
    assert bool(P) is True


def test_field_axioms_pointwise():
    # oracle: evaluation at rational points is a field homomorphism
    rng = random.Random(20260819)
    points = [Fraction(2), Fraction(1, 3), Fraction(-5, 7), Fraction(4, 9)]
    for _ in range(40):
        f = rand_scalar(rng)
        g = rand_scalar(rng)
        for x in points:
            try:
                fx, gx = f.evaluate(x), g.evaluate(x)
            except ZeroDivisionError:
                continue
            assert (f + g).evaluate(x) == fx + gx
            assert (f - g).evaluate(x) == fx - gx
            assert (f * g).evaluate(x) == fx * gx
            if gx:
                assert (f / g).evaluate(x) == fx / gx


def test_canonical_equality_across_routes():
    rng = random.Random(77)
    for _ in range(30):
        f = rand_scalar(rng, degree=3)
        g = rand_scalar(rng, degree=3)
        h = rand_scalar(rng, degree=2)
        if not h:
            continue
        # same value built two ways must be the same object state
        lhs = (f + g) * h
        rhs = f * h + g * h
        assert lhs == rhs
        assert hash(lhs) == hash(rhs)
        if g:
            assert (f / g) * g == f


def test_cancellation_is_automatic():
    f = (Q**3 - 1) / (Q - 1)
    assert f == q_int(3)
    assert f.den == (1,)
    g = (P**2 - 1) / (P - 1)
    assert g == P + 1


def test_pow():
    assert (P + 1) ** 0 == ONE
    assert ZERO**0 == ONE
    assert (P + 1) ** 3 == (P + 1) * (P + 1) * (P + 1)
    assert (P**-2) * Q == ONE
    f = (Q - 1) / (Q + 1)
    assert f**-3 * f**3 == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO**-1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_evaluate():
    f = (Q + 1) / (P - 2)
    assert f.evaluate(3) == Fraction(10, 1)
    with pytest.raises(ZeroDivisionError):
        f.evaluate(2)


def test_rf_eval_at_one():
    assert rf_eval_at_one(ONE) == 1
    assert rf_eval_at_one(3 * Q - 1) == 2
    assert rf_eval_at_one((Q**3 - 1) / (Q - 1)) == 3
    with pytest.raises(PoleAtOneError):
        rf_eval_at_one(ONE / (P - 1))


def test_q_int_specializes_to_n():
    for n in range(1, 9):
        assert rf_eval_at_one(q_int(n)) == n
    assert q_int(0) == ZERO
    assert q_int(2) == Q + 1
    assert q_int(3, Q) == q_int(3, Q * ONE) == Q**2 + Q + 1
    assert q_int(3, Fraction(1, 2)) == Fraction(7, 4)
    assert q_int(0, Fraction(1, 2)) == ZERO


# ---------------------------------------------------------------------------
# parser and printer


def test_parse_basics():
    assert parse_scalar("p") == P
    assert parse_scalar("p^2") == Q
    assert parse_scalar("1/2") == scalar(Fraction(1, 2))
    assert parse_scalar("-p^2") == -Q
    assert parse_scalar("(p-1)*(p+1)") == Q - 1
    assert parse_scalar("2 + 3*p - p^2") == 2 + 3 * P - Q
    assert parse_scalar("(p^4-1)/(p^2-1)") == Q + 1
    assert parse_scalar("p^-2") == ONE / Q


def test_parse_rejects_garbage():
    for bad in ["", "p+", "(p", "p q", "2^^3", "x"]:
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_str_round_trip():
    rng = random.Random(4242)
    cases = [ZERO, ONE, -ONE, P, -P, Q + 1, (3 * Q - 1) / (Q + 1), ONE / P]
    cases += [rand_scalar(rng) for _ in range(25)]
    for f in cases:
        assert parse_scalar(str(f)) == f


def test_parse_bounds_powers():
    # refused just past the bound; a huge exponent is never run
    assert parse_scalar(f"p^{MAX_POWER_SIZE}") == P**MAX_POWER_SIZE
    assert parse_scalar(f"p^-{MAX_POWER_SIZE}") == P**-MAX_POWER_SIZE
    assert parse_scalar(f"2^{MAX_POWER_SIZE // 2}") == 2 ** (MAX_POWER_SIZE // 2)
    assert parse_scalar("((p+1)^32)^32") == (P + 1) ** 1024
    for bad in [
        f"p^{MAX_POWER_SIZE + 1}",
        f"p^-{MAX_POWER_SIZE + 1}",
        f"(p^2+1)^{MAX_POWER_SIZE // 2 + 1}",
        f"2^{MAX_POWER_SIZE // 2 + 1}",
        "((p+1)^32)^33",  # the inner result is measured, so nesting is caught
        f"(2^{MAX_POWER_SIZE // 2})^2",
    ]:
        with pytest.raises(ValueError, match="size bound"):
            parse_scalar(bad)


def test_parse_bounds_nesting():
    # refused before the parser recurses, whatever the parentheses hold
    nested = "(" * MAX_NESTING + "p" + ")" * MAX_NESTING
    assert parse_scalar(nested) == P
    assert parse_scalar(f"-{nested} + ((1))") == 1 - P
    for bad in [
        "(" * (MAX_NESTING + 1) + "p" + ")" * (MAX_NESTING + 1),
        "(" * 5000 + "p" + ")" * 5000,
        "(" * 5000,  # unbalanced: refused for depth before the parser sees it
        "1+" + "-(" * 5000 + "2" + ")" * 5000,
    ]:
        with pytest.raises(ValueError, match="nested deeper"):
            parse_scalar(bad)


# ---------------------------------------------------------------------------
# memoised arithmetic

polys = st.lists(st.integers(-9, 9), max_size=4)


@st.composite
def canonical_scalars(draw):
    den = draw(polys.filter(any))
    return Scalar._reduced(tuple(draw(polys)), tuple(den))


@settings(max_examples=200, deadline=None)
@given(canonical_scalars(), canonical_scalars())
@example((P + 1) / (P - 1), (Q - 1) / (2 * P + 2))
@example(ONE / (P + 1), -ONE / (P + 1))
def test_cached_arithmetic_equals_raw(a, b):
    key = (a.num, a.den, b.num, b.den)
    for _ in range(2):  # a miss, then a hit
        assert _add_pair(*key) == _add_pair.__wrapped__(*key)
        assert a - b == _add_pair.__wrapped__(a.num, a.den, (-b).num, b.den)
        if a and b:
            assert _mul_pair(*key) == _mul_pair.__wrapped__(*key)
            assert a * b == _mul_pair.__wrapped__(*key)
            assert a / b == _mul_pair.__wrapped__(a.num, a.den, b.den, b.num)


def test_distributivity_same_with_cold_and_warm_caches():
    algebra = algebra_by_key(dj_r_matrix(2), "e")
    for cache in CACHES:
        cache.cache_clear()
    cold = distributivity_check(algebra, 3)
    warm = distributivity_check(algebra, 3)
    assert cold.status == "distributive"
    assert warm == cold
    assert _mul_pair.cache_info().hits > 0


def test_caches_stay_bounded_on_a_dense_elimination():
    # dj:3 conjugated by g (x) g for a unitriangular g: every entry is dense
    g = Matrix.from_rows([[ONE, ONE, -ONE], [ZERO, ONE, ONE], [ZERO, ZERO, ONE]])
    gg = g.kron(g)
    base = dj_r_matrix(3)
    dense = HeckeOperator(3, gg * base.R * gg.inverse(), base.q, "dense-dj3")
    wop = matrix_space_operator(dense)
    m = wop.d * wop.d
    for cache in CACHES:
        cache.cache_clear()
    # the relations of E are built fraction-free; the Scalar elimination that
    # intersections and kernels run is what puts the caches under pressure
    rel = echelonize((wop.R - Matrix.identity(m)).data, m)
    algebra = algebra_by_key(dense, "e")
    assert rel == algebra.relations
    assert graded_dimension(algebra, 2) == 45
    for cache in CACHES:
        info = cache.cache_info()
        assert info.currsize <= info.maxsize
    # the product and sum caches saw more distinct pairs than they hold
    assert _mul_pair.cache_info().misses > _mul_pair.cache_info().maxsize
    assert _add_pair.cache_info().misses > _add_pair.cache_info().maxsize
