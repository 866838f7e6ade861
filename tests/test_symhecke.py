"""Permutation combinatorics and Hecke algebra identities.

Oracles: brute-force inversion counts and word replays for the permutation
layer; for the algebra layer, the defining relations themselves (quadratic
rule, braid-free products when lengths add) checked exhaustively on small n,
plus the eigenvalue characterization of the (anti)symmetrizers.
"""

import math
import random
from itertools import permutations

import pytest

from heckebialg.exactnum import ONE, Q, ZERO, q_int, rf_eval_at_one
from heckebialg.symhecke import (
    HeckeElement,
    adjacent_transposition,
    all_permutations,
    antisymmetrizer,
    compose,
    cycle_type,
    hecke_generator,
    hecke_multiply,
    hecke_unit,
    identity_perm,
    inverse,
    length,
    long_cycle,
    perm_from_word,
    reduced_word,
    symmetrizer,
)


# ---------------------------------------------------------------------------
# permutations


def test_compose_convention():
    # (w * v)(i) = v(w(i)): apply w first
    w = (2, 1, 3)
    v = (1, 3, 2)
    assert compose(w, v) == (3, 1, 2)
    assert compose(identity_perm(3), w) == w
    assert compose(w, identity_perm(3)) == w


def test_long_cycle_is_generator_chain():
    for n in range(2, 6):
        for k in range(1, n + 1):
            w = identity_perm(n)
            for i in range(1, k):
                w = compose(w, adjacent_transposition(i, n))
            assert w == long_cycle(k, n)
    assert long_cycle(3, 3) == (3, 1, 2)
    assert length(long_cycle(k, 6)) == k - 1


def test_inverse():
    rng = random.Random(1)
    for _ in range(20):
        w = tuple(rng.sample(range(1, 7), 6))
        assert compose(w, inverse(w)) == identity_perm(6)
        assert compose(inverse(w), w) == identity_perm(6)


def test_length_is_word_length():
    for w in all_permutations(4):
        word = reduced_word(w)
        assert len(word) == length(w)
        assert perm_from_word(word, 4) == w


def test_reduced_word_lex_smallest():
    # oracle: enumerate all minimal words by BFS over generator applications
    n = 4
    for w in all_permutations(n):
        target_len = length(w)
        words = [()]
        current = {(): identity_perm(n)}
        for _ in range(target_len):
            nxt = {}
            for word, perm in current.items():
                for i in range(1, n):
                    w2 = compose(perm, adjacent_transposition(i, n))
                    if length(w2) == length(perm) + 1:
                        nxt[word + (i,)] = w2
            current = nxt
        minimal = sorted(word for word, perm in current.items() if perm == w)
        if minimal:
            assert reduced_word(w) == minimal[0]
        else:
            assert w == identity_perm(n) and reduced_word(w) == ()


def test_reduced_word_example():
    assert reduced_word((3, 1, 2)) == (1, 2)


def test_cycle_type():
    assert cycle_type(identity_perm(4)) == (1, 1, 1, 1)
    assert cycle_type((2, 1, 4, 3)) == (2, 2)
    assert cycle_type(long_cycle(4, 4)) == (4,)
    assert cycle_type(long_cycle(3, 5)) == (3, 1, 1)


# ---------------------------------------------------------------------------
# Hecke algebra structure


def T(w, n):
    return HeckeElement(n, {w: ONE})


def test_unit_and_quadratic_rule():
    n = 3
    for i in (1, 2):
        g = hecke_generator(i, n)
        sq = hecke_multiply(g, g)
        v = adjacent_transposition(i, n)
        assert sq.coefficient(identity_perm(n)) == Q
        assert sq.coefficient(v) == Q - 1
        assert len(sq.terms) == 2
    assert hecke_multiply(hecke_unit(n), hecke_unit(n)) == hecke_unit(n)


def test_products_follow_length_additivity():
    # T_w T_v = T_{wv} whenever l(w) + l(v) = l(wv), exhaustively on S_3, S_4
    for n in (3, 4):
        for w in all_permutations(n):
            for v in all_permutations(n):
                if length(w) + length(v) == length(compose(w, v)):
                    prod = hecke_multiply(T(w, n), T(v, n))
                    assert prod == T(compose(w, v), n), (w, v)


def test_associativity_randomized():
    rng = random.Random(7)
    n = 4
    perms = all_permutations(n)
    for _ in range(12):
        a = T(rng.choice(perms), n)
        b = T(rng.choice(perms), n)
        c = T(rng.choice(perms), n)
        left = hecke_multiply(hecke_multiply(a, b), c)
        right = hecke_multiply(a, hecke_multiply(b, c))
        assert left == right


def test_specializes_to_group_algebra_at_q_one():
    # with q = 1 the product must be the group product
    for w in all_permutations(3):
        for v in all_permutations(3):
            prod = hecke_multiply(T(w, 3), T(v, 3), q=ONE)
            assert prod == T(compose(w, v), 3)


# ---------------------------------------------------------------------------
# symmetrizers


def test_symmetrizer_small_forms():
    x2 = symmetrizer(2)
    assert x2.coefficient(identity_perm(2)) == ONE / (Q + 1)
    assert x2.coefficient((2, 1)) == ONE / (Q + 1)
    x3 = symmetrizer(3)
    w0 = (3, 2, 1)
    assert x3.coefficient(w0) == ONE / ((Q + 1) * (Q * Q + Q + 1))


def test_symmetrizer_is_normalized_sum_over_group():
    # closed form: x_n = (1/[n]_q!) sum_w T_w
    for n in (2, 3, 4):
        xn = symmetrizer(n)
        inv_norm = ONE / math.prod(map(q_int, range(1, n + 1)), start=ONE)
        assert set(xn.terms) == set(all_permutations(n))
        assert all(c == inv_norm for c in xn.terms.values())


def test_antisymmetrizer_small_form():
    y2 = antisymmetrizer(2)
    norm = ONE + ONE / Q
    assert y2.coefficient(identity_perm(2)) == ONE / norm
    assert y2.coefficient((2, 1)) == -ONE / (Q * norm)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_idempotency(n):
    xn = symmetrizer(n)
    assert hecke_multiply(xn, xn) == xn
    yn = antisymmetrizer(n)
    assert hecke_multiply(yn, yn) == yn


@pytest.mark.parametrize("n", [2, 3, 4])
def test_eigenvalue_identities(n):
    xn = symmetrizer(n)
    yn = antisymmetrizer(n)
    for w in all_permutations(n):
        lw = length(w)
        assert hecke_multiply(T(w, n), xn) == xn.scale(Q**lw)
        assert hecke_multiply(T(w, n), yn) == yn.scale(Scalar_neg_one_pow(lw))
        assert hecke_multiply(xn, T(w, n)) == xn.scale(Q**lw)
        assert hecke_multiply(yn, T(w, n)) == yn.scale(Scalar_neg_one_pow(lw))


def Scalar_neg_one_pow(l):
    return ONE if l % 2 == 0 else -ONE


def test_symmetrizers_annihilate_each_other():
    for n in (2, 3):
        xn = symmetrizer(n)
        yn = antisymmetrizer(n)
        assert hecke_multiply(xn, yn) == HeckeElement(n)
        assert hecke_multiply(yn, xn) == HeckeElement(n)


def test_staircase_factorization_of_group_sum():
    # every w in S_n factors uniquely as u * chain with u in S_{n-1}:
    # checked by expanding x_{n-1} * staircase, which must hit each T_w once
    n = 4
    xn = symmetrizer(n)
    assert len(xn.terms) == 24


def test_q_one_symmetrizer_is_averaging_idempotent():
    x3 = symmetrizer(3, q=ONE)
    assert all(c == ONE / 6 for c in x3.terms.values())
    y3 = antisymmetrizer(3, q=ONE)
    for w, c in y3.terms.items():
        assert c == (ONE if length(w) % 2 == 0 else -ONE) / 6
