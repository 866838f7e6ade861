"""Operator axioms, the Hecke algebra representation, and induced operators.

Frozen expectations come from hand computations on small cases: explicit
2x2-block eigenvectors of the d = 2 deformation, binomial ranks of the
(anti)symmetric projectors, and q = 1 classical values.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from heckebialg.exactnum import ONE, P, Q, Scalar, ZERO, rf_eval_at_one
from heckebialg.linalg import Matrix, echelonize
from heckebialg.qalg import (
    algebra_by_key,
    distributivity_check,
    dual_graded_dimension,
    graded_dimension,
)
from heckebialg.rmatrix import (
    HeckeOperator,
    character,
    check_hecke,
    check_yang_baxter,
    cycle_trace,
    dj_r_matrix,
    flip_operator,
    matrix_space_operator,
    operator_axiom_report,
    rho,
    rho_basis,
    staircase_projector,
    staircase_projector_trace,
    super_flip,
)
from heckebialg.symhecke import (
    all_permutations,
    antisymmetrizer,
    hecke_multiply,
    length,
    long_cycle,
    symmetrizer,
)
from heckebialg.schur import centralizer_dimension, multiplicities

from math import comb


OPS = {
    "dj2": dj_r_matrix(2),
    "dj3": dj_r_matrix(3),
    "flip2": flip_operator(2),
    "flip3": flip_operator(3),
    "sflip": super_flip(1, 1),
}


def test_dj_matrix_entries():
    op = dj_r_matrix(2)
    # rows are images of basis vectors: x1x1, x1x2, x2x1, x2x2
    assert op.R.entry(0, 0) == Q
    assert op.R.entry(3, 3) == Q
    assert op.R.entry(1, 2) == P and op.R.entry(1, 1) == Q - 1
    assert op.R.entry(2, 1) == P and op.R.entry(2, 2) == ZERO
    assert op.R.trace() == 3 * Q - 1


def test_dj_trace_general_d():
    for d in (2, 3, 4):
        want = d * Q + (Q - 1) * (d * (d - 1) // 2)
        assert dj_r_matrix(d).R.trace() == want


@pytest.mark.parametrize("name", sorted(OPS))
def test_axioms(name):
    op = OPS[name]
    for check_name, res in operator_axiom_report(op):
        assert res, f"{name}: {check_name} failed at {res.witness}"


def test_super_flip_needs_signs_to_pass():
    # the graded sign is what makes superflip:1|1 differ from flip:2
    sf = super_flip(1, 1)
    assert sf.R.entry(3, 3) == -1
    assert flip_operator(2).R.entry(3, 3) == 1
    assert check_hecke(sf) and check_yang_baxter(sf)


@pytest.mark.parametrize("name", sorted(OPS))
def test_builtins_tend_to_q_one(name):
    assert OPS[name].q_tends_to_one()


@pytest.mark.parametrize(
    "make",
    [
        lambda: dj_r_matrix(2).specialize(Fraction(3, 2)),
        # dj:2's numbers at p = 2, with q = 4 at every p
        lambda: HeckeOperator(2, dj_r_matrix(2).specialize(2).R, Scalar(4), "dj2-q4"),
        lambda: HeckeOperator(1, Matrix.identity(1), ONE / (P - ONE), "pole-at-one"),
    ],
    ids=["dj2@p=3/2", "numeric-q", "pole"],
)
def test_other_operators_do_not_tend_to_q_one(make):
    assert not make().q_tends_to_one()


def test_specialized_operators_with_q_one_tend_to_q_one():
    assert dj_r_matrix(2).specialize(1).q_tends_to_one()
    assert flip_operator(2).specialize(Fraction(3, 2)).q_tends_to_one()


def test_hecke_witness_on_failure():
    bad = flip_operator(2)
    bad.R.data[0][0] = ONE + ONE  # corrupt one entry
    res = check_hecke(bad)
    assert not res and res.witness is not None


def test_inverse_formula():
    # the quadratic relation forces R^-1 = (R - (q-1))/q
    for name in ("dj2", "dj3"):
        op = OPS[name]
        eye = Matrix.identity(op.d * op.d)
        expected = (op.R - eye.scale(op.q - 1)).scale(ONE / op.q)
        assert op.inverse_matrix() == expected


def test_eigen_structure_d2():
    # (x1 x2 - sqrt(q) x2 x1) R = -(x1 x2 - sqrt(q) x2 x1)
    op = OPS["dj2"]
    v = {1: ONE, 2: -P}
    out = {}
    for j, c in v.items():
        for k, r in op.R.data[j].items():
            out[k] = out.get(k, ZERO) + c * r
    assert {k: v for k, v in out.items() if v} == {1: -ONE, 2: P}
    # symmetric-side eigenvector with eigenvalue q
    w = {1: P, 2: ONE}
    out = {}
    for j, c in w.items():
        for k, r in op.R.data[j].items():
            out[k] = out.get(k, ZERO) + c * r
    assert {k: v for k, v in out.items() if v} == {1: P * Q, 2: Q}


def test_image_ranks_match_binomials():
    # rank(R - q) = C(d,2) (antisymmetric side), rank(R + 1) = C(d+1,2)
    for d in (2, 3):
        op = dj_r_matrix(d)
        eye = Matrix.identity(d * d)
        anti = echelonize(((op.R - eye.scale(op.q))).data, d * d)
        sym = echelonize((op.R + eye).data, d * d)
        assert anti.dim == comb(d, 2)
        assert sym.dim == comb(d + 1, 2)
        assert anti.dim + sym.dim == d * d


# ---------------------------------------------------------------------------
# representation


def test_rho_is_homomorphism():
    op = OPS["dj2"]
    n = 3
    images = rho_basis(op, n)
    for w in all_permutations(n):
        for i in (1, 2):
            from heckebialg.symhecke import adjacent_transposition, compose

            v = adjacent_transposition(i, n)
            if length(compose(w, v)) == length(w) + 1:
                assert images[compose(w, v)] == images[w] * op.lifted(i, n)


def test_rho_respects_quadratic_rule():
    op = OPS["dj3"]
    n = 2
    r = rho(op, n, (2, 1))
    eye = Matrix.identity(op.d**n)
    assert r * r == r.scale(op.q - 1) + eye.scale(op.q)


def test_character_of_symmetrizers_d2():
    op = OPS["dj2"]
    # chi(x_n) = C(d+n-1, n), chi(y_n) = C(d, n): constants, exactly
    for n in (1, 2, 3):
        sn = character(op, n, symmetrizer(n))
        ln = character(op, n, antisymmetrizer(n))
        assert sn == comb(2 + n - 1, n)
        assert ln == comb(2, n)


def test_rank_of_projectors_d2():
    op = OPS["dj2"]
    for n in (2, 3):
        xn = rho(op, n, symmetrizer(n))
        yn = rho(op, n, antisymmetrizer(n))
        assert echelonize(xn.data, op.d**n).dim == comb(2 + n - 1, n)
        assert echelonize(yn.data, op.d**n).dim == comb(2, n)
        # idempotent matrices
        assert xn * xn == xn
        assert yn * yn == yn


def test_cycle_traces():
    op = OPS["dj2"]
    assert cycle_trace(op, 0) == 2
    assert cycle_trace(op, 1) == 3 * Q - 1
    # q = 1 families: flips give p_k = d, the super flip alternates 2, 0
    fl = OPS["flip3"]
    assert [cycle_trace(fl, k) for k in range(4)] == [3, 3, 3, 3]
    sf = OPS["sflip"]
    assert [cycle_trace(sf, k) for k in range(5)] == [2, 0, 2, 0, 2]


# ---------------------------------------------------------------------------
# trace routes against the full image table


ORACLE_OPS = {
    "dj2": dj_r_matrix(2),
    "dj3": dj_r_matrix(3),
    "sflip11": super_flip(1, 1),
    "sflip21": super_flip(2, 1),
}


@pytest.mark.parametrize("name", sorted(ORACLE_OPS))
def test_trace_routes_match_rho_basis(name):
    op = ORACLE_OPS[name]
    for n in range(1, 5):
        images = rho_basis(op, n)
        for w, mat in images.items():
            assert rho(op, n, w) == mat, w
        assert cycle_trace(op, n - 1) == images[long_cycle(n, n)].trace()
        want = ZERO
        for w, c in symmetrizer(n, op.q).terms.items():
            want = want + c * images[w].trace()
        assert staircase_projector_trace(op.R, n, op.q, op.d) == want


def conjugate_by_unitriangular(op, a):
    """g R g^-1 on V (x) V for g = [[1, a], [0, 1]] acting on each factor."""
    g = Matrix.from_rows([[ONE, Scalar(a)], [ZERO, ONE]])
    gg = g.kron(g)
    return HeckeOperator(op.d, gg * op.R * gg.inverse(), op.q, f"{op.name}^g")


@settings(max_examples=4, deadline=None)
@given(st.integers(-5, 5).filter(bool))
def test_conjugation_leaves_traces_unchanged(a):
    # rho of the conjugate is rho conjugated by g^(x)n, so no trace moves
    base = dj_r_matrix(2)
    op = conjugate_by_unitriangular(base, a)
    assert op.R != base.R
    for n in range(1, 5):
        assert cycle_trace(op, n - 1) == cycle_trace(base, n - 1)
        assert staircase_projector_trace(op.R, n, op.q, op.d) == staircase_projector_trace(
            base.R, n, base.q, base.d
        )
        assert multiplicities(op, n) == multiplicities(base, n)


@settings(max_examples=4, deadline=None)
@given(st.integers(-5, 5).filter(bool))
def test_conjugation_leaves_dimensions_unchanged(a):
    # g (x) g carries the relation spaces of R onto those of its conjugate
    base = dj_r_matrix(2)
    op = conjugate_by_unitriangular(base, a)
    for key in ("s", "lambda", "e"):
        alg, ref = algebra_by_key(op, key), algebra_by_key(base, key)
        assert alg.relations != ref.relations
        for n in range(4):
            assert graded_dimension(alg, n) == graded_dimension(ref, n)
            assert dual_graded_dimension(alg, n) == dual_graded_dimension(ref, n)
    for n in range(1, 4):
        assert centralizer_dimension(op, n) == centralizer_dimension(base, n)
    for n in (3, 4):
        verdict = distributivity_check(algebra_by_key(op, "e"), n)
        ref = distributivity_check(algebra_by_key(base, "e"), n)
        assert verdict.status == ref.status == "distributive"
        assert (verdict.free, verdict.dual) == (ref.free, ref.dual)


# ---------------------------------------------------------------------------
# induced operator on W and the staircase projectors


def test_matrix_space_operator_braids_but_is_not_hecke():
    op = OPS["dj2"]
    wop = matrix_space_operator(op)
    assert wop.d == 4
    assert check_yang_baxter(wop)
    assert not check_hecke(wop)


def test_matrix_space_operator_spectrum_d2():
    # Rbar on W(x)W has eigenvalues 1, -q, -1/q; image of Rbar - 1 has dim 6
    op = OPS["dj2"]
    wop = matrix_space_operator(op)
    eye = Matrix.identity(16)
    rel = echelonize((wop.R - eye).data, 16)
    assert rel.dim == 6
    # (Rbar - 1)(Rbar + q)(Rbar + 1/q) = 0
    prod = (wop.R - eye) * (wop.R + eye.scale(Q)) * (wop.R + eye.scale(ONE / Q))
    assert all(not row for row in prod.data)


def test_flip_matrix_space_operator_is_flip():
    # for the plain flip, Rbar is again a flip on W
    op = OPS["flip2"]
    wop = matrix_space_operator(op)
    flipw = flip_operator(4)
    assert wop.R == flipw.R


def test_staircase_projector_small():
    op = OPS["dj2"]
    wop = matrix_space_operator(op)
    s = wop.R.scale(-ONE)
    # P_2(-Rbar) = (1 - Rbar)/[2]_q; trace = (16 - tr Rbar)/(1+q)
    p2 = staircase_projector(s, 2, wop.q, wop.d)
    tr = p2.trace()
    assert tr == (16 - wop.R.trace()) / (Q + 1)
    assert tr == 3 * (Q + 1) / Q
    assert rf_eval_at_one(tr) == comb(4, 2)
    # not idempotent symbolically (Rbar has three eigenvalues), but its
    # image is the relation space and the q = 1 trace sees its dimension
    assert echelonize(p2.data, 16) == echelonize((wop.R - Matrix.identity(16)).data, 16)


def test_staircase_projector_trace_agrees_with_full_build():
    op = OPS["dj2"]
    wop = matrix_space_operator(op)
    s = wop.R.scale(-ONE)
    for n in (2, 3):
        full = staircase_projector(s, n, wop.q, wop.d).trace()
        lazy = staircase_projector_trace(s, n, wop.q, wop.d)
        assert full == lazy


def test_staircase_projector_on_plain_space():
    # P_n(R) for the flip itself projects onto symmetric tensors
    op = OPS["flip2"]
    proj = staircase_projector(op.R, 3, ONE, 2)
    assert proj * proj == proj
    assert echelonize(proj.data, 8).dim == comb(2 + 3 - 1, 3)
