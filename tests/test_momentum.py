"""Momentum matrices: block zeroing, commutativity, and the failure witness."""

import itertools
from fractions import Fraction

import pytest
from oracles import block, conjugate_transpose, free_params, from_blocks, spin

from poincarerep.bundle import SOURCES, MatrixBundle, load_bundle, save_bundle, vectors_from_source
from poincarerep.matrix import Matrix, commutator
from poincarerep.momentum import (
    momentum_from_vectors,
    noncommutativity_witness,
    translation_combination,
)
from poincarerep.radical import I_UNIT, ONE, ZERO, RadicalScalar, sqrt_of_rational
from poincarerep.spins import SpinPair
from poincarerep.vectors import BLOCKS, CaseTag, FreeParams, VectorSet, classify_case, closed_form_vectors
from poincarerep.verify import check_translations

UNIT = FreeParams(ONE, ONE)


def test_keep12_is_strictly_upper_block_and_commutes():
    v = closed_form_vectors(spin(1), spin(1), spin(0), spin(0), UNIT)
    p = momentum_from_vectors(v, "keep12")
    assert p.block == "keep12"
    n1, n = p.block1_dim, p.dimension
    for mat in p.components():
        assert mat.submatrix(n1, n, 0, n1).is_zero()
        assert mat.submatrix(0, n1, 0, n1).is_zero()
        assert mat.submatrix(n1, n, n1, n).is_zero()
    for m1, m2 in itertools.combinations(p.components(), 2):
        assert commutator(m1, m2).is_zero()
    assert all(r.holds for r in check_translations(p))


@pytest.mark.parametrize("kept", ["keep13", "both", "12", None])
def test_only_keep12_or_keep21_names_a_momentum_set(kept):
    v = closed_form_vectors(spin(1), spin(1), spin(0), spin(0), UNIT)
    with pytest.raises(ValueError) as err:
        momentum_from_vectors(v, kept)
    assert str(err.value) == f"block must be keep12 or keep21, not {kept!r}"


def test_zero_vectors_give_zero_momentum():
    v = closed_form_vectors(spin(1), spin(0), spin(0), spin(1), FreeParams(ZERO, ZERO))
    p = momentum_from_vectors(v, "keep21")
    assert all(m.is_zero() for m in p.components())


def test_keep21_equals_keep12_of_swapped_representation():
    A, B, C, D = spin(2), spin(1), spin(1), spin(0)
    v = closed_form_vectors(A, B, C, D, free_params(5, 7))
    w = closed_form_vectors(C, D, A, B, free_params(7, 5))
    p21 = momentum_from_vectors(v, "keep21")
    q12 = momentum_from_vectors(w, "keep12")
    n1 = v.block1_dim
    n = v.dimension
    entries = {(n - n1 + i, i): ONE for i in range(n1)}
    entries.update({(j, n1 + j): ONE for j in range(n - n1)})
    perm = Matrix.from_entries(n, n, entries)
    inv = conjugate_transpose(perm)
    for mu in "xyzt":
        assert perm @ p21.component(mu) @ inv == q12.component(mu)


def _expected_witness(A, B, t12, t21):
    """-(A*b + a*B)/sqrt(A*B) * t12 * t21 on the (a,b) diagonal."""
    pair = SpinPair(A, B)
    entries = {}
    inv_root = sqrt_of_rational(Fraction(A.twice * B.twice, 4)).reciprocal_single()
    for idx, (a, b) in enumerate(pair.basis()):
        coeff = RadicalScalar.from_rational(Fraction(A.twice * b + a * B.twice, 4))
        entries[idx, idx] = -(coeff * inv_root) * t12 * t21
    return Matrix.from_entries(pair.dimension, pair.dimension, entries)


def test_witness_matches_closed_form_for_vector_rep():
    A, B, C, D = spin(1), spin(1), spin(0), spin(0)
    v = closed_form_vectors(A, B, C, D, UNIT)
    got = noncommutativity_witness(v)
    assert got == _expected_witness(A, B, ONE, ONE)
    # top corner is -2 sqrt(AB) = -1 at A = B = 1/2
    assert got.get(0, 0) == RadicalScalar.from_rational(-1)


def test_witness_scales_with_parameters_and_vanishes_at_zero():
    A, B, C, D = spin(2), spin(1), spin(1), spin(0)
    t12 = RadicalScalar.from_rational(Fraction(2, 3))
    t21 = sqrt_of_rational(5)
    v = closed_form_vectors(A, B, C, D, FreeParams(t12, t21))
    assert noncommutativity_witness(v) == _expected_witness(A, B, t12, t21)
    v0 = closed_form_vectors(A, B, C, D, FreeParams(ZERO, t21))
    assert noncommutativity_witness(v0).is_zero()


def test_translations_fail_with_both_blocks():
    v = closed_form_vectors(spin(1), spin(1), spin(0), spin(0), UNIT)
    reports = check_translations(v)
    assert not all(r.holds for r in reports)


def test_nilpotency_of_translation_combination():
    for q in [(1, 1, 0, 0), (1, 0, 0, 1), (2, 1, 1, 2)]:
        A, B, C, D = (spin(t) for t in q)
        v = closed_form_vectors(A, B, C, D, UNIT)
        for choice in BLOCKS[1:]:
            p = momentum_from_vectors(v, choice)
            x = translation_combination(p, (1, 2, 3, 4))
            assert (x @ x).is_zero()


@pytest.mark.parametrize("x", [(1, 2, 3), (1, 2, 3, 4, 5)])
def test_translation_combination_needs_four_weights(x):
    # The weights are zipped with P_x, P_y, P_z, P_t: three would drop P_t,
    # and a fifth would be ignored.
    p = momentum_from_vectors(closed_form_vectors(spin(1), spin(0), spin(0), spin(1), UNIT), "keep12")
    with pytest.raises(ValueError, match=f"x needs 4 entries \\(x, y, z, t\\), not {len(x)}"):
        translation_combination(p, x)


@pytest.mark.parametrize("source", SOURCES)
def test_momentum_set_is_its_block_placed_alone(source, tmp_path):
    # For a built set, the same set loaded from a bundle, and the set with a
    # stray entry in each diagonal block, a momentum set is the kept block
    # taken out and placed again with the other block zero.
    params = FreeParams(sqrt_of_rational(3) + I_UNIT, RadicalScalar.from_rational(Fraction(-2, 5)))
    path = str(tmp_path / "b.json")
    count = 0
    for q in itertools.product(range(3), repeat=4):
        spins = tuple(spin(t) for t in q)
        if classify_case(*spins) is CaseTag.NO_SOLUTION:
            continue
        vec = vectors_from_source(source, spins, params)
        save_bundle(MatrixBundle.of(source, vec), path)
        loaded = load_bundle(path).vectors
        n1, n = vec.block1_dim, vec.dimension
        plus, *rest = vec.families
        stray = Matrix.from_entries(n, n, {(0, 0): ONE, (n - 1, n1): I_UNIT})
        strayed = VectorSet(vec.spins, vec.params, (plus + stray, *rest))
        for choice, which in (("keep12", "12"), ("keep21", "21")):
            want = momentum_from_vectors(vec, choice)
            assert want.block == choice
            for v in (vec, loaded, strayed):
                kept = block(v, which)
                b12, b21 = (kept, None) if which == "12" else (None, kept)
                got = momentum_from_vectors(v, choice)
                assert got == from_blocks(v.spins, v.params, b12, b21, block=choice), (q, which)
                assert got == want, (q, which)
        count += 1
    assert count == 16
