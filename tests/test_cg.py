"""Clebsch-Gordan values against the closed Racah sum, and the CG route."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import block, racah_cg_signed_square, reference_equivalence_ratio, spin

from poincarerep import cg
from poincarerep.cg import (
    RatioFit,
    RatioMismatch,
    _cg_table,
    cg_block,
    cg_vector_matrices,
    clebsch_gordan,
    equivalence_ratio,
)
from poincarerep.generators import direct_sum
from poincarerep.matrix import Matrix
from poincarerep.radical import ONE, ZERO, RadicalScalar, sqrt_of_rational
from poincarerep.spins import SpinPair
from poincarerep.vectors import (
    CaseTag,
    FreeParams,
    NoSolutionError,
    VectorSet,
    classify_case,
    closed_form_vectors,
    pattern_vectors,
)
from poincarerep.verify import check_vector_rules

UNIT_PARAMS = FreeParams(ONE, ONE)


def _signed_square(value: RadicalScalar) -> tuple[int, Fraction]:
    sq = value * value
    terms = sq.terms
    if not terms:
        return 0, Fraction(0)
    assert set(terms) == {1} and terms[1][1] == 0, "CG value must be +/- sqrt(rational)"
    mag = terms[1][0]
    # sign of the value itself: inspect its single term's rational coefficient
    ((d, (re, im)),) = value.terms.items()
    assert im == 0, "CG values are real"
    return (1 if re > 0 else -1), mag


class TestClebschGordan:
    def test_stretched_state(self):
        assert clebsch_gordan(
            spin(1), 1, spin(1), 1, spin(2), 2
        ) == ONE

    def test_lowered_once(self):
        # <1/2 1/2, 1/2 -1/2 | 1 0> = sqrt(2)/2
        val = clebsch_gordan(
            spin(1), 1, spin(1), -1, spin(2), 0
        )
        assert val == sqrt_of_rational(Fraction(1, 2))

    def test_coupling_with_scalar(self):
        assert clebsch_gordan(
            spin(1), 1, spin(0), 0, spin(1), 1
        ) == ONE

    def test_singlet_signs(self):
        plus = clebsch_gordan(
            spin(1), 1, spin(1), -1, spin(0), 0
        )
        minus = clebsch_gordan(
            spin(1), -1, spin(1), 1, spin(0), 0
        )
        assert plus == sqrt_of_rational(Fraction(1, 2))
        assert minus == -sqrt_of_rational(Fraction(1, 2))

    def test_selection_rules_zero(self):
        assert clebsch_gordan(
            spin(1), 1, spin(1), 1, spin(2), 0
        ).is_zero()
        assert clebsch_gordan(
            spin(1), 1, spin(1), -1, spin(4), 0
        ).is_zero()

    def test_exhaustive_against_racah_sum(self):
        for tj1, tj2 in itertools.product(range(5), repeat=2):
            for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                for tm1 in range(-tj1, tj1 + 1, 2):
                    for tm2 in range(-tj2, tj2 + 1, 2):
                        tM = tm1 + tm2
                        if abs(tM) > tJ:
                            continue
                        val = clebsch_gordan(
                            spin(tj1), tm1, spin(tj2), tm2,
                            spin(tJ), tM,
                        )
                        want = racah_cg_signed_square(tj1, tm1, tj2, tm2, tJ, tM)
                        if val.is_zero():
                            assert want == (0, Fraction(0))
                        else:
                            assert _signed_square(val) == want

    def test_orthogonality(self):
        for tj1, tj2 in itertools.product(range(5), repeat=2):
            couplings = list(range(abs(tj1 - tj2), tj1 + tj2 + 1, 2))
            for tJ, tJp in itertools.product(couplings, repeat=2):
                for tM in range(-min(tJ, tJp), min(tJ, tJp) + 1, 2):
                    acc = ZERO
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        tm2 = tM - tm1
                        if abs(tm2) > tj2:
                            continue
                        acc = acc + clebsch_gordan(
                            spin(tj1), tm1, spin(tj2), tm2,
                            spin(tJ), tM,
                        ) * clebsch_gordan(
                            spin(tj1), tm1, spin(tj2), tm2,
                            spin(tJp), tM,
                        )
                    expected = ONE if tJ == tJp else ZERO
                    assert acc == expected, (tj1, tj2, tJ, tJp, tM)

    def test_table_cache_is_bounded(self):
        bound = _cg_table.cache_info().maxsize
        assert bound is not None
        table = dict(_cg_table(4, 3, 3))
        assert table
        for tJ in range(9, 9 + 2 * (bound + 100), 2):
            assert _cg_table(4, 3, tJ) == {}  # tJ > tj1 + tj2: no coupling
        assert _cg_table.cache_info().currsize <= bound
        assert _cg_table(4, 3, 3) == table


class TestCouplingBlocks:
    def test_zero_scale_gives_zero(self):
        spins = (SpinPair(spin(0), spin(1)), SpinPair(spin(1), spin(0)))
        vec = pattern_vectors(
            spins, UNIT_PARAMS,
            cg_block(spin(0), spin(1), spin(1), spin(0), ZERO),
            cg_block(spin(1), spin(0), spin(0), spin(1), ZERO),
        )
        assert all(m.is_zero() for m in vec.families)

    def test_triangle_rule_kills_distant_spins(self):
        # (0,0)+(3/2,1/2): every pattern cell has its column, but each entry
        # holds <1/2 m, 3/2 r|0 0> or <1/2 m, 0 0|3/2 r>, zero by the triangle rule.
        asked = Counter()

        def counted(coeff, which):
            def wrapper(*args):
                asked[which] += 1
                return coeff(*args)
            return wrapper

        A, B, C, D = spin(0), spin(0), spin(3), spin(1)
        vec = pattern_vectors(
            (SpinPair(A, B), SpinPair(C, D)), UNIT_PARAMS,
            counted(cg_block(A, B, C, D, ONE), "12"),
            counted(cg_block(C, D, A, B, ONE), "21"),
        )
        assert asked == {"12": 4, "21": 4}
        assert all(m.is_zero() for m in vec.families)

    def test_weyl_t_block_is_multiple_of_identity(self):
        # (1/2,0)+(0,1/2): both couplings collapse to singlet factors, so
        # the t component's 21-block is a multiple of the identity pattern.
        spins = (SpinPair(spin(1), spin(0)), SpinPair(spin(0), spin(1)))
        weyl = pattern_vectors(
            spins, UNIT_PARAMS,
            cg_block(spin(1), spin(0), spin(0), spin(1), ZERO),
            cg_block(spin(0), spin(1), spin(1), spin(0), ONE),
        )
        assert all(part.is_zero() for part in block(weyl, "12"))
        bt = weyl.component("t").submatrix(2, 4, 0, 2)
        half = RadicalScalar.from_rational(Fraction(1, 2))
        assert bt.get(0, 0) == half
        assert bt.get(1, 1) == half
        assert bt.nnz() == 2

    def test_rules_hold_for_unfitted_scale(self):
        for q in [(1, 1, 0, 0), (1, 0, 0, 1), (2, 1, 1, 0), (1, 2, 2, 1)]:
            A, B, C, D = (spin(t) for t in q)
            g = direct_sum(SpinPair(A, B), SpinPair(C, D))
            beta = cg_vector_matrices(A, B, C, D, UNIT_PARAMS)
            assert all(r.holds for r in check_vector_rules(g, beta)), q

    def test_no_solution_raises(self):
        with pytest.raises(NoSolutionError):
            cg_vector_matrices(spin(2), spin(0), spin(0), spin(0), UNIT_PARAMS)


class TestEquivalenceRatio:
    def test_identical_sets(self):
        v = closed_form_vectors(spin(1), spin(1), spin(0), spin(0), UNIT_PARAMS)
        fit = equivalence_ratio(v, v)
        assert isinstance(fit, RatioFit)
        assert fit.ratio12 == ONE and fit.ratio21 == ONE

    def test_case2_ratio_is_sqrt_2b_plus_1(self):
        for ta, tb in ((1, 0), (2, 1), (3, 2), (2, 3)):
            A, B = spin(ta), spin(tb)
            C, D = spin(ta - 1), spin(tb + 1)
            assert classify_case(A, B, C, D) is CaseTag.CASE_2
            v = closed_form_vectors(A, B, C, D, UNIT_PARAMS)
            beta = cg_vector_matrices(A, B, C, D, UNIT_PARAMS)
            fit = equivalence_ratio(v, beta)
            assert isinstance(fit, RatioFit)
            assert fit.ratio12 == sqrt_of_rational(tb + 1), (ta, tb)

    def test_ratio_constant_across_all_cases(self):
        for q in [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (2, 1, 1, 2), (1, 2, 0, 1)]:
            A, B, C, D = (spin(t) for t in q)
            v = closed_form_vectors(A, B, C, D, UNIT_PARAMS)
            beta = cg_vector_matrices(A, B, C, D, UNIT_PARAMS)
            fit = equivalence_ratio(v, beta)
            assert isinstance(fit, RatioFit), q
            scaled = {
                mu: beta.component(mu) for mu in "xyzt"
            }
            n1, n = v.block1_dim, v.dimension
            for mu in "xyzt":
                b12 = scaled[mu].submatrix(0, n1, n1, n).scale(fit.ratio12)
                assert b12 == v.component(mu).submatrix(0, n1, n1, n)

    def test_corrupted_entry_reported(self):
        v = closed_form_vectors(spin(1), spin(1), spin(0), spin(0), UNIT_PARAMS)
        beta = cg_vector_matrices(spin(1), spin(1), spin(0), spin(0), UNIT_PARAMS)
        broken_vx = beta.component("x") + _unit_matrix_entry(beta.dimension, 0, 4)
        broken = VectorSet.from_cartesian(
            beta.spins, beta.params, (broken_vx, *beta.components()[1:])
        )
        fit = equivalence_ratio(v, broken)
        assert isinstance(fit, RatioMismatch)
        assert (fit.block, fit.row, fit.col) == ("12", 0, 0)

    def test_scaled_lambda_pre_matches(self):
        # scaling lambda12 by the fitted ratio makes the 12-blocks equal
        A, B, C, D = spin(1), spin(0), spin(0), spin(1)
        v = closed_form_vectors(A, B, C, D, UNIT_PARAMS)
        fit = equivalence_ratio(v, cg_vector_matrices(A, B, C, D, UNIT_PARAMS))
        beta = cg_vector_matrices(A, B, C, D, FreeParams(fit.ratio12, fit.ratio21))
        assert all(beta.component(mu) == v.component(mu) for mu in "xyzt")

    def test_ratio_is_fitted_at_the_first_cartesian_entry(self):
        # Doubling the candidate's first V_x entry halves the fitted ratio, so
        # every other entry mismatches and the doubled one does not.
        A, B, C, D = spin(2), spin(1), spin(1), spin(2)
        v = closed_form_vectors(A, B, C, D, UNIT_PARAMS)
        beta = cg_vector_matrices(A, B, C, D, UNIT_PARAMS)
        vx = beta.component("x")
        row, col, val = vx.first_nonzero()
        doubled = vx + _unit_matrix_entry(beta.dimension, row, col).scale(val)
        comps = (doubled, *beta.components()[1:])
        broken = VectorSet.from_cartesian(beta.spins, beta.params, comps)
        fit = equivalence_ratio(v, broken)
        assert fit == reference_equivalence_ratio(v, broken)
        assert isinstance(fit, RatioMismatch) and (fit.block, fit.component) == ("12", "x")
        assert (fit.row, fit.col) != (row, col - beta.block1_dim)

    def test_multi_term_candidate_cannot_be_fitted(self):
        A, B, C, D = spin(2), spin(1), spin(1), spin(2)
        v = closed_form_vectors(A, B, C, D, UNIT_PARAMS)
        lams = FreeParams(sqrt_of_rational(2) + sqrt_of_rational(3), ONE)
        beta = cg_vector_matrices(A, B, C, D, lams)
        for fit in (equivalence_ratio, reference_equivalence_ratio):
            with pytest.raises(ValueError, match="no single-term entries"):
                fit(v, beta)


    def test_sets_of_different_spins_cannot_be_fitted(self):
        v = closed_form_vectors(spin(1), spin(0), spin(0), spin(1), UNIT_PARAMS)
        w = closed_form_vectors(spin(0), spin(1), spin(1), spin(0), UNIT_PARAMS)
        with pytest.raises(ValueError, match="different representations"):
            equivalence_ratio(v, w)

class TestCellFit:
    """The fit compares stored cells and forms a residual only where one differs."""

    DRESSED = FreeParams(
        RadicalScalar.from_terms([(6, Fraction(3, 4), 0), (10, 0, Fraction(2, 5))]),
        RadicalScalar.from_terms([(3, Fraction(-5, 7), 0), (14, 0, Fraction(1, 3))]),
    )

    @staticmethod
    def _spied(monkeypatch):
        calls = []
        combine = cg.linear_combination
        monkeypatch.setattr(cg, "linear_combination", lambda terms: calls.append(1) or combine(terms))
        return calls

    @staticmethod
    def _edited(vec, mu, row, col, value):
        comps = list(vec.components())
        k = "xyzt".index(mu)
        entries = {(r, c): v for r, c, v in comps[k].nonzero_items()}
        assert (row, col) not in entries
        entries[row, col] = value
        comps[k] = Matrix.from_entries(vec.dimension, vec.dimension, entries)
        return VectorSet.from_cartesian(vec.spins, vec.params, tuple(comps))

    def test_a_proportional_pair_forms_no_residual(self, monkeypatch):
        calls = self._spied(monkeypatch)
        for q in [(1, 1, 0, 0), (2, 1, 1, 2), (4, 5, 5, 4), (3, 2, 2, 1)]:
            spins = tuple(spin(t) for t in q)
            v = closed_form_vectors(*spins, self.DRESSED)
            fit = equivalence_ratio(v, cg_vector_matrices(*spins, UNIT_PARAMS))
            assert isinstance(fit, RatioFit), q
        assert calls == []

    def test_a_cell_one_side_holds_is_a_mismatch(self, monkeypatch):
        # A 12-block cell that no family holds, given a V_y entry on one side
        # only: the reference's (ref-only) or the candidate's (cand-only).
        spins = (spin(2), spin(1), spin(1), spin(2))
        v = closed_form_vectors(*spins, UNIT_PARAMS)
        beta = cg_vector_matrices(*spins, UNIT_PARAMS)
        n1 = v.block1_dim
        row, col = next(
            (r, c) for r in range(n1) for c in range(n1, v.dimension)
            if not any(fam.get(r, c) for fam in v.families)
        )
        extra = sqrt_of_rational(2)
        calls = self._spied(monkeypatch)
        for ref, cand in ((self._edited(v, "y", row, col, extra), beta),
                          (v, self._edited(beta, "y", row, col, extra))):
            fit = equivalence_ratio(ref, cand)
            assert isinstance(fit, RatioMismatch)
            assert fit == reference_equivalence_ratio(ref, cand)
        assert calls

    def test_a_zero_ratio_block(self):
        # t12 = 0 zeroes the reference's 12-block: the ratio is 0, which fits
        # only while the reference block stays all zero.
        spins = (spin(2), spin(1), spin(1), spin(2))
        v = closed_form_vectors(*spins, FreeParams(ZERO, ONE))
        beta = cg_vector_matrices(*spins, UNIT_PARAMS)
        fit = equivalence_ratio(v, beta)
        assert isinstance(fit, RatioFit) and fit.ratio12 == ZERO
        assert fit == reference_equivalence_ratio(v, beta)
        n1, n = v.block1_dim, v.dimension
        row, col, _ = beta.component("z").window(0, n1, n1, n).first_nonzero()
        edited = self._edited(v, "z", row, col, ONE)
        assert equivalence_ratio(edited, beta) == reference_equivalence_ratio(edited, beta)
        assert isinstance(equivalence_ratio(edited, beta), RatioMismatch)


# 0-3 terms over small radicands: zero, single-term and multi-term values.
_scalar = st.lists(
    st.tuples(
        st.sampled_from([1, 2, 3, 5, 6]),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    ),
    max_size=3,
).map(RadicalScalar.from_terms)


@st.composite
def equiv_pairs(draw):
    """(closed-form reference, CG candidate) of an admissible quadruple with doubled spins <= 4."""
    a, b = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    c = draw(st.sampled_from([x for x in (a - 1, a + 1) if 0 <= x <= 4]))
    d = draw(st.sampled_from([x for x in (b - 1, b + 1) if 0 <= x <= 4]))
    spins = tuple(spin(t) for t in (a, b, c, d))
    ts, lams = (FreeParams(draw(_scalar), draw(_scalar)) for _ in range(2))
    return closed_form_vectors(*spins, ts), cg_vector_matrices(*spins, lams)


@st.composite
def cartesian_edits(draw, vec):
    """vec with 1-3 entries of the off-diagonal blocks of its V_x ... V_t replaced."""
    n1, n = vec.block1_dim, vec.dimension
    comps = list(vec.components())
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, 3))
        cells = st.one_of(
            st.tuples(st.integers(0, n1 - 1), st.integers(n1, n - 1)),
            st.tuples(st.integers(n1, n - 1), st.integers(0, n1 - 1)),
        )
        entries = {(r, c): v for r, c, v in comps[k].nonzero_items()}
        if entries:  # the first entry is where the ratio is fitted
            nonzero = sorted(entries)
            cells = st.one_of(st.just(nonzero[0]), st.sampled_from(nonzero), cells)
        entries[draw(cells)] = draw(_scalar)
        comps[k] = Matrix.from_entries(n, n, entries)
    return VectorSet.from_cartesian(vec.spins, vec.params, tuple(comps))


def _outcome(fit, reference, candidate):
    try:
        return fit(reference, candidate)
    except ValueError as exc:
        return ("ValueError", str(exc))


class TestAgainstCartesianRatio:
    """The fit, verdict, mismatch report and error equal those of the Cartesian oracle."""

    @given(equiv_pairs(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_generated_and_edited_pairs(self, pair, data):
        v, beta = pair
        for candidate in (beta, data.draw(cartesian_edits(beta))):
            assert _outcome(equivalence_ratio, v, candidate) == _outcome(
                reference_equivalence_ratio, v, candidate
            )


def _unit_matrix_entry(n, i, j):
    return Matrix.from_entries(n, n, {(i, j): ONE})
