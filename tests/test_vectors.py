"""Vector matrices: case selection, closed forms, and the recursion oracle."""

import itertools
from fractions import Fraction

import pytest
from oracles import block, conjugate_transpose, free_params, from_blocks, racah_cg_signed_square, spin

from poincarerep import matrix
from poincarerep.bundle import SOURCES, vectors_from_source
from poincarerep.generators import direct_sum, ladder_coeff_s
from poincarerep.matrix import Matrix, change_basis
from poincarerep.momentum import momentum_from_vectors
from poincarerep.radical import I_UNIT, ONE, ZERO, RadicalScalar, sqrt_of_rational
from poincarerep.spins import SpinPair
from poincarerep.vectors import (
    BLOCKS,
    FAMILIES,
    CaseTag,
    FreeParams,
    NoSolutionError,
    FAMILY_INVERSE,
    VectorSet,
    _one_spin,
    cartesian_entry,
    classify_case,
    closed_form_vectors,
    pattern_vectors,
    recursion_solve,
    vectors_from_coefficients,
)

UNIT = FreeParams(ONE, ONE)


def quads(bound: int):
    for t in itertools.product(range(bound + 1), repeat=4):
        yield tuple(spin(x) for x in t)


def admissible(bound: int):
    for q in quads(bound):
        if classify_case(*q) is not CaseTag.NO_SOLUTION:
            yield q


class TestClassifyCase:
    def test_case1(self):
        assert classify_case(spin(1), spin(1), spin(0), spin(0)) is CaseTag.CASE_1

    def test_case2(self):
        assert classify_case(spin(1), spin(0), spin(0), spin(1)) is CaseTag.CASE_2

    def test_case3_case4(self):
        assert classify_case(spin(0), spin(1), spin(1), spin(0)) is CaseTag.CASE_3
        assert classify_case(spin(0), spin(0), spin(1), spin(1)) is CaseTag.CASE_4

    def test_distant_spins_rejected(self):
        assert classify_case(spin(2), spin(0), spin(0), spin(0)) is CaseTag.NO_SOLUTION

    def test_equal_spins_rejected(self):
        assert classify_case(spin(1), spin(1), spin(1), spin(1)) is CaseTag.NO_SOLUTION

    def test_exactly_one_tag_per_quadruple(self):
        for q in quads(3):
            tag = classify_case(*q)
            da = q[0].twice - q[2].twice
            db = q[1].twice - q[3].twice
            if abs(da) == 1 and abs(db) == 1:
                assert tag in {
                    CaseTag.CASE_1, CaseTag.CASE_2, CaseTag.CASE_3, CaseTag.CASE_4
                }
            else:
                assert tag is CaseTag.NO_SOLUTION


class TestClosedForm:
    def test_no_solution_raises_with_rule_named(self):
        with pytest.raises(NoSolutionError, match=r"A = C \+/- 1/2"):
            closed_form_vectors(spin(2), spin(0), spin(0), spin(0), UNIT)
        for source in SOURCES:
            with pytest.raises(NoSolutionError, match=r"A = C \+/- 1/2"):
                vectors_from_source(source, (spin(2), spin(0), spin(0), spin(0)), UNIT)

    def test_one_spin_factor_is_a_signed_clebsch_gordan(self):
        # f(X, Y, x, s) = s <1/2 s/2, Y y|X x>, times sqrt(2Y+1) when
        # X = Y - 1/2, with y = x - s/2: the closed form is Lyubarskii's
        # product of two CG coefficients, checked against the Racah sum.
        cases = 0
        for tX in range(11):
            for tY in (tX - 1, tX + 1):
                for tx, s in itertools.product(range(-tX, tX + 1, 2), (1, -1)):
                    if tY < 0 or abs(tx - s) > tY:
                        continue  # no such column
                    sign, square = racah_cg_signed_square(1, s, tY, tx - s, tX, tx)
                    if tX < tY:
                        square *= tY + 1
                    den, table = _one_spin(spin(tX), spin(tY))
                    signed = table[tx, s]
                    assert Fraction(abs(signed), den) == square
                    assert (-1 if signed < 0 else 1) == s * sign
                    cases += 1
        assert cases == 242

    def test_case1_vector_rep_plus_entry(self):
        # (1/2,1/2)+(0,0): V+ has a single 12-entry 1 at row (1/2,1/2), col (0,0)
        v = closed_form_vectors(spin(1), spin(1), spin(0), spin(0), UNIT)
        plus = v.families[0]
        assert plus.get(0, 4) == ONE
        assert plus.submatrix(0, 4, 4, 5).nnz() == 1

    def test_case1_larger_plus_entry(self):
        # (1,1/2)+(1/2,0): V+ at rows (a,b)=(0,1/2), cols (c,d)=(-1/2,0) is sqrt(2)/2
        A, B, C, D = spin(2), spin(1), spin(1), spin(0)
        v = closed_form_vectors(A, B, C, D, UNIT)
        plus = v.families[0]
        row = SpinPair(A, B).basis().index((0, 1))
        col = v.block1_dim + SpinPair(C, D).basis().index((-1, 0))
        assert plus.get(row, col) == sqrt_of_rational(Fraction(1, 2))

    def test_zero_parameters_give_zero(self):
        v = closed_form_vectors(
            spin(1), spin(0), spin(0), spin(1), FreeParams(ZERO, ZERO)
        )
        assert all(m.is_zero() for m in v.components())

    def test_linearity_in_t12(self):
        lam = RadicalScalar.from_rational(3) + sqrt_of_rational(5).times_i()
        base = closed_form_vectors(spin(2), spin(1), spin(1), spin(2), UNIT)
        scaled = closed_form_vectors(
            spin(2), spin(1), spin(1), spin(2), FreeParams(lam, ONE)
        )
        n1 = base.block1_dim
        n = base.dimension
        for mu in "xyzt":
            got, ref = scaled.component(mu), base.component(mu)
            assert got.submatrix(0, n1, n1, n) == ref.submatrix(0, n1, n1, n).scale(lam)
            assert got.submatrix(n1, n, 0, n1) == ref.submatrix(n1, n, 0, n1)

    def test_block_sparsity(self):
        for q in admissible(3):
            v = closed_form_vectors(*q, UNIT)
            n1, n = v.block1_dim, v.dimension
            plus = v.families[0]
            for mat in v.components():
                assert mat.submatrix(0, n1, 0, n1).is_zero()
                assert mat.submatrix(n1, n, n1, n).is_zero()
            basis1 = v.spins[0].basis()
            basis2 = v.spins[1].basis()
            for i, j, _ in plus.submatrix(0, n1, n1, n).nonzero_items():
                (a, b), (c, d) = basis1[i], basis2[j]
                assert a - c == 1 and b - d == 1

    def test_case_swap_symmetry(self):
        # Conjugating by the block-swap permutation maps (A,B,C,D; t12,t21)
        # onto (C,D,A,B; t21,t12): cases 1<->4 and 2<->3.
        for q in admissible(2):
            A, B, C, D = q
            v = closed_form_vectors(A, B, C, D, free_params(2, 3))
            w = closed_form_vectors(C, D, A, B, free_params(3, 2))
            n1 = v.block1_dim
            n = v.dimension
            # old block1 -> rows after block2
            entries = {(n - n1 + i, i): ONE for i in range(n1)}
            entries.update({(j, n1 + j): ONE for j in range(n - n1)})
            perm = Matrix.from_entries(n, n, entries)
            inv = conjugate_transpose(perm)
            for mu in "xyzt":
                assert perm @ v.component(mu) @ inv == w.component(mu)
            swap = {
                CaseTag.CASE_1: CaseTag.CASE_4,
                CaseTag.CASE_2: CaseTag.CASE_3,
                CaseTag.CASE_3: CaseTag.CASE_2,
                CaseTag.CASE_4: CaseTag.CASE_1,
            }
            assert w.case is swap[v.case]

    def test_diagonal_rules_hold(self):
        for q in [(1, 1, 0, 0), (2, 1, 1, 0), (1, 2, 2, 1)]:
            A, B, C, D = (spin(t) for t in q)
            g = direct_sum(SpinPair(A, B), SpinPair(C, D))
            v = closed_form_vectors(A, B, C, D, UNIT)
            jz, kz = g.J[2], g.K[2]
            vx, vy = v.component("x"), v.component("y")
            assert (jz @ vx - vx @ jz) == vy.times_i()
            assert (jz @ vy - vy @ jz) == vx.times_i().scale(-1)
            assert (kz @ vx - vx @ kz).is_zero()


class TestRecursionSolver:
    def test_case1_a_step_ratio(self):
        # t(0,b) / t(A,b) = sqrt(A+a)/sqrt(2A) = sqrt(2)/2 at A = 1, a = 0
        coeffs = recursion_solve(spin(2), spin(1), spin(1), spin(0), UNIT)
        expected = sqrt_of_rational(Fraction(1, 2))
        assert coeffs.t12[(0, 1)] == coeffs.t12[(2, 1)] * expected

    def test_case2_b_step_ratio(self):
        # t(a, B-1) = sqrt(2) t(a, B) in case 2, independent of A
        for ta, tb in ((1, 2), (3, 2), (2, 3)):
            coeffs = recursion_solve(
                spin(ta), spin(tb), spin(ta - 1), spin(tb + 1), UNIT
            )
            top = coeffs.t12[(ta, tb)]
            below = coeffs.t12[(ta, tb - 2)]
            assert below == top * sqrt_of_rational(2)

    def test_case1_u_anchor_sign(self):
        coeffs = recursion_solve(spin(1), spin(1), spin(0), spin(0), UNIT)
        assert coeffs.u12[(-1, -1)] == -ONE

    def test_case2_u_anchor_sign(self):
        coeffs = recursion_solve(spin(1), spin(0), spin(0), spin(1), UNIT)
        assert coeffs.u12[(-1, 0)] == ONE

    def test_u_coefficients_obey_the_lowering_recursion(self):
        # ups is built as tau reflected through the origin; check it against
        # its own recursion: u(p+1, q) = u(p, q) s^R_(r+1) / s^P_(p+1), likewise
        # in q, anchored at the bottom of its ranges.
        for A, B, C, D in admissible(3):
            coeffs = recursion_solve(A, B, C, D, free_params(3, 5))
            for P, Q, R, S, ups, anchor in (
                (A, B, C, D, coeffs.u12, 3), (C, D, A, B, coeffs.u21, 5)
            ):
                plo, phi = max(-P.twice, -R.twice - 1), min(P.twice, R.twice - 1)
                qlo, qhi = max(-Q.twice, -S.twice - 1), min(Q.twice, S.twice - 1)
                assert set(ups) == set(
                    itertools.product(range(plo, phi + 1, 2), range(qlo, qhi + 1, 2))
                )
                same = (P.twice - R.twice) == (Q.twice - S.twice)
                assert ups[(plo, qlo)] == RadicalScalar.from_rational(-anchor if same else anchor)
                for (p, q), val in ups.items():
                    if (p + 2, q) in ups:
                        step = ladder_coeff_s(R, p + 3) / ladder_coeff_s(P, p + 2)
                        assert ups[(p + 2, q)] == val * step, (A, B, C, D, p, q)
                    if (p, q + 2) in ups:
                        step = ladder_coeff_s(S, q + 3) / ladder_coeff_s(Q, q + 2)
                        assert ups[(p, q + 2)] == val * step, (A, B, C, D, p, q)

    def test_index_ranges_respected(self):
        coeffs = recursion_solve(spin(2), spin(1), spin(1), spin(2), UNIT)
        A, B, C, D = 2, 1, 1, 2
        for (pa, pb) in coeffs.t12:
            assert max(-A, -C + 1) <= pa <= min(A, C + 1)
            assert max(-B, -D + 1) <= pb <= min(B, D + 1)
        for (pa, pb) in coeffs.u12:
            assert max(-A, -C - 1) <= pa <= min(A, C - 1)
            assert max(-B, -D - 1) <= pb <= min(B, D - 1)

    def test_zero_coefficients_give_zero_set(self):
        coeffs = recursion_solve(
            spin(1), spin(1), spin(0), spin(0), FreeParams(ZERO, ZERO)
        )
        v = vectors_from_coefficients(coeffs)
        assert all(m.is_zero() for m in v.components())

    def test_oracle_equivalence_vector_rep(self):
        q = (spin(1), spin(1), spin(0), spin(0))
        a = closed_form_vectors(*q, UNIT)
        b = vectors_from_coefficients(recursion_solve(*q, UNIT))
        assert all(a.component(mu) == b.component(mu) for mu in "xyzt")

    def test_oracle_equivalence_seven_dimensional(self):
        q = (spin(1), spin(1), spin(2), spin(0))  # case 3, 4+3 dimensions
        a = closed_form_vectors(*q, UNIT)
        b = vectors_from_coefficients(recursion_solve(*q, UNIT))
        assert a.dimension == 7
        assert all(a.component(mu) == b.component(mu) for mu in "xyzt")

    def test_oracle_equivalence_with_irrational_params(self):
        params = FreeParams(
            sqrt_of_rational(3) + I_UNIT, ONE - sqrt_of_rational(2).times_i()
        )
        for q in [(1, 0, 0, 1), (2, 1, 1, 2), (0, 1, 1, 0)]:
            A, B, C, D = (spin(t) for t in q)
            a = closed_form_vectors(A, B, C, D, params)
            b = vectors_from_coefficients(recursion_solve(A, B, C, D, params))
            assert all(a.component(mu) == b.component(mu) for mu in "xyzt")


def test_unsatisfiable_half_step_lattice():
    # For integral spin differences no index pair can differ by 1/2, which
    # is what forces the zero solution in those quadruples.
    for q in quads(2):
        if classify_case(*q) is not CaseTag.NO_SOLUTION:
            continue
        A, B, C, D = q
        da, db = A.twice - C.twice, B.twice - D.twice
        if abs(da) >= 3 or abs(db) >= 3:
            continue  # half-odd but distant: handled by the recursion argument
        a_vals = A.projections()
        c_vals = C.projections()
        b_vals = B.projections()
        d_vals = D.projections()
        for sign in (1, -1):
            pairs_a = any(a - c == sign for a in a_vals for c in c_vals)
            pairs_b = any(b - d == sign for b in b_vals for d in d_vals)
            assert not (pairs_a and pairs_b), q


class TestPatternBlock:
    def test_families_fill_the_delta_patterns(self):
        # Oracle: scan the full n x n grid for |p-r| = |q-s| = 1/2 between
        # the two irreps and combine the four families with Matrix arithmetic.
        for A, B, C, D in quads(2):
            spins = (SpinPair(A, B), SpinPair(C, D))
            asked = {}

            def asking(which):
                def coeff(dp, dq, p, q):
                    key = (which, dp, dq, p, q)
                    assert key not in asked
                    asked[key] = sqrt_of_rational(2) * (len(asked) + 1) + I_UNIT
                    return asked[key]
                return coeff

            vec = pattern_vectors(spins, UNIT, asking("12"), asking("21"))
            assert vec.spins == spins and vec.params == UNIT and vec.block == "both"
            basis = [("12", pq) for pq in spins[0].basis()] + [("21", rs) for rs in spins[1].basis()]
            families = {f: {} for f in FAMILIES}
            for i, (row_block, (p, q)) in enumerate(basis):
                for j, (col_block, (r, s)) in enumerate(basis):
                    dp, dq = p - r, q - s
                    if row_block != col_block and abs(dp) == 1 and abs(dq) == 1:
                        families[(dp, dq)][i, j] = asked.pop((row_block, dp, dq, p, q))
            assert not asked, (A, B, C, D)
            n1, n = spins[0].dimension, vec.dimension
            assert n == len(basis)
            for fam in vec.families:
                assert all((i < n1) != (j < n1) for i, j, _ in fam.nonzero_items()), (A, B, C, D)
            plus, minus, f_plus, f_minus = (Matrix.from_entries(n, n, families[f]) for f in FAMILIES)
            assert vec.families == (plus, minus, f_plus, f_minus), (A, B, C, D)
            assert vec.components() == (
                plus + minus,
                (plus - minus).times_i().scale(-1),
                f_plus + f_minus,
                f_plus - f_minus,
            ), (A, B, C, D)

    @pytest.mark.parametrize("source", SOURCES)
    def test_rows_are_written_in_stored_form(self, source):
        # The families are built from rows unchecked, so the placer itself
        # must drop the zero entries of a block whose parameter is 0.
        dressed = RadicalScalar.from_terms([(6, Fraction(3, 4), 0), (10, 0, Fraction(2, 5))])
        # Row irreps (1,1), (1/2,1/2), (3/2,1) and (1,3/2): integer, half-integer and mixed spins.
        quads = [(2, 2, 1, 1), (1, 1, 2, 2), (3, 2, 2, 1), (2, 3, 3, 4)]
        one_block = (free_params(0, dressed), free_params(dressed, 0))
        for quad, params in itertools.product(quads, one_block):
            vec = vectors_from_source(source, tuple(spin(t) for t in quad), params)
            assert any(not fam.is_zero() for fam in vec.families), (quad, params)
            for fam in vec.families:
                assert all(fam._rows.values()), (quad, params)
                assert all(v for row in fam._rows.values() for v in row.values()), (quad, params)
                entries = {(i, j): value for i, j, value in fam.nonzero_items()}
                assert fam == Matrix.from_entries(fam.rows, fam.cols, entries), (quad, params)
            zero = block(vec, "12" if params.t12 == 0 else "21")
            assert all(part.is_zero() for part in zero), (quad, params)

    @pytest.mark.parametrize("source", SOURCES)
    def test_equal_entries_are_one_object(self, source, monkeypatch):
        # Each distinct product is scaled once and shared, so the Cartesian
        # view maps each distinct value of each family once.
        params = free_params(
            _dressed(),
            RadicalScalar.from_terms([(3, Fraction(-5, 7), 0), (14, 0, Fraction(1, 3))]),
        )
        vec = vectors_from_source(source, tuple(spin(t) for t in (4, 5, 5, 4)), params)
        _assert_one_object_per_value(vec, monkeypatch)

    @pytest.mark.parametrize("source", SOURCES)
    def test_equal_entries_of_both_blocks_are_one_object(self, source, monkeypatch):
        # Each route keeps one memo for both blocks, keyed on t's integers:
        # at t12 = t21, given as two equal objects, an equal value of the
        # 12- and the 21-block is one object too.  In case 1, (3,2,2,1), the
        # closed form's two blocks have factor tables over different
        # denominators (2X 2Y against 4), and their equal values are shared
        # all the same.
        for doubled in ((4, 5, 5, 4), (3, 2, 2, 1)):
            vec = vectors_from_source(
                source, tuple(spin(t) for t in doubled), free_params(_dressed(), _dressed())
            )
            _assert_one_object_per_value(vec, monkeypatch)


def _dressed():
    return RadicalScalar.from_terms([(6, Fraction(3, 4), 0), (10, 0, Fraction(2, 5))])


def _assert_one_object_per_value(vec, monkeypatch):
    distinct = 0
    for fam in vec.families:
        values = [value for _, _, value in fam.nonzero_items()]
        by_integers = {(v._den, tuple(sorted(v._num.items()))) for v in values}
        assert len({id(v) for v in values}) == len(by_integers) < len(values)
        distinct += len(by_integers)
    calls = []
    map_cell = matrix._map_cell
    monkeypatch.setattr(matrix, "_map_cell", lambda *args: calls.append(1) or map_cell(*args))
    change_basis(FAMILY_INVERSE, vec.families)
    assert len(calls) == distinct


class TestFromBlocks:
    def test_rectangular_blocks_land_off_the_diagonal(self):
        spins = (SpinPair(spin(1), spin(1)), SpinPair(spin(0), spin(0)))  # n1 = 4, n2 = 1
        b12 = tuple(
            Matrix.from_entries(4, 1, {(i, 0): RadicalScalar.from_rational(10 * k + i + 1)
                                       for i in range(4)})
            for k in range(4)
        )
        b21 = tuple(
            Matrix.from_entries(1, 4, {(0, j): sqrt_of_rational(k + j + 2) for j in range(4)})
            for k in range(4)
        )
        vec = from_blocks(spins, UNIT, b12, b21)
        assert vec.dimension == 5 and vec.block == "both"
        for comp, p12, p21 in zip(vec.families, b12, b21):
            assert comp.rows == comp.cols == 5
            assert comp.nnz() == p12.nnz() + p21.nnz()
            for i in range(4):
                assert comp.get(i, 4) == p12.get(i, 0)
                assert comp.get(4, i) == p21.get(0, i)

    def test_none_block_stays_zero(self):
        spins = (SpinPair(spin(1), spin(1)), SpinPair(spin(0), spin(0)))
        b21 = tuple(Matrix.from_entries(1, 4, {(0, k): ONE}) for k in range(4))
        vec = from_blocks(spins, UNIT, None, b21, block="keep21")
        assert vec.block == "keep21"
        assert all(part.is_zero() for part in block(vec, "12"))
        assert block(vec, "21") == b21
        with pytest.raises(ValueError, match="block must be"):
            block(vec, "13")
        empty = from_blocks(spins, UNIT, None, None)
        assert all(comp.is_zero() for comp in empty.components())

    @pytest.mark.parametrize("source", SOURCES)
    def test_round_trip_through_block(self, source):
        params = FreeParams(sqrt_of_rational(3) + I_UNIT, -ONE)
        swapped = FreeParams(params.t21, params.t12)
        count = 0
        for q in admissible(2):
            vec = vectors_from_source(source, q, params)
            again = from_blocks(vec.spins, vec.params, block(vec, "12"), block(vec, "21"))
            assert again == vec, q
            assert again.case is classify_case(*q)
            # The 21-block of (A,B)+(C,D) is the 12-block of (C,D)+(A,B).
            mirror = vectors_from_source(source, q[2:] + q[:2], swapped)
            assert block(vec, "21") == block(mirror, "12"), q
            count += 1
        assert count == 16


class TestFromCartesian:
    def test_round_trip(self):
        # The families formed from a set's Cartesian view are the set's own.
        count = 0
        for q in admissible(4):
            for source in SOURCES:
                full = vectors_from_source(source, q, UNIT)
                for kept in BLOCKS:
                    v = full if kept == "both" else momentum_from_vectors(full, kept)
                    comps = v.components()
                    again = VectorSet.from_cartesian(v.spins, v.params, comps, v.block)
                    assert again.families == v.families, (q, source, kept)
                    assert again == v
                    count += 1
        assert count == 64 * 3 * 3

    def test_a_missing_component_is_refused(self):
        # Three components would leave V_t out of every family: nnz
        # [2, 2, 4, 4] on (1,1,0,0) instead of [2, 2, 2, 2].
        v = closed_form_vectors(spin(1), spin(1), spin(0), spin(0), UNIT)
        with pytest.raises(ValueError, match="table row 0 has 4 entries for 3 matrices"):
            VectorSet.from_cartesian(v.spins, v.params, v.components()[:3])

    def test_a_set_of_three_families_is_refused(self):
        # Before, only check_vector_rules met it, as an IndexError.
        v = closed_form_vectors(spin(1), spin(1), spin(0), spin(0), UNIT)
        with pytest.raises(ValueError, match="a vector set holds 4 families, not 3"):
            VectorSet(v.spins, v.params, v.families[:3])

    def test_cartesian_entry_is_a_row_of_family_inverse(self):
        # The hand-written signs of cartesian_entry agree with FAMILY_INVERSE
        # at every cell, zero cells included.
        params = FreeParams(sqrt_of_rational(2) + Fraction(1, 3), I_UNIT * sqrt_of_rational(3))
        for q in admissible(2):
            for source in SOURCES:
                block = vectors_from_source(source, q, params).families
                n = block[0].rows
                for k in range(4):
                    (want,) = change_basis(FAMILY_INVERSE[k : k + 1], block)
                    for row, col in itertools.product(range(n), repeat=2):
                        assert cartesian_entry(block, k, row, col) == want.get(row, col), (q, source, k)


DRESSED = FreeParams(
    RadicalScalar.from_terms([(6, Fraction(3, 4), 0), (10, 0, Fraction(2, 5))]),
    RadicalScalar.from_terms([(3, Fraction(-5, 7), 0), (14, 0, Fraction(1, 3))]),
)


class TestCartesianView:
    """``VectorSet.cartesian`` writes FAMILY_INVERSE out row by row, with no basis change."""

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("kept", BLOCKS)
    def test_it_is_the_basis_change_of_the_families(self, source, kept):
        for params in (UNIT, DRESSED):
            for q in [(2, 2, 1, 1), (3, 2, 2, 1), (2, 3, 3, 4), (4, 5, 5, 4)]:
                full = vectors_from_source(source, tuple(spin(t) for t in q), params)
                vec = full if kept == "both" else momentum_from_vectors(full, kept)
                assert vec.cartesian == change_basis(FAMILY_INVERSE, vec.families), (q, params)

    @pytest.mark.parametrize("source", SOURCES)
    def test_v_x_and_v_z_hold_the_family_objects(self, source):
        vec = vectors_from_source(source, (spin(4), spin(5), spin(5), spin(4)), DRESSED)
        vx, vy, vz, vt = vec.cartesian
        for comp, pair in ((vx, vec.families[:2]), (vz, vec.families[2:])):
            held = {id(v) for fam in pair for _, _, v in fam.nonzero_items()}
            assert comp.nnz() == sum(fam.nnz() for fam in pair)
            assert {id(v) for _, _, v in comp.nonzero_items()} == held
        # Each entry object is negated or turned by i once per family.
        for comp, pair in ((vy, vec.families[:2]), (vt, vec.families[2:])):
            entries = {(k, id(v)) for k, fam in enumerate(pair) for _, _, v in fam.nonzero_items()}
            assert len({id(v) for _, _, v in comp.nonzero_items()}) == len(entries)

    def test_a_cell_both_families_hold_is_their_exact_sum(self):
        # Only a set formed from edited Cartesian matrices has such cells.  With
        # V- = V+, V_y cancels everywhere; with F- = F+ + F-, V_t cancels at
        # every cell of F+ and keeps those of F-.
        vec = closed_form_vectors(spin(3), spin(2), spin(2), spin(1), DRESSED)
        plus, _, f_plus, f_minus = vec.families
        edited = VectorSet(vec.spins, vec.params, (plus, plus, f_plus, f_plus + f_minus))
        assert edited.cartesian == change_basis(FAMILY_INVERSE, edited.families)
        assert edited.cartesian[1].is_zero()
        assert edited.cartesian[3] == -f_minus
