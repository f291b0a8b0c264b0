"""The rule checker itself: completeness, fault sensitivity, numeric probes."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles
from oracles import conjugate_transpose, reference_check_poincare, reference_sweep, spin

from poincarerep import generators, vectors, verify
from poincarerep.bundle import SOURCES, vectors_from_source
from poincarerep.cg import RatioFit
from poincarerep.generators import (
    SPIN_BASIS,
    SPIN_BASIS_INVERSE,
    GeneratorSet,
    direct_sum,
    irrep_generators,
    rotation_rep,
)
from poincarerep.matrix import Matrix, commutator
from poincarerep.momentum import momentum_from_vectors
from poincarerep.radical import I_UNIT, ONE, ZERO, RadicalScalar, sqrt_of_rational
from poincarerep.spins import SpinPair
from poincarerep.vectors import (
    BLOCKS,
    FAMILY,
    FAMILY_INVERSE,
    CaseTag,
    FreeParams,
    NoSolutionError,
    VectorSet,
    classify_case,
    closed_form_vectors,
)
from poincarerep.probes import (
    SeriesDivergenceError,
    check_clifford,
    finite_covariance_check,
    matrix_exp,
)
from poincarerep.verify import (
    check_lorentz,
    check_poincare,
    check_translations,
    check_vector_rules,
    epsilon,
    sweep,
)

UNIT = FreeParams(ONE, ONE)
# The first dressing of perfbench's dressed workload: every entry has two terms.
DRESSED = FreeParams(
    RadicalScalar.from_terms([(6, Fraction(3, 4), 0), (10, 0, Fraction(2, 5))]),
    RadicalScalar.from_terms([(3, Fraction(-5, 7), 0), (14, 0, Fraction(1, 3))]),
)


def _weyl_rep():
    pair1, pair2 = SpinPair(spin(1), spin(0)), SpinPair(spin(0), spin(1))
    g = direct_sum(pair1, pair2)
    v = closed_form_vectors(spin(1), spin(0), spin(0), spin(1), UNIT)
    return g, v


def _with_component(vec, mu, mat):
    """vec with its Cartesian component mu replaced by mat."""
    comps = dict(zip("xyzt", vec.components()), **{mu: mat})
    return VectorSet.from_cartesian(vec.spins, vec.params, tuple(comps.values()), vec.block)


class TestEpsilon:
    def test_values(self):
        assert epsilon("x", "y", "z") == 1
        assert epsilon("y", "x", "z") == -1
        assert epsilon("x", "x", "z") == 0


class TestCommutator:
    def test_identity_commutes(self):
        m = Matrix.from_entries(2, 2, {(0, 1): ONE, (1, 0): -I_UNIT})
        assert commutator(Matrix.identity(2), m).is_zero()

    def test_jz_jx_gives_i_jy(self):
        g = irrep_generators(SpinPair(spin(1), spin(0)))
        assert commutator(g.J[2], g.J[0]) == g.J[1].times_i()

    def test_two_by_two_hand_value(self):
        diag = Matrix.from_entries(2, 2, {(0, 0): ONE, (1, 1): -ONE})
        anti = Matrix.from_entries(2, 2, {(0, 1): ONE, (1, 0): ONE})
        expected = Matrix.from_entries(
            2, 2, {(0, 1): RadicalScalar.from_rational(2),
                   (1, 0): RadicalScalar.from_rational(-2)}
        )
        assert commutator(diag, anti) == expected

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            commutator(Matrix.identity(2), Matrix.identity(3))


class TestLorentzChecks:
    def test_all_hold_for_irrep(self):
        reports = check_lorentz(irrep_generators(SpinPair(spin(1), spin(0))))
        assert len(reports) == 15 and all(r.holds for r in reports)

    def test_trivial_rep_holds(self):
        reports = check_lorentz(irrep_generators(SpinPair(spin(0), spin(0))))
        assert all(r.holds for r in reports)

    def test_transposed_boost_caught(self):
        g = irrep_generators(SpinPair(spin(1), spin(1)))
        # adjoint of the anti-Hermitian K_x is -K_x: a genuine sign fault
        broken = GeneratorSet.from_cartesian(
            g.spins, g.J, (conjugate_transpose(g.K[0]), g.K[1], g.K[2])
        )
        reports = check_lorentz(broken)
        failing = [r.rule_id for r in reports if not r.holds]
        assert failing, "transposing K_x must break at least one rule"
        assert any(rid.startswith(("JK", "KK")) for rid in failing)

    def test_report_carries_residual_location(self):
        g = irrep_generators(SpinPair(spin(1), spin(0)))
        broken = GeneratorSet.from_cartesian(g.spins, g.J, (g.K[0].scale(2), g.K[1], g.K[2]))
        bad = [r for r in check_lorentz(broken) if not r.holds]
        assert bad and all(r.first_violation is not None for r in bad)
        row, col, residual = bad[0].first_violation
        assert not residual.is_zero()
        assert bad[0].to_json()["firstViolation"]["row"] == row


def _counted_commutators(monkeypatch):
    calls = []
    kernel = verify.commutator

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(verify, "commutator", counted)
    return calls


class TestSettledLorentz:
    """A standard set's 15 verdicts come from the one-spin algebra, and equal the 15 commutators'."""

    IRREPS = [SpinPair(spin(ta), spin(tb)) for ta, tb in itertools.product(range(9), repeat=2)]

    @staticmethod
    def _commuted(gen):
        return verify._check(verify._LORENTZ, gen.spin_basis, gen.spin_basis)

    def test_every_irrep_up_to_doubled_spin_8_alone_and_in_either_block(self, monkeypatch):
        calls = _counted_commutators(monkeypatch)
        for p, q in zip(self.IRREPS, self.IRREPS[1:] + self.IRREPS[:1]):
            for gen in (irrep_generators(p), direct_sum(p, q), direct_sum(q, p)):
                assert gen.standard
                del calls[:]
                reports = check_lorentz(gen)
                # Three one-spin zero tests per distinct spin, and no more.
                distinct = {s for pair in gen.spins for s in (pair.left, pair.right)}
                assert len(calls) == 3 * len(distinct)
                assert all(m.rows == calls[0][0].rows for m, *_ in calls[:3])
                assert reports == self._commuted(gen) and len(reports) == 15, gen.spins

    def test_the_lorentz_pairs_split_into_one_spin_rules(self):
        # [A+, A-] = 2 Az, [A+, Az] = -A+, [A-, Az] = A-; the B pairs are the
        # same three moved by three places, and an A and a B ladder commute.
        assert verify._ONE_SPIN == (
            (0, 1, [(2, 2)]), (0, 2, [(-1, 0)]), (1, 2, [(1, 1)]),
        )
        pairs = verify._LORENTZ.pairs
        crossed = verify._Family(tuple(
            (a, b, [(ONE, 0)]) if (a, b) == (0, 3) else (a, b, rhs) for a, b, rhs in pairs
        ), ())
        with pytest.raises(AssertionError, match="do not split"):
            verify._one_spin_pairs(crossed)

    def test_a_failing_one_spin_check_takes_the_fifteen_commutators(self, monkeypatch):
        # Ladders with M+ doubled, placed by the standard constructors: the
        # one-spin check fails, and the reports are the commutators', each
        # with its first violation.
        def doubled(spin_):
            mplus, mminus, mz = rotation_rep(spin_)
            return mplus.scale(2), mminus, mz

        monkeypatch.setattr(generators, "rotation_rep", doubled)
        monkeypatch.setattr(verify, "rotation_rep", doubled)
        gen = direct_sum(SpinPair(spin(2), spin(1)), SpinPair(spin(1), spin(0)))
        assert gen.standard
        calls = _counted_commutators(monkeypatch)
        reports = check_lorentz(gen)
        # Spin 0, whose ladders are zero, passes its three checks; spin 1/2
        # fails its first, and the 15 commutators follow.
        assert len(calls) == 3 + 1 + 15
        assert reports == self._commuted(gen)
        bad = [r for r in reports if not r.holds]
        assert bad and all(r.first_violation is not None for r in bad)

    def test_a_formed_set_is_checked_by_its_commutators(self, monkeypatch):
        g = direct_sum(SpinPair(spin(2), spin(1)), SpinPair(spin(1), spin(0)))
        formed = GeneratorSet.from_cartesian(g.spins, g.J, g.K)
        calls = _counted_commutators(monkeypatch)
        assert check_lorentz(formed) == check_lorentz(g) and len(calls) == 15 + 3 * 3


class TestVectorRuleChecks:
    def test_closed_form_passes(self):
        g, v = _weyl_rep()
        reports = check_vector_rules(g, v)
        assert len(reports) == 24 and all(r.holds for r in reports)

    def test_zero_vectors_pass(self):
        g, v = _weyl_rep()
        zero = VectorSet.from_cartesian(v.spins, v.params, (Matrix.zeros(4),) * 4)
        assert all(r.holds for r in check_vector_rules(g, zero))

    def test_flipped_time_component_fails_kv_diagonal(self):
        g, v = _weyl_rep()
        flipped = _with_component(v, "t", v.component("t").scale(-1))
        failing = {r.rule_id for r in check_vector_rules(g, flipped) if not r.holds}
        assert {"KV.xx", "KV.yy", "KV.zz", "KV.xt", "KV.yt", "KV.zt"} <= failing

    def test_single_entry_perturbation_detected(self):
        g, v = _weyl_rep()
        for mu in "xyzt":
            mat = v.component(mu)
            i, j, val = mat.first_nonzero()
            bumped = mat + Matrix.from_entries(4, 4, {(i, j): ONE})
            assert bumped.get(i, j) == val + ONE
            broken = _with_component(v, mu, bumped)
            assert not all(r.holds for r in check_vector_rules(g, broken))


class TestTranslationsAndCount:
    def test_momentum_holds_and_full_set_is_45(self):
        g, v = _weyl_rep()
        p = momentum_from_vectors(v, "keep21")
        reports = check_poincare(g, p)
        assert len(reports) == 45
        assert all(r.holds for r in reports)
        ids = [r.rule_id for r in reports]
        assert len(set(ids)) == 45
        assert sum(rid.startswith("PP") for rid in ids) == 6

    def test_two_block_vector_fails_translations(self):
        v = closed_form_vectors(spin(1), spin(1), spin(0), spin(0), UNIT)
        failing = [r for r in check_translations(v) if not r.holds]
        assert failing

    def test_zero_momentum_holds(self):
        v = closed_form_vectors(
            spin(1), spin(1), spin(0), spin(0), FreeParams(ZERO, ZERO)
        )
        assert all(r.holds for r in check_translations(v))


def _product(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(len(b[0]))]
            for i in range(len(a))]


def _unit(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("basis, inverse", [
    (SPIN_BASIS, SPIN_BASIS_INVERSE), (FAMILY, FAMILY_INVERSE),
])
def test_basis_changes_have_exact_inverses(basis, inverse):
    n = len(basis)
    assert _product(basis, inverse) == _unit(n)
    assert _product(inverse, basis) == _unit(n)


def test_restated_rules_have_single_term_right_hand_sides():
    families = (verify._LORENTZ, verify._VECTOR, verify._TRANSLATIONS)
    assert [len(family.pairs) for family in families] == [15, 24, 6]
    assert all(len(rhs) <= 1 for family in families for _, _, rhs in family.pairs)


_small_scalar = st.lists(
    st.tuples(
        st.sampled_from([1, 2, 3, 5, 6]),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    ),
    min_size=2,
    max_size=3,
).map(RadicalScalar.from_terms)


@st.composite
def bundles(draw):
    """(generators, vectors) of an admissible quadruple with doubled spins <= 6.

    Any route and block choice, with multi-term parameters.
    """
    a, b = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    c = draw(st.sampled_from([x for x in (a - 1, a + 1) if 0 <= x <= 6]))
    d = draw(st.sampled_from([x for x in (b - 1, b + 1) if 0 <= x <= 6]))
    spins = tuple(spin(t) for t in (a, b, c, d))
    params = FreeParams(draw(_small_scalar), draw(_small_scalar))
    vec = vectors_from_source(draw(st.sampled_from(SOURCES)), spins, params)
    block = draw(st.sampled_from(BLOCKS))
    if block != "both":
        vec = momentum_from_vectors(vec, block)
    return direct_sum(SpinPair(*spins[:2]), SpinPair(*spins[2:])), vec


@st.composite
def edits(draw, n):
    """1-3 (matrix index among the ten, row, col, multi-term value) replacements."""
    index = st.integers(0, n - 1)
    return draw(st.lists(st.tuples(st.integers(0, 9), index, index, _small_scalar),
                         min_size=1, max_size=3))


def _edited(gen, vec, changes):
    mats = list(gen.J + gen.K + vec.components())
    for k, i, j, value in changes:
        entries = {(r, c): v for r, c, v in mats[k].nonzero_items()}
        entries[i, j] = value
        mats[k] = Matrix.from_entries(mats[k].rows, mats[k].cols, entries)
    edited_gen = GeneratorSet.from_cartesian(gen.spins, tuple(mats[:3]), tuple(mats[3:6]))
    edited_vec = VectorSet.from_cartesian(vec.spins, vec.params, tuple(mats[6:]), vec.block)
    return edited_gen, edited_vec


class TestAgainstCartesianChecker:
    """All 45 reports, first violations included, equal the per-rule Cartesian check's."""

    @given(bundles(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_generated_and_edited_bundles(self, bundle, data):
        gen, vec = bundle
        reports = check_poincare(gen, vec)
        # Checked in the stored bases: neither Cartesian view is formed.
        assert "cartesian" not in vars(gen) and "cartesian" not in vars(vec)
        assert reports == reference_check_poincare(gen, vec)
        edited = _edited(gen, vec, data.draw(edits(gen.dimension)))
        assert check_poincare(*edited) == reference_check_poincare(*edited)


def _verdicts(reports):
    return [(r.rule_id, r.holds) for r in reports]


def _composed(first, second):
    """Verdicts of a direct sum from those of its two blocks, rule by rule."""
    assert [r.rule_id for r in first] == [r.rule_id for r in second]
    return [(a.rule_id, a.holds and b.holds) for a, b in zip(first, second)]


class TestBlockComposition:
    """J, K are block-diagonal and V is off-diagonal, so residuals split by block."""

    def test_verdicts_compose_over_blocks(self):
        count = 0
        for quad in itertools.product(range(3), repeat=4):
            A, B, C, D = (spin(t) for t in quad)
            if classify_case(A, B, C, D) is CaseTag.NO_SOLUTION:
                continue
            p1, p2 = SpinPair(A, B), SpinPair(C, D)
            gen = direct_sum(p1, p2)
            assert _verdicts(check_lorentz(gen)) == _composed(
                check_lorentz(irrep_generators(p1)), check_lorentz(irrep_generators(p2))
            ), quad
            vec = closed_form_vectors(A, B, C, D, UNIT)
            halves = [check_vector_rules(gen, momentum_from_vectors(vec, c)) for c in BLOCKS[1:]]
            assert _verdicts(check_vector_rules(gen, vec)) == _composed(*halves), quad
            count += 1
        assert count == 16

    def test_corrupted_21_block_fails_same_ids(self):
        A, B, C, D = spin(2), spin(1), spin(1), spin(2)
        gen = direct_sum(SpinPair(A, B), SpinPair(C, D))
        vec = closed_form_vectors(A, B, C, D, UNIT)
        n = vec.dimension
        bump = Matrix.from_entries(n, n, {(vec.block1_dim, 0): ONE})
        broken = _with_component(vec, "z", vec.component("z") + bump)
        keep12, keep21 = (
            check_vector_rules(gen, momentum_from_vectors(broken, c)) for c in BLOCKS[1:]
        )
        full = _verdicts(check_vector_rules(gen, broken))
        assert full == _composed(keep12, keep21)
        assert all(r.holds for r in keep12)
        failing = [rid for rid, holds in full if not holds]
        assert failing == [r.rule_id for r in keep21 if not r.holds]
        assert failing


# Doubled spins (P, Q, R, S) of ordered blocks P,Q -> R,S.  The sweep meets
# 1,2,2,1 before 2,1,1,2, so 2,1 -> 1,2 is first built as a 21-block, and it
# meets 0,1,1,0 first, so 0,1 -> 1,0 is first built as a 12-block.
_NEGATED_F_PLUS = {(2, 1, 1, 2), (0, 1, 1, 0)}


class TestSweep:
    """Each unordered pair is checked once; the swapped quadruple replays it."""

    def test_replayed_verdicts_equal_a_full_check(self, monkeypatch):
        block = vectors._closed_form_block

        def negated_f_plus(P, Q, R, S, t, **memo):
            coeff = block(P, Q, R, S, t, **memo)
            if tuple(s.twice for s in (P, Q, R, S)) not in _NEGATED_F_PLUS:
                return coeff

            def negated(dp, dq, p, q):
                value = coeff(dp, dq, p, q)
                return -value if (dp, dq) == (1, -1) else value

            return negated

        monkeypatch.setattr(vectors, "_closed_form_block", negated_f_plus)
        report = sweep(3)
        assert report["failures"]
        assert {f.split(":")[0] for f in report["failures"]} == {
            "1,2,2,1", "2,1,1,2", "0,1,1,0", "1,0,0,1"
        }
        assert report == reference_sweep(3)
        assert sweep(4) == reference_sweep(4)

    def test_a_stray_diagonal_block_entry_is_a_block_split(self, monkeypatch):
        # Neither momentum set holds an entry of a diagonal block, so their
        # sum misses it on every quadruple, for both checked routes.
        def strayed(name, spins, params):
            vec = vectors_from_source(name, spins, params)
            plus, *rest = vec.families
            stray = Matrix.from_entries(plus.rows, plus.cols, {(0, 0): ONE})
            return VectorSet(vec.spins, vec.params, (plus + stray, *rest))

        for module in (verify, oracles):
            monkeypatch.setattr(module, "vectors_from_source", strayed)
        report = sweep(3)
        splits = [f for f in report["failures"] if f.endswith(":block-split")]
        assert len(splits) == 2 * report["admissible"]
        assert report == reference_sweep(3)

    def test_each_unordered_pair_is_built_and_checked_once(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("vectors_from_source", "commutator", "residual"):
            monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
        monkeypatch.setattr(
            NoSolutionError, "__init__", counted("NoSolutionError", NoSolutionError.__init__)
        )
        placed = counted("_place_spin_basis", generators._place_spin_basis)
        monkeypatch.setattr(generators, "_place_spin_basis", placed)
        report = sweep(3)
        assert report["admissible"] == 36 and report["allHold"]
        # 18 pairs x 3 sources.  Commutators: 16 irreps x 3 one-spin rules per
        # distinct spin (4 irreps of one spin, 12 of two: 84 in all) plus 18
        # pairs x 2 block choices x 6 translation rules.  The 24 vector rules
        # of each of those 36 blocks take one rank-one proof, and the six
        # one-spin pairs (X, Y) with |X - Y| = 1/2 six one-spin checks each,
        # shared by every block and both spin factors that meet them.  The CG
        # verdicts come from its ratio fit.  No route is asked to build one of
        # the 220 inadmissible quadruples, and no spin basis is placed.
        assert calls == {
            "vectors_from_source": 54,
            "commutator": 3 * (4 + 12 * 2) + 18 * 2 * 6,
            "residual": 18 * 2 + 6 * 6,
        }
        assert calls["NoSolutionError"] == 0 and calls["_place_spin_basis"] == 0


def _edit_routes(monkeypatch, edits):
    """Each route in ``edits`` with each block replaced by edit(block, doubled block spins).

    The 12-block of (A,B)+(C,D) has block spins (A, B, C, D) and the 21-block
    (C, D, A, B), so a quadruple and its swapped partner see the same edit.
    Both the sweep and the reference sweep build through the edited routes.
    """

    def edited(name, spins, params):
        vec = vectors_from_source(name, spins, params)
        if name not in edits:
            return vec
        edit = edits[name]
        A, B, C, D = (s.twice for s in spins)
        b12 = edit(oracles.block(vec, "12"), (A, B, C, D))
        b21 = edit(oracles.block(vec, "21"), (C, D, A, B))
        return oracles.from_blocks(vec.spins, vec.params, b12, b21)

    for module in (verify, oracles):
        monkeypatch.setattr(module, "vectors_from_source", edited)


def _bumped_at(spins):
    """An edit that adds 1 to entry (0, 0) of V+ in the block with these block spins."""

    def bumped(block, block_spins):
        if block_spins != spins:
            return block
        vp, *rest = block
        return (vp + Matrix.from_entries(vp.rows, vp.cols, {(0, 0): ONE}), *rest)

    return bumped


class TestCgReplay:
    """The CG verdicts are the closed form's exactly when the fit holds with nonzero ratios."""

    def test_scaled_cg_blocks_replay_the_closed_form_verdicts(self, monkeypatch):
        unpatched = sweep(3)

        def scaled(block, spins):
            # A single-term scalar, so the fit still finds a single-term entry.
            c = sqrt_of_rational(Fraction(spins[0] + 2, 3)).times_i() * Fraction(-5, 7)
            return tuple(fam.scale(c) for fam in block)

        _edit_routes(monkeypatch, {"clebsch-gordan": scaled})
        assert sweep(3) == unpatched

    def test_a_cg_block_off_the_fit_is_checked_directly(self, monkeypatch):
        _edit_routes(monkeypatch, {"clebsch-gordan": _bumped_at((1, 2, 2, 1))})
        report = sweep(3)
        assert {"1,2,2,1:cg-not-proportional", "2,1,1,2:cg-not-proportional"} <= set(
            report["failures"]
        )
        assert any(":clebsch-gordan:keep" in f for f in report["failures"])
        assert report == reference_sweep(3)

    # The sweep meets 0,1,1,0 before 1,0,0,1, so editing block 0,1 -> 1,0
    # edits its 12-block and editing 1,0 -> 0,1 its 21-block.  With the
    # closed-form block zero the fit holds with that ratio zero, and the
    # bumped CG block then breaks rules that only a direct check sees.
    @pytest.mark.parametrize("spins, ratio", [((0, 1, 1, 0), "ratio12"), ((1, 0, 0, 1), "ratio21")])
    def test_a_zero_ratio_checks_cg_directly(self, monkeypatch, spins, ratio):
        def zeroed(block, block_spins):
            if block_spins != spins:
                return block
            return tuple(Matrix.zeros(fam.rows, fam.cols) for fam in block)

        _edit_routes(monkeypatch, {"closed-form": zeroed, "clebsch-gordan": _bumped_at(spins)})
        quad = tuple(spin(t) for t in (0, 1, 1, 0))
        fit = verify.equivalence_ratio(
            *(verify.vectors_from_source(s, quad, UNIT) for s in ("closed-form", "clebsch-gordan"))
        )
        assert isinstance(fit, RatioFit) and not getattr(fit, ratio)
        report = sweep(3)
        assert any(f.startswith("0,1,1,0:clebsch-gordan:keep") for f in report["failures"])
        assert report == reference_sweep(3)


def _spied_settling(monkeypatch) -> list:
    """(block spins, settled?) for each block whose vector rules are settled or checked."""
    seen = []
    settle = verify._block_settles

    def spied(rows, cols, z, memo):
        settled = settle(rows, cols, z, memo)
        block_spins = tuple(s.twice for s in (rows.left, rows.right, cols.left, cols.right))
        seen.append((block_spins, settled))
        return settled

    monkeypatch.setattr(verify, "_block_settles", spied)
    return seen


def _fallen_back(seen: list) -> set:
    return {block_spins for block_spins, settled in seen if not settled}


class TestSettledVectorRules:
    """A momentum set's 24 vector verdicts come from its proved one-spin factors, or are checked."""

    def test_the_vector_pairs_split_into_one_spin_rules(self):
        # [M+, f+] = 0, [M+, f-] = -f+, [M-, f+] = -f-, [M-, f-] = 0 and
        # [Mz, f+-] = +-f+-/2: f+ and f- are the two components of a spin-1/2
        # tensor operator, on the (A, C) factors and on the (B, D) ones alike.
        half = Fraction(1, 2)
        assert verify._VECTOR_SIDES[0] == verify._VECTOR_SIDES[1] == (
            (0, 0, ()), (0, 1, ((-1, 0),)), (1, 0, ((-1, 1),)),
            (1, 1, ()), (2, 0, ((half, 0),)), (2, 1, ((-half, 1),)),
        )
        assert verify._SIDE_KEYS == (0, 0)
        # [A+, V+] against a right-hand side in V-, whose dq differs: the
        # residual no longer splits into an (A, C) factor times a shared one.
        crossed = verify._Family(tuple(
            (a, b, [(ONE, 1)]) if (a, b) == (0, 0) else (a, b, rhs)
            for a, b, rhs in verify._VECTOR.pairs
        ), ())
        with pytest.raises(AssertionError, match="do not split"):
            verify._one_spin_sides(crossed)

    def test_settled_verdicts_equal_the_commutators(self, monkeypatch):
        # Every set the routes build settles, in each block choice: at unit
        # parameters; at t = -i sqrt(3/2), whose pivots are t and not 1, and
        # whose factors over it are those of t = 1; and at a dressing whose
        # pivots have two terms, so its factors are checked undivided.
        check = verify._check
        fallbacks = []
        monkeypatch.setattr(
            verify, "_check", lambda family, *args: fallbacks.append(family) or check(family, *args)
        )
        t = sqrt_of_rational(Fraction(3, 2)).times_i() * -1
        memo, dressed_memo = {}, {}
        sets = 0
        for quad in itertools.product(range(5), repeat=4):
            spins = tuple(spin(tw) for tw in quad)
            if classify_case(*spins) is CaseTag.NO_SOLUTION:
                continue
            gen = direct_sum(SpinPair(*spins[:2]), SpinPair(*spins[2:]))
            for params, sources, one_spin in (
                (UNIT, SOURCES, memo), (FreeParams(t, t), ("closed-form",), memo),
                (DRESSED, SOURCES, dressed_memo),
            ):
                for source in sources:
                    full = vectors_from_source(source, spins, params)
                    for block in BLOCKS:
                        vec = full if block == "both" else momentum_from_vectors(full, block)
                        want = check(verify._VECTOR, gen.spin_basis, vec.families)
                        assert check_vector_rules(gen, vec, one_spin) == want, (quad, source, block)
                        sets += 1
        assert not fallbacks
        # One memo entry for each of the 8 ordered pairs of doubled spins
        # X, Y <= 4 with |X - Y| = 1, shared by both factors of every block
        # and by every route, whose blocks are proportional.
        assert sets == 64 * (3 * 3 + 3 + 3 * 3) and len(memo) == 8

    def test_a_both_set_with_a_bumped_21_entry_is_checked(self, monkeypatch):
        # The last entry of V+ in the 21-block of 2,3,3,2: the 12-block still
        # settles, the 21-block fails its proof, and the set takes the 24
        # commutators, with their first violations.
        spins = tuple(spin(tw) for tw in (2, 3, 3, 2))
        vec = closed_form_vectors(*spins, UNIT)
        vp, *rest = oracles.block(vec, "21")
        *_, (i, j, _) = vp.nonzero_items()
        b21 = (vp + Matrix.from_entries(vp.rows, vp.cols, {(i, j): ONE}), *rest)
        bumped = oracles.from_blocks(vec.spins, vec.params, oracles.block(vec, "12"), b21)
        gen = direct_sum(SpinPair(*spins[:2]), SpinPair(*spins[2:]))
        seen = _spied_settling(monkeypatch)
        reports = check_vector_rules(gen, bumped)
        assert seen == [((2, 3, 3, 2), True), ((3, 2, 2, 3), False)]
        assert reports == verify._check(verify._VECTOR, gen.spin_basis, bumped.families)
        assert not all(r.holds for r in reports)
        assert any(r.first_violation for r in reports)

    def test_an_entry_on_a_diagonal_block_takes_the_commutators(self, monkeypatch):
        # One V+ entry in the (A,B) block: no block is settled, and the 24
        # commutators give the reports.
        spins = tuple(spin(tw) for tw in (2, 1, 1, 2))
        vec = closed_form_vectors(*spins, UNIT)
        plus, *rest = vec.families
        stray = Matrix.from_entries(plus.rows, plus.cols, {(0, 0): ONE})
        strayed = VectorSet(vec.spins, vec.params, (plus + stray, *rest))
        gen = direct_sum(SpinPair(*spins[:2]), SpinPair(*spins[2:]))
        seen = _spied_settling(monkeypatch)
        calls = _counted_commutators(monkeypatch)
        reports = check_vector_rules(gen, strayed)
        assert seen == [] and len(calls) == 24
        assert reports == verify._check(verify._VECTOR, gen.spin_basis, strayed.families)
        assert not all(r.holds for r in reports)

    @pytest.mark.parametrize("entry", [None, "outside"])
    def test_a_family_of_another_shape_is_refused(self, monkeypatch, entry):
        # V- one row and column larger than n, with or without an entry
        # outside the n x n corner: no verdict comes back, settled or not.
        spins = tuple(spin(tw) for tw in (2, 1, 1, 2))
        vec = closed_form_vectors(*spins, UNIT)
        plus, minus, *rest = vec.families
        n = vec.dimension
        entries = {(i, j): v for i, j, v in minus.nonzero_items()}
        if entry:
            entries[n, 0] = ONE
        bigger = Matrix.from_entries(n + 1, n + 1, entries)
        hand = VectorSet(vec.spins, vec.params, (plus, bigger, *rest))
        gen = direct_sum(SpinPair(*spins[:2]), SpinPair(*spins[2:]))
        seen = _spied_settling(monkeypatch)
        with pytest.raises(ValueError, match="dimensions differ"):
            check_vector_rules(gen, hand)
        assert seen == []

    def test_generators_of_another_dimension_are_refused(self):
        gen = direct_sum(SpinPair(spin(2), spin(1)), SpinPair(spin(1), spin(2)))
        vec = closed_form_vectors(*(spin(tw) for tw in (1, 1, 0, 0)), UNIT)
        with pytest.raises(ValueError, match="dimensions differ"):
            check_vector_rules(gen, vec)

    def test_a_bumped_entry_fails_the_proof_and_is_checked(self, monkeypatch):
        # The last entry of V+ in the 12-block of 2,3,3,2 is in neither the
        # pivot row nor the pivot column: only the rank-one proof sees it.
        def bumped(block, block_spins):
            if block_spins != (2, 3, 3, 2):
                return block
            vp, *rest = block
            *_, (i, j, _) = vp.nonzero_items()
            return (vp + Matrix.from_entries(vp.rows, vp.cols, {(i, j): ONE}), *rest)

        _edit_routes(monkeypatch, {"closed-form": bumped})
        seen = _spied_settling(monkeypatch)
        report = sweep(3)
        assert _fallen_back(seen) == {(2, 3, 3, 2)}
        assert any(f.startswith("2,3,3,2:closed-form:keep12:") for f in report["failures"])
        assert report == reference_sweep(3)

    def test_a_scaled_family_is_checked(self, monkeypatch):
        # V+ of one block times 3 still factors on its own, but no longer
        # forms one rank-one matrix with the other three families.
        def scaled(block, block_spins):
            if block_spins != (2, 3, 3, 2):
                return block
            vp, *rest = block
            return (vp.scale(3), *rest)

        _edit_routes(monkeypatch, {"closed-form": scaled})
        seen = _spied_settling(monkeypatch)
        report = sweep(3)
        assert _fallen_back(seen) == {(2, 3, 3, 2)}
        assert any(f.startswith("2,3,3,2:closed-form:keep12:") for f in report["failures"])
        assert report == reference_sweep(3)

    def test_a_rescaled_factor_is_checked_not_recalled(self, monkeypatch):
        # Doubling the first outer row of V+ and F+ in the 12-block of
        # 2,3,3,2 scales one entry of their shared (A, C) factor: the block
        # still proves rank one, but its one-spin factors are no longer the
        # ones that blocks of (1, 3/2) met earlier, so they are checked again.
        def rescaled(block, block_spins):
            if block_spins != (2, 3, 3, 2):
                return block
            nq = block_spins[1] + 1
            return tuple(
                Matrix.from_entries(fam.rows, fam.cols, {
                    (i, j): v * 2 if k in (0, 2) and i < nq else v
                    for i, j, v in fam.nonzero_items()
                })
                for k, fam in enumerate(block)
            )

        _edit_routes(monkeypatch, {"closed-form": rescaled})
        seen = _spied_settling(monkeypatch)
        report = sweep(3)
        assert _fallen_back(seen) == {(2, 3, 3, 2)}
        assert any(f.startswith("2,3,3,2:closed-form:keep12:") for f in report["failures"])
        assert report == reference_sweep(3)


class TestClifford:
    def test_dirac_holds_with_k_two(self):
        v = closed_form_vectors(spin(1), spin(0), spin(0), spin(1), UNIT)
        rep = check_clifford(v)
        assert rep.holds and not rep.degenerate_zero
        assert rep.k == RadicalScalar.from_rational(2)

    def test_vector_rep_fails(self):
        v = closed_form_vectors(spin(1), spin(1), spin(0), spin(0), UNIT)
        rep = check_clifford(v)
        assert not rep.holds
        assert rep.first_violation is not None

    def test_zero_set_degenerate(self):
        v = closed_form_vectors(
            spin(1), spin(0), spin(0), spin(1), FreeParams(ZERO, ZERO)
        )
        rep = check_clifford(v)
        assert rep.holds and rep.degenerate_zero and rep.k == ZERO


class TestMatrixExp:
    def test_zero_matrix(self):
        out = matrix_exp(np.zeros((3, 3), dtype=complex))
        assert np.allclose(out, np.eye(3), atol=1e-15)

    def test_rotation_matches_cos_sin(self):
        theta = 0.7
        g = np.array([[0.0, -1j], [1j, 0.0]])  # sigma_y
        d = matrix_exp(1j * theta * g / 2)
        # exp(i theta sigma_y / 2) = cos(theta/2) I + i sin(theta/2) sigma_y
        expected = math.cos(theta / 2) * np.eye(2) + 1j * math.sin(theta / 2) * g
        assert np.max(np.abs(d - expected)) < 1e-14

    def test_large_angle_uses_squaring(self):
        g = np.diag([1.0, -2.0]).astype(complex)
        out = matrix_exp(g * 6.0)
        assert abs(out[0, 0] - math.exp(6.0)) < 1e-9 * math.exp(6.0)

    def test_divergence_flagged(self):
        with pytest.raises(SeriesDivergenceError):
            matrix_exp(np.eye(2, dtype=complex), max_terms=2)


class TestFiniteCovariance:
    def test_identity_transformation(self):
        g, v = _weyl_rep()
        assert finite_covariance_check(g, v, "rotation", "z", 0.0) < 1e-14

    def test_quarter_turn_on_vector_rep(self):
        A, B, C, D = spin(1), spin(1), spin(0), spin(0)
        g = direct_sum(SpinPair(A, B), SpinPair(C, D))
        v = closed_form_vectors(A, B, C, D, UNIT)
        assert finite_covariance_check(g, v, "rotation", "z", math.pi / 2) < 1e-10

    def test_boost_on_weyl_rep(self):
        g, v = _weyl_rep()
        assert finite_covariance_check(g, v, "boost", "z", 1.0) < 1e-9

    def test_all_axes_small_angles(self):
        g, v = _weyl_rep()
        for axis in "xyz":
            assert finite_covariance_check(g, v, "rotation", axis, 0.3) < 1e-11
            assert finite_covariance_check(g, v, "boost", axis, 0.4) < 1e-11
