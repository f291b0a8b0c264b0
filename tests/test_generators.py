"""Ladder matrices and Lorentz generators against hand-evaluated values."""

import hashlib
import itertools
import json
import re
from fractions import Fraction

import pytest
from oracles import conjugate_transpose, spin

from poincarerep import bundle, cli, generators, matrix
from poincarerep.bundle import SOURCES, generator_texts, matrix_text
from poincarerep.generators import (
    GeneratorSet,
    direct_sum,
    irrep_generators,
    ladder_coeff_r,
    ladder_coeff_s,
    rotation_rep,
)
from poincarerep.matrix import Matrix
from poincarerep.radical import ONE, ZERO, RadicalScalar, sqrt_of_rational
from poincarerep.spins import Spin, SpinPair
from poincarerep.vectors import FreeParams, closed_form_vectors
from poincarerep.verify import check_lorentz, check_vector_rules


class TestLadderCoefficients:
    def test_r_top_of_ladder(self):
        assert ladder_coeff_r(spin(1), 1) == ZERO

    def test_r_half(self):
        assert ladder_coeff_r(spin(1), -1) == ONE

    def test_r_one(self):
        assert ladder_coeff_r(spin(2), 0) == sqrt_of_rational(2)

    def test_r_out_of_range_is_zero(self):
        assert ladder_coeff_r(spin(1), 3) == ZERO
        assert ladder_coeff_r(spin(1), -5) == ZERO
        assert ladder_coeff_r(spin(2), 1) == ZERO  # wrong parity

    def test_s_bottom_of_ladder(self):
        assert ladder_coeff_s(spin(1), -1) == ZERO

    def test_s_half(self):
        assert ladder_coeff_s(spin(1), 1) == ONE

    def test_s_three_halves(self):
        assert ladder_coeff_s(spin(3), 1) == RadicalScalar.from_rational(2)

    def test_s_is_r_reflected(self):
        for ts in range(-5, 6):
            assert ladder_coeff_s(spin(4), ts) == ladder_coeff_r(
                spin(4), -ts
            )


class TestRotationRep:
    def test_spin_half(self):
        mplus, mminus, mz = rotation_rep(spin(1))
        assert mz.get(0, 0) == RadicalScalar.from_rational(Fraction(1, 2))
        assert mz.get(1, 1) == RadicalScalar.from_rational(Fraction(-1, 2))
        assert mplus.get(0, 1) == ONE
        assert mplus.nnz() == 1
        assert mminus.get(1, 0) == ONE

    def test_spin_zero(self):
        for m in rotation_rep(spin(0)):
            assert m.rows == m.cols == 1 and m.is_zero()

    def test_spin_one_plus_entries(self):
        mplus, _, _ = rotation_rep(spin(2))
        r2 = sqrt_of_rational(2)
        assert mplus.get(0, 1) == r2 and mplus.get(1, 2) == r2
        assert mplus.nnz() == 2

    def test_plus_minus_adjoint_and_z_real(self):
        for twice in range(5):
            mplus, mminus, mz = rotation_rep(spin(twice))
            assert mminus == conjugate_transpose(mplus)
            for i, j, v in mz.nonzero_items():
                assert i == j and v.terms[1][1] == 0


class TestIrreps:
    def test_half_zero_is_pauli_like(self):
        g = irrep_generators(SpinPair(spin(1), spin(0)))
        half = Fraction(1, 2)
        assert g.J[0].get(0, 1) == RadicalScalar.from_rational(half)
        assert g.J[2].get(0, 0) == RadicalScalar.from_rational(half)
        for jk, kk in zip(g.J, g.K):
            assert kk == jk.times_i().scale(-1)  # K = -i J when B = 0

    def test_zero_zero_trivial(self):
        g = irrep_generators(SpinPair(spin(0), spin(0)))
        assert all(m.is_zero() and m.rows == 1 for m in g.J + g.K)

    def test_half_half_diagonals(self):
        g = irrep_generators(SpinPair(spin(1), spin(1)))
        jz = [str(g.J[2].get(i, i)) for i in range(4)]
        kz = [str(g.K[2].get(i, i)) for i in range(4)]
        assert jz == ["1", "0", "0", "-1"]
        assert kz == ["0", "-i", "i", "0"]

    def test_casimir_on_left_irreps(self):
        for ta in range(5):
            pair = SpinPair(spin(ta), spin(0))
            g = irrep_generators(pair)
            total = Matrix.zeros(pair.dimension)
            for jk in g.J:
                total = total + jk @ jk
            expected = Matrix.identity(pair.dimension).scale(
                Fraction(ta, 2) * (Fraction(ta, 2) + 1)
            )
            assert total == expected

    def test_lorentz_rules_all_small_irreps(self):
        for ta, tb in itertools.product(range(5), repeat=2):
            g = irrep_generators(SpinPair(spin(ta), spin(tb)))
            reports = check_lorentz(g)
            assert len(reports) == 15
            assert all(r.holds for r in reports), (ta, tb)


class TestDirectSum:
    def test_weyl_pair_jz(self):
        g = direct_sum(SpinPair(spin(1), spin(0)), SpinPair(spin(0), spin(1)))
        diag = [str(g.J[2].get(i, i)) for i in range(4)]
        assert diag == ["1/2", "-1/2", "1/2", "-1/2"]

    def test_double_scalar_is_zero(self):
        g = direct_sum(SpinPair(spin(0), spin(0)), SpinPair(spin(0), spin(0)))
        assert all(m.rows == 2 and m.is_zero() for m in g.J + g.K)

    def test_seven_dimensional(self):
        g = direct_sum(SpinPair(spin(1), spin(1)), SpinPair(spin(2), spin(0)))
        assert g.dimension == 7
        assert all(r.holds for r in check_lorentz(g))

    def test_blocks_restrict_to_irreps(self):
        p1, p2 = SpinPair(spin(2), spin(1)), SpinPair(spin(1), spin(0))
        g = direct_sum(p1, p2)
        g1, g2 = irrep_generators(p1), irrep_generators(p2)
        n1 = p1.dimension
        n = g.dimension
        for total, top, bottom in zip(g.J + g.K, g1.J + g1.K, g2.J + g2.K):
            assert total.submatrix(0, n1, 0, n1) == top
            assert total.submatrix(n1, n, n1, n) == bottom
            assert total.submatrix(0, n1, n1, n).is_zero()
            assert total.submatrix(n1, n, 0, n1).is_zero()


class TestFromCartesian:
    """The spin basis formed from J and K is the one placed from the ladders."""

    def test_irreps(self):
        for ta, tb in itertools.product(range(7), repeat=2):
            g = irrep_generators(SpinPair(spin(ta), spin(tb)))
            assert GeneratorSet.from_cartesian(g.spins, g.J, g.K).spin_basis == g.spin_basis

    def test_direct_sums(self):
        pairs = [SpinPair(spin(ta), spin(tb)) for ta, tb in itertools.product(range(4), repeat=2)]
        for p1, p2 in itertools.product(pairs, repeat=2):
            g = direct_sum(p1, p2)
            assert GeneratorSet.from_cartesian(g.spins, g.J, g.K).spin_basis == g.spin_basis

    def test_a_missing_matrix_is_refused(self):
        # Each row of the spin-basis table mixes six matrices; five would
        # silently drop K_z's share.
        g = direct_sum(SpinPair(spin(1), spin(1)), SpinPair(spin(0), spin(0)))
        with pytest.raises(ValueError, match="table row 0 has 6 entries for 5 matrices"):
            GeneratorSet.from_cartesian(g.spins, g.J[:2], g.K)

    def test_a_set_of_five_matrices_is_refused(self):
        g = direct_sum(SpinPair(spin(1), spin(1)), SpinPair(spin(0), spin(0)))
        with pytest.raises(ValueError, match="a generator set holds 6 spin-basis matrices, not 5"):
            GeneratorSet(g.spins, g.spin_basis[:5])


class TestCartesianPlacement:
    """The standard J and K written as text from one-spin tables are the text of the change_basis view."""

    IRREPS = [SpinPair(spin(ta), spin(tb)) for ta, tb in itertools.product(range(9), repeat=2)]

    def test_every_irrep_up_to_doubled_spin_8_in_either_block(self):
        # Each irrep, integer and half-integer, as the first block and as the
        # second, beside a neighbour of another size, so both offsets are met.
        for p, q in zip(self.IRREPS, self.IRREPS[1:] + self.IRREPS[:1]):
            for p1, p2 in ((p, q), (q, p)):
                reference = tuple(matrix_text(m) for m in direct_sum(p1, p2).cartesian)
                assert generator_texts(p1, p2) == reference, (p1, p2)

    def test_each_distinct_value_is_formatted_once(self, monkeypatch):
        formatted = []

        def counted(value):
            formatted.append((value._den, tuple(sorted(value._num.items()))))
            return scalar_text(value)

        scalar_text = bundle._scalar_text
        monkeypatch.setattr(bundle, "_scalar_text", counted)
        p1, p2 = SpinPair(spin(8), spin(7)), SpinPair(spin(7), spin(8))
        texts = generator_texts(p1, p2)
        assert len(formatted) == len(set(formatted))
        cells = {cell for text in texts for cell in re.findall(r"\[\{.*?\}\]", text)}
        assert len(formatted) == len(cells)

    def test_values_are_built_without_a_multiplication(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("RadicalScalar.__mul__ called")

        monkeypatch.setattr(RadicalScalar, "__mul__", refuse)
        monkeypatch.setattr(RadicalScalar, "__rmul__", refuse)
        generator_texts(SpinPair(spin(5), spin(4)), SpinPair(spin(4), spin(3)))


class TestStandardMark:
    """A set built from its spins alone is standard; one given its matrices is not."""

    def test_placed_sets_are_standard(self):
        p1, p2 = SpinPair(spin(2), spin(1)), SpinPair(spin(1), spin(0))
        assert irrep_generators(p1).standard and direct_sum(p1, p2).standard

    def test_formed_and_hand_built_sets_are_not(self):
        g = direct_sum(SpinPair(spin(2), spin(1)), SpinPair(spin(1), spin(0)))
        formed = GeneratorSet.from_cartesian(g.spins, g.J, g.K)
        assert formed == g and not formed.standard
        assert not GeneratorSet(g.spins, g.spin_basis).standard

    def test_no_value_marks_a_set_standard(self):
        g = direct_sum(SpinPair(spin(2), spin(1)), SpinPair(spin(1), spin(2)))
        with pytest.raises(TypeError):
            GeneratorSet(g.spins, g.spin_basis, True)
        with pytest.raises(AttributeError):
            g.standard = False

    def test_a_formed_set_is_checked_by_its_matrices(self):
        # The standard (2,1)+(1,2) with A+ replaced by A-: 28 of the 39
        # generator-linear rules fail, each at the first violation pinned here
        # (recorded when a flag could still declare such a set standard and
        # pass all 39).
        g = direct_sum(SpinPair(spin(2), spin(1)), SpinPair(spin(1), spin(2)))
        broken = GeneratorSet(g.spins, (g.spin_basis[1], *g.spin_basis[1:]))
        vec = closed_form_vectors(spin(2), spin(1), spin(1), spin(2), FreeParams(ONE, ONE))
        reports = check_lorentz(broken) + check_vector_rules(broken, vec)
        failing = [r.to_json() for r in reports if not r.holds]
        assert len(reports) == 39 and len(failing) == 28
        assert [r["ruleId"] for r in failing] == [
            *(f"JJ.{ij}" for ij in ("xy", "xz", "yz")),
            *(f"JK.{ij}" for ij in ("xy", "xz", "yx", "yz", "zx", "zy")),
            *(f"KK.{ij}" for ij in ("xy", "xz", "yz")),
            *(f"{x}V.{i}{mu}" for x in "JK" for i in "xy" for mu in "xyzt"),
        ]
        text = json.dumps(failing, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "76e92d09e3935e13085ca042a4be44f6f8130984524068e4031e802014089a8d"
        )


def _checked_rotation_rep(s):
    """rotation_rep built through the checked Matrix.from_entries."""
    n = s.multiplicity
    mplus, mminus, mz = {}, {}, {}
    for idx, m in enumerate(s.projections()):
        mz[idx, idx] = Fraction(m, 2)
        if idx > 0:
            mplus[idx - 1, idx] = ladder_coeff_r(s, m)
        if idx < n - 1:
            mminus[idx + 1, idx] = ladder_coeff_s(s, m)
    return tuple(Matrix.from_entries(n, n, m) for m in (mplus, mminus, mz))


def _checked_irrep_basis(pair):
    """irrep_generators(pair).spin_basis built entry by entry through from_entries."""
    n, na, nb = pair.dimension, pair.left.multiplicity, pair.right.multiplicity
    outer = [
        Matrix.from_entries(n, n, {
            (i * nb + k, j * nb + k): v for i, j, v in m.nonzero_items() for k in range(nb)
        })
        for m in _checked_rotation_rep(pair.left)
    ]
    inner = [
        Matrix.from_entries(n, n, {
            (a * nb + i, a * nb + j): v for i, j, v in m.nonzero_items() for a in range(na)
        })
        for m in _checked_rotation_rep(pair.right)
    ]
    return tuple(outer + inner)


class TestUncheckedConstruction:
    """The generators are built through Matrix._from_rows, as from_entries would build them."""

    IRREPS = [SpinPair(spin(ta), spin(tb)) for ta, tb in itertools.product(range(9), repeat=2)]

    @staticmethod
    def _stored_form(m):
        # Equal stored rows mean no zero entry and no empty row was kept.
        return all(row and all(row.values()) for row in m._rows.values())

    def test_rotation_reps_up_to_doubled_spin_8(self):
        for twice in range(9):
            built = rotation_rep(spin(twice))
            assert built == _checked_rotation_rep(spin(twice)), twice
            assert all(self._stored_form(m) for m in built)

    def test_every_irrep_up_to_doubled_spin_8(self):
        for pair in self.IRREPS:
            basis = irrep_generators(pair).spin_basis
            assert basis == _checked_irrep_basis(pair), pair
            assert all(self._stored_form(m) for m in basis)

    def test_direct_sums_place_each_irrep_on_its_block(self):
        for p1, p2 in zip(self.IRREPS, self.IRREPS[1:] + self.IRREPS[:1]):
            n1, n = p1.dimension, p1.dimension + p2.dimension
            expected = [
                Matrix.from_entries(n, n, {
                    **{(i, j): v for i, j, v in a.nonzero_items()},
                    **{(n1 + i, n1 + j): v for i, j, v in b.nonzero_items()},
                })
                for a, b in zip(_checked_irrep_basis(p1), _checked_irrep_basis(p2))
            ]
            assert list(direct_sum(p1, p2).spin_basis) == expected, (p1, p2)


class TestOneSpinTables:
    """Each spin's ladder table and rotation_rep are built once and shared, never changed."""

    CACHED = (generators._ladder_table, generators._rotation_rep)

    def test_a_repeat_call_returns_the_same_objects(self):
        for twice in range(9):
            s = spin(twice)
            assert rotation_rep(s) is rotation_rep(Spin(twice))
            table = generators._ladder_table(twice)
            assert table is generators._ladder_table(twice)
            for m in range(-twice - 2, twice + 3):
                assert ladder_coeff_r(s, m) is table.get(m, ZERO)
                assert ladder_coeff_s(s, m) is table.get(-m, ZERO)
            # The ladders hold the table's own values.
            mplus, mminus, _ = rotation_rep(s)
            held = [v for m in (mplus, mminus) for _, _, v in m.nonzero_items()]
            assert all(any(v is r for r in table.values()) for v in held), twice

    def test_they_equal_a_fresh_build(self):
        for twice in range(13):
            assert rotation_rep(spin(twice)) == generators._rotation_rep.__wrapped__(twice)
            fresh = generators._ladder_table.__wrapped__(twice)
            assert generators._ladder_table(twice) == fresh
            for m in range(-twice - 3, twice + 4):
                on_ladder = abs(m) <= twice and (twice - m) % 2 == 0
                expected = sqrt_of_rational(
                    Fraction((twice - m) * (twice + m + 2), 4) if on_ladder else 0
                )
                assert ladder_coeff_r(spin(twice), m) == expected, (twice, m)

    def test_the_caches_are_bounded(self):
        for cached in self.CACHED:
            assert cached.cache_info().maxsize == generators._SPIN_TABLE_SIZE == 32

    def test_a_round_leaves_every_cached_table_as_built(self, tmp_path, monkeypatch):
        # A dressed gen + verify --in + equiv round shares the tables with
        # every layer; afterwards each cached table still equals a fresh
        # build, and each packed kernel form the integer form of its rows.
        for cached in self.CACHED:
            cached.cache_clear()
        monkeypatch.chdir(tmp_path)
        ts = ["--t12=3/4*sqrt(6)+2/5*i*sqrt(10)", "--t21=-5/7*sqrt(3)+1/3*i*sqrt(14)"]
        for source in SOURCES:
            assert cli.main(["gen", "--spins", "4,5,5,4", "--source", source, *ts,
                             "--out", "b.json"]) == 0
            assert cli.main(["verify", "--in", "b.json", "--out", "r.json"]) == 1
        assert cli.main(["equiv", "--spins", "4,5,5,4", *ts, "--out", "e.json"]) == 0
        assert cli.main(["verify", "--sweep", "2", "--out", "s.json"]) == 0
        spins = (0, 1, 2, 4, 5)  # the sweep's and the round's
        assert [c.cache_info().currsize for c in self.CACHED] == [len(spins)] * 2
        for twice in spins:
            hits = [c.cache_info().hits for c in self.CACHED]
            tables = [c(twice) for c in self.CACHED]
            assert [c.cache_info().hits for c in self.CACHED] == [h + 1 for h in hits]
            assert tables == [c.__wrapped__(twice) for c in self.CACHED], twice
            for m in tables[1]:
                assert m._packed is None or m._packed == matrix._pack(m._rows), twice
