"""Half-integer bookkeeping and the basis order."""

from fractions import Fraction

import pytest

from poincarerep.spins import HalfInt, Spin, SpinPair


def test_halfint_value_and_arithmetic():
    h = HalfInt(3)
    assert h.value == Fraction(3, 2)
    assert (-h).twice == -3
    assert -h == HalfInt(-3)


def test_halfint_equality_is_between_halfints_only():
    assert HalfInt(2) != 1
    assert HalfInt(2) != Fraction(1)
    assert Spin(1) == HalfInt(1) and hash(Spin(1)) == hash(HalfInt(1))
    assert HalfInt(1) in {Spin(1)}
    assert {HalfInt(-1): "x"}.get(HalfInt(-1)) == "x"


def test_halfint_immutable():
    h = HalfInt(1)
    with pytest.raises(AttributeError):
        h.twice = 5


def test_spin_rejects_negative():
    with pytest.raises(ValueError):
        Spin(-1)


def test_spin_multiplicity_and_projections():
    s = Spin(3)
    assert s.multiplicity == 4
    assert [p.twice for p in s.projections()] == [3, 1, -1, -3]


def test_spinpair_dimension_and_basis_order():
    pair = SpinPair(Spin(1), Spin(1))
    assert pair.dimension == 4
    assert [(a.twice, b.twice) for a, b in pair.basis()] == [
        (1, 1), (1, -1), (-1, 1), (-1, -1)
    ]


def test_basis_positions():
    half_half = SpinPair(Spin(1), Spin(1))
    assert half_half.basis().index((HalfInt(1), HalfInt(1))) == 0
    assert half_half.basis().index((HalfInt(-1), HalfInt(1))) == 2
    one_half = SpinPair(Spin(2), Spin(1))
    assert one_half.basis().index((HalfInt(0), HalfInt(-1))) == 3


def test_basis_has_no_repeats():
    pair = SpinPair(Spin(2), Spin(3))
    assert len(set(pair.basis())) == pair.dimension
