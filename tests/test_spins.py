"""Spin labels and the basis order."""

import pytest

from poincarerep.spins import Spin, SpinPair


def test_spin_is_a_frozen_label():
    assert Spin(2) == Spin(2) and hash(Spin(2)) == hash(Spin(2))
    assert Spin(2) != Spin(1)
    assert Spin(2) != 2
    assert {Spin(1): "x"}.get(Spin(1)) == "x"
    assert repr(Spin(3)) == "Spin(3)" and str(Spin(3)) == "3/2" and str(Spin(4)) == "2"
    s = Spin(1)
    with pytest.raises(AttributeError):
        s.twice = 5
    with pytest.raises(TypeError):
        Spin(1.0)


def test_spin_rejects_negative():
    with pytest.raises(ValueError):
        Spin(-1)


def test_spin_multiplicity_and_projections():
    s = Spin(3)
    assert s.multiplicity == 4
    assert s.projections() == [3, 1, -1, -3]


def test_spinpair_dimension_and_basis_order():
    pair = SpinPair(Spin(1), Spin(1))
    assert pair.dimension == 4
    assert pair.basis() == [
        (1, 1), (1, -1), (-1, 1), (-1, -1)
    ]


def test_basis_positions():
    half_half = SpinPair(Spin(1), Spin(1))
    assert half_half.basis().index((1, 1)) == 0
    assert half_half.basis().index((-1, 1)) == 2
    one_half = SpinPair(Spin(2), Spin(1))
    assert one_half.basis().index((0, -1)) == 3


def test_basis_has_no_repeats():
    pair = SpinPair(Spin(2), Spin(3))
    assert len(set(pair.basis())) == pair.dimension
