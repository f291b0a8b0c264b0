"""Bundle serialization: term format, round trips, canonical output."""

import json
from fractions import Fraction

import pytest

from poincarerep.bundle import (
    MatrixBundle,
    bundle_from_json_dict,
    matrix_from_json,
    matrix_to_json,
    scalar_from_json,
    scalar_to_json,
)
from poincarerep.generators import direct_sum, spin
from poincarerep.matrix import Matrix
from poincarerep.momentum import BlockChoice, momentum_from_vectors
from poincarerep.radical import ONE, RadicalScalar, sqrt_of_rational
from poincarerep.spins import SpinPair
from poincarerep.vectors import CaseTag, FreeParams, closed_form_vectors


def _make_bundle(block="both"):
    spins = (spin(1), spin(0), spin(0), spin(1))
    params = FreeParams(ONE + sqrt_of_rational(2).times_i(), ONE)
    vec = closed_form_vectors(*spins, params)
    if block != "both":
        vec = momentum_from_vectors(vec, BlockChoice(block))
    gen = direct_sum(SpinPair(spins[0], spins[1]), SpinPair(spins[2], spins[3]))
    return MatrixBundle(source="closed-form", generators=gen, vectors=vec)


def test_scalar_terms_sorted_and_exact():
    value = sqrt_of_rational(Fraction(3, 8)) + RadicalScalar.from_parts(
        Fraction(-2, 3), Fraction(5)
    )
    blob = scalar_to_json(value)
    assert [t["d"] for t in blob] == sorted(t["d"] for t in blob)
    assert blob[0] == {"d": 1, "re": [-2, 3], "im": [5, 1]}
    assert scalar_from_json(blob) == value


def test_matrix_round_trip_preserves_zeros():
    m = Matrix.from_entries(2, 3, {(1, 2): sqrt_of_rational(5)})
    blob = matrix_to_json(m)
    assert len(blob) == 6 and blob[0] == []
    assert matrix_from_json(blob, 2, 3) == m
    with pytest.raises(ValueError):
        matrix_from_json(blob, 2, 2)


def test_bundle_round_trip():
    bundle = _make_bundle()
    data = json.loads(bundle.dumps())
    back = bundle_from_json_dict(data)
    assert back.spins == bundle.spins
    assert back.case is bundle.case
    assert back.params == bundle.params
    assert back.generators.J == bundle.generators.J
    assert back.generators.K == bundle.generators.K
    for mu in "xyzt":
        assert back.vectors.component(mu) == bundle.vectors.component(mu)
    assert back.dumps() == bundle.dumps()


def test_dumps_deterministic():
    assert _make_bundle().dumps() == _make_bundle().dumps()


def test_momentum_block_flag_round_trips():
    bundle = _make_bundle(block="keep12")
    back = bundle_from_json_dict(json.loads(bundle.dumps()))
    assert back.block == "keep12"
    assert back.vectors.kept_block == "12"


def test_dimension_mismatch_rejected():
    data = json.loads(_make_bundle().dumps())
    data["dimension"] = 7
    with pytest.raises(ValueError):
        bundle_from_json_dict(data)


def test_unknown_schema_rejected():
    data = json.loads(_make_bundle().dumps())
    data["schemaVersion"] = 99
    with pytest.raises(ValueError):
        bundle_from_json_dict(data)


@pytest.mark.parametrize("choice", [None, *BlockChoice])
def test_metadata_is_read_off_the_vectors(choice):
    spins = (spin(2), spin(1), spin(1), spin(2))
    params = FreeParams(sqrt_of_rational(2), ONE.times_i())
    vec = closed_form_vectors(*spins, params)
    if choice is not None:
        vec = momentum_from_vectors(vec, choice)
    gen = direct_sum(SpinPair(spins[0], spins[1]), SpinPair(spins[2], spins[3]))
    bundle = MatrixBundle(source="recursion", generators=gen, vectors=vec)
    assert bundle.spins == (2, 1, 1, 2)
    assert bundle.case is vec.case is CaseTag.CASE_2
    assert bundle.params is vec.params
    assert bundle.block == ("both" if choice is None else choice.value)
    data = json.loads(bundle.dumps())
    assert (data["spins"], data["caseTag"], data["block"]) == ([2, 1, 1, 2], "case2", bundle.block)


def test_keep21_bundle_reports_keep21():
    bundle = _make_bundle(block="keep21")
    assert bundle.block == "keep21"
    assert bundle_from_json_dict(json.loads(bundle.dumps())).block == "keep21"
