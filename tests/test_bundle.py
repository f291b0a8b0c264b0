"""Bundle serialization: term format, round trips, canonical output."""

import copy
import gc
import json
from fractions import Fraction

import pytest

from poincarerep.bundle import (
    MatrixBundle,
    bundle_from_json_dict,
    load_bundle,
    matrix_from_json,
    matrix_to_json,
    scalar_from_json,
    scalar_to_json,
)
from poincarerep.cli import EXIT_BAD_INPUT, main
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
    bundle = _make_bundle()
    assert bundle.dumps() == bundle.dumps() == _make_bundle().dumps()


def test_matrix_decode_matches_entry_by_entry():
    # Repeated term lists, and lists that differ but give one value: explicit
    # zeros, a radicand that is not squarefree, unsorted and repeated radicands.
    kinds = [
        [],
        [{"d": 1, "re": [0, 1], "im": [0, 5]}],
        [{"d": 8, "re": [1, 4], "im": [0, 1]}],
        [{"d": 5, "re": [1, 4], "im": [0, 1]}],
        [{"d": 2, "re": [1, 2], "im": [0, 1]}],
        [{"d": 2, "re": [-1, -2], "im": [0, 1]}],
        [{"d": 3, "re": [1, 1], "im": [2, 3]}, {"d": 1, "re": [-1, 2], "im": [0, 1]}],
        [{"d": 1, "re": [-1, 2], "im": [0, 1]}, {"d": 3, "re": [1, 1], "im": [2, 3]}],
        [{"d": 2, "re": [1, 1], "im": [0, 1]}, {"d": 2, "re": [-1, 1], "im": [1, 1]}],
        [{"d": 12, "re": [1, 1], "im": [0, 1]}, {"d": 1, "re": [1, 1], "im": [0, 1]}],
    ]
    rows, cols = 6, 7
    grid = [copy.deepcopy(kinds[pos % len(kinds)]) for pos in range(rows * cols)]

    def entry_by_entry(entries):
        return Matrix.from_entries(rows, cols, {
            divmod(pos, cols): scalar_from_json(terms) for pos, terms in enumerate(entries) if terms
        })

    decoded = {}  # shared by two grids, as by the matrices of one bundle
    assert matrix_from_json(grid, rows, cols, decoded=decoded) == entry_by_entry(grid)
    assert matrix_from_json(grid[::-1], rows, cols, decoded=decoded) == entry_by_entry(grid[::-1])
    assert matrix_from_json(grid, rows, cols) == entry_by_entry(grid)


def _load_text(tmp_path, text):
    path = tmp_path / "b.json"
    path.write_text(text)
    return load_bundle(str(path))


@pytest.mark.parametrize("enabled", [True, False])
def test_load_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    good = json.loads(_make_bundle().dumps())
    failing = [
        ("{not json", ValueError),
        ("[" * 200000, ValueError),  # deeper than the recursion limit
        (json.dumps({**good, "caseTag": "case4"}), ValueError),
        (json.dumps({k: v for k, v in good.items() if k != "params"}), KeyError),
    ]
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert _load_text(tmp_path, json.dumps(good)).dumps() == _make_bundle().dumps()
        assert gc.isenabled() is enabled
        for text, error in failing:
            with pytest.raises(error):
                _load_text(tmp_path, text)
            assert gc.isenabled() is enabled
            assert main(["verify", "--in", str(tmp_path / "b.json")]) == EXIT_BAD_INPUT
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


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
