"""Bundle serialization: term format, round trips, canonical output."""

import copy
import gc
import itertools
import json
import re
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poincarerep import bundle, cli, generators
from poincarerep.bundle import (
    MATRIX_KEYS,
    SOURCES,
    MatrixBundle,
    bundle_from_json_dict,
    load_bundle,
    matrix_from_json,
    save_bundle,
    scalar_from_json,
    scalar_to_json,
    vectors_from_source,
)
from poincarerep.cli import EXIT_BAD_INPUT, EXIT_OK, main
from poincarerep.generators import direct_sum
from poincarerep.matrix import Matrix
from poincarerep.momentum import momentum_from_vectors
from poincarerep.radical import ONE, ZERO, RadicalScalar, sqrt_of_rational, unlimited_int_digits
from poincarerep.spins import Spin, SpinPair
from poincarerep.vectors import (
    BLOCKS, CaseTag, FreeParams, VectorSet, classify_case, closed_form_vectors,
)

from oracles import matrix_to_json, reference_bundle_dict, spin


def _make_bundle(block="both"):
    spins = (spin(1), spin(0), spin(0), spin(1))
    params = FreeParams(ONE + sqrt_of_rational(2).times_i(), ONE)
    vec = closed_form_vectors(*spins, params)
    if block != "both":
        vec = momentum_from_vectors(vec, block)
    return MatrixBundle.of("closed-form", vec)


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


def test_editing_the_matrices_dict_leaves_the_bundle_as_it_was():
    bundle, unedited = _make_bundle("keep12"), _make_bundle("keep12")
    text, formed = bundle.dumps(), (bundle.generators, bundle.vectors)
    mats = bundle.matrices()
    mats["Jx"] = Matrix.zeros(bundle.dimension)
    del mats["Vt"]
    assert bundle.matrices() is not mats
    assert bundle == unedited and bundle.dumps() == text
    assert (bundle.generators, bundle.vectors) == formed
    # A set formed after the edit is formed from the bundle's own matrices.
    unedited.matrices()["Kz"] = Matrix.zeros(bundle.dimension)
    assert (unedited.generators, unedited.vectors) == formed


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

    assert matrix_from_json(grid, rows, cols) == entry_by_entry(grid)
    assert matrix_from_json(grid[::-1], rows, cols) == entry_by_entry(grid[::-1])


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


def test_momentum_block_flag_round_trips(tmp_path):
    path = str(tmp_path / "b.json")
    for block in BLOCKS:
        bundle = _make_bundle(block=block)
        assert bundle_from_json_dict(json.loads(bundle.dumps())).block == block
        save_bundle(bundle, path)
        assert load_bundle(path).vectors.block == block


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


@pytest.mark.parametrize("block", BLOCKS)
def test_metadata_is_read_off_the_vectors(block):
    spins = (spin(2), spin(1), spin(1), spin(2))
    params = FreeParams(sqrt_of_rational(2), ONE.times_i())
    vec = closed_form_vectors(*spins, params)
    if block != "both":
        vec = momentum_from_vectors(vec, block)
    bundle = MatrixBundle.of("recursion", vec)
    assert bundle.spins == (2, 1, 1, 2)
    assert bundle.case is vec.case is CaseTag.CASE_2
    assert bundle.params is vec.params
    assert bundle.block == vec.block == block
    data = json.loads(bundle.dumps())
    assert (data["spins"], data["caseTag"], data["block"]) == ([2, 1, 1, 2], "case2", bundle.block)


def test_a_no_solution_bundle_with_zero_vectors_loads(tmp_path):
    # gen refuses spins with no vector matrices, but a hand-made file for
    # them with V = 0 and t12 = t21 = 0 agrees with its metadata, so it is
    # the one no-solution representation that loads: all 45 rules hold on
    # it, and it exports back byte for byte.
    pairs = (SpinPair(spin(2), spin(0)), SpinPair(spin(0), spin(0)))
    zero = Matrix.zeros(pairs[0].dimension + pairs[1].dimension)
    vec = VectorSet(pairs, FreeParams(ZERO, ZERO), (zero,) * 4)
    path, report, dup = (str(tmp_path / name) for name in ("n.json", "r.json", "e.json"))
    save_bundle(MatrixBundle.of("closed-form", vec), path)
    assert json.loads(Path(path).read_text())["caseTag"] == "nosolution"
    loaded = load_bundle(path)
    assert loaded.case is CaseTag.NO_SOLUTION and loaded.vectors.families == (zero,) * 4
    assert main(["verify", "--in", path, "--out", report]) == EXIT_OK
    data = json.loads(Path(report).read_text())
    assert data["caseTag"] == "nosolution" and data["allHold"]
    assert len(data["rules"]) == 45 and all(rule["holds"] for rule in data["rules"])
    assert main(["export", "--in", path, "--format", "exact-json", "--out", dup]) == EXIT_OK
    assert Path(dup).read_bytes() == Path(path).read_bytes()


def test_keep21_bundle_reports_keep21():
    bundle = _make_bundle(block="keep21")
    assert bundle.block == "keep21"
    assert bundle_from_json_dict(json.loads(bundle.dumps())).block == "keep21"


def _reference_text(bundle):
    return json.dumps(reference_bundle_dict(bundle), sort_keys=True, separators=(",", ":")) + "\n"


ADMISSIBLE = [
    quad for quad in itertools.product(range(4), repeat=4)
    if classify_case(*(Spin(t) for t in quad)) is not CaseTag.NO_SOLUTION
]

_coefficients = st.one_of(
    st.integers(-50, 50),
    st.fractions(max_denominator=2**60),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(2**59, 2**60)),
)
_radicands = st.one_of(st.integers(1, 30), st.sampled_from([2**31 - 1, 12 * (2**40 - 87)]))
# Arbitrary values: rational ones (which equal an int or a Fraction), negative
# ones, several radicands, 60-bit denominators, and zero.
_scalars = st.one_of(
    st.integers(-5, 5).map(RadicalScalar.from_rational),
    st.lists(st.tuples(_radicands, _coefficients, _coefficients), max_size=4).map(
        RadicalScalar.from_terms
    ),
)


def _generated(quad, source, block, params):
    spins = tuple(Spin(t) for t in quad)
    vec = vectors_from_source(source, spins, params)
    if block != "both":
        vec = momentum_from_vectors(vec, block)
    return MatrixBundle.of(source, vec)


def test_an_unknown_source_is_refused():
    spins = tuple(Spin(t) for t in (1, 1, 0, 0))
    with pytest.raises(ValueError, match="source must be one of closed-form, recursion,"):
        vectors_from_source("racah", spins, FreeParams(ONE, ONE))


@given(
    quad=st.sampled_from(ADMISSIBLE),
    source=st.sampled_from(SOURCES),
    block=st.sampled_from(BLOCKS),
    t12=_scalars.filter(bool),
    t21=_scalars.filter(bool),
)
@settings(max_examples=75, deadline=None)
def test_dumps_matches_the_reference_encoder_on_generated_bundles(quad, source, block, t12, t21):
    bundle = _generated(quad, source, block, FreeParams(t12, t21))
    assert bundle.dumps() == _reference_text(bundle)


@given(
    quad=st.sampled_from(ADMISSIBLE),
    data=st.data(),
    t12=_scalars,
    t21=_scalars,
)
@settings(max_examples=75, deadline=None)
def test_dumps_matches_the_reference_encoder_on_edited_bundles(quad, data, t12, t21):
    bundle = _generated(quad, "closed-form", "both", FreeParams(ONE, ONE))
    n = bundle.dimension
    mats = bundle.matrices()
    for _ in range(data.draw(st.integers(1, 6), label="edits")):
        key = data.draw(st.sampled_from(sorted(mats)), label="matrix")
        cell = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), label="cell")
        entries = {(i, j): v for i, j, v in mats[key].nonzero_items()}
        entries[cell] = data.draw(_scalars, label="value")
        mats[key] = Matrix.from_entries(n, n, entries)
    edited = MatrixBundle(
        source=data.draw(st.sampled_from(SOURCES), label="source"),
        pairs=bundle.pairs,
        block=data.draw(st.sampled_from(BLOCKS), label="block"),
        params=FreeParams(t12, t21),
        V=tuple(mats[k] for k in MATRIX_KEYS[6:]),
        JK=tuple(mats[k] for k in MATRIX_KEYS[:6]),
    )
    assert edited.matrices() == mats
    assert edited.dumps() == _reference_text(edited)


# Coefficients for the formatter: zero, small, negative, and integers on both
# sides of the 4300 digits CPython writes as text by default.  A big one is
# drawn as (a, e, b, f) and formed in the test, so that no drawn value needs
# such an integer written out to be shown.
_big_coefficients = st.tuples(
    st.integers(-9, 9), st.sampled_from([0, 4290, 4299, 4300, 4301]),
    st.integers(1, 9), st.sampled_from([0, 4299, 4300, 4301]),
)


def _big_coefficient(a, e, b, f):
    return Fraction(a * (10**e - 7), b * (10**f + 3))


_text_coefficients = st.one_of(st.just(0), _coefficients, _big_coefficients)
_text_terms = st.lists(st.tuples(_radicands, _text_coefficients, _text_coefficients), max_size=4)


def _text_outcome(write):
    """The text ``write`` gives, or the type and message of its ValueError."""
    try:
        return write()
    except ValueError as exc:
        return type(exc), str(exc)


@given(terms=_text_terms)
# A multi-term value with 4300-digit integers, which both write, and one
# with a 4301-digit denominator, which both refuse.
@example(terms=[(3, (1, 4300, 7, 0), 0), (2, -5, Fraction(1, 9))])
@example(terms=[(1, (-1, 0, 1, 4300), 1), (6, 0, -2)])
@settings(max_examples=150, deadline=None)
def test_the_direct_formatter_writes_what_the_json_encoder_writes(terms):
    value = RadicalScalar.from_terms(
        (d, *(_big_coefficient(*c) if isinstance(c, tuple) else c for c in parts))
        for d, *parts in terms
    )

    def reference():
        return bundle._compact(scalar_to_json(value))

    with unlimited_int_digits():
        text = reference()
        assert bundle._scalar_text(value) == text
        digits = max((len(n) for n in re.findall(r"[0-9]+", text)), default=0)
    # Under the interpreter's own limit both write the same text, or both
    # refuse an integer past it with the same ValueError.
    written = _text_outcome(lambda: bundle._scalar_text(value))
    assert written == _text_outcome(reference)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    assert isinstance(written, tuple) == (0 < limit < digits)


# -- the canonical fast path against the json.loads path ----------------------


def _outcome(load):
    """The bundle a loader returns, or the type and text of its error."""
    try:
        return load()
    except (ValueError, KeyError) as exc:
        return type(exc), str(exc)


def _assert_paths_agree(text):
    """load_bundle, and the fast path where it accepts, give what json.loads gives."""
    expected = _outcome(lambda: bundle_from_json_dict(json.loads(text)))
    fast = _outcome(lambda: bundle._canonical_bundle(text))
    if fast is not None:
        assert fast == expected
        assert isinstance(fast, tuple) or fast.dumps() == text
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "b.json"
        path.write_text(text)
        assert _outcome(lambda: load_bundle(str(path))) == expected
    return fast


def _nth(text, sub, draw):
    """The start of a drawn occurrence of ``sub`` in ``text``, or None."""
    starts = [m.start() for m in re.finditer(re.escape(sub), text)]
    return draw(st.sampled_from(starts)) if starts else None


def _reordered(text, draw):
    tree = json.loads(text)
    tree["matrices"] = dict(reversed(tree["matrices"].items()))
    return json.dumps(dict(reversed(tree.items())), separators=(",", ":")) + "\n"


def _spaced(text, draw):
    if draw(st.booleans()):
        return json.dumps(json.loads(text), sort_keys=True, indent=draw(st.sampled_from([None, 1])))
    pos = draw(st.integers(0, len(text)))
    return text[:pos] + draw(st.sampled_from([" ", "\n", "\t"])) + text[pos:]


def _spaced_cell(text, draw):
    pos = _nth(text, "[]", draw)
    return text if pos is None else text[:pos] + "[ ]" + text[pos + 2:]


def _extra_key(text, draw):
    # The end of a term, of the matrices object or of the params object.
    pos = _nth(text, "]}", draw)
    return text if pos is None else text[:pos] + '],"z":0}' + text[pos + 2:]


def _zero_term(text, draw):
    pos = _nth(text, "[{", draw)
    if pos is None:
        return text
    end = text.index("}]", pos) + 2
    return text[:pos] + '[{"d":1,"im":[0,1],"re":[0,1]}]' + text[end:]


def _duplicated_key(text, draw):
    matrices = json.loads(text)["matrices"]
    key = draw(st.sampled_from(MATRIX_KEYS))
    span = json.dumps(matrices[draw(st.sampled_from(MATRIX_KEYS))], separators=(",", ":"))
    return text.replace(f'"{key}":', f'"{key}":{span},"{key}":', 1)


def _swapped_gap(text, draw):
    # The same length and the same count of [] as the text it replaces.
    pos = _nth(text, "[],[],", draw)
    return text if pos is None else text[:pos] + "[][],," + text[pos + 6:]


def _dropped_cell(text, draw):
    pos = _nth(text, "[],", draw)
    return text if pos is None else text[:pos] + text[pos + 3:]


def _truncated(text, draw):
    return text[:draw(st.integers(0, len(text) - 1))]


def _trailing(text, draw):
    return text.removesuffix("\n") + draw(st.sampled_from(["}", " ", "\n\n", "x", "0", "{}"]))


ONE_TERM = [{"d": 1, "im": [0, 1], "re": [1, 1]}]
FIELD_VALUES = {
    "block": list(BLOCKS),
    "caseTag": ["case1", "case2", "case3", "case4"],
    "source": list(SOURCES),
    "params": [{"t12": [], "t21": ONE_TERM}, {"t12": ONE_TERM, "t21": []}],
}


def _rewritten_field(text, draw):
    """A canonical text whose metadata may disagree with its matrices."""
    tree = json.loads(text)
    field = draw(st.sampled_from(sorted(FIELD_VALUES)))
    tree[field] = draw(st.sampled_from(FIELD_VALUES[field]))
    return json.dumps(tree, sort_keys=True, separators=(",", ":")) + "\n"


def _duplicated_field(text, draw):
    """A text that gives a top-level key twice; json.loads keeps the second."""
    mats = json.loads(text)["matrices"]
    keys = sorted(mats)
    options = {**FIELD_VALUES, "matrices": [dict(zip(keys, [mats[k] for k in keys[1:] + keys[:1]]))]}
    field = draw(st.sampled_from(sorted(options)))
    first = json.dumps({field: draw(st.sampled_from(options[field]))}, sort_keys=True, separators=(",", ":"))
    return first[:-1] + "," + text[1:]


EDITS = [
    _reordered, _spaced, _spaced_cell, _extra_key, _zero_term, _duplicated_key, _swapped_gap,
    _dropped_cell, _truncated, _trailing, _rewritten_field, _duplicated_field,
]


@given(
    quad=st.sampled_from(ADMISSIBLE),
    source=st.sampled_from(SOURCES),
    block=st.sampled_from(BLOCKS),
    t12=_scalars.filter(bool),
    t21=_scalars.filter(bool),
    edit=st.sampled_from([None, *EDITS]),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_fast_path_agrees_with_the_json_loads_path(quad, source, block, t12, t21, edit, data):
    text = _generated(quad, source, block, FreeParams(t12, t21)).dumps()
    if edit is not None:
        text = edit(text, data.draw)
    fast = _assert_paths_agree(text)
    if edit is None:
        assert fast is not None


def test_standard_j_and_k_are_recognised_by_their_text(tmp_path, monkeypatch):
    path = tmp_path / "b.json"
    assert main(["gen", "--spins", "4,3,3,2", "--block", "keep12", "--out", str(path)]) == EXIT_OK
    text = path.read_text()
    parsed = []
    span_matrix = bundle._span_matrix

    def counted(span, n, decoded):
        parsed.append(span)
        return span_matrix(span, n, decoded)

    monkeypatch.setattr(bundle, "_span_matrix", counted)
    loaded = load_bundle(str(path))
    assert loaded.JK is None and len(parsed) == 4  # the V spans only
    from_json = bundle_from_json_dict(json.loads(text))
    assert from_json.JK is None and from_json == loaded
    # The generators are placed, with no basis change.
    def refuse(*args):
        raise AssertionError("change_basis called")

    monkeypatch.setattr(generators, "change_basis", refuse)
    gen = loaded.generators
    assert gen.standard and gen == direct_sum(*loaded.pairs)
    monkeypatch.undo()
    # J and K are read from their text when asked for.
    assert loaded.cartesian[:6] == direct_sum(*loaded.pairs).cartesian
    assert loaded.dumps() == text


def test_a_large_generated_bundle_takes_the_fast_path(tmp_path, monkeypatch):
    # The fast path proves the text is the writer's without running it.
    path = tmp_path / "b.json"
    assert main(["gen", "--spins", "8,8,7,7", "--block", "keep12", "--out", str(path)]) == EXIT_OK

    def refuse(what):
        def raise_(*args, **kwargs):
            raise AssertionError(f"{what} ran")
        return raise_

    monkeypatch.setattr(bundle, "matrix_from_json", refuse("the json.loads path"))
    monkeypatch.setattr(MatrixBundle, "dumps", refuse("the writer"))
    loaded = load_bundle(str(path))
    monkeypatch.undo()
    assert loaded.dumps() == path.read_text()


# tracemalloc's peak in ``save_bundle`` per byte of the file it writes, for
# the (8,8,7,7) keep12 bundle.  Written one matrix at a time it reads 0.47
# (338 kB for 714 kB, keep21 0.53); joined and encoded whole it read 2.0.
SAVE_PEAK_PER_FILE_BYTE = 0.8


def test_saving_a_large_bundle_holds_one_matrix_at_a_time(tmp_path):
    path = tmp_path / "b.json"
    saved = _generated((8, 8, 7, 7), "closed-form", "keep12", FreeParams(ONE, ONE))
    tracemalloc.start()
    try:
        save_bundle(saved, str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.read_text() == saved.dumps()
    assert peak < SAVE_PEAK_PER_FILE_BYTE * path.stat().st_size


@pytest.mark.parametrize("to_stdout", [False, True])
def test_exporting_a_large_bundle_holds_one_matrix_at_a_time(tmp_path, monkeypatch, to_stdout):
    # The write step of `export --format exact-json` alone, after the load.
    # It reads 0.42 of the file to --out and 0.41 to stdout; joined and
    # encoded whole it read 2.0.
    path, out, stdout_path = (tmp_path / name for name in ("b.json", "e.json", "stdout.json"))
    save_bundle(_generated((8, 8, 7, 7), "closed-form", "keep12", FreeParams(ONE, ONE)), str(path))
    loaded = load_bundle(str(path))
    with open(stdout_path, "w", encoding="utf-8") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        tracemalloc.start()
        try:
            cli._write_bundle(loaded, None if to_stdout else str(out))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert (stdout_path if to_stdout else out).read_bytes() == path.read_bytes()
    assert peak < SAVE_PEAK_PER_FILE_BYTE * path.stat().st_size


def test_a_value_past_the_digit_limit_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "b.json"
    path.write_text("as it was")
    big = RadicalScalar.from_rational(10 ** 5000)
    vec = closed_form_vectors(spin(1), spin(0), spin(0), spin(1), FreeParams(big, ONE))
    with pytest.raises(ValueError):
        save_bundle(MatrixBundle.of("closed-form", vec), str(path))
    assert path.read_text() == "as it was"


HALF = '[{"d":1,"im":[0,1],"re":[1,2]}]'  # the first J_z cell in _make_bundle()


@pytest.mark.parametrize("old, new", [
    (HALF, '[{"d":1,"im":[0,1],"re":[2,4]}]'),  # a fraction not in lowest terms
    (HALF, '[{"d":3,"im":[0,1],"re":[1,1]},{"d":1,"im":[0,1],"re":[1,2]}]'),  # d out of order
    (HALF, '[{"d":1, "im":[0,1],"re":[1,2]}]'),  # a space inside a cell
    (HALF, '[{"d":1,"im":[0,1],"re":[0,1]}]'),  # a nonempty cell whose value is zero
    (HALF, '[{"d":1,"im":[0,1],"re":[01,2]}]'),  # a leading zero, which JSON refuses
    (HALF, '[{"d":1,"im":[-0,1],"re":[1,2]}]'),  # -0, which JSON reads as 0
    (HALF, '[{"d":1,"im":[0,0],"re":[1,2]}]'),  # a zero denominator
    (HALF, '[{"d":1,"im":[0,1],"re":[-1,-2]}]'),  # a negative denominator, of the same value
    (HALF, '[{"d":4,"im":[0,1],"re":[1,4]}]'),  # a radicand not squarefree, of the same value
    (HALF, '[{"d":1,"re":[1,2],"im":[0,1]}]'),  # re written before im
    (HALF, '[{"d":1,"im":[0,1],"re":[1,2],"x":0}]'),  # an extra key, which json.loads ignores
    (HALF, '[{"d":1,"im":[0,1],"re":[1,' + "3" * 4301 + ']}]'),  # past the digit limit
    ("[],[],", "[][],,"),  # two empty cells respelled at the same length
    ("[],", ""),  # one cell too few
    ('"spins":', '"spins": '),  # a space outside the matrices
], ids=[
    "unreduced", "unsorted", "spaced", "zero", "leading-zero", "minus-zero", "zero-denominator",
    "negative-denominator", "square-radicand", "re-first", "extra-key", "digit-limit", "gap",
    "dropped", "header",
])
def test_a_text_the_writer_would_not_write_takes_the_json_loads_path(old, new):
    text = _make_bundle().dumps()
    assert text.startswith('"Jz":[' + HALF, text.index('"Jz":'))
    pos = text.index(old, text.index('"Jz":'))
    edited = text[:pos] + new + text[pos + len(old):]
    assert bundle._canonical_bundle(edited) is None
    _assert_paths_agree(edited)

