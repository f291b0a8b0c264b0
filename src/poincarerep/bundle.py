"""Canonical JSON serialization of generated matrix sets.

A bundle file holds the four doubled spins, the case tag, the free
parameters, and the ten matrices (J x3, K x3, V or P x4) as dense
row-major entry lists.  Every entry is a list of terms

    {"d": <squarefree radicand>, "re": [num, den], "im": [num, den]}

sorted by d ascending, so equal values serialize identically and the
canonical dump (sorted keys, no whitespace) is byte-reproducible.

The canonical text is what ``json.dumps`` gives with sorted keys and no
whitespace, but the matrices never pass through ``json``: ``_scalar_text``
formats a value's terms straight from its integers, and ``dumps`` writes
each run of zero cells whole.  The loader reads such a text back cell by
cell with one fixed pattern and proves each cell is the text the writer
writes of the value it reads; any other text goes through ``json.loads``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

from .cg import cg_vector_matrices
from .generators import GeneratorSet, cartesian_generators
from .matrix import Matrix
from .radical import RadicalScalar, _make, normalize_radical
from .spins import Spin, SpinPair
from .vectors import (
    BLOCKS,
    CaseTag,
    FreeParams,
    VectorSet,
    block_bounds,
    classify_case,
    closed_form_vectors,
    recursion_solve,
    vectors_from_coefficients,
)

SCHEMA_VERSION = 1
LAYOUT_NOTE = (
    "basis: (A,B) block first, then (C,D); within a block the index pair"
    " (a,b) runs row-major with a descending outer and b descending inner;"
    " matrices are dense row-major entry lists"
)

MATRIX_KEYS = ("Jx", "Jy", "Jz", "Kx", "Ky", "Kz", "Vx", "Vy", "Vz", "Vt")
SOURCES = ("closed-form", "recursion", "clebsch-gordan")


def vectors_from_source(
    source: str, spins: tuple[Spin, Spin, Spin, Spin], params: FreeParams
) -> VectorSet:
    """The full vector set of (A,B)+(C,D) built by the route named ``source``."""
    A, B, C, D = spins
    if source == "closed-form":
        return closed_form_vectors(A, B, C, D, params)
    if source == "recursion":
        return vectors_from_coefficients(recursion_solve(A, B, C, D, params))
    if source == "clebsch-gordan":
        return cg_vector_matrices(A, B, C, D, params)
    raise ValueError(f"source must be one of {', '.join(SOURCES)}, not {source!r}")


def scalar_to_json(value: RadicalScalar) -> list[dict]:
    """Each coefficient n / den in lowest terms, as ``Fraction`` would give it."""
    den = value._den
    return [
        {"d": d, "re": _lowest(re, den), "im": _lowest(im, den)}
        for d, (re, im) in sorted(value._num.items())
    ]


def _lowest(n: int, den: int) -> list[int]:
    g = math.gcd(n, den)
    return [n // g, den // g]


_JSON_TYPES = {dict: "object", list: "array", int: "integer"}


def _expect(value, kind: type, what: str):
    if type(value) is not kind:  # exact JSON types: a Python bool is an int
        raise ValueError(f"{what} must be a JSON {_JSON_TYPES[kind]}")
    return value


def _rational(pair, what: str) -> Fraction:
    if type(pair) is not list or len(pair) != 2 or type(pair[0]) is not int or type(pair[1]) is not int:
        raise ValueError(f"{what} must be a pair of JSON integers")
    return Fraction(*pair)


def scalar_from_json(terms: list[dict]) -> RadicalScalar:
    """Decode a term list; a malformed term raises ValueError (or KeyError)."""
    _expect(terms, list, "an entry")
    try:
        return RadicalScalar.from_terms(
            (_expect(t["d"], int, "a radicand"), _rational(t["re"], "re"), _rational(t["im"], "im"))
            for t in terms
        )
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed scalar term: {exc}") from exc


def matrix_from_json(entries: list[list[dict]], rows: int, cols: int) -> Matrix:
    """Decode a dense row-major entry grid; a malformed entry raises ValueError.

    ``[]`` is exact zero, and every other entry, a falsy one such as
    ``null`` or ``{}`` included, is decoded by ``scalar_from_json``.
    """
    if len(_expect(entries, list, "a matrix")) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, found {len(entries)}")
    return Matrix.from_entries(rows, cols, {
        divmod(pos, cols): scalar_from_json(terms)
        for pos, terms in enumerate(entries)
        if terms != []
    })


@dataclass(frozen=True)
class MatrixBundle:
    """One generated representation as its file holds it: the route, the
    spins, the block choice, the parameters and the ten Cartesian matrices.

    The generators and the vectors in the paper's bases are formed from the
    matrices when first read, so a command that only writes the matrices
    out forms neither.
    """

    source: str  # one of SOURCES
    pairs: tuple[SpinPair, SpinPair]
    block: str  # one of BLOCKS
    params: FreeParams
    cartesian: tuple[Matrix, ...]  # in MATRIX_KEYS order

    @classmethod
    def of(cls, source: str, vectors: VectorSet) -> "MatrixBundle":
        """The bundle of a built vector set, holding its block.

        Every bundle's generators are the standard ones of its spins, so J
        and K are placed by ``cartesian_generators`` and V by
        ``VectorSet.cartesian``; neither takes a basis change.
        """
        return cls(
            source, vectors.spins, vectors.block, vectors.params,
            (*cartesian_generators(*vectors.spins), *vectors.cartesian),
        )

    @property
    def spins(self) -> tuple[int, int, int, int]:
        """Doubled (2A, 2B, 2C, 2D)."""
        pair1, pair2 = self.pairs
        return (pair1.left.twice, pair1.right.twice, pair2.left.twice, pair2.right.twice)

    @property
    def case(self) -> CaseTag:
        pair1, pair2 = self.pairs
        return classify_case(pair1.left, pair1.right, pair2.left, pair2.right)

    @property
    def dimension(self) -> int:
        return self.cartesian[0].rows

    @cached_property
    def generators(self) -> GeneratorSet:
        return GeneratorSet.from_cartesian(self.pairs, self.cartesian[:3], self.cartesian[3:6])

    @cached_property
    def vectors(self) -> VectorSet:
        return VectorSet.from_cartesian(self.pairs, self.params, self.cartesian[6:], self.block)

    def matrices(self) -> dict[str, Matrix]:
        """The ten matrices keyed by MATRIX_KEYS, in that order, in a new dict."""
        return dict(zip(MATRIX_KEYS, self.cartesian))

    def dumps(self) -> str:
        """The canonical text: what ``json.dumps`` gives with sorted keys and
        no whitespace, plus a newline, written directly.

        A bundle is mostly zero cells and repeats few values.  So each
        matrix is written from its nonzero cells, sorted by row-major
        position, each cell with the comma before it: a run of k zero cells
        between them is written whole as ``",[]"*k``, and each distinct
        value is formatted once by ``_scalar_text``.  The first cell's comma
        is then dropped, and the pieces are joined once.
        ``tests/oracles.py`` holds the dict this text encodes, and the tests
        compare the two byte for byte.
        """
        # A value's cell text is looked up by the value's id first: the
        # matrices share their entry objects, and every one lives while this
        # runs.  An id not seen yet falls back to the value's integers, not
        # to the value, whose hash builds a Fraction for a rational value.  A
        # value whose terms are stored in another order is formatted again,
        # to the same text.
        by_id: dict[int, str] = {}
        by_key: dict[tuple, str] = {}

        def matrix_text(mat: Matrix) -> str:
            cols, cells = mat.cols, []  # (row-major position, "," + text) of each nonzero cell
            for i, row in mat._rows.items():
                for j, value in row.items():
                    cell = by_id.get(id(value))
                    if cell is None:
                        key = (value._den, tuple(value._num.items()))
                        cell = by_key.get(key)
                        if cell is None:
                            cell = by_key[key] = "," + _scalar_text(value)
                        by_id[id(value)] = cell
                    cells.append((i * cols + j, cell))
            cells.sort()
            pieces, done = ["["], 0  # done: the cells written so far
            for pos, cell in cells:
                pieces.append(",[]"*(pos - done))
                pieces.append(cell)
                done = pos + 1
            pieces.append(",[]"*(mat.rows * cols - done))
            first = 1 if pieces[1] else 2  # the first cell has no comma before it
            pieces[first] = pieces[first][1:]
            pieces.append("]")
            return "".join(pieces)

        return self._text(matrix_text)

    def _text(self, matrix_text: Callable[[Matrix], str]) -> str:
        """The canonical text with each matrix written by ``matrix_text``."""
        return _object({
            "block": _compact(self.block),
            "caseTag": _compact(self.case.value),
            "dimension": _compact(self.dimension),
            "layout": _compact(LAYOUT_NOTE),
            "matrices": _object({
                key: matrix_text(mat) for key, mat in zip(MATRIX_KEYS, self.cartesian)
            }),
            "params": _object({
                "t12": _scalar_text(self.params.t12), "t21": _scalar_text(self.params.t21)
            }),
            "schemaVersion": _compact(SCHEMA_VERSION),
            "source": _compact(self.source),
            "spins": _compact(list(self.spins)),
        }) + "\n"


def _compact(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _scalar_text(value: RadicalScalar) -> str:
    """``_compact(scalar_to_json(value))``, formatted straight from the integers.

    Each term is ``{"d":D,"im":[n,m],"re":[n,m]}``, in ascending d, with each
    fraction brought to lowest terms by one gcd; an integer past Python's
    digit limit raises the ValueError ``json.dumps`` raises.
    """
    den, gcd, terms = value._den, math.gcd, []
    for d, (real, imag) in sorted(value._num.items()):
        g, h = gcd(real, den), gcd(imag, den)
        terms.append(f'{{"d":{d},"im":[{imag // h},{den // h}],"re":[{real // g},{den // g}]}}')
    return "[" + ",".join(terms) + "]"


# One term as the writer writes it, its five integers captured in text order.
_TERM = re.compile(r'\{"d":([0-9]+),"im":\[(-?[0-9]+),([0-9]+)\],"re":\[(-?[0-9]+),([0-9]+)\]\}')


def _cell_value(text: str) -> RadicalScalar:
    """The nonzero value whose ``_scalar_text`` is ``text``; ValueError if there is none.

    The terms are read with ``_TERM`` and summed as ``from_terms`` sums
    them, each radicand through ``normalize_radical``; the text is then
    proved to be the writer's text of the sum.  So a leading zero, ``-0``, a
    fraction not in lowest terms, a radicand that is not squarefree, keys
    out of order or anything between the terms makes a miss, as does an
    integer past Python's digit limit, which ``int`` refuses.
    """
    terms = [tuple(map(int, t)) for t in _TERM.findall(text)]
    den = 1
    for _, _, iq, _, rq in terms:
        if not (iq and rq):
            raise ValueError("a zero denominator")
        den = math.lcm(den, iq, rq)
    acc: dict[int, tuple[int, int]] = {}
    for d, in_, iq, rn, rq in terms:
        out, core = normalize_radical(d)
        real, imag = rn * out * (den // rq), in_ * out * (den // iq)
        prev = acc.get(core)
        acc[core] = (real, imag) if prev is None else (prev[0] + real, prev[1] + imag)
    value = _make(acc, den)
    if value.is_zero() or _scalar_text(value) != text:
        raise ValueError("a cell not as the writer writes it")
    return value


def _object(fields: dict[str, str]) -> str:
    """The JSON object of already encoded values, keys in ``sort_keys`` order."""
    return "{" + ",".join(f"{_compact(key)}:{fields[key]}" for key in sorted(fields)) + "}"


def bundle_from_json_dict(data: dict) -> MatrixBundle:
    """Decode a bundle, checking its metadata against its spins and matrices.

    A malformed or inconsistent bundle raises ValueError (or KeyError).
    """
    return _checked_bundle(data, lambda matrices, n: tuple(
        matrix_from_json(matrices[key], n, n) for key in MATRIX_KEYS
    ))


def _checked_bundle(
    data: dict, read_matrices: Callable[[dict, int], tuple[Matrix, ...]]
) -> MatrixBundle:
    """The bundle of a decoded JSON tree, after every check, in the order
    in which an error is reported.

    ``read_matrices`` decodes ``data["matrices"]`` at dimension n, in
    MATRIX_KEYS order; the fast loader passes one that reads the matrices
    from the text instead.  The last check reads each off-diagonal block of
    V_x, V_y, V_z, V_t: a block of the families is zero exactly when that
    block of every V_mu is, since the families mix the V_mu cell by cell.
    """
    version = _expect(data, dict, "a bundle").get("schemaVersion")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schemaVersion {version!r}")
    spins = tuple(_expect(t, int, "a spin") for t in _expect(data["spins"], list, "spins"))
    if len(spins) != 4:
        raise ValueError("spins must hold four doubled integers")
    A, B, C, D = (Spin(t) for t in spins)
    pairs = (SpinPair(A, B), SpinPair(C, D))
    n = _expect(data["dimension"], int, "dimension")
    if n != pairs[0].dimension + pairs[1].dimension:
        raise ValueError("dimension field inconsistent with spins")
    mats = read_matrices(_expect(data["matrices"], dict, "matrices"), n)
    terms = _expect(data["params"], dict, "params")
    params = FreeParams(scalar_from_json(terms["t12"]), scalar_from_json(terms["t21"]))
    block, source = data["block"], data["source"]
    if block not in BLOCKS:
        raise ValueError(f"block must be one of {', '.join(BLOCKS)}, not {block!r}")
    if source not in SOURCES:
        raise ValueError(f"source must be one of {', '.join(SOURCES)}, not {source!r}")
    bundle = MatrixBundle(source, pairs, block, params, mats)
    if data["caseTag"] != bundle.case.value:
        raise ValueError(f"caseTag {data['caseTag']!r} disagrees with spins {list(spins)}")
    for which, param in (("12", params.t12), ("21", params.t21)):
        bounds = block_bounds(pairs, which)
        zero = all(mat.window(*bounds).is_zero() for mat in mats[6:])
        if block not in ("both", f"keep{which}"):
            if not zero:
                raise ValueError(f"block {block!r} but the {which}-block of V is nonzero")
        elif zero != param.is_zero():
            raise ValueError(f"t{which} must be zero exactly when the {which}-block of V is")
    return bundle


def _canonical_bundle(text: str) -> MatrixBundle | None:
    """The bundle of ``text`` if ``text`` is its ``dumps()``, else None.

    ``text == bundle.dumps()`` is proved piece by piece while the text is
    read, without writing that string.  ``_matrix_spans`` cuts the text into
    a header, the text with each matrix replaced by ``0``, and the ten
    matrix spans; only the short header goes through ``json.loads``.
    ``dumps()`` is ``_text`` with the matrix writer, so ``_text`` with each
    matrix written as ``0`` must give the header back.  The placeholders
    then sit at the same offsets in both: the header's first
    ``"matrices":{`` is where ``_matrix_spans`` cut, and in the writer's
    text the fields before that key hold only a block name, a case tag, an
    integer and the layout note.  ``_span_matrix`` proves each span equal to
    what the matrix writer writes of the matrix it returns.  Header
    equality and the ten span equalities together are exactly
    ``text == dumps()``.

    A miss at any step, or an error met on the way, returns None, and the
    caller's ``json.loads`` fallback reads the text or raises that error
    again.  A text that passes holds exactly the JSON tree of the result,
    so it decodes to what the fallback would return.  Every step is one
    forward scan (``str.find`` and ``str.count`` from a position that only
    grows, and ``_TERM`` within one cell, where a term fails within its
    digits), so any text is read in linear time.
    """
    scanned = _matrix_spans(text)
    if scanned is None:
        return None
    header, spans = scanned
    decoded: dict[str, RadicalScalar] = {}
    try:
        bundle = _checked_bundle(
            json.loads(header),
            lambda _, n: tuple(_span_matrix(spans[key], n, decoded) for key in MATRIX_KEYS),
        )
    except (ValueError, KeyError, RecursionError):
        return None
    return bundle if bundle._text(lambda mat: "0") == header else None


def _matrix_spans(text: str) -> tuple[str, dict[str, str]] | None:
    """``text`` with each matrix replaced by ``0``, and each matrix's text.

    The matrices are looked for as the canonical writer places them: in
    sorted key order, each ending at the first ``]]``.
    """
    head = '"matrices":{'
    start = text.find(head)
    if start < 0:
        return None
    pos = start + len(head)
    pieces, spans = [text[:pos]], {}
    for k, key in enumerate(sorted(MATRIX_KEYS)):
        head = f'{"," if k else ""}"{key}":'
        if not text.startswith(head, pos):
            return None
        end = text.find("]]", pos)
        if end < 0:
            return None
        spans[key] = text[pos + len(head):end + 2]
        pieces.append(head + "0")
        pos = end + 2
    pieces.append(text[pos:])
    return "".join(pieces), spans


def _span_matrix(span: str, n: int, decoded: dict[str, RadicalScalar]) -> Matrix:
    """The n x n matrix the writer writes as ``span``; ValueError if there is none.

    The writer gives ``"[" + ",".join(cells) + "]"`` of n * n cells: ``[]``
    for zero, else the canonical text of a nonzero value, which ends in
    ``}]`` and holds no ``}],``.  So the span's inside, with a ``,`` put
    after it, must be a run of empty cells, a nonzero cell and its ``,``,
    over and over, and then a last run: each nonzero cell starts one
    character before the first ``{`` after the run before it (an empty
    cell holds none) and ends at the next ``}],``.
    A run of k empty cells must be ``"[],"*k``: ``str.count`` must find k
    ``[],`` in its 3k characters, which they then tile.  Each distinct
    nonempty cell text is decoded once by ``_cell_value``, without ``json``
    or ``Fraction``, and kept in ``decoded`` (text to value); it must be the
    writer's text of a nonzero value.
    """
    if not (span.startswith("[") and span.endswith("]")):
        raise ValueError("a matrix must be a JSON array")
    body = span[1:-1] + ","
    rows: dict[int, dict[int, RadicalScalar]] = {}
    index = pos = 0
    while (brace := body.find("{", pos)) >= 0:
        cell, end = brace - 1, body.find("}],", brace)
        if end < 0 or body.count("[],", pos, cell) * 3 != cell - pos:
            raise ValueError("empty cells not as the writer writes them")
        index += (cell - pos) // 3
        terms = body[cell:end]
        value = decoded.get(terms)
        if value is None:
            value = decoded[terms] = _cell_value(terms + "}]")
        i, j = divmod(index, n)
        rows.setdefault(i, {})[j] = value
        index += 1
        pos = end + 3
    rest = len(body) - pos
    if body.count("[],", pos) * 3 != rest:
        raise ValueError("empty cells not as the writer writes them")
    if index + rest // 3 != n * n:
        raise ValueError(f"expected {n * n} cells")
    return Matrix._from_rows(n, n, rows)


def load_bundle(path: str) -> MatrixBundle:
    """Read and decode a bundle file; a malformed one raises ValueError (or KeyError).

    A text that ``MatrixBundle.dumps`` could have written is read by
    ``_canonical_bundle``, which checks it against the writer as it scans
    and writes nothing; any other goes through ``json.loads`` and
    ``bundle_from_json_dict``.  Both give the same bundle, or raise the same
    error, on the same text.  Every file the program writes is canonical,
    so ``json.loads`` reads only files edited or re-indented elsewhere; it
    decodes each cell on its own, as the decoder the fast path is tested
    against.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    bundle = _canonical_bundle(text)
    if bundle is not None:
        return bundle
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    return bundle_from_json_dict(data)


def save_bundle(bundle: MatrixBundle, path: str) -> None:
    """Write ``bundle.dumps()`` to ``path``.

    The text is formed before the file is opened, so a ValueError from an
    integer past Python's digit limit leaves the file as it was.
    """
    text = bundle.dumps()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
