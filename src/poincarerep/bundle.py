"""Canonical JSON serialization of generated matrix sets.

A bundle file holds the four doubled spins, the case tag, the free
parameters, and the ten matrices (J x3, K x3, V or P x4) as dense
row-major entry lists.  Every entry is a list of terms

    {"d": <squarefree radicand>, "re": [num, den], "im": [num, den]}

sorted by d ascending, so equal values serialize identically and the
canonical dump (sorted keys, no whitespace) is byte-reproducible.

The canonical text is what ``json.dumps`` gives with sorted keys and no
whitespace, but the matrices never pass through ``json``: ``_scalar_text``
formats a value's terms straight from its integers, ``dumps`` writes each
run of zero cells whole, and the pieces of the whole text are joined once.
The loader reads such a text back cell by cell with one fixed pattern and
proves each cell is the text the writer writes of the value it reads; any
other text goes through ``json.loads``.

The paper starts from the standard J and K of the spins, and only V (or P)
is solved for.  So a ``MatrixBundle`` holds J and K only when its file's
differ from the standard ones.  ``generator_texts`` writes the standard
J and K as text, row by row from the one-spin ladder tables; ``dumps``
writes that text, and the fast loader compares each J and K span with it,
so string equality proves those six spans and they are never parsed.  A
file with edited J or K is read as before and holds them.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator

from .cg import cg_vector_matrices
from .generators import (
    _DIAGONAL, _LADDER_PLACES, _LADDERS, GeneratorSet, direct_sum, rotation_rep,
)
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

    The paper starts from the standard J and K of the spins, so a bundle
    holds V always but J and K only when they are not the standard ones
    (``JK`` is None otherwise, as for every bundle ``gen`` writes); both
    loaders read a file whose J and K are the standard ones that way.  Its
    J and K in the file are then ``generator_texts`` of the spins, and its
    ``generators`` the standard set of ``direct_sum``, whose J and K
    ``cartesian`` reads.  The generators and the vectors in the paper's
    bases are formed when first read, so a command that only writes the
    matrices out forms neither, and a check settled by the spins places no
    spin basis.
    """

    source: str  # one of SOURCES
    pairs: tuple[SpinPair, SpinPair]
    block: str  # one of BLOCKS
    params: FreeParams
    V: tuple[Matrix, ...]  # (Vx, Vy, Vz, Vt)
    JK: tuple[Matrix, ...] | None = None  # (Jx, Jy, Jz, Kx, Ky, Kz); None for the standard ones

    @classmethod
    def of(cls, source: str, vectors: VectorSet) -> "MatrixBundle":
        """The bundle of a built vector set, holding its block.

        Every route's generators are the standard ones of its spins, so the
        bundle holds only V, placed by ``VectorSet.cartesian`` with no basis
        change.
        """
        return cls(source, vectors.spins, vectors.block, vectors.params, vectors.cartesian)

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
        return self.V[0].rows

    @cached_property
    def cartesian(self) -> tuple[Matrix, ...]:
        """The ten matrices in MATRIX_KEYS order; standard J and K are ``direct_sum``'s."""
        return (self.generators.cartesian if self.JK is None else self.JK) + self.V

    @cached_property
    def generators(self) -> GeneratorSet:
        if self.JK is None:
            return direct_sum(*self.pairs)
        return GeneratorSet.from_cartesian(self.pairs, self.JK[:3], self.JK[3:])

    @cached_property
    def vectors(self) -> VectorSet:
        return VectorSet.from_cartesian(self.pairs, self.params, self.V, self.block)

    def matrices(self) -> dict[str, Matrix]:
        """The ten matrices keyed by MATRIX_KEYS, in that order, in a new dict."""
        return dict(zip(MATRIX_KEYS, self.cartesian))

    def dumps(self) -> str:
        """The canonical text: what ``json.dumps`` gives with sorted keys and
        no whitespace, plus a newline, written directly.

        Standard J and K are written by ``_generator_pieces`` from the
        one-spin tables, and every matrix the bundle holds by
        ``_matrix_pieces``; the text is ``chunks()`` joined.
        ``tests/oracles.py`` holds the dict this text encodes, and the tests
        compare the two byte for byte.
        """
        return "".join(self.chunks())

    def chunks(self) -> Iterator[str]:
        """The canonical text in the chunks a writer takes one at a time.

        Every piece of the text is formed before this returns, so a
        ValueError from an integer past Python's digit limit comes before
        anything is written.  Each matrix's pieces are joined only as that
        matrix's chunk is reached, so the whole text is never held at once.
        """
        # Each matrix's pieces, nested in a list, stay one element of ``pieces``.
        pieces = self._pieces([[matrix] for matrix in self._matrix_texts()])
        return (piece if isinstance(piece, str) else "".join(piece) for piece in pieces)

    def _matrix_texts(self) -> list[list[str]]:
        """The pieces of the text of each matrix, in MATRIX_KEYS order."""
        by_id: dict[int, str] = {}
        by_key: dict[tuple, str] = {}
        runs: dict[int, str] = {}

        def written(mats: tuple[Matrix, ...]) -> list[list[str]]:
            return [_matrix_pieces(mat, by_id, by_key, runs) for mat in mats]

        jk = _generator_pieces(*self.pairs) if self.JK is None else written(self.JK)
        return jk + written(self.V)

    def _pieces(self, matrices: list[list]) -> list:
        """The pieces of the canonical text, matrices[k] those of the text of MATRIX_KEYS[k].

        Each matrices[k] is spliced in as it is, so a list nested in it
        stays one element of the result.
        """
        pieces = _object({
            "block": [_compact(self.block)],
            "caseTag": [_compact(self.case.value)],
            "dimension": [_compact(self.dimension)],
            "layout": [_compact(LAYOUT_NOTE)],
            "matrices": _object(dict(zip(MATRIX_KEYS, matrices))),
            "params": _object({
                "t12": [_scalar_text(self.params.t12)], "t21": [_scalar_text(self.params.t21)]
            }),
            "schemaVersion": [_compact(SCHEMA_VERSION)],
            "source": [_compact(self.source)],
            "spins": [_compact(list(self.spins))],
        })
        pieces.append("\n")
        return pieces


def _matrix_pieces(
    mat: Matrix, by_id: dict[int, str], by_key: dict[tuple, str], runs: dict[int, str]
) -> list[str]:
    """The pieces of the canonical text of ``mat``, joined by the caller.

    A bundle is mostly zero cells and repeats few values.  So the matrix is
    written from its nonzero cells, sorted by row-major position, and each
    distinct value is formatted once by ``_scalar_text``; ``_cell_pieces``
    puts the runs of zero cells between them.

    A value's cell text is looked up by the value's id first (``by_id``):
    the matrices of one bundle share their entry objects, and every one
    lives while the caller writes.  An id not seen yet falls back to the
    value's integers (``by_key``), not to the value, whose hash builds a
    Fraction for a rational value.  A value whose terms are stored in
    another order is formatted again, to the same text.
    """
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
    runs_before = _empty_runs([pos for pos, _ in cells], mat.rows * cols, runs)
    return _cell_pieces(runs_before, [cell for _, cell in cells])


def _empty_runs(positions: list[int], total: int, runs: dict[int, str]) -> list[str]:
    """The run of empty cells before each nonempty cell, at ``positions``
    in ascending order, and the run after the last, of ``total`` cells.

    A run of k empty cells is written whole as ``",[]"*k``, each with the
    comma before it, and made once per k (kept in ``runs``).
    """
    out, done = [], 0  # done: the cells written so far
    for pos in positions + [total]:
        k = pos - done
        run = runs.get(k)
        if run is None:
            run = runs[k] = ",[]" * k
        out.append(run)
        done = pos + 1
    return out


def _cell_pieces(runs_before: list[str], cells: list[str]) -> list[str]:
    """The pieces of a matrix text: each run of ``_empty_runs`` and each
    nonempty cell (``"," + text``) in turn, in brackets, with the first
    comma dropped."""
    pieces = ["["] * (2 * len(cells) + 2)
    pieces[1::2] = runs_before
    pieces[2::2] = cells
    first = 1 if pieces[1] else 2
    pieces[first] = pieces[first][1:]
    pieces.append("]")
    return pieces


def matrix_text(mat: Matrix) -> str:
    """The canonical text of one matrix, as ``dumps`` writes it."""
    return "".join(_matrix_pieces(mat, {}, {}, {}))


# The G_p the ladders enter: J_x, J_y, K_x and K_y.  Every ladder enters
# all four, so their cells share one layout; J_z and K_z hold only the
# diagonal.
_OFF_DIAGONAL = sorted({p for _, units in _LADDERS for p, _, _ in units})


def _generator_pieces(p1: SpinPair, p2: SpinPair) -> list[list[str]]:
    """The text pieces of the standard (Jx, Jy, Jz, Kx, Ky, Kz) of p1 + p2.

    Each is what ``_matrix_pieces`` gives of ``direct_sum(p1, p2).cartesian``,
    written row by row in position order from ``rotation_rep`` of each spin,
    with no Matrix, no sort and no basis change.  An off-diagonal cell of
    G_p is one ladder entry r times (re + i im)/2 (``_LADDERS``), and within
    a row of an irrep the ladders sit at fixed column steps from the
    diagonal: -mult(B) (A-), -1 (B-), +1 (B+) and +mult(B) (A+).  So the
    positions of the ladder cells, and the empty runs between them, are
    found once and shared by the four G_p they enter, each of which then
    only looks up its texts.  The diagonal is (on_a m_a + on_b m_b)/4 for
    the doubled projections (``_DIAGONAL``).  Each distinct value is
    formatted once by ``_scalar_text``.
    """
    n = p1.dimension + p2.dimension
    texts: dict[tuple, str] = {}  # "," + the text of each value, keyed on its integers
    runs: dict[int, str] = {}

    def cell(num: dict[int, tuple[int, int]], den: int) -> str:
        key = (den, tuple(num.items()))
        text = texts.get(key)
        if text is None:
            text = texts[key] = "," + _scalar_text(_make(num, den))
        return text

    # columns[p][slot]: the texts of one ladder of one irrep in G_p, over
    # the one-spin rows, None where the ladder has no entry; each ladder
    # cell is (position, slot, one-spin row).  The texts of one ladder times
    # one coefficient are made once.
    columns: dict[int, list[list[str | None]]] = {p: [] for p in _OFF_DIAGONAL}
    made: dict[tuple, list[str | None]] = {}
    positions: list[int] = []
    slots: list[tuple[int, int]] = []
    diagonal: dict[int, tuple[list[int], list[str]]] = {p: ([], []) for p, _, _ in _DIAGONAL}
    quarters: dict[complex, str] = {}  # the text of z / 4
    offset = 0
    for pair in (p1, p2):
        nb = pair.right.multiplicity
        stencil = []  # (column step from the diagonal, on the outer index, slot, has an entry)
        for a, units in _LADDERS:
            outer, sign = _LADDER_PLACES[a]
            spin = pair.left if outer else pair.right
            ladder = rotation_rep(spin)[0 if sign > 0 else 1]._rows
            entries = [
                next(iter(ladder[idx].values())) if idx in ladder else None
                for idx in range(spin.multiplicity)
            ]
            slot = len(columns[_OFF_DIAGONAL[0]])
            for p, re, im in units:
                key = (spin, sign, re, im)
                if key not in made:
                    made[key] = [
                        None if r is None else cell(
                            {d: (x * re - y * im, x * im + y * re) for d, (x, y) in r._num.items()},
                            2 * r._den,
                        )
                        for r in entries
                    ]
                columns[p].append(made[key])
            present = [r is not None for r in entries]
            stencil.append((sign * nb if outer else sign, outer, slot, present))
        stencil.sort(key=lambda s: s[0])
        row = offset
        for ia in range(pair.left.multiplicity):
            for ib in range(nb):
                at = row * (n + 1)  # the diagonal cell's position
                for step, outer, slot, present in stencil:
                    idx = ia if outer else ib
                    if present[idx]:
                        positions.append(at + step)
                        slots.append((slot, idx))
                row += 1
        for p, on_a, on_b in _DIAGONAL:
            at, cells = diagonal[p]
            for row, (ma, mb) in enumerate(pair.basis(), offset):
                if z := on_a * ma + on_b * mb:
                    if z not in quarters:
                        quarters[z] = cell({1: (int(z.real), int(z.imag))}, 4)
                    at.append(row * (n + 1))
                    cells.append(quarters[z])
        offset += pair.dimension
    shared = _empty_runs(positions, n * n, runs)
    out = []
    for p in range(6):
        if p in columns:
            column = columns[p]
            out.append(_cell_pieces(shared, [column[slot][idx] for slot, idx in slots]))
        else:
            at, cells = diagonal[p]
            out.append(_cell_pieces(_empty_runs(at, n * n, runs), cells))
    return out


def generator_texts(p1: SpinPair, p2: SpinPair) -> tuple[str, ...]:
    """The canonical text of the standard (Jx, Jy, Jz, Kx, Ky, Kz) of p1 + p2."""
    return tuple("".join(pieces) for pieces in _generator_pieces(p1, p2))


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


def _object(fields: dict[str, list[str]]) -> list[str]:
    """The pieces of the JSON object of values given as pieces, keys in ``sort_keys`` order."""
    pieces = ["{"]
    for k, key in enumerate(sorted(fields)):
        pieces.append(f'{"," if k else ""}{_compact(key)}:')
        pieces += fields[key]
    pieces.append("}")
    return pieces


def bundle_from_json_dict(data: dict) -> MatrixBundle:
    """Decode a bundle, checking its metadata against its spins and matrices.

    A malformed or inconsistent bundle raises ValueError (or KeyError).  J
    and K equal to the standard ones of the spins are not kept.
    """
    def read(matrices: dict, n: int, pairs: tuple[SpinPair, SpinPair]):
        mats = tuple(matrix_from_json(matrices[key], n, n) for key in MATRIX_KEYS)
        jk = mats[:6]
        return (None if jk == direct_sum(*pairs).cartesian else jk), mats[6:]

    return _checked_bundle(data, read)


def _checked_bundle(data: dict, read_matrices: Callable) -> MatrixBundle:
    """The bundle of a decoded JSON tree, after every check, in the order
    in which an error is reported.

    ``read_matrices(data["matrices"], n, pairs)`` decodes the matrices at
    dimension n, in MATRIX_KEYS order, and gives (J and K, or None where
    they are the standard ones of ``pairs``; V); the fast loader passes one
    that reads the matrices from the text instead.  The last check reads
    each off-diagonal block of V_x, V_y, V_z, V_t: a block of the families
    is zero exactly when that block of every V_mu is, since the families
    mix the V_mu cell by cell.
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
    jk, V = read_matrices(_expect(data["matrices"], dict, "matrices"), n, pairs)
    terms = _expect(data["params"], dict, "params")
    params = FreeParams(scalar_from_json(terms["t12"]), scalar_from_json(terms["t21"]))
    block, source = data["block"], data["source"]
    if block not in BLOCKS:
        raise ValueError(f"block must be one of {', '.join(BLOCKS)}, not {block!r}")
    if source not in SOURCES:
        raise ValueError(f"source must be one of {', '.join(SOURCES)}, not {source!r}")
    bundle = MatrixBundle(source, pairs, block, params, V, jk)
    if data["caseTag"] != bundle.case.value:
        raise ValueError(f"caseTag {data['caseTag']!r} disagrees with spins {list(spins)}")
    for which, param in (("12", params.t12), ("21", params.t21)):
        bounds = block_bounds(pairs, which)
        zero = all(mat.window(*bounds).is_zero() for mat in V)
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
    ``dumps()`` is ``_text`` with the matrices' pieces, so ``_text`` with
    each matrix written as ``0`` must give the header back.  The
    placeholders then sit at the same offsets in both: the header's first
    ``"matrices":{`` is where ``_matrix_spans`` cut, and in the writer's
    text the fields before that key hold only a block name, a case tag, an
    integer and the layout note.  The J and K spans are compared with
    ``generator_texts`` of the spins: if all six are equal, string equality
    is the proof for them, the bundle holds no J and K, and they are not
    parsed.  Otherwise, and for V always, ``_span_matrix`` proves each span
    equal to what the matrix writer writes of the matrix it returns; the
    six J and K it returns are then not all the standard ones, whose text
    is one.  Header equality and the ten span equalities together are
    exactly ``text == dumps()``.

    A miss at any step, or an error met on the way, returns None, and the
    caller's ``json.loads`` fallback reads the text or raises that error
    again.  A text that passes holds exactly the JSON tree of the result,
    so it decodes to what the fallback would return.  Every step is one
    forward scan (``str.find`` and ``str.count`` from a position that only
    grows, and ``_TERM`` within one cell, where a term fails within its
    digits), so any text is read in linear time; the standard text is
    written only when each J and K span is as long as n * n cells need, so
    it is no longer than the text read.
    """
    scanned = _matrix_spans(text)
    if scanned is None:
        return None
    header, spans = scanned
    decoded: dict[str, RadicalScalar] = {}

    def read(_, n: int, pairs: tuple[SpinPair, SpinPair]):
        jk = [spans[key] for key in MATRIX_KEYS[:6]]
        # A matrix text holds n * n cells of at least 2 characters, n * n - 1
        # commas and 2 brackets, so a shorter span is not the standard text.
        standard = all(len(span) > 3 * n * n for span in jk) and list(generator_texts(*pairs)) == jk
        held = None if standard else tuple(_span_matrix(span, n, decoded) for span in jk)
        return held, tuple(_span_matrix(spans[key], n, decoded) for key in MATRIX_KEYS[6:])

    try:
        bundle = _checked_bundle(json.loads(header), read)
    except (ValueError, KeyError, RecursionError):
        return None
    return bundle if "".join(bundle._pieces([["0"]] * len(MATRIX_KEYS))) == header else None


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
    """Write ``bundle.dumps()`` to ``path``, one matrix at a time (``MatrixBundle.chunks``).

    The chunks are formed before the file is opened, so a ValueError from
    an integer past Python's digit limit leaves the file as it was, and the
    whole text is never held, nor encoded, at once.
    """
    chunks = bundle.chunks()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)
