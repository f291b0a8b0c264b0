"""Canonical JSON serialization of generated matrix sets.

A bundle file holds the four doubled spins, the case tag, the free
parameters, and the ten matrices (J x3, K x3, V or P x4) as dense
row-major entry lists.  Every entry is a list of terms

    {"d": <squarefree radicand>, "re": [num, den], "im": [num, den]}

sorted by d ascending, so equal values serialize identically and the
canonical dump (sorted keys, no whitespace) is byte-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .generators import GeneratorSet
from .matrix import Matrix
from .radical import RadicalScalar
from .spins import Spin, SpinPair
from .vectors import CaseTag, FreeParams, VectorSet, classify_case

SCHEMA_VERSION = 1
LAYOUT_NOTE = (
    "basis: (A,B) block first, then (C,D); within a block the index pair"
    " (a,b) runs row-major with a descending outer and b descending inner;"
    " matrices are dense row-major entry lists"
)

MATRIX_KEYS = ("Jx", "Jy", "Jz", "Kx", "Ky", "Kz", "Vx", "Vy", "Vz", "Vt")
SOURCES = ("closed-form", "recursion", "clebsch-gordan")
BLOCKS = ("both", "keep12", "keep21")


def scalar_to_json(value: RadicalScalar) -> list[dict]:
    return [
        {"d": d, "re": [re.numerator, re.denominator], "im": [im.numerator, im.denominator]}
        for d, re, im in value.sorted_terms()
    ]


_JSON_TYPES = {dict: "object", list: "array", int: "integer"}


def _expect(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a JSON {_JSON_TYPES[kind]}")
    return value


def scalar_from_json(terms: list[dict]) -> RadicalScalar:
    """Decode a term list; a malformed term raises ValueError (or KeyError)."""
    try:
        return RadicalScalar.from_terms(
            (_expect(t["d"], int, "a radicand"), Fraction(*t["re"]), Fraction(*t["im"]))
            for t in terms
        )
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed scalar term: {exc}") from exc


def matrix_to_json(mat: Matrix) -> list[list[dict]]:
    flat = []
    for i in range(mat.rows):
        for j in range(mat.cols):
            flat.append(scalar_to_json(mat.get(i, j)))
    return flat


def matrix_from_json(entries: list[list[dict]], rows: int, cols: int) -> Matrix:
    if len(_expect(entries, list, "a matrix")) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, found {len(entries)}")
    mat = Matrix(rows, cols)
    for pos, terms in enumerate(entries):
        if terms:
            mat.set(pos // cols, pos % cols, scalar_from_json(terms))
    return mat


@dataclass(frozen=True)
class MatrixBundle:
    """One generated representation: metadata plus the ten matrices."""

    spins: tuple[int, int, int, int]  # doubled (2A, 2B, 2C, 2D)
    case: CaseTag
    source: str
    block: str  # one of BLOCKS
    params: FreeParams
    generators: GeneratorSet
    vectors: VectorSet

    @property
    def dimension(self) -> int:
        return self.generators.dimension

    def matrices(self) -> dict[str, Matrix]:
        """The ten matrices keyed by MATRIX_KEYS, in that order."""
        return dict(
            zip(MATRIX_KEYS, (*self.generators.J, *self.generators.K, *self.vectors.components()))
        )

    def to_json_dict(self) -> dict:
        return {
            "schemaVersion": SCHEMA_VERSION,
            "layout": LAYOUT_NOTE,
            "spins": list(self.spins),
            "caseTag": self.case.value,
            "source": self.source,
            "block": self.block,
            "params": {
                "t12": scalar_to_json(self.params.t12),
                "t21": scalar_to_json(self.params.t21),
            },
            "dimension": self.dimension,
            "matrices": {key: matrix_to_json(mat) for key, mat in self.matrices().items()},
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def bundle_from_json_dict(data: dict) -> MatrixBundle:
    """Decode a bundle, checking its metadata against its spins and matrices.

    A malformed or inconsistent bundle raises ValueError (or KeyError).
    """
    if _expect(data, dict, "a bundle").get("schemaVersion") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schemaVersion {data.get('schemaVersion')!r}")
    spins = tuple(_expect(t, int, "a spin") for t in _expect(data["spins"], list, "spins"))
    if len(spins) != 4:
        raise ValueError("spins must hold four doubled integers")
    A, B, C, D = (Spin(t) for t in spins)
    pair1, pair2 = SpinPair(A, B), SpinPair(C, D)
    n = _expect(data["dimension"], int, "dimension")
    if n != pair1.dimension + pair2.dimension:
        raise ValueError("dimension field inconsistent with spins")
    matrices = _expect(data["matrices"], dict, "matrices")
    mats = {key: matrix_from_json(matrices[key], n, n) for key in MATRIX_KEYS}
    terms = _expect(data["params"], dict, "params")
    params = FreeParams(scalar_from_json(terms["t12"]), scalar_from_json(terms["t21"]))
    case = CaseTag(data["caseTag"])
    if case is not classify_case(A, B, C, D):
        raise ValueError(f"caseTag {case.value!r} disagrees with spins {list(spins)}")
    block, source = data["block"], data["source"]
    if block not in BLOCKS:
        raise ValueError(f"block must be one of {', '.join(BLOCKS)}, not {block!r}")
    if source not in SOURCES:
        raise ValueError(f"source must be one of {', '.join(SOURCES)}, not {source!r}")
    generators = GeneratorSet(
        spins=(pair1, pair2),
        J=(mats["Jx"], mats["Jy"], mats["Jz"]),
        K=(mats["Kx"], mats["Ky"], mats["Kz"]),
    )
    vectors = VectorSet(
        spins=(pair1, pair2),
        case=case,
        params=params,
        Vx=mats["Vx"],
        Vy=mats["Vy"],
        Vz=mats["Vz"],
        Vt=mats["Vt"],
        kept_block={"keep12": "12", "keep21": "21"}.get(block),
    )
    if block != "both":
        dropped = "21" if block == "keep12" else "12"
        if not all(vectors.block(mat, dropped).is_zero() for mat in vectors.components()):
            raise ValueError(f"block {block!r} but the {dropped}-block of V is nonzero")
    return MatrixBundle(
        spins=spins,
        case=case,
        source=source,
        block=block,
        params=params,
        generators=generators,
        vectors=vectors,
    )


def load_bundle(path: str) -> MatrixBundle:
    with open(path, "r", encoding="utf-8") as fh:
        return bundle_from_json_dict(json.load(fh))


def save_bundle(bundle: MatrixBundle, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(bundle.dumps())
