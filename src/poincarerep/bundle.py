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
from .vectors import CaseTag, FreeParams, VectorSet

SCHEMA_VERSION = 1
LAYOUT_NOTE = (
    "basis: (A,B) block first, then (C,D); within a block the index pair"
    " (a,b) runs row-major with a descending outer and b descending inner;"
    " matrices are dense row-major entry lists"
)

MATRIX_KEYS = ("Jx", "Jy", "Jz", "Kx", "Ky", "Kz", "Vx", "Vy", "Vz", "Vt")


def scalar_to_json(value: RadicalScalar) -> list[dict]:
    return [
        {"d": d, "re": [re.numerator, re.denominator], "im": [im.numerator, im.denominator]}
        for d, re, im in value.sorted_terms()
    ]


def scalar_from_json(terms: list[dict]) -> RadicalScalar:
    """Decode a term list; a malformed term raises ValueError (or KeyError)."""
    try:
        return RadicalScalar.from_terms(
            (t["d"], Fraction(*t["re"]), Fraction(*t["im"])) for t in terms
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
    if len(entries) != rows * cols:
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
    block: str  # "both", "keep12", or "keep21"
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
    if data.get("schemaVersion") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schemaVersion {data.get('schemaVersion')!r}")
    spins = tuple(int(t) for t in data["spins"])
    if len(spins) != 4:
        raise ValueError("spins must hold four doubled integers")
    pair1 = SpinPair(Spin(spins[0]), Spin(spins[1]))
    pair2 = SpinPair(Spin(spins[2]), Spin(spins[3]))
    n = int(data["dimension"])
    if n != pair1.dimension + pair2.dimension:
        raise ValueError("dimension field inconsistent with spins")
    mats = {
        key: matrix_from_json(data["matrices"][key], n, n) for key in MATRIX_KEYS
    }
    params = FreeParams(
        scalar_from_json(data["params"]["t12"]),
        scalar_from_json(data["params"]["t21"]),
    )
    case = CaseTag(data["caseTag"])
    block = data["block"]
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
    return MatrixBundle(
        spins=spins,
        case=case,
        source=data["source"],
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
