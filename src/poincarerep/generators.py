"""Rotation-group ladder matrices and Lorentz generators.

A ``GeneratorSet`` stores the paper's two rotation ladders (A+, A-, Az,
B+, B-, Bz); J = A + B and K = -i(A - B) are a view formed from them by
``change_basis``.  That view serves sets formed from J and K
(``from_cartesian``), the probes and hand-built sets.  A generated set's
J and K need no basis change: ``cartesian_generators`` writes them out
cell by cell from each irrep's ladders, since within an irrep each cell
of J and K off the diagonal is one ladder entry times a fixed coefficient
of ``SPIN_BASIS_INVERSE``.  ``gen`` writes those matrices.

Basis convention, fixed once for the whole package: within an irreducible
block (A,B) the index pair (a, b) runs with a descending from +A to -A as
the outer index and b descending from +B to -B as the inner index, so the
diagonal of J_z starts at its maximum.  In a two-block direct sum the
(A,B) block precedes the (C,D) block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .matrix import Matrix, block_diag, change_basis, place
from .radical import ZERO, RadicalScalar, _make, gaussian_table, sqrt_of_rational
from .spins import Spin, SpinPair


def ladder_coeff_r(spin: Spin, m: int) -> RadicalScalar:
    """Raising coefficient sqrt((A - m)(A + m + 1)) at doubled m; zero off the ladder."""
    if abs(m) > spin.twice or (spin.twice - m) % 2:
        return ZERO
    return sqrt_of_rational(Fraction((spin.twice - m) * (spin.twice + m + 2), 4))


def ladder_coeff_s(spin: Spin, m: int) -> RadicalScalar:
    """Lowering coefficient sqrt((A + m)(A - m + 1)) = r at -m."""
    return ladder_coeff_r(spin, -m)


def rotation_rep(spin: Spin) -> tuple[Matrix, Matrix, Matrix]:
    """(M+, M-, Mz) for one spin: a (2A+1)-dimensional rotation irrep.

    Position idx holds the idx-th projection m (doubled), descending by one
    unit per position, so M+ has r_m at (idx - 1, idx) and M- has s_m at
    (idx + 1, idx); Mz is diagonal with the projection values.  r_m is
    nonzero below the top of the ladder and s_m above its bottom, so the
    only zero cell left out is Mz's at m = 0.
    """
    n = spin.multiplicity
    mplus, mminus, mz = {}, {}, {}
    for idx, m in enumerate(spin.projections()):
        if m:
            mz[idx] = {idx: RadicalScalar.from_rational(Fraction(m, 2))}
        if idx > 0:
            mplus[idx - 1] = {idx: ladder_coeff_r(spin, m)}
        if idx < n - 1:
            mminus[idx + 1] = {idx: ladder_coeff_s(spin, m)}
    return tuple(Matrix._from_rows(n, n, rows) for rows in (mplus, mminus, mz))


def _kron(left, right) -> list[list]:
    return [[a * b for a in lrow for b in rrow] for lrow in left for rrow in right]


# The paper's spin basis N = (A+, A-, Az, B+, B-, Bz) of the generators
# G = (Jx, Jy, Jz, Kx, Ky, Kz): A = (J + iK)/2 and B = (J - iK)/2, and
# X+- = X_x +- i X_y.  N_a is the sum of SPIN_BASIS[a][p] * G_p over p, and
# G_p that of SPIN_BASIS_INVERSE[p][a] * N_a.  Each is the Kronecker product
# of the (A, B) <-> (J, K) change with the (+, -, z) <-> (x, y, z) change.
SPIN_BASIS = gaussian_table(
    _kron([[1, 1j], [1, -1j]], [[1, 1j, 0], [1, -1j, 0], [0, 0, 1]]), 2
)
_SPIN_INVERSE_TWICE = _kron([[1, 1], [-1j, 1j]], [[1, 1, 0], [-1j, 1j, 0], [0, 0, 2]])
SPIN_BASIS_INVERSE = gaussian_table(_SPIN_INVERSE_TWICE, 2)


@dataclass(frozen=True)
class GeneratorSet:
    """A representation's generators as (A+, A-, Az, B+, B-, Bz); J and K are a view."""

    spins: tuple[SpinPair, ...]
    spin_basis: tuple[Matrix, ...]

    def __post_init__(self):
        if (count := len(self.spin_basis)) != 6:
            raise ValueError(f"a generator set holds 6 spin-basis matrices, not {count}")

    @classmethod
    def from_cartesian(cls, spins: tuple[SpinPair, ...], J: tuple, K: tuple) -> "GeneratorSet":
        """The set with these J and K, stored as its spin basis."""
        return cls(spins, change_basis(SPIN_BASIS, J + K))

    @property
    def dimension(self) -> int:
        return self.spin_basis[0].rows

    @cached_property
    def cartesian(self) -> tuple[Matrix, ...]:
        """(Jx, Jy, Jz, Kx, Ky, Kz), formed on first use by ``change_basis`` and kept.

        A generated set's J and K are also ``cartesian_generators`` of its
        spins, which places them without a basis change.
        """
        return change_basis(SPIN_BASIS_INVERSE, self.spin_basis)

    @property
    def J(self) -> tuple[Matrix, ...]:
        return self.cartesian[:3]

    @property
    def K(self) -> tuple[Matrix, ...]:
        return self.cartesian[3:]


def irrep_generators(pair: SpinPair) -> GeneratorSet:
    """Generators of the (A,B) irrep, placed from ``rotation_rep``.

    A+-, Az are rotation_rep(A) on the outer index a, with stride mult(B),
    and B+-, Bz are rotation_rep(B) on the inner index b.
    """
    n, nb = pair.dimension, pair.right.multiplicity
    outer = (
        Matrix._from_rows(n, n, {
            i * nb + k: {j * nb + k: v for j, v in row.items()}
            for i, row in m._rows.items()
            for k in range(nb)
        })
        for m in rotation_rep(pair.left)
    )
    inner = (
        place(n, n, [(m, a * nb, a * nb) for a in range(pair.left.multiplicity)])
        for m in rotation_rep(pair.right)
    )
    return GeneratorSet(spins=(pair,), spin_basis=(*outer, *inner))


def direct_sum(p1: SpinPair, p2: SpinPair) -> GeneratorSet:
    """Block-diagonal generators for (A,B) + (C,D), first block first."""
    return block_sum(irrep_generators(p1), irrep_generators(p2))


def block_sum(g1: GeneratorSet, g2: GeneratorSet) -> GeneratorSet:
    """Block-diagonal generators of two representations, g1's block first."""
    basis = tuple(block_diag(a, b) for a, b in zip(g1.spin_basis, g2.spin_basis))
    return GeneratorSet(g1.spins + g2.spins, basis)


# The coefficients of 2 G_p on N = (A+, A-, Az, B+, B-, Bz): for each
# ladder a, (a, [(p, re, im)]) over the G_p it enters, the coefficient
# re + i im a Gaussian integer; for the diagonal, (p, on Az, on Bz).
_LADDERS = [
    (a, [(p, int(row[a].real), int(row[a].imag)) for p, row in enumerate(_SPIN_INVERSE_TWICE)
         if row[a]])
    for a in (0, 1, 3, 4)
]
_DIAGONAL = [(p, row[2], row[5]) for p, row in enumerate(_SPIN_INVERSE_TWICE) if row[2] or row[5]]


def cartesian_generators(p1: SpinPair, p2: SpinPair) -> tuple[Matrix, ...]:
    """(Jx, Jy, Jz, Kx, Ky, Kz) of p1 + p2, written out cell by cell with no basis change.

    Equal to ``direct_sum(p1, p2).cartesian``.  G_p is the sum of
    SPIN_BASIS_INVERSE[p][a] N_a.  Within an irrep the ladders A+, A-, B+
    and B- share no cell (``irrep_generators`` places rotation_rep(A) on
    the outer index, with stride mult(B), and rotation_rep(B) on the inner
    one), so an off-diagonal cell of G_p is one ladder entry r of the
    irrep's spin basis times one coefficient: r/2 or +-(i/2) r.  The
    diagonal holds J_z = (m_a + m_b)/2 and K_z = -i(m_a - m_b)/2, read off
    ``SpinPair.basis()``.  Each value is built once from integers, with no
    product, and equal values are one object.
    """
    n = p1.dimension + p2.dimension
    rows: list[dict[int, dict[int, RadicalScalar]]] = [{} for _ in range(6)]
    values: dict[tuple, RadicalScalar] = {}  # each value, keyed on its integers

    def one_object(num: dict[int, tuple[int, int]], den: int) -> RadicalScalar:
        v = _make(num, den)
        return values.setdefault((v._den, tuple(v._num.items())), v)

    def ladder_cells(r: RadicalScalar, units: list) -> list:
        """(rows of G_p, (re + i im) r / 2) for each (p, re, im) in units."""
        return [
            (rows[p], one_object(
                {d: (x * re - y * im, x * im + y * re) for d, (x, y) in r._num.items()}, 2 * r._den
            ))
            for p, re, im in units
        ]

    # Both irreps' spin bases live to the end, so no id in ``scaled`` is reused.
    irreps = [(pair, irrep_generators(pair).spin_basis) for pair in (p1, p2)]
    scaled: dict[tuple[int, int], list] = {}  # ladder_cells of each entry object of ladder a
    diagonal: dict[complex, RadicalScalar] = {}  # z -> z / 4
    offset = 0
    for pair, spin_basis in irreps:
        for a, units in _LADDERS:
            for i, row in spin_basis[a]._rows.items():
                for j, r in row.items():
                    cells = scaled.get((id(r), a))
                    if cells is None:
                        cells = scaled[id(r), a] = ladder_cells(r, units)
                    for out, v in cells:
                        out.setdefault(offset + i, {})[offset + j] = v
        for i, (ma, mb) in enumerate(pair.basis(), offset):
            for p, on_a, on_b in _DIAGONAL:
                if z := on_a * ma + on_b * mb:
                    if z not in diagonal:
                        diagonal[z] = one_object({1: (int(z.real), int(z.imag))}, 4)
                    rows[p].setdefault(i, {})[i] = diagonal[z]
        offset += pair.dimension
    return tuple(Matrix._from_rows(n, n, r) for r in rows)
