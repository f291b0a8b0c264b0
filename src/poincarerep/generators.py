"""Rotation-group ladder matrices and Lorentz generators.

A ``GeneratorSet`` stores the paper's two rotation ladders (A+, A-, Az,
B+, B-, Bz); J = A + B and K = -i(A - B) are a view formed from them by
``change_basis``.  That view serves sets formed from J and K
(``from_cartesian``), the probes and hand-built sets.

The paper starts from the standard J and K, so they are fixed by the
spins alone, and a set built from its spins alone (``GeneratorSet(spins)``,
as ``irrep_generators`` and ``direct_sum`` build it) is ``standard``: its
spin basis is rotation_rep(A) on the outer index and rotation_rep(B) on
the inner one, block by block, placed only when first read.
``verify.check_lorentz`` settles its rules from the one-spin algebra
without placing it.  A set given its matrices is never standard.
``bundle.generator_texts`` writes the standard J and K of two irreps as
text straight from the one-spin tables, with the strides of
``_place_spin_basis`` and the coefficients in ``_LADDERS`` and
``_DIAGONAL``; ``gen`` writes that text, and ``verify --in`` recognises it.

Every one-spin quantity comes from two tables built once per spin and
process: the ladder coefficients r(X, m), which ``ladder_coeff_r`` and
``ladder_coeff_s`` read, and ``rotation_rep(X)``, whose ladders hold the
table's own values.  The generator placers, the J/K text writer, the
one-spin checks of ``verify``, the recursion route and the CG tables all
read the same objects.

Basis convention, fixed once for the whole package: within an irreducible
block (A,B) the index pair (a, b) runs with a descending from +A to -A as
the outer index and b descending from +B to -B as the inner index, so the
diagonal of J_z starts at its maximum.  In a two-block direct sum the
(A,B) block precedes the (C,D) block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .matrix import Matrix, change_basis
from .radical import ZERO, RadicalScalar, gaussian_table, sqrt_of_rational
from .spins import Spin, SpinPair


# One ladder table and one rotation_rep per doubled spin, kept for the
# process and shared by every caller, so each is built once and each
# Matrix keeps its packed kernel form.  Only tables are cached: every check
# built on them still runs its kernel zero test.  The bound caps memory in
# a long-lived process: spin X's tables hold about 3(2X+1) values, and with
# their packed forms take about 5.7 MB at doubled spin 2046, the largest
# the command line's dimension limit admits (a no-solution (2046/2, 0) +
# (0, 0)), so at most about 185 MB; a spin up to doubled 12, the sweep's
# limit, takes under 30 kB.
_SPIN_TABLE_SIZE = 32


@lru_cache(maxsize=_SPIN_TABLE_SIZE)
def _ladder_table(twice: int) -> dict[int, RadicalScalar]:
    """r(X, m) = sqrt((X - m)(X + m + 1)) at each doubled m below the top of the ladder.

    Every value is nonzero; read-only, since every caller shares it.
    """
    return {
        m: sqrt_of_rational(Fraction((twice - m) * (twice + m + 2), 4))
        for m in range(-twice, twice, 2)
    }


def ladder_coeff_r(spin: Spin, m: int) -> RadicalScalar:
    """Raising coefficient sqrt((A - m)(A + m + 1)) at doubled m; zero off the ladder."""
    return _ladder_table(spin.twice).get(m, ZERO)


def ladder_coeff_s(spin: Spin, m: int) -> RadicalScalar:
    """Lowering coefficient sqrt((A + m)(A - m + 1)) = r at -m."""
    return _ladder_table(spin.twice).get(-m, ZERO)


def rotation_rep(spin: Spin) -> tuple[Matrix, Matrix, Matrix]:
    """(M+, M-, Mz) for one spin: a (2A+1)-dimensional rotation irrep.

    Position idx holds the idx-th projection m (doubled), descending by one
    unit per position, so M+ has r_m at (idx - 1, idx) and M- has s_m at
    (idx + 1, idx); Mz is diagonal with the projection values.  r_m is
    nonzero below the top of the ladder and s_m above its bottom, so the
    only zero cell left out is Mz's at m = 0.  Built once per spin and
    shared: M+ and M- hold the ladder table's own values.
    """
    return _rotation_rep(spin.twice)


@lru_cache(maxsize=_SPIN_TABLE_SIZE)
def _rotation_rep(twice: int) -> tuple[Matrix, Matrix, Matrix]:
    n = twice + 1
    ladder = _ladder_table(twice)
    mplus, mminus, mz = {}, {}, {}
    for idx, m in enumerate(Spin(twice).projections()):
        if m:
            mz[idx] = {idx: RadicalScalar.from_rational(Fraction(m, 2))}
        if idx > 0:
            mplus[idx - 1] = {idx: ladder[m]}
        if idx < n - 1:
            mminus[idx + 1] = {idx: ladder[-m]}
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


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """A representation's generators as (A+, A-, Az, B+, B-, Bz); J and K are a view.

    ``formed`` holds the spin basis of a set given by its matrices
    (``from_cartesian``, hand-built sets); None, the default, makes the set
    the standard generators of ``spins``, placed only when ``spin_basis`` is
    first read.  Equality compares the spins and the spin bases.
    """

    spins: tuple[SpinPair, ...]
    formed: tuple[Matrix, ...] | None = None

    def __post_init__(self):
        if self.formed is not None and (count := len(self.formed)) != 6:
            raise ValueError(f"a generator set holds 6 spin-basis matrices, not {count}")

    @classmethod
    def from_cartesian(cls, spins: tuple[SpinPair, ...], J: tuple, K: tuple) -> "GeneratorSet":
        """The set with these J and K, stored as its spin basis."""
        return cls(spins, change_basis(SPIN_BASIS, J + K))

    @property
    def standard(self) -> bool:
        """Whether the set is the standard generators of its spins, fixed by them alone."""
        return self.formed is None

    @property
    def dimension(self) -> int:
        return sum(pair.dimension for pair in self.spins)

    @cached_property
    def spin_basis(self) -> tuple[Matrix, ...]:
        """(A+, A-, Az, B+, B-, Bz): ``formed``, or the standard ones placed on first use."""
        return self.formed if self.formed is not None else _place_spin_basis(self.spins)

    @cached_property
    def cartesian(self) -> tuple[Matrix, ...]:
        """(Jx, Jy, Jz, Kx, Ky, Kz), formed on first use by ``change_basis`` and kept."""
        return change_basis(SPIN_BASIS_INVERSE, self.spin_basis)

    @property
    def J(self) -> tuple[Matrix, ...]:
        return self.cartesian[:3]

    @property
    def K(self) -> tuple[Matrix, ...]:
        return self.cartesian[3:]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneratorSet):
            return NotImplemented
        return self.spins == other.spins and (
            self.standard and other.standard or self.spin_basis == other.spin_basis
        )

    def __hash__(self) -> int:
        return hash(self.spins)


def _place_spin_basis(spins: tuple[SpinPair, ...]) -> tuple[Matrix, ...]:
    """The standard (A+, A-, Az, B+, B-, Bz) of ``spins``, each irrep on its diagonal block.

    Within the irrep (A,B), A+-, Az are rotation_rep(A) on the outer index
    a, with stride mult(B), and B+-, Bz are rotation_rep(B) on the inner
    index b.
    """
    n = sum(pair.dimension for pair in spins)
    basis: list[dict[int, dict[int, RadicalScalar]]] = [{} for _ in range(6)]
    offset = 0
    for pair in spins:
        nb = pair.right.multiplicity
        for rows, m in zip(basis[:3], rotation_rep(pair.left)):
            for i, row in m._rows.items():
                for k in range(offset, offset + nb):
                    rows[i * nb + k] = {j * nb + k: v for j, v in row.items()}
        for rows, m in zip(basis[3:], rotation_rep(pair.right)):
            for a in range(offset, offset + pair.dimension, nb):
                for i, row in m._rows.items():
                    rows[a + i] = {a + j: v for j, v in row.items()}
        offset += pair.dimension
    return tuple(Matrix._from_rows(n, n, rows) for rows in basis)


def irrep_generators(pair: SpinPair) -> GeneratorSet:
    """The standard generators of the (A,B) irrep."""
    return GeneratorSet((pair,))


def direct_sum(p1: SpinPair, p2: SpinPair) -> GeneratorSet:
    """The standard block-diagonal generators of (A,B) + (C,D), first block first."""
    return GeneratorSet((p1, p2))


# The coefficients of 2 G_p on N = (A+, A-, Az, B+, B-, Bz): for each
# ladder a, (a, [(p, re, im)]) over the G_p it enters, the coefficient
# re + i im a Gaussian integer; for the diagonal, (p, on Az, on Bz).
# Within an irrep the ladders A+, A-, B+ and B- share no cell, so each
# off-diagonal cell of G_p is one ladder entry r times (re + i im) / 2.
_LADDERS = [
    (a, [(p, int(row[a].real), int(row[a].imag)) for p, row in enumerate(_SPIN_INVERSE_TWICE)
         if row[a]])
    for a in (0, 1, 3, 4)
]
_DIAGONAL = [(p, row[2], row[5]) for p, row in enumerate(_SPIN_INVERSE_TWICE) if row[2] or row[5]]

# Where ``_place_spin_basis`` puts each ladder a of ``_LADDERS`` within an
# irrep: (on the outer index, +1 for a raising ladder or -1 for a lowering
# one).  The one-spin matrix of a raising ladder holds row idx at column
# idx + 1, and of a lowering one at idx - 1; A+- act on the outer index
# with stride mult(B), B+- on the inner one with stride 1.
_LADDER_PLACES = {0: (True, 1), 1: (True, -1), 3: (False, 1), 4: (False, -1)}
