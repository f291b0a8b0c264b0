"""Rotation-group ladder matrices and Lorentz generators J_k, K_k.

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

from .matrix import Matrix, block_diag, linear_combination
from .radical import ZERO, RadicalScalar, gaussian_table, sqrt_of_rational
from .spins import HalfInt, Spin, SpinPair


def ladder_coeff_r(spin: Spin, sigma: HalfInt) -> RadicalScalar:
    """Raising coefficient sqrt((A - s)(A + s + 1)); zero off the ladder."""
    if abs(sigma.twice) > spin.twice or (spin.twice - sigma.twice) % 2:
        return ZERO
    lo = Fraction(spin.twice - sigma.twice, 2)
    hi = Fraction(spin.twice + sigma.twice + 2, 2)
    return sqrt_of_rational(lo * hi)


def ladder_coeff_s(spin: Spin, sigma: HalfInt) -> RadicalScalar:
    """Lowering coefficient sqrt((A + s)(A - s + 1)) = r at -s."""
    return ladder_coeff_r(spin, -sigma)


def rotation_rep(spin: Spin) -> tuple[Matrix, Matrix, Matrix]:
    """(M+, M-, Mz) for one spin: a (2A+1)-dimensional rotation irrep.

    M+ has entries r_(s1) at (row s1+1, col s1); M- has s_(s1) at
    (row s1-1, col s1); Mz is diagonal with the projection values.
    """
    n = spin.multiplicity
    mplus, mminus, mz = {}, {}, {}
    projections = spin.projections()
    pos = {s.twice: idx for idx, s in enumerate(projections)}
    for idx, s1 in enumerate(projections):
        mz[idx, idx] = s1.value
        up = s1.twice + 2
        if up in pos:
            mplus[pos[up], idx] = ladder_coeff_r(spin, s1)
        down = s1.twice - 2
        if down in pos:
            mminus[pos[down], idx] = ladder_coeff_s(spin, s1)
    return tuple(Matrix.from_entries(n, n, m) for m in (mplus, mminus, mz))


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
SPIN_BASIS_INVERSE = gaussian_table(
    _kron([[1, 1], [-1j, 1j]], [[1, 1, 0], [-1j, 1j, 0], [0, 0, 2]]), 2
)


@dataclass(frozen=True)
class GeneratorSet:
    """The six matrices (Jx, Jy, Jz) and (Kx, Ky, Kz) of a representation."""

    spins: tuple[SpinPair, ...]
    J: tuple[Matrix, Matrix, Matrix]
    K: tuple[Matrix, Matrix, Matrix]

    @property
    def dimension(self) -> int:
        return self.J[0].rows

    @cached_property
    def spin_basis(self) -> tuple[Matrix, ...]:
        """(A+, A-, Az, B+, B-, Bz), formed on first use and kept."""
        G = self.J + self.K
        return tuple(
            linear_combination([(c, g) for c, g in zip(row, G) if c]) for row in SPIN_BASIS
        )


def irrep_generators(pair: SpinPair) -> GeneratorSet:
    """Generators of the (A,B) Lorentz irrep: J_k = A_k + B_k, K_k = -i(A_k - B_k).

    Entries are placed one by one.  Column (a, b) has J_z = a + b and
    K_z = -i(a - b) on the diagonal.  A ladder step moves a (side +1) or b
    (side -1) up (step +1) or down (step -1); with c half its ladder
    coefficient, its row gets J_x = c, J_y = -i*step*c, K_x = -i*side*c and
    K_y = -step*side*c.  Each of these is c, -c, i*c or -i*c, so they are
    read off c by negation and ``times_i`` rather than multiplied out.
    """
    jx, jy, jz, kx, ky, kz = ({} for _ in range(6))
    # Moving a by one skips a whole run of b indices; moving b, one position.
    sides = ((1, pair.left, pair.right.multiplicity), (-1, pair.right, 1))
    for col, (a, b) in enumerate(pair.basis()):
        jz[col, col] = a.value + b.value
        kz[col, col] = RadicalScalar.from_rational(b.value - a.value).times_i()
        for (side, spin, stride), m in zip(sides, (a, b)):
            for step, sigma in ((1, m), (-1, -m)):
                c = ladder_coeff_r(spin, sigma) * Fraction(1, 2)
                if c.is_zero():
                    continue  # the ladder ends here
                row = col - step * stride  # projections descend along the basis
                neg = -c
                ic, neg_ic = c.times_i(), neg.times_i()
                jx[row, col] = c
                jy[row, col] = neg_ic if step == 1 else ic
                kx[row, col] = neg_ic if side == 1 else ic
                ky[row, col] = neg if step == side else c
    mats = [Matrix.from_entries(pair.dimension, pair.dimension, m) for m in (jx, jy, jz, kx, ky, kz)]
    return GeneratorSet(spins=(pair,), J=tuple(mats[:3]), K=tuple(mats[3:]))


def direct_sum(p1: SpinPair, p2: SpinPair) -> GeneratorSet:
    """Block-diagonal generators for (A,B) + (C,D), first block first."""
    return block_sum(irrep_generators(p1), irrep_generators(p2))


def block_sum(g1: GeneratorSet, g2: GeneratorSet) -> GeneratorSet:
    """Block-diagonal generators of two representations, g1's block first."""
    return GeneratorSet(
        spins=g1.spins + g2.spins,
        J=tuple(block_diag(a, b) for a, b in zip(g1.J, g2.J)),
        K=tuple(block_diag(a, b) for a, b in zip(g1.K, g2.K)),
    )


def spin(twice: int) -> Spin:
    """Shorthand: spin from its doubled integer value."""
    return Spin(twice)
