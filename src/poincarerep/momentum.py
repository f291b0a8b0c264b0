"""Commuting momentum matrices from vector matrices.

Keeping only one off-diagonal block makes every product P_mu P_nu land in
a zero block, so all pairwise commutators vanish and (sum x_mu P_mu)^2 = 0
for any four-vector x.  Keeping both blocks breaks commutativity whenever
t12 * t21 != 0; ``noncommutativity_witness`` exhibits the failure.
A momentum set keeps the chosen block's rectangle of each stored family
in place, so P+- = (P_x +- iP_y)/2 are the families V+- of the kept
block, and the Cartesian P_mu are a view.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .matrix import Matrix, commutator, linear_combination
from .vectors import VectorSet, block_bounds


class BlockChoice(enum.Enum):
    KEEP_12 = "keep12"
    KEEP_21 = "keep21"


def momentum_from_vectors(vec: VectorSet, choice: BlockChoice) -> VectorSet:
    """Keep only the chosen off-diagonal block of every family, at its own positions."""
    which = "12" if choice is BlockChoice.KEEP_12 else "21"
    bounds = block_bounds(vec.spins, which)
    families = tuple(fam.window(*bounds) for fam in vec.families)
    return VectorSet(vec.spins, vec.params, families, kept_block=which)


def translation_combination(vec: VectorSet, x: tuple) -> Matrix:
    """sum over mu of x_mu P_mu for rational four-vector x = (x, y, z, t)."""
    terms = [(Fraction(w), comp) for w, comp in zip(x, vec.components()) if w]
    return linear_combination(terms) if terms else Matrix.zeros(vec.dimension)


def noncommutativity_witness(vec: VectorSet) -> Matrix:
    """The 11-block of [P+, P-] with both off-diagonal blocks kept.

    P+- = (P_x +- i P_y)/2 are the families V+ and V-.  For admissible spins
    with both parameters nonzero this block is a nonzero diagonal matrix,
    which is why a true momentum set must drop one block.
    """
    plus, minus = vec.families[:2]
    n1 = vec.block1_dim
    return commutator(plus, minus).submatrix(0, n1, 0, n1)
