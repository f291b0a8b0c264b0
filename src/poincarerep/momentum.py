"""Commuting momentum matrices from vector matrices.

Keeping only one off-diagonal block makes every product P_mu P_nu land in
a zero block, so all pairwise commutators vanish and (sum x_mu P_mu)^2 = 0
for any four-vector x.  Keeping both blocks breaks commutativity whenever
t12 * t21 != 0; ``noncommutativity_witness`` exhibits the failure.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .matrix import Matrix, commutator
from .vectors import VectorSet


class BlockChoice(enum.Enum):
    KEEP_12 = "keep12"
    KEEP_21 = "keep21"


def momentum_from_vectors(vec: VectorSet, choice: BlockChoice) -> VectorSet:
    """Zero the non-chosen off-diagonal block of every component."""
    which = "12" if choice is BlockChoice.KEEP_12 else "21"
    kept = vec.block(which)
    b12, b21 = (kept, None) if which == "12" else (None, kept)
    return VectorSet.from_blocks(vec.spins, vec.params, b12, b21, kept_block=which)


def translation_combination(vec: VectorSet, x: tuple) -> Matrix:
    """sum over mu of x_mu P_mu for rational four-vector x = (x, y, z, t)."""
    acc = Matrix.zeros(vec.dimension)
    for weight, comp in zip(x, vec.components()):
        if weight:
            acc = acc + comp.scale(Fraction(weight))
    return acc


def noncommutativity_witness(vec: VectorSet) -> Matrix:
    """The 11-block of [P+, P-] with both off-diagonal blocks kept.

    P+- = (P_x +- i P_y)/2 is half of the light-cone matrix V_x +- iV_y, so
    [P+, P-] is a quarter of their commutator.  For admissible spins with
    both parameters nonzero this block is a nonzero diagonal matrix, which
    is why a true momentum set must drop one block.
    """
    plus, minus = vec.light_cone[:2]
    n1 = vec.block1_dim
    return commutator(plus, minus).submatrix(0, n1, 0, n1).scale(Fraction(1, 4))
