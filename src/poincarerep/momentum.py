"""Commuting momentum matrices from vector matrices.

Keeping only one off-diagonal block makes every product P_mu P_nu land in
a zero block, so all pairwise commutators vanish and (sum x_mu P_mu)^2 = 0
for any four-vector x.  Keeping both blocks breaks commutativity whenever
t12 * t21 != 0; ``noncommutativity_witness`` exhibits the failure.
A momentum set's ``block``, "keep12" or "keep21", names the block it keeps
in place, so P+- = (P_x +- iP_y)/2 are the families V+- of that block, and
the Cartesian P_mu are a view.
"""

from __future__ import annotations

from fractions import Fraction

from .matrix import Matrix, commutator, linear_combination
from .vectors import BLOCKS, VectorSet, block_bounds


def momentum_from_vectors(vec: VectorSet, block: str) -> VectorSet:
    """The set with only the block that block, "keep12" or "keep21", names, kept in place."""
    if block not in BLOCKS[1:]:
        raise ValueError(f"block must be keep12 or keep21, not {block!r}")
    bounds = block_bounds(vec.spins, block.removeprefix("keep"))
    families = tuple(fam.window(*bounds) for fam in vec.families)
    return VectorSet(vec.spins, vec.params, families, block)


def translation_combination(vec: VectorSet, x: tuple) -> Matrix:
    """sum over mu of x_mu P_mu for rational four-vector x = (x, y, z, t)."""
    if len(x) != 4:
        raise ValueError(f"x needs 4 entries (x, y, z, t), not {len(x)}")
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
