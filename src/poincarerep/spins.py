"""Half-integer indices and spin labels, stored as doubled integers.

``SpinPair.basis()`` is the one statement of the basis layout: the index
pairs (a, b) of an irrep, a outer descending and b inner descending.  A
matrix position is a place in that list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class HalfInt:
    """An exact half-integer n/2, stored as the integer ``twice`` = n."""

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        if not isinstance(twice, int):
            raise TypeError("HalfInt takes the doubled value as an int")
        object.__setattr__(self, "twice", twice)

    def __setattr__(self, name, value):
        raise AttributeError("HalfInt is immutable")

    @property
    def value(self) -> Fraction:
        return Fraction(self.twice, 2)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, HalfInt):
            return self.twice == other.twice
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("HalfInt", self.twice))

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self.twice})"


class Spin(HalfInt):
    """A nonnegative half-integer spin label."""

    __slots__ = ()

    def __init__(self, twice: int):
        if twice < 0:
            raise ValueError(f"spin must be nonnegative, got {twice}/2")
        super().__init__(twice)

    @property
    def multiplicity(self) -> int:
        return self.twice + 1

    def projections(self) -> list[HalfInt]:
        """Magnetic indices descending from +spin to -spin (basis order)."""
        return [HalfInt(t) for t in range(self.twice, -self.twice - 2, -2)]

    def __repr__(self) -> str:
        return f"Spin({self.twice})"


@dataclass(frozen=True)
class SpinPair:
    """An irreducible label (left, right); dimension (2*left+1)(2*right+1)."""

    left: Spin
    right: Spin

    @property
    def dimension(self) -> int:
        return self.left.multiplicity * self.right.multiplicity

    def basis(self) -> list[tuple[HalfInt, HalfInt]]:
        """Index pairs (a, b), a outer descending, b inner descending."""
        return [(a, b) for a in self.left.projections() for b in self.right.projections()]

    def __str__(self) -> str:
        return f"({self.left},{self.right})"
