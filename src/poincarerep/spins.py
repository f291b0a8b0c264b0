"""Spin labels and the basis layout.

Every half-integer in the package, a spin or a magnetic index, is held as
its doubled int: the spin 3/2 is ``Spin(3)`` and the projection -1/2 is
``-1``.  ``SpinPair.basis()`` is the one statement of the basis layout: the
doubled index pairs (2a, 2b) of an irrep, a outer descending and b inner
descending.  A matrix position is a place in that list.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Spin:
    """A nonnegative half-integer spin label, stored as ``twice`` = 2A."""

    twice: int

    def __post_init__(self):
        if not isinstance(self.twice, int):
            raise TypeError("Spin takes the doubled value as an int")
        if self.twice < 0:
            raise ValueError(f"spin must be nonnegative, got {self.twice}/2")

    @property
    def multiplicity(self) -> int:
        return self.twice + 1

    def projections(self) -> list[int]:
        """Doubled magnetic indices descending from +2A to -2A (basis order)."""
        return list(range(self.twice, -self.twice - 2, -2))

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

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

    def basis(self) -> list[tuple[int, int]]:
        """Doubled index pairs (2a, 2b), a outer descending, b inner descending."""
        return [(a, b) for a in self.left.projections() for b in self.right.projections()]

    def __str__(self) -> str:
        return f"({self.left},{self.right})"
