"""Half-integer indices and spin labels, stored as doubled integers."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering


@total_ordering
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

    def is_integral(self) -> bool:
        return self.twice % 2 == 0

    def __add__(self, other: "HalfInt | int") -> "HalfInt":
        return HalfInt(self.twice + _twice(other))

    __radd__ = __add__

    def __sub__(self, other: "HalfInt | int") -> "HalfInt":
        return HalfInt(self.twice - _twice(other))

    def __rsub__(self, other: "HalfInt | int") -> "HalfInt":
        return HalfInt(_twice(other) - self.twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (HalfInt, int)):
            return self.twice == _twice(other)
        return NotImplemented

    def __lt__(self, other: "HalfInt | int") -> bool:
        return self.twice < _twice(other)

    def __hash__(self) -> int:
        return hash(("HalfInt", self.twice))

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self.twice})"


def _twice(x: "HalfInt | int") -> int:
    if isinstance(x, HalfInt):
        return x.twice
    if isinstance(x, int):
        return 2 * x
    raise TypeError(f"cannot mix HalfInt with {type(x).__name__}")


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


def flatten_index(pair: SpinPair, a: HalfInt, b: HalfInt) -> int:
    """Row-major position of (a, b): a descending outer, b descending inner."""
    if abs(a.twice) > pair.left.twice or (pair.left.twice - a.twice) % 2:
        raise ValueError(f"index a={a} out of range for spin {pair.left}")
    if abs(b.twice) > pair.right.twice or (pair.right.twice - b.twice) % 2:
        raise ValueError(f"index b={b} out of range for spin {pair.right}")
    row = (pair.left.twice - a.twice) // 2
    col = (pair.right.twice - b.twice) // 2
    return row * pair.right.multiplicity + col
