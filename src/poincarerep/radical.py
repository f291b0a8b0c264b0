"""Exact arithmetic for finite sums sum_d (p_d + i q_d) * sqrt(d).

Each number is stored as a map from a squarefree positive radicand d to a
pair of rational coefficients (real part, imaginary part).  The purely
rational part lives under the key d = 1.  Distinct square roots of
squarefree integers are linearly independent over the rationals, so a
canonical form (no all-zero coefficient pairs) makes equality and the
zero test exact coefficient comparisons -- no tolerances anywhere.

Division by a general sum is deliberately not provided; only division by
rationals and by single-term values is needed to build the matrices.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

RationalLike = Union[int, Fraction]

_ZERO_FRAC = Fraction(0)


_TRIAL_LIMIT = 2**20

# Distinct radicands kept: a bound on memory in a long-lived process.
_RADICAL_CACHE_SIZE = 4096


@lru_cache(maxsize=_RADICAL_CACHE_SIZE)
def normalize_radical(n: int) -> tuple[int, int]:
    """Split n >= 0 as outside**2 * core with core squarefree; 0 -> (0, 1).

    Trial division stops past 2**20.  A cofactor left below 2**40 has no
    factor it missed, so it is prime; a larger one raises ValueError, since
    splitting it would mean factoring it.  Once a cofactor m below 2**40
    has p**3 > m, it is 1, q, q*r or q**2 for primes q != r >= p.
    """
    if n < 0:
        raise ValueError(f"radicand must be nonnegative, got {n}")
    if n == 0:
        return (0, 1)
    outside = 1
    core = 1
    m = n
    p = 2
    while p * p <= m:
        if m < _TRIAL_LIMIT**2 and p * p * p > m:
            break
        if p > _TRIAL_LIMIT:
            raise ValueError(f"radicand {n} has a factor too large to split")
        if m % p == 0:
            exp = 0
            while m % p == 0:
                m //= p
                exp += 1
            outside *= p ** (exp // 2)
            if exp % 2:
                core *= p
        p += 1 if p == 2 else 2
    root = math.isqrt(m)
    if root * root == m:  # m is q**2 or 1
        return (outside * root, core)
    return (outside, core * m)


class RadicalScalar:
    """Immutable value: sum over squarefree d of (re + i*im) * sqrt(d)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, tuple[Fraction, Fraction]] | None = None):
        # Terms must already be canonical; use the constructors below.
        self._terms = terms or {}

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, x: RationalLike) -> "RadicalScalar":
        x = Fraction(x)
        if x == 0:
            return ZERO
        return cls({1: (x, _ZERO_FRAC)})

    @classmethod
    def from_parts(cls, re: RationalLike, im: RationalLike) -> "RadicalScalar":
        re, im = Fraction(re), Fraction(im)
        if re == 0 and im == 0:
            return ZERO
        return cls({1: (re, im)})

    @classmethod
    def from_terms(
        cls, items: Iterable[tuple[int, RationalLike, RationalLike]]
    ) -> "RadicalScalar":
        """Build from (radicand, re, im) triples; radicands need not be squarefree."""
        acc: dict[int, tuple[Fraction, Fraction]] = {}
        for d, re, im in items:
            out, core = normalize_radical(d)
            re, im = Fraction(re) * out, Fraction(im) * out
            pre, pim = acc.get(core, (_ZERO_FRAC, _ZERO_FRAC))
            acc[core] = (pre + re, pim + im)
        return cls({d: c for d, c in acc.items() if c[0] or c[1]})

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def terms(self) -> dict[int, tuple[Fraction, Fraction]]:
        return dict(self._terms)

    def sorted_terms(self) -> list[tuple[int, Fraction, Fraction]]:
        return [(d, c[0], c[1]) for d, c in sorted(self._terms.items())]

    def to_complex(self) -> complex:
        val = 0j
        for d, (re, im) in self._terms.items():
            root = math.sqrt(d)
            val += complex(float(re) * root, float(im) * root)
        return val

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "RadicalScalar | RationalLike") -> "RadicalScalar":
        other = _coerce(other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        acc = dict(self._terms)
        for d, (re, im) in other._terms.items():
            pre, pim = acc.get(d, (_ZERO_FRAC, _ZERO_FRAC))
            nre, nim = pre + re, pim + im
            if nre or nim:
                acc[d] = (nre, nim)
            else:
                acc.pop(d, None)
        return RadicalScalar(acc)

    __radd__ = __add__

    def __neg__(self) -> "RadicalScalar":
        return RadicalScalar({d: (-re, -im) for d, (re, im) in self._terms.items()})

    def __sub__(self, other: "RadicalScalar | RationalLike") -> "RadicalScalar":
        return self + (-_coerce(other))

    def __rsub__(self, other: "RadicalScalar | RationalLike") -> "RadicalScalar":
        return _coerce(other) + (-self)

    def __mul__(self, other: "RadicalScalar | RationalLike") -> "RadicalScalar":
        other = _coerce(other)
        if not self._terms or not other._terms:
            return ZERO
        acc: dict[int, tuple[Fraction, Fraction]] = {}
        for d1, (re1, im1) in self._terms.items():
            for d2, (re2, im2) in other._terms.items():
                # Both radicands are squarefree: d1*d2 = g**2 * (d1/g)*(d2/g),
                # and the cofactor is squarefree, so no factoring is needed.
                out = math.gcd(d1, d2)
                core = (d1 // out) * (d2 // out)
                re = (re1 * re2 - im1 * im2) * out
                im = (re1 * im2 + im1 * re2) * out
                pre, pim = acc.get(core, (_ZERO_FRAC, _ZERO_FRAC))
                acc[core] = (pre + re, pim + im)
        return RadicalScalar({d: c for d, c in acc.items() if c[0] or c[1]})

    __rmul__ = __mul__

    def times_i(self) -> "RadicalScalar":
        """Multiply by the imaginary unit."""
        return RadicalScalar({d: (-im, re) for d, (re, im) in self._terms.items()})

    def conjugate(self) -> "RadicalScalar":
        return RadicalScalar({d: (re, -im) for d, (re, im) in self._terms.items()})

    def reciprocal_single(self) -> "RadicalScalar":
        """Invert a single-term value (p + i q) * sqrt(d).

        The inverse is conj/(|coeff|^2 * d) * sqrt(d); general sums are not
        invertible here and raise ValueError.
        """
        if len(self._terms) != 1:
            raise ValueError("only single-term values can be inverted")
        ((d, (re, im)),) = self._terms.items()
        denom = (re * re + im * im) * d
        return RadicalScalar({d: (re / denom, -im / denom)})

    def __truediv__(self, other: "RadicalScalar | RationalLike") -> "RadicalScalar":
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by exact zero")
        return self * other.reciprocal_single()

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"RadicalScalar({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for d, (re, im) in sorted(self._terms.items()):
            for coeff, unit in ((re, ""), (im, "i")):
                if not coeff:
                    continue
                mag = f"{abs(coeff)}" if abs(coeff) != 1 or (d == 1 and not unit) else ""
                root = f"sqrt({d})" if d != 1 else ""
                body = "*".join(x for x in (mag, unit, root) if x) or "1"
                parts.append(("-" if coeff < 0 else "+") + body)
        out = "".join(parts)
        return out[1:] if out.startswith("+") else out


def _coerce(x: "RadicalScalar | RationalLike") -> RadicalScalar:
    if isinstance(x, RadicalScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return RadicalScalar.from_rational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to RadicalScalar")


def sqrt_of_rational(x: RationalLike) -> RadicalScalar:
    """Principal square root of a nonnegative rational, exactly.

    sqrt(p/q) = (f/q) * sqrt(core) where p*q = f**2 * core, core squarefree.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError(f"cannot take a real square root of {x}")
    if x == 0:
        return ZERO
    out, core = normalize_radical(x.numerator * x.denominator)
    return RadicalScalar({core: (Fraction(out, x.denominator), _ZERO_FRAC)})


ZERO = RadicalScalar()
ONE = RadicalScalar({1: (Fraction(1), _ZERO_FRAC)})
I_UNIT = RadicalScalar({1: (_ZERO_FRAC, Fraction(1))})
