"""Exact arithmetic for finite sums sum_d (p_d + i q_d) * sqrt(d).

Each number is stored as integer numerators over one positive integer
denominator: a map from a squarefree positive radicand d to a pair of
integers (re, im), and one ``den``, so the coefficient of sqrt(d) is
(re + i*im) / den.  The purely rational part lives under the key d = 1.
This is how FLINT stores an ``fmpq_poly`` and ANTIC a number-field
element; sums and products run on Python ints and reduce by one gcd.

The form is canonical when no pair is all zero and the gcd of den and all
numerators is 1 (zero is the empty map over den = 1); one helper, ``_make``,
brings every result to it.  Distinct square roots of squarefree integers
are linearly independent over the rationals, so equality and the zero test
are exact integer comparisons -- no tolerances anywhere.  ``terms`` and
``sorted_terms`` give each coefficient as a reduced ``Fraction``.

Division by a general sum is deliberately not provided; only division by
rationals and by single-term values is needed to build the matrices.
"""

from __future__ import annotations

import contextlib
import math
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Union

RationalLike = Union[int, Fraction]

_TRIAL_LIMIT = 2**20

# Trial division by every odd number runs up to _SMALL_LIMIT; past it the
# primes below _TRIAL_LIMIT are tested _CHUNK at a time, one gcd per chunk.
_SMALL_LIMIT = 2**10
_CHUNK = 256

# Distinct radicands kept: a bound on memory in a long-lived process.
_RADICAL_CACHE_SIZE = 4096


@lru_cache(maxsize=_RADICAL_CACHE_SIZE)
def normalize_radical(n: int) -> tuple[int, int]:
    """Split n >= 0 as outside**2 * core with core squarefree; 0 -> (0, 1).

    Only primes up to 2**20 are divided out.  The cofactor they leave is
    1, q, q*r or q**2 for primes q != r (see ``_trial_divide``), unless it is
    at least (2**20 + 1)**2: then splitting it would mean factoring it, and
    ValueError is raised.
    """
    if n < 0:
        raise ValueError(f"radicand must be nonnegative, got {n}")
    if n == 0:
        return (0, 1)
    factors, m = _trial_divide(n)
    if m >= (_TRIAL_LIMIT + 1) ** 2:
        raise ValueError(f"radicand {n} has a factor too large to split")
    outside = core = 1
    for p, exp in factors:
        outside *= p ** (exp // 2)
        if exp % 2:
            core *= p
    root = math.isqrt(m)
    if root * root == m:  # m is q**2 or 1
        return (outside * root, core)
    return (outside, core * m)


def _trial_divide(m: int) -> tuple[list[tuple[int, int]], int]:
    """The primes p <= 2**20 dividing m with their exponents, and the cofactor left.

    The divisors come in groups (first, product, primes) in increasing
    order, and a group is divided in only if its product shares a factor
    with m.  The search stops early, leaving a cofactor below 2**40, once
    the cofactor m is free of the primes below p = first and p*p > m, or
    m < 2**40 and p**3 > m: m is then 1, q, q*r or q**2 for primes
    q != r >= p, and the caller needs no more of its factors.
    """
    found = []
    for first, product, primes in _divisor_groups():
        if first * first > m or (m < _TRIAL_LIMIT**2 and first**3 > m):
            break
        common = math.gcd(m, product)
        if common == 1:
            continue
        for p in primes:
            if common % p == 0:
                exp = 0
                while m % p == 0:
                    m //= p
                    exp += 1
                found.append((p, exp))
    return found, m


def _divisor_groups() -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """2 and each odd number below _SMALL_LIMIT alone, then the chunks of larger primes."""
    yield 2, 2, (2,)
    for p in range(3, _SMALL_LIMIT, 2):
        yield p, p, (p,)
    yield from _prime_chunks()


@lru_cache(maxsize=1)
def _prime_chunks() -> list[tuple[int, int, tuple[int, ...]]]:
    """The primes in (_SMALL_LIMIT, _TRIAL_LIMIT], _CHUNK at a time, with their product.

    Each entry is (first prime, product, primes).  Built on first use, which
    only a radicand whose trial division runs past 2**10 reaches.
    """
    sieve = bytearray([1]) * (_TRIAL_LIMIT + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(_TRIAL_LIMIT) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, _TRIAL_LIMIT + 1, p)))
    primes = [p for p in range(_SMALL_LIMIT + 1, _TRIAL_LIMIT + 1) if sieve[p]]
    chunks = []
    for k in range(0, len(primes), _CHUNK):
        chunk = tuple(primes[k : k + _CHUNK])
        chunks.append((chunk[0], math.prod(chunk), chunk))
    return chunks


class RadicalScalar:
    """Immutable value: sum over squarefree d of (re + i*im) / den * sqrt(d)."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: dict[int, tuple[int, int]] | None = None, den: int = 1):
        # The form must already be canonical; use the constructors below.
        self._num = num or {}
        self._den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, x: RationalLike) -> "RadicalScalar":
        n, q = _ratio(x)
        return _make({1: (n, 0)}, q)

    @classmethod
    def from_parts(cls, re: RationalLike, im: RationalLike) -> "RadicalScalar":
        (rn, rq), (in_, iq) = _ratio(re), _ratio(im)
        den = math.lcm(rq, iq)
        return _make({1: (rn * (den // rq), in_ * (den // iq))}, den)

    @classmethod
    def from_terms(
        cls, items: Iterable[tuple[int, RationalLike, RationalLike]]
    ) -> "RadicalScalar":
        """Build from (radicand, re, im) triples; radicands need not be squarefree."""
        parts = []
        den = 1
        for d, re, im in items:
            out, core = normalize_radical(d)
            (rn, rq), (in_, iq) = _ratio(re), _ratio(im)
            den = math.lcm(den, rq, iq)
            parts.append((core, rn * out, rq, in_ * out, iq))
        acc: dict[int, tuple[int, int]] = {}
        for core, rn, rq, in_, iq in parts:
            re, im = rn * (den // rq), in_ * (den // iq)
            prev = acc.get(core)
            acc[core] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
        return _make(acc, den)

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    @property
    def terms(self) -> dict[int, tuple[Fraction, Fraction]]:
        den = self._den
        return {d: (Fraction(re, den), Fraction(im, den)) for d, (re, im) in self._num.items()}

    def sorted_terms(self) -> list[tuple[int, Fraction, Fraction]]:
        den = self._den
        return [
            (d, Fraction(re, den), Fraction(im, den)) for d, (re, im) in sorted(self._num.items())
        ]

    def to_complex(self) -> complex:
        # int / int rounds correctly, so each coefficient is the float of
        # its exact value, as float(Fraction) gives.
        val = 0j
        den = self._den
        for d, (re, im) in self._num.items():
            root = math.sqrt(d)
            val += complex(re / den * root, im / den * root)
        return val

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "RadicalScalar | RationalLike") -> "RadicalScalar":
        other = _coerce(other)
        if not self._num:
            return other
        if not other._num:
            return self
        den1, den2 = self._den, other._den
        if den1 == den2:
            den = den1
            acc = dict(self._num)
            right = other._num
        else:
            den = math.lcm(den1, den2)
            f1, f2 = den // den1, den // den2
            acc = {d: (re * f1, im * f1) for d, (re, im) in self._num.items()}
            right = {d: (re * f2, im * f2) for d, (re, im) in other._num.items()}
        for d, (re, im) in right.items():
            prev = acc.get(d)
            acc[d] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
        return _make(acc, den)

    __radd__ = __add__

    def __neg__(self) -> "RadicalScalar":
        return RadicalScalar({d: (-re, -im) for d, (re, im) in self._num.items()}, self._den)

    def __sub__(self, other: "RadicalScalar | RationalLike") -> "RadicalScalar":
        return self + (-_coerce(other))

    def __rsub__(self, other: "RadicalScalar | RationalLike") -> "RadicalScalar":
        return _coerce(other) + (-self)

    def __mul__(self, other: "RadicalScalar | RationalLike") -> "RadicalScalar":
        other = _coerce(other)
        if not self._num or not other._num:
            return ZERO
        gcd = math.gcd
        acc: dict[int, tuple[int, int]] = {}
        for d1, (re1, im1) in self._num.items():
            for d2, (re2, im2) in other._num.items():
                # Both radicands are squarefree: d1*d2 = g**2 * (d1/g)*(d2/g),
                # and the cofactor is squarefree, so no factoring is needed.
                out = gcd(d1, d2)
                core = (d1 // out) * (d2 // out)
                re = (re1 * re2 - im1 * im2) * out
                im = (re1 * im2 + im1 * re2) * out
                prev = acc.get(core)
                acc[core] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
        return _make(acc, self._den * other._den)

    __rmul__ = __mul__

    def times_i(self) -> "RadicalScalar":
        """Multiply by the imaginary unit."""
        return RadicalScalar({d: (-im, re) for d, (re, im) in self._num.items()}, self._den)

    def reciprocal_single(self) -> "RadicalScalar":
        """Invert a single-term value (p + i q) / den * sqrt(d).

        The inverse is den * (p - i q) / ((p^2 + q^2) * d) * sqrt(d); general
        sums are not invertible here and raise ValueError.
        """
        if len(self._num) != 1:
            raise ValueError("only single-term values can be inverted")
        ((d, (re, im)),) = self._num.items()
        den = self._den
        return _make({d: (re * den, -im * den)}, (re * re + im * im) * d)

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
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        # A rational value equals its int or Fraction, so it hashes as one.
        num = self._num
        if not num:
            return hash(0)
        if len(num) == 1 and 1 in num and not num[1][1]:
            return hash(Fraction(num[1][0], self._den))
        return hash((self._den, tuple(sorted(num.items()))))

    def __bool__(self) -> bool:
        return bool(self._num)

    def __repr__(self) -> str:
        return f"RadicalScalar({self})"

    def __str__(self) -> str:
        try:
            return self._display()
        except ValueError:  # an integer past Python's digit limit for int-to-text
            with unlimited_int_digits():
                return self._display()

    def _display(self) -> str:
        if not self._num:
            return "0"
        parts = []
        for d, re, im in self.sorted_terms():
            for coeff, unit in ((re, ""), (im, "i")):
                if not coeff:
                    continue
                mag = f"{abs(coeff)}" if abs(coeff) != 1 or (d == 1 and not unit) else ""
                root = f"sqrt({d})" if d != 1 else ""
                body = "*".join(x for x in (mag, unit, root) if x) or "1"
                parts.append(("-" if coeff < 0 else "+") + body)
        out = "".join(parts)
        return out[1:] if out.startswith("+") else out


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift Python's limit on the digits of an int written as text, for this block only.

    A value the package forms can hold integers of more digits than CPython
    converts by default (4300): at t12 = t21 = 3**8500, a literal the
    command line accepts, the PP residuals hold t12 * t21.  The limit is
    restored on exit, so the bundle loader still refuses such literals.  A
    Python without the limit runs the block as it is.
    """
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(limit)


def _make(acc: dict[int, tuple[int, int]], den: int) -> RadicalScalar:
    """The canonical value of sum over d of acc[d] / den * sqrt(d), for den > 0.

    Drops all-zero pairs and divides numerators and den by their one gcd.
    """
    gcd = math.gcd
    num = {}
    g = den
    for d, (re, im) in acc.items():
        if re or im:
            num[d] = (re, im)
            if g != 1:
                g = gcd(g, re, im)
    if not num:
        return ZERO
    if g != 1:
        num = {d: (re // g, im // g) for d, (re, im) in num.items()}
        den //= g
    return RadicalScalar(num, den)


def _ratio(x: RationalLike) -> tuple[int, int]:
    """(numerator, denominator) of x in lowest terms, denominator positive."""
    if type(x) is int:
        return x, 1
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator, x.denominator


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
    p, q = _ratio(x)
    if p < 0:
        raise ValueError(f"cannot take a real square root of {Fraction(p, q)}")
    if p == 0:
        return ZERO
    out, core = normalize_radical(p * q)
    return _make({core: (out, 0)}, q)


def gaussian_table(rows, divisor: int = 1) -> tuple[tuple[RadicalScalar, ...], ...]:
    """The table of exact values z / divisor, each z an int or a complex with integer parts."""
    return tuple(
        tuple(
            RadicalScalar.from_parts(Fraction(int(z.real), divisor), Fraction(int(z.imag), divisor))
            for z in row
        )
        for row in rows
    )


ZERO = RadicalScalar()
ONE = RadicalScalar({1: (1, 0)})
I_UNIT = RadicalScalar({1: (0, 1)})
