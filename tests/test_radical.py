"""Exact scalar arithmetic: canonical form, ring axioms, square roots."""

import itertools
import math
import operator
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincarerep.radical import (
    I_UNIT,
    ONE,
    ZERO,
    RadicalScalar,
    normalize_radical,
    sqrt_of_rational,
    unlimited_int_digits,
)

from oracles import ReferenceScalar, conjugate, is_prime_below_2_41, reference_normalize_radical


def brute_square_split(n: int) -> tuple[int, int]:
    """Oracle: largest k with k*k dividing n, by trial division."""
    if n == 0:
        return (0, 1)
    best = 1
    k = 1
    while k * k <= n:
        if n % (k * k) == 0:
            best = k
        k += 1
    return (best, n // (best * best))


def is_squarefree(n: int) -> bool:
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


def _primes_near(x: int, count: int) -> list[int]:
    """The ``count`` primes below x and the ``count`` from x up."""
    below = (n for n in range(x - 1, 1, -1) if is_prime_below_2_41(n))
    above = (n for n in itertools.count(x) if is_prime_below_2_41(n))
    return [*itertools.islice(below, count), *itertools.islice(above, count)]


_PRIMES_AT_LIMITS = [p for x in (2**10, 2**20, 2**31, 2**40) for p in _primes_near(x, 3)]


class TestNormalizeRadical:
    def test_twelve(self):
        assert normalize_radical(12) == (2, 3)

    def test_one(self):
        assert normalize_radical(1) == (1, 1)

    def test_360_against_oracle(self):
        assert brute_square_split(360) == (6, 10)
        assert normalize_radical(360) == (6, 10)

    def test_zero(self):
        assert normalize_radical(0) == (0, 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize_radical(-4)

    def test_prime_cofactor_below_2_40_splits(self):
        prime = 2**40 - 87  # the largest prime below 2**40
        assert normalize_radical(prime * 12) == (2, prime * 3)

    def test_unsplittable_radicand_rejected_quickly(self):
        # A Mersenne prime, and the square of the first prime past 2**20.
        for n in (2**61 - 1, (2**20 + 7) ** 2):
            start = time.perf_counter()
            with pytest.raises(ValueError):
                normalize_radical(n)
            assert time.perf_counter() - start < 5

    def test_primes_just_below_2_40_split_quickly(self):
        primes = [n for n in range(2**40 - 1, 2**40 - 2000, -2) if is_prime_below_2_41(n)][:20]
        assert len(primes) == 20
        split = normalize_radical.__wrapped__  # bypass the cache
        start = time.perf_counter()
        for prime in primes:
            assert split(prime) == (1, prime)
        assert time.perf_counter() - start < 1

    def test_products_of_primes_next_to_2_20_match_oracle(self):
        q, r = 1048573, 1048571  # the two largest primes below 2**20
        for n in (q * r, q * q, q * r * 7):
            assert normalize_radical(n) == brute_square_split(n), n

    def test_cache_is_bounded(self):
        bound = normalize_radical.cache_info().maxsize
        assert bound is not None
        first = [normalize_radical(n) for n in range(1, 50)]
        assert first == [brute_square_split(n) for n in range(1, 50)]
        for n in range(2**13, 2**13 + bound + 100):
            out, core = normalize_radical(n)
            assert out * out * core == n
        assert normalize_radical.cache_info().currsize <= bound
        assert [normalize_radical(n) for n in range(1, 50)] == first

    @given(
        st.one_of(
            st.integers(min_value=-(2**64), max_value=2**64),
            # Products of primes next to 2**10, 2**20, 2**31 and 2**40, where
            # trial division changes method, reaches its limit, or leaves a
            # cofactor it must call prime or refuse.
            st.lists(st.sampled_from(_PRIMES_AT_LIMITS), min_size=1, max_size=4).map(math.prod),
            st.tuples(st.sampled_from(_PRIMES_AT_LIMITS), st.integers(1, 2**24)).map(math.prod),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_trial_division_by_every_odd_number(self, n):
        def outcome(split):
            try:
                return split(n)
            except ValueError as exc:
                return str(exc)

        assert outcome(normalize_radical.__wrapped__) == outcome(reference_normalize_radical)

    @given(st.integers(min_value=0, max_value=5000))
    def test_matches_oracle_and_is_squarefree(self, n):
        out, core = normalize_radical(n)
        assert (out, core) == brute_square_split(n)
        if n > 0:
            assert out * out * core == n
            assert is_squarefree(core)


class TestSqrtOfRational:
    def test_half(self):
        s = sqrt_of_rational(Fraction(1, 2))
        assert s.terms == {2: (Fraction(1, 2), Fraction(0))}

    def test_perfect_square(self):
        assert sqrt_of_rational(Fraction(9, 4)) == RadicalScalar.from_rational(Fraction(3, 2))

    def test_three_eighths(self):
        s = sqrt_of_rational(Fraction(3, 8))
        assert s.terms == {6: (Fraction(1, 4), Fraction(0))}
        assert s * s == RadicalScalar.from_rational(Fraction(3, 8))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sqrt_of_rational(Fraction(-1, 2))

    @given(st.fractions(min_value=0, max_value=50, max_denominator=40))
    def test_square_recovers_input(self, x):
        s = sqrt_of_rational(x)
        assert s * s == RadicalScalar.from_rational(x)


class TestArithmetic:
    def test_sqrt2_squared(self):
        r2 = sqrt_of_rational(2)
        assert r2 * r2 == RadicalScalar.from_rational(2)

    def test_sqrt2_times_sqrt3(self):
        assert sqrt_of_rational(2) * sqrt_of_rational(3) == sqrt_of_rational(6)

    def test_products_of_squarefree_radicands(self):
        assert sqrt_of_rational(6) * sqrt_of_rational(10) == sqrt_of_rational(15) * 2
        p = 2**31 - 1  # prime: the product must not be factored by trial division
        assert sqrt_of_rational(p) * sqrt_of_rational(p) == RadicalScalar.from_rational(p)

    def test_gaussian_product(self):
        # (1 + i sqrt(3)) (1 - i sqrt(3)) = 1 + 3 = 4
        a = ONE + sqrt_of_rational(3).times_i()
        b = ONE - sqrt_of_rational(3).times_i()
        assert a * b == RadicalScalar.from_rational(4)

    def test_is_zero_cancellation(self):
        assert (sqrt_of_rational(2) - sqrt_of_rational(2)).is_zero()

    def test_is_zero_independence(self):
        assert not (sqrt_of_rational(2) - ONE).is_zero()

    def test_is_zero_after_normalization(self):
        # sqrt(8) - 2 sqrt(2) = 0 once 8 = 4 * 2 is normalized
        raw = RadicalScalar.from_terms([(8, 1, 0), (2, -2, 0)])
        assert raw.is_zero()

    def test_times_i(self):
        assert ONE.times_i() == I_UNIT
        assert I_UNIT.times_i() == -ONE

    def test_conjugate(self):
        a = RadicalScalar.from_parts(1, 2) + sqrt_of_rational(3).times_i()
        assert (a * conjugate(a)).terms[1][1] == 0  # |a|^2 is real

    def test_division_by_single_term(self):
        num = sqrt_of_rational(6)
        den = sqrt_of_rational(2)
        assert num / den == sqrt_of_rational(3)
        assert (ONE / I_UNIT) == -I_UNIT

    def test_division_by_sum_rejected(self):
        with pytest.raises(ValueError):
            ONE / (ONE + sqrt_of_rational(2))

    def test_division_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO


class TestFloatBridge:
    def test_half(self):
        assert RadicalScalar.from_rational(Fraction(1, 2)).to_complex() == 0.5 + 0j

    def test_sqrt2(self):
        assert abs(sqrt_of_rational(2).to_complex() - 1.4142135623730951) < 1e-15

    def test_i_sqrt3(self):
        val = sqrt_of_rational(3).times_i().to_complex()
        assert abs(val - 1.7320508075688772j) < 1e-15


class TestDisplayPastTheDigitLimit:
    """A value with integers past the 4300 digits CPython writes as text by default."""

    def test_str_and_repr_of_3_to_the_8500_times_sqrt_2(self):
        value = RadicalScalar.from_terms([(2, 3**8500, 0)])
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        text = str(value)
        assert repr(value) == f"RadicalScalar({text})"
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        with unlimited_int_digits():
            assert text == f"{3**8500}*sqrt(2)"
        assert str(-value.times_i()) == f"-{text[:-len('*sqrt(2)')]}*i*sqrt(2)"

    def test_the_limit_is_restored_after_an_error(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        with pytest.raises(KeyError):
            with unlimited_int_digits():
                raise KeyError("inside")
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        if limit:
            with pytest.raises(ValueError):
                str(10**(limit + 1))


_small_fraction = st.fractions(min_value=-6, max_value=6, max_denominator=6)
_radicand = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 12])


@st.composite
def term_triples(draw, radicand=_radicand):
    n_terms = draw(st.integers(min_value=0, max_value=3))
    return [
        (draw(radicand), draw(_small_fraction), draw(_small_fraction))
        for _ in range(n_terms)
    ]


def radical_scalars():
    return term_triples().map(RadicalScalar.from_terms)


def scalar_pairs():
    """A RadicalScalar and the ReferenceScalar built from the same triples."""
    return term_triples().map(
        lambda t: (RadicalScalar.from_terms(t), ReferenceScalar.from_terms(t))
    )


@given(radical_scalars(), radical_scalars(), radical_scalars())
@settings(max_examples=120)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert (a - a).is_zero()


@given(radical_scalars())
@settings(max_examples=80)
def test_canonical_form_idempotent(a):
    rebuilt = RadicalScalar.from_terms(a.sorted_terms())
    assert rebuilt == a
    assert all(d >= 1 and is_squarefree(d) for d, _, _ in a.sorted_terms())
    assert all(re or im for _, re, im in a.sorted_terms())


@given(radical_scalars(), radical_scalars(), radical_scalars())
@settings(max_examples=80)
def test_to_complex_respects_arithmetic(a, b, c):
    # (a*b + c) - (a - c)*b : eight exact operations mirrored in floats
    exact = (a * b + c - (a - c) * b).to_complex()
    fa, fb, fc = a.to_complex(), b.to_complex(), c.to_complex()
    approx = fa * fb + fc - (fa - fc) * fb
    scale = max(1.0, abs(exact), abs(approx))
    assert abs(exact - approx) / scale < 1e-12


# -- agreement with the Fraction-pair reference --------------------------------

_rational = st.one_of(st.integers(min_value=-6, max_value=6), _small_fraction)


def assert_agrees(value, ref):
    assert isinstance(value, RadicalScalar)
    assert value.terms == ref.terms
    assert all(type(c) is Fraction for pair in value.terms.values() for c in pair)
    assert value.sorted_terms() == ref.sorted_terms()
    assert str(value) == str(ref)
    assert value.to_complex() == ref.to_complex()  # float-json export reads it
    assert value.is_zero() == (not ref)


def outcome(fn):
    """fn(), or the type of the exception it raised."""
    try:
        return fn()
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        return type(exc)


def assert_same_outcome(fn, ref_fn):
    expected = outcome(ref_fn)
    if isinstance(expected, type):
        assert outcome(fn) is expected
    else:
        assert_agrees(fn(), expected)


@given(scalar_pairs(), scalar_pairs(), _rational)
@settings(max_examples=150)
def test_binary_operations_match_reference(p, q, r):
    (a, ra), (b, rb) = p, q
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        assert_same_outcome(lambda: op(a, b), lambda: op(ra, rb))
        assert_same_outcome(lambda: op(a, r), lambda: op(ra, r))
        assert_same_outcome(lambda: op(r, a), lambda: op(r, ra))


@given(scalar_pairs())
@settings(max_examples=100)
def test_unary_operations_match_reference(p):
    a, ra = p
    assert_agrees(a, ra)
    assert_agrees(-a, -ra)
    assert_agrees(a.times_i(), ra.times_i())
    assert_agrees(conjugate(a), ra.conjugate())
    assert_same_outcome(a.reciprocal_single, ra.reciprocal_single)


@given(term_triples(radicand=st.integers(min_value=0, max_value=75)), _rational, _rational)
@settings(max_examples=100)
def test_constructors_match_reference(triples, r, s):
    assert_agrees(RadicalScalar.from_terms(triples), ReferenceScalar.from_terms(triples))
    assert_agrees(RadicalScalar.from_parts(r, s), ReferenceScalar.from_parts(r, s))
    assert_agrees(RadicalScalar.from_rational(r), ReferenceScalar.from_rational(r))
    assert_same_outcome(lambda: sqrt_of_rational(r), lambda: ReferenceScalar.sqrt_of_rational(r))


@given(scalar_pairs(), scalar_pairs(), _rational)
@settings(max_examples=100)
def test_equality_and_hash_match_reference(p, q, r):
    (a, ra), (b, rb) = p, q
    for x, rx in ((b, rb), (a * ONE, ra), (ZERO + a, ra)):
        assert (a == x) == (ra == rx)
        if a == x:
            assert hash(a) == hash(x)
    assert (a == r) == (ra == r)


def test_rational_values_hash_as_ints_and_fractions():
    half = Fraction(1, 2)
    assert ONE == 1 and hash(ONE) == hash(1) and len({ONE, 1}) == 1
    assert ZERO == 0 and hash(ZERO) == hash(0) and {0: "z"}.get(ZERO) == "z"
    assert {half: "x"}.get(RadicalScalar.from_rational(half)) == "x"
    assert hash(RadicalScalar.from_rational(-3)) == hash(-3)


@given(_rational)
@settings(max_examples=100)
def test_rational_value_hash_agrees_with_its_equality(r):
    x = RadicalScalar.from_rational(r)
    assert x == r and hash(x) == hash(r)
    assert {r: "x"}.get(x) == "x"


def assert_canonical(x):
    nums = [c for pair in x._num.values() for c in pair]
    assert x._den > 0 and math.gcd(x._den, *nums) == 1
    assert all(re or im for re, im in x._num.values())


def assert_same_form(x, y):
    assert (x._den, x._num, hash(x)) == (y._den, y._num, hash(y))


_single_terms = st.tuples(_radicand, _small_fraction, _small_fraction).filter(
    lambda t: t[1] or t[2]
).map(lambda t: RadicalScalar.from_terms([t]))


@given(radical_scalars(), radical_scalars(), _single_terms)
@settings(max_examples=120)
def test_canonical_form_does_not_depend_on_the_path(x, y, b):
    assert_same_form(ZERO, RadicalScalar({}, 1))
    for value in (x, x + y, x * y, x * b, x / b, b.reciprocal_single()):
        assert_canonical(value)
    assert_same_form((x * b) / b, x)
    assert_same_form(x + y - y, x)
    assert_same_form(x * b * b.reciprocal_single(), x)
    assert_same_form(RadicalScalar.from_terms(reversed(x.sorted_terms())), x)
