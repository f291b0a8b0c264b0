"""The matrix kernel against the entry-by-entry RadicalScalar oracles."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import entrywise, reference_anticommutator, reference_commutator, reference_matmul
from poincarerep import matrix
from poincarerep.matrix import Matrix, anticommutator, commutator
from poincarerep.radical import ONE, ZERO, RadicalScalar

# Shared and coprime radicands, one non-squarefree (12 = 2**2 * 3) and one
# large prime; denominators are mixed so each operand needs a real lcm.
_radicand = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 12, 15, 2147483647])
_coefficient = st.fractions(min_value=-7, max_value=7, max_denominator=9)


@st.composite
def scalars(draw):
    n_terms = draw(st.integers(min_value=1, max_value=3))
    return RadicalScalar.from_terms(
        (draw(_radicand), draw(_coefficient), draw(_coefficient)) for _ in range(n_terms)
    )


@st.composite
def matrices(draw, rows, cols):
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    positions = draw(st.sets(cells, max_size=rows * cols))
    return Matrix.from_entries(rows, cols, {ij: draw(scalars()) for ij in positions})


@st.composite
def product_operands(draw):
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))
    return draw(matrices(n, k)), draw(matrices(k, m))


@st.composite
def square_pairs(draw):
    n = draw(st.integers(1, 5))
    return draw(matrices(n, n)), draw(matrices(n, n))


# Any exact scalar: a RadicalScalar (zero included), an int or a Fraction.
_factors = st.one_of(scalars(), st.just(ZERO), st.integers(-3, 3), _coefficient)


@st.composite
def commutators_with_rhs(draw):
    """(m, n, rhs): 0-3 terms c * Z with exact scalars c and Z like m."""
    m, n = draw(square_pairs())
    rhs = draw(st.lists(st.tuples(_factors, matrices(m.rows, m.rows)), max_size=3))
    return m, n, rhs


@st.composite
def same_shape_pairs(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return draw(matrices(rows, cols)), draw(matrices(rows, cols))


def _canonical(m: Matrix) -> bool:
    return all(not v.is_zero() for _, _, v in m.nonzero_items())


@given(product_operands())
@settings(max_examples=100, deadline=None)
def test_matmul_matches_reference(operands):
    a, b = operands
    out = a @ b
    assert out == reference_matmul(a, b)
    assert (out.rows, out.cols) == (a.rows, b.cols)
    assert _canonical(out)


@given(square_pairs())
@settings(max_examples=100, deadline=None)
def test_commutator_and_anticommutator_match_reference(pair):
    m, n = pair
    comm, anti = commutator(m, n), anticommutator(m, n)
    assert comm == reference_commutator(m, n)
    assert anti == reference_anticommutator(m, n)
    assert _canonical(comm) and _canonical(anti)


@given(commutators_with_rhs())
@settings(max_examples=100, deadline=None)
def test_commutator_minus_rhs_matches_reference(case):
    m, n, rhs = case
    out = commutator(m, n, rhs)
    assert out == reference_commutator(m, n, rhs)
    assert _canonical(out)


@given(commutators_with_rhs(), _factors)
@settings(max_examples=60, deadline=None)
def test_rhs_equal_to_the_commutator_cancels_it(case, u):
    m, n, extra = case
    # c = [m, n] - sum(extra); taking u * c and (1 - u) * c off as well leaves zero.
    c = reference_commutator(m, n, extra)
    assert commutator(m, n, [*extra, (u, c), (ONE - u, c)]).is_zero()


@given(same_shape_pairs(), scalars().filter(lambda v: len(v.terms) > 1), _factors)
@settings(max_examples=100, deadline=None)
def test_sums_and_scalar_multiples_match_reference(pair, multi_term, factor):
    a, b = pair
    cases = [
        (a + b, entrywise(lambda x, y: x + y, a, b)),
        (a - b, entrywise(lambda x, y: x - y, a, b)),
        (-a, entrywise(lambda x: -x, a)),
        (a.scale(multi_term), entrywise(lambda x: x * multi_term, a)),
        (a.scale(factor), entrywise(lambda x: x * factor, a)),
        (a.scale(0), Matrix(a.rows, a.cols)),
        (a.times_i(), entrywise(RadicalScalar.times_i, a)),
    ]
    for out, expected in cases:
        assert out == expected
        assert (out.rows, out.cols) == (a.rows, a.cols)
        assert _canonical(out)


@given(commutators_with_rhs(), _factors)
@settings(max_examples=60, deadline=None)
def test_operands_reused_across_kernel_calls(case, c):
    # The kernel keeps each operand's integer form; the same m and n serve
    # as first, second and multiple operands in turn.
    m, n, rhs = case
    copies = [Matrix.from_entries(x.rows, x.cols, {(i, j): v for i, j, v in x.nonzero_items()})
              for x in (m, n)]
    calls = [
        (commutator(m, n, rhs), reference_commutator(m, n, rhs)),
        (n @ m, reference_matmul(n, m)),
        (m + n, entrywise(lambda x, y: x + y, m, n)),
        (m.scale(c), entrywise(lambda x: x * c, m)),
        (commutator(n, m), reference_commutator(n, m)),
    ]
    for out, expected in calls:
        assert out == expected
        assert _canonical(out)
    assert [m, n] == copies


@given(commutators_with_rhs(), st.lists(_factors, max_size=6), st.data())
@settings(max_examples=60, deadline=None)
def test_packed_operands_are_not_packed_again(case, coefficients, data):
    # Once m, n and every Z have their integer form, no scalar c needs one.
    m, n, rhs = case
    zs = [z for _, z in rhs] or [m]
    commutator(m, n, [(1, z) for z in zs])
    terms = [(c, data.draw(st.sampled_from(zs))) for c in coefficients]
    with mock.patch.object(matrix, "_pack", wraps=matrix._pack) as pack:
        out = commutator(m, n, terms)
    assert pack.call_count == 0
    assert out == reference_commutator(m, n, terms)


@given(square_pairs(), scalars(), scalars())
@settings(max_examples=60, deadline=None)
def test_cancelling_results_are_the_zero_matrix(pair, r, s):
    m, n = pair
    size = m.rows
    # m commutes with r*m + s*I; (n - n) and [m, m] vanish term by term.
    partner = m.scale(r) + Matrix.identity(size).scale(s)
    assert commutator(m, partner).is_zero()
    assert reference_commutator(m, partner).is_zero()
    assert commutator(m, m).is_zero()
    assert anticommutator(n, -n) == (n @ n).scale(-2)
    assert (m @ (n - n)).is_zero()


def test_hand_cancellation_across_radicands():
    # sqrt2*sqrt6 - 2*sqrt3 = 0: the product's radicand 12 splits as 2**2 * 3.
    root2 = RadicalScalar.from_terms([(2, 1, 0)])
    root3 = RadicalScalar.from_terms([(3, 1, 0)])
    row = Matrix.from_entries(1, 2, {(0, 0): root2, (0, 1): root3})
    col = Matrix.from_entries(
        2, 1, {(0, 0): RadicalScalar.from_terms([(6, 1, 0)]), (1, 0): RadicalScalar.from_rational(-2)}
    )
    assert (row @ col).is_zero()
    nilpotent = Matrix.from_entries(2, 2, {(0, 1): root3.times_i()})
    assert (nilpotent @ nilpotent).is_zero()
    assert anticommutator(nilpotent, nilpotent).is_zero()


def test_shape_mismatches_raise():
    with pytest.raises(ValueError):
        Matrix(2, 3) @ Matrix(2, 3)
    with pytest.raises(ValueError):
        commutator(Matrix(2, 3), Matrix(3, 2))
    with pytest.raises(ValueError):
        commutator(Matrix.identity(2), Matrix.identity(3))
    with pytest.raises(ValueError):
        anticommutator(Matrix(3, 2), Matrix(3, 2))
    with pytest.raises(ValueError):
        anticommutator(Matrix.identity(2), Matrix.identity(3))
    for z in (Matrix(2, 3), Matrix(3, 2), Matrix.identity(3)):
        with pytest.raises(ValueError):
            commutator(Matrix.identity(2), Matrix.identity(2), [(1, z)])


def test_from_entries_checks_indices_drops_zeros_and_coerces():
    for ij in ((2, 0), (0, 3), (-1, 0), (0, -1)):
        with pytest.raises(IndexError):
            Matrix.from_entries(2, 3, {(0, 0): ONE, ij: ONE})
    zeros = Matrix.from_entries(2, 3, {(0, 0): ZERO, (1, 2): 0, (0, 1): Fraction(0)})
    assert zeros.nnz() == 0 and zeros.is_zero() and zeros == Matrix(2, 3)
    mixed = Matrix.from_entries(2, 3, {(0, 0): 3, (1, 2): Fraction(-1, 2), (0, 1): 0})
    assert mixed.nnz() == 2
    assert mixed.get(0, 0) == RadicalScalar.from_rational(3)
    assert mixed.get(1, 2) == RadicalScalar.from_rational(Fraction(-1, 2))
    assert all(isinstance(v, RadicalScalar) for _, _, v in mixed.nonzero_items())
