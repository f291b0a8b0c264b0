"""The matrix kernel against the entry-by-entry RadicalScalar oracles."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    entrywise,
    free_params,
    reference_anticommutator,
    reference_change_basis,
    reference_commutator,
    reference_matmul,
    spin,
)
from poincarerep import matrix
from poincarerep.generators import SPIN_BASIS, SPIN_BASIS_INVERSE, direct_sum
from poincarerep.matrix import (
    Matrix,
    anticommutator,
    change_basis,
    commutator,
    first_nonzero_of_sum,
    linear_combination,
)
from poincarerep.radical import ONE, ZERO, RadicalScalar
from poincarerep.spins import SpinPair
from poincarerep.vectors import FAMILY, FAMILY_INVERSE, closed_form_vectors

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


@st.composite
def intertwiner_cases(draw):
    """(x, a, y, c, b): x n x n, a and b n x m, y m x m, c an exact scalar."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return (
        draw(matrices(n, n)), draw(matrices(n, m)), draw(matrices(m, m)),
        draw(_factors), draw(matrices(n, m)),
    )


@given(intertwiner_cases())
@settings(max_examples=60, deadline=None)
def test_a_rectangular_residual_matches_reference(case):
    x, a, y, c, b = case
    out = matrix.residual([(1, x, a), (-1, a, y)], [(c, b)])
    expected = entrywise(
        lambda xa, ay, bv: xa - ay - c * bv, reference_matmul(x, a), reference_matmul(a, y), b
    )
    assert out == expected and (out.rows, out.cols) == (a.rows, a.cols)
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


# -- basis changes --------------------------------------------------------------

BASIS_TABLES = (SPIN_BASIS, SPIN_BASIS_INVERSE, FAMILY, FAMILY_INVERSE)

# Odd 60-bit denominator factors, one drawn for each value of a pool.
_denominators_60 = st.integers(2**59, 2**60 - 1).map(lambda q: q | 1)


@st.composite
def basis_tables(draw):
    """One of the package's tables, or a drawn one of single-term coefficients and zeros."""
    if draw(st.booleans()):
        return draw(st.sampled_from(BASIS_TABLES))
    width = draw(st.integers(1, 4))
    coefficient = st.builds(lambda d, re, im: RadicalScalar.from_terms([(d, re, im)]),
                            _radicand, _coefficient, _coefficient).filter(bool)
    row = st.lists(st.just(ZERO) | coefficient, min_size=width, max_size=width).filter(any)
    return tuple(tuple(r) for r in draw(st.lists(row, min_size=1, max_size=4)))


@st.composite
def basis_changes(draw):
    """(table, mats): values shared across cells, equal values in distinct
    objects, multi-term values, 60-bit denominators and cells where a row
    of the table cancels."""
    table = draw(basis_tables())
    width = len(table[0])
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pool = draw(st.lists(scalars(), min_size=1, max_size=3))
    pool += [v / draw(_denominators_60) for v in pool]

    def value():
        v = draw(st.sampled_from(pool))
        how = draw(st.sampled_from(["shared", "copy", "reordered", "fresh"]))
        if how == "copy":
            return RadicalScalar(dict(v._num), v._den)
        if how == "reordered":
            return RadicalScalar(dict(reversed(list(v._num.items()))), v._den)
        return draw(scalars()) if how == "fresh" else v

    entries = [{} for _ in range(width)]
    for cell in draw(st.sets(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)))):
        for p in draw(st.sets(st.integers(0, width - 1), min_size=1)):
            entries[p][cell] = value()
        if draw(st.booleans()):
            # Fix one value so that row k of the table is zero at this cell.
            k = draw(st.integers(0, len(table) - 1))
            p = draw(st.sampled_from([p for p, c in enumerate(table[k]) if c]))
            rest = sum((c * entries[q].get(cell, ZERO)
                        for q, c in enumerate(table[k]) if q != p), ZERO)
            entries[p][cell] = -rest / table[k][p]
    return table, [Matrix.from_entries(rows, cols, e) for e in entries]


@given(basis_changes())
@settings(max_examples=150, deadline=None)
def test_change_basis_matches_reference(case):
    table, mats = case
    out = change_basis(table, mats)
    assert out == reference_change_basis(table, mats)
    assert all((m.rows, m.cols) == (mats[0].rows, mats[0].cols) and _canonical(m) for m in out)
    for k in range(len(table)):
        assert change_basis(table[k : k + 1], mats) == reference_change_basis(table[k : k + 1], mats)


def test_change_basis_runs_outside_the_kernel():
    pair1, pair2 = SpinPair(spin(2), spin(1)), SpinPair(spin(1), spin(2))
    gen = direct_sum(pair1, pair2)
    vec = closed_form_vectors(spin(2), spin(1), spin(1), spin(2), free_params(1, 1))
    with mock.patch.object(matrix, "_combine", wraps=matrix._combine) as combine, \
            mock.patch.object(matrix, "_pack", wraps=matrix._pack) as pack:
        cartesian = change_basis(SPIN_BASIS_INVERSE, gen.spin_basis)
        components = change_basis(FAMILY_INVERSE, vec.families)
    assert combine.call_count == 0 and pack.call_count == 0
    assert cartesian == reference_change_basis(SPIN_BASIS_INVERSE, gen.spin_basis)
    assert components == reference_change_basis(FAMILY_INVERSE, vec.families)
    assert change_basis(SPIN_BASIS, cartesian) == gen.spin_basis
    assert change_basis(FAMILY, components) == vec.families


def test_change_basis_refuses_a_row_of_another_length():
    # Each row is zipped with the matrices, so a row of another length
    # would be cut short without a word.
    mats = closed_form_vectors(spin(1), spin(1), spin(0), spin(0), free_params(1, 1)).families
    with pytest.raises(ValueError, match="table row 0 has 2 entries for 4 matrices"):
        change_basis(((1, 1), (1, -1)), mats)
    with pytest.raises(ValueError, match="table row 1 has 5 entries for 4 matrices"):
        change_basis(((1, 0, 0, 0), (1, 0, 0, 0, 1)), mats)


def test_a_linear_combination_of_no_terms_is_refused():
    # An empty sum has no shape; before, terms[0] raised IndexError.
    with pytest.raises(ValueError, match="at least one term"):
        linear_combination([])
    with pytest.raises(ValueError, match="at least one term"):
        first_nonzero_of_sum([])


@st.composite
def cancelling_sums(draw):
    """1-4 terms c * Z of one shape, often with the top rows of the first term cancelled."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    terms = draw(st.lists(st.tuples(_factors, matrices(rows, cols)), min_size=1, max_size=4))
    c, z = terms[0]
    cut = draw(st.integers(0, rows))
    if cut:
        terms.append((-c, z.window(0, cut, 0, cols)))
    return terms


@given(cancelling_sums())
@settings(max_examples=60, deadline=None)
def test_first_nonzero_of_sum_is_that_of_the_whole_sum(terms):
    # Summed row by row up to the first nonzero row, as a failing rule's
    # residual is, it finds the entry the whole combination's first_nonzero finds.
    assert first_nonzero_of_sum(terms) == linear_combination(terms).first_nonzero()


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
    for products, rhs in (
        ([], []),
        ([(1, Matrix(2, 3), Matrix(2, 3))], []),
        ([(1, Matrix(2, 3), Matrix(3, 2)), (1, Matrix(3, 2), Matrix(2, 3))], []),
        ([(1, Matrix(2, 3), Matrix(3, 2))], [(1, Matrix(2, 3))]),
    ):
        with pytest.raises(ValueError):
            matrix.residual(products, rhs)


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


@given(m=matrices(5, 4), bounds=st.tuples(*(st.integers(0, 5),) * 4))
@settings(max_examples=100, deadline=None)
def test_window_keeps_the_rectangle_in_place(m, bounds):
    r0, r1, c0, c1 = bounds
    got = m.window(r0, r1, c0, c1)
    assert (got.rows, got.cols) == (m.rows, m.cols)
    # Equal stored rows: the window keeps no emptied row.
    assert got == Matrix.from_entries(m.rows, m.cols, {
        (i, j): m.get(i, j) for i in range(r0, min(r1, m.rows)) for j in range(c0, min(c1, m.cols))
    })
