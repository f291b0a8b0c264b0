"""Vector matrices V_mu for two-block representations (A,B) + (C,D).

A ``VectorSet`` stores the paper's four families of each off-diagonal
block: V+- = (V_x +- iV_y)/2 and F+- = (V_z +- V_t)/2.  The Cartesian
V_x, V_y, V_z, V_t are a view written out from them row by row, as
``FAMILY_INVERSE`` gives them: each cell is 1, -1, i or -i times one
family entry, so the view takes no basis change.

Two independent construction routes are provided and must agree exactly:

* ``closed_form_vectors`` gives each family entry as t times a factor of
  (A, C) and a factor of (B, D).  A factor is up when A = C + 1/2, with
  sqrt((A +/- a)/2A), and down when A = C - 1/2, with sqrt(C -/+ c); the
  paper's case 1 is (up, up), case 2 (up, down), case 3 (down, up) and
  case 4 (down, down).  The factors of each spin are tabled once per
  block.  sqrt(x1) sqrt(x2) = sqrt(x1 x2), so each distinct signed product
  of two table values is one square root, multiplied by t once, and every
  entry equal to it is that one object.

* ``recursion_solve`` + ``vectors_from_coefficients`` re-derives the same
  matrices by anchoring the two free parameters at the extreme index of
  each off-diagonal block and stepping the ladder recursions across the
  index lattice, then assembling F+ and F- from commutators with the
  ladder coefficients.  The coefficients r(X, m) are read from each
  spin's ladder table, built once per process (``generators``), and each
  step ratio is formed once in the loop it depends on.

Both routes, like the Clebsch-Gordan route in ``cg``, supply only the
entry formula ``coeff(dp, dq, p, q)`` of each family; ``pattern_vectors``
writes the entries of both off-diagonal blocks straight into the rows of
the four n x n families, skipping zeros.  Each route keeps one memo for a
route call, shared by both blocks, so a set it generates holds each
distinct value as one object, and the Cartesian view negates or turns
each once.  The closed-form and Clebsch-Gordan routes share one entry
formula over their own one-spin tables (``_product_coeff``), whose memo
is keyed on each signed product over its block's denominator, in lowest
terms, and on t's integers; the recursion's on the values themselves,
and on the operands of each F+- entry, so an entry whose operands recur
takes its value without the two products.
Each route states only its 12-block; ``_block_pair`` applies the
selection rule and gives the 21-block's formula by exchanging the roles
of the two irreps.
A momentum set keeps one block's rectangle of each family in place
(``momentum.momentum_from_vectors``).

Nonzero solutions exist only when A = C +/- 1/2 and B = D +/- 1/2; every
other spin choice admits exactly the zero solution and is reported as
``CaseTag.NO_SOLUTION`` rather than a zero matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from math import gcd
from typing import Callable

from .matrix import Matrix, change_basis
from .radical import ZERO, RadicalScalar, gaussian_table, sqrt_of_rational
from .spins import Spin, SpinPair
from .generators import _ladder_table


class CaseTag(enum.Enum):
    """Which admissible spin relation holds for (A,B) + (C,D)."""

    CASE_1 = "case1"  # A = C + 1/2, B = D + 1/2
    CASE_2 = "case2"  # A = C + 1/2, B = D - 1/2
    CASE_3 = "case3"  # A = C - 1/2, B = D + 1/2
    CASE_4 = "case4"  # A = C - 1/2, B = D - 1/2
    NO_SOLUTION = "nosolution"


SELECTION_RULE = "A = C +/- 1/2 and B = D +/- 1/2"


class NoSolutionError(ValueError):
    """Raised when the spins admit only zero vector matrices."""

    def __init__(self, A: Spin, B: Spin, C: Spin, D: Spin):
        self.spins = (A, B, C, D)
        super().__init__(
            f"({A},{B})+({C},{D}) admits no nonzero vector matrices; "
            f"the selection rule {SELECTION_RULE} is violated"
        )


@dataclass(frozen=True)
class FreeParams:
    """The two scalars scaling the 12- and 21-blocks of a solution."""

    t12: RadicalScalar
    t21: RadicalScalar


# The four families of one off-diagonal block, in FAMILIES order.
Block = tuple[Matrix, Matrix, Matrix, Matrix]

# A route's entry formula for one block: coeff(dp, dq, p, q), see pattern_vectors.
Coeff = Callable[[int, int, int, int], RadicalScalar]

# One-spin factors over one denominator, (den, n): factor k = sign(n[k]) sqrt(|n[k]| / den).
FactorTable = tuple[int, dict[tuple[int, int], int]]

# The delta patterns (2(p-r), 2(q-s)) of a block's four families: V+ and V-,
# then F+ = (V_z + V_t)/2 and F- = (V_z - V_t)/2.
FAMILIES = ((1, 1), (-1, -1), (1, -1), (-1, 1))

# The names of the Cartesian components V_mu, in the order of ``cartesian``.
COMPONENTS = ("x", "y", "z", "t")

# The families (V+, V-, F+, F-) of the components V = (V_x, V_y, V_z, V_t),
# with V+- = (V_x +- iV_y)/2 and F+- = (V_z +- V_t)/2.  Row k of FAMILY
# gives family k as a sum over V, and row mu of FAMILY_INVERSE gives V_mu
# back: V_x = V+ + V-, V_y = -i(V+ - V-), V_z = F+ + F-, V_t = F+ - F-.
# _UNITS states those signs once: V_mu = u+ P + u- M with (u+, u-) its
# row, (P, M) = (V+, V-) for V_x, V_y and (F+, F-) for V_z, V_t.
FAMILY = gaussian_table([[1, 1j, 0, 0], [1, -1j, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1]], 2)
_UNITS = ((1, 1), (-1j, 1j), (1, 1), (1, -1))
FAMILY_INVERSE = gaussian_table(
    [[*units, 0, 0] if k < 2 else [0, 0, *units] for k, units in enumerate(_UNITS)]
)


def _times_unit(value: RadicalScalar, unit: complex) -> RadicalScalar:
    """unit * value for a unit 1, -1, i or -i, by negation and ``times_i`` alone."""
    if unit == 1:
        return value
    if unit == -1:
        return -value
    value = value.times_i()
    return value if unit == 1j else -value


def cartesian_entry(block: Block, k: int, row: int, col: int) -> RadicalScalar:
    """Row k of FAMILY_INVERSE applied to a block's families at one cell: V_x ... V_t (k = 0 ... 3).

    u+ P + u- M is u+ (P +- M), since u- = +-u+: one sum and no table
    multiplications per cell.
    """
    plus_unit, minus_unit = _UNITS[k]
    plus, minus = (fam.get(row, col) for fam in (block[:2] if k < 2 else block[2:]))
    return _times_unit(plus + minus if minus_unit == plus_unit else plus - minus, plus_unit)


# Which off-diagonal blocks a set holds: both, or only the 12- or 21-block
# of a momentum set.  The same strings name them in a bundle and in ``gen --block``.
BLOCKS = ("both", "keep12", "keep21")


@dataclass(frozen=True)
class VectorSet:
    """Vector matrices as the families (V+, V-, F+, F-), with their construction metadata.

    The Cartesian V_x, V_y, V_z, V_t are a view written out from the
    families with no basis change; ``from_cartesian`` forms the families of
    given V_mu by ``change_basis``.
    ``block`` is one of BLOCKS: "both" for a full vector set, and "keep12"
    or "keep21" for a momentum set, so callers cannot confuse the two.
    """

    spins: tuple[SpinPair, SpinPair]
    params: FreeParams
    families: tuple[Matrix, Matrix, Matrix, Matrix]
    block: str = "both"

    def __post_init__(self):
        if (count := len(self.families)) != 4:
            raise ValueError(f"a vector set holds 4 families, not {count}")

    @classmethod
    def from_cartesian(
        cls, spins: tuple[SpinPair, SpinPair], params: FreeParams,
        V: tuple[Matrix, ...], block: str = "both",
    ) -> "VectorSet":
        """The set with these V_x, V_y, V_z, V_t, stored as its families."""
        return cls(spins, params, change_basis(FAMILY, V), block)

    @property
    def case(self) -> CaseTag:
        pair1, pair2 = self.spins
        return classify_case(pair1.left, pair1.right, pair2.left, pair2.right)

    @property
    def dimension(self) -> int:
        return self.families[0].rows

    @property
    def block1_dim(self) -> int:
        return self.spins[0].dimension

    @cached_property
    def cartesian(self) -> tuple[Matrix, Matrix, Matrix, Matrix]:
        """(V_x, V_y, V_z, V_t): FAMILY_INVERSE written out row by row on first use, and kept.

        V_mu = u+ P + u- M with each unit 1, -1, i or -i (``_UNITS``), so a
        cell that one family of the pair holds is its entry times that unit,
        with no basis change.  V_x and V_z hold the family objects
        themselves, and each distinct entry is negated or turned by i once,
        memoised by identity.  A cell that both families hold, which only a
        set formed from edited Cartesian matrices has, is their exact sum.
        """
        n = self.dimension
        scaled: dict[tuple[int, complex], RadicalScalar] = {}

        def times(value: RadicalScalar, unit: complex) -> RadicalScalar:
            if unit == 1:
                return value
            key = (id(value), unit)
            out = scaled.get(key)
            if out is None:
                out = scaled[key] = _times_unit(value, unit)
            return out

        components = []
        for k, (plus_unit, minus_unit) in enumerate(_UNITS):
            plus, minus = self.families[:2] if k < 2 else self.families[2:]
            rows = {
                i: {j: times(v, plus_unit) for j, v in row.items()}
                for i, row in plus._rows.items()
            }
            for i, row in minus._rows.items():
                out = rows.setdefault(i, {})
                for j, v in row.items():
                    v = times(v, minus_unit)
                    if j in out:
                        v = out.pop(j) + v
                    if v:
                        out[j] = v
                if not out:
                    del rows[i]
            components.append(Matrix._from_rows(n, n, rows))
        return tuple(components)

    def components(self) -> tuple[Matrix, Matrix, Matrix, Matrix]:
        return self.cartesian

    def component(self, mu: str) -> Matrix:
        return self.cartesian[COMPONENTS.index(mu)]


def block_bounds(spins: tuple[SpinPair, SpinPair], which: str) -> tuple[int, int, int, int]:
    """(r0, r1, c0, c1) of the "12" or "21" block, where pattern_vectors places it."""
    n1 = spins[0].dimension
    n = n1 + spins[1].dimension
    if which == "12":
        return (0, n1, n1, n)
    if which == "21":
        return (n1, n, 0, n1)
    raise ValueError("block must be '12' or '21'")


def pattern_vectors(
    spins: tuple[SpinPair, SpinPair], params: FreeParams, coeff12: Coeff, coeff21: Coeff
) -> VectorSet:
    """The set whose 12-block entries coeff12 gives and whose 21-block entries coeff21 gives.

    All indices are doubled.  coeff(dp, dq, p, q) is the entry of family
    (dp, dq) at row (p, q) and column (p - dp, q - dq) of its block; it is
    asked only where that column exists.  The 12-block, rows of spins[0]
    and columns of spins[1], sits at (0, n1), and the 21-block, the
    reverse, at (n1, 0).  Each block's column map is read off
    ``basis()`` once, so that list alone states where a column sits.  Every
    route builds its set here.  A family holds at most one entry per row,
    so each nonzero entry is written as its row, straight into the rows of
    the n x n families, and a zero entry (t = 0) writes no row.
    """
    pair1, pair2 = spins
    n1 = pair1.dimension
    n = n1 + pair2.dimension
    families = tuple({} for _ in FAMILIES)
    for rows, cols, r0, c0, coeff in ((pair1, pair2, 0, n1, coeff12), (pair2, pair1, n1, 0, coeff21)):
        col = {rs: j for j, rs in enumerate(cols.basis(), c0)}
        for i, (p, q) in enumerate(rows.basis(), r0):
            for family, (dp, dq) in zip(families, FAMILIES):
                j = col.get((p - dp, q - dq))
                if j is not None:
                    value = coeff(dp, dq, p, q)
                    if value:
                        family[i] = {j: value}
    return VectorSet(spins, params, tuple(Matrix._from_rows(n, n, family) for family in families))


def classify_case(A: Spin, B: Spin, C: Spin, D: Spin) -> CaseTag:
    """Match the spin quadruple against the selection rule."""
    da, db = A.twice - C.twice, B.twice - D.twice
    if abs(da) != 1 or abs(db) != 1:
        return CaseTag.NO_SOLUTION
    return {
        (1, 1): CaseTag.CASE_1,
        (1, -1): CaseTag.CASE_2,
        (-1, 1): CaseTag.CASE_3,
        (-1, -1): CaseTag.CASE_4,
    }[(da, db)]


def _block_pair(block: Callable, A: Spin, B: Spin, C: Spin, D: Spin, arg12, arg21) -> tuple:
    """The 12- and 21-block of (A,B)+(C,D) as one route states them.

    Raises NoSolutionError unless the selection rule holds.  ``block(P, Q,
    R, S, arg)`` states a route's block with rows (p,q) of (P,Q) and columns
    (r,s) of (R,S), as its entry formula or its coefficients; the 12-block
    is block(A, B, C, D, arg12) and the 21-block is block(C, D, A, B,
    arg21).  The swap is valid because J and K are block-diagonal: every
    rule [J_i, V_mu], [K_i, V_mu] acts on each off-diagonal block alone,
    through the generators of its row irrep on the left and of its column
    irrep on the right.  The 21-block, rows of
    (C,D) and columns of (A,B), therefore obeys exactly the equations of
    the 12-block of (C,D)+(A,B), and t21 takes the place of t12.  The rule
    A = C +/- 1/2, B = D +/- 1/2 is symmetric under the swap, which maps
    each case to its mirror (1 <-> 4, 2 <-> 3).
    """
    if classify_case(A, B, C, D) is CaseTag.NO_SOLUTION:
        raise NoSolutionError(A, B, C, D)
    return block(A, B, C, D, arg12), block(C, D, A, B, arg21)


# ---------------------------------------------------------------------------
# Closed-form route
# ---------------------------------------------------------------------------

def _one_spin(X: Spin, Y: Spin) -> FactorTable:
    """The factors f of row spin X, column spin Y, as (den, n): f = sign(n) sqrt(|n| / den).

    n maps (x, s) to the factor's signed numerator, for x over the doubled
    projections of X, s = +1 and -1, and y = x - s/2.  Up, X = Y + 1/2:
    f = s sqrt((X + s x)/(2X)).  Down, X = Y - 1/2: f = sqrt(Y - s y).
    Either way f = s <1/2 s/2, Y y|X x>, times sqrt(2Y + 1) when down.  n
    is never 0 where the column y exists.
    """
    pairs = [(x, s) for x in X.projections() for s in (1, -1)]
    if X.twice > Y.twice:
        return 2 * X.twice, {(x, s): s * X.twice + x for x, s in pairs}
    return 2, {(x, s): Y.twice - s * x + 1 for x, s in pairs}


def _closed_form_block(
    P: Spin, Q: Spin, R: Spin, S: Spin, t: RadicalScalar, memo: dict | None = None
) -> Coeff:
    """The closed-form entry formula of the block, rows (p,q) of (P,Q) and columns of (R,S).

    Family (dp, dq) has t * f(P, R, p, dp) * f(Q, S, q, dq), negated on V-.
    """
    return _product_coeff(_one_spin(P, R), _one_spin(Q, S), t, (-1, -1), memo)


def _product_coeff(
    left: FactorTable, right: FactorTable, scale: RadicalScalar, negated: tuple, memo: dict | None
) -> Coeff:
    """Family (dp, dq) at (p, q): scale * left[p, dp] * right[q, dq], negated on ``negated``.

    Since sqrt(x1) sqrt(x2) = sqrt(x1 x2), an entry is fixed by the signed
    product n of two table numerators over the block denominator: each
    distinct n / den, keyed in lowest terms, is one square root times
    ``scale``, and every entry equal to it is that one object.  ``memo``,
    shared by a route call's two blocks, is keyed on the scale's integer
    form, so at t12 = t21 an equal value of both blocks is one object too,
    also where their denominators differ (cases 1 and 4).
    """
    (den1, left), (den2, right) = left, right
    den = den1 * den2
    values = {} if memo is None else memo.setdefault(_integer_form(scale), {})

    def coeff(dp: int, dq: int, p: int, q: int) -> RadicalScalar:
        n = left[p, dp] * right[q, dq]
        if (dp, dq) == negated:
            n = -n
        g = gcd(n, den)
        key = n // g, den // g
        value = values.get(key)
        if value is None:
            root = sqrt_of_rational(Fraction(abs(n), den))
            value = values[key] = (root if n > 0 else -root) * scale
        return value

    return coeff


def _integer_form(value: RadicalScalar) -> tuple:
    """The value's denominator and sorted terms: equal values have equal forms."""
    return value._den, tuple(sorted(value._num.items()))


def closed_form_vectors(
    A: Spin, B: Spin, C: Spin, D: Spin, params: FreeParams
) -> VectorSet:
    """Assemble the four families from the one-spin factors of each block."""
    return pattern_vectors(
        (SpinPair(A, B), SpinPair(C, D)),
        params,
        *_block_pair(
            partial(_closed_form_block, memo={}), A, B, C, D, params.t12, params.t21
        ),
    )


# ---------------------------------------------------------------------------
# Recursion route (independent cross-check of the closed forms)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TUCoefficients:
    """Block coefficients keyed by doubled index pairs.

    ``t12``/``u12`` are keyed by (2a, 2b) and scale the 12-block patterns
    a-c = b-d = +1/2 and -1/2; ``t21``/``u21`` are keyed by (2c, 2d) for
    the mirrored 21-block patterns.
    """

    spins: tuple[SpinPair, SpinPair]
    params: FreeParams
    t12: dict[tuple[int, int], RadicalScalar]
    u12: dict[tuple[int, int], RadicalScalar]
    t21: dict[tuple[int, int], RadicalScalar]
    u21: dict[tuple[int, int], RadicalScalar]


def _solve_block(
    P: Spin, Q: Spin, R: Spin, S: Spin, anchor: RadicalScalar
) -> tuple[dict[tuple[int, int], RadicalScalar], dict[tuple[int, int], RadicalScalar]]:
    """Ladder-recursion coefficients for one block, rows (p,q) of (P,Q), cols of (R,S).

    tau[(2p, 2q)] sits on the pattern p-r = q-s = +1/2 and is anchored at
    the top of its index ranges with the block's free parameter.  Each step
    divides by an in-range ladder coefficient, which is never zero there.
    ups, on p-r = q-s = -1/2, is tau reflected through the origin: since
    s(j, m) = r(j, -m), the map (p, q) -> (-p, -q) carries ups's ranges,
    steps and bottom anchor onto tau's, and the anchor's sign is - when P-R
    and Q-S agree in sign and + otherwise.
    """
    plo, phi = max(-P.twice, -R.twice + 1), min(P.twice, R.twice + 1)
    qlo, qhi = max(-Q.twice, -S.twice + 1), min(Q.twice, S.twice + 1)
    rP, rQ, rR, rS = (_ladder_table(X.twice) for X in (P, Q, R, S))

    tau: dict[tuple[int, int], RadicalScalar] = {(phi, qhi): anchor}
    for p in range(phi, plo, -2):
        step = rR.get(p - 3, ZERO) / rP.get(p - 2, ZERO)
        tau[(p - 2, qhi)] = tau[(p, qhi)] * step
    # The q-step ratio does not depend on p: it is formed once per q.
    q_steps = [(q, rS.get(q - 3, ZERO) / rQ.get(q - 2, ZERO)) for q in range(qhi, qlo, -2)]
    for p in range(plo, phi + 1, 2):
        for q, step in q_steps:
            tau[(p, q - 2)] = tau[(p, q)] * step

    if (P.twice - R.twice) == (Q.twice - S.twice):
        return tau, {(-p, -q): -val for (p, q), val in tau.items()}
    return tau, {(-p, -q): val for (p, q), val in tau.items()}


def recursion_solve(
    A: Spin, B: Spin, C: Spin, D: Spin, params: FreeParams
) -> TUCoefficients:
    """Populate every in-range t/u coefficient from the two anchors."""
    (t12, u12), (t21, u21) = _block_pair(_solve_block, A, B, C, D, params.t12, params.t21)
    return TUCoefficients((SpinPair(A, B), SpinPair(C, D)), params, t12, u12, t21, u21)


def _place_block(
    P: Spin, Q: Spin, R: Spin, S: Spin,
    coeffs: tuple[dict[tuple[int, int], RadicalScalar], dict[tuple[int, int], RadicalScalar]],
    memo: tuple[dict, dict],
) -> Coeff:
    """The entry formula of one block, rows (p,q) of (P,Q) and columns of (R,S), from (tau, ups).

    ``memo`` is shared by the blocks of one route call: ``shared`` maps the
    integer form of each value placed to the one object that has it, so
    equal entries are one object, and ``products`` maps the operands of an
    F+- entry, r1 u1 - r2 u2, to its value.  The r's are ladder-table
    objects and the u's shared ones, so their identities stand for their
    integer forms, and equal operands take their value without the two
    products.
    """
    shared, products = memo

    def one(value: RadicalScalar) -> RadicalScalar:
        return shared.setdefault(_integer_form(value), value)

    tau, ups = ({k: one(v) for k, v in part.items()} for part in coeffs)
    rP, rQ, rR, rS = (_ladder_table(X.twice) for X in (P, Q, R, S))

    def difference(r1: RadicalScalar, u1: RadicalScalar, r2: RadicalScalar, u2: RadicalScalar):
        key = (id(r1), id(u1), id(r2), id(u2))
        value = products.get(key)
        if value is None:
            value = products[key] = one(r1 * u1 - r2 * u2)
        return value

    def coeff(dp: int, dq: int, p: int, q: int) -> RadicalScalar:
        if dp == dq:
            return (tau if dp > 0 else ups)[(p, q)]
        u = ups.get((p, q), ZERO)
        if dp > 0:
            return difference(
                rP.get(p - 2, ZERO), ups.get((p - 2, q), ZERO), rR.get(p - 1, ZERO), u
            )
        return difference(rQ.get(q - 2, ZERO), ups.get((p, q - 2), ZERO), rS.get(q - 1, ZERO), u)

    return coeff


def vectors_from_coefficients(coeffs: TUCoefficients) -> VectorSet:
    """Place t/u coefficients on their delta patterns and derive F+, F-.

    F+ and F- come from commutators of the ladder matrices with V-: on the
    pattern a-c = -(b-d) = +1/2, F+ is r^A_(a-1) u12_(a-1,b) - r^C_c u12_(a,b),
    and F- on the mirrored pattern likewise.
    """
    pair1, pair2 = coeffs.spins
    return pattern_vectors(
        coeffs.spins,
        coeffs.params,
        *_block_pair(
            partial(_place_block, memo=({}, {})),
            pair1.left, pair1.right, pair2.left, pair2.right,
            (coeffs.t12, coeffs.u12), (coeffs.t21, coeffs.u21),
        ),
    )
