"""Exact Clebsch-Gordan coefficients and the coupling-based vector route.

Coefficients are computed in the Condon-Shortley convention by seeding the
stretched state |J,J> (its leading coefficient real and positive), fixing
the M = J row from the requirement that raising annihilates it, and then
walking M downward with the exact lowering recursion

    s(J, M) <m1 m2|J M-1>
        = s(j1, m1+1) <m1+1 m2|J M> + s(j2, m2+1) <m1 m2+1|J M>.

Every value is (rational) * sqrt(positive integer), so the whole table is
exact in RadicalScalar.  The closed Racah sum is deliberately not used
here; it serves as the independent oracle in the test suite.

The vector construction gives each of a block's four families (see
``vectors.FAMILIES``) one product of two CG factors.  For the 12-block
(rows (a,b), columns (c,d)), the family (dp, dq) on a-c = dp/2,
b-d = dq/2 has the entries

    lam12 * <1/2 dp/2, C c|A a> <1/2 -dq/2, B b|D d>,

negated on (dp, dq) = (-1, +1); the families are V+, V-, (V_z + V_t)/2
and (V_z - V_t)/2.  ``cg_block`` states only this entry formula,
``vectors._block_pair`` gives the 21-block's from the same formula, and
``vectors.pattern_vectors`` writes both into the n x n families.  The
formula rests on one-spin factor tables: the CG coefficients of each
spin are formed once per block and held as signed squares over one
denominator, each distinct signed product of two of them is one square
root scaled by lam once, and every entry equal to it is that one object
(``vectors._product_coeff``, which the closed form shares).
The signs are those of the 12-block of the spin (1/2,0)+(0,1/2) vector
matrices in this package's basis and metric convention; relative to the
usual contravariant tabulation this flips the sign of the t component.
Coupling selection rules enforce A = C +/- 1/2, B = D +/- 1/2, so
inadmissible spins yield identically zero blocks.

``equivalence_ratio`` compares two vector sets on their family blocks.
It fits each block's ratio at the candidate's first single-term Cartesian
entry, then compares the stored cells of the four families, reference =
ratio * candidate, with each distinct candidate value scaled once in one
kernel call per block.  Only when a cell differs does it form the residual
and read the Cartesian entry it reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Iterator

from .generators import ladder_coeff_r, ladder_coeff_s
from .matrix import Matrix, linear_combination
from .radical import ONE, ZERO, RadicalScalar, sqrt_of_rational
from .spins import Spin, SpinPair
from .vectors import (
    COMPONENTS, Block, Coeff, FactorTable, FreeParams, VectorSet, _block_pair, _product_coeff,
    block_bounds, cartesian_entry, pattern_vectors,
)


def _as_rational(value: RadicalScalar) -> Fraction:
    terms = value.terms
    if not terms:
        return Fraction(0)
    if set(terms) != {1} or terms[1][1]:
        raise ValueError(f"expected a rational value, got {value}")
    return terms[1][0]


# One table per (j1, j2, J) triple: a bound on memory in a long-lived process.
_CG_CACHE_SIZE = 256


@lru_cache(maxsize=_CG_CACHE_SIZE)
def _cg_table(tj1: int, tj2: int, tJ: int) -> dict[tuple[int, int, int], RadicalScalar]:
    """All coefficients <j1 m1, j2 m2|J M> for one (j1, j2, J) triple."""
    j1, j2, J = Spin(tj1), Spin(tj2), Spin(tJ)
    table: dict[tuple[int, int, int], RadicalScalar] = {}
    if tJ < abs(tj1 - tj2) or tJ > tj1 + tj2 or (tj1 + tj2 + tJ) % 2:
        return table

    # M = J row, unnormalized, from J+ |J,J> = 0.
    m1_hi = min(tj1, tJ + tj2)
    m1_lo = max(-tj1, tJ - tj2)
    row: dict[int, RadicalScalar] = {m1_hi: ONE}
    for tm1 in range(m1_hi, m1_lo, -2):
        # <m1-1, M-m1+1|J J> = -(r(j2, J-m1) / r(j1, m1-1)) <m1, M-m1|J J>
        step = ladder_coeff_r(j2, tJ - tm1) / ladder_coeff_r(j1, tm1 - 2)
        row[tm1 - 2] = -(row[tm1] * step)
    norm_sq = Fraction(0)
    for val in row.values():
        norm_sq += _as_rational(val * val)
    inv_norm = sqrt_of_rational(norm_sq).reciprocal_single()
    row = {tm1: val * inv_norm for tm1, val in row.items()}
    for tm1, val in row.items():
        table[(tm1, tJ - tm1, tJ)] = val

    # Walk M downward with the lowering recursion.
    for tM in range(tJ, -tJ + 1, -2):
        denom = ladder_coeff_s(J, tM)
        next_row: dict[int, RadicalScalar] = {}
        lo = max(-tj1, (tM - 2) - tj2)
        hi = min(tj1, (tM - 2) + tj2)
        for tm1 in range(lo, hi + 2, 2):
            tm2 = (tM - 2) - tm1
            acc = ZERO
            up1 = table.get((tm1 + 2, tm2, tM))
            if up1 is not None:
                acc = acc + ladder_coeff_s(j1, tm1 + 2) * up1
            up2 = table.get((tm1, tm2 + 2, tM))
            if up2 is not None:
                acc = acc + ladder_coeff_s(j2, tm2 + 2) * up2
            next_row[tm1] = acc / denom
        for tm1, val in next_row.items():
            if not val.is_zero():
                table[(tm1, (tM - 2) - tm1, tM - 2)] = val
    return table


def clebsch_gordan(j1: Spin, m1: int, j2: Spin, m2: int, J: Spin, M: int) -> RadicalScalar:
    """<j1 m1, j2 m2 | J M> at doubled m's, exactly; zero outside the selection rules."""
    if m1 + m2 != M:
        return ZERO
    if abs(m1) > j1.twice or abs(m2) > j2.twice or abs(M) > J.twice:
        return ZERO
    if (j1.twice - m1) % 2 or (j2.twice - m2) % 2 or (J.twice - M) % 2:
        return ZERO
    return _cg_table(j1.twice, j2.twice, J.twice).get((m1, m2, M), ZERO)


_HALF = Spin(1)


def _signed_squares(factors: dict[tuple[int, int], RadicalScalar]) -> FactorTable:
    """(den, n) with factors[k] = sign(n[k]) sqrt(|n[k]| / den), over one denominator.

    A CG coefficient is zero or one real term (re / den) sqrt(d), so its
    signed square re |re| d / den**2 states it exactly.
    """
    squares = {}
    for k, value in factors.items():
        if not value:
            squares[k] = Fraction(0)
            continue
        (d, (re, im)), *rest = value._num.items()
        if rest or im:
            raise ValueError(f"expected one real term, got {value}")
        squares[k] = Fraction(re * abs(re) * d, value._den ** 2)
    den = math.lcm(*(square.denominator for square in squares.values()))
    return den, {k: square.numerator * (den // square.denominator) for k, square in squares.items()}


def cg_block(
    P: Spin, Q: Spin, R: Spin, S: Spin, lam: RadicalScalar, memo: dict | None = None
) -> Coeff:
    """The coupling entry formula of the block, rows (p,q) of (P,Q) and columns (r,s) of (R,S).

    The family (dp, dq) entry is lam * <1/2 dp/2, R r|P p> <1/2 -dq/2, Q q|S s>,
    negated on (-1, +1).  The CG factors of each spin are tabled once per
    block as signed squares over one denominator (``vectors._product_coeff``).
    """
    left = _signed_squares({
        (p, dp): clebsch_gordan(_HALF, dp, R, p - dp, P, p)
        for p in P.projections() for dp in (1, -1)
    })
    right = _signed_squares({
        (q, dq): clebsch_gordan(_HALF, -dq, Q, q, S, q - dq)
        for q in Q.projections() for dq in (1, -1)
    })
    return _product_coeff(left, right, lam, (-1, 1), memo)


def cg_vector_matrices(
    A: Spin, B: Spin, C: Spin, D: Spin, params: FreeParams
) -> VectorSet:
    """Full vector matrices from the coupling route; t12 and t21 scale the blocks."""
    return pattern_vectors(
        (SpinPair(A, B), SpinPair(C, D)),
        params,
        *_block_pair(partial(cg_block, memo={}), A, B, C, D, params.t12, params.t21),
    )


# ---------------------------------------------------------------------------
# Per-block proportionality fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatioFit:
    """Scalars with ratio * candidate_block = reference_block, entrywise."""

    ratio12: RadicalScalar
    ratio21: RadicalScalar


@dataclass(frozen=True)
class RatioMismatch:
    """The first entry where no ratio fits: row and col are positions within the named block."""

    block: str
    component: str
    row: int
    col: int
    reference: RadicalScalar
    candidate: RadicalScalar


def _cartesian_items(block: Block, k: int) -> Iterator[tuple[int, int, RadicalScalar]]:
    """The nonzero entries of component k of a block, row-major, as ``nonzero_items`` gives them."""
    pair = block[:2] if k < 2 else block[2:]
    for row, col in sorted({(i, j) for fam in pair for i, j, _ in fam.nonzero_items()}):
        value = cartesian_entry(block, k, row, col)
        if value:
            yield row, col, value


def _fit(reference: Block, candidate: Block) -> RadicalScalar:
    """reference / candidate at the candidate's first single-term entry: V_x ... V_t, row-major."""
    if all(fam.is_zero() for fam in candidate):
        return ONE
    for k in range(4):
        for row, col, val in _cartesian_items(candidate, k):
            if len(val._num) == 1:
                return cartesian_entry(reference, k, row, col) / val
    raise ValueError("cannot fit a ratio: candidate block has no single-term entries")


def _proportional(reference: Block, candidate: Block, ratio: RadicalScalar, bounds) -> bool:
    """Whether reference = ratio * candidate at every stored cell of the block at ``bounds``.

    ``candidate`` holds only the block; ``reference`` is read in place.  Each
    distinct candidate value, by identity, is scaled by one kernel call for
    the whole block.  A cell that only one side holds, including one whose
    scaled value is zero, is a difference, so this is the zero test of the
    residual reference - ratio * candidate.
    """
    r0, r1, c0, c1 = bounds
    distinct = {id(v): v for fam in candidate for row in fam._rows.values() for v in row.values()}
    scaled = {}
    if distinct:
        line = Matrix._from_rows(1, len(distinct), {0: dict(enumerate(distinct.values()))})
        cells = line.scale(ratio)._rows.get(0, {})
        scaled = {key: cells.get(j) for j, key in enumerate(distinct)}
    for ref, cand in zip(reference, candidate):
        held = 0
        for i, row in cand._rows.items():
            ref_row = ref._rows.get(i, {})
            for j, v in row.items():
                value, got = scaled[id(v)], ref_row.get(j)
                if got is not value and got != value:
                    return False
                held += value is not None
        in_block = sum(
            1 for i, row in ref._rows.items() if r0 <= i < r1 for j in row if c0 <= j < c1
        )
        if in_block != held:
            return False
    return True


def equivalence_ratio(
    reference: VectorSet, candidate: VectorSet
) -> "RatioFit | RatioMismatch":
    """Fit one constant per off-diagonal block or report the first mismatch.

    The candidate's block is read as a momentum set reads it, as the window
    of every family at ``block_bounds``; the reference is read in place.
    The ratio is fitted by ``_fit``, and each stored cell of the block's
    families is compared: reference = ratio * candidate.  Only when a cell
    differs is the residual reference - ratio * candidate formed on the
    windows of both, and the mismatch is its first nonzero Cartesian entry,
    in the order V_x, V_y, V_z, V_t, at its row and column within the
    block.  An all-zero candidate block fits with ratio 1, so it matches
    only an all-zero reference block.
    """
    if reference.spins != candidate.spins:
        raise ValueError("vector sets live on different representations")
    ratios = {}
    for which in ("12", "21"):
        bounds = r0, _, c0, _ = block_bounds(reference.spins, which)
        cand = tuple(fam.window(*bounds) for fam in candidate.families)
        ratio = _fit(reference.families, cand)
        if not _proportional(reference.families, cand, ratio, bounds):
            ref = tuple(fam.window(*bounds) for fam in reference.families)
            residuals = tuple(
                linear_combination([(ONE, r), (-ratio, c)]) for r, c in zip(ref, cand)
            )
            for k, mu in enumerate(COMPONENTS):
                for row, col, _ in _cartesian_items(residuals, k):
                    ref_mu, cand_mu = (cartesian_entry(b, k, row, col) for b in (ref, cand))
                    return RatioMismatch(which, mu, row - r0, col - c0, ref_mu, cand_mu)
        ratios[which] = ratio
    return RatioFit(ratio12=ratios["12"], ratio21=ratios["21"])
