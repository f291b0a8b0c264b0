"""Zero-tolerance checks of the 45 commutation rules.

Each rule is stated once, on the Cartesian matrices, as [X, Y] = rhs with
rhs a sum of exact scalar multiples c * Z of the generators or vector
components.  They are checked in the paper's bases: the generators as
(A+, A-, Az, B+, B-, Bz), with A = (J + iK)/2, B = (J - iK)/2 and
X+- = X_x +- i X_y, and the vector components as the families
(V+, V-, F+, F-), with V+- = (V_x +- iV_y)/2 and F+- = (V_z +- V_t)/2,
where each matrix holds one ladder step or one family of V and so is
sparse.  Both basis changes are constant matrices with exact inverses, so
at import every rule family is restated by bilinearity: one ``commutator``
call per new-basis pair, 45 in all, each against a right-hand side of at
most one term, and each Cartesian residual as an exact combination of
those 45 residuals.  A rule holds when every residual in its combination
is zero; otherwise its residual, the same exact matrix as [X, Y] - rhs,
is formed through the kernel one row at a time in ascending order, up to
its first nonzero row, which holds the same first nonzero entry.  A
``GeneratorSet`` holds its spin basis and a ``VectorSet`` its families,
each placed directly or, for a loaded bundle, formed from its Cartesian
matrices when the bundle's ``generators`` or ``vectors`` is first read; a
bundle whose J and K are the standard ones of its spins holds the
standard set of ``direct_sum``.

A standard set (built from its spins alone, by ``irrep_generators`` or
``direct_sum``) places its spin basis only when a check reads it, so a
check that settles its verdicts from the spins places none.  Its 15
Lorentz verdicts are settled by the one-spin algebra: its spin basis is
M_a(A) x 1 and 1 x M_b(B) block by block, so the three ladder relations
of each distinct spin, checked exactly through the kernel on
(2A+1)-dimensional matrices, make all 15 residuals zero.  A set formed
from its matrices, or a failing one-spin check, takes the 15 commutators.

The 24 vector verdicts of every set on standard generators, in
``verify --in`` and in the sweep alike, are settled by the same algebra.
The paper gives each entry of V as a factor of the spins (A, C) times a
factor of (B, D), so each family of an off-diagonal block is, up to its
sign, f(dp) x g(dq), and [X x 1, f x g] = (X f - f X') x g.  One kernel
call per block that holds an entry proves that factorization on the
block's four families, re-indexed as one matrix of rank one; then the
block's 24 residuals are zero when twelve one-spin checks, rectangular
residuals M(X) f - f M(Y) - c f', are zero.  J and K are block-diagonal,
so the residuals of the 12- and 21-blocks sit in disjoint positions, and
a set holds when each of its blocks does.  The sweep keeps the one-spin
verdicts for one ``sweep`` call, keyed by the exact factor values, so
each distinct factor pair is checked once.  An entry on a diagonal
block, or a failed proof or one-spin check, takes ``_check``'s 24
commutators, which give every report and first violation as before.  The
6 translation verdicts always take their commutators.

Rule identifiers: "JJ.xy" means [J_x, J_y] against its right-hand side,
"KV.zt" means [K_z, V_t], "PP.xt" means [P_x, P_t], and so on.  The axis
letters are x, y, z for generators and x, y, z, t for vector components.
A full representation produces exactly 45 reports: 15 homogeneous rules,
24 rules linear in the vector components, and 6 commuting-momentum rules.

``sweep`` runs every construction route and check over all admissible
quadruples up to a spin bound; it counts an inadmissible one and builds
nothing for it (the tests hold every route's refusal).  Every pass/fail
verdict rests on exact RadicalScalar zero tests.  The Clifford test and the
floating-point finite-transformation check live in ``probes``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .bundle import SOURCES, scalar_to_json, vectors_from_source
from .cg import RatioFit, equivalence_ratio
from .generators import (
    SPIN_BASIS, SPIN_BASIS_INVERSE, GeneratorSet, direct_sum, irrep_generators, rotation_rep,
)
from .matrix import Matrix, commutator, first_nonzero_of_sum, residual
from .momentum import momentum_from_vectors
from .radical import I_UNIT, ONE, ZERO, RadicalScalar
from .spins import Spin, SpinPair
from .vectors import (
    BLOCKS,
    COMPONENTS,
    FAMILIES,
    FAMILY,
    FAMILY_INVERSE,
    CaseTag,
    FreeParams,
    VectorSet,
    classify_case,
)

AXES = ("x", "y", "z")

# Antisymmetric symbol with eps_xyz = +1; all sign flow goes through here.
_EPSILON: dict[tuple[str, str, str], int] = {}
for _i, _j, _k, _v in (
    ("x", "y", "z", 1),
    ("y", "z", "x", 1),
    ("z", "x", "y", 1),
    ("y", "x", "z", -1),
    ("x", "z", "y", -1),
    ("z", "y", "x", -1),
):
    _EPSILON[(_i, _j, _k)] = _v


def epsilon(i: str, j: str, k: str) -> int:
    return _EPSILON.get((i, j, k), 0)


@dataclass(frozen=True)
class RuleReport:
    rule_id: str
    holds: bool
    first_violation: tuple[int, int, RadicalScalar] | None = None

    def to_json(self) -> dict:
        out: dict = {"ruleId": self.rule_id, "holds": self.holds}
        if self.first_violation is not None:
            row, col, residual = self.first_violation
            out["firstViolation"] = {
                "row": row,
                "col": col,
                "residual": scalar_to_json(residual),
            }
        return out


# The coefficients the rules use, +i and -i, are built once here.
_SIGNED_I = {1: I_UNIT, -1: -I_UNIT}

# Each rule [X_p, Y_q] = sum of c * Z_r is stated once as (id, p, q, rhs),
# rhs a list of (c, r).  The indices p, q and r are positions in
# G = (Jx, Jy, Jz, Kx, Ky, Kz) or V = (Vx, Vy, Vz, Vt); Z is G in the
# Lorentz rules and V in the vector rules.
_J = {i: k for k, i in enumerate(AXES)}
_K = {i: 3 + k for k, i in enumerate(AXES)}
_V = {mu: k for k, mu in enumerate(COMPONENTS)}


def _i_eps(i: str, j: str, index: dict[str, int], sign: int = 1) -> list:
    """The right-hand side sign * i * eps_ijk * Z_index[k], summed over k."""
    return [(_SIGNED_I[sign * e], index[k]) for k in AXES if (e := epsilon(i, j, k))]


def _lorentz_rules() -> list:
    pairs = [(i, j) for ai, i in enumerate(AXES) for j in AXES[ai + 1 :]]
    return (
        [(f"JJ.{i}{j}", _J[i], _J[j], _i_eps(i, j, _J)) for i, j in pairs]
        + [(f"JK.{i}{j}", _J[i], _K[j], _i_eps(i, j, _K)) for i in AXES for j in AXES]
        + [(f"KK.{i}{j}", _K[i], _K[j], _i_eps(i, j, _J, -1)) for i, j in pairs]
    )


def _vector_rules() -> list:
    rules = []
    for i in AXES:
        for j in AXES:
            rules.append((f"JV.{i}{j}", _J[i], _V[j], _i_eps(i, j, _V)))
        rules.append((f"JV.{i}t", _J[i], _V["t"], []))
    for i in AXES:
        for j in AXES:
            rhs = [(_SIGNED_I[-1], _V["t"])] if i == j else []  # -i delta_ij V_t
            rules.append((f"KV.{i}{j}", _K[i], _V[j], rhs))
        rules.append((f"KV.{i}t", _K[i], _V["t"], [(_SIGNED_I[-1], _V[i])]))
    return rules


def _translation_rules() -> list:
    return [
        (f"PP.{mu}{nu}", _V[mu], _V[nu], [])
        for ai, mu in enumerate(COMPONENTS)
        for nu in COMPONENTS[ai + 1 :]
    ]


@dataclass(frozen=True)
class _Family:
    """A family of rules restated in one basis for each operand set.

    ``pairs`` holds (a, b, rhs) for each commutator [X'_a, Y'_b] = rhs of
    the new operands, rhs as (c, m) terms over Y'_m.  ``rules`` holds, in
    report order, (id, support) for each rule: its residual is the sum of
    c * S_k over (c, k) in support, S_k the residual of ``pairs[k]``.
    """

    pairs: tuple
    rules: tuple


def _family(rules: list, left: tuple, right: tuple) -> _Family:
    """Restate rules [X_p, Y_q] = sum of c * Y_r in new bases, exactly.

    left = (L, L_inv) takes X to X'_a = sum of L[a][p] * X_p, and right =
    (R, R_inv) takes Y to Y' alike.  By bilinearity [X'_a, Y'_b] has the
    right-hand side sum of L[a][p] * R[b][q] * rhs_pq, rewritten over Y'
    by R_inv, and the residual of rule (p, q) is the sum of
    L_inv[p][a] * R_inv[q][b] * S_ab.  When X and Y are one set, the rules
    are stated for p < q and [X_q, X_p] = -[X_p, X_q]; then only a < b is
    commuted, since S_ba = -S_ab and S_aa = 0.
    """
    antisymmetric = left is right
    (L, L_inv), (R, R_inv) = ((_sparse(m), _sparse(m_inv)) for m, m_inv in (left, right))
    rhs = {}
    for _, p, q, terms in rules:
        rhs[p, q] = terms
        if antisymmetric:
            rhs[q, p] = [(-c, r) for c, r in terms]
    pairs = [(a, b) for a in range(len(L)) for b in range(len(R)) if not antisymmetric or a < b]
    index = {pair: k for k, pair in enumerate(pairs)}
    restated = []
    for a, b in pairs:
        over_y = {}  # the right-hand side over Y_r, then over Y'_m
        for p, x in L[a]:
            for q, y in R[b]:
                for c, r in rhs.get((p, q), ()):
                    over_y[r] = over_y.get(r, ZERO) + x * y * c
        over_y_new = {}
        for r, c in over_y.items():
            for m, u in R_inv[r]:
                over_y_new[m] = over_y_new.get(m, ZERO) + c * u
        restated.append((a, b, [(c, m) for m, c in over_y_new.items() if c]))
    supports = []
    for rule_id, p, q, _ in rules:
        support = {}
        for a, x in L_inv[p]:
            for b, y in R_inv[q]:
                if (a, b) in index:
                    k, c = index[a, b], x * y
                elif a != b:
                    k, c = index[b, a], -(x * y)
                else:
                    continue
                support[k] = support.get(k, ZERO) + c
        supports.append((rule_id, [(c, k) for k, c in sorted(support.items()) if c]))
    return _Family(tuple(restated), tuple(supports))


def _sparse(table: tuple) -> list:
    """Each row of table as its (column, value) pairs with nonzero value."""
    return [[(k, c) for k, c in enumerate(row) if c] for row in table]


_SPIN = (SPIN_BASIS, SPIN_BASIS_INVERSE)
_FAMILY = (FAMILY, FAMILY_INVERSE)
_LORENTZ = _family(_lorentz_rules(), _SPIN, _SPIN)
_VECTOR = _family(_vector_rules(), _SPIN, _FAMILY)
_TRANSLATIONS = _family(_translation_rules(), _FAMILY, _FAMILY)


def _check(family: _Family, left: tuple[Matrix, ...], right: tuple[Matrix, ...]) -> list[RuleReport]:
    """One commutator per pair of the family's bases.

    A failing rule's residual is formed only up to its first nonzero row.
    """
    residuals = [
        commutator(left[a], right[b], [(c, right[m]) for c, m in rhs])
        for a, b, rhs in family.pairs
    ]
    reports = []
    for rule_id, support in family.rules:
        terms = [(c, residuals[k]) for c, k in support if not residuals[k].is_zero()]
        nz = first_nonzero_of_sum(terms) if terms else None
        reports.append(RuleReport(rule_id, nz is None, nz))
    return reports


def _one_spin_pairs(family: _Family) -> tuple:
    """The pairs of ``family`` among (A+, A-, Az), once its split is proved.

    The Kronecker identity needs the B pairs to be the A pairs moved by
    three places and every pair of an A and a B ladder to have no
    right-hand side; this is checked here, once, on the restated family.
    """
    one = [(a, b, rhs) for a, b, rhs in family.pairs if b < 3]
    moved = [(a + 3, b + 3, [(c, m + 3) for c, m in rhs]) for a, b, rhs in one]
    if [pair for pair in family.pairs if pair[0] >= 3] != moved or any(
        rhs for a, b, rhs in family.pairs if a < 3 <= b
    ):
        raise AssertionError("the Lorentz pairs do not split into one-spin rules")
    return tuple(one)


_ONE_SPIN = _one_spin_pairs(_LORENTZ)
_LORENTZ_HOLDS = tuple(RuleReport(rule_id, True) for rule_id, _ in _LORENTZ.rules)


def check_lorentz(gen: GeneratorSet) -> list[RuleReport]:
    """The 15 homogeneous rules among the J and K matrices.

    A standard set's verdicts come from the one-spin algebra, and its spin
    basis is not placed.  That basis is, block by block, A_a = M_a(A) x 1
    and B_b = 1 x M_b(B) for the ladders (M+, M-, Mz) = rotation_rep of
    each spin, so [A_a, B_b] = 0 and [A_a, A_b] - rhs = ([M_a, M_b] - rhs)
    x 1, and likewise for B.  So when [M+, M-] = 2Mz and [Mz, M+-] = +-M+-
    hold exactly for each distinct spin, as three kernel zero tests on
    (2A+1)-dimensional matrices, every one of the 15 residuals is zero.  A
    formed set, or any failure, takes the 15 commutators of ``_check``,
    which also give each violation.
    """
    if gen.standard and _one_spin_algebra_holds(gen.spins):
        return list(_LORENTZ_HOLDS)
    return _check(_LORENTZ, gen.spin_basis, gen.spin_basis)


def _one_spin_algebra_holds(spins: tuple[SpinPair, ...]) -> bool:
    """Whether the one-spin pairs of ``_LORENTZ`` hold for each distinct spin of ``spins``."""
    distinct = sorted({spin.twice for pair in spins for spin in (pair.left, pair.right)})
    for twice in distinct:
        ladders = rotation_rep(Spin(twice))
        for a, b, rhs in _ONE_SPIN:
            if not commutator(ladders[a], ladders[b], [(c, ladders[m]) for c, m in rhs]).is_zero():
                return False
    return True


# The relative signs of the families (V+, V-, F+, F-) in a block of the
# closed form, which negates V-.  With these signs taken out, the four
# families of a solution block form one rank-one matrix (see
# ``_block_settles``).
_SIGNS = (1, -1, 1, 1)
# The half, 0 or 1, that a delta +1 or -1 of ``FAMILIES`` picks.
_HALF = {1: 0, -1: 1}


def _one_spin_sides(family: _Family) -> tuple:
    """The one-spin checks that the pairs of ``family`` reduce to, once the split is proved.

    Where a block's families are signed products f(dp) x g(dq), f a
    one-spin matrix on the (A, C) index and g on the (B, D) index, an A
    ladder acts as X x 1, and [X x 1, f x g] = (X f - f X') x g.  So a pair
    whose generator is an A ladder reduces to a one-spin rule on the f
    factors when every family of its right-hand side has the dq of its own
    family, and so shares its g; a B pair likewise on the g factors when
    they share dp.  This is checked here, once, on the restated family.
    Returns, for the A ladders (side 0) and the B ladders (side 1), each
    check as (ladder within its spin, half, rhs): M_a(X) h - h M_a(Y) = sum
    of c * h' over (c, half') in rhs, h the side's factor that the half
    picks, with the families' signs folded into c.
    """
    sides = []
    for side in (0, 1):
        checks = []
        for a, b, rhs in family.pairs:
            if a // 3 != side:
                continue
            if any(FAMILIES[m][1 - side] != FAMILIES[b][1 - side] for _, m in rhs):
                raise AssertionError("the vector pairs do not split into one-spin rules")
            checks.append((a % 3, _HALF[FAMILIES[b][side]], tuple(
                (c if _SIGNS[m] == _SIGNS[b] else -c, _HALF[FAMILIES[m][side]]) for c, m in rhs
            )))
        # A check that two pairs reduce to is kept once; sorted, so that
        # sides with the same checks give equal tuples.
        sides.append(tuple(sorted(dict.fromkeys(checks), key=lambda check: check[:2])))
    return tuple(sides)


_VECTOR_SIDES = _one_spin_sides(_VECTOR)
# Sides that run the same checks share memo entries, as the two of _VECTOR do.
_SIDE_KEYS = tuple(_VECTOR_SIDES.index(checks) for checks in _VECTOR_SIDES)
_VECTOR_HOLDS = tuple(RuleReport(rule_id, True) for rule_id, _ in _VECTOR.rules)


def _sort_entries(vec: VectorSet) -> tuple | None:
    """A set's family entries sorted by off-diagonal block, in one scan.

    Returns (row spins, column spins, z) for each off-diagonal block that
    holds an entry, or None when an entry lies on a diagonal block.  z is
    the block's four families, each times its sign in ``_SIGNS``, re-indexed
    as one matrix: the entry of family (dp, dq) at row (p, q) and column
    (r, s) of the block, over the spins (P, Q) of its rows and (R, S) of its
    columns, sits at row (dp, p, r) and column (dq, q, s) of z.  Every
    family is n x n, as ``check_vector_rules`` has checked.
    """
    pair1, pair2 = vec.spins
    n1 = pair1.dimension
    n = n1 + pair2.dimension
    layouts = []  # per block: first row, column range, and the strides of z
    for rows, cols, r0, c0, c1 in ((pair1, pair2, 0, n1, n), (pair2, pair1, n1, 0, n1)):
        nq, nr, ns = rows.right.multiplicity, cols.left.multiplicity, cols.right.multiplicity
        layouts.append((r0, c0, c1, nq, nr, ns, rows.left.multiplicity * nr, nq * ns))
    zs: tuple[dict, dict] = ({}, {})
    for fam, sign, (dp, dq) in zip(vec.families, _SIGNS, FAMILIES):
        for i, row in fam._rows.items():
            b = i >= n1
            r0, c0, c1, nq, nr, ns, outer, inner = layouts[b]
            z = zs[b]
            p, q = divmod(i - r0, nq)
            top, left = _HALF[dp] * outer + p * nr, _HALF[dq] * inner + q * ns
            for j, v in row.items():
                if not c0 <= j < c1:
                    return None
                r, s = divmod(j - c0, ns)
                z.setdefault(top + r, {})[left + s] = v if sign > 0 else -v
    pairs = ((pair1, pair2), (pair2, pair1))
    return tuple((*spins, z) for spins, z in zip(pairs, zs) if z)


def check_vector_rules(
    gen: GeneratorSet, vec: VectorSet, memo: dict | None = None
) -> list[RuleReport]:
    """The 24 rules linear in the vector components.

    On the standard generators of the set's spins they all hold when no
    entry lies on a diagonal block and each block that holds an entry
    settles (``_block_settles``): J and K are block-diagonal, so each
    residual is those of the 12- and 21-blocks in disjoint positions; the
    spin basis is not placed.  Any other set, or a failed proof or one-spin
    check, takes the 24 commutators of ``_check``, which also give each
    violation.  ``memo``
    keeps one-spin verdicts across calls (the sweep passes one per call).
    ValueError unless every family is n x n, n the generators' dimension.
    """
    n = gen.dimension
    if any(fam.rows != n or fam.cols != n for fam in vec.families):
        raise ValueError("generator and vector dimensions differ")
    if gen.standard and gen.spins == vec.spins:
        blocks = _sort_entries(vec)
        memo = {} if memo is None else memo
        if blocks is not None and all(_block_settles(*held, memo) for held in blocks):
            return list(_VECTOR_HOLDS)
    return _check(_VECTOR, gen.spin_basis, vec.families)


def check_translations(mom: VectorSet) -> list[RuleReport]:
    """The 6 pairwise momentum commutators."""
    return _check(_TRANSLATIONS, mom.families, mom.families)


def check_poincare(gen: GeneratorSet, mom: VectorSet) -> list[RuleReport]:
    """All 45 rules for a candidate full Poincare set (J, K, P)."""
    return check_lorentz(gen) + check_vector_rules(gen, mom) + check_translations(mom)


def _block_settles(rows: SpinPair, cols: SpinPair, z: dict, memo: dict) -> bool:
    """Whether the 24 residuals of one block, z as ``_sort_entries`` gives it, are proved zero.

    The block has rows (p, q) over the spins (P, Q) and columns (r, s) over
    (R, S); the generators act on it as M(P) x 1 from the left and M(R) x 1
    from the right, and as 1 x M(Q) and 1 x M(S).  One kernel call proves
    z rank one, in integers: u w - pivot * z = 0, with u its pivot column
    and w its pivot row.  So family (dp, dq) is its sign times
    f(dp) x g(dq), f(dp) the dp half of u / pivot and g(dq) the dq half of
    w, and each pair's residual is, by ``_one_spin_sides``, a one-spin
    residual on the f (A ladders) or on the g (B ladders) times the other
    factor.  The 24 rules hold when those one-spin checks pass on the
    halves of u over (P, R) and of w over (Q, S): each check is linear and
    homogeneous in its side's two halves, so it holds on u / pivot exactly
    when it holds on u.  A single-term pivot other than 1 is divided out of
    both, so that equal factors at another scale meet the same memo entry;
    a multi-term one is not.  ``memo`` keeps each side's verdict keyed by
    the exact integer form of the two halves it checked and its spins.
    """
    P, Q, R, S = rows.left, rows.right, cols.left, cols.right
    outer, inner = P.multiplicity * R.multiplicity, Q.multiplicity * S.multiplicity
    i0 = min(z)
    j0 = min(z[i0])
    pivot = z[i0][j0]
    height, width = 2 * outer, 2 * inner
    column = {i: {0: row[j0]} for i, row in z.items() if j0 in row}
    if not residual(
        [(1, Matrix._from_rows(height, 1, column), Matrix._from_rows(1, width, {0: z[i0]}))],
        [(pivot, Matrix._from_rows(height, width, z))],
    ).is_zero():
        return False
    # u, then w from row ``height``: over the pivot by one kernel call when
    # it is a single term other than 1, else as they are.
    halves = {**column, **{height + j: {0: v} for j, v in z[i0].items()}}
    if pivot != ONE and len(pivot._num) == 1:
        halves = Matrix._from_rows(height + width, 1, halves).scale(pivot.reciprocal_single())._rows
    factors = (({}, {}), ({}, {}))  # each side's halves, by one-spin position
    for i, row in halves.items():
        if i < height:
            half, pos = divmod(i, outer)
            factors[0][half][pos] = row[0]
        else:
            half, pos = divmod(i - height, inner)
            factors[1][half][pos] = row[0]
    for side, (X, Y) in enumerate(((P, R), (Q, S))):
        key = (_SIDE_KEYS[side], X.twice, Y.twice) + tuple(
            tuple(sorted((pos, v._den, tuple(v._num.items())) for pos, v in half.items()))
            for half in factors[side]
        )
        holds = memo.get(key)
        if holds is None:
            holds = memo[key] = _one_spin_rules_hold(_VECTOR_SIDES[side], X, Y, factors[side])
        if not holds:
            return False
    return True


def _one_spin_rules_hold(checks: tuple, X: Spin, Y: Spin, halves: tuple) -> bool:
    """Whether M_a(X) h - h M_a(Y) - sum of c * h' is zero for each check of ``_one_spin_sides``.

    Each half holds one (2X+1) x (2Y+1) factor by row-major position; M is
    ``rotation_rep``.
    """
    ny = Y.multiplicity
    hs = []
    for half in halves:
        cells: dict[int, dict[int, RadicalScalar]] = {}
        for pos, v in half.items():
            x, y = divmod(pos, ny)
            cells.setdefault(x, {})[y] = v
        hs.append(Matrix._from_rows(X.multiplicity, ny, cells))
    lx, ly = rotation_rep(X), rotation_rep(Y)
    return all(
        residual([(1, lx[a], hs[h]), (-1, hs[h], ly[a])], [(c, hs[m]) for c, m in rhs]).is_zero()
        for a, h, rhs in checks
    )


def _both_blocks(first: list[RuleReport], second: list[RuleReport]) -> list[RuleReport]:
    """Verdicts on a set whose residuals are those of two blocks in disjoint positions."""
    return [RuleReport(a.rule_id, a.holds and b.holds) for a, b in zip(first, second)]


def sweep(bound: int) -> dict:
    """Check each quadruple with doubled spins <= bound exactly; an inadmissible one only counts.

    J and K are block-diagonal and V, P live in the off-diagonal blocks, so
    each residual of a direct sum is its blocks' residuals side by side.  So
    each distinct irrep is built and Lorentz-checked once, and the verdicts
    on V = keep12 + keep21 are the AND of those on the two momentum sets.

    Each unordered pair {(A,B), (C,D)} is built and checked once, at the
    first of its two quadruples.  The sweep runs at t12 = t21 = 1, and every
    route builds the 21-block of (A,B)+(C,D) as the role-swapped 12-block
    through ``vectors._block_pair``.  So (C,D)+(A,B) holds the same two
    blocks at the same parameter with keep12 and keep21 exchanged, and its
    verdicts are replayed from (A,B)+(C,D) under its own label.  (A,B) =
    (C,D) never meets the selection rule, which is symmetric under the swap,
    so every admissible quadruple has a distinct admissible partner.

    An exact identity settles the CG route's rules without a commutator.  When
    ``equivalence_ratio`` fits V_CG = V_CF / r on each block with both
    ratios nonzero, every residual of a CG momentum set is that of the
    closed-form set for the same block choice times 1/r (vector rules,
    linear in P) or 1/r**2 (translation rules, quadratic), so the
    closed-form verdicts are replayed under the CG label; otherwise CG is
    checked directly.

    Each checked momentum set's vector verdicts come from
    ``check_vector_rules``, given one memo of one-spin verdicts for the
    whole call.
    """
    one = FreeParams(ONE, ONE)
    admissible = checks = 0
    failures: list[str] = []
    irreps: dict[SpinPair, list[RuleReport]] = {}  # each irrep's Lorentz verdicts
    # Verdicts of a checked quadruple, keyed by its partner, which pops them.
    pending: dict[tuple[int, ...], tuple] = {}

    def run(tag: str, reports) -> None:
        nonlocal checks
        for rep in reports:
            checks += 1
            if not rep.holds:
                failures.append(f"{tag}:{rep.rule_id}")

    # One-spin verdicts, keyed by the factor values they checked.
    one_spin: dict[tuple, bool] = {}

    def irrep(pair: SpinPair) -> list[RuleReport]:
        if pair not in irreps:
            irreps[pair] = check_lorentz(irrep_generators(pair))
        return irreps[pair]

    def verdicts(spins: tuple[Spin, ...], gen: GeneratorSet) -> tuple:
        """(recursion mismatch, CG mismatch, {source: (split, keep12, keep21)}).

        Each keep is the pair (vector-rule reports, translation reports).
        """
        vecs = {source: vectors_from_source(source, spins, one) for source in SOURCES}
        closed = vecs["closed-form"]
        recursion = vecs["recursion"].families != closed.families
        fit = equivalence_ratio(closed, vecs["clebsch-gordan"])
        scaled = isinstance(fit, RatioFit) and bool(fit.ratio12) and bool(fit.ratio21)
        by_source = {}
        for source in ("closed-form", "clebsch-gordan"):
            vec = vecs[source]
            moms = [momentum_from_vectors(vec, block) for block in BLOCKS[1:]]
            # Each momentum set copies V's entries in one off-diagonal block,
            # and the two blocks are disjoint, so keep12 + keep21 = V exactly
            # when their entries number as many as V's: no sum is formed.
            halves = zip(*(mom.families for mom in moms), vec.families)
            split = any(p12.nnz() + p21.nnz() != v.nnz() for p12, p21, v in halves)
            if source == "clebsch-gordan" and scaled:
                kept = by_source["closed-form"][1:]
            else:
                kept = [
                    (check_vector_rules(gen, mom, one_spin), check_translations(mom))
                    for mom in moms
                ]
            by_source[source] = (split, *kept)
        return recursion, not isinstance(fit, RatioFit), by_source

    for quad in itertools.product(range(bound + 1), repeat=4):
        A, B, C, D = (Spin(t) for t in quad)
        if classify_case(A, B, C, D) is CaseTag.NO_SOLUTION:
            continue
        admissible += 1
        label = ",".join(str(t) for t in quad)
        pair1, pair2 = SpinPair(A, B), SpinPair(C, D)
        run(label + ":lorentz", _both_blocks(irrep(pair1), irrep(pair2)))
        if quad in pending:
            recursion, cg, swapped = pending.pop(quad)
            by_source = {s: (split, k12, k21) for s, (split, k21, k12) in swapped.items()}
        else:
            recursion, cg, by_source = verdicts((A, B, C, D), direct_sum(pair1, pair2))
            pending[quad[2:] + quad[:2]] = (recursion, cg, by_source)
        if recursion:
            failures.append(f"{label}:recursion-mismatch")
        if cg:
            failures.append(f"{label}:cg-not-proportional")
        for source, (split, *kept) in by_source.items():
            if split:
                failures.append(f"{label}:{source}:block-split")
            run(f"{label}:{source}:V", _both_blocks(*(rules for rules, _ in kept)))
            for block, (rules, translations) in zip(BLOCKS[1:], kept):
                run(f"{label}:{source}:{block}", rules)
                run(f"{label}:{source}:{block}", translations)
    return {
        "sweepBound": bound,
        "quadruples": (bound + 1) ** 4,
        "admissible": admissible,
        "rulesChecked": checks,
        "failures": failures,
        "allHold": not failures,
    }
