"""Zero-tolerance checks of the 45 commutation rules, plus numeric probes.

Each rule is stated once as [X, Y] = rhs, with rhs a sum of exact scalar
multiples c * Z of the generators or vector components, and its residual
[X, Y] - rhs is formed in one ``commutator`` call inside the matrix kernel.

Rule identifiers: "JJ.xy" means [J_x, J_y] against its right-hand side,
"KV.zt" means [K_z, V_t], "PP.xt" means [P_x, P_t], and so on.  The axis
letters are x, y, z for generators and x, y, z, t for vector components.
A full representation produces exactly 45 reports: 15 homogeneous rules,
24 rules linear in the vector components, and 6 commuting-momentum rules.

``sweep`` runs every construction route and check over all quadruples
up to a spin bound.  Every pass/fail verdict rests on exact RadicalScalar
zero tests; only ``finite_covariance_check`` and ``matrix_exp`` work in
floating point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .bundle import SOURCES, scalar_to_json, vectors_from_source
from .cg import RatioFit, equivalence_ratio
from .generators import GeneratorSet, block_sum, irrep_generators
from .matrix import Matrix, anticommutator, commutator
from .momentum import BlockChoice, momentum_from_vectors
from .radical import I_UNIT, ONE, ZERO, RadicalScalar
from .spins import Spin, SpinPair
from .vectors import (
    CaseTag,
    FreeParams,
    NoSolutionError,
    VectorSet,
    classify_case,
    closed_form_vectors,
)

if TYPE_CHECKING:
    import numpy as np

AXES = ("x", "y", "z")
COMPONENTS = ("x", "y", "z", "t")

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


# A right-hand side is a list of (c, Z): an exact scalar c times Z.  The
# coefficients the rules use, +i and -i, are built once here.
_SIGNED_I = {1: I_UNIT, -1: -I_UNIT}


def _rule(rule_id: str, x: Matrix, y: Matrix, rhs=()) -> RuleReport:
    """[x, y] = sum of c * Z over (c, Z) in rhs, checked exactly."""
    nz = commutator(x, y, rhs).first_nonzero()
    return RuleReport(rule_id, nz is None, nz)


def _i_eps(i: str, j: str, mats: dict[str, Matrix], sign: int = 1) -> list:
    """The right-hand side sign * i * eps_ijk * M_k, summed over k."""
    return [(_SIGNED_I[sign * e], mats[k]) for k in AXES if (e := epsilon(i, j, k))]


def check_lorentz(gen: GeneratorSet) -> list[RuleReport]:
    """The 15 homogeneous rules among the J and K matrices."""
    J = dict(zip(AXES, gen.J))
    K = dict(zip(AXES, gen.K))
    pairs = [(i, j) for ai, i in enumerate(AXES) for j in AXES[ai + 1 :]]
    return (
        [_rule(f"JJ.{i}{j}", J[i], J[j], _i_eps(i, j, J)) for i, j in pairs]
        + [_rule(f"JK.{i}{j}", J[i], K[j], _i_eps(i, j, K)) for i in AXES for j in AXES]
        + [_rule(f"KK.{i}{j}", K[i], K[j], _i_eps(i, j, J, -1)) for i, j in pairs]
    )


def check_vector_rules(gen: GeneratorSet, vec: VectorSet) -> list[RuleReport]:
    """The 24 rules linear in the vector components."""
    if gen.dimension != vec.dimension:
        raise ValueError("generator and vector dimensions differ")
    J = dict(zip(AXES, gen.J))
    K = dict(zip(AXES, gen.K))
    V = {mu: vec.component(mu) for mu in COMPONENTS}
    reports = []
    for i in AXES:
        for j in AXES:
            reports.append(_rule(f"JV.{i}{j}", J[i], V[j], _i_eps(i, j, V)))
        reports.append(_rule(f"JV.{i}t", J[i], V["t"]))
    for i in AXES:
        for j in AXES:
            rhs = [(_SIGNED_I[-1], V["t"])] if i == j else []  # -i delta_ij V_t
            reports.append(_rule(f"KV.{i}{j}", K[i], V[j], rhs))
        reports.append(_rule(f"KV.{i}t", K[i], V["t"], [(_SIGNED_I[-1], V[i])]))
    return reports


def check_translations(mom: VectorSet) -> list[RuleReport]:
    """The 6 pairwise momentum commutators."""
    P = {mu: mom.component(mu) for mu in COMPONENTS}
    return [
        _rule(f"PP.{mu}{nu}", P[mu], P[nu])
        for ai, mu in enumerate(COMPONENTS)
        for nu in COMPONENTS[ai + 1 :]
    ]


def check_poincare(gen: GeneratorSet, mom: VectorSet) -> list[RuleReport]:
    """All 45 rules for a candidate full Poincare set (J, K, P)."""
    return check_lorentz(gen) + check_vector_rules(gen, mom) + check_translations(mom)


def _both_blocks(first: list[RuleReport], second: list[RuleReport]) -> list[RuleReport]:
    """Verdicts on a set whose residuals are those of two blocks in disjoint positions."""
    return [RuleReport(a.rule_id, a.holds and b.holds) for a, b in zip(first, second)]


def sweep(bound: int) -> dict:
    """Check every quadruple with doubled spins <= bound, exactly.

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
    """
    one = FreeParams(ONE, ONE)
    total = admissible = checks = 0
    failures: list[str] = []
    irreps: dict[SpinPair, tuple[GeneratorSet, list[RuleReport]]] = {}
    # Verdicts of a checked quadruple, keyed by its partner, which pops them.
    pending: dict[tuple[int, ...], tuple] = {}

    def run(tag: str, reports) -> None:
        nonlocal checks
        for rep in reports:
            checks += 1
            if not rep.holds:
                failures.append(f"{tag}:{rep.rule_id}")

    def irrep(pair: SpinPair) -> tuple[GeneratorSet, list[RuleReport]]:
        if pair not in irreps:
            gen = irrep_generators(pair)
            irreps[pair] = (gen, check_lorentz(gen))
        return irreps[pair]

    def verdicts(spins: tuple[Spin, ...], gen: GeneratorSet) -> tuple:
        """(recursion mismatch, CG mismatch, {source: (split, keep12, keep21)}).

        Each keep is the pair (vector-rule reports, translation reports).
        """
        vecs = {source: vectors_from_source(source, spins, one) for source in SOURCES}
        closed = vecs["closed-form"]
        recursion = any(
            vecs["recursion"].component(mu) != closed.component(mu) for mu in COMPONENTS
        )
        cg = not isinstance(equivalence_ratio(closed, vecs["clebsch-gordan"]), RatioFit)
        by_source = {}
        for source in ("closed-form", "clebsch-gordan"):
            vec = vecs[source]
            moms = [momentum_from_vectors(vec, choice) for choice in BlockChoice]
            halves = zip(*(mom.components() for mom in moms), vec.components())
            split = any(p12 + p21 != v for p12, p21, v in halves)
            keep12, keep21 = (
                (check_vector_rules(gen, mom), check_translations(mom)) for mom in moms
            )
            by_source[source] = (split, keep12, keep21)
        return recursion, cg, by_source

    for quad in itertools.product(range(bound + 1), repeat=4):
        total += 1
        A, B, C, D = (Spin(t) for t in quad)
        label = ",".join(str(t) for t in quad)
        if classify_case(A, B, C, D) is CaseTag.NO_SOLUTION:
            try:
                closed_form_vectors(A, B, C, D, one)
                failures.append(f"{label}:expected-no-solution")
            except NoSolutionError:
                pass
            continue
        admissible += 1
        (gen1, rules1), (gen2, rules2) = irrep(SpinPair(A, B)), irrep(SpinPair(C, D))
        run(label + ":lorentz", _both_blocks(rules1, rules2))
        if quad in pending:
            recursion, cg, swapped = pending.pop(quad)
            by_source = {s: (split, k12, k21) for s, (split, k21, k12) in swapped.items()}
        else:
            recursion, cg, by_source = verdicts((A, B, C, D), block_sum(gen1, gen2))
            pending[quad[2:] + quad[:2]] = (recursion, cg, by_source)
        if recursion:
            failures.append(f"{label}:recursion-mismatch")
        if cg:
            failures.append(f"{label}:cg-not-proportional")
        for source, (split, *kept) in by_source.items():
            if split:
                failures.append(f"{label}:{source}:block-split")
            run(f"{label}:{source}:V", _both_blocks(*(rules for rules, _ in kept)))
            for choice, (rules, translations) in zip(BlockChoice, kept):
                run(f"{label}:{source}:{choice.value}", rules)
                run(f"{label}:{source}:{choice.value}", translations)
    return {
        "sweepBound": bound,
        "quadruples": total,
        "admissible": admissible,
        "rulesChecked": checks,
        "failures": failures,
        "allHold": not failures,
    }


# ---------------------------------------------------------------------------
# Clifford spot check
# ---------------------------------------------------------------------------

# Metric diag(1, 1, 1, -1); check_clifford accepts either overall sign of k,
# so the opposite convention diag(-1, -1, -1, 1) is covered as k < 0.
_METRIC = {"x": 1, "y": 1, "z": 1, "t": -1}


@dataclass(frozen=True)
class CliffordReport:
    holds: bool
    k: RadicalScalar
    degenerate_zero: bool
    first_violation: tuple[str, str, int, int, RadicalScalar] | None = None


def check_clifford(vec: VectorSet) -> CliffordReport:
    """Test V_mu V_nu + V_nu V_mu = k * eta_mu_nu * I for a single scalar k."""
    n = vec.dimension
    V = {mu: vec.component(mu) for mu in COMPONENTS}
    anti: dict[tuple[str, str], Matrix] = {}
    for ai, mu in enumerate(COMPONENTS):
        for nu in COMPONENTS[ai:]:
            anti[(mu, nu)] = anticommutator(V[mu], V[nu])

    if all(mat.is_zero() for mat in anti.values()):
        return CliffordReport(holds=True, k=ZERO, degenerate_zero=True)
    k = ZERO
    for mu in COMPONENTS:
        diag = anti[(mu, mu)]
        if not diag.is_zero():
            k = diag.get(0, 0) * Fraction(_METRIC[mu])
            break

    identity = Matrix.identity(n)
    for (mu, nu), mat in anti.items():
        expected = (
            identity.scale(k * Fraction(_METRIC[mu])) if mu == nu else Matrix.zeros(n)
        )
        residual = mat - expected
        nz = residual.first_nonzero()
        if nz is not None:
            row, col, value = nz
            return CliffordReport(
                holds=False, k=k, degenerate_zero=False,
                first_violation=(mu, nu, row, col, value),
            )
    return CliffordReport(holds=True, k=k, degenerate_zero=False)


# ---------------------------------------------------------------------------
# Floating-point finite-transformation check
# ---------------------------------------------------------------------------


class SeriesDivergenceError(ArithmeticError):
    """The scaled exponential series failed to converge."""


def matrix_exp(m: np.ndarray, tol: float = 1e-16, max_terms: int = 80) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring of the Taylor series."""
    import numpy as np

    norm = float(np.max(np.sum(np.abs(m), axis=1))) if m.size else 0.0
    squarings = max(0, int(math.ceil(math.log2(norm)))) + 1 if norm > 1.0 else 0
    scaled = m / (2.0**squarings)
    n = m.shape[0]
    acc = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for order in range(1, max_terms + 1):
        term = term @ scaled / order
        acc += term
        if float(np.max(np.abs(term))) < tol:
            break
    else:
        raise SeriesDivergenceError(f"no convergence after {max_terms} terms")
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def _lambda_matrix(kind: str, axis: str, angle: float) -> np.ndarray:
    """The 4x4 transformation of the components (x, y, z, t)."""
    import numpy as np

    lam = np.eye(4)
    if kind == "rotation":
        k = AXES.index(axis)
        i, j = (k + 1) % 3, (k + 2) % 3
        c, s = math.cos(angle), math.sin(angle)
        lam[i, i] = c
        lam[i, j] = -s
        lam[j, i] = s
        lam[j, j] = c
    elif kind == "boost":
        k = AXES.index(axis)
        ch, sh = math.cosh(angle), math.sinh(angle)
        lam[k, k] = ch
        lam[k, 3] = sh
        lam[3, k] = sh
        lam[3, 3] = ch
    else:
        raise ValueError("kind must be 'rotation' or 'boost'")
    return lam


def finite_covariance_check(
    gen: GeneratorSet, vec: VectorSet, kind: str, axis: str, angle: float
) -> float:
    """Max-entry residual of D V_mu D^-1 = Lambda_mu^nu V_nu, in floats.

    D = exp(i * angle * G) with G the requested rotation or boost generator.
    Meaningful for |angle| <= pi (rotations) or |rapidity| <= 2 (boosts);
    convergence failures of the series raise SeriesDivergenceError.
    """
    import numpy as np

    source = gen.J if kind == "rotation" else gen.K
    g = source[AXES.index(axis)].to_numpy()
    d = matrix_exp(1j * angle * g)
    d_inv = matrix_exp(-1j * angle * g)
    lam = _lambda_matrix(kind, axis, angle)
    v = [vec.component(mu).to_numpy() for mu in COMPONENTS]
    worst = 0.0
    for mu in range(4):
        transformed = d @ v[mu] @ d_inv
        target = sum(lam[mu, nu] * v[nu] for nu in range(4))
        worst = max(worst, float(np.max(np.abs(transformed - target))))
    return worst
