"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Exact checks use zero tolerance; the only floating-point criteria
are the exponential comparison (1e-12) and finite covariance (1e-10).
"""

import itertools
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from oracles import racah_cg_signed_square, spin, vector_rule_nullspace_dim

from poincarerep.bundle import SOURCES, vectors_from_source
from poincarerep.cg import RatioFit, cg_vector_matrices, equivalence_ratio
from poincarerep.cli import parse_scalar
from poincarerep.generators import direct_sum
from poincarerep.matrix import Matrix
from poincarerep.momentum import (
    momentum_from_vectors,
    noncommutativity_witness,
    translation_combination,
)
from poincarerep.probes import check_clifford, finite_covariance_check, matrix_exp
from poincarerep.radical import I_UNIT, ONE, RadicalScalar, ZERO, sqrt_of_rational
from poincarerep.spins import SpinPair
from poincarerep.vectors import (
    BLOCKS,
    CaseTag,
    FreeParams,
    NoSolutionError,
    classify_case,
    closed_form_vectors,
    recursion_solve,
    vectors_from_coefficients,
)
from poincarerep.verify import sweep as _verify_sweep

SWEEP_BOUND = 4
UNIT = FreeParams(ONE, ONE)
GOLDEN = Path(__file__).parent / "data" / "dirac_params.json"


def _quads(bound=SWEEP_BOUND):
    for t in itertools.product(range(bound + 1), repeat=4):
        yield tuple(spin(x) for x in t)


def _admissible(bound=SWEEP_BOUND):
    return [q for q in _quads(bound) if classify_case(*q) is not CaseTag.NO_SOLUTION]


def _violating(bound):
    return [q for q in _quads(bound) if classify_case(*q) is CaseTag.NO_SOLUTION]


def _passed(n, text):
    print(f"ACCEPTANCE {n} PASS - {text}")


def test_criterion_1_algebra_sweep():
    start = time.monotonic()
    admissible = _admissible()
    assert len(admissible) >= 16
    report = _verify_sweep(SWEEP_BOUND)
    elapsed = time.monotonic() - start
    assert report["admissible"] == len(admissible)
    assert report["allHold"], report["failures"][:10]
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s, over the 60s budget"
    _passed(
        1,
        f"45 rules exact for {report['admissible']} quadruples x 2 sources x 2 "
        f"block choices ({report['rulesChecked']} rule checks, {elapsed:.1f}s)",
    )


def test_criterion_2_oracle_equivalence():
    count = 0
    for q in _admissible():
        direct = closed_form_vectors(*q, UNIT)
        recursive = vectors_from_coefficients(recursion_solve(*q, UNIT))
        for mu in "xyzt":
            assert direct.component(mu) == recursive.component(mu), q
        count += 1
    _passed(2, f"recursion route reproduces closed forms entry-for-entry on {count} quadruples")


def test_criterion_3_no_solution_theorem():
    # Library-level refusal on every violating quadruple in the sweep, by
    # each route; the sweep asks no route for one (test_verify counts it).
    violating = _violating(SWEEP_BOUND)
    for q in violating:
        with pytest.raises(NoSolutionError):
            closed_form_vectors(*q, UNIT)
        for source in SOURCES:
            with pytest.raises(NoSolutionError):
                vectors_from_source(source, q, UNIT)
    # Independent brute force: the 24 rules admit only the zero solution.
    checked = 0
    small = _violating(2)
    distant = [
        (spin(3), spin(1), spin(0), spin(0)),  # |A-C| = 3/2 with half-step lattice
        (spin(3), spin(0), spin(0), spin(1)),
        (spin(0), spin(3), spin(1), spin(0)),
        (spin(4), spin(1), spin(1), spin(0)),  # |A-C| = 2
    ]
    for q in small + distant:
        assert classify_case(*q) is CaseTag.NO_SOLUTION
        gen = direct_sum(SpinPair(q[0], q[1]), SpinPair(q[2], q[3]))
        assert vector_rule_nullspace_dim(gen) == 0, q
        checked += 1
    # Sanity of the oracle itself: an admissible quadruple has exactly the
    # two-parameter family.
    gen = direct_sum(SpinPair(spin(1), spin(0)), SpinPair(spin(0), spin(1)))
    assert vector_rule_nullspace_dim(gen) == 2
    _passed(
        3,
        f"{len(violating)} violating quadruples refused; brute-force nullspace "
        f"zero on {checked} of them (and dimension 2 on an admissible control)",
    )


def test_criterion_4_dirac_clifford():
    golden = json.loads(GOLDEN.read_text())
    spins = [spin(t) for t in golden["spins"]]
    params = FreeParams(parse_scalar(golden["t12"]), parse_scalar(golden["t21"]))
    vec = closed_form_vectors(*spins, params)
    report = check_clifford(vec)
    assert report.holds and not report.degenerate_zero
    expected_k = parse_scalar(golden["expected_k"])
    assert report.k == expected_k
    assert report.k * report.k == RadicalScalar.from_rational(4)  # |k| = 2 exactly
    # The recorded parameters come from this search; re-run it.
    found = []
    units = {"1": ONE, "-1": -ONE, "i": I_UNIT, "-i": -I_UNIT}
    for n12, t12 in units.items():
        for n21, t21 in units.items():
            rep = check_clifford(
                closed_form_vectors(*spins, FreeParams(t12, t21))
            )
            if rep.holds and not rep.degenerate_zero and rep.k * rep.k == RadicalScalar.from_rational(4):
                found.append((n12, n21))
    assert (golden["t12"], golden["t21"]) in found
    _passed(4, f"Dirac spins satisfy the Clifford relation with k = {report.k}")


def test_criterion_5_cg_ratio():
    expected = {(1, 0): ONE, (2, 1): sqrt_of_rational(2)}
    for (ta, tb), want in expected.items():
        A, B, C, D = spin(ta), spin(tb), spin(ta - 1), spin(tb + 1)
        assert classify_case(A, B, C, D) is CaseTag.CASE_2
        fit = equivalence_ratio(
            closed_form_vectors(A, B, C, D, UNIT),
            cg_vector_matrices(A, B, C, D, FreeParams(ONE, ONE)),
        )
        assert isinstance(fit, RatioFit)
        assert fit.ratio12 == want, (ta, tb)
        # the fitted ratio is sqrt(2B+1) as a function of B
        assert fit.ratio12 == sqrt_of_rational(tb + 1)
    _passed(5, "fitted 12-block ratio equals sqrt(2B+1) for the case-2 spot spins")


def test_criterion_6_momentum_witness():
    A, B, C, D = spin(1), spin(1), spin(0), spin(0)
    vec = closed_form_vectors(A, B, C, D, UNIT)
    got = noncommutativity_witness(vec)
    pair = SpinPair(A, B)
    entries = {}
    inv_root = sqrt_of_rational(Fraction(A.twice * B.twice, 4)).reciprocal_single()
    for idx, (a, b) in enumerate(pair.basis()):
        weight = RadicalScalar.from_rational(Fraction(A.twice * b + a * B.twice, 4))
        entries[idx, idx] = -(weight * inv_root)
    assert got == Matrix.from_entries(pair.dimension, pair.dimension, entries)
    _passed(6, "[P+, P-] 11-block matches -(Ab+aB)/sqrt(AB) at every (a,b)")


def test_criterion_7_nilpotency():
    x = (1, 2, 3, 4)
    bundles = 0
    for q in _admissible():
        vec = closed_form_vectors(*q, UNIT)
        for choice in BLOCKS[1:]:
            mom = momentum_from_vectors(vec, choice)
            combo = translation_combination(mom, x)
            assert (combo @ combo).is_zero(), q
            xf = combo.to_numpy()
            residual = np.max(np.abs(matrix_exp(1j * xf) - (np.eye(mom.dimension) + 1j * xf)))
            assert residual < 1e-12, (q, choice, residual)
            bundles += 1
    _passed(7, f"(sum x_mu P_mu)^2 = 0 exactly and exp truncates, {bundles} momentum bundles")


def test_criterion_8_finite_covariance():
    reps = [(1, 1, 0, 0), (1, 0, 0, 1)]
    worst = 0.0
    for q in reps:
        A, B, C, D = (spin(t) for t in q)
        gen = direct_sum(SpinPair(A, B), SpinPair(C, D))
        vec = closed_form_vectors(A, B, C, D, UNIT)
        for theta in (math.pi / 4, math.pi / 2):
            worst = max(worst, finite_covariance_check(gen, vec, "rotation", "z", theta))
        worst = max(worst, finite_covariance_check(gen, vec, "boost", "z", 1.0))
    assert worst < 1e-10, worst
    _passed(8, f"D V D^-1 = Lambda V within {worst:.2e} for z-rotations and z-boost")


def test_criterion_9_cg_suite():
    from poincarerep.cg import clebsch_gordan

    # exact orthogonality for all j1, j2 <= 2
    for tj1, tj2 in itertools.product(range(5), repeat=2):
        couplings = list(range(abs(tj1 - tj2), tj1 + tj2 + 1, 2))
        for tJ, tJp in itertools.product(couplings, repeat=2):
            for tM in range(-min(tJ, tJp), min(tJ, tJp) + 1, 2):
                acc = ZERO
                for tm1 in range(-tj1, tj1 + 1, 2):
                    tm2 = tM - tm1
                    if abs(tm2) > tj2:
                        continue
                    acc = acc + clebsch_gordan(
                        spin(tj1), tm1, spin(tj2), tm2,
                        spin(tJ), tM,
                    ) * clebsch_gordan(
                        spin(tj1), tm1, spin(tj2), tm2,
                        spin(tJp), tM,
                    )
                assert acc == (ONE if tJ == tJp else ZERO)
    # spot values against the independent factorial-sum oracle
    spots = [
        ((1, 1, 1, -1, 2, 0), sqrt_of_rational(Fraction(1, 2))),
        ((1, 1, 1, 1, 2, 2), ONE),
        ((2, 0, 2, 0, 4, 0), sqrt_of_rational(Fraction(2, 3))),
        ((2, 2, 2, -2, 0, 0), sqrt_of_rational(Fraction(1, 3))),
    ]
    for args, want in spots:
        got = clebsch_gordan(
            spin(args[0]), args[1], spin(args[2]), args[3],
            spin(args[4]), args[5],
        )
        assert got == want
        sign, square = racah_cg_signed_square(*args)
        got_sq = got * got
        assert got_sq == RadicalScalar.from_rational(square) if sign else got.is_zero()
        if sign:
            ((d, (re, _)),) = got.terms.items()
            assert (1 if re > 0 else -1) == sign
    _passed(9, "CG orthogonality exact for j <= 2; spot values match the factorial oracle")
