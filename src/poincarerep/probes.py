"""Numeric probes beyond the 45 rules: a Clifford test and a finite-transformation check.

``check_clifford`` tests V_mu V_nu + V_nu V_mu = k * eta_mu_nu * I exactly.
``finite_covariance_check`` exponentiates a generator in floating point
and measures how far D V_mu D^-1 is from Lambda_mu^nu V_nu; it and
``matrix_exp`` are the only numpy users, imported on call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .generators import GeneratorSet
from .matrix import Matrix, anticommutator
from .radical import ZERO, RadicalScalar
from .vectors import COMPONENTS, VectorSet
from .verify import AXES

if TYPE_CHECKING:
    import numpy as np


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
