"""Independent desk-check oracles shared by the test modules.

These deliberately avoid the library's own computation paths: the CG
oracle is the closed factorial sum in exact Fractions, the nullspace
oracle solves the 24 vector rules as one dense linear system in floats,
and the matrix oracles form every entry with RadicalScalar arithmetic,
one entry at a time.
"""

import math
from fractions import Fraction

import numpy as np

from poincarerep.matrix import Matrix
from poincarerep.radical import ZERO


def _fact(n) -> int:
    return math.factorial(int(n))


def racah_cg_signed_square(tj1, tm1, tj2, tm2, tJ, tM) -> tuple[int, Fraction]:
    """(sign, square) of <j1 m1 j2 m2|J M> by the closed factorial sum."""
    if tm1 + tm2 != tM or tJ > tj1 + tj2 or tJ < abs(tj1 - tj2) or (tj1 + tj2 + tJ) % 2:
        return 0, Fraction(0)
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tM) > tJ:
        return 0, Fraction(0)
    j1, m1 = Fraction(tj1, 2), Fraction(tm1, 2)
    j2, m2 = Fraction(tj2, 2), Fraction(tm2, 2)
    J, M = Fraction(tJ, 2), Fraction(tM, 2)
    kmin = int(max(0, j2 - J - m1, j1 - J + m2))
    kmax = int(min(j1 + j2 - J, j1 - m1, j2 + m2))
    if kmin > kmax:
        return 0, Fraction(0)
    total = Fraction(0)
    for k in range(kmin, kmax + 1):
        total += Fraction(
            (-1) ** k,
            _fact(k)
            * _fact(j1 + j2 - J - k)
            * _fact(j1 - m1 - k)
            * _fact(j2 + m2 - k)
            * _fact(J - j2 + m1 + k)
            * _fact(J - j1 - m2 + k),
        )
    if total == 0:
        return 0, Fraction(0)
    prefactor = (
        Fraction(
            (tJ + 1)
            * _fact(J + j1 - j2)
            * _fact(J - j1 + j2)
            * _fact(j1 + j2 - J),
            _fact(j1 + j2 + J + 1),
        )
        * _fact(J + M)
        * _fact(J - M)
        * _fact(j1 - m1)
        * _fact(j1 + m1)
        * _fact(j2 - m2)
        * _fact(j2 + m2)
    )
    sign = 1 if total > 0 else -1
    return sign, prefactor * total * total


_EPS = np.zeros((3, 3, 3))
_EPS[0, 1, 2] = _EPS[1, 2, 0] = _EPS[2, 0, 1] = 1.0
_EPS[1, 0, 2] = _EPS[0, 2, 1] = _EPS[2, 1, 0] = -1.0


def vector_rule_nullspace_dim(gen, tol: float = 1e-8) -> int:
    """Dimension of the joint solution space of the 24 vector rules.

    Stacks the rules as one linear system on the row-major vectorization of
    the four unknown matrices (Vx, Vy, Vz, Vt) and counts near-zero
    eigenvalues of its Gram matrix.
    """
    n = gen.dimension
    J = [m.to_numpy() for m in gen.J]
    K = [m.to_numpy() for m in gen.K]
    eye_n = np.eye(n, dtype=complex)
    m2 = n * n
    eye_v = np.eye(m2, dtype=complex)
    zero = np.zeros((m2, m2), dtype=complex)

    def ad(g: np.ndarray) -> np.ndarray:
        # row-major vec: vec(G V - V G) = (kron(G, I) - kron(I, G^T)) vec(V)
        return np.kron(g, eye_n) - np.kron(eye_n, g.T)

    ad_j = [ad(g) for g in J]
    ad_k = [ad(g) for g in K]

    gram = np.zeros((4 * m2, 4 * m2), dtype=complex)

    def add_rule(blocks):
        stacked = np.hstack(blocks)
        nonlocal gram
        gram += stacked.conj().T @ stacked

    for i in range(3):
        for j in range(3):
            blocks = [zero, zero, zero, zero]
            blocks[j] = ad_j[i]
            for k in range(3):
                if _EPS[i, j, k]:
                    blocks[k] = blocks[k] - 1j * _EPS[i, j, k] * eye_v
            add_rule(blocks)
        add_rule([zero, zero, zero, ad_j[i]])  # [J_i, V_t] = 0
    for i in range(3):
        for j in range(3):
            blocks = [zero, zero, zero, zero]
            blocks[j] = ad_k[i]
            if i == j:
                blocks[3] = 1j * eye_v  # [K_i, V_i] + i V_t = 0
            add_rule(blocks)
        blocks = [zero, zero, zero, ad_k[i]]
        blocks[i] = 1j * eye_v  # [K_i, V_t] + i V_i = 0
        add_rule(blocks)

    eigenvalues = np.linalg.eigvalsh(gram)
    top = max(float(eigenvalues[-1]), 1.0)
    return int(np.sum(eigenvalues < tol * top))


def reference_matmul(a: Matrix, b: Matrix) -> Matrix:
    """a @ b with one RadicalScalar product and sum per scalar term."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    entries = {}
    for i in range(a.rows):
        for j in range(b.cols):
            acc = ZERO
            for k in range(a.cols):
                acc = acc + a.get(i, k) * b.get(k, j)
            entries[i, j] = acc
    return Matrix.from_entries(a.rows, b.cols, entries)


def entrywise(fn, *mats: Matrix) -> Matrix:
    """The matrix whose (i, j) entry is fn of the operands' (i, j) entries."""
    rows, cols = mats[0].rows, mats[0].cols
    return Matrix.from_entries(rows, cols, {
        (i, j): fn(*(m.get(i, j) for m in mats)) for i in range(rows) for j in range(cols)
    })


def reference_commutator(m: Matrix, n: Matrix, rhs=()) -> Matrix:
    """[m, n] minus the sum of c * Z over (c, Z) in rhs, one entry at a time."""
    coeffs = [c for c, _ in rhs]

    def entry(mn, nm, *zs):
        acc = mn - nm
        for c, z in zip(coeffs, zs):
            acc = acc - c * z
        return acc

    return entrywise(entry, reference_matmul(m, n), reference_matmul(n, m), *(z for _, z in rhs))


def reference_anticommutator(m: Matrix, n: Matrix) -> Matrix:
    return entrywise(lambda mn, nm: mn + nm, reference_matmul(m, n), reference_matmul(n, m))
