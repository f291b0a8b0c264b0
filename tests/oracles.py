"""Independent desk-check oracles shared by the test modules.

These deliberately avoid the library's own computation paths: the CG
oracle is the closed factorial sum in exact Fractions, the nullspace
oracle solves the 24 vector rules as one dense linear system in floats,
the matrix oracles form every entry with RadicalScalar arithmetic, one
entry at a time, and ``ReferenceScalar`` keeps a Fraction pair per
radicand where RadicalScalar keeps integers over one denominator.  ``reference_sweep`` checks every admissible
quadruple of the sweep from scratch, with no verdict replayed from its
swapped partner or from the closed-form route, and each vector and
translation rule by its commutator, with no verdict settled by the
one-spin factorization.  ``reference_check_poincare``
checks each of the 45 rules by one commutator of the Cartesian matrices
J_x ... K_z and V_x ... V_t, where the library checks them in the spin and
family bases.
``reference_equivalence_ratio`` fits and compares the Cartesian blocks,
where the library compares family blocks.  ``reference_bundle_dict`` is the
dense dict a bundle's text encodes, for ``json.dumps`` to write, where
``MatrixBundle.dumps`` writes the text directly.  ``reference_normalize_radical``
trial-divides by every odd number up to 2**20, where the library tests
chunks of primes with one gcd each.  ``from_blocks`` places two blocks'
families into a vector set entry by entry, where the routes write their
entries straight into the full families; the tests edit blocks through it.
``block`` takes one block's families out in block-relative positions,
where the library reads a block as a window in place.
``spin``, ``free_params`` and ``conjugate`` are the tests' shorthands.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from poincarerep.bundle import (
    LAYOUT_NOTE,
    SCHEMA_VERSION,
    SOURCES,
    scalar_to_json,
    vectors_from_source,
)
from poincarerep.cg import RatioFit, RatioMismatch
from poincarerep.generators import direct_sum, irrep_generators
from poincarerep.matrix import Matrix, commutator, linear_combination
from poincarerep.momentum import momentum_from_vectors
from poincarerep.radical import I_UNIT, ONE, ZERO, RadicalScalar, _coerce, normalize_radical
from poincarerep.spins import Spin, SpinPair
from poincarerep.vectors import (
    BLOCKS,
    COMPONENTS,
    CaseTag,
    FreeParams,
    NoSolutionError,
    VectorSet,
    block_bounds,
    classify_case,
    closed_form_vectors,
)
from poincarerep.verify import (
    AXES,
    _TRANSLATIONS,
    _VECTOR,
    RuleReport,
    _both_blocks,
    _check,
    check_lorentz,
    epsilon,
)


class ReferenceScalar:
    """sum over squarefree d of (re + i*im) * sqrt(d), each coefficient a Fraction.

    The form is canonical when no (re, im) pair is all zero.  Constructors
    and operators mirror RadicalScalar's and return ReferenceScalars.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = terms or {}

    @classmethod
    def from_rational(cls, x) -> "ReferenceScalar":
        return cls.from_parts(x, 0)

    @classmethod
    def from_parts(cls, re, im) -> "ReferenceScalar":
        re, im = Fraction(re), Fraction(im)
        return cls({1: (re, im)} if re or im else {})

    @classmethod
    def from_terms(cls, items) -> "ReferenceScalar":
        acc = {}
        for d, re, im in items:
            out, core = normalize_radical(d)
            pre, pim = acc.get(core, (Fraction(0), Fraction(0)))
            acc[core] = (pre + Fraction(re) * out, pim + Fraction(im) * out)
        return cls({d: c for d, c in acc.items() if c[0] or c[1]})

    @classmethod
    def sqrt_of_rational(cls, x) -> "ReferenceScalar":
        x = Fraction(x)
        if x < 0:
            raise ValueError(f"cannot take a real square root of {x}")
        if x == 0:
            return cls()
        out, core = normalize_radical(x.numerator * x.denominator)
        return cls({core: (Fraction(out, x.denominator), Fraction(0))})

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def sorted_terms(self) -> list:
        return [(d, re, im) for d, (re, im) in sorted(self._terms.items())]

    def to_complex(self) -> complex:
        val = 0j
        for d, (re, im) in self._terms.items():
            root = math.sqrt(d)
            val += complex(float(re) * root, float(im) * root)
        return val

    def __add__(self, other) -> "ReferenceScalar":
        acc = dict(self._terms)
        for d, (re, im) in _reference(other)._terms.items():
            pre, pim = acc.get(d, (Fraction(0), Fraction(0)))
            acc[d] = (pre + re, pim + im)
        return ReferenceScalar({d: c for d, c in acc.items() if c[0] or c[1]})

    __radd__ = __add__

    def __neg__(self) -> "ReferenceScalar":
        return ReferenceScalar({d: (-re, -im) for d, (re, im) in self._terms.items()})

    def __sub__(self, other) -> "ReferenceScalar":
        return self + (-_reference(other))

    def __rsub__(self, other) -> "ReferenceScalar":
        return _reference(other) + (-self)

    def __mul__(self, other) -> "ReferenceScalar":
        acc = {}
        for d1, (re1, im1) in self._terms.items():
            for d2, (re2, im2) in _reference(other)._terms.items():
                out, core = normalize_radical(d1 * d2)
                pre, pim = acc.get(core, (Fraction(0), Fraction(0)))
                acc[core] = (
                    pre + (re1 * re2 - im1 * im2) * out,
                    pim + (re1 * im2 + im1 * re2) * out,
                )
        return ReferenceScalar({d: c for d, c in acc.items() if c[0] or c[1]})

    __rmul__ = __mul__

    def times_i(self) -> "ReferenceScalar":
        return ReferenceScalar({d: (-im, re) for d, (re, im) in self._terms.items()})

    def conjugate(self) -> "ReferenceScalar":
        return ReferenceScalar({d: (re, -im) for d, (re, im) in self._terms.items()})

    def reciprocal_single(self) -> "ReferenceScalar":
        if len(self._terms) != 1:
            raise ValueError("only single-term values can be inverted")
        ((d, (re, im)),) = self._terms.items()
        denom = (re * re + im * im) * d
        return ReferenceScalar({d: (re / denom, -im / denom)})

    def __truediv__(self, other) -> "ReferenceScalar":
        other = _reference(other)
        if not other._terms:
            raise ZeroDivisionError("division by exact zero")
        return self * other.reciprocal_single()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _reference(other)
        if not isinstance(other, ReferenceScalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for d, re, im in self.sorted_terms():
            for coeff, unit in ((re, ""), (im, "i")):
                if not coeff:
                    continue
                mag = f"{abs(coeff)}" if abs(coeff) != 1 or (d == 1 and not unit) else ""
                root = f"sqrt({d})" if d != 1 else ""
                body = "*".join(x for x in (mag, unit, root) if x) or "1"
                parts.append(("-" if coeff < 0 else "+") + body)
        out = "".join(parts)
        return out[1:] if out.startswith("+") else out


def _reference(x) -> ReferenceScalar:
    return x if isinstance(x, ReferenceScalar) else ReferenceScalar.from_rational(x)


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
    eigenvalues of its Gram matrix.  A rule is a row of blocks, one per
    unknown, and contributes B_a^H B_b to block (a, b) of the Gram matrix.
    Each rule has at most two nonzero blocks, an ad(G) and a multiple c * I
    of the identity, so only their products are added, and only ad(G)^H
    ad(G) takes a matrix product.
    """
    n = gen.dimension
    J = [m.to_numpy() for m in gen.J]
    K = [m.to_numpy() for m in gen.K]
    eye_n = np.eye(n, dtype=complex)
    m2 = n * n

    def ad(g: np.ndarray) -> np.ndarray:
        # row-major vec: vec(G V - V G) = (kron(G, I) - kron(I, G^T)) vec(V)
        return np.kron(g, eye_n) - np.kron(eye_n, g.T)

    ad_j = [ad(g) for g in J]
    ad_k = [ad(g) for g in K]

    gram = np.zeros((4 * m2, 4 * m2), dtype=complex)

    def block(a: int, b: int) -> np.ndarray:
        return gram[a * m2:(a + 1) * m2, b * m2:(b + 1) * m2]

    def add_rule(j: int, ad_g: np.ndarray, *multiple: tuple[int, complex]):
        """The rule ad_g on unknown j, plus c * I on unknown k if multiple is (k, c)."""
        block(j, j)[...] += ad_g.conj().T @ ad_g
        for k, c in multiple:
            block(j, k)[...] += c * ad_g.conj().T
            block(k, j)[...] += np.conj(c) * ad_g
            block(k, k)[np.diag_indices(m2)] += abs(c) ** 2

    for i in range(3):
        for j in range(3):
            # [J_i, V_j] - i eps_ijk V_k = 0
            add_rule(j, ad_j[i], *[(k, -1j * _EPS[i, j, k]) for k in range(3) if _EPS[i, j, k]])
        add_rule(3, ad_j[i])  # [J_i, V_t] = 0
    for i in range(3):
        for j in range(3):
            add_rule(j, ad_k[i], *([(3, 1j)] if i == j else []))  # [K_i, V_i] + i V_t = 0
        add_rule(3, ad_k[i], (i, 1j))  # [K_i, V_t] + i V_i = 0

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


def spin(twice: int) -> Spin:
    """Shorthand: spin from its doubled integer value."""
    return Spin(twice)


def free_params(t12, t21) -> FreeParams:
    """FreeParams of two scalars, each a RadicalScalar, int or Fraction."""
    return FreeParams(_coerce(t12), _coerce(t21))


def conjugate(v: RadicalScalar) -> RadicalScalar:
    """The complex conjugate of v: every imaginary numerator negated."""
    return RadicalScalar({d: (re, -im) for d, (re, im) in v._num.items()}, v._den)


def conjugate_transpose(m: Matrix) -> Matrix:
    """The adjoint of m: entry (j, i) is the conjugate of m's (i, j)."""
    return Matrix.from_entries(m.cols, m.rows, {(j, i): conjugate(v) for i, j, v in m.nonzero_items()})


def block(vec: VectorSet, which: str) -> tuple:
    """The families of vec's "12" or "21" block, in block-relative positions."""
    bounds = block_bounds(vec.spins, which)
    return tuple(fam.submatrix(*bounds) for fam in vec.families)


def from_blocks(spins, params, b12, b21, block="both") -> VectorSet:
    """The set with the families b12 at (0, n1) and b21 at (n1, 0); None is zero.

    b12 has the rows of spins[0] and the columns of spins[1], b21 the
    reverse, each as ``block(vec, which)`` returns it.  Every entry is
    placed on its own, and the set's ``VectorSet.block`` is block.
    """
    n1 = spins[0].dimension
    n = n1 + spins[1].dimension
    placed = [(fams, r0, c0) for fams, r0, c0 in ((b12, 0, n1), (b21, n1, 0)) if fams]
    families = tuple(
        Matrix.from_entries(n, n, {
            (r0 + i, c0 + j): v for fams, r0, c0 in placed for i, j, v in fams[k].nonzero_items()
        })
        for k in range(4)
    )
    return VectorSet(spins, params, families, block)


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



def reference_change_basis(table, mats) -> tuple[Matrix, ...]:
    """Row k of table applied to mats as one kernel ``linear_combination`` per row.

    Each row needs a nonzero coefficient.
    """
    return tuple(linear_combination([(c, m) for c, m in zip(row, mats) if c]) for row in table)


# -- the 45 rules on the Cartesian matrices -------------------------------------

_SIGNED_I = {1: I_UNIT, -1: -I_UNIT}


def _rule(rule_id: str, x: Matrix, y: Matrix, rhs=()) -> RuleReport:
    """[x, y] = sum of c * Z over (c, Z) in rhs, checked exactly."""
    nz = commutator(x, y, rhs).first_nonzero()
    return RuleReport(rule_id, nz is None, nz)


def _i_eps(i: str, j: str, mats: dict, sign: int = 1) -> list:
    """The right-hand side sign * i * eps_ijk * M_k, summed over k."""
    return [(_SIGNED_I[sign * e], mats[k]) for k in AXES if (e := epsilon(i, j, k))]


def reference_check_lorentz(gen) -> list[RuleReport]:
    J = dict(zip(AXES, gen.J))
    K = dict(zip(AXES, gen.K))
    pairs = [(i, j) for ai, i in enumerate(AXES) for j in AXES[ai + 1 :]]
    return (
        [_rule(f"JJ.{i}{j}", J[i], J[j], _i_eps(i, j, J)) for i, j in pairs]
        + [_rule(f"JK.{i}{j}", J[i], K[j], _i_eps(i, j, K)) for i in AXES for j in AXES]
        + [_rule(f"KK.{i}{j}", K[i], K[j], _i_eps(i, j, J, -1)) for i, j in pairs]
    )


def reference_check_vector_rules(gen, vec) -> list[RuleReport]:
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


def reference_check_translations(mom) -> list[RuleReport]:
    P = {mu: mom.component(mu) for mu in COMPONENTS}
    return [
        _rule(f"PP.{mu}{nu}", P[mu], P[nu])
        for ai, mu in enumerate(COMPONENTS)
        for nu in COMPONENTS[ai + 1 :]
    ]


def reference_check_poincare(gen, mom) -> list[RuleReport]:
    """The 45 rule reports of ``verify.check_poincare``, one Cartesian commutator each."""
    return (
        reference_check_lorentz(gen)
        + reference_check_vector_rules(gen, mom)
        + reference_check_translations(mom)
    )


def reference_sweep(bound: int) -> dict:
    """The ``verify.sweep`` report, building and checking every quadruple itself."""
    one = FreeParams(ONE, ONE)
    total = admissible = checks = 0
    failures: list[str] = []
    irreps = {}

    def run(tag: str, reports) -> None:
        nonlocal checks
        for rep in reports:
            checks += 1
            if not rep.holds:
                failures.append(f"{tag}:{rep.rule_id}")

    def irrep(pair: SpinPair):
        if pair not in irreps:
            irreps[pair] = check_lorentz(irrep_generators(pair))
        return irreps[pair]

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
        pair1, pair2 = SpinPair(A, B), SpinPair(C, D)
        gen = direct_sum(pair1, pair2)
        run(label + ":lorentz", _both_blocks(irrep(pair1), irrep(pair2)))
        vecs = {source: vectors_from_source(source, (A, B, C, D), one) for source in SOURCES}
        closed = vecs["closed-form"]
        if any(vecs["recursion"].component(mu) != closed.component(mu) for mu in COMPONENTS):
            failures.append(f"{label}:recursion-mismatch")
        if not isinstance(reference_equivalence_ratio(closed, vecs["clebsch-gordan"]), RatioFit):
            failures.append(f"{label}:cg-not-proportional")
        for source in ("closed-form", "clebsch-gordan"):
            vec = vecs[source]
            moms = {choice: momentum_from_vectors(vec, choice) for choice in BLOCKS[1:]}
            rules = {
                choice: _check(_VECTOR, gen.spin_basis, mom.families)
                for choice, mom in moms.items()
            }
            halves = zip(*(mom.components() for mom in moms.values()), vec.components())
            if any(p12 + p21 != v for p12, p21, v in halves):
                failures.append(f"{label}:{source}:block-split")
            run(f"{label}:{source}:V", _both_blocks(*rules.values()))
            for choice, mom in moms.items():
                run(f"{label}:{source}:{choice}", rules[choice])
                run(f"{label}:{source}:{choice}", _check(_TRANSLATIONS, mom.families, mom.families))
    return {
        "sweepBound": bound,
        "quadruples": total,
        "admissible": admissible,
        "rulesChecked": checks,
        "failures": failures,
        "allHold": not failures,
    }


def reference_equivalence_ratio(reference, candidate):
    """``cg.equivalence_ratio`` on the Cartesian components, one block at a time.

    The ratio is reference / candidate at the candidate's first single-term
    entry, in the order V_x, V_y, V_z, V_t, each row-major; the mismatch is
    the first nonzero entry of reference - ratio * candidate in that order.
    """
    if reference.spins != candidate.spins:
        raise ValueError("vector sets live on different representations")
    n1, n = reference.block1_dim, reference.dimension
    ratios = {}
    for which, bounds in (("12", (0, n1, n1, n)), ("21", (n1, n, 0, n1))):
        pairs = [
            (mu, *(vec.component(mu).submatrix(*bounds) for vec in (reference, candidate)))
            for mu in COMPONENTS
        ]
        ratio = None
        saw_nonzero = False
        for mu, ref, cand in pairs:
            for row, col, val in cand.nonzero_items():
                saw_nonzero = True
                if len(val.terms) == 1:
                    ratio = ref.get(row, col) / val
                    break
            if ratio is not None:
                break
        if ratio is None:
            if saw_nonzero:
                raise ValueError(
                    "cannot fit a ratio: candidate block has no single-term entries"
                )
            ratio = ONE
        for mu, ref, cand in pairs:
            bad = (ref - cand.scale(ratio)).first_nonzero()
            if bad is not None:
                row, col, _ = bad
                return RatioMismatch(which, mu, row, col, ref.get(row, col), cand.get(row, col))
        ratios[which] = ratio
    return RatioFit(ratio12=ratios["12"], ratio21=ratios["21"])


def matrix_to_json(mat: Matrix) -> list:
    """The dense row-major entry grid of ``mat``: [] at every zero cell."""
    flat = [[] for _ in range(mat.rows * mat.cols)]
    for i, j, value in mat.nonzero_items():
        flat[i * mat.cols + j] = scalar_to_json(value)
    return flat


def reference_bundle_dict(bundle) -> dict:
    """The JSON tree of ``bundle``; its canonical text is
    ``json.dumps(tree, sort_keys=True, separators=(",", ":")) + "\\n"``."""
    return {
        "schemaVersion": SCHEMA_VERSION,
        "layout": LAYOUT_NOTE,
        "spins": list(bundle.spins),
        "caseTag": bundle.case.value,
        "source": bundle.source,
        "block": bundle.block,
        "params": {
            "t12": scalar_to_json(bundle.params.t12),
            "t21": scalar_to_json(bundle.params.t21),
        },
        "dimension": bundle.dimension,
        "matrices": {key: matrix_to_json(mat) for key, mat in bundle.matrices().items()},
    }


def reference_normalize_radical(n: int) -> tuple[int, int]:
    """``radical.normalize_radical`` by trial division with every odd number up to 2**20.

    Splits n >= 0 as outside**2 * core with core squarefree (0 -> (0, 1)),
    and raises the library's ValueError for a negative n and for a cofactor
    left above 2**40 once the trial divisors pass 2**20.
    """
    limit = 2**20
    if n < 0:
        raise ValueError(f"radicand must be nonnegative, got {n}")
    if n == 0:
        return (0, 1)
    outside = 1
    core = 1
    m = n
    p = 2
    while p * p <= m:
        if m < limit**2 and p * p * p > m:
            break
        if p > limit:
            raise ValueError(f"radicand {n} has a factor too large to split")
        if m % p == 0:
            exp = 0
            while m % p == 0:
                m //= p
                exp += 1
            outside *= p ** (exp // 2)
            if exp % 2:
                core *= p
        p += 1 if p == 2 else 2
    root = math.isqrt(m)
    if root * root == m:
        return (outside * root, core)
    return (outside, core * m)


def is_prime_below_2_41(n: int) -> bool:
    """Deterministic Miller-Rabin; the bases 2..13 decide every n < 3.4e12."""
    bases = (2, 3, 5, 7, 11, 13)
    if n < 2 or n in bases:
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
