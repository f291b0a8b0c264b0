"""Dense-semantics exact matrices over RadicalScalar entries.

A Matrix is an immutable value: ``Matrix(rows, cols)`` is the zero matrix
and ``Matrix.from_entries`` is the only public way to give one entries.
``Matrix._from_rows`` takes rows its caller has already formed in the
stored form (nonzero values at positions inside the shape), unchecked;
``Matrix.window``, ``change_basis``, the kernel and its
row-by-row ``first_nonzero_of_sum``, the bundle loader,
``vectors.pattern_vectors``, ``VectorSet.cartesian``, the generator
builders (``rotation_rep`` and the standard spin basis) and the
one-spin settling of the vector rules (``verify``) use it.
Nothing changes a matrix after it is made.  Entries are held
sparsely (zeros dropped) so products of the very sparse spin matrices
stay cheap, but the interface is an ordinary rows x cols matrix and
serialization emits the full row-major grid.

Every matrix-valued result (``+``, ``-``, ``scale``, ``times_i``, ``@``,
``commutator``, ``anticommutator``, ``residual``, ``linear_combination``)
is one call of a kernel that computes a signed sum of products plus exact
scalar multiples c * Z.  It uses each operand as integer numerators over one
denominator, the lcm of the operand's entry denominators, multiplies and
sums with Python ints, and reduces each nonzero entry of the result by
one gcd into a RadicalScalar, which holds the same integer form.  Since a
matrix never changes, its integer form is computed the first time it is
an operand and kept with it; a scalar c is taken as its own integer terms
over its denominator, which meet every packed row of Z.  Nothing is
rounded.

A basis change (``change_basis``: each output a fixed linear combination
of the same input matrices) runs outside the kernel, cell by cell.  The
two ``from_cartesian`` constructors call it, as ``verify --in`` reads a
bundle's V, or J and K edited by hand, and so does
``GeneratorSet.cartesian`` for the probes, hand-built sets and the
export of a bundle's standard J and K; ``gen`` writes its matrices
without one, and a standard set's spin basis is placed directly, when a
check falls back to its commutators.  The inputs' values at one
position are mapped through the whole table as one exact integer sum
per output, over the lcm of that cell's own denominators only, and each
distinct tuple of values is mapped once.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, Sequence

from .radical import I_UNIT, ONE, ZERO, RadicalScalar, RationalLike, _coerce, _make

if TYPE_CHECKING:
    import numpy as np


class Matrix:
    """An immutable rows x cols matrix; ``from_entries`` gives it entries."""

    __slots__ = ("rows", "cols", "_rows", "_packed")

    def __init__(self, rows: int, cols: int):
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self._rows: dict[int, dict[int, RadicalScalar]] = {}
        self._packed = None  # the kernel's integer form, see _pack

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "Matrix":
        return cls(rows, rows if cols is None else cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_entries(n, n, {(i, i): ONE for i in range(n)})

    @classmethod
    def from_entries(
        cls, rows: int, cols: int, entries: dict[tuple[int, int], RadicalScalar | RationalLike]
    ) -> "Matrix":
        """entries[i, j] at (i, j), coerced; zeros dropped, IndexError outside the shape."""
        m = cls(rows, cols)
        for (i, j), v in entries.items():
            m._check(i, j)
            v = _coerce(v)
            if not v.is_zero():
                m._rows.setdefault(i, {})[j] = v
        return m

    @classmethod
    def _from_rows(
        cls, rows: int, cols: int, entries: dict[int, dict[int, RadicalScalar]]
    ) -> "Matrix":
        """The matrix holding ``entries`` as its rows, which it takes as they are.

        The caller vouches for the stored form: entries[i][j] is a nonzero
        RadicalScalar with (i, j) inside the shape, and no row is empty.
        """
        m = cls(rows, cols)
        m._rows = entries
        return m

    # -- element access -------------------------------------------------

    def get(self, i: int, j: int) -> RadicalScalar:
        self._check(i, j)
        return self._rows.get(i, {}).get(j, ZERO)

    def _check(self, i: int, j: int) -> None:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i},{j}) outside {self.rows}x{self.cols} matrix")

    def _same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def nonzero_items(self) -> Iterator[tuple[int, int, RadicalScalar]]:
        for i in sorted(self._rows):
            for j in sorted(self._rows[i]):
                yield i, j, self._rows[i][j]

    def nnz(self) -> int:
        return sum(len(r) for r in self._rows.values())

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return _combine(self.rows, self.cols, multiples=[(1, ONE, self), (1, ONE, other)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return _combine(self.rows, self.cols, multiples=[(1, ONE, self), (-1, ONE, other)])

    def __neg__(self) -> "Matrix":
        return _combine(self.rows, self.cols, multiples=[(-1, ONE, self)])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return _combine(self.rows, other.cols, [(1, self, other)])

    def scale(self, factor: RadicalScalar | RationalLike) -> "Matrix":
        return _combine(self.rows, self.cols, multiples=[(1, factor, self)])

    def times_i(self) -> "Matrix":
        return _combine(self.rows, self.cols, multiples=[(1, I_UNIT, self)])

    def is_zero(self) -> bool:
        return not self._rows

    def first_nonzero(self) -> tuple[int, int, RadicalScalar] | None:
        for item in self.nonzero_items():
            return item
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._rows == other._rows
        )

    def __hash__(self):
        raise TypeError("Matrix is not hashable")

    # -- block helpers ------------------------------------------------------

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        return Matrix.from_entries(r1 - r0, c1 - c0, {
            (i - r0, j - c0): v
            for i, row in self._rows.items() if r0 <= i < r1
            for j, v in row.items() if c0 <= j < c1
        })

    def window(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        """This matrix with only its entries in rows r0..r1-1 and columns c0..c1-1, in place."""
        out = {}
        for i, row in self._rows.items():
            kept = {j: v for j, v in row.items() if c0 <= j < c1} if r0 <= i < r1 else None
            if kept:
                out[i] = kept
        return Matrix._from_rows(self.rows, self.cols, out)

    # -- export ---------------------------------------------------------------

    def to_numpy(self) -> np.ndarray:
        import numpy as np

        arr = np.zeros((self.rows, self.cols), dtype=complex)
        for i, j, v in self.nonzero_items():
            arr[i, j] = v.to_complex()
        return arr

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols}, nnz={self.nnz()})"

    def __str__(self) -> str:
        cells = [[str(self.get(i, j)) for j in range(self.cols)] for i in range(self.rows)]
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join("  ".join(c.rjust(width) for c in row) for row in cells)


def commutator(
    m: Matrix, n: Matrix, rhs: Sequence[tuple[RadicalScalar | RationalLike, Matrix]] = ()
) -> Matrix:
    """M @ N - N @ M - sum of c * Z over (c, Z) in rhs, for square matrices.

    Each c is an exact scalar, so the result is zero exactly when
    [M, N] = sum c * Z.
    """
    if m.rows != m.cols or n.rows != n.cols or m.rows != n.rows:
        raise ValueError("commutator needs square matrices of equal dimension")
    for _, z in rhs:
        m._same_shape(z)
    return _combine(m.rows, m.cols, [(1, m, n), (-1, n, m)], [(-1, c, z) for c, z in rhs])


def residual(
    products: Sequence[tuple[int, Matrix, Matrix]],
    rhs: Sequence[tuple[RadicalScalar | RationalLike, Matrix]] = (),
) -> Matrix:
    """Sum of sign * X @ Y over (sign, X, Y) in products, minus c * Z over (c, Z) in rhs.

    Each sign is 1 or -1.  The operands need not be square, only conform:
    each product and each Z has the result's shape.  So X1 @ A - A @ X2 - c * B
    tests whether a rectangular A intertwines X1 on its rows with X2 on its
    columns, and U @ W - c * Z whether Z is the outer product U @ W / c.
    """
    if not products:
        raise ValueError("a residual needs at least one product")
    rows, cols = products[0][1].rows, products[0][2].cols
    for _, x, y in products:
        if x.cols != y.rows or x.rows != rows or y.cols != cols:
            raise ValueError(
                f"a {x.rows}x{x.cols} by {y.rows}x{y.cols} product in a {rows}x{cols} residual"
            )
    for _, z in rhs:
        if z.rows != rows or z.cols != cols:
            raise ValueError(f"a {z.rows}x{z.cols} term in a {rows}x{cols} residual")
    return _combine(rows, cols, products, [(-1, c, z) for c, z in rhs])


def anticommutator(m: Matrix, n: Matrix) -> Matrix:
    if m.rows != m.cols or n.rows != n.cols or m.rows != n.rows:
        raise ValueError("anticommutator needs square matrices of equal dimension")
    return _combine(m.rows, m.cols, [(1, m, n), (1, n, m)])


def linear_combination(terms: Sequence[tuple[RadicalScalar | RationalLike, Matrix]]) -> Matrix:
    """Sum of c * Z over (c, Z) in terms: one or more matrices of one shape."""
    if not terms:
        raise ValueError("a linear combination needs at least one term")
    first = terms[0][1]
    for _, z in terms:
        first._same_shape(z)
    return _combine(first.rows, first.cols, multiples=[(1, c, z) for c, z in terms])


def first_nonzero_of_sum(
    terms: Sequence[tuple[RadicalScalar | RationalLike, Matrix]]
) -> tuple[int, int, RadicalScalar] | None:
    """``linear_combination(terms).first_nonzero()``, formed one row at a time.

    The terms' rows are summed through the kernel in ascending row order,
    each as a one-row matrix, and the scan stops at the first row whose sum
    is nonzero, so no row below it is formed.
    """
    if not terms:
        raise ValueError("a linear combination needs at least one term")
    first = terms[0][1]
    for _, z in terms:
        first._same_shape(z)
    cols = first.cols
    for i in sorted({i for _, z in terms for i in z._rows}):
        row = _combine(1, cols, multiples=[
            (1, c, Matrix._from_rows(1, cols, {0: z._rows[i]})) for c, z in terms if i in z._rows
        ])
        if row._rows:
            cells = row._rows[0]
            j = min(cells)
            return i, j, cells[j]
    return None


def change_basis(
    table: Sequence[Sequence[RadicalScalar | RationalLike]], mats: Sequence[Matrix]
) -> tuple[Matrix, ...]:
    """Row k of table as the sum of table[k][p] * mats[p] over p, for each row.

    The sums run cell by cell: the values mats hold at one position are
    mapped through the whole table at once, in integers over the lcm of
    that cell's own denominators, and each distinct tuple of values is
    mapped once.  The memo is keyed on the values' identities, which stay
    fixed while mats hold them.
    """
    first = mats[0]
    for m in mats:
        first._same_shape(m)
    coeffs = [[_coerce(c) for c in row] for row in table]
    tden = math.lcm(*(c._den for row in coeffs for c in row))
    # Column p of the table: (k, d, re, im) for each term of each table[k][p], over tden.
    columns = [[] for _ in mats]
    for k, row in enumerate(coeffs):
        if len(row) != len(mats):
            raise ValueError(f"table row {k} has {len(row)} entries for {len(mats)} matrices")
        for column, c in zip(columns, row):
            f = tden // c._den
            column += [(k, d, re * f, im * f) for d, (re, im) in c._num.items()]
    cells: dict[int, dict[int, list]] = {}
    for p, m in enumerate(mats):
        for i, row in m._rows.items():
            cell_row = cells.setdefault(i, {})
            for j, v in row.items():
                values = cell_row.get(j)
                if values is None:
                    values = cell_row[j] = [None] * len(mats)
                values[p] = v
    outs: list[dict[int, dict[int, RadicalScalar]]] = [{} for _ in coeffs]
    mapped: dict[tuple[int, ...], list] = {}
    for i, cell_row in cells.items():
        for j, values in cell_row.items():
            key = tuple(map(id, values))
            results = mapped.get(key)
            if results is None:
                results = mapped[key] = _map_cell(columns, tden, values)
            for k, value in results:
                outs[k].setdefault(i, {})[j] = value
    return tuple(Matrix._from_rows(first.rows, first.cols, out) for out in outs)


def _map_cell(columns: list, tden: int, values: list) -> list[tuple[int, RadicalScalar]]:
    """(k, row k of the table applied to one cell's values), for each nonzero result.

    values[p] is the cell's entry in mats[p], None where it is zero.  Every
    value is taken as integer terms over the lcm of the cell's
    denominators, so each result is one exact integer sum, reduced by _make.
    """
    den = math.lcm(*[v._den for v in values if v is not None])
    gcd = math.gcd
    accs: dict[int, dict[int, list[int]]] = {}
    for column, v in zip(columns, values):
        if v is None:
            continue
        f = den // v._den
        for d2, (c, e) in v._num.items():
            c, e = c * f, e * f
            for k, d1, a, b in column:
                # Squarefree radicands: d1*d2 = g**2 * (d1/g)*(d2/g).
                g = gcd(d1, d2)
                core = (d1 // g) * (d2 // g)
                re, im = (a * c - b * e) * g, (a * e + b * c) * g
                acc = accs.setdefault(k, {})
                prev = acc.get(core)
                if prev is None:
                    acc[core] = [re, im]
                else:
                    prev[0] += re
                    prev[1] += im
    results = []
    for k, acc in accs.items():
        value = _make(acc, den * tden)
        if value._num:
            results.append((k, value))
    return results


# -- the kernel -----------------------------------------------------------------

def _pack(rows: dict[int, dict[int, RadicalScalar]]) -> tuple[int, dict[int, list]]:
    """(L, rows): every entry as (radicand, re*L, im*L) integer terms.

    L is one lcm of entry denominators, and each entry's numerators are
    scaled by L over its own denominator.
    """
    scale = math.lcm(*{v._den for row in rows.values() for v in row.values()})
    packed: dict[int, list] = {}
    for i, row in rows.items():
        packed[i] = entries = []
        for j, v in row.items():
            f = scale // v._den
            entries.append((j, [(d, re * f, im * f) for d, (re, im) in v._num.items()]))
    return scale, packed


def _combine(rows: int, cols: int, products: Sequence = (), multiples: Sequence = ()) -> Matrix:
    """Sum sign * X @ Y over products and sign * c * Z over multiples, exactly.

    products holds (sign, X, Y) and multiples (sign, c, Z), with c an exact
    scalar.  A matrix operand uses the integer form stored with it, packed
    on first use; c is packed once per call, and its terms meet every
    packed row of Z as one diagonal would.  Products and sums run on Python
    ints over the common denominator of all terms, and each nonzero entry
    left at the end is reduced by one gcd.
    """
    for m in [m for _, x, y in products for m in (x, y)] + [z for _, _, z in multiples]:
        if m._packed is None:
            m._packed = _pack(m._rows)
    multiples = [(sign, _coerce(c), z) for sign, c, z in multiples]
    den = math.lcm(
        *(x._packed[0] * y._packed[0] for _, x, y in products),
        *(c._den * z._packed[0] for _, c, z in multiples),
    )
    # Every (i, terms, Y row) where an X entry (i, k) meets row k of Y.  c * Z
    # is the diagonal c * I times Z: c's terms, scaled once, meet each row i of Z.
    meetings = []
    for sign, x, y in products:
        (lx, xrows), (ly, yrows) = x._packed, y._packed
        factor = sign * (den // (lx * ly))
        for i, xrow in xrows.items():
            for k, xterms in xrow:
                yrow = yrows.get(k)
                if yrow is not None:
                    if factor != 1:
                        xterms = [(d, factor * a, factor * b) for d, a, b in xterms]
                    meetings.append((i, xterms, yrow))
    for sign, c, z in multiples:
        lz, zrows = z._packed
        factor = sign * (den // (c._den * lz))
        cterms = [(d, factor * re, factor * im) for d, (re, im) in c._num.items()]
        meetings += [(i, cterms, zrow) for i, zrow in zrows.items()]
    gcd = math.gcd
    acc: dict[tuple[int, int, int], list[int]] = {}
    for i, xterms, yrow in meetings:
        for j, yterms in yrow:
            for d1, a, b in xterms:
                for d2, c, e in yterms:
                    # Squarefree radicands: d1*d2 = g**2 * (d1/g)*(d2/g).
                    g = gcd(d1, d2)
                    key = (i, j, (d1 // g) * (d2 // g))
                    re = (a * c - b * e) * g
                    im = (a * e + b * c) * g
                    prev = acc.get(key)
                    if prev is None:
                        acc[key] = [re, im]
                    else:
                        prev[0] += re
                        prev[1] += im
    # Most residual cells cancel to exactly zero: drop them before grouping.
    cells: dict[int, dict[int, dict[int, list[int]]]] = {}
    for (i, j, core), pair in acc.items():
        if pair[0] or pair[1]:
            cells.setdefault(i, {}).setdefault(j, {})[core] = pair
    return Matrix._from_rows(rows, cols, {
        i: {j: _make(num, den) for j, num in row.items()}
        for i, row in cells.items()
    })
