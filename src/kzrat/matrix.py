"""Dense matrices over an exact field, with possibly-singular linear solving.

``FMatrix`` arithmetic, ``solve_linear``, ``inverse`` and ``det`` accept
entries of any exact type that supports +, -, *, / and == with itself
and with int/Fraction: Fraction, and the graded monomials c * d^k
(RatFunc) where symbolic values leave the Frobenius engine.  Those add
only at equal d-degree, which holds for the homogeneous matrices and
systems the engine grades.  ``charpoly`` takes Fraction entries only.

The one integer matrix form is flat: an n x c matrix is n c row-major
ints over one positive denominator, made by ``flat``, reduced by
``stripped``, multiplied by ``sparse_product`` and ``dense_product`` and
read back by ``FMatrix.from_cleared``.  That matrix keeps the integers and
builds its Fraction entries on their first read, so a caller that only
formats or re-clears it (``integer_form``, ``flat``) builds none.
Faddeev-LeVerrier runs on it for ``charpoly`` and for the Frobenius
engine's resolvent.

A matrix M of column rank r can also be held on a column basis: its r
pivot columns B = M[:, pivots] and the constant relations C, the nonzero
rows of the reduced row echelon form of M, with M = B C
(``ColumnRelations``).  ``FMatrix.from_basis`` keeps B in flat form and
builds the full integers only when they are read; ``basis_form`` hands B
and C to a caller that works on the pivot columns alone.  Any other
matrix counts as its own basis: every column a pivot, C = I.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd
from operator import mul
from typing import NamedTuple, Sequence

from .poly import Poly, cleared


class SingularMatrixError(ValueError):
    """Raised when an inverse of a singular matrix is requested."""


class FMatrix:
    """Immutable dense matrix over an exact field."""

    __slots__ = ("entries",)

    def __init__(self, rows: Sequence[Sequence]):
        ents = tuple(
            tuple(Fraction(e) if isinstance(e, int) else e for e in row) for row in rows
        )
        if not ents or not ents[0]:
            raise ValueError("matrices must have at least one row and one column")
        width = len(ents[0])
        if any(len(r) != width for r in ents):
            raise ValueError("ragged rows")
        self.entries = ents

    @classmethod
    def identity(cls, n: int) -> FMatrix:
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> FMatrix:
        return cls([[Fraction(0)] * cols for _ in range(rows)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: int) -> FMatrix:
        return cls([[col[i] for col in columns] for i in range(rows)])

    @classmethod
    def from_cleared(cls, ints: list[int], den: int, cols: int) -> FMatrix:
        """ints / den for flat row-major ints, cols per row, den > 0; nothing
        checked.  The Fraction entries are built on first read, once."""
        return cls.from_basis(ints, den, ColumnRelations.trivial(cols))

    @classmethod
    def from_basis(cls, ints: list[int], den: int, relations: ColumnRelations) -> FMatrix:
        """(ints / den) * C for the flat pivot columns ints, r per row, and
        the relations C, den > 0; nothing checked.  The full integers are
        built on first read, once, and the Fraction entries from them."""
        m = object.__new__(_ClearedMatrix)
        m.relations = relations
        m._basis = (tuple(ints), den)
        return m

    @classmethod
    def with_relations(cls, rows: Sequence[Sequence], relations: ColumnRelations) -> FMatrix:
        """The matrix of rows, whose columns are known to obey relations."""
        m = _RelatedMatrix(rows)
        m.relations = relations
        return m

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def __getitem__(self, ij: tuple[int, int]):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FMatrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        return all(
            a == b for ra, rb in zip(self.entries, other.entries) for a, b in zip(ra, rb)
        )

    __hash__ = None

    def __add__(self, other: FMatrix) -> FMatrix:
        if not isinstance(other, FMatrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("dimension mismatch in matrix addition")
        return FMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: FMatrix) -> FMatrix:
        if not isinstance(other, FMatrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("dimension mismatch in matrix subtraction")
        return FMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __neg__(self) -> FMatrix:
        return FMatrix([[-e for e in row] for row in self.entries])

    def __mul__(self, other) -> FMatrix:
        if isinstance(other, FMatrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"dimension mismatch: ({self.rows}x{self.cols}) * "
                    f"({other.rows}x{other.cols})"
                )
            cols = other.cols
            out = []
            for i in range(self.rows):
                row = []
                for j in range(cols):
                    acc = self.entries[i][0] * other.entries[0][j]
                    for k in range(1, self.cols):
                        acc = acc + self.entries[i][k] * other.entries[k][j]
                    row.append(acc)
                out.append(row)
            return FMatrix(out)
        return FMatrix([[e * other for e in row] for row in self.entries])

    def __rmul__(self, other) -> FMatrix:
        return FMatrix([[other * e for e in row] for row in self.entries])

    def transpose(self) -> FMatrix:
        return FMatrix([self.column(j) for j in range(self.cols)])

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        acc = self.entries[0][0]
        for i in range(1, self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def is_zero(self) -> bool:
        return all(not e for row in self.entries for e in row)

    def map(self, fn) -> FMatrix:
        return FMatrix([[fn(e) for e in row] for row in self.entries])

    def __repr__(self) -> str:
        rows = ", ".join("[" + ", ".join(repr(e) for e in row) + "]" for row in self.entries)
        return f"FMatrix([{rows}])"


class ColumnRelations(NamedTuple):
    """Constant relations M = M[:, pivots] * C / den among the columns of a
    matrix M: C, r x n with r = len(pivots), is given by its integer rows
    and is den times the identity at the pivot columns."""

    pivots: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    den: int

    @classmethod
    def trivial(cls, cols: int) -> ColumnRelations:
        """Every column a pivot: C = I."""
        return cls(
            tuple(range(cols)),
            tuple(tuple(int(i == j) for j in range(cols)) for i in range(cols)),
            1,
        )

    @property
    def cols(self) -> int:
        return len(self.rows[0])

    def columns(self) -> list[list[tuple[int, int]]]:
        """Per column j of C, its nonzero entries as (k, C_kj)."""
        return [[(k, c) for k, c in enumerate(col) if c] for col in zip(*self.rows)]

    def expand(self, basis: list[int]) -> list[int]:
        """basis * C, flat, for flat rows of r pivot-column entries: one
        outer product per pivot column, summed."""
        r = len(self.rows)
        parts = [[x * c for x in basis[k::r] for c in row] for k, row in enumerate(self.rows)]
        return parts[0] if r == 1 else [sum(t) for t in zip(*parts)]


def column_relations(m: FMatrix) -> ColumnRelations:
    """The relations among the columns of m, from its reduced row echelon form."""
    reduced, _, pivots, _ = _rref([list(row) for row in m.entries], track=False)
    r = len(pivots)
    ints, den = cleared([e for row in reduced[:r] for e in row])
    n = m.cols
    rows = tuple(tuple(ints[i : i + n]) for i in range(0, r * n, n))
    return ColumnRelations(tuple(pivots), rows, den)


class _RelatedMatrix(FMatrix):
    """An FMatrix that carries known relations among its columns."""

    __slots__ = ("relations",)


class _ClearedMatrix(_RelatedMatrix):
    """An FMatrix that holds its pivot columns ints / den and their
    relations until its full integers or its entries are first read.

    A subclass, so that only these matrices have a __getattr__: on FMatrix
    itself it would slow every attribute read of every matrix (CPython
    does not specialize attribute reads on a type that defines it).
    """

    __slots__ = ("_basis", "_flat")

    def __getattr__(self, name: str):
        # reached only while the slot asked for is unset
        if name == "_flat":
            ints, den = self._basis
            rel = self.relations
            self._flat = (tuple(rel.expand(ints)), den * rel.den, rel.cols)
            return self._flat
        if name != "entries":
            raise AttributeError(name)
        ints, den, cols = self._flat
        ents = [Fraction(e, den) for e in ints]
        self.entries = tuple(tuple(ents[i : i + cols]) for i in range(0, len(ents), cols))
        return self.entries


class SolveKind(str, Enum):
    UNIQUE = "unique"
    AFFINE = "affine"
    INCONSISTENT = "inconsistent"


class SolveResult(NamedTuple):
    """Exact classification of a linear system A X = B.

    unique/affine: ``a * particular == b`` holds exactly and every kernel
    column v satisfies ``a * v == 0``.  inconsistent: the certificate y
    satisfies ``y * a == 0`` and ``y * b != 0``.
    """

    kind: SolveKind
    particular: FMatrix | None = None
    kernel_basis: tuple[tuple, ...] = ()
    certificate: tuple | None = None


def _rref(mat: list[list], track: bool) -> tuple[list[list], list[list] | None, list[int], object]:
    """In-place reduced row echelon form with deterministic pivoting.

    Pivots are the first nonzero entry scanning top-to-bottom per column
    (magnitude-based pivoting is meaningless in exact arithmetic).  When
    ``track`` is set, the accumulated row transform T with T*A = rref(A)
    is returned as well.  Last comes the product of the pivots, negated
    at each row swap: det(A) when every row of a square A gets a pivot.
    """
    nrows = len(mat)
    ncols = len(mat[0])
    transform = None
    if track:
        transform = [
            [Fraction(int(i == j)) for j in range(nrows)] for i in range(nrows)
        ]
    pivot_cols: list[int] = []
    prow = 0
    pivot_product = 1
    for col in range(ncols):
        pivot = None
        for r in range(prow, nrows):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != prow:
            mat[prow], mat[pivot] = mat[pivot], mat[prow]
            if track:
                transform[prow], transform[pivot] = transform[pivot], transform[prow]
            pivot_product = -pivot_product
        pivot_product = pivot_product * mat[prow][col]
        inv = 1 / mat[prow][col]
        if mat[prow][col] != 1:
            mat[prow] = [e * inv for e in mat[prow]]
            if track:
                transform[prow] = [e * inv for e in transform[prow]]
        for r in range(nrows):
            if r == prow:
                continue
            f = mat[r][col]
            if f:
                mat[r] = [e - f * p for e, p in zip(mat[r], mat[prow])]
                if track:
                    transform[r] = [e - f * p for e, p in zip(transform[r], transform[prow])]
        pivot_cols.append(col)
        prow += 1
        if prow == nrows:
            break
    return mat, transform, pivot_cols, pivot_product


def _canonical_kernel(vectors: list[list]) -> tuple[tuple, ...]:
    """Canonical basis of the span: reduced column echelon form, ordered by
    leading-row index (unique for the subspace, hence reproducible)."""
    if not vectors:
        return ()
    rows = [list(v) for v in vectors]
    reduced, _, _, _ = _rref(rows, track=False)
    keep = []
    for row in reduced:
        if any(e for e in row):
            lead = next(i for i, e in enumerate(row) if e)
            keep.append((lead, tuple(row)))
    keep.sort(key=lambda t: t[0])
    return tuple(v for _, v in keep)


def solve_linear(a: FMatrix, b: FMatrix) -> SolveResult:
    """Exactly classify and solve A X = B for square A.

    Singular-consistent and singular-inconsistent systems are ordinary
    results, not errors.  The particular solution of an affine system has
    all free components set to zero.
    """
    if a.rows != a.cols:
        raise ValueError("solve_linear requires a square coefficient matrix")
    if b.rows != a.rows:
        raise ValueError("dimension mismatch between coefficient matrix and right side")
    n = a.rows
    m = b.cols
    work = [list(row) for row in a.entries]
    work, transform, pivot_cols, _ = _rref(work, track=True)
    rank = len(pivot_cols)
    tb = (FMatrix(transform) * b).entries

    for r in range(rank, n):
        if any(e for e in tb[r]):
            return SolveResult(
                kind=SolveKind.INCONSISTENT,
                certificate=tuple(transform[r]),
            )

    particular = [[Fraction(0)] * m for _ in range(n)]
    for r, pc in enumerate(pivot_cols):
        particular[pc] = list(tb[r])
    part = FMatrix(particular)

    if rank == n:
        return SolveResult(kind=SolveKind.UNIQUE, particular=part)

    free_cols = [c for c in range(n) if c not in pivot_cols]
    raw = []
    for f in free_cols:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, pc in enumerate(pivot_cols):
            v[pc] = -work[r][f]
        raw.append(v)
    kernel = _canonical_kernel(raw)
    return SolveResult(kind=SolveKind.AFFINE, particular=part, kernel_basis=kernel)


def inverse(a: FMatrix) -> FMatrix:
    """Exact inverse; raises SingularMatrixError instead of ever being wrong."""
    if a.rows != a.cols:
        raise ValueError("inverse of a non-square matrix")
    res = solve_linear(a, FMatrix.identity(a.rows))
    if res.kind is not SolveKind.UNIQUE:
        raise SingularMatrixError("matrix is singular (zero determinant)")
    return res.particular


def det(a: FMatrix):
    """Determinant: the signed pivot product of ``_rref``, or a zero of the
    entry type when some row gets no pivot."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    _, _, pivot_cols, pivot_product = _rref([list(row) for row in a.entries], track=False)
    return pivot_product if len(pivot_cols) == a.rows else a.entries[0][0] * 0


def integer_form(m: FMatrix) -> tuple[tuple[int, ...], int, int] | None:
    """(ints, den, cols) of a from_cleared or from_basis matrix, all its
    columns, not reduced; None for a matrix made any other way."""
    return m._flat if isinstance(m, _ClearedMatrix) else None


def basis_form(m: FMatrix) -> tuple[list[int], int, ColumnRelations]:
    """(ints, den, relations) with m = (ints / den) * relations: for a
    from_basis or from_cleared matrix its own pivot columns, stripped; for
    any other, flat(m) with every column a pivot."""
    if isinstance(m, _ClearedMatrix):
        return (*stripped(list(m._basis[0]), m._basis[1]), m.relations)
    return (*flat(m), ColumnRelations.trivial(m.cols))


def known_relations(m: FMatrix) -> ColumnRelations:
    """The relations m carries; every column a pivot when it carries none."""
    return m.relations if isinstance(m, _RelatedMatrix) else ColumnRelations.trivial(m.cols)


def flat(m: FMatrix) -> tuple[list[int], int]:
    """m as one flat row-major int list over its least common denominator;
    a from_cleared or from_basis matrix gives its own integers, stripped."""
    form = integer_form(m)
    if form is None:
        return cleared([e for row in m.entries for e in row])
    return stripped(list(form[0]), form[1])


def stripped(ints: list[int], den: int) -> tuple[list[int], int]:
    """ints / den with the content gcd(den, ints...) divided out; den > 0."""
    g = gcd(den, *ints)
    if g == 1:
        return ints, den
    return [e // g for e in ints], den // g


def sparse_rows(a: list[int], n: int) -> list[list[tuple[int, int]]]:
    """A flat n x n int matrix given per row by its nonzero entries as
    (k, a_ik), the left factor of sparse_product."""
    return [[(k, x) for k, x in enumerate(a[i : i + n]) if x] for i in range(0, n * n, n)]


def sparse_product(rows: list[list[tuple[int, int]]], b: list[int], cols: int) -> list[int]:
    """a * b for a flat n x cols int matrix b and a given by sparse_rows(a, n):
    KZ residues have one nonzero per row."""
    out = []
    for row in rows:
        acc = [0] * cols
        for k, x in row:
            lo = k * cols
            acc = [s + x * y for s, y in zip(acc, b[lo : lo + cols])]
        out += acc
    return out


def dense_product(a: list[int], b: list[int], cols: int) -> list[int]:
    """a * b for a flat n x n int matrix a and a flat n x cols int matrix b,
    by rows of a against columns of b."""
    n = len(b) // cols
    columns = [b[j::cols] for j in range(cols)]
    return [sum(map(mul, a[i : i + n], c)) for i in range(0, n * n, n) for c in columns]


def faddeev_leverrier(a: list[int], n: int) -> tuple[list[int], list[list[int]]]:
    """Characteristic data of a flat n x n int matrix A, all in int.

    Returns c_0 .. c_n with det(xI - A) = sum_k c_k x^(n-k), and flat
    N_0 .. N_(n-1) with adj(xI - A) = sum_k x^(n-1-k) N_k: N_0 = I,
    c_k = -tr(A N_(k-1)) / k and N_k = A N_(k-1) + c_k I.  Every c_k is an
    integer, so each division by k is exact.
    """
    rows = sparse_rows(a, n)
    diagonal = range(0, n * n, n + 1)
    coeffs = [1]
    adj = [[int(i in diagonal) for i in range(n * n)]]
    for k in range(1, n + 1):
        prod = sparse_product(rows, adj[-1], n)
        coeffs.append(-sum(prod[i] for i in diagonal) // k)
        if k < n:
            for i in diagonal:
                prod[i] += coeffs[-1]
            adj.append(prod)
    return coeffs, adj


def charpoly(a: FMatrix) -> Poly:
    """Monic characteristic polynomial of a Fraction matrix.

    Faddeev-LeVerrier runs on the cleared integer matrix A = den * a; then
    det(xI - a) = sum_k c_k x^(n-k) / den^k, the only non-integer step.
    """
    if a.rows != a.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    ints, den = flat(a)
    coeffs, _ = faddeev_leverrier(ints, a.rows)
    return Poly([Fraction(c, den**k) for k, c in enumerate(coeffs)][::-1])
