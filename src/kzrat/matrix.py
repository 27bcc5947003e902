"""Dense matrices over an exact field, with possibly-singular linear solving.

``FMatrix`` arithmetic, ``solve_linear``, ``inverse`` and ``det`` accept
entries of any exact type that supports +, -, *, / and == with itself
and with int/Fraction: Fraction, and the graded monomials c * d^k
(RatFunc) where symbolic values leave the Frobenius engine.  Those add
only at equal d-degree, which holds for the homogeneous matrices and
systems the engine grades.  ``charpoly`` takes Fraction entries only.

The one integer matrix form is flat: an n x n matrix is n^2 row-major
ints over one positive denominator, made by ``flat``, reduced by
``stripped``, multiplied by ``sparse_product`` and ``dense_product`` and
read back by ``FMatrix.from_cleared``, one Fraction per entry.
Faddeev-LeVerrier runs on it for ``charpoly`` and for the Frobenius
engine's resolvent.
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
        """ints / den for flat row-major ints, cols per row; nothing checked."""
        ents = [Fraction(e, den) for e in ints]
        m = object.__new__(cls)
        m.entries = tuple(tuple(ents[i : i + cols]) for i in range(0, len(ents), cols))
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


def _rref(mat: list[list], track: bool) -> tuple[list[list], list[list] | None, list[int]]:
    """In-place reduced row echelon form with deterministic pivoting.

    Pivots are the first nonzero entry scanning top-to-bottom per column
    (magnitude-based pivoting is meaningless in exact arithmetic).  When
    ``track`` is set, the accumulated row transform T with T*A = rref(A)
    is returned as well.
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
    return mat, transform, pivot_cols


def _canonical_kernel(vectors: list[list]) -> tuple[tuple, ...]:
    """Canonical basis of the span: reduced column echelon form, ordered by
    leading-row index (unique for the subspace, hence reproducible)."""
    if not vectors:
        return ()
    rows = [list(v) for v in vectors]
    reduced, _, _ = _rref(rows, track=False)
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
    work, transform, pivot_cols = _rref(work, track=True)
    rank = len(pivot_cols)

    tb = [
        [
            _dot(transform[i], [b.entries[k][j] for k in range(n)])
            for j in range(m)
        ]
        for i in range(n)
    ]

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


def _dot(xs, ys):
    acc = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        acc = acc + x * y
    return acc


def inverse(a: FMatrix) -> FMatrix:
    """Exact inverse; raises SingularMatrixError instead of ever being wrong."""
    if a.rows != a.cols:
        raise ValueError("inverse of a non-square matrix")
    res = solve_linear(a, FMatrix.identity(a.rows))
    if res.kind is not SolveKind.UNIQUE:
        raise SingularMatrixError("matrix is singular (zero determinant)")
    return res.particular


def det(a: FMatrix):
    """Determinant by forward elimination over the entry field."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    work = [list(row) for row in a.entries]
    sign = 1
    result = None
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            zero = work[0][0] - work[0][0]
            return zero
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            sign = -sign
        p = work[col][col]
        result = p if result is None else result * p
        inv = 1 / p
        for r in range(col + 1, n):
            f = work[r][col] * inv
            if f:
                work[r] = [e - f * q for e, q in zip(work[r], work[col])]
    return result if sign > 0 else -result


def flat(m: FMatrix) -> tuple[list[int], int]:
    """m as one flat row-major int list over its least common denominator."""
    return cleared([e for row in m.entries for e in row])


def stripped(ints: list[int], den: int) -> tuple[list[int], int]:
    """ints / den with the content gcd(den, ints...) divided out; den > 0."""
    g = gcd(den, *ints)
    if g == 1:
        return ints, den
    return [e // g for e in ints], den // g


def sparse_rows(a: list[int], n: int) -> list[list[tuple[int, int]]]:
    """A flat n x n int matrix given per row by its nonzero entries as
    (k * n, a_ik), the left factor of sparse_product."""
    return [[(k * n, x) for k, x in enumerate(a[i : i + n]) if x] for i in range(0, n * n, n)]


def sparse_product(rows: list[list[tuple[int, int]]], b: list[int], n: int) -> list[int]:
    """a * b for a flat n x n int matrix b and a given by sparse_rows(a, n):
    KZ residues have one nonzero per row."""
    out = []
    for row in rows:
        acc = [0] * n
        for k, x in row:
            acc = [s + x * y for s, y in zip(acc, b[k : k + n])]
        out += acc
    return out


def dense_product(a: list[int], b: list[int], n: int) -> list[int]:
    """a * b for flat n x n int matrices, by rows of a against columns of b."""
    cols = [b[j::n] for j in range(n)]
    return [sum(map(mul, a[i : i + n], c)) for i in range(0, n * n, n) for c in cols]


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
