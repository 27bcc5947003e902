"""Dense matrices over an exact field, with possibly-singular linear solving.

``FMatrix`` arithmetic, ``solve_linear`` and ``det`` accept entries of
any exact type that supports +, -, *, / and == with itself and with
int/Fraction: Fraction, and the graded monomials c * d^k (RatFunc) where
symbolic values leave the Frobenius engine.  Those add only at equal
d-degree, which holds for the homogeneous matrices and systems the
engine grades.  ``charpoly`` takes Fraction entries only.

The one integer matrix form is flat: an n x c matrix is n c row-major
ints over one positive denominator, made by ``flat``, reduced by
``stripped`` and multiplied by ``sparse_product`` and ``dense_product``.
Faddeev-LeVerrier runs on it for ``charpoly`` and for the Frobenius
engine's resolvent.

A matrix M of column rank r can also be held on a column basis: its r
pivot columns B = M[:, pivots] and the constant relations C, the nonzero
rows of the reduced row echelon form of M, with M = B C
(``ColumnRelations``).  ``FMatrix.from_basis`` keeps B as rows of r ints
over one denominator, and ``FMatrix.from_poly_basis`` as rows of r
integer coefficient vectors; each builds its Fraction or Poly entries on
their first read, and reads its shape without them.  ``graded`` grades a
matrix by d^k as a view of the same kind, whose RatFunc entries are
built on their first read.  C is applied in one place,
``ColumnRelations.derived``: it makes each pivot entry once, in the kind
its caller asks for, copies or negates it for a column that is a pivot
column or its negation, and combines the pivot entries for any other
column.

``int_form`` is the one reader of a matrix's integers, (B, den, C, k)
with M = (B / den) C d^k, k None for Fractions or Polys: it hands out
the pivot columns that a lazy matrix holds, and clears a matrix held as
its entries once, every column a pivot.  The CLI's report cells and
printed lines, the golden check, reconstruction and the ODE check all
read matrices through it.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd
from operator import mul, neg
from typing import NamedTuple, Sequence

from .poly import Poly, cleared
from .ratfunc import RatFunc


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
    def from_basis(cls, ints: list[int], den: int, relations: ColumnRelations) -> FMatrix:
        """(ints / den) * C for the flat pivot columns ints, r per row, and
        the relations C, den > 0; nothing checked.  The pivot columns are
        kept as rows of r ints, and the Fraction entries are built on first
        read, once; the shape is read without them."""
        m = object.__new__(_ClearedMatrix)
        m.relations = relations
        r = len(relations.pivots)
        m._basis = ([ints[i : i + r] for i in range(0, len(ints), r)], den)
        return m

    @classmethod
    def from_poly_basis(cls, rows: list, den: int, relations: ColumnRelations) -> FMatrix:
        """(rows / den) * C for the pivot columns rows, each row r integer
        coefficient vectors without trailing zeros, and the relations C,
        den > 0; nothing checked.  The Poly entries are built on first
        read, once, as from_basis builds its Fractions."""
        m = object.__new__(_ClearedPolyMatrix)
        m.relations = relations
        m._basis = (rows, den)
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

    @property
    @lru_cache(maxsize=64)
    def plan(self) -> tuple:
        """Per column of C: k when it is pivot column k, ~k when it is that
        column negated, its nonzero entries as (k, C_kj) otherwise, or None
        for a zero column."""
        plan = []
        for col in zip(*self.rows):
            terms = [(k, c) for k, c in enumerate(col) if c]
            if len(terms) == 1 and abs(terms[0][1]) == self.den:
                k, c = terms[0]
                plan.append(k if c > 0 else ~k)
            else:
                plan.append(terms or None)
        return tuple(plan)

    def derived(self, rows, den: int, value, combine, negate, zero) -> list[list]:
        """The entries of (rows / den) C / self.den, for rows of r pivot
        entries, in the kind that value(x, den) makes of a pivot entry x
        over den: each pivot entry is made once, a column that is a pivot
        column or its negation is copied or negated from those, a zero
        column is `zero`, and any other column is made from
        combine(row, terms) over den * self.den."""
        plan = self.plan
        out = []
        for row in rows:
            made = [value(x, den) for x in row]
            line = []
            for p in plan:
                if type(p) is int:
                    line.append(made[p] if p >= 0 else negate(made[~p]))
                else:
                    line.append(value(combine(row, p), den * self.den) if p else zero)
            out.append(line)
        return out

    def flat(self, rows, den: int) -> tuple[list[int], int]:
        """(rows / den) C / self.den as one flat row-major int list over
        den * self.den, for rows of r pivot ints."""
        common = den * self.den
        lines = self.derived(
            rows, den, lambda x, over: x * (common // over), scalar_combination, neg, 0
        )
        return [x for line in lines for x in line], common


def column_relations(m: FMatrix) -> ColumnRelations:
    """The relations among the columns of m, from its reduced row echelon form."""
    reduced, _, pivots, _ = _rref([list(row) for row in m.entries], track=False)
    r = len(pivots)
    ints, den = cleared([e for row in reduced[:r] for e in row])
    n = m.cols
    rows = tuple(tuple(ints[i : i + n]) for i in range(0, r * n, n))
    return ColumnRelations(tuple(pivots), rows, den)


def scalar_combination(row: list[int], terms: list[tuple[int, int]]) -> int:
    """sum c * row[k] over the (k, c) terms."""
    return sum(c * row[k] for k, c in terms)


def combination(row: list[list[int]], terms: list[tuple[int, int]]) -> list[int]:
    """sum c * row[k] over the (k, c) terms, for integer vectors, without
    trailing zeros."""
    if len(terms) == 1:
        k, c = terms[0]
        return row[k] if c == 1 else [c * x for x in row[k]]
    acc: list[int] = []
    for k, c in terms:
        f = row[k]
        acc += [0] * (len(f) - len(acc))
        for t, x in enumerate(f):
            acc[t] += c * x
    while acc and not acc[-1]:
        acc.pop()
    return acc


def _poly_over(f: list[int], den: int) -> Poly:
    return Poly([Fraction(x, den) for x in f])


class _ClearedMatrix(FMatrix):
    """An FMatrix that holds its pivot columns rows / den and their
    relations until its entries are first read; its shape is read without
    them.  Its entries are Fractions, each pivot row r ints.

    A subclass, so that only these matrices have a __getattr__: on FMatrix
    itself it would slow every attribute read of every matrix (CPython
    does not specialize attribute reads on a type that defines it).
    """

    __slots__ = ("relations", "_basis")
    # the entry kind, as ColumnRelations.derived takes it
    _kind = (Fraction, scalar_combination, neg, Fraction(0))
    power = None  # ungraded

    def __getattr__(self, name: str):
        # reached only while the slot asked for is unset
        if name != "entries":
            raise AttributeError(name)
        self.entries = self._built()
        return self.entries

    @property
    def rows(self) -> int:
        return len(self._basis[0])

    @property
    def cols(self) -> int:
        return self.relations.cols

    def _built(self) -> tuple:
        rows, den = self._basis
        return tuple(map(tuple, self.relations.derived(rows, den, *self._kind)))


class _ClearedPolyMatrix(_ClearedMatrix):
    """A _ClearedMatrix of polynomials: each pivot entry an integer
    coefficient vector over the one den."""

    __slots__ = ()
    _kind = (_poly_over, combination, neg, Poly())


class _GradedMatrix(_ClearedMatrix):
    """A _ClearedMatrix graded by d^power, 0 when it is zero: its entries
    are the monomials RatFunc(x / den, power)."""

    __slots__ = ("power",)

    @property
    def _kind(self) -> tuple:
        power = self.power
        return (
            lambda x, over: RatFunc(Fraction(x, over), power), scalar_combination, neg, RatFunc()
        )


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


def det(a: FMatrix):
    """Determinant: the signed pivot product of ``_rref``, or a zero of the
    entry type when some row gets no pivot."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    _, _, pivot_cols, pivot_product = _rref([list(row) for row in a.entries], track=False)
    return pivot_product if len(pivot_cols) == a.rows else a.entries[0][0] * 0


def graded(m: FMatrix, power: int) -> FMatrix:
    """m * d^power, for a matrix of Fractions, as a view of its pivot
    columns whose RatFunc entries are built on their first read: those a
    from_basis matrix holds, or every column of any other, cleared once."""
    rows, den, relations, own_power = int_form(m)
    if own_power is not None or holds_polys(m):
        raise TypeError("only a matrix of Fractions is graded")
    view = object.__new__(_GradedMatrix)
    view.relations, view._basis = relations, (rows, den)
    view.power = power if any(map(any, rows)) else 0
    return view


def int_form(m: FMatrix) -> tuple[list, int, ColumnRelations, int | None]:
    """(rows, den, relations, power) with m = (rows / den) relations d^power,
    den > 0 and the pivot columns as rows of r ints (of r integer vectors
    for Polys); power is None for Fractions or Polys, and 0 for a zero
    graded matrix.  A lazy matrix hands out the pivot columns it holds,
    building no entry; any other is cleared once, every column a pivot."""
    if isinstance(m, _ClearedMatrix):
        rows, den = m._basis
        return rows, den, m.relations, m.power
    cells = [e for row in m.entries for e in row]
    kinds = set(map(type, cells))
    powers = ({e.power for e in cells if e} or {0}) if kinds == {RatFunc} else {None}
    if len(kinds) > 1 or len(powers) > 1 or not kinds <= {Fraction, Poly, RatFunc}:
        raise ValueError("no integer form: not all Fractions, Polys or monomials of one power")
    if kinds == {Poly}:
        ints, den = cleared([c for p in cells for c in p.coeffs])
        at = iter(ints)
        cells = [list(islice(at, len(p.coeffs))) for p in cells]
    else:
        cells, den = cleared([e.coeff for e in cells] if kinds == {RatFunc} else cells)
    n = m.cols
    rows = [cells[i : i + n] for i in range(0, len(cells), n)]
    return rows, den, ColumnRelations.trivial(n), powers.pop()


def holds_polys(m: FMatrix) -> bool:
    """Whether m's entries are Polys, read without building them; a matrix
    of mixed kinds is one that `int_form` refuses."""
    if isinstance(m, _ClearedMatrix):
        return isinstance(m, _ClearedPolyMatrix)
    return isinstance(m.entries[0][0], Poly)


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
