"""Dense matrices over an exact field, with possibly-singular linear solving.

``FMatrix`` arithmetic, ``solve_linear`` and ``det`` accept entries of
any exact type that supports +, -, *, / and == with itself and with
int/Fraction: Fraction, and the graded monomials c * d^k (RatFunc) where
symbolic values leave the Frobenius engine.  Those add only at equal
d-degree, which holds for the homogeneous matrices and systems the
engine grades.  ``solve_linear`` classifies and solves A X = B by one
elimination over [A | B]; only an inconsistent system is eliminated
again, with the row transform tracked, for its certificate.
``charpoly`` takes Fraction entries only.

The one integer matrix form is flat: an n x c matrix is n c row-major
ints over one positive denominator, made by ``flat`` (``scaled`` for a
rational multiple) and reduced by ``stripped``.  Every integer product
is ``nonzero_product`` over the (out, in, a_ik) terms that
``nonzero_terms`` lists for the left factor's nonzeros, one loop however
many matrices are stacked.  Faddeev-LeVerrier runs on it for the
spectral records and ``charpoly`` (``flat_charpoly``), and
``minimal_polynomial`` (Krylov, fraction-free) for the Frobenius
engine's resolvent.

A matrix M of column rank r can also be held on a column basis: its r
pivot columns B = M[:, pivots] and the constant relations C, the nonzero
rows of the reduced row echelon form of M, with M = B C
(``ColumnRelations``), found by fraction-free elimination on M's
integers (``int_relations``; ``column_relations`` clears a Fraction
matrix once for it).  ``FMatrix.from_basis`` keeps B as rows of r ints
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
from itertools import count, islice, zip_longest
from math import gcd, lcm
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
    """The relations among the columns of a Fraction matrix m: those of its
    integers, cleared once (`int_relations`)."""
    ints, _ = flat(m)
    n = m.cols
    return int_relations([ints[i : i + n] for i in range(0, len(ints), n)])


def int_relations(rows: list[list[int]]) -> ColumnRelations:
    """The relations among the columns of the int matrix given by its rows:
    the nonzero rows of its reduced row echelon form, over their least
    common denominator.  Fraction-free Gauss-Jordan elimination: a row is
    cleared at a pivot p by row' = p row - f pivot_row, f its entry there,
    and made primitive; each pivot row is then divided by its pivot, over
    the lcm of the pivots, with the content stripped."""
    mat = [list(row) for row in rows]
    n = len(mat[0])
    pivots = []
    for col in range(n):
        r = len(pivots)
        k = next((k for k in range(r, len(mat)) if mat[k][col]), None)
        if k is None:
            continue
        mat[r], mat[k] = mat[k], mat[r]
        top = mat[r]
        p = top[col]
        for i, row in enumerate(mat):
            f = row[col]
            if f and i != r:
                row = [p * x - f * y for x, y in zip(row, top)]
                g = gcd(*row) or 1
                mat[i] = [x // g for x in row]
        pivots.append(col)
        if len(pivots) == len(mat):
            break
    common = lcm(*(abs(mat[i][col]) for i, col in enumerate(pivots)))
    ints, den = stripped(
        [x * (common // mat[i][col]) for i, col in enumerate(pivots) for x in mat[i]], common
    )
    reduced = tuple(tuple(ints[i : i + n]) for i in range(0, len(ints), n))
    return ColumnRelations(tuple(pivots), reduced, den)


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

    One elimination over [A | B] classifies the system and gives the
    particular solution and the kernel; the row operations on A are those
    of eliminating A alone.  Only an inconsistent system, one with a pivot
    among B's columns, is eliminated again with the row transform tracked,
    for the certificate.
    """
    if a.rows != a.cols:
        raise ValueError("solve_linear requires a square coefficient matrix")
    if b.rows != a.rows:
        raise ValueError("dimension mismatch between coefficient matrix and right side")
    n = a.rows
    m = b.cols
    work = [list(ra) + list(rb) for ra, rb in zip(a.entries, b.entries)]
    work, _, pivot_cols, _ = _rref(work, track=False)
    if pivot_cols and pivot_cols[-1] >= n:
        return SolveResult(kind=SolveKind.INCONSISTENT, certificate=_certificate(a, b))
    rank = len(pivot_cols)

    particular = [[Fraction(0)] * m for _ in range(n)]
    for r, pc in enumerate(pivot_cols):
        particular[pc] = work[r][n:]
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


def _certificate(a: FMatrix, b: FMatrix) -> tuple:
    """y with y A = 0 and y B != 0 for an inconsistent A X = B: the first
    row of the tracked row transform T with T A = rref(A) that is zero on
    A and not on B."""
    _, transform, pivot_cols, _ = _rref([list(row) for row in a.entries], track=True)
    tb = (FMatrix(transform) * b).entries
    return next(tuple(transform[r]) for r in range(len(pivot_cols), a.rows) if any(tb[r]))


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


def scaled(m: FMatrix, c: Fraction) -> tuple[list[int], int]:
    """flat(m * c), from m's integers: no Fraction product is formed."""
    ints, den = flat(m)
    return stripped([x * c.numerator for x in ints], den * c.denominator)


def stripped(ints: list[int], den: int) -> tuple[list[int], int]:
    """ints / den with the content gcd(den, ints...) divided out; den > 0."""
    g = gcd(den, *ints)
    if g == 1:
        return ints, den
    return [e // g for e in ints], den // g


def nonzero_terms(a: list[int], n: int, cols: int, offset: int = 0) -> list[tuple[int, int, int]]:
    """The left factor of nonzero_product for a flat n x n int matrix a and
    a flat n x cols right factor: (out, in, a_ik) for each nonzero a_ik and
    each column j, out = offset + i cols + j and in = k cols + j.  Terms of
    several matrices, at distinct offsets, stack into one list."""
    return [
        (offset + i * cols + j, k * cols + j, x)
        for i in range(n)
        for k, x in enumerate(a[i * n : i * n + n])
        if x
        for j in range(cols)
    ]


def nonzero_product(terms: list[tuple[int, int, int]], b: list[int], size: int) -> list[int]:
    """The flat product of size ints that nonzero_terms describes, for a
    flat right factor b: one multiply-add per term, so a sparse matrix (a
    KZ residue has one nonzero per row) costs only its nonzeros."""
    out = [0] * size
    for o, k, x in terms:
        out[o] += x * b[k]
    return out


def faddeev_leverrier(a: list[int], n: int) -> list[int]:
    """c_0 .. c_n with det(xI - A) = sum_k c_k x^(n-k), for a flat n x n
    int matrix A, all in int: N_0 = I, c_k = -tr(A N_(k-1)) / k and
    N_k = A N_(k-1) + c_k I.  Every c_k is an integer, so each division by
    k is exact."""
    terms = nonzero_terms(a, n, n)
    diagonal = range(0, n * n, n + 1)
    coeffs = [1]
    adj = [int(i in diagonal) for i in range(n * n)]
    for k in range(1, n + 1):
        adj = nonzero_product(terms, adj, n * n)
        coeffs.append(-sum(adj[i] for i in diagonal) // k)
        for i in diagonal:
            adj[i] += coeffs[-1]
    return coeffs


def minimal_polynomial(a: list[int], n: int) -> list[int]:
    """c_0 .. c_d, low to high with c_d = 1, of the minimal polynomial of a
    flat n x n int matrix A: an integer, monic divisor of det(xI - A).

    Krylov on integers: each power A^k, formed from the last, is reduced
    against the echelon rows of I .. A^(k-1) by fraction-free (Bareiss)
    elimination, which tracks its combination of the powers and divides
    exactly by the previous pivot, so every value stays a minor.  The
    elimination reads the pivot columns only; the reduced row is then
    sum_t comb_t A^t, read column by column up to its first nonzero, the
    next pivot.  The first power that reduces to zero gives the relation
    sum_j c_j A^j = 0.  The cost is O(d^2 n^2) for degree d, plus d
    products with A's nonzeros."""
    terms = nonzero_terms(a, n, n)
    size = n * n
    powers = [[int(i % (n + 1) == 0) for i in range(size)]]
    pivots: list[int] = []
    # per echelon row: its values at the pivot columns, and its combination
    echelon: list[tuple[list[int], list[int]]] = []
    for k in count():
        if k:
            powers.append(nonzero_product(terms, powers[-1], size))
        row, comb = [powers[k][i] for i in pivots], [0] * k + [1]
        previous = 1
        for j, (top, top_comb) in enumerate(echelon):
            p, f = top[j], row[j]
            row = [(p * x - f * y) // previous for x, y in zip(row, top)]
            comb = [(p * x - f * y) // previous for x, y in zip_longest(comb, top_comb, fillvalue=0)]
            previous = p
        columns = enumerate(zip(*powers))
        pivot = next((i for i, column in columns if sum(map(mul, comb, column))), None)
        if pivot is None:
            return [c // comb[-1] for c in comb]
        column = [power[pivot] for power in powers]
        for top, top_comb in echelon:
            top.append(sum(map(mul, top_comb, column)))
        echelon.append((row + [sum(map(mul, comb, column))], comb))
        pivots.append(pivot)


def charpoly(a: FMatrix, scale: Fraction = Fraction(1)) -> Poly:
    """Monic characteristic polynomial of scale * a, for a Fraction matrix a:
    `flat_charpoly` of its cleared integers."""
    if a.rows != a.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    return flat_charpoly(*scaled(a, Fraction(scale)), a.rows)


def flat_charpoly(ints: list[int], den: int, n: int) -> Poly:
    """Monic characteristic polynomial of A / den, for a flat n x n int
    matrix A: Faddeev-LeVerrier runs on A, and det(xI - A / den) =
    sum_k c_k den^-k x^(n-k) is the only non-integer step."""
    coeffs = faddeev_leverrier(ints, n)
    return Poly([Fraction(c, den**k) for k, c in enumerate(coeffs)][::-1])
