"""Dense exact linear algebra over QuadScalar.

Everything is small (ambient dimension stays in single digits), so the
implementation favors transparency: plain tuples and Gauss-Jordan
elimination with deterministic first-nonzero pivoting.  Division is
exact in the scalar field, so elimination is too.

A basis that many vectors are split against is eliminated once:
FactoredBasis reduces [B^T | I] and keeps the row transform, so the
coordinates of each further vector are one matrix-vector product plus a
residual test, and a projection onto some of the basis vectors along
the rest is one precomputed matrix.

A span is kept as primitive rows (PrimitiveRows), the one span type:
each vector times the lcm of its denominators has entries in Z, or in
Z[sigma] when an entry has a sigma part (RowRing).  Their Gauss-Jordan
divides no entry but by a row's content, and each reduced row is a
nonzero multiple of the canonical one, so the canonical reduced-echelon
basis that rref gives is one division per entry, made on first use.
Membership is one forward reduction against the rows.  A list that
grows one vector at a time stays open in RowElimination, so each
independence test is one forward reduction of the new vector.
Nondegeneracy over these rings is a Bareiss determinant test, exact at
every step.

Matrix products skip every term with a zero factor, and every
elimination skips the zero entries of its pivot row when it scales that
row and subtracts it from the others.  Exact sums do not depend on which
zero terms they include, so the skipped terms change no value; they only
save the scalar products, which dominate on the identity-heavy, diagonal
and two-entry operands the generators build.
"""

from __future__ import annotations

from math import gcd as _gcd, lcm as _lcm
from operator import mul as _mul
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import NotInSpan, ShapeError
from .scalars import MetallicParams, QuadScalar, _make, _reduced

Vec = Tuple[QuadScalar, ...]
Mat = Tuple[Vec, ...]


def as_scalar(value: object, params: MetallicParams) -> QuadScalar:
    if isinstance(value, QuadScalar):
        return value
    return QuadScalar(value, 0, params)  # type: ignore[arg-type]


def as_vec(entries: Iterable[object], params: MetallicParams) -> Vec:
    return tuple(as_scalar(e, params) for e in entries)


def as_mat(rows: Iterable[Iterable[object]], params: MetallicParams) -> Mat:
    mat = tuple(as_vec(row, params) for row in rows)
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise ShapeError("ragged rows")
    return mat


def zero_vec(n: int, params: MetallicParams) -> Vec:
    z = QuadScalar.zero(params)
    return tuple(z for _ in range(n))


def is_zero_vec(u: Vec) -> bool:
    return all(not x for x in u)


def vec_add(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise ShapeError(f"length {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise ShapeError(f"length {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c: QuadScalar, u: Vec) -> Vec:
    return tuple(c * a for a in u)


def vec_neg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def lin_comb(coeffs: Sequence[QuadScalar], vectors: Sequence[Vec]) -> Vec:
    if len(coeffs) != len(vectors):
        raise ShapeError("coefficient count does not match vector count")
    if not vectors:
        raise ShapeError("empty combination needs an explicit ambient")
    acc = zero_vec(len(vectors[0]), coeffs[0].params if coeffs else vectors[0][0].params)
    for c, v in zip(coeffs, vectors):
        acc = vec_add(acc, vec_scale(c, v))
    return acc


def mat_add(a: Mat, b: Mat) -> Mat:
    if len(a) != len(b):
        raise ShapeError(f"height {len(a)} vs {len(b)}")
    return tuple(map(vec_add, a, b))


def mat_sub(a: Mat, b: Mat) -> Mat:
    if len(a) != len(b):
        raise ShapeError(f"height {len(a)} vs {len(b)}")
    return tuple(map(vec_sub, a, b))


def identity(n: int, params: MetallicParams) -> Mat:
    one = QuadScalar.one(params)
    zero = QuadScalar.zero(params)
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


def mat_vec(a: Mat, x: Vec) -> Vec:
    if not a:
        return ()
    if len(a[0]) != len(x):
        raise ShapeError(f"matrix width {len(a[0])} vs vector length {len(x)}")
    if not x:
        raise ShapeError("cannot apply a width-zero matrix")
    zero = x[0] * 0
    support = [(k, s) for k, s in enumerate(x) if s]
    return tuple(
        sum((row[k] * s for k, s in support if row[k]), start=zero) for row in a
    )


def mat_mul(a: Mat, b: Mat) -> Mat:
    if not a or not b:
        return ()
    if len(a[0]) != len(b):
        raise ShapeError(f"inner dimensions {len(a[0])} vs {len(b)}")
    zero = a[0][0] * 0
    width = len(b[0])
    b_support = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [zero] * width
        for x, support in zip(row, b_support):
            if x:
                for j, y in support:
                    acc[j] = acc[j] + x * y
        out.append(tuple(acc))
    return tuple(out)


def _reduce(rows: List[List[QuadScalar]], limit: int) -> Tuple[int, ...]:
    """Gauss-Jordan in place, pivoting only in the first ``limit`` columns.

    Pivoting is deterministic: first row with a nonzero entry in the
    current column.  Exact arithmetic makes stability a non-issue.
    """
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(limit):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * x if x else x for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(pivots)


def rref(a: Mat) -> Tuple[Mat, Tuple[int, ...]]:
    """Reduced row echelon form with the pivot column indices."""
    if not a:
        return (), ()
    rows = [list(r) for r in a]
    pivots = _reduce(rows, len(rows[0]))
    return tuple(tuple(row) for row in rows), pivots


def rank(a: Mat) -> int:
    return len(rref(a)[1])


def null_space(a: Mat, ncols: int, params: MetallicParams) -> Tuple[Vec, ...]:
    """Basis of the kernel in echelon-parameter form, one vector per free column."""
    if a and len(a[0]) != ncols:
        raise ShapeError(f"declared width {ncols} vs rows of width {len(a[0])}")
    reduced, pivots = rref(a)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    one = QuadScalar.one(params)
    zero = QuadScalar.zero(params)
    basis = []
    for fc in free_cols:
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(tuple(v))
    return tuple(basis)


def det(a: Mat) -> QuadScalar:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ShapeError("determinant of a non-square matrix")
    if n == 0:
        raise ShapeError("determinant of an empty matrix")
    params = a[0][0].params
    rows = [list(r) for r in a]
    result = QuadScalar.one(params)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot_row is None:
            return QuadScalar.zero(params)
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            result = -result
        result = result * rows[c][c]
        inv = rows[c][c].inverse()
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], rows[c])]
    return result


def invert(a: Mat) -> Optional[Mat]:
    """Inverse matrix, or None when singular."""
    n = len(a)
    if n == 0 or any(len(row) != n for row in a):
        raise ShapeError("inverse needs a nonempty square matrix")
    params = a[0][0].params
    augmented = tuple(row + ident_row for row, ident_row in zip(a, identity(n, params)))
    reduced, pivots = rref(augmented)
    if tuple(pivots) != tuple(range(n)):
        return None
    return tuple(row[n:] for row in reduced)


class RowRing:
    """The ring that primitive rows take their entries from.

    A vector over Q(sigma) times the lcm d of its denominators has its
    entries in Z[sigma], and in Z when every entry is rational.  Over Z
    the entries are ints; over Z[sigma] they are QuadScalars with D = 1,
    which sums and products keep.  The two rings differ only in the
    content (the gcd of every integer coefficient of a row), in exact
    division, and in turning an entry over a denominator back into a
    QuadScalar; every elimination below is written once for both.
    """

    __slots__ = ("params", "sigma", "zero", "one")

    def __init__(self, params: MetallicParams, sigma: bool) -> None:
        self.params = params
        self.sigma = sigma
        self.zero = QuadScalar.zero(params) if sigma else 0
        self.one = QuadScalar.one(params) if sigma else 1

    @classmethod
    def over(cls, params: MetallicParams, *groups: Iterable[Vec]) -> "RowRing":
        """Z[sigma] when an entry of the vectors carries sigma, else Z."""
        return cls(params, any(x.B for vectors in groups for v in vectors for x in v))

    def clear(self, v: Vec) -> Tuple[list, int]:
        """v times the lcm d of its denominators, as a ring row, and d."""
        d = _lcm(*(x.D for x in v))
        if self.sigma:
            params = self.params
            return [_make(x.A * (d // x.D), x.B * (d // x.D), 1, params) for x in v], d
        if d == 1:
            return [x.A for x in v], d
        return [x.A * (d // x.D) for x in v], d

    def primitive(self, row: list) -> list:
        """The row divided by its content; a zero row as it is."""
        if self.sigma:
            g = _gcd(*(x.A for x in row), *(x.B for x in row))
            if g < 2:
                return row
            params = self.params
            return [_make(x.A // g, x.B // g, 1, params) for x in row]
        g = _gcd(*row)
        return row if g < 2 else [x // g for x in row]

    def quotient(self, x, y):
        """x / y where y divides x in the ring."""
        return x / y if self.sigma else x // y

    def ratio(self, x, d: int) -> QuadScalar:
        """The QuadScalar x / d, for an entry x and a positive integer d."""
        if self.sigma:
            return _reduced(x.A, x.B, d, self.params)
        g = _gcd(x, d)
        return _make(x // g, 0, d // g, self.params)

    def canonical(self, row: Sequence, pivot: int) -> Vec:
        """The row scaled to 1 at its pivot (positive there over Z)."""
        a = row[pivot]
        if self.sigma:
            inv = a.inverse()
            return tuple(x * inv for x in row)
        params = self.params
        zero = _make(0, 0, 1, params)
        if a == 1:
            return tuple([_make(x, 0, 1, params) if x else zero for x in row])
        out = []
        for x in row:
            if x:
                g = _gcd(x, a)
                out.append(_make(x // g, 0, a // g, params))
            else:
                out.append(zero)
        return tuple(out)

    def gram(
        self, eps: Sequence[int], rows: Sequence, other: Optional[Sequence] = None
    ) -> List[list]:
        """Inner products sum_i eps_i u_i v_i of the rows with the rows of
        other; without other, the symmetric matrix of the rows, one
        triangle computed."""
        n = len(rows)
        zero = self.zero
        flipped = [[-x if e < 0 else x for e, x in zip(eps, u)] for u in rows]
        if other is not None:
            return [[sum(map(_mul, u, v), zero) for v in other] for u in flipped]
        out = [[None] * n for _ in range(n)]
        for i, u in enumerate(flipped):
            for j in range(i, n):
                out[i][j] = out[j][i] = sum(map(_mul, u, rows[j]), zero)
        return out

    def kernel_image(self, pairing: Sequence, rows: Sequence, width: int) -> "PrimitiveRows":
        """rows^T ker(pairing): the span of the rows sum_k y_k rows[k]
        over the primitive kernel vectors y of the pairing matrix."""
        spanning = []
        for y in PrimitiveRows.span(self, pairing, len(rows)).kernel():
            v = [self.zero] * width
            for y_k, u in zip(y, rows):
                if y_k:
                    v = [x + y_k * z if z else x for x, z in zip(v, u)]
            spanning.append(v)
        return PrimitiveRows.span(self, spanning, width)

    def nonsingular(self, a: Sequence[Sequence]) -> bool:
        """det(a) != 0, by Bareiss elimination (Bareiss 1968): each entry
        left is a minor of a, so every division is exact in the ring."""
        rows = [list(row) for row in a]
        prev = self.one
        quotient = self.quotient
        while rows:
            pivot_row = next((i for i, row in enumerate(rows) if row[0]), None)
            if pivot_row is None:
                return False
            top = rows.pop(pivot_row)
            p = top[0]
            rows = [
                [quotient(p * x - row[0] * y, prev) for x, y in zip(row[1:], top[1:])]
                for row in rows
            ]
            prev = p
        return True


def _eliminate(rows: Sequence[Sequence], pivots: Sequence[int], v: Sequence) -> list:
    """v reduced against rows in order, each nonzero at its pivot and zero
    at the pivots of the rows before it: a nonzero multiple of v minus a
    combination of the rows, zero at every pivot, and zero exactly when
    v lies in their span."""
    w = v
    for row, p in zip(rows, pivots):
        f = w[p]
        if f:
            a = row[p]
            w = [a * x - f * y if y else a * x for x, y in zip(w, row)]
    return list(w)


class PrimitiveRows:
    """A span kept as primitive ring rows in reduced echelon form.

    Row i is a nonzero multiple of the canonical reduced row i of the
    span (a positive one over Z): nonzero at its pivot and zero at every
    other pivot, with content 1.  span() is Gauss-Jordan with the
    first-nonzero pivot rule of rref, but it divides no entry: a row r is
    replaced by a r - f t against the pivot row t, and then divided by
    its content.  Each row stays a nonzero multiple of the row rref holds
    at the same step, so the pivots and zero patterns are those of rref,
    and basis, the canonical rows over Q(sigma), takes one division per
    entry and no further elimination, on first use.
    """

    __slots__ = ("ring", "rows", "pivots", "width", "_basis")

    def __init__(
        self, ring: RowRing, rows: Sequence[Sequence], pivots: Sequence[int], width: int
    ) -> None:
        self.ring = ring
        self.rows = tuple(rows)
        self.pivots = tuple(pivots)
        self.width = width
        self._basis: Optional[Mat] = None

    @classmethod
    def span(cls, ring: RowRing, spanning: Sequence[Sequence], width: int) -> "PrimitiveRows":
        """The reduced rows of the span of ring rows of the given width."""
        primitive = ring.primitive
        rows = [primitive(list(v)) for v in spanning]
        nrows = len(rows)
        pivots = []
        r = 0
        for c in range(width):
            if r == nrows:
                break
            for i in range(r, nrows):
                if rows[i][c]:
                    break
            else:
                continue
            top = rows[i]
            if top[c] < 0:
                # later steps scale this row by positive pivots only
                top = [-x for x in top]
            rows[i] = rows[r]
            rows[r] = top
            a = top[c]
            for i in range(nrows):
                row = rows[i]
                f = row[c]
                if f and i != r:
                    rows[i] = primitive(
                        [a * x - f * y if y else a * x for x, y in zip(row, top)]
                    )
            pivots.append(c)
            r += 1
        return cls(ring, rows[:r], pivots, width)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> Mat:
        """The canonical reduced-echelon basis over Q(sigma), the one rref
        gives: each row divided by its pivot entry, made once."""
        if self._basis is None:
            canonical = self.ring.canonical
            self._basis = tuple(canonical(row, p) for row, p in zip(self.rows, self.pivots))
        return self._basis

    def contains(self, v: Sequence) -> bool:
        """Whether v, a ring row or a vector over Q(sigma), is in the span."""
        if len(v) != self.width:
            raise ShapeError("vector length does not match ambient dimension")
        return not any(_eliminate(self.rows, self.pivots, v))

    def pick(self, indices: Iterable[int]) -> "PrimitiveRows":
        """The span of the rows at the given indices, already reduced."""
        picked = sorted(indices)
        return PrimitiveRows(
            self.ring,
            [self.rows[i] for i in picked],
            [self.pivots[i] for i in picked],
            self.width,
        )

    def kernel(self) -> List[list]:
        """{y : row . y = 0 for every row}, one primitive vector per free
        column f: 1 at f and -row[f] / row[pivot] at each pivot, times
        the product of the pivot entries it divides by."""
        ring = self.ring
        pivot_set = set(self.pivots)
        out = []
        for f in range(self.width):
            if f in pivot_set:
                continue
            used = [(row[p], row[f], p) for row, p in zip(self.rows, self.pivots) if row[f]]
            scale = ring.one
            for a, _, _ in used:
                scale = scale * a
            y = [ring.zero] * self.width
            y[f] = scale
            for a, b, p in used:
                y[p] = -b * ring.quotient(scale, a)
            out.append(ring.primitive(y))
        return out

    def complement(self, eps: Sequence[int]) -> "PrimitiveRows":
        """The vectors orthogonal to the span for diag(eps): x = diag(eps) y
        for y in the kernel, which is read off the pivots."""
        flipped = [[-x if e < 0 else x for e, x in zip(eps, y)] for y in self.kernel()]
        return PrimitiveRows.span(self.ring, flipped, self.width)


class RowElimination:
    """An independent list of ring rows kept in echelon form while it
    grows.  Each kept row is nonzero at its pivot and zero at the pivots
    of the rows kept before it, so a forward pass decides each
    independence test, and no entry is divided but by a row's content."""

    __slots__ = ("ring", "rows", "pivots")

    def __init__(self, seed: PrimitiveRows) -> None:
        self.ring = seed.ring
        self.rows: List[Sequence] = list(seed.rows)
        self.pivots: List[int] = list(seed.pivots)

    def reduce(self, v: Sequence) -> list:
        """A nonzero multiple of v minus its components along the kept
        rows; zero iff v is in their span."""
        return _eliminate(self.rows, self.pivots, v)

    def keep(self, residual: list) -> None:
        """Append a nonzero residual returned by reduce() as a new row."""
        self.pivots.append(next(i for i, x in enumerate(residual) if x))
        self.rows.append(self.ring.primitive(residual))

    def extend(self, v: Sequence) -> bool:
        """Keep v when it is independent of the rows; report whether it was."""
        residual = self.reduce(v)
        if not any(residual):
            return False
        self.keep(residual)
        return True


class FactoredBasis:
    """A list of vectors eliminated once, for many coordinate reads.

    [B^T | I] is reduced with pivots taken only among the basis columns,
    which leaves a transform E with E B^T in reduced echelon form.  The
    rows of E at the pivots give the coordinates of v as one product
    E v; the remaining rows vanish on v exactly when v lies in the span.
    Coordinates of non-pivot (dependent) vectors are zero.
    """

    __slots__ = ("basis", "ambient_dim", "pivots", "_coord_rows", "_residual_rows", "_zero")

    def __init__(
        self, basis: Sequence[Vec], ambient_dim: int, params: MetallicParams
    ) -> None:
        self.basis: Mat = tuple(basis)
        for v in self.basis:
            if len(v) != ambient_dim:
                raise ShapeError(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        self.ambient_dim = ambient_dim
        k = len(self.basis)
        one = QuadScalar.one(params)
        self._zero = QuadScalar.zero(params)
        rows = [
            [v[i] for v in self.basis]
            + [one if i == j else self._zero for j in range(ambient_dim)]
            for i in range(ambient_dim)
        ]
        self.pivots = _reduce(rows, k)
        r = len(self.pivots)
        self._coord_rows: Mat = tuple(tuple(row[k:]) for row in rows[:r])
        self._residual_rows: Mat = tuple(tuple(row[k:]) for row in rows[r:])

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def coords(self, v: Vec) -> Vec:
        """Coefficients c with sum_i c_i basis[i] = v, else NotInSpan."""
        if len(v) != self.ambient_dim:
            raise ShapeError("vector length does not match ambient dimension")
        if not is_zero_vec(mat_vec(self._residual_rows, v)):
            raise NotInSpan("vector is outside the span of the basis")
        values = mat_vec(self._coord_rows, v)
        if len(values) == len(self.basis):
            return values  # independent list: every column is a pivot
        out = [self._zero] * len(self.basis)
        for p, x in zip(self.pivots, values):
            out[p] = x
        return tuple(out)

    def coordinate_map(self, indices: Iterable[int]) -> Mat:
        """Matrix of v -> (coords(v)_i for i in indices), for v in the
        span; a dependent basis vector's row is zero."""
        rows = dict(zip(self.pivots, self._coord_rows))
        zero = (self._zero,) * self.ambient_dim
        return tuple(rows.get(i, zero) for i in indices)

    def projector(self, indices: Iterable[int]) -> Mat:
        """Matrix of v -> sum_{i in indices} coords(v)_i basis[i], for v
        in the span: the projection onto those basis vectors along the
        others."""
        indices = tuple(indices)
        if not indices:
            return tuple(
                (self._zero,) * self.ambient_dim for _ in range(self.ambient_dim)
            )
        vectors = tuple(self.basis[i] for i in indices)
        return mat_mul(transpose(vectors), self.coordinate_map(indices))


def factor_system(a: Mat, params: MetallicParams) -> FactoredBasis:
    """The columns of a, factored once: coords(b) solves a x = b."""
    return FactoredBasis(transpose(a), len(a), params)
