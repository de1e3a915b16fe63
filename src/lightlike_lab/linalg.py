"""Dense exact linear algebra over QuadScalar.

Everything is small (ambient dimension stays in single digits), so the
implementation favors transparency: plain tuples and Gauss-Jordan
elimination with deterministic first-nonzero pivoting.  Division is
exact in the scalar field, so elimination is too.

A basis that many vectors are split against is eliminated once:
FactoredBasis reduces [B^T | I] and keeps the row transform, so the
coordinates of each further vector are one matrix-vector product plus a
residual test, and a projection onto some of the basis vectors along
the rest is one precomputed matrix.  Subspace keeps its canonical
reduced-echelon basis with its pivot columns, so membership reads the
coordinates off those columns instead of eliminating again.  A list
that grows one vector at a time stays open in OpenElimination, so each
independence test is one forward reduction of the new vector.

Matrix products skip every term with a zero factor, and every
elimination skips the zero entries of its pivot row when it scales that
row and subtracts it from the others.  Exact sums do not depend on which
zero terms they include, so the skipped terms change no value; they only
save the scalar products, which dominate on the identity-heavy, diagonal
and two-entry operands the generators build.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import NotInSpan, ShapeError
from .scalars import MetallicParams, QuadScalar

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


class Subspace:
    """Linear subspace with a canonical reduced-echelon basis.

    Two Subspace objects compare equal exactly when they are the same
    subspace: the canonical basis is unique.
    """

    __slots__ = ("ambient_dim", "params", "basis", "pivots")

    def __init__(
        self,
        spanning: Sequence[Vec],
        ambient_dim: int,
        params: MetallicParams,
    ) -> None:
        for v in spanning:
            if len(v) != ambient_dim:
                raise ShapeError(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        self.ambient_dim = ambient_dim
        self.params = params
        reduced, pivots = rref(tuple(spanning))
        self.basis: Mat = tuple(reduced[r] for r in range(len(pivots)))
        self.pivots: Tuple[int, ...] = pivots

    @property
    def dim(self) -> int:
        return len(self.basis)

    def span_of_rows(self, indices: Iterable[int]) -> "Subspace":
        """The span of the basis rows at the given indices.

        Each basis row is 1 at its own pivot and 0 at every other pivot,
        so any of the rows, kept in pivot order, are already the
        canonical basis of their span and nothing is eliminated.
        """
        picked = sorted(indices)
        out = object.__new__(Subspace)
        out.ambient_dim = self.ambient_dim
        out.params = self.params
        out.basis = tuple(self.basis[i] for i in picked)
        out.pivots = tuple(self.pivots[i] for i in picked)
        return out

    def contains(self, v: Vec) -> bool:
        if len(v) != self.ambient_dim:
            raise ShapeError("vector length does not match ambient dimension")
        # Basis row i is 1 at pivot i and 0 at every other pivot, so the
        # only candidate coordinates are v's own pivot entries, and the
        # combination they give matches v at every pivot by construction.
        # Only the other entries are compared, each summed over the
        # picked rows that are nonzero there.
        picked = [(v[p], row) for p, row in zip(self.pivots, self.basis) if v[p]]
        if not picked:
            return is_zero_vec(v)
        pivots = set(self.pivots)
        for k, x in enumerate(v):
            if k in pivots:
                continue
            total = None
            for c, row in picked:
                if row[k]:
                    term = c * row[k]
                    total = term if total is None else total + term
            if total is None:
                if x:
                    return False
            elif total != x:
                return False
        return True

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace(self.basis + other.basis, self.ambient_dim, self.params)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Kernel construction: coefficients (a, b) with a.U = b.V."""
        self._check_compatible(other)
        r, s = self.dim, other.dim
        if r == 0 or s == 0:
            return Subspace((), self.ambient_dim, self.params)
        columns = tuple(
            tuple(self.basis[i][row] for i in range(r))
            + tuple(-other.basis[j][row] for j in range(s))
            for row in range(self.ambient_dim)
        )
        kernel = null_space(columns, r + s, self.params)
        vectors = [
            lin_comb(k[:r], self.basis) for k in kernel
        ]
        return Subspace(tuple(vectors), self.ambient_dim, self.params)

    def _check_compatible(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ShapeError("subspaces live in different ambient dimensions")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


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


class OpenElimination:
    """An independent list kept in echelon form while it grows.

    Each kept row is 1 at its pivot and 0 at the pivots of the rows
    kept before it.  Reducing a vector against the rows in the order
    they were kept leaves it 0 at every pivot, and a nonzero combination
    of the rows is nonzero at the pivot of the earliest row it uses, so the
    residual vanishes exactly when the vector lies in the span: one
    forward pass per candidate instead of eliminating the stacked list.
    It starts from a Subspace, whose reduced basis already has this form.
    """

    __slots__ = ("rows", "pivots")

    def __init__(self, seed: Subspace) -> None:
        self.rows: List[Vec] = list(seed.basis)
        self.pivots: List[int] = list(seed.pivots)

    def reduce(self, v: Vec) -> Vec:
        """v minus its components along the kept rows; zero iff v is in their span."""
        w = v
        for row, p in zip(self.rows, self.pivots):
            f = w[p]
            if f:
                w = tuple(x - f * y if y else x for x, y in zip(w, row))
        return w

    def keep(self, residual: Vec) -> None:
        """Append a nonzero residual returned by reduce() as a new row."""
        c = next(i for i, x in enumerate(residual) if x)
        inv = residual[c].inverse()
        self.rows.append(tuple(inv * x if x else x for x in residual))
        self.pivots.append(c)

    def extend(self, v: Vec) -> bool:
        """Keep v when it is independent of the rows; report whether it was."""
        residual = self.reduce(v)
        if is_zero_vec(residual):
            return False
        self.keep(residual)
        return True


def factor_system(a: Mat, params: MetallicParams) -> FactoredBasis:
    """The columns of a, factored once: coords(b) solves a x = b."""
    return FactoredBasis(transpose(a), len(a), params)
