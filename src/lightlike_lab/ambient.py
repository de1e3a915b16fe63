"""Flat semi-Euclidean ambient spaces and metallic structure endomorphisms.

A SignatureSpace is R^n with the diagonal bilinear form given by a
tuple of +1/-1 weights.  A structure endomorphism J is any matrix; the
validators below decide whether it satisfies the defining quadratic
relation J^2 = p J + q I and whether it is self-adjoint for the form,
reporting exact witnesses for every violated entry instead of a bare
boolean.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, NamedTuple, Tuple

from .errors import ShapeError, ValidationError
from .linalg import (
    Mat,
    Vec,
    identity,
    mat_mul,
    mat_vec,
)
from .records import Record
from .scalars import MetallicParams, QuadScalar


class SignatureSpace(Record):
    """R^n with the form <u, v> = sum_i eps_i u_i v_i, eps_i in {+1, -1}."""

    __slots__ = ("dim", "eps", "params")

    def __init__(self, dim: int, eps: Tuple[int, ...], params: MetallicParams) -> None:
        self._set(dim, eps, params)
        if self.dim < 1:
            raise ValidationError("ambient dimension must be positive")
        if len(self.eps) != self.dim:
            raise ShapeError(
                f"signature length {len(self.eps)} vs dimension {self.dim}"
            )
        for i, e in enumerate(self.eps):
            if e not in (1, -1) or isinstance(e, bool):
                raise ValidationError(f"signature entry {i} must be +1 or -1, got {e!r}")

    @property
    def index(self) -> int:
        """Number of negative directions."""
        return sum(1 for e in self.eps if e == -1)

    def inner(self, u: Vec, v: Vec) -> QuadScalar:
        """sum_i eps_i u_i v_i.  Each weight is +1 or -1, so a term is
        added or subtracted as it stands instead of being multiplied by
        the weight, and a term with a zero factor is skipped (exact sums
        do not depend on the zero terms they include)."""
        if len(u) != self.dim or len(v) != self.dim:
            raise ShapeError("vector length does not match ambient dimension")
        acc = QuadScalar.zero(self.params)
        for e, x, y in zip(self.eps, u, v):
            if x and y:
                acc = acc + x * y if e > 0 else acc - x * y
        return acc


class StructureDefect(NamedTuple):
    """One exact counterexample entry from a validator."""

    code: str
    row: int
    col: int
    got: QuadScalar
    expected: QuadScalar

    def message(self) -> str:
        return (
            f"{self.code} at ({self.row}, {self.col}): "
            f"got {self.got}, expected {self.expected}"
        )


def validate_metallic(
    matrix: Mat, params: MetallicParams
) -> Tuple[bool, List[StructureDefect]]:
    """Check J^2 = p J + q I entry by entry."""
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ShapeError("structure matrix must be square and nonempty")
    square = mat_mul(matrix, matrix)
    ident = identity(n, params)
    defects = []
    for i in range(n):
        for j in range(n):
            expected = params.p * matrix[i][j] + params.q * ident[i][j]
            if square[i][j] != expected:
                defects.append(
                    StructureDefect("quadratic-relation", i, j, square[i][j], expected)
                )
    return (not defects, defects)


def validate_compatibility(
    space: SignatureSpace, matrix: Mat
) -> Tuple[bool, List[StructureDefect]]:
    """Check <J e_i, e_j> = <e_i, J e_j> for all basis pairs.

    For the diagonal form this is the symmetry of eps_i * J_ij.
    """
    n = space.dim
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ShapeError("structure matrix does not match ambient dimension")
    defects = []
    for i in range(n):
        for j in range(n):
            left = space.eps[j] * matrix[j][i]  # <J e_i, e_j>
            right = space.eps[i] * matrix[i][j]  # <e_i, J e_j>
            if left != right:
                defects.append(StructureDefect("self-adjointness", i, j, left, right))
    return (not defects, defects)


class MetallicStructure(Record):
    """A validated-or-not structure endomorphism attached to its space.
    Each validator runs once per structure; the check entries and every
    point's gate read the kept results."""

    __slots__ = ("space", "matrix", "__dict__")

    def __init__(self, space: SignatureSpace, matrix: Mat) -> None:
        self._set(space, matrix)
        n = self.space.dim
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise ShapeError("structure matrix does not match ambient dimension")

    def apply(self, v: Vec) -> Vec:
        return mat_vec(self.matrix, v)

    @cached_property
    def quadratic(self) -> Tuple[bool, List[StructureDefect]]:
        return validate_metallic(self.matrix, self.space.params)

    @cached_property
    def compatibility(self) -> Tuple[bool, List[StructureDefect]]:
        return validate_compatibility(self.space, self.matrix)

    def validate(self) -> Tuple[bool, List[StructureDefect]]:
        ok1, d1 = self.quadratic
        ok2, d2 = self.compatibility
        return (ok1 and ok2, d1 + d2)
