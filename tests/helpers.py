"""Helpers only the tests use: polynomial text, a linear solve, and
frame vectors assembled one at a time.

parse_polynomial reads the text Polynomial.to_string writes, so tests
can state immersions as 'u1 + s*u2' instead of exponent dictionaries.
solve returns one solution of a linear system through a plain rref,
an oracle independent of the factored bases the package splits with.
as_mat, null_space, det and invert are the dense Q(sigma) references
the package's factored systems and Bareiss tests are held to; det is
its own forward elimination, apart from rref.  gram_matrix, conjugate,
field_norm, constant_term and assemble are the reference reads of a
space, a scalar, a polynomial and a full split that the runtime never
needs.
hl_vector, rad_vector, apply_structure_field, project, the Weingarten
and star-form splits and metric_deviation rebuild, one vector at a
time, what the package reads in slot coordinates: the per-vector
oracles in pair_loops.py and criterion_loops.py are written in them,
and project applies the projector matrix that operator_reference.py
composes for a ProjectorSet.
isometry_inverse builds the full inverse matrix of a signature isometry,
which the nonexistence audit never builds, and candidate_quads reads an
audit candidate's integer directions back as QuadScalar vectors.
Subspace, a Q(sigma) span held in the canonical basis rref gives, and
subspace_sum, intersect, orthogonal_complement and OpenElimination are
the Q(sigma) span operations that the package does over primitive rows
(linalg.PrimitiveRows); the reference builds in frame_reference.py and
projector_reference.py, and the tests that hold the primitive-row
operations to them, are written in them.  primitive_rows clears a
Subspace into rows, one_ring clears several into one ring, screen_rows
runs the package's screen choice on Subspaces, as_subspace rebuilds
primitive rows as a Subspace with rref, and span_fields reads either
span type as the fields a comparison needs.
singular_structure_context puts a singular structure on a generated
p = 0 scene point, sending each slot vector where radical_onto_ltr or
screen_kept says, so the rank half of each configuration clause can be
tested on its own.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from lightlike_lab.ambient import MetallicStructure, SignatureSpace
from lightlike_lab.classifier import NullDualCandidate, PointContext, ProjectorSet
from lightlike_lab.errors import ParseError, ShapeError
from lightlike_lab.generators import perturbed_structured_scene
from lightlike_lab.geometry import (
    AmbientJet,
    FullSplit,
    TangentJet,
    derive,
    full_split,
    gauss_split,
    pairing_gradient,
    split_tangent,
)
from lightlike_lab.linalg import (
    Mat,
    PrimitiveRows,
    RowRing,
    Vec,
    as_vec,
    identity,
    is_zero_vec,
    lin_comb,
    mat_mul,
    mat_vec,
    rref,
    transpose,
    vec_add,
    vec_neg,
    vec_scale,
    zero_vec,
)
from lightlike_lab.polynomials import Polynomial
from lightlike_lab.scalars import MetallicParams, QuadScalar
from lightlike_lab.submanifold import AdaptedFrame, _screen_rows


def power(f: Polynomial, exponent: int) -> Polynomial:
    """f multiplied by itself exponent times."""
    if exponent < 0:
        raise ShapeError("negative polynomial power")
    result = Polynomial.constant(1, f.nvars, f.params)
    for _ in range(exponent):
        result = result * f
    return result


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<var>u\d+)|(?P<sym>s)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError(f"bad character at offset {pos} in {text!r}")
            break
        if m.group("num"):
            tokens.append(("num", int(m.group("num"))))
        elif m.group("var"):
            tokens.append(("var", int(m.group("var")[1:]) - 1))
        elif m.group("sym"):
            tokens.append(("sym", "s"))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, nvars: int, params: MetallicParams):
        self.tokens = tokens
        self.pos = 0
        self.nvars = nvars
        self.params = params

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of polynomial text")
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        tok = self.take()
        if tok != ("op", op):
            raise ParseError(f"expected {op!r}, got {tok!r}")

    def parse(self) -> Polynomial:
        result = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing tokens from {self.peek()!r}")
        return result

    def expr(self) -> Polynomial:
        value = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            _, op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Polynomial:
        value = self.factor()
        while self.peek() == ("op", "*"):
            self.take()
            value = value * self.factor()
        return value

    def factor(self) -> Polynomial:
        negate = False
        while self.peek() == ("op", "-"):
            self.take()
            negate = not negate
        value = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            tok = self.take()
            if tok[0] != "num":
                raise ParseError(f"exponent must be a literal, got {tok!r}")
            value = power(value, tok[1])
        return -value if negate else value

    def atom(self) -> Polynomial:
        tok = self.take()
        kind, payload = tok
        if kind == "num":
            numer = payload
            if self.peek() == ("op", "/"):
                self.take()
                den_tok = self.take()
                if den_tok[0] != "num" or den_tok[1] == 0:
                    raise ParseError(f"bad denominator {den_tok!r}")
                return Polynomial.constant(
                    Fraction(numer, den_tok[1]), self.nvars, self.params
                )
            return Polynomial.constant(numer, self.nvars, self.params)
        if kind == "sym":
            return Polynomial.constant(
                QuadScalar.sigma(self.params), self.nvars, self.params
            )
        if kind == "var":
            if not 0 <= payload < self.nvars:
                raise ParseError(
                    f"variable u{payload + 1} out of range for {self.nvars} variables"
                )
            return Polynomial.variable(payload, self.nvars, self.params)
        if tok == ("op", "("):
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {tok!r}")


def parse_polynomial(text: str, nvars: int, params: MetallicParams) -> Polynomial:
    if not isinstance(text, str):
        raise ParseError(f"expected polynomial text, got {type(text).__name__}")
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    return _Parser(tokens, nvars, params).parse()


def as_mat(rows: Iterable[Iterable[object]], params: MetallicParams) -> Mat:
    mat = tuple(as_vec(row, params) for row in rows)
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise ShapeError("ragged rows")
    return mat


def null_space(a: Mat, ncols: int, params: MetallicParams) -> Tuple[Vec, ...]:
    """Basis of the kernel in echelon-parameter form, one vector per free column."""
    if a and len(a[0]) != ncols:
        raise ShapeError(f"declared width {ncols} vs rows of width {len(a[0])}")
    reduced, pivots = rref(a)
    pivot_set = set(pivots)
    one = QuadScalar.one(params)
    zero = QuadScalar.zero(params)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_set):
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(tuple(v))
    return tuple(basis)


def det(a: Mat) -> QuadScalar:
    """Determinant by forward elimination, its own loop apart from rref."""
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
    """Inverse matrix through rref of [a | I], or None when singular."""
    n = len(a)
    if n == 0 or any(len(row) != n for row in a):
        raise ShapeError("inverse needs a nonempty square matrix")
    params = a[0][0].params
    augmented = tuple(row + ident_row for row, ident_row in zip(a, identity(n, params)))
    reduced, pivots = rref(augmented)
    if tuple(pivots) != tuple(range(n)):
        return None
    return tuple(row[n:] for row in reduced)


def gram_matrix(space: SignatureSpace, vectors: Sequence[Vec]) -> Mat:
    """Symmetric matrix of the inner products of the vectors."""
    return tuple(tuple(space.inner(u, v) for v in vectors) for u in vectors)


def conjugate(x: QuadScalar) -> QuadScalar:
    """Image under sigma -> p - sigma, the other root of the defining relation."""
    return QuadScalar(x.a + x.b * x.params.p, -x.b, x.params)


def field_norm(x: QuadScalar) -> Fraction:
    """x * conjugate(x) = a^2 + a b p - b^2 q, always rational."""
    a, b, params = x.a, x.b, x.params
    return a * a + a * b * params.p - b * b * params.q


def constant_term(f: Polynomial) -> QuadScalar:
    return f.terms.get((0,) * f.nvars, QuadScalar.zero(f.params))


def assemble(parts: FullSplit, frame: AdaptedFrame) -> Vec:
    """tangent + sum_i ltr_coeffs[i] N_i + normal_screen."""
    acc = parts.tangent
    for c, n in zip(parts.ltr_coeffs, frame.ltr):
        acc = vec_add(acc, vec_scale(c, n))
    return vec_add(acc, parts.normal_screen)


def solve(a: Mat, b: Vec) -> Optional[Vec]:
    """One solution of a x = b with free variables set to zero, or None."""
    if len(a) != len(b):
        raise ShapeError(f"matrix height {len(a)} vs rhs length {len(b)}")
    if not a:
        return ()
    ncols = len(a[0])
    params = b[0].params if b else a[0][0].params
    augmented = tuple(row + (rhs,) for row, rhs in zip(a, b))
    reduced, pivots = rref(augmented)
    if pivots and pivots[-1] == ncols:
        return None  # a pivot in the rhs column: inconsistent system
    zero = QuadScalar.zero(params)
    x = [zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][ncols]
    return tuple(x)


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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def primitive_rows(ring: RowRing, sub: Subspace) -> PrimitiveRows:
    """sub's canonical basis cleared of denominators.  A cleared row is
    d > 0 at its pivot and zero at the other pivots, and its content is 1
    (a prime at its full power in d divides a reduced denominator, so not
    that entry's numerator), so nothing is eliminated."""
    return PrimitiveRows(ring, [ring.clear(v)[0] for v in sub.basis], sub.pivots, sub.ambient_dim)


def one_ring(params: MetallicParams, *subs: Subspace) -> Tuple[PrimitiveRows, ...]:
    """Each Subspace cleared into the one ring of all their bases, as
    build_frame hands its spans to construct_ltr."""
    ring = RowRing.over(params, *(sub.basis for sub in subs))
    return tuple(primitive_rows(ring, sub) for sub in subs)


def span_fields(span) -> tuple:
    """A Subspace or PrimitiveRows as its canonical basis, down to each
    scalar's (A, B, D) triple and parameters, its pivots, its width and
    its parameters: equal exactly when the two carry the same basis."""
    basis = tuple(tuple((x.A, x.B, x.D, x.params) for x in v) for v in span.basis)
    if isinstance(span, Subspace):
        return basis, span.pivots, span.ambient_dim, span.params
    return basis, span.pivots, span.width, span.ring.params


def as_subspace(rows: PrimitiveRows) -> Subspace:
    """The reference Subspace that rref makes of the rows' canonical basis."""
    return Subspace(rows.basis, rows.width, rows.ring.params)


def screen_rows(
    space: SignatureSpace,
    whole: Subspace,
    sub: Subspace,
    override: Optional[Sequence[Vec]] = None,
    label: str = "screen",
) -> PrimitiveRows:
    """The package's complement of sub inside whole, or its check of a
    declared one, on spans given as reference Subspaces: both are
    cleared into the ring of their bases and the declared vectors."""
    declared = None if override is None else tuple(override)
    ring = RowRing.over(space.params, whole.basis, sub.basis, declared or ())
    return _screen_rows(
        ring, space.eps, primitive_rows(ring, whole), primitive_rows(ring, sub), declared, label
    )


def _check_compatible(u: Subspace, v: Subspace) -> None:
    if u.ambient_dim != v.ambient_dim:
        raise ShapeError("subspaces live in different ambient dimensions")


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    """The span of both subspaces."""
    _check_compatible(u, v)
    return Subspace(u.basis + v.basis, u.ambient_dim, u.params)


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """Kernel construction: coefficients (a, b) with a.U = b.V."""
    _check_compatible(u, v)
    r, s = u.dim, v.dim
    if r == 0 or s == 0:
        return Subspace((), u.ambient_dim, u.params)
    columns = tuple(
        tuple(u.basis[i][row] for i in range(r))
        + tuple(-v.basis[j][row] for j in range(s))
        for row in range(u.ambient_dim)
    )
    kernel = null_space(columns, r + s, u.params)
    vectors = [lin_comb(k[:r], u.basis) for k in kernel]
    return Subspace(tuple(vectors), u.ambient_dim, u.params)


def orthogonal_complement(space: SignatureSpace, sub: Subspace) -> Subspace:
    """All vectors orthogonal to sub.  The form is nondegenerate, so
    dimensions are complementary even when the two spaces overlap.

    x is orthogonal to sub exactly when B diag(eps) x = 0 for sub's
    basis B, i.e. x = diag(eps) y with y in ker(B).  B is already in
    reduced echelon form, so ker(B) is read off its pivots, one
    vector per free column, with no elimination; the one
    elimination left is the canonical basis of the result.
    """
    if sub.ambient_dim != space.dim:
        raise ShapeError("subspace does not live in this ambient space")
    one = QuadScalar.one(space.params)
    zero = QuadScalar.zero(space.params)
    pivot_set = set(sub.pivots)
    kernel = []
    for free in range(space.dim):
        if free in pivot_set:
            continue
        y = [zero] * space.dim
        y[free] = one
        for row, pc in zip(sub.basis, sub.pivots):
            y[pc] = -row[free]
        kernel.append(tuple(-x if e < 0 else x for e, x in zip(space.eps, y)))
    return Subspace(tuple(kernel), space.dim, space.params)


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


def hl_vector(frame: AdaptedFrame, coeffs: Sequence[QuadScalar]) -> Vec:
    """Assemble sum_i c_i N_i as an ambient vector."""
    if len(coeffs) != len(frame.ltr):
        raise ShapeError("coefficient count does not match the transversal frame")
    acc = zero_vec(frame.space.dim, frame.space.params)
    for c, n in zip(coeffs, frame.ltr):
        acc = vec_add(acc, vec_scale(c, n))
    return acc


def rad_vector(frame: AdaptedFrame, coeffs: Sequence[QuadScalar]) -> Vec:
    """Assemble sum_i c_i xi_i as an ambient vector."""
    if len(coeffs) != len(frame.rad_basis):
        raise ShapeError("coefficient count does not match the radical basis")
    acc = zero_vec(frame.space.dim, frame.space.params)
    for c, xi in zip(coeffs, frame.rad_basis):
        acc = vec_add(acc, vec_scale(c, xi))
    return acc


def apply_structure_field(structure: MetallicStructure, field: AmbientJet) -> AmbientJet:
    """Compose the constant structure matrix with an ambient section:
    J applies to the value and to each partial."""
    return AmbientJet(
        structure.apply(field.value), tuple(structure.apply(d) for d in field.partials)
    )


def project(proj: ProjectorSet, slot: str, v: Vec) -> Vec:
    """The slot component of v: one product with the slot's projector
    matrix, as tests/operator_reference.py composes it for the set."""
    from operator_reference import reference_projectors

    return mat_vec(reference_projectors(proj).matrices[slot], v)


def isometry_inverse(space: SignatureSpace, iso: Mat) -> Mat:
    """Inverse of a signature isometry: eps-conjugated transpose."""
    n = space.dim
    return tuple(
        tuple(
            iso[j][i] * QuadScalar(space.eps[i] * space.eps[j], 0, space.params)
            for j in range(n)
        )
        for i in range(n)
    )


def candidate_quads(
    cand: NullDualCandidate, params: MetallicParams
) -> Tuple[SignatureSpace, Vec, Vec, Vec]:
    """(space, J xi, xi, N) of an audit candidate as QuadScalars."""
    scale = cand.a / cand.d
    nv_scale = 1 / (2 * cand.a * cand.d)
    jxi = tuple(
        QuadScalar(scale * u, scale * v, params)
        for u, v in zip(cand.jxi_rational, cand.jxi_sigma)
    )
    xi = tuple(QuadScalar(scale * x, 0, params) for x in cand.xi_dir)
    nv = tuple(QuadScalar(nv_scale * y, 0, params) for y in cand.nv_dir)
    return SignatureSpace(len(cand.eps), cand.eps, params), jxi, xi, nv


# ---- Weingarten and star-form splits, one derivative at a time ----


@dataclass(frozen=True)
class TransversalSplit:
    """D_X N = -shape + sum conn_i N_i + ds, shape tangent, ds normal-screen."""

    shape: Vec
    conn: Tuple[QuadScalar, ...]
    ds: Vec


def weingarten_transversal(
    frame: AdaptedFrame, x: TangentJet, n_field: AmbientJet
) -> TransversalSplit:
    deriv = derive(x, n_field)
    parts = full_split(frame, deriv)
    return TransversalSplit(vec_neg(parts.tangent), parts.ltr_coeffs, parts.normal_screen)


@dataclass(frozen=True)
class NormalScreenSplit:
    """D_X Z = -shape + sum dl_i N_i + conn, shape tangent, conn normal-screen."""

    shape: Vec
    dl: Tuple[QuadScalar, ...]
    conn: Vec


def weingarten_normal_screen(
    frame: AdaptedFrame, x: TangentJet, z_field: AmbientJet
) -> NormalScreenSplit:
    deriv = derive(x, z_field)
    parts = full_split(frame, deriv)
    return NormalScreenSplit(vec_neg(parts.tangent), parts.ltr_coeffs, parts.normal_screen)


@dataclass(frozen=True)
class ScreenSplit:
    """induced(X, U) = screen + sum rad_i xi_i for screen-valued U."""

    screen: Vec
    rad: Tuple[QuadScalar, ...]


def star_forms_screen(
    frame: AdaptedFrame, x: TangentJet, u: TangentJet
) -> ScreenSplit:
    """Screen connection and radical-valued second form of the screen."""
    induced = gauss_split(frame, x, u).induced
    screen_part, rad_coeffs = split_tangent(frame, induced)
    return ScreenSplit(screen_part, rad_coeffs)


@dataclass(frozen=True)
class RadicalSplit:
    """induced(X, xi) = -shape + sum conn_i xi_i for radical xi."""

    shape: Vec
    conn: Tuple[QuadScalar, ...]


def star_forms_radical(
    frame: AdaptedFrame, x: TangentJet, xi: TangentJet
) -> RadicalSplit:
    induced = gauss_split(frame, x, xi).induced
    screen_part, rad_coeffs = split_tangent(frame, induced)
    return RadicalSplit(vec_neg(screen_part), rad_coeffs)




def metric_deviation(
    frame: AdaptedFrame,
    w: TangentJet,
    u: TangentJet,
    v: TangentJet,
    du: Vec,
    dv: Vec,
) -> QuadScalar:
    """(nabla_W g)(U, V) = W<U, V> - <du, V> - <U, dv>.

    ``du`` and ``dv`` are induced(W, U) and induced(W, V); the caller
    passes them because it sweeps many pairs along one W and computes
    each once.
    """
    space = frame.space
    w_of_pairing = sum(
        (c * g for c, g in zip(w.coeffs, pairing_gradient(space, u, v))),
        start=QuadScalar.zero(space.params),
    )
    return w_of_pairing - space.inner(du, v.value) - space.inner(u.value, dv)


def singular_structure_context(config, seed, image):
    """A fresh p = 0 scene point whose structure is the singular map
    sending each frame vector v to image(label, i, frame): the slot
    images stacked as columns, times the inverse of the stacked slot
    basis."""
    sc = perturbed_structured_scene(random.Random(seed), MetallicParams(0, 2), config, ())
    ctx = PointContext(
        sc.immersion, sc.structure, sc.point, sc.screen_override, sc.normal_screen_override
    )
    frame = ctx.frame
    slots = {
        "screen": frame.screen.basis,
        "radical": frame.rad_basis,
        "transversal": frame.ltr,
        "normal-screen": frame.normal_screen.basis,
    }
    basis = [v for vectors in slots.values() for v in vectors]
    images = [image(label, i, frame) for label, vectors in slots.items() for i in range(len(vectors))]
    matrix = mat_mul(transpose(images), invert(transpose(basis)))
    ctx.structure = MetallicStructure(ctx.space, matrix)
    assert not ctx.structure_valid()
    return ctx


def radical_onto_ltr(label, i, frame):
    zero = tuple(x * 0 for x in frame.ltr[0])
    return frame.ltr[i] if label == "radical" else zero


def screen_kept(label, i, frame):
    zero = tuple(x * 0 for x in frame.ltr[0])
    return frame.screen.basis[i] if label == "screen" else zero
