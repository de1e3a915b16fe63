"""The QuadScalar nonexistence audit that the integer draw in
lightlike_lab.classifier replaced, kept as a test oracle.

Every isometry entry, root and candidate coordinate here is a QuadScalar,
J xi comes from matrix-vector products with the drawn isometry and its
adjoint, and every test of the sweep is a QuadScalar comparison.  It
makes the same generator calls in the same order as the integer draw, so
test_audit_reference.py can hold the integer audit to the same
witnesses, the same generator states and the same candidates.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from lightlike_lab.ambient import SignatureSpace
from lightlike_lab.classifier import _lowered
from lightlike_lab.errors import InternalInconsistency
from lightlike_lab.linalg import Mat, Vec, identity, is_zero_vec, mat_vec, transpose
from lightlike_lab.scalars import MetallicParams, QuadScalar


def _q(x, params: MetallicParams) -> QuadScalar:
    return QuadScalar(x, 0, params)


def _rational(rng: random.Random, *, nonzero: bool = False) -> Fraction:
    num = rng.randrange(-3, 4)
    while nonzero and num == 0:
        num = rng.randrange(-3, 4)
    return Fraction(num, rng.choice([1, 1, 2, 3]))


def _mix_rows(
    acc: List[Vec], i: int, j: int, a: QuadScalar, b: QuadScalar, c: QuadScalar, d: QuadScalar
) -> None:
    """Rows i and j of acc become a r_i + b r_j and c r_i + d r_j: the
    left product by the identity with that 2 x 2 block at (i, j)."""
    ri, rj = acc[i], acc[j]
    acc[i] = tuple(a * x + b * y for x, y in zip(ri, rj))
    acc[j] = tuple(c * x + d * y for x, y in zip(ri, rj))


def random_isometry(rng: random.Random, space: SignatureSpace, steps: Optional[int] = None) -> Mat:
    """Exact rational matrix S with S^T diag(eps) S = diag(eps).

    Composed from hyperbolic boosts across a (-,+) coordinate pair,
    rational-point rotations inside a same-sign pair, sign flips, and
    same-sign swaps, each applied to the rows of the accumulated product
    it multiplies from the left.
    """
    params = space.params
    n = space.dim
    acc = list(identity(n, params))
    minus = [i for i in range(n) if space.eps[i] == -1]
    plus = [i for i in range(n) if space.eps[i] == 1]
    if steps is None:
        steps = rng.randrange(0, 7)
    for _ in range(steps):
        kind = rng.choice(("boost", "rotate", "flip", "swap"))
        if kind == "boost" and minus and plus:
            i = rng.choice(minus)
            j = rng.choice(plus)
            lam = Fraction(rng.choice([2, 3, 1, 2]), rng.choice([1, 2, 3]))
            if lam == 1:
                continue
            c = _q((lam + 1 / lam) / 2, params)
            s = _q((lam - 1 / lam) / 2, params)
            _mix_rows(acc, i, j, c, s, s, c)
        elif kind == "rotate":
            pool = minus if (len(minus) >= 2 and rng.random() < 0.5) else plus
            if len(pool) < 2:
                pool = minus if len(minus) >= 2 else plus
            if len(pool) < 2:
                continue
            i, j = rng.sample(pool, 2)
            t = Fraction(rng.choice([1, 1, 2, 3]), rng.choice([1, 2, 3]))
            c = _q((1 - t * t) / (1 + t * t), params)
            s = _q(2 * t / (1 + t * t), params)
            _mix_rows(acc, i, j, c, -s, s, c)
        elif kind == "flip":
            i = rng.randrange(n)
            acc[i] = tuple(-x for x in acc[i])
        else:
            pool = minus if (len(minus) >= 2 and rng.random() < 0.5) else plus
            if len(pool) < 2:
                continue
            i, j = rng.sample(pool, 2)
            acc[i], acc[j] = acc[j], acc[i]
    return tuple(acc)


class AuditCell(NamedTuple):
    """The scalars every candidate of one (p, q) cell reuses, built once
    per cell: the two roots of the defining quadratic keyed by branch
    name, and 0, 1 and p."""

    params: MetallicParams
    roots: Dict[str, QuadScalar]
    zero: QuadScalar
    one: QuadScalar
    p: QuadScalar

    @classmethod
    def of(cls, params: MetallicParams) -> "AuditCell":
        roots = {"sigma": QuadScalar.sigma(params), "p-sigma": QuadScalar(params.p, -1, params)}
        zero, one = QuadScalar.zero(params), QuadScalar.one(params)
        return cls(params, roots, zero, one, _q(params.p, params))


def null_dual_candidate(
    rng: random.Random, cell: AuditCell
) -> Tuple[SignatureSpace, Vec, Vec, Vec]:
    """Random (space, J xi, xi, N) with xi null, N null and <xi, N> = 1,
    for J = iso D iso^-1: a diagonal D of drawn roots hidden behind a
    drawn isometry iso.

    J is never built.  J xi is iso (D (iso^-1 xi)), and iso^-1 is the
    adjoint diag(eps) iso^T diag(eps), applied to the one vector xi.
    The adjoint is the inverse exactly when the column Gram matrix
    iso^T diag(eps) iso is diag(eps), which is checked in full; the
    adjoint must also give back the unrotated xi.  Any root diagonal
    conjugated by an isometry satisfies both structure validators.
    """
    params = cell.params
    extra = rng.randrange(0, 3)
    n = 2 + extra
    roles: List[Tuple[str, int]] = [("pair-", 0), ("pair+", 0)]
    roles += [("extra", c) for c in range(extra)]
    rng.shuffle(roles)
    eps = [0] * n
    diag = [cell.zero] * n
    for pos, (kind, _) in enumerate(roles):
        eps[pos] = -1 if kind == "pair-" else (1 if kind == "pair+" else rng.choice((-1, 1)))
        diag[pos] = cell.roots[rng.choice(("sigma", "p-sigma"))]
    space = SignatureSpace(n, tuple(eps), params)
    minus, plus = roles.index(("pair-", 0)), roles.index(("pair+", 0))

    a = _rational(rng, nonzero=True)
    xi0 = [cell.zero] * n
    xi0[minus] = xi0[plus] = _q(a, params)
    nv0 = [cell.zero] * n
    nv0[minus] = _q(Fraction(-1, 2) / a, params)
    nv0[plus] = _q(Fraction(1, 2) / a, params)
    xi0, nv0 = tuple(xi0), tuple(nv0)
    # short compositions keep the sweep cheap; candidate volume matters
    # more here than isometry depth
    iso = random_isometry(rng, space, steps=rng.randrange(0, 4))
    iso_t = transpose(iso)
    gram = space.gram(iso_t)
    if any(gram[i][j] != (eps[i] if i == j else 0) for i in range(n) for j in range(i, n)):
        raise InternalInconsistency("drawn matrix is not an isometry", check="audit-nonexistence")
    xi = mat_vec(iso, xi0)
    (lowered,) = _lowered(space, (xi,))
    (back,) = _lowered(space, (mat_vec(iso_t, lowered),))
    if back != xi0:
        raise InternalInconsistency("isometry adjoint inverse failed", check="audit-nonexistence")
    jxi = mat_vec(iso, tuple(d * x for d, x in zip(diag, back)))
    return space, jxi, xi, mat_vec(iso, nv0)


def _single_null_sweep(rng: random.Random, trials: int) -> Dict[str, object]:
    zero_counts: Dict[str, Dict[str, object]] = {}
    for p in (1, 2, 3):
        for q in (1, 2):
            cell = AuditCell.of(MetallicParams(p, q))
            satisfied = 0
            image_in_span = 0
            for _ in range(trials):
                space, jxi, xi, nv = null_dual_candidate(rng, cell)
                a = space.inner(jxi, xi)
                b = space.inner(jxi, jxi)
                if b != cell.p * a:
                    raise InternalInconsistency(
                        "transfer identity failed on a generated candidate",
                        check="audit-nonexistence",
                    )
                if b == cell.zero and a == cell.one:
                    satisfied += 1
                # J xi lies on the line of N exactly when every 2 x 2
                # minor of (N, J xi) vanishes
                if not is_zero_vec(jxi) and not any(
                    nv[a] * jxi[b] - nv[b] * jxi[a]
                    for a in range(len(nv))
                    for b in range(a + 1, len(nv))
                ):
                    image_in_span += 1
            if satisfied or image_in_span:
                raise InternalInconsistency(
                    "randomized audit produced a forbidden single-null candidate",
                    check="audit-nonexistence",
                )
            zero_counts[f"p={p},q={q}"] = {
                "trials": trials,
                "satisfying_candidates": satisfied,
                "images_inside_the_transversal_span": image_in_span,
                "forced_value_when_satisfied": str(p),
            }
    return {
        "constraint_set": [
            "<xi, xi> = 0",
            "<J xi, J xi> = 0",
            "<J xi, xi> = 1",
            "<J xi, J xi> = p <J xi, xi>",
        ],
        "sweep": zero_counts,
        "minimum_radical_dim_for_transversal_claims": 2,
    }
