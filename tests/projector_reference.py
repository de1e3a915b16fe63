"""The transversal slot projectors as lightlike_lab.classifier built them
before the transversal set refined the four-slot set, and the two
configuration predicates as it decided them before they read the
frame's slot coordinates, kept as test oracles.

mu is the intersection of the normal screen with the orthogonal
complement of J(screen), three QuadScalar eliminations, and the
five-slot set factors the stacked screen, radical, transversal,
mapped-screen and mu bases of the whole ambient space in one
FactoredBasis of its own.  test_projector_reference.py holds the
refined set to the same slot bases, the projector matrices that
tests/operator_reference.py composes for it to the same matrices, and
mu_subspace to the same subspace, wherever this build refines the four
slots, and to the same raises.

The predicates eliminate in the ambient space: the radical clause
compares the spans of ltr and of J(radical) as Subspaces, and the
screen clause tests each screen image for membership in the target
Subspace and ranks the images.  test_projector_reference.py holds
PointContext.configuration to the same verdicts, witnesses and raises.
"""

from __future__ import annotations

from typing import Dict, Tuple

from lightlike_lab.classifier import PointContext
from lightlike_lab.errors import InternalInconsistency
from lightlike_lab.linalg import FactoredBasis, Mat, rank

from helpers import Subspace, intersect, orthogonal_complement
from operator_reference import ReferenceProjectors, reference_projectors

FIVE_SLOTS = ("screen", "radical", "transversal", "mapped-screen", "mu")


def reference_mu(ctx: PointContext) -> Subspace:
    """Orthogonal complement of the mapped screen inside the normal screen."""
    space = ctx.space
    j_scr = Subspace(ctx.mapped_screen(), space.dim, space.params)
    normal = Subspace(ctx.frame.normal_screen.basis, space.dim, space.params)
    mu = intersect(normal, orthogonal_complement(space, j_scr))
    if j_scr.dim + mu.dim != normal.dim:
        raise InternalInconsistency(
            "mapped screen and its complement do not fill the normal screen"
        )
    return mu


def reference_transversal_projectors(ctx: PointContext) -> ReferenceProjectors:
    """The five slot bases stacked and factored as one basis of the
    ambient space, each slot's projector read off that factorization."""
    frame, space = ctx.frame, ctx.space
    parts = (
        frame.screen.basis,
        frame.rad_basis,
        frame.ltr,
        ctx.mapped_screen(),
        reference_mu(ctx).basis,
    )
    bases = dict(zip(FIVE_SLOTS, parts))
    factor = FactoredBasis([v for b in parts for v in b], space.dim, space.params)
    if not len(factor.basis) == factor.rank == space.dim:
        raise InternalInconsistency(
            "slot bases do not decompose the ambient space", mode="transversal"
        )
    matrices: Dict[str, Mat] = {}
    at = 0
    for label, basis in bases.items():
        matrices[label] = factor.projector(range(at, at + len(basis)))
        at += len(basis)
    return ReferenceProjectors(space, bases, matrices)


def refines_the_four_slots(ctx: PointContext, proj: ReferenceProjectors) -> bool:
    """Whether the five-slot set keeps the four-slot screen, radical and
    transversal projectors, so that its mapped-screen and mu projectors
    sum to the four-slot P[normal-screen]."""
    four = reference_projectors(ctx.projectors("radical-transversal")).matrices
    return all(proj.matrices[label] == four[label] for label in FIVE_SLOTS[:3])


# mode -> (frame subspace the screen images must lie in, witness key)
SCREEN_TARGETS = {
    "radical-transversal": ("screen", "screen_invariant"),
    "transversal": ("normal_screen", "screen_maps_into_normal_screen"),
}


def reference_configuration(ctx: PointContext, mode: str) -> Tuple[bool, Dict[str, object]]:
    """J(radical) spans the transversal frame's span, and J(screen) is
    an independent list inside the screen (radical-transversal) or the
    normal screen (transversal); the trace obstruction raises, naming
    the mode."""
    target, key = SCREEN_TARGETS[mode]
    ctx._require_lightlike()
    frame, space = ctx.frame, ctx.space
    ltr_span = Subspace(frame.ltr, space.dim, space.params)
    j_rad = ctx.mapped_radical()
    rad_images = Subspace(j_rad, space.dim, space.params)
    # equal dimensions make one containment an equality
    radical_clause = rad_images.dim == ltr_span.dim and ltr_span.contains_subspace(rad_images)
    if radical_clause and ctx.params.p >= 1 and ctx.structure_valid():
        raise InternalInconsistency(
            "radical directions map onto the null transversal span, which the"
            " trace obstruction rules out for p >= 1",
            mode=mode,
        )
    j_scr = ctx.mapped_screen()
    inside = Subspace(getattr(frame, target).basis, space.dim, space.params)
    screen_clause = all(inside.contains(v) for v in j_scr) and (
        rank(j_scr) == frame.screen.dim
    )
    witness: Dict[str, object] = {
        "radical_images": [[str(x) for x in v] for v in j_rad],
        "radical_images_span_transversal": radical_clause,
        "screen_images": [[str(x) for x in v] for v in j_scr],
        key: screen_clause,
    }
    return radical_clause and screen_clause, witness
