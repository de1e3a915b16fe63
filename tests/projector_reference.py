"""The transversal slot projectors as lightlike_lab.classifier built them
before the transversal set refined the four-slot set, kept as a test
oracle.

mu is the intersection of the normal screen with the orthogonal
complement of J(screen), three QuadScalar eliminations, and the
five-slot set factors the stacked screen, radical, transversal,
mapped-screen and mu bases of the whole ambient space in one
FactoredBasis of its own.  test_projector_reference.py holds the
refined set to the same slot bases and matrices, and mu_subspace to the
same subspace, wherever this build refines the four slots, and to the
same raises.
"""

from __future__ import annotations

from typing import Dict

from lightlike_lab.classifier import PointContext, ProjectorSet
from lightlike_lab.errors import InternalInconsistency
from lightlike_lab.linalg import FactoredBasis, Mat, Subspace

from helpers import intersect, orthogonal_complement

FIVE_SLOTS = ("screen", "radical", "transversal", "mapped-screen", "mu")


def reference_mu(ctx: PointContext) -> Subspace:
    """Orthogonal complement of the mapped screen inside the normal screen."""
    space = ctx.space
    j_scr = Subspace(ctx.mapped_screen(), space.dim, space.params)
    mu = intersect(ctx.frame.normal_screen, orthogonal_complement(space, j_scr))
    if j_scr.dim + mu.dim != ctx.frame.normal_screen.dim:
        raise InternalInconsistency(
            "mapped screen and its complement do not fill the normal screen"
        )
    return mu


def reference_transversal_projectors(ctx: PointContext) -> ProjectorSet:
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
    return ProjectorSet(space, bases, matrices)


def refines_the_four_slots(ctx: PointContext, proj: ProjectorSet) -> bool:
    """Whether the five-slot set keeps the four-slot screen, radical and
    transversal projectors, so that its mapped-screen and mu projectors
    sum to the four-slot P[normal-screen]."""
    four = ctx.projectors("radical-transversal").matrices
    return all(proj.matrices[label] == four[label] for label in FIVE_SLOTS[:3])
