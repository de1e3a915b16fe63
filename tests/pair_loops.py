"""The per-pair structure-equation loop and the per-triple metric oracle
that the matrix form in lightlike_lab.classifier replaced, kept as test
oracles.

Both walk every coordinate pair (or triple) through the geometry splits
one vector at a time, so the differential tests in test_pair_loops.py
can hold the operator form to the same pair count, the same verdicts and
the same first failing pair.
"""

from __future__ import annotations

from typing import Tuple

from lightlike_lab.classifier import PointContext
from lightlike_lab.errors import InternalInconsistency
from lightlike_lab.geometry import (
    TangentJet,
    derive,
    full_split,
    gauss_split,
    split_tangent,
)
from lightlike_lab.linalg import is_zero_vec, vec_add, vec_sub
from lightlike_lab.scalars import QuadScalar

from helpers import apply_structure_field, hl_vector, metric_deviation, project, rad_vector


def constant_split_fields(ctx: PointContext, j: int) -> Tuple[TangentJet, TangentJet]:
    """Coordinate field number j split into constant-coefficient screen
    and radical parts."""
    frame = ctx.frame
    chart = ctx.chart()
    w0 = frame.tangent_jacobian[j]
    screen_part, rad_coeffs = split_tangent(frame, w0)
    rad_part = rad_vector(frame, rad_coeffs)
    tw = chart.tangent(frame.jacobian_factor.coords(screen_part))
    qw = chart.tangent(frame.jacobian_factor.coords(rad_part))
    return tw, qw


def structure_equations_by_pair(ctx: PointContext, mode: str) -> int:
    """The regrouped split equations, one coordinate pair at a time (j
    outer, i inner); raises InternalInconsistency naming the first
    failing slot and pair, else returns the pair count."""
    frame = ctx.frame
    coords = ctx.chart().coordinates
    J = ctx.structure
    proj = ctx.projectors(mode)
    pairs = 0
    for j, w in enumerate(coords):
        tw, qw = constant_split_fields(ctx, j)
        kw_field = apply_structure_field(J, tw)
        lw_field = apply_structure_field(J, qw)
        for i, u in enumerate(coords):
            kw = full_split(frame, derive(u, kw_field))
            lw = full_split(frame, derive(u, lw_field))
            g = gauss_split(frame, u, w)
            ind_screen, ind_rad = split_tangent(frame, g.induced)
            j_nabla = J.apply(ind_screen)
            l_nabla = J.apply(rad_vector(frame, ind_rad))
            jhl = full_split(frame, J.apply(hl_vector(frame, g.hl)))
            if mode == "radical-transversal":
                tangent_term = j_nabla
                screen_term = J.apply(g.hs)
            else:
                b_hs = J.apply(project(proj, "mapped-screen", g.hs))
                c_hs = J.apply(project(proj, "mu", g.hs))
                tangent_term = project(proj, "screen", b_hs)
                screen_term = vec_add(
                    vec_add(j_nabla, project(proj, "mapped-screen", b_hs)), c_hs
                )
            res_tangent = vec_sub(
                vec_sub(vec_add(kw.tangent, lw.tangent), jhl.tangent), tangent_term
            )
            res_screen_transversal = vec_sub(
                vec_add(kw.normal_screen, lw.normal_screen), screen_term
            )
            res_null_transversal = vec_sub(
                vec_sub(
                    vec_add(hl_vector(frame, kw.ltr_coeffs), hl_vector(frame, lw.ltr_coeffs)),
                    l_nabla,
                ),
                hl_vector(frame, jhl.ltr_coeffs),
            )
            for label, res in (
                ("tangent", res_tangent),
                ("screen-transversal", res_screen_transversal),
                ("null-transversal", res_null_transversal),
            ):
                if not is_zero_vec(res):
                    raise InternalInconsistency(
                        f"split regrouping failed in the {label} slot at pair ({i}, {j})"
                    )
            pairs += 1
    return pairs


def metric_oracle_by_triple(ctx: PointContext) -> Tuple[bool, int]:
    """(nabla_W g)(U, V) through metric_deviation on every coordinate
    triple; returns (all zero, triples checked)."""
    fields = ctx.chart().coordinates
    zero = QuadScalar.zero(ctx.params)
    checked = 0
    ok = True
    for w in fields:
        induced = [gauss_split(ctx.frame, w, u).induced for u in fields]
        for u, du in zip(fields, induced):
            for v, dv in zip(fields, induced):
                checked += 1
                if metric_deviation(ctx.frame, w, u, v, du, dv) != zero:
                    ok = False
    return ok, checked
