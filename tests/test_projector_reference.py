"""The refined transversal projectors and the primitive-row mu against the
five-slot build they replaced (tests/projector_reference.py): the same
slot bases, and through the matrices tests/operator_reference.py
composes for the refined set the same matrices, down to each scalar's
(A, B, D) triple, and the same mu, at every transversal point of the 144-scene sweep and at every
fixture point; and off the configurations, on forced-open contexts, the
same raise in type, message and mode wherever the five-slot build
raised.  Where that build succeeded without refining the four slots
(J(screen) outside the normal screen), the refined set raises instead,
by design.  Each of the two raises is also pinned on its own, with its
message and mode.

The configuration predicates, which read the frame's slot coordinates,
against the Subspace and rank predicates they replaced: the same
verdict and witness dict in both modes, or the same raise, at every
fixture point, on the 48-scene sweep of each configuration, at p >= 1,
and under singular structures whose images lie in the target slots
without spanning them."""

from __future__ import annotations

from collections import Counter

import pytest

from lightlike_lab.ambient import MetallicStructure, SignatureSpace
from lightlike_lab.classifier import POINT_CHECK_FUNCTIONS, PointContext
from lightlike_lab.errors import InternalInconsistency, LightlikeLabError
from lightlike_lab.linalg import RowRing
from lightlike_lab.polynomials import Polynomial
from lightlike_lab.scalars import GOLDEN, MetallicParams, QuadScalar
from lightlike_lab.submanifold import PolynomialImmersion

from helpers import radical_onto_ltr, screen_kept, singular_structure_context, span_fields
from operator_reference import reference_projectors
from projector_reference import (
    reference_configuration,
    reference_mu,
    reference_transversal_projectors,
    refines_the_four_slots,
)
from test_criterion_loops import (
    CONFIGS,
    P_POSITIVE,
    bent,
    forced_open,
    generated,
    generated_contexts,
    scalar_structure,
)
from test_pair_loops import FIXTURE_NAMES, FLAVOR_SETS, fixture_contexts

OFF_CONFIGURATION = (
    "raised",
    "InternalInconsistency",
    "slot bases do not decompose the ambient space",
    "transversal",
)


def _scalars(vectors):
    return tuple(tuple((x.A, x.B, x.D) for x in v) for v in vectors)


def _outcome(build, ctx):
    try:
        return ("built", build(ctx))
    except LightlikeLabError as exc:
        return ("raised", type(exc).__name__, str(exc), getattr(exc, "mode", None))


def _projectors(proj):
    """Labels, basis triples and matrix triples of a reference set."""
    return (
        tuple(proj.bases),
        tuple(proj.matrices),
        tuple(_scalars(b) for b in proj.bases.values()),
        tuple(_scalars(m) for m in proj.matrices.values()),
    )


def compare(ctx, tally):
    """mu and the transversal set against the five-slot build on one
    context; tallies and returns whether the build refined the four
    slots, did not, or raised which message."""
    ref_mu, new_mu = _outcome(reference_mu, ctx), _outcome(lambda c: c.mu_subspace(), ctx)
    if ref_mu[0] == "built":
        assert new_mu[0] == "built" and span_fields(new_mu[1]) == span_fields(ref_mu[1])
    else:
        assert new_mu == ref_mu
    ref = _outcome(reference_transversal_projectors, ctx)
    new = _outcome(lambda c: c.projectors("transversal"), ctx)
    if ref[0] == "raised":
        assert new == ref
        kind = ref[2]
    elif refines_the_four_slots(ctx, ref[1]):
        assert new[0] == "built"
        assert _projectors(reference_projectors(new[1])) == _projectors(ref[1])
        kind = "refines"
    else:
        assert new == OFF_CONFIGURATION
        kind = "does not refine"
    tally[kind] += 1
    return kind


@pytest.mark.parametrize("q", [2, 3, 5])
def test_refined_set_is_the_five_slot_set_on_the_transversal_sweep(q):
    tally = Counter()
    for flavors in FLAVOR_SETS:
        for seed in range(8):
            ctx = generated("transversal", flavors, MetallicParams(0, q), seed)
            assert ctx.configuration("transversal")[0]
            compare(ctx, tally)
    assert tally == Counter({"refines": 48})


def test_refined_set_is_the_five_slot_set_at_every_fixture_point():
    tally, configured = Counter(), set()
    for name in FIXTURE_NAMES:
        for ctx in fixture_contexts(name):
            kind = compare(ctx, tally)
            try:
                transversal = ctx.configuration("transversal")[0]
            except LightlikeLabError:
                continue
            if transversal:
                assert kind == "refines", name
                configured.add(name)
    assert configured


def forced_open_contexts():
    """The off-configuration contexts of test_criterion_loops.py: p >= 1
    scenes, scalar structures and bent structures, gates forced open;
    and J = 0, which sends the screen to zero vectors, so the stacked
    slot bases are dependent."""
    params_list = [MetallicParams(p, q) for p, q in P_POSITIVE]
    for ctx in generated_contexts(seeds=(0, 1), params_list=params_list):
        yield forced_open(ctx)
    for ctx in generated_contexts(seeds=(0,), params_list=[MetallicParams(1, 2)]):
        yield forced_open(scalar_structure(ctx, -QuadScalar.one(ctx.params)))
    for ctx in generated_contexts(seeds=(0,), params_list=params_list):
        yield forced_open(scalar_structure(ctx, QuadScalar(ctx.params.p, 0, ctx.params)))
    params_list += [MetallicParams(0, q) for q in (2, 3, 5)]
    for k, ctx in enumerate(generated_contexts(seeds=(0,), params_list=params_list)):
        n = ctx.space.dim
        yield forced_open(bent(ctx, k % n, (3 * k + 1) % n))
    for ctx in generated_contexts(seeds=(0,)):
        yield forced_open(scalar_structure(ctx, QuadScalar.zero(ctx.params)))


def test_refined_set_raises_where_the_five_slot_set_raised_off_the_configurations():
    tally = Counter()
    for ctx in forced_open_contexts():
        compare(ctx, tally)
    assert tally["refines"] and tally["does not refine"]
    assert tally["mapped screen and its complement do not fill the normal screen"]
    assert tally["slot bases do not decompose the ambient space"]


def scalar_transversal_context(c):
    """A fresh p = 0 transversal scene point with the structure J = c I."""
    ctx = scalar_structure(generated("transversal", (), MetallicParams(0, 2), 0), c)
    assert ctx.frame.screen.dim and ctx.frame.normal_screen.dim
    return ctx


def test_mu_raises_when_the_mapped_screen_meets_the_normal_screens_complement():
    # J = I keeps the screen, which is orthogonal to the whole normal
    # screen, so no complement of J(screen) fills the normal screen
    ctx = scalar_transversal_context(QuadScalar.one(MetallicParams(0, 2)))
    message = "mapped screen and its complement do not fill the normal screen"
    with pytest.raises(InternalInconsistency, match=message) as exc:
        ctx.mu_subspace()
    assert exc.value.mode is None
    # structure-eqs names the mode it audits
    ctx._valid = True
    ctx._config = {"radical-transversal": (False, {}), "transversal": (True, {})}
    with pytest.raises(InternalInconsistency, match=message) as exc:
        POINT_CHECK_FUNCTIONS["structure-eqs"](ctx)
    assert exc.value.mode == "transversal"


@pytest.mark.parametrize("bend", [None, (0, 0), (2, 3)])
def test_transversal_projectors_raise_when_the_slots_do_not_split_the_normal_screen(bend):
    # J = 0 sends the screen to zero vectors, which are dependent; a bent
    # J = 2 I sends it outside the normal screen, where the four-slot
    # normal-screen projector cannot be refined
    params = MetallicParams(0, 2)
    if bend is None:
        ctx = scalar_transversal_context(QuadScalar.zero(params))
    else:
        ctx = bent(scalar_transversal_context(QuadScalar(2, 0, params)), *bend)
        assert not all(ctx.frame.normal_screen.contains(v) for v in ctx.mapped_screen())
    ctx.mu_subspace()
    with pytest.raises(
        InternalInconsistency, match="slot bases do not decompose the ambient space"
    ) as exc:
        ctx.projectors("transversal")
    assert exc.value.mode == "transversal"
    assert not ctx.projectors("radical-transversal").audit()


def test_mu_is_solved_in_the_ring_of_the_mapped_screen_not_the_frames():
    # the tangent carries sigma, so the frame's rows are over Z[sigma],
    # while J(screen) and the normal screen are rational: mu is solved
    # over Z, on the normal screen's basis cleared into that ring
    params = MetallicParams(1, 1)
    space = SignatureSpace(4, (-1, 1, 1, 1), params)
    u, v = (Polynomial.variable(i, 2, params) for i in range(2))
    sigma_u = u.scale(QuadScalar(0, 1, params))
    imm = PolynomialImmersion(space, 2, (sigma_u, sigma_u, v, Polynomial.zero(2, params)))
    rows = ((2, 1, 0, 0), (-1, -1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1))
    matrix = tuple(tuple(QuadScalar(x, 0, params) for x in row) for row in rows)
    point = (QuadScalar(1, 0, params), QuadScalar(2, 0, params))
    ctx = PointContext(imm, MetallicStructure(space, matrix), point)
    normal = ctx.frame.normal_screen
    assert ctx.structure_valid() and normal.ring.sigma
    assert not RowRing.over(params, ctx.mapped_screen(), normal.basis).sigma
    tally = Counter()
    compare(ctx, tally)
    assert tally == Counter({"refines": 1})


def compare_configurations(ctx, tally):
    """Both modes' predicate against the reference on one context;
    tallies each outcome: holds, fails, or the raised message."""
    for mode in CONFIGS:
        ref = _outcome(lambda c: reference_configuration(c, mode), ctx)
        new = _outcome(lambda c: c.configuration(mode), ctx)
        assert new == ref, mode
        tally[new[0] == "raised" and new[2] or ("holds" if new[1][0] else "fails")] += 1


def test_configuration_is_the_subspace_predicate_at_every_fixture_point():
    tally = Counter()
    for name in FIXTURE_NAMES:
        for ctx in fixture_contexts(name):
            compare_configurations(ctx, tally)
    assert tally["holds"] and tally["fails"]
    assert tally["induced metric is nondegenerate at this point"]


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("config", CONFIGS)
def test_configuration_is_the_subspace_predicate_on_the_sweep(config, q):
    tally = Counter()
    for flavors in FLAVOR_SETS:
        for seed in range(8):
            compare_configurations(generated(config, flavors, MetallicParams(0, q), seed), tally)
    # each point holds in its own configuration; a screenless one in both
    assert sum(tally.values()) == 96 and tally["holds"] >= 48 and tally["fails"]


def test_configuration_is_the_subspace_predicate_off_the_configurations():
    tally = Counter()
    params_list = [MetallicParams(p, q) for p, q in P_POSITIVE]
    for ctx in generated_contexts(seeds=(0, 1), params_list=params_list):
        compare_configurations(ctx, tally)
    # J = 0 sends the radical and the screen into every slot
    for ctx in generated_contexts(seeds=(0,)):
        compare_configurations(scalar_structure(ctx, QuadScalar.zero(ctx.params)), tally)
    for config in CONFIGS:
        for seed in (0, 1):
            for image in (radical_onto_ltr, screen_kept):
                compare_configurations(singular_structure_context(config, seed, image), tally)
    assert tally["fails"] and not tally["holds"]


def test_configuration_raises_where_the_subspace_predicate_raised(monkeypatch):
    # a holding p = 0 point read at p = 1 meets the trace obstruction
    contexts = [generated(config, (), MetallicParams(0, 2), 0) for config in CONFIGS]
    monkeypatch.setattr(PointContext, "params", property(lambda self: GOLDEN))
    tally = Counter()
    for ctx in contexts:
        compare_configurations(ctx, tally)
    message = (
        "radical directions map onto the null transversal span, which the"
        " trace obstruction rules out for p >= 1"
    )
    assert tally == Counter({message: 4})
