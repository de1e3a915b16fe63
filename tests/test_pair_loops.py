"""The composed structure-equation and metric-oracle operators against
the per-pair loops they replaced (tests/pair_loops.py)."""

from __future__ import annotations

import random
from importlib import resources

import pytest

from lightlike_lab import classifier
from lightlike_lab.ambient import MetallicStructure
from lightlike_lab.classifier import PointContext
from lightlike_lab.errors import InternalInconsistency, LightlikeLabError
from lightlike_lab.generators import perturbed_structured_scene
from lightlike_lab.scalars import MetallicParams, QuadScalar
from lightlike_lab.scenes import parse_scene

from pair_loops import metric_oracle_by_triple, structure_equations_by_pair

CONFIGS = ("radical-transversal", "transversal")
FLAVOR_SETS = ((), ("str",), ("ltr",), ("rad",), ("screen",), ("rad-twist",))
FIXTURES = resources.files("lightlike_lab") / "fixtures"
FIXTURE_NAMES = sorted(f.name for f in FIXTURES.iterdir() if f.name.endswith(".json"))


def generated_context(config, flavors, q, seed=0):
    sc = perturbed_structured_scene(random.Random(seed), MetallicParams(0, q), config, flavors)
    return PointContext(
        sc.immersion, sc.structure, sc.point, sc.screen_override, sc.normal_screen_override
    )


def fixture_contexts(name):
    sc = parse_scene((FIXTURES / name).read_bytes())
    out = []
    for point in sc.points:
        try:
            out.append(PointContext(sc.immersion, sc.structure, point, sc.screen, sc.normal_screen))
        except LightlikeLabError:
            continue
    return out


def held_modes(ctx):
    """The configuration modes the point is in, when its structure is valid."""
    if not ctx.structure_valid():
        return []
    try:
        return [m for m in CONFIGS if ctx.configuration(m)[0]]
    except LightlikeLabError:
        return []


def assert_same_as_the_loops(ctx):
    modes = held_modes(ctx)
    for mode in modes:
        assert classifier._structure_equations(ctx, mode) == structure_equations_by_pair(
            ctx, mode
        )
    assert classifier._metric_oracle(ctx) == metric_oracle_by_triple(ctx)
    return modes


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("flavors", FLAVOR_SETS, ids="+".join)
@pytest.mark.parametrize("config", CONFIGS)
def test_operators_match_the_pair_loops_on_generated_scenes(config, flavors, q):
    ctx = generated_context(config, flavors, q)
    assert config in assert_same_as_the_loops(ctx)
    m = len(ctx.chart().coordinates)
    assert classifier._metric_oracle(ctx)[1] == m**3


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_operators_match_the_pair_loops_on_the_fixtures(name):
    contexts = fixture_contexts(name)
    assert contexts
    for ctx in contexts:
        assert_same_as_the_loops(ctx)


def test_the_oracle_comparison_sees_both_verdicts():
    verdicts = {
        classifier._metric_oracle(generated_context(config, flavors, 2))[0]
        for config in CONFIGS
        for flavors in FLAVOR_SETS
    }
    assert verdicts == {True, False}


def _outcome(fn, ctx, mode):
    try:
        return ("pairs", fn(ctx, mode))
    except InternalInconsistency as exc:
        return ("raised", str(exc))


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("seed", range(2))
def test_a_perturbed_structure_fails_at_the_same_slot_and_pair(config, seed):
    # the configuration and the projectors are cached first, so the bent
    # matrix reaches only the equations, exactly as a bug in J would
    ctx = generated_context(config, ("str", "screen"), 2, seed)
    assert config in held_modes(ctx)
    ctx.projectors(config)
    original = ctx.structure
    n = ctx.space.dim
    one = QuadScalar.one(ctx.params)
    raised = set()
    for a in range(n):
        for b in range(n):
            rows = [list(row) for row in original.matrix]
            rows[a][b] = rows[a][b] + one
            ctx.structure = MetallicStructure(original.space, tuple(map(tuple, rows)))
            new = _outcome(classifier._structure_equations, ctx, config)
            old = _outcome(structure_equations_by_pair, ctx, config)
            assert new == old, (a, b)
            if new[0] == "raised":
                raised.add(new[1])
    ctx.structure = original
    assert raised
    assert {msg.split(" slot")[0] for msg in raised} <= {
        "split regrouping failed in the tangent",
        "split regrouping failed in the screen-transversal",
        "split regrouping failed in the null-transversal",
    }
