"""The ten criterion operators against the per-vector loops they
replaced (tests/criterion_loops.py): the same CheckEntry, verdict and
witness bytes, on generated scenes and on every fixture point."""

from __future__ import annotations

import json
import random
from collections import defaultdict

from lightlike_lab import classifier
from lightlike_lab.ambient import MetallicStructure
from lightlike_lab.classifier import (
    POINT_CHECK_FUNCTIONS,
    REFERENCES,
    CheckEntry,
    PointContext,
    Verdict,
)
from lightlike_lab.errors import LightlikeLabError
from lightlike_lab.generators import perturbed_structured_scene
from lightlike_lab.linalg import identity
from lightlike_lab.scalars import MetallicParams, QuadScalar

import criterion_loops
from criterion_loops import CRITERION_LOOPS
from test_pair_loops import CONFIGS, FIXTURE_NAMES, FLAVOR_SETS, fixture_contexts

CHECKS = tuple(CRITERION_LOOPS)
SEEDS = (0, 1, 4)
# p >= 1: the trace obstruction keeps every valid structure out of both
# configurations, so these scenes reach the criteria only with their
# gates forced open (see forced_open)
P_POSITIVE = ((1, 1), (2, 1), (1, 2))


def generated(config, flavors, params, seed):
    sc = perturbed_structured_scene(random.Random(seed), params, config, flavors)
    return PointContext(
        sc.immersion, sc.structure, sc.point, sc.screen_override, sc.normal_screen_override
    )


def regauged(ctx):
    """The screen fields given extra coefficient partials.

    In the kit's own gauge the screen brackets close at the point, so
    thm-3.6 and thm-4.6 cannot fail there.  Any other tangent family
    through the screen basis keeps each criterion equivalent to its
    oracle and lets their brackets leave the screen.
    """
    kit = ctx.kit()
    chart = ctx.chart()
    fields = tuple(
        chart.tangent(
            f.coeffs,
            [
                [x + QuadScalar(a * (l + 1) + j, 0, ctx.params) for j, x in enumerate(row)]
                for l, row in enumerate(f.coeff_partials)
            ],
        )
        for a, f in enumerate(kit.screen_adapted)
    )
    ctx._kit = kit._replace(screen_adapted=fields)
    return ctx


def forced_open(ctx):
    """Structure validity and both configuration gates cached as
    holding, so the criteria run where their hypotheses fail: at p >= 1,
    where their p terms are exercised, or with a bent structure."""
    ctx._valid = True
    ctx._config = {mode: (True, {}) for mode in CONFIGS}
    return ctx


def bent(ctx, a, b):
    """The structure matrix with one added to entry (a, b)."""
    rows = [list(row) for row in ctx.structure.matrix]
    rows[a][b] = rows[a][b] + QuadScalar.one(ctx.params)
    ctx.structure = MetallicStructure(ctx.space, tuple(map(tuple, rows)))
    return ctx


def scalar_structure(ctx, c):
    """J = c I.  c = -1 is a valid structure for (p, q) = (1, 2), where
    sigma = -1 solves x^2 = x + 2, and makes J + p vanish; c = p is no
    structure, but with the gates forced open it makes J - p vanish.
    Each lets a p term alone decide a printed form: the coupling
    conjunct of thm-4.7 and the shape condition of thm-4.8."""
    rows = identity(ctx.space.dim, ctx.params)
    ctx.structure = MetallicStructure(ctx.space, tuple(tuple(c * x for x in r) for r in rows))
    return ctx


def unbound(name, criterion_holds, oracle_holds, witness):
    """_bind without the agreement check: a forced gate leaves the
    criterion free to disagree with its oracle."""
    witness["criterion_zero"] = criterion_holds
    witness["oracle_zero"] = oracle_holds
    verdict = Verdict.HOLDS if criterion_holds else Verdict.FAILS
    return CheckEntry(name, verdict, REFERENCES[name], witness)


def outcome(check, ctx):
    try:
        entry = check(ctx)
    except LightlikeLabError as exc:
        return ("raised", type(exc).__name__, str(exc))
    return (entry.name, entry.verdict, entry.reference, json.dumps(entry.witness, sort_keys=True))


# the witness entry holding each criterion's own residual samples
SAMPLE_KEYS = {
    "thm-3.5": "screen_components",
    "thm-3.6": "asymmetry",
    "thm-3.7": "shape_asymmetry",
    "thm-3.8": "transfer_residuals",
    "thm-3.9": "balanced_residuals",
    "thm-4.5": "coupling_asymmetry",
    "thm-4.6": "coupling_asymmetry",
    "thm-4.7": "balanced_residuals",
    "thm-4.8": "corrected_radical_components",
    "thm-4.9": "coupling_residuals",
}


def compare(ctx, reached):
    """Both sides of every check on one context; records the verdicts
    reached and whether a FAILS carried nonzero criterion samples."""
    for cid in CHECKS:
        new = outcome(POINT_CHECK_FUNCTIONS[cid], ctx)
        old = outcome(CRITERION_LOOPS[cid], ctx)
        assert new == old, cid
        if new[0] == "raised":
            reached["raised"].add(new[2])
        else:
            samples = json.loads(new[3]).get(SAMPLE_KEYS[cid])
            if samples is not None:
                reached[cid].add((new[1], samples["nonzero_count"] > 0))


def generated_contexts(seeds=SEEDS, params_list=None):
    for seed in seeds:
        for config in CONFIGS:
            for flavors in FLAVOR_SETS:
                for params in params_list or [MetallicParams(0, q) for q in (2, 3, 5)]:
                    try:
                        yield generated(config, flavors, params, seed)
                    except LightlikeLabError:
                        continue


def assert_both_verdicts(reached, checks=CHECKS):
    for cid in checks:
        assert (Verdict.HOLDS, False) in reached[cid], cid
        assert (Verdict.FAILS, True) in reached[cid], cid


def test_operators_match_the_loops_on_generated_scenes_and_fixtures():
    reached = defaultdict(set)
    for ctx in generated_contexts():
        compare(ctx, reached)
    for name in FIXTURE_NAMES:
        for ctx in fixture_contexts(name):
            compare(ctx, reached)
    for ctx in generated_contexts(seeds=(0,)):
        compare(regauged(ctx), reached)
    # thm-3.6 and thm-4.6 fail only off the kit's gauge
    assert_both_verdicts(reached)


def test_operators_match_the_loops_off_the_configurations(monkeypatch):
    monkeypatch.setattr(classifier, "_bind", unbound)
    monkeypatch.setattr(criterion_loops, "_bind", unbound)
    reached = defaultdict(set)
    params_list = [MetallicParams(p, q) for p, q in P_POSITIVE]
    for ctx in generated_contexts(seeds=(0, 1), params_list=params_list):
        assert ctx.params.p >= 1
        compare(forced_open(ctx), reached)
    for ctx in generated_contexts(seeds=(0,), params_list=params_list):
        compare(regauged(forced_open(ctx)), reached)
    for ctx in generated_contexts(seeds=(0,), params_list=[MetallicParams(1, 2)]):
        compare(forced_open(scalar_structure(ctx, -QuadScalar.one(ctx.params))), reached)
    for ctx in generated_contexts(seeds=(0,), params_list=params_list):
        p = QuadScalar(ctx.params.p, 0, ctx.params)
        compare(forced_open(scalar_structure(ctx, p)), reached)
    # a bent J leaves the transversal images their screen components
    params_list += [MetallicParams(0, q) for q in (2, 3, 5)]
    for k, ctx in enumerate(generated_contexts(seeds=(0,), params_list=params_list)):
        n = ctx.space.dim
        compare(forced_open(bent(ctx, k % n, (3 * k + 1) % n)), reached)
    assert "transversal image acquired a screen component" in reached["raised"]
    # every criterion with a p term leaves its samples at p >= 1
    assert_both_verdicts(reached, ("thm-3.8", "thm-3.9", "thm-4.7", "thm-4.8", "thm-4.9"))
