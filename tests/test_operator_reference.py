"""The slot-coordinate criteria and structure-eqs against the
projector-composed operators they replaced (tests/operator_reference.py).

On the 36 sweep contexts (both configurations x six flavors x q in
{2, 3, 5}) every criterion must give the same CheckEntry and hand
_residual_witness the same full list of samples, key for key and ambient
value for value, and structure-eqs the same pair count or the same first
failing slot and pair in each held mode.  The same holds with J bent at
each entry in turn, the configuration and the projectors cached from the
unbent point, every gate forced open and the screen fields regauged, so
each criterion of both modes runs and reaches nonzero samples.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from lightlike_lab import classifier
from lightlike_lab.classifier import POINT_CHECK_FUNCTIONS
from lightlike_lab.errors import InternalInconsistency, LightlikeLabError

from operator_reference import REFERENCE_CHECKS, structure_equations
from test_criterion_loops import bent, forced_open, regauged, unbound
from test_pair_loops import CONFIGS, FLAVOR_SETS, generated_context, held_modes

QS = (2, 3, 5)


@pytest.fixture
def recorded(monkeypatch):
    """Every sample list handed to _residual_witness, as (key, triples)."""
    calls = []
    original = classifier._residual_witness

    def recording(samples):
        calls.append([(key, tuple((x.A, x.B, x.D) for x in v)) for key, v in samples])
        return original(samples)

    monkeypatch.setattr(classifier, "_residual_witness", recording)
    return calls


def outcome(check, ctx, calls):
    calls.clear()
    try:
        entry = check(ctx)
        result = (entry.name, entry.verdict, json.dumps(entry.witness, sort_keys=True))
    except LightlikeLabError as exc:
        result = ("raised", type(exc).__name__, str(exc))
    return result, list(calls)


def equations(fn, ctx, mode):
    try:
        return ("pairs", fn(ctx, mode))
    except InternalInconsistency as exc:
        return ("raised", str(exc))


def compare(ctx, modes, calls, tally):
    """Both sides of every criterion and of structure-eqs in each mode;
    tallies the criteria that reached nonzero samples and the raises."""
    for cid, reference in REFERENCE_CHECKS.items():
        new = outcome(POINT_CHECK_FUNCTIONS[cid], ctx, calls)
        assert new == outcome(reference, ctx, calls), cid
        if new[0][0] == "raised":
            tally[new[0][2]] += 1
        elif new[1] and new[1][0]:
            tally[cid] += 1
    for mode in modes:
        new = equations(classifier._structure_equations, ctx, mode)
        assert new == equations(structure_equations, ctx, mode), mode
        tally[new[0] == "raised" and new[1].split(" at pair")[0] or "pairs"] += 1


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("config", CONFIGS)
def test_slot_coordinates_match_the_composed_operators_on_the_sweep(config, q, recorded):
    tally = Counter()
    for flavors in FLAVOR_SETS:
        ctx = generated_context(config, flavors, q)
        modes = held_modes(ctx)
        assert config in modes
        compare(ctx, modes, recorded, tally)
    assert tally["pairs"] >= len(FLAVOR_SETS)


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("config", CONFIGS)
def test_slot_coordinates_match_the_composed_operators_under_a_bent_structure(
    config, q, recorded, monkeypatch
):
    # the oracles do not read J, so each runs once per context; _bind
    # leaves a criterion free to disagree with its oracle
    memo = {}
    for name in ("_component_oracle", "_metric_oracle"):
        oracle = getattr(classifier, name)

        def cached(ctx, *args, _oracle=oracle, _name=name, **kwargs):
            key = (_name, id(ctx), tuple(map(id, args)), tuple(sorted(kwargs.items())))
            if key not in memo:
                memo[key] = (ctx, args, _oracle(ctx, *args, **kwargs))
            return memo[key][2]

        monkeypatch.setattr(classifier, name, cached)
    monkeypatch.setattr(classifier, "_bind", unbound)
    tally = Counter()
    for flavors in FLAVOR_SETS:
        ctx = generated_context(config, flavors, q)
        modes = held_modes(ctx)
        for mode in modes:
            ctx.projectors(mode)
        # off the kit's gauge the screen pairs of thm-3.6 and thm-4.6
        # leave their zero columns
        regauged(forced_open(ctx))
        original, n = ctx.structure, ctx.space.dim
        for a in range(n):
            for b in range(n):
                compare(bent(ctx, a, b), modes, recorded, tally)
                ctx.structure = original
    for cid in REFERENCE_CHECKS:
        assert tally[cid], cid
    # a bent J makes structure-eqs fail first in every slot the mode reaches
    slots = {k.split("in the ")[1] for k in tally if k.startswith("split regrouping")}
    assert slots == {"tangent slot", "screen-transversal slot"} | (
        {"null-transversal slot"} if config == "radical-transversal" else set()
    )
