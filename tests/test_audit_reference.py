"""The integer nonexistence audit against the QuadScalar audit it
replaced (tests/audit_reference.py): the same witnesses, the same
generator states, and the same candidates, value for value."""

from __future__ import annotations

import random

import pytest

from lightlike_lab.classifier import AuditCell, _single_null_sweep, null_dual_candidate
from lightlike_lab.scalars import MetallicParams

import audit_reference as ref
from helpers import candidate_quads

# the six cells the sweep visits, then two with p = 0
CELLS = [MetallicParams(p, q) for p in (1, 2, 3) for q in (1, 2)]
CELLS += [MetallicParams(0, 2), MetallicParams(0, 3)]


@pytest.mark.parametrize("seed", range(20))
def test_sweep_matches_the_quadscalar_sweep(seed):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    assert _single_null_sweep(rng, 200) == ref._single_null_sweep(ref_rng, 200)
    assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("params", CELLS, ids=str)
def test_candidates_match_the_quadscalar_candidates(params):
    cell, ref_cell = AuditCell.of(params), ref.AuditCell.of(params)
    for seed in range(30):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(40):
            space, jxi, xi, nv = candidate_quads(null_dual_candidate(rng, cell), params)
            ref_space, ref_jxi, ref_xi, ref_nv = ref.null_dual_candidate(ref_rng, ref_cell)
            assert space.eps == ref_space.eps
            assert (xi, nv, jxi) == (ref_xi, ref_nv, ref_jxi)
        assert rng.getstate() == ref_rng.getstate()
