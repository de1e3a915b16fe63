"""Verdicts must track the configuration predicates exactly, every
criterion must agree with its independent oracle, and configurations the
algebra rules out must abort instead of reporting a verdict."""

import functools
import json
import random
from collections import Counter
from fractions import Fraction
from importlib import resources

import pytest

from lightlike_lab import classifier
from lightlike_lab.ambient import MetallicStructure, SignatureSpace
from lightlike_lab.classifier import (
    CHECK_ORDER,
    POINT_CHECK_FUNCTIONS,
    REFERENCES,
    AuditCell,
    NullDualCandidate,
    PointContext,
    Verdict,
    check_frame,
    check_single_null_obstruction,
    random_isometry,
)
from lightlike_lab.errors import InternalInconsistency, NotLightlike
from lightlike_lab.generators import (
    perturbed_structured_scene,
    transform_immersion,
    transform_structure,
)
from lightlike_lab.geometry import derive, gauss_split, lie_bracket, split_tangent
from lightlike_lab.linalg import (
    FactoredBasis,
    invert,
    is_zero_vec,
    mat_mul,
    mat_vec,
    transpose,
    vec_add,
)
from lightlike_lab.polynomials import Polynomial
from lightlike_lab.runner import run
from lightlike_lab.scalars import GOLDEN, MetallicParams, QuadScalar
from lightlike_lab.scenes import parse_scene
from lightlike_lab.submanifold import PolynomialImmersion
from helpers import (
    apply_structure_field,
    project,
    radical_onto_ltr,
    screen_kept,
    singular_structure_context,
)
from operator_reference import reference_projectors, slot, transversal_coefficients

P0 = MetallicParams(0, 2)

_CTX_CACHE = {}


def scene_context(config, flavors, seed, params=P0):
    key = (config, flavors, seed, params)
    if key not in _CTX_CACHE:
        sc = perturbed_structured_scene(random.Random(seed), params, config, flavors)
        _CTX_CACHE[key] = PointContext(
            sc.immersion,
            sc.structure,
            sc.point,
            sc.screen_override,
            sc.normal_screen_override,
        )
    return _CTX_CACHE[key]


def q0(x):
    return QuadScalar(x, 0, P0)


def flat_pair_parts(params):
    """R^3 with one null tangent pair and one spacelike direction."""
    space = SignatureSpace(3, (-1, 1, 1), params)
    comps = (
        Polynomial.variable(0, 2, params),
        Polynomial.variable(0, 2, params),
        Polynomial.variable(1, 2, params),
    )
    imm = PolynomialImmersion(space, 2, comps)
    origin = (QuadScalar.zero(params), QuadScalar.zero(params))
    return space, imm, origin


def sigma_identity_context():
    space, imm, origin = flat_pair_parts(P0)
    sigma = QuadScalar(0, 1, P0)
    zero = QuadScalar.zero(P0)
    mat = tuple(
        tuple(sigma if i == j else zero for j in range(3)) for i in range(3)
    )
    return PointContext(imm, MetallicStructure(space, mat), origin)


def crooked_golden_context():
    """Valid quadratic relation, broken self-adjointness, radical mapped
    onto the transversal span at p = 1."""
    space, imm, origin = flat_pair_parts(GOLDEN)
    one = QuadScalar.one(GOLDEN)
    zero = QuadScalar.zero(GOLDEN)
    half = QuadScalar(Fraction(1, 2), 0, GOLDEN)
    sigma = QuadScalar(0, 1, GOLDEN)
    xi = (one, one, zero)
    nv = (-half, half, zero)
    e2 = (zero, zero, one)
    basis_cols = transpose((xi, nv, e2))
    image_cols = transpose(
        (nv, tuple(a + b for a, b in zip(xi, nv)), (zero, zero, sigma))
    )
    mat = mat_mul(image_cols, invert(basis_cols))
    return PointContext(imm, MetallicStructure(space, mat), origin)


def test_check_order_is_complete_and_referenced():
    assert len(CHECK_ORDER) == len(set(CHECK_ORDER)) == 19
    for cid in CHECK_ORDER:
        assert REFERENCES[cid].strip()
    assert set(POINT_CHECK_FUNCTIONS) <= set(CHECK_ORDER)


# pinned generator scenes: both verdict branches wherever the scene
# families can reach them, plus cross-configuration gating
PINNED = [
    ("radical-transversal", ("ltr",), 11, "def-3.1", "HOLDS"),
    ("radical-transversal", ("ltr",), 11, "thm-3.5", "FAILS"),
    ("radical-transversal", ("ltr",), 11, "thm-3.6", "HOLDS"),
    ("radical-transversal", ("rad-twist",), 9, "thm-3.7", "FAILS"),
    ("radical-transversal", ("rad-twist",), 9, "thm-3.8", "FAILS"),
    ("radical-transversal", ("ltr",), 10, "thm-3.9", "FAILS"),
    ("radical-transversal", ("rad",), 1, "thm-3.9", "FAILS"),
    ("radical-transversal", (), 0, "thm-3.5", "HOLDS"),
    ("radical-transversal", (), 0, "thm-3.7", "HOLDS"),
    ("radical-transversal", (), 0, "thm-3.8", "HOLDS"),
    ("radical-transversal", (), 0, "thm-3.9", "HOLDS"),
    ("radical-transversal", (), 0, "structure-eqs", "HOLDS"),
    ("radical-transversal", (), 0, "thm-3.3", "HOLDS"),
    ("radical-transversal", (), 0, "def-4.1", "FAILS"),
    ("radical-transversal", (), 0, "thm-4.5", "NOT_APPLICABLE"),
    ("transversal", ("rad-twist",), 29, "def-4.1", "HOLDS"),
    ("transversal", ("rad-twist",), 29, "thm-4.5", "FAILS"),
    ("transversal", ("rad-twist",), 29, "thm-4.8", "FAILS"),
    ("transversal", ("rad-twist",), 29, "thm-4.9", "FAILS"),
    ("transversal", ("ltr",), 19, "thm-4.7", "FAILS"),
    ("transversal", (), 0, "thm-4.5", "HOLDS"),
    ("transversal", (), 0, "thm-4.6", "HOLDS"),
    ("transversal", (), 0, "thm-4.7", "HOLDS"),
    ("transversal", (), 0, "thm-4.8", "HOLDS"),
    ("transversal", (), 0, "thm-4.9", "HOLDS"),
    ("transversal", (), 0, "structure-eqs", "HOLDS"),
    ("transversal", (), 0, "prop-4.2", "HOLDS"),
    ("transversal", (), 0, "def-3.1", "FAILS"),
    ("transversal", (), 0, "thm-3.6", "NOT_APPLICABLE"),
]


@pytest.mark.parametrize("config,flavors,seed,check,expected", PINNED)
def test_pinned_scene_verdicts(config, flavors, seed, check, expected):
    ctx = scene_context(config, flavors, seed)
    entry = POINT_CHECK_FUNCTIONS[check](ctx)
    assert entry.verdict == Verdict(expected)
    assert entry.name == check
    assert entry.reference == REFERENCES[check]


def test_verdict_values():
    assert {v.value for v in Verdict} == {"HOLDS", "FAILS", "NOT_APPLICABLE"}


def test_not_applicable_entries_say_why():
    ctx = scene_context("transversal", (), 0)
    entry = POINT_CHECK_FUNCTIONS["thm-3.5"](ctx)
    assert entry.verdict == Verdict.NOT_APPLICABLE
    assert "configuration" in entry.witness["reason"]


def test_golden_params_cannot_enter_either_configuration():
    # the trace obstruction: mapping the radical onto the null
    # transversal span forces p = 0, so at p = 1 both definition
    # predicates must come back false on honest structures
    for config in ("radical-transversal", "transversal"):
        ctx = scene_context(config, ("ltr",), 3, GOLDEN)
        assert POINT_CHECK_FUNCTIONS["def-3.1"](ctx).verdict == Verdict.FAILS
        assert POINT_CHECK_FUNCTIONS["def-4.1"](ctx).verdict == Verdict.FAILS
        assert (
            POINT_CHECK_FUNCTIONS["thm-3.5"](ctx).verdict == Verdict.NOT_APPLICABLE
        )


def test_sigma_multiple_of_identity_fails_the_radical_clause():
    ctx = sigma_identity_context()
    assert ctx.structure_valid()
    entry = POINT_CHECK_FUNCTIONS["def-3.1"](ctx)
    assert entry.verdict == Verdict.FAILS
    assert entry.witness["radical_images_span_transversal"] is False


def test_nondegenerate_point_raises_not_lightlike():
    params = P0
    space = SignatureSpace(3, (1, 1, 1), params)
    imm = PolynomialImmersion(
        space,
        2,
        (
            Polynomial.variable(0, 2, params),
            Polynomial.variable(1, 2, params),
            Polynomial.zero(2, params),
        ),
    )
    origin = (QuadScalar.zero(params), QuadScalar.zero(params))
    ctx = sigma_identity_context()
    flat = PointContext(imm, MetallicStructure(space, ctx.structure.matrix), origin)
    with pytest.raises(NotLightlike):
        flat.configuration("radical-transversal")


def test_invalid_structure_gates_every_check_not_applicable():
    ctx = crooked_golden_context()
    assert not ctx.structure_valid()
    assert len(POINT_CHECK_FUNCTIONS) == 15
    for cid, fn in POINT_CHECK_FUNCTIONS.items():
        entry = fn(ctx)
        assert entry == (
            cid,
            Verdict.NOT_APPLICABLE,
            REFERENCES[cid],
            {"reason": "structure endomorphism fails its validators"},
        )


# the checks with no hypothesis to gate: the two structure validators,
# the frame report and the scene-independent audit
UNGATED_CHECKS = ("metallic-validate", "compat-validate", "frame", "audit-nonexistence")


def test_point_check_registry_follows_the_check_order_and_module_names():
    # perfbench times each check through classifier.<__name__> and
    # rebinds the registry's values by identity
    assert list(POINT_CHECK_FUNCTIONS) == [c for c in CHECK_ORDER if c not in UNGATED_CHECKS]
    for fn in POINT_CHECK_FUNCTIONS.values():
        assert not fn.__name__.startswith("_")
        assert getattr(classifier, fn.__name__) is fn


def test_impossible_spanning_image_aborts_when_structure_claims_validity():
    # white box: the crooked structure maps the radical onto the
    # transversal span at p = 1, which the audit must treat as a broken
    # invariant the moment the validity gate is bypassed
    ctx = crooked_golden_context()
    ctx._valid = True
    with pytest.raises(InternalInconsistency):
        ctx.configuration("radical-transversal")


def test_frame_claims_in_agreement_produce_no_notices():
    ctx = sigma_identity_context()
    xi = (q0(1), q0(1), q0(0))
    entry, notices = check_frame(ctx, declared_radical_dim=1, declared_radical=[xi])
    assert entry.verdict == Verdict.HOLDS
    assert notices == ()
    assert entry.witness["tangent_gram"] == [["0", "0"], ["0", "1"]]


def test_frame_claim_dimension_mismatch_is_a_notice():
    ctx = sigma_identity_context()
    entry, notices = check_frame(ctx, declared_radical_dim=2)
    assert entry.verdict == Verdict.HOLDS
    assert any("dimension" in n for n in notices)


def test_frame_claim_vector_outside_radical_is_a_notice():
    ctx = sigma_identity_context()
    spacelike = (q0(0), q0(0), q0(1))
    entry, notices = check_frame(ctx, declared_radical=[spacelike])
    assert entry.verdict == Verdict.HOLDS
    assert notices and any("radical" in n for n in notices)


@pytest.mark.parametrize(
    "config,mode",
    [
        ("radical-transversal", "radical-transversal"),
        ("transversal", "transversal"),
    ],
)
def test_projector_audit_is_clean_on_holding_scenes(config, mode):
    ctx = scene_context(config, (), 0)
    assert ctx.projectors(mode).audit() == []


def _factored_splits(frame):
    """The split maps composed from two factorizations eliminated here,
    independently of the frame's four-slot basis: the tangent +
    transversal + normal-screen basis of the ambient space and the
    screen + radical basis of the tangent space."""
    m, r, s = frame.tangent.dim, len(frame.ltr), frame.screen.dim
    n, params = frame.space.dim, frame.space.params
    full = FactoredBasis(frame.tangent.basis + frame.ltr + frame.normal_screen.basis, n, params)
    tangent = FactoredBasis(frame.screen.basis + frame.rad_basis, n, params)
    T = full.projector(range(m))
    splits = {
        "tangent": T,
        "transversal": full.projector(range(m, m + r)),
        "normal-screen": full.projector(range(m + r, len(full.basis))),
        "screen": mat_mul(tangent.projector(range(s)), T),
        "radical": mat_mul(tangent.projector(range(s, s + r)), T),
    }
    return splits, full.coordinate_map(range(m, m + r))


def _configured(ctx):
    return ctx.structure_valid() and any(
        ctx.configuration(mode)[0] for mode in ("radical-transversal", "transversal")
    )


def _assert_slots_are_the_factored_splits(ctx):
    splits, coefficients = _factored_splits(ctx.frame)
    for label, matrix in splits.items():
        assert slot(ctx, label) == matrix, label
    # <xi_j, v> is the N_j coefficient of v, and the criteria read it as
    # the transversal rows of the slot coordinate map C^-1
    assert transversal_coefficients(ctx) == coefficients
    at = ctx.frame.slot_ranges["transversal"]
    assert ctx.projectors("radical-transversal").inverse[at.start : at.stop] == coefficients
    assert len(coefficients) == ctx.frame.radical_dim > 0


FIXTURE_DIR = resources.files("lightlike_lab") / "fixtures"


def test_four_slot_projectors_are_the_factored_splits_on_the_fixtures():
    checked = []
    for path in sorted(FIXTURE_DIR.iterdir(), key=lambda f: f.name):
        if not path.name.endswith(".json"):
            continue
        sc = parse_scene(path.read_bytes())
        for point in sc.points:
            try:
                ctx = PointContext(sc.immersion, sc.structure, point, sc.screen, sc.normal_screen)
                if not _configured(ctx):
                    continue
            except (NotLightlike, InternalInconsistency):
                continue
            _assert_slots_are_the_factored_splits(ctx)
            checked.append(path.name)
    assert len(set(checked)) == 5, checked


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("config", ["radical-transversal", "transversal"])
def test_four_slot_projectors_are_the_factored_splits_on_a_sweep(config, q):
    checked = 0
    for flavors in ((), ("str",), ("ltr",), ("rad",), ("screen",), ("rad-twist",)):
        for seed in range(8):
            ctx = scene_context(config, flavors, seed, MetallicParams(0, q))
            assert _configured(ctx)
            _assert_slots_are_the_factored_splits(ctx)
            # the five slots refine the four only inside the normal screen
            if config == "transversal":
                five = reference_projectors(ctx.projectors("transversal")).matrices
                for label in ("screen", "radical", "transversal"):
                    assert five[label] == slot(ctx, label), label
            checked += 1
    assert checked == 48


# The lettered projections the structure equations are written with,
# each the sum of the slot projectors it names, and the complement pairs
# that must sum to the identity on their shared domain.
LETTER_SLOTS = {
    "T": ("screen",),
    "Q": ("radical",),
    "K1": ("transversal",),
    "K2": ("radical",),
    "D": ("mapped-screen",),
    "E": ("mu",),
    "S1": ("mapped-screen",),
    "S2": ("screen",),
    "T1": ("radical",),
    "T2": ("transversal",),
    "M1": ("screen",),
    "M2": ("mapped-screen",),
    "Q1": ("screen",),
    "Q2": ("mapped-screen", "mu"),
}
COMPLEMENT_PAIRS = (
    ("T", "Q", ("screen", "radical")),
    ("K1", "K2", ("transversal", "radical")),
    ("D", "E", ("mapped-screen", "mu")),
    ("S1", "S2", ("mapped-screen", "screen")),
    ("T1", "T2", ("radical", "transversal")),
    ("M1", "M2", ("screen", "mapped-screen")),
    ("Q1", "Q2", ("screen", "mapped-screen", "mu")),
)


def _mat_sum(matrices):
    return functools.reduce(lambda a, b: tuple(map(vec_add, a, b)), matrices)


@pytest.mark.parametrize("config", ["radical-transversal", "transversal"])
@pytest.mark.parametrize("seed", range(4))
def test_letters_rebuilt_from_slot_projectors_pass_the_letter_audit(config, seed):
    flavors = ("ltr",) if seed % 2 else ("rad-twist",)
    ctx = scene_context(config, flavors, 60 + seed)
    proj = reference_projectors(ctx.projectors(config))
    letters = {
        name: _mat_sum(proj.matrices[s] for s in slots)
        for name, slots in LETTER_SLOTS.items()
        if all(s in proj.matrices for s in slots)
    }
    assert len(letters) == (14 if config == "transversal" else 9)
    for name, matrix in letters.items():
        assert mat_mul(matrix, matrix) == matrix, name
        for slot, basis in proj.bases.items():
            for v in basis:
                image = mat_vec(matrix, v)
                if slot in LETTER_SLOTS[name]:
                    assert image == v, (name, slot)
                else:
                    assert is_zero_vec(image), (name, slot)
    checked = 0
    for a, b, domain in COMPLEMENT_PAIRS:
        if a in letters and b in letters:
            checked += 1
            total = _mat_sum((letters[a], letters[b]))
            for slot in domain:
                for v in proj.bases[slot]:
                    assert mat_vec(total, v) == v, (a, b, slot)
    assert checked == (7 if config == "transversal" else 3)


@pytest.mark.parametrize(
    "config,seed",
    [
        ("radical-transversal", 0),
        ("radical-transversal", 1),
        ("transversal", 1),
        ("transversal", 3),
        ("transversal", 7),
    ],
)
def test_structure_equations_hold_with_every_mode_term_live(config, seed):
    # the induced connection has a screen part and the second fundamental
    # form hs has a part on every normal-screen slot of the mode, so each
    # mode-specific term of the regrouped equations is nonzero somewhere
    ctx = scene_context(config, ("str", "screen"), seed)
    proj = ctx.projectors(config)
    coords = ctx.chart().coordinates
    splits = [gauss_split(ctx.frame, u, w) for u in coords for w in coords]
    assert any(not is_zero_vec(split_tangent(ctx.frame, g.induced)[0]) for g in splits)
    slots = ("normal-screen",) if config == "radical-transversal" else ("mapped-screen", "mu")
    for slot in slots:
        assert any(not is_zero_vec(project(proj, slot, g.hs)) for g in splits), slot
    if config == "transversal":
        assert not ctx.configuration("radical-transversal")[0]
    entry = POINT_CHECK_FUNCTIONS["structure-eqs"](ctx)
    assert (entry.verdict, entry.witness["mode"]) == (Verdict.HOLDS, config)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_structure_keeps_the_mapped_screen_up_to_p(q):
    """P_ms J P_ms = p P_ms on every generated transversal scene: J maps
    J(screen) into J(screen) + screen with mapped-screen part p times the
    vector, which is why structure-eqs carries no P_ms J P_ms S term at
    p = 0."""
    params = MetallicParams(0, q)
    live = 0
    for flavors in ((), ("str",), ("ltr",), ("rad",), ("screen",), ("rad-twist",)):
        for seed in range(3):
            ctx = scene_context("transversal", flavors, seed, params)
            mapped = reference_projectors(ctx.projectors("transversal")).matrices["mapped-screen"]
            J = ctx.structure.matrix
            scaled = tuple(tuple(params.p * x for x in row) for row in mapped)
            assert mat_mul(mat_mul(mapped, J), mapped) == scaled
            live += any(any(row) for row in mapped)
    assert live


@pytest.mark.parametrize("mode", ["radical-transversal", "transversal"])
def test_projector_audit_reports_a_perturbed_slot_matrix(mode):
    # the projector-matrix audit of tests/operator_reference.py
    ctx = scene_context(mode, (), 0)
    proj = reference_projectors(ctx.projectors(mode))
    assert proj.audit() == []
    for label, matrix in proj.matrices.items():
        for i, j in ((0, 0), (len(matrix) - 1, 1)):
            rows = [list(row) for row in matrix]
            rows[i][j] = rows[i][j] + q0(1)
            bent = dict(proj.matrices)
            bent[label] = tuple(tuple(row) for row in rows)
            problems = proj._replace(matrices=bent).audit()
            assert any(p.startswith(f"P[{label}] ") for p in problems), (label, i, j)
            assert "slot projectors do not sum to the identity" in problems


def _bent(rows, i, j):
    rows = [list(row) for row in rows]
    rows[i][j] = rows[i][j] + q0(1)
    return tuple(tuple(row) for row in rows)


@pytest.mark.parametrize("mode", ["radical-transversal", "transversal"])
def test_projector_audit_reports_perturbed_slot_coordinates(mode):
    # a bent entry (i, j) of C^-1 moves row i of C^-1 C by row j of C, so
    # exactly the slots with a basis vector nonzero at j are reported
    ctx = scene_context(mode, (), 0)
    proj = ctx.projectors(mode)
    n = ctx.space.dim
    for i, j in ((0, 0), (n - 1, 1), (n - 1, n - 1)):
        problems = proj._replace(inverse=_bent(proj.inverse, i, j)).audit()
        touched = [label for label, basis in proj.bases.items() if any(v[j] for v in basis)]
        assert problems == [f"slot coordinates do not recover slot {label}" for label in touched]
        assert touched, (i, j)
    if mode == "transversal":
        # a bent split reads the normal-screen rows wrong
        k = len(proj.split.basis)
        for i, j in ((0, 0), (k - 1, k - 1)):
            split = FactoredBasis(_bent(proj.split.basis, i, j), k, P0)
            problems = proj._replace(split=split).audit()
            assert problems and set(problems) <= {
                "slot coordinates do not recover slot mapped-screen",
                "slot coordinates do not recover slot mu",
            }


@pytest.mark.parametrize(
    "config,mode",
    [
        ("radical-transversal", "radical-transversal"),
        ("transversal", "transversal"),
    ],
)
def test_tangent_image_parts_reassemble(config, mode):
    ctx = scene_context(config, ("rad",), 1)
    frame = ctx.frame
    v = tuple(
        sum(row[i] for row in frame.tangent.basis) for i in range(ctx.space.dim)
    )
    proj = ctx.projectors(mode)
    parts = [project(proj, label, ctx.structure.apply(v)) for label in proj.bases]
    total = tuple(
        sum((p[i] for p in parts), QuadScalar.zero(P0))
        for i in range(ctx.space.dim)
    )
    assert total == ctx.structure.apply(v)


def test_normal_screen_image_parts_reassemble():
    ctx = scene_context("transversal", (), 0)
    proj = ctx.projectors("transversal")
    v = ctx.frame.normal_screen.basis[0]
    total = vec_add(
        ctx.structure.apply(project(proj, "mapped-screen", v)),
        ctx.structure.apply(project(proj, "mu", v)),
    )
    assert total == ctx.structure.apply(v)


def test_hessian_is_evaluated_once_per_point_and_only_on_demand(monkeypatch):
    calls = []
    hessian = PolynomialImmersion.hessian

    def counting(self, point):
        calls.append(point)
        return hessian(self, point)

    monkeypatch.setattr(PolynomialImmersion, "hessian", counting)
    sc = perturbed_structured_scene(random.Random(1), P0, "radical-transversal", ("rad",))
    ctx = PointContext(
        sc.immersion, sc.structure, sc.point, sc.screen_override, sc.normal_screen_override
    )
    check_frame(ctx)
    assert calls == []
    for check in POINT_CHECK_FUNCTIONS.values():
        check(ctx)
    assert calls == [ctx.frame.point]


# Every FactoredBasis one point's checks build, in order, as (what,
# vectors, their length): the frame's four slot bases stacked, the one
# ambient-complete factorization; the Jacobian; the k-wide normal-screen
# coordinates of a transversal point's mapped-screen + mu basis; and the
# kit's linear systems, whose vectors are system columns
FACTORIZATIONS = {
    "radical-transversal-plane": [
        ("slots", 3, 3),
        ("system", 2, 2),
        ("jacobian", 2, 3),
        ("system", 3, 3),
        ("system", 2, 1),
    ],
    "transversal-plane": [
        ("slots", 5, 5),
        ("system", 2, 2),
        ("jacobian", 2, 5),
        ("system", 5, 2),
        ("system", 5, 5),
        ("system", 2, 2),
    ],
    "transversal-recorded": [
        ("slots", 6, 6),
        ("mapped-screen + mu", 1, 1),
        ("system", 3, 3),
        ("jacobian", 3, 6),
        ("system", 6, 3),
        ("system", 6, 6),
        ("system", 3, 2),
    ],
}


@pytest.mark.parametrize("name", sorted(FACTORIZATIONS))
def test_each_basis_is_eliminated_at_most_once_per_point(name, monkeypatch):
    eliminated = []
    factor = FactoredBasis.__init__

    def counting(self, basis, ambient_dim, params):
        eliminated.append(tuple(basis))
        factor(self, basis, ambient_dim, params)

    monkeypatch.setattr(FactoredBasis, "__init__", counting)
    fixture = resources.files("lightlike_lab") / "fixtures" / f"{name}.json"
    sc = parse_scene(fixture.read_bytes())
    ctx = PointContext(sc.immersion, sc.structure, sc.points[0], sc.screen, sc.normal_screen)
    assert not eliminated  # building the frame factors nothing
    for check in POINT_CHECK_FUNCTIONS.values():
        check(ctx)
    frame = ctx.frame
    known = {
        frame.screen.basis + frame.rad_basis + frame.ltr + frame.normal_screen.basis: "slots",
        frame.tangent_jacobian: "jacobian",
    }
    if ctx.configuration("transversal")[0] and frame.screen.dim:
        at = frame.slot_ranges["normal-screen"]
        split = ctx.mapped_screen() + ctx.mu_subspace().basis
        known[tuple(frame.slot_coords(v)[at.start : at.stop] for v in split)] = "mapped-screen + mu"
    labels = [(known.get(b, "system"), len(b), len(b[0])) for b in eliminated]
    assert labels == FACTORIZATIONS[name]
    assert len(set(eliminated)) == len(eliminated)


@pytest.mark.parametrize("config,seed", [("radical-transversal", 1), ("transversal", 1)])
def test_each_configuration_clause_needs_full_rank_images(config, seed):
    # images inside the target slot are not enough: a singular J that
    # maps the radical onto ltr but kills the screen meets the radical
    # clause and neither screen clause, and one that keeps the screen
    # but kills the radical meets only the screen-invariance clause
    onto = singular_structure_context(config, seed, radical_onto_ltr)
    kept = singular_structure_context(config, seed, screen_kept)
    assert onto.frame.screen.dim and onto.frame.radical_dim
    for mode, key in (
        ("radical-transversal", "screen_invariant"),
        ("transversal", "screen_maps_into_normal_screen"),
    ):
        holds, witness = onto.configuration(mode)
        assert witness["radical_images_span_transversal"] is True
        assert witness[key] is False and not holds
        holds, witness = kept.configuration(mode)
        assert witness["radical_images_span_transversal"] is False
        assert witness[key] is (mode == "radical-transversal") and not holds


def test_radical_clause_is_computed_once_per_point(monkeypatch):
    calls = Counter()
    mapped_radical = PointContext.mapped_radical

    def counting(self):
        calls[id(self)] += 1
        return mapped_radical(self)

    monkeypatch.setattr(PointContext, "mapped_radical", counting)
    sc = perturbed_structured_scene(random.Random(0), P0, "radical-transversal", ())
    args = (sc.immersion, sc.structure, sc.point, sc.screen_override, sc.normal_screen_override)
    ctx = PointContext(*args)
    rt = ctx.configuration("radical-transversal")[1]
    tr = ctx.configuration("transversal")[1]
    for check in POINT_CHECK_FUNCTIONS.values():
        check(ctx)
    assert calls[id(ctx)] == 1
    assert rt["radical_images_span_transversal"] is True
    assert rt["radical_images"] == tr["radical_images"]
    # a raising clause is not kept: each mode raises again
    broken = PointContext(*args)
    monkeypatch.setattr(PointContext, "params", property(lambda self: GOLDEN))
    for mode in ("radical-transversal", "transversal"):
        with pytest.raises(InternalInconsistency, match="trace obstruction rules out"):
            broken.configuration(mode)
    assert calls[id(broken)] == 2


def test_structure_image_fields_compose_pointwise():
    ctx = scene_context("radical-transversal", (), 0)
    field = ctx.kit().radical[0]
    composed = apply_structure_field(ctx.structure, field)
    assert composed.value == ctx.structure.apply(field.value)
    for u in ctx.chart().coordinates:
        assert derive(u, composed) == ctx.structure.apply(derive(u, field))


def test_screen_brackets_close_in_the_stationarity_gauge():
    # adapted screen fields pin their radical drift to a pairing with
    # the transversal sections, and that pairing is symmetric for any
    # second-derivative source, so the brackets stay inside the screen
    # at the sample point; the integrability checks on these families
    # are exercised for agreement, not for a reachable failure
    for config, cid in (
        ("radical-transversal", "thm-3.6"),
        ("transversal", "thm-4.6"),
    ):
        ctx = scene_context(config, ("ltr",), 11 if config.startswith("r") else 19)
        entry = POINT_CHECK_FUNCTIONS[cid](ctx)
        if entry.verdict == Verdict.NOT_APPLICABLE:
            continue
        assert entry.verdict == Verdict.HOLDS
        kit = ctx.kit()
        zero = QuadScalar.zero(P0)
        for a in range(len(kit.screen_adapted)):
            for b in range(a + 1, len(kit.screen_adapted)):
                br = lie_bracket(kit.screen_adapted[a], kit.screen_adapted[b])
                _, rad_coeffs = split_tangent(ctx.frame, br)
                assert all(c == zero for c in rad_coeffs)


def test_isotropic_scene_holds_vacuously():
    ctx = scene_context("transversal", (), 2)
    assert ctx.frame.screen.dim == 0
    for cid in ("def-4.1", "thm-4.5", "thm-4.6", "thm-4.7"):
        assert POINT_CHECK_FUNCTIONS[cid](ctx).verdict == Verdict.HOLDS


def test_screen_rescaling_does_not_move_the_definition_verdicts():
    sc = perturbed_structured_scene(
        random.Random(0), P0, "radical-transversal", ()
    )
    base = PointContext(
        sc.immersion, sc.structure, sc.point, sc.screen_override, sc.normal_screen_override
    )
    scale = QuadScalar(Fraction(3, 2), 0, P0)
    scaled_screen = tuple(
        tuple(scale * x for x in v) for v in sc.screen_override
    )
    scaled = PointContext(
        sc.immersion, sc.structure, sc.point, scaled_screen, sc.normal_screen_override
    )
    for cid in ("def-3.1", "def-4.1"):
        assert (
            POINT_CHECK_FUNCTIONS[cid](base).verdict
            == POINT_CHECK_FUNCTIONS[cid](scaled).verdict
        )


def test_radical_images_qualify_under_any_screen():
    # the computed transversal complement is built orthogonal to the
    # stored screen, so shearing the screen by a radical vector regauges
    # it and the span-equality clause may move with it; what no screen
    # can move is the qualification of the images themselves: null,
    # nondegenerately paired against the radical, transverse to the
    # tangent space
    sc = perturbed_structured_scene(
        random.Random(0), P0, "radical-transversal", ()
    )
    base = PointContext(
        sc.immersion, sc.structure, sc.point, sc.screen_override, sc.normal_screen_override
    )
    xi = base.frame.rad_basis[0]
    sheared = list(sc.screen_override)
    sheared[0] = tuple(a + b for a, b in zip(sheared[0], xi))
    moved = PointContext(
        sc.immersion, sc.structure, sc.point, tuple(sheared), sc.normal_screen_override
    )
    _, base_witness = base.configuration("radical-transversal")
    assert base_witness["radical_images_span_transversal"] is True
    zero = QuadScalar.zero(P0)
    for ctx in (base, moved):
        space = ctx.space
        images = ctx.mapped_radical()
        for u in images:
            assert all(space.inner(u, w) == zero for w in images)
            assert not ctx.frame.tangent.contains(u)
        pairing = tuple(
            tuple(space.inner(u, x) for x in ctx.frame.rad_basis) for u in images
        )
        assert invert(pairing) is not None


@pytest.mark.parametrize("config", ["radical-transversal", "transversal"])
@pytest.mark.parametrize("seed", range(6))
def test_every_point_check_completes_with_a_sound_verdict(config, seed):
    # agreement is enforced inside each check: a criterion and oracle
    # split would raise instead of returning, so completion is the test
    flavors = ("ltr",) if seed % 2 else ("rad-twist",)
    ctx = scene_context(config, flavors, 40 + seed)
    for cid, fn in POINT_CHECK_FUNCTIONS.items():
        entry = fn(ctx)
        assert entry.verdict in (Verdict.HOLDS, Verdict.FAILS, Verdict.NOT_APPLICABLE)


def test_witnesses_are_json_serializable():
    ctx = scene_context("transversal", ("rad-twist",), 29)
    for cid, fn in POINT_CHECK_FUNCTIONS.items():
        entry = fn(ctx)
        blob = json.dumps(entry.witness)
        assert "QuadScalar" not in blob and "Fraction" not in blob


def test_failure_witnesses_carry_exact_residual_samples():
    ctx = scene_context("radical-transversal", ("ltr",), 11)
    entry = POINT_CHECK_FUNCTIONS["thm-3.5"](ctx)
    assert entry.verdict == Verdict.FAILS
    blob = json.dumps(entry.witness)
    assert "sigma" in blob or any(ch.isdigit() for ch in blob)


# For two or more radical directions the null transversal frame is
# unique only up to an antisymmetric radical shift, and build_frame picks
# it by a greedy pass over ambient coordinates.  On these scenes the
# conjugated frame lands on another transversal span (radical and screen
# are carried over exactly), so the definition predicate flips; the
# marks record that known defect and fail loudly once it is mended.
_GAUGE_DEPENDENT = {
    (config, ("rad-twist",), q, 1)
    for config in ("radical-transversal", "transversal")
    for q in (2, 3, 5)
}


def _isometry_cases():
    for config in ("radical-transversal", "transversal"):
        for flavors in ((), ("str",), ("ltr",), ("rad",), ("screen",), ("rad-twist",)):
            for q in (2, 3, 5):
                for seed in range(2):
                    marks = ()
                    if (config, flavors, q, seed) in _GAUGE_DEPENDENT:
                        marks = pytest.mark.xfail(
                            strict=True,
                            reason="transversal frame choice is not isometry-equivariant for r >= 2",
                        )
                    yield pytest.param(config, flavors, q, seed, marks=marks)


def _point_verdicts(ctx):
    return {cid: fn(ctx).verdict for cid, fn in POINT_CHECK_FUNCTIONS.items()}


@pytest.mark.parametrize("config,flavors,q,seed", _isometry_cases())
def test_point_verdicts_survive_an_ambient_isometry(config, flavors, q, seed):
    params = MetallicParams(0, q)
    sc = perturbed_structured_scene(random.Random(seed), params, config, flavors)
    iso = random_isometry(random.Random(1000 + seed), sc.immersion.space)
    moved = tuple(mat_vec(iso, v) for v in sc.normal_screen_override or ())
    before = PointContext(
        sc.immersion, sc.structure, sc.point, sc.screen_override, sc.normal_screen_override
    )
    after = PointContext(
        transform_immersion(sc.immersion, iso),
        transform_structure(sc.structure, iso),
        sc.point,
        tuple(mat_vec(iso, v) for v in sc.screen_override),
        moved or None,
    )
    # every screen choice is declared: an undeclared normal screen is {0}
    assert after.frame.normal_screen.dim == len(moved)
    verdicts = _point_verdicts(before)
    assert verdicts[{"radical-transversal": "def-3.1", "transversal": "def-4.1"}[config]] == (
        Verdict.HOLDS
    )
    assert _point_verdicts(after) == verdicts


# Two more symmetries the mathematics promises (metamorphic relations):
# Galois conjugation sigma -> p - sigma of every scalar is a field
# automorphism, so it keeps every zero test and every defining relation;
# negating the signature keeps the radical, the screens and the
# Levi-Civita connection and sends ltr to -ltr.  Every point verdict
# must survive both.


def _map_scalars(f, vectors):
    return None if vectors is None else tuple(tuple(f(x) for x in v) for v in vectors)


def _map_polynomial(f, poly):
    return Polynomial({e: f(c) for e, c in poly.terms.items()}, poly.nvars, poly.params)


def _rebuilt(space, immersion, structure, f=lambda x: x):
    """The immersion and structure over space, every scalar mapped by f."""
    components = tuple(_map_polynomial(f, c) for c in immersion.components)
    return (
        PolynomialImmersion(space, immersion.chart_dim, components),
        MetallicStructure(space, _map_scalars(f, structure.matrix)),
    )


def _conjugated_scene(scene):
    conj = QuadScalar.conjugate
    immersion, structure = _rebuilt(scene.space, scene.immersion, scene.structure, conj)
    return scene._replace(
        immersion=immersion,
        structure=structure,
        points=_map_scalars(conj, scene.points),
        screen=_map_scalars(conj, scene.screen),
        normal_screen=_map_scalars(conj, scene.normal_screen),
        radical_sections=tuple(
            tuple(_map_polynomial(conj, c) for c in fld) for fld in scene.radical_sections
        ),
        screen_sections=tuple(
            tuple(_map_polynomial(conj, c) for c in fld) for fld in scene.screen_sections
        ),
        claims=scene.claims._replace(
            claimed_radical=_map_scalars(conj, scene.claims.claimed_radical)
        ),
    )


def _report_point_verdicts(scene):
    """Every point check at every point of the scene, through run()."""
    checks = tuple(c for c in CHECK_ORDER if c in POINT_CHECK_FUNCTIONS)
    report = run(scene._replace(checks=checks))
    return {e["check"]: [pt["verdict"] for pt in e["points"]] for e in report.entries}


@pytest.mark.parametrize(
    "name", sorted(f.name for f in FIXTURE_DIR.iterdir() if f.name.endswith(".json"))
)
def test_fixture_point_verdicts_survive_galois_conjugation(name):
    scene = parse_scene((FIXTURE_DIR / name).read_bytes())
    assert _report_point_verdicts(_conjugated_scene(scene)) == _report_point_verdicts(scene)


def _symmetry_cases():
    for config in ("radical-transversal", "transversal"):
        for flavors in ((), ("str",), ("ltr",), ("rad",), ("screen",), ("rad-twist",)):
            for q in (2, 3, 5):
                for seed in range(4):
                    yield config, flavors, q, seed


@functools.lru_cache(maxsize=None)
def _generated_verdicts(config, flavors, q, seed):
    sc = perturbed_structured_scene(random.Random(seed), MetallicParams(0, q), config, flavors)
    ctx = PointContext(
        sc.immersion, sc.structure, sc.point, sc.screen_override, sc.normal_screen_override
    )
    return sc, _point_verdicts(ctx)


@pytest.mark.parametrize("config,flavors,q,seed", _symmetry_cases())
def test_point_verdicts_survive_galois_conjugation(config, flavors, q, seed):
    sc, verdicts = _generated_verdicts(config, flavors, q, seed)
    conj = QuadScalar.conjugate
    immersion, structure = _rebuilt(sc.immersion.space, sc.immersion, sc.structure, conj)
    after = PointContext(
        immersion,
        structure,
        tuple(conj(x) for x in sc.point),
        _map_scalars(conj, sc.screen_override),
        _map_scalars(conj, sc.normal_screen_override),
    )
    assert _point_verdicts(after) == verdicts


@pytest.mark.parametrize("config,flavors,q,seed", _symmetry_cases())
def test_point_verdicts_survive_signature_negation(config, flavors, q, seed):
    sc, verdicts = _generated_verdicts(config, flavors, q, seed)
    space = sc.immersion.space
    negated = SignatureSpace(space.dim, tuple(-e for e in space.eps), space.params)
    immersion, structure = _rebuilt(negated, sc.immersion, sc.structure)
    after = PointContext(
        immersion, structure, sc.point, sc.screen_override, sc.normal_screen_override
    )
    assert _point_verdicts(after) == verdicts


def test_single_null_obstruction_sweeps_every_parameter_pair():
    entry = check_single_null_obstruction(random.Random(0))
    assert entry.verdict == Verdict.HOLDS
    sweep = entry.witness["sweep"]
    assert set(sweep) == {
        "p=1,q=1", "p=1,q=2", "p=2,q=1", "p=2,q=2", "p=3,q=1", "p=3,q=2",
    }
    for row in sweep.values():
        assert row["trials"] == 200
        assert row["satisfying_candidates"] == 0
        assert row["images_inside_the_transversal_span"] == 0
    assert entry.witness["minimum_radical_dim_for_transversal_claims"] == 2


def test_single_null_obstruction_is_deterministic():
    a = check_single_null_obstruction(random.Random(7), trials=40)
    # two cold sweeps from one seed, not the first one reused
    classifier._AUDIT_MEMO.clear()
    b = check_single_null_obstruction(random.Random(7), trials=40)
    assert a == b


@pytest.fixture
def empty_audit_memo():
    classifier._AUDIT_MEMO.clear()
    yield
    classifier._AUDIT_MEMO.clear()


def _refuse_candidates(rng, cell):
    raise AssertionError("a reused audit must not draw candidates")


def test_repeated_audit_reuses_the_first_result(empty_audit_memo, monkeypatch):
    cold_rng = random.Random(7)
    cold = check_single_null_obstruction(cold_rng, trials=40)
    monkeypatch.setattr(classifier, "null_dual_candidate", _refuse_candidates)
    warm_rng = random.Random(7)
    warm = check_single_null_obstruction(warm_rng, trials=40)
    assert warm == cold
    assert json.dumps(warm.witness) == json.dumps(cold.witness)
    # the caller's generator ends where the full sweep leaves it
    assert warm_rng.getstate() == cold_rng.getstate()
    with pytest.raises(AssertionError):
        check_single_null_obstruction(random.Random(7), trials=41)


def test_reused_audit_witness_is_a_private_copy(empty_audit_memo):
    first = check_single_null_obstruction(random.Random(3), trials=10)
    expected = json.dumps(first.witness)
    first.witness["sweep"]["p=1,q=1"]["satisfying_candidates"] = 99
    first.witness["constraint_set"].append("tampered")
    second = check_single_null_obstruction(random.Random(3), trials=10)
    assert json.dumps(second.witness) == expected
    second.witness["sweep"].clear()
    third = check_single_null_obstruction(random.Random(3), trials=10)
    assert json.dumps(third.witness) == expected


def test_audit_memo_stays_bounded(empty_audit_memo):
    for seed in range(classifier._AUDIT_MEMO_SIZE + 3):
        check_single_null_obstruction(random.Random(seed), trials=1)
    assert len(classifier._AUDIT_MEMO) == classifier._AUDIT_MEMO_SIZE


def test_audit_memo_holds_every_shipped_fixture_seed(empty_audit_memo, monkeypatch):
    """Looping the fixtures under their own seeds reuses every audit."""
    fixtures = resources.files("lightlike_lab") / "fixtures"
    scenes = [
        parse_scene(f.read_bytes()) for f in fixtures.iterdir() if f.name.endswith(".json")
    ]
    seeds = [s.seed for s in scenes if "audit-nonexistence" in s.checks]
    assert seeds
    for seed in seeds:
        check_single_null_obstruction(random.Random(seed), trials=1)
    monkeypatch.setattr(classifier, "null_dual_candidate", _refuse_candidates)
    for _ in range(2):
        for seed in seeds:
            check_single_null_obstruction(random.Random(seed), trials=1)


def test_audit_memo_evicts_the_least_recently_used(empty_audit_memo, monkeypatch):
    size = classifier._AUDIT_MEMO_SIZE
    for seed in range(size):
        check_single_null_obstruction(random.Random(seed), trials=1)
    check_single_null_obstruction(random.Random(0), trials=1)  # 0 is now recent
    check_single_null_obstruction(random.Random(size), trials=1)  # evicts 1
    monkeypatch.setattr(classifier, "null_dual_candidate", _refuse_candidates)
    check_single_null_obstruction(random.Random(0), trials=1)
    with pytest.raises(AssertionError):
        check_single_null_obstruction(random.Random(1), trials=1)


def _identity_breaking_candidate(rng, cell):
    """J = 2I on a non-null xi: <J xi, J xi> = 4 but p <J xi, xi> = 2p."""
    rng.random()
    return NullDualCandidate((-1, 1), Fraction(1), 1, (0, 1), (1, 0), (0, 2), (0, 0))


def test_failed_audit_is_not_reused(empty_audit_memo, monkeypatch):
    monkeypatch.setattr(classifier, "null_dual_candidate", _identity_breaking_candidate)
    for _ in range(2):
        with pytest.raises(InternalInconsistency):
            check_single_null_obstruction(random.Random(5), trials=3)
    assert not classifier._AUDIT_MEMO
    monkeypatch.undo()
    entry = check_single_null_obstruction(random.Random(5), trials=3)
    assert entry.verdict == Verdict.HOLDS


def test_audit_zero_test_folds_a_rational_sigma():
    """(U, V) stands for U + V sigma.  At (1, 2) sigma = 2, so (2, -1) is
    zero although neither component is; at (1, 1) it is 2 - sigma."""
    rational, irrational = AuditCell.of(MetallicParams(1, 2)), AuditCell.of(GOLDEN)
    assert rational.sigma == 2 and irrational.sigma is None
    assert rational.is_zero(2, -1) and rational.is_zero(-4, 2)
    assert not irrational.is_zero(2, -1)
    for cell in (rational, irrational):
        for u in range(-4, 5):
            for v in range(-4, 5):
                assert cell.is_zero(u, v) == (QuadScalar(u, v, cell.params) == 0)


def test_obstruction_forced_value_names_the_linear_coefficient():
    entry = check_single_null_obstruction(random.Random(1), trials=10)
    for label, row in entry.witness["sweep"].items():
        assert row["forced_value_when_satisfied"] == label.split(",")[0][2:]
