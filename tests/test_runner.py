"""Report assembly: aggregation, notices, determinism, preflight errors.

Fixture verdicts pinned here were recorded from the first accepted run
and guard against regressions in any layer below the runner.
"""

import json
import subprocess
import sys
from importlib import resources

import pytest

from lightlike_lab.classifier import CHECK_ORDER, PointContext
from lightlike_lab.errors import InternalInconsistency, ValidationError
from lightlike_lab.generators import perturbed_structured_scene
from lightlike_lab.polynomials import Polynomial
from lightlike_lab.runner import TOOL_VERSION, _symmetric_singular_values, run
from lightlike_lab.scalars import MetallicParams
from lightlike_lab.scenes import Scene, SceneClaims, parse_scene, serialize_scene

import random

P0 = MetallicParams(0, 2)

FIXTURES = resources.files("lightlike_lab") / "fixtures"

PINNED = {
    "paper-example.json": {
        "metallic-validate": "HOLDS",
        "compat-validate": "HOLDS",
        "frame": "HOLDS",
        **{
            c: "NOT_APPLICABLE"
            for c in CHECK_ORDER
            if c.startswith(("def-", "thm-", "prop-")) or c == "structure-eqs"
        },
    },
    "radical-transversal-plane.json": {
        "metallic-validate": "HOLDS",
        "compat-validate": "HOLDS",
        "frame": "HOLDS",
        "def-3.1": "HOLDS",
        "thm-3.3": "HOLDS",
        "prop-4.2": "NOT_APPLICABLE",
        "structure-eqs": "HOLDS",
        "thm-3.5": "HOLDS",
        "thm-3.6": "HOLDS",
        "thm-3.7": "HOLDS",
        "thm-3.8": "HOLDS",
        "thm-3.9": "HOLDS",
        "audit-nonexistence": "HOLDS",
    },
    "radical-transversal-deep.json": {
        "metallic-validate": "HOLDS",
        "compat-validate": "HOLDS",
        "frame": "HOLDS",
        "def-3.1": "HOLDS",
        "thm-3.3": "HOLDS",
        "def-4.1": "FAILS",
        "prop-4.2": "NOT_APPLICABLE",
        "structure-eqs": "HOLDS",
        "thm-3.5": "HOLDS",
        "thm-3.6": "HOLDS",
        "thm-3.7": "HOLDS",
        "thm-3.8": "HOLDS",
        "thm-3.9": "HOLDS",
        "thm-4.5": "NOT_APPLICABLE",
        "thm-4.6": "NOT_APPLICABLE",
        "thm-4.7": "NOT_APPLICABLE",
        "thm-4.8": "NOT_APPLICABLE",
        "thm-4.9": "NOT_APPLICABLE",
        "audit-nonexistence": "HOLDS",
    },
    "transversal-plane.json": {
        "metallic-validate": "HOLDS",
        "compat-validate": "HOLDS",
        "frame": "HOLDS",
        "thm-3.3": "HOLDS",
        "def-4.1": "HOLDS",
        "prop-4.2": "HOLDS",
        "structure-eqs": "HOLDS",
        "thm-4.5": "HOLDS",
        "thm-4.6": "HOLDS",
        "thm-4.7": "HOLDS",
        "thm-4.8": "HOLDS",
        "thm-4.9": "HOLDS",
        "audit-nonexistence": "HOLDS",
    },
    "transversal-recorded.json": {
        "metallic-validate": "HOLDS",
        "compat-validate": "HOLDS",
        "frame": "HOLDS",
        "def-3.1": "FAILS",
        "thm-3.3": "NOT_APPLICABLE",
        "def-4.1": "HOLDS",
        "prop-4.2": "HOLDS",
        "structure-eqs": "HOLDS",
        "thm-3.5": "NOT_APPLICABLE",
        "thm-3.6": "NOT_APPLICABLE",
        "thm-3.7": "NOT_APPLICABLE",
        "thm-3.8": "NOT_APPLICABLE",
        "thm-3.9": "NOT_APPLICABLE",
        "thm-4.5": "FAILS",
        "thm-4.6": "HOLDS",
        "thm-4.7": "HOLDS",
        "thm-4.8": "FAILS",
        "thm-4.9": "FAILS",
        "audit-nonexistence": "HOLDS",
    },
    "isotropic-screenless.json": {c: "HOLDS" for c in CHECK_ORDER},
    "identity-structure.json": {
        "metallic-validate": "FAILS",
        "compat-validate": "HOLDS",
    },
}

EXPECTED_EXIT = {
    "paper-example.json": 0,
    "radical-transversal-plane.json": 0,
    "radical-transversal-deep.json": 1,
    "transversal-plane.json": 0,
    "transversal-recorded.json": 1,
    "isotropic-screenless.json": 0,
    "identity-structure.json": 1,
}

_REPORTS = {}


def load_scene(name):
    return parse_scene((FIXTURES / name).read_bytes())


def fixture_report(name):
    if name not in _REPORTS:
        _REPORTS[name] = run(load_scene(name))
    return _REPORTS[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_fixture_verdicts_are_pinned(name):
    report = fixture_report(name)
    got = {e["check"]: e["verdict"] for e in report.entries}
    assert got == PINNED[name]


@pytest.mark.parametrize("name", sorted(EXPECTED_EXIT))
def test_fixture_exit_status(name):
    assert fixture_report(name).exit_status() == EXPECTED_EXIT[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_entries_follow_requested_checks_exactly(name):
    scene = load_scene(name)
    report = fixture_report(name)
    assert tuple(e["check"] for e in report.entries) == scene.checks


def test_report_metadata():
    scene = load_scene("radical-transversal-plane.json")
    report = fixture_report("radical-transversal-plane.json")
    assert report.version == TOOL_VERSION
    assert report.scene_digest == scene.digest()
    assert report.seed == scene.seed
    total = sum(report.summary.values())
    assert total == len(report.entries)


def test_summary_counts_match_entries():
    report = fixture_report("transversal-recorded.json")
    for verdict in ("HOLDS", "FAILS", "NOT_APPLICABLE"):
        assert report.summary[verdict] == sum(
            1 for e in report.entries if e["verdict"] == verdict
        )


def test_same_seed_runs_are_byte_identical():
    scene = load_scene("radical-transversal-plane.json")
    assert run(scene).serialize() == run(scene).serialize()


def test_seed_override_wins():
    scene = load_scene("radical-transversal-plane.json")
    assert run(scene, seed=99).seed == 99
    assert run(scene).seed == scene.seed


@pytest.mark.parametrize("seed", [2.5, "7", True, False, -3, b"7"])
def test_seed_override_must_be_a_nonnegative_integer(seed):
    """The rule of /seed, --seed and LIGHTLIKE_LAB_SEED: a string would
    seed the audit from another stream, and -3 would draw as 3."""
    scene = load_scene("transversal-plane.json")
    assert "audit-nonexistence" in scene.checks
    with pytest.raises(ValidationError, match="nonnegative integer"):
        run(scene, seed=seed)
    assert run(scene, seed=0).seed == 0


def test_report_serializes_to_canonical_json():
    report = fixture_report("paper-example.json")
    blob = report.serialize()
    assert blob.endswith(b"\n")
    parsed = json.loads(blob)
    assert parsed["scene_digest"] == report.scene_digest
    recanon = json.dumps(
        parsed, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode() + b"\n"
    assert recanon == blob


def test_worked_example_discrepancy_notices():
    report = fixture_report("paper-example.json")
    notices = "\n".join(report.notices)
    assert "declared radical dimension 1 but the computed radical has dimension 0" in notices
    assert "nonzero tangent pairings: -s, s, 2" in notices
    assert "claimed configuration 'radical-transversal'" in notices
    assert "nondegenerate" in notices


def test_worked_example_frame_witness_has_exact_gram():
    report = fixture_report("paper-example.json")
    frame_entry = next(e for e in report.entries if e["check"] == "frame")
    w = frame_entry["points"][0]["witness"]
    assert w["tangent_gram"] == [["1", "2", "0"], ["2", "1", "0"], ["0", "0", "1"]]
    assert w["radical_dim"] == 0
    declared = w["declared_radical"][0]
    assert declared["tangent_pairings"] == ["-s", "s", "2"]
    assert declared["radical_member"] is False


def test_worked_example_point_checks_report_why_not_applicable():
    report = fixture_report("paper-example.json")
    entry = next(e for e in report.entries if e["check"] == "def-3.1")
    reason = entry["points"][0]["witness"]["reason"]
    assert "not lightlike" in reason


def test_screen_criteria_build_their_kit_before_the_screenless_vacuity(monkeypatch):
    from lightlike_lab import geometry
    from lightlike_lab.errors import InsufficientScene

    def no_radical_fields(chart, frame):
        raise InsufficientScene("radical direction does not extend off the point")

    # every check holds there, the six screen criteria vacuously
    monkeypatch.setattr(geometry, "radical_tangent_fields", no_radical_fields)
    report = run(load_scene("isotropic-screenless.json"))
    entries = {e["check"]: e for e in report.entries}
    for cid in ("thm-3.6", "thm-3.8", "thm-3.9", "thm-4.6", "thm-4.7", "thm-4.8"):
        assert entries[cid]["verdict"] == "NOT_APPLICABLE"
        reason = entries[cid]["points"][0]["witness"]["reason"]
        assert reason == (
            "insufficient scene data: radical direction does not extend off the point"
        )


def test_zero_p_notice_only_for_zero_p():
    assert any(
        "p = 0" in n for n in fixture_report("paper-example.json").notices
    )
    assert not any(
        "p = 0" in n for n in fixture_report("identity-structure.json").notices
    )


def test_identity_structure_failure_carries_witness():
    report = fixture_report("identity-structure.json")
    entry = next(e for e in report.entries if e["check"] == "metallic-validate")
    assert entry["verdict"] == "FAILS"
    assert entry["witness"]


def test_float_check_block():
    scene = load_scene("paper-example.json")
    report = run(scene, float_check=True)
    fc = report.float_check
    assert fc["tolerance"] == "1e-09"
    assert all(row["rank_matches"] for row in fc["points"])
    assert float(fc["max_abs_deviation"]) < 1e-9
    assert run(scene).float_check is None


@pytest.mark.parametrize("seed", range(40))
def test_jacobi_singular_values_match_numpy_svd(seed):
    # numpy is only the outside reference here: the float oracle runs on
    # Python floats.  Grams of m rows of width w have rank at most w, so
    # w < m makes them rank-deficient; the weights are a signature
    np = pytest.importorskip("numpy")
    rng = random.Random(seed)
    m = rng.randint(1, 11)
    w = rng.randint(1, 11)
    scale = 10.0 ** rng.randint(-6, 6)
    rows = [[rng.uniform(-1, 1) * scale for _ in range(w)] for _ in range(m)]
    eps = [rng.choice((1, -1)) for _ in range(w)]
    gram = [
        [sum(e * x * y for e, x, y in zip(eps, u, v)) for v in rows] for u in rows
    ]
    got = _symmetric_singular_values(gram)
    want = np.linalg.svd(np.array(gram), compute_uv=False)
    assert len(got) == m
    assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-12 * want[0]
    if w < m:
        assert sum(1 for x in got if x > 1e-9 * max(1.0, got[0])) <= w


def test_jacobi_singular_values_of_zero_and_empty_matrices():
    assert _symmetric_singular_values([]) == []
    assert _symmetric_singular_values([[0.0] * 3 for _ in range(3)]) == [0.0] * 3
    # an entry near the top of the float range is scaled, not overflowed
    assert _symmetric_singular_values([[1e300, 0.0], [0.0, -2.0]]) == [1e300, 2.0]


def test_float_check_runs_without_numpy():
    # numpy blocked in a fresh interpreter: importing it would raise
    script = (
        "import sys; sys.modules['numpy'] = None\n"
        "from importlib import resources\n"
        "from lightlike_lab.runner import run\n"
        "from lightlike_lab.scenes import parse_scene\n"
        "path = resources.files('lightlike_lab') / 'fixtures' / 'paper-example.json'\n"
        "report = run(parse_scene(path.read_bytes()), float_check=True)\n"
        "assert all(row['rank_matches'] for row in report.float_check['points'])\n"
        "assert sys.modules['numpy'] is None\n"
        "assert not any(name.startswith('numpy.') for name in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


# ---- aggregation over multiple points ----


def two_point_scene(checks):
    """Lightlike at the origin, nondegenerate away from the locus."""
    d = {
        "params": {"p": 0, "q": 2},
        "ambient": {"dim": 3, "signature": [-1, 1, 1]},
        "structure": [
            ["s", "0", "0"],
            ["0", "s", "0"],
            ["0", "0", "s"],
        ],
        "submanifold": {
            "chart_dim": 2,
            "components": [
                [{"powers": [1, 0], "coeff": "1"}],
                [{"powers": [1, 0], "coeff": "1"}, {"powers": [2, 0], "coeff": "1"}],
                [{"powers": [0, 1], "coeff": "1"}],
            ],
        },
        "points": [["0", "0"], ["1", "0"]],
        "checks": checks,
        "seed": 3,
    }
    return parse_scene(json.dumps(d))


def test_failing_point_dominates_inapplicable_point():
    # point 0 is lightlike but the diagonal structure keeps the radical
    # inside the tangent space, point 1 is nondegenerate
    scene = two_point_scene(["frame", "def-3.1"])
    report = run(scene)
    entry = next(e for e in report.entries if e["check"] == "def-3.1")
    point_verdicts = [p["verdict"] for p in entry["points"]]
    assert point_verdicts == ["FAILS", "NOT_APPLICABLE"]
    assert entry["verdict"] == "FAILS"
    frame_entry = next(e for e in report.entries if e["check"] == "frame")
    assert [len(p["point"]) for p in frame_entry["points"]] == [2, 2]


def holds_and_na_scene():
    """Constant structure mapping the radical onto the transversal frame
    at the origin of a plane whose metric degenerates only there."""
    from fractions import Fraction

    from lightlike_lab.ambient import MetallicStructure, SignatureSpace
    from lightlike_lab.linalg import mat_mul, transpose

    from helpers import invert
    from lightlike_lab.scalars import QuadScalar
    from lightlike_lab.submanifold import PolynomialImmersion

    space = SignatureSpace(3, (-1, 1, 1), P0)
    one = QuadScalar.one(P0)
    zero = QuadScalar.zero(P0)
    two = QuadScalar(2, 0, P0)
    half = QuadScalar(Fraction(1, 2), 0, P0)
    sigma = QuadScalar(0, 1, P0)
    w1 = (one, one, zero)
    nv = (-half, half, zero)
    e3 = (zero, zero, one)
    basis_cols = transpose((w1, e3, nv))
    image_cols = transpose(
        (nv, tuple(sigma * c for c in e3), tuple(two * c for c in w1))
    )
    mat = mat_mul(image_cols, invert(basis_cols))
    structure = MetallicStructure(space, mat)
    ok, defects = structure.validate()
    assert ok, defects

    u1 = Polynomial.variable(0, 2, P0)
    u2 = Polynomial.variable(1, 2, P0)
    immersion = PolynomialImmersion(space, 2, (u1, u1 + u1 * u1, u2))
    return Scene(
        params=P0,
        space=space,
        structure=structure,
        immersion=immersion,
        points=((zero, zero), (one, zero)),
        checks=("def-3.1",),
        seed=0,
    )


def test_mixed_point_verdicts_aggregate_to_not_applicable():
    report = run(holds_and_na_scene())
    entry = report.entries[0]
    point_verdicts = [p["verdict"] for p in entry["points"]]
    assert point_verdicts == ["HOLDS", "NOT_APPLICABLE"]
    assert entry["verdict"] == "NOT_APPLICABLE"
    assert report.exit_status() == 0


def test_any_failing_point_fails_the_check():
    d = {
        "params": {"p": 0, "q": 2},
        "ambient": {"dim": 3, "signature": [-1, 1, 1]},
        # sigma on the diagonal keeps the quadratic relation but the
        # radical of this plane does not land in a transversal span
        "structure": [
            ["s", "0", "0"],
            ["0", "s", "0"],
            ["0", "0", "s"],
        ],
        "submanifold": {
            "chart_dim": 2,
            "components": [
                [{"powers": [1, 0], "coeff": "1"}],
                [{"powers": [1, 0], "coeff": "1"}],
                [{"powers": [0, 1], "coeff": "1"}],
            ],
        },
        "points": [["0", "0"], ["2", "3"]],
        "checks": ["def-3.1"],
        "seed": 0,
    }
    report = run(parse_scene(json.dumps(d)))
    entry = report.entries[0]
    assert all(p["verdict"] == "FAILS" for p in entry["points"])
    assert entry["verdict"] == "FAILS"
    assert report.exit_status() == 1


# ---- lazy context construction ----


def rank_drop_scene(checks, claims=None):
    d = {
        "params": {"p": 0, "q": 2},
        "ambient": {"dim": 3, "signature": [-1, 1, 1]},
        "structure": [
            ["s", "0", "0"],
            ["0", "s", "0"],
            ["0", "0", "s"],
        ],
        "submanifold": {
            "chart_dim": 2,
            "components": [
                [{"powers": [2, 0], "coeff": "1"}],
                [{"powers": [2, 0], "coeff": "1"}],
                [{"powers": [0, 1], "coeff": "1"}],
            ],
        },
        "points": [["0", "0"]],
        "checks": checks,
        "seed": 0,
    }
    if claims:
        d["claims"] = claims
    return parse_scene(json.dumps(d))


def test_degenerate_point_is_an_input_error_when_frames_are_needed():
    scene = rank_drop_scene(["frame"])
    with pytest.raises(ValidationError, match="/points/0"):
        run(scene)


def test_degenerate_point_is_ignored_when_no_check_needs_it():
    scene = rank_drop_scene(["metallic-validate", "audit-nonexistence"])
    report = run(scene)
    assert {e["verdict"] for e in report.entries} == {"HOLDS"}
    assert report.exit_status() == 0


def test_claims_force_context_construction():
    scene = rank_drop_scene(
        ["metallic-validate"], claims={"expected_radical_dim": 1}
    )
    with pytest.raises(ValidationError, match="/points/0"):
        run(scene)


# ---- section preflight ----


def coefficient_polynomials(field, point):
    """Chart coefficients of a kit field as the affine polynomials with
    the field's coefficients and coefficient partials at the point."""
    m = len(point)
    out = []
    for j, c in enumerate(field.coeffs):
        poly = Polynomial.constant(c, m, P0)
        for l in range(m):
            shift = Polynomial.variable(l, m, P0) - Polynomial.constant(point[l], m, P0)
            poly = poly + shift * Polynomial.constant(field.coeff_partials[l][j], m, P0)
        out.append(poly)
    return tuple(out)


def generated_scene_with_sections(radical=None, screen=None):
    g = perturbed_structured_scene(random.Random(11), P0, "radical-transversal", ("ltr",))
    ctx = PointContext(
        g.immersion, g.structure, g.point, g.screen_override, g.normal_screen_override
    )
    kit = ctx.kit()
    point = ctx.frame.point
    rad = (
        tuple(coefficient_polynomials(f, point) for f in kit.radical)
        if radical is None
        else radical
    )
    scr = (
        tuple(coefficient_polynomials(f, point) for f in kit.screen_adapted)
        if screen is None
        else screen
    )
    scene = Scene(
        params=P0,
        space=g.immersion.space,
        structure=g.structure,
        immersion=g.immersion,
        points=(tuple(g.point),),
        checks=("def-3.1",),
        seed=1,
        screen=g.screen_override,
        normal_screen=g.normal_screen_override,
        radical_sections=rad,
        screen_sections=scr,
        claims=SceneClaims(),
    )
    return scene, ctx, kit


def test_kit_sections_pass_preflight():
    scene, _, _ = generated_scene_with_sections()
    report = run(scene)
    assert report.entries[0]["verdict"] == "HOLDS"


def test_radical_section_outside_radical_is_rejected():
    scene, _, kit = generated_scene_with_sections(
        radical=(kit_screen_field(),)
    )
    with pytest.raises(ValidationError, match="/sections/radical/0"):
        run(scene)


def kit_screen_field():
    g = perturbed_structured_scene(random.Random(11), P0, "radical-transversal", ("ltr",))
    ctx = PointContext(
        g.immersion, g.structure, g.point, g.screen_override, g.normal_screen_override
    )
    return coefficient_polynomials(ctx.kit().screen_adapted[0], ctx.frame.point)


def test_zero_radical_section_cannot_span():
    g = perturbed_structured_scene(random.Random(11), P0, "radical-transversal", ("ltr",))
    m = g.immersion.chart_dim
    zero = tuple(Polynomial.zero(m, P0) for _ in range(m))
    scene, _, _ = generated_scene_with_sections(radical=(zero,))
    with pytest.raises(ValidationError, match="/sections/radical: .*span"):
        run(scene)


def _paper_example_with_screen_sections(count):
    """paper-example.json, whose one point has no radical, so its screen
    is the whole tangent space, with the first count coordinate fields
    declared as constant screen sections."""
    scene = json.loads((FIXTURES / "paper-example.json").read_text())
    m = scene["submanifold"]["chart_dim"]
    one = [{"coeff": "1", "powers": [0] * m}]
    fields = [[one if j == k else [] for j in range(m)] for k in range(count)]
    scene["sections"] = {"screen": fields}
    return parse_scene(json.dumps(scene))


def test_screen_sections_spanning_a_nondegenerate_point_pass_preflight():
    report = run(_paper_example_with_screen_sections(3))
    verdicts = {e["check"]: e["verdict"] for e in report.entries}
    assert verdicts == PINNED["paper-example.json"]


def test_screen_sections_short_of_a_nondegenerate_screen_are_rejected():
    with pytest.raises(ValidationError) as info:
        run(_paper_example_with_screen_sections(2))
    assert str(info.value) == "/sections/screen: values at point 0 do not span the screen"


def test_second_order_section_terms_pass_preflight():
    # adding (u_k - pt_k)^2 times another field changes neither the value
    # nor the first derivatives at the point, so the sections stay valid
    scene, ctx, kit = generated_scene_with_sections()
    m = ctx.immersion.chart_dim
    point = scene.points[0]
    rad_f = coefficient_polynomials(kit.radical[0], point)
    for k in range(m):
        shift = Polynomial.variable(k, m, P0) - Polynomial.constant(point[k], m, P0)
        curved = tuple(a + shift * shift * b for a, b in zip(scene.screen_sections[0], rad_f))
        bent = Scene(
            params=scene.params,
            space=scene.space,
            structure=scene.structure,
            immersion=scene.immersion,
            points=scene.points,
            checks=scene.checks,
            seed=scene.seed,
            screen=scene.screen,
            normal_screen=scene.normal_screen,
            radical_sections=scene.radical_sections,
            screen_sections=(curved,) + scene.screen_sections[1:],
            claims=SceneClaims(),
        )
        assert run(bent).entries[0]["verdict"] == "HOLDS"


def test_drifting_screen_section_fails_stationarity():
    # shift a good screen section by u_k * (radical section): value at the
    # point is unchanged, but the pairing against the transversal frame
    # picks up a nonvanishing derivative
    scene, ctx, kit = generated_scene_with_sections()
    m = ctx.immersion.chart_dim
    point = scene.points[0]
    screen_f = coefficient_polynomials(kit.screen_adapted[0], point)
    rad_f = coefficient_polynomials(kit.radical[0], point)
    for k in range(m):
        shift = Polynomial.variable(k, m, P0) - Polynomial.constant(
            point[k], m, P0
        )
        drifted = tuple(
            a + shift * b for a, b in zip(screen_f, rad_f)
        )
        bad = Scene(
            params=scene.params,
            space=scene.space,
            structure=scene.structure,
            immersion=scene.immersion,
            points=scene.points,
            checks=scene.checks,
            seed=scene.seed,
            screen=scene.screen,
            normal_screen=scene.normal_screen,
            radical_sections=scene.radical_sections,
            screen_sections=(drifted,) + scene.screen_sections[1:],
            claims=SceneClaims(),
        )
        try:
            run(bad)
        except ValidationError as exc:
            assert "/sections/screen/0" in str(exc)
            break
    else:
        pytest.fail("no chart direction produced a drifting section")


# the immersion of test_kit_refuses_unstable_radical, with one screen section
UNSTABLE_RADICAL_SCREEN_SECTION = {
    "params": {"p": 1, "q": 1},
    "ambient": {"dim": 3, "signature": [-1, 1, 1]},
    "structure": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "submanifold": {
        "chart_dim": 2,
        "components": [
            [{"coeff": "1", "powers": [1, 0]}],
            [{"coeff": "1", "powers": [1, 0]}, {"coeff": "1", "powers": [1, 1]}],
            [{"coeff": "1", "powers": [0, 1]}],
        ],
    },
    "points": [["0", "0"]],
    "sections": {"screen": [[[], [{"coeff": "1", "powers": [0, 0]}]]]},
    "checks": ["frame"],
    "seed": 1,
}


def test_screen_section_where_the_kit_fails_is_an_input_error():
    scene = parse_scene(json.dumps(UNSTABLE_RADICAL_SCREEN_SECTION))
    with pytest.raises(
        ValidationError,
        match="^/sections/screen: cannot be checked at point 0:"
        " radical direction does not extend to first order here$",
    ):
        run(scene)


def test_inconsistent_kit_in_the_section_preflight_names_the_point(monkeypatch):
    """A kit that breaks inside the preflight is a bug, not bad input."""
    scene, _, _ = generated_scene_with_sections()

    def broken(self):
        raise InternalInconsistency("kit disagreed with itself")

    monkeypatch.setattr(PointContext, "kit", broken)
    with pytest.raises(InternalInconsistency) as info:
        run(scene)
    assert info.value.point == 0


def test_thin_transversal_claim_at_zero_p_raises_no_notice():
    """At p = 0 a generated r = 1 transversal scene meets def-4.1, and
    claiming so adds no notice to its report."""
    params = MetallicParams(0, 2)
    g = perturbed_structured_scene(random.Random(0), params, "transversal", ())
    assert g.expected_radical_dim == 1

    def report(claims):
        scene = Scene(
            params=params,
            space=g.immersion.space,
            structure=g.structure,
            immersion=g.immersion,
            points=(g.point,),
            checks=("frame", "def-4.1"),
            seed=1,
            screen=g.screen_override,
            normal_screen=g.normal_screen_override,
            claims=claims,
        )
        return run(parse_scene(serialize_scene(scene)))

    claimed = report(SceneClaims(expected_radical_dim=1, configuration="transversal"))
    plain = report(SceneClaims())
    assert {e["check"]: e["verdict"] for e in claimed.entries} == {"frame": "HOLDS", "def-4.1": "HOLDS"}
    assert claimed.notices == plain.notices
    assert not any("claim" in n for n in claimed.notices)


def test_configuration_claim_mismatch_is_a_notice_not_a_failure():
    d = {
        "params": {"p": 0, "q": 2},
        "ambient": {"dim": 3, "signature": [-1, 1, 1]},
        "structure": [
            ["s", "0", "0"],
            ["0", "s", "0"],
            ["0", "0", "s"],
        ],
        "submanifold": {
            "chart_dim": 2,
            "components": [
                [{"powers": [1, 0], "coeff": "1"}],
                [{"powers": [1, 0], "coeff": "1"}],
                [{"powers": [0, 1], "coeff": "1"}],
            ],
        },
        "points": [["0", "0"]],
        "checks": ["metallic-validate"],
        "seed": 0,
        "claims": {"configuration": "radical-transversal"},
    }
    report = run(parse_scene(json.dumps(d)))
    assert report.exit_status() == 0
    assert any("does not hold at this point" in n for n in report.notices)


def test_zero_structure_does_not_meet_the_claimed_configuration():
    # J = 0 sends the radical and the screen to zero vectors, which lie
    # in every slot, but span neither the transversal frame nor the screen
    scene = json.loads((FIXTURES / "radical-transversal-plane.json").read_text())
    notice = "point 0: claimed configuration 'radical-transversal' does not hold at this point"
    assert notice not in run(parse_scene(json.dumps(scene))).notices
    scene["structure"] = [["0"] * len(row) for row in scene["structure"]]
    assert scene["claims"]["configuration"] == "radical-transversal"
    assert notice in run(parse_scene(json.dumps(scene))).notices


def test_all_fixture_reports_are_json_serializable():
    for name in sorted(PINNED):
        json.loads(fixture_report(name).serialize())


# ---- report bytes pinned by digest ----
#
# sha256 of run(...).serialize(), recorded before the frame build was
# reworked to do each elimination once; any change to frame construction
# that moves a byte of a report fails here.  The float-checked reports
# are pinned apart: the float oracle's Gram entries are correctly rounded
# sums and its rank comes from Python's own arithmetic, so its bytes do
# not depend on the platform's linear algebra libraries.

PINNED_REPORT_SHA256 = {
    "paper-example.json": (
        "9e2411b73244c5e701bafa14aaad2d2e"
        "99a5146625ed6c26e05fad6d617fd044"
    ),
    "radical-transversal-plane.json": (
        "5b96a85daf118470cafbba8c4c7fa13f"
        "38ab5699c9acbe94df1e7ce80b9b1979"
    ),
    "radical-transversal-deep.json": (
        "cfce0e3de81b583d486289063a409bea"
        "77e86270fb174e65bd08a4f060807882"
    ),
    "transversal-plane.json": (
        "b1e602d050937cf1055597c20f9417ab"
        "973306488a96cc33149b32738159e961"
    ),
    "transversal-recorded.json": (
        "f01b9daeb809c786f393abc42970b00b"
        "923d62bf0391d71cf97a902a2a62e6e7"
    ),
    "isotropic-screenless.json": (
        "d29a4a381e2d876035f8aafc6d01e6a3"
        "76a4d08fd713b36c31d8d7dd9db24f4b"
    ),
    "identity-structure.json": (
        "548bac0edb73897d49e9eab85ae78bd5"
        "d176aec4ad13f0343c9420a90490ed4a"
    ),
}

# (generator seed, (p, q), configuration, flavors): multi-point scenes,
# all with p > 0, so both the rational and the irrational sigma parts
# of every frame are covered.
GENERATED_SPECS = (
    (11, (1, 1), "radical-transversal", ("str",)),
    (12, (2, 1), "transversal", ("ltr",)),
    (13, (1, 2), "radical-transversal", ("ltr",)),
    (14, (3, 1), "transversal", ("str",)),
    (15, (2, 2), "radical-transversal", ()),
    (16, (1, 1), "transversal", ("screen",)),
)

PINNED_GENERATED_SHA256 = {
    11: "aa3003c73f1854c481f0e4b8fbda08e3fb204d78d29210061f09ebe4066e945a",
    12: "de304f86db11af08eb1b97721459979b7c0d105a754eb7ee78730669c2c286e3",
    13: "0e22b18bd7ee1085642374ec6352bd5949e5e3147e40d51218f0f992b806749b",
    14: "36a663549dff36a37eea6b21f29ed5fdd46c7832d7b90bf8b214cce821e17d8e",
    15: "45bf18478010413c69fc68259f666d91a66ec038593dddd9d2907dae0a54246a",
    16: "591affc3cfb6d570098dfac2c8955791f1f7caca3535618e914d7fd24bceb799",
}


# float-checked reports: the paper's example, nondegenerate at its one
# point, and a generated scene with a one-dimensional radical at all five
PINNED_FLOAT_CHECKED_SHA256 = {
    "paper-example.json": "6d1d8bb5e8079caa8288d03d0341ddd0993208e36e6c87e14261218da5060e44",
    16: "fd46bdc76cb19c3a32e65217c8297ff6ef725a3acfebb22200d47b93a67e56df",
}


def sha256_hex(data):
    import hashlib

    return hashlib.sha256(data).hexdigest()


def generated_multipoint_scene(seed, pq, config, flavors, extra_points=4):
    """The generated base point plus drawn chart points where the
    Jacobian keeps full rank; the screens are left to build_frame."""
    from fractions import Fraction

    from lightlike_lab.errors import ImmersionRankDrop
    from lightlike_lab.scalars import QuadScalar

    params = MetallicParams(*pq)
    rng = random.Random(seed)
    g = perturbed_structured_scene(rng, params, config, flavors)
    points = [tuple(g.point)]
    while len(points) < 1 + extra_points:
        point = tuple(
            QuadScalar(Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3))), 0, params)
            for _ in range(g.immersion.chart_dim)
        )
        if point in points:
            continue
        try:
            g.immersion.tangent_frame(point)
        except ImmersionRankDrop:
            continue
        points.append(point)
    return Scene(
        params=params,
        space=g.immersion.space,
        structure=g.structure,
        immersion=g.immersion,
        points=tuple(points),
        checks=("metallic-validate", "frame"),
        seed=seed,
        claims=SceneClaims(),
    )


@pytest.mark.parametrize("name", sorted(PINNED_REPORT_SHA256))
def test_fixture_report_bytes_are_pinned(name):
    assert sha256_hex(fixture_report(name).serialize()) == PINNED_REPORT_SHA256[name]


@pytest.mark.parametrize("spec", GENERATED_SPECS, ids=lambda s: f"g{s[0]}")
def test_generated_multipoint_report_bytes_are_pinned(spec):
    report = run(generated_multipoint_scene(*spec))
    assert sha256_hex(report.serialize()) == PINNED_GENERATED_SHA256[spec[0]]


def test_float_checked_report_bytes_are_pinned():
    fixture = run(load_scene("paper-example.json"), float_check=True)
    spec = next(s for s in GENERATED_SPECS if s[0] == 16)
    generated = run(generated_multipoint_scene(*spec), float_check=True)
    assert all(row["rank_matches"] for row in generated.float_check["points"])
    assert sha256_hex(fixture.serialize()) == PINNED_FLOAT_CHECKED_SHA256["paper-example.json"]
    assert sha256_hex(generated.serialize()) == PINNED_FLOAT_CHECKED_SHA256[16]


# ---- invariance under reordering the points ----


@pytest.mark.parametrize(
    "spec",
    [(21, (0, 2), "transversal", ("ltr",)), (22, (0, 2), "radical-transversal", ("rad-twist",))],
    ids=lambda s: f"g{s[0]}",
)
def test_reversing_the_points_keeps_verdicts_and_reverses_point_entries(spec):
    # p = 0 scenes whose base point is in the configuration and whose
    # drawn points mostly are not, so the per-point verdicts are mixed
    scene = generated_multipoint_scene(*spec)._replace(
        checks=tuple(c for c in CHECK_ORDER if c != "audit-nonexistence"),
    )
    forward = run(scene).to_dict()
    backward = run(scene._replace(points=scene.points[::-1])).to_dict()
    assert backward["summary"] == forward["summary"]
    assert len(backward["entries"]) == len(forward["entries"])
    mixed = 0
    for f, b in zip(forward["entries"], backward["entries"]):
        assert (b["check"], b["verdict"]) == (f["check"], f["verdict"])
        if "points" in f:
            assert b["points"] == f["points"][::-1]
            mixed += len({p["verdict"] for p in f["points"]}) > 1
    assert mixed
