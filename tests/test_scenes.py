"""Scene JSON parsing, validation pointers, and canonical serialization."""

import json
import sys

import pytest

from lightlike_lab.classifier import CHECK_ORDER
from lightlike_lab.errors import ParseError, ValidationError
from lightlike_lab.runner import run
from lightlike_lab.scenes import (
    MAX_AMBIENT_DIM,
    MAX_POINTS,
    MAX_SCALAR_DIGITS,
    MAX_TERM_DEGREE,
    parse_scene,
    scene_to_dict,
    serialize_scene,
)


def base_scene_dict():
    """Minimal valid scene: flat lightlike plane in R^3, one check."""
    return {
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
    }


def parse(d):
    return parse_scene(json.dumps(d))


def test_minimal_scene_parses():
    scene = parse(base_scene_dict())
    assert scene.params.p == 0 and scene.params.q == 2
    assert scene.space.dim == 3
    assert scene.immersion.chart_dim == 2
    assert scene.checks == ("metallic-validate",)
    assert scene.seed == 0
    assert scene.screen is None
    assert scene.normal_screen is None
    assert scene.radical_sections == ()
    assert scene.claims.empty()


def test_parse_accepts_bytes_and_str():
    blob = json.dumps(base_scene_dict())
    assert parse_scene(blob).digest() == parse_scene(blob.encode()).digest()


def test_round_trip_is_byte_stable():
    scene = parse(base_scene_dict())
    blob = serialize_scene(scene)
    again = serialize_scene(parse_scene(blob))
    assert blob == again


def test_round_trip_preserves_content():
    d = base_scene_dict()
    d["screen"] = [["0", "0", "1"]]
    d["claims"] = {"expected_radical_dim": 1}
    scene = parse(d)
    back = parse_scene(serialize_scene(scene))
    assert back.screen == scene.screen
    assert back.claims == scene.claims
    assert back.points == scene.points
    assert scene_to_dict(back) == scene_to_dict(scene)


def test_digest_tracks_content():
    a = parse(base_scene_dict())
    d = base_scene_dict()
    d["seed"] = 1
    b = parse(d)
    assert a.digest() != b.digest()
    assert a.digest() == parse(base_scene_dict()).digest()


def test_checks_are_canonicalized_and_deduplicated():
    d = base_scene_dict()
    d["checks"] = ["frame", "metallic-validate", "frame", "def-3.1", "compat-validate"]
    scene = parse(d)
    assert scene.checks == ("metallic-validate", "compat-validate", "frame", "def-3.1")
    order = [CHECK_ORDER.index(c) for c in scene.checks]
    assert order == sorted(order)


def test_serialization_key_order_is_stable():
    d = base_scene_dict()
    scrambled = {k: d[k] for k in reversed(list(d))}
    assert serialize_scene(parse(d)) == serialize_scene(parse(scrambled))


# ---- malformed input ----


def test_malformed_json_is_a_parse_error():
    with pytest.raises(ParseError, match=r"line 1 column"):
        parse_scene('{"params": ')


def test_invalid_utf8_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_scene(b'\xff\xfe{"params": {}}')


def test_top_level_must_be_an_object():
    with pytest.raises(ValidationError):
        parse_scene("[1, 2, 3]")


@pytest.mark.parametrize(
    "mutate, pointer",
    [
        (lambda d: d.pop("params"), "/params"),
        (lambda d: d.pop("ambient"), "/ambient"),
        (lambda d: d.pop("structure"), "/structure"),
        (lambda d: d.pop("submanifold"), "/submanifold"),
        (lambda d: d.pop("points"), "/points"),
        (lambda d: d.pop("checks"), "/checks"),
        (lambda d: d.pop("seed"), "/seed"),
        (lambda d: d.update(junk=1), "/junk"),
        (lambda d: d["params"].update(extra=1), "/params/extra"),
        (lambda d: d["params"].update(p="1"), "/params/p"),
        (lambda d: d["ambient"].update(dim="3"), "/ambient/dim"),
        (lambda d: d["ambient"].update(signature=[-1, 1]), "/ambient/signature"),
        (lambda d: d["ambient"].update(signature=[-1, 1, 2]), "/ambient"),
        (lambda d: d["structure"].pop(), "/structure"),
        (lambda d: d["structure"][0].pop(), "/structure/0"),
        (lambda d: d["structure"][0].__setitem__(0, "not a scalar"), "/structure/0/0"),
        (lambda d: d["submanifold"].update(chart_dim=3), "/submanifold/chart_dim"),
        (lambda d: d["submanifold"].update(chart_dim=0), "/submanifold/chart_dim"),
        (lambda d: d["submanifold"]["components"].pop(), "/submanifold/components"),
        (
            lambda d: d["submanifold"]["components"][0].append(
                {"powers": [1, 0], "coeff": "1"}
            ),
            "/submanifold/components/0/1/powers",
        ),
        (
            lambda d: d["submanifold"]["components"][0].__setitem__(
                0, {"powers": [1], "coeff": "1"}
            ),
            "/submanifold/components/0/0/powers",
        ),
        (
            lambda d: d["submanifold"]["components"][0].__setitem__(
                0, {"powers": [-1, 0], "coeff": "1"}
            ),
            "/submanifold/components/0/0/powers",
        ),
        (
            lambda d: d["submanifold"]["components"][0].__setitem__(
                0, {"powers": [1, 0], "coeff": "1", "label": "x"}
            ),
            "/submanifold/components/0/0/label",
        ),
        (lambda d: d.update(points=[]), "/points"),
        (lambda d: d.update(points=[["0"]]), "/points/0"),
        (lambda d: d.update(points=[["0", "oops"]]), "/points/0/1"),
        (lambda d: d.update(points=[["0", "0"], ["1", "0"], ["0/3", "-0"]]), "/points/2"),
        (lambda d: d.update(checks=[]), "/checks"),
        (lambda d: d.update(checks=["thm-9.9"]), "/checks/0"),
        (lambda d: d.update(checks=[3]), "/checks/0"),
        (lambda d: d.update(seed=-1), "/seed"),
        (lambda d: d.update(seed=True), "/seed"),
        (lambda d: d.update(screen=[["0", "0"]]), "/screen/0"),
        (lambda d: d.update(normal_screen=[["1", "1"]]), "/normal_screen/0"),
        (lambda d: d.update(sections={"other": []}), "/sections/other"),
        (
            lambda d: d.update(sections={"radical": [[[], []], [[]]]}),
            "/sections/radical/1",
        ),
        (lambda d: d.update(claims={"configuration": "oblique"}), "/claims/configuration"),
        (lambda d: d.update(claims={"expected_radical_dim": -2}), "/claims"),
        (lambda d: d.update(claims={"verdict": "HOLDS"}), "/claims/verdict"),
    ],
)
def test_validation_pointer(mutate, pointer):
    d = base_scene_dict()
    mutate(d)
    with pytest.raises(ValidationError, match=pointer.replace(".", r"\.")):
        parse(d)


def _with_term(d, powers, where="components"):
    term = {"powers": powers, "coeff": "1"}
    if where == "components":
        d["submanifold"]["components"][2].append(term)
    else:
        d["sections"] = {"radical": [[[term], []]]}
    return d


@pytest.mark.parametrize("where", ["components", "sections"])
def test_term_at_the_degree_bound_parses(where):
    half = MAX_TERM_DEGREE // 2
    scene = parse(_with_term(base_scene_dict(), [half, MAX_TERM_DEGREE - half], where))
    polys = scene.immersion.components if where == "components" else scene.radical_sections[0]
    assert max(sum(powers) for poly in polys for powers in poly.terms) == MAX_TERM_DEGREE


@pytest.mark.parametrize(
    "where, pointer",
    [
        ("components", "/submanifold/components/2/1/powers"),
        ("sections", "/sections/radical/0/0/0/powers"),
    ],
)
@pytest.mark.parametrize("powers", [[MAX_TERM_DEGREE + 1, 0], [10**6, 10**6]])
def test_term_past_the_degree_bound_is_rejected(where, pointer, powers):
    with pytest.raises(ValidationError) as info:
        parse(_with_term(base_scene_dict(), powers, where))
    assert str(info.value) == (
        f"{pointer}: total degree {sum(powers)} exceeds {MAX_TERM_DEGREE}"
    )


def _widened(d, dim):
    """The base scene in R^{1, dim-1}: extra positive coordinates, where
    the structure is s and the immersion is 0."""
    extra = dim - 3
    d["ambient"] = {"dim": dim, "signature": [-1] + [1] * (dim - 1)}
    d["structure"] = [["s" if i == j else "0" for j in range(dim)] for i in range(dim)]
    d["submanifold"]["components"] += [[] for _ in range(extra)]
    return d


def test_ambient_at_the_dimension_bound_parses_and_runs():
    scene = parse(_widened(base_scene_dict(), MAX_AMBIENT_DIM))
    assert scene.space.dim == MAX_AMBIENT_DIM
    assert run(scene).exit_status() in (0, 1)


@pytest.mark.parametrize("dim", [MAX_AMBIENT_DIM + 1, 10**6])
def test_ambient_past_the_dimension_bound_is_rejected(dim):
    d = base_scene_dict()
    d["ambient"]["dim"] = dim  # refused before the signature is read
    with pytest.raises(ValidationError) as info:
        parse(d)
    assert str(info.value) == f"/ambient/dim: {dim} exceeds {MAX_AMBIENT_DIM}"


def _points(count):
    return [[str(i), "0"] for i in range(count)]


def test_points_at_the_count_bound_parse():
    d = base_scene_dict()
    d["points"] = _points(MAX_POINTS)
    assert len(parse(d).points) == MAX_POINTS


def test_points_past_the_count_bound_are_rejected():
    d = base_scene_dict()
    d["points"] = _points(MAX_POINTS + 1)
    with pytest.raises(ValidationError) as info:
        parse(d)
    assert str(info.value) == f"/points: {MAX_POINTS + 1} sample points exceed {MAX_POINTS}"


def _digits(n):
    return "1" + "0" * (n - 1)


def _place_scalar(d, where, text):
    if where == "/points/0/1":
        d["points"][0][1] = text
    elif where == "/structure/1/2":
        d["structure"][1][2] = text
    else:
        d["submanifold"]["components"][0][0]["coeff"] = text
    return d


WHERES = ["/points/0/1", "/structure/1/2", "/submanifold/components/0/0/coeff"]


@pytest.mark.parametrize("where", WHERES)
def test_scalar_at_the_digit_bound_parses(where):
    big = _digits(MAX_SCALAR_DIGITS)
    for text in (big, f"1/{big}", f"-{big}/3", f"1/{big}*s", f"-{big}/3 + {big}*s"):
        parse(_place_scalar(base_scene_dict(), where, text))


@pytest.mark.parametrize("where", WHERES)
@pytest.mark.parametrize("digits", [MAX_SCALAR_DIGITS + 1, 20000])
def test_scalar_past_the_digit_bound_is_rejected(where, digits):
    big = _digits(digits)
    for text in (big, f"1/{big}", f"-{big}/7", f"1/{big}*s", f"2 - {big}*s"):
        with pytest.raises(ValidationError) as info:
            parse(_place_scalar(base_scene_dict(), where, text))
        assert str(info.value) == (
            f"{where}: an integer in the scalar has more than {MAX_SCALAR_DIGITS} digits"
        )


def test_json_integer_past_the_int_string_limit_is_a_parse_error():
    blob = json.dumps(base_scene_dict()).replace('"seed": 0', '"seed": ' + "1" * 5000)
    with pytest.raises(ParseError):
        parse_scene(blob)


def test_structure_entries_must_match_param_family():
    # scalar strings are parsed against the declared (p, q)
    d = base_scene_dict()
    d["params"] = {"p": 1, "q": 1}
    scene = parse(d)
    assert scene.params.p == 1


def test_bad_params_rejected():
    d = base_scene_dict()
    d["params"] = {"p": -1, "q": 1}
    with pytest.raises(ValidationError, match="/params"):
        parse(d)


def test_transversal_claim_needs_thick_radical():
    # at p >= 1, J xi = N would give <J xi, J xi> = p, yet N is null
    d = base_scene_dict()
    d["params"] = {"p": 1, "q": 1}
    d["claims"] = {"expected_radical_dim": 1, "configuration": "transversal"}
    with pytest.raises(
        ValidationError,
        match="^/claims/expected_radical_dim: transversal claims need a radical of dimension at least 2$",
    ):
        parse(d)


def test_transversal_claim_with_thin_radical_is_accepted_at_zero_p():
    # at p = 0 nothing obstructs J xi = N: generated r = 1 transversal
    # scenes exist there
    d = base_scene_dict()
    assert d["params"]["p"] == 0
    d["claims"] = {"expected_radical_dim": 1, "configuration": "transversal"}
    claims = parse(d).claims
    assert (claims.expected_radical_dim, claims.configuration) == (1, "transversal")


def test_transversal_claim_with_thick_radical_is_accepted():
    d = base_scene_dict()
    d["claims"] = {"expected_radical_dim": 2, "configuration": "transversal"}
    assert parse(d).claims.configuration == "transversal"


def test_radical_transversal_claim_allows_thin_radical():
    d = base_scene_dict()
    d["claims"] = {"expected_radical_dim": 1, "configuration": "radical-transversal"}
    assert parse(d).claims.configuration == "radical-transversal"


def test_sections_parse_into_field_coefficients():
    d = base_scene_dict()
    d["sections"] = {
        "radical": [
            [[{"powers": [0, 0], "coeff": "1"}], []],
        ]
    }
    scene = parse(d)
    assert len(scene.radical_sections) == 1
    fld = scene.radical_sections[0]
    assert len(fld) == 2
    assert not fld[0].is_zero
    assert fld[1].is_zero


def test_nesting_past_the_recursion_limit_is_a_parse_error():
    # the JSON reader recurses once per level; a deeper document once
    # escaped as a raw RecursionError
    depth = 10 * sys.getrecursionlimit()
    with pytest.raises(ParseError) as info:
        parse_scene("[" * depth + "]" * depth)
    assert str(info.value) == "scene nests arrays or objects too deeply to read"


def _zero_sections(count):
    """count zero tangent fields on the base scene's two-dimensional chart."""
    return [[[], []] for _ in range(count)]


@pytest.mark.parametrize("kind", ["radical", "screen"])
def test_sections_at_the_chart_dimension_bound_parse(kind):
    d = base_scene_dict()
    d["sections"] = {kind: _zero_sections(2)}
    assert len(getattr(parse(d), f"{kind}_sections")) == 2


@pytest.mark.parametrize("kind", ["radical", "screen"])
def test_sections_past_the_chart_dimension_bound_are_rejected(kind):
    d = base_scene_dict()
    # the extra section is malformed: the count is refused before any
    # section is read
    d["sections"] = {kind: _zero_sections(2) + ["oops"]}
    with pytest.raises(ValidationError) as info:
        parse(d)
    assert str(info.value) == f"/sections/{kind}: 3 sections exceed the chart dimension 2"


def test_claimed_radical_vectors_are_ambient_sized():
    d = base_scene_dict()
    d["claims"] = {"claimed_radical": [["1", "1", "0"]]}
    scene = parse(d)
    assert len(scene.claims.claimed_radical[0]) == 3
    d["claims"] = {"claimed_radical": [["1", "1"]]}
    with pytest.raises(ValidationError, match="/claims/claimed_radical/0"):
        parse(d)


def test_claimed_radical_at_the_chart_dimension_bound_parses():
    d = base_scene_dict()
    d["claims"] = {"claimed_radical": [["1", "1", "0"], ["0", "0", "0"]]}
    assert len(parse(d).claims.claimed_radical) == 2


def test_claimed_radical_past_the_chart_dimension_bound_is_rejected():
    d = base_scene_dict()
    # the extra vector is malformed: the count is refused before any
    # vector is read
    d["claims"] = {"claimed_radical": [["1", "1", "0"], ["0", "0", "0"], "oops"]}
    with pytest.raises(ValidationError) as info:
        parse(d)
    assert str(info.value) == (
        "/claims/claimed_radical: 3 vectors exceed the chart dimension 2"
    )


# the base scene's chart has dimension 2 in an ambient of dimension 3
SCREEN_BOUNDS = {"screen": ("chart dimension", 2), "normal_screen": ("codimension", 1)}


@pytest.mark.parametrize("kind", sorted(SCREEN_BOUNDS))
def test_screen_at_its_bound_parses(kind):
    d = base_scene_dict()
    _, limit = SCREEN_BOUNDS[kind]
    d[kind] = [["0", "0", "0"]] * limit
    assert len(getattr(parse(d), kind)) == limit


@pytest.mark.parametrize("kind", sorted(SCREEN_BOUNDS))
def test_screen_past_its_bound_is_rejected(kind):
    d = base_scene_dict()
    bound, limit = SCREEN_BOUNDS[kind]
    # the extra vector is malformed: the count is refused before any
    # vector is read
    d[kind] = [["0", "0", "0"]] * limit + ["oops"]
    with pytest.raises(ValidationError) as info:
        parse(d)
    assert str(info.value) == f"/{kind}: {limit + 1} vectors exceed the {bound} {limit}"


def test_scene_is_hash_addressable():
    scene = parse(base_scene_dict())
    digest = scene.digest()
    assert len(digest) == 64
    assert int(digest, 16) >= 0
