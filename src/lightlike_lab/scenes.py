"""Scene files: one verification job as exact JSON.

A scene carries the scalar parameters, the ambient signature, the
structure endomorphism, a polynomial immersion, sample points, optional
screen and normal-screen choices, optional spanning sections, the list
of requested checks, and a seed.  Every scalar is a string in the
quadratic field; JSON numbers appear only in structural positions
(dimensions, exponents, the seed).

Parsing is strict: unknown fields, malformed scalars, or shape
mismatches raise ValidationError carrying a JSON-pointer path, while
malformed JSON raises ParseError with line and column.  Serialization
emits a canonical byte form (sorted keys, no whitespace, sorted
polynomial terms, checks in registry order), so parse -> serialize ->
parse is the identity and a serialized scene is byte-stable.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .ambient import MetallicStructure, SignatureSpace
from .classifier import CHECK_ORDER, CONFIGURATIONS
from .errors import LightlikeLabError, ParseError, ValidationError
from .polynomials import Polynomial
from .scalars import MetallicParams, QuadScalar, parse_scalar
from .submanifold import PolynomialImmersion

Vec = Tuple[QuadScalar, ...]

# Largest total degree of one polynomial term.  The digits of an exact
# power, and the time to form it, grow with the degree, so an unbounded
# exponent lets one term stall a run; every shipped fixture stays at
# degree 2 or below.
MAX_TERM_DEGREE = 64

# Largest ambient dimension, number of sample points and number of
# digits in one integer of a scalar.  Each caps work that grows with it:
# every frame and check is polynomial in the dimension, the checks run
# once per point, and the exact arithmetic grows with the digits.  The
# digit bound sits well below the interpreter's 4300-digit int-string
# limit.  The shipped fixtures and generated scenes reach dimension 6,
# 12 points and integers of a few digits.
MAX_AMBIENT_DIM = 12
MAX_POINTS = 64
MAX_SCALAR_DIGITS = 1000

_LONG_INTEGER = re.compile(r"\d{%d}" % (MAX_SCALAR_DIGITS + 1))


class SceneClaims(NamedTuple):
    """What the scene author expects the tool to find.

    Claims are compared against computed results and disagreements
    become report notices, never silent corrections.
    """

    expected_radical_dim: Optional[int] = None
    claimed_radical: Tuple[Vec, ...] = ()
    configuration: Optional[str] = None

    def empty(self) -> bool:
        return (
            self.expected_radical_dim is None
            and not self.claimed_radical
            and self.configuration is None
        )


class Scene(NamedTuple):
    params: MetallicParams
    space: SignatureSpace
    structure: MetallicStructure
    immersion: PolynomialImmersion
    points: Tuple[Tuple[QuadScalar, ...], ...]
    checks: Tuple[str, ...]
    seed: int
    screen: Optional[Tuple[Vec, ...]] = None
    normal_screen: Optional[Tuple[Vec, ...]] = None
    radical_sections: Tuple[Tuple[Polynomial, ...], ...] = ()
    screen_sections: Tuple[Tuple[Polynomial, ...], ...] = ()
    claims: SceneClaims = SceneClaims()

    def digest(self) -> str:
        return hashlib.sha256(serialize_scene(self)).hexdigest()


# ---- parsing helpers ----


def _object(x, path: str) -> Dict:
    if not isinstance(x, dict):
        raise ValidationError(f"{path}: expected an object")
    return x


def _array(x, path: str) -> List:
    if not isinstance(x, list):
        raise ValidationError(f"{path}: expected an array")
    return x


def _integer(x, path: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValidationError(f"{path}: expected an integer")
    return x


def _string(x, path: str) -> str:
    if not isinstance(x, str):
        raise ValidationError(f"{path}: expected a string")
    return x


def _required(obj: Dict, key: str, path: str):
    if key not in obj:
        raise ValidationError(f"{path}/{key}: required field is missing")
    return obj[key]


def _no_extras(obj: Dict, allowed: Sequence[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ValidationError(f"{path}/{key}: unknown field")


def _member(obj: Dict, key: str, allowed: Sequence[str], path: str = "") -> Dict:
    """obj[key]: a required object with no field outside allowed."""
    sub = _object(_required(obj, key, path), f"{path}/{key}")
    _no_extras(sub, allowed, f"{path}/{key}")
    return sub


def _built(path: str, make, *args):
    """make(*args), a LightlikeLabError it raises refused at path."""
    try:
        return make(*args)
    except LightlikeLabError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _scalar(x, params: MetallicParams, path: str) -> QuadScalar:
    text = _string(x, path)
    if len(text) > MAX_SCALAR_DIGITS and _LONG_INTEGER.search(text):
        raise ValidationError(
            f"{path}: an integer in the scalar has more than {MAX_SCALAR_DIGITS} digits"
        )
    try:
        return parse_scalar(text, params)
    except LightlikeLabError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _vector(x, dim: int, params: MetallicParams, path: str) -> Vec:
    arr = _array(x, path)
    if len(arr) != dim:
        raise ValidationError(f"{path}: expected {dim} entries, got {len(arr)}")
    return tuple(_scalar(v, params, f"{path}/{i}") for i, v in enumerate(arr))


def _vectors(x, dim: int, params: MetallicParams, path: str) -> Tuple[Vec, ...]:
    return tuple(_vector(v, dim, params, f"{path}/{i}") for i, v in enumerate(_array(x, path)))


def _at_most(x, limit: int, bound: str, path: str) -> List:
    """An array refused, before any vector is read, when it has more
    vectors than limit: more cannot be independent, and each is revalidated
    at every point."""
    arr = _array(x, path)
    if len(arr) > limit:
        raise ValidationError(f"{path}: {len(arr)} vectors exceed the {bound} {limit}")
    return arr


def _polynomial(x, nvars: int, params: MetallicParams, path: str) -> Polynomial:
    arr = _array(x, path)
    terms: Dict[Tuple[int, ...], QuadScalar] = {}
    for i, raw in enumerate(arr):
        term = _object(raw, f"{path}/{i}")
        _no_extras(term, ("powers", "coeff"), f"{path}/{i}")
        powers_raw = _array(_required(term, "powers", f"{path}/{i}"), f"{path}/{i}/powers")
        if len(powers_raw) != nvars:
            raise ValidationError(
                f"{path}/{i}/powers: expected {nvars} exponents, got {len(powers_raw)}"
            )
        powers = tuple(
            _integer(p, f"{path}/{i}/powers/{j}") for j, p in enumerate(powers_raw)
        )
        if any(p < 0 for p in powers):
            raise ValidationError(f"{path}/{i}/powers: exponents must be nonnegative")
        if sum(powers) > MAX_TERM_DEGREE:
            raise ValidationError(
                f"{path}/{i}/powers: total degree {sum(powers)} exceeds {MAX_TERM_DEGREE}"
            )
        if powers in terms:
            raise ValidationError(f"{path}/{i}/powers: duplicate exponent tuple")
        coeff = _scalar(_required(term, "coeff", f"{path}/{i}"), params, f"{path}/{i}/coeff")
        terms[powers] = coeff
    return Polynomial(terms, nvars, params)


def _field_list(
    x, chart_dim: int, params: MetallicParams, path: str
) -> Tuple[Tuple[Polynomial, ...], ...]:
    """Tangent fields in chart coordinates.  More than chart_dim of them
    cannot be independent, and each is revalidated at every point, so a
    longer family is refused before any component is read."""
    arr = _array(x, path)
    if len(arr) > chart_dim:
        raise ValidationError(
            f"{path}: {len(arr)} sections exceed the chart dimension {chart_dim}"
        )
    out = []
    for i, raw in enumerate(arr):
        comps = _array(raw, f"{path}/{i}")
        if len(comps) != chart_dim:
            raise ValidationError(
                f"{path}/{i}: expected {chart_dim} components, got {len(comps)}"
            )
        out.append(
            tuple(
                _polynomial(c, chart_dim, params, f"{path}/{i}/{j}")
                for j, c in enumerate(comps)
            )
        )
    return tuple(out)


_TOP_KEYS = (
    "params",
    "ambient",
    "structure",
    "submanifold",
    "points",
    "screen",
    "normal_screen",
    "sections",
    "checks",
    "seed",
    "claims",
)


def parse_scene(data) -> Scene:
    """Bytes or text to a validated Scene.

    JSON syntax problems raise ParseError with line and column; every
    semantic problem raises ValidationError naming the offending field
    by JSON pointer.
    """
    if isinstance(data, (bytes, bytearray)):
        try:
            text = bytes(data).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"scene is not valid UTF-8: {exc}") from exc
    else:
        text = data
    try:
        root = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:
        # a JSON number past the interpreter's int-string limit
        raise ParseError(f"scene is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("scene nests arrays or objects too deeply to read") from exc
    root = _object(root, "")
    _no_extras(root, _TOP_KEYS, "")

    params_obj = _member(root, "params", ("p", "q"))
    p = _integer(_required(params_obj, "p", "/params"), "/params/p")
    q = _integer(_required(params_obj, "q", "/params"), "/params/q")
    params = _built("/params", MetallicParams, p, q)

    ambient_obj = _member(root, "ambient", ("dim", "signature"))
    dim = _integer(_required(ambient_obj, "dim", "/ambient"), "/ambient/dim")
    if dim > MAX_AMBIENT_DIM:
        raise ValidationError(f"/ambient/dim: {dim} exceeds {MAX_AMBIENT_DIM}")
    sig_raw = _array(_required(ambient_obj, "signature", "/ambient"), "/ambient/signature")
    if len(sig_raw) != dim:
        raise ValidationError(
            f"/ambient/signature: length {len(sig_raw)} does not match dim {dim}"
        )
    signature = tuple(
        _integer(e, f"/ambient/signature/{i}") for i, e in enumerate(sig_raw)
    )
    space = _built("/ambient", SignatureSpace, dim, signature, params)

    struct_raw = _array(_required(root, "structure", ""), "/structure")
    if len(struct_raw) != dim:
        raise ValidationError(f"/structure: expected {dim} rows, got {len(struct_raw)}")
    structure = MetallicStructure(space, _vectors(struct_raw, dim, params, "/structure"))

    sub_obj = _member(root, "submanifold", ("chart_dim", "components"))
    chart_dim = _integer(
        _required(sub_obj, "chart_dim", "/submanifold"), "/submanifold/chart_dim"
    )
    comp_raw = _array(
        _required(sub_obj, "components", "/submanifold"), "/submanifold/components"
    )
    if len(comp_raw) != dim:
        raise ValidationError(
            f"/submanifold/components: expected {dim} components, got {len(comp_raw)}"
        )
    if not 1 <= chart_dim < dim:
        raise ValidationError(
            f"/submanifold/chart_dim: {chart_dim} is not between 1 and {dim - 1}"
        )
    components = tuple(
        _polynomial(c, chart_dim, params, f"/submanifold/components/{i}")
        for i, c in enumerate(comp_raw)
    )
    immersion = _built("/submanifold", PolynomialImmersion, space, chart_dim, components)

    points_raw = _array(_required(root, "points", ""), "/points")
    if not points_raw:
        raise ValidationError("/points: at least one sample point is required")
    if len(points_raw) > MAX_POINTS:
        raise ValidationError(f"/points: {len(points_raw)} sample points exceed {MAX_POINTS}")
    points = tuple(
        tuple(
            _scalar(c, params, f"/points/{i}/{j}")
            for j, c in enumerate(_array(pt, f"/points/{i}"))
        )
        for i, pt in enumerate(points_raw)
    )
    first_index: Dict[Tuple[QuadScalar, ...], int] = {}
    for i, pt in enumerate(points):
        if len(pt) != chart_dim:
            raise ValidationError(
                f"/points/{i}: expected {chart_dim} coordinates, got {len(pt)}"
            )
        first = first_index.setdefault(pt, i)
        if first != i:
            raise ValidationError(f"/points/{i}: repeats sample point {first}")

    # a screen spans part of the tangent space, a normal screen part of
    # its complement
    screen = normal_screen = None
    if "screen" in root:
        arr = _at_most(root["screen"], chart_dim, "chart dimension", "/screen")
        screen = _vectors(arr, dim, params, "/screen")
    if "normal_screen" in root:
        arr = _at_most(root["normal_screen"], dim - chart_dim, "codimension", "/normal_screen")
        normal_screen = _vectors(arr, dim, params, "/normal_screen")

    sections = _member(root, "sections", ("radical", "screen")) if "sections" in root else {}
    radical_sections, screen_sections = (
        _field_list(sections[key], chart_dim, params, f"/sections/{key}") if key in sections else ()
        for key in ("radical", "screen")
    )

    checks_raw = _array(_required(root, "checks", ""), "/checks")
    if not checks_raw:
        raise ValidationError("/checks: at least one check is required")
    requested = set()
    for i, c in enumerate(checks_raw):
        name = _string(c, f"/checks/{i}")
        if name not in CHECK_ORDER:
            raise ValidationError(f"/checks/{i}: unknown check {name!r}")
        requested.add(name)
    checks = tuple(c for c in CHECK_ORDER if c in requested)

    seed = _integer(_required(root, "seed", ""), "/seed")
    if seed < 0:
        raise ValidationError("/seed: must be nonnegative")

    claims = SceneClaims()
    if "claims" in root:
        claims_obj = _member(
            root, "claims", ("expected_radical_dim", "claimed_radical", "configuration")
        )
        expected_dim = None
        if "expected_radical_dim" in claims_obj:
            expected_dim = _integer(
                claims_obj["expected_radical_dim"], "/claims/expected_radical_dim"
            )
            if expected_dim < 0:
                raise ValidationError("/claims/expected_radical_dim: must be nonnegative")
        claimed = ()
        if "claimed_radical" in claims_obj:
            # the radical lies in the tangent space
            path = "/claims/claimed_radical"
            arr = _at_most(claims_obj["claimed_radical"], chart_dim, "chart dimension", path)
            claimed = _vectors(arr, dim, params, path)
        configuration = None
        if "configuration" in claims_obj:
            configuration = _string(
                claims_obj["configuration"], "/claims/configuration"
            )
            if configuration not in CONFIGURATIONS:
                raise ValidationError(
                    f"/claims/configuration: expected one of {CONFIGURATIONS}"
                )
        if configuration == "transversal" and expected_dim == 1 and params.p >= 1:
            # J xi = N would give <J xi, J xi> = p <N, xi> = p, yet N is
            # null; the single-null obstruction audit backs this rule for
            # p in {1, 2, 3}.  At p = 0 an r = 1 transversal scene exists.
            raise ValidationError(
                "/claims/expected_radical_dim: transversal claims need a radical"
                " of dimension at least 2"
            )
        claims = SceneClaims(expected_dim, claimed, configuration)

    return Scene(
        params=params,
        space=space,
        structure=structure,
        immersion=immersion,
        points=points,
        checks=checks,
        seed=seed,
        screen=screen,
        normal_screen=normal_screen,
        radical_sections=radical_sections,
        screen_sections=screen_sections,
        claims=claims,
    )


# ---- canonical serialization ----


def _poly_json(poly: Polynomial) -> List:
    return [
        {"coeff": coeff.to_string(), "powers": list(powers)}
        for powers, coeff in sorted(poly.terms.items())
    ]


def _vec_json(v: Vec) -> List[str]:
    return [x.to_string() for x in v]


def scene_to_dict(scene: Scene) -> Dict:
    """Plain-JSON dictionary in canonical shape."""
    out: Dict[str, object] = {
        "params": {"p": scene.params.p, "q": scene.params.q},
        "ambient": {"dim": scene.space.dim, "signature": list(scene.space.eps)},
        "structure": [_vec_json(row) for row in scene.structure.matrix],
        "submanifold": {
            "chart_dim": scene.immersion.chart_dim,
            "components": [_poly_json(c) for c in scene.immersion.components],
        },
        "points": [_vec_json(pt) for pt in scene.points],
        "checks": list(scene.checks),
        "seed": scene.seed,
    }
    if scene.screen is not None:
        out["screen"] = [_vec_json(v) for v in scene.screen]
    if scene.normal_screen is not None:
        out["normal_screen"] = [_vec_json(v) for v in scene.normal_screen]
    if scene.radical_sections or scene.screen_sections:
        sections: Dict[str, object] = {}
        if scene.radical_sections:
            sections["radical"] = [
                [_poly_json(c) for c in fld] for fld in scene.radical_sections
            ]
        if scene.screen_sections:
            sections["screen"] = [
                [_poly_json(c) for c in fld] for fld in scene.screen_sections
            ]
        out["sections"] = sections
    if not scene.claims.empty():
        claims: Dict[str, object] = {}
        if scene.claims.expected_radical_dim is not None:
            claims["expected_radical_dim"] = scene.claims.expected_radical_dim
        if scene.claims.claimed_radical:
            claims["claimed_radical"] = [
                _vec_json(v) for v in scene.claims.claimed_radical
            ]
        if scene.claims.configuration is not None:
            claims["configuration"] = scene.claims.configuration
        out["claims"] = claims
    return out


def serialize_scene(scene: Scene) -> bytes:
    blob = json.dumps(
        scene_to_dict(scene), sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )
    return blob.encode("utf-8") + b"\n"
