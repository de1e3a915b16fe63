"""Command line behavior: exit codes, output shape, seed precedence."""

import json
import re
import subprocess
import sys
from importlib import resources

import pytest

from lightlike_lab import classifier, scenes
from lightlike_lab.classifier import CHECK_ORDER
from lightlike_lab.errors import InternalInconsistency
from lightlike_lab.cli import SEED_ENV, main
from test_runner import UNSTABLE_RADICAL_SCREEN_SECTION

FIXTURES = resources.files("lightlike_lab") / "fixtures"


def fixture_path(name):
    return str(FIXTURES / name)


def test_all_holds_scene_exits_zero(capsys):
    code = main([fixture_path("radical-transversal-plane.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "def-3.1" in out
    assert "summary:" in out


def test_failing_scene_exits_one(capsys):
    code = main([fixture_path("identity-structure.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert re.search(r"^metallic-validate\s+FAILS$", out, re.M)


def test_entry_lines_are_greppable(capsys):
    main([fixture_path("paper-example.json")])
    out = capsys.readouterr().out
    entry_lines = [
        line
        for line in out.splitlines()
        if re.match(r"^\S+\s+(HOLDS|FAILS|NOT_APPLICABLE)$", line)
    ]
    scene = json.loads((FIXTURES / "paper-example.json").read_text())
    assert len(entry_lines) == len(scene["checks"])
    assert len(entry_lines) == len(CHECK_ORDER) - 1


def test_notices_are_printed(capsys):
    main([fixture_path("paper-example.json")])
    out = capsys.readouterr().out
    assert "notice: point 0: declared radical dimension 1" in out


def test_missing_file_exits_two(capsys):
    code = main(["/no/such/scene.json"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


def test_malformed_scene_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"params": {"p": 0')
    code = main([str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 1" in err


def test_invalid_scene_pointer_in_error(tmp_path, capsys):
    scene = json.loads((FIXTURES / "identity-structure.json").read_text())
    scene["seed"] = -5
    bad = tmp_path / "scene.json"
    bad.write_text(json.dumps(scene))
    code = main([str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "/seed" in err


def test_scene_argument_required_without_list_checks(capsys):
    code = main([])
    assert code == 2
    assert "scene file is required" in capsys.readouterr().err


def test_list_checks(capsys):
    code = main(["--list-checks"])
    out = capsys.readouterr().out
    assert code == 0
    listed = [line.split()[0] for line in out.splitlines() if line.strip()]
    assert listed == list(CHECK_ORDER)


def test_report_file_is_canonical_and_stable(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    main([fixture_path("transversal-plane.json"), "--report", str(out1)])
    main([fixture_path("transversal-plane.json"), "--report", str(out2)])
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["summary"]["FAILS"] == 0
    assert [e["check"] for e in report["entries"]]


def test_report_path_that_is_a_directory_exits_two(tmp_path, capsys):
    code = main([fixture_path("transversal-plane.json"), "--report", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


def test_seed_flag_overrides_scene(tmp_path, capsys):
    out = tmp_path / "r.json"
    main(
        [
            fixture_path("identity-structure.json"),
            "--seed",
            "123",
            "--report",
            str(out),
        ]
    )
    capsys.readouterr()
    assert json.loads(out.read_text())["seed"] == 123


def test_env_seed_used_when_no_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV, "77")
    out = tmp_path / "r.json"
    main(
        [
            fixture_path("identity-structure.json"),
            "--report",
            str(out),
        ]
    )
    capsys.readouterr()
    assert json.loads(out.read_text())["seed"] == 77


def test_flag_beats_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV, "77")
    out = tmp_path / "r.json"
    main(
        [
            fixture_path("identity-structure.json"),
            "--seed",
            "5",
            "--report",
            str(out),
        ]
    )
    capsys.readouterr()
    assert json.loads(out.read_text())["seed"] == 5


def test_scene_seed_is_the_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)
    out = tmp_path / "r.json"
    main(
        [
            fixture_path("identity-structure.json"),
            "--report",
            str(out),
        ]
    )
    capsys.readouterr()
    scene_seed = json.loads((FIXTURES / "identity-structure.json").read_text())[
        "seed"
    ]
    assert json.loads(out.read_text())["seed"] == scene_seed


@pytest.mark.parametrize(
    "where,value",
    [
        ("env", "not-a-number"),
        ("env", "9" * 5000),
        ("flag", "9" * 5000),
        ("env", "-3"),
        ("flag", "-3"),
        ("flag", "+3"),
        ("env", " 3"),
    ],
    ids=[
        "env-text",
        "env-5000-digits",
        "flag-5000-digits",
        "env-negative",
        "flag-negative",
        "flag-plus-sign",
        "env-space",
    ],
)
def test_garbage_env_seed_is_an_input_error(where, value, capsys, monkeypatch):
    # the flag and the variable go through one parser: a nonnegative
    # integer, as the scene's /seed, and an error that quotes a prefix
    if where == "env":
        monkeypatch.setenv(SEED_ENV, value)
        argv, source = [], SEED_ENV
    else:
        monkeypatch.delenv(SEED_ENV, raising=False)
        argv, source = ["--seed", value], "--seed"
    code = main([fixture_path("identity-structure.json"), *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {source}")
    assert len(captured.err) < 200
    if value.isdigit():
        assert "exceeds the integer conversion limit" in captured.err
        assert "(5000 characters)" in captured.err
    else:
        assert f"must be a nonnegative integer, got {value!r}" in captured.err


def _past_range_entry(scene):
    # the Jacobian entry 2 * 10^400 has no float
    scene["submanifold"]["components"][0].append({"coeff": "1", "powers": [2, 0]})
    del scene["normal_screen"]
    scene["points"] = [["1" + "0" * 400, "3"]]


def _overflowing_products(scene):
    # every Jacobian entry has a float, near 10^200, but their products
    # overflow and the null Gram entries cancel inf - inf to nan
    for comp in scene["submanifold"]["components"]:
        for term in comp:
            num, slash, den = term["coeff"].partition("/")
            term["coeff"] = num + "0" * 200 + slash + den


@pytest.mark.parametrize(
    "enlarge",
    [_past_range_entry, _overflowing_products],
    ids=["past-range-entry", "overflowing-products"],
)
def test_float_check_refuses_values_past_the_float_range(enlarge, tmp_path, capsys):
    # the exact frame is fine, and the run without the float check reports it
    scene = json.loads((FIXTURES / "transversal-plane.json").read_text())
    enlarge(scene)
    scene["checks"] = ["frame"]
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    assert main([str(path)]) == 0
    capsys.readouterr()
    code = main([str(path), "--float-check"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: /points/0: frame values exceed the floating-point range of the float check\n"
    )


def test_float_check_prints_deviation(capsys):
    main([fixture_path("paper-example.json"), "--float-check"])
    out = capsys.readouterr().out
    match = re.search(r"float-check: max abs deviation (\S+)", out)
    assert match
    assert float(match.group(1)) < 1e-9


def test_stdout_is_deterministic(capsys):
    main([fixture_path("transversal-recorded.json")])
    first = capsys.readouterr().out
    main([fixture_path("transversal-recorded.json")])
    second = capsys.readouterr().out
    assert first == second


def test_console_script_runs_end_to_end(tmp_path):
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "lightlike_lab.cli",
            fixture_path("identity-structure.json"),
            "--report",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "metallic-validate" in proc.stdout
    assert json.loads(out.read_text())["summary"]["FAILS"] == 1


def test_runtime_import_path_leaves_the_scene_generators_out():
    # nor dataclasses: its class generation and its inspect import would
    # cost every fresh process about as much again as the package import
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, lightlike_lab.runner, lightlike_lab.cli; "
            "assert 'lightlike_lab.generators' not in sys.modules; "
            "assert 'dataclasses' not in sys.modules",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_internal_inconsistency_names_check_point_and_mode(capsys, monkeypatch):
    monkeypatch.setattr(
        classifier.ProjectorSet, "audit", lambda self: ["P[screen] does not fix slot screen"]
    )
    code = main([fixture_path("transversal-recorded.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "internal inconsistency: check=structure-eqs point=0 mode=transversal:"
        " P[screen] does not fix slot screen\n"
    )


def test_internal_inconsistency_from_the_equations_gets_the_mode(capsys, monkeypatch):
    def broken(ctx, mode):
        raise InternalInconsistency("split regrouping failed in the tangent slot at pair (0, 0)")

    monkeypatch.setattr(classifier, "_structure_equations", broken)
    code = main([fixture_path("radical-transversal-plane.json")])
    assert code == 1
    assert capsys.readouterr().err == (
        "internal inconsistency: check=structure-eqs point=0 mode=radical-transversal:"
        " split regrouping failed in the tangent slot at pair (0, 0)\n"
    )


@pytest.mark.parametrize(
    "name, source",
    [
        # raised inside the def-3.1 point check
        ("radical-transversal-deep.json", "check=def-3.1 point=0 mode=radical-transversal"),
        # raised while the claimed configuration is compared, before any check
        ("transversal-plane.json", "check=- point=0 mode=transversal"),
    ],
)
def test_internal_inconsistency_in_a_configuration_predicate_names_its_mode(
    name, source, capsys, monkeypatch
):
    def broken(self):
        raise InternalInconsistency("radical clause broke")

    monkeypatch.setattr(classifier.PointContext, "_radical_clause", broken)
    code = main([fixture_path(name)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"internal inconsistency: {source}: radical clause broke\n"


def test_internal_inconsistency_in_the_frame_build_is_not_an_input_error(
    capsys, monkeypatch
):
    from lightlike_lab import submanifold

    def broken(*args, **kwargs):
        raise InternalInconsistency("transversal frame lost duality")

    monkeypatch.setattr(submanifold, "construct_ltr", broken)
    code = main([fixture_path("transversal-plane.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "internal inconsistency: check=- point=0 mode=-:"
        " transversal frame lost duality\n"
    )


def test_bad_point_in_the_frame_build_is_still_an_input_error(tmp_path, capsys):
    scene = json.loads((FIXTURES / "transversal-plane.json").read_text())
    # a chart point where the Jacobian drops rank is bad input, not a bug
    scene["submanifold"]["components"] = [
        [{"powers": [2] + [0] * (scene["submanifold"]["chart_dim"] - 1), "coeff": "1"}]
    ] * len(scene["submanifold"]["components"])
    scene["points"] = [["0"] * scene["submanifold"]["chart_dim"]]
    bad = tmp_path / "scene.json"
    bad.write_text(json.dumps(scene))
    code = main([str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: /points/0: Jacobian rank drop at (0")


def _scene_with_first_coordinate(tmp_path, text):
    scene = json.loads((FIXTURES / "transversal-plane.json").read_text())
    scene["points"][0][0] = text
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    return str(path)


def _long_coordinate(form, digits):
    return "1" + "0" * (digits - 1) if form == "numerator" else "1/" + "3" * digits


@pytest.mark.parametrize("form", ["numerator", "denominator"])
def test_coefficient_at_the_digit_bound_is_accepted(tmp_path, capsys, form):
    path = _scene_with_first_coordinate(
        tmp_path, _long_coordinate(form, scenes.MAX_SCALAR_DIGITS)
    )
    code = main([path])
    captured = capsys.readouterr()
    assert code in (0, 1)
    assert captured.err == ""
    assert "summary:" in captured.out


@pytest.mark.parametrize("form", ["numerator", "denominator"])
@pytest.mark.parametrize("extra", [1, 20000 - scenes.MAX_SCALAR_DIGITS])
def test_coefficient_past_the_digit_bound_is_an_input_error(tmp_path, capsys, form, extra):
    digits = scenes.MAX_SCALAR_DIGITS + extra
    path = _scene_with_first_coordinate(tmp_path, _long_coordinate(form, digits))
    code = main([path])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (
        f"error: /points/0/0: an integer in the scalar has more than"
        f" {scenes.MAX_SCALAR_DIGITS} digits\n"
    )


def test_scene_past_the_size_bounds_is_an_input_error(tmp_path, capsys):
    fixture = json.loads((FIXTURES / "transversal-plane.json").read_text())
    too_many = dict(fixture, points=[[str(i), "0"] for i in range(scenes.MAX_POINTS + 1)])
    too_wide = dict(fixture, ambient={"dim": 10**6, "signature": []})
    chart_dim = fixture["submanifold"]["chart_dim"]
    section = [[] for _ in range(chart_dim)]
    too_long = dict(fixture, sections={"radical": [section] * (chart_dim + 1)})
    # every claimed vector is compared at every point: 2000 of them at 64
    # points once took 5 s on a 2-core host and wrote a 16 MB report
    too_many_claims = dict(
        fixture,
        points=[[str(i), str(-i)] for i in range(scenes.MAX_POINTS)],
        claims=dict(fixture["claims"], claimed_radical=[["0"] * 5] * 2000),
    )
    for name, scene, message in [
        ("points", too_many, f"/points: {scenes.MAX_POINTS + 1} sample points exceed {scenes.MAX_POINTS}"),
        ("dim", too_wide, f"/ambient/dim: {10**6} exceeds {scenes.MAX_AMBIENT_DIM}"),
        ("sections", too_long, f"/sections/radical: {chart_dim + 1} sections exceed the chart dimension {chart_dim}"),
        ("claims", too_many_claims, f"/claims/claimed_radical: 2000 vectors exceed the chart dimension {chart_dim}"),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(scene))
        assert main([str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def _verify_subprocess(path):
    return subprocess.run(
        [sys.executable, "-m", "lightlike_lab.cli", path],
        capture_output=True,
        text=True,
    )


def test_malformed_long_coordinate_gives_a_short_error(tmp_path):
    # 4001 characters, malformed right after the leading digit
    path = _scene_with_first_coordinate(tmp_path, "1" + "x" * 4000)
    proc = _verify_subprocess(path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.encode()) < 300
    assert proc.stderr == (
        "error: /points/0/0: bad scalar text at offset 1: "
        f"{('1' + 'x' * 23)!r}... (4001 characters)\n"
    )


def test_screen_section_where_the_kit_fails_exits_two_without_a_traceback(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(UNSTABLE_RADICAL_SCREEN_SECTION))
    proc = _verify_subprocess(str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.encode()) < 300
    assert proc.stderr == (
        "error: /sections/screen: cannot be checked at point 0:"
        " radical direction does not extend to first order here\n"
    )


def test_repeated_point_is_an_input_error(tmp_path):
    scene = json.loads((FIXTURES / "transversal-plane.json").read_text())
    scene["points"] = scene["points"] * 3
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    proc = _verify_subprocess(str(path))
    assert proc.returncode == 2
    assert proc.stderr == "error: /points/1: repeats sample point 0\n"


def _scene_with_term(tmp_path, powers):
    """radical-transversal-plane with one more term on component 0,
    sampled at the chart point (2, 3); the declared screen fits only the
    plane, so it goes."""
    scene = json.loads((FIXTURES / "radical-transversal-plane.json").read_text())
    del scene["screen"]
    scene["submanifold"]["components"][0].append({"coeff": "1", "powers": powers})
    scene["points"] = [["2", "3"]]
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    return str(path)


def test_term_at_the_degree_bound_is_verified(tmp_path, capsys):
    half = scenes.MAX_TERM_DEGREE // 2
    code = main([_scene_with_term(tmp_path, [half, scenes.MAX_TERM_DEGREE - half])])
    captured = capsys.readouterr()
    assert code in (0, 1)
    assert captured.err == ""
    assert "summary:" in captured.out


@pytest.mark.parametrize(
    "powers", [[scenes.MAX_TERM_DEGREE // 2, scenes.MAX_TERM_DEGREE // 2 + 1], [10**6, 10**6]]
)
def test_term_past_the_degree_bound_is_an_input_error(tmp_path, powers):
    # evaluated, x^e y^e at (2, 3) takes about a second at e = 10^5 and
    # more than a minute at e = 10^6, so the term is refused while parsing
    proc = subprocess.run(
        [sys.executable, "-m", "lightlike_lab.cli", _scene_with_term(tmp_path, powers)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == (
        f"error: /submanifold/components/0/1/powers: total degree {sum(powers)}"
        f" exceeds {scenes.MAX_TERM_DEGREE}\n"
    )
