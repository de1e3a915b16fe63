"""Mutated fixtures through parse_scene and cli.main.

Each example takes one shipped fixture and replaces, drops or retypes
one JSON node, or truncates the file's bytes.  parse_scene must return
a scene or raise ParseError or ValidationError, and main must exit 0,
1 or 2 with no exception escaping.  The example stream is derandomized
and has a fixed length, and no deadline applies, so machine load cannot
change the outcome.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from importlib import resources

from hypothesis import given, settings
from hypothesis import strategies as st

from lightlike_lab.cli import main
from lightlike_lab.errors import ParseError, ValidationError
from lightlike_lab.scenes import parse_scene

FIXTURES = resources.files("lightlike_lab") / "fixtures"
RAW = {
    f.name: f.read_bytes() for f in sorted(FIXTURES.iterdir(), key=lambda f: f.name)
    if f.name.endswith(".json")
}
DOCS = {name: json.loads(raw) for name, raw in RAW.items()}


def node_paths(node, prefix=()):
    """Every node of a JSON document, as the key path from the root."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from node_paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from node_paths(child, prefix + (i,))


def retypes(value):
    """value carried by a node of each other JSON type."""
    text = json.dumps(value)
    out = [None, [value], {"value": value}, text, len(text)]
    if isinstance(value, str):
        out += [value == "", 0.5]
    return [v for v in out if type(v) is not type(value)]


SCALAR_TEXTS = ["s", "-s", "1/0", "0/0", "1/2*s + 3", "1e5", "", " ", "nan", "2**3"]
# stands for an array nested deeper than the interpreter's recursion
# limit, spliced in as text because json.dumps cannot write one
DEEP = "\u0000deep"
DEEP_TEXT = "[" * (10 * sys.getrecursionlimit()) + "]" * (10 * sys.getrecursionlimit())
leaves = st.one_of(
    st.just(DEEP),
    st.none(),
    st.booleans(),
    st.integers(-(10**6), 10**6),
    st.sampled_from([-1, 0, 1, 2, 10**30]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(SCALAR_TEXTS),
    st.text(max_size=6),
)
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_fixtures(draw):
    name = draw(st.sampled_from(sorted(RAW)))
    kind = draw(st.sampled_from(["replace", "drop", "retype", "truncate"]))
    if kind == "truncate":
        raw = RAW[name]
        return raw[: draw(st.integers(0, len(raw) - 1))]
    doc = copy.deepcopy(DOCS[name])
    path = draw(st.sampled_from(list(node_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]] if path else doc
    if kind == "drop" and path:
        del parent[path[-1]]
    else:
        new = draw(st.sampled_from(retypes(node)) if kind == "retype" else json_values)
        if path:
            parent[path[-1]] = new
        else:
            doc = new
    return json.dumps(doc).replace(json.dumps(DEEP), DEEP_TEXT).encode()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_fixtures())
def test_mutated_fixtures_are_scenes_or_input_errors(tmp_path_factory, data):
    try:
        parse_scene(data)
    except (ParseError, ValidationError):
        pass
    path = tmp_path_factory.getbasetemp() / "fuzzed-scene.json"
    path.write_bytes(data)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(path)])
    assert code in (0, 1, 2)
