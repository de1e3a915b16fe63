"""Fresh-interpreter side of the benchmark.

    python3 child.py setup
        stdin: scenes separated by NUL bytes.  Imports lightlike_lab and
        parses every scene, then exits: the set-up a fresh process pays
        before its first run().
    python3 child.py scene SEED FLOAT_CHECK TRACE
        stdin: one scene.  Drives the library API the README documents
        (parse_scene, run, Report.serialize) and writes the report bytes
        to stdout.  Exit 3 with "rejected <Error>" on stderr when the
        scene is refused, exit 4 with "error <Error>: ..." on any other
        exception.  With TRACE=1 the last stderr line is "trace <json>".
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lightlike_lab import runner, scenes  # noqa: E402
from lightlike_lab.errors import ParseError, ValidationError  # noqa: E402


def _setup() -> int:
    for raw in sys.stdin.buffer.read().split(b"\0"):
        scenes.parse_scene(raw)
    return 0


def _scene(seed: str, float_check: str, trace: str) -> int:
    raw = sys.stdin.buffer.read()
    tracer = None
    if trace == "1":
        import json

        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        report = runner.run(
            scenes.parse_scene(raw), seed=int(seed), float_check=float_check == "1"
        )
        out = report.serialize()
        code = 0
    except (ParseError, ValidationError) as exc:
        print(f"rejected {type(exc).__name__}", file=sys.stderr)
        code = 3
    except Exception as exc:  # every other exception is a failed operation
        print(f"error {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 4
    if tracer is not None:
        tracer.uninstall()
        print("trace " + json.dumps(tracer.export()), file=sys.stderr)
    if code == 0:
        sys.stdout.buffer.write(out)
    return code


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"]:
        sys.exit(_setup())
    if sys.argv[1:2] == ["scene"] and len(sys.argv) == 5:
        sys.exit(_scene(*sys.argv[2:]))
    print(__doc__, file=sys.stderr)
    sys.exit(2)
