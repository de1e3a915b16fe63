"""Command line front end.

Exit status: 0 when every reported check holds or is not applicable,
1 when any check fails or the classifier detects an internal
contradiction, 2 on unreadable or invalid input.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .classifier import CHECK_ORDER, REFERENCES
from .errors import InternalInconsistency, ParseError, ValidationError
from .runner import TOOL_VERSION, run
from .scalars import _quote
from .scenes import parse_scene

SEED_ENV = "LIGHTLIKE_LAB_SEED"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lightlike-verify",
        description="Check lightlike submanifold scenes in exact arithmetic.",
    )
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    parser.add_argument("scene", nargs="?", help="scene JSON file")
    parser.add_argument("--report", metavar="OUT", help="write the JSON report here")
    parser.add_argument("--seed", help="override the scene seed")
    parser.add_argument(
        "--float-check",
        action="store_true",
        help="also run the floating-point frame oracle at 1e-9",
    )
    parser.add_argument(
        "--list-checks",
        action="store_true",
        help="list known check identifiers and exit",
    )
    return parser


def _seed(text: str, source: str) -> int:
    """A seed override: a nonnegative integer, as the scene's /seed."""
    if not (text.isascii() and text.isdigit()):
        raise ValidationError(f"{source} must be a nonnegative integer, got {_quote(text)}")
    try:
        return int(text)
    except ValueError:
        raise ValidationError(
            f"{source}: {_quote(text)} exceeds the integer conversion limit"
        ) from None


def _effective_seed(args) -> Optional[int]:
    if args.seed is not None:
        return _seed(args.seed, "--seed")
    env = os.environ.get(SEED_ENV)
    return None if env is None else _seed(env, SEED_ENV)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_checks:
        for cid in CHECK_ORDER:
            print(f"{cid:20s} {REFERENCES[cid]}")
        return 0

    if args.scene is None:
        print("error: scene file is required", file=sys.stderr)
        return 2

    try:
        with open(args.scene, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        scene = parse_scene(raw)
        seed = _effective_seed(args)
        report = run(scene, seed=seed, float_check=args.float_check)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc.source()}: {exc}", file=sys.stderr)
        return 1

    for entry in report.entries:
        print(f"{entry['check']:20s} {entry['verdict']}")
    for notice in report.notices:
        print(f"notice: {notice}")
    if report.float_check is not None:
        print(
            "float-check: max abs deviation "
            f"{report.float_check['max_abs_deviation']}"
        )
    summary = report.summary
    print(
        f"summary: {summary['HOLDS']} HOLDS, {summary['FAILS']} FAILS, "
        f"{summary['NOT_APPLICABLE']} NOT_APPLICABLE"
    )

    if args.report:
        try:
            with open(args.report, "wb") as fh:
                fh.write(report.serialize())
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    return report.exit_status()


if __name__ == "__main__":
    sys.exit(main())
