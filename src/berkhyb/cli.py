"""Command-line entry point.

    berkhyb <kind> --manifest <path> [--out <dir>] [--seed <u64>]

Exit status: 0 when every check passes, 1 on check failures (the report
is still written), 2 on manifest/parse errors or an output path that is
not a directory (no outputs are written).
The default output directory is ``berkhyb-out/<kind>`` under the current
directory, or $BERKHYB_OUT when set.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from pathlib import Path

from .manifest import KINDS, ExperimentManifest, ManifestError, run, write_report


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="berkhyb",
        description="valuation / tropical-metric / hybrid-limit experiments",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} manifest")
        p.add_argument("--manifest", required=True, help="manifest JSON path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the manifest seed")
    return parser


def _not_a_directory(path: Path) -> bool:
    """Whether ``path``, or the nearest of its ancestors that exists, is
    something other than a directory, so the report cannot be written."""
    for p in (path, *path.parents):
        if p.exists():
            return not p.is_dir()
    return False


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out or os.environ.get("BERKHYB_OUT")
                   or Path("berkhyb-out") / args.kind)
    if _not_a_directory(out_dir):
        print(f"error: {out_dir}: not a directory", file=sys.stderr)
        return 2
    try:
        manifest = ExperimentManifest.load(args.manifest)
        if manifest.kind != args.kind:
            raise ManifestError(
                f"manifest kind {manifest.kind!r} does not match "
                f"subcommand {args.kind!r}"
            )
        if args.seed is not None:
            manifest.set_seed(args.seed, "--seed")
        # a runner may reject its inputs too; nothing is written before this
        report = run(manifest)
    except ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_report(report, out_dir)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        line = f"[{status}] {check.name}"
        if check.details:
            line += f": {check.details}"
        print(line)
    print(f"report: {out_dir / 'report.json'}")
    return 0 if report.passed() else 1


if __name__ == "__main__":
    sys.exit(main())
