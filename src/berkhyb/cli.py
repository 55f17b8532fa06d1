"""Command-line entry point.

    berkhyb <kind> --manifest <path> [--out <dir>] [--seed <u64>]

Exit status: 0 when every check passes, 1 on check failures (the report
is still written), 2 on manifest/parse errors, on inputs whose exact
order cannot be certified, or on an output path that is not a directory
or cannot be looked up (no outputs are written).
The default output directory is ``berkhyb-out/<kind>`` under the current
directory, or $BERKHYB_OUT when set.
"""

from __future__ import annotations

import argparse
import errno
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


def _unwritable(path: Path) -> str | None:
    """Why the report cannot be written to ``path``, or None: the nearest of
    it and its ancestors that exists is not a directory, a lookup fails, or
    a directory to be made below it has a name too long for it."""
    missing = []
    try:
        for p in (path, *path.parents):
            if p.exists():
                break
            missing.append(os.fsencode(p.name))
        if not p.is_dir():
            return "not a directory"
        longest = os.pathconf(p, "PC_NAME_MAX")
    except OSError as exc:
        return exc.strerror
    if any(len(name) > longest for name in missing):
        return os.strerror(errno.ENAMETOOLONG)
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out or os.environ.get("BERKHYB_OUT")
                   or Path("berkhyb-out") / args.kind)
    reason = _unwritable(out_dir)
    if reason:
        print(f"error: {out_dir}: {reason}", file=sys.stderr)
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
