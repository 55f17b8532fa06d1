"""Manifests, dispatch and deterministic reports: all the CLI needs before a run.

A manifest selects one experiment kind, input files, parameters and a
seed.  Values are read through the parse combinators below, which the
input-file specs in ``harness`` are built from too; a failure names its
JSON path.  Reports are written atomically (temp file + rename) and are
byte-identical across runs for a fixed (manifest, seed): all randomness
flows from the manifest seed through explicit generators, floats are
serialized by repr, and wall-clock timing goes to a sidecar file that is
not part of the deterministic output set.

This module imports only the standard library and ``exactnum``: the
runners, and through them every layer module, are loaded by the first
``run`` of a process.
"""

from __future__ import annotations

import itertools
import json
import operator
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import __version__
from .exactnum import PrecisionError, rat_to_str

# the experiment kinds; harness.RUNNERS holds one runner for each
KINDS = ("val-eval", "retract", "na-limit", "ma-model", "ma-converge",
         "mz-check", "lelong", "rho-r")


class ManifestError(ValueError):
    pass


class _Invalid(ValueError):
    """A failed parse at a JSON path (a run of ``.key`` and ``[i]`` steps)
    below the value parsed: ``step``, then the path of ``exc``, if any."""

    def __init__(self, step: str, exc):
        self.path = step + getattr(exc, "path", "")
        self.reason = getattr(exc, "reason", exc)
        super().__init__(f"{self.path.lstrip('.')}: {self.reason}")


REQUIRED = object()  # the default of a key that must be given


def _read_json(path: Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ManifestError(f"{path}: {exc}") from exc


def _field(obj: dict, key: str, default, parse):
    """``obj[key]`` (``default`` when absent, None stays None) through ``parse``;
    a failure is re-raised at ``.key``."""
    if key in obj:
        value = obj[key]
    elif default is None:
        return None
    elif default is REQUIRED:
        raise _Invalid(f".{key}", "required key is missing")
    else:
        value = default
    try:
        return parse(value)
    except (ValueError, ArithmeticError) as exc:
        raise _Invalid(f".{key}", exc) from exc


def _bound(s: str):
    """An interval end: an infinity as a float, else as an int when it is
    one, which compares faster than a Fraction."""
    if "inf" in s:
        return float(s)
    q = Fraction(s)
    return q.numerator if q.denominator == 1 else q


def _interval(spec: str, bound):
    """Membership test for an interval written like "[16, inf)" or "(0, 1)",
    whose ends ``bound`` parses."""
    lo, hi = map(bound, spec[1:-1].split(","))
    above = operator.le if spec[0] == "[" else operator.lt
    below = operator.ge if spec[-1] == "]" else operator.gt
    return lambda x: above(lo, x) and below(hi, x)


def _number(what: str, types: tuple, cast, bound=_bound):
    def in_interval(interval: str = "(-inf, inf)"):
        inside = _interval(interval, bound)

        def parse(value):
            # type(), not isinstance(): a bool is not an int here
            if type(value) in types and inside(x := cast(value)):
                return x
            raise ValueError(f"expected {what} in {interval}, got {value!r}")
        return parse
    return in_interval


_int = _number("an integer", (int,), int)
# float ends, so that a real written as an end is inside it: the float
# 1e300 lies above the decimal 10^300
_real = _number("a real", (int, float), float, float)
_rat = _number("a rational", (int, str), Fraction)
_COUNT, _POSITIVE, _TOL, _R = \
    _int("[0, inf)"), _int("[1, inf)"), _real("(0, inf)"), _rat("(0, 1)")


def _typed(kind: type, what: str):
    def parse(value):
        if type(value) is not kind:
            raise ValueError(f"expected {what}, got {value!r}")
        return value
    return parse


_text, _flag = _typed(str, "a string"), _typed(bool, "true or false")


def _null_is(value, parse):
    """``parse``, with a JSON null standing for ``value``."""
    return lambda v: value if v is None else parse(v)


def _items(parses, values) -> tuple:
    out = []
    try:
        for parse, value in zip(parses, values):
            out.append(parse(value))
    except (ValueError, ArithmeticError) as exc:
        raise _Invalid(f"[{len(out)}]", exc) from exc
    return tuple(out)


def _each(parse, min_len: int = 0, max_len: int | None = None):
    """A list of ``min_len`` to ``max_len`` items, each through ``parse``."""
    def parse_list(value):
        if not isinstance(value, list) or len(value) < min_len:
            least = f" of at least {min_len} items" if min_len else ""
            raise ValueError(f"expected a list{least}, got {value!r}")
        if max_len is not None and len(value) > max_len:
            # the count, not the list: it may be long
            raise ValueError(f"expected a list of at most {max_len} items, "
                             f"got {len(value)} items")
        return _items(itertools.repeat(parse), value)
    return parse_list


def _decreasing(parse):
    """``parse``, whose list must then strictly decrease; a failure is at
    the first item that is not below the one before it."""
    def parse_decreasing(value):
        items = parse(value)
        for i in range(1, len(items)):
            if not items[i] < items[i - 1]:
                raise _Invalid(f"[{i}]", f"expected less than {items[i - 1]!r}, "
                                         f"got {items[i]!r}")
        return items
    return parse_decreasing


def _tuple(*parses):
    """A list of exactly len(parses) items, the i-th through parses[i]."""
    def parse_tuple(value):
        if not isinstance(value, list) or len(value) != len(parses):
            raise ValueError(
                f"expected a list of {len(parses)} items, got {value!r}")
        return _items(parses, value)
    return parse_tuple


def _block(build=None, /, **fields):
    """Parse a JSON object whose fields are given as name=(default, parse).

    The result is the dict of the parsed fields, or, given ``build``,
    ``build(*values)`` with the values in the order the fields are given.
    """
    def parse(value):
        if not isinstance(value, dict):
            raise ValueError(f"expected a JSON object, got {value!r}")
        values = [_field(value, k, d, p) for k, (d, p) in fields.items()]
        return build(*values) if build else dict(zip(fields, values))
    return parse


@dataclass
class ExperimentManifest:
    kind: str
    seed: int
    path: Path
    raw: dict

    @classmethod
    def load(cls, path) -> "ExperimentManifest":
        path = Path(path)
        data = _read_json(path)
        if not isinstance(data, dict):
            raise ManifestError(f"{path}: a manifest is a JSON object")
        kind = data.get("kind")
        if not (isinstance(kind, str) and kind in KINDS):
            raise ManifestError(f"{path}: unknown experiment kind {kind!r}")
        for section in ("inputs", "params"):
            if not isinstance(data.get(section, {}), dict):
                raise ManifestError(f"{path}: {section} must be a JSON object")
        man = cls(kind, 0, path, data)
        man.set_seed(data.get("seed"), "seed")
        return man

    def set_seed(self, seed, source: str):
        if (isinstance(seed, bool) or not isinstance(seed, int)
                or not 0 <= seed < 2**64):
            raise ManifestError(
                f"{self.path}: {source} must be an integer in [0, 2^64 - 1]")
        self.seed = self.raw["seed"] = seed

    def param(self, key: str, default, parse):
        """``params.<key>`` through ``parse``; a failure is a ManifestError."""
        return self._value("params", key, default, parse)

    def input(self, key: str, default, parse):
        """``inputs.<key>`` through ``parse``; a failure is a ManifestError."""
        return self._value("inputs", key, default, parse)

    def _value(self, section: str, key: str, default, parse):
        try:
            return _field(self.raw.get(section, {}), key, default, parse)
        except _Invalid as exc:
            raise ManifestError(f"{self.path}: {section}.{exc}") from exc

    def file(self, rel) -> Path:
        """An existing input path, relative to the manifest's directory."""
        if not isinstance(rel, str):
            raise ValueError(f"expected a path, got {rel!r}")
        try:
            path = (self.path.parent / rel).resolve()
            found = path.exists()
        except OSError as exc:  # a name too long, say
            raise ValueError(f"cannot look up the input: {exc.strerror}") from exc
        if not found:
            raise ValueError(f"referenced input does not exist: {path}")
        return path


@dataclass
class Check:
    name: str
    passed: bool
    details: str = ""


@dataclass
class RunReport:
    """A run's checks and tables.  Runners add them through ``check`` and
    ``table``; ``to_json``, ``write_report`` and ``emit_plot_data`` render
    them, each table cell through ``_cell``."""

    kind: str
    seed: int
    version: str
    manifest_echo: dict
    checks: list[Check] = field(default_factory=list)
    tables: dict = field(default_factory=dict)  # name -> {"columns": [...], "rows": [...]}
    wall_clock: float = 0.0

    def check(self, name: str, passed: bool, details: str = ""):
        self.checks.append(Check(name, passed, details))

    def table(self, name: str, columns: list, rows: list):
        self.tables[name] = {"columns": columns, "rows": rows}

    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        # wall clock is excluded: reports must be byte-identical per seed
        tables = {
            name: {
                "columns": t["columns"],
                "rows": [[_cell(v) for v in row] for row in t["rows"]],
            }
            for name, t in self.tables.items()
        }
        return {
            "schema": "berkhyb-report-v1",
            "kind": self.kind,
            "seed": self.seed,
            "version": self.version,
            "manifest": self.manifest_echo,
            "passed": self.passed(),
            "checks": [
                {"name": c.name, "passed": c.passed, "details": c.details}
                for c in self.checks
            ],
            "tables": tables,
        }


def atomic_write_text(path: Path, text: str):
    """Write ``text`` to a new file beside ``path`` and rename it over
    ``path``, so no reader sees a partial file.  The file is created with
    mode 0o666 less the umask, as ``open(path, "w")`` would create it
    (``tempfile.mkstemp`` would give 0o600)."""
    tmp = path.with_name(f".tmp-{os.urandom(8).hex()}{path.suffix}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell(v):
    """A table cell as it is written: a Fraction as "n/d"; a bool, int, float
    or str, the only other cell types, as it is."""
    return rat_to_str(v) if isinstance(v, Fraction) else v


def _csv(v) -> str:
    # str of a float is its repr
    return str(_cell(v))


def write_report(report: RunReport, out_dir: Path):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(
        out_dir / "report.json",
        json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n",
    )
    for name, table in report.tables.items():
        lines = [",".join(table["columns"])]
        for row in table["rows"]:
            lines.append(",".join(map(_csv, row)))
        atomic_write_text(out_dir / f"{name}.csv", "\n".join(lines) + "\n")
    emit_plot_data(report, out_dir / "plot_data.csv")
    atomic_write_text(
        out_dir / "timing.json",
        json.dumps({"wall_clock_seconds": report.wall_clock}) + "\n",
    )


def emit_plot_data(report: RunReport, target: Path):
    """Tidy long-format CSV (experiment, t, series, value) from all tables:
    one row per number (int, float or Fraction) past each row's first cell.
    A bool is an int, but no value on an axis, so it is left out."""
    rows = ["experiment,t,series,value"]
    for name, table in report.tables.items():
        cols = table["columns"]
        for row in table["rows"]:
            key = _csv(row[0]) if row else ""
            for col, val in zip(cols[1:], row[1:]):
                if (isinstance(val, (int, float, Fraction))
                        and not isinstance(val, bool)):
                    rows.append(f"{report.kind}/{name},{key},{col},{_csv(val)}")
    atomic_write_text(Path(target), "\n".join(rows) + "\n")


def run(man: ExperimentManifest) -> RunReport:
    # the runners import every layer module, so the first run of a process
    # loads them; the clock starts after, so timing.json leaves that out
    from . import harness

    t0 = time.perf_counter()
    report = RunReport(kind=man.kind, seed=man.seed, version=__version__,
                       manifest_echo=man.raw)
    try:
        harness.RUNNERS[man.kind](man, report)
    except PrecisionError as exc:
        # an input whose order no certified sign can settle, such as a
        # radius too close to 1, is rejected like any other bad input
        raise ManifestError(f"{man.path}: {exc}") from exc
    report.wall_clock = time.perf_counter() - t0
    return report
