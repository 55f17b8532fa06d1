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
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import __version__
from .exactnum import LogRVal, rat_from_str, rat_to_str

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


def _interval(spec: str):
    """Membership test for an interval written like "[16, inf)" or "(0, 1)"."""
    lo, hi = map(_bound, spec[1:-1].split(","))
    above = operator.le if spec[0] == "[" else operator.lt
    below = operator.ge if spec[-1] == "]" else operator.gt
    return lambda x: above(lo, x) and below(hi, x)


def _number(what: str, types: tuple, cast):
    def in_interval(interval: str = "(-inf, inf)"):
        inside = _interval(interval)

        def parse(value):
            # type(), not isinstance(): a bool is not an int here
            if type(value) in types and inside(x := cast(value)):
                return x
            raise ValueError(f"expected {what} in {interval}, got {value!r}")
        return parse
    return in_interval


_int = _number("an integer", (int,), int)
_real = _number("a real", (int, float), float)
_rat = _number("a rational", (int, str), rat_from_str)
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


def _each(parse, min_len: int = 0):
    """A list of at least ``min_len`` items, each through ``parse``."""
    def parse_list(value):
        if not isinstance(value, list) or len(value) < min_len:
            least = f" of at least {min_len} items" if min_len else ""
            raise ValueError(f"expected a list{least}, got {value!r}")
        return _items(itertools.repeat(parse), value)
    return parse_list


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
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ManifestError(
                f"{self.path}: {source} must be a non-negative integer")
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
        path = (self.path.parent / rel).resolve()
        if not path.exists():
            raise ValueError(f"referenced input does not exist: {path}")
        return path


@dataclass
class Check:
    name: str
    passed: bool
    details: str = ""


@dataclass
class RunReport:
    kind: str
    seed: int
    version: str
    manifest_echo: dict
    checks: list[Check] = field(default_factory=list)
    tables: dict = field(default_factory=dict)  # name -> {"columns": [...], "rows": [...]}
    wall_clock: float = 0.0

    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        # wall clock is excluded: reports must be byte-identical per seed
        tables = {
            name: {
                "columns": t["columns"],
                "rows": [[_jsonable(v) for v in row] for row in t["rows"]],
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
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, Fraction):
        return rat_to_str(x)
    return str(x)


def _jsonable(v):
    if isinstance(v, Fraction):
        return rat_to_str(v)
    if isinstance(v, LogRVal):
        return v.to_json()
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    return str(v)


def write_report(report: RunReport, out_dir: Path):
    out_dir = Path(out_dir)
    atomic_write_text(
        out_dir / "report.json",
        json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n",
    )
    for name, table in report.tables.items():
        lines = [",".join(table["columns"])]
        for row in table["rows"]:
            lines.append(",".join(_fmt(v) for v in row))
        atomic_write_text(out_dir / f"{name}.csv", "\n".join(lines) + "\n")
    emit_plot_data(report, out_dir / "plot_data.csv")
    atomic_write_text(
        out_dir / "timing.json",
        json.dumps({"wall_clock_seconds": report.wall_clock}) + "\n",
    )


def emit_plot_data(report: RunReport, target: Path):
    """Tidy long-format CSV (experiment, t, series, value) from all tables."""
    rows = ["experiment,t,series,value"]
    for name, table in report.tables.items():
        cols = table["columns"]
        for row in table["rows"]:
            key = _fmt(row[0]) if row else ""
            for col, val in zip(cols[1:], row[1:]):
                if isinstance(val, (int, float, Fraction)):
                    rows.append(f"{report.kind}/{name},{key},{col},{_fmt(val)}")
    atomic_write_text(Path(target), "\n".join(rows) + "\n")


def run(man: ExperimentManifest) -> RunReport:
    # the runners import every layer module, so the first run of a process
    # loads them; the clock starts after, so timing.json leaves that out
    from . import harness

    t0 = time.perf_counter()
    report = RunReport(kind=man.kind, seed=man.seed, version=__version__,
                       manifest_echo=man.raw)
    harness.RUNNERS[man.kind](man, report)
    report.wall_clock = time.perf_counter() - t0
    return report
