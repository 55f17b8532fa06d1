import errno
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import berkhyb
from berkhyb.cli import build_parser, main
from berkhyb import harness
from berkhyb.manifest import KINDS, ExperimentManifest, ManifestError, \
    atomic_write_text, run, write_report
from berkhyb.pafunc import ContinuityError, PAFunctionOnComplex


def manifest_path(data_dir: Path, name: str) -> Path:
    return data_dir / "manifests" / name


def test_cli_pass_exit_zero(data_dir, tmp_path, capsys):
    rc = main(["ma-model", "--manifest",
               str(manifest_path(data_dir, "ma_model.json")),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "plot_data.csv").exists()


def test_cli_malformed_json_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    rc = main(["ma-model", "--manifest", str(bad), "--out",
               str(tmp_path / "out")])
    assert rc == 2
    assert not (tmp_path / "out").exists()  # no partial outputs


def test_cli_missing_input_exit_two(tmp_path):
    man = tmp_path / "man.json"
    man.write_text(json.dumps({
        "schema": "berkhyb-manifest-v1", "kind": "ma-model", "seed": 1,
        "inputs": {"tables": ["missing.json"]}, "params": {},
    }))
    rc = main(["ma-model", "--manifest", str(man), "--out",
               str(tmp_path / "out")])
    assert rc == 2
    assert not (tmp_path / "out").exists()


def test_cli_overlong_input_exit_two(tmp_path, capsys):
    # the lookup of a 300-character name fails with ENAMETOOLONG
    man = tmp_path / "man.json"
    man.write_text(json.dumps({
        "schema": "berkhyb-manifest-v1", "kind": "retract", "seed": 1,
        "inputs": {"models": ["x" * 300]}, "params": {"n_points": 5},
    }))
    rc = main(["retract", "--manifest", str(man), "--out",
               str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {man}: inputs.models[0]: cannot look up the input: "
        f"{os.strerror(errno.ENAMETOOLONG)}\n")
    assert not (tmp_path / "out").exists()


def test_runner_manifest_error_exit_two(data_dir, tmp_path, capsys):
    # blowup.json declares a pullback to the segment model, which is not loaded
    man = tmp_path / "man.json"
    man.write_text(json.dumps({
        "schema": "berkhyb-manifest-v1", "kind": "retract", "seed": 1,
        "inputs": {"models": [str(data_dir / "models" / "blowup.json")]},
        "params": {"n_points": 5},
    }))
    rc = main(["retract", "--manifest", str(man), "--out",
               str(tmp_path / "out")])
    assert rc == 2
    assert "pullback target segment not loaded" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_face_continuity_failure_exit_one_with_report(data_dir, tmp_path,
                                                      monkeypatch):
    def disagree(self):
        raise ContinuityError("face (0,) disagrees with simplex (0, 1) at 0")

    monkeypatch.setattr(PAFunctionOnComplex, "check_face_continuity", disagree)
    rc = main(["na-limit", "--manifest",
               str(manifest_path(data_dir, "na_limit.json")),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    failed = {c["name"]: c["details"] for c in report["checks"] if not c["passed"]}
    assert set(failed) == {"face-continuity-segment", "face-continuity-pone_blowinf",
                           "face-continuity-triangle"}
    assert all("disagrees with simplex" in d for d in failed.values())


def test_cli_kind_mismatch_exit_two(data_dir, tmp_path):
    rc = main(["retract", "--manifest",
               str(manifest_path(data_dir, "ma_model.json")),
               "--out", str(tmp_path / "out")])
    assert rc == 2


def test_unknown_kind_rejected(tmp_path):
    man = tmp_path / "man.json"
    man.write_text(json.dumps({"kind": "frobnicate", "seed": 1}))
    with pytest.raises(ManifestError):
        ExperimentManifest.load(man)


def test_check_failure_exit_one_with_report(data_dir, tmp_path):
    # doctor a lelong manifest with an unattainable tolerance
    src = json.loads(manifest_path(data_dir, "lelong.json").read_text())
    src["params"]["tol"] = 1e-15
    man = tmp_path / "strict.json"
    man.write_text(json.dumps(src))
    rc = main(["lelong", "--manifest", str(man), "--out",
               str(tmp_path / "out")])
    assert rc == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is False


def test_seed_override_recorded(data_dir, tmp_path):
    rc = main(["mz-check", "--manifest",
               str(manifest_path(data_dir, "mz_check.json")),
               "--out", str(tmp_path / "out"), "--seed", "777"])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["seed"] == 777
    assert report["manifest"]["seed"] == 777


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_output_files_keep_the_umask_mode(data_dir, tmp_path, umask):
    old = os.umask(umask)
    try:
        rc = main(["na-limit", "--manifest",
                   str(manifest_path(data_dir, "na_limit.json")),
                   "--out", str(tmp_path / "out")])
    finally:
        os.umask(old)
    assert rc == 0
    files = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert files == ["pa_functions.csv", "plot_data.csv", "report.json",
                     "timing.json"]
    for name in files:
        mode = (tmp_path / "out" / name).stat().st_mode & 0o777
        assert mode == 0o666 & ~umask, (name, oct(mode))


class _Boom(Exception):
    pass


def _half_write_then_raise(fdopen):
    def opened(fd, mode):
        fh = fdopen(fd, mode)
        write = fh.write

        def half(text):
            write(text[:len(text) // 2])
            fh.flush()
            raise _Boom
        fh.write = half
        return fh
    return opened


@pytest.mark.parametrize("fault", ["write", "replace"])
def test_atomic_write_leaves_no_temp_file(tmp_path, monkeypatch, fault):
    target = tmp_path / "report.json"
    atomic_write_text(target, "old\n")
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    if fault == "write":
        monkeypatch.setattr(os, "fdopen", _half_write_then_raise(os.fdopen))
    else:
        def replace(src, dst):
            raise _Boom
        monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(_Boom):
        atomic_write_text(target, "new contents\n")
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    assert target.read_text() == "old\n"


def test_emit_plot_data_shapes(data_dir, tmp_path):
    man = ExperimentManifest.load(manifest_path(data_dir, "lelong.json"))
    report = run(man)
    write_report(report, tmp_path)
    lines = (tmp_path / "plot_data.csv").read_text().strip().splitlines()
    assert lines[0] == "experiment,t,series,value"
    assert any(line.startswith("lelong/lelong_sweep") for line in lines[1:])
    # fitted line parameters emitted alongside the sweep
    assert any("lelong_fit" in line for line in lines[1:])


def test_timing_sidecar_separate(data_dir, tmp_path):
    man = ExperimentManifest.load(manifest_path(data_dir, "ma_model.json"))
    report = run(man)
    write_report(report, tmp_path)
    report_text = (tmp_path / "report.json").read_text()
    assert "wall_clock" not in report_text
    timing = json.loads((tmp_path / "timing.json").read_text())
    assert timing["wall_clock_seconds"] >= 0


def test_emit_plot_data_empty_report(tmp_path):
    from berkhyb.manifest import RunReport, emit_plot_data

    report = RunReport(kind="ma-model", seed=0, version="0", manifest_echo={})
    emit_plot_data(report, tmp_path / "plot.csv")
    assert (tmp_path / "plot.csv").read_text() == "experiment,t,series,value\n"



def test_bundled_table_cells_are_in_the_renderers_domain(data_dir):
    # manifest renders only these cell types; a new one needs a renderer case
    cells = {type(v) for name in sorted((data_dir / "manifests").glob("*.json"))
             for table in run(ExperimentManifest.load(name)).tables.values()
             for row in table["rows"] for v in row}
    assert cells <= {bool, int, float, str, Fraction}


def test_cells_render_alike_in_json_csv_and_plot_data(tmp_path):
    from berkhyb.manifest import RunReport

    report = RunReport(kind="rho-r", seed=0, version="0", manifest_echo={})
    report.check("ok", True)
    report.table("cells", ["k", "q", "flag", "x", "name"],
                 [[Fraction(1, 3), Fraction(-2, 3), True, 2 / 3, "a"]])
    write_report(report, tmp_path)
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["checks"] == [{"name": "ok", "passed": True, "details": ""}]
    assert data["tables"]["cells"]["rows"] == [["1/3", "-2/3", True, 2 / 3, "a"]]
    text = "".join((tmp_path / "report.json").read_text().split())
    assert '["1/3","-2/3",true,0.6666666666666666,"a"]' in text
    assert (tmp_path / "cells.csv").read_text() == (
        "k,q,flag,x,name\n1/3,-2/3,True,0.6666666666666666,a\n")
    # the plot takes the numbers past the key, and a bool is not one
    assert (tmp_path / "plot_data.csv").read_text() == (
        "experiment,t,series,value\n"
        "rho-r/cells,1/3,q,-2/3\n"
        "rho-r/cells,1/3,x,0.6666666666666666\n")


_DROP = object()


def _ma_converge_manifest(data_dir: Path, tmp_path: Path, key, value) -> Path:
    """The bundled ma-converge manifest with one param replaced or dropped."""
    src = json.loads(manifest_path(data_dir, "ma_converge.json").read_text())
    base = data_dir / "manifests"
    src["inputs"] = {
        k: str((base / v).resolve()) if isinstance(v, str)
        else [str((base / x).resolve()) for x in v]
        for k, v in src["inputs"].items()
    }
    if value is _DROP:
        del src["params"][key]
    else:
        src["params"][key] = value
    man = tmp_path / "man.json"
    man.write_text(json.dumps(src))
    return man


@pytest.mark.parametrize("key,value,where", [
    ("t_schedule", _DROP, "params.t_schedule"),
    ("t_schedule", [], "params.t_schedule"),
    ("t_schedule", [1.0], "params.t_schedule[0]"),
    # the w1 checks read the last t as the smallest
    ("t_schedule", [0.0001, 0.001, 0.01], "params.t_schedule[1]"),
    ("t_schedule", [0.01, 0.001, 0.001], "params.t_schedule[2]"),
    ("grid", "abc", "params.grid"),
    ("grid", 8, "params.grid"),
    ("grid", 17, "params.grid"),
    # refused before any allocation: each would take gigabytes or more
    ("grid", 5182, "params.grid"),
    ("grid", 10_000_000, "params.grid"),
], ids=["no-t_schedule", "empty-t_schedule", "t-one", "t-ascending",
        "t-repeated", "grid-abc", "grid-8", "grid-17", "grid-5182",
        "grid-10000000"])
def test_ma_converge_bad_params_exit_two(data_dir, tmp_path, capsys, key, value,
                                         where):
    man = _ma_converge_manifest(data_dir, tmp_path, key, value)
    rc = main(["ma-converge", "--manifest", str(man), "--out",
               str(tmp_path / "out")])
    assert rc == 2
    assert f"{where}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _full_route_manifest(data_dir: Path, tmp_path: Path, mode: str, grid: int):
    """The bundled ma-converge manifest at ``grid`` on one family of three
    two-term entries: it takes the full route."""
    fam = {"name": "full3", "m": 1, "degree": 4, "mode": mode,
           "entries": [{"coeffs": {"0": [1.0, 0.0], str(k): [1.0, 0.0]},
                        "q": str(k), "c": "0"} for k in (1, 2, 3)],
           "charts": [{"p": "0"}]}
    fam_path = tmp_path / "full3.json"
    fam_path.write_text(json.dumps(fam))
    man = _ma_converge_manifest(data_dir, tmp_path, "grid", grid)
    src = json.loads(man.read_text())
    src["inputs"]["families"].append(str(fam_path))
    man.write_text(json.dumps(src))
    return man


class _Reached(Exception):
    pass


@pytest.mark.parametrize("mode,fits", [("max", 4912), ("lse", 4178)])
def test_full_route_grid_fits_its_family(data_dir, tmp_path, capsys, monkeypatch,
                                          mode, fits):
    # a family off the octant route gets the largest grid whose full route
    # keeps within 2 GiB; above it the run is refused before any family,
    # the bundled radial ones included, builds a grid
    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(harness, "weak_convergence_experiment", reached)
    for grid in (fits + 2, harness._GRID_MAX):
        man = _full_route_manifest(data_dir, tmp_path, mode, grid)
        rc = main(["ma-converge", "--manifest", str(man), "--out",
                   str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {man}: params.grid: {grid} is more than {fits}, the largest "
            f"grid at which family 'full3' (full route, {mode} mode, 3 entries) "
            "keeps within 2 GiB\n")
        assert not (tmp_path / "out").exists()
    with pytest.raises(_Reached):
        run(ExperimentManifest.load(
            _full_route_manifest(data_dir, tmp_path, mode, fits)))


def test_ma_converge_unresolved_grid_fails_check(data_dir, tmp_path):
    man = _ma_converge_manifest(data_dir, tmp_path, "mass_tol", 1e-12)
    rc = main(["ma-converge", "--manifest", str(man), "--out",
               str(tmp_path / "out")])
    assert rc == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    failed = {c["name"]: c["details"] for c in report["checks"] if not c["passed"]}
    assert set(failed) == {"grid-resolution-kink", "grid-resolution-isotrivial",
                           "grid-resolution-threesec"}
    assert all("suggested_n = 2048" in d for d in failed.values())


def test_mass_past_the_boxes_advises_raising_l(data_dir, tmp_path):
    # in lse mode the kink's mass spreads: ~1/(1 + L^2) of it lies past
    # radius L of the adapted chart, which no finer grid captures
    fam = json.loads((data_dir / "families" / "fam_kink.json").read_text())
    fam["mode"] = "lse"
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(json.dumps(fam))
    man = _ma_converge_manifest(data_dir, tmp_path, "grid", 64)
    src = json.loads(man.read_text())
    src["inputs"] = {"families": [str(fam_path)]}
    man.write_text(json.dumps(src))
    assert main(["ma-converge", "--manifest", str(man), "--out",
                 str(tmp_path / "out")]) == 1
    details = _failed_checks(tmp_path)["grid-resolution-kink"]
    assert re.fullmatch(
        r"captured mass 0\.82\d+ vs degree 1\.0 \(deficit 1\.79e-01\); the boxes "
        r"hold 0\.83\d+, the rest lies past radius L: raise L on charts "
        r"'main', 'adapted'", details)


@pytest.mark.parametrize("value", [-math.inf, math.nan], ids=["minus-inf", "nan"])
def test_ma_converge_non_finite_potential_fails_resolution(data_dir, tmp_path,
                                                           monkeypatch, value):
    # a chart whose potential reads one non-finite value everywhere is not
    # flat: its stencil gives NaN masses and the mass check fails, where a
    # cut of its cells would leave a silent 0.0.  The stub potential has no
    # flat or exact piece, so every cell takes the stencil
    from berkhyb import mongeampere

    potential = mongeampere._potential_on_grid

    def non_finite_main(family, t, chart, geom, log_r, log_abs, out=None):
        if chart.name != "main":
            return potential(family, t, chart, geom, log_r, log_abs, out)
        if out is None:
            out = np.empty(log_abs.shape)
        out.fill(value)
        return out

    monkeypatch.setattr(mongeampere, "_potential_on_grid", non_finite_main)
    monkeypatch.setattr(mongeampere, "_pieces", lambda *args: [])
    man = _ma_converge_manifest(data_dir, tmp_path, "grid", 64)
    with np.errstate(invalid="ignore"):
        rc = main(["ma-converge", "--manifest", str(man), "--out",
                   str(tmp_path / "out")])
    assert rc == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    failed = {c["name"]: c["details"] for c in report["checks"] if not c["passed"]}
    nan = "captured mass nan vs degree 1.0 (deficit nan); kink circles unresolved; "
    assert failed == {f"grid-resolution-{name}": nan + "suggested_n = 128"
                      for name in ("kink", "isotrivial", "threesec")}


def test_ma_converge_r_near_one_writes_a_report(data_dir, tmp_path):
    # a 53-bit quotient rounds this r to 1, and the float log r to 0
    man = _ma_converge_manifest(data_dir, tmp_path, "r",
                                "99999999999999999999/100000000000000000000")
    src = json.loads(man.read_text())
    src["params"]["grid"] = 32
    man.write_text(json.dumps(src))
    rc = main(["ma-converge", "--manifest", str(man), "--out",
               str(tmp_path / "out")])
    assert rc == 1  # the 32-cell grid leaves the kink circles unresolved
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    passed = {c["name"] for c in report["checks"] if c["passed"]}
    assert {"cln-linear-envelope", "cln-antisymmetry"} <= passed


@pytest.mark.parametrize("keys,value,json_path", [
    (("entries",), [], "entries"),
    (("entries",), {}, "entries"),
    (("m",), 10**400, "m"),
    (("entries", 1, "q"), 10**400, "entries[1].q"),
    (("charts", 1, "p"), 10**400, "charts[1].p"),
    (("charts",), [], "charts"),
    # a power of z in canonical decimal only: "01" would collide with "1",
    # and int() reads "1_0" as 10
    (("entries", 1, "coeffs"), {"1": [1.0, 0.0], "01": [1.0, 0.0]},
     "entries[1].coeffs.01"),
    (("entries", 1, "coeffs"), {"1_0": [1.0, 0.0]}, "entries[1].coeffs.1_0"),
    (("entries", 1, "coeffs"), {" 1": [1.0, 0.0]}, "entries[1].coeffs. 1"),
    (("entries", 1, "coeffs"), {"z": [1.0, 0.0]}, "entries[1].coeffs.z"),
], ids=["entries-empty", "entries-object", "m-huge", "q-huge", "p-huge",
        "charts-empty", "key-leading-zero", "key-underscore", "key-space",
        "key-not-a-number"])
def test_family_content_error_exit_two(data_dir, tmp_path, capsys, keys, value,
                                       json_path):
    # each of these ended in a traceback, exit 1 and no report
    fam = json.loads((data_dir / "families" / "fam_kink.json").read_text())
    *parents, last = keys
    target = fam
    for key in parents:
        target = target[key]
    target[last] = value
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(json.dumps(fam))
    # mass_tol >= degree, so that no chart at all passes the mass check
    man = _ma_converge_manifest(data_dir, tmp_path, "mass_tol", 1.0)
    src = json.loads(man.read_text())
    src["inputs"] = {"families": [str(fam_path)], "cln_family": str(fam_path)}
    src["params"]["grid"] = 64
    man.write_text(json.dumps(src))
    rc = main(["ma-converge", "--manifest", str(man), "--out",
               str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {fam_path}: {json_path}: ")
    assert not (tmp_path / "out").exists()


def _run_kink_with(data_dir, tmp_path, keys, value) -> int:
    """ma-converge at grid 64 on fam_kink with the value at ``keys``
    replaced; returns the exit status."""
    fam = json.loads((data_dir / "families" / "fam_kink.json").read_text())
    *parents, last = keys
    target = fam
    for key in parents:
        target = target[key]
    target[last] = value
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(json.dumps(fam))
    man = _ma_converge_manifest(data_dir, tmp_path, "grid", 64)
    src = json.loads(man.read_text())
    src["inputs"] = {"families": [str(fam_path)], "cln_family": str(fam_path)}
    man.write_text(json.dumps(src))
    return main(["ma-converge", "--manifest", str(man), "--out",
                 str(tmp_path / "out")])


def _failed_checks(tmp_path) -> dict:
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    return {c["name"]: c["details"] for c in report["checks"] if not c["passed"]}


@pytest.mark.parametrize("keys,value,captured", [
    (("entries", 0, "q"), "1e300", "0.998181 vs degree 1.0 (deficit 1.82e-03)"),
    (("entries", 1, "q"), "1e308", "0.000000 vs degree 1.0 (deficit 1.00e+00)"),
    (("entries", 1, "q"), "-1e308", "nan vs degree 1.0 (deficit nan)"),
    (("entries", 1, "c"), "1e300", "0.000000 vs degree 1.0 (deficit 1.00e+00)"),
    (("entries", 0, "c"), "1e308", "nan vs degree 1.0 (deficit nan)"),
    (("entries", 0, "c"), "-1e300", "0.998181 vs degree 1.0 (deficit 1.82e-03)"),
])
def test_ma_converge_huge_t_power_or_constant_writes_a_report(
        data_dir, tmp_path, keys, value, captured):
    # a t-power or hybrid constant near the float range: its term's
    # constant is infinite, or the kink circle is far off the grid.  When
    # no box holds any mass, the advice is to widen the boxes
    with np.errstate(invalid="ignore"):
        rc = _run_kink_with(data_dir, tmp_path, keys, value)
    assert rc == 1
    advice = ("the boxes hold 0.000000, the rest lies past radius L: "
              "raise L on charts 'main', 'adapted'"
              if captured.startswith("0.000000 ")
              else "kink circles unresolved; suggested_n = 128")
    assert _failed_checks(tmp_path) == {
        "grid-resolution-kink": f"captured mass {captured}; {advice}"}


def test_chart_side_at_its_bound_runs(data_dir, tmp_path):
    # the float 1e300 lies above the decimal 10^300, so the bound is
    # compared as a float; the 64-cell chart then misses the kink circle
    rc = _run_kink_with(data_dir, tmp_path, ("charts", 1, "L"), 1e300)
    assert rc == 1
    assert set(_failed_checks(tmp_path)) == {"w1-at-smallest-t-kink"}


def test_chart_side_past_its_bound_exits_two(data_dir, tmp_path, capsys):
    above = math.nextafter(1e300, math.inf)
    assert _run_kink_with(data_dir, tmp_path, ("charts", 0, "L"), above) == 2
    assert capsys.readouterr().err.endswith(
        f"charts[0].L: expected a real in [1e-300, 1e300], got {above!r}\n")
    assert not (tmp_path / "out").exists()


def test_zero_captured_mass_fails_a_check_with_report(data_dir, tmp_path):
    # the only chart's partition interval, u >= 100, misses its grid, and
    # mass_tol >= degree lets the zero mass past the grid-resolution check
    fam = json.loads((data_dir / "families" / "fam_kink.json").read_text())
    fam["charts"] = [dict(fam["charts"][0], u_lo=100)]
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(json.dumps(fam))
    man = _ma_converge_manifest(data_dir, tmp_path, "mass_tol", 5)
    src = json.loads(man.read_text())
    src["inputs"] = {"families": [str(fam_path)], "cln_family": str(fam_path)}
    src["params"]["grid"] = 64
    man.write_text(json.dumps(src))
    rc = main(["ma-converge", "--manifest", str(man), "--out",
               str(tmp_path / "out")])
    assert rc == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    failed = {c["name"]: c["details"] for c in report["checks"] if not c["passed"]}
    assert failed == {"positive-mass-kink": (
        "captured mass 0.0 at |t| = 0.01, where W1 needs a positive mass; "
        "check the charts' u_lo, u_hi and L")}
    assert report["tables"]["convergence"]["rows"] == []


def test_one_process_runs_kinds_through_one_parser(data_dir, tmp_path, capsys):
    # main parses with one parser per process; it keeps no state between runs
    assert build_parser() is build_parser()
    for kind, name in (("ma-model", "ma_model.json"), ("rho-r", "rho_r.json")):
        out = tmp_path / kind
        rc = main([kind, "--manifest", str(manifest_path(data_dir, name)),
                   "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "[FAIL]" not in stdout
        assert stdout.endswith(f"report: {out / 'report.json'}\n")
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--manifest", "m.json"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: berkhyb ")
    assert "invalid choice: 'frobnicate'" in err
    rc = main(["retract", "--manifest", str(manifest_path(data_dir, "ma_model.json")),
               "--out", str(tmp_path / "mismatch")])
    assert rc == 2
    assert capsys.readouterr().err == ("error: manifest kind 'ma-model' does not "
                                       "match subcommand 'retract'\n")


@pytest.mark.parametrize("rel", [
    "taken", "taken/sub/dir", pytest.param("x" * 300, id="overlong"),
    # the lookup stops at the missing directory; making it is a write
    pytest.param("missing/" + "x" * 300, id="overlong-below-missing")])
def test_out_naming_a_file_exit_two(data_dir, tmp_path, capsys, rel):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = tmp_path / rel
    rc = main(["rho-r", "--manifest", str(manifest_path(data_dir, "rho_r.json")),
               "--out", str(out)])
    assert rc == 2
    reason = ("not a directory" if rel.startswith("taken")
              else os.strerror(errno.ENAMETOOLONG))
    assert capsys.readouterr().err == f"error: {out}: {reason}\n"
    assert taken.read_text() == "keep\n"
    assert list(tmp_path.iterdir()) == [taken]


def _modules_loaded_by(code: str) -> list:
    """numpy, mpmath and the berkhyb modules, as far as ``code`` loads them
    in a fresh interpreter."""
    probe = (code + "\nimport json, sys\nprint(json.dumps(sorted("
             "m for m in sys.modules if m in ('numpy', 'mpmath')"
             " or m.startswith('berkhyb.'))))")
    env = {**os.environ, "PYTHONPATH": str(Path(berkhyb.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_import_and_manifest_load_need_neither_numpy_nor_mpmath(data_dir):
    # nor any layer module: the runners are loaded by the first run
    manifests = sorted(map(str, (data_dir / "manifests").glob("*.json")))
    assert len(manifests) == 8
    assert _modules_loaded_by(
        "import berkhyb.cli\n"
        f"for path in {manifests!r}:\n"
        "    berkhyb.cli.ExperimentManifest.load(path)") == [
            "berkhyb.cli", "berkhyb.exactnum", "berkhyb.manifest"]


def test_every_kind_has_one_runner():
    assert tuple(harness.RUNNERS) == KINDS


def _without_numpy_checks(data_dir: Path, tmp_path: Path) -> Path:
    """The bundled val-eval manifest without the two checks that load
    numpy: the lse sweep and the superadditivity batches."""
    raw = json.loads(manifest_path(data_dir, "val_eval.json").read_text())
    del raw["params"]["lse"]
    raw["params"]["n_superadd"] = 0
    path = tmp_path / "val_eval.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("kind,unused", [
    ("retract", {"numpy", "mpmath"}), ("ma-model", {"numpy", "mpmath"}),
    ("mz-check", {"numpy", "mpmath"}), ("na-limit", {"numpy", "mpmath"}),
    ("lelong", {"numpy", "mpmath"}), ("rho-r", {"numpy", "mpmath"}),
    ("val-eval", {"numpy", "mpmath"}),
], ids=["retract", "ma-model", "mz-check", "na-limit", "lelong", "rho-r",
        "val-eval-without-lse-or-superadditivity"])
def test_exact_kinds_leave_numpy_unloaded(data_dir, tmp_path, kind, unused):
    manifest = (_without_numpy_checks(data_dir, tmp_path) if kind == "val-eval" else
                manifest_path(data_dir, kind.replace("-", "_") + ".json"))
    argv = [kind, "--manifest", str(manifest), "--out", str(tmp_path / "out")]
    loaded = _modules_loaded_by(
        f"from berkhyb.cli import main\nassert main({argv!r}) == 0")
    assert unused.isdisjoint(loaded)


def test_val_eval_leaves_numpy_random_unloaded(data_dir, tmp_path):
    # the lse sweep loads numpy, but draws from harness._splitmix64
    argv = ["val-eval", "--manifest", str(manifest_path(data_dir, "val_eval.json")),
            "--out", str(tmp_path / "out")]
    probe = ("import sys\nfrom berkhyb.cli import main\n"
             f"assert main({argv!r}) == 0\n"
             "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    env = {**os.environ, "PYTHONPATH": str(Path(berkhyb.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert {c["name"]: c["passed"] for c in report["checks"]}["lse-max-envelope"]
