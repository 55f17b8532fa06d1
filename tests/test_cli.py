import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import berkhyb
from berkhyb.cli import build_parser, main
from berkhyb import harness
from berkhyb.manifest import KINDS, ExperimentManifest, ManifestError, run, \
    write_report
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


@pytest.mark.parametrize("key,value", [
    ("t_schedule", _DROP),
    ("t_schedule", []),
    ("t_schedule", [1.0]),
    ("grid", "abc"),
    ("grid", 8),
    ("grid", 17),
], ids=["no-t_schedule", "empty-t_schedule", "t-one", "grid-abc", "grid-8",
        "grid-17"])
def test_ma_converge_bad_params_exit_two(data_dir, tmp_path, capsys, key, value):
    man = _ma_converge_manifest(data_dir, tmp_path, key, value)
    rc = main(["ma-converge", "--manifest", str(man), "--out",
               str(tmp_path / "out")])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
], ids=["entries-empty", "entries-object", "m-huge", "q-huge", "p-huge",
        "charts-empty"])
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


@pytest.mark.parametrize("rel", ["taken", "taken/sub/dir"])
def test_out_naming_a_file_exit_two(data_dir, tmp_path, capsys, rel):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = tmp_path / rel
    rc = main(["rho-r", "--manifest", str(manifest_path(data_dir, "rho_r.json")),
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {out}: not a directory\n"
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


def _without_lse(data_dir: Path, tmp_path: Path) -> Path:
    """The bundled val-eval manifest without its numpy-sampled lse check."""
    raw = json.loads(manifest_path(data_dir, "val_eval.json").read_text())
    del raw["params"]["lse"]
    path = tmp_path / "val_eval.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("kind,unused", [
    ("retract", {"numpy", "mpmath"}), ("ma-model", {"numpy", "mpmath"}),
    ("mz-check", {"numpy", "mpmath"}), ("na-limit", {"numpy", "mpmath"}),
    ("lelong", {"numpy", "mpmath"}), ("rho-r", {"numpy", "mpmath"}),
    ("val-eval", {"numpy", "mpmath"}),
], ids=["retract", "ma-model", "mz-check", "na-limit", "lelong", "rho-r",
        "val-eval-without-lse"])
def test_exact_kinds_leave_numpy_unloaded(data_dir, tmp_path, kind, unused):
    manifest = (_without_lse(data_dir, tmp_path) if kind == "val-eval" else
                manifest_path(data_dir, kind.replace("-", "_") + ".json"))
    argv = [kind, "--manifest", str(manifest), "--out", str(tmp_path / "out")]
    loaded = _modules_loaded_by(
        f"from berkhyb.cli import main\nassert main({argv!r}) == 0")
    assert unused.isdisjoint(loaded)
