"""Exit-code contract of the CLI under bad manifest values and input files.

A bad value exits 2 with a message naming ``params.<key>`` or
``inputs.<key>`` (or, in an input file, ``<file>: <json path>``) and
writes nothing; a good one runs and exits 0 or 1.
"""

import contextlib
import copy
import io
import json
import math
import shutil
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from berkhyb import harness, tropical
from berkhyb.cli import main
from conftest import DATA_DIR
from berkhyb.manifest import ExperimentManifest, run


MANIFESTS = {
    "val-eval": "val_eval.json", "retract": "retract.json",
    "na-limit": "na_limit.json", "ma-model": "ma_model.json",
    "ma-converge": "ma_converge.json", "mz-check": "mz_check.json",
    "lelong": "lelong.json", "rho-r": "rho_r.json",
}

_DROP = object()


def _absolute(value, base: Path):
    """Input paths of a bundled manifest made absolute, so it can move."""
    if isinstance(value, str):
        return str((base / value).resolve())
    if isinstance(value, list):
        return [_absolute(v, base) for v in value]
    return {k: _absolute(v, base) for k, v in value.items()}


def bundled(data_dir: Path, kind: str) -> dict:
    man = json.loads((data_dir / "manifests" / MANIFESTS[kind]).read_text())
    man["inputs"] = _absolute(man["inputs"], data_dir / "manifests")
    return man


def mutate(man: dict, path: tuple, value) -> dict:
    """Replace (or, with _DROP, delete) the entry at ``path``."""
    obj = man
    for key in path[:-1]:
        obj = obj[key]
    if value is _DROP:
        del obj[path[-1]]
    else:
        obj[path[-1]] = value
    return man


def run_cli(kind: str, man: dict, tmp: Path, *extra):
    """Run the CLI on ``man``; return (exit code, stderr, whether out exists)."""
    path = tmp / "man.json"
    path.write_text(json.dumps(man))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([kind, "--manifest", str(path), "--out", str(tmp / "out"),
                   *extra])
    return rc, err.getvalue(), (tmp / "out").exists()


PROBES = [
    ("retract", ("inputs", "models"), _DROP),
    ("retract", ("params", "n_points"), "x"),
    ("na-limit", ("inputs", "tfs"), _DROP),
    ("na-limit", ("params", "r"), 0.5),
    ("na-limit", ("params", "r"), "2"),
    ("ma-model", ("inputs", "tables"), _DROP),
    ("mz-check", ("params", "n_random"), "x"),
    ("mz-check", ("params", "m_choices"), []),
    ("mz-check", ("params", "reference_families"), [[[2, "0"]], [[5, "0"]]]),
    ("lelong", ("params", "tol"), "abc"),
    ("lelong", ("params", "k_hi"), 2),
    ("lelong", ("params", "pure_slope"), "1e400"),
    ("lelong", ("params", "perturb_scale"), -10.0),
    ("rho-r", ("params", "n_angles"), 0),
    ("rho-r", ("params", "r"), "3/2"),
    ("val-eval", ("params", "n_random"), "x"),
    ("val-eval", ("params",), []),
    ("ma-converge", ("params", "w1_tol"), "abc"),
    ("ma-converge", ("inputs", "cln_family"), 3),
    ("ma-converge", ("inputs", "cln_family"), "missing.json"),
    ("ma-converge", ("params", "test_functions", 0, "xs"), _DROP),
]


@pytest.mark.parametrize(
    "kind,path,value", PROBES,
    ids=[f"{k}-{'.'.join(map(str, p))}-{'drop' if v is _DROP else v}"
         for k, p, v in PROBES])
def test_bad_value_exits_two_naming_the_key(data_dir, tmp_path, kind, path, value):
    man = mutate(bundled(data_dir, kind), path, value)
    rc, err, written = run_cli(kind, man, tmp_path)
    assert rc == 2
    assert ".".join(map(str, path[:2])) in err
    assert not written


@pytest.mark.parametrize("n_samples", [harness._LSE_SAMPLES_MAX + 1, 10**15])
def test_oversized_lse_sweep_exits_two(data_dir, tmp_path, monkeypatch,
                                       n_samples):
    # refused while the params are read: no sample is drawn
    monkeypatch.setattr(harness, "_lse_gaps", None)
    man = mutate(bundled(data_dir, "val-eval"), ("params", "lse", "n_samples"),
                 n_samples)
    rc, err, written = run_cli("val-eval", man, tmp_path)
    assert rc == 2
    assert "params.lse.n_samples: " in err
    assert not written


OVERSIZED = [
    ("val-eval", ("params", "lse", "max_n"), 65, "_lse_gaps"),
    ("val-eval", ("params", "lse", "m_choices"), [1, 10**300 + 1], "_lse_gaps"),
    ("val-eval", ("params", "lse", "m_choices"), [10**400], "_lse_gaps"),
    ("rho-r", ("params", "n_angles"), 4097, "rho_r_inverse"),
    ("mz-check", ("params", "n_random"), 10**5 + 1, "random_fs_family"),
    ("rho-r", ("params", "k_exponents"), [1] * 65, "rho_r_inverse"),
    ("val-eval", ("params", "lse", "m_choices"), [1] * 65, "_lse_gaps"),
    ("val-eval", ("params", "n_random"), 10**6 + 1, "_input_draws"),
    ("val-eval", ("params", "n_superadd"), 10**6 + 1, "_input_draws"),
    ("val-eval", ("params", "n_gauss"), 10**6 + 1, "_input_draws"),
    ("val-eval", ("params", "max_terms"), 10**4 + 1, "_input_draws"),
    ("val-eval", ("params", "max_terms"), 10**9, "_input_draws"),
    ("val-eval", ("params", "exp_lo"), -10**9 - 1, "_input_draws"),
    ("val-eval", ("params", "exp_hi"), 10**9 + 1, "_input_draws"),
]


@pytest.mark.parametrize("kind,path,value,work", OVERSIZED,
                         ids=[f"{k}-{'.'.join(p)}" for k, p, _, _ in OVERSIZED])
def test_oversized_count_exits_two_naming_the_key(data_dir, tmp_path, monkeypatch,
                                                  kind, path, value, work):
    # refused while the params are read: the work that grows with it never runs
    monkeypatch.setattr(harness, work, None)
    rc, err, written = run_cli(kind, mutate(bundled(data_dir, kind), path, value),
                               tmp_path)
    assert rc == 2
    assert ".".join(path) in err
    assert not written


@pytest.mark.parametrize("kind", ["val-eval", "mz-check"])
def test_negative_seed_override_exits_two(data_dir, tmp_path, kind):
    rc, err, written = run_cli(kind, bundled(data_dir, kind), tmp_path,
                               "--seed", "-1")
    assert rc == 2
    assert "--seed" in err
    assert not written


@pytest.mark.parametrize("kind", ["val-eval", "mz-check"])
def test_seed_above_u64_exits_two(data_dir, tmp_path, kind):
    # the CLI documents a u64 seed: 2^64 is refused on both routes
    man = bundled(data_dir, kind)
    rc, err, written = run_cli(kind, man, tmp_path, "--seed", str(2**64))
    assert (rc, written) == (2, False)
    assert "--seed must be an integer in [0, 2^64 - 1]" in err
    rc, err, written = run_cli(kind, mutate(man, ("seed",), 2**64), tmp_path)
    assert (rc, written) == (2, False)
    assert ": seed must be an integer in [0, 2^64 - 1]" in err
    path = tmp_path / "top.json"
    path.write_text(json.dumps(mutate(man, ("seed",), 2**64 - 1)))
    assert ExperimentManifest.load(path).seed == 2**64 - 1


def test_list_over_its_bound_is_named_by_count(data_dir, tmp_path, monkeypatch):
    # the message gives the length, not the list, which may be long
    monkeypatch.setattr(harness, "rho_r_inverse", None)
    man = mutate(bundled(data_dir, "rho-r"), ("params", "k_exponents"),
                 [1] * 10**5)
    rc, err, written = run_cli("rho-r", man, tmp_path)
    assert (rc, written) == (2, False)
    assert err.strip().endswith("params.k_exponents: expected a list of at "
                                "most 64 items, got 100000 items")


def test_every_bundled_manifest_key_is_read(data_dir, monkeypatch):
    read = set()
    value = ExperimentManifest._value

    def recording(self, section, key, default, parse):
        read.add((self.kind, section, key))
        return value(self, section, key, default, parse)

    monkeypatch.setattr(ExperimentManifest, "_value", recording)
    unread = []
    for kind, name in MANIFESTS.items():
        man = ExperimentManifest.load(data_dir / "manifests" / name)
        run(man)
        unread += [(kind, section, key) for section in ("inputs", "params")
                   for key in man.raw.get(section, {})
                   if (kind, section, key) not in read]
    assert unread == []


def test_missing_model_in_tfs_file_exits_two(data_dir, tmp_path):
    tfs = json.loads((data_dir / "families" / "tfs_segment.json").read_text())
    tfs["model"] = "nope.json"
    (tmp_path / "tfs.json").write_text(json.dumps(tfs))
    man = mutate(bundled(data_dir, "na-limit"), ("inputs", "tfs"),
                 [str(tmp_path / "tfs.json")])
    rc, err, written = run_cli("na-limit", man, tmp_path)
    assert rc == 2
    assert "nope.json" in err
    assert not written


@pytest.mark.parametrize("kind,key,source,drop", [
    ("retract", "models", "models/segment.json", "components"),
    ("na-limit", "tfs", "families/tfs_segment.json", "metric"),
    ("na-limit", "tfs", "families/tfs_segment.json", "model"),
    ("ma-model", "tables", "tables/table_ndim.json", "rows"),
    ("ma-converge", "families", "families/fam_kink.json", "charts"),
])
def test_input_file_missing_a_key_exits_two(data_dir, tmp_path, kind, key,
                                            source, drop):
    content = json.loads((data_dir / source).read_text())
    del content[drop]
    bad = tmp_path / Path(source).name
    bad.write_text(json.dumps(content))
    man = mutate(bundled(data_dir, kind), ("inputs", key), [str(bad)])
    rc, err, written = run_cli(kind, man, tmp_path)
    assert rc == 2
    assert f"{bad}: {drop}: required key is missing" in err
    assert not written


def test_missing_pullback_target_names_the_model_file(data_dir, tmp_path):
    # blowup.json declares a pullback to the segment model, which is not loaded
    blowup = str(data_dir / "models" / "blowup.json")
    man = mutate(bundled(data_dir, "retract"), ("inputs", "models"), [blowup])
    rc, err, written = run_cli("retract", man, tmp_path)
    assert rc == 2
    assert (f"{blowup}: pullbacks[0].target: pullback target segment "
            "not loaded") in err
    assert not written


def test_duplicate_component_labels_exit_two(data_dir, tmp_path):
    segment = json.loads((data_dir / "models" / "segment.json").read_text())
    segment["components"][1]["label"] = "w1"
    bad = tmp_path / "segment.json"
    bad.write_text(json.dumps(segment))
    models = [str(bad)] + [str(data_dir / "models" / f"{m}.json")
                           for m in ("triangle", "blowup")]
    man = mutate(bundled(data_dir, "retract"), ("inputs", "models"), models)
    rc, err, written = run_cli("retract", man, tmp_path)
    assert rc == 2
    assert (f"{bad}: components[1].label: duplicate component label 'w1'"
            in err)
    assert not written


def test_non_string_model_name_exit_two(data_dir, tmp_path):
    triangle = json.loads((data_dir / "models" / "triangle.json").read_text())
    triangle["name"] = 0
    bad = tmp_path / "triangle.json"
    bad.write_text(json.dumps(triangle))
    models = [str(data_dir / "models" / f"{m}.json")
              for m in ("segment", "blowup")] + [str(bad)]
    man = mutate(bundled(data_dir, "retract"), ("inputs", "models"), models)
    rc, err, written = run_cli("retract", man, tmp_path)
    assert rc == 2
    assert f"{bad}: name: expected a string, got 0" in err
    assert not written


@pytest.mark.parametrize("index", [0.0, True, "0"])
def test_non_integer_stratum_index_exits_two(data_dir, tmp_path, index):
    segment = json.loads((data_dir / "models" / "segment.json").read_text())
    segment["strata"][0] = [index]
    bad = tmp_path / "segment.json"
    bad.write_text(json.dumps(segment))
    models = [str(bad)] + [str(data_dir / "models" / f"{m}.json")
                           for m in ("triangle", "blowup")]
    man = mutate(bundled(data_dir, "retract"), ("inputs", "models"), models)
    rc, err, written = run_cli("retract", man, tmp_path)
    assert rc == 2
    assert (f"{bad}: strata[0][0]: expected an integer in [0, inf), "
            f"got {index!r}") in err
    assert not written


@pytest.mark.parametrize("kind,key,source,path,value,reason", [
    ("retract", "models", "models/segment.json", ("strata", 0), [5],
     "strata[0]: bad stratum (5,)"),
    ("ma-model", "tables", "tables/table_ndim.json", ("rows", 0, 1), 10**40,
     f"rows[0][1]: b_E = {10**40} disagrees with model multiplicity 2 "
     "at component 0"),
    ("retract", "models", "models/triangle.json", ("strata", 3), [0],
     "strata[6]: not face-closed: (0, 1) missing under (0, 1, 2)"),
    ("ma-converge", "families", "families/fam_kink.json", ("entries", 1, "coeffs"),
     {"2": [1.0, 0.0]},
     "entries[1].coeffs: entry degree 2 exceeds declared family degree 1"),
])
def test_cross_key_rule_names_the_key_at_fault(data_dir, tmp_path, kind, key,
                                               source, path, value, reason):
    # the constructor checks these rules against other keys (the component
    # count, the other strata, the model's multiplicities, the
    # family degree), yet names the key it rejects
    content = mutate(json.loads((data_dir / source).read_text()), path, value)
    bad = tmp_path / Path(source).name
    bad.write_text(json.dumps(content))
    inputs = [str(bad)]
    if kind == "retract":
        inputs += [str(data_dir / "models" / f"{m}.json")
                   for m in ("segment", "triangle", "blowup")
                   if source != f"models/{m}.json"]
    man = mutate(bundled(data_dir, kind), ("inputs", key), inputs)
    rc, err, written = run_cli(kind, man, tmp_path)
    assert rc == 2
    assert f"{bad}: {reason}" in err
    assert not written


def test_radius_too_close_to_one_exits_two(data_dir, tmp_path):
    # |log r| < 10^-899: no rung of the certified sign, up to 800 digits,
    # can separate the skeleton values that carry a 1/log r term
    man = mutate(bundled(data_dir, "na-limit"), ("params", "r"),
                 f"{10**900 - 1}/{10**900}")
    rc, err, written = run_cli("na-limit", man, tmp_path)
    assert rc == 2
    assert err == (f"error: {tmp_path / 'man.json'}: sign undecided at 800 "
                   "digits; value too close to zero\n")
    assert not written


def test_retraction_into_an_undeclared_stratum_fails_its_checks(data_dir,
                                                                tmp_path):
    # without its edge [0, 1], segment cannot host the barycenter of blowup
    segment = json.loads((data_dir / "models" / "segment.json").read_text())
    segment["strata"] = [[0], [1]]
    bad = tmp_path / "segment.json"
    bad.write_text(json.dumps(segment))
    models = [str(bad)] + [str(data_dir / "models" / f"{m}.json")
                           for m in ("triangle", "blowup")]
    man = mutate(bundled(data_dir, "retract"), ("inputs", "models"), models)
    rc, err, written = run_cli("retract", man, tmp_path)
    assert rc == 1 and err == ""
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    failed = {c["name"]: c["details"] for c in report["checks"] if not c["passed"]}
    reason = "support (0, 1) not contained in any declared stratum"
    assert failed == {"blowup-barycenter": reason,
                      "blowup-halfedge-matrix-oracle": reason}


@pytest.mark.parametrize("kind", ["ma-model", "ma-converge"])
def test_family_coeffs_not_an_object_exit_two(data_dir, tmp_path, kind):
    family = json.loads((data_dir / "families" / "fam_isotrivial.json").read_text())
    family["entries"][0]["coeffs"] = 0
    bad = tmp_path / "fam_isotrivial.json"
    bad.write_text(json.dumps(family))
    man = bundled(data_dir, kind)
    if kind == "ma-model":
        man["inputs"]["curve_pairs"][0]["family"] = str(bad)
    else:
        man["inputs"]["families"] = [str(bad)]
    rc, err, written = run_cli(kind, man, tmp_path)
    assert rc == 2
    assert f"{bad}: entries[0].coeffs: expected a JSON object, got 0" in err
    assert not written


def test_curve_pair_table_without_zval_exit_two(data_dir, tmp_path):
    table = json.loads((data_dir / "tables" / "table_trivial_o1.json").read_text())
    del table["model"]["components"][0]["zval"]
    bad = tmp_path / "table_trivial_o1.json"
    bad.write_text(json.dumps(table))
    man = bundled(data_dir, "ma-model")
    man["inputs"]["curve_pairs"][0]["table"] = str(bad)
    rc, err, written = run_cli("ma-model", man, tmp_path)
    assert rc == 2
    assert f"{bad}: model.components[0].zval: required for a curve pair" in err
    assert not written
    # a table outside the curve pairs places no atom, so it needs no zval
    man = bundled(data_dir, "ma-model")
    man["inputs"]["tables"] = [str(bad)]
    rc, err, written = run_cli("ma-model", man, tmp_path)
    assert rc == 0 and written, err


def _tfs_variant(data_dir, tmp_path, edit) -> Path:
    tfs = json.loads((data_dir / "families" / "tfs_segment.json").read_text())
    edit(tfs["metric"])
    path = tmp_path / "tfs_variant.json"
    path.write_text(json.dumps(tfs))
    return path


def test_na_limit_pole_fails_regularity_check_with_report(data_dir, tmp_path):
    def pole(metric):
        metric["entries"][1]["section"]["terms"][0]["exp"] = [-1, 0]

    tfs = [str(_tfs_variant(data_dir, tmp_path, pole)),
           str(data_dir / "families" / "tfs_triangle.json")]
    man = mutate(bundled(data_dir, "na-limit"), ("inputs", "tfs"), tfs)
    rc, err, written = run_cli("na-limit", man, tmp_path)
    assert rc == 1 and err == ""
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    failed = {c["name"]: c["details"] for c in report["checks"] if not c["passed"]}
    assert failed == {"regularity-segment":
                      "section has a pole along component 0 (ord = -1)"}
    assert "trivial-metric-zero-triangle" in {c["name"] for c in report["checks"]}


def test_na_limit_trivial_metric_at_level_two(data_dir, tmp_path):
    # relative to z^m the sections z^2, z^3 are regular, and the trivial
    # metric's section is the reference to the m-th power
    def level_two(metric):
        metric["m"] = 2
        metric["reference"]["terms"][0]["exp"] = [1, 0]
        for entry, exp in zip(metric["entries"], ([2, 0], [3, 0], [2, 1])):
            entry["section"]["terms"][0]["exp"] = exp

    tfs = [str(_tfs_variant(data_dir, tmp_path, level_two))]
    man = mutate(bundled(data_dir, "na-limit"), ("inputs", "tfs"), tfs)
    rc, err, written = run_cli("na-limit", man, tmp_path)
    assert rc == 0 and err == ""
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "trivial-metric-zero-segment" in {c["name"] for c in report["checks"]}


NA_LIMIT_MODELS = ("segment", "pone_blowinf", "triangle")


def _failed_na_limit_checks(data_dir, tmp_path) -> dict:
    """Run the bundled na-limit manifest; it must exit 1 with its report
    written and nothing on stderr.  Return the failed checks' details."""
    rc, err, written = run_cli("na-limit", bundled(data_dir, "na-limit"), tmp_path)
    assert (rc, err, written) == (1, "", True)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    return {c["name"]: c["details"] for c in report["checks"] if not c["passed"]}


def test_na_limit_off_shift_fails_shift_covariance(data_dir, tmp_path,
                                                   monkeypatch):
    monkeypatch.setattr(harness, "tfs_shift", lambda phi, c: tropical.tfs_shift(
        phi, Fraction(c) + Fraction(1, 1000)))
    assert _failed_na_limit_checks(data_dir, tmp_path) == {
        f"constant-shift-covariance-{name}": "shift by 3/7"
        for name in NA_LIMIT_MODELS}


def test_na_limit_trivial_metric_with_a_constant_fails(data_dir, tmp_path,
                                                      monkeypatch):
    class PlusOne:
        """TropicalFSMetric whose built entries carry c + 1; the runner
        builds only the trivial metric through this name."""

        @staticmethod
        def build(m, entries, reference, meromorphic_ok=False):
            return tropical.TropicalFSMetric.build(
                m, [(s, c + 1) for s, c in entries], reference, meromorphic_ok)

    monkeypatch.setattr(harness, "TropicalFSMetric", PlusOne)
    assert _failed_na_limit_checks(data_dir, tmp_path) == {
        f"trivial-metric-zero-{name}": "" for name in NA_LIMIT_MODELS}


def test_na_limit_pole_skips_the_files_later_checks(data_dir, tmp_path):
    def pole(metric):
        metric["entries"][1]["section"]["terms"][0]["exp"] = [-1, 0]

    tfs = [str(_tfs_variant(data_dir, tmp_path, pole)),
           str(data_dir / "families" / "tfs_triangle.json")]
    man = mutate(bundled(data_dir, "na-limit"), ("inputs", "tfs"), tfs)
    rc, err, written = run_cli("na-limit", man, tmp_path)
    assert (rc, err, written) == (1, "", True)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [c["name"] for c in report["checks"]] == [
        "regularity-segment", "dual-route-triangle", "face-continuity-triangle",
        "constant-shift-covariance-triangle", "trivial-metric-zero-triangle"]
    rows = report["tables"]["pa_functions"]["rows"]
    assert {row[0] for row in rows} == {"triangle"}


# Fuzz bases: the bundled manifests at sizes that keep each run short.
# Every key is still mutated; the sizes only bound the run time.
SMALL = {
    "val-eval": {"n_random": 50, "n_superadd": 50, "n_gauss": 20,
                 "lse": {"m_choices": [1, 2], "max_n": 4, "n_samples": 1000}},
    "ma-converge": {"grid": 32},
    "retract": {"n_points": 20},
}

VALUES = st.one_of(
    st.just(_DROP), st.none(), st.booleans(), st.integers(-3, 40),
    st.floats(-3, 40), st.sampled_from([math.nan, math.inf]),
    st.sampled_from(["", "abc", "0", "1/2", "3/2", "-1", "2", "1/0"]),
    st.lists(st.integers(-3, 40), max_size=4),
    st.lists(st.sampled_from(["0", "1/2", "x"]), max_size=3),
    st.just({}),
)


def _targets(man: dict) -> list:
    return ([(k,) for k in ("seed", "inputs", "params")]
            + [(s, k) for s in ("inputs", "params") for k in sorted(man[s])])


@pytest.mark.parametrize("kind", sorted(MANIFESTS))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_key_fuzz_keeps_the_exit_contract(data_dir, kind, data):
    man = bundled(data_dir, kind)
    man["params"].update(copy.deepcopy(SMALL.get(kind, {})))
    path = data.draw(st.sampled_from(_targets(man)), label="key")
    mutate(man, path, data.draw(VALUES, label="value"))
    with tempfile.TemporaryDirectory() as tmp:
        rc, err, written = run_cli(kind, man, Path(tmp))
    assert rc in (0, 1, 2)
    assert written == (rc != 2), err


# Each bundled input file and the kind whose bundled manifest reads it
READERS = {
    "models/segment.json": "retract", "models/triangle.json": "retract",
    "models/blowup.json": "retract", "models/pone_blowinf.json": "na-limit",
    "families/tfs_segment.json": "na-limit",
    "families/tfs_blowinf.json": "na-limit",
    "families/tfs_triangle.json": "na-limit",
    "families/fam_kink.json": "ma-converge",
    "families/fam_isotrivial.json": "ma-converge",
    "families/fam_threesec.json": "ma-converge",
    "families/fam_d21.json": "ma-model",
    "tables/table_trivial_o1.json": "ma-model",
    "tables/table_blowinf_L.json": "ma-model",
    "tables/table_blowinf_d21.json": "ma-model",
    "tables/table_ndim.json": "ma-model",
}
# grid 64 misses the default mass_tol 1e-4; mass_tol 1 lets the run reach W1
FILE_SMALL = {"retract": {"n_points": 20},
              "ma-converge": {"grid": 64, "mass_tol": 1.0}}


def _key_paths(value, prefix=()):
    """The path of every entry below ``value``, at any depth."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


FILE_TARGETS = st.sampled_from(sorted(READERS)).flatmap(
    lambda name: st.tuples(st.just(name), st.sampled_from(list(_key_paths(
        json.loads((DATA_DIR / name).read_text()))))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(target=FILE_TARGETS, value=VALUES)
# a tfs term that is not an object, and a chart L of 0, once escaped
@example(target=("families/tfs_segment.json",
                 ("metric", "entries", 0, "section", "terms", 0)), value=0)
@example(target=("families/fam_kink.json", ("charts", 0, "L")), value=0)
def test_one_key_input_file_fuzz_keeps_the_exit_contract(target, value):
    name, path = target
    kind = READERS[name]
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp).resolve() / "data"  # input paths are resolved
        shutil.copytree(DATA_DIR, data)
        content = json.loads((data / name).read_text())
        (data / name).write_text(json.dumps(mutate(content, path, value)))
        man = bundled(data, kind)
        man["params"].update(FILE_SMALL.get(kind, {}))
        rc, err, written = run_cli(kind, man, Path(tmp))
    assert rc in (0, 1, 2)
    assert written == (rc != 2), err
    if rc == 2:  # one line naming an input file of the copy
        assert err.startswith(f"error: {data}/") and err.count("\n") == 1, err
