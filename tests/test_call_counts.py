"""Call counts on the exact paths of mz-check and retract (no timing).

``mz_from_family`` takes its hulls on one integer lattice and
``mz_slopes``/``mz_psh_check`` decide the verdict on it, and
``retraction`` takes every component's value on one integer lattice;
these guards fail when any falls back to the exact-value arithmetic.
``na-limit`` takes the full limit once per tfs file; its shift and
trivial checks read only the direct restriction.
"""

import random
from unittest import mock

from berkhyb import harness, models, tropical, valuation
from berkhyb.exactnum import PrimeLogVal
from berkhyb.manifest import ExperimentManifest, run
from berkhyb.mztree import mz_family_identity, mz_from_family, mz_psh_check, \
    mz_slopes, random_fs_family


def _counting(obj, name):
    return mock.patch.object(obj, name, autospec=True,
                             side_effect=getattr(obj, name))


def _mz_families():
    rng = random.Random(7)
    return harness._reference_families(harness._REFERENCE_FAMILIES) + [
        random_fs_family(rng) for _ in range(50)]


def test_mz_from_family_makes_no_primelog_arithmetic():
    families = _mz_families()
    with _counting(PrimeLogVal, "_combine") as combine:
        built = [mz_from_family(fam, m) for fam in families for m in (1, 2, 3)]
        assert combine.call_count == 0
        # the counter is live: the closed form subtracts two logs
        mz_family_identity(families[0], 1, mz_slopes(built[0]))
    assert combine.call_count > 0


def test_mz_verdict_makes_no_primelog_arithmetic():
    families = _mz_families()
    built = [(fam, m, mz_from_family(fam, m)) for fam in families for m in (1, 2, 3)]
    with _counting(PrimeLogVal, "_combine") as combine:
        verdicts = [mz_psh_check(F) for _, _, F in built]
        reports = [mz_slopes(F) for _, _, F in built]
        assert combine.call_count == 0
        assert all(v.passed for v in verdicts)
        assert all(mz_family_identity(fam, m, rep).slope_sum_matches_direct
                   for (fam, m, _), rep in zip(built, reports))
    assert combine.call_count > 0


def test_run_retract_makes_no_qm_eval_call(data_dir, monkeypatch):
    counters = []
    for module in (valuation, models, harness):
        for name in ("qm_eval", "weighted_min_of_terms"):
            if hasattr(module, name):
                counter = mock.Mock(side_effect=getattr(module, name))
                monkeypatch.setattr(module, name, counter)
                counters.append(counter)
    man = ExperimentManifest.load(data_dir / "manifests" / "retract.json")
    assert run(man).passed()
    assert [c.call_count for c in counters] == [0] * len(counters)


def test_run_na_limit_takes_one_full_limit_per_file(data_dir, monkeypatch):
    depth, outside = [0], []
    limit, logr_min = tropical.na_limit_tfs, tropical.logr_min

    def counted_limit(*args):
        depth[0] += 1
        try:
            return limit(*args)
        finally:
            depth[0] -= 1

    def watched_logr_min(*args):
        if not depth[0]:
            outside.append(args)
        return logr_min(*args)

    counter = mock.Mock(side_effect=counted_limit)
    monkeypatch.setattr(harness, "na_limit_tfs", counter)
    monkeypatch.setattr(tropical, "logr_min", watched_logr_min)
    man = ExperimentManifest.load(data_dir / "manifests" / "na_limit.json")
    assert run(man).passed()
    assert counter.call_count == len(man.raw["inputs"]["tfs"]) == 3
    assert outside == []
