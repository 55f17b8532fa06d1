"""Call counts on the exact paths of mz-check and retract (no timing).

The archimedean hull of ``mz_from_family`` runs on integer lattice lines,
and ``retraction`` takes every component's value on one integer lattice;
these guards fail when either falls back to the exact-value arithmetic.
"""

import random
from unittest import mock

from berkhyb import harness, models, valuation
from berkhyb.exactnum import PrimeLogVal
from berkhyb.harness import ExperimentManifest, run
from berkhyb.mztree import mz_from_family, mz_psh_check, random_fs_family


def _counting(obj, name):
    return mock.patch.object(obj, name, autospec=True,
                             side_effect=getattr(obj, name))


def test_mz_from_family_makes_no_primelog_arithmetic():
    rng = random.Random(7)
    families = harness._reference_families(harness._REFERENCE_FAMILIES) + [
        random_fs_family(rng) for _ in range(50)]
    with _counting(PrimeLogVal, "_combine") as combine:
        built = [mz_from_family(fam, m) for fam in families for m in (1, 2, 3)]
        assert combine.call_count == 0
        # the counter is live: the verdict compares archimedean slopes
        assert all(mz_psh_check(F).passed for F in built)
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
