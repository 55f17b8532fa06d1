"""Seeded manifest generators for the three benchmark workloads.

Each generator turns a workload seed into a batch of berkhyb manifests.
The program sees only the generated manifests; bundled inputs are
referenced by absolute path so the generated files can live outside the
package data.  The same seed and data directory give byte-identical
manifest files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("converge", "valuations", "skeleta")

# Six small kinds, in ascending order of run time at these sizes.  As
# many runs are faster than na-limit as slower, so the batch median falls
# in the middle of the na-limit runs, the certified-sign path, and not on
# the gap between two kinds, where it would jump with noise.
SKELETA_COUNTS = (
    ("ma-model", 4),
    ("rho-r", 4),
    ("na-limit", 12),
    ("lelong", 4),
    ("retract", 2),
    ("mz-check", 2),
)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench-{workload}-{seed}")


def _derived_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _converge(rng: random.Random, data: Path) -> list[dict]:
    fams = data / "families"
    out = []
    for _ in range(3):
        # one t per decade 10^-2, 10^-3, 10^-4, mantissa in [1, 10)
        t_schedule = [round(rng.uniform(1.0, 9.99), 2) * 10.0 ** -k
                      for k in (2, 3, 4)]
        out.append({
            "kind": "ma-converge",
            "inputs": {
                "cln_family": str(fams / "fam_kink.json"),
                "families": [str(fams / f"{name}.json") for name in
                             ("fam_kink", "fam_isotrivial", "fam_threesec")],
            },
            "params": {
                "cln_deltas": ["1/10", "1/100", "1/1000", "1/10000"],
                "cln_residual_tol": 0.05,
                "grid": 1024,
                "mass_tol": 0.0001,
                "r": "1/2",
                "t_schedule": t_schedule,
                "test_functions": [
                    {"name": "ramp", "xs": ["-2", "0"], "ys": ["0", "1"]},
                    {"name": "hat", "xs": ["-2", "-1", "0"],
                     "ys": ["0", "1", "0"]},
                ],
                "w1_tol": 0.05,
            },
            "seed": _derived_seed(rng),
        })
    return out


def _valuations(rng: random.Random, data: Path) -> list[dict]:
    with open(data / "manifests" / "val_eval.json") as fh:
        bundled = json.load(fh)
    return [{"kind": "val-eval", "inputs": {}, "params": bundled["params"],
             "seed": _derived_seed(rng)} for _ in range(5)]


def _skeleton(kind: str, rng: random.Random, data: Path) -> dict:
    models, fams = data / "models", data / "families"
    if kind == "mz-check":
        inputs, params = {}, {"m_choices": [1, 2, 3], "n_random": 200}
    elif kind == "retract":
        inputs = {"models": [str(models / f"{m}.json")
                             for m in ("segment", "triangle", "blowup")]}
        params = {"n_points": 1000}
    elif kind == "na-limit":
        inputs = {"model_dir": str(models),
                  "tfs": [str(fams / f"{f}.json") for f in
                          ("tfs_segment", "tfs_blowinf", "tfs_triangle")]}
        params = {"r": "1/2",
                  "shift": f"{rng.randint(-20, 20)}/{rng.randint(1, 12)}"}
    elif kind == "lelong":
        inputs = {}
        params = {"bounded_floor": float(rng.randint(-12, -3)),
                  "k_hi": 8, "k_lo": 1,
                  "perturb_scale": float(rng.randint(5, 100)),
                  "pure_slope": f"{rng.randint(1, 9)}/{rng.randint(1, 5)}",
                  "tol": 0.001}
    elif kind == "rho-r":
        inputs = {}
        params = {"k_exponents": [1, 2, 3, 4], "n_angles": 8,
                  "numeric_tol": 1e-12, "r": "1/2",
                  "path_limits": {"c": round(rng.uniform(1.5, 4.0), 2),
                                  "tol": 0.001,
                                  "weights": ["0", "1/3", "1/2", "2/3", "2"]}}
    elif kind == "ma-model":
        tables = data / "tables"
        pairs = (("fam_isotrivial", "table_trivial_o1"),
                 ("fam_kink", "table_blowinf_L"),
                 ("fam_d21", "table_blowinf_d21"))
        inputs = {
            "curve_pairs": [{"family": str(fams / f"{f}.json"),
                             "table": str(tables / f"{t}.json")}
                            for f, t in pairs],
            "tables": [str(tables / f"{t}.json") for t in
                       ("table_trivial_o1", "table_blowinf_L",
                        "table_blowinf_d21", "table_ndim")],
        }
        params = {"r": rng.choice(["1/2", "1/3", "2/3", "1/4", "3/4"])}
    else:
        raise ValueError(f"unknown skeleton kind {kind!r}")
    return {"kind": kind, "inputs": inputs, "params": params,
            "seed": _derived_seed(rng)}


def _skeleta(rng: random.Random, data: Path) -> list[dict]:
    return [_skeleton(kind, rng, data)
            for kind, count in SKELETA_COUNTS for _ in range(count)]


_GENERATORS = {"converge": _converge, "valuations": _valuations,
               "skeleta": _skeleta}


def generate(workload: str, seed: int, data: Path, out_dir: Path) -> list[tuple[str, Path]]:
    """Write the workload's manifests under ``out_dir``; return (kind, path) pairs."""
    manifests = _GENERATORS[workload](_rng(workload, seed), Path(data))
    out_dir.mkdir(parents=True, exist_ok=True)
    batch = []
    for i, man in enumerate(manifests):
        man["schema"] = "berkhyb-manifest-v1"
        path = out_dir / f"{i:02d}-{man['kind']}.json"
        path.write_text(json.dumps(man, indent=2, sort_keys=True) + "\n")
        batch.append((man["kind"], path))
    return batch
