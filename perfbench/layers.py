"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions named in ``LAYERS`` in every
berkhyb module namespace where callers look them up (a from-import makes
a second binding), and ``Tracer.restore`` puts the originals back.  Each
wrapper records calls, self time (its span minus the spans of wrapped
functions it called) and escaped exceptions.  Three counts are taken from
the grid pipeline's arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# layer (package module) -> traced public functions, with the workload on
# which each is expected to move run_s
LAYERS = {
    "harness": {"ExperimentManifest.load": "valuations", "run": "valuations",
                "write_report": "valuations"},
    "mongeampere": {
        "weak_convergence_experiment": "converge",
        "ma_complex_curve": "converge",
        "partition_weight": "converge",
        "pushforward_log_radius": "converge",
        "wasserstein1_line": "converge",
        "cln_stability_check": "converge",
        "family_limit_measure": "converge",
    },
    "pafunc": {"upper_envelope": "skeleta",
               "PAFunction1D.eval_float_array": "converge"},
    "valuation": {"qm_eval": "valuations", "weighted_min_of_terms": "valuations",
                  "brute_force_min": "valuations",
                  "valuation_superadditivity_check": "valuations",
                  "gauss_extension": "valuations"},
    # LogRVal.to_float is called only by the grid side (atom positions,
    # float envelopes), so it is assigned to converge
    "exactnum": {"LogRVal.sign": "skeleta", "PrimeLogVal.sign": "skeleta",
                 "LogRVal.to_float": "converge"},
    "mztree": {"mz_from_family": "skeleta", "mz_psh_check": "skeleta",
               "mz_slopes": "skeleta", "mz_family_identity": "skeleta"},
    "models": {"retraction": "skeleta", "build_dual_complex": "skeleta"},
    "tropical": {"na_limit_tfs": "skeleta"},
    "hybrid": {"sample_circle_sups": "skeleta", "lelong_estimate": "skeleta",
               "hybrid_path_limit": "skeleta"},
}

# the float grid pipeline, which valuations and skeleta must bypass
GRID_FUNCTIONS = tuple(f"mongeampere.{f}" for f in (
    "weak_convergence_experiment", "ma_complex_curve", "partition_weight",
    "pushforward_log_radius", "wasserstein1_line"))

TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
COUNTS = ("mongeampere.ma_complex_curve.cells",
          "mongeampere.wasserstein1_line.points",
          "mongeampere.pushforward_log_radius.kept_ratio")


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0] for name in TRACED}  # calls, self_s, errors
        self.cells = 0
        self.points = 0
        self.cells_in = 0
        self.cells_kept = 0
        self._stack = []
        self._patched = []  # (owner, attribute, original value)

    def _wrap(self, name, fn, count=None):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[2] += 1
                raise
            finally:
                span = clock() - t0
                stats[0] += 1
                stats[1] += span - stack.pop()
                if stack:
                    stack[-1] += span
            if count is not None:
                count(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _count_cells(self, arguments, grids):
        self.cells += sum(g.cell_masses.size for g in grids)

    def _count_points(self, arguments, w1):
        self.points += len(arguments["u1"]) + len(arguments["u2"])

    def _count_kept(self, arguments, cloud):
        self.cells_in += arguments["grid"].cell_masses.size
        self.cells_kept += len(cloud.u)

    def install(self):
        """Wrap every traced function; berkhyb.cli must be imported first."""
        counters = {"mongeampere.ma_complex_curve": self._count_cells,
                    "mongeampere.wasserstein1_line": self._count_points,
                    "mongeampere.pushforward_log_radius": self._count_kept}
        package = [m for n, m in sys.modules.items()
                   if m is not None and (n == "berkhyb" or n.startswith("berkhyb."))]
        for name in TRACED:
            mod_name, _, attr = name.partition(".")
            module = importlib.import_module(f"berkhyb.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._patch(cls, meth, new)
                continue
            orig = getattr(module, attr)
            new = self._wrap(name, orig, counters.get(name))
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, new)

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics for one pass over the batch (totals / passes)."""
        out = {}
        for name, (calls, self_s, errors) in self.stats.items():
            out[f"{name}.calls"] = (calls / passes, "count")
            out[f"{name}.self_s"] = (self_s / passes, "s")
            out[f"{name}.errors"] = (errors / passes, "count")
        kept = self.cells_kept / self.cells_in if self.cells_in else 0.0
        out[COUNTS[0]] = (self.cells / passes, "count")
        out[COUNTS[1]] = (self.points / passes, "count")
        out[COUNTS[2]] = (kept, "ratio")
        return out

    def layer_self_s(self) -> dict:
        shares = {}
        for name, (_calls, self_s, _errors) in self.stats.items():
            layer = name.partition(".")[0]
            shares[layer] = shares.get(layer, 0.0) + self_s
        return shares
