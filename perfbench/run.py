#!/usr/bin/env python3
"""berkhyb benchmark: seeded experiment batches run through berkhyb.cli.main.

    python3 perfbench/run.py --workload converge --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; berkhyb is imported from its
``src/``.  The seed generates a batch of manifests (see workloads.py).
Every manifest is first run once as the reference; then runs cycle through
the batch, in this process and one thread, until ``--seconds`` have
passed.  Each run is timed from manifest load until report.json and its
sidecars are written.  A run fails when the CLI exits non-zero, a check
fails, an exception escapes, or report.json differs byte for byte from the
reference run of the same manifest.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the batch and prints per-layer metrics
for one pass (see layers.py).  Human-readable lines come first; the last
line of standard output is one JSON object.  The exit status is 1 when
any run failed and 2 when the checkout or arguments are unusable.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

from layers import Tracer
from workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "berkhyb" / "data"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 9

# a fresh interpreter, timed until the CLI is imported and a manifest loaded
SETUP_CODE = (
    "import sys\n"
    "import berkhyb.cli\n"
    "berkhyb.cli.ExperimentManifest.load(sys.argv[1])\n"
    "print('ready', flush=True)\n"
)


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_probe(manifest: Path) -> float:
    """Seconds from spawning python3 until berkhyb.cli has loaded ``manifest``."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(manifest)],
                          stdout=subprocess.PIPE, env=_src_env(),
                          cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=60)
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return elapsed


class BatchRunner:
    """Runs manifests through berkhyb.cli.main and verifies every run."""

    def __init__(self, batch, out_root: Path):
        import berkhyb.cli

        self.cli = berkhyb.cli
        self.batch = batch
        self.out_dirs = [out_root / f"{i:02d}" for i in range(len(batch))]
        self.reference: dict[int, bytes] = {}
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def run(self, i: int) -> tuple[float, bool]:
        """Run manifest ``i`` once; return (seconds, passed)."""
        kind, path = self.batch[i]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with redirect_stdout(io.StringIO()):
                code = self.cli.main([kind, "--manifest", str(path),
                                      "--out", str(self.out_dirs[i])])
        except Exception as exc:  # counted as a failed run, never fatal
            elapsed = time.perf_counter() - t0
            return elapsed, self._fail(i, f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        problems = self._verify(i, code)
        return elapsed, self._fail(i, "; ".join(problems)) if problems else True

    def _fail(self, i: int, reason: str) -> bool:
        self.failures.append((self.batch[i][1].name, reason))
        return False

    def _verify(self, i: int, code: int) -> list[str]:
        out = self.out_dirs[i]
        problems = [] if code == 0 else [f"exit status {code}"]
        missing = [n for n in ("report.json", "timing.json", "plot_data.csv")
                   if not (out / n).is_file()]
        if missing:
            return problems + [f"missing {', '.join(missing)}"]
        raw = (out / "report.json").read_bytes()
        failed = [c["name"] for c in json.loads(raw)["checks"] if not c["passed"]]
        if failed:
            problems.append(f"failed checks: {', '.join(failed)}")
        ref = self.reference.setdefault(i, raw)
        if raw != ref:
            problems.append("report.json differs from the first run")
        return problems

    def reference_pass(self):
        for i in range(len(self.batch)):
            self.run(i)


def _p90_note(samples) -> tuple[float, int]:
    p90 = statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]
    return p90, sum(s > p90 for s in samples)


def untraced(runner: BatchRunner, seconds: float) -> tuple[dict, list[str]]:
    first = runner.batch[0][1]
    setup_probe(first)  # warms the file cache and writes bytecode
    runner.reference_pass()
    per_manifest = [[] for _ in runner.batch]
    setup, times, passed = [], [], 0
    start = time.perf_counter()
    k = 0
    while (now := time.perf_counter() - start) < seconds or not times:
        # set-up probes are spread over the window, between runs, so they
        # see the same machine states as the runs
        if len(setup) < SETUP_REPEATS and now >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(setup_probe(first))
            continue
        elapsed, ok = runner.run(k % len(runner.batch))
        per_manifest[k % len(runner.batch)].append(elapsed)
        times.append(elapsed)
        passed += ok
        k += 1
    # Short runs here last one speed state of a shared machine, so their
    # times are bimodal; each manifest's mean spans the whole window, and
    # the median and the batch throughput are taken over those means, which
    # also keeps a partial last pass from skewing the batch's mix of kinds.
    means = [statistics.mean(ts) for ts in per_manifest if ts]
    p90, beyond = _p90_note(times)
    metrics = {
        "run_s.p50": (statistics.median(means), "s"),
        "runs_per_s": (passed / len(times) * len(means) / sum(means), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    n = {"run_s.p50": f"{len(times)} over {len(means)} manifests",
         "runs_per_s": len(times),
         "setup_s": len(setup), "peak_rss_mb": 1}
    lines = [f"  {name:<12} {value:>12.6f} {unit:<4} n={n[name]}"
             for name, (value, unit) in metrics.items()]
    gate = "gating" if beyond >= 10 else "informational"
    lines.insert(1, f"  {'run_s.p90':<12} {p90:>12.6f} s    n={len(times)} "
                    f"({beyond} samples beyond it: {gate})")
    ratio = len(runner.failures) / runner.attempted
    lines.append(f"  {'fail_ratio':<12} {ratio:>12.6f} -    "
                 f"n={runner.attempted} ({len(runner.failures)} failed)")
    return metrics, lines


def traced(runner: BatchRunner, seconds: float) -> tuple[dict, list[str]]:
    runner.reference_pass()
    plain, spans = [], []
    tracer = Tracer()
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        plain += [runner.run(i)[0] for i in range(len(runner.batch))]
        tracer.install()
        try:
            spans += [runner.run(i)[0] for i in range(len(runner.batch))]
        finally:
            tracer.restore()
        passes += 1
    metrics = tracer.metrics(passes)
    p50, p50_plain = statistics.median(spans), statistics.median(plain)
    metrics["trace.run_s.p50"] = (p50, "s")
    metrics["trace.untraced_run_s.p50"] = (p50_plain, "s")
    metrics["trace.overhead"] = (p50 / p50_plain, "ratio")
    lines = [f"  traced passes {passes}; run_s.p50 traced {p50:.6f} s, "
             f"untraced {p50_plain:.6f} s, overhead x{p50 / p50_plain:.3f}"]
    total = sum(spans)
    shares = tracer.layer_self_s()
    for layer, self_s in sorted(shares.items(), key=lambda kv: -kv[1]):
        lines.append(f"  layer {layer:<12} self {self_s / total:7.2%}")
    lines.append(f"  unattributed       self "
                 f"{1 - sum(shares.values()) / total:7.2%}")
    return metrics, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "berkhyb" / "cli.py").is_file():
        print(f"error: no berkhyb sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        batch = generate(args.workload, args.seed, DATA, work / "manifests")
        runner = BatchRunner(batch, work / "out")
        measure = traced if args.trace else untraced
        metrics, lines = measure(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    mode = "traced" if args.trace else "untraced"
    print(f"{args.workload} seed={args.seed} manifests={len(batch)} {mode}")
    for line in lines:
        print(line)
    for name, reason in runner.failures:
        print(f"  FAILED {name}: {reason}")
    correct = not runner.failures
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
