#!/usr/bin/env python3
"""kronopt benchmark: run one workload, check its outputs, print its metrics.

Usage, from the repository root:

    python3 kronbench/run.py --workload mkor-ae256 --seed 0 --seconds 30 --trace 0

Every training run is a fresh process (child.py) that calls
``kronopt.harness.run_experiment`` on sources under ``src/``, with one BLAS
thread.  ``--trace 0`` prints the end-to-end metrics of untraced runs, with
times scaled to a reference speed (REF_MS); ``--trace 1`` prints the
per-layer metrics of traced runs (tracing.py), each paired with an untraced
run of the same seed.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.  The command exits 1 when any run fails
an output check, 2 when it cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import PER_LAYER
from workloads import BATCH, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
RUNS_DIR = ROOT / ".kronbench"

# Distinct seeds per benchmark run: the loss metrics are averaged over them,
# because their seed-to-seed spread (data scale, batch noise) is about 15%.
# An odd count keeps the median of iters_to_target a whole iteration.
SUBSEEDS = 9
SETUP_PROBES = 4
BLAS_THREADS = 1
# The machine is shared and its speed drifts by 10-30% over minutes, for
# every process alike.  Each run therefore times a fixed reference kernel
# (child.reference_ms) and its times are scaled to the speed at which that
# kernel takes REF_MS, about its time on an idle core of the 2-vCPU Xeon the
# baseline was measured on.  The raw wall-clock values are printed too.
REF_MS = 25.0
HARD_LIMIT_S = 170.0  # the command must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "step_ms.p50": "ms",
    "sync_step_ms.p50": "ms",
    "samples_per_s": "1/s",
    "run_s": "s",
    "time_to_target_s": "s",
    "iters_to_target": "count",
    "final_loss": "1",
    "peak_rss_mb": "MiB",
}


class ChildFailed(Exception):
    pass


def speed(report: dict) -> float:
    """Factor that scales a run's times to the reference speed."""
    return REF_MS / report["ref_ms"]


def scaled_step_p50(runs: list[dict]) -> float:
    return statistics.median(ms * speed(r) for r in runs for ms in r["step_ms"])


def iters_to_target(losses: list[float], target: float) -> int | None:
    """1-based iteration at which the loss first reaches the target."""
    return next((i + 1 for i, loss in enumerate(losses) if loss <= target), None)


class Bench:
    """The runs of one benchmark invocation and their output checks."""

    def __init__(self, workload: Workload, seed: int, seconds: int, tmp: str):
        self.workload = workload
        self.seeds = [seed * SUBSEEDS + i for i in range(SUBSEEDS)]
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.tmp = tmp
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.runs: list[dict] = []  # reports of training runs that passed
        self.attempted = 0
        self.failed = 0
        self.first_hashes: dict[int, dict] = {}
        self.longest_run_s = 0.0

    def child(self, mode: str, seed: int) -> dict:
        out_dir = tempfile.mkdtemp(dir=self.tmp)
        job = {
            "mode": mode,
            "seed": seed,
            "overrides": self.workload.overrides(),
            "out_dir": out_dir,
        }
        timeout = HARD_LIMIT_S - (time.perf_counter() - self.start)
        job["spawned_at"] = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), json.dumps(job)],
                env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode} run of seed {seed} timed out") from exc
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise ChildFailed(
                f"{mode} run of seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            )
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def train(self, mode: str, seed: int) -> None:
        """One training run; it joins self.runs if it passes its checks."""
        self.attempted += 1
        began = time.perf_counter()
        try:
            report = self.child(mode, seed)
            problem = self.check(report, seed)
        except ChildFailed as exc:
            problem = str(exc)
        self.longest_run_s = max(self.longest_run_s, time.perf_counter() - began)
        if problem is not None:
            self.failed += 1
            print(f"FAILED: {problem}", file=sys.stderr)
            return
        report["seed"] = seed
        report["mode"] = mode
        self.runs.append(report)

    def check(self, report: dict, seed: int) -> str | None:
        losses = report["losses"]
        if not all(math.isfinite(loss) for loss in losses):
            return f"seed {seed}: non-finite loss"
        if not report["workers_identical"]:
            return f"seed {seed}: summary.json reports workers_identical false"
        if iters_to_target(losses, self.workload.target_loss) is None:
            return f"seed {seed}: loss never reached {self.workload.target_loss}"
        # artifacts are a pure function of (config, seed), traced or not
        first = self.first_hashes.setdefault(seed, report["sha256"])
        if report["sha256"] != first:
            return f"seed {seed}: artifacts differ from an earlier run of the same seed"
        return None

    def time_left_for(self, runs: int) -> bool:
        return time.perf_counter() + runs * self.longest_run_s <= self.deadline

    def untraced(self) -> tuple[dict[str, float], dict[str, float]]:
        """End-to-end metrics scaled to the reference speed, and raw."""
        seed0 = self.seeds[0]
        self.child("setup", seed0)  # warm-up: bytecode and file caches
        probes = [self.child("setup", seed0) for _ in range(SETUP_PROBES)]
        # the repeat of the first seed checks that its artifacts are reproduced
        for seed in self.seeds + [seed0]:
            self.train("plain", seed)
        repeat = 1
        while self.time_left_for(1):
            self.train("plain", self.seeds[repeat % SUBSEEDS])
            repeat += 1
        if not self.runs:
            return {}, {}
        return self.end_to_end(probes, scaled=True), self.end_to_end(probes, scaled=False)

    def end_to_end(self, probes: list[dict], scaled: bool) -> dict[str, float]:
        w = self.workload
        runs = self.runs
        factor = speed if scaled else (lambda r: 1.0)
        # the earliest passing run of each seed
        first_of_seed = list({r["seed"]: r for r in reversed(runs)}.values())
        sync_steps = [
            ms * factor(r) for r in runs for t, ms in enumerate(r["step_ms"], start=1)
            if t % w.inversion_period == 0
        ]
        samples = w.workers * BATCH * w.iterations

        def to_target(r):
            k = iters_to_target(r["losses"], w.target_loss)
            return sum(r["step_ms"][:k]) / 1e3 * factor(r)

        return {
            "setup_s": statistics.median(r["setup_s"] * factor(r) for r in probes + runs),
            "step_ms.p50": statistics.median(
                ms * factor(r) for r in runs for ms in r["step_ms"]
            ),
            "sync_step_ms.p50": statistics.median(sync_steps),
            "samples_per_s": statistics.median(
                samples / (sum(r["step_ms"]) / 1e3 * factor(r)) for r in runs
            ),
            "run_s": statistics.median(r["run_s"] * factor(r) for r in runs),
            "time_to_target_s": statistics.median(to_target(r) for r in runs),
            "iters_to_target": statistics.median(
                iters_to_target(r["losses"], w.target_loss) for r in first_of_seed
            ),
            "final_loss": statistics.fmean(r["losses"][-1] for r in first_of_seed),
            "peak_rss_mb": statistics.median(r["peak_rss_mib"] for r in runs),
        }

    def traced(self) -> dict[str, float]:
        pair = 0
        while pair == 0 or self.time_left_for(2):
            seed = self.seeds[pair % SUBSEEDS]
            # alternate which side goes first, so neither always runs warmer
            modes = ("plain", "traced") if pair % 2 == 0 else ("traced", "plain")
            for mode in modes:
                self.train(mode, seed)
            pair += 1
        traced = [r for r in self.runs if r["mode"] == "traced"]
        plain = [r for r in self.runs if r["mode"] == "plain"]
        if not traced or not plain:
            return {}
        metrics = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        # both sides scaled to the reference speed, as in the untraced metrics
        metrics["trace.overhead_pct"] = 100.0 * (
            scaled_step_p50(traced) / scaled_step_p50(plain) - 1.0
        )
        return metrics


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the repository at ROOT, read from .git; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
        "seed": seed,
    }


def print_table(bench: Bench, metrics: dict, units: dict, raw: dict | None) -> None:
    w = bench.workload
    seeds = sorted({r["seed"] for r in bench.runs})
    print(f"workload {w.name}: {len(bench.runs)} passing runs over seeds {seeds}, "
          f"{w.iterations} iterations each")
    for name, unit in units.items():
        if name in metrics:
            line = f"  {name:44s} {metrics[name]:<12.6g} {unit}"
            if raw and raw[name] != metrics[name]:
                line += f"  (raw wall clock {raw[name]:.6g})"
            print(line)
    if bench.runs:
        ref = statistics.median(r["ref_ms"] for r in bench.runs)
        print(f"  times scaled from a reference kernel at {ref:.4g} ms to {REF_MS} ms")
    if raw:
        steps = sorted(ms for r in bench.runs for ms in r["step_ms"])
        p90 = statistics.quantiles(steps, n=10)[-1]
        print(f"  {'step_ms.p90 (raw)':44s} {p90:.6g} ms over {len(steps)} iterations")
    rate = bench.failed / bench.attempted if bench.attempted else 0.0
    print(f"  {'error_rate':44s} {rate:.6g} ({bench.failed} of {bench.attempted} runs failed)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "kronopt" / "__init__.py").is_file():
        print(f"no kronopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    RUNS_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS_DIR) as tmp:
        bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, tmp)
        units = PER_LAYER if args.trace else END_TO_END
        try:
            if args.trace:
                metrics, raw = bench.traced(), None
            else:
                metrics, raw = bench.untraced()
        except ChildFailed as exc:
            print(f"FAILED: {exc}", file=sys.stderr)
            return 1
    print_table(bench, metrics, units, raw)
    correct = bench.failed == 0 and bool(metrics)
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
