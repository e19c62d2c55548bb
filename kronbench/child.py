"""One kronopt training run in a fresh process, reported as one JSON line.

Usage: python3 child.py '<job as JSON>'

The job names a mode:
  setup   stop when iteration 1 begins and report the set-up time only,
  plain   a whole run; the only patch is a one-shot marker on
          ``kronopt.training.batch_slice`` that restores the original on its
          first call, so every iteration runs unpatched code,
  traced  a whole run inside tracing.Tracer.
Every mode ends by timing a fixed reference kernel (``ref_ms``), which tells
how fast this CPU runs at the moment.
Exit codes follow the kronopt CLI: 2 for a config error, 3 for a numerical
failure.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ARTIFACTS = ("loss.csv", "summary.json", "model.ckpt")


class SetupDone(Exception):
    """Raised by the setup probe when iteration 1 begins."""


def mark_first_iteration(training, on_first) -> None:
    """Call ``on_first(time)`` when iteration 1 fetches its first batch."""
    original = training.batch_slice

    def first_call(*args, **kwargs):
        training.batch_slice = original
        on_first(time.perf_counter())
        return original(*args, **kwargs)

    training.batch_slice = first_call


def reference_ms(repeats: int = 3) -> float:
    """Median of ``repeats`` (odd) timings of a fixed pinned-order matrix
    product at n=128 and n=256.

    It has the loop shape of the program's dense kernels but is the
    benchmark's own code, so a change to kronopt cannot move it; on a shared
    machine it moves with the speed the CPU currently delivers.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    mats = [rng.standard_normal((n, n)) for n in (128, 256)]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for a in mats:
            out = np.zeros_like(a)
            tmp = np.empty_like(a)
            for j in range(a.shape[0]):
                np.multiply(a[:, j : j + 1], a[j : j + 1, :], out=tmp)
                np.add(out, tmp, out=out)
        times.append(time.perf_counter() - start)
    return sorted(times)[repeats // 2] * 1e3


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_job(job: dict) -> dict:
    """Run one job in this process; ``job["spawned_at"]`` is the
    ``time.perf_counter()`` reading (CLOCK_MONOTONIC, shared by all
    processes on Linux) taken just before this process was started."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from kronopt import harness, training
    from kronopt.config import load_config

    if not os.path.abspath(harness.__file__).startswith(SRC + os.sep):
        raise ImportError(f"kronopt imported from {harness.__file__}, not {SRC}")
    cfg = load_config(None, job["overrides"], seed=job["seed"])
    mode = job["mode"]
    out_dir = job["out_dir"]
    first_iteration = []

    if mode == "setup":
        def stop(now):
            first_iteration.append(now)
            raise SetupDone

        mark_first_iteration(training, stop)
        try:
            harness.run_experiment(cfg, out_dir)
        except SetupDone:
            return {"setup_s": first_iteration[0] - job["spawned_at"], "ref_ms": reference_ms()}
        raise RuntimeError("the run ended without starting an iteration")

    if mode == "traced":
        import tracing

        with tracing.Tracer() as tracer:
            result = harness.run_experiment(cfg, out_dir)
        first_iteration.append(tracer.spans["data.batch_slice"].first_start)
    else:
        mark_first_iteration(training, first_iteration.append)
        result = harness.run_experiment(cfg, out_dir)
    done = time.perf_counter()

    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    report = {
        "setup_s": first_iteration[0] - job["spawned_at"],
        "run_s": done - job["spawned_at"],
        "step_ms": list(result.trace.step_wall_ms),
        "losses": list(result.losses),
        "workers_identical": summary["workers_identical"],
        "sha256": {name: _sha256(os.path.join(out_dir, name)) for name in ARTIFACTS},
        # ru_maxrss is in KiB on Linux
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if mode == "traced":
        train_s = sum(result.trace.step_wall_ms) / 1e3
        layers = len(cfg.layer_specs())
        report["layers"] = {
            **tracer.metrics(cfg.iterations, layers, train_s),
            **tracing.counter_metrics(out_dir),
        }
    report["ref_ms"] = reference_ms()
    return report


def main(argv: list[str]) -> int:
    job = json.loads(argv[0])
    sys.path.insert(0, SRC)
    from kronopt.config import ConfigError
    from kronopt.linalg import SingularMatrix

    try:
        report = run_job(job)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SingularMatrix, AssertionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
