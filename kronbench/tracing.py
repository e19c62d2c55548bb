"""Outside-in tracing of one kronopt run.

The traced run wraps the public functions of each layer under the names their
callers look up (``kronopt.training.forward``, ``kronopt.optim.precondition``
and so on), so nothing in the package changes.  Each wrapper keeps a span in
memory: calls, inclusive time, and the time of the spans nested directly
inside it, which gives self time.  The wrappers call no kronopt function, so
the flop counters, and with them every artifact, are the same as untraced.
"""

from __future__ import annotations

import csv
import importlib
import json
import os
import time
from dataclasses import dataclass

import numpy as np

# (module the caller looks the name up in, attribute, span name)
TARGETS = (
    ("kronopt.harness", "run_experiment", "harness.run_experiment"),
    ("kronopt.harness", "run_training", "training.run_training"),
    ("kronopt.training", "batch_slice", "data.batch_slice"),
    ("kronopt.training", "forward", "net.forward"),
    ("kronopt.training", "backward", "net.backward"),
    ("kronopt.training", "mkor_step", "optim.mkor_step"),
    ("kronopt.training", "kfac_accumulate", "optim.kfac_accumulate"),
    ("kronopt.training", "kfac_invert", "optim.kfac_invert"),
    ("kronopt.training", "precondition", "optim.precondition"),
    ("kronopt.optim", "precondition", "optim.precondition"),
    ("kronopt.optim", "sm_update", "optim.sm_update"),
    ("kronopt.optim", "stabilize", "optim.stabilize"),
    ("kronopt.optim", "matmul", "linalg.matmul"),
    ("kronopt.linalg", "matmul", "linalg.matmul"),
    ("kronopt.linalg", "direct_inverse", "linalg.direct_inverse"),
)

# Functions that some workloads never call report their time as a share of
# the training time ("%"), so that no time metric reads a constant zero.
PER_LAYER = {
    "net.forward.ms_per_iter": "ms",
    "net.backward.ms_per_iter": "ms",
    "linalg.matmul.calls_per_iter": "count",
    "linalg.matmul.ms_per_iter": "ms",
    "linalg.matmul.gflop_per_s": "GFLOP/s",
    "linalg.direct_inverse.calls_per_iter": "count",
    "linalg.direct_inverse.pct_of_step": "%",
    "optim.precondition.calls_per_iter": "count",
    "optim.precondition.ms_per_iter": "ms",
    "optim.replica_useful_ratio": "ratio",
    "optim.sm_update.calls_per_iter": "count",
    "optim.sm_update.pct_of_step": "%",
    "optim.stabilize.fire_ratio": "ratio",
    "optim.factor_inv_norm_max": "1",
    "optim.kfac_accumulate.pct_of_step": "%",
    "optim.kfac_invert.pct_of_step": "%",
    "optim.mkor_step.self_pct_of_step": "%",
    "training.run_training.self_ms_per_iter": "ms",
    "data.batch_slice.ms_per_iter": "ms",
    "harness.run_experiment.self_s": "s",
    "trace.overhead_pct": "%",
    "counters.flops.forward_backward_per_iter": "flop",
    "counters.flops.factor_update_per_iter": "flop",
    "counters.flops.inversion_per_iter": "flop",
    "counters.flops.precondition_per_iter": "flop",
    "counters.flops.weight_update_per_iter": "flop",
    "comm.bytes_per_iter": "bytes",
    "costs.factor_update.measured_over_analytic": "ratio",
    "costs.precondition.measured_over_analytic": "ratio",
}

COUNTED_PHASES = ("forward_backward", "factor_update", "inversion", "precondition", "weight_update")


def _inf_norm(m) -> float:
    # numpy directly: kronopt.linalg.inf_norm would bump the flop counters
    return float(np.max(np.sum(np.abs(m), axis=1)))


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    nested_s: float = 0.0  # spans directly inside, plus the tracer's own work
    first_start: float | None = None

    @property
    def self_s(self) -> float:
        return self.total_s - self.nested_s


class Tracer:
    """Context manager that wraps every name in TARGETS and restores it."""

    def __init__(self):
        self.spans = {span: Span() for _, _, span in TARGETS}
        self.matmul_flops = 0.0
        self.factor_inv_norm_max = 0.0
        self.stabilize_fired = 0
        self._stack: list[float] = []
        self._saved: list[tuple] = []
        self._after = {
            "linalg.matmul": self._after_matmul,
            "optim.sm_update": self._after_sm_update,
            "optim.stabilize": self._after_stabilize,
            "optim.kfac_invert": self._after_kfac_invert,
        }

    def __enter__(self) -> "Tracer":
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, self.spans[span], self._after.get(span)))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, span: Span, after):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.total_s += clock() - start
                span.nested_s += stack.pop()
                span.calls += 1
                if span.first_start is None:
                    span.first_start = start
            if after is not None:
                after(args, out)
            if stack:
                # the caller's self time excludes this call and its bookkeeping
                stack[-1] += clock() - start
            return out

        return traced

    def _after_matmul(self, args, out) -> None:
        m, k = np.shape(args[0])
        self.matmul_flops += 2.0 * m * k * np.shape(args[1])[1]

    def _after_sm_update(self, args, out) -> None:
        self.factor_inv_norm_max = max(self.factor_inv_norm_max, _inf_norm(out))

    def _after_stabilize(self, args, out) -> None:
        self.stabilize_fired += out is not args[0]

    def _after_kfac_invert(self, args, out) -> None:
        state = args[0]
        self.factor_inv_norm_max = max(
            self.factor_inv_norm_max, _inf_norm(state.l_inv), _inf_norm(state.r_inv)
        )

    def metrics(self, iterations: int, layers: int, train_s: float) -> dict[str, float]:
        """Per-layer metrics of the finished run; "per iter" is the run's
        total over its iterations, shares are of the summed step times."""
        s = self.spans

        def per_iter_ms(span: str) -> float:
            return s[span].total_s * 1e3 / iterations

        def calls_per_iter(span: str) -> float:
            return s[span].calls / iterations

        def pct(seconds: float) -> float:
            return 100.0 * seconds / train_s

        run_training = s["training.run_training"]
        # run_training's set-up (dataset, init) ends where iteration 1 begins
        setup_s = s["data.batch_slice"].first_start - run_training.first_start
        matmul = s["linalg.matmul"]
        stabilize_calls = s["optim.stabilize"].calls
        return {
            "net.forward.ms_per_iter": per_iter_ms("net.forward"),
            "net.backward.ms_per_iter": per_iter_ms("net.backward"),
            "linalg.matmul.calls_per_iter": calls_per_iter("linalg.matmul"),
            "linalg.matmul.ms_per_iter": per_iter_ms("linalg.matmul"),
            "linalg.matmul.gflop_per_s": self.matmul_flops / matmul.total_s / 1e9,
            "linalg.direct_inverse.calls_per_iter": calls_per_iter("linalg.direct_inverse"),
            "linalg.direct_inverse.pct_of_step": pct(s["linalg.direct_inverse"].total_s),
            "optim.precondition.calls_per_iter": calls_per_iter("optim.precondition"),
            "optim.precondition.ms_per_iter": per_iter_ms("optim.precondition"),
            "optim.replica_useful_ratio": layers / calls_per_iter("optim.precondition"),
            "optim.sm_update.calls_per_iter": calls_per_iter("optim.sm_update"),
            "optim.sm_update.pct_of_step": pct(s["optim.sm_update"].total_s),
            "optim.stabilize.fire_ratio": (
                self.stabilize_fired / stabilize_calls if stabilize_calls else 0.0
            ),
            "optim.factor_inv_norm_max": self.factor_inv_norm_max,
            "optim.kfac_accumulate.pct_of_step": pct(s["optim.kfac_accumulate"].total_s),
            "optim.kfac_invert.pct_of_step": pct(s["optim.kfac_invert"].total_s),
            "optim.mkor_step.self_pct_of_step": pct(s["optim.mkor_step"].self_s),
            "training.run_training.self_ms_per_iter": (
                (run_training.self_s - setup_s) * 1e3 / iterations
            ),
            "data.batch_slice.ms_per_iter": per_iter_ms("data.batch_slice"),
            "harness.run_experiment.self_s": s["harness.run_experiment"].self_s,
        }


def counter_metrics(out_dir: str) -> dict[str, float]:
    """Exact counts from the run's own cost.csv and summary.json, and their
    ratio to ``costs.analytic_cost`` per layer (per sync for the factor
    update, per iteration for preconditioning).  Replicas are not divided out."""
    from kronopt.costs import analytic_cost

    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    with open(os.path.join(out_dir, "cost.csv"), newline="") as fh:
        flops = {row["phase"]: float(row["flops"]) for row in csv.DictReader(fh)}
    cfg = summary["config"]
    iterations = summary["iterations"]
    dims = cfg["net_dims"]
    layers = len(dims) - 1
    analytic = analytic_cost(cfg["optimizer"], max(dims), cfg["batch"])
    out = {
        f"counters.flops.{phase}_per_iter": flops[phase] / iterations
        for phase in COUNTED_PHASES
    }
    out["comm.bytes_per_iter"] = summary["comm_bytes"] / iterations
    factor_per_sync = (flops["factor_update"] + flops["inversion"]) / (
        summary["sync_events"] * layers
    )
    out["costs.factor_update.measured_over_analytic"] = (
        factor_per_sync / analytic.flops_factor_update
    )
    out["costs.precondition.measured_over_analytic"] = (
        flops["precondition"] / (iterations * layers) / analytic.flops_precondition
    )
    return out
