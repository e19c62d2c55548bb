"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest kronbench
"""

from __future__ import annotations

import importlib
import json
import re
import sys
from pathlib import Path

import pytest

import child
import run
import tracing
import workloads
from workloads import Workload

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

SMOKE = Workload(
    name="smoke",
    why="tiny config for the tests",
    optimizer="mkor",
    d=8,
    workers=2,
    inversion_period=2,
    target_loss=1e9,
    iterations=4,
)


def _table(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_metric_tables_match_benchmark_json():
    assert _table("end_to_end") == run.END_TO_END
    assert _table("per_layer") == tracing.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]


def test_benchmark_json_grammar():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert {m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]} <= {"lower", "higher"}


def _job(tmp_path, mode: str) -> dict:
    return {
        "mode": mode,
        "seed": 7,
        "overrides": SMOKE.overrides(),
        "out_dir": str(tmp_path / mode),
        "spawned_at": 0.0,
    }


def _targets() -> dict:
    if child.SRC not in sys.path:
        sys.path.insert(0, child.SRC)
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _ in tracing.TARGETS
    }


def test_untraced_run_leaves_kronopt_unpatched(tmp_path):
    originals = _targets()
    forward_code = originals[("kronopt.training", "forward")].__code__
    checks = []

    def on_call(frame, event, arg):
        if event == "call" and frame.f_code is forward_code:
            checks.append(all(
                getattr(importlib.import_module(module), attr) is fn
                for (module, attr), fn in originals.items()
            ))

    sys.setprofile(on_call)
    try:
        report = child.run_job(_job(tmp_path, "plain"))
    finally:
        sys.setprofile(None)
    assert checks == [True] * (SMOKE.iterations * SMOKE.workers)
    assert len(report["step_ms"]) == SMOKE.iterations


def test_traced_run_restores_names_and_writes_same_bytes(tmp_path):
    originals = _targets()
    plain = child.run_job(_job(tmp_path, "plain"))
    traced = child.run_job(_job(tmp_path, "traced"))
    assert _targets() == originals
    assert traced["sha256"] == plain["sha256"]
    assert traced["losses"] == plain["losses"]
    assert set(traced["layers"]) | {"trace.overhead_pct"} == set(tracing.PER_LAYER)
    # 2 workers each precondition all 3 layers: half the calls are replicas
    assert traced["layers"]["optim.replica_useful_ratio"] == 0.5
    assert traced["layers"]["linalg.direct_inverse.calls_per_iter"] == 0.0


@pytest.mark.parametrize("trace, table", [(0, run.END_TO_END), (1, tracing.PER_LAYER)])
def test_smoke_command(monkeypatch, capsys, trace, table):
    monkeypatch.setattr(run, "WORKLOADS", {"smoke": SMOKE})
    argv = ["--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == table


def test_bad_artifacts_fail_the_check(monkeypatch, capsys):
    """A run whose artifacts differ from an earlier run of its seed fails."""
    real_child = run.Bench.child
    calls = []

    def flaky_child(self, mode, seed):
        report = real_child(self, mode, seed)
        if mode == "plain":
            calls.append(seed)
            if calls.count(seed) == 2:
                report["sha256"]["model.ckpt"] = "0" * 64
        return report

    monkeypatch.setattr(run, "WORKLOADS", {"smoke": SMOKE})
    monkeypatch.setattr(run.Bench, "child", flaky_child)
    argv = ["--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_times_scale_with_the_reference_kernel(tmp_path):
    bench = run.Bench(SMOKE, seed=0, seconds=1, tmp=str(tmp_path))
    bench.runs = [{
        "seed": 0, "setup_s": 0.4, "run_s": 2.0, "step_ms": [10.0, 20.0, 30.0, 40.0],
        "losses": [2.0, 1.5, 1.2, 1.0], "peak_rss_mib": 50.0,
        # the CPU ran at half the reference speed
        "ref_ms": 2 * run.REF_MS,
    }]
    raw = bench.end_to_end([], scaled=False)
    scaled = bench.end_to_end([], scaled=True)
    assert raw["step_ms.p50"] == 25.0 and scaled["step_ms.p50"] == 12.5
    assert raw["sync_step_ms.p50"] == 30.0 and scaled["sync_step_ms.p50"] == 15.0
    assert scaled["samples_per_s"] == 2 * raw["samples_per_s"]
    assert scaled["setup_s"] == 0.2 and scaled["run_s"] == 1.0
    assert scaled["final_loss"] == raw["final_loss"] == 1.0
    assert scaled["iters_to_target"] == raw["iters_to_target"] == 1
