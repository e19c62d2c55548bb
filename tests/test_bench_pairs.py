"""tools/bench_pairs.py reads kronbench/run.py's printed table and names each tree it runs."""

import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402

# The standard output of one `kronbench/run.py --trace 0` invocation.
CANNED = """\
env {"blas": "scipy-openblas 0.3.31.188.0", "blas_threads": 1, "commit": "unknown", "cpu": "Intel(R) Xeon(R) Processor", "nproc": 2, "numpy": "2.4.6", "python": "3.11.7", "seed": 0}
workload mkor-ae256: 10 passing runs over seeds [0, 1, 2, 3, 4, 5, 6, 7, 8], 12 iterations each
  setup_s                                      0.161753     s  (raw wall clock 0.25083)
  step_ms.p50                                  12.9996      ms  (raw wall clock 21.1073)
  sync_step_ms.p50                             15.1258      ms  (raw wall clock 25.5072)
  samples_per_s                                2389.15      1/s  (raw wall clock 1514.52)
  run_s                                        0.333224     s  (raw wall clock 0.522299)
  time_to_target_s                             0.0274322    s  (raw wall clock 0.0457842)
  iters_to_target                              2            count
  final_loss                                   618.101      1
  peak_rss_mb                                  50.1191      MiB
  times scaled from a reference kernel at 40.27 ms to 25.0 ms
  step_ms.p90 (raw)                            26.98 ms over 120 iterations
  error_rate                                   0 (0 of 10 runs failed)
{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.16175297383652398, "unit": "s"}, "step_ms.p50": {"value": 12.999566068753776, "unit": "ms"}, "sync_step_ms.p50": {"value": 15.12577176686127, "unit": "ms"}, "samples_per_s": {"value": 2389.146881388431, "unit": "1/s"}, "run_s": {"value": 0.33322416994832854, "unit": "s"}, "time_to_target_s": {"value": 0.027432192143553302, "unit": "s"}, "iters_to_target": {"value": 2, "unit": "count"}, "final_loss": {"value": 618.1012418522126, "unit": "1"}, "peak_rss_mb": {"value": 50.119140625, "unit": "MiB"}}}
"""


def test_a_run_keeps_scaled_raw_and_reference_kernel_readings():
    run = bench_pairs.parse_output(CANNED)
    m = run["metrics"]
    assert run["correct"] and run["attempted"] == 10
    assert m["step_ms.p50"] == {"value": 12.999566068753776, "unit": "ms", "raw": 21.1073}
    assert m["samples_per_s"]["raw"] == 1514.52
    assert "raw" not in m["final_loss"] and "raw" not in m["iters_to_target"]
    assert run["reference_ms"] == 40.27
    assert run["env"]["numpy"] == "2.4.6"


def test_a_change_wins_a_pair_in_the_metric_s_own_direction():
    parent = bench_pairs.parse_output(CANNED)
    change = bench_pairs.parse_output(
        CANNED.replace("21.1073", "18.0").replace("1514.52", "1600.0").replace("40.27", "30.0")
    )
    summary = bench_pairs.summarize([parent], [change], {"samples_per_s": "higher"})
    assert summary["step_ms.p50 (raw)"]["change_wins"] == 1
    assert summary["step_ms.p50 (raw)"]["change"]["median"] == 18.0
    assert summary["samples_per_s (raw)"]["change_wins"] == 1
    assert summary["step_ms.p50"]["change_wins"] == 0  # equal scaled values: no win
    assert summary["reference_ms"]["change"]["median"] == 30.0


def _copy_sources(root: Path, dest: Path) -> Path:
    src = root / "src" / "kronopt"
    (dest / "src" / "kronopt").mkdir(parents=True)
    for path in [*src.glob("*.py"), src / "_pinned.c"]:
        shutil.copy(path, dest / "src" / "kronopt" / path.name)
    return dest


def test_a_tree_is_named_by_its_sources_not_its_place(tmp_path):
    root = Path(bench_pairs.__file__).resolve().parent.parent
    one = _copy_sources(root, tmp_path / "one")
    other = _copy_sources(root, tmp_path / "elsewhere" / "other")
    assert bench_pairs.tree_hash(one) == bench_pairs.tree_hash(other) == bench_pairs.tree_hash(root)
    kernel = other / "src" / "kronopt" / "_pinned.c"
    body = bytearray(kernel.read_bytes())
    body[-1] ^= 1
    kernel.write_bytes(bytes(body))
    assert bench_pairs.tree_hash(other) != bench_pairs.tree_hash(one)
