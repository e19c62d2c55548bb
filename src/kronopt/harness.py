"""Experiment driver: runs a configured experiment and persists artifacts.

Artifacts (loss.csv, cost.csv, rank1.csv, model.ckpt, summary.json) are pure
functions of (config, seed): floats are written with shortest round-trip
repr and wall-clock numbers stay out of the files unless timing output is
explicitly requested.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from .config import ConfigError, ExperimentConfig, apply_assignment, config_as_dict
from .costs import COST_CSV_COLUMNS, cost_csv_rows
from .net import save_checkpoint
from .training import RunResult, run_training

SWEEP_AXES = ("inversion_period", "lr", "workers", "d")

PLOT_STUB = """\
#!/usr/bin/env python3
# Plot helper for kronopt artifacts; needs matplotlib.
import csv, sys
import matplotlib.pyplot as plt

path = sys.argv[1] if len(sys.argv) > 1 else "loss.csv"
with open(path) as fh:
    rows = list(csv.DictReader(fh))
plt.plot([int(r["iteration"]) for r in rows], [float(r["loss"]) for r in rows])
plt.xlabel("iteration")
plt.ylabel("loss")
plt.yscale("log")
plt.savefig("loss.png", dpi=120)
print("wrote loss.png")
"""


def _write_csv(path: str, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def run_experiment(
    cfg: ExperimentConfig, out_dir: str, include_wall: bool = False
) -> RunResult:
    """Train per config and write loss/cost/rank1 CSVs, a checkpoint, a
    summary JSON and a plotting stub into ``out_dir``."""
    result = run_training(cfg)  # its config checks fail before out_dir exists
    os.makedirs(out_dir, exist_ok=True)

    _write_csv(
        os.path.join(out_dir, "loss.csv"),
        ("iteration", "loss", "lr"),
        (
            {"iteration": i + 1, "loss": repr(l), "lr": repr(lr)}
            for i, (l, lr) in enumerate(zip(result.losses, result.lrs))
        ),
    )
    _write_csv(
        os.path.join(out_dir, "cost.csv"),
        COST_CSV_COLUMNS,
        cost_csv_rows(result.trace, include_wall=include_wall),
    )
    if result.rank1_records:
        _write_csv(
            os.path.join(out_dir, "rank1.csv"),
            ("iter", "layer", "kind", "rel_error_mean_vec", "rel_error_best_rank1"),
            (
                {
                    "iter": r.iteration,
                    "layer": r.layer,
                    "kind": r.matrix_kind,
                    "rel_error_mean_vec": repr(r.rel_error_mean_vec),
                    "rel_error_best_rank1": repr(r.rel_error_best_rank1),
                }
                for r in result.rank1_records
            ),
        )
    save_checkpoint(result.net, os.path.join(out_dir, "model.ckpt"))
    summary = {
        "config": config_as_dict(cfg),
        "final_loss": result.losses[-1],
        "iterations": cfg.iterations,
        "switch_iteration": result.switch_iteration,
        "comm_elements": result.trace.comm_elements,
        "comm_bytes": result.trace.comm_bytes,
        "sync_events": result.trace.sync_events,
        "memory_elements": result.trace.memory_elements,
        "flops": result.trace.flops,
        "workers_identical": result.workers_identical,
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(os.path.join(out_dir, "plot_stub.py"), "w") as fh:
        fh.write(PLOT_STUB)
    return result


def _sweep_cell(args):
    cfg, out_dir, include_wall = args
    result = run_experiment(cfg, out_dir, include_wall=include_wall)
    return {
        "final_loss": result.losses[-1],
        "mean_step_ms": float(np.mean(result.trace.step_wall_ms)),
        "median_step_ms": float(np.median(result.trace.step_wall_ms)),
        "comm_elements": result.trace.comm_elements,
        "flops_factor_update": result.trace.flops.get("factor_update", 0.0)
        + result.trace.flops.get("inversion", 0.0),
        "flops_precondition": result.trace.flops.get("precondition", 0.0),
    }


def _cell_config(cfg: ExperimentConfig, axis: str, value: str) -> ExperimentConfig:
    """The checked config of one sweep cell: ``cfg`` with ``axis`` set to
    ``value`` as a config key would be."""
    cell = replace(cfg, dataset_params=dict(cfg.dataset_params))
    if axis == "d":
        # every layer and the autoencoder's data take width d
        if cfg.dataset_kind != "random-autoencoder":
            raise ConfigError("sweep axis d needs dataset.kind=random-autoencoder")
        apply_assignment(cell, "net.dims", ",".join([value] * len(cfg.net_dims)))
        apply_assignment(cell, "dataset.dim", value)
    elif axis in SWEEP_AXES:
        apply_assignment(cell, axis, value)
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    return cell.validate()


def sweep(
    cfg: ExperimentConfig,
    axis: str,
    values: list,
    out_dir: str,
    include_wall: bool = False,
) -> list[dict]:
    """Grid over one axis, one run_experiment per cell, shared seed.

    Cells run in parallel processes when KRONOPT_THREADS allows; each cell is
    internally deterministic and owns its subdirectory.  Every cell's config
    is checked before any cell runs or anything is written.
    """
    if not values:
        raise ConfigError(f"sweep over {axis} lists no values")
    cells = [
        (_cell_config(cfg, axis, value), os.path.join(out_dir, f"{axis}_{value}"), include_wall)
        for value in values
    ]
    os.makedirs(out_dir, exist_ok=True)
    max_workers = max(1, int(os.environ.get("KRONOPT_THREADS", "1")))
    if max_workers > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=min(max_workers, len(cells))) as pool:
            stats = list(pool.map(_sweep_cell, cells))
    else:
        stats = [_sweep_cell(c) for c in cells]
    rows = []
    for value, stat in zip(values, stats):
        row = {"axis": axis, "value": value}
        row.update(
            {
                k: (repr(v) if isinstance(v, float) and k != "mean_step_ms" else v)
                for k, v in stat.items()
                if include_wall or not k.endswith("_ms")
            }
        )
        rows.append(row)
    columns = ["axis", "value"] + [k for k in stats[0] if include_wall or not k.endswith("_ms")]
    _write_csv(os.path.join(out_dir, "sweep.csv"), columns, rows)
    return rows
