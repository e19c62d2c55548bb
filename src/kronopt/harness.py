"""Experiment driver: runs a configured experiment and persists artifacts.

Artifacts (loss.csv, cost.csv, rank1.csv, model.ckpt, summary.json, and a
sweep's sweep.csv) are pure functions of (config, seed): floats are written
with shortest round-trip repr and no wall-clock number enters any file.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import replace

from .config import ConfigError, ExperimentConfig, apply_assignment, config_as_dict
from .costs import cost_csv_rows
from .net import save_checkpoint
from .training import RunResult, run_training

SWEEP_AXES = ("inversion_period", "lr", "workers", "d")


def _write_csv(path: str, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def run_experiment(cfg: ExperimentConfig, out_dir: str) -> RunResult:
    """Train per config and write loss/cost/rank1 CSVs, a checkpoint and a
    summary JSON into ``out_dir``."""
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
    cost_rows = cost_csv_rows(result.trace, cfg)
    _write_csv(os.path.join(out_dir, "cost.csv"), cost_rows[0], cost_rows)
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
    return result


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


def sweep(cfg: ExperimentConfig, axis: str, values: list, out_dir: str) -> list[dict]:
    """Grid over one axis, one run_experiment per cell in order, shared seed.

    Each cell owns its subdirectory.  Every cell's config is checked before
    any cell runs or anything is written.
    """
    if not values:
        raise ConfigError(f"sweep over {axis} lists no values")
    cells = [_cell_config(cfg, axis, value) for value in values]
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for value, cell in zip(values, cells):
        result = run_experiment(cell, os.path.join(out_dir, f"{axis}_{value}"))
        flops = result.trace.flops
        rows.append(
            {
                "axis": axis,
                "value": value,
                "final_loss": repr(result.losses[-1]),
                "comm_elements": repr(result.trace.comm_elements),
                "flops_factor_update": repr(flops["factor_update"] + flops["inversion"]),
                "flops_precondition": repr(flops["precondition"]),
            }
        )
    _write_csv(os.path.join(out_dir, "sweep.csv"), rows[0], rows)
    return rows
