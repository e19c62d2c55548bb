"""Experiment driver: runs a configured experiment and persists artifacts.

Artifacts (loss.csv, cost.csv, rank1.csv, model.ckpt, summary.json, and a
sweep's sweep.json) are pure functions of (config, seed): floats are written
with shortest round-trip repr and no wall-clock number enters any file.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
from dataclasses import asdict, replace

from .config import ConfigError, ExperimentConfig, apply_assignment
from .costs import cost_csv_rows
from .net import save_checkpoint
from .training import RunResult, build_dataset, run_training


def _write_csv(path: str, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_json(path: str, obj, default=None) -> None:
    """Write one JSON artifact: sorted keys, indent 2, a trailing newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, default=default)
        fh.write("\n")


def summary(cfg: ExperimentConfig, result: RunResult) -> dict:
    """The summary.json object of one run."""
    return {
        "config": asdict(cfg),
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
    write_json(os.path.join(out_dir, "summary.json"), summary(cfg, result))
    return result


def _grid_axes(grid: list[str]) -> dict[str, list[str]]:
    """Grid items ``KEY=V1;V2;...`` as key -> values, in the items' order."""
    axes = {}
    for item in grid:
        key, eq, raw = item.partition("=")
        key, values = key.strip(), [v.strip() for v in raw.split(";") if v.strip()]
        if not eq:
            raise ConfigError(f"grid item {item!r} is not KEY=V1;V2;...")
        if key in axes:
            raise ConfigError(f"grid key {key} is given twice")
        if not values:
            raise ConfigError(f"grid key {key} lists no values")
        if len(set(values)) < len(values):
            raise ConfigError(f"grid key {key} lists a value twice")
        if any("/" in v for v in values):
            raise ConfigError(f"grid key {key}: a value names a directory, so it holds no '/'")
        axes[key] = values
    if "d" in axes and axes.keys() & {"net.dims", "dataset.dim"}:
        raise ConfigError("grid key d sets net.dims and dataset.dim; give neither beside it")
    return axes


def _cell_config(cfg: ExperimentConfig, point: dict[str, str]) -> ExperimentConfig:
    """The checked config of one sweep cell, whose data must fit it: ``cfg``
    with each grid key set, and last ``d``, every layer's and the data's width."""
    cell = replace(cfg, dataset_params=dict(cfg.dataset_params))
    for key, value in point.items():
        if key != "d":
            apply_assignment(cell, key, value)
    if "d" in point:
        if cell.dataset_kind != "random-autoencoder":
            raise ConfigError("grid key d needs dataset.kind=random-autoencoder")
        apply_assignment(cell, "net.dims", ",".join([point["d"]] * len(cell.net_dims)))
        apply_assignment(cell, "dataset.dim", point["d"])
    build_dataset(cell.validate())
    return cell


def sweep(cfg: ExperimentConfig, grid: list[str], out_dir: str) -> list[dict]:
    """Run the product of the grid items ``KEY=V1;V2;...`` in their order, one
    run_experiment per cell into subdirectory ``KEY_VALUE+KEY_VALUE...``, and
    list each cell's summary.json object plus "cell" (its subdirectory) and
    "grid" (key -> value as given) in sweep.json.  Every check runs before
    any cell runs or anything is written."""
    axes = _grid_axes(grid)
    points = [dict(zip(axes, values)) for values in itertools.product(*axes.values())]
    cells = [_cell_config(cfg, point) for point in points]
    records = []
    for point, cell in zip(points, cells):
        name = "+".join(f"{key}_{value}" for key, value in point.items())
        result = run_experiment(cell, os.path.join(out_dir, name))
        records.append({**summary(cell, result), "cell": name, "grid": point})
    write_json(os.path.join(out_dir, "sweep.json"), records)
    return records
