"""Command-line entry point.

Verbs: train, sweep and prune run the configured experiment (--config,
--seed, --set); cost-report prints the analytic cost table and verify-lemmas
checks the method's lemmas, each from its own flags alone.  Every verb
writes its artifacts under --out.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import analysis, costs, linalg
from .config import ConfigError, load_config
from .harness import run_experiment, sweep, write_json
from .linalg import SingularMatrix
from .optim import sm_update_exact
from .prune import prune_and_measure, save_mask
from .training import run_training


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default="out", help="output directory")


def _add_experiment(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--seed", type=int, help="RNG seed (mandatory here or in the config)")
    _add_out(p)
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="overrides",
        help="override any config key",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kronopt")
    sub = parser.add_subparsers(dest="verb", required=True)

    _add_experiment(sub.add_parser("train"))

    p = sub.add_parser("sweep")
    _add_experiment(p)
    p.add_argument("--grid", action="append", required=True, metavar="KEY=V1;V2;...",
                   help="config key values, repeatable: every combination runs as one "
                   "cell; d sets net.dims and dataset.dim together")

    p = sub.add_parser("cost-report")
    _add_out(p)
    p.add_argument("--d", type=int, default=1024)
    p.add_argument("--b", type=int, default=32)

    p = sub.add_parser("prune")
    _add_experiment(p)
    p.add_argument("--layer", type=int, default=0)
    p.add_argument("--k", type=int, default=1, help="units to remove")
    p.add_argument("--tile", help="ROWSxCOLS for block mode, e.g. 2x2")

    p = sub.add_parser("verify-lemmas")
    _add_out(p)
    p.add_argument("--steps", type=int, default=2000, help="chain length for the PD check")
    return parser


def _config(args) -> "ExperimentConfig":
    return load_config(args.config, args.overrides, seed=args.seed)


def _cmd_train(args) -> int:
    cfg = _config(args)
    result = run_experiment(cfg, args.out)
    print(f"final loss {result.losses[-1]:.6g} after {cfg.iterations} iterations")
    print(f"artifacts in {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _config(args)
    for record in sweep(cfg, args.grid, args.out):
        print(f"{record['cell']}: final loss {record['final_loss']:.6g}")
    print(f"artifacts in {args.out}")
    return 0


def _cmd_cost_report(args) -> int:
    if args.d < 1 or args.b < 1:
        raise ConfigError(f"--d and --b must be >= 1, got --d {args.d} --b {args.b}")
    rows = []
    for tag in costs.OPTIMIZERS:
        rep = costs.analytic_cost(tag, args.d, args.b, half_precision=tag in costs.RANK1_OPTIMIZERS)
        rows.append(rep)
        print(
            f"{tag:7s} factor_flops={rep.flops_factor_update:.3g} "
            f"comm_elements={rep.comm_elements:.3g} comm_bytes={rep.comm_bytes:.3g} "
            f"memory_elements={rep.memory_elements:.3g}"
        )
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "analytic_cost.json"), [rep.__dict__ for rep in rows])
    return 0


def _prune_target(args, cfg) -> tuple[int, tuple[int, int] | None]:
    """Check --layer, --tile and --k against the configured network, so that
    a bad value fails before any training; returns (layer, tile)."""
    specs = cfg.layer_specs()
    layer = args.layer
    if not 0 <= layer < len(specs):
        raise ConfigError(f"--layer {layer} out of range 0..{len(specs) - 1}")
    rows, cols = specs[layer].out_dim, specs[layer].in_dim
    tile = None
    if args.tile:
        try:
            tile = tuple(int(v) for v in args.tile.lower().split("x"))
        except ValueError:
            tile = ()
        if len(tile) != 2 or min(tile) < 1:
            raise ConfigError(f"--tile expects ROWSxCOLS of positive sizes, got {args.tile!r}")
        if rows % tile[0] or cols % tile[1]:
            raise ConfigError(
                f"--tile {args.tile} does not divide layer {layer}'s {rows}x{cols} weight"
            )
    units = rows // tile[0] * (cols // tile[1]) if tile else rows * cols
    if not 0 <= args.k <= units:
        raise ConfigError(f"--k {args.k} outside 0..{units}, the prunable units of layer {layer}")
    return layer, tile


def _cmd_prune(args) -> int:
    cfg = _config(args)
    if cfg.optimizer not in costs.RANK1_OPTIMIZERS:
        raise ConfigError("prune reuses the rank-1 optimizer's factors; set optimizer=mkor")
    layer, tile = _prune_target(args, cfg)
    result = run_training(cfg)
    ds = result.dataset
    # score with the factors themselves: re-invert the stored inverses
    left = linalg.direct_inverse(result.states[layer].l_inv)
    right = linalg.direct_inverse(result.states[layer].r_inv)
    mask, true_delta, predicted = prune_and_measure(
        result.net, ds.x, ds.y, cfg.loss, layer, left, right, args.k, tile
    )
    os.makedirs(args.out, exist_ok=True)
    save_mask(mask, os.path.join(args.out, f"layer{layer}.mask"))
    report = {
        "layer": layer,
        "k": args.k,
        "tile": list(tile) if tile else None,
        "pruned": int(np.count_nonzero(~mask.keep)),
        "true_loss_delta": true_delta,
        "predicted_loss_delta": predicted,
    }
    write_json(os.path.join(args.out, "prune_report.json"), report)
    print(json.dumps(report, sort_keys=True))
    return 0


def _cmd_verify_lemmas(args) -> int:
    steps = args.steps
    report: dict = {}
    ok = True
    for d in (4, 16, 64):
        chain = analysis.lemma1_chain(d, steps, seed=d)
        report[f"pd_chain_d{d}"] = chain
        print(f"PD chain d={d}: OK over {steps} steps")
    rng = linalg.make_rng(1)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 33))
        f = analysis.make_spd(rng, d)
        f_inv = linalg.direct_inverse(f)
        v = rng.standard_normal(d)
        gamma = 0.9
        got = sm_update_exact(f_inv, v, gamma)
        want = linalg.direct_inverse(0.9 * f + 0.1 * np.outer(v, v))
        err = float(np.max(np.abs(got - want))) / d
        worst = max(worst, err)
    report["exact_sm_max_err_per_dim"] = worst
    exact_ok = worst < 1e-9
    ok &= exact_ok
    print(f"exact SM vs direct inverse: max err/d = {worst:.3e} ({'OK' if exact_ok else 'FAIL'})")
    report["lemma3"] = analysis.lemma3_check(4, 5, zeta=0.7, trials=100, seed=2)
    print("Kronecker descent check: OK over 100 trials")
    q = analysis.quantization_error_report(16, 0.9, trials=100, seed=3)
    report["quantization"] = q
    q_ok = q["fitted_constant"] <= 16.0
    ok &= q_ok
    print(f"quantization constant C = {q['fitted_constant']:.3g} ({'OK' if q_ok else 'FAIL'})")
    report["sm_discrepancy"] = analysis.sm_discrepancy_report(16, 0.9, steps=200, seed=4)
    print(
        "printed-vs-exact update divergence after 200 steps: "
        f"{report['sm_discrepancy']['final_abs_difference']:.3g} (documented, not asserted)"
    )
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "lemma_report.json"), report, default=float)
    return 0 if ok else 3


_COMMANDS = {
    "train": _cmd_train,
    "sweep": _cmd_sweep,
    "cost-report": _cmd_cost_report,
    "prune": _cmd_prune,
    "verify-lemmas": _cmd_verify_lemmas,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SingularMatrix, AssertionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
