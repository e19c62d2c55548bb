import csv
import importlib.util
import json
import math
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kronopt
from kronopt import cli, config, costs, counters, harness, linalg, optim, training
from kronopt.config import ExperimentConfig, load_config
from kronopt.net import backward, forward
from kronopt.optim import FactorState
from kronopt.prune import greedy_prune, prune_and_measure, taylor_predicted_loss
from kronopt.training import build_dataset, run_training
from oracles import dense_kron_quadratic, random_spd, stabilize_chain


def _expected_prune_report(cfg, layer: int, k: int) -> dict:
    """The prune report worked out by hand from what run_training returns."""
    result = run_training(cfg)
    net, states = result.net, result.states
    ds = build_dataset(cfg)
    _, trace = forward(net, ds.x)
    _, caps = backward(net, trace, ds.y, cfg.loss)
    left = linalg.direct_inverse(states[layer].l_inv)
    right = linalg.direct_inverse(states[layer].r_inv)
    mask = greedy_prune(net.weights[layer], caps[layer].w_grad, left, right, k)
    measured_mask, true_delta, predicted = prune_and_measure(
        net, ds.x, ds.y, cfg.loss, layer, left, right, k
    )
    assert np.array_equal(measured_mask.keep, mask.keep)
    return {
        "layer": layer,
        "k": k,
        "tile": None,
        "pruned": int(np.count_nonzero(~mask.keep)),
        "true_loss_delta": true_delta,
        "predicted_loss_delta": predicted,
    }


# Each of these settings changes the trained weights, so the network that prune
# scores must come from run_training itself.
@pytest.mark.parametrize(
    "overrides",
    [
        ["scheduler=knee"],
        ["optimizer=mkor-h", "window=5"],
        ["workers=2"],
    ],
    ids=["knee", "mkor-h", "workers2"],
)
def test_prune_scores_the_trained_network(tmp_path, overrides):
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert cli.main(["prune", "--seed", "0", "--k", "3", "--out", str(tmp_path), *sets]) == 0
    got = json.loads((tmp_path / "prune_report.json").read_text())
    want = _expected_prune_report(load_config(None, overrides, seed=0), layer=0, k=3)
    assert got == want


# prune scores the network on the data it trained on, not on a second read
def test_prune_builds_its_dataset_once(tmp_path, monkeypatch):
    calls = []
    synth = training.synth_dataset

    def counted(*args, **kwargs):
        calls.append(args)
        return synth(*args, **kwargs)

    monkeypatch.setattr(training, "synth_dataset", counted)
    assert cli.main(["prune", "--seed", "0", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    rows=st.integers(1, 4), cols=st.integers(1, 4),
    loss0=st.floats(-10.0, 10.0), seed=st.integers(0, 2**32 - 1),
)
def test_pruning_surrogate_matches_the_dense_quadratic(rows, cols, loss0, seed):
    rng = np.random.default_rng(seed)
    delta_w, grad = rng.standard_normal((2, rows, cols))
    left, right = random_spd(rng, rows), random_spd(rng, cols)
    got = taylor_predicted_loss(loss0, delta_w, grad, left, right)
    want = loss0 + dense_kron_quadratic(delta_w, grad, left, right)
    # relative to the sizes of the three terms, which may cancel in the sum
    quad = dense_kron_quadratic(delta_w, np.zeros_like(grad), left, right)
    assert abs(got - want) <= 1e-12 * (abs(loss0) + np.sum(np.abs(delta_w * grad)) + quad)


@pytest.mark.parametrize(
    "optimizer, state_type",
    [("mkor", FactorState), ("mkor-h", FactorState), ("kfac", FactorState), ("sgd", None), ("sngd", None)],
)
def test_run_result_carries_worker0_states(optimizer, state_type):
    """The run's one list of layer factors, which every worker reads."""
    cfg = load_config(None, [f"optimizer={optimizer}", "iterations=3"], seed=0)
    states = run_training(cfg).states
    if state_type is None:
        assert states == []
    else:
        assert len(states) == len(cfg.layer_specs())
        assert all(isinstance(st, state_type) for st in states)


class _TrainingReached(Exception):
    pass


def _no_training(cfg, *args, **kwargs):
    raise _TrainingReached


@pytest.fixture
def no_training(monkeypatch):
    """Make any training attempt raise, so a check shown to exit 2 ran first."""
    monkeypatch.setattr(cli, "run_training", _no_training)
    monkeypatch.setattr(harness, "run_training", _no_training)


BAD_CONFIG_ARGS = {
    "epsilon_norm=0": ["--set", "epsilon_norm=0"],
    "epsilon_norm<0": ["--set", "epsilon_norm=-1"],
    "damping=0": ["--set", "damping=0"],
    "damping<0": ["--set", "damping=-1e-3"],
    "beta=0": ["--set", "beta=0"],
    "beta=1": ["--set", "beta=1"],
    "decay_factor=0": ["--set", "decay_factor=0"],
    "decay_factor=1.5": ["--set", "decay_factor=1.5"],
    "window=0": ["--set", "window=0"],
    "seed<0": ["--seed", "-1"],
    "optimizer=adam": ["--set", "optimizer=adam"],
    "scheduler=cosine": ["--set", "scheduler=cosine"],
    "gamma=0": ["--set", "gamma=0"],
    "gamma=1": ["--set", "gamma=1"],
    "zeta=0": ["--set", "zeta=0"],
    "zeta=1.5": ["--set", "zeta=1.5"],
    "lr=0": ["--set", "lr=0"],
    "inversion_period<0": ["--set", "inversion_period=-1"],
    "iterations=0": ["--set", "iterations=0"],
    "batch=0": ["--set", "batch=0"],
    "workers=0": ["--set", "workers=0"],
    "net.dims-one-entry": ["--set", "net.dims=2"],
    "net.dims-zero-entry": ["--set", "net.dims=2,0,1"],
    "net.activation=gelu": ["--set", "net.activation=gelu"],
    "loss=hinge": ["--set", "loss=hinge"],
    "dataset.kind=spiral": ["--set", "dataset.kind=spiral"],
    "sngd-workers=2": ["--set", "optimizer=sngd", "--set", "workers=2"],
    "sngd-batch=65": ["--set", "optimizer=sngd", "--set", "batch=65"],
    "idx-without-paths": ["--set", "dataset.kind=idx"],
    "idx-missing-path": [
        "--set", "dataset.kind=idx", "--set", "dataset.images=no-such-images.idx",
        "--set", "dataset.labels=no-such-labels.idx",
    ],
    "set-without-equals": ["--set", "lr"],
    "blobs-classes=0": ["--set", "dataset.kind=gaussian-blobs", "--set", "dataset.classes=0"],
    "blobs-classes<0": ["--set", "dataset.kind=gaussian-blobs", "--set", "dataset.classes=-1"],
    "blobs-dim<0": ["--set", "dataset.kind=gaussian-blobs", "--set", "dataset.dim=-1"],
    "blobs-n<0": ["--set", "dataset.kind=gaussian-blobs", "--set", "dataset.n=-1"],
    "autoencoder-dim<0": ["--set", "dataset.kind=random-autoencoder", "--set", "dataset.dim=-1"],
    "autoencoder-rank<0": ["--set", "dataset.kind=random-autoencoder", "--set", "dataset.rank=-1"],
    "autoencoder-n<0": ["--set", "dataset.kind=random-autoencoder", "--set", "dataset.n=-1"],
    "dataset.n=0": ["--set", "dataset.n=0"],
    "lr=nan": ["--set", "lr=nan"],
    "lr=inf": ["--set", "lr=inf"],
    "kfac-damping=nan": ["--set", "optimizer=kfac", "--set", "damping=nan"],
    "damping=inf": ["--set", "damping=inf"],
    "sgd-momentum=nan": ["--set", "optimizer=sgd", "--set", "momentum=nan"],
    "momentum=-inf": ["--set", "momentum=-inf"],
    "dataset.noise=nan": ["--set", "dataset.kind=random-autoencoder", "--set", "dataset.noise=nan"],
    "epsilon_norm=nan": ["--set", "epsilon_norm=nan"],
    "mkor-h-switch_ratio=nan": ["--set", "optimizer=mkor-h", "--set", "switch_ratio=nan"],
    "gamma=nan": ["--set", "gamma=nan"],
    "dataset.sigma=nan": ["--set", "dataset.sigma=nan"],
    "dataset.noise=inf": ["--set", "dataset.kind=random-autoencoder", "--set", "dataset.noise=inf"],
    "dataset.offset=-inf": [
        "--set", "dataset.kind=random-autoencoder", "--set", "dataset.offset=-inf",
    ],
    "blobs-scale=inf": ["--set", "dataset.kind=gaussian-blobs", "--set", "dataset.scale=inf"],
    "epoch_iters<0": ["--set", "scheduler=step", "--set", "epoch_iters=-1"],
    "rank1_every<0": ["--set", "rank1_every=-1"],
}


@pytest.mark.parametrize("verb", ["train", "prune"])
@pytest.mark.parametrize("bad", list(BAD_CONFIG_ARGS.values()), ids=list(BAD_CONFIG_ARGS))
def test_bad_config_value_exits_2(tmp_path, no_training, capsys, verb, bad):
    args = [verb, "--out", str(tmp_path)] + (["--seed", "0"] if "--seed" not in bad else []) + bad
    assert cli.main(args) == 2
    assert "config error" in capsys.readouterr().err


# The loader's own errors where a case brings its own seed or config file;
# "{cfg}" names a file in the test's directory, written only when text is given.
BAD_CONFIG_SOURCES = {
    "no-seed": (None, [], "seed is mandatory (set `seed = ...` or pass --seed)"),
    "missing-file": (None, ["--seed", "0", "--config", "{cfg}"], "config file not found: {cfg}"),
    "line-without-equals": (
        "lr 0.1\n", ["--seed", "0", "--config", "{cfg}"],
        "line 1: expected `key = value`, got 'lr 0.1'",
    ),
}


@pytest.mark.parametrize(
    "text, args, message", list(BAD_CONFIG_SOURCES.values()), ids=list(BAD_CONFIG_SOURCES)
)
def test_bad_config_source_exits_2_with_its_message(
    tmp_path, no_training, capsys, text, args, message
):
    cfg = tmp_path / "experiment.cfg"
    if text is not None:
        cfg.write_text(text)
    args = [arg.format(cfg=cfg) for arg in args]
    assert cli.main(["train", "--out", str(tmp_path / "run"), *args]) == 2
    assert capsys.readouterr().err == f"config error: {message.format(cfg=cfg)}\n"


def _set_args(assignments) -> list[str]:
    return [arg for item in assignments for arg in ("--set", item)]


def _documented_keys() -> set[str]:
    """The keys listed under "Documented keys" in the config module docstring."""
    listing = config.__doc__.split("Documented keys", 1)[1].splitlines()[2:]
    return {
        item.split()[0]
        for line in listing
        if line.strip() and not line.rstrip().endswith(":")
        for item in line.split(",")
        if item.strip()
    }


# key -> (raw value, field it lands in, parsed value); a generator parameter
# lands in dataset_params under the name after "dataset."
KEY_VALUES = {
    "optimizer": ("kfac", "optimizer", "kfac"),
    "gamma": ("0.5", "gamma", 0.5),
    "zeta": ("0.75", "zeta", 0.75),
    "epsilon_norm": ("50", "epsilon_norm", 50.0),
    "inversion_period": ("3", "inversion_period", 3),
    "lr": ("0.25", "lr", 0.25),
    "momentum": ("0.5", "momentum", 0.5),
    "damping": ("0.01", "damping", 0.01),
    "switch_ratio": ("0.25", "switch_ratio", 0.25),
    "window": ("7", "window", 7),
    "half_precision_comm": ("yes", "half_precision_comm", True),
    "workers": ("2", "workers", 2),
    "seed": ("5", "seed", 5),
    "loss": ("softmax_cross_entropy", "loss", "softmax_cross_entropy"),
    "batch": ("16", "batch", 16),
    "iterations": ("7", "iterations", 7),
    "rank1_every": ("3", "rank1_every", 3),
    "scheduler": ("step", "scheduler", "step"),
    "beta": ("0.3", "beta", 0.3),
    "decay_factor": ("0.25", "decay_factor", 0.25),
    "milestones": ("3, 9", "milestones", (3, 9)),
    "epoch_iters": ("4", "epoch_iters", 4),
    "net.dims": ("2,5,1", "net_dims", (2, 5, 1)),
    "net.activation": ("relu", "net_activation", "relu"),
    "net.bias": ("off", "net_bias", False),
    "dataset.kind": ("gaussian-blobs", "dataset_kind", "gaussian-blobs"),
    "dataset.n": ("64", "dataset_n", 64),
    "dataset.dim": ("6", "dataset_params", 6),
    "dataset.classes": ("4", "dataset_params", 4),
    "dataset.scale": ("2.5", "dataset_params", 2.5),
    "dataset.sigma": ("1", "dataset_params", 1.0),
    "dataset.rank": ("3", "dataset_params", 3),
    "dataset.offset": ("-1.5", "dataset_params", -1.5),
    "dataset.noise": ("0.1", "dataset_params", 0.1),
    "dataset.images": ("train-images.idx", "dataset_images", "train-images.idx"),
    "dataset.labels": ("train-labels.idx", "dataset_labels", "train-labels.idx"),
}


def test_every_documented_key_has_a_value_below():
    assert _documented_keys() == set(KEY_VALUES)


@pytest.mark.parametrize("source", ["set", "file"])
@pytest.mark.parametrize("key", list(KEY_VALUES))
def test_each_key_lands_in_its_field_with_its_type(tmp_path, key, source):
    raw, attr, value = KEY_VALUES[key]
    if source == "set":
        cfg = load_config(None, ["seed=0", f"{key}={raw}"])
    else:
        path = tmp_path / "experiment.cfg"
        path.write_text(f"seed = 0  # mandatory\n{key} = {raw}\n")
        cfg = load_config(str(path))
    want = ExperimentConfig(seed=0)
    if attr == "dataset_params":
        want.dataset_params[key.removeprefix("dataset.")] = value
        got = cfg.dataset_params[key.removeprefix("dataset.")]
    else:
        setattr(want, attr, value)
        got = getattr(cfg, attr)
    assert cfg == want
    assert (type(got), repr(got)) == (type(value), repr(value))


BAD_KEYS_AND_VALUES = {
    "field-name": ("net_dims=2,8,1", "unknown config key 'net_dims'"),
    "params-field": ("dataset_params=1", "unknown config key 'dataset_params'"),
    "params-key": ("dataset.params=1", "unknown config key 'dataset.params'"),
    "bogus": ("bogus=1", "unknown config key 'bogus'"),
    "bool": ("net.bias=maybe", "net.bias: expected a boolean, got 'maybe'"),
    "float": ("lr=fast", "lr: could not convert string to float: 'fast'"),
    "int": ("batch= big ", "batch: invalid literal for int() with base 10: 'big'"),
    "int-list": ("net.dims=2,x,1", "net.dims: invalid literal for int() with base 10: 'x'"),
}


@pytest.mark.parametrize(
    "assignment, message", list(BAD_KEYS_AND_VALUES.values()), ids=list(BAD_KEYS_AND_VALUES)
)
def test_bad_key_or_value_exits_2_with_its_message(
    tmp_path, no_training, capsys, assignment, message
):
    assert cli.main(["train", "--seed", "0", "--out", str(tmp_path), "--set", assignment]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_optimizer_is_set_as_a_key_not_a_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--seed", "0", "--optimizer", "sgd"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --optimizer" in capsys.readouterr().err


# Only mkor and mkor-h ship rank-1 vectors, the payload fp16 comm narrows.
@pytest.mark.parametrize("optimizer", ["kfac", "sgd", "sngd"])
def test_half_precision_comm_without_rank1_vectors_exits_2(
    tmp_path, no_training, capsys, optimizer
):
    args = ["train", "--seed", "0", "--out", str(tmp_path / "run"),
            "--set", f"optimizer={optimizer}", "--set", "half_precision_comm=true"]
    assert cli.main(args) == 2
    assert "half_precision_comm needs a rank-1 optimizer" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("optimizer", ["mkor", "mkor-h"])
def test_half_precision_comm_trains_rank1_optimizers(tmp_path, optimizer):
    sets = TINY_XOR + [f"optimizer={optimizer}", "workers=2", "half_precision_comm=true"]
    assert cli.main(["train", "--seed", "0", "--out", str(tmp_path), *_set_args(sets)]) == 0
    assert json.loads((tmp_path / "summary.json").read_text())["comm_bytes"] > 0


# Nothing ships on one worker, so fp16 comm has nothing to round there.
@pytest.mark.parametrize(
    "sets", [["optimizer=mkor"], ["optimizer=mkor-h", "window=10"]], ids=["mkor", "mkor-h"]
)
def test_half_precision_comm_on_one_worker_trains_as_full_width(sets):
    losses = [
        run_training(load_config(
            None, ["iterations=60", "inversion_period=5", *sets, f"half_precision_comm={half}"],
            seed=0,
        )).losses
        for half in ("false", "true")
    ]
    assert losses[1] == losses[0]


def _idx_images(n: int, rows: int, cols: int, pixels: bytes, magic: int = 0x803) -> bytes:
    return struct.pack(">IIII", magic, n, rows, cols) + pixels


# Each malformed file once ended in a ValueError traceback (exit 1).
BAD_IDX_IMAGES = {
    "truncated": (_idx_images(5, 2, 2, bytes(3)), "expected 20 pixels, got 3"),
    "bad-magic": (_idx_images(5, 2, 2, bytes(20), magic=0x999), "bad IDX magic 0x00000999"),
    "short-header": (struct.pack(">I", 0x803), "truncated IDX header"),
    "no-dims": (struct.pack(">II", 0x803, 5), "truncated IDX image dims"),
}


@pytest.mark.parametrize("images, message", list(BAD_IDX_IMAGES.values()), ids=list(BAD_IDX_IMAGES))
def test_malformed_idx_file_exits_2_before_iteration_1(
    tmp_path, monkeypatch, capsys, images, message
):
    monkeypatch.setattr(training, "batch_slice", _no_training)
    (tmp_path / "bad.idx").write_bytes(images)
    (tmp_path / "labels.idx").write_bytes(struct.pack(">II", 0x801, 5) + bytes(5))
    out = tmp_path / "run"
    args = ["train", "--seed", "0", "--out", str(out), "--set", "dataset.kind=idx",
            "--set", f"dataset.images={tmp_path / 'bad.idx'}",
            "--set", f"dataset.labels={tmp_path / 'labels.idx'}", "--set", "net.dims=4,8,1"]
    assert cli.main(args) == 2
    assert capsys.readouterr().err == f"config error: {tmp_path / 'bad.idx'}: {message}\n"
    assert not out.exists()


def _idx_labels(labels: bytes) -> bytes:
    return struct.pack(">II", 0x801, len(labels)) + labels


def _idx_train_args(out, images, labels) -> list[str]:
    return ["train", "--seed", "0", "--out", str(out), "--set", "dataset.kind=idx",
            "--set", f"dataset.images={images}", "--set", f"dataset.labels={labels}",
            "--set", "net.dims=1,4,2"]


def test_idx_images_of_one_pixel_train(tmp_path):
    # a 1x1 image has the shape of a labels row; the magic tells them apart
    (tmp_path / "one.idx").write_bytes(_idx_images(4, 1, 1, bytes([0, 80, 160, 240])))
    (tmp_path / "lab4.idx").write_bytes(_idx_labels(bytes([0, 1, 0, 1])))
    out = tmp_path / "run"
    assert cli.main(_idx_train_args(out, tmp_path / "one.idx", tmp_path / "lab4.idx")) == 0
    assert (out / "model.ckpt").exists()


def test_swapped_idx_files_exit_2_naming_the_file_of_the_wrong_kind(tmp_path, capsys):
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    images.write_bytes(_idx_images(4, 2, 2, bytes(16)))
    labels.write_bytes(_idx_labels(bytes([0, 1, 0, 1])))
    out = tmp_path / "run"
    assert cli.main(_idx_train_args(out, labels, images)) == 2
    assert capsys.readouterr().err == f"config error: {labels}: holds IDX labels, expected images\n"
    assert not out.exists()


# (images file, labels file, message naming {images} or {labels})
BAD_IDX_LABELS = {
    "truncated": (
        _idx_images(5, 1, 1, bytes(5)), struct.pack(">II", 0x801, 5) + bytes(3),
        "{labels}: expected 5 labels, got 3",
    ),
    "count-mismatch": (
        _idx_images(4, 1, 1, bytes(4)), _idx_labels(bytes(3)),
        "{images} holds 4 images but {labels} 3 labels",
    ),
    "empty": (_idx_images(0, 1, 1, b""), _idx_labels(b""), "{labels} holds no labels"),
}


@pytest.mark.parametrize(
    "images, labels, message", list(BAD_IDX_LABELS.values()), ids=list(BAD_IDX_LABELS)
)
def test_malformed_idx_labels_exit_2_naming_the_file(
    tmp_path, monkeypatch, capsys, images, labels, message
):
    monkeypatch.setattr(training, "batch_slice", _no_training)
    paths = {"images": tmp_path / "images.idx", "labels": tmp_path / "labels.idx"}
    paths["images"].write_bytes(images)
    paths["labels"].write_bytes(labels)
    out = tmp_path / "run"
    assert cli.main(_idx_train_args(out, paths["images"], paths["labels"])) == 2
    assert capsys.readouterr().err == f"config error: {message.format(**paths)}\n"
    assert not out.exists()


# The damped covariance reaches entries near 4.6e16 and a smallest eigenvalue
# of -6.7 here; the Cholesky factor meets a negative pivot at column 18.
def test_kfac_positive_definite_failure_names_iteration_layer_and_phase(tmp_path, capsys):
    out = tmp_path / "run"
    sets = [
        "optimizer=kfac", "damping=1e-4", "dataset.kind=random-autoencoder", "dataset.dim=32",
        "net.dims=32,32", "net.activation=identity", "dataset.n=64", "iterations=200",
        "inversion_period=1", "lr=3",
    ]
    assert cli.main(["train", "--seed", "0", "--out", str(out), *_set_args(sets)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: iteration 26, layer 0, phase inversion: "
        "not positive-definite: pivot -1.531e+00 at column 18\n"
    )
    assert not out.exists()


# Long-horizon regression tests on the printed update (ROADMAP item 1): the
# rank-1 refresh drives an inverse factor to overflow, and the run must stop at
# that sync, naming it, rather than one iteration later at a NaN loss.
@pytest.mark.parametrize(
    "sets, where",
    [
        ([], "iteration 4770, layer 1"),
        (
            ["dataset.kind=gaussian-blobs", "net.dims=8,16,3", "loss=softmax_cross_entropy",
             "dataset.n=128", "batch=16"],
            "iteration 4620, layer 0",
        ),
    ],
    ids=["xor", "blobs"],
)
def test_long_run_stops_at_its_first_non_finite_inverse(tmp_path, capsys, sets, where):
    out = tmp_path / "run"
    argv = ["train", "--seed", "0", "--out", str(out), *_set_args(["iterations=6000", *sets])]
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(argv) == 3
    assert capsys.readouterr().err == (
        f"numerical failure: {where}, phase factor_update: inverse factor is not finite\n"
    )
    assert not out.exists()


def test_rank1_refresh_failure_names_iteration_layer_and_phase(monkeypatch):
    monkeypatch.setattr(optim, "stabilize", lambda f_inv, epsilon_norm, zeta: -np.eye(len(f_inv)))
    with pytest.raises(linalg.NumericalError) as exc:
        run_training(load_config(None, [], seed=0))
    assert str(exc.value) == (
        "iteration 10, layer 0, phase factor_update: rank-1 update denominator lost positivity"
    )


def test_diverged_run_exits_3_at_its_first_non_finite_loss(tmp_path, capsys):
    out = tmp_path / "run"
    sets = [
        "optimizer=sgd", "lr=100", "dataset.kind=random-autoencoder", "dataset.dim=32",
        "net.dims=32,32", "net.activation=identity", "dataset.n=64", "iterations=60",
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["train", "--seed", "0", "--out", str(out), *_set_args(sets)])
    assert code == 3
    assert capsys.readouterr().err == "numerical failure: loss is inf at iteration 38\n"
    assert not out.exists()


DIVERGED_SGD = [
    "optimizer=sgd", "lr=100", "dataset.kind=random-autoencoder", "dataset.dim=32",
    "net.dims=32,32", "net.activation=identity", "dataset.n=64", "iterations=60",
]

# ROADMAP item 6's printed period-1 row: from layer-step 472 on, the
# preconditioned update's norm overflows, and rescaling by ||G||/inf would
# apply an all-zero update.
ZERO_STEP_MKOR = [
    "dataset.kind=random-autoencoder", "dataset.dim=32", "net.dims=32,16,32", "dataset.n=512",
    "lr=0.03", "inversion_period=1", "iterations=400",
]


# A guarded failure reaches the user as its named error alone: the overflow
# behind it raises no numpy warning first.
@pytest.mark.parametrize(
    "sets, message",
    [
        (DIVERGED_SGD, "loss is inf at iteration 38"),
        (["iterations=6000"],
         "iteration 4770, layer 1, phase factor_update: inverse factor is not finite"),
        (ZERO_STEP_MKOR,
         "iteration 236, layer 1, phase precondition: preconditioned update norm is not finite"),
    ],
    ids=["diverged-sgd", "xor-6000", "mkor-zero-step"],
)
def test_guarded_failures_raise_no_numpy_warning(sets, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(linalg.NumericalError) as exc:
            run_training(load_config(None, sets, seed=0))
    assert str(exc.value) == message


# The printed update's PD chain breaks at step 66 of d=4 (ROADMAP item 6), so
# verify-lemmas fails at its own default of 2000 steps.  A bounded update is
# what should flip this test; do not weaken it.
def test_verify_lemmas_at_its_default_steps_loses_pd_at_step_66(tmp_path, capsys):
    assert cli.main(["verify-lemmas", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "numerical failure: PD lost at step 66 (d=4)\n"
    assert not (tmp_path / "lemma_report.json").exists()


# The default network is 2 -> 8 -> 1, so layer 0 has an 8x2 weight (16 units).
BAD_PRUNE_ARGS = {
    "tile-not-a-size": ["--tile", "abc"],
    "tile-zero": ["--tile", "0x1"],
    "tile-negative": ["--tile=-2x1"],
    "tile-three-parts": ["--tile", "2x1x1"],
    "tile-not-dividing": ["--tile", "3x1"],
    "k-above-units": ["--k", "17"],
    "k-above-tiles": ["--tile", "2x2", "--k", "5"],
    "k-negative": ["--k", "-1"],
    "layer-too-high": ["--layer", "2"],
    "layer-negative": ["--layer", "-1"],
    "not-rank1": ["--set", "optimizer=kfac"],
}


@pytest.mark.parametrize("bad", list(BAD_PRUNE_ARGS.values()), ids=list(BAD_PRUNE_ARGS))
def test_bad_prune_argument_exits_2_before_training(tmp_path, no_training, capsys, bad):
    assert cli.main(["prune", "--seed", "0", "--out", str(tmp_path), *bad]) == 2
    assert "config error" in capsys.readouterr().err


def test_good_prune_arguments_reach_training(tmp_path, no_training):
    with pytest.raises(_TrainingReached):
        cli.main(["prune", "--seed", "0", "--out", str(tmp_path), "--tile", "4x2", "--k", "2"])


ARTIFACTS = ("loss.csv", "summary.json", "model.ckpt")
TINY_XOR = ["iterations=20", "inversion_period=5", "window=5"]


@pytest.mark.parametrize(
    "optimizer, workers",
    [(opt, w) for opt in ("mkor", "mkor-h", "kfac", "sgd") for w in (1, 4)] + [("sngd", 1)],
)
def test_artifacts_are_a_function_of_config_and_seed(tmp_path, optimizer, workers):
    overrides = TINY_XOR + [f"optimizer={optimizer}", f"workers={workers}"]
    outputs = []
    for run in ("a", "b"):
        result = harness.run_experiment(load_config(None, overrides, seed=3), str(tmp_path / run))
        assert result.workers_identical
        outputs.append({name: (tmp_path / run / name).read_bytes() for name in ARTIFACTS})
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0]["summary.json"])["workers_identical"] is True


# Each of these once ran cells, left a cell's directory behind or ended in a
# traceback; the sweep must refuse before any cell runs and leave no output.
BAD_SWEEP_ARGS = {
    "value-not-a-number": (["--grid", "lr=0.1;abc"], "lr: could not convert"),
    "no-values": (["--grid", "lr=;"], "lists no values"),
    "d-without-autoencoder": (["--grid", "d=4;8"], "dataset.kind=random-autoencoder"),
    # the default XOR dataset has 4 samples and 2 input rows
    "second-cell-workers": (["--grid", "workers=1;5"], "workers=5 exceeds the dataset's 4 samples"),
    "second-cell-net-dims": (["--grid", "net.dims=2,8,1;3,8,1"], "net.dims 3,8,1 do not fit"),
    "repeated-key": (["--grid", "lr=0.1", "--grid", "lr=0.2"], "grid key lr is given twice"),
    "d-with-net-dims": (
        ["--set", "dataset.kind=random-autoencoder", "--grid", "d=4", "--grid", "net.dims=4,4"],
        "give neither beside it",
    ),
    "value-with-slash": (["--grid", "lr=0.1;a/b"], "holds no '/'"),
    "item-without-equals": (["--grid", "lr"], "grid item 'lr' is not KEY=V1;V2;..."),
    "repeated-value": (["--grid", "lr=0.1;0.1"], "grid key lr lists a value twice"),
}


@pytest.mark.parametrize("bad, message", list(BAD_SWEEP_ARGS.values()), ids=list(BAD_SWEEP_ARGS))
def test_bad_sweep_exits_2_and_writes_nothing(tmp_path, no_training, capsys, bad, message):
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--seed", "0", "--out", str(out), *bad]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_net_dims_that_do_not_fit_the_dataset_exit_2_before_iteration_1(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(training, "batch_slice", _no_training)
    out = tmp_path / "run"
    args = ["train", "--seed", "0", "--out", str(out), "--set", "net.dims=3,8,1"]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert "net.dims 3,8,1" in err
    assert "2 input rows and 1 target rows" in err
    assert not out.exists()


def test_more_workers_than_samples_exit_2_before_iteration_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(training, "batch_slice", _no_training)
    out = tmp_path / "run"
    # the default XOR dataset has 4 samples
    assert cli.main(["train", "--seed", "0", "--out", str(out), "--set", "workers=5"]) == 2
    assert "workers=5 exceeds the dataset's 4 samples" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["cost-report", "--d", "0"], ["cost-report", "--b", "0"],
     ["verify-lemmas", "--steps", "0"], ["verify-lemmas", "--steps", "-3"]],
    ids=["d=0", "b=0", "steps=0", "steps<0"],
)
def test_bad_cost_report_size_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


# cost-report and verify-lemmas take no experiment config; rank1-profile,
# --timing and --measured are gone.
@pytest.mark.parametrize(
    "argv",
    [["cost-report", "--seed", "0"], ["verify-lemmas", "--seed", "0"],
     ["cost-report", "--set", "lr=1"], ["verify-lemmas", "--config", "x.cfg"],
     ["rank1-profile", "--seed", "0"], ["train", "--seed", "0", "--timing"],
     ["cost-report", "--measured"], ["sweep", "--seed", "0", "--axis", "lr", "--values", "0.1"]],
    ids=["cost-report-seed", "verify-lemmas-seed", "cost-report-set", "verify-lemmas-config",
         "rank1-profile", "train-timing", "cost-report-measured", "sweep-axis-values"],
)
def test_parser_rejects_removed_verbs_and_flags(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "usage: kronopt" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_lemmas_writes_its_report(tmp_path):
    assert cli.main(["verify-lemmas", "--steps", "50", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "lemma_report.json").read_text())
    assert set(report) == {
        "pd_chain_d4", "pd_chain_d16", "pd_chain_d64", "exact_sm_max_err_per_dim",
        "lemma3", "quantization", "sm_discrepancy",
    }
    for d in (4, 16, 64):
        assert report[f"pd_chain_d{d}"]["steps"] == 50
        assert report[f"pd_chain_d{d}"]["min_cholesky_diag"] > 0.0
    assert report["exact_sm_max_err_per_dim"] < 1e-9
    assert report["quantization"]["fitted_constant"] <= 16.0


SQUARE_AE = [
    "dataset.kind=random-autoencoder", "dataset.dim=8", "net.dims=8,8,8",
    "dataset.n=32", "batch=8", "lr=0.01", "iterations=12", "inversion_period=3",
]


# Each sync ships one analytic row per layer on more than one worker, and
# nothing on one worker; only mkor's vectors go half width under fp16 comm.
@pytest.mark.parametrize(
    "optimizer, workers, half",
    [("sngd", 1, False), ("mkor", 1, False), ("kfac", 1, False),
     ("mkor", 2, False), ("mkor", 2, True), ("kfac", 2, False)],
    ids=["sngd-w1", "mkor-w1", "kfac-w1", "mkor-w2", "mkor-fp16-w2", "kfac-w2"],
)
def test_traffic_is_counted_where_it_ships(optimizer, workers, half):
    overrides = SQUARE_AE + [
        f"optimizer={optimizer}", f"workers={workers}", f"half_precision_comm={str(half).lower()}"
    ]
    cfg = load_config(None, overrides, seed=0)
    trace = run_training(cfg).trace
    layers = len(cfg.layer_specs())
    assert trace.sync_events == (12 if optimizer == "sngd" else 4)
    per_sync = costs.analytic_cost(optimizer, 8, cfg.batch).comm_elements if workers > 1 else 0.0
    assert trace.comm_elements == trace.sync_events * layers * per_sync
    assert trace.comm_bytes == trace.comm_elements * (2 if half else 4)


# One worker's gradient is its own mean: no zeros, no add, no division.  On
# more workers the mean is summed from +0.0 in worker order, then divided by
# W, so the bits are those of that loop (signed zeros included).
def test_mean_over_one_worker_is_that_workers_array():
    grad = np.array([[1.5, -0.0], [0.0, -2.25]])
    assert training._mean_over_workers([grad]) is grad


# One worker reduces nothing: its payload comes back as itself, unrounded
# (3e5 lies beyond fp16's range), with no adds counted and nothing shipped.
@pytest.mark.parametrize("half", [False, True], ids=["full", "fp16"])
def test_allreduce_over_one_worker_returns_its_array_and_counts_nothing(half):
    payload = np.array([1.5, -0.0, 3.0e5])
    trace = costs.RunTrace(memory_elements=0.0)
    with counters.recording(trace.flops), counters.phase("factor_update"):
        got = training._allreduce([payload], trace, half)
    assert got is payload
    assert trace.flops == dict.fromkeys(counters.PHASES, 0.0)
    assert trace.comm_elements == trace.comm_bytes == 0.0


# A one-worker rank-1 sync counts only the factor refresh: the same total as
# a run whose reduction is replaced by handing back worker 0's vectors.
@pytest.mark.parametrize("optimizer", ["mkor", "mkor-h"])
def test_one_worker_sync_counts_no_reduction(monkeypatch, optimizer):
    cfg = load_config(None, SQUARE_AE + [f"optimizer={optimizer}"], seed=0)
    counted = run_training(cfg).trace.flops["factor_update"]
    monkeypatch.setattr(training, "_allreduce", lambda arrays, *_: arrays[0])
    bare = run_training(cfg).trace
    assert bare.sync_events == 4
    assert counted == bare.flops["factor_update"] > 0.0


# The traced benchmark wraps optim.sm_update and optim.stabilize by name: it
# counts the refresh's calls, takes the factor norm from sm_update's results
# and counts a stabilize whose result is not its input as a firing.
def test_refresh_factors_reaches_its_traced_functions_by_attribute(monkeypatch):
    cfg = load_config(None, SQUARE_AE + ["inversion_period=1", "epsilon_norm=3"], seed=0)
    calls = {"sm_update": 0, "fired": 0, "kept": 0}
    real_sm_update, real_stabilize = optim.sm_update, optim.stabilize

    def sm_update(f_inv, v, gamma):
        before = f_inv.tobytes()
        out = real_sm_update(f_inv, v, gamma)
        assert out is not f_inv and f_inv.tobytes() == before
        calls["sm_update"] += 1
        return out

    def stabilize(f_inv, epsilon_norm, zeta):
        fires = stabilize_chain(f_inv, epsilon_norm, zeta) is not f_inv
        out = real_stabilize(f_inv, epsilon_norm, zeta)
        assert (out is f_inv) == (not fires)
        calls["fired" if fires else "kept"] += 1
        return out

    monkeypatch.setattr(optim, "sm_update", sm_update)
    monkeypatch.setattr(optim, "stabilize", stabilize)
    run_training(cfg)
    refreshes = cfg.iterations * 2 * len(cfg.layer_specs())
    assert calls["sm_update"] == calls["fired"] + calls["kept"] == refreshes
    assert calls["fired"] > 0 and calls["kept"] > 0


@pytest.mark.parametrize("workers", [2, 4])
def test_mean_over_workers_is_the_zero_started_sum_over_w(workers):
    rng = np.random.default_rng(workers)
    arrays = [rng.standard_normal((5, 3)) for _ in range(workers)]
    arrays[0][0, 0] = arrays[-1][0, 0] = -0.0
    total = np.zeros((5, 3))
    for a in arrays:
        total = total + a
    got = training._mean_over_workers(arrays)
    assert got.tobytes() == (total / workers).tobytes()
    assert not any(got is a for a in arrays)


@pytest.mark.parametrize("optimizer", ["mkor", "mkor-h", "kfac", "sngd", "sgd"])
def test_run_memory_is_the_analytic_row_per_layer(optimizer):
    cfg = load_config(None, SQUARE_AE + [f"optimizer={optimizer}"], seed=0)
    layers = len(cfg.layer_specs())
    memory = run_training(cfg).trace.memory_elements
    assert memory == layers * costs.analytic_cost(optimizer, 8, cfg.batch).memory_elements


# Momentum's velocity updates, weights and biases, count as weight_update; no
# flop falls outside the five phases cost.csv lists.
@pytest.mark.parametrize(
    "sets, switch_iteration, weight_update",
    [(["optimizer=sgd"], None, 7920.0), (["optimizer=mkor-h", "window=10"], 41, 5280.0)],
    ids=["sgd", "mkor-h"],
)
def test_momentum_flops_land_in_weight_update(sets, switch_iteration, weight_update):
    result = run_training(load_config(None, ["iterations=60", "inversion_period=5", *sets], seed=0))
    assert result.switch_iteration == switch_iteration
    assert result.trace.flops["other"] == 0.0
    assert result.trace.flops["weight_update"] == weight_update


def test_cost_csv_lists_each_counted_phase_once_with_its_summary_flops(tmp_path):
    cfg = load_config(None, TINY_XOR + ["optimizer=kfac", "workers=2"], seed=0)
    harness.run_experiment(cfg, str(tmp_path))
    flops = json.loads((tmp_path / "summary.json").read_text())["flops"]
    with open(tmp_path / "cost.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["optimizer", "phase", "d", "b", "workers", "flops"]
    assert [row[1] for row in rows] == [p for p in counters.PHASES if p != "other"]
    assert [float(row[5]) for row in rows] == [flops[row[1]] for row in rows]


# Factors are equal on every worker, so each layer's are written once per
# sync whatever the worker count.
@pytest.mark.parametrize(
    "optimizer, write", [("kfac", "kfac_invert"), ("mkor", "refresh_factors")], ids=["kfac", "mkor"]
)
def test_factors_are_written_once_per_layer_per_sync(monkeypatch, optimizer, write):
    calls = []
    original = getattr(training, write)

    def counted(state, *args):
        calls.append(state)
        original(state, *args)

    monkeypatch.setattr(training, write, counted)
    cfg = load_config(None, SQUARE_AE + [f"optimizer={optimizer}", "workers=4"], seed=0)
    result = run_training(cfg)
    assert len(calls) == len(cfg.layer_specs()) * result.trace.sync_events == 8
    assert {id(st) for st in calls} == {id(st) for st in result.states}
    assert result.workers_identical


# Every input to KFAC's precondition is shared (the factors, the workers' mean
# gradient), so each layer's update is formed once per step and applied once.
def test_kfac_preconditions_each_layer_once_per_step(monkeypatch):
    calls = []
    original = training.precondition

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(training, "precondition", counted)
    cfg = load_config(None, SQUARE_AE + ["optimizer=kfac", "workers=4"], seed=0)
    result = run_training(cfg)
    specs = cfg.layer_specs()
    assert len(calls) == len(specs) * cfg.iterations
    # SQUARE_AE takes the dense form, 2oi(o + i) flops per layer and step
    dense = sum(2 * s.out_dim * s.in_dim * (s.out_dim + s.in_dim) for s in specs)
    assert result.trace.flops["precondition"] == cfg.iterations * dense
    assert result.workers_identical


UPDATE_TAGS = ["mkor", "mkor-h", "kfac", "sgd"]


# The run holds one copy of the weights: each layer's update is applied once
# per step, and costs as much, at any worker count.
@pytest.mark.parametrize("optimizer", UPDATE_TAGS)
def test_each_layer_is_updated_once_per_step_on_four_workers(monkeypatch, optimizer):
    calls = []
    original = training.apply_update

    def counted(net, layer, *args):
        calls.append((id(net), layer))
        original(net, layer, *args)

    monkeypatch.setattr(training, "apply_update", counted)
    cfg = load_config(None, SQUARE_AE + [f"optimizer={optimizer}", "workers=4"], seed=0)
    result = run_training(cfg)
    layers = len(cfg.layer_specs())
    assert calls == [(id(result.net), l) for _ in range(cfg.iterations) for l in range(layers)]


@pytest.mark.parametrize("optimizer", UPDATE_TAGS)
def test_weight_update_flops_do_not_grow_with_workers(optimizer):
    flops = [
        run_training(load_config(None, SQUARE_AE + [f"optimizer={optimizer}", f"workers={w}"],
                                 seed=0)).trace.flops["weight_update"]
        for w in (1, 4)
    ]
    assert flops[0] > 0.0
    assert flops[1] == flops[0]


# Each worker forms mkor's update; the run applies worker 0's and reports a
# worker whose update differs.
def test_a_worker_forming_a_different_update_clears_workers_identical(monkeypatch):
    cfg = load_config(None, SQUARE_AE + ["optimizer=mkor", "workers=4"], seed=0)
    plain = run_training(cfg)
    assert plain.workers_identical
    calls = []
    original = training.mkor_step

    def skewed(*args):
        calls.append(args)
        delta = original(*args)
        return delta + 1.0 if len(calls) == 2 else delta  # iteration 1, layer 0, worker 1

    monkeypatch.setattr(training, "mkor_step", skewed)
    result = run_training(cfg)
    assert len(calls) == cfg.workers * len(cfg.layer_specs()) * cfg.iterations
    assert result.workers_identical is False
    assert result.losses == plain.losses
    assert all(np.array_equal(a, b) for a, b in zip(result.net.weights, plain.net.weights))


# The factor inverses stand for inverses of symmetric covariances, so
# L^-1 W_grad R^-1 applies a symmetric (Kronecker-factored) preconditioner
# only while both are exactly symmetric; the next refresh also forms
# F^-1 v v^T F^-1 as u u^T with u = F^-1 v, which is that product only for a
# symmetric F^-1.  So every factor write must leave the inverses exactly
# symmetric: the rank-1 refresh, with the stabilizer firing on every write
# (epsilon_norm=0.5) or never, its fp16-comm inputs, and KFAC's inverse of the
# workers' reduced covariance.
@pytest.mark.parametrize(
    "overrides, fires",
    [(["optimizer=mkor"], False), (["optimizer=mkor", "epsilon_norm=0.5"], True),
     (["optimizer=mkor", "half_precision_comm=true"], False), (["optimizer=kfac"], False)],
    ids=["mkor", "mkor-stabilized", "mkor-fp16", "kfac"],
)
def test_every_factor_inverse_reaching_precondition_is_exactly_symmetric(
    monkeypatch, overrides, fires
):
    original, stabilize = optim.precondition, optim.stabilize
    checked, fired = [], []

    def symmetric_only(l_inv, w_grad, r_inv, captures):
        for f in (l_inv, r_inv):
            assert f.tobytes() == f.T.copy().tobytes()
        checked.append(len(captures))
        return original(l_inv, w_grad, r_inv, captures)

    def watched(f_inv, *args):
        out = stabilize(f_inv, *args)
        fired.append(out is not f_inv)
        return out

    monkeypatch.setattr(optim, "precondition", symmetric_only)  # mkor_step's
    monkeypatch.setattr(training, "precondition", symmetric_only)  # kfac's
    monkeypatch.setattr(optim, "stabilize", watched)
    cfg = load_config(None, SQUARE_AE + overrides + ["workers=2"], seed=0)
    run_training(cfg)
    per_step = len(cfg.layer_specs()) * (1 if cfg.optimizer == "kfac" else 2)
    assert len(checked) == per_step * cfg.iterations and set(checked) == {2}
    assert fired and all(fired) if fires else not any(fired)


def test_kfac_run_is_the_same_inside_the_benchmark_tracer(tmp_path, monkeypatch):
    """The benchmark wraps training's functions from outside (its kfac_invert
    hook reads the written inverses); a traced run trains and writes the same."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "kronbench_tracing", os.path.join(root, "kronbench", "tracing.py")
    )
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    cfg = load_config(None, SQUARE_AE + ["optimizer=kfac", "workers=2"], seed=0)
    plain = harness.run_experiment(cfg, str(tmp_path / "plain"))
    with tracing.Tracer() as tracer:
        traced = harness.run_experiment(cfg, str(tmp_path / "traced"))
    assert traced.losses == plain.losses
    for name in ARTIFACTS + ("cost.csv",):
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    layers = len(cfg.layer_specs())
    assert tracer.spans["optim.kfac_invert"].calls == layers * plain.trace.sync_events
    assert tracer.spans["optim.precondition"].calls == layers * cfg.iterations
    assert tracer.factor_inv_norm_max > 0.0
    assert training.kfac_invert is optim.kfac_invert  # the tracer restored it


def test_numerical_guard_survives_python_O():
    assert issubclass(linalg.NumericalError, AssertionError)  # so it still maps to exit 3
    code = (
        "import numpy as np\n"
        "from kronopt.linalg import NumericalError\n"
        "from kronopt.optim import sm_update\n"
        "try:\n"
        "    sm_update(-np.eye(3), np.ones(3), 0.9)\n"
        "except NumericalError as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(kronopt.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "rank-1 update denominator lost positivity"


TINY_AE = [
    "dataset.kind=random-autoencoder", "dataset.dim=6", "net.dims=6,4,6",
    "dataset.n=32", "batch=8", "lr=0.01", "iterations=12", "inversion_period=3",
]


def _cell_overrides(key: str, value: str) -> list[str]:
    """The --set items that put one grid key at ``value`` in a single run."""
    if key == "d":
        return [f"net.dims={value},{value},{value}", f"dataset.dim={value}"]
    return [f"{key}={value}"]


@pytest.mark.parametrize(
    "base, grid, cells",
    [
        (TINY_XOR, ["lr=0.05;0.2"], ["lr_0.05", "lr_0.2"]),
        (TINY_XOR, ["workers=1;2"], ["workers_1", "workers_2"]),
        (TINY_XOR, ["inversion_period=0;4"], ["inversion_period_0", "inversion_period_4"]),
        (TINY_AE, ["d=4;8"], ["d_4", "d_8"]),
        (
            TINY_XOR, ["optimizer=mkor;kfac", "seed=0;1"],
            ["optimizer_mkor+seed_0", "optimizer_mkor+seed_1",
             "optimizer_kfac+seed_0", "optimizer_kfac+seed_1"],
        ),
    ],
    ids=["lr", "workers", "inversion_period", "d", "optimizer-x-seed"],
)
def test_sweep_cells_match_run_experiment(tmp_path, base, grid, cells):
    cfg = load_config(None, base, seed=0)
    harness.sweep(cfg, grid, str(tmp_path / "sweep"))
    records = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
    assert [record["cell"] for record in records] == cells
    for cell, record in zip(cells, records):
        point = {key: value for key, _, value in (part.rpartition("_") for part in cell.split("+"))}
        overrides = [item for key, value in point.items() for item in _cell_overrides(key, value)]
        single = tmp_path / "single" / cell
        harness.run_experiment(load_config(None, ["seed=0", *base, *overrides]), str(single))
        swept = tmp_path / "sweep" / cell
        for name in ("loss.csv", "cost.csv", "summary.json", "model.ckpt"):
            assert (swept / name).read_bytes() == (single / name).read_bytes(), (cell, name)
        want = {**json.loads((swept / "summary.json").read_text()), "cell": cell, "grid": point}
        assert record == want


# an autoencoder's target is its input: the one array serves as both
def test_autoencoder_targets_share_the_inputs_memory():
    ds = training.synth_dataset("random-autoencoder", 16, seed=0, dim=8)
    assert ds.y is ds.x


# Shards of 3, 3, 2 and 2 samples: each worker's batch is its whole shard, so
# preconditioning must weight each worker's columns by its own batch size.
def test_kfac_on_unequal_shards_ends_where_the_dense_precondition_did():
    cfg = load_config(None, [
        "optimizer=kfac", "dataset.kind=random-autoencoder", "dataset.dim=32",
        "net.dims=32,32,32", "dataset.n=10", "workers=4", "batch=32", "iterations=20",
        "inversion_period=1", "lr=0.01",
    ], seed=0)
    assert sorted(s.n for s in training.shard_dataset(build_dataset(cfg), 4, 0)) == [2, 2, 3, 3]
    # the final loss of the dense form, before the rank-B form existed
    assert run_training(cfg).losses[-1] == pytest.approx(117.83705092656459, rel=1e-10, abs=0)


def _flops_on_one_square_layer(optimizer: str, d: int, phases) -> float:
    cfg = load_config(None, [
        f"optimizer={optimizer}", "dataset.kind=random-autoencoder", f"dataset.dim={d}",
        f"net.dims={d},{d}", "dataset.n=256", "batch=8", "iterations=4", "inversion_period=1",
    ], seed=0)
    flops = run_training(cfg).trace.flops
    return sum(flops[phase] for phase in phases)


def _slope_in_d(optimizer: str, phases) -> float:
    return math.log2(
        _flops_on_one_square_layer(optimizer, 64, phases)
        / _flops_on_one_square_layer(optimizer, 32, phases)
    )


# The complexity claim as exponents: MKOR's second-order work is quadratic in
# the layer width, KFAC's inversion cubic.
def test_mkor_second_order_flops_grow_quadratically_in_d():
    assert _slope_in_d("mkor", ("factor_update", "precondition")) <= 2.1


def test_kfac_inversion_flops_grow_cubically_in_d():
    assert _slope_in_d("kfac", ("inversion",)) >= 2.9
