#!/usr/bin/env python3
"""Print ``cell artifact sha256`` for a fixed set of kronopt runs.

A refactor counts as behaviour-preserving only when its artifacts are
byte-identical to those of the code it replaces.  The listing for ``src`` is
committed as ``tests/artifact_digests.txt`` and a tier-1 test reruns this
tool against it; to compare two trees by hand, diff their listings:

    python3 tools/artifact_digests.py --src OLD/src > old.txt
    python3 tools/artifact_digests.py --src src > new.txt
    diff old.txt new.txt

The first line names the Python and numpy versions the listing was made with.

``--src`` names the directory that holds the ``kronopt`` package.  Every run
goes through ``kronopt.cli.main``, so every verb's output is digested.  The
training runs use ``--seed 0 iterations=60 inversion_period=5`` on three
datasets (xor; 3-class gaussian blobs; a 16-dim random autoencoder under the
knee scheduler):

* {mkor, mkor-h (window=10), kfac, sgd} x workers {1, 4}, sngd, mkor with
  half-precision comm at 1 and 4 workers and mkor with rank-1 profiling;
* {mkor, kfac} x workers {1, 4} on a 32-wide random autoencoder at batch 8:
  at one worker (8 gradient columns) ``optim.precondition`` takes its rank-B
  form, at four (32 columns) its dense form;
* mkor at four workers on that autoencoder cut to 10 samples: the shards
  hold 3, 3, 2 and 2, so ``optim.precondition`` takes its rank-B form over
  the concatenated captures, with unequal 1/(W b_w) column weights;
* softmax cross-entropy on an IDX images/labels pair (16 images of 2x2,
  labels 0-2) that the tool writes into its temporary directory, which is
  the working directory of every run, so the pair is named by relative
  paths and ``summary.json`` does not hold the directory's name;
* xor under the step scheduler, with milestones that decay the lr at
  iterations 11 and 41;
* xor with relu, sigmoid and identity hidden layers;
* sgd on xor without biases;
* a 12-dim random autoencoder read from a ``--config`` file that holds a
  tuple key and ``dataset.*`` keys;
* ``prune --seed 0`` on the default config, by element and by 2x2 tile
  (``--tile 2x2 --k 2``);
* ``sweep`` over each of lr, workers, inversion_period and d (one
  ``--grid`` key each), and over optimizer {mkor, kfac} x seed {0, 1} on
  xor (two ``--grid`` keys, four cells);
* ``cost-report --d 64 --b 8`` and ``verify-lemmas --steps 50``, which take
  no config or seed.

65 short runs; a few seconds on one core.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import platform
import struct
import sys
import tempfile

COMMON = ("iterations=60", "inversion_period=5")

DATASETS = {
    "xor": (),
    "blobs": (
        "dataset.kind=gaussian-blobs", "net.dims=8,16,3", "loss=softmax_cross_entropy",
        "dataset.n=128", "batch=16",
    ),
    "ae": (
        "dataset.kind=random-autoencoder", "dataset.dim=16", "net.dims=16,8,16",
        "dataset.n=128", "batch=16", "lr=0.01", "scheduler=knee",
    ),
}

# 32 wide, so that the rank-B precondition form is cheaper at batch 8
WIDE = (
    "dataset.kind=random-autoencoder", "dataset.dim=32", "net.dims=32,32,32",
    "dataset.n=128", "batch=8", "lr=0.01",
)

RUNS = {
    **{
        f"{opt}-w{w}": (f"optimizer={opt}", f"workers={w}", *(("window=10",) if opt == "mkor-h" else ()))
        for opt in ("mkor", "mkor-h", "kfac", "sgd")
        for w in (1, 4)
    },
    "sngd": ("optimizer=sngd",),
    "mkor-fp16-w1": ("optimizer=mkor", "half_precision_comm=true"),
    "mkor-fp16-w4": ("optimizer=mkor", "workers=4", "half_precision_comm=true"),
    "mkor-rank1": ("optimizer=mkor", "rank1_every=7"),
}

# 16 images of 2x2 and labels 0, 1, 2, 0, ..., as IDX files
IDX_FILES = {
    "images.idx": struct.pack(">IIII", 0x803, 16, 2, 2) + bytes((37 * i) % 256 for i in range(64)),
    "labels.idx": struct.pack(">II", 0x801, 16) + bytes(i % 3 for i in range(16)),
}
IDX = (
    "dataset.kind=idx", "dataset.images=images.idx", "dataset.labels=labels.idx",
    "net.dims=4,8,3", "loss=softmax_cross_entropy",
)

# epoch_iters=2 puts the milestones 5 and 20 at iterations 11 and 41
STEP_SCHEDULE = ("scheduler=step", "milestones=5,20", "epoch_iters=2")

CONFIG_FILE = """\
# parsed key by key as --set is
dataset.kind = random-autoencoder
dataset.dim = 12
dataset.noise = 0.1
net.dims = 12, 6, 12
dataset.n = 64
batch = 16
lr = 0.01
"""

# (cell name, dataset, --grid items)
SWEEPS = (
    ("sweep-lr", "xor", ("lr=0.05;0.2",)),
    ("sweep-workers", "xor", ("workers=1;2;4",)),
    ("sweep-inversion_period", "xor", ("inversion_period=0;3",)),
    ("sweep-d", "ae", ("d=8;12",)),
    ("sweep-grid", "xor", ("optimizer=mkor;kfac", "seed=0;1")),
)


def _sets(overrides) -> list[str]:
    return [arg for item in overrides for arg in ("--set", item)]


def commands(config_path: str) -> dict[str, list[str]]:
    """Cell name -> kronopt command line (without --out); ``config_path``
    names a file holding CONFIG_FILE."""
    cmds = {}
    for ds, ds_sets in DATASETS.items():
        for run, run_sets in RUNS.items():
            cmds[f"{ds}/{run}"] = ["train", "--seed", "0", *_sets(COMMON + ds_sets + run_sets)]
    for opt in ("mkor", "kfac"):
        for w in (1, 4):
            cmds[f"ae32/{opt}-w{w}"] = [
                "train", "--seed", "0", *_sets(COMMON + WIDE + (f"optimizer={opt}", f"workers={w}")),
            ]
    cmds["ae32/mkor-w4-n10"] = [
        "train", "--seed", "0", *_sets(COMMON + WIDE + ("optimizer=mkor", "workers=4", "dataset.n=10")),
    ]
    cmds["idx"] = ["train", "--seed", "0", *_sets(COMMON + IDX)]
    cmds["xor/step"] = ["train", "--seed", "0", *_sets(COMMON + STEP_SCHEDULE)]
    for act in ("relu", "sigmoid", "identity"):
        cmds[f"xor/{act}"] = ["train", "--seed", "0", *_sets(COMMON + (f"net.activation={act}",))]
    cmds["xor/sgd-no-bias"] = ["train", "--seed", "0", *_sets(COMMON + ("net.bias=false", "optimizer=sgd"))]
    cmds["config-file"] = ["train", "--seed", "0", "--config", config_path, *_sets(COMMON)]
    cmds["prune"] = ["prune", "--seed", "0"]
    cmds["prune-tile"] = ["prune", "--seed", "0", "--tile", "2x2", "--k", "2"]
    for name, ds, grid in SWEEPS:
        cmds[name] = [
            "sweep", "--seed", "0", *(arg for item in grid for arg in ("--grid", item)),
            *_sets(COMMON + DATASETS[ds]),
        ]
    cmds["cost-report"] = ["cost-report", "--d", "64", "--b", "8"]
    cmds["verify-lemmas"] = ["verify-lemmas", "--steps", "50"]
    return cmds


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the kronopt package")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy
    from kronopt import cli

    print(f"# python {platform.python_version()} numpy {numpy.__version__}")
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "experiment.cfg")
        with open(config_path, "w") as fh:
            fh.write(CONFIG_FILE)
        for name, data in IDX_FILES.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(data)
        os.chdir(tmp)
        try:
            for cell, cmd in commands(config_path).items():
                out = os.path.join(tmp, cell)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([*cmd, "--out", out])
                if code != 0:
                    print(f"{cell}: kronopt exited {code}", file=sys.stderr)
                    return 1
                for root, _, files in sorted(os.walk(out)):
                    for name in sorted(files):
                        path = os.path.join(root, name)
                        print(cell, os.path.relpath(path, out), _digest(path))
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
