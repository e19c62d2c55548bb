"""Experiment configuration: flat ``key = value`` files with dotted section
prefixes for the dataset/network sections, plus ``--set key=value`` overrides.

Parsing follows ``ExperimentConfig``: each key is one of its fields (``net_*``
and ``dataset_*`` fields are spelled ``net.*`` and ``dataset.*``) and is
parsed by that field's annotation.  A ``dataset.*`` key that names a generator
parameter in ``data.SYNTH_PARAMS`` fills ``dataset_params`` with that table's
type.  Booleans read true/1/yes/on or false/0/no/off; comma lists hold ints.

Documented keys
---------------
optimizer section (bare keys):
    optimizer, gamma, zeta, epsilon_norm, inversion_period, lr, momentum,
    damping, switch_ratio, window, half_precision_comm, workers, seed
run section (bare keys):
    loss, batch, iterations, rank1_every
scheduler section (bare keys):
    scheduler (none|knee|step), beta, decay_factor, milestones, epoch_iters
net section:
    net.dims (comma list), net.activation, net.bias
dataset section:
    dataset.kind (xor|gaussian-blobs|random-autoencoder|idx),
    dataset.n, dataset.dim, dataset.classes, dataset.scale, dataset.sigma,
    dataset.rank, dataset.offset, dataset.noise,
    dataset.images, dataset.labels (IDX paths)
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

from .costs import RANK1_OPTIMIZERS
from .data import SYNTH_KINDS, SYNTH_PARAMS
from .net import ACTIVATIONS, LOSSES, LayerSpec

TRAINABLE_OPTIMIZERS = ("mkor", "mkor-h", "kfac", "sngd", "sgd")
SCHEDULERS = ("none", "knee", "step")
# SNGD inverts a batch x batch kernel per layer; desk scale keeps it small.
MAX_SNGD_BATCH = 64


class ConfigError(Exception):
    """Invalid or missing configuration; maps to CLI exit code 2."""


@dataclass
class ExperimentConfig:
    # optimizer
    optimizer: str = "mkor"
    gamma: float = 0.9
    zeta: float = 0.95
    epsilon_norm: float = 100.0
    inversion_period: int = 10
    lr: float = 0.1
    momentum: float = 0.9
    damping: float = 1e-3
    switch_ratio: float = 0.1
    window: int = 50
    half_precision_comm: bool = False
    workers: int = 1
    seed: int | None = None
    # run
    loss: str = "mse"
    batch: int = 32
    iterations: int = 100
    rank1_every: int = 0
    # scheduler
    scheduler: str = "none"
    beta: float = 0.2
    decay_factor: float = 0.5
    milestones: tuple[int, ...] = (25, 35, 40, 45, 50, 55, 56)  # residual-network recipe
    epoch_iters: int = 0  # 0 = derive from shard size
    # net
    net_dims: tuple[int, ...] = (2, 8, 1)
    net_activation: str = "tanh"
    net_bias: bool = True
    # dataset
    dataset_kind: str = "xor"
    dataset_n: int = 4
    dataset_params: dict = field(default_factory=dict)
    dataset_images: str = ""
    dataset_labels: str = ""

    def layer_specs(self) -> list[LayerSpec]:
        dims = self.net_dims
        specs = []
        for i in range(len(dims) - 1):
            # hidden layers use the configured activation; the output layer is
            # identity when the loss folds in its own nonlinearity
            act = self.net_activation
            if i == len(dims) - 2 and self.loss == "softmax_cross_entropy":
                act = "identity"
            specs.append(LayerSpec(dims[i], dims[i + 1], act, self.net_bias))
        return specs

    def validate(self) -> "ExperimentConfig":
        if self.seed is None:
            raise ConfigError("seed is mandatory (set `seed = ...` or pass --seed)")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.optimizer not in TRAINABLE_OPTIMIZERS:
            raise ConfigError(
                f"unknown optimizer {self.optimizer!r}; choose from {TRAINABLE_OPTIMIZERS}"
            )
        if self.scheduler not in SCHEDULERS:
            raise ConfigError(f"unknown scheduler {self.scheduler!r}")
        floats = [(f.name, getattr(self, f.name)) for f in fields(self) if f.type == "float"]
        floats += [(f"dataset.{name}", value) for name, value in self.dataset_params.items()
                   if SYNTH_PARAMS[name] is float]
        for key, value in floats:
            if math.isnan(value):
                raise ConfigError(f"{key} must be a number, got nan")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError("gamma must be in (0, 1)")
        if not 0.0 < self.zeta <= 1.0:
            raise ConfigError("zeta must be in (0, 1]")
        if not self.epsilon_norm > 0:
            raise ConfigError("epsilon_norm must be positive")
        if not (self.damping > 0 and math.isfinite(self.damping)):
            raise ConfigError("damping must be positive and finite")
        if not math.isfinite(self.momentum):
            raise ConfigError("momentum must be finite")
        if not 0.0 < self.beta < 1.0:
            raise ConfigError("beta must be in (0, 1)")
        if not 0.0 < self.decay_factor < 1.0:
            raise ConfigError("decay_factor must be in (0, 1)")
        if self.window < 1:
            raise ConfigError("window must be >= 1 (the hybrid switch needs a baseline)")
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ConfigError("lr must be positive and finite")
        if self.inversion_period < 0:
            raise ConfigError("inversion_period must be >= 0 (0 disables factor updates)")
        if self.epoch_iters < 0:
            raise ConfigError("epoch_iters must be >= 0 (0 derives it from the shard size)")
        if self.rank1_every < 0:
            raise ConfigError("rank1_every must be >= 0 (0 disables rank-1 profiling)")
        if self.iterations < 1 or self.batch < 1 or self.workers < 1:
            raise ConfigError("iterations, batch and workers must be >= 1")
        if len(self.net_dims) < 2 or any(d < 1 for d in self.net_dims):
            raise ConfigError(f"net.dims needs >= 2 positive entries, got {self.net_dims}")
        if self.net_activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.net_activation!r}")
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}")
        if self.half_precision_comm and self.optimizer not in RANK1_OPTIMIZERS:
            raise ConfigError(
                f"half_precision_comm needs a rank-1 optimizer {RANK1_OPTIMIZERS}; "
                f"{self.optimizer} ships no rank-1 vectors"
            )
        if self.optimizer == "sngd":
            if self.workers != 1:
                raise ConfigError("sngd supports a single logical worker")
            if self.batch > MAX_SNGD_BATCH:
                raise ConfigError(f"sngd batch is capped at {MAX_SNGD_BATCH} at desk scale")
        if self.dataset_kind == "idx":
            for p in (self.dataset_images, self.dataset_labels):
                if not p:
                    raise ConfigError("idx dataset needs dataset.images and dataset.labels")
                if not os.path.exists(p):
                    raise ConfigError(f"dataset path not found: {p}")
        elif self.dataset_kind not in SYNTH_KINDS:
            raise ConfigError(f"unknown dataset kind {self.dataset_kind!r}")
        counts = dict(self.dataset_params, n=self.dataset_n)
        for name, low in (("n", 1), ("dim", 1), ("classes", 1), ("rank", 0)):
            if counts.get(name, low) < low:
                raise ConfigError(f"dataset.{name} must be >= {low}, got {counts[name]}")
        return self


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(",") if part.strip())


# field annotation -> parser of the stripped raw value
_PARSERS = {
    "bool": _parse_bool, "int": int, "int | None": int, "float": float, "str": str,
    "tuple[int, ...]": _parse_ints,
}


def _key_name(field_name: str) -> str:
    """``net_dims`` is spelled ``net.dims``, ``dataset_n`` ``dataset.n``."""
    section, _, rest = field_name.partition("_")
    return f"{section}.{rest}" if section in ("net", "dataset") else field_name


# key -> (ExperimentConfig field, parser); a dataset generator parameter lands
# in dataset_params under its own name
_KEYS = {
    _key_name(f.name): (f.name, _PARSERS[f.type])
    for f in fields(ExperimentConfig)
    if f.name != "dataset_params"
}
_KEYS.update({f"dataset.{name}": ("dataset_params", kind) for name, kind in SYNTH_PARAMS.items()})


def apply_assignment(cfg: ExperimentConfig, key: str, raw_value: str) -> None:
    if key not in _KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    attr, parse = _KEYS[key]
    try:
        value = parse(raw_value.strip())
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    if attr == "dataset_params":
        cfg.dataset_params[key.removeprefix("dataset.")] = value
    else:
        setattr(cfg, attr, value)


def parse_config_text(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    cfg = base if base is not None else ExperimentConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {line!r}")
        key, raw = stripped.split("=", 1)
        apply_assignment(cfg, key.strip(), raw)
    return cfg


def load_config(
    path: str | None,
    overrides: list[str] | None = None,
    seed: int | None = None,
) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as fh:
            cfg = parse_config_text(fh.read(), cfg)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        apply_assignment(cfg, key.strip(), raw)
    if seed is not None:
        cfg.seed = seed
    return cfg.validate()

