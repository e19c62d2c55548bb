"""Dataset ingestion: synthetic task generators and the IDX binary format.

Samples are columns; every generator is a pure function of (kind, n, seed)
so runs are reproducible byte for byte.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import linalg

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
IDX_KINDS = {IDX_IMAGES_MAGIC: "images", IDX_LABELS_MAGIC: "labels"}

SYNTH_KINDS = ("xor", "gaussian-blobs", "random-autoencoder")
# generator parameters (set as dataset.<name>) and their types
SYNTH_PARAMS = {
    "dim": int, "classes": int, "scale": float, "sigma": float,
    "rank": int, "offset": float, "noise": float,
}


@dataclass
class Dataset:
    x: np.ndarray  # features x n
    y: np.ndarray  # targets x n

    @property
    def n(self) -> int:
        return self.x.shape[1]


XOR_POINTS = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]])
XOR_TARGETS = np.array([[0.0, 1.0, 1.0, 0.0]])


def synth_dataset(kind: str, n: int, seed: int, **params) -> Dataset:
    if kind == "xor":
        reps = max(1, -(-n // 4))
        x = np.tile(XOR_POINTS, reps)[:, :max(n, 4)]
        y = np.tile(XOR_TARGETS, reps)[:, :max(n, 4)]
        return Dataset(x=x, y=y)
    rng = linalg.make_rng(seed)
    if kind == "gaussian-blobs":
        dim = int(params.get("dim", 8))
        classes = int(params.get("classes", 3))
        scale = float(params.get("scale", 4.0))
        sigma = float(params.get("sigma", 1.0))
        means = scale * rng.standard_normal((dim, classes))
        labels = rng.integers(0, classes, size=n)
        x = means[:, labels] + sigma * rng.standard_normal((dim, n))
        y = np.zeros((classes, n))
        y[labels, np.arange(n)] = 1.0
        return Dataset(x=x, y=y)
    if kind == "random-autoencoder":
        dim = int(params.get("dim", 32))
        rank = int(params.get("rank", 4))
        offset = float(params.get("offset", 2.0))
        noise = float(params.get("noise", 0.05))
        mixing = rng.standard_normal((dim, rank))
        latent = rng.standard_normal((rank, n))
        center = offset * rng.standard_normal(dim)
        x = mixing @ latent + center[:, None] + noise * rng.standard_normal((dim, n))
        return Dataset(x=x, y=x)
    raise ValueError(f"unknown synthetic dataset {kind!r}")


def load_idx(path: str, expected: int) -> np.ndarray:
    """Read an IDX file whose magic must be ``expected``: images come back
    as (rows*cols) x n in [0, 1], labels as a 1 x n float array."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise ValueError(f"{path}: truncated IDX header")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic not in IDX_KINDS:
        raise ValueError(f"{path}: bad IDX magic 0x{magic:08x}")
    if magic != expected:
        raise ValueError(f"{path}: holds IDX {IDX_KINDS[magic]}, expected {IDX_KINDS[expected]}")
    if magic == IDX_IMAGES_MAGIC:
        if len(raw) < 16:
            raise ValueError(f"{path}: truncated IDX image dims")
        n, rows, cols = struct.unpack(">III", raw[4:16])
        body = raw[16:]
        if len(body) != n * rows * cols:
            raise ValueError(f"{path}: expected {n * rows * cols} pixels, got {len(body)}")
        pixels = np.frombuffer(body, dtype=np.uint8).astype(np.float64) / 255.0
        return np.ascontiguousarray(pixels.reshape(n, rows * cols).T)
    (n,) = struct.unpack(">I", raw[4:8])
    body = raw[8:]
    if len(body) != n:
        raise ValueError(f"{path}: expected {n} labels, got {len(body)}")
    return np.frombuffer(body, dtype=np.uint8).astype(np.float64)[None, :]


def idx_dataset(images_path: str, labels_path: str) -> Dataset:
    x = load_idx(images_path, IDX_IMAGES_MAGIC)
    lab = load_idx(labels_path, IDX_LABELS_MAGIC)[0].astype(int)
    if x.shape[1] != lab.shape[0]:
        raise ValueError(
            f"{images_path} holds {x.shape[1]} images but {labels_path} {lab.shape[0]} labels"
        )
    if lab.shape[0] == 0:
        raise ValueError(f"{labels_path} holds no labels")
    classes = int(lab.max()) + 1
    y = np.zeros((classes, lab.shape[0]))
    y[lab, np.arange(lab.shape[0])] = 1.0
    return Dataset(x=x, y=y)


@dataclass
class Shard:
    """One worker's samples: column indices into the run's one dataset."""

    data: Dataset
    idx: np.ndarray

    @property
    def n(self) -> int:
        return self.idx.shape[0]


def shard_dataset(ds: Dataset, n_workers: int, seed: int) -> list[Shard]:
    """Deterministic round-robin split after a seeded shuffle (1 <= n_workers <= ds.n).
    Shards index into ``ds``; none copies its columns."""
    perm = linalg.make_rng(seed).permutation(ds.n)
    return [Shard(ds, perm[w::n_workers]) for w in range(n_workers)]


def batch_slice(shard: Shard, iteration: int, batch: int) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic contiguous batch of the shard's samples for a 1-based iteration
    index, gathered from the dataset's columns."""
    n = shard.n
    b = min(batch, n)
    start = ((iteration - 1) * b) % n
    cols = shard.idx[(start + np.arange(b)) % n]
    return shard.data.x[:, cols], shard.data.y[:, cols]
