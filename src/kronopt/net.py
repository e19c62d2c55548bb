"""Minimal feed-forward network with explicit per-layer capture.

Data layout: samples are columns.  A layer computes z = W @ a_prev (+ bias)
followed by an elementwise activation.  The loss is the mean over the batch,
so weight gradients carry an explicit 1/b.  Captured G holds *per-sample*
gradients of the loss w.r.t. the layer pre-activation (no 1/b), which keeps
the identity W_grad == (1/b) * G @ A_prev.T exact and matches the column-mean
convention the factor approximations use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg

ACTIVATIONS = ("identity", "relu", "tanh", "sigmoid")
LOSSES = ("mse", "softmax_cross_entropy")


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str = "identity"
    has_bias: bool = True

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("layer dims must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class NetworkState:
    layers: list[LayerSpec]
    weights: list[np.ndarray]
    biases: list[np.ndarray | None]

    def copy(self) -> "NetworkState":
        return NetworkState(
            list(self.layers),
            [w.copy() for w in self.weights],
            [None if b is None else b.copy() for b in self.biases],
        )


@dataclass
class LayerCapture:
    """Per-layer batch quantities consumed by the second-order updates."""

    a_prev: np.ndarray  # in_dim x batch, input activations
    g: np.ndarray  # out_dim x batch, per-sample pre-activation gradients
    w_grad: np.ndarray  # out_dim x in_dim, (1/b) * g @ a_prev.T
    b_grad: np.ndarray | None = field(default=None)


def init_network(specs: list[LayerSpec], rng: np.random.Generator) -> NetworkState:
    for prev, cur in zip(specs, specs[1:]):
        if prev.out_dim != cur.in_dim:
            raise ValueError(f"adjacent dims mismatch: {prev.out_dim} -> {cur.in_dim}")
    weights = []
    biases = []
    for spec in specs:
        w = rng.standard_normal((spec.out_dim, spec.in_dim)) / np.sqrt(spec.in_dim)
        weights.append(np.ascontiguousarray(w))
        biases.append(np.zeros(spec.out_dim) if spec.has_bias else None)
    return NetworkState(list(specs), weights, biases)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "identity":
        return z
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "tanh":
        return np.tanh(z)
    return 1.0 / (1.0 + np.exp(-z))  # sigmoid


def _activate_grad(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    if kind == "identity":
        return np.ones_like(z)
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    if kind == "tanh":
        return 1.0 - a * a
    return a * (1.0 - a)  # sigmoid


def forward(net: NetworkState, x) -> tuple[np.ndarray, list]:
    """Returns (output, trace); the trace retains every layer input and
    pre-activation needed by backward."""
    a = linalg.as_matrix(x)
    if a.shape[0] != net.layers[0].in_dim:
        raise linalg.DimensionMismatch(
            f"input rows {a.shape[0]} != first layer in_dim {net.layers[0].in_dim}"
        )
    trace = []
    for spec, w, b in zip(net.layers, net.weights, net.biases):
        z = linalg.matmul(w, a)
        if b is not None:
            z = z + b[:, None]
        out = _activate(z, spec.activation)
        trace.append((a, z, out))
        a = out
    return a, trace


def _loss_and_grad(output: np.ndarray, targets, kind: str) -> tuple[float, np.ndarray]:
    """Mean-over-batch loss and its per-sample gradient with respect to the
    output.  MSE uses the 0.5 * ||err||^2 per-sample convention; with
    softmax_cross_entropy the softmax is folded into the loss, so the
    gradient is that of the logits the output holds."""
    t = linalg.as_matrix(targets)
    if t.shape != output.shape:
        raise linalg.DimensionMismatch(f"targets {t.shape} vs output {output.shape}")
    b = output.shape[1]
    if kind == "mse":
        diff = output - t
        return float(0.5 * np.sum(diff * diff) / b), diff
    if kind == "softmax_cross_entropy":
        p = _softmax(output)
        return float(-np.sum(t * np.log(np.maximum(p, 1e-300))) / b), p - t
    raise ValueError(f"unknown loss {kind!r}")


def loss_value(output: np.ndarray, targets, kind: str) -> float:
    """Mean-over-batch loss of ``output`` against ``targets``."""
    return _loss_and_grad(output, targets, kind)[0]


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - np.max(z, axis=0, keepdims=True))
    return e / np.sum(e, axis=0, keepdims=True)


def backward(
    net: NetworkState, trace: list, targets, loss: str
) -> tuple[float, list[LayerCapture]]:
    """Backpropagate the mean-batch loss; returns (loss_value, captures).

    With softmax_cross_entropy the softmax is folded into the loss, so the
    final layer must use the identity activation.
    """
    _, z_last, out_last = trace[-1]
    b = out_last.shape[1]
    lval, g = _loss_and_grad(out_last, targets, loss)  # per-sample dl/d(output)
    if loss == "mse":
        g = g * _activate_grad(z_last, out_last, net.layers[-1].activation)
    elif net.layers[-1].activation != "identity":
        raise ValueError("softmax_cross_entropy requires an identity final layer")

    captures: list[LayerCapture] = [None] * len(net.layers)  # type: ignore[list-item]
    for idx in range(len(net.layers) - 1, -1, -1):
        a_prev, z, out = trace[idx]
        w_grad = linalg.scale(linalg.matmul(g, a_prev.T), 1.0 / b)
        b_grad = linalg.mean_columns(g) if net.biases[idx] is not None else None
        captures[idx] = LayerCapture(a_prev=a_prev, g=g, w_grad=w_grad, b_grad=b_grad)
        if idx > 0:
            da = linalg.matmul(net.weights[idx].T, g)
            _, z_prev, out_prev = trace[idx - 1]
            g = da * _activate_grad(z_prev, out_prev, net.layers[idx - 1].activation)
    return lval, captures


CHECKPOINT_HEADER = b"KRONOPT-CKPT v1\n"


def save_checkpoint(net: NetworkState, path: str) -> None:
    """Header line, then per layer: a text line `in out activation has_bias`
    followed by row-major little-endian float64 weights (and bias if any)."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_HEADER)
        fh.write(f"{len(net.layers)}\n".encode())
        for spec, w, b in zip(net.layers, net.weights, net.biases):
            fh.write(
                f"{spec.in_dim} {spec.out_dim} {spec.activation} {int(spec.has_bias)}\n".encode()
            )
            fh.write(w.astype("<f8").tobytes())
            if b is not None:
                fh.write(b.astype("<f8").tobytes())
