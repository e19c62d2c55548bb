"""Second-order pruning that reuses the optimizer's Kronecker factors.

Scores come from the quadratic surrogate

    loss(W0 + dW) ~= loss0 + sum(dW . grad) + sum(dW . (L @ dW @ R))

evaluated with dW zeroing candidate weights; the greedy loop re-evaluates the
surrogate after each removal so interactions between removed elements are
accounted for.  The quadratic term carries no 1/2, matching the surrogate as
used for scoring (flagged in the docs).  L and R are the (re-inverted)
curvature factors, taken without damping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import matmul
from .net import NetworkState, backward, forward, loss_value


@dataclass
class PruneMask:
    keep: np.ndarray  # bool, True = weight survives
    tile: tuple[int, int] | None = None


def taylor_predicted_loss(loss0: float, delta_w, grad, left, right) -> float:
    """Quadratic surrogate loss at W0 + delta_w; loss0 is the caller-supplied
    base loss at W0."""
    dw = linalg.as_matrix(delta_w)
    g = linalg.as_matrix(grad)
    if dw.shape != g.shape:
        raise linalg.DimensionMismatch(f"delta {dw.shape} vs grad {g.shape}")
    left = linalg.as_matrix(left)
    right = linalg.as_matrix(right)
    if left.shape[0] != dw.shape[0] or right.shape[0] != dw.shape[1]:
        raise linalg.DimensionMismatch("factor dims do not match the weight shape")
    first = float(np.sum(dw * g))
    quad = float(np.sum(dw * matmul(matmul(left, dw), right)))
    return loss0 + first + quad


def _tiles(shape: tuple[int, int], tile: tuple[int, int] | None):
    rows, cols = shape
    if tile is None:
        return [(i, j, 1, 1) for i in range(rows) for j in range(cols)]
    tr, tc = tile
    if rows % tr or cols % tc:
        raise ValueError(f"tile {tile} does not divide weight shape {shape}")
    return [
        (i, j, tr, tc) for i in range(0, rows, tr) for j in range(0, cols, tc)
    ]


def greedy_prune(
    w0,
    grad,
    left,
    right,
    k: int,
    tile: tuple[int, int] | None = None,
) -> PruneMask:
    """Greedily zero k units (elements, or whole tiles in block mode),
    each time choosing the unit whose removal minimizes the surrogate loss
    given everything already removed.  Ties break on lowest (i, then j)."""
    w0 = linalg.as_matrix(w0)
    units = _tiles(w0.shape, tile)
    if k > len(units):
        raise ValueError(f"k={k} exceeds {len(units)} prunable units")
    keep = np.ones(w0.shape, dtype=bool)
    delta = np.zeros_like(w0)
    for _ in range(k):
        best = None
        best_loss = None
        for u, (i, j, tr, tc) in enumerate(units):
            if not keep[i, j]:
                continue
            trial = delta.copy()
            trial[i : i + tr, j : j + tc] = -w0[i : i + tr, j : j + tc]
            cand = taylor_predicted_loss(0.0, trial, grad, left, right)
            if best_loss is None or cand < best_loss:
                best_loss = cand
                best = (i, j, tr, tc)
        i, j, tr, tc = best
        keep[i : i + tr, j : j + tc] = False
        delta[i : i + tr, j : j + tc] = -w0[i : i + tr, j : j + tc]
    return PruneMask(keep=keep, tile=tile)


def prune_and_measure(
    net: NetworkState, x, targets, loss: str, layer: int, left, right, k: int,
    tile: tuple[int, int] | None = None,
) -> tuple[PruneMask, float, float]:
    """Greedily prune k units of one layer, scored with the gradient on the
    given batch, and report (mask, true_loss_delta, predicted_delta) there."""
    _, trace = forward(net, x)
    base, caps = backward(net, trace, targets, loss)
    grad = caps[layer].w_grad
    w0 = net.weights[layer]
    mask = greedy_prune(w0, grad, left, right, k, tile=tile)
    delta_w = np.where(mask.keep, 0.0, -w0)
    predicted = taylor_predicted_loss(base, delta_w, grad, left, right) - base
    pruned = net.copy()
    pruned.weights[layer] = w0 * mask.keep
    out2, _ = forward(pruned, x)
    true_delta = loss_value(out2, targets, loss) - base
    return mask, true_delta, predicted


MASK_HEADER = b"KRONOPT-MASK v1\n"


def save_mask(mask: PruneMask, path: str) -> None:
    """Bitmap with a text shape header; bits are row-major keep flags."""
    rows, cols = mask.keep.shape
    tr, tc = mask.tile if mask.tile else (0, 0)
    with open(path, "wb") as fh:
        fh.write(MASK_HEADER)
        fh.write(f"{rows} {cols} {tr} {tc}\n".encode())
        fh.write(np.packbits(mask.keep.reshape(-1)).tobytes())
