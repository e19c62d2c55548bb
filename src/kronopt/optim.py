"""Second-order optimizers on LayerCaptures: the rank-1 factor-inverse
method (paper-exact formula plus an algebraically exact Sherman-Morrison
variant), its hybrid first/second-order schedule, and KFAC / SNGD / SGD
baselines.

Conventions shared by every step function:
  * factor inverses start at the identity,
  * ``training.run_training`` alone writes factors: it decides the cadence
    (iterations where iter % inversion_period == 0, 1-based; period 0 means
    "never") and calls :func:`refresh_factors` or :func:`kfac_invert` on
    those iterations; the step functions only read the cached inverses,
    which precondition every step,
  * a step function forms each layer's update and returns it; the loop
    applies it once, to the run's one copy of the weights, through
    :func:`apply_update`, the only function here that touches a network,
  * state equal on every worker is held once: one FactorState per layer and
    one SgdState; a KfacState is one worker's covariances, inverted by
    :func:`kfac_invert`,
  * :func:`precondition` (mkor, mkor-h and kfac) forms L^-1 W_grad R^-1 in
    whichever form costs fewer flops for the layer: dense, 2oi(o + i) for an
    o x i layer, or through the B batch columns the workers' mean gradient
    is made of, 2B(o^2 + i^2 + oi) + oB.  The rank-B form weights a column
    of worker w by 1/(W b_w),
  * weights update as W <- W - lr * delta; biases take the raw gradient, or
    under sgd its velocity.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import counters, linalg
from .linalg import (
    NumericalError,
    add,
    blend_identity,
    dot,
    identity,
    inf_norm,
    matmul,
    matvec,
    mean_columns,
    outer,
    scale,
    scale_rank1,
)
from .net import LayerCapture, NetworkState

logger = logging.getLogger(__name__)

FP16_MAX = 65504.0


# ---------------------------------------------------------------------------
# state


@dataclass
class FactorState:
    """Per-layer inverse factors."""

    l_inv: np.ndarray
    r_inv: np.ndarray

    @classmethod
    def identity_init(cls, out_dim: int, in_dim: int) -> "FactorState":
        return cls(l_inv=identity(out_dim), r_inv=identity(in_dim))


@dataclass
class KfacState:
    """One worker's covariance factors of one layer."""

    l_cov: np.ndarray
    r_cov: np.ndarray

    @classmethod
    def identity_init(cls, out_dim: int, in_dim: int) -> "KfacState":
        return cls(l_cov=identity(out_dim), r_cov=identity(in_dim))


@dataclass
class HybridState:
    """Loss-decrease-rate tracker for the second-to-first-order switch."""

    window: int
    switch_ratio: float
    ema_decay: float = 0.9
    mode: str = "second_order"
    prev_loss: float | None = None
    first_loss: float | None = None
    loss_ema: float | None = None  # EMA of per-iteration loss decrease
    baseline_rate: float | None = None
    seen: int = 0


@dataclass
class SgdState:
    velocities: list[np.ndarray] = field(default_factory=list)
    bias_velocities: list[np.ndarray | None] = field(default_factory=list)


# ---------------------------------------------------------------------------
# elementary operations


def fp16_roundtrip(x):
    """Round each entry to the nearest IEEE binary16 value, then widen back.

    Entries beyond the fp16 range are clamped to +-65504, with a logged
    warning.
    """
    arr = np.asarray(x, dtype=np.float64)
    over = np.count_nonzero(np.abs(arr) > FP16_MAX)
    if over:
        logger.warning("fp16 roundtrip clamped %d entries", over)
        arr = np.clip(arr, -FP16_MAX, FP16_MAX)
    out = arr.astype(np.float16).astype(np.float64)
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def rank1_reduce(capture: LayerCapture) -> tuple[np.ndarray, np.ndarray]:
    """Column means of activations and pre-activation gradients: the rank-1
    stand-ins for the two covariance matrices."""
    return mean_columns(capture.a_prev), mean_columns(capture.g)


def stabilize(f_inv: np.ndarray, epsilon_norm: float, zeta: float) -> np.ndarray:
    """Blend toward the identity when the inverse factor's norm runs away.

    Returns zeta * F_inv + (1 - zeta) * I (``linalg.blend_identity``), a new
    array, when ||F_inv||_inf exceeds the threshold, otherwise F_inv itself.
    """
    if inf_norm(f_inv) <= epsilon_norm:
        return f_inv
    return blend_identity(f_inv, zeta)


def _check_denominator(t3: float) -> None:
    # the denominator g^2 (1 + g(1-g) v^T F^-1 v) is provably >= g^2
    if not t3 >= 1.0:
        raise NumericalError("rank-1 update denominator lost positivity")


def sm_update(f_inv: np.ndarray, v: np.ndarray, gamma: float) -> np.ndarray:
    """Rank-1 factor-inverse update, exactly as the update rule is printed:

        F_t^-1 = g*F^-1 + (1-g) / (g^2 (1 + g(1-g) v^T F^-1 v)) * F^-1 v v^T F^-1

    A new array; F^-1 is only read.  For exactly symmetric F^-1 the result
    is exactly symmetric by construction: g*F^-1 is, and so is the outer
    product u u^T, since u_i u_j = u_j u_i in IEEE arithmetic.  It stays
    positive-definite for PD input.
    """
    f = linalg.as_matrix(f_inv)
    u = matvec(f, v)
    t3 = 1.0 + gamma * (1.0 - gamma) * dot(v, u)
    _check_denominator(t3)
    return scale_rank1(f, u, gamma, (1.0 - gamma) / (gamma * gamma * t3))


def sm_update_quantized(f_inv, v, gamma: float) -> np.ndarray:
    """Same update with every input and intermediate rounded through fp16,
    one operation at a time."""
    q = fp16_roundtrip
    f_inv, v = q(f_inv), q(v)
    u = q(matvec(f_inv, v))
    quad = q(dot(v, u))
    t3 = q(1.0 + q(q(gamma * (1.0 - gamma)) * quad))
    _check_denominator(t3)
    coeff = q((1.0 - gamma) / q(q(gamma * gamma) * t3))
    term = q(scale(q(outer(u, u)), coeff))
    return q(add(q(scale(f_inv, gamma)), term))


def sm_update_exact(f_inv: np.ndarray, v: np.ndarray, gamma: float) -> np.ndarray:
    """Algebraically exact inverse of gamma*F + (1-gamma)*v v^T given F^-1.

    Standard Sherman-Morrison applied to the momentum covariance update;
    differs from :func:`sm_update` (leading 1/gamma vs gamma, negative rank-1
    correction).  Used to quantify the printed formula's divergence.
    """
    f = linalg.as_matrix(f_inv)
    u = matvec(f, v)
    denom = 1.0 + (1.0 - gamma) / gamma * dot(v, u)
    return scale_rank1(f, u, 1.0 / gamma, -(1.0 - gamma) / (gamma * gamma) / denom)


def precondition(l_inv, w_grad, r_inv, captures) -> np.ndarray:
    """L^-1 @ W_grad @ R^-1 for one o x i layer, in the form with fewer flops.

    ``w_grad`` is the workers' mean gradient and ``captures`` holds the
    layer's capture from each of the W workers.  Worker w's gradient is
    (1/b_w) G_w A_w^T, so over the B = sum_w b_w concatenated batch columns
    W_grad = G diag(c) A^T with c_j = 1/(W b_w) for a column of worker w
    (shards of unequal size give unequal b_w).  The two forms:

      dense   (L^-1 W_grad) R^-1                2oi(o + i) flops
      rank-B  ((L^-1 G) diag(c)) (A^T R^-1)    2B(o^2 + i^2 + oi) + oB flops

    The rank-B form is taken only when it costs strictly fewer flops.  It is
    the only form that concatenates the captures, and only when W > 1.
    """
    o, i = w_grad.shape
    batches = [cap.a_prev.shape[1] for cap in captures]
    n = sum(batches)
    if 2.0 * n * (o * o + i * i + o * i) + o * n >= 2.0 * o * i * (o + i):
        return matmul(matmul(l_inv, w_grad), r_inv)
    if len(captures) == 1:
        g, a = captures[0].g, captures[0].a_prev
    else:
        g = np.concatenate([cap.g for cap in captures], axis=1)
        a = np.concatenate([cap.a_prev for cap in captures], axis=1)
    weights = np.concatenate([np.full(b, 1.0 / (len(batches) * b)) for b in batches])
    left = matmul(l_inv, g) * weights
    counters.add_flops(float(left.size))
    return matmul(left, matmul(a.T, r_inv))


def rescale(delta_hat: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Scale the preconditioned update so its Frobenius norm matches the raw
    gradient's; degenerate (near-zero) updates fall back to the gradient.  A
    norm that is not finite raises NumericalError: scaling by ||grad||/inf
    would apply an all-zero update."""
    if delta_hat.shape != grad.shape:
        raise linalg.DimensionMismatch(f"rescale: {delta_hat.shape} vs {grad.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names an overflow
        nd = linalg.frobenius_norm(delta_hat)
    if not np.isfinite(nd):
        raise NumericalError("preconditioned update norm is not finite")
    if nd < 1e-30:
        return grad
    return scale(delta_hat, linalg.frobenius_norm(grad) / nd)


# ---------------------------------------------------------------------------
# full steps


def apply_update(net: NetworkState, idx: int, delta, bias_grad, lr: float) -> None:
    with counters.phase("weight_update"):
        np.subtract(net.weights[idx], lr * delta, out=net.weights[idx])
        counters.add_flops(2.0 * delta.size)
        if net.biases[idx] is not None and bias_grad is not None:
            np.subtract(net.biases[idx], lr * bias_grad, out=net.biases[idx])
            counters.add_flops(2.0 * bias_grad.size)


def refresh_factors(
    st: FactorState, a_bar: np.ndarray, g_bar: np.ndarray,
    gamma: float, zeta: float, epsilon_norm: float,
) -> None:
    """Stabilized rank-1 update of one layer's inverse factors from the
    synchronized batch-mean gradient (L) and activation (R) vectors."""
    with counters.phase("factor_update"):
        st.l_inv = sm_update(stabilize(st.l_inv, epsilon_norm, zeta), g_bar, gamma)
        st.r_inv = sm_update(stabilize(st.r_inv, epsilon_norm, zeta), a_bar, gamma)


def mkor_step(st: FactorState, grad: np.ndarray, captures: list[LayerCapture]) -> np.ndarray:
    """One layer's update: its gradient (the mean over the workers whose
    captures are given) preconditioned with the layer's cached inverse
    factors and rescaled to the gradient's norm.  The factors are only read
    here."""
    with counters.phase("precondition"):
        return rescale(precondition(st.l_inv, grad, st.r_inv, captures), grad)


def kfac_accumulate(state: KfacState, capture: LayerCapture, gamma: float) -> None:
    """Momentum update of the full covariance factors from one batch."""
    b = capture.a_prev.shape[1]
    with counters.phase("factor_update"):
        l_new = scale(linalg.gram(capture.g), 1.0 / b)
        r_new = scale(linalg.gram(capture.a_prev), 1.0 / b)
        state.l_cov = add(scale(state.l_cov, gamma), scale(l_new, 1.0 - gamma))
        state.r_cov = add(scale(state.r_cov, gamma), scale(r_new, 1.0 - gamma))


def kfac_invert(state: FactorState, cov: KfacState, damping: float) -> None:
    """Invert the damped covariance factors into ``state``'s inverses."""
    with counters.phase("inversion"):
        eye_l = identity(cov.l_cov.shape[0])
        eye_r = identity(cov.r_cov.shape[0])
        state.l_inv = linalg.direct_inverse(add(cov.l_cov, scale(eye_l, damping)))
        state.r_inv = linalg.direct_inverse(add(cov.r_cov, scale(eye_r, damping)))


def sngd_precondition(captures: list[LayerCapture], mu: float) -> list[np.ndarray]:
    """SMW-based natural-gradient update per layer:

        (1/mu) * (I - U (A^T A . G^T G + mu I)^-1 U^T) vec(grad)

    realized in matrix form without materializing U; the inverted kernel is
    b x b (``config.MAX_SNGD_BATCH`` bounds b).
    """
    updates = []
    for cap in captures:
        a, g, grad = cap.a_prev, cap.g, cap.w_grad
        b = a.shape[1]
        with counters.phase("factor_update"):
            kern = linalg.gram(a.T) * linalg.gram(g.T)
            counters.add_flops(float(kern.size))
        with counters.phase("inversion"):
            kinv = linalg.direct_inverse(add(kern, scale(identity(b), mu)))
        with counters.phase("precondition"):
            p = matmul(grad, a)  # d x b
            t = np.sum(g * p, axis=0)  # t_i = g_i^T grad a_i
            counters.add_flops(2.0 * g.size)
            y = matvec(kinv, t)
            correction = matmul(g * y[None, :], a.T)
            counters.add_flops(float(g.size))
            updates.append(scale(add(grad, scale(correction, -1.0)), 1.0 / mu))
    return updates


def sgd_momentum_step(
    grads: list[np.ndarray], bias_grads: list[np.ndarray | None], momentum: float,
    state: SgdState,
) -> tuple[list[np.ndarray], list[np.ndarray | None]]:
    """Heavy-ball velocities v <- momentum*v + grad, held once per run and
    written in place, for the weights and the biases (None for a layer
    without bias); they are the update."""
    if not state.velocities:
        state.velocities = [np.zeros_like(g) for g in grads]
        state.bias_velocities = [None if bg is None else np.zeros_like(bg) for bg in bias_grads]
    with counters.phase("weight_update"):
        for vel, grad in zip(state.velocities + state.bias_velocities, grads + bias_grads):
            if vel is not None:
                np.multiply(vel, momentum, out=vel)
                np.add(vel, grad, out=vel)
                counters.add_flops(2.0 * vel.size)
    return state.velocities, state.bias_velocities


def mkorh_maybe_switch(h: HybridState, loss_t: float) -> HybridState:
    """Update the loss-decrease EMA; fall back to first-order permanently once
    the recent decrease rate drops below switch_ratio times the rate observed
    over the first `window` second-order iterations."""
    if h.mode == "first_order":
        return h
    if h.prev_loss is None:
        h.prev_loss = loss_t
        h.first_loss = loss_t
        return h
    dec = h.prev_loss - loss_t
    h.prev_loss = loss_t
    h.seen += 1
    h.loss_ema = dec if h.loss_ema is None else (
        h.ema_decay * h.loss_ema + (1.0 - h.ema_decay) * dec
    )
    if h.seen == h.window:
        h.baseline_rate = (h.first_loss - loss_t) / h.window
    elif h.baseline_rate is not None and h.seen > h.window:
        if h.baseline_rate <= 0.0 or h.loss_ema < h.switch_ratio * h.baseline_rate:
            h.mode = "first_order"
    return h
