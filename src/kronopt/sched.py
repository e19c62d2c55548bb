"""Learning-rate schedules: knee-point detection on the loss plus plain
milestone decay."""

from __future__ import annotations

from dataclasses import dataclass, field

HYSTERESIS_ITERS = 10  # min spacing between knee triggers


@dataclass
class KneePointState:
    """Detects knee points in the loss: the smoothed per-step improvement
    falling below beta times the average improvement since the current lr was
    set triggers a decay.

    The loss formulation is implemented (decreasing metric = improvement);
    EMA decay is fixed at 0.9.
    """

    lr: float
    beta: float
    decay_factor: float
    ema_decay: float = 0.9
    ema_rate: float | None = None
    baseline_gain: float = 0.0  # total improvement since lr was set
    steps_since_change: int = 0
    prev_metric: float | None = None
    trigger_iterations: list[int] = field(default_factory=list)
    _iter: int = 0


def knee_point_update(state: KneePointState, metric_t: float) -> tuple[KneePointState, float]:
    """Feed one loss observation; returns (state, current lr).

    Trigger condition compares rates on both sides: ema_rate < beta *
    (baseline_gain / steps since the lr change).  A 10-iteration hysteresis
    guard spaces out consecutive decays.
    """
    state._iter += 1
    if state.prev_metric is None:
        state.prev_metric = metric_t
        return state, state.lr
    dec = state.prev_metric - metric_t
    state.prev_metric = metric_t
    state.ema_rate = dec if state.ema_rate is None else (
        state.ema_decay * state.ema_rate + (1.0 - state.ema_decay) * dec
    )
    state.baseline_gain += dec
    state.steps_since_change += 1
    recently_fired = (
        state.trigger_iterations
        and state._iter - state.trigger_iterations[-1] < HYSTERESIS_ITERS
    )
    if (
        not recently_fired
        and state.baseline_gain > 0.0
        and state.ema_rate < state.beta * (state.baseline_gain / state.steps_since_change)
    ):
        state.lr *= state.decay_factor
        state.baseline_gain = 0.0
        state.steps_since_change = 0
        state.trigger_iterations.append(state._iter)
    return state, state.lr


def step_decay(epoch: int, milestones, factor: float, base_lr: float) -> float:
    """lr = base_lr * factor^(number of milestones at or before `epoch`)."""
    passed = sum(1 for m in milestones if epoch >= m)
    return base_lr * factor**passed
