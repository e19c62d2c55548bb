"""Process-wide flop accounting, bucketed by pipeline phase.

The training loop brackets each stage with ``phase(...)`` so that the dense
kernels in :mod:`kronopt.linalg` can stay ignorant of which stage they serve.
Counts are floating multiply/add operations as implemented (not big-O).
Wall-clock time is not kept here; only the training loop's per-step times
(``RunTrace.step_wall_ms``) are measured, and they enter no artifact.
"""

from __future__ import annotations

from contextlib import contextmanager

PHASES = (
    "forward_backward",
    "factor_update",
    "inversion",
    "precondition",
    "weight_update",
    "other",
)

_flops: dict[str, float] = {p: 0.0 for p in PHASES}
_stack: list[str] = []


def reset() -> None:
    for p in PHASES:
        _flops[p] = 0.0
    _stack.clear()


def current_phase() -> str:
    return _stack[-1] if _stack else "other"


def add_flops(n: float) -> None:
    _flops[current_phase()] += n


@contextmanager
def phase(name: str):
    """Attribute flops to ``name`` for the duration of the block."""
    if name not in PHASES:
        raise ValueError(f"unknown phase {name!r}")
    _stack.append(name)
    try:
        yield
    finally:
        _stack.pop()


def flops_snapshot() -> dict[str, float]:
    return dict(_flops)
