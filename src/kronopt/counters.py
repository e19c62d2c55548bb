"""Flop accounting, bucketed by pipeline phase, into the run being recorded.

The training loop runs inside ``recording(trace.flops)`` and brackets each
stage with ``phase(...)``, so that the dense kernels in :mod:`kronopt.linalg`
can stay ignorant of which stage, and which run, they serve.  Outside a
recording nothing is tallied, so no total outlives its run.  Counts are
floating multiply/add operations as implemented (not big-O).
"""

from __future__ import annotations

from contextlib import contextmanager

# in cost.csv's row order; "other" holds what no phase brackets and is not a row
PHASES = (
    "factor_update",
    "inversion",
    "precondition",
    "weight_update",
    "forward_backward",
    "other",
)

_tally: dict[str, float] | None = None
_stack: list[str] = []


def add_flops(n: float) -> None:
    if _tally is not None:
        _tally[_stack[-1] if _stack else "other"] += n


@contextmanager
def recording(tally: dict[str, float]):
    """Add the flops counted in the block to ``tally``, keyed by phase."""
    global _tally
    _tally = tally
    try:
        yield
    finally:
        _tally = None


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
