"""Cost accounting: the one statement of each optimizer's per-layer costs (the
complexity-table analog), and :class:`RunTrace`, the one ledger of a training
run's measured costs.

Flops and communication are leading-term counts with the printed constants,
lower-order terms excluded.  Memory is exact: :func:`layer_memory` is the
rule a training run sums, and the table's memory column reads it at a square
d x d layer.  Communication bytes assume a 4-byte wire format, halved to 2
bytes under half-precision; both the element count and the byte count are
reported since the "divide by 2" shorthand conflates them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .counters import PHASES

OPTIMIZERS = ("mkor", "mkor-h", "kfac", "sngd", "eva", "sgd")
# the tags that sync rank-1 vectors, the only payload that may ship half width
RANK1_OPTIMIZERS = ("mkor", "mkor-h")

WIRE_BYTES_FULL = 4
WIRE_BYTES_HALF = 2


def _wire_bytes(half_precision: bool) -> int:
    return WIRE_BYTES_HALF if half_precision else WIRE_BYTES_FULL


def layer_memory(optimizer: str, out_dim: int, in_dim: int, b: int) -> float:
    """Elements the optimizer holds for one out_dim x in_dim layer at batch b."""
    i, o = in_dim, out_dim
    if optimizer in RANK1_OPTIMIZERS:  # both inverses, and the rank-1 vectors held during a sync
        return float(i * i + o * o + i + o)
    if optimizer == "kfac":  # both covariances and both inverses
        return 2.0 * (i * i + o * o)
    if optimizer == "sngd":  # batch activations and gradients plus the batch kernel
        return float(2 * b * max(i, o) + b * b)
    if optimizer == "eva":  # running means of the activation and gradient
        return float(i + o)
    return float(i * o)  # sgd: one velocity per weight


@dataclass
class CostReport:
    optimizer: str
    d: int
    b: int
    flops_factor_update: float
    flops_precondition: float
    comm_elements: float
    comm_bytes: float
    memory_elements: float


def analytic_cost(optimizer: str, d: int, b: int, half_precision: bool = False) -> CostReport:
    """Per-layer, per-sync costs of one optimizer at a d x d layer.

    Computation counts cover the second-order factor work only (the piece the
    complexity table compares); preconditioning is reported separately.  A
    Kronecker-factored method preconditions in the cheaper of two forms
    (``optim.precondition``): two dense d x d products, 2d^3, or three
    products through the gradient's b batch columns, 3bd^2.
    """
    if d < 1 or b < 1:
        raise ValueError("d and b must be >= 1")
    if optimizer not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer tag {optimizer!r}")
    kron_precondition = min(2 * d**3, 3 * b * d * d)
    # (factor-update flops, precondition flops, comm elements)
    if optimizer in RANK1_OPTIMIZERS or optimizer == "eva":
        row = (d * d + b * d, kron_precondition, 2 * d)
    elif optimizer == "kfac":
        row = (d**3, kron_precondition, 4 * d * d)
    elif optimizer == "sngd":
        row = (b**3, 2 * b * d * d, 2 * b * d + b * b)
    else:  # sgd: its velocity only, no factor work or traffic
        row = (0, 0, 0)
    factor, precond, comm = map(float, row)
    return CostReport(
        optimizer, d, b, factor, precond, comm,
        comm * _wire_bytes(half_precision), layer_memory(optimizer, d, d, b),
    )


@dataclass
class RunTrace:
    """The ledger of one training run.  It tallies what ``run_training``
    tells it, from before iteration 1 on: flops by phase through
    :func:`kronopt.counters.recording`, traffic through :meth:`ship`, sync
    events and per-step wall times.  Which collectives ship is the loop's
    rule.  The step times, its one wall-clock measure, enter no artifact."""

    memory_elements: float
    flops: dict = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0))  # phase -> total count
    comm_elements: float = 0.0
    comm_bytes: float = 0.0
    sync_events: int = 0
    step_wall_ms: list[float] = field(default_factory=list)

    def ship(self, size: int, half_precision: bool = False) -> None:
        """Tally one collective's payload of ``size`` elements."""
        self.comm_elements += size
        self.comm_bytes += size * _wire_bytes(half_precision)


def cost_csv_rows(trace: RunTrace, cfg) -> list[dict]:
    """One row per counted phase of the run ``cfg`` configured, ready for the
    cost CSV; d is the widest layer dimension.  The run's totals are in
    summary.json."""
    return [
        {
            "optimizer": cfg.optimizer,
            "phase": phase_name,
            "d": max(cfg.net_dims),
            "b": cfg.batch,
            "workers": cfg.workers,
            "flops": repr(trace.flops[phase_name]),
        }
        for phase_name in PHASES
        if phase_name != "other"
    ]
