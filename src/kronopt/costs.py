"""Cost accounting: the one statement of each optimizer's per-layer costs (the
complexity-table analog), the traffic tally and the measured counters of a
training run.

Flops and communication are leading-term counts with the printed constants,
lower-order terms excluded.  Memory is exact: :func:`layer_memory` is the
rule a training run sums, and the table's memory column reads it at a square
d x d layer.  Communication bytes assume a 4-byte wire format, halved to 2
bytes under half-precision; both the element count and the byte count are
reported since the "divide by 2" shorthand conflates them.
"""

from __future__ import annotations

from dataclasses import dataclass

OPTIMIZERS = ("mkor", "mkor-h", "kfac", "sngd", "eva", "sgd", "adam", "lamb")
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
    if optimizer in ("adam", "lamb"):  # two moment estimates per weight
        return 2.0 * i * o
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
    complexity table compares); preconditioning is reported separately since
    every second-order method pays the same two dense products there.
    """
    if d < 1 or b < 1:
        raise ValueError("d and b must be >= 1")
    if optimizer not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer tag {optimizer!r}")
    # (factor-update flops, precondition flops, comm elements)
    if optimizer in RANK1_OPTIMIZERS or optimizer == "eva":
        row = (d * d + b * d, 2 * d**3, 2 * d)
    elif optimizer == "kfac":
        row = (d**3, 2 * d**3, 4 * d * d)
    elif optimizer == "sngd":
        row = (b**3, 2 * b * d * d, 2 * b * d + b * b)
    else:  # first-order rows: optimizer state only, no factor work or traffic
        row = (0, 0, 0)
    factor, precond, comm = map(float, row)
    return CostReport(
        optimizer, d, b, factor, precond, comm,
        comm * _wire_bytes(half_precision), layer_memory(optimizer, d, d, b),
    )


@dataclass
class Traffic:
    """Elements and bytes the optimizer's collectives ship between workers."""

    workers: int
    elements: float = 0.0
    wire_bytes: float = 0.0

    def ship(self, size: int, half_precision: bool = False) -> None:
        if self.workers > 1:  # nothing ships on one worker
            self.elements += size
            self.wire_bytes += size * _wire_bytes(half_precision)


@dataclass
class RunTrace:
    """Raw instrumentation from a training run."""

    flops: dict  # phase -> total count
    comm_elements: float
    comm_bytes: float
    memory_elements: float
    sync_events: int
    step_wall_ms: list[float]


COST_CSV_COLUMNS = (
    "optimizer", "phase", "d", "b", "workers", "flops", "comm_elements", "comm_bytes",
    "memory_elements",
)


def cost_csv_rows(trace: RunTrace, cfg) -> list[dict]:
    """One row per phase of the run ``cfg`` configured, ready for the cost
    CSV; d is the widest layer dimension."""
    rows = []
    for phase_name in ("factor_update", "inversion", "precondition", "weight_update", "forward_backward"):
        rows.append(
            {
                "optimizer": cfg.optimizer,
                "phase": phase_name,
                "d": max(cfg.net_dims),
                "b": cfg.batch,
                "workers": cfg.workers,
                "flops": repr(trace.flops.get(phase_name, 0.0)),
                "comm_elements": repr(trace.comm_elements) if phase_name == "factor_update" else "0.0",
                "comm_bytes": repr(trace.comm_bytes) if phase_name == "factor_update" else "0.0",
                "memory_elements": repr(trace.memory_elements) if phase_name == "factor_update" else "0.0",
            }
        )
    return rows
