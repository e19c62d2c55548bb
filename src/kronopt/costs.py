"""Cost accounting: analytic leading-term counts per optimizer (the
complexity-table analog) and the measured counters of a training run.

Element counts are the primary unit; big-O rows are rendered as exact
leading-term counts with the printed constants, lower-order terms excluded.
Communication bytes assume a 4-byte wire format, halved to 2 bytes under
half-precision; both the element count and the byte count are reported since
the "divide by 2" shorthand conflates them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

OPTIMIZERS = ("mkor", "mkor-h", "kfac", "sngd", "eva", "sgd", "adam", "lamb")
# the tags that sync rank-1 vectors, the only payload that may ship half width
RANK1_OPTIMIZERS = ("mkor", "mkor-h")

WIRE_BYTES_FULL = 4
WIRE_BYTES_HALF = 2


@dataclass
class CostReport:
    optimizer: str
    d: int
    b: int
    flops_factor_update: float = 0.0
    flops_precondition: float = 0.0
    comm_elements: float = 0.0
    comm_bytes: float = 0.0
    memory_elements: float = 0.0

    def __post_init__(self):
        for name in (
            "flops_factor_update",
            "flops_precondition",
            "comm_elements",
            "comm_bytes",
            "memory_elements",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def analytic_cost(optimizer: str, d: int, b: int, half_precision: bool = False) -> CostReport:
    """Leading-term per-layer, per-sync costs for one optimizer.

    Computation counts cover the second-order factor work only (the piece the
    complexity table compares); preconditioning is reported separately since
    every second-order method pays the same two dense products there.
    """
    if d < 1 or b < 1:
        raise ValueError("d and b must be >= 1")
    opt = optimizer.lower()
    if opt not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer tag {optimizer!r}")
    width = WIRE_BYTES_HALF if half_precision else WIRE_BYTES_FULL
    if opt in RANK1_OPTIMIZERS:
        return CostReport(
            optimizer=opt, d=d, b=b,
            flops_factor_update=float(d * d + b * d),
            flops_precondition=2.0 * d**3,
            comm_elements=2.0 * d,
            comm_bytes=2.0 * d * width,
            memory_elements=2.0 * d * d,
        )
    if opt == "kfac":
        return CostReport(
            optimizer=opt, d=d, b=b,
            flops_factor_update=float(d**3),
            flops_precondition=2.0 * d**3,
            comm_elements=4.0 * d * d,
            comm_bytes=4.0 * d * d * WIRE_BYTES_FULL,
            memory_elements=4.0 * d * d,
        )
    if opt == "sngd":
        return CostReport(
            optimizer=opt, d=d, b=b,
            flops_factor_update=float(b**3),
            flops_precondition=2.0 * b * d * d,
            comm_elements=2.0 * b * d + float(b * b),
            comm_bytes=(2.0 * b * d + b * b) * WIRE_BYTES_FULL,
            memory_elements=2.0 * b * d + float(b * b),
        )
    if opt == "eva":
        return CostReport(
            optimizer=opt, d=d, b=b,
            flops_factor_update=float(d * d + b * d),
            flops_precondition=2.0 * d**3,
            comm_elements=2.0 * d,
            comm_bytes=2.0 * d * WIRE_BYTES_FULL,
            memory_elements=2.0 * d,
        )
    # first-order rows: optimizer state only, no factor traffic
    return CostReport(
        optimizer=opt, d=d, b=b,
        flops_factor_update=0.0,
        flops_precondition=0.0,
        comm_elements=0.0,
        comm_bytes=0.0,
        memory_elements=float(d * d),
    )


@dataclass
class RunTrace:
    """Raw instrumentation from a training run."""

    optimizer: str
    d: int
    b: int
    workers: int
    flops: dict  # phase -> total count
    comm_elements: float
    comm_bytes: float
    memory_elements: float
    sync_events: int
    step_wall_ms: list[float] = field(default_factory=list)


COST_CSV_COLUMNS = (
    "optimizer",
    "phase",
    "d",
    "b",
    "workers",
    "flops",
    "comm_elements",
    "comm_bytes",
    "memory_elements",
)


def cost_csv_rows(trace: RunTrace) -> list[dict]:
    """One row per phase, ready for the cost CSV."""
    rows = []
    for phase_name in ("factor_update", "inversion", "precondition", "weight_update", "forward_backward"):
        rows.append(
            {
                "optimizer": trace.optimizer,
                "phase": phase_name,
                "d": trace.d,
                "b": trace.b,
                "workers": trace.workers,
                "flops": repr(trace.flops.get(phase_name, 0.0)),
                "comm_elements": repr(trace.comm_elements) if phase_name == "factor_update" else "0.0",
                "comm_bytes": repr(trace.comm_bytes) if phase_name == "factor_update" else "0.0",
                "memory_elements": repr(trace.memory_elements) if phase_name == "factor_update" else "0.0",
            }
        )
    return rows
