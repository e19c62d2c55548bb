"""Per-iteration cost accounting: analytic leading-term counts per optimizer
(the complexity-table analog) and measured counters from instrumented runs.

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
    flops_inversion: float = 0.0
    flops_forward_backward: float = 0.0
    flops_weight_update: float = 0.0
    wall_ms: dict = field(default_factory=dict)
    workers: int = 1

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
    iterations: int
    flops: dict  # phase -> total count
    wall_ms: dict  # phase -> total ms
    comm_elements: float
    comm_bytes: float
    memory_elements: float
    sync_events: int
    step_wall_ms: list[float] = field(default_factory=list)


def measured_cost(trace: RunTrace) -> CostReport:
    """Convert raw run counters into a per-iteration CostReport, phase-split
    the way the time-breakdown figure slices an optimizer step: factor
    computation, preconditioning, and weight update."""
    iters = max(trace.iterations, 1)
    return CostReport(
        optimizer=trace.optimizer,
        d=trace.d,
        b=trace.b,
        workers=trace.workers,
        flops_factor_update=(
            trace.flops.get("factor_update", 0.0) + trace.flops.get("inversion", 0.0)
        ) / iters,
        flops_inversion=trace.flops.get("inversion", 0.0) / iters,
        flops_precondition=trace.flops.get("precondition", 0.0) / iters,
        flops_forward_backward=trace.flops.get("forward_backward", 0.0) / iters,
        flops_weight_update=trace.flops.get("weight_update", 0.0) / iters,
        comm_elements=trace.comm_elements / iters,
        comm_bytes=trace.comm_bytes / iters,
        memory_elements=trace.memory_elements,
        wall_ms={k: v / iters for k, v in trace.wall_ms.items()},
    )


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
    "wall_ms",
)


def cost_csv_rows(trace: RunTrace, include_wall: bool = False) -> list[dict]:
    """One row per phase, ready for the cost CSV.  Wall-clock is secondary
    and noisy, so it is emitted only on request to keep artifacts bitwise
    reproducible."""
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
                "wall_ms": repr(trace.wall_ms.get(phase_name, 0.0)) if include_wall else "",
            }
        )
    return rows
