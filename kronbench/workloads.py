"""The benchmark's workloads: fixed kronopt training configurations.

Each workload is a closed loop (an iteration starts only after the previous
one ends) in one process with one BLAS thread.  The configs are passed to the
program as ``--set key=value`` overrides, so any of them can be replayed with
``kronopt train --seed S --set ...``.
"""

from __future__ import annotations

from dataclasses import dataclass

# Iterations of one training run.  A benchmark run of about 30 s affords
# roughly 120 iterations at d=256; they are spent on several short runs over
# different seeds, because the loss metrics vary more between seeds than
# between repeats (see README.md).  The length is set by that time budget,
# not by the factor blow-up horizon, which lies near 850 syncs.
ITERATIONS = 12
LAYERS = 3
BATCH = 32

COMMON = (
    "dataset.kind=random-autoencoder",
    "dataset.n=1024",
    f"batch={BATCH}",
    "loss=mse",
    "net.activation=tanh",
    "lr=0.01",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    optimizer: str
    d: int
    workers: int
    inversion_period: int
    # A loss every seed tried reaches within the first half of the run.
    target_loss: float
    extra: tuple[str, ...] = ()
    iterations: int = ITERATIONS

    def overrides(self) -> list[str]:
        dims = ",".join([str(self.d)] * (LAYERS + 1))
        return [
            *COMMON,
            f"optimizer={self.optimizer}",
            f"net.dims={dims}",
            f"dataset.dim={self.d}",
            f"workers={self.workers}",
            f"inversion_period={self.inversion_period}",
            f"iterations={self.iterations}",
            *self.extra,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mkor-ae256",
            why="MKOR at its usual cadence: precondition reads of the factor "
            "inverses dominate, factor writes on 1 step in 10; no inversion, no replicas",
            optimizer="mkor",
            d=256,
            workers=1,
            inversion_period=10,
            target_loss=950.0,
        ),
        Workload(
            name="mkor-ae256-p1",
            why="MKOR rewriting the factor inverses every step: write cost, "
            "stabilizer firing and factor-norm drift show here",
            optimizer="mkor",
            d=256,
            workers=1,
            inversion_period=1,
            target_loss=950.0,
        ),
        Workload(
            name="kfac-ae128-w4",
            why="KFAC with 4 simulated workers: the only Gauss-Jordan inversion, "
            "covariance accumulation and sync traffic; bypasses the rank-1 path",
            optimizer="kfac",
            d=128,
            workers=4,
            inversion_period=10,
            target_loss=450.0,
            extra=("damping=0.1",),
        ),
    )
}
