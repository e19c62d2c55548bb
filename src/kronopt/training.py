"""Training loop over logical workers: the only code that trains, and the
only place that decides on which iterations the factors update.

Workers are simulated sequentially in ascending id order inside one process,
which makes every reduction order (and therefore every float result) fixed.
Weight gradients are averaged across workers as ambient data-parallel
traffic; the *optimizer's* communication tally counts only the second-order
sync payload that the method itself ships (rank-1 vectors for the rank-1
optimizer, covariance factors plus inverses for KFAC), matching the
complexity-table accounting where first-order rows communicate nothing.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from . import counters, linalg, optim
from .analysis import Rank1ErrorRecord, covariance_records
from .config import ExperimentConfig
from .costs import WIRE_BYTES_FULL, WIRE_BYTES_HALF, RunTrace
from .data import Dataset, batch_slice, shard_dataset, synth_dataset, idx_dataset
from .net import NetworkState, backward, forward, init_network
from .optim import (
    FactorState,
    HybridState,
    KfacState,
    SgdState,
    allreduce_rank1,
    kfac_accumulate,
    kfac_invert,
    mkor_step,
    mkorh_maybe_switch,
    precondition,
    rank1_reduce,
    sgd_momentum_step,
    sngd_step,
)
from .sched import KneePointState, knee_point_update, step_decay


@dataclass
class RunResult:
    """What one run leaves behind.  ``net`` and ``states`` are worker 0's
    final weights and per-layer factor states (FactorState for mkor/mkor-h,
    KfacState for kfac, empty for sgd/sngd)."""

    losses: list[float]
    lrs: list[float]
    net: NetworkState
    trace: RunTrace
    workers_identical: bool = True
    switch_iteration: int | None = None
    weight_digests: list[str] = field(default_factory=list)
    rank1_records: list[Rank1ErrorRecord] = field(default_factory=list)
    states: list[FactorState | KfacState] = field(default_factory=list)


def build_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.dataset_kind == "idx":
        return idx_dataset(cfg.dataset_images, cfg.dataset_labels)
    return synth_dataset(cfg.dataset_kind, cfg.dataset_n, cfg.seed, **cfg.dataset_params)


def _second_order_memory(states) -> float:
    total = 0.0
    for st in states:
        if isinstance(st, FactorState):
            total += st.l_inv.size + st.r_inv.size + st.a_bar.size + st.g_bar.size
        elif isinstance(st, KfacState):
            total += st.l_cov.size + st.r_cov.size + st.l_inv.size + st.r_inv.size
    return total


def _digest(nets: list[NetworkState]) -> str:
    h = hashlib.sha256()
    for net in nets:
        for w in net.weights:
            h.update(w.tobytes())
        for b in net.biases:
            if b is not None:
                h.update(b.tobytes())
    return h.hexdigest()


def _mean_over_workers(arrays: list[np.ndarray]) -> np.ndarray:
    acc = np.zeros_like(arrays[0])
    for a in arrays:
        np.add(acc, a, out=acc)
    return acc / float(len(arrays))


def run_training(
    cfg: ExperimentConfig,
    shards: list[Dataset] | None = None,
    trace_weights: bool = False,
) -> RunResult:
    """Run the configured experiment; returns losses, worker 0's final net and
    factor states, and the instrumentation trace.  ``shards`` overrides
    dataset construction and sharding, which lets callers hand identical
    shards to several workers."""
    cfg.validate()
    if shards is None:
        shards = shard_dataset(build_dataset(cfg), cfg.workers, cfg.seed)
    if len(shards) != cfg.workers:
        raise ValueError(f"expected {cfg.workers} shards, got {len(shards)}")
    for i, sh in enumerate(shards):
        if sh.n == 0:
            raise ValueError(f"shard {i} is empty")

    counters.reset()
    n_workers = cfg.workers
    rng = linalg.make_rng(cfg.seed)
    specs = cfg.layer_specs()
    base_net = init_network(specs, rng)
    nets = [base_net] + [base_net.copy() for _ in range(n_workers - 1)]

    opt = cfg.optimizer
    factor_states: list[list] = []
    sgd_states = [SgdState() for _ in range(n_workers)]
    hybrid = None
    if opt in ("mkor", "mkor-h"):
        factor_states = [
            [FactorState.identity_init(s.out_dim, s.in_dim) for s in specs]
            for _ in range(n_workers)
        ]
        if opt == "mkor-h":
            hybrid = HybridState(window=cfg.window, switch_ratio=cfg.switch_ratio)
    elif opt == "kfac":
        factor_states = [
            [KfacState.identity_init(s.out_dim, s.in_dim) for s in specs]
            for _ in range(n_workers)
        ]

    knee = KneePointState(lr=cfg.lr, beta=cfg.beta, decay_factor=cfg.decay_factor) \
        if cfg.scheduler == "knee" else None
    epoch_iters = cfg.epoch_iters or max(1, -(-shards[0].n // cfg.batch))
    wire = WIRE_BYTES_HALF if cfg.half_precision_comm else WIRE_BYTES_FULL

    losses: list[float] = []
    lrs: list[float] = []
    digests: list[str] = []
    rank1_records: list[Rank1ErrorRecord] = []
    step_wall: list[float] = []
    comm_elements = 0.0
    comm_bytes = 0.0
    sync_events = 0
    switch_iteration = None
    lr_t = cfg.lr

    for t in range(1, cfg.iterations + 1):
        t0 = time.perf_counter()
        worker_caps = []
        worker_losses = []
        with counters.phase("forward_backward"):
            for w in range(n_workers):
                x, y = batch_slice(shards[w], t, cfg.batch)
                out, net_trace = forward(nets[w], x)
                lval, caps = backward(nets[w], net_trace, y, cfg.loss)
                worker_caps.append(caps)
                worker_losses.append(lval)
        loss_t = sum(worker_losses) / n_workers
        losses.append(loss_t)

        if knee is not None:
            knee, lr_t = knee_point_update(knee, loss_t)
        elif cfg.scheduler == "step":
            epoch = (t - 1) // epoch_iters
            lr_t = step_decay(epoch, cfg.milestones, cfg.decay_factor, base_lr=cfg.lr)
        lrs.append(lr_t)

        # ambient data-parallel gradient averaging (not optimizer traffic)
        grads = [
            _mean_over_workers([worker_caps[w][l].w_grad for w in range(n_workers)])
            for l in range(len(specs))
        ]
        bias_grads = [
            _mean_over_workers([worker_caps[w][l].b_grad for w in range(n_workers)])
            if worker_caps[0][l].b_grad is not None else None
            for l in range(len(specs))
        ]

        if hybrid is not None:
            mkorh_maybe_switch(hybrid, loss_t)
            if hybrid.mode == "first_order" and switch_iteration is None:
                switch_iteration = t

        if opt == "sgd" or (hybrid is not None and hybrid.mode == "first_order"):
            for w in range(n_workers):
                sgd_momentum_step(
                    nets[w], grads, lr_t, cfg.momentum, sgd_states[w], bias_grads
                )
        elif opt in ("mkor", "mkor-h"):
            f = cfg.inversion_period
            synced = None
            if f > 0 and t % f == 0:
                with counters.phase("factor_update"):
                    synced = [
                        allreduce_rank1(
                            [rank1_reduce(worker_caps[w][l]) for w in range(n_workers)],
                            half_precision=cfg.half_precision_comm,
                        )
                        for l in range(len(specs))
                    ]
                sync_events += 1
                if n_workers > 1:
                    payload = sum(s.in_dim + s.out_dim for s in specs)
                    comm_elements += payload
                    comm_bytes += payload * wire
            for w in range(n_workers):
                mkor_step(
                    nets[w], factor_states[w], grads, bias_grads,
                    lr_t, cfg.gamma, cfg.zeta, cfg.epsilon_norm, synced=synced,
                )
        elif opt == "kfac":
            for w in range(n_workers):
                for l in range(len(specs)):
                    kfac_accumulate(factor_states[w][l], worker_caps[w][l], cfg.gamma)
            f = cfg.inversion_period
            if f > 0 and t % f == 0:
                with counters.phase("factor_update"):
                    if n_workers > 1:
                        for l in range(len(specs)):
                            l_cov = _mean_over_workers(
                                [factor_states[w][l].l_cov for w in range(n_workers)]
                            )
                            r_cov = _mean_over_workers(
                                [factor_states[w][l].r_cov for w in range(n_workers)]
                            )
                            for w in range(n_workers):
                                factor_states[w][l].l_cov = l_cov.copy()
                                factor_states[w][l].r_cov = r_cov.copy()
                sync_events += 1
                if n_workers > 1:
                    # covariances synchronized + inverses broadcast
                    payload = sum(
                        2 * (s.in_dim**2 + s.out_dim**2) for s in specs
                    )
                    comm_elements += payload
                    comm_bytes += payload * WIRE_BYTES_FULL
                for w in range(n_workers):
                    for l in range(len(specs)):
                        kfac_invert(factor_states[w][l], cfg.damping)
            for w in range(n_workers):
                for l in range(len(specs)):
                    st = factor_states[w][l]
                    with counters.phase("precondition"):
                        delta = precondition(st.l_inv, grads[l], st.r_inv)
                    optim._apply_update(nets[w], l, delta, bias_grads[l], lr_t)
        elif opt == "sngd":
            sngd_step(nets[0], worker_caps[0], grads, bias_grads, cfg.damping, lr_t)
            comm_elements += sum(
                2 * cfg.batch * max(s.in_dim, s.out_dim) + cfg.batch**2 for s in specs
            )
            comm_bytes = comm_elements * WIRE_BYTES_FULL
            sync_events += 1

        if cfg.rank1_every > 0 and (t == 1 or t % cfg.rank1_every == 0):
            rank1_records.extend(covariance_records(worker_caps[0], t))
        if trace_weights:
            digests.append(_digest(nets))
        step_wall.append((time.perf_counter() - t0) * 1e3)

    workers_identical = all(
        all(np.array_equal(nets[w].weights[l], nets[0].weights[l]) for l in range(len(specs)))
        for w in range(1, n_workers)
    )

    memory = _second_order_memory(factor_states[0]) if factor_states else (
        sum(w.size for w in nets[0].weights) if opt == "sgd" else
        sum(2 * cfg.batch * max(s.in_dim, s.out_dim) + cfg.batch**2 for s in specs)
    )
    trace = RunTrace(
        optimizer=opt,
        d=max(max(s.in_dim, s.out_dim) for s in specs),
        b=cfg.batch,
        workers=n_workers,
        iterations=cfg.iterations,
        flops=counters.flops_snapshot(),
        wall_ms=counters.wall_snapshot_ms(),
        comm_elements=comm_elements,
        comm_bytes=comm_bytes,
        memory_elements=memory,
        sync_events=sync_events,
        step_wall_ms=step_wall,
    )
    return RunResult(
        losses=losses,
        lrs=lrs,
        net=nets[0],
        trace=trace,
        workers_identical=workers_identical,
        switch_iteration=switch_iteration,
        weight_digests=digests,
        rank1_records=rank1_records,
        states=factor_states[0] if factor_states else [],
    )

