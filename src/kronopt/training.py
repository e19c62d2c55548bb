"""Training loop over logical workers: the only code that trains, and the
only place that decides on which iterations the factors sync.

Workers are simulated sequentially in ascending id order inside one process,
which makes every reduction order (and therefore every float result) fixed.

Sync rule: on 1-based iteration t a second-order optimizer syncs its factor
statistics when inversion_period > 0 and t % inversion_period == 0; sngd
syncs every iteration; sgd never syncs, and neither does mkor-h once it has
switched to first order.  Only the sync step writes inverse factors; cached
inverses precondition every step.

Failures: every factor write goes through ``_write_factors``, which fails a
write that leaves an inverse non-finite; it and mkor's precondition step
prefix ``iteration T, layer L, phase P:`` to any SingularMatrix or
NumericalError, through ``_named``.  A non-finite loss raises
NumericalError naming the iteration.  The factor write, forward/backward and
the update norm in ``optim.rescale`` run with numpy's overflow warnings off,
so the named error is all the user sees.

Updates: optimizers form each layer's update, and this loop alone applies it
to every worker's weight replica through ``optim.apply_update``.  mkor and
mkor-h form it once per replica, because the benchmark's 2-worker smoke run
pins their replica ratio at 0.5; the others once per step.  State equal on
every worker (factors, velocities) exists once per run; a worker holds only
its weight replica and its KFAC covariances.

Traffic: a mkor sync allreduces each layer's rank-1 vectors; a KFAC sync
allreduces each layer's covariance factors, worker 0 alone inverts them and
broadcasts the inverses; each tallies through ``RunTrace.ship``.  One
worker reduces nothing: ``_allreduce`` alone knows it, and there counts and
ships nothing; the broadcast ships on W > 1 only.  Under
half_precision_comm the rank-1 vectors are rounded through fp16 only when
they ship, so one worker trains exactly as without it.  Weight gradients
are averaged as ambient data-parallel traffic and not counted, as in the
complexity table, where first-order rows communicate nothing.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import counters, linalg
from .analysis import Rank1ErrorRecord, covariance_records
from .config import ConfigError, ExperimentConfig
from .costs import RunTrace, layer_memory
from .data import Dataset, batch_slice, shard_dataset, synth_dataset, idx_dataset
from .net import NetworkState, backward, forward, init_network
from .optim import (
    FactorState,
    HybridState,
    KfacState,
    SgdState,
    apply_update,
    fp16_roundtrip,
    kfac_accumulate,
    kfac_invert,
    mkor_step,
    mkorh_maybe_switch,
    precondition,
    rank1_reduce,
    refresh_factors,
    sgd_momentum_step,
    sngd_precondition,
)
from .sched import KneePointState, knee_point_update, step_decay


@dataclass
class RunResult:
    """What one run leaves behind.  ``net`` is worker 0's final weights,
    ``dataset`` the unsharded data it trained on and ``states`` the run's one
    list of layer factors, held once since every worker reads the same ones
    (FactorState for mkor, mkor-h and kfac, empty for sgd/sngd)."""

    losses: list[float]
    lrs: list[float]
    net: NetworkState
    trace: RunTrace
    dataset: Dataset
    workers_identical: bool = True
    switch_iteration: int | None = None
    rank1_records: list[Rank1ErrorRecord] = field(default_factory=list)
    states: list[FactorState] = field(default_factory=list)


def build_dataset(cfg: ExperimentConfig) -> Dataset:
    """The configured dataset, checked to fit net.dims and workers."""
    if cfg.dataset_kind == "idx":
        try:
            ds = idx_dataset(cfg.dataset_images, cfg.dataset_labels)
        except (OSError, ValueError) as exc:  # a malformed or unreadable file is a config error
            raise ConfigError(str(exc)) from exc
    else:
        ds = synth_dataset(cfg.dataset_kind, cfg.dataset_n, cfg.seed, **cfg.dataset_params)
    rows = (ds.x.shape[0], ds.y.shape[0])
    if rows != (cfg.net_dims[0], cfg.net_dims[-1]):
        raise ConfigError(
            f"net.dims {','.join(map(str, cfg.net_dims))} do not fit the dataset: "
            f"it has {rows[0]} input rows and {rows[1]} target rows"
        )
    if cfg.workers > ds.n:
        raise ConfigError(f"workers={cfg.workers} exceeds the dataset's {ds.n} samples")
    return ds


def _mean_over_workers(arrays) -> np.ndarray:
    """Mean summed from zeros in worker order; one worker's array comes back
    as itself, so nothing may write a gradient in place."""
    if len(arrays) == 1:
        return arrays[0]
    acc = np.zeros_like(arrays[0])
    for a in arrays:
        np.add(acc, a, out=acc)
    return acc / float(len(arrays))


def _allreduce(arrays, trace: RunTrace, half_precision: bool = False) -> np.ndarray:
    """Mean of one optimizer payload over the workers.  One worker's array
    comes back as itself, with nothing counted or shipped: a single worker
    reduces nothing.  Several are rounded through fp16 under
    ``half_precision``, counted as (W+1)*size adds, shipped and averaged."""
    if len(arrays) == 1:
        return arrays[0]
    if half_precision:
        arrays = [fp16_roundtrip(a) for a in arrays]
    counters.add_flops((len(arrays) + 1.0) * arrays[0].size)
    trace.ship(arrays[0].size, half_precision)
    return _mean_over_workers(arrays)


@contextmanager
def _named(t: int, layer: int, phase: str):
    """Re-raise a SingularMatrix or NumericalError from the block prefixed
    with ``iteration T, layer L, phase P:``."""
    try:
        yield
    except (linalg.SingularMatrix, linalg.NumericalError) as exc:
        raise type(exc)(f"iteration {t}, layer {layer}, phase {phase}: {exc}") from exc


def _write_factors(t: int, layer: int, phase: str, write, st, *args) -> None:
    """Call ``write(st, *args)``, which rewrites ``st``'s inverse factors.  A
    failure, or an inverse left non-finite (checked in plain numpy, so no
    flops are counted), is raised named by :func:`_named`."""
    with _named(t, layer, phase):
        with np.errstate(over="ignore", invalid="ignore"):  # the check below names an overflow
            write(st, *args)
        if not (np.isfinite(st.l_inv).all() and np.isfinite(st.r_inv).all()):
            raise linalg.NumericalError("inverse factor is not finite")


def run_training(cfg: ExperimentConfig) -> RunResult:
    """Run the configured experiment; returns losses, worker 0's final net,
    the run's layer factors and the instrumentation trace."""
    cfg.validate()
    dataset = build_dataset(cfg)
    shards = shard_dataset(dataset, cfg.workers, cfg.seed)

    n_workers = cfg.workers
    rng = linalg.make_rng(cfg.seed)
    specs = cfg.layer_specs()
    base_net = init_network(specs, rng)
    nets = [base_net] + [base_net.copy() for _ in range(n_workers - 1)]

    opt = cfg.optimizer
    factors = [FactorState.identity_init(s.out_dim, s.in_dim) for s in specs] \
        if opt in ("mkor", "mkor-h", "kfac") else []
    covs = [[KfacState.identity_init(s.out_dim, s.in_dim) for s in specs]
            for _ in range(n_workers)] if opt == "kfac" else []
    velocity = SgdState()
    hybrid = HybridState(window=cfg.window, switch_ratio=cfg.switch_ratio) \
        if opt == "mkor-h" else None
    knee = KneePointState(lr=cfg.lr, beta=cfg.beta, decay_factor=cfg.decay_factor) \
        if cfg.scheduler == "knee" else None
    epoch_iters = cfg.epoch_iters or max(1, -(-shards[0].n // cfg.batch))
    period = cfg.inversion_period
    trace = RunTrace(sum(layer_memory(opt, s.out_dim, s.in_dim, cfg.batch) for s in specs))

    losses: list[float] = []
    lrs: list[float] = []
    rank1_records: list[Rank1ErrorRecord] = []
    switch_iteration = None
    lr_t = cfg.lr

    with counters.recording(trace.flops):
        for t in range(1, cfg.iterations + 1):
            t0 = time.perf_counter()
            worker_caps = []
            worker_losses = []
            # an overflow here is named by the finite-loss check below
            with counters.phase("forward_backward"), np.errstate(over="ignore", invalid="ignore"):
                for w in range(n_workers):
                    x, y = batch_slice(shards[w], t, cfg.batch)
                    out, net_trace = forward(nets[w], x)
                    lval, caps = backward(nets[w], net_trace, y, cfg.loss)
                    worker_caps.append(caps)
                    worker_losses.append(lval)
            loss_t = sum(worker_losses) / n_workers
            if not math.isfinite(loss_t):
                raise linalg.NumericalError(f"loss is {loss_t} at iteration {t}")
            losses.append(loss_t)

            if knee is not None:
                knee, lr_t = knee_point_update(knee, loss_t)
            elif cfg.scheduler == "step":
                epoch = (t - 1) // epoch_iters
                lr_t = step_decay(epoch, cfg.milestones, cfg.decay_factor, base_lr=cfg.lr)
            lrs.append(lr_t)

            # ambient data-parallel gradient averaging (not optimizer traffic)
            grads = [_mean_over_workers([c.w_grad for c in caps]) for caps in zip(*worker_caps)]
            bias_grads = [
                _mean_over_workers([c.b_grad for c in caps])
                if caps[0].b_grad is not None else None
                for caps in zip(*worker_caps)
            ]

            if hybrid is not None:
                mkorh_maybe_switch(hybrid, loss_t)
                if hybrid.mode == "first_order" and switch_iteration is None:
                    switch_iteration = t
            first_order = opt == "sgd" or switch_iteration is not None
            sync = not first_order and (opt == "sngd" or (period > 0 and t % period == 0))
            trace.sync_events += sync

            deltas, bias_deltas = None, bias_grads  # None: mkor and mkor-h form theirs below
            if first_order:
                deltas, bias_deltas = sgd_momentum_step(grads, bias_grads, cfg.momentum, velocity)
            elif opt == "sngd":
                deltas = sngd_precondition(worker_caps[0], cfg.damping)
            elif opt == "kfac":
                for w in range(n_workers):
                    for l in range(len(specs)):
                        kfac_accumulate(covs[w][l], worker_caps[w][l], cfg.gamma)
                if sync:
                    for l in range(len(specs)):
                        with counters.phase("factor_update"):
                            l_cov = _allreduce([cov[l].l_cov for cov in covs], trace)
                            r_cov = _allreduce([cov[l].r_cov for cov in covs], trace)
                        # workers share the reduced arrays: nothing writes them in place
                        for cov in covs:
                            cov[l].l_cov, cov[l].r_cov = l_cov, r_cov
                        _write_factors(
                            t, l, "inversion", kfac_invert, factors[l], covs[0][l], cfg.damping
                        )
                        if n_workers > 1:  # worker 0 broadcasts the inverses
                            trace.ship(factors[l].l_inv.size + factors[l].r_inv.size)
                with counters.phase("precondition"):
                    deltas = [
                        precondition(
                            st.l_inv, grads[l], st.r_inv, [caps[l] for caps in worker_caps]
                        )
                        for l, st in enumerate(factors)
                    ]
            elif sync:
                for l in range(len(specs)):
                    with counters.phase("factor_update"):
                        a_bars, g_bars = zip(*(rank1_reduce(caps[l]) for caps in worker_caps))
                        a_bar = _allreduce(a_bars, trace, cfg.half_precision_comm)
                        g_bar = _allreduce(g_bars, trace, cfg.half_precision_comm)
                    _write_factors(
                        t, l, "factor_update", refresh_factors, factors[l],
                        a_bar, g_bar, cfg.gamma, cfg.zeta, cfg.epsilon_norm,
                    )

            for l in range(len(specs)):
                for net in nets:
                    if deltas is None:
                        # per replica: kronbench pins mkor's replica ratio at 0.5 (item 7)
                        with _named(t, l, "precondition"):
                            delta = mkor_step(
                                factors[l], grads[l], [caps[l] for caps in worker_caps]
                            )
                    else:
                        delta = deltas[l]
                    apply_update(net, l, delta, bias_deltas[l], lr_t)

            if cfg.rank1_every > 0 and (t == 1 or t % cfg.rank1_every == 0):
                rank1_records.extend(covariance_records(worker_caps[0], t))
            trace.step_wall_ms.append((time.perf_counter() - t0) * 1e3)

    workers_identical = all(
        np.array_equal(a, b) for net in nets[1:] for a, b in zip(net.weights, nets[0].weights)
    )
    return RunResult(
        losses=losses,
        lrs=lrs,
        net=nets[0],
        trace=trace,
        dataset=dataset,
        workers_identical=workers_identical,
        switch_iteration=switch_iteration,
        rank1_records=rank1_records,
        states=factors,
    )
