import logging

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kronopt import counters, linalg
from kronopt.net import LayerCapture
from kronopt.optim import (
    KfacState,
    fp16_roundtrip,
    kfac_accumulate,
    precondition,
    sm_update,
    sm_update_exact,
    sm_update_quantized,
    sngd_precondition,
    stabilize,
)

from kernel_paths import on_path
from oracles import (
    jacobi_eigenvalues,
    random_spd,
    sm_update_chain,
    sm_update_exact_chain,
    sm_update_printed,
    sngd_dense_update,
    stabilize_chain,
)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    d_out=st.integers(1, 6), d_in=st.integers(1, 6), b=st.integers(1, 6),
    mu=st.floats(0.05, 2.0), seed=st.integers(0, 2**32 - 1),
)
def test_sngd_matches_the_dense_fisher_solve(d_out, d_in, b, mu, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d_in, b))
    g = rng.standard_normal((d_out, b))
    grad = rng.standard_normal((d_out, d_in))
    (got,) = sngd_precondition([LayerCapture(a_prev=a, g=g, w_grad=grad)], mu)
    want = sngd_dense_update(a, g, grad, mu)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def _spd_inverse_and_vector(d: int, seed: int):
    """A random SPD factor F, its inverse and a random direction v."""
    rng = np.random.default_rng(seed)
    f = random_spd(rng, d)
    return f, np.linalg.inv(f), rng.standard_normal(d)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(d=st.integers(1, 8), gamma=st.floats(0.5, 0.99), seed=st.integers(0, 2**32 - 1))
def test_exact_sm_update_inverts_the_momentum_factor(d, gamma, seed):
    f, f_inv, v = _spd_inverse_and_vector(d, seed)
    want = np.linalg.inv(gamma * f + (1.0 - gamma) * np.outer(v, v))
    got = sm_update_exact(f_inv, v, gamma)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(d=st.integers(1, 8), gamma=st.floats(0.5, 0.99), seed=st.integers(0, 2**32 - 1))
def test_sm_update_is_the_printed_formula(d, gamma, seed):
    _, f_inv, v = _spd_inverse_and_vector(d, seed)
    want = sm_update_printed(f_inv, v, gamma)
    assert np.max(np.abs(sm_update(f_inv, v, gamma) - want)) <= 1e-12 * np.max(np.abs(want))


# One step of the PD lemma only: a long printed chain does not stay PD (the
# verify-lemmas pin in test_training.py).
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    d=st.integers(1, 6), gamma=st.floats(0.5, 0.99), zeta=st.floats(0.5, 1.0),
    epsilon=st.floats(0.5, 100.0), seed=st.integers(0, 2**32 - 1),
)
def test_one_stabilized_sm_update_stays_positive_definite(d, gamma, zeta, epsilon, seed):
    _, f_inv, v = _spd_inverse_and_vector(d, seed)
    out = sm_update(stabilize(f_inv, epsilon, zeta), v, gamma)
    assert jacobi_eigenvalues(out)[0] > 0.0


# What lets the rank-1 updates skip (M + M^T) / 2: g*F^-1 and u u^T are
# exactly symmetric, so their sum is too.  |v| <= 8 keeps the fp16 path's
# u u^T inside the fp16 range.
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data(), d=st.integers(1, 16), gamma=st.floats(0.5, 0.99))
def test_rank1_updates_of_a_symmetric_factor_are_exactly_symmetric(data, d, gamma):
    entry = st.floats(-1.0, 1.0)
    x = data.draw(arrays(np.float64, (d, d), elements=entry))
    v = data.draw(arrays(np.float64, d, elements=st.floats(-8.0, 8.0)))
    m = x @ x.T / d + np.eye(d)
    f_inv = np.triu(m) + np.triu(m, 1).T  # exactly symmetric, eigenvalues >= 1
    for update in (sm_update, sm_update_quantized, sm_update_exact):
        out = update(f_inv, v, gamma)
        assert out.tobytes() == out.T.copy().tobytes(), update.__name__


def test_stabilize_rounds_as_zeta_f_plus_the_scaled_identity():
    f = np.array([[300.0, -0.0, 1e-300], [-0.0, 2.0, -5.0], [1e-300, -5.0, 7.0]])
    for zeta in (0.95, 0.5, 1.0):
        want = zeta * f + (1.0 - zeta) * np.eye(3)
        assert stabilize(f, 100.0, zeta).tobytes() == want.tobytes()
    assert stabilize(f, 1e3, 0.95) is f


# Entries whose bits the one-pass refresh must carry as the numpy chain does:
# signed zeros, subnormals, infinities and NaN.
_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, np.inf, -np.inf, np.nan)


@st.composite
def _factor_and_vector(draw):
    """(F, v) at an order that leaves a column tail on every path (or fills
    whole vectors), with up to three special entries in each and F scaled so
    that u u^T can underflow or overflow; F comes C-ordered, as a .T view or
    as a field of a packed record array, which the kernel cannot read in
    place."""
    d = draw(st.sampled_from((1, 3, 7, 8, 17, 31, 256)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((d, d)) / np.sqrt(d)
    f = (x @ x.T + np.eye(d)) * draw(st.sampled_from((1.0, 1e-160, 1e160)))
    v = rng.standard_normal(d)
    for target in (f, v):
        for _ in range(draw(st.integers(0, 3))):
            target.flat[draw(st.integers(0, target.size - 1))] = draw(st.sampled_from(_SPECIAL))
    layout = draw(st.sampled_from(("C", ".T", "record")))
    if layout == ".T":
        f = np.ascontiguousarray(f.T).T
    elif layout == "record":
        records = np.zeros((d, d), dtype=[("x", "f8"), ("flag", "i1")])
        records["x"] = f
        f = records["x"]
    return f, v


def _same_as_chain(update, chain, *args):
    """``update(*args)`` has the bytes of ``chain(*args)``, or raises
    NumericalError where the chain's denominator check fails.

    A NaN entry matches any NaN.  When both operands of a multiply or an add
    are NaN, IEEE 754 leaves open whose sign and payload the result takes:
    the instruction decides, and the compiler orders the operands of a
    commutative operation as it likes, in numpy as in the kernel."""
    with np.errstate(all="ignore"):
        try:
            want = chain(*args)
        except ArithmeticError:
            with pytest.raises(linalg.NumericalError, match="denominator lost positivity"):
                update(*args)
            return
        got = update(*args)
    assert got.flags.c_contiguous
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


_GAMMA = st.sampled_from((0.9, 0.5, 1.0)) | st.floats(0.5, 1.0)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(case=_factor_and_vector(), gamma=_GAMMA)
def test_each_path_sm_update_is_the_numpy_chain_byte_for_byte(path, case, gamma):
    f, v = case
    before = f.tobytes()
    with on_path(path):
        _same_as_chain(sm_update, sm_update_chain, f, v, gamma)
    assert f.tobytes() == before


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(case=_factor_and_vector(), gamma=_GAMMA)
def test_each_path_sm_update_exact_is_the_numpy_chain_byte_for_byte(path, case, gamma):
    f, v = case
    with on_path(path):
        _same_as_chain(sm_update_exact, sm_update_exact_chain, f, v, gamma)


# zeta above 1 makes the identity's scale negative and its zeros -0.0, which
# keep a -0.0 entry of zeta F negative off the diagonal.
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(case=_factor_and_vector(), zeta=st.sampled_from((1.0, 0.95, 0.5)) | st.floats(0.0, 1.5))
@example(case=(np.array([[2.0, -0.0, 1.0], [-0.0, -0.0, 3.0], [1.0, 3.0, 5e-324]]), None), zeta=1.25)
def test_each_path_firing_stabilize_is_the_numpy_chain_byte_for_byte(path, case, zeta):
    f, _ = case
    with on_path(path), np.errstate(all="ignore"):
        got = stabilize(f, -1.0, zeta)
        want = stabilize_chain(f, -1.0, zeta)
    assert got is not f
    assert got.tobytes() == want.tobytes()


# The counts of the numpy chain each call replaced, so no cost.csv or
# summary.json moves: matvec 2n^2, dot 2n and four n^2 passes for a rank-1
# update; the norm's 2n^2, and three n^2 passes when the blend runs.
@pytest.mark.parametrize("n", [1, 7, 256])
def test_the_rank1_refresh_counts_the_numpy_chains_flops(n):
    rng = np.random.default_rng(n)
    f, v = linalg.direct_inverse(random_spd(rng, n)), rng.standard_normal(n)

    def counted(fn, *args):
        tally = dict.fromkeys(counters.PHASES, 0.0)
        with counters.recording(tally):
            out = fn(*args)
        return out, tally["other"]

    assert counted(sm_update, f, v, 0.9)[1] == 6 * n * n + 2 * n
    assert counted(sm_update_exact, f, v, 0.9)[1] == 6 * n * n + 2 * n
    kept, flops = counted(stabilize, f, np.inf, 0.95)
    assert kept is f and flops == 2 * n * n
    blended, flops = counted(stabilize, f, 0.0, 0.95)
    assert blended is not f and flops == 5 * n * n


def test_kfac_accumulate_rounds_as_the_ema_and_leaves_the_shared_factors_alone():
    rng = np.random.default_rng(5)
    g, a = rng.standard_normal((3, 4)), rng.standard_normal((5, 4))
    l_cov, r_cov = random_spd(rng, 3), random_spd(rng, 5)
    state = KfacState(l_cov=l_cov, r_cov=r_cov)
    before = (l_cov.copy(), r_cov.copy())
    kfac_accumulate(state, LayerCapture(a_prev=a, g=g, w_grad=g @ a.T / 4), 0.9)
    for got, cov, x, old in ((state.l_cov, l_cov, g, before[0]), (state.r_cov, r_cov, a, before[1])):
        want = cov * 0.9 + (linalg.matmul(x, x.T) * (1.0 / 4)) * (1.0 - 0.9)
        assert got.tobytes() == want.tobytes()
        assert cov.tobytes() == old.tobytes()


def test_fp16_roundtrip_clamps_to_the_fp16_range_and_logs_the_count(caplog):
    with caplog.at_level(logging.WARNING, logger="kronopt.optim"):
        got = fp16_roundtrip(np.array([1e6, -7e4, 1.0]))
    assert got.tolist() == [65504.0, -65504.0, 1.0]
    assert caplog.messages == ["fp16 roundtrip clamped 2 entries"]


def _dense_flops(o: int, i: int) -> float:
    return 2.0 * o * i * (o + i)


def _rank_b_flops(o: int, i: int, columns: int) -> float:
    return 2.0 * columns * (o * o + i * i + o * i) + o * columns


@st.composite
def _layer_on_one_side(draw, form: str):
    """An o x i layer, per-worker batch sizes (unequal when drawn so) whose
    total puts ``optim.precondition`` in ``form``, and a seed."""
    o, i = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    workers = draw(st.sampled_from((1, 4)))
    # the most columns for which the rank-B form is strictly cheaper
    limit = next(n for n in range(o * i + 1) if _rank_b_flops(o, i, n + 1) >= _dense_flops(o, i))
    if form == "rank-B":
        assume(limit >= workers)
        total = draw(st.integers(workers, limit))
    else:
        total = draw(st.integers(max(limit + 1, workers), limit + 40))
    cuts = draw(st.lists(st.integers(1, total - 1), min_size=workers - 1,
                         max_size=workers - 1, unique=True)) if workers > 1 else []
    batches = np.diff([0, *sorted(cuts), total]).tolist()
    return o, i, batches, draw(st.integers(0, 2**32 - 1))


def _worker_captures(o: int, i: int, batches, rng):
    """Each worker's capture, with its gradient (1/b_w) g_w a_w^T as net.py keeps it."""
    caps = []
    for b in batches:
        g, a = rng.standard_normal((o, b)), rng.standard_normal((i, b))
        caps.append(LayerCapture(a_prev=a, g=g, w_grad=(g @ a.T) / b))
    return caps


@pytest.mark.parametrize("form", ["rank-B", "dense"])
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_precondition_is_the_inverse_factors_times_the_workers_mean_gradient(form, data):
    o, i, batches, seed = data.draw(_layer_on_one_side(form))
    rng = np.random.default_rng(seed)
    l_inv = linalg.direct_inverse(random_spd(rng, o))
    r_inv = linalg.direct_inverse(random_spd(rng, i))
    caps = _worker_captures(o, i, batches, rng)
    w = len(caps)
    w_grad = sum(cap.w_grad for cap in caps) / w
    mean_grad = sum((cap.g @ cap.a_prev.T) / (w * cap.a_prev.shape[1]) for cap in caps)
    want = l_inv @ mean_grad @ r_inv
    got = precondition(l_inv, w_grad, r_inv, caps)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("form", ["rank-B", "dense"])
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_precondition_counts_the_flops_of_its_cheaper_form(form, data):
    o, i, batches, seed = data.draw(_layer_on_one_side(form))
    rng = np.random.default_rng(seed)
    caps = _worker_captures(o, i, batches, rng)
    w_grad = sum(cap.w_grad for cap in caps) / len(caps)
    tally = dict.fromkeys(counters.PHASES, 0.0)
    with counters.recording(tally):
        precondition(linalg.identity(o), w_grad, linalg.identity(i), caps)
    want = _rank_b_flops(o, i, sum(batches)) if form == "rank-B" else _dense_flops(o, i)
    assert tally["other"] == want
    assert want == min(_rank_b_flops(o, i, sum(batches)), _dense_flops(o, i))
