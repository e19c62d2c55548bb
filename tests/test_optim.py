import logging

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kronopt.net import LayerCapture
from kronopt.optim import fp16_roundtrip, sm_update, sm_update_exact, sngd_precondition, stabilize

from oracles import jacobi_eigenvalues, random_spd, sm_update_printed, sngd_dense_update


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


def test_fp16_roundtrip_clamps_to_the_fp16_range_and_logs_the_count(caplog):
    with caplog.at_level(logging.WARNING, logger="kronopt.optim"):
        got = fp16_roundtrip(np.array([1e6, -7e4, 1.0]))
    assert got.tolist() == [65504.0, -65504.0, 1.0]
    assert caplog.messages == ["fp16 roundtrip clamped 2 entries"]
