import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kronopt.net import LayerCapture
from kronopt.optim import sngd_precondition

from oracles import sngd_dense_update


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
