import numpy as np
import pytest

from kronopt import linalg
from kronopt.net import (
    ACTIVATIONS,
    LOSSES,
    LayerSpec,
    backward,
    forward,
    init_network,
)

from oracles import finite_difference_grad, scalar_two_layer_tanh


@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_backward_matches_central_differences(activation, loss):
    # softmax cross-entropy folds the softmax in, so its last layer stays identity
    last = activation if loss == "mse" else "identity"
    net = init_network([LayerSpec(3, 5, activation), LayerSpec(5, 4, last)], linalg.make_rng(7))
    rng = linalg.make_rng(8)
    for b in net.biases:
        b[:] = 0.1 * rng.standard_normal(b.shape)
    x = rng.standard_normal((3, 6))
    if loss == "mse":
        y = rng.standard_normal((4, 6))
    else:
        y = np.zeros((4, 6))
        y[rng.integers(0, 4, size=6), np.arange(6)] = 1.0
    _, trace = forward(net, x)
    _, caps = backward(net, trace, y, loss)
    want = finite_difference_grad(net, x, y, loss)
    for cap, fd in zip(caps, want):
        assert np.max(np.abs(cap.w_grad - fd)) <= 1e-7 * np.max(np.abs(fd))


def test_forward_matches_the_scalar_two_layer_net():
    net = init_network([LayerSpec(3, 5, "tanh"), LayerSpec(5, 2, "identity")], linalg.make_rng(3))
    rng = linalg.make_rng(4)
    for b in net.biases:
        b[:] = rng.standard_normal(b.shape)
    x = rng.standard_normal((3, 7))
    out, _ = forward(net, x)
    want = scalar_two_layer_tanh(net.weights[0], net.biases[0], net.weights[1], net.biases[1], x)
    assert np.max(np.abs(out - want)) <= 1e-13
