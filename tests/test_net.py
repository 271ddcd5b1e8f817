"""The hand-written MLP and Adam: gradients, flat-vector views, bit-exact updates."""

from __future__ import annotations

import numpy as np
import pytest

from twinforge.tabular.net import INPUT, LEAKY_RELU, PARAMS, RELU, Adam, FeedForward

import reference_loops as reference


class _PerTensorAdam:
    """The per-tensor Adam loop the flat optimizer replaced, kept as its reference."""

    def __init__(self, params, learning_rate, beta1, beta2, eps=1e-8):
        self.params = params
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads):
        self.step_count += 1
        t = self.step_count
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            m_hat = m / (1 - self.beta1**t)
            v_hat = v / (1 - self.beta2**t)
            p -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    # array_equal treats -0.0 == 0.0; comparing bytes also pins the sign of zero
    return np.array_equal(a, b) and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flat_adam_matches_the_per_tensor_loop_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    shapes = [(7, 5), (5,), (5, 3), (3,), (3, 1), (1,)]
    # parameters spread over magnitudes, so the step's low bits reach them
    tensors = [rng.standard_normal(s) * 10.0 ** rng.integers(-8, 1, size=s) for s in shapes]
    flat = np.concatenate([t.ravel() for t in tensors])
    reference = _PerTensorAdam(tensors, 2e-4, 0.5, 0.9)
    adam = Adam(flat, 2e-4, 0.5, 0.9)
    for step in range(50):
        grads = [rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3) for s in shapes]
        if step % 7 == 0:
            grads[1][:] = 0.0  # zero gradients exercise the signed zeros
            grads[3][:] = -0.0
        reference.step(grads)
        adam.step(np.concatenate([g.ravel() for g in grads]))
        assert _same_bits(flat, np.concatenate([t.ravel() for t in tensors]))
    assert _same_bits(adam.m, np.concatenate([m.ravel() for m in reference.m]))
    assert _same_bits(adam.v, np.concatenate([v.ravel() for v in reference.v]))


@pytest.mark.parametrize("wrt", [PARAMS, INPUT])
@pytest.mark.parametrize("activation", [RELU, LEAKY_RELU])
def test_backward_matches_the_full_pass_bit_for_bit(activation, wrt):
    for seed in range(4):
        sizes = [6, 9, 7, 3]
        net = FeedForward(sizes, activation, np.random.default_rng(seed))
        full = reference.FeedForward(sizes, activation, np.random.default_rng(seed))
        assert reference.same_bits(net.param_vector, full.param_vector)
        rng = np.random.default_rng(100 + seed)
        biases = 0.1 * rng.standard_normal(net.param_vector.size)
        for p in (net.param_vector, full.param_vector):
            p += biases
        x = rng.standard_normal((8, 6))
        x[0] = 0.0  # zero and negative-zero rows reach the activations' zero case
        x[1] = -0.0
        grad_out = rng.standard_normal((8, 3))
        grad_out[2] = -0.0
        assert reference.same_bits(net.forward(x), full.forward(x))
        grads, input_grad = full.backward(grad_out)
        assert reference.same_bits(net.backward(grad_out, wrt), grads if wrt == PARAMS else input_grad)


# Pre-activations where the output could tell a different sign story from
# the input: signed zeros, subnormals whose leaked value underflows to a
# zero, and magnitudes near the top of the double range.
EDGE_PRE = [0.0, -0.0, 5e-324, -5e-324, 1e-320, -1e-320, 1e308, -1e308, 1.5e308, -1.5e308, 0.5, -0.5]


@pytest.mark.parametrize("wrt", [PARAMS, INPUT])
@pytest.mark.parametrize("activation", [RELU, LEAKY_RELU])
def test_in_place_activations_backpropagate_like_a_cached_pre_activation(activation, wrt):
    """The mask taken from an activated output has the bits of the one taken
    from its pre-activation. Layer 0 has zero weights and a one-valued input,
    so its pre-activations are its biases; layer 1 is the identity, so it
    sees layer 0's outputs, leaked again."""
    width = len(EDGE_PRE)
    sizes = [1, width, width, 2]
    nets = (
        FeedForward(sizes, activation, np.random.default_rng(0)),
        reference.FeedForward(sizes, activation, np.random.default_rng(0)),
    )
    for net in nets:
        net.weights[0][...] = 0.0
        net.biases[0][...] = EDGE_PRE
        net.weights[1][...] = np.eye(width)
        net.biases[1][...] = 0.0
        net.weights[2][...] *= 0.1  # keeps every product below the double range
    x = np.ones((3, 1))
    grad_out = 0.1 * np.random.default_rng(1).standard_normal((3, 2))
    outputs = [net.forward(x) for net in nets]
    assert reference.same_bits(*outputs)
    pre = nets[1]._cache[0][1][0]
    assert set(pre.tolist()) == set(EDGE_PRE)  # the biases, as floats (0.0 == -0.0)
    grads = nets[1].backward(grad_out)
    assert reference.same_bits(nets[0].backward(grad_out, wrt), grads[0] if wrt == PARAMS else grads[1])


@pytest.mark.parametrize("activation", [RELU, LEAKY_RELU])
def test_backward_matches_central_differences(activation):
    rng = np.random.default_rng(4)
    net = FeedForward([4, 6, 5, 3], activation, rng)
    net.param_vector += 0.1 * rng.standard_normal(net.param_vector.size)  # nonzero biases
    x = rng.standard_normal((8, 4))
    weight = rng.standard_normal((8, 3))

    def loss() -> float:
        return float((net.forward(x) * weight).sum())

    loss()
    grads = net.backward(weight, PARAMS).copy()
    loss()
    input_grad = net.backward(weight, INPUT)

    eps = 1e-6
    numeric = np.empty_like(grads)
    for i in range(net.param_vector.size):
        saved = net.param_vector[i]
        net.param_vector[i] = saved + eps
        up = loss()
        net.param_vector[i] = saved - eps
        down = loss()
        net.param_vector[i] = saved
        numeric[i] = (up - down) / (2 * eps)
    np.testing.assert_allclose(grads, numeric, rtol=1e-6, atol=1e-7)

    numeric_input = np.empty_like(x)
    for idx in np.ndindex(*x.shape):
        saved = x[idx]
        x[idx] = saved + eps
        up = loss()
        x[idx] = saved - eps
        down = loss()
        x[idx] = saved
        numeric_input[idx] = (up - down) / (2 * eps)
    np.testing.assert_allclose(input_grad, numeric_input, rtol=1e-6, atol=1e-7)


def test_adam_step_moves_the_layer_views():
    rng = np.random.default_rng(8)
    net = FeedForward([3, 4, 2], RELU, rng)
    before = [p.copy() for p in net.params]
    net.forward(rng.standard_normal((5, 3)))
    grads = net.backward(rng.standard_normal((5, 2)), PARAMS)
    Adam(net.param_vector, 1e-2, 0.5, 0.9).step(grads)
    for i, w in enumerate(net.weights):
        assert np.shares_memory(w, net.param_vector)
        assert not np.array_equal(w, before[2 * i])
    assert [p.shape for p in net.params] == [(3, 4), (4,), (4, 2), (2,)]


def test_backward_before_forward_is_refused():
    net = FeedForward([2, 3, 2], RELU, np.random.default_rng(0))
    for wrt in (PARAMS, INPUT):
        with pytest.raises(RuntimeError):
            net.backward(np.zeros((1, 2)), wrt)


@pytest.mark.parametrize("wrt", [PARAMS, INPUT])
def test_a_forward_allows_one_backward(wrt):
    net = FeedForward([2, 3, 2], RELU, np.random.default_rng(0))
    net.forward(np.ones((1, 2)))
    net.backward(np.ones((1, 2)), wrt)
    for again in (PARAMS, INPUT):
        with pytest.raises(RuntimeError):
            net.backward(np.ones((1, 2)), again)


def test_backward_refuses_an_unknown_gradient():
    net = FeedForward([2, 2], RELU, np.random.default_rng(0))
    net.forward(np.ones((1, 2)))
    with pytest.raises(ValueError):
        net.backward(np.ones((1, 2)), "weights")
