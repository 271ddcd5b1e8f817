"""Minimal fully connected networks with explicit gradients.

Two tiny MLPs are all the tabular GAN needs, so the forward and backward
passes are written out by hand instead of pulling in an autograd framework.
Everything is float64 and deterministic given the initialization rng.

A network keeps all of its weights and biases in one contiguous vector, and
``backward`` writes the parameter gradients into one vector laid out the same
way, so ``Adam`` updates every parameter with a handful of whole-vector ops.
A backward pass computes only the gradient its caller asks for: a GAN step
reads either a network's parameter gradients or its input gradient, never both.
"""

from __future__ import annotations

import numpy as np

RELU = "relu"
LEAKY_RELU = "leaky_relu"
LEAK = 0.2
PARAMS = "params"
INPUT = "input"


def _layer_views(flat: np.ndarray, sizes: list[int]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer (fan_in, fan_out) weight and (fan_out,) bias views into
    ``flat``, laid out w0, b0, w1, b1, ..."""
    weights: list[np.ndarray] = []
    biases: list[np.ndarray] = []
    at = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[at : at + fan_in * fan_out].reshape(fan_in, fan_out))
        at += fan_in * fan_out
        biases.append(flat[at : at + fan_out])
        at += fan_out
    return weights, biases


class FeedForward:
    """Linear stack with a fixed hidden activation and a linear output layer.

    ``weights`` and ``biases`` are views into ``param_vector``.
    ``backward(grad, PARAMS)`` returns the parameter gradients as one vector
    laid out the same way, which the next call overwrites;
    ``backward(grad, INPUT)`` returns the gradient on the input.

    ``forward`` applies each activation in place and caches, per layer, the
    layer's input and its activated output (the next layer's input), so a
    network holds one array per layer between a forward and its backward.
    ``backward`` takes each activation's mask from its output: for ReLU and
    for leaky ReLU with a positive leak, the output is > 0 exactly where the
    pre-activation is, for every double (signed zeros, subnormals whose
    leaked value underflows, NaN).
    """

    def __init__(self, sizes: list[int], activation: str, rng: np.random.Generator) -> None:
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if activation not in (RELU, LEAKY_RELU):
            raise ValueError(f"unsupported activation {activation!r}")
        self.activation = activation
        n_params = sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
        self.param_vector = np.zeros(n_params)
        self._grad_vector = np.zeros(n_params)
        self.weights, self.biases = _layer_views(self.param_vector, sizes)
        self._grad_weights, self._grad_biases = _layer_views(self._grad_vector, sizes)
        for w in self.weights:
            w[...] = rng.standard_normal(w.shape) * np.sqrt(2.0 / w.shape[0])
        self._cache: list[tuple[np.ndarray, np.ndarray]] | None = None

    def _act_grad(self, activated: np.ndarray) -> np.ndarray:
        if self.activation == RELU:
            return activated > 0
        return np.where(activated > 0, 1.0, LEAK)

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        """Run the stack, keeping the per-layer cache for one backward pass;
        ``cache=False`` keeps nothing, for a forward no backward follows."""
        layers: list[tuple[np.ndarray, np.ndarray]] = []
        out = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            x_in = out
            out = x_in @ w
            out += b
            if i != last:
                if self.activation == RELU:
                    np.maximum(out, 0.0, out=out)
                else:
                    np.maximum(out, LEAK * out, out=out)
            if cache:
                layers.append((x_in, out))
        self._cache = layers if cache else None
        return out

    def backward(self, grad_out: np.ndarray, wrt: str) -> np.ndarray:
        """The gradient, for the most recent forward, with respect to ``wrt``:
        the parameters (``PARAMS``) or the input (``INPUT``)."""
        if wrt not in (PARAMS, INPUT):
            raise ValueError(f"cannot differentiate with respect to {wrt!r}")
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        grad = grad_out
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            x_in, activated = self._cache[i]
            if i != last:
                grad = grad * self._act_grad(activated)
            if wrt == PARAMS:
                np.matmul(x_in.T, grad, out=self._grad_weights[i])
                grad.sum(axis=0, out=self._grad_biases[i])
                if i == 0:
                    break  # the input gradient is not asked for
            grad = grad @ self.weights[i].T
        self._cache = None
        return self._grad_vector if wrt == PARAMS else grad


class Adam:
    """Adam updates of one parameter vector, in place.

    Each step is the per-element update of Kingma & Ba, one whole-vector op
    per arithmetic operation, in the order the model bytes depend on:
    ``m += (1 - beta1) * g``, ``v += ((1 - beta2) * g) * g``, then
    ``p -= (lr * m_hat) / (sqrt(v_hat) + eps)``.
    """

    def __init__(
        self,
        params: np.ndarray,
        learning_rate: float,
        beta1: float,
        beta2: float,
        eps: float = 1e-8,
    ) -> None:
        self.params = params
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._update = np.empty_like(params)
        self._denom = np.empty_like(params)

    def step(self, grads: np.ndarray) -> None:
        self.step_count += 1
        t = self.step_count
        update, denom = self._update, self._denom
        self.m *= self.beta1
        np.multiply(grads, 1 - self.beta1, out=update)
        self.m += update
        self.v *= self.beta2
        np.multiply(grads, 1 - self.beta2, out=update)
        update *= grads
        self.v += update
        np.divide(self.m, 1 - self.beta1**t, out=update)
        update *= self.learning_rate
        np.divide(self.v, 1 - self.beta2**t, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        update /= denom
        self.params -= update
