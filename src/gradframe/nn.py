"""Minimal dense feed-forward network with hand-coded reverse-mode gradients.

The topology is fixed: ReLU hidden layers and a 2-unit output layer whose
scores are normalized by the two-class exponential rule; the class-1
component is the predicted probability.  One hidden layer is designated as
the representation layer; its post-activation output is the vector ``z``
used by the covariate-shift machinery.

Parameters live in one flat float64 vector, layer by layer: ``W0`` row-major
(``layer_dims[0] x layer_dims[1]``), then ``b0``, then ``W1``, ``b1`` and so
on.  ``weights`` and ``biases`` are read-only views into it, parameter
gradients and Adam moments use the same layout, and an Adam step updates the
whole vector at once.  Models are immutable values: updates return new models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, ShapeError

# Probability clamp applied before any log; bounds the loss and its gradient.
P_MIN = 1e-7
P_MAX = 1.0 - P_MIN

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def param_views(
    layer_dims: tuple[int, ...], flat: np.ndarray
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Per-layer weight and bias views into a flat vector in the model layout."""
    weights, biases, pos = [], [], 0
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        weights.append(flat[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out))
        pos += fan_in * fan_out
        biases.append(flat[pos : pos + fan_out])
        pos += fan_out
    return tuple(weights), tuple(biases)


def flatten_params(weights, biases) -> np.ndarray:
    """Per-layer weights and biases packed into one flat vector in the model layout."""
    return np.concatenate([np.ravel(a) for pair in zip(weights, biases) for a in pair])


@dataclass(frozen=True)
class MlpModel:
    """Feed-forward network parameters.

    ``params`` is the flat parameter vector.  ``weights[k]`` has shape
    ``(layer_dims[k], layer_dims[k+1])`` and maps the layer-k activation to
    layer k+1 pre-activations; ``rep_layer_index`` addresses a hidden layer
    (1-based over weight layers) whose activation is the representation z.
    """

    layer_dims: tuple[int, ...]
    params: np.ndarray
    rep_layer_index: int
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    biases: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = self.layer_dims
        size = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))
        params = _readonly(self.params)
        if params.shape != (size,):
            raise ShapeError(f"layer dims {dims} need {size} parameters, got shape {params.shape}")
        weights, biases = param_views(dims, params)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def rep_dim(self) -> int:
        return self.layer_dims[self.rep_layer_index]

    def with_params(
        self, weights: tuple[np.ndarray, ...], biases: tuple[np.ndarray, ...]
    ) -> "MlpModel":
        old = [a.shape for a in (*self.weights, *self.biases)]
        new = [np.shape(a) for a in (*weights, *biases)]
        if new != old:
            raise ShapeError(f"parameter shapes {new} do not match the model's {old}")
        return MlpModel(self.layer_dims, flatten_params(weights, biases), self.rep_layer_index)


class AdamState(NamedTuple):
    """First and second moment vectors, laid out like ``MlpModel.params``, and the step count."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def init_mlp(layer_dims: list[int] | tuple[int, ...], rep_layer_index: int, seed: int) -> MlpModel:
    """Build a model with seeded uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 3:
        raise ConfigError(f"need at least input, one hidden, and output layer, got dims {dims}")
    if any(d <= 0 for d in dims):
        raise ConfigError(f"layer dimensions must be positive, got {dims}")
    if dims[-1] != 2:
        raise ConfigError(f"output layer must have 2 units, got {dims[-1]}")
    n_layers = len(dims) - 1
    if not 1 <= rep_layer_index <= n_layers - 1:
        raise ConfigError(
            f"rep_layer_index {rep_layer_index} does not address a hidden layer "
            f"(valid range 1..{n_layers - 1})"
        )
    rng = np.random.default_rng(int(seed))
    weights = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
    biases = [np.zeros(fan_out) for fan_out in dims[1:]]
    return MlpModel(dims, flatten_params(weights, biases), int(rep_layer_index))


def _check_matrix(model: MlpModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ShapeError(f"expected inputs of dimension {model.input_dim}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DataError("non-finite value in model input")
    return x


def _check_vector(model: MlpModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.input_dim:
        raise ShapeError(f"expected an input vector of length {model.input_dim}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DataError("non-finite value in model input")
    return x


def _forward_acts(model: MlpModel, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Activations per layer (index 0 is the input) and raw class-1 probabilities."""
    acts = [x]
    h = x
    for k in range(model.n_layers - 1):
        h = np.maximum(h @ model.weights[k] + model.biases[k], 0.0)
        acts.append(h)
    scores = h @ model.weights[-1] + model.biases[-1]
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p1_raw = e[:, 1] / (e[:, 0] + e[:, 1])
    return acts, p1_raw


def forward_batch(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Clamped class-1 probabilities and per-layer activations for a batch."""
    x = _check_matrix(model, x)
    acts, p1_raw = _forward_acts(model, x)
    return np.clip(p1_raw, P_MIN, P_MAX), acts


def forward(model: MlpModel, x: np.ndarray) -> tuple[float, list[np.ndarray]]:
    """Class-1 probability and per-layer activations; ``reps[rep_layer_index]`` is z."""
    x = _check_vector(model, x)
    p1, acts = forward_batch(model, x[None, :])
    return float(p1[0]), [a[0] for a in acts]


def probs_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    return forward_batch(model, x)[0]


def representation(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """The designated hidden-layer activation z for a single input."""
    return forward(model, x)[1][model.rep_layer_index]


def representations_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    return forward_batch(model, x)[1][model.rep_layer_index]


def _check_label(y: float | int) -> float:
    yf = float(y)
    if yf not in (0.0, 1.0):
        raise DataError(f"label must be 0 or 1, got {y!r}")
    return yf


def _bce(p1_raw: np.ndarray, y: np.ndarray) -> np.ndarray:
    p1 = np.clip(p1_raw, P_MIN, P_MAX)
    return -(y * np.log(p1) + (1.0 - y) * np.log(1.0 - p1))


def bce_rows(model: MlpModel, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per-row BCE and per-layer activations of an ``(n, d)`` input the caller has checked."""
    acts, p1_raw = _forward_acts(model, x)
    return _bce(p1_raw, y), acts


def bce_loss_batch(model: MlpModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample binary cross-entropy; accepts soft targets in [0, 1]."""
    return bce_rows(model, _check_matrix(model, x), np.asarray(y, dtype=np.float64))[0]


def bce_loss(model: MlpModel, x: np.ndarray, y: float | int) -> float:
    x = _check_vector(model, x)
    yf = _check_label(y)
    return float(bce_loss_batch(model, x[None, :], np.array([yf]))[0])


def _score_grads(p1_raw: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the BCE w.r.t. the two output scores, per sample.

    The exponential-normalization/BCE composite gradient is ``p - y`` per
    score; it decays smoothly to zero at saturation, so it is already bounded
    and needs no clamping of its own.
    """
    d1 = p1_raw - y
    return np.stack([-d1, d1], axis=1)


def _backward(
    model: MlpModel, acts: list[np.ndarray], d_scores: np.ndarray, grad: np.ndarray | None = None
) -> np.ndarray:
    """Backprop from output-score gradients to the input gradient.

    When ``grad`` (a flat vector in the model layout) is given, the parameter
    gradients are written into it on the way.
    """
    if grad is not None:
        g_w, g_b = param_views(model.layer_dims, grad)
    d = d_scores
    for k in range(model.n_layers - 1, -1, -1):
        if k < model.n_layers - 1:
            d = d * (acts[k + 1] > 0.0)
        if grad is not None:
            np.matmul(acts[k].T, d, out=g_w[k])
            d.sum(axis=0, out=g_b[k])
        d = d @ model.weights[k].T
    return d


def _forward_grad(model: MlpModel, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raw class-1 probabilities and the flat gradient of the mean BCE, from one forward pass."""
    x = _check_matrix(model, x)
    acts, p1_raw = _forward_acts(model, x)
    grad = np.empty(model.params.shape)
    _backward(model, acts, _score_grads(p1_raw, y) / x.shape[0], grad)
    return p1_raw, grad


def grad_params_batch(model: MlpModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the mean BCE over the batch, laid out like ``model.params``."""
    return _forward_grad(model, x, np.asarray(y, dtype=np.float64))[1]


def bce_grad_batch(model: MlpModel, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean BCE over the batch and its ``grad_params_batch`` gradient, from one forward pass."""
    y = np.asarray(y, dtype=np.float64)
    p1_raw, grad = _forward_grad(model, x, y)
    return float(_bce(p1_raw, y).mean()), grad


def grad_params(model: MlpModel, x: np.ndarray, y: float | int) -> np.ndarray:
    x = _check_vector(model, x)
    yf = _check_label(y)
    return grad_params_batch(model, x[None, :], np.array([yf]))


def _input_grad_from_rep(model: MlpModel, acts: list[np.ndarray], d_rep: np.ndarray) -> np.ndarray:
    """Backprop a gradient at the representation layer's activation down to the input."""
    d = d_rep
    for k in range(model.rep_layer_index - 1, -1, -1):
        d = d * (acts[k + 1] > 0.0)
        d = d @ model.weights[k].T
    return d


def input_grad_rows(
    model: MlpModel,
    x: np.ndarray,
    y: np.ndarray,
    anchor: tuple[np.ndarray, float] | None = None,
    concept: tuple[MlpModel, float] | None = None,
) -> np.ndarray:
    """Row-wise ``grad_input`` of an ``(n, d)`` input the caller has checked.

    ``anchor`` carries one anchor representation per row.
    """
    acts, p1_raw = _forward_acts(model, x)
    g = _backward(model, acts, _score_grads(p1_raw, y))
    if anchor is not None:
        z_anchor, weight_a = anchor
        d_rep = acts[model.rep_layer_index] - z_anchor
        g = g - float(weight_a) * _input_grad_from_rep(model, acts, d_rep)
    if concept is not None:
        concept_model, weight_c = concept
        c_acts, c_p1 = _forward_acts(concept_model, x)
        c_input = _backward(concept_model, c_acts, _score_grads(c_p1, y))
        g = g - float(weight_c) * c_input
    return g


def grad_input(
    model: MlpModel,
    x: np.ndarray,
    y: float | int,
    anchor: tuple[np.ndarray, float] | None = None,
    concept: tuple[MlpModel, float] | None = None,
) -> np.ndarray:
    """Input gradient of the weighted ascent objective.

    Returns the gradient w.r.t. ``x`` of

        bce(model; x, y)
        - weight_a * 0.5 * ||z(x) - z_anchor||^2      (if ``anchor`` given)
        - weight_c * bce(concept_model; x, y)          (if ``concept`` given)

    where z is the representation under ``model``.
    """
    x = _check_vector(model, x)
    yf = _check_label(y)
    if anchor is not None:
        z_anchor, weight_a = anchor
        z_anchor = np.asarray(z_anchor, dtype=np.float64)
        if z_anchor.shape != (model.rep_dim,):
            raise ShapeError(
                f"anchor has shape {z_anchor.shape}, representation has shape {(model.rep_dim,)}"
            )
        anchor = (z_anchor[None, :], weight_a)
    if concept is not None and concept[0].input_dim != model.input_dim:
        raise ShapeError(
            f"concept model expects dimension {concept[0].input_dim}, "
            f"main model expects {model.input_dim}"
        )
    return input_grad_rows(model, x[None, :], np.array([yf]), anchor, concept)[0]


def init_adam_state(model: MlpModel) -> AdamState:
    return AdamState(m=np.zeros(model.params.shape), v=np.zeros(model.params.shape))


def adam_step(
    model: MlpModel, state: AdamState, grads: np.ndarray, lr: float
) -> tuple[MlpModel, AdamState]:
    """One Adam update with bias correction; returns the new model and state."""
    if not lr > 0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    if np.shape(grads) != model.params.shape:
        raise ShapeError(
            f"gradient shape {np.shape(grads)} does not match parameter shape {model.params.shape}"
        )
    t = state.step + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * (grads * grads)
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    params = model.params - lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPSILON)
    return MlpModel(model.layer_dims, params, model.rep_layer_index), AdamState(m, v, t)
