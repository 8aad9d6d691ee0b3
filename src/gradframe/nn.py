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
whole vector at once.

Models are immutable values.  The public ``*_batch`` functions take an
``(n, d)`` input matrix, return new arrays and run ``check_input``, the one
model-input rule, as ``training.fit_stack`` does.  ``check_architecture`` is
the one architecture rule, run on every ``MlpModel`` and on ``TrainConfig``'s
fields.  The module knows networks only: the ascent's objective and its input
gradient are written in ``core`` on ``_forward`` and the ``Workspace`` steps.

The arithmetic runs in place on a ``Workspace``'s buffers and in
``adam_update``, the one Adam step; only ``training.descend`` keeps them for
a whole fit.  Both take a leading stack axis, so ``descend`` runs M rows of
one shape through one kernel call per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError, ShapeError

# Probability clamp applied before any log; bounds the loss and its gradient.
P_MIN = 1e-7
P_MAX = 1.0 - P_MIN

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


def _frozen(a) -> np.ndarray:
    """``a`` itself if it is a read-only contiguous float64 array, else a read-only copy."""
    if isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.c_contiguous:
        if not a.flags.writeable:
            return a
    a = np.array(a, dtype=np.float64, order="C")
    a.setflags(write=False)
    return a


def param_count(layer_dims: tuple[int, ...]) -> int:
    """Length of the flat parameter vector of a network with these layer widths."""
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]))


def param_views(
    layer_dims: tuple[int, ...], flat: np.ndarray
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Per-layer weight and bias views into flat vectors in the model layout.

    ``flat`` is one vector or a stack of them along leading axes; the views
    keep those axes, so ``(M, P)`` gives ``(M, fan_in, fan_out)`` weights.
    """
    lead = flat.shape[:-1]
    weights, biases, pos = [], [], 0
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        weights.append(flat[..., pos : pos + fan_in * fan_out].reshape(*lead, fan_in, fan_out))
        pos += fan_in * fan_out
        biases.append(flat[..., pos : pos + fan_out])
        pos += fan_out
    return tuple(weights), tuple(biases)


def check_architecture(layer_dims: tuple[int, ...], rep_layer_index: int) -> None:
    """The architecture rule, ``ConfigError`` if broken: a positive input width, one or
    more positive hidden widths, 2 output units and a hidden representation layer."""
    if len(layer_dims) < 2 or layer_dims[0] <= 0 or layer_dims[-1] != 2:
        raise ConfigError(f"need a positive input width and 2 output units, got dims {layer_dims}")
    hidden = tuple(layer_dims[1:-1])
    if not hidden or min(hidden) <= 0:
        raise ConfigError(f"hidden_dims must be non-empty and positive, got {hidden}")
    if not 1 <= rep_layer_index <= len(hidden):
        raise ConfigError(
            f"rep_layer_index {rep_layer_index} does not address a hidden layer "
            f"(valid range 1..{len(hidden)})"
        )


def flatten_params(weights, biases) -> np.ndarray:
    """Per-layer weights and biases packed into one flat vector in the model layout."""
    return np.concatenate([np.ravel(a) for pair in zip(weights, biases) for a in pair])


@dataclass(frozen=True)
class MlpModel:
    """Feed-forward network parameters.

    ``params`` is the flat parameter vector; the model keeps a read-only copy
    of it, or the array itself when it is already read-only.  ``weights[k]`` has shape
    ``(layer_dims[k], layer_dims[k+1])`` and maps the layer-k activation to
    layer k+1 pre-activations; ``rep_layer_index`` addresses a hidden layer
    (1-based over weight layers) whose activation is the representation z.
    Every model passes ``check_architecture`` when it is built.
    """

    layer_dims: tuple[int, ...]
    params: np.ndarray
    rep_layer_index: int
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    biases: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = self.layer_dims
        check_architecture(dims, self.rep_layer_index)
        size = param_count(dims)
        params = _frozen(self.params)
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


def init_mlp(layer_dims: list[int] | tuple[int, ...], rep_layer_index: int, seed: int) -> MlpModel:
    """Build a model with seeded uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    dims = tuple(int(d) for d in layer_dims)
    check_architecture(dims, rep_layer_index)  # before the draws, which need valid widths
    rng = np.random.default_rng(int(seed))
    weights = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
    biases = [np.zeros(fan_out) for fan_out in dims[1:]]
    return MlpModel(dims, flatten_params(weights, biases), int(rep_layer_index))


def check_input(model: MlpModel | None, x, y=None) -> tuple[np.ndarray, np.ndarray | None]:
    """``x`` and ``y`` as float64 arrays, checked: ``x`` an ``(n, d)`` matrix (d the input
    width of ``model``, or any d >= 1 without one) and ``y``, if given, n targets, else
    ``ShapeError``; a non-finite input or a target outside [0, 1] raises ``DataError``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] == 0 or (model is not None and x.shape[1] != model.input_dim):
        want = "d >= 1" if model is None else f"d = {model.input_dim}"
        raise ShapeError(f"expected an (n, d) input matrix with {want}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DataError("non-finite value in model input")
    if y is not None:
        y = np.asarray(y, dtype=np.float64)
        if y.shape != x.shape[:1]:
            raise ShapeError(f"expected {x.shape[0]} targets, got shape {y.shape}")
        if not np.all((y >= 0.0) & (y <= 1.0)):  # NaN fails both comparisons
            raise DataError("targets must be finite and in [0, 1]")
    return x, y


def _columns(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-D views of the two columns of a C-contiguous ``(..., 2)`` buffer."""
    a = a.reshape(-1, 2)
    return a[:, 0], a[:, 1]


# Layers up to this width add their bias with rows innermost.  From width 4
# that is slower than the plain add (2-7x at width 8-64, timeit, numpy 2.4),
# and at width 3 it is faster on one network but not on a stack.
_ROWS_FIRST_MAX_WIDTH = 2


class Workspace:
    """Forward and backward buffers for a batch of inputs to a network of ``layer_dims``.

    ``shape`` is the batch's leading shape: ``(rows,)`` for one network, or
    ``(M, rows)`` for a stack of M row blocks, one per network of the same
    dims, each with its own ``(M, fan_in, fan_out)`` weight slice.  Every
    buffer has that leading shape.  ``acts[0]`` is the input and ``acts[k]``
    the layer-k activation; ``y`` holds the targets and ``p1`` the raw
    class-1 probabilities.  After
    ``score_grads``, ``deltas[n_layers]`` holds the gradient at the output
    scores; ``backward`` fills ``deltas[k]`` with the gradient at the layer-k
    activation on its way down (``deltas[0]`` is unused).  A caller may hand
    over its own ``x`` and ``y``, which are only read.

    The bias steps are the costly part of a step on a narrow layer: numpy
    walks a ``(rows, width)`` broadcast or row sum with the last axis
    innermost, one short inner loop per row.  So a layer of width up to
    ``_ROWS_FIRST_MAX_WIDTH`` adds its bias on a rows-first view with
    ``order="F"`` (a stack is swapped to ``(rows, M, width)`` first), and
    every layer wider than 1 sums its bias gradient with
    ``einsum("...ij->...j")``.  Both keep each element's operations and
    their order, so the bits are those of ``out + b`` and
    ``d.sum(axis=-2)``.  A width-1 layer keeps ``d.sum(axis=-2)``: there
    numpy coalesces the axes and sums each block pairwise, an order einsum
    does not reproduce.
    """

    def __init__(self, layer_dims: tuple[int, ...], shape: tuple[int, ...], x=None, y=None):
        self.acts = [np.empty((*shape, layer_dims[0])) if x is None else x]
        self.acts += [np.empty((*shape, width)) for width in layer_dims[1:-1]]
        self.y = np.empty(shape) if y is None else y
        self.scores = np.empty((*shape, 2))
        self.row_max = np.empty(shape)
        self.exp = np.empty((*shape, 2))
        self.p1 = np.empty(shape)
        self._shape, self._dims = shape, layer_dims
        # Views the step reuses, made once.  The per-row steps run on 1-D views:
        # numpy's fast path for strided operands covers 1-D arrays only.
        self._score_cols = _columns(self.scores)
        self._exp_cols = _columns(self.exp)
        self._row_max_flat = self.row_max.reshape(-1)
        self._p1_flat = self.p1.reshape(-1)
        self._y_flat = self.y.reshape(-1)
        # Per layer: the view the bias add runs on, its iteration order and
        # whether a stack's biases swap to rows-first with it.
        self._bias_adds = []
        for out in (*self.acts[1:], self.scores):
            narrow = out.shape[-1] <= _ROWS_FIRST_MAX_WIDTH
            swap = narrow and len(shape) == 2
            view = out.swapaxes(0, 1) if swap else out
            self._bias_adds.append((view, "F" if narrow else "K", swap))
        self._sum_pairwise = [width == 1 for width in layer_dims[1:]]

    # The backward buffers are made on first use, so forward-only calls skip them.
    @cached_property
    def deltas(self) -> list[np.ndarray | None]:
        return [None] + [np.empty((*self._shape, width)) for width in self._dims[1:]]

    @cached_property
    def masks(self) -> list[np.ndarray]:
        return [np.empty((*self._shape, width), dtype=bool) for width in self._dims[1:-1]]

    @cached_property
    def _delta_cols(self) -> tuple[np.ndarray, np.ndarray]:
        return _columns(self.deltas[-1])

    @cached_property
    def _acts_t(self) -> list[np.ndarray]:
        return [a.swapaxes(-1, -2) for a in self.acts]

    @property
    def x(self) -> np.ndarray:
        return self.acts[0]

    def gather(self, x: np.ndarray, y: np.ndarray, rows: np.ndarray) -> None:
        """Copy ``x[rows]`` and ``y[rows]`` into the input and target buffers.

        ``rows`` must index within ``x``; mode "clip" then never acts, and it
        spares the temporary copy that mode "raise" makes with ``out``.
        """
        x.take(rows, axis=0, out=self.acts[0], mode="clip")
        y.take(rows, out=self.y, mode="clip")

    def _add_bias(self, k: int, b: np.ndarray) -> None:
        """Add ``b`` to the pre-activations of layer ``k`` (the scores for -1)."""
        view, order, swap = self._bias_adds[k]
        np.add(view, b.swapaxes(0, 1) if swap else b, out=view, order=order)

    def forward(self, weights, biases) -> None:
        """Activations and raw class-1 probabilities of ``x``; ``biases`` are a model's
        own ``(width,)`` vectors or a stack's ``(M, 1, width)`` views."""
        h = self.acts[0]
        for k, (w, b, out) in enumerate(zip(weights, biases, self.acts[1:])):
            np.matmul(h, w, out=out)
            self._add_bias(k, b)
            np.maximum(out, 0.0, out=out)
            h = out
        np.matmul(h, weights[-1], out=self.scores)
        self._add_bias(-1, biases[-1])
        s0, s1 = self._score_cols
        np.maximum(s0, s1, out=self._row_max_flat)
        np.subtract(s0, self._row_max_flat, out=s0)
        np.subtract(s1, self._row_max_flat, out=s1)
        # out of place, as in the plain expression, so numpy picks the same exp loop
        np.exp(self.scores, out=self.exp)
        e0, e1 = self._exp_cols
        np.add(e0, e1, out=self._p1_flat)
        np.divide(e1, self._p1_flat, out=self._p1_flat)

    def score_grads(self, mean: bool) -> None:
        """Gradient of the BCE w.r.t. the two output scores, per row or of the mean BCE:
        ``p - y``, which is bounded at saturation and needs no clamp."""
        d0, d1 = self._delta_cols
        np.subtract(self._p1_flat, self._y_flat, out=d1)
        np.negative(d1, out=d0)
        if mean:
            d = self.deltas[-1]
            d /= self._shape[-1]

    def backward(self, weights, top: int, grads=None) -> np.ndarray | None:
        """Backprop ``deltas[top]`` down to the input: into ``grads`` (weight and bias
        views of a flat gradient) if given, else returning the input gradient."""
        n_layers = len(weights)
        for k in range(top - 1, -1, -1):
            d = self.deltas[k + 1]
            if k < n_layers - 1:
                np.greater(self.acts[k + 1], 0.0, out=self.masks[k])
                d *= self.masks[k]
            if grads is not None:
                np.matmul(self._acts_t[k], d, out=grads[0][k])
                if self._sum_pairwise[k]:
                    d.sum(axis=-2, out=grads[1][k])
                else:
                    np.einsum("...ij->...j", d, out=grads[1][k])
            if k > 0:
                np.matmul(d, weights[k].swapaxes(-1, -2), out=self.deltas[k])
        return None if grads is not None else d @ weights[0].swapaxes(-1, -2)

    def mean_bce_grad(self, weights, biases, grads) -> None:
        """Gradient of the mean BCE of ``x`` against ``y``, written into ``grads``."""
        self.forward(weights, biases)
        self.score_grads(mean=True)
        self.backward(weights, len(weights), grads)

    def mean_bce(self, blocks: slice) -> np.ndarray:
        """Mean BCE of the last ``forward``, one per row block of ``blocks``."""
        return _bce(self.p1[blocks], self.y[blocks]).mean(axis=-1)


def _forward(model: MlpModel, x: np.ndarray, y: np.ndarray | None = None) -> Workspace:
    """A fresh workspace holding the forward pass of ``x`` (targets ``y``, if given)."""
    ws = Workspace(model.layer_dims, x.shape[:1], x, y)
    ws.forward(model.weights, model.biases)
    return ws


def probs_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Clamped class-1 probability of each row."""
    return np.clip(_forward(model, check_input(model, x)[0]).p1, P_MIN, P_MAX)


def representations_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """The designated hidden-layer activation z of each row."""
    return _forward(model, check_input(model, x)[0]).acts[model.rep_layer_index]


def _bce(p1_raw: np.ndarray, y: np.ndarray) -> np.ndarray:
    p1 = np.clip(p1_raw, P_MIN, P_MAX)
    return -(y * np.log(p1) + (1.0 - y) * np.log(1.0 - p1))


def bce_loss_batch(model: MlpModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row binary cross-entropy; accepts soft targets in [0, 1]."""
    x, y = check_input(model, x, y)
    return _bce(_forward(model, x).p1, y)


def grad_params_batch(model: MlpModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the mean BCE over the rows, laid out like ``model.params``."""
    x, y = check_input(model, x, y)
    ws = Workspace(model.layer_dims, x.shape[:1], x, y)
    grad = np.empty(model.params.shape)
    ws.mean_bce_grad(model.weights, model.biases, param_views(model.layer_dims, grad))
    return grad


def adam_update(params, m, v, grads, step: int, lr: float, tmp, tmp2) -> None:
    """Adam update number ``step`` (from 1), with bias correction, in place on ``params``,
    ``m`` and ``v``; ``tmp`` and ``tmp2`` are scratch arrays of their shape."""
    np.multiply(m, ADAM_BETA1, out=m)
    np.multiply(grads, 1.0 - ADAM_BETA1, out=tmp)
    m += tmp
    np.multiply(v, ADAM_BETA2, out=v)
    np.multiply(grads, grads, out=tmp)
    tmp *= 1.0 - ADAM_BETA2
    v += tmp
    np.divide(m, 1.0 - ADAM_BETA1**step, out=tmp)
    tmp *= lr
    np.divide(v, 1.0 - ADAM_BETA2**step, out=tmp2)
    np.sqrt(tmp2, out=tmp2)
    tmp2 += ADAM_EPSILON
    tmp /= tmp2
    params -= tmp
