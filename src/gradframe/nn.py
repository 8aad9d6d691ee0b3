"""Dense ReLU networks with a 2-unit softmax output and hand-coded gradients.

The class-1 softmax component is the predicted probability; the activation
of the hidden layer ``rep_layer_index`` is the representation ``z``.
Parameters live in one flat float64 vector, ``W0`` (row-major), ``b0``,
``W1``, ``b1`` and so on; weight and bias views, gradients and Adam moments
share that layout.  The ``*_batch`` functions take an ``(n, d)`` matrix and
run ``check_input``, the one model-input rule.  The ascent's objective is
written in ``core`` on the ``Workspace`` passes.

The arithmetic runs in place, with an optional leading stack axis, on a
``Workspace``'s buffers and in ``bind_adam``'s step.  ``training.descend``
binds both once per block shape, so a step re-derives no view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

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
    """Per-layer weight and bias views into flat vectors in the model layout; a
    stack ``(M, P)`` gives ``(M, fan_in, fan_out)`` weights."""
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
    """An immutable network: a read-only flat ``params`` vector and its per-layer views,
    ``weights[k]`` of shape ``(layer_dims[k], layer_dims[k+1])``.  ``rep_layer_index``
    (1-based over weight layers) addresses the representation's hidden layer."""

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
    """``x`` as a float64 ``(n, d)`` matrix (d the model's input width, any d >= 1
    without a model) and ``y``, if given, as n targets, else ``ShapeError``; a
    non-finite input or a target outside [0, 1] is a ``DataError``."""
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


def _matmul_segments(segments, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.matmul(a, b, out)`` on each ``(k, start, stop)`` segment of rows, against ``b[k]``."""
    for k, start, stop in segments:
        np.matmul(a[start:stop], b[k], out[start:stop])
    return out


# Layers up to this width add their bias with rows innermost.  From width 4
# that is slower than the plain add (2-7x at width 8-64, timeit, numpy 2.4),
# and at width 3 it is faster on one network but not on a stack.
_ROWS_FIRST_MAX_WIDTH = 2


class Workspace:
    """Forward and backward buffers for a batch of inputs to a network of ``layer_dims``.

    ``shape`` is ``(rows,)`` for one network or ``(M, rows)`` for a stack of
    M row blocks, one per network, and leads every buffer.  ``acts[k]`` is the
    layer-k activation (``acts[0]`` the input), ``p1`` the raw class-1
    probability and ``deltas[k]`` the gradient at ``acts[k]`` (at the scores
    for ``k = n_layers``).  A caller's own ``x`` and ``y`` are only read.

    The rows of M networks may also lie flat, ``(rows,)`` with ``segments``:
    each ``(k, start, stop)`` gives network k the rows ``start:stop`` of an
    ``(M, fan_in, fan_out)`` weight stack, and biases come one row each.  Each
    matmul runs once per segment and all else row by row.  A BLAS kernel's
    bits for a row can depend on the row count of its matrix (a one-row
    matmul takes numpy's ``gemv`` path), so each network's rows keep the bits
    they have alone: its segment's matmuls are those it makes alone.

    Each pass is written once, in a ``_bind_*`` method that resolves its views
    and returns a zero-argument call.  ``bind`` binds a descent's whole step
    once; ``forward``, ``score_grads`` and ``backward`` bind a pass per call.
    The calls pass ``out`` by position and constants as 0-d arrays: on arrays
    this small, numpy's argument handling is much of each call's cost.

    The bias steps are the costly part of a step on a narrow layer: numpy
    walks a ``(rows, width)`` broadcast or row sum with the last axis
    innermost, one short inner loop per row.  So a layer of width up to
    ``_ROWS_FIRST_MAX_WIDTH`` adds a bias broadcast over the rows on a
    rows-first view with ``order="F"`` (a stack is swapped to ``(rows, M,
    width)`` first), and every layer wider than 1 sums its bias gradient
    with ``einsum("...ij->...j")``.  Both keep each element's operations and
    their order, so the bits are those of ``out + b`` and
    ``d.sum(axis=-2)``.  A width-1 layer keeps ``d.sum(axis=-2)``: there
    numpy coalesces the axes and sums each block pairwise, an order einsum
    does not reproduce.
    """

    def __init__(self, layer_dims: tuple[int, ...], shape: tuple[int, ...], x=None, y=None, segments=None):
        self.acts = [np.empty((*shape, layer_dims[0])) if x is None else x]
        self.acts += [np.empty((*shape, width)) for width in layer_dims[1:-1]]
        self.y = np.empty(shape) if y is None else y
        self.scores = np.empty((*shape, 2))
        self.row_max = np.empty(shape)
        self.exp = np.empty((*shape, 2))
        self.p1 = np.empty(shape)
        self._shape, self._dims = shape, layer_dims
        # a bound method here would make a reference cycle, which refcounting cannot free
        self._matmul = np.matmul if segments is None else partial(_matmul_segments, segments)

    # The backward buffers are made on first use, so forward-only calls skip them.
    @cached_property
    def deltas(self) -> list[np.ndarray | None]:
        return [None] + [np.empty((*self._shape, width)) for width in self._dims[1:]]

    @cached_property
    def masks(self) -> list[np.ndarray]:
        return [np.empty((*self._shape, width), dtype=bool) for width in self._dims[1:-1]]

    @property
    def x(self) -> np.ndarray:
        return self.acts[0]

    def gather(self, x: np.ndarray, y: np.ndarray, rows: np.ndarray) -> None:
        """Copy ``x[rows]`` and ``y[rows]`` into the buffers; ``rows`` must index within
        ``x``, so mode "clip" never acts (it spares the copy "raise" makes with ``out``)."""
        x.take(rows, axis=0, out=self.acts[0], mode="clip")
        y.take(rows, out=self.y, mode="clip")

    def _bind_forward(self, weights, biases):
        """Activations and raw class-1 probabilities of ``x``; ``biases`` are a model's
        own ``(width,)`` vectors, a stack's ``(M, 1, width)`` views or flat segments' rows."""
        layers, h = [], self.acts[0]
        for w, b, out in zip(weights, biases, (*self.acts[1:], self.scores)):
            narrow = out.shape[-1] <= _ROWS_FIRST_MAX_WIDTH and b.shape[:-1] != out.shape[:-1]
            swap = narrow and len(self._shape) == 2  # a stack: rows-first is (rows, M, width)
            view, b = (out.swapaxes(0, 1), b.swapaxes(0, 1)) if swap else (out, b)
            layers.append((h, w, out, view, b, "F" if narrow else "K", out is not self.scores))
            h = out
        # The per-row steps run on 1-D views: numpy's fast path for strided
        # operands covers 1-D arrays only.
        s0, s1 = _columns(self.scores)
        e0, e1 = _columns(self.exp)
        scores, exp = self.scores, self.exp
        row_max, p1 = self.row_max.reshape(-1), self.p1.reshape(-1)
        matmul = self._matmul

        def forward() -> None:
            for h, w, out, view, b, order, relu in layers:
                matmul(h, w, out)
                np.add(view, b, view, order=order)
                if relu:
                    np.maximum(out, 0.0, out=out)
            np.maximum(s0, s1, out=row_max)
            np.subtract(s0, row_max, s0)
            np.subtract(s1, row_max, s1)
            # out of place, as in the plain expression, so numpy picks the same exp loop
            np.exp(scores, exp)
            np.add(e0, e1, p1)
            np.divide(e1, p1, p1)

        return forward

    def _bind_score_grads(self, mean: bool):
        """Gradient of the BCE w.r.t. the two output scores, per row or of the mean BCE:
        ``p - y``, which is bounded at saturation and needs no clamp."""
        d = self.deltas[-1]
        d0, d1 = _columns(d)
        p1, y = self.p1.reshape(-1), self.y.reshape(-1)
        rows = np.array(float(self._shape[-1])) if mean else None

        def score_grads() -> None:
            np.subtract(p1, y, d1)
            np.negative(d1, d0)
            if mean:
                np.divide(d, rows, d)

        return score_grads

    def _bind_backward(self, weights, top: int, grads):
        """Backprop ``deltas[top]`` down to ``deltas[1]``, and into ``grads`` (weight and
        bias views of a flat gradient) if given."""
        layers = []
        for k in range(top - 1, -1, -1):
            relu = (self.acts[k + 1], self.masks[k]) if k < len(weights) - 1 else (None, None)
            grad = (self.acts[k].swapaxes(-1, -2), grads[0][k], grads[1][k]) if grads else (None,) * 3
            down = (weights[k].swapaxes(-1, -2), self.deltas[k]) if k > 0 else (None, None)
            layers.append((self.deltas[k + 1], *relu, *grad, self._dims[k + 1] == 1, *down))
        matmul = self._matmul

        def backward() -> None:
            for d, act, mask, act_t, gw, gb, pairwise, w_t, below in layers:
                if act is not None:
                    np.greater(act, 0.0, mask)
                    np.multiply(d, mask, d)
                if gw is not None:
                    np.matmul(act_t, d, gw)
                    if pairwise:
                        d.sum(axis=-2, out=gb)
                    else:
                        np.einsum("...ij->...j", d, out=gb)
                if w_t is not None:
                    matmul(d, w_t, below)

        return backward

    def bind(self, weights, biases, grads):
        """A descent's step on these parameter views as one zero-argument call: the
        gradient of the mean BCE of ``x`` against ``y``, written into ``grads``."""
        passes = (
            self._bind_forward(weights, biases),
            self._bind_score_grads(mean=True),
            self._bind_backward(weights, len(weights), grads),
        )

        def step() -> None:
            for run in passes:
                run()

        return step

    def forward(self, weights, biases) -> None:
        """``_bind_forward``'s pass, run once."""
        self._bind_forward(weights, biases)()

    def score_grads(self, mean: bool) -> None:
        """``_bind_score_grads``'s pass, run once."""
        self._bind_score_grads(mean)()

    def backward(self, weights, top: int, grads=None) -> np.ndarray | None:
        """Backprop ``deltas[top]`` into ``grads`` if given, else return the input gradient."""
        self._bind_backward(weights, top, grads)()
        if grads is not None:
            return None
        return self._matmul(self.deltas[1], weights[0].swapaxes(-1, -2), np.empty(self.acts[0].shape))


def _forward(model: MlpModel, x: np.ndarray, y: np.ndarray | None = None) -> Workspace:
    """A fresh workspace holding the forward pass of ``x`` (targets ``y``, if given)."""
    ws = Workspace(model.layer_dims, x.shape[:1], x, y)
    ws.forward(model.weights, model.biases)
    return ws


# a row that overflows the network gives non-finite outputs, with no numpy warning
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


@_quiet_overflow
def probs_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Clamped class-1 probability of each row; NaN for a row the network overflows on."""
    return np.clip(_forward(model, check_input(model, x)[0]).p1, P_MIN, P_MAX)


@_quiet_overflow
def representations_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """The designated hidden-layer activation z of each row."""
    return _forward(model, check_input(model, x)[0]).acts[model.rep_layer_index]


def _bce(p1_raw: np.ndarray, y: np.ndarray) -> np.ndarray:
    p1 = np.clip(p1_raw, P_MIN, P_MAX)
    return -(y * np.log(p1) + (1.0 - y) * np.log(1.0 - p1))


@_quiet_overflow
def bce_loss_batch(model: MlpModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row binary cross-entropy; accepts soft targets in [0, 1]."""
    x, y = check_input(model, x, y)
    return _bce(_forward(model, x).p1, y)


@_quiet_overflow
def grad_params_batch(model: MlpModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the mean BCE over the rows, laid out like ``model.params``."""
    x, y = check_input(model, x, y)
    ws = Workspace(model.layer_dims, x.shape[:1], x, y)
    grad = np.empty(model.params.shape)
    ws.bind(model.weights, model.biases, param_views(model.layer_dims, grad))()
    return grad


def bind_adam(params, m, v, grads, lr: float):
    """Adam with bias correction as ``step(t)``, update number t (from 1), in place on
    ``params``, ``m`` and ``v`` from ``grads``; constants are 0-d arrays, as in ``Workspace``."""
    tmp, tmp2 = np.empty_like(params), np.empty_like(params)
    beta1, beta2, eps, rate = (np.array(c) for c in (ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, lr))
    decay1, decay2 = np.array(1.0 - ADAM_BETA1), np.array(1.0 - ADAM_BETA2)

    def step(t: int) -> None:
        np.multiply(m, beta1, m)
        np.multiply(grads, decay1, tmp)
        np.add(m, tmp, m)
        np.multiply(v, beta2, v)
        np.multiply(grads, grads, tmp)
        np.multiply(tmp, decay2, tmp)
        np.add(v, tmp, v)
        correction = 1.0 - ADAM_BETA1**t
        if correction == 1.0:  # from t = 356 on, and m / 1.0 is m bit for bit
            np.multiply(m, rate, tmp)
        else:
            np.divide(m, correction, tmp)
            np.multiply(tmp, rate, tmp)
        np.divide(v, 1.0 - ADAM_BETA2**t, tmp2)
        np.sqrt(tmp2, tmp2)
        np.add(tmp2, eps, tmp2)
        np.divide(tmp, tmp2, tmp)
        np.subtract(params, tmp, params)

    return step
