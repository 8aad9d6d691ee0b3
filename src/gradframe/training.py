"""The one training loop behind every model in the package, and its configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .data import Domain, DomainSet
from .errors import ConfigError, DataError, NumericError, ShapeError
from .nn import MlpModel, Workspace, adam_update, check_architecture, init_mlp, param_views
from .rng import derive_seed, rng_for


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for every trainer in the package.

    ``beta`` is the descent learning rate, ``pretrain_epochs`` drives the
    per-domain models used by the inner maximization, and ``hidden_dims`` /
    ``rep_layer_index`` fix the network architecture built for the data's
    feature dimension.
    """

    beta: float = 0.01
    epochs: int = 150
    batch_size: int = 32
    seed: int = 0
    pretrain_epochs: int = 60
    hidden_dims: tuple[int, ...] = (2,)
    rep_layer_index: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ConfigError(f"beta must be finite and positive, got {self.beta}")
        if self.epochs <= 0 or self.batch_size <= 0 or self.pretrain_epochs <= 0:
            raise ConfigError("epochs, batch_size, and pretrain_epochs must be positive")
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        check_architecture(self.layer_dims(1), self.rep_layer_index)  # any input width will do

    def layer_dims(self, input_dim: int) -> tuple[int, ...]:
        return (int(input_dim), *self.hidden_dims, 2)


class DescentBuffers:
    """The parameters of one ``descend`` call, its gradient and its workspaces.

    ``params`` and ``grad`` are flat vectors in the model layout, and
    ``weights``/``biases`` and ``grads`` are per-layer views into them, built
    once.  ``workspace(rows)`` keeps one set of forward and backward buffers
    per batch row count, so full batches share one and a short last batch has
    its own.
    """

    def __init__(self, model: MlpModel):
        self.layer_dims = model.layer_dims
        self.params = np.array(model.params)
        self.grad = np.empty_like(self.params)
        self.weights, self.biases = param_views(self.layer_dims, self.params)
        self.grads = param_views(self.layer_dims, self.grad)
        self._workspaces: dict[int, Workspace] = {}

    def workspace(self, rows: int) -> Workspace:
        ws = self._workspaces.get(rows)
        if ws is None:
            ws = self._workspaces[rows] = Workspace(self.layer_dims, rows)
        return ws

    def mean_bce_grad(self, ws: Workspace, grads=None) -> None:
        """Gradient of the mean BCE of ``ws.x`` against ``ws.y``, into ``grads`` or ``self.grads``."""
        ws.mean_bce_grad(self.weights, self.biases, self.grads if grads is None else grads)


def descend(
    input_dim: int,
    cfg: TrainConfig,
    epoch: Callable[[np.random.Generator], Iterable],
    grad: Callable[[DescentBuffers, object], None],
) -> MlpModel:
    """Seeded init, then one Adam step per batch for ``cfg.epochs`` epochs.

    ``epoch(shuffle)`` yields one epoch's batches, drawing their order from
    the seeded ``shuffle`` stream.  For each batch, ``grad(buffers, batch)``
    writes the batch gradient into ``buffers.grad``, and one Adam step
    follows.  The parameters, the Adam moments and every buffer belong to
    this call and are updated in place; the only model built is the returned
    one, which takes over the final parameter vector.  A non-finite parameter
    at the end raises ``NumericError``, so a diverged fit is never returned.
    """
    model = init_mlp(cfg.layer_dims(input_dim), cfg.rep_layer_index, derive_seed(cfg.seed, "init"))
    buffers = DescentBuffers(model)
    params = buffers.params
    m, v, tmp, tmp2 = (np.zeros_like(params) for _ in range(4))
    shuffle = rng_for(cfg.seed, "batch")
    step = 0
    for _ in range(cfg.epochs):
        for batch in epoch(shuffle):
            grad(buffers, batch)
            step += 1
            adam_update(params, m, v, buffers.grad, step, cfg.beta, tmp, tmp2)
    if not np.isfinite(params).all():
        raise NumericError("training diverged: the fitted parameters are not all finite")
    params.setflags(write=False)
    return MlpModel(model.layer_dims, params, model.rep_layer_index)


def minibatches(shuffle: np.random.Generator, n: int, batch_size: int) -> Iterator[np.ndarray]:
    """Index batches of one shuffled pass over ``n`` rows; the last may be short."""
    order = shuffle.permutation(n)
    return (order[start : start + batch_size] for start in range(0, n, batch_size))


def fit_minibatch(x: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> MlpModel:
    """Train a fresh model on pooled arrays with seeded shuffling.

    Weight init and per-epoch batch order derive only from ``cfg.seed`` and
    the array length, so two callers handing over identical arrays and config
    get bit-identical models.  ``x`` is checked once, here: it must be a
    finite ``(n, d)`` matrix with ``n`` labels (``ShapeError``/``DataError``),
    and every batch is a subset of its rows.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] == 0 or y.shape != x.shape[:1]:
        raise ShapeError(
            f"expected an (n, d) input matrix with d >= 1 and n labels, "
            f"got shapes {x.shape} and {y.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise DataError("non-finite value in model input")

    def batch_grad(buffers, idx):
        ws = buffers.workspace(idx.shape[0])
        ws.gather(x, y, idx)
        buffers.mean_bce_grad(ws)

    def epoch(shuffle):
        return minibatches(shuffle, x.shape[0], cfg.batch_size)

    return descend(x.shape[1], cfg, epoch, batch_grad)


def fit_domain(domain: Domain, cfg: TrainConfig) -> MlpModel:
    return fit_minibatch(domain.feature_matrix(), domain.label_vector(), cfg)


def fit_pooled(ds: DomainSet, cfg: TrainConfig) -> MlpModel:
    pooled = ds.pooled()
    return fit_minibatch(pooled.feature_matrix(), pooled.label_vector(), cfg)
