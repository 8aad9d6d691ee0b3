"""The one training loop behind every model in the package, and its configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .data import Domain, DomainSet
from .errors import ConfigError, NumericError
from .nn import MlpModel, adam_step, grad_params_batch, init_adam_state, init_mlp
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
        if not self.beta > 0:
            raise ConfigError(f"beta must be positive, got {self.beta}")
        if self.epochs <= 0 or self.batch_size <= 0 or self.pretrain_epochs <= 0:
            raise ConfigError("epochs, batch_size, and pretrain_epochs must be positive")
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))

    def layer_dims(self, input_dim: int) -> tuple[int, ...]:
        return (int(input_dim), *self.hidden_dims, 2)


def descend(
    input_dim: int,
    cfg: TrainConfig,
    epoch: Callable[[np.random.Generator], Iterable[tuple]],
    grad: Callable[..., np.ndarray],
) -> MlpModel:
    """Seeded init, then one Adam step per batch for ``cfg.epochs`` epochs.

    ``epoch(shuffle)`` yields one epoch's batches, drawing their order from
    the seeded ``shuffle`` stream; each batch takes one step along
    ``grad(model, *batch)``.  A model with a non-finite parameter at the end
    raises ``NumericError``, so a diverged fit is never returned.
    """
    model = init_mlp(cfg.layer_dims(input_dim), cfg.rep_layer_index, derive_seed(cfg.seed, "init"))
    state = init_adam_state(model)
    shuffle = rng_for(cfg.seed, "batch")
    for _ in range(cfg.epochs):
        for batch in epoch(shuffle):
            model, state = adam_step(model, state, grad(model, *batch), cfg.beta)
    if not np.isfinite(model.params).all():
        raise NumericError("training diverged: the fitted parameters are not all finite")
    return model


def minibatches(shuffle: np.random.Generator, n: int, batch_size: int) -> Iterator[np.ndarray]:
    """Index batches of one shuffled pass over ``n`` rows; the last may be short."""
    order = shuffle.permutation(n)
    return (order[start : start + batch_size] for start in range(0, n, batch_size))


def fit_minibatch(x: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> MlpModel:
    """Train a fresh model on pooled arrays with seeded shuffling.

    Weight init and per-epoch batch order derive only from ``cfg.seed`` and
    the array length, so two callers handing over identical arrays and config
    get bit-identical models.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)

    def epoch(shuffle):
        return ((x[idx], y[idx]) for idx in minibatches(shuffle, x.shape[0], cfg.batch_size))

    return descend(x.shape[1], cfg, epoch, grad_params_batch)


def fit_domain(domain: Domain, cfg: TrainConfig) -> MlpModel:
    return fit_minibatch(domain.feature_matrix(), domain.label_vector(), cfg)


def fit_pooled(ds: DomainSet, cfg: TrainConfig) -> MlpModel:
    pooled = ds.pooled()
    return fit_minibatch(pooled.feature_matrix(), pooled.label_vector(), cfg)
