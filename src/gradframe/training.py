"""The one training loop behind every model in the package, and its configuration.

``descend`` trains a stack of M fits at once; a single fit is a stack of one.
``fit_stack`` groups fits that can share a descent, plain and mixup fits
alike, and ``fit_minibatch`` is its one-fit case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError
from .nn import MlpModel, Workspace, adam_update, check_architecture, check_input, init_mlp, param_views
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


@dataclass(frozen=True)
class MixupConfig:
    """Beta-distribution shape for the mixing ratio, plus an optional fixed override."""

    beta_shape: tuple[float, float] = (2.0, 2.0)
    seed: int = 0
    fixed_lambda: float | None = None

    def __post_init__(self):
        a, b = self.beta_shape
        if not (np.isfinite(self.beta_shape).all() and a > 0 and b > 0):
            raise ConfigError(
                f"beta_shape entries must be finite and positive, got {self.beta_shape}"
            )
        if self.fixed_lambda is not None and not 0.0 <= self.fixed_lambda <= 1.0:
            raise ConfigError(f"fixed_lambda must lie in [0, 1], got {self.fixed_lambda}")


def draw_lambdas(mixup: MixupConfig, rng: np.random.Generator, n: int) -> np.ndarray:
    """Per-pair mixing ratios; a fixed override bypasses the Beta draw."""
    if mixup.fixed_lambda is not None:
        return np.full(n, mixup.fixed_lambda)
    a, b = mixup.beta_shape
    return rng.beta(a, b, size=n)


class DescentBuffers:
    """The parameters of a stack of M fits, their gradients and their workspaces.

    ``params`` and ``grad`` are ``(M, P)`` matrices, one flat vector per fit
    in the model layout, and ``weights``/``biases`` and ``grads`` are
    per-layer views into them with a leading M axis, built once.
    ``workspace(rows)`` keeps one set of ``(M, rows)`` forward and backward
    buffers per batch row count, so full batches share one and a short last
    batch has its own.
    """

    def __init__(self, models: Sequence[MlpModel]):
        self.layer_dims = models[0].layer_dims
        self.params = np.stack([model.params for model in models])
        self.grad = np.empty_like(self.params)
        self.weights, biases = param_views(self.layer_dims, self.params)
        self.biases = tuple(b[:, None, :] for b in biases)  # broadcast over a batch's rows
        self.grads = param_views(self.layer_dims, self.grad)
        self._workspaces: dict[int, Workspace] = {}

    def workspace(self, rows: int) -> Workspace:
        ws = self._workspaces.get(rows)
        if ws is None:
            ws = self._workspaces[rows] = Workspace(self.layer_dims, (len(self.params), rows))
        return ws


def descend(
    input_dim: int,
    cfg: TrainConfig,
    seeds: Sequence[int],
    epoch: Callable[[list[np.random.Generator]], Iterable],
    grad: Callable[[DescentBuffers, object], None],
) -> list[MlpModel]:
    """A stack of M fits under ``cfg``, one per seed, each from its own seeded init.

    Fit i draws its init and its shuffle stream from ``seeds[i]``; ``cfg.seed``
    is not read.  ``epoch(shuffles)`` yields one epoch's batches, drawing each
    fit's order from its own stream in ``shuffles``.  For each batch,
    ``grad(buffers, batch)`` writes every fit's gradient into its row of
    ``buffers.grad``, and one Adam step over the whole stack follows.  The
    arithmetic is row by row that of a single fit, so each model is bit for
    bit the one a stack of one gives.  Parameters, Adam moments and buffers
    are updated in place.  A non-finite parameter at the end raises
    ``NumericError`` naming the seed of the first fit that diverged, and no
    model is returned.
    """
    dims = cfg.layer_dims(input_dim)
    buffers = DescentBuffers(
        [init_mlp(dims, cfg.rep_layer_index, derive_seed(seed, "init")) for seed in seeds]
    )
    params = buffers.params
    m, v, tmp, tmp2 = (np.zeros_like(params) for _ in range(4))
    shuffles = [rng_for(seed, "batch") for seed in seeds]
    step = 0
    for _ in range(cfg.epochs):
        for batch in epoch(shuffles):
            grad(buffers, batch)
            step += 1
            adam_update(params, m, v, buffers.grad, step, cfg.beta, tmp, tmp2)
    finite = np.isfinite(params).all(axis=1)
    if not finite.all():
        seed = seeds[int(np.argmin(finite))]
        raise NumericError(
            f"training diverged: the fitted parameters of the fit with seed {seed} "
            "are not all finite"
        )
    params.setflags(write=False)
    return [MlpModel(dims, row, cfg.rep_layer_index) for row in params]


def shuffled_batches(rows: np.ndarray, batch_size: int) -> Callable[[list], Iterator]:
    """``epoch(shuffles)`` for ``descend`` in which fit i passes over row i of ``rows``.

    ``rows`` is an ``(M, n)`` index matrix.  Each epoch shuffles fit i's row
    with ``shuffles[i]`` and yields ``(M, batch)`` index blocks in order; the
    last may be short.  The shuffled rows live in one buffer reused in place,
    and shuffling a row there draws the same order as ``permutation(n)`` does.
    """
    order = np.empty_like(rows)
    n = rows.shape[1]

    def epoch(shuffles):
        np.copyto(order, rows)
        for fit_order, shuffle in zip(order, shuffles):
            shuffle.shuffle(fit_order)
        return (order[:, start : start + batch_size] for start in range(0, n, batch_size))

    return epoch


def _mix_rows(out, a, partners, lam, rest, partner_buf) -> None:
    """``lam * out + rest * a[partners]`` into ``out``, which holds a batch's rows of
    ``a``: the expression's operations, on buffers the caller keeps."""
    out *= lam
    a.take(partners, axis=0, out=partner_buf, mode="clip")
    partner_buf *= rest
    out += partner_buf


def _descend_stack(
    data: list[tuple[np.ndarray, np.ndarray]],
    cfg: TrainConfig,
    seeds: list[int],
    mixups: list[MixupConfig | None],
):
    """One descent over ``(x, y)`` fits that share their ``(n, d)`` shape, one per seed.

    A fit with a ``MixupConfig`` trains on mixed batches: after each step's
    gather it draws its partner rows, then its ratios, from its own
    ``rng_for(mixup.seed, "mixup")`` stream and mixes its block in place.
    """
    n, d = data[0][0].shape
    x_all = np.concatenate([x for x, _ in data])
    y_all = np.concatenate([y for _, y in data])
    rows = np.arange(len(data) * n).reshape(len(data), n)  # fit i's rows in x_all
    mixing = [(i, mix, rng_for(mix.seed, "mixup")) for i, mix in enumerate(mixups) if mix is not None]
    most = min(cfg.batch_size, n)  # the rows of the largest batch
    x_partner, y_partner, rest = np.empty((most, d)), np.empty(most), np.empty(most)

    def batch_grad(buffers, idx):
        size = idx.shape[1]
        ws = buffers.workspace(size)
        ws.gather(x_all, y_all, idx)
        for i, mixup, rng in mixing:
            partners = rng.integers(0, n, size=size)
            lam = draw_lambdas(mixup, rng, size)
            partners += i * n  # fit i's own rows in x_all
            fit_rest = rest[:size]
            np.subtract(1.0, lam, out=fit_rest)
            _mix_rows(ws.x[i], x_all, partners, lam[:, None], fit_rest[:, None], x_partner[:size])
            _mix_rows(ws.y[i], y_all, partners, lam, fit_rest, y_partner[:size])
            if not np.isfinite(ws.x[i]).all():
                raise DataError("non-finite value in model input")
        ws.mean_bce_grad(buffers.weights, buffers.biases, buffers.grads)

    return descend(d, cfg, seeds, shuffled_batches(rows, cfg.batch_size), batch_grad)


def fit_stack(
    xs: Sequence,
    ys: Sequence,
    cfgs: Sequence[TrainConfig],
    mixups: Sequence[MixupConfig | None] | None = None,
) -> list[MlpModel]:
    """Train one fresh model per ``(x, y, cfg)``, stacking the fits that can share a descent.

    Fits stack when they have the same row count and input width and their
    configs differ at most in ``seed``; a fit that matches no other is a stack
    of one.  ``mixups`` gives each fit a ``MixupConfig``, or ``None`` for a
    plain fit (all plain when omitted), so mixup and plain fits share stacks.
    Each fit keeps its own seeded init, shuffle and mixup streams and its own
    rows, so every model is bit for bit the one ``fit_minibatch`` or
    ``train_mixup`` gives for its fit alone.  Every ``(x, y)`` passes
    ``check_input`` first, and the models come back in input order.
    """
    if mixups is None:
        mixups = [None] * len(cfgs)
    if not len(xs) == len(ys) == len(cfgs) == len(mixups):
        raise ShapeError(
            f"got {len(xs)} inputs, {len(ys)} label vectors, {len(cfgs)} configs "
            f"and {len(mixups)} mixup settings"
        )
    data = [check_input(None, x, y) for x, y in zip(xs, ys)]
    stacks: dict[tuple, list[int]] = {}
    for i, ((x, _), cfg) in enumerate(zip(data, cfgs)):
        stacks.setdefault((x.shape, replace(cfg, seed=0)), []).append(i)
    models: list[MlpModel | None] = [None] * len(cfgs)
    for (_, key), members in stacks.items():
        seeds = [cfgs[i].seed for i in members]
        fitted = _descend_stack([data[i] for i in members], key, seeds, [mixups[i] for i in members])
        for i, model in zip(members, fitted):
            models[i] = model
    return models


def fit_minibatch(x: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> MlpModel:
    """Train a fresh model on pooled arrays with seeded shuffling.

    Weight init and per-epoch batch order derive only from ``cfg.seed`` and
    the array length, so two callers handing over identical arrays and config
    get bit-identical models.  ``x`` and ``y`` are checked once, here: ``x``
    must be a finite ``(n, d)`` matrix with ``n`` labels, each a finite value
    in [0, 1] (``ShapeError``/``DataError``), and every batch is a subset of
    its rows.  This is ``fit_stack`` of one.
    """
    return fit_stack([x], [y], [cfg])[0]

