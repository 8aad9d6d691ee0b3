"""The one training loop behind every model in the package, its configuration, and
the reference trainers.

A fit is one ``(x, y, cfg, rule)`` tuple, ``rule`` ``None`` for a plain fit, a
``MixupConfig`` or a ``GroupDroRule``.  ``descend`` trains a stack of M fits at
once; a single fit is a stack of one.  ``fit_stack`` takes a list of fits and
groups those that can share a descent, plain, mixup and GroupDRO fits alike.
The baselines ``train_erm``, ``train_mixup`` and ``train_groupdro`` are each one
such fit on the pooled source.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .data import DomainSet
from .errors import ConfigError, DataError, NumericError, ShapeError
from .nn import _ROWS_FIRST_MAX_WIDTH, MlpModel, Workspace, _bce, bind_adam, check_architecture, check_input
from .nn import init_mlp, param_views
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


@dataclass(frozen=True)
class GroupDroRule:
    """GroupDRO's batch rule for a fit whose rows are its domains' rows, domain by domain.

    ``sizes`` are the domains' row counts.  Each step draws one batch per
    domain, upweights the domains in proportion to exp(eta * loss),
    renormalizes, and descends on the weighted mean gradient.  ``on_step`` (if
    given) observes (step, q, per-domain losses).
    """

    sizes: tuple[int, ...]
    eta: float = 0.01
    on_step: Callable[[int, np.ndarray, np.ndarray], None] | None = None

    def __post_init__(self):
        if not (np.isfinite(self.eta) and self.eta >= 0):
            raise ConfigError(f"eta must be finite and >= 0, got {self.eta}")


def _bind_mix(mixup: MixupConfig, rng: np.random.Generator, x, y, x_rows, y_rows):
    """A mixup fit's step work on one block shape as one zero-argument call.

    ``x_rows`` and ``y_rows`` are the fit's row of a workspace's ``x`` and
    ``y``, which the descent's ``take``s fill with the step's batch; ``x`` and
    ``y`` are the fit's own rows.  The call draws partners, then ratios, and writes
    ``lam * batch + (1 - lam) * x[partners]`` into the batch, operation by
    operation on buffers it keeps; a non-finite mixed input is a ``DataError``.
    A narrow ``x`` scales its rows with rows innermost, as ``Workspace`` adds a
    narrow layer's bias: the products are the same, the loop is faster.
    """
    size, n = len(y_rows), len(y)
    x_partner, y_partner, rest = np.empty_like(x_rows), np.empty_like(y_rows), np.empty_like(y_rows)
    rest_col, one = rest[:, None], np.array(1.0)
    order = "F" if x.shape[1] <= _ROWS_FIRST_MAX_WIDTH else "K"
    finite = np.empty(x_rows.shape, dtype=bool)

    def mix() -> None:
        partners = rng.integers(0, n, size=size)
        lam = draw_lambdas(mixup, rng, size)
        np.subtract(one, lam, rest)
        np.multiply(x_rows, lam[:, None], x_rows, order=order)
        x.take(partners, axis=0, out=x_partner, mode="clip")
        np.multiply(x_partner, rest_col, x_partner, order=order)
        np.add(x_rows, x_partner, x_rows)
        np.multiply(y_rows, lam, y_rows)
        y.take(partners, out=y_partner, mode="clip")
        np.multiply(y_partner, rest, y_partner)
        np.add(y_rows, y_partner, y_rows)
        if not np.isfinite(x_rows, finite).all():
            raise DataError("non-finite value in model input")

    return mix


def _bind_reweigh(rule: GroupDroRule, q: np.ndarray, p1, y, g):
    """A GroupDRO fit's step work on one block shape as ``reweigh(step)``, on buffers it
    keeps: ``p1``, ``y`` and ``g`` are the fit's rows (one per domain) of a workspace
    and of the stack's gradient.  It updates the group weights ``q`` from the domains'
    mean ``_bce``, then writes the q-weighted gradient sum into every row of ``g``,
    summed from +0.0 in domain order as filling with 0.0 and adding each term would."""
    eta, on_step = rule.eta, rule.on_step
    work = [np.empty_like(p1) for _ in range(3)]
    losses, scaled, factors, q_sum = np.empty_like(q), np.empty_like(q), np.empty_like(q), np.empty(())
    finite = np.empty(q.shape, dtype=bool)
    rate, count = np.array(eta), np.array(float(p1.shape[-1]))
    q_col, total = q[:, None], np.empty(g.shape[1])

    def reweigh(step: int) -> None:
        np.add.reduce(_bce(p1, y, work), -1, None, losses)
        np.divide(losses, count, losses)
        np.multiply(rate, losses, scaled)
        np.exp(scaled, factors)
        np.multiply(q, factors, q)
        np.add.reduce(q, 0, None, q_sum)
        np.divide(q, q_sum, q)
        if not np.isfinite(q, finite).all():
            raise NumericError(
                f"GroupDRO group weights are not finite at step {step} "
                f"(eta {eta}, domain losses {losses.tolist()})"
            )
        if on_step is not None:
            on_step(step, q.copy(), losses.copy())
        np.multiply(g, q_col, g)
        np.add.reduce(g, 0, None, total)
        np.copyto(g, total)

    return reweigh


def _bind_order(sizes: tuple[int, ...], rng: np.random.Generator, base: int, out: np.ndarray):
    """A fit's epoch order as one zero-argument call: the fit's rows, ``base +
    arange(sum(sizes))``, are copied, each block of ``sizes`` shuffled in place with
    ``rng`` in block order, and one ``take`` writes position ``start_j + c % n_j`` to
    column c of ``out``'s row j, so a block wraps round when ``out`` is wider."""
    starts = np.cumsum([0, *sizes[:-1]])
    table = starts[:, None] + np.arange(out.shape[1]) % np.array(sizes)[:, None]
    rows = np.arange(base, base + sum(sizes))
    shuffled = np.empty_like(rows)
    blocks = [shuffled[start : start + n] for start, n in zip(starts, sizes)]

    def draw() -> None:
        np.copyto(shuffled, rows)
        for block in blocks:
            rng.shuffle(block)
        shuffled.take(table, out=out, mode="clip")

    return draw


def _row_blocks(n: int, rule, batch_size: int) -> tuple[tuple[int, ...], int]:
    """A fit's row blocks, one per stack row, and the rows each takes per epoch: all n,
    or a GroupDRO fit's domains, each taking ``batch_size`` rows on every step."""
    if isinstance(rule, GroupDroRule):
        return rule.sizes, -(-max(rule.sizes) // batch_size) * batch_size
    return (n,), n


@np.errstate(over="ignore", invalid="ignore")  # a divergence is caught at the end instead
def descend(fits: list[tuple]) -> list[MlpModel]:
    """One stacked descent over checked ``(x, y, cfg, rule)`` fits of one width, one
    config but for ``seed``, and one count of rows per stack row per epoch.

    Each fit draws its init and shuffle stream from its own ``cfg.seed``; the
    stack's other knobs are the first fit's.  A fit is a list of row blocks
    (``_row_blocks``), each one row of the stack: a plain or mixup fit has one,
    a GroupDRO fit one per domain, replicas that start equal and stay equal, as
    each step writes one weighted gradient into all of them and Adam is
    element-wise.  Every fit draws its rows of each epoch's index matrix with
    one bound call (``_bind_order``).  A mixup fit mixes its block in place
    after each step's gather, with partners, then ratios, from its own
    ``rng_for(<fit seed>, "mixup")`` stream.  Each block shape's step is bound
    once, each GroupDRO and mixup fit's step work with it (``_bind_reweigh``,
    ``_bind_mix``): a step is two ``take``s, one kernel and one Adam call for
    the whole stack, row by row that of a fit alone, so every model is bit for
    bit the one a stack of one gives.  Overflow and invalid-value warnings are
    off; a non-finite parameter or Adam second moment at the end raises
    ``NumericError`` naming the first diverged fit's seed.
    """
    x, _, cfg, rule = fits[0]
    dims, batch = cfg.layer_dims(x.shape[1]), cfg.batch_size
    length = _row_blocks(len(x), rule, batch)[1]  # index columns of a stack row per epoch
    x_all = np.concatenate([x for x, _, _, _ in fits])
    y_all = np.concatenate([y for _, y, _, _ in fits])
    blocks = [_row_blocks(len(x), rule, batch)[0] for x, _, _, rule in fits]
    firsts = np.cumsum([0, *map(len, blocks[:-1])]).tolist()  # each fit's first stack row
    row_seeds = [fit[2].seed for fit, sizes in zip(fits, blocks) for _ in sizes]
    params = np.stack(
        [init_mlp(dims, cfg.rep_layer_index, derive_seed(seed, "init")).params for seed in row_seeds]
    )
    grad = np.empty_like(params)
    m, v = np.zeros_like(params), np.zeros_like(params)
    weights, biases = param_views(dims, params)
    biases = tuple(b[:, None, :] for b in biases)  # broadcast over a batch's rows
    grads = param_views(dims, grad)
    order = np.empty((len(row_seeds), length), dtype=np.intp)
    draws, mixing, reweighting = [], [], []
    base = 0  # the fit's first row in x_all
    for (x, y, fit_cfg, rule), sizes, row in zip(fits, blocks, firsts):
        rows = slice(row, row + len(sizes))
        draws.append(_bind_order(sizes, rng_for(fit_cfg.seed, "batch"), base, order[rows]))
        if isinstance(rule, GroupDroRule):
            reweighting.append((rule, np.full(len(sizes), 1.0 / len(sizes)), rows))
        elif rule is not None:
            mixing.append((row, rule, rng_for(fit_cfg.seed, "mixup"), x, y))
        base += len(x)
    bound = {}  # the gather buffers and bound step, mixes and reweighs per block shape
    epoch_blocks = []  # (view of ``order``, gather buffers, bound step work) of each block of an epoch
    for start in range(0, length, batch):
        idx = order[:, start : start + batch]
        if idx.shape[1] not in bound:
            ws = Workspace(dims, idx.shape)
            mixes = [
                _bind_mix(mixup, rng, x, y, ws.x[row], ws.y[row]) for row, mixup, rng, x, y in mixing
            ]
            reweighs = [
                _bind_reweigh(rule, q, ws.p1[rows], ws.y[rows], grad[rows]) for rule, q, rows in reweighting
            ]
            bound[idx.shape[1]] = ws.x, ws.y, ws.bind(weights, biases, grads), mixes, reweighs
        epoch_blocks.append((idx, *bound[idx.shape[1]]))
    adam = bind_adam(params, m, v, grad, cfg.beta)
    step = 0
    for _ in range(cfg.epochs):
        for draw in draws:
            draw()
        for idx, x_rows, y_rows, kernel, mixes, reweighs in epoch_blocks:
            # idx indexes within x_all, so "clip" never acts; it spares the copy "raise" makes with out
            x_all.take(idx, axis=0, out=x_rows, mode="clip")
            y_all.take(idx, out=y_rows, mode="clip")
            for mix in mixes:
                mix()
            kernel()
            step += 1
            for reweigh in reweighs:
                reweigh(step)
            adam(step)
    finite = np.isfinite(params).all(axis=1) & np.isfinite(v).all(axis=1)
    if not finite.all():
        seed = row_seeds[int(np.argmin(finite))]
        raise NumericError(
            f"training diverged: the parameters or Adam second moments of the fit with "
            f"seed {seed} are not all finite"
        )
    params.setflags(write=False)
    return [MlpModel(dims, params[row], cfg.rep_layer_index) for row in firsts]


def fit_stack(fits: Sequence[tuple]) -> list[MlpModel]:
    """Train one fresh model per ``(x, y, cfg, rule)`` fit, stacking the fits that can
    share a descent.

    ``rule`` is the fit's batch rule: ``None`` (plain), a ``MixupConfig``, or a
    ``GroupDroRule`` over the domains whose rows make up ``x``, in order.  Fits
    stack when they share input width, config but for ``seed``, and the rows
    each stack row takes per epoch (``_row_blocks``): n for a fit of n rows, in
    ``batch_size``-row blocks and a short last one, and for GroupDRO
    ``ceil(max(sizes) / batch_size) * batch_size`` of every domain.  Each fit
    keeps its own seeded streams, state and rows, so every model is bit for bit
    the one its fit alone gives.  Every fit's ``(x, y)`` passes ``check_input``
    first; the models come back in input order.
    """
    fits = [(*check_input(None, x, y), cfg, rule) for x, y, cfg, rule in fits]
    stacks: dict[tuple, list[int]] = {}
    for i, (x, _, cfg, rule) in enumerate(fits):
        if isinstance(rule, GroupDroRule) and (sum(rule.sizes) != len(x) or min(rule.sizes) < 1):
            raise ShapeError(f"GroupDRO domain sizes {rule.sizes} do not split {len(x)} rows")
        key = (x.shape[1], _row_blocks(len(x), rule, cfg.batch_size)[1], replace(cfg, seed=0))
        stacks.setdefault(key, []).append(i)
    models: list[MlpModel | None] = [None] * len(fits)
    for members in stacks.values():
        for i, model in zip(members, descend([fits[i] for i in members])):
            models[i] = model
    return models


def train_erm(ds: DomainSet, cfg: TrainConfig) -> MlpModel:
    """Minibatch training on all source domains pooled: ``fit_stack`` of one plain fit."""
    pooled = ds.pooled()
    return fit_stack([(pooled.x, pooled.y, cfg, None)])[0]


def train_mixup(ds: DomainSet, cfg: TrainConfig, mixup: MixupConfig) -> MlpModel:
    """Pooled minibatch training on convex combinations of random pairs: ``fit_stack``
    of one mixup fit."""
    pooled = ds.pooled()
    return fit_stack([(pooled.x, pooled.y, cfg, mixup)])[0]


def train_groupdro(
    ds: DomainSet,
    cfg: TrainConfig,
    eta: float = 0.01,
    on_step: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
) -> MlpModel:
    """Exponentiated-gradient reweighting of per-domain losses: ``fit_stack`` of one
    fit under ``GroupDroRule``, which ``on_step`` observes as (step, q, losses).

    A bad ``eta`` is a ``ConfigError`` before any step, and a step whose
    reweighting is not finite (``exp`` overflows for a large ``eta``) raises
    ``NumericError``.
    """
    rule = GroupDroRule(tuple(len(d) for d in ds.domains), eta, on_step)
    pooled = ds.pooled()
    return fit_stack([(pooled.x, pooled.y, cfg, rule)])[0]
