"""The one training loop behind every model in the package, its configuration, and
the reference trainers.

``descend`` trains a stack of M fits at once; a single fit is a stack of one.
``fit_stack`` groups fits that can share a descent, plain, mixup and GroupDRO
fits alike.  The baselines ``train_erm``, ``train_mixup`` and ``train_groupdro``
are each one such fit on the pooled source.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .data import DomainSet
from .errors import ConfigError, DataError, NumericError, ShapeError
from .nn import _ROWS_FIRST_MAX_WIDTH, P_MAX, P_MIN
from .nn import MlpModel, Workspace, bind_adam, check_architecture, check_input, init_mlp, param_views
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


def check_groupdro_eta(eta: float) -> None:
    """GroupDRO's step-size rule: ``eta`` finite and >= 0, else ``ConfigError``."""
    if not (np.isfinite(eta) and eta >= 0):
        raise ConfigError(f"eta must be finite and >= 0, got {eta}")


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
        check_groupdro_eta(self.eta)


def _bind_mix(mixup: MixupConfig, rng: np.random.Generator, x, y, x_rows, y_rows):
    """A mixup fit's step work on one block shape as one zero-argument call.

    ``x_rows`` and ``y_rows`` are the fit's row of a workspace's ``x`` and
    ``y``, which hold the step's gathered batch; ``x`` and ``y`` are the fit's
    own rows.  The call draws partners, then ratios, and writes
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


class _Reweighting:
    """A GroupDRO fit in a descent: its stack rows, one per domain, and its group weights.

    Each epoch shuffles every domain's block of the fit's rows in place with
    the fit's stream, in domain order (shuffling ``start + arange(n)`` draws
    ``start + permutation(n)``); row j of step s then takes positions
    ``start_j + (s * batch + c) % n_j`` of that order.  ``bind`` binds the
    step's reweighting once per block shape, on buffers it keeps.
    """

    def __init__(self, rule: GroupDroRule, rows: slice, fit_rows, length: int, shuffle):
        self.rule, self.rows, self.fit_rows, self.shuffle = rule, rows, fit_rows, shuffle
        starts = np.cumsum([0, *rule.sizes[:-1]])
        self.table = starts[:, None] + np.arange(length) % np.array(rule.sizes)[:, None]
        self.shuffled = np.empty_like(fit_rows)
        self.blocks = [self.shuffled[start : start + n] for start, n in zip(starts, rule.sizes)]
        self.q = np.full(len(rule.sizes), 1.0 / len(rule.sizes))

    def draw(self, order: np.ndarray) -> None:
        """Write the fit's rows of an epoch's index matrix."""
        np.copyto(self.shuffled, self.fit_rows)
        for block in self.blocks:
            self.shuffle.shuffle(block)
        self.shuffled.take(self.table, out=order[self.rows], mode="clip")

    def bind(self, ws: Workspace, grad: np.ndarray):
        """The step's reweighting on ``ws``'s last forward as ``reweigh(step)``: update
        ``q`` from the domains' mean BCE, then write the q-weighted gradient sum into
        every row of the fit in ``grad``.

        The losses take ``_bce``'s operations in its order (``maximum`` then
        ``minimum`` are ``clip``'s bits, each ``log`` is out of place as in its
        expression) and ``mean``'s sum and divide.  The weighted sum starts from
        +0.0 in domain order, as filling with 0.0 and adding each domain's term
        would.
        """
        eta, on_step, q = self.rule.eta, self.rule.on_step, self.q
        p1, y = ws.p1[self.rows], ws.y[self.rows]
        p, log_p, log_rest = np.empty_like(p1), np.empty_like(p1), np.empty_like(p1)
        losses, scaled, factors, q_sum = np.empty_like(q), np.empty_like(q), np.empty_like(q), np.empty(())
        finite = np.empty(q.shape, dtype=bool)
        p_min, p_max, one, rate = (np.array(c) for c in (P_MIN, P_MAX, 1.0, eta))
        count = np.array(float(p1.shape[-1]))
        g, q_col, total = grad[self.rows], q[:, None], np.empty(grad.shape[1])

        def reweigh(step: int) -> None:
            np.maximum(p1, p_min, out=p)
            np.minimum(p, p_max, out=p)
            np.log(p, log_p)
            np.multiply(y, log_p, log_p)
            np.subtract(one, p, p)
            np.log(p, log_rest)
            np.subtract(one, y, p)
            np.multiply(p, log_rest, log_rest)
            np.add(log_p, log_rest, log_p)
            np.negative(log_p, log_p)
            np.add.reduce(log_p, -1, None, losses)
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


def _blocks(n: int, rule, batch_size: int) -> tuple[int, int]:
    """Steps per epoch, and the rows of the last step's block, of a fit of ``n`` rows
    under ``rule``; every other block has ``batch_size`` rows."""
    if isinstance(rule, GroupDroRule):  # a full batch per domain, wrapping round it
        return -(-max(rule.sizes) // batch_size), batch_size
    steps = -(-n // batch_size)
    return steps, n - (steps - 1) * batch_size


@np.errstate(over="ignore", invalid="ignore")  # a divergence is caught at the end instead
def descend(
    data: list[tuple[np.ndarray, np.ndarray]],
    cfg: TrainConfig,
    seeds: list[int],
    rules: list,
    blocks: tuple[int, int],
) -> list[MlpModel]:
    """One stacked descent under ``cfg`` over ``(x, y)`` fits of one width and ``_blocks``.

    Fit i draws its init and shuffle stream from ``seeds[i]`` (``cfg.seed`` is
    not read) and takes one row of the stack; a GroupDRO fit takes one per
    domain, replicas that start equal and stay equal, as each step writes one
    weighted gradient into all of them and Adam is element-wise.  A mixup fit
    mixes its block in place after each step's gather, with partners, then
    ratios, from its own ``rng_for(<fit seed>, "mixup")`` stream.  Each epoch's
    index matrix is built once, and each block shape's step is bound once,
    each GroupDRO and mixup fit's step work with it (``_Reweighting.bind``,
    ``_bind_mix``): a step is one kernel and one Adam call for the whole
    stack, row by row that of a fit alone, so every model is bit for bit the
    one a stack of one gives.  Overflow and invalid-value warnings are off; a
    non-finite parameter or Adam second moment at the end raises
    ``NumericError`` naming the first diverged fit's seed.
    """
    d = data[0][0].shape[1]
    dims = cfg.layer_dims(d)
    steps, last = blocks
    batch = cfg.batch_size
    length = (steps - 1) * batch + last  # index columns of a stack row per epoch
    x_all = np.concatenate([x for x, _ in data])
    y_all = np.concatenate([y for _, y in data])
    widths = [len(rule.sizes) if isinstance(rule, GroupDroRule) else 1 for rule in rules]
    firsts = np.cumsum([0, *widths[:-1]]).tolist()  # each fit's first stack row
    row_seeds = [seed for seed, width in zip(seeds, widths) for _ in range(width)]
    params = np.stack(
        [init_mlp(dims, cfg.rep_layer_index, derive_seed(seed, "init")).params for seed in row_seeds]
    )
    grad = np.empty_like(params)
    m, v = np.zeros_like(params), np.zeros_like(params)
    weights, biases = param_views(dims, params)
    biases = tuple(b[:, None, :] for b in biases)  # broadcast over a batch's rows
    grads = param_views(dims, grad)
    rows = np.zeros((len(row_seeds), length), dtype=np.intp)  # each plain fit's rows in x_all
    order = np.empty_like(rows)
    plain, mixing, reweighting = [], [], []
    base = 0  # the fit's first row in x_all
    for (x, _), row, seed, rule in zip(data, firsts, seeds, rules):
        fit_rows = np.arange(base, base + len(x))
        shuffle = rng_for(seed, "batch")
        if isinstance(rule, GroupDroRule):
            fit = slice(row, row + len(rule.sizes))
            reweighting.append(_Reweighting(rule, fit, fit_rows, length, shuffle))
        else:
            rows[row] = fit_rows
            plain.append((row, shuffle))
            if rule is not None:
                own = slice(base, base + len(x))
                mixing.append((row, rule, rng_for(seed, "mixup"), x_all[own], y_all[own]))
        base += len(x)
    bound = {}  # a workspace and its bound step, mixes and reweighs per block shape
    epoch_blocks = []  # (view of ``order``, workspace, bound step work) of each block of an epoch
    for start in range(0, length, batch):
        idx = order[:, start : start + batch]
        if idx.shape[1] not in bound:
            ws = Workspace(dims, idx.shape)
            mixes = [
                _bind_mix(mixup, rng, x, y, ws.x[row], ws.y[row]) for row, mixup, rng, x, y in mixing
            ]
            reweighs = [fit.bind(ws, grad) for fit in reweighting]
            bound[idx.shape[1]] = ws, ws.bind(weights, biases, grads), mixes, reweighs
        epoch_blocks.append((idx, *bound[idx.shape[1]]))
    adam = bind_adam(params, m, v, grad, cfg.beta)
    step = 0
    for _ in range(cfg.epochs):
        np.copyto(order, rows)
        for row, shuffle in plain:
            shuffle.shuffle(order[row])
        for fit in reweighting:
            fit.draw(order)
        for idx, ws, kernel, mixes, reweighs in epoch_blocks:
            ws.gather(x_all, y_all, idx)
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


def fit_stack(
    xs: Sequence,
    ys: Sequence,
    cfgs: Sequence[TrainConfig],
    rules: Sequence[MixupConfig | GroupDroRule | None] | None = None,
) -> list[MlpModel]:
    """Train one fresh model per ``(x, y, cfg)``, stacking the fits that can share a descent.

    ``rules`` holds each fit's batch rule: ``None`` (plain; all plain when
    omitted), a ``MixupConfig``, or a ``GroupDroRule`` over the domains whose
    rows make up ``x``, in order.  Fits stack when they share input width,
    config but for ``seed``, and the row count of every step's blocks: n rows
    give ``batch_size``-row blocks and a short last one, GroupDRO gives
    ``ceil(max(sizes) / batch_size)`` blocks of ``batch_size`` rows per
    domain.  Each fit keeps its own seeded streams, state and rows, so every
    model is bit for bit the one its fit alone gives.  Every ``(x, y)``
    passes ``check_input`` first; the models come back in input order.
    """
    if rules is None:
        rules = [None] * len(cfgs)
    if not len(xs) == len(ys) == len(cfgs) == len(rules):
        raise ShapeError(
            f"got {len(xs)} inputs, {len(ys)} label vectors, {len(cfgs)} configs "
            f"and {len(rules)} batch rules"
        )
    data = [check_input(None, x, y) for x, y in zip(xs, ys)]
    stacks: dict[tuple, list[int]] = {}
    for i, ((x, _), cfg, rule) in enumerate(zip(data, cfgs, rules)):
        if isinstance(rule, GroupDroRule) and (sum(rule.sizes) != len(x) or min(rule.sizes) < 1):
            raise ShapeError(f"GroupDRO domain sizes {rule.sizes} do not split {len(x)} rows")
        key = (x.shape[1], _blocks(len(x), rule, cfg.batch_size), replace(cfg, seed=0))
        stacks.setdefault(key, []).append(i)
    models: list[MlpModel | None] = [None] * len(cfgs)
    for (_, blocks, cfg), members in stacks.items():
        seeds = [cfgs[i].seed for i in members]
        fitted = descend([data[i] for i in members], cfg, seeds, [rules[i] for i in members], blocks)
        for i, model in zip(members, fitted):
            models[i] = model
    return models


def train_erm(ds: DomainSet, cfg: TrainConfig) -> MlpModel:
    """Minibatch training on all source domains pooled: ``fit_stack`` of one plain fit."""
    pooled = ds.pooled()
    return fit_stack([pooled.x], [pooled.y], [cfg])[0]


def train_mixup(ds: DomainSet, cfg: TrainConfig, mixup: MixupConfig) -> MlpModel:
    """Pooled minibatch training on convex combinations of random pairs: ``fit_stack``
    of one mixup fit."""
    pooled = ds.pooled()
    return fit_stack([pooled.x], [pooled.y], [cfg], [mixup])[0]


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
    return fit_stack([pooled.x], [pooled.y], [cfg], [rule])[0]
