"""Worst-case data augmentation under covariate and concept shift constraints.

For each training point, gradient ascent on a penalized surrogate objective
produces one label-preserving fictitious point; the final model is trained by
plain minibatch optimization on the union of the original and fictitious
data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import DomainSet, write_csv
from .errors import ConfigError, ShapeError
from .nn import MlpModel, _bce, _forward, check_input
from .rng import derive_seed, rng_for
from .training import TrainConfig, fit_stack

# Floor for relative-improvement denominators in the ascent stopping rule.
_REL_FLOOR = 1e-12


@dataclass(frozen=True)
class PenaltyParams:
    """Penalty weights: gamma1 scales the covariate constraint, gamma2 the concept one."""

    gamma1: float
    gamma2: float

    def __post_init__(self):
        for name, v in (("gamma1", self.gamma1), ("gamma2", self.gamma2)):
            if not (math.isfinite(v) and v >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class AscentConfig:
    """Inner-maximization loop: step size, step budget, and stopping rule."""

    alpha: float = 0.05
    max_steps: int = 15
    rel_tolerance: float = 1e-4
    min_steps: int = 3

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ConfigError(f"alpha must be finite and positive, got {self.alpha}")
        if self.max_steps < 0 or self.min_steps < 0 or self.max_steps < self.min_steps:
            raise ConfigError(
                f"need 0 <= min_steps <= max_steps, got {self.min_steps}, {self.max_steps}"
            )
        if not (math.isfinite(self.rel_tolerance) and self.rel_tolerance >= 0):
            raise ConfigError(f"rel_tolerance must be finite and >= 0, got {self.rel_tolerance}")


@dataclass(frozen=True, eq=False)
class FictitiousSet:
    """One fictitious row per training row, in origin order, as parallel arrays.

    Row r is the point ``x_star[r]`` with its origin's label ``y_star[r]``,
    made from row ``origin_index[r]`` of domain ``origin_domain[r]`` against
    the model of ``partner_domain[r]``.  ``objective_trace[r, :trace_length[r]]``
    holds the objective before the first and after each accepted step; the
    rest of the row is NaN padding.  ``aborted[r]`` flags an ascent stopped by
    a non-finite candidate or objective.
    """

    x_star: np.ndarray
    y_star: np.ndarray
    origin_domain: np.ndarray
    origin_index: np.ndarray
    partner_domain: np.ndarray
    objective_trace: np.ndarray
    trace_length: np.ndarray
    aborted: np.ndarray

    def __len__(self) -> int:
        return self.x_star.shape[0]

    def write_csv(self, path: str | Path) -> None:
        final = self.objective_trace[np.arange(len(self)), self.trace_length - 1]
        header = ["origin_domain", "origin_index", "partner_domain", "y_star"]
        header += [f"x_star_{j}" for j in range(self.x_star.shape[1])] + ["final_objective"]
        columns = (self.origin_domain, self.origin_index, self.partner_domain, self.y_star, self.x_star)
        rows = zip(*(c.tolist() for c in columns), final.tolist())
        write_csv(path, header, ([o, i, p, y, *x, f] for o, i, p, y, x, f in rows))


def _objective_rows(x, y, z_anchor, model_i: MlpModel, model_j: MlpModel, gammas) -> np.ndarray:
    """Ascent objective of each row: the origin model's loss, minus gamma1 times half the
    squared distance of its representation to ``z_anchor``, minus gamma2 times the
    partner model's loss.  A zero-weight penalty term is skipped."""
    ws = _forward(model_i, x)
    value = _bce(ws.p1, y)
    if gammas.gamma1 != 0.0:
        z = ws.acts[model_i.rep_layer_index]
        value = value - gammas.gamma1 * (0.5 * np.sum((z - z_anchor) ** 2, axis=1))
    if gammas.gamma2 != 0.0:
        value = value - gammas.gamma2 * _bce(_forward(model_j, x).p1, y)
    return value


def _objective_grad(x, y, z_anchor, model_i: MlpModel, model_j: MlpModel, gammas) -> np.ndarray:
    """Per-row input gradient of ``_objective_rows``, every term kept whatever its weight:
    the origin model's loss gradient, then the anchor term's backprop from the
    representation layer, then the partner model's loss gradient."""
    ws = _forward(model_i, x, y)
    ws.score_grads(mean=False)
    g = ws.backward(model_i.weights, model_i.n_layers)
    rep = model_i.rep_layer_index
    np.subtract(ws.acts[rep], z_anchor, out=ws.deltas[rep])
    g = g - gammas.gamma1 * ws.backward(model_i.weights, rep)
    partner = _forward(model_j, x, y)
    partner.score_grads(mean=False)
    return g - gammas.gamma2 * partner.backward(model_j.weights, model_j.n_layers)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite row is screened and aborted instead
def _ascend(
    x0: np.ndarray,
    y: np.ndarray,
    model_i: MlpModel,
    model_j: MlpModel,
    gammas: PenaltyParams,
    cfg: AscentConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradient ascent of the penalized objective from every row of ``x0``, labels kept.

    A step that would lower a row's objective is retried with a halved step
    size up to three times, then that row stops; after ``min_steps`` accepted
    steps a row also stops once its relative improvement falls under
    ``rel_tolerance``.  A non-finite candidate or objective stops the row at
    its last finite iterate, flagged as aborted.  Rows share the models but
    not their fate: each leaves the active set when it stops.

    The outside input is checked once: ``check_input`` and the partner's width.
    The iterates, screened for non-finite values, are not checked again.

    Returns the final iterates, the NaN-padded (n, max_steps + 1) objective
    traces, the trace lengths and the abort flags.
    """
    x0, y = check_input(model_i, x0, y)
    if model_j.input_dim != model_i.input_dim:
        raise ShapeError(f"partner model takes {model_j.input_dim} inputs, origin {model_i.input_dim}")
    z_anchor = _forward(model_i, x0).acts[model_i.rep_layer_index]
    n = x0.shape[0]
    x = x0.copy()
    values = np.full((n, cfg.max_steps + 1), np.nan)
    values[:, 0] = _objective_rows(x, y, z_anchor, model_i, model_j, gammas)
    lengths = np.ones(n, dtype=np.intp)
    aborted = np.zeros(n, dtype=bool)
    live = np.arange(n)
    for step_no in range(1, cfg.max_steps + 1):
        if live.size == 0:
            break
        g = _objective_grad(x[live], y[live], z_anchor[live], model_i, model_j, gammas)
        accepted = np.zeros(live.size, dtype=bool)
        trying = np.arange(live.size)  # positions in ``live`` still halving
        step = cfg.alpha
        for _ in range(4):  # initial step plus up to three halvings
            rows = live[trying]
            candidate = x[rows] + step * g[trying]
            value = np.full(rows.size, np.nan)
            finite = np.all(np.isfinite(candidate), axis=1)
            value[finite] = _objective_rows(
                candidate[finite], y[rows[finite]], z_anchor[rows[finite]], model_i, model_j, gammas
            )
            bad = ~np.isfinite(value)
            up = ~bad & (value >= values[rows, step_no - 1])
            aborted[rows[bad]] = True
            x[rows[up]] = candidate[up]
            values[rows[up], step_no] = value[up]
            accepted[trying[up]] = True
            trying = trying[~bad & ~up]
            if trying.size == 0:
                break
            step *= 0.5
        lengths[live[accepted]] = step_no + 1
        if step_no >= cfg.min_steps:
            moved = live[accepted]
            prev = values[moved, step_no - 1]
            rel = (values[moved, step_no] - prev) / np.maximum(np.abs(prev), _REL_FLOOR)
            accepted[accepted] = ~(rel < cfg.rel_tolerance)
        live = live[accepted]
    return x, values, lengths, aborted


def _pretrain(sets: list[tuple[DomainSet, TrainConfig]]) -> list[dict[str, MlpModel]]:
    """The per-domain models of every ``(ds, cfg)`` as one ``fit_stack``: each domain
    trains only on its own rows under ``cfg`` with its own seed and ``pretrain_epochs``,
    bit for bit the model it gives alone."""
    for ds, _ in sets:
        if ds.k < 2:
            raise ConfigError(
                f"need at least 2 domains so every domain has a concept partner, got K={ds.k}"
            )
    domains = [dom for ds, _ in sets for dom in ds.domains]
    cfgs = [
        replace(cfg, seed=derive_seed(cfg.seed, "pretrain", dom.id), epochs=cfg.pretrain_epochs)
        for ds, cfg in sets
        for dom in ds.domains
    ]
    models = iter(fit_stack([dom.x for dom in domains], [dom.y for dom in domains], cfgs))
    return [{dom.id: next(models) for dom in ds.domains} for ds, _ in sets]


def generate_fictitious_set(
    ds: DomainSet,
    gammas: PenaltyParams,
    ascent_cfg: AscentConfig,
    train_cfg: TrainConfig,
    models: dict[str, MlpModel],
) -> FictitiousSet:
    """One fictitious point per training point, in origin order, from ``models``,
    one pretrained model per domain id.

    Partner domains rotate round-robin over the other domains with a seeded
    starting offset per origin domain.  The points of one origin domain that
    share a partner ascend together as one batch (``_ascend``); the results
    are put back in origin order.
    """
    if ds.k < 2:
        raise ConfigError(f"need at least 2 domains, got K={ds.k}")
    ids = [d.id for d in ds.domains]
    pooled = ds.pooled()
    n = len(pooled)
    x_star = np.empty_like(pooled.x)
    trace = np.empty((n, ascent_cfg.max_steps + 1))
    length = np.empty(n, dtype=np.intp)
    aborted = np.empty(n, dtype=bool)
    origin = np.repeat(ids, [len(d) for d in ds.domains])
    partner = np.empty_like(origin)
    start = 0
    for dom in ds.domains:
        others = [i for i in ids if i != dom.id]
        offset = int(rng_for(train_cfg.seed, "partner", dom.id).integers(len(others)))
        slots = (offset + np.arange(len(dom))) % len(others)
        partner[start : start + len(dom)] = np.array(others)[slots]
        for slot, partner_id in enumerate(others):
            rows = start + np.flatnonzero(slots == slot)
            if rows.size:
                x_star[rows], trace[rows], length[rows], aborted[rows] = _ascend(
                    pooled.x[rows], pooled.y[rows], models[dom.id], models[partner_id], gammas, ascent_cfg
                )
        start += len(dom)
    origin_index = np.concatenate([np.arange(len(d)) for d in ds.domains])
    return FictitiousSet(x_star, pooled.y, origin, origin_index, partner, trace, length, aborted)


def fictitious_sets(
    runs: list[tuple[DomainSet, PenaltyParams, TrainConfig]], ascent_cfg: AscentConfig
) -> list[FictitiousSet]:
    """The fictitious set of each ``(source, penalties, config)`` run, in input order:
    one ``fit_stack`` pretrains every run's domain models, and each run ascends
    against its own.  Runs that pass the same ``DomainSet`` object under equal
    configs share one set of models, bit for bit those each would train alone.
    """
    shared = list(dict.fromkeys((ds, cfg) for ds, _, cfg in runs))
    models = dict(zip(shared, _pretrain(shared)))
    return [
        generate_fictitious_set(ds, gammas, ascent_cfg, cfg, models[ds, cfg])
        for ds, gammas, cfg in runs
    ]


def train_gradframe(
    runs: list[tuple[DomainSet, PenaltyParams, TrainConfig]], ascent_cfg: AscentConfig
) -> list[tuple[MlpModel, FictitiousSet]]:
    """Full pipeline, one ``(model, fictitious set)`` per ``(source, penalties, config)``
    run, in input order: ``fictitious_sets``, then one ``fit_stack`` that retrains
    every final model from a fresh seeded init on the run's points followed by its
    fictitious points.  Every result is bit for bit the one its run gives alone.
    """
    ficts = fictitious_sets(runs, ascent_cfg)
    pools = [ds.pooled() for ds, _, _ in runs]
    finals = fit_stack(
        [np.vstack([pooled.x, fict.x_star]) for pooled, fict in zip(pools, ficts)],
        [np.concatenate([pooled.y, fict.y_star]) for pooled, fict in zip(pools, ficts)],
        [cfg for _, _, cfg in runs],
    )
    return list(zip(finals, ficts))
