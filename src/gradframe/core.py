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
from typing import NamedTuple

import numpy as np

from .data import DomainSet, write_csv
from .errors import ConfigError, ShapeError
from .nn import MlpModel, Workspace, _bce, check_input, param_views
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


class _Stack(NamedTuple):
    """Models of one architecture, stacked once per ascent: layer widths, representation
    layer, and ``(M, fan_in, fan_out)`` weight and ``(M, width)`` bias views."""

    dims: tuple[int, ...]
    rep: int
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    @classmethod
    def of(cls, models: list[MlpModel]) -> _Stack:
        dims = models[0].layer_dims
        return cls(dims, models[0].rep_layer_index, *param_views(dims, np.stack([m.params for m in models])))

    def forward(self, x, member, y=None) -> Workspace:
        """A fresh flat workspace holding the forward pass of each row of ``x`` (targets
        ``y``, if given) through the model of its ``member``, sorted."""
        stops = np.cumsum(np.bincount(member)).tolist()
        segments = [(k, a, b) for k, (a, b) in enumerate(zip([0, *stops], stops)) if a < b]
        ws = Workspace(self.dims, x.shape[:1], x, y, segments)
        ws.forward(self.weights, tuple(b.take(member, 0) for b in self.biases))  # 10x b[member]'s speed
        return ws


def _stack_objective(x, y, z_anchor, origin: _Stack, partner: _Stack, gammas, member) -> np.ndarray:
    """Ascent objective of each row, the rows sorted by ``member``: its origin model's
    loss, minus gamma1 times half the squared distance of its representation to
    ``z_anchor``, minus gamma2 times its partner model's loss (``gammas`` holds the
    members' ``(gamma1, gamma2)`` rows).  A zero-weight term is skipped per row."""
    gamma1, gamma2 = gammas.take(member, 0).T
    ws = origin.forward(x, member)
    value = _bce(ws.p1, y)
    anchor_term = 0.5 * np.sum((ws.acts[origin.rep] - z_anchor) ** 2, axis=-1)
    value = np.where(gamma1 != 0.0, value - gamma1 * anchor_term, value)
    return np.where(gamma2 != 0.0, value - gamma2 * _bce(partner.forward(x, member).p1, y), value)


def _stack_grad(x, y, z_anchor, origin: _Stack, partner: _Stack, gammas, member) -> np.ndarray:
    """Per-row input gradient of ``_stack_objective``, every term kept whatever its
    weight: the origin model's loss gradient, then the anchor term's backprop from the
    representation layer, then the partner model's loss gradient."""
    gamma1, gamma2 = gammas.take(member, 0).T
    ws = origin.forward(x, member, y)
    ws.score_grads(mean=False)
    g = ws.backward(origin.weights, len(origin.weights))
    np.subtract(ws.acts[origin.rep], z_anchor, out=ws.deltas[origin.rep])
    g = g - gamma1[:, None] * ws.backward(origin.weights, origin.rep)
    ws = partner.forward(x, member, y)
    ws.score_grads(mean=False)
    return g - gamma2[:, None] * ws.backward(partner.weights, len(partner.weights))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite row is screened and aborted instead
def _ascend(members: list, cfg: AscentConfig) -> list[tuple[np.ndarray, ...]]:
    """Gradient ascent of the penalized objective from every start row of every member,
    labels kept, as one loop over the stack of members.

    A member is ``(x0, y, model_i, model_j, gammas)``: start rows and their labels, an
    origin and a partner model, and the penalty weights.  The origin models share one
    architecture, and so do the partner models.

    A step that would lower a row's objective is retried with a halved step
    size up to three times, then that row stops; after ``min_steps`` accepted
    steps a row also stops once its relative improvement falls under
    ``rel_tolerance``.  A non-finite candidate or objective stops the row at
    its last finite iterate, flagged as aborted.  Rows share the loop and
    nothing else: each leaves the active set when it stops.

    The rows lie flat, sorted by member, and every subset of them an
    evaluation takes keeps that order, so each member's rows in it are one
    segment.  Each matmul runs once per segment against that member's
    weights (``Workspace``'s ``segments``), and everything else runs row by
    row on the rows given, with per-row biases and penalty weights.  A BLAS
    kernel's bits for a row can depend on the row count, a one-row matmul's
    most of all (numpy's ``gemv`` path; see the ``gemv`` FOUND line in
    CHANGES.md), and each segment's matmuls are those its member makes
    alone.  So each member's results are bit for bit those it gives alone.

    The outside input is checked once per member: ``check_input`` and the
    partner's width.  The iterates, screened for non-finite values, are not
    checked again.

    Returns per member the final iterates, the NaN-padded (n, max_steps + 1)
    objective traces, the trace lengths and the abort flags.
    """
    checked = []
    for x0, y, model_i, model_j, _ in members:
        checked.append(check_input(model_i, x0, y))
        if model_j.input_dim != model_i.input_dim:
            raise ShapeError(f"partner model takes {model_j.input_dim} inputs, origin {model_i.input_dim}")
    starts, labels = zip(*checked)
    _, _, models_i, models_j, gammas = zip(*members)
    origin, partner = _Stack.of(models_i), _Stack.of(models_j)
    gammas = np.array([(g.gamma1, g.gamma2) for g in gammas])
    sizes = [x0.shape[0] for x0 in starts]
    member_of = np.repeat(np.arange(len(members)), sizes)
    x0, y = np.concatenate(starts), np.concatenate(labels)
    n = x0.shape[0]
    z_anchor = origin.forward(x0, member_of).acts[origin.rep]

    def evaluate(kernel, rows, xs):
        """``kernel`` on the sorted ``rows`` at the inputs ``xs``, one per row."""
        return kernel(xs, y[rows], z_anchor.take(rows, 0), origin, partner, gammas, member_of[rows])

    x = x0.copy()
    values = np.full((n, cfg.max_steps + 1), np.nan)
    live = np.arange(n)
    values[:, 0] = evaluate(_stack_objective, live, x)
    lengths = np.ones(n, dtype=np.intp)
    aborted = np.zeros(n, dtype=bool)
    for step_no in range(1, cfg.max_steps + 1):
        if live.size == 0:
            break
        g = evaluate(_stack_grad, live, x[live])
        accepted = np.zeros(live.size, dtype=bool)
        trying = np.arange(live.size)  # positions in ``live`` still halving
        step = cfg.alpha
        for _ in range(4):  # initial step plus up to three halvings
            rows = live[trying]
            candidate = x[rows] + step * g[trying]
            value = np.full(rows.size, np.nan)
            finite = np.all(np.isfinite(candidate), axis=1)
            value[finite] = evaluate(_stack_objective, rows[finite], candidate[finite])
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
    bounds = np.cumsum(sizes)[:-1]
    return list(zip(*(np.split(a, bounds) for a in (x, values, lengths, aborted))))


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


def _ascend_runs(runs: list, ascent_cfg: AscentConfig) -> list[FictitiousSet]:
    """The fictitious set of each ``(source, penalties, train config, models)`` run, in
    input order, from ``models``, one pretrained model per domain id.  Each source
    has at least two domains, as ``_pretrain`` checks.

    Partner domains rotate round-robin over the other domains with a seeded
    starting offset per origin domain.  The points of one origin domain that
    share a partner are one batch, and the batches of all runs whose models
    share an architecture are one ``_ascend`` stack.
    """
    sets, stacks = [], {}
    for ds, gammas, train_cfg, models in runs:
        ids = [d.id for d in ds.domains]
        pooled = ds.pooled()
        n = len(pooled)
        origin = np.repeat(ids, [len(d) for d in ds.domains])
        origin_index = np.concatenate([np.arange(len(d)) for d in ds.domains])
        trace = np.empty((n, ascent_cfg.max_steps + 1))
        fict = FictitiousSet(
            np.empty_like(pooled.x), pooled.y, origin, origin_index, np.empty_like(origin), trace,
            np.empty(n, dtype=np.intp), np.empty(n, dtype=bool),
        )
        start = 0
        for dom in ds.domains:
            others = [i for i in ids if i != dom.id]
            offset = int(rng_for(train_cfg.seed, "partner", dom.id).integers(len(others)))
            slots = (offset + np.arange(len(dom))) % len(others)
            fict.partner_domain[start : start + len(dom)] = np.array(others)[slots]
            for slot, partner_id in enumerate(others):
                rows = start + np.flatnonzero(slots == slot)
                if rows.size:
                    mi, mj = models[dom.id], models[partner_id]
                    member = (pooled.x[rows], pooled.y[rows], mi, mj, gammas)
                    key = (mi.layer_dims, mi.rep_layer_index, mj.layer_dims)
                    stacks.setdefault(key, []).append((fict, rows, member))
            start += len(dom)
        sets.append(fict)
    for batches in stacks.values():
        results = _ascend([member for _, _, member in batches], ascent_cfg)
        for (fict, rows, _), (x, trace, length, aborted) in zip(batches, results):
            fict.x_star[rows], fict.objective_trace[rows] = x, trace
            fict.trace_length[rows], fict.aborted[rows] = length, aborted
    return sets


def fictitious_sets(
    runs: list[tuple[DomainSet, PenaltyParams, TrainConfig]], ascent_cfg: AscentConfig
) -> list[FictitiousSet]:
    """The fictitious set of each ``(source, penalties, config)`` run, in input order:
    one ``fit_stack`` pretrains every run's domain models, and one ascent stack per
    architecture ascends every run's batches against its own (``_ascend_runs``).
    Runs that pass the same ``DomainSet`` object under equal configs share one set
    of models, bit for bit those each would train alone.
    """
    shared = list(dict.fromkeys((ds, cfg) for ds, _, cfg in runs))
    models = dict(zip(shared, _pretrain(shared)))
    return _ascend_runs([(ds, gammas, cfg, models[ds, cfg]) for ds, gammas, cfg in runs], ascent_cfg)


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
