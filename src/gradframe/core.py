"""Worst-case data augmentation under covariate and concept shift constraints.

For each training point, gradient ascent on a penalized surrogate objective
produces one label-preserving fictitious point; the final model is trained by
plain minibatch optimization on the union of the original and fictitious
data.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import Domain, DomainSet, LabeledPoint
from .errors import ConfigError, ShapeError
from .nn import (
    MlpModel,
    bce_loss,
    bce_rows,
    input_grad_rows,
    representation,
    representations_batch,
)
from .rng import derive_seed, rng_for
from .training import TrainConfig, fit_domain, fit_minibatch

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
        if not self.alpha > 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")
        if self.max_steps < 0 or self.min_steps < 0 or self.max_steps < self.min_steps:
            raise ConfigError(
                f"need 0 <= min_steps <= max_steps, got {self.min_steps}, {self.max_steps}"
            )
        if self.rel_tolerance < 0:
            raise ConfigError(f"rel_tolerance must be >= 0, got {self.rel_tolerance}")


@dataclass(frozen=True)
class FictitiousPoint:
    """One worst-case sample with its provenance and per-step objective trace."""

    origin_domain: str
    origin_index: int
    x_star: np.ndarray
    y_star: int
    objective_trace: tuple[float, ...]
    partner_domain: str
    aborted: bool = False


@dataclass(frozen=True)
class FictitiousSet:
    points: tuple[FictitiousPoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    @property
    def feature_dim(self) -> int:
        return self.points[0].x_star.shape[0]

    def feature_matrix(self) -> np.ndarray:
        return np.stack([p.x_star for p in self.points])

    def label_vector(self) -> np.ndarray:
        return np.array([p.y_star for p in self.points], dtype=np.float64)

    def to_domain(self, domain_id: str = "fictitious") -> Domain:
        return Domain(
            domain_id,
            tuple(LabeledPoint(p.x_star, p.y_star) for p in self.points),
        )

    def write_csv(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        d = self.feature_dim
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["origin_domain", "origin_index", "partner_domain", "y_star"]
                + [f"x_star_{j}" for j in range(d)]
                + ["final_objective"]
            )
            for p in self.points:
                writer.writerow(
                    [p.origin_domain, p.origin_index, p.partner_domain, p.y_star]
                    + ["%.17g" % v for v in p.x_star]
                    + ["%.17g" % p.objective_trace[-1]]
                )


def c_cov(star: LabeledPoint, origin: LabeledPoint, model_i: MlpModel) -> float:
    """Half squared distance between the two representations; +inf if labels differ."""
    if star.label != origin.label:
        return math.inf
    z_star = representation(model_i, star.features)
    z = representation(model_i, origin.features)
    return float(0.5 * np.sum((z - z_star) ** 2))


def c_conc(star: LabeledPoint, model_j: MlpModel) -> float:
    """Loss of the fictitious point under the partner domain's model."""
    return bce_loss(model_j, star.features, star.label)


def surrogate_value(
    star: LabeledPoint,
    origin: LabeledPoint,
    model_i: MlpModel,
    model_j: MlpModel,
    gammas: PenaltyParams,
) -> float:
    """Ascent objective: adversarial loss minus the two weighted constraints."""
    if star.label != origin.label:
        return -math.inf
    return (
        bce_loss(model_i, star.features, star.label)
        - gammas.gamma1 * c_cov(star, origin, model_i)
        - gammas.gamma2 * c_conc(star, model_j)
    )


def _objective_rows(
    x: np.ndarray,
    y: np.ndarray,
    z_anchor: np.ndarray,
    model_i: MlpModel,
    model_j: MlpModel,
    gammas: PenaltyParams,
) -> np.ndarray:
    """Row-wise ``surrogate_value``; a zero-weight penalty term is skipped."""
    value, acts = bce_rows(model_i, x, y)
    if gammas.gamma1 != 0.0:
        z = acts[model_i.rep_layer_index]
        value = value - gammas.gamma1 * (0.5 * np.sum((z - z_anchor) ** 2, axis=1))
    if gammas.gamma2 != 0.0:
        value = value - gammas.gamma2 * bce_rows(model_j, x, y)[0]
    return value


def _ascend(
    x0: np.ndarray,
    y: np.ndarray,
    model_i: MlpModel,
    model_j: MlpModel,
    gammas: PenaltyParams,
    cfg: AscentConfig,
) -> tuple[np.ndarray, list[tuple[float, ...]], np.ndarray]:
    """Masked gradient ascent of every row of ``x0``; see ``inner_maximize``.

    Rows share the models but not their fate: each row leaves the active set
    when it stops, and the step halvings, acceptance test and stopping rule
    are applied row by row.  Returns the final iterates, the per-row
    objective traces and the per-row abort flags.
    """
    z_anchor = representations_batch(model_i, x0)  # also checks x0 against model_i
    if model_j.input_dim != model_i.input_dim:
        raise ShapeError(
            f"partner model expects dimension {model_j.input_dim}, "
            f"origin model expects {model_i.input_dim}"
        )
    n = x0.shape[0]
    x = x0.copy()
    values = np.empty((n, cfg.max_steps + 1))
    values[:, 0] = _objective_rows(x, y, z_anchor, model_i, model_j, gammas)
    lengths = np.ones(n, dtype=np.intp)
    aborted = np.zeros(n, dtype=bool)
    live = np.arange(n)
    for step_no in range(1, cfg.max_steps + 1):
        if live.size == 0:
            break
        g = input_grad_rows(
            model_i,
            x[live],
            y[live],
            anchor=(z_anchor[live], gammas.gamma1),
            concept=(model_j, gammas.gamma2),
        )
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
    traces = [tuple(values[r, : lengths[r]].tolist()) for r in range(n)]
    return x, traces, aborted


def inner_maximize(
    origin: LabeledPoint,
    model_i: MlpModel,
    model_j: MlpModel,
    gammas: PenaltyParams,
    cfg: AscentConfig,
    origin_domain: str = "",
    origin_index: int = 0,
    partner_domain: str = "",
) -> FictitiousPoint:
    """Gradient ascent from the origin point on the penalized surrogate.

    The iterate starts at the origin's features and keeps its label.  A step
    that would lower the objective is retried with a halved step size up to
    three times, then the ascent stops; after ``min_steps`` accepted steps the
    ascent also stops once the relative improvement falls under
    ``rel_tolerance``.  A non-finite candidate or objective aborts the
    ascent, returning the last finite iterate flagged as aborted.
    """
    x_star, traces, aborted = _ascend(
        origin.features[None, :],
        np.array([float(origin.label)]),
        model_i,
        model_j,
        gammas,
        cfg,
    )
    return FictitiousPoint(
        origin_domain=origin_domain,
        origin_index=origin_index,
        x_star=x_star[0],
        y_star=origin.label,
        objective_trace=traces[0],
        partner_domain=partner_domain,
        aborted=bool(aborted[0]),
    )


def pretrain_domain_models(ds: DomainSet, cfg: TrainConfig) -> dict[str, MlpModel]:
    """One model per domain, each trained only on its own domain."""
    if ds.k < 2:
        raise ConfigError(
            f"need at least 2 domains so every domain has a concept partner, got K={ds.k}"
        )
    models: dict[str, MlpModel] = {}
    for dom in ds.domains:
        dom_cfg = replace(
            cfg,
            seed=derive_seed(cfg.seed, "pretrain", dom.id),
            epochs=cfg.pretrain_epochs,
        )
        models[dom.id] = fit_domain(dom, dom_cfg)
    return models


def generate_fictitious_set(
    ds: DomainSet,
    gammas: PenaltyParams,
    ascent_cfg: AscentConfig,
    train_cfg: TrainConfig,
    models: dict[str, MlpModel] | None = None,
) -> FictitiousSet:
    """One fictitious point per training point, in origin order.

    Partner domains rotate round-robin over the other domains with a seeded
    starting offset per origin domain.  The points of one origin domain that
    share a partner ascend together as one batch (``inner_maximize``'s rules,
    applied row by row); the results are put back in origin order.
    """
    if models is None:
        models = pretrain_domain_models(ds, train_cfg)
    elif ds.k < 2:
        raise ConfigError(f"need at least 2 domains, got K={ds.k}")
    ids = [d.id for d in ds.domains]
    points: list[FictitiousPoint] = []
    for dom in ds.domains:
        others = [i for i in ids if i != dom.id]
        offset = int(rng_for(train_cfg.seed, "partner", dom.id).integers(len(others)))
        slots = (offset + np.arange(len(dom))) % len(others)
        x = dom.feature_matrix()
        y = dom.label_vector()
        dom_points: list[FictitiousPoint | None] = [None] * len(dom)
        for slot, partner in enumerate(others):
            rows = np.flatnonzero(slots == slot)
            if rows.size == 0:
                continue
            x_star, traces, aborted = _ascend(
                x[rows], y[rows], models[dom.id], models[partner], gammas, ascent_cfg
            )
            for r, idx in enumerate(rows.tolist()):
                dom_points[idx] = FictitiousPoint(
                    origin_domain=dom.id,
                    origin_index=idx,
                    x_star=x_star[r],
                    y_star=dom.points[idx].label,
                    objective_trace=traces[r],
                    partner_domain=partner,
                    aborted=bool(aborted[r]),
                )
        points.extend(dom_points)
    return FictitiousSet(tuple(points))


def train_gradframe(
    ds: DomainSet,
    gammas: PenaltyParams,
    ascent_cfg: AscentConfig,
    train_cfg: TrainConfig,
) -> tuple[MlpModel, FictitiousSet]:
    """Full pipeline: pretrain, generate fictitious data, retrain from scratch.

    The final pass runs the shared minibatch loop on the original points
    followed by the fictitious points, with a fresh seeded init.
    """
    fict = generate_fictitious_set(ds, gammas, ascent_cfg, train_cfg)
    pooled = ds.pooled()
    x = np.vstack([pooled.feature_matrix(), fict.feature_matrix()])
    y = np.concatenate([pooled.label_vector(), fict.label_vector()])
    model = fit_minibatch(x, y, train_cfg)
    return model, fict
