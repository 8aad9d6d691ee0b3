"""Reference trainers: pooled ERM, mixup, and group-reweighted DRO."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .data import DomainSet
from .nn import MlpModel
from .training import GroupDroRule, MixupConfig, TrainConfig, fit_stack


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
