"""Reference trainers: pooled ERM, mixup, and group-reweighted DRO."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .data import DomainSet
from .errors import ConfigError, NumericError
from .nn import MlpModel, Workspace, param_count, param_views
from .training import MixupConfig, TrainConfig, descend, fit_minibatch, fit_stack
from .training import draw_lambdas  # noqa: F401  (mixup's ratio draw, kept importable here)


def check_groupdro_eta(eta: float) -> None:
    """GroupDRO's step-size rule: ``eta`` finite and >= 0, else ``ConfigError``."""
    if not (np.isfinite(eta) and eta >= 0):
        raise ConfigError(f"eta must be finite and >= 0, got {eta}")


def train_erm(ds: DomainSet, cfg: TrainConfig) -> MlpModel:
    """Minibatch training on all source domains pooled together."""
    pooled = ds.pooled()
    return fit_minibatch(pooled.x, pooled.y, cfg)


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
    """Exponentiated-gradient reweighting of per-domain losses.

    Each step draws one minibatch per domain, upweights domains in proportion
    to exp(eta * loss), renormalizes, and descends on the weighted mean
    gradient.  ``on_step`` (if given) observes (step, q, per-domain losses).
    A step whose reweighting is not finite (``exp`` overflows for a large
    ``eta``) raises ``NumericError``.
    """
    check_groupdro_eta(eta)
    q = np.full(ds.k, 1.0 / ds.k)
    pooled = ds.pooled()
    sizes = [len(d) for d in ds.domains]
    starts = np.cumsum([0, *sizes[:-1]])
    steps_per_epoch = max(int(np.ceil(max(sizes) / cfg.batch_size)), 1)
    step_no = 0
    dims = cfg.layer_dims(ds.feature_dim)
    ws = Workspace(dims, (ds.k, cfg.batch_size))  # one row block per domain
    domain_grads = np.empty((ds.k, param_count(dims)))
    views = param_views(dims, domain_grads)

    # Step s takes positions start_k + (s * batch + j) % n_k of the epoch's order,
    # which holds each domain's shuffled pooled rows in its own block.
    take = np.arange(steps_per_epoch * cfg.batch_size).reshape(steps_per_epoch, 1, -1)
    table = starts[:, None] + take % np.array(sizes)[:, None]
    rows = np.arange(len(pooled))
    order = np.empty_like(rows)

    def epoch(shuffles):
        np.copyto(order, rows)
        for start, n in zip(starts, sizes):
            # shuffling start + arange(n) in place draws start + permutation(n)
            shuffles[0].shuffle(order[start : start + n])
        return order.take(table)

    def weighted_grad(buffers, idx):
        nonlocal q, step_no
        ws.gather(pooled.x, pooled.y, idx)
        ws.mean_bce_grad(buffers.weights, buffers.biases, views)
        losses = ws.mean_bce()
        with np.errstate(over="ignore", invalid="ignore"):
            q = q * np.exp(eta * losses)
            q = q / q.sum()
        if not np.isfinite(q).all():
            raise NumericError(
                f"GroupDRO group weights are not finite at step {step_no + 1} "
                f"(eta {eta}, domain losses {losses.tolist()})"
            )
        step_no += 1
        if on_step is not None:
            on_step(step_no, q.copy(), losses.copy())
        # sums from +0.0 in domain order, as filling with 0.0 and adding each would
        np.multiply(domain_grads, q[:, None], out=domain_grads)
        np.add.reduce(domain_grads, axis=0, out=buffers.grad[0])

    return descend(ds.feature_dim, cfg, [cfg.seed], epoch, weighted_grad)[0]
