"""Reference trainers: pooled ERM, mixup, and group-reweighted DRO."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import DomainSet
from .errors import ConfigError, DataError, NumericError
from .nn import MlpModel, Workspace, param_count, param_views
from .rng import rng_for
from .training import TrainConfig, descend, fit_minibatch, shuffled_batches


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


def check_groupdro_eta(eta: float) -> None:
    """GroupDRO's step-size rule: ``eta`` finite and >= 0, else ``ConfigError``."""
    if not (np.isfinite(eta) and eta >= 0):
        raise ConfigError(f"eta must be finite and >= 0, got {eta}")


def train_erm(ds: DomainSet, cfg: TrainConfig) -> MlpModel:
    """Minibatch training on all source domains pooled together."""
    pooled = ds.pooled()
    return fit_minibatch(pooled.x, pooled.y, cfg)


def draw_lambdas(mixup: MixupConfig, rng: np.random.Generator, n: int) -> np.ndarray:
    """Per-pair mixing ratios; a fixed override bypasses the Beta draw."""
    if mixup.fixed_lambda is not None:
        return np.full(n, mixup.fixed_lambda)
    a, b = mixup.beta_shape
    return rng.beta(a, b, size=n)


def _mix_rows(a, idx, partners, lam, rest, out, partner_buf) -> None:
    """``lam * a[idx] + rest * a[partners]`` into ``out``: the expression's
    operations, on buffers the caller keeps (``partner_buf`` is scratch)."""
    a.take(idx, axis=0, out=out, mode="clip")
    out *= lam
    a.take(partners, axis=0, out=partner_buf, mode="clip")
    partner_buf *= rest
    out += partner_buf


def train_mixup(ds: DomainSet, cfg: TrainConfig, mixup: MixupConfig) -> MlpModel:
    """Pooled minibatch training on convex combinations of random pairs."""
    pooled = ds.pooled()
    x = pooled.feature_matrix()
    y = pooled.label_vector()
    n = x.shape[0]
    mix_rng = rng_for(mixup.seed, "mixup")
    scratch = {}  # per batch row count: the partner rows, their labels and 1 - lam

    def mixed_grad(buffers, idx):
        idx = idx[0]  # the one fit's rows
        rows = idx.shape[0]
        ws = buffers.workspace(rows)
        if rows not in scratch:
            scratch[rows] = (np.empty((rows, x.shape[1])), np.empty(rows), np.empty(rows))
        x_partner, y_partner, rest = scratch[rows]
        partners = mix_rng.integers(0, n, size=rows)
        lam = draw_lambdas(mixup, mix_rng, rows)
        np.subtract(1.0, lam, out=rest)
        _mix_rows(x, idx, partners, lam[:, None], rest[:, None], ws.x[0], x_partner)
        _mix_rows(y, idx, partners, lam, rest, ws.y[0], y_partner)
        if not np.isfinite(ws.x).all():
            raise DataError("non-finite value in model input")
        ws.mean_bce_grad(buffers.weights, buffers.biases, buffers.grads)

    epoch = shuffled_batches(np.arange(n)[None], cfg.batch_size)
    return descend(x.shape[1], cfg, [cfg.seed], epoch, mixed_grad)[0]


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
