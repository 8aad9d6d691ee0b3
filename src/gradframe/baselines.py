"""Reference trainers: pooled ERM, mixup, and group-reweighted DRO."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import DomainSet
from .errors import ConfigError, DataError, NumericError
from .nn import MlpModel, param_count, param_views
from .rng import rng_for
from .training import TrainConfig, descend, fit_pooled, shuffled_batches


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


@dataclass
class GroupDroState:
    """Current group weights (a probability vector over domains) and their step size."""

    q: np.ndarray
    eta: float

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.float64)
        if not np.isfinite(self.q).all() or np.any(self.q < 0) or abs(self.q.sum() - 1.0) > 1e-9:
            raise ConfigError(f"group weights must be a probability vector, got {self.q}")
        if not (np.isfinite(self.eta) and self.eta >= 0):
            raise ConfigError(f"eta must be finite and >= 0, got {self.eta}")


def train_erm(ds: DomainSet, cfg: TrainConfig) -> MlpModel:
    """Minibatch training on all source domains pooled together."""
    return fit_pooled(ds, cfg)


def draw_lambdas(mixup: MixupConfig, rng: np.random.Generator, n: int) -> np.ndarray:
    """Per-pair mixing ratios; a fixed override bypasses the Beta draw."""
    if mixup.fixed_lambda is not None:
        return np.full(n, mixup.fixed_lambda)
    a, b = mixup.beta_shape
    return rng.beta(a, b, size=n)


def train_mixup(ds: DomainSet, cfg: TrainConfig, mixup: MixupConfig) -> MlpModel:
    """Pooled minibatch training on convex combinations of random pairs."""
    pooled = ds.pooled()
    x = pooled.feature_matrix()
    y = pooled.label_vector()
    n = x.shape[0]
    mix_rng = rng_for(mixup.seed, "mixup")

    def mixed_grad(buffers, idx):
        idx = idx[0]  # the one fit's rows
        ws = buffers.workspace(idx.shape[0])
        partners = mix_rng.integers(0, n, size=idx.shape[0])
        lam = draw_lambdas(mixup, mix_rng, idx.shape[0])[:, None]
        np.add(lam * x[idx], (1.0 - lam) * x[partners], out=ws.x[0])
        np.add(lam[:, 0] * y[idx], (1.0 - lam[:, 0]) * y[partners], out=ws.y[0])
        if not np.isfinite(ws.x).all():
            raise DataError("non-finite value in model input")
        buffers.mean_bce_grad(ws)

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
    # the state checks eta and the starting weights once; each step checks its own q
    q = GroupDroState(q=np.full(ds.k, 1.0 / ds.k), eta=eta).q
    xs = [d.feature_matrix() for d in ds.domains]
    ys = [d.label_vector() for d in ds.domains]
    steps_per_epoch = max(int(np.ceil(max(len(x) for x in xs) / cfg.batch_size)), 1)
    step_no = 0
    dims = cfg.layer_dims(ds.feature_dim)
    domain_grads = np.empty((ds.k, 1, param_count(dims)))  # a stack of one per domain
    domain_views = [param_views(dims, g) for g in domain_grads]

    def epoch(shuffles):
        orders = [shuffles[0].permutation(len(x)) for x in xs]
        for s in range(steps_per_epoch):
            take = np.arange(s * cfg.batch_size, (s + 1) * cfg.batch_size)
            yield tuple(order[take % len(order)][None] for order in orders)

    def weighted_grad(buffers, idxs):
        nonlocal q, step_no
        ws = buffers.workspace(cfg.batch_size)
        losses = np.empty(ds.k)
        for i, (x, y, idx) in enumerate(zip(xs, ys, idxs)):
            ws.gather(x, y, idx)
            buffers.mean_bce_grad(ws, domain_views[i])
            losses[i] = ws.mean_bce()
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
        buffers.grad.fill(0.0)
        for qi, g in zip(q, domain_grads):
            g *= qi
            buffers.grad += g

    return descend(ds.feature_dim, cfg, [cfg.seed], epoch, weighted_grad)[0]
