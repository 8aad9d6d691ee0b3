"""Model evaluation, statistical testing, and penalty-parameter search."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import AscentConfig, PenaltyParams, train_gradframe
from .data import Domain, DomainSet, write_csv
from .errors import ConfigError, DataError, NumericError
from .nn import MlpModel, _bce, probs_batch
from .rng import derive_seed
from .training import TrainConfig


@dataclass(frozen=True)
class EvalReport:
    """Headline metrics over one evaluation domain.

    ``auroc`` is None when only one class is present; ``per_class_loss`` uses
    NaN for an absent class.
    """

    auroc: float | None
    mean_loss: float
    per_class_loss: tuple[float, float]
    n: int

    def to_payload(self) -> dict:
        return {
            "auroc": self.auroc,
            "mean_loss": self.mean_loss,
            "class0_loss": None if math.isnan(self.per_class_loss[0]) else self.per_class_loss[0],
            "class1_loss": None if math.isnan(self.per_class_loss[1]) else self.per_class_loss[1],
            "n": self.n,
        }


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of their positions (``rankdata``'s "average")."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


def _class_counts(labels: np.ndarray) -> tuple[int, int]:
    """The counts of label 1 and label 0; ``NumericError`` unless both occur."""
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise NumericError("AUROC is undefined when only one class is present")
    return n_pos, n_neg


def auroc(scores, labels) -> float:
    """Mann-Whitney AUROC with midrank tie handling; a NaN or infinite score is a
    ``NumericError``."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise DataError("scores and labels must have equal length")
    bad = np.count_nonzero(~np.isfinite(scores))
    if bad:
        raise NumericError(f"{bad} of {scores.size} scores are not finite; AUROC undefined")
    n_pos, n_neg = _class_counts(labels)
    ranks = _midranks(scores)
    rank_sum = float(ranks[labels == 1].sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def evaluate(model: MlpModel, domain: Domain) -> EvalReport:
    """AUROC (when both classes appear), mean BCE, and per-class mean BCE."""
    y = domain.y
    p = probs_batch(model, domain.x)
    losses = _bce(p, y)  # p is clamped already, so _bce's clamp changes nothing
    per_class = []
    for cls in (0.0, 1.0):
        mask = y == cls
        per_class.append(float(losses[mask].mean()) if mask.any() else math.nan)
    score = None
    if (y == 0).any() and (y == 1).any():
        score = auroc(p, y)
    return EvalReport(
        auroc=score,
        mean_loss=float(losses.mean()),
        per_class_loss=(per_class[0], per_class[1]),
        n=len(domain),
    )


def welch_t_one_tailed(a, b) -> tuple[float, float, float]:
    """Welch statistic, Welch-Satterthwaite dof, and the upper-tail p for mean(a) > mean(b)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise DataError("each sample needs at least two values")
    if a.var(ddof=1) == 0.0 and b.var(ddof=1) == 0.0:
        raise NumericError("both samples have zero variance; the test is degenerate")
    # scipy.stats costs about 0.65 s and 45 MB to import; only compare needs it
    from scipy.stats import ttest_ind

    res = ttest_ind(a, b, equal_var=False, alternative="greater")
    return float(res.statistic), float(res.df), float(res.pvalue)


@dataclass(frozen=True)
class LodoRow:
    gamma1: float
    gamma2: float
    fold_domain: str
    auroc: float


@dataclass(frozen=True)
class LodoResult:
    """The winning pair, its mean held-out AUROC, and every (pair, fold) row."""

    best: PenaltyParams
    mean_auroc: float
    rows: tuple[LodoRow, ...]

    def write_csv(self, path: str | Path) -> None:
        rows = ([r.gamma1, r.gamma2, r.fold_domain, r.auroc] for r in self.rows)
        write_csv(path, ["gamma1", "gamma2", "fold_domain", "auroc"], rows)


def lodo_cv_search(
    ds: DomainSet,
    pairs: list[tuple[float, float]],
    ascent_cfg: AscentConfig,
    train_cfg: TrainConfig,
) -> LodoResult:
    """Leave-one-domain-out search over penalty pairs.

    Each (pair, fold) cell is one run of a ``train_gradframe`` plan on the other
    K-1 domains, scored by AUROC on the held-out one (both classes checked first).
    Every pair of a fold trains on that fold's one ``DomainSet``, under its own seed.
    The winner maximizes mean held-out AUROC; ties break toward the
    lexicographically smaller pair.
    """
    if ds.k < 3:
        raise ConfigError(
            f"LODO-CV needs at least 3 domains (each fold must keep 2 for the "
            f"concept partner); got K={ds.k}"
        )
    if not pairs:
        raise ConfigError("empty penalty grid")
    if len(set(map(tuple, pairs))) < len(pairs):
        raise ConfigError(f"repeated penalty pair in the grid {list(pairs)}")
    for fold in ds.domains:
        _class_counts(fold.y)
    rests = {fold: DomainSet(tuple(d for d in ds.domains if d.id != fold.id)) for fold in ds.domains}
    cells, runs = [], []
    for pair_idx, (g1, g2) in enumerate(pairs):
        for fold, rest in rests.items():
            fold_cfg = replace(
                train_cfg, seed=derive_seed(train_cfg.seed, "lodo", pair_idx, fold.id)
            )
            cells.append((g1, g2, fold))
            runs.append((rest, PenaltyParams(g1, g2), fold_cfg))
    rows: list[LodoRow] = []
    scores: dict[tuple[float, float], list[float]] = {}
    for (g1, g2, fold), (model, _) in zip(cells, train_gradframe(runs, ascent_cfg)):
        score = auroc(probs_batch(model, fold.x), fold.y)
        rows.append(LodoRow(gamma1=g1, gamma2=g2, fold_domain=fold.id, auroc=score))
        scores.setdefault((g1, g2), []).append(score)
    means = {pair: float(np.mean(v)) for pair, v in scores.items()}
    best_pair = min(means, key=lambda pair: (-means[pair], pair[0], pair[1]))
    return LodoResult(PenaltyParams(*best_pair), means[best_pair], tuple(rows))
