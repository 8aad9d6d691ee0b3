"""Distribution-shift quantification.

Covers Gaussian kernel density estimation, the covariate-shift ratio between
fictitious and source inputs, the concept-shift delta between models trained
on the two sets, mean likelihood differences between models, Monte-Carlo
Shapley attribution, the two-sample Kolmogorov-Smirnov test, and data-driven
selection of the domain count.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .core import FictitiousSet
from .data import Domain, DomainSet, split_into_k_domains, whole_keys
from .errors import ConfigError, DataError, ShapeError
from .nn import MlpModel, probs_batch, representations_batch
from .rng import derive_seed, rng_for
from .training import TrainConfig, fit_stack

# Floors: per-dimension bandwidth and the covariate-ratio denominator.
BANDWIDTH_FLOOR = 1e-3
RATIO_DENOM_FLOOR = 1e-6

# Work-array sizes, which bound memory and leave results unchanged: kernel values per KDE
# query block (128 KB stays in cache; larger ran slower), coalition rows per Shapley chunk.
KDE_BLOCK_ELEMENTS = 1 << 14
SHAPLEY_CHUNK_ROWS = 2048


@dataclass(frozen=True)
class KdeModel:
    """Product-Gaussian kernel density estimate with per-dimension bandwidths."""

    samples: np.ndarray
    bandwidth: np.ndarray


def kde_fit(samples: np.ndarray) -> KdeModel:
    """Fit a KDE with Scott's-rule bandwidths, floored at ``BANDWIDTH_FLOOR``."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    n, d = samples.shape
    if n < 1:
        raise DataError("cannot fit a density to zero samples")
    h = n ** (-1.0 / (d + 4)) * samples.std(axis=0)
    return KdeModel(samples=samples, bandwidth=np.maximum(h, BANDWIDTH_FLOOR))


def _logsumexp_rows(a: np.ndarray, scratch: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``scipy.special.logsumexp(a, axis=1)`` of a real (m, n) array, bit for bit.

    The same operations on the same values as scipy 1.17's real case, in
    fewer passes: ``exp(a - a_max)`` with the tied maxima's terms set to 0,
    which is scipy's ``exp(-inf - a_max)`` there while ``a_max`` is finite;
    their count ``m``; then ``log1p(s / m) + log(m) + a_max``.  A tie is a
    zero of ``a - a_max``, which for finite values is exactly ``a == a_max``.
    When every ``a_max`` is finite and the block holds one tie per row, every
    ``m`` is 1, and ``s / 1`` and ``+ log(1)`` change no bit, so they are
    skipped.  A row whose ``a_max`` is not finite (all of it -inf, or a NaN
    or +inf in it) ends non-finite and falls back to ``log(sum(exp(a)))``,
    as scipy's does, computed on those rows only.

    ``scratch`` (float) and ``mask`` (bool), both shaped like ``a``, are work
    buffers, so a caller can reuse them from call to call.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=1, keepdims=True)
        np.subtract(a, a_max, out=scratch)
        np.equal(scratch, 0.0, out=mask)
        np.exp(scratch, out=scratch)
        np.copyto(scratch, 0.0, where=mask)
        s = scratch.sum(axis=1)
        a_max = a_max[:, 0]
        finite = np.isfinite(a_max)
        # a finite row has at least its maximum as a tie, so the count says
        # whether each has exactly one; an all -inf row has none
        if np.count_nonzero(mask) == len(a_max) and finite.all():
            out = np.log1p(s) + a_max
        else:
            m = np.count_nonzero(mask, axis=1)
            # scipy skips the division where s == 0, but there 0 / m is that same +0
            out = np.log1p(s / m) + np.log(m) + a_max
        bad = ~finite
        if bad.any():
            out[bad] = np.log(np.sum(np.exp(a[bad]), axis=1))
    return out


# scipy's ``kolmogorov`` constants: up to pi / sqrt(-8 MIN_LOG) (about 0.0417) the
# survival function is 1.0 in doubles, ``MIN_LOG`` being log(DBL_MIN); the series
# switches form at ``_KOLMOG_CUTOVER``.
_MIN_LOG = -708.3964185322641
_KOLMOG_CUTOVER = 0.82


def _kolmogorov_sf(x: float) -> float:
    """``scipy.special.kolmogorov(x)``, the Kolmogorov survival function, bit for bit.

    The same operations in the same order as scipy 1.17.1's, in Python floats:
    at or below the cut-over the theta-function form
    ``sqrt(2 pi)/x * u * (1 + u^8 + u^24 + u^48)`` with ``u = exp(-pi^2/(8 x^2))``
    and ``sf = 1 - P``; above it the alternating series
    ``2 v (1 - v^3 (1 - v^5 (1 - v^7)))`` with ``v = exp(-2 x^2)``.
    """
    if math.isnan(x):
        return math.nan
    if x <= math.pi / math.sqrt(-_MIN_LOG * 8):  # every x <= 0 too
        return 1.0
    p = 1.0
    if x <= _KOLMOG_CUTOVER:
        w = math.sqrt(2 * math.pi) / x
        logu8 = -math.pi * math.pi / (x * x)  # log(u^8)
        # past the 1.0 region logu8 / 8 > MIN_LOG, so u never underflows to 0 and
        # scipy's branch for u == 0 is left out
        u = math.exp(logu8 / 8)
        u8 = math.exp(logu8)
        p = 1 + u8**3 * p
        p = 1 + u8 * u8 * p
        p = 1 + u8 * p
        p = w * u * p
        sf = 1 - p
    else:
        v = math.exp(-2 * x * x)
        vsq = v * v
        v3 = v**3
        for vpwr in (v3 * v3 * v, v3 * vsq, v3):
            p = 1 - vpwr * p
        sf = 2 * v * p
    return min(max(sf, 0.0), 1.0)


def kde_log_density(model: KdeModel, query: np.ndarray) -> float | np.ndarray:
    """Log of the mean of Gaussian kernels centered at the samples, in O(block·n) memory.

    Each block's log-sum-exp is ``_logsumexp_rows``, bit for bit scipy's.
    """
    query = np.asarray(query, dtype=np.float64)
    single = query.ndim == 1
    q = np.atleast_2d(query)
    n, d = model.samples.shape
    if q.shape[1] != d:
        raise ShapeError(f"query dimension {q.shape[1]} does not match samples dimension {d}")
    # The broadcast's squared scaled differences, summed one feature at a time
    # over (block, n) buffers made once per call instead of an (m, n, d) tensor.
    # Feature-major samples make each feature's row contiguous.  The difference
    # is s - q, the negation of q - s, whose square has the same bits; the first
    # square goes straight into the sum, as 0.0 + x is x for every x >= +0.
    s = np.ascontiguousarray(model.samples.T)
    h = model.bandwidth
    out = np.empty(q.shape[0])
    rows = max(1, KDE_BLOCK_ELEMENTS // n)
    size = (min(rows, q.shape[0]), n)
    # zeros for d = 0 only, where no feature writes the sum
    quad, diff, mask = np.zeros(size), np.empty(size), np.empty(size, dtype=bool)
    for start in range(0, q.shape[0], rows):
        block = q[start : start + rows]
        acc, work = quad[: len(block)], diff[: len(block)]
        for j in range(d):
            dst = acc if j == 0 else work
            np.subtract(s[j], block[:, j, None], out=dst)
            np.divide(dst, h[j], out=dst)
            np.multiply(dst, dst, out=dst)
            if j:
                np.add(acc, work, out=acc)
        acc *= -0.5
        out[start : start + rows] = _logsumexp_rows(acc, work, mask[: len(block)])
    log_norm = -np.sum(np.log(h)) - 0.5 * d * np.log(2.0 * np.pi)
    out = out + log_norm - np.log(n)
    return float(out[0]) if single else out


def _origin_rows(domains: tuple[Domain, ...], fict: FictitiousSet) -> np.ndarray:
    """Row of each fictitious point's origin in the stacked features of ``domains``."""
    offset = np.full(len(fict), -1)
    start = 0
    for dom in domains:
        offset[fict.origin_domain == dom.id] = start
        start += len(dom)
    if (offset < 0).any():
        raise DataError("a fictitious point names an origin domain missing from the source")
    return offset + fict.origin_index


def covariate_shift_ratio(source: DomainSet, fict: FictitiousSet, model: MlpModel) -> np.ndarray:
    """Per-point ratio of input-density change to representation-density change.

    Numerator: |log P_fict(x*) - log P_source(x*)| with KDEs over the two
    input sets.  Denominator: |log P_Z(z) - log P_Z(z*)| under a KDE over the
    source representations of ``model``, floored to avoid blow-ups when the
    representations coincide.
    """
    source_x = source.pooled().x
    fict_x = fict.x_star
    p_source = kde_fit(source_x)
    p_fict = kde_fit(fict_x)
    z_source = representations_batch(model, source_x)
    p_rep = kde_fit(z_source)

    numer = np.abs(kde_log_density(p_fict, fict_x) - kde_log_density(p_source, fict_x))
    z_origin = z_source[_origin_rows(source.domains, fict)]
    z_star = representations_batch(model, fict_x)
    denom = np.abs(kde_log_density(p_rep, z_origin) - kde_log_density(p_rep, z_star))
    return numer / np.maximum(denom, RATIO_DENOM_FLOOR)


def concept_config(cfg: TrainConfig) -> TrainConfig:
    """The config of both concept-shift models: ``cfg`` under its derived "concept" seed."""
    return replace(cfg, seed=derive_seed(cfg.seed, "concept"))


def concept_shift_delta(
    source: DomainSet,
    fict: FictitiousSet,
    cfg: TrainConfig,
    models: tuple[MlpModel, MlpModel] | None = None,
) -> np.ndarray:
    """Per-point |P_fict(y*|x*) - P_source(y*|x*)| from independently trained models.

    Both models share the seed of ``concept_config(cfg)``, so the divergence
    they exhibit comes from the data, not from the draw of initial weights.
    By default they train here as one ``fit_stack``: the source model on the
    pooled source, the fictitious one on ``(fict.x_star, fict.y_star)``.
    ``models`` hands over that (source, fictitious) pair already trained, so
    a caller can stack the fits with others; the result is the same.
    """
    x_star, labels = fict.x_star, fict.y_star
    if len(set(labels.tolist())) < 2:
        warnings.warn("fictitious set is single-class; concept model may be degenerate")
    if models is None:
        pooled = source.pooled()
        models = fit_stack([pooled.x, x_star], [pooled.y, labels], [concept_config(cfg)] * 2)
    f_source, f_fict = models
    p_source = probs_batch(f_source, x_star)
    p_fict = probs_batch(f_fict, x_star)
    cond_source = np.where(labels == 1.0, p_source, 1.0 - p_source)
    cond_fict = np.where(labels == 1.0, p_fict, 1.0 - p_fict)
    return np.abs(cond_fict - cond_source)


def likelihood_difference(model_a: MlpModel, model_b: MlpModel, x: np.ndarray) -> float:
    """Mean absolute gap between the two models' class-1 probabilities over the rows of ``x``."""
    if model_a.input_dim != model_b.input_dim:
        raise ShapeError("models disagree on input dimension")
    return float(np.abs(probs_batch(model_a, x) - probs_batch(model_b, x)).mean())


def _shapley_batch(model: MlpModel, x, baseline, m_samples: int, seeds, return_samples=False):
    """Shapley attributions (P, d) for the P rows of ``x``, a chunk of points at a time.

    Row p draws its m permutations from ``rng_for(seeds[p], "shapley")``; with
    ``return_samples`` the per-permutation contributions (P, m, d) come back too.
    """
    if m_samples < 1:
        raise ConfigError(f"m_samples must be >= 1, got {m_samples}")
    n_points, d = x.shape
    order = np.tile(np.arange(d), (m_samples, 1))
    attributions = np.empty((n_points, d))
    samples = np.empty((n_points, m_samples, d)) if return_samples else None
    per_chunk = max(1, SHAPLEY_CHUNK_ROWS // (m_samples * (d + 1)))
    for start in range(0, n_points, per_chunk):
        chunk = slice(start, start + per_chunk)
        # row-wise `permuted` makes the same draws as m calls of `rng.permutation(d)`
        perms = [rng_for(seed, "shapley").permuted(order, axis=1) for seed in seeds[chunk]]
        ranks = np.argsort(np.stack(perms), axis=2)
        # coalition `step` holds the features ranked below it; feature j adds diff[ranks[j]]
        joined = ranks[:, :, None, :] < np.arange(d + 1)[:, None]
        rows = np.where(joined, x[chunk, None, None, :], baseline)
        values = probs_batch(model, rows.reshape(-1, d)).reshape(-1, m_samples, d + 1)
        contrib = np.take_along_axis(np.diff(values, axis=2), ranks, axis=2)
        attributions[chunk] = contrib.mean(axis=1)
        if return_samples:
            samples[chunk] = contrib
    return attributions, samples


def shapley_attribution(
    model: MlpModel,
    background: Domain,
    point: np.ndarray,
    m_samples: int = 128,
    seed: int = 0,
    return_samples: bool = False,
):
    """Monte-Carlo permutation estimate of per-feature Shapley values.

    The payoff of a feature subset is the model's class-1 probability with
    absent features replaced by the background means.  With
    ``return_samples`` the per-permutation contribution matrix (m, d) comes
    back too, for standard-error estimates.
    """
    x = np.asarray(point, dtype=np.float64)
    baseline = background.x.mean(axis=0)
    if x.shape != baseline.shape:
        raise ShapeError(f"point shape {x.shape} does not match background dim {baseline.shape}")
    attr, samples = _shapley_batch(model, x[None, :], baseline, m_samples, [seed], return_samples)
    return (attr[0], samples[0]) if return_samples else attr[0]


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float

    def __post_init__(self):
        if not 0.0 <= self.statistic <= 1.0 + 1e-12:
            raise DataError(f"K-S statistic out of range: {self.statistic}")
        if not 0.0 <= self.p_value <= 1.0 + 1e-12:
            raise DataError(f"p-value out of range: {self.p_value}")


def ks_two_sample(a, b) -> KsResult:
    """Exact ECDF supremum plus the asymptotic p-value."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise DataError("both samples must be non-empty")
    everything = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, everything, side="right") / a.size
    cdf_b = np.searchsorted(b, everything, side="right") / b.size
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    effective = a.size * b.size / (a.size + b.size)
    p = _kolmogorov_sf(math.sqrt(effective) * d)
    return KsResult(statistic=d, p_value=p)


@dataclass
class KSelectionResult:
    """Per-candidate average p-values with the winning domain count."""

    best_k: int
    table: dict[int, float]
    flat: bool
    skipped: dict[int, str] = field(default_factory=dict)


# Table counts as flat when no candidate drops clearly under the rest.
_FLAT_SPREAD = 0.2


def select_domain_count(
    domain: Domain,
    candidate_ks: list[int],
    keys,
    cfg: TrainConfig,
    m_samples: int = 64,
) -> KSelectionResult:
    """Pick the split granularity whose groups disagree most.

    For each candidate k: split by key span, train one model per group,
    compute Shapley distributions per feature, K-S test every group pair per
    feature, and average the p-values.  The k with the lowest average wins;
    ties break toward smaller k.
    """
    if len(candidate_ks) < 2:
        raise ConfigError("need at least two candidate values of k")
    # the loop records a split error as a skipped k, so a bad key is raised here
    keys = whole_keys(keys, len(domain))
    table: dict[int, float] = {}
    skipped: dict[int, str] = {}
    for k in sorted(candidate_ks):
        try:
            groups = split_into_k_domains(domain, k, keys)
        except (DataError, ConfigError) as exc:
            skipped[k] = str(exc)
            continue
        # one shared seed per candidate k: group models then differ only
        # through their data, not through the init/shuffle draw
        group_cfg = replace(cfg, seed=derive_seed(cfg.seed, "selectk", k))
        models = fit_stack(
            [g.x for g in groups.domains], [g.y for g in groups.domains], [group_cfg] * groups.k
        )
        shap_per_group = []
        for g_idx, (group, model) in enumerate(zip(groups.domains, models)):
            x = group.x
            seeds = [derive_seed(cfg.seed, "selectk-shap", k, g_idx, i) for i in range(len(x))]
            shap_per_group.append(_shapley_batch(model, x, x.mean(axis=0), m_samples, seeds)[0])
        p_values = [
            ks_two_sample(a[:, f], b[:, f]).p_value
            for a, b in itertools.combinations(shap_per_group, 2)
            for f in range(domain.feature_dim)
        ]
        table[k] = float(np.mean(p_values))
    if not table:
        raise DataError("every candidate k was infeasible")
    best_k = min(table, key=lambda k: (table[k], k))
    spread_flat = max(table.values()) - min(table.values()) <= _FLAT_SPREAD * max(table.values())
    if spread_flat:
        warnings.warn("domain-count table is flat; no granularity stands out")
    return KSelectionResult(best_k=best_k, table=table, flat=spread_flat, skipped=skipped)


SHIFT_REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "covariate_ratios",
        "concept_deltas",
        "likelihood_difference",
        "ks_table",
        "config",
    ],
    "properties": {
        "covariate_ratios": {"type": "array", "items": {"type": "number"}},
        "concept_deltas": {"type": "array", "items": {"type": "number"}},
        "likelihood_difference": {"type": "number"},
        "ks_table": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["statistic", "p_value"],
                "properties": {
                    "statistic": {"type": "number", "minimum": 0, "maximum": 1},
                    "p_value": {"type": "number", "minimum": 0, "maximum": 1},
                },
            },
        },
        "config": {"type": "object"},
        "metadata": {"type": "object"},
        "sweep": {"type": "array"},
    },
}
