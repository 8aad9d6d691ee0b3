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
from dataclasses import asdict, dataclass, field, replace

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

# Work-array sizes, which bound memory: kernel values per KDE query block (its one
# buffer, 512 KB; at 1,500 samples, half this ran 12-16 % slower at d = 2 and 6 and
# 8-19 % slower on the shift-csv benchmark's calls, but 20 % faster at d = 16); per
# Shapley chunk, model rows and the permutations' coalitions, m(d + 1) per point.  The
# Shapley sizes leave results unchanged; the KDE's can change a row's last bits (see
# ``kde_log_density``).
KDE_BLOCK_ELEMENTS = 1 << 16
SHAPLEY_CHUNK_ROWS = 2048
SHAPLEY_CHUNK_COALITIONS = 1 << 14


@dataclass(frozen=True)
class KdeModel:
    """Product-Gaussian kernel density estimate with per-dimension bandwidths.

    A hand-set bandwidth far below the samples' spread costs ``kde_log_density``
    accuracy, or raises ``DataError`` there.
    """

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


# ``kde_log_density``'s floor on the kernel exponents of a block that can reach below it,
# which keeps ``exp`` off its slow underflowing lanes, and the log row sum below which a
# row is recomputed shifted by its largest exponent
_EXP_FLOOR = -600.0
_FAR_ROW_LOG = -500.0


@np.errstate(over="ignore", invalid="ignore")  # no warning for any query
def kde_log_density(model: KdeModel, query: np.ndarray) -> float | np.ndarray:
    """Log of the mean of Gaussian kernels centered at the samples, in O(block·n) memory.

    With samples and queries centred on the samples' mean and scaled by the
    bandwidths, ``v = (s - mu) / h`` and ``u = (q - mu) / h``, a kernel's
    exponent ``-|u - v|²/2`` is ``u·v - |v|²/2 - |u|²/2``.  Each query block
    takes all of it as one matmul, ``[u, 1, |u|²/2] @ [vᵀ; -|v|²/2; -1]``, then
    one in-place ``exp``, a row sum and its ``log``.  Rounding costs about
    eps·(|u|² + max |v|²)/2 per exponent, which the tests hold to
    1e-12·max(1, |exact|) under Scott's bandwidths; uncentred, data at a mean of
    1e5 would lose 1e-5.  A block whose exponents can fall below -600, by the
    bound ``-|u - v|²/2 >= -(|u| + max |v|)²/2``, clips them to [-600, 0] first:
    below about -708 ``exp`` is 20 to 100 times slower per term, and none is above
    0 but by rounding.  The clip moves a row's sum by at most n·e^-600, so a row
    whose sum is below e^-500, a query far from every sample, is recomputed
    shifted by its largest exponent; every other row keeps all but n·e^-100.

    A query whose ``|u|²`` overflows gets -inf, as in the direct kernel, and a
    NaN query gets NaN; samples whose ``|v|²`` overflows (only a hand-set
    bandwidth far below their spread makes one) raise ``DataError``.  A row's
    last bits can change with its block's row count, and a one-row block takes
    numpy's gemv path, so a row queried alone can differ from it in a block.
    """
    query = np.asarray(query, dtype=np.float64)
    single = query.ndim == 1
    q = np.atleast_2d(query)
    n, d = model.samples.shape
    if q.shape[1] != d:
        raise ShapeError(f"query dimension {q.shape[1]} does not match samples dimension {d}")
    h = model.bandwidth
    mu = model.samples.mean(axis=0)
    table = np.full((d + 2, n), -1.0)
    v = table[:d]
    np.subtract(model.samples.T, mu[:, None], out=v)
    np.divide(v, h[:, None], out=v)
    np.einsum("ij,ij->j", v, v, out=table[d])
    table[d] *= -0.5
    # with |u|² and |v|² finite, |u·v| <= |u||v| is too, so no exponent is +inf or NaN
    if not np.isfinite(table[d]).all():
        raise DataError("KDE samples' scaled squared distances from their mean are not finite")
    v_max = np.sqrt(-2.0 * table[d].min())
    out = np.empty(q.shape[0])
    rows = max(1, KDE_BLOCK_ELEMENTS // n)
    terms = np.empty((min(rows, q.shape[0]), n))
    u1 = np.ones((len(terms), d + 2))  # each block's [u, 1, |u|²/2] rows
    for start in range(0, q.shape[0], rows):
        block = q[start : start + rows]
        k = len(block)
        u, half_u, o = u1[:k, :d], u1[:k, d + 1], out[start : start + k]
        np.subtract(block, mu, out=u)
        np.divide(u, h, out=u)
        np.einsum("ij,ij->i", u, u, out=half_u)
        half_u *= 0.5
        a = np.matmul(u1[:k], table, out=terms[:k])
        # clip unless the bound keeps every exponent above the floor (a NaN bound clips)
        if not (np.sqrt(2.0 * half_u.max()) + v_max) ** 2 / 2 <= -_EXP_FLOOR:
            np.clip(a, _EXP_FLOOR, 0.0, out=a)
        np.log(np.exp(a, out=a).sum(axis=1), out=o)
        far = np.flatnonzero(o < _FAR_ROW_LOG)
        if far.size:
            a = np.matmul(u1[far], table, out=terms[: far.size])
            top = a.max(axis=1, keepdims=True)
            np.maximum(np.subtract(a, top, out=a), _EXP_FLOOR, out=a)
            o[far] = np.log(np.exp(a, out=a).sum(axis=1)) + top[:, 0]
        o[np.isinf(half_u)] = -np.inf  # |u|² overflowed, whatever its terms gave
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


def covariate_shift_ratios(source: DomainSet, ficts, model: MlpModel) -> list[np.ndarray]:
    """``covariate_shift_ratio`` of each fictitious set of ``source``, under one ``model``.

    The source side is computed once for all sets: its input KDE, its
    representations, their KDE, and that KDE's log density at every source
    row, from which each set takes its origins' densities.  Each set's own
    densities are queried as they are alone, so each set's ratios have the
    bits they have alone.  An origin's density may differ in its last bits
    from its row queried alone (see ``kde_log_density``).
    """
    source_x = source.pooled().x
    p_source = kde_fit(source_x)
    z_source = representations_batch(model, source_x)
    p_rep = kde_fit(z_source)
    log_p_rep_source = kde_log_density(p_rep, z_source)
    ratios = []
    for fict in ficts:
        fict_x = fict.x_star
        p_fict = kde_fit(fict_x)
        numer = np.abs(kde_log_density(p_fict, fict_x) - kde_log_density(p_source, fict_x))
        log_p_origin = log_p_rep_source[_origin_rows(source.domains, fict)]
        z_star = representations_batch(model, fict_x)
        denom = np.abs(log_p_origin - kde_log_density(p_rep, z_star))
        ratios.append(numer / np.maximum(denom, RATIO_DENOM_FLOOR))
    return ratios


def covariate_shift_ratio(source: DomainSet, fict: FictitiousSet, model: MlpModel) -> np.ndarray:
    """Per-point ratio of input-density change to representation-density change.

    Numerator: |log P_fict(x*) - log P_source(x*)| with KDEs over the two
    input sets.  Denominator: |log P_Z(z) - log P_Z(z*)| under a KDE over the
    source representations of ``model``, floored to avoid blow-ups when the
    representations coincide.
    """
    return covariate_shift_ratios(source, [fict], model)[0]


def concept_config(cfg: TrainConfig) -> TrainConfig:
    """The config of both concept-shift models: ``cfg`` under its derived "concept" seed."""
    return replace(cfg, seed=derive_seed(cfg.seed, "concept"))


def _concept_delta(fict: FictitiousSet, f_source: MlpModel, f_fict: MlpModel) -> np.ndarray:
    """Per-point |P_fict(y*|x*) - P_source(y*|x*)| under the two concept models."""
    x_star, labels = fict.x_star, fict.y_star
    if len(set(labels.tolist())) < 2:
        warnings.warn("fictitious set is single-class; concept model may be degenerate")
    p_source = probs_batch(f_source, x_star)
    p_fict = probs_batch(f_fict, x_star)
    cond_source = np.where(labels == 1.0, p_source, 1.0 - p_source)
    cond_fict = np.where(labels == 1.0, p_fict, 1.0 - p_fict)
    return np.abs(cond_fict - cond_source)


def concept_shift_delta(source: DomainSet, fict: FictitiousSet, cfg: TrainConfig) -> np.ndarray:
    """Per-point |P_fict(y*|x*) - P_source(y*|x*)| from independently trained models.

    Both models share the seed of ``concept_config(cfg)``, so the divergence
    they exhibit comes from the data, not from the draw of initial weights.
    They train as one ``fit_stack``: the source model on the pooled source,
    the fictitious one on ``(fict.x_star, fict.y_star)``.
    """
    pooled = source.pooled()
    models = fit_stack([pooled.x, fict.x_star], [pooled.y, fict.y_star], [concept_config(cfg)] * 2)
    return _concept_delta(fict, *models)


def likelihood_difference(model_a: MlpModel, model_b: MlpModel, x: np.ndarray) -> float:
    """Mean absolute gap between the two models' class-1 probabilities over the rows of ``x``."""
    if model_a.input_dim != model_b.input_dim:
        raise ShapeError("models disagree on input dimension")
    return float(np.abs(probs_batch(model_a, x) - probs_batch(model_b, x)).mean())


def _shapley_batch(model: MlpModel, x, baseline, m_samples: int, seeds, return_samples=False):
    """Shapley attributions (P, d) for the P rows of ``x``, a chunk of points at a time.

    Row p draws its m permutations from ``rng_for(seeds[p], "shapley")``; with
    ``return_samples`` the per-permutation contributions (P, m, d) come back too.
    A point's m(d + 1) coalitions have at most 2^d distinct feature subsets.
    When 2^d is no more than m(d + 1), the model runs once on each subset's row,
    bit j of a subset's code standing for feature j, and each coalition reads
    its payoff at its code; otherwise it runs once per coalition.  A row's
    payoff bits depend on that row alone, so both give the same attributions.
    """
    if m_samples < 1:
        raise ConfigError(f"m_samples must be >= 1, got {m_samples}")
    n_points, d = x.shape
    order = np.tile(np.arange(d), (m_samples, 1))
    attributions = np.empty((n_points, d))
    samples = np.empty((n_points, m_samples, d)) if return_samples else None
    coalitions = m_samples * (d + 1)
    table = 2**d <= coalitions
    subsets = (np.arange(2**d)[:, None] >> np.arange(d) & 1).astype(bool) if table else None
    per_point = min(2**d, coalitions)
    per_chunk = max(1, min(SHAPLEY_CHUNK_ROWS // per_point, SHAPLEY_CHUNK_COALITIONS // coalitions))
    for start in range(0, n_points, per_chunk):
        chunk = slice(start, start + per_chunk)
        # row-wise `permuted` makes the same draws as m calls of `rng.permutation(d)`
        perms = np.stack([rng_for(seed, "shapley").permuted(order, axis=1) for seed in seeds[chunk]])
        ranks = np.argsort(perms, axis=2)
        # coalition `step` holds the features ranked below it; feature j adds diff[ranks[j]]
        if table:
            # coalition `step`'s code sums 1 << f over the permutation's first `step` features
            rows = np.where(subsets, x[chunk, None, :], baseline)
            payoffs = probs_batch(model, rows.reshape(-1, d)).reshape(len(perms), -1)
            codes = np.zeros((*perms.shape[:2], d + 1), dtype=np.intp)
            np.cumsum(1 << perms, axis=2, out=codes[:, :, 1:])
            values = np.take_along_axis(payoffs, codes.reshape(len(perms), -1), axis=1)
            values = values.reshape(codes.shape)
        else:
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


def shift_metrics(source: DomainSet, ficts, cfg: TrainConfig) -> list[dict]:
    """The shift report's metrics of each fictitious set of ``source``: one dict per set,
    with the four per-run keys of ``SHIFT_REPORT_SCHEMA``.

    One ``fit_stack`` trains every model, each as it trains alone: the source
    model under ``cfg`` and the concept source model, then each set's concept
    model and its "fict-model", the likelihood difference's second model.  All
    sets share the covariate ratio's source side (``covariate_shift_ratios``).
    """
    pooled = source.pooled()
    concept_cfg = concept_config(cfg)
    fict_cfg = replace(cfg, seed=derive_seed(cfg.seed, "shift", "fict-model"))
    xs, ys, cfgs = [pooled.x, pooled.x], [pooled.y, pooled.y], [cfg, concept_cfg]
    for fict in ficts:
        xs += [fict.x_star] * 2
        ys += [fict.y_star] * 2
        cfgs += [concept_cfg, fict_cfg]
    source_model, concept_source, *fict_side = fit_stack(xs, ys, cfgs)
    ratios = covariate_shift_ratios(source, ficts, source_model)
    return [
        {
            "covariate_ratios": ratio.tolist(),
            "concept_deltas": _concept_delta(fict, concept_source, concept_fict).tolist(),
            "likelihood_difference": likelihood_difference(source_model, fict_model, fict.x_star),
            "ks_table": {
                f"x{j}": asdict(ks_two_sample(pooled.x[:, j], fict.x_star[:, j]))
                for j in range(pooled.feature_dim)
            },
        }
        for fict, ratio, concept_fict, fict_model in zip(ficts, ratios, fict_side[::2], fict_side[1::2])
    ]


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
