from __future__ import annotations

import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import kolmogorov, logsumexp

from conftest import (
    build_model,
    constant_prob_model,
    domain_of_rows,
    fictitious_set,
    separable_blobs,
)

import gradframe.shift as shift
from gradframe.core import AscentConfig, PenaltyParams, fictitious_sets
from gradframe.data import (
    Domain,
    DomainSet,
    simulation_source,
    split_into_k_domains,
)
from gradframe.errors import ConfigError, DataError
from gradframe.nn import init_mlp, probs_batch, representations_batch
from gradframe.shift import (
    RATIO_DENOM_FLOOR,
    KdeModel,
    concept_shift_delta,
    covariate_shift_ratio,
    kde_fit,
    kde_log_density,
    ks_two_sample,
    likelihood_difference,
    select_domain_count,
    shapley_attribution,
)
from gradframe.rng import derive_seed, rng_for
from gradframe.training import TrainConfig, fit_stack, train_erm


def broadcast_kde_log_density(model, query):
    """Reference KDE over the full (m, n, d) difference tensor."""
    q = np.atleast_2d(np.asarray(query, dtype=np.float64))
    n, d = model.samples.shape
    diffs = (q[:, None, :] - model.samples[None, :, :]) / model.bandwidth
    quad = -0.5 * np.sum(diffs * diffs, axis=2)
    log_norm = -np.sum(np.log(model.bandwidth)) - 0.5 * d * np.log(2.0 * np.pi)
    return logsumexp(quad, axis=1) + log_norm - np.log(n)


def plain_loop_kde_log_density(model, query):
    """Reference KDE: the plain block loop, with new arrays per block and sample-major samples.

    Per block: zeros, then ``quad += diff * diff`` per feature with
    ``diff = (q - s) / h``, then ``*= -0.5`` and scipy's ``logsumexp``.
    """
    q = np.atleast_2d(np.asarray(query, dtype=np.float64))
    n, d = model.samples.shape
    out = np.empty(q.shape[0])
    rows = max(1, shift.KDE_BLOCK_ELEMENTS // n)
    for start in range(0, q.shape[0], rows):
        block = q[start : start + rows]
        quad = np.zeros((block.shape[0], n))
        for j in range(d):
            diff = (block[:, j, None] - model.samples[:, j]) / model.bandwidth[j]
            quad += diff * diff
        quad *= -0.5
        out[start : start + rows] = logsumexp(quad, axis=1)
    log_norm = -np.sum(np.log(model.bandwidth)) - 0.5 * d * np.log(2.0 * np.pi)
    return out + log_norm - np.log(n)


def long_double_kde_log_density(model, query):
    """Reference KDE: the direct kernel in long double, rounded to doubles at the end.

    Where long double is x87's 80-bit format, the differences, squares and sums
    round at about 1e-19 and no square overflows; a log density beyond the
    doubles' range rounds to -inf, as the double kernel's overflowing squares
    give it.
    """
    q = np.atleast_2d(np.asarray(query, dtype=np.float64)).astype(np.longdouble)
    s = model.samples.astype(np.longdouble)
    h = model.bandwidth.astype(np.longdouble)
    n, d = s.shape
    out = np.empty(len(q), dtype=np.longdouble)
    for start in range(0, len(q), 64):
        diff = (q[start : start + 64, None, :] - s) / h
        quad = -0.5 * np.sum(diff * diff, axis=2)
        top = quad.max(axis=1)
        out[start : start + 64] = top + np.log(np.sum(np.exp(quad - top[:, None]), axis=1))
    log_norm = -np.sum(np.log(h)) - 0.5 * d * np.log(2 * np.longdouble(np.pi))
    with np.errstate(over="ignore"):
        return (out + log_norm - np.log(np.longdouble(n))).astype(np.float64)


def log_kernel_sums(model, log_density):
    """The log of each row's sum of kernel terms, exp(-|u - v|^2 / 2), from its log density."""
    n, d = model.samples.shape
    log_norm = -np.sum(np.log(model.bandwidth)) - 0.5 * d * np.log(2.0 * np.pi)
    return log_density - log_norm + np.log(n)


def kernel_exponents(model, query):
    """The direct kernel's exponents -|u - v|^2 / 2, one row per query."""
    diff = (query[:, None, :] - model.samples) / model.bandwidth
    return -0.5 * np.sum(diff * diff, axis=2)


def row_at_log_sum(model, target):
    """A query on the first axis out from the samples' mean whose long-double log kernel
    sum is within 0.01 of ``target``, found by bisection."""
    mu = model.samples.mean(axis=0)
    lo, hi = 0.0, 1e3 * model.bandwidth[0]
    for _ in range(100):
        row = mu.copy()
        row[0] += (lo + hi) / 2
        got = log_kernel_sums(model, long_double_kde_log_density(model, row))[0]
        if abs(got - target) < 0.01:
            return row
        lo, hi = ((lo + hi) / 2, hi) if got > target else (lo, (lo + hi) / 2)
    raise AssertionError(f"no row found at a log kernel sum of {target}")


def assert_within_kde_tolerance(got, ref):
    """The KDE's stated tolerance: |got - ref| <= 1e-12 max(1, |ref|) where ``ref`` is
    finite, never NaN there, and the same infinity where ``ref`` is infinite."""
    inf = np.isinf(ref)
    assert np.array_equal(got[inf], ref[inf])
    assert not np.isnan(got[~inf]).any()
    err = np.abs(got[~inf] - ref[~inf])
    bound = 1e-12 * np.maximum(1.0, np.abs(ref[~inf]))
    assert np.all(err <= bound), f"worst {np.max(err / bound):.3g} times the tolerance"


def loop_shapley(model, baseline, x, m_samples, seed):
    """Reference Shapley estimate: one permutation at a time, coalitions grown by masking."""
    d = x.shape[0]
    rng = rng_for(seed, "shapley")
    samples = np.empty((m_samples, d))
    for m in range(m_samples):
        perm = rng.permutation(d)
        rows = np.tile(baseline, (d + 1, 1))
        mask = np.zeros(d, dtype=bool)
        for step, j in enumerate(perm, start=1):
            mask[j] = True
            rows[step, mask] = x[mask]
        values = probs_batch(model, rows)
        samples[m, perm] = values[1:] - values[:-1]
    return samples.mean(axis=0), samples


def brute_force_ks(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    best = 0.0
    for t in np.concatenate([a, b]):
        fa = np.mean(a <= t)
        fb = np.mean(b <= t)
        best = max(best, abs(fa - fb))
    return float(best)


class TestKde:
    def test_single_sample_center_log_density(self):
        model = KdeModel(np.array([[0.0]]), np.array([1.0]))
        assert abs(kde_log_density(model, np.array([0.0])) - (-0.5 * math.log(2 * math.pi))) < 1e-12

    def test_symmetry_around_sample(self):
        model = KdeModel(np.array([[1.5]]), np.array([0.7]))
        for delta in (0.1, 0.5, 2.0):
            left = kde_log_density(model, np.array([1.5 - delta]))
            right = kde_log_density(model, np.array([1.5 + delta]))
            assert abs(left - right) < 1e-12

    def test_density_integrates_to_one(self, rng):
        samples = rng.normal(size=(40, 1))
        model = kde_fit(samples)
        grid = np.linspace(-10.0, 10.0, 4001)
        log_d = kde_log_density(model, grid[:, None])
        integral = np.trapezoid(np.exp(log_d), grid)
        assert abs(integral - 1.0) < 1e-3

    def test_permutation_invariance(self, rng):
        samples = rng.normal(size=(25, 2))
        q = rng.normal(size=2)
        a = kde_log_density(kde_fit(samples), q)
        b = kde_log_density(kde_fit(samples[::-1].copy()), q)
        assert abs(a - b) < 1e-12

    def test_finite_for_finite_queries(self, rng):
        model = kde_fit(rng.normal(size=(10, 2)))
        assert np.isfinite(kde_log_density(model, np.array([1e3, -1e3])))

    def test_empty_samples_rejected(self):
        with pytest.raises(DataError):
            kde_fit(np.empty((0, 1)))

    @pytest.mark.parametrize("block", [shift.KDE_BLOCK_ELEMENTS, 7 * 50])
    def test_matches_broadcast_oracle(self, rng, monkeypatch, block):
        # block = 7 sample rows' worth: 300 queries in ragged blocks of 7
        monkeypatch.setattr(shift, "KDE_BLOCK_ELEMENTS", block)
        loc, scale = [0.0, 3.0, -1.0, 0.5, 2.0, 0.0], [1.0, 2.0, 0.5, 1.0, 3.0, 0.1]
        x = rng.normal(loc=loc, scale=scale, size=(350, 6))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        model = kde_fit(x[:50])
        query = np.vstack([x[50:], rng.normal(scale=3.0, size=(10, 6))])
        got = kde_log_density(model, query)
        assert got.shape == (310,)
        assert np.max(np.abs(got - broadcast_kde_log_density(model, query))) <= 1e-12

    @pytest.mark.parametrize("block_rows", [None, 7, 1])
    @pytest.mark.parametrize(
        "case",
        [
            "self-6",
            "cross-6",
            "self-2",
            "far-in-last-block",
            "no-features",
            "zeros-subnormals",
            "mean-1e5",
            "far-cross",
        ],
    )
    def test_matches_long_double_kernel(self, rng, monkeypatch, block_rows, case):
        # None keeps the default block; 7 sets the block to 7 rows of the case's own
        # samples, so every case runs 7-row blocks, and all but far-cross (602 queries)
        # a ragged last one, which works in slices of the buffers the full blocks used;
        # at 1 every block is one query row, so each matmul takes numpy's one-row gemv path
        loc, scale = [0.0, 3.0, -1.0, 0.5, 2.0, 0.0], [1.0, 2.0, 0.5, 1.0, 3.0, 0.1]
        x = rng.normal(loc=loc, scale=scale, size=(1500, 6))
        if case == "self-6":
            model, query = kde_fit(x), x
        elif case == "cross-6":
            model, query = kde_fit(x), rng.normal(scale=2.0, size=(1503, 6))
        elif case == "self-2":
            model = kde_fit(x[:, :2] * x[:, 2:4])
            query = model.samples
        elif case == "no-features":
            # no feature writes the sum: every kernel term is exp(0), the empty product
            model, query = kde_fit(x[:50, :0]), x[50:360, :0]
        elif case == "zeros-subnormals":
            # exact +0.0 and -0.0 rows, subnormal entries and duplicated rows; the last
            # query's |u|^2 overflows
            s = x[:40, :3].copy()
            s[0], s[1] = 0.0, -0.0
            s[2] = [5e-324, -5e-324, 1e-310]
            s[3] = [-1e-310, -0.0, 0.0]
            s = np.vstack([s, s[:6]])
            model = kde_fit(s)
            query = np.vstack([s, -s[:6], [[-1.7e308, 0.0, 0.0]]])
        elif case == "mean-1e5":
            # far from the origin: uncentred, the expansion's terms are near 1e10
            # and lose about 1e-5 to cancellation
            model = kde_fit(rng.normal(1e5, 1.0, size=(1500, 3)))
            query = rng.normal(1e5, 1.5, size=(1503, 3))
        elif case == "far-cross":
            # queries out to 12 spreads: many kernel terms underflow, and many rows sum
            # below the far-row bound and are recomputed; the last two rows sit just
            # above and just below it
            model = kde_fit(x[:50])
            near = rng.normal(scale=2.0, size=(300, 6))
            far = rng.normal(scale=12.0, size=(300, 6))
            edge = [row_at_log_sum(model, shift._FAR_ROW_LOG + t) for t in (1, -1)]
            query = np.vstack([near, far, edge])
        else:
            model = kde_fit(x[:50])
            # a far query, a row of -inf kernel terms, after finite blocks
            query = np.vstack([x[50:359], [1e200, 0.0, 0.0, 0.0, 0.0, 0.0]])
        if block_rows is not None:
            monkeypatch.setattr(shift, "KDE_BLOCK_ELEMENTS", block_rows * len(model.samples))
        with np.errstate(over="ignore"):
            got = kde_log_density(model, query)
            ref = long_double_kde_log_density(model, query)
            plain = plain_loop_kde_log_density(model, query)
        assert got.shape == (len(query),)
        assert_within_kde_tolerance(plain, ref)  # the two references agree
        assert_within_kde_tolerance(got, ref)
        if case == "far-in-last-block":
            assert got[-1] == -np.inf and np.isfinite(got[:-1]).all()
        if case == "zeros-subnormals":
            assert got[-1] == -np.inf and np.isfinite(got[:-1]).all()
        if case == "far-cross":
            log_sum = log_kernel_sums(model, ref)
            assert log_sum[-2] > shift._FAR_ROW_LOG > log_sum[-1]
            assert np.count_nonzero(log_sum < shift._FAR_ROW_LOG) > 100
            assert np.mean(kernel_exponents(model, query) < -745.2) > 0.3  # below 2^-1075

    def test_samples_too_far_apart_for_their_bandwidth_are_a_data_error(self, rng):
        # a 1e307 sample on a set bandwidth of 0.5: its |v|^2 overflows
        s = rng.normal(size=(40, 3))
        s[4] = [1e307, 0.0, 5e-324]
        model = KdeModel(samples=s, bandwidth=np.array([0.5, 1e-3, 2.0]))
        with pytest.raises(DataError, match="not finite"):
            kde_log_density(model, s)

    def test_bandwidth_far_below_the_spread_costs_accuracy_as_stated(self, rng):
        # a set bandwidth of 1e-3 on a spread of 2 puts |v|^2 / 2 near 1e7, and the
        # error follows it: about eps * (|u|^2 / 2 + max |v|^2 / 2), not 1e-12
        s = rng.normal(loc=[0.0, 3.0, -1.0], scale=[1.0, 2.0, 0.5], size=(46, 3))
        s[0], s[1], s[2] = 0.0, -0.0, [5e-324, -5e-324, 1e-310]
        model = KdeModel(samples=s, bandwidth=np.array([0.5, 1e-3, 2.0]))
        query = np.vstack([s, -s[:6]])
        got = kde_log_density(model, query)
        ref = long_double_kde_log_density(model, query)
        u = (query - s.mean(axis=0)) / model.bandwidth
        v = (s - s.mean(axis=0)) / model.bandwidth
        scale = 0.5 * np.sum(u * u, axis=1) + 0.5 * np.max(np.sum(v * v, axis=1))
        assert np.all(np.abs(got - ref) <= 4 * np.finfo(float).eps * scale)

    def test_rounding_past_the_range_of_exp_stays_finite(self, rng):
        # a spread of 1e10 on a set bandwidth of 1: |v|^2 near 1e20 rounds some near
        # pairs' exponents up past 709, where exp overflows, unless the block clips them
        s = rng.normal(size=(40, 3)) * 1e10
        u = s - s.mean(axis=0)
        half = 0.5 * np.sum(u * u, axis=1)
        assert np.max(u @ u.T - half - half[:, None]) > 709
        assert np.isfinite(kde_log_density(KdeModel(samples=s, bandwidth=np.ones(3)), s)).all()

    def test_far_query_matches_oracle(self, rng):
        model = kde_fit(rng.normal(size=(10, 2)))
        far = np.array([1e3, -1e3])
        got = kde_log_density(model, far)
        ref = broadcast_kde_log_density(model, far)[0]
        assert np.isfinite(got)
        assert abs(got - ref) <= 1e-9 * abs(ref)

    def test_memory_is_blockwise(self, rng):
        import tracemalloc

        model = kde_fit(rng.normal(size=(5000, 10)))
        query = rng.normal(size=(5000, 10))
        tracemalloc.start()
        try:
            out = kde_log_density(model, query)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(out))
        # the (m, n, d) broadcast would need 5000 * 5000 * 10 * 8 B = 2 GB
        # about 1.0 MB: the samples' [v; -|v|^2 / 2; -1] table and the one block buffer,
        # 0.5 MB each, which the far-row path reuses; a (block, n, d) cube of
        # differences per block peaks at 3.5 MB
        assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_overflowing_query_is_minus_infinity_as_in_the_oracle(self, rng):
        # every squared difference overflows to inf, so every kernel term is -inf
        model = kde_fit(rng.normal(10.0, 2.0, size=(50, 2)))
        query = np.array([1e200, 0.0])
        with np.errstate(over="ignore"):
            got = kde_log_density(model, query)
            ref = broadcast_kde_log_density(model, query)[0]
        assert ref == -np.inf
        assert got == ref

    def test_nan_query_is_nan_among_finite_and_overflowing_rows(self, rng):
        model = kde_fit(rng.normal(size=(30, 2)))
        query = np.array([[np.nan, 0.0], [0.5, -0.5], [1.7e308, 1.7e308], [40.0, 0.0]])
        got = kde_log_density(model, query)
        assert np.isnan(got[0]) and np.isfinite(got[[1, 3]]).all() and got[2] == -np.inf

    def test_scott_bandwidth_floor(self):
        model = kde_fit(np.array([[1.0], [1.0], [1.0]]))
        assert model.bandwidth[0] == 1e-3


class TestCovariateShiftRatio:
    def test_identity_augmentation_gives_zero(self):
        src = simulation_source(0)
        cfg = TrainConfig(seed=0, beta=0.01, epochs=30, batch_size=400, pretrain_epochs=10)
        [fict] = fictitious_sets([(src, PenaltyParams(1.0, 1.0), cfg)], AscentConfig(max_steps=0, min_steps=0))
        model = init_mlp([2, 2, 2], 1, seed=0)
        ratios = covariate_shift_ratio(src, fict, model)
        assert np.all(ratios == 0.0)

    def test_matches_direct_formula_on_tiny_dataset(self, monkeypatch):
        labels = [0, 1, 1]
        src = DomainSet((Domain("d", [[0.0, 0.0], [1.0, 0.5], [-1.0, 2.0]], labels),))
        cfg = TrainConfig(seed=1, beta=0.01, epochs=10, batch_size=3, pretrain_epochs=5)
        model = init_mlp([2, 3, 2], 1, seed=5)

        moved = [np.array([0.2, -0.1]), np.array([1.4, 0.9]), np.array([-0.8, 2.5])]
        fict = fictitious_set("d", moved, labels)
        # a permuted copy: its origins are the source rows in another order, whose
        # representations are gathered from the source's
        perm = np.array([2, 0, 1])
        permuted = replace(
            fict,
            x_star=fict.x_star[perm],
            y_star=fict.y_star[perm],
            origin_index=fict.origin_index[perm],
        )
        forwards = []

        def counted_forward(m, x):
            forwards.append(len(x))
            return representations_batch(m, x)

        monkeypatch.setattr(shift, "representations_batch", counted_forward)
        ratios = covariate_shift_ratio(src, fict, model)
        assert forwards == [3, 3]  # source and x_star; the origins reuse the source's
        ratios_permuted = covariate_shift_ratio(src, permuted, model)
        assert forwards[2:] == [3, 3]

        # independent high-precision scalar recomputation of the definition
        import mpmath

        mpmath.mp.dps = 50

        def log_kde(samples, h, q):
            total = mpmath.mpf(0)
            for s in samples:
                quad = -0.5 * float(np.sum(((q - s) / h) ** 2))
                total += mpmath.exp(quad)
            d = len(h)
            norm = mpmath.mpf(float(np.prod(h))) * (2 * mpmath.pi) ** (d / 2.0)
            return float(mpmath.log(total / (len(samples) * norm)))

        def scott(samples):
            n, d = samples.shape
            return np.maximum(n ** (-1.0 / (d + 4)) * samples.std(axis=0), 1e-3)

        src_x = src.pooled().x
        fict_x = np.stack(moved)
        h_src = scott(src_x)
        h_fic = scott(fict_x)
        reps = representations_batch(model, src_x)
        h_rep = scott(reps)
        for i in range(3):
            num = abs(log_kde(fict_x, h_fic, fict_x[i]) - log_kde(src_x, h_src, fict_x[i]))
            z0 = representations_batch(model, src_x[i][None, :])[0]
            z1 = representations_batch(model, fict_x[i][None, :])[0]
            den = abs(log_kde(reps, h_rep, z0) - log_kde(reps, h_rep, z1))
            expected = num / max(den, RATIO_DENOM_FLOOR)
            assert abs(ratios[i] - expected) / max(abs(expected), 1.0) < 1e-9
            got = ratios_permuted[np.flatnonzero(perm == i)[0]]
            assert abs(got - expected) / max(abs(expected), 1.0) < 1e-9


    def test_sets_of_one_source_share_its_densities_bit_for_bit(self, rng, monkeypatch):
        """Three sets of one source, the last with its origins permuted: the source's
        KDEs and its representation density run once, and each set's ratios have the
        bytes of ``covariate_shift_ratio`` on it alone."""
        dom = separable_blobs("a", 1, 20)
        src = DomainSet((dom,))
        model = init_mlp([2, 4, 2], 1, seed=3)
        ficts = [
            fictitious_set("a", dom.x + rng.normal(scale=scale, size=dom.x.shape), dom.y)
            for scale in (0.1, 1.0, 0.5)
        ]
        perm = rng.permutation(len(dom))
        ficts[2] = replace(
            ficts[2],
            x_star=ficts[2].x_star[perm],
            y_star=ficts[2].y_star[perm],
            origin_index=ficts[2].origin_index[perm],
        )
        alone = [covariate_shift_ratio(src, f, model) for f in ficts]
        fits, densities = [], []
        kde_fit, kde_log_density = shift.kde_fit, shift.kde_log_density
        monkeypatch.setattr(shift, "kde_fit", lambda s: fits.append(len(s)) or kde_fit(s))
        monkeypatch.setattr(
            shift, "kde_log_density", lambda m, q: densities.append(len(q)) or kde_log_density(m, q)
        )
        together = shift.covariate_shift_ratios(src, ficts, model)
        assert len(fits) == 2 + 3  # the source's inputs and representations, then each set's
        assert len(densities) == 1 + 3 * 3
        assert [r.tobytes() for r in together] == [r.tobytes() for r in alone]


class TestConceptShiftDelta:
    def test_identity_augmentation_gives_small_deltas(self):
        src = simulation_source(1)
        cfg = TrainConfig(seed=1, beta=0.01, epochs=60, batch_size=400, pretrain_epochs=10)
        [fict] = fictitious_sets([(src, PenaltyParams(1.0, 1.0), cfg)], AscentConfig(max_steps=0, min_steps=0))
        deltas = concept_shift_delta(src, fict, cfg)
        assert float(np.mean(deltas)) < 0.02

    def test_deltas_bounded_in_unit_interval(self):
        src = simulation_source(2)
        cfg = TrainConfig(seed=2, beta=0.01, epochs=30, batch_size=400, pretrain_epochs=10)
        [fict] = fictitious_sets([(src, PenaltyParams(1.0, 1.0), cfg)], AscentConfig(alpha=0.5, max_steps=5))
        deltas = concept_shift_delta(src, fict, cfg)
        assert np.all((deltas >= 0.0) & (deltas <= 1.0))

    def test_single_class_fictitious_warns(self):
        src = DomainSet((separable_blobs("A", seed=2, n_per_blob=15),))
        x = src.pooled().x
        fict = fictitious_set("A", x, np.zeros(len(x)))
        cfg = TrainConfig(seed=0, beta=0.01, epochs=5, batch_size=16, pretrain_epochs=5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            concept_shift_delta(src, fict, cfg)
        assert any("single-class" in str(w.message) for w in caught)


class TestShiftMetrics:
    @pytest.mark.parametrize("n_sets", [1, 3])
    def test_one_stack_gives_each_set_the_metrics_it_has_alone(self, monkeypatch, n_sets):
        """One ``fit_stack`` of 2 + 2 fits per set trains every model, and each set's
        metrics have the bytes of the per-set functions run on it alone."""
        src = simulation_source(4)
        cfg = TrainConfig(seed=4, beta=0.01, epochs=20, batch_size=64, pretrain_epochs=10)
        runs = [(src, PenaltyParams(g1, 1.0), cfg) for g1 in (1.0, 0.1, 10.0)[:n_sets]]
        ficts = fictitious_sets(runs, AscentConfig(alpha=0.5, max_steps=5))
        source_model = train_erm(src, cfg)
        fict_cfg = replace(cfg, seed=derive_seed(cfg.seed, "shift", "fict-model"))
        source_x = src.pooled().x
        calls = []
        stack = shift.fit_stack
        monkeypatch.setattr(shift, "fit_stack", lambda fits: calls.append(len(fits)) or stack(fits))
        metrics = shift.shift_metrics(src, ficts, cfg)
        monkeypatch.undo()
        assert calls == [2 + 2 * n_sets]
        assert len(metrics) == n_sets
        for fict, got in zip(ficts, metrics):
            ratios = covariate_shift_ratio(src, fict, source_model)
            assert np.array(got["covariate_ratios"]).tobytes() == ratios.tobytes()
            deltas = concept_shift_delta(src, fict, cfg)
            assert np.array(got["concept_deltas"]).tobytes() == deltas.tobytes()
            fict_model = fit_stack([(fict.x_star, fict.y_star, fict_cfg, None)])[0]
            assert got["likelihood_difference"] == likelihood_difference(source_model, fict_model, fict.x_star)
            ks = [ks_two_sample(source_x[:, j], fict.x_star[:, j]) for j in range(source_x.shape[1])]
            assert got["ks_table"] == {
                f"x{j}": {"statistic": r.statistic, "p_value": r.p_value} for j, r in enumerate(ks)
            }


class TestLikelihoodDifference:
    def test_identical_models_give_zero(self):
        m = init_mlp([2, 3, 2], 1, seed=0)
        dom = separable_blobs("e", seed=1, n_per_blob=10)
        assert likelihood_difference(m, m, dom.x) == 0.0

    def test_complementary_constant_models(self):
        a = constant_prob_model(0.9)
        b = constant_prob_model(0.1)
        dom = separable_blobs("e", seed=2, n_per_blob=10)
        assert abs(likelihood_difference(a, b, dom.x) - 0.8) < 1e-9

    def test_within_domain_gap_below_cross_domain_gap(self):
        src = simulation_source(3).pooled()
        order = rng_for(3, "cf-split").permutation(400)
        half_a, half_b = order[:200], order[200:]
        from gradframe.data import simulation_target

        tgt = simulation_target(3)
        cfg = TrainConfig(seed=3, beta=0.01, epochs=80, batch_size=64)
        from dataclasses import replace

        m_a = fit_stack([(src.x[half_a], src.y[half_a], cfg, None)])[0]
        m_b = fit_stack([(src.x[half_b], src.y[half_b], replace(cfg, seed=301), None)])[0]
        m_t = fit_stack([(tgt.x, tgt.y, replace(cfg, seed=302), None)])[0]
        within = likelihood_difference(m_a, m_b, src.x)
        cross = likelihood_difference(m_a, m_t, src.x)
        assert within < cross


class TestShapley:
    def test_single_feature_attribution_is_prediction_gap(self):
        m = init_mlp([1, 3, 2], 1, seed=4)
        background = domain_of_rows("bg", ((np.array([float(v)]), v % 2) for v in range(5)))
        x = np.array([3.0])
        attr = shapley_attribution(m, background, x, m_samples=8, seed=0)
        baseline = background.x.mean(axis=0)
        expected = probs_batch(m, x[None, :])[0] - probs_batch(m, baseline[None, :])[0]
        assert abs(attr[0] - expected) < 1e-12

    def test_efficiency_exact_per_run(self, rng):
        m = init_mlp([4, 6, 2], 1, seed=5)
        background = domain_of_rows(
            "bg", ((rng.normal(size=4), int(rng.integers(2))) for _ in range(20))
        )
        x = rng.normal(size=4)
        attr = shapley_attribution(m, background, x, m_samples=16, seed=1)
        baseline = background.x.mean(axis=0)
        gap = probs_batch(m, x[None, :])[0] - probs_batch(m, baseline[None, :])[0]
        assert abs(attr.sum() - gap) < 1e-10

    def test_symmetric_features_get_equal_attributions(self):
        # both features play identical roles and carry identical values
        m = build_model(
            weights=[np.array([[0.7, -0.4], [0.7, -0.4]]), np.array([[0.9, -0.3], [0.2, 0.5]])],
            biases=[np.zeros(2), np.zeros(2)],
        )
        background = domain_of_rows(
            "bg", ((np.array([v, v], dtype=float), v % 2) for v in (-1, 0, 1, 2))
        )
        x = np.array([1.5, 1.5])
        attr, samples = shapley_attribution(m, background, x, m_samples=128, seed=2, return_samples=True)
        diff = samples[:, 0] - samples[:, 1]
        se_diff = diff.std(ddof=1) / math.sqrt(samples.shape[0])
        assert abs(attr[0] - attr[1]) <= 3.0 * se_diff + 1e-12

    def test_deterministic_per_seed(self, rng):
        m = init_mlp([3, 4, 2], 1, seed=6)
        background = domain_of_rows("bg", ((rng.normal(size=3), 0) for _ in range(6)))
        x = rng.normal(size=3)
        a = shapley_attribution(m, background, x, m_samples=12, seed=9)
        b = shapley_attribution(m, background, x, m_samples=12, seed=9)
        assert np.array_equal(a, b)


class TestShapleyBatchOracle:
    @pytest.mark.parametrize("m_samples", [1, 8, 64])
    @pytest.mark.parametrize("d", [1, 2, 6])
    def test_single_point_matches_loop(self, rng, d, m_samples):
        m = init_mlp([d, 5, 3, 2], 2, seed=d)
        background = domain_of_rows("bg", ((rng.normal(size=d), 0) for _ in range(9)))
        x = rng.normal(size=d)
        attr, samples = shapley_attribution(
            m, background, x, m_samples=m_samples, seed=3, return_samples=True
        )
        baseline = background.x.mean(axis=0)
        ref_attr, ref_samples = loop_shapley(m, baseline, x, m_samples, 3)
        assert samples.shape == (m_samples, d)
        assert np.max(np.abs(samples - ref_samples)) <= 1e-12
        assert np.max(np.abs(attr - ref_attr)) <= 1e-12

    def test_group_with_chunk_boundaries_mid_group(self, rng, monkeypatch):
        # d = 6: 2^6 = 64 subsets against m(d + 1) = 56 coalitions at m = 8, which
        # run as rows, and 112 at m = 16, which read the subsets' table; chunks of
        # 3 points' model rows split the 7-point group as 3 + 3 + 1
        d = 6
        m = init_mlp([d, 4, 2], 1, seed=1)
        x = rng.normal(size=(7, d))
        baseline = x.mean(axis=0)
        seeds = [derive_seed(4, "g", i) for i in range(len(x))]
        calls = []

        def counted(model, rows):
            calls.append(len(rows))
            return probs_batch(model, rows)

        monkeypatch.setattr(shift, "probs_batch", counted)
        for m_samples, per_point in ((8, 56), (16, 64)):
            monkeypatch.setattr(shift, "SHAPLEY_CHUNK_ROWS", 3 * per_point)
            calls.clear()
            attr, samples = shift._shapley_batch(m, x, baseline, m_samples, seeds, return_samples=True)
            assert calls == [3 * per_point, 3 * per_point, per_point]
            assert attr.shape == (7, d) and samples.shape == (7, m_samples, d)
            for i in range(len(x)):
                ref_attr, ref = loop_shapley(m, baseline, x[i], m_samples, seeds[i])
                assert np.max(np.abs(samples[i] - ref)) <= 1e-12
                assert np.max(np.abs(attr[i] - ref_attr)) <= 1e-12
            assert np.array_equal(shift._shapley_batch(m, x, baseline, m_samples, seeds)[0], attr)

    @pytest.mark.parametrize(
        "d, m_samples, per_point", [(6, 64, 64), (10, 8, 88), (1, 10_000, 2)]
    )
    def test_select_domain_count_runs_one_model_row_per_distinct_coalition(
        self, monkeypatch, d, m_samples, per_point
    ):
        """2^6 = 64 subsets stand for a point's 64 * 7 = 448 coalitions; at d = 10 the
        2^10 = 1024 subsets outnumber the 8 * 11 = 88 coalitions, which run as rows.
        A chunk also bounds its points' coalitions: at m = 10,000 one point's 20,000
        fill a chunk, though its 2 model rows would leave room for 1023 more points."""
        rng = np.random.default_rng(d)
        x = rng.normal(size=(40, d))
        dom = Domain("keyed", x, (x[:, 0] > 0).astype(int))
        keys = np.repeat([1, 2, 3, 4], 10)
        calls = []

        def counted(model, rows):
            calls.append(len(rows))
            return probs_batch(model, rows)

        monkeypatch.setattr(shift, "probs_batch", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            select_domain_count(dom, [2, 4], keys, TrainConfig(epochs=2, batch_size=10), m_samples)
        # every point is in one group of each of the two candidates
        assert sum(calls) == 2 * len(x) * per_point
        points = max(1, shift.SHAPLEY_CHUNK_COALITIONS // (m_samples * (d + 1)))
        assert all(n % per_point == 0 and n <= min(shift.SHAPLEY_CHUNK_ROWS, points * per_point) for n in calls)

    def test_select_domain_count_matches_per_point_oracle(self):
        dom, keys = TestSelectDomainCount()._keyed_domain([False, True, False, True], n_per_key=9)
        cfg = TrainConfig(seed=2, beta=0.05, epochs=20, batch_size=12)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = select_domain_count(dom, [2, 4], keys, cfg, m_samples=8)
        expected = {}
        for k in (2, 4):
            per_group = []
            for g_idx, group in enumerate(split_into_k_domains(dom, k, keys).domains):
                group_cfg = replace(cfg, seed=derive_seed(cfg.seed, "selectk", k))
                model = fit_stack([(group.x, group.y, group_cfg, None)])[0]
                baseline = group.x.mean(axis=0)
                seeds = [
                    derive_seed(cfg.seed, "selectk-shap", k, g_idx, i) for i in range(len(group))
                ]
                per_group.append(
                    np.stack(
                        [
                            loop_shapley(model, baseline, features, 8, seed)[0]
                            for features, seed in zip(group.x, seeds)
                        ]
                    )
                )
            p_values = [
                ks_two_sample(per_group[i][:, f], per_group[j][:, f]).p_value
                for i in range(len(per_group))
                for j in range(i + 1, len(per_group))
                for f in range(dom.feature_dim)
            ]
            expected[k] = float(np.mean(p_values))
        assert result.table == expected


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 10),
    m_samples=st.integers(1, 130),
    n_points=st.integers(1, 40),
    return_samples=st.booleans(),
    chunk=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    at_baseline=st.lists(st.booleans(), min_size=10, max_size=10),
    seed=st.integers(0, 2**31),
)
def test_drawn_batches_match_the_per_permutation_loop_bit_for_bit(
    d, m_samples, n_points, return_samples, chunk, at_baseline, seed
):
    """Both sides of 2^d <= m(d + 1): d = 1..10 and m = 1..130, with chunks of model
    rows that end part-way through the points and features equal to the baseline.
    Every attribution and sample has the bytes of ``loop_shapley``'s."""
    rng = np.random.default_rng(seed)
    model = init_mlp([d, 3, 2], 1, seed=seed)
    baseline = rng.normal(size=d)
    x = rng.normal(size=(n_points, d))
    x[:, at_baseline[:d]] = baseline[at_baseline[:d]]
    seeds = [derive_seed(seed, "p", i) for i in range(n_points)]
    per_point = min(2**d, m_samples * (d + 1))
    chunk_points, part = chunk
    chunk_rows = (1 + int(chunk_points * (n_points - 1))) * per_point + int(part * (per_point - 1))
    with mock.patch.object(shift, "SHAPLEY_CHUNK_ROWS", chunk_rows):
        attr, samples = shift._shapley_batch(model, x, baseline, m_samples, seeds, return_samples)
    refs = [loop_shapley(model, baseline, row, m_samples, s) for row, s in zip(x, seeds)]
    assert attr.tobytes() == np.stack([a for a, _ in refs]).tobytes()
    if return_samples:
        assert samples.tobytes() == np.stack([r for _, r in refs]).tobytes()
    else:
        assert samples is None


class TestKsTwoSample:
    def test_identical_samples(self):
        r = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert r.statistic == 0.0
        assert r.p_value == 1.0

    def test_disjoint_supports(self):
        r = ks_two_sample([0.1, 0.5, 0.9], [2.1, 2.5, 2.9])
        assert r.statistic == 1.0
        assert r.p_value < 0.5

    def test_hand_case(self):
        r = ks_two_sample([1.0, 2.0], [1.5, 2.5])
        assert abs(r.statistic - brute_force_ks([1.0, 2.0], [1.5, 2.5])) < 1e-15
        assert abs(r.statistic - 0.5) < 1e-15

    def test_matches_brute_force_on_random_pairs(self, rng):
        for _ in range(100):
            n1 = int(rng.integers(1, 20))
            n2 = int(rng.integers(1, 20))
            a = np.round(rng.normal(size=n1), 1)  # rounding forces ties
            b = np.round(rng.normal(size=n2), 1)
            r = ks_two_sample(a, b)
            assert abs(r.statistic - brute_force_ks(a, b)) < 1e-12
            assert 0.0 <= r.p_value <= 1.0

    def test_agrees_with_scipy_p_for_moderate_samples(self, rng):
        from scipy.stats import ks_2samp

        a = rng.normal(size=80)
        b = rng.normal(loc=0.7, size=90)
        r = ks_two_sample(a, b)
        ref = ks_2samp(a, b, method="asymp")
        assert abs(r.statistic - ref.statistic) < 1e-12
        assert abs(r.p_value - ref.pvalue) < 5e-2

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            ks_two_sample([], [1.0])


class TestKolmogorovSf:
    """``_kolmogorov_sf`` against scipy's ``kolmogorov``, the reference, bit for bit."""

    CUT_OFF = math.pi / math.sqrt(-shift._MIN_LOG * 8)

    @staticmethod
    def assert_matches_scipy(xs):
        xs = np.asarray(xs, dtype=np.float64)
        got = np.array([shift._kolmogorov_sf(float(x)) for x in xs])
        ref = kolmogorov(xs)
        same = (got.view(np.uint64) == ref.view(np.uint64)) | (np.isnan(got) & np.isnan(ref))
        assert same.all(), xs[~same]

    @staticmethod
    def neighbours(x, count=40):
        out = [x]
        below = above = x
        for _ in range(count):
            below = np.nextafter(below, -np.inf)
            above = np.nextafter(above, np.inf)
            out += [below, above]
        return out

    def test_dense_grid(self):
        self.assert_matches_scipy(np.arange(0.0, 8.0, 1e-4))

    def test_random_points(self, rng):
        self.assert_matches_scipy(rng.uniform(0.0, 3.0, size=20000))
        self.assert_matches_scipy(rng.exponential(1.0, size=20000))

    def test_neighbours_of_the_branch_points(self):
        self.assert_matches_scipy(self.neighbours(shift._KOLMOG_CUTOVER))
        self.assert_matches_scipy(self.neighbours(self.CUT_OFF))

    def test_where_scipy_would_underflow_u(self):
        # u = exp(-pi^2 / (8 x^2)) is 0 only for x below about 0.0407, under the
        # cut-off, so there the result is 1.0 and the port drops scipy's u == 0 branch
        xs = [0.0406, 0.04065, 0.0407, self.CUT_OFF]
        assert all(math.exp(-math.pi * math.pi / (x * x) / 8) == 0 for x in xs[:2])
        self.assert_matches_scipy(xs)
        above = float(np.nextafter(self.CUT_OFF, np.inf))
        assert math.exp(-math.pi * math.pi / (above * above) / 8) > 0

    def test_special_values(self):
        self.assert_matches_scipy([0.0, -0.0, -1e-300, -1.0, -np.inf, 5e-324, np.inf, 1e10])
        assert math.isnan(shift._kolmogorov_sf(math.nan))

    def test_ks_two_sample_p_value(self, rng):
        for n1, n2, loc in [(5, 7, 0.0), (80, 90, 0.7), (300, 40, 0.2), (64, 64, 2.0)]:
            a = rng.normal(size=n1)
            b = rng.normal(loc=loc, size=n2)
            r = ks_two_sample(a, b)
            en = n1 * n2 / (n1 + n2)
            assert r.p_value == float(kolmogorov(math.sqrt(en) * r.statistic))


class TestSelectDomainCount:
    def _keyed_domain(self, regimes, n_per_key=12, seed=0):
        """Keys 1..len(regimes); each regime flips the label rule."""
        rng = np.random.default_rng(seed)
        points = []
        keys = []
        for key, flip in enumerate(regimes, start=1):
            x = rng.normal(scale=1.5, size=(n_per_key, 2))
            labels = (x[:, 0] + x[:, 1] > 0).astype(int)
            if flip:
                labels = 1 - labels
            for row, lab in zip(x, labels):
                points.append((row, int(lab)))
                keys.append(key)
        return domain_of_rows("keyed", points), keys

    def test_table_covers_candidates_and_bounds(self):
        dom, keys = self._keyed_domain([False, False, True, True], n_per_key=10)
        cfg = TrainConfig(seed=0, beta=0.05, epochs=30, batch_size=20)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = select_domain_count(dom, [2, 4], keys, cfg, m_samples=8)
        assert set(result.table) == {2, 4}
        assert all(0.0 <= p <= 1.0 for p in result.table.values())

    def test_infeasible_candidate_skipped_with_diagnostic(self):
        dom, keys = self._keyed_domain([False, True], n_per_key=10)
        cfg = TrainConfig(seed=0, beta=0.05, epochs=20, batch_size=20)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = select_domain_count(dom, [2, 5], keys, cfg, m_samples=8)
        assert 5 in result.skipped
        assert result.best_k == 2

    def test_needs_two_candidates(self):
        dom, keys = self._keyed_domain([False, True])
        with pytest.raises(ConfigError):
            select_domain_count(dom, [2], keys, TrainConfig(), m_samples=4)

    # a bad key fails every split, so the candidate loop would skip every k and
    # report only that all were infeasible
    def test_short_key_list_is_its_own_data_error(self):
        dom, keys = self._keyed_domain([False, True])
        with pytest.raises(DataError, match=f"got {len(dom) - 1} keys for {len(dom)} points"):
            select_domain_count(dom, [2, 3], keys[:-1], TrainConfig(), m_samples=4)

    def test_non_whole_key_is_its_own_data_error(self):
        dom, keys = self._keyed_domain([False, True])
        keys[3] = 1.5
        with pytest.raises(DataError, match=r"row 4: key 1\.5 is not a whole number"):
            select_domain_count(dom, [2, 3], keys, TrainConfig(), m_samples=4)

    def _planted_feature_switch(self, seed, n_per_key=10):
        """Twelve keys; the middle third predicts from the other feature."""
        from gradframe.rng import rng_for

        rng = rng_for(seed, "selectk-bed3")
        points, keys = [], []
        for key in range(1, 13):
            middle = 5 <= key <= 8
            x = rng.normal(scale=1.5, size=(n_per_key, 2))
            labels = (x[:, 1] > 0).astype(int) if middle else (x[:, 0] > 0).astype(int)
            for row, lab in zip(x, labels):
                points.append((row, int(lab)))
                keys.append(key)
        return domain_of_rows("planted", points), keys

    def test_planted_three_regime_recovery(self):
        hits = 0
        for seed in range(10):
            dom, keys = self._planted_feature_switch(seed)
            cfg = TrainConfig(
                seed=seed, beta=0.02, epochs=120, batch_size=40, hidden_dims=(8,), rep_layer_index=1
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = select_domain_count(dom, [2, 3, 4], keys, cfg, m_samples=24)
            hits += result.best_k == 3
            assert not result.flat
        assert hits >= 8, f"three-regime structure recovered on only {hits}/10 seeds"
