from __future__ import annotations

import warnings

import numpy as np
import pytest

from conftest import separable_blobs

from gradframe.data import Domain, DomainSet, simulation_source, simulation_target
from gradframe.errors import ConfigError, NumericError
from gradframe.evaluation import auroc
from gradframe.nn import probs_batch
from gradframe.rng import rng_for
from gradframe.training import MixupConfig, TrainConfig, draw_lambdas, train_erm, train_groupdro, train_mixup


class TestTrainErm:
    def test_separable_source_reaches_high_accuracy(self):
        src = simulation_source(0)
        cfg = TrainConfig(seed=0, beta=0.01, epochs=100, batch_size=32)
        model = train_erm(src, cfg)
        pooled = src.pooled()
        p = probs_batch(model, pooled.x)
        acc = np.mean((p > 0.5) == (pooled.y == 1))
        assert acc >= 0.99

    def test_duplicated_dataset_full_batch_equivalence(self):
        # full-batch gradients of the doubled set equal the originals up to
        # floating summation order, so the trajectories track tightly
        src = DomainSet((separable_blobs("A", seed=9, n_per_blob=30),))
        n = len(src.pooled())
        cfg = TrainConfig(seed=7, beta=0.02, epochs=10, batch_size=n)
        base = train_erm(src, cfg)
        pooled = src.pooled()
        doubled = DomainSet((Domain("doubled", np.vstack([pooled.x] * 2), np.tile(pooled.y, 2)),))
        cfg2 = TrainConfig(seed=7, beta=0.02, epochs=10, batch_size=2 * n)
        twice = train_erm(doubled, cfg2)
        for wa, wb in zip(base.weights, twice.weights):
            assert np.allclose(wa, wb, atol=1e-9, rtol=1e-9)

    def test_determinism(self):
        src = simulation_source(1)
        cfg = TrainConfig(seed=1, beta=0.01, epochs=20, batch_size=64)
        a = train_erm(src, cfg)
        b = train_erm(src, cfg)
        for wa, wb in zip(a.weights, b.weights):
            assert wa.tobytes() == wb.tobytes()


class TestTrainMixup:
    def test_fixed_lambda_override_gives_midpoints(self):
        cfg = MixupConfig(fixed_lambda=0.5)
        lams = draw_lambdas(cfg, rng_for(0, "mixup"), 32)
        assert np.all(lams == 0.5)

    def test_beta_draws_stay_in_unit_interval(self):
        cfg = MixupConfig(beta_shape=(2.0, 2.0))
        lams = draw_lambdas(cfg, rng_for(0, "mixup"), 1000)
        assert np.all((lams >= 0.0) & (lams <= 1.0))

    def test_seeded_reproducibility(self):
        src = simulation_source(2)
        cfg = TrainConfig(seed=2, beta=0.01, epochs=15, batch_size=64)
        mix = MixupConfig()
        a = train_mixup(src, cfg, mix)
        b = train_mixup(src, cfg, mix)
        for wa, wb in zip(a.weights, b.weights):
            assert wa.tobytes() == wb.tobytes()

    def test_target_auroc_reasonable_on_separable_blobs(self):
        src = simulation_source(3)
        tgt = simulation_target(3)
        cfg = TrainConfig(seed=3, beta=0.01, epochs=60, batch_size=64)
        model = train_mixup(src, cfg, MixupConfig())
        score = auroc(probs_batch(model, tgt.x), tgt.y)
        assert 0.5 <= score <= 1.0

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            MixupConfig(beta_shape=(0.0, 2.0))
        with pytest.raises(ConfigError):
            MixupConfig(fixed_lambda=1.5)

    @pytest.mark.parametrize("shape", [(np.inf, 2.0), (2.0, np.nan)])
    def test_rejects_non_finite_beta_shape(self, shape):
        with pytest.raises(ConfigError, match="beta_shape"):
            MixupConfig(beta_shape=shape)


class TestTrainGroupDro:
    def _unbalanced_set(self):
        easy = separable_blobs("easy", seed=11, n_per_blob=40)
        flipped = separable_blobs("h", seed=12, n_per_blob=40)
        hard = Domain("hard", flipped.x, 1 - flipped.y)
        return DomainSet((easy, hard))

    def test_eta_zero_keeps_uniform_weights(self):
        ds = self._unbalanced_set()
        cfg = TrainConfig(seed=0, beta=0.01, epochs=3, batch_size=32)
        seen = []
        train_groupdro(ds, cfg, eta=0.0, on_step=lambda s, q, l: seen.append(q))
        assert seen
        for q in seen:
            assert np.allclose(q, 0.5, atol=1e-12)

    def test_high_loss_domain_gains_weight_after_first_update(self):
        ds = self._unbalanced_set()
        cfg = TrainConfig(seed=1, beta=0.01, epochs=2, batch_size=32)
        # pre-train so the easy domain is well fit and the flipped one is not
        seen = []
        train_groupdro(ds, cfg, eta=1.0, on_step=lambda s, q, l: seen.append((s, q, l)))
        first_step, q, losses = seen[0]
        assert first_step == 1
        hard_idx = 1
        if losses[hard_idx] > losses[0]:
            assert q[hard_idx] > 0.5

    def test_weights_stay_on_simplex_every_step(self):
        ds = self._unbalanced_set()
        cfg = TrainConfig(seed=2, beta=0.01, epochs=5, batch_size=32)
        records = []
        train_groupdro(ds, cfg, eta=0.05, on_step=lambda s, q, l: records.append(q))
        assert records
        for q in records:
            assert np.all(q >= 0)
            assert abs(q.sum() - 1.0) <= 1e-9

    def test_deterministic_and_finite(self):
        ds = self._unbalanced_set()
        cfg = TrainConfig(seed=3, beta=0.01, epochs=5, batch_size=32)
        a = train_groupdro(ds, cfg, eta=0.01)
        b = train_groupdro(ds, cfg, eta=0.01)
        for wa, wb in zip(a.weights, b.weights):
            assert np.all(np.isfinite(wa))
            assert wa.tobytes() == wb.tobytes()

    @pytest.mark.parametrize("eta", [np.nan, np.inf])
    def test_non_finite_eta_rejected_before_any_step(self, eta):
        cfg = TrainConfig(seed=0, beta=0.01, epochs=5, batch_size=32)
        seen = []
        with pytest.raises(ConfigError, match="eta"):
            train_groupdro(self._unbalanced_set(), cfg, eta=eta, on_step=lambda *a: seen.append(a))
        assert seen == []

    def test_overflowing_reweighting_stops_at_first_step(self):
        ds = self._unbalanced_set()
        cfg = TrainConfig(seed=0, beta=0.01, epochs=50, batch_size=32)
        seen = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericError, match="step 1"):
                train_groupdro(ds, cfg, eta=1e6, on_step=lambda *a: seen.append(a))
        assert seen == []
