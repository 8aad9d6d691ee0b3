from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import domain_of_rows, separable_blobs, zero_model

from gradframe.core import AscentConfig, PenaltyParams
from gradframe.data import Domain, DomainSet
from gradframe.errors import ConfigError, DataError, NumericError
from gradframe.evaluation import (
    LodoRow,
    auroc,
    evaluate,
    lodo_cv_search,
    welch_t_one_tailed,
)
from gradframe.nn import probs_batch
from gradframe.rng import derive_seed
from gradframe.training import TrainConfig


def brute_force_auroc(scores, labels) -> float:
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestAuroc:
    def test_perfect_ranking(self):
        assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties_give_half(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_worked_example(self):
        scores = [0.1, 0.4, 0.35, 0.8]
        labels = [0, 0, 1, 1]
        assert abs(auroc(scores, labels) - 0.75) < 1e-12
        assert abs(auroc(scores, labels) - brute_force_auroc(scores, labels)) < 1e-12

    def test_matches_brute_force_with_ties(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 50))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.normal(size=n), 1)
            assert abs(auroc(scores, labels) - brute_force_auroc(scores, labels)) < 1e-12

    def test_invariant_under_monotone_transform(self, rng):
        n = 40
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1
        scores = rng.normal(size=n)
        base = auroc(scores, labels)
        assert abs(auroc(np.exp(scores), labels) - base) < 1e-12
        assert abs(auroc(3.0 * scores + 7.0, labels) - base) < 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(NumericError):
            auroc([0.1, 0.9], [1, 1])


class TestEvaluate:
    def test_zero_weight_model(self):
        m = zero_model((2, 2, 2))
        dom = separable_blobs("d", seed=0, n_per_blob=20)
        report = evaluate(m, dom)
        assert abs(report.mean_loss - math.log(2.0)) < 1e-12
        assert report.auroc == 0.5
        assert report.n == 40

    def test_per_class_losses_recombine(self):
        m = zero_model((2, 2, 2))
        dom = domain_of_rows(
            "d", ((np.array([float(i), 0.0]), 1 if i < 3 else 0) for i in range(10))
        )
        report = evaluate(m, dom)
        n1, n0 = 3, 7
        recombined = (n0 * report.per_class_loss[0] + n1 * report.per_class_loss[1]) / 10
        assert abs(recombined - report.mean_loss) < 1e-15

    def test_single_class_gives_loss_only(self):
        m = zero_model((2, 2, 2))
        dom = domain_of_rows("d", ((np.array([float(i), 0.0]), 1) for i in range(5)))
        report = evaluate(m, dom)
        assert report.auroc is None
        assert math.isnan(report.per_class_loss[0])


class TestWelch:
    def test_equal_samples(self):
        t, dof, p = welch_t_one_tailed([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert t == 0.0
        assert abs(p - 0.5) < 1e-12

    def test_strong_separation(self):
        a = [10.0, 10.1, 9.9, 10.05]
        b = [0.0, 0.1, -0.1, 0.05]
        _, _, p = welch_t_one_tailed(a, b)
        assert p < 0.001

    def test_textbook_recomputation(self):
        from scipy.stats import t as student_t

        a = np.array([1.0, 2.0, 3.0])
        b = np.array([1.0, 2.0, 3.0, 4.0])
        t, dof, p = welch_t_one_tailed(a, b)
        sa = a.var(ddof=1) / 3
        sb = b.var(ddof=1) / 4
        t_expected = (a.mean() - b.mean()) / math.sqrt(sa + sb)
        dof_expected = (sa + sb) ** 2 / (sa**2 / 2 + sb**2 / 3)
        assert abs(t - t_expected) < 1e-9
        assert abs(dof - dof_expected) < 1e-9
        assert abs(p - student_t.sf(t_expected, dof_expected)) < 1e-9

    def test_swap_maps_p_to_complement(self, rng):
        a = rng.normal(size=8)
        b = rng.normal(loc=0.5, size=6)
        _, _, p_ab = welch_t_one_tailed(a, b)
        _, _, p_ba = welch_t_one_tailed(b, a)
        assert abs(p_ab + p_ba - 1.0) < 1e-12
        assert 0.0 < p_ab < 1.0

    def test_degenerate_variance_rejected(self):
        with pytest.raises(NumericError):
            welch_t_one_tailed([1.0, 1.0, 1.0], [2.0, 2.0])

    def test_short_samples_rejected(self):
        with pytest.raises(DataError):
            welch_t_one_tailed([1.0], [1.0, 2.0])


def _three_domain_set(seed=0):
    return DomainSet(
        (
            separable_blobs("A", seed=seed, n_per_blob=25),
            separable_blobs("B", seed=seed + 100, n_per_blob=25),
            separable_blobs("C", seed=seed + 200, n_per_blob=25),
        )
    )


class TestLodo:
    def test_grid_of_one_pair(self):
        ds = _three_domain_set()
        cfg = TrainConfig(seed=0, beta=0.02, epochs=15, batch_size=50, pretrain_epochs=5)
        result = lodo_cv_search(ds, [(0.5, 0.5)], AscentConfig(max_steps=2, min_steps=0), cfg)
        assert result.best.gamma1 == 0.5 and result.best.gamma2 == 0.5
        assert len(result.rows) == 3
        assert {r.fold_domain for r in result.rows} == {"A", "B", "C"}

    def test_requires_three_domains(self):
        ds = DomainSet((separable_blobs("A", seed=0), separable_blobs("B", seed=1)))
        with pytest.raises(ConfigError, match="3"):
            lodo_cv_search(ds, [(1.0, 1.0)], AscentConfig(max_steps=1, min_steps=0), TrainConfig())

    def test_single_class_fold_fails_before_training(self, monkeypatch):
        import gradframe.training as training

        ds = _three_domain_set(seed=7)
        c = ds.domain("C")
        ds = DomainSet(ds.domains[:2] + (Domain("C", c.x, np.ones(len(c))),))
        calls = []
        monkeypatch.setattr(training, "descend", lambda *args: calls.append(args))
        cfg = TrainConfig(seed=7, epochs=5, batch_size=50, pretrain_epochs=5)
        with pytest.raises(NumericError, match="only one class"):
            lodo_cv_search(ds, [(1.0, 1.0)], AscentConfig(max_steps=1, min_steps=0), cfg)
        assert calls == []

    def test_table_shape_grid_times_k(self):
        ds = _three_domain_set(seed=5)
        cfg = TrainConfig(seed=5, beta=0.02, epochs=10, batch_size=50, pretrain_epochs=5)
        pairs = [(0.1, 0.1), (1.0, 10.0)]
        result = lodo_cv_search(ds, pairs, AscentConfig(max_steps=1, min_steps=0), cfg)
        assert len(result.rows) == len(pairs) * ds.k
        best_pair = (result.best.gamma1, result.best.gamma2)
        best = [r.auroc for r in result.rows if (r.gamma1, r.gamma2) == best_pair]
        assert result.mean_auroc == float(np.mean(best))

    def test_each_fold_is_one_set_and_each_cell_scores_as_trained_alone(self, monkeypatch):
        """The 4 pairs of the config's default grid on 3 folds: the plan gets one
        training set per fold, and every row is its cell's plan run alone on a set of
        its own, as when each cell built its own set."""
        import gradframe.evaluation as evaluation

        ds = _three_domain_set(seed=4)
        cfg = TrainConfig(seed=4, beta=0.02, epochs=10, batch_size=50, pretrain_epochs=5)
        asc = AscentConfig(max_steps=2, min_steps=0)
        pairs = [(0.1, 0.1), (0.1, 10.0), (1.0, 0.1), (1.0, 10.0)]
        sets = []
        plan = evaluation.train_gradframe

        def recording(runs, ascent_cfg):
            sets.extend(source for source, _, _ in runs)
            return plan(runs, ascent_cfg)

        monkeypatch.setattr(evaluation, "train_gradframe", recording)
        result = lodo_cv_search(ds, pairs, asc, cfg)
        assert len(sets) == 12 and len({id(s) for s in sets}) == 3
        want = []
        for pair_idx, (g1, g2) in enumerate(pairs):
            for fold in ds.domains:
                rest = DomainSet(tuple(d for d in ds.domains if d is not fold))
                cell_cfg = replace(cfg, seed=derive_seed(cfg.seed, "lodo", pair_idx, fold.id))
                [(model, _)] = plan([(rest, PenaltyParams(g1, g2), cell_cfg)], asc)
                want.append(LodoRow(g1, g2, fold.id, auroc(probs_batch(model, fold.x), fold.y)))
        assert result.rows == tuple(want)

    def test_csv_export(self, tmp_path):
        ds = _three_domain_set(seed=6)
        cfg = TrainConfig(seed=6, beta=0.02, epochs=10, batch_size=50, pretrain_epochs=5)
        result = lodo_cv_search(ds, [(1.0, 1.0)], AscentConfig(max_steps=1, min_steps=0), cfg)
        path = tmp_path / "lodo.csv"
        result.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "gamma1,gamma2,fold_domain,auroc"
        assert len(lines) == 4
