"""Acceptance suite: one test per release criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 1-5 probe how a
2-hidden-unit network extrapolates off the training distribution; that
behavior is draw-dependent (see the printed per-seed rates), so these tests
report honest failures when the stated rates are not met rather than
loosening the thresholds.  Criteria 6-12 verify oracle-checked machinery and
end-to-end properties.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from conftest import domain_of_rows, fd_input_grad, fd_param_grads, one_row_bce, one_row_rep, rel_err

import gradframe as gf
from gradframe.core import AscentConfig, PenaltyParams, _objective_grad, fictitious_sets, train_gradframe
from gradframe.data import Domain, DomainSet, simulation_source, simulation_target
from gradframe.evaluation import auroc, evaluate, lodo_cv_search
from gradframe.nn import grad_params_batch, init_mlp, param_views, probs_batch
from gradframe.rng import rng_for
from gradframe.shift import concept_shift_delta, covariate_shift_ratio, ks_two_sample, shapley_attribution
from gradframe.training import TrainConfig, fit_stack


# Canonical simulation protocol: full-batch Adam to saturation for the final
# models; pretraining long enough that the ascent cannot wander destructively
# but short of killing its gradients.
def sim_cfg(seed: int) -> TrainConfig:
    return TrainConfig(seed=seed, beta=0.01, epochs=5000, batch_size=400, pretrain_epochs=200)


SIM_ASCENT = AscentConfig(alpha=1.0, max_steps=15)
SEEDS = list(range(10))


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


@pytest.fixture(scope="session")
def sim_runs():
    """Per-seed ERM and strong/weak penalty runs on the two-source simulation: the ten
    ERM fits as one ``fit_stack``, the strong runs as one ``train_gradframe`` plan and
    the weak runs as another."""
    sources = [simulation_source(seed) for seed in SEEDS]
    cfgs = [sim_cfg(seed) for seed in SEEDS]
    pools = [src.pooled() for src in sources]
    t0 = time.time()
    erms = fit_stack([p.x for p in pools], [p.y for p in pools], cfgs)
    t_erm = time.time() - t0
    t0 = time.time()
    strong = train_gradframe(
        [(src, PenaltyParams(1.0, 10.0), cfg) for src, cfg in zip(sources, cfgs)], SIM_ASCENT
    )
    t_strong = time.time() - t0
    weak = train_gradframe(
        [(src, PenaltyParams(0.1, 0.1), cfg) for src, cfg in zip(sources, cfgs)], SIM_ASCENT
    )
    out = {}
    for seed, src, erm, (strong_model, fict_strong), (weak_model, _) in zip(
        SEEDS, sources, erms, strong, weak
    ):
        tgt = simulation_target(seed)
        out[seed] = {
            "erm": evaluate(erm, tgt),
            "strong": evaluate(strong_model, tgt),
            "weak": evaluate(weak_model, tgt),
            "fict_strong": fict_strong,
            "src": src,
        }
    out["t_erm"] = t_erm
    out["t_strong"] = t_strong
    return out


class TestCriterion1:
    def test_erm_loss_gap(self, sim_runs):
        hits_gap = sum(sim_runs[s]["erm"].per_class_loss[0] > 0.5 for s in SEEDS)
        hits_order = sum(
            sim_runs[s]["erm"].per_class_loss[1] < sim_runs[s]["erm"].per_class_loss[0]
            for s in SEEDS
        )
        runtime = sim_runs["t_erm"]
        ok = hits_gap >= 9 and hits_order >= 9 and runtime < 30.0
        report(
            1,
            "erm class-0 loss gap",
            ok,
            f"(class0>0.5 in {hits_gap}/10, class1<class0 in {hits_order}/10, {runtime:.0f}s)",
        )
        assert hits_gap >= 9, f"class-0 target BCE > 0.5 in only {hits_gap}/10 trials"
        assert hits_order >= 9, f"class-1 < class-0 BCE in only {hits_order}/10 trials"
        assert runtime < 30.0


class TestCriterion2:
    def test_strong_penalties_beat_erm(self, sim_runs):
        hits = sum(
            sim_runs[s]["strong"].mean_loss < 0.15
            and sim_runs[s]["strong"].mean_loss < sim_runs[s]["erm"].mean_loss
            for s in SEEDS
        )
        runtime = sim_runs["t_strong"] + sim_runs["t_erm"]
        ok = hits == 10 and runtime < 120.0
        report(2, "strong-penalty improvement", ok, f"({hits}/10 trials, {runtime:.0f}s)")
        assert hits == 10, f"target BCE < 0.15 and below paired ERM in only {hits}/10 trials"
        assert runtime < 120.0


class TestCriterion3:
    def test_weak_penalty_ordering(self, sim_runs):
        hits = sum(
            sim_runs[s]["erm"].per_class_loss[0]
            > sim_runs[s]["weak"].per_class_loss[0]
            > sim_runs[s]["strong"].per_class_loss[0]
            for s in SEEDS
        )
        ok = hits >= 8
        report(3, "weak-penalty ordering", ok, f"({hits}/10 trials)")
        assert hits >= 8, f"strict ERM > weak > strong class-0 ordering in only {hits}/10 trials"


@pytest.fixture(scope="session")
def sweep_runs():
    """Penalty sweeps on the simulation for the two shift metrics."""
    ratio_mono = 0
    delta_mono = 0
    for seed in range(5):
        src = simulation_source(seed)
        cfg = TrainConfig(seed=seed, beta=0.01, epochs=400, batch_size=400, pretrain_epochs=50)
        f_model = gf.train_erm(src, cfg)
        # one plan: the six runs share the source and config, so they share one pretraining
        ficts = fictitious_sets(
            [(src, PenaltyParams(g1, 1.0), cfg) for g1 in (0.1, 1.0, 10.0)]
            + [(src, PenaltyParams(1.0, g2), cfg) for g2 in (0.1, 1.0, 10.0)],
            SIM_ASCENT,
        )
        means = [float(np.mean(covariate_shift_ratio(src, fict, f_model))) for fict in ficts[:3]]
        ratio_mono += means[0] <= means[1] <= means[2]
        deltas = [float(np.mean(concept_shift_delta(src, fict, cfg))) for fict in ficts[3:]]
        delta_mono += deltas[0] <= deltas[1] <= deltas[2]
    return ratio_mono, delta_mono


class TestCriterion4:
    def test_gamma1_monotone_covariate_ratio(self, sweep_runs):
        ratio_mono, _ = sweep_runs
        ok = ratio_mono == 5
        report(4, "gamma1 covariate-ratio trend", ok, f"({ratio_mono}/5 seeds monotone)")
        assert ratio_mono == 5, f"mean ratio non-decreasing on only {ratio_mono}/5 seeds"


class TestCriterion5:
    def test_gamma2_monotone_concept_delta(self, sweep_runs):
        _, delta_mono = sweep_runs
        ok = delta_mono == 5
        report(5, "gamma2 concept-delta trend", ok, f"({delta_mono}/5 seeds monotone)")
        assert delta_mono == 5, f"mean delta non-decreasing on only {delta_mono}/5 seeds"


class TestCriterion6:
    def test_gradient_oracle(self):
        t0 = time.time()
        rng = np.random.default_rng(2024)
        checked = 0
        worst = 0.0
        while checked < 200:
            mi = init_mlp([3, 6, 2], 1, seed=int(rng.integers(1 << 30)))
            mj = init_mlp([3, 5, 2], 1, seed=int(rng.integers(1 << 30)))
            x = rng.normal(size=3)
            y = int(rng.integers(2))
            g1 = float(rng.uniform(0.0, 5.0))
            g2 = float(rng.uniform(0.0, 5.0))
            anchor = one_row_rep(mi, rng.normal(size=3))
            # finite differences are invalid within h of a rectifier kink or
            # the probability clamp; resample such configurations
            if not _fd_safe(mi, x) or not _fd_safe(mj, x):
                continue
            gw, gb = param_views(mi.layer_dims, grad_params_batch(mi, x[None, :], [y]))
            fw, fb = fd_param_grads(lambda m: one_row_bce(m, x, y), mi)
            for k in range(mi.n_layers):
                worst = max(worst, rel_err(gw[k], fw[k]), rel_err(gb[k], fb[k]))
            gammas = PenaltyParams(g1, g2)
            gi = _objective_grad(x[None, :], np.array([float(y)]), anchor[None, :], mi, mj, gammas)[0]

            def objective(q):
                z = one_row_rep(mi, q)
                return (
                    one_row_bce(mi, q, y)
                    - g1 * 0.5 * float(np.sum((z - anchor) ** 2))
                    - g2 * one_row_bce(mj, q, y)
                )

            worst = max(worst, rel_err(gi, fd_input_grad(objective, x)))
            checked += 1
        elapsed = time.time() - t0
        ok = worst < 1e-5 and elapsed < 10.0
        report(6, "finite-difference gradient oracle", ok, f"(200 configs, worst rel err {worst:.2e}, {elapsed:.1f}s)")
        assert worst < 1e-5
        assert elapsed < 10.0


def _fd_safe(model, x, h=1e-4) -> bool:
    from gradframe.nn import P_MIN

    cur = np.asarray(x, dtype=float)[None, :]
    p1 = probs_batch(model, cur)
    if not (10 * P_MIN < p1[0] < 1.0 - 10 * P_MIN):
        return False
    for k in range(model.n_layers - 1):
        pre = cur @ model.weights[k] + model.biases[k]
        if np.any(np.abs(pre) < h):
            return False
        cur = np.maximum(pre, 0.0)
    return True


class TestCriterion7:
    def test_auroc_oracle(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.normal(size=n), 1)
            got = auroc(scores, labels)
            expect = _pair_count_auroc(scores, labels)
            worst = max(worst, abs(got - expect))
        ok = worst < 1e-12
        report(7, "auroc pair-counting oracle", ok, f"(1000 cases, worst gap {worst:.2e})")
        assert worst < 1e-12


def _pair_count_auroc(scores, labels) -> float:
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum(1.0 if p > n else (0.5 if p == n else 0.0) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


class TestCriterion8:
    def test_ks_oracle(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(500):
            a = np.round(rng.normal(size=int(rng.integers(1, 25))), 1)
            b = np.round(rng.normal(size=int(rng.integers(1, 25))), 1)
            got = ks_two_sample(a, b).statistic
            expect = _brute_ks(a, b)
            worst = max(worst, abs(got - expect))
        same = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        disjoint = ks_two_sample([0.0, 0.5], [2.0, 3.0])
        ok = worst == 0.0 and same.statistic == 0.0 and disjoint.statistic == 1.0
        report(8, "k-s brute-force oracle", ok, f"(500 cases, worst gap {worst:.2e})")
        assert worst == 0.0
        assert same.statistic == 0.0 and same.p_value == 1.0
        assert disjoint.statistic == 1.0


def _brute_ks(a, b) -> float:
    best = 0.0
    for t in np.concatenate([a, b]):
        best = max(best, abs(np.mean(a <= t) - np.mean(b <= t)))
    return float(best)


class TestCriterion9:
    def test_shapley_properties(self):
        rng = np.random.default_rng(9)
        eff_ok = 0
        sym_ok = 0
        for case in range(100):
            d = int(rng.integers(2, 6))
            model = init_mlp([d, 5, 2], 1, seed=int(rng.integers(1 << 30)))
            background = domain_of_rows(
                "bg", ((rng.normal(size=d), int(rng.integers(2))) for _ in range(12))
            )
            x = rng.normal(size=d)
            attr, samples = shapley_attribution(
                model, background, x, m_samples=32, seed=case, return_samples=True
            )
            baseline = background.x.mean(axis=0)
            gap = probs_batch(model, x[None, :])[0] - probs_batch(model, baseline[None, :])[0]
            se_sum = samples.sum(axis=1).std(ddof=1) / math.sqrt(samples.shape[0])
            if abs(attr.sum() - gap) <= 3.0 * se_sum + 1e-9:
                eff_ok += 1
            # symmetric companion case: swap-invariant weights, equal inputs
            sym_model = _feature_symmetric_model(rng)
            sx = np.full(2, float(rng.normal()))
            s_attr, s_samples = shapley_attribution(
                sym_model, _symmetric_background(), sx, m_samples=64, seed=1000 + case, return_samples=True
            )
            diff = s_samples[:, 0] - s_samples[:, 1]
            se_diff = diff.std(ddof=1) / math.sqrt(s_samples.shape[0])
            if abs(s_attr[0] - s_attr[1]) <= 3.0 * se_diff + 1e-12:
                sym_ok += 1
        ok = eff_ok == 100 and sym_ok >= 99
        report(9, "shapley efficiency and symmetry", ok, f"(efficiency {eff_ok}/100, symmetry {sym_ok}/100)")
        assert eff_ok == 100
        assert sym_ok >= 99  # 3-sigma bound admits rare statistical misses


def _feature_symmetric_model(rng):
    from conftest import build_model

    row = rng.normal(size=3)
    w2 = rng.normal(size=(3, 2))
    return build_model(
        weights=[np.stack([row, row]), w2],
        biases=[np.zeros(3), np.zeros(2)],
    )


def _symmetric_background():
    return domain_of_rows(
        "bg", ((np.array([v, v], dtype=float), abs(v) % 2) for v in (-2, -1, 0, 1, 2))
    )


class TestCriterion10:
    def test_lodo_planted_shift_selection(self):
        grid = [(0.1, 0.1), (1.0, 10.0)]
        wins = 0
        for seed in range(10):
            ds = DomainSet(
                (
                    _concept_domain("A", seed * 7 + 1, 30.0),
                    _concept_domain("B", seed * 7 + 2, 55.0),
                    _concept_domain("C", seed * 7 + 3, 80.0),
                )
            )
            cfg = TrainConfig(
                seed=seed, beta=0.01, epochs=250, batch_size=120,
                pretrain_epochs=25, hidden_dims=(4,), rep_layer_index=1,
            )
            result = lodo_cv_search(ds, grid, AscentConfig(alpha=1.0, max_steps=15), cfg)
            assert len(result.rows) == len(grid) * ds.k  # exact table shape
            wins += (result.best.gamma1, result.best.gamma2) == (1.0, 10.0)
        ok = wins >= 8
        report(10, "lodo planted-shift selection", ok, f"(strong pair selected {wins}/10 seeds)")
        assert wins >= 8, f"(1, 10) selected on only {wins}/10 seeds"


def _concept_domain(domain_id: str, seed: int, angle_deg: float, n: int = 60) -> Domain:
    rng = rng_for(seed, "lodo-bed", domain_id)
    x = rng.normal(scale=1.8, size=(n, 2))
    theta = np.deg2rad(angle_deg)
    w = np.array([np.cos(theta), np.sin(theta)])
    return Domain(domain_id, x, (x @ w > 0).astype(int))


class TestCriterion11:
    def test_degenerate_equivalence_and_label_preservation(self, sim_runs):
        matches = True
        for seed in (0, 1):
            src = simulation_source(seed)
            cfg = TrainConfig(seed=seed, beta=0.02, epochs=60, batch_size=64, pretrain_epochs=10)
            [(model, fict)] = train_gradframe(
                [(src, PenaltyParams(1.0, 10.0), cfg)], AscentConfig(max_steps=0, min_steps=0)
            )
            pooled = src.pooled()
            doubled = DomainSet((Domain("doubled", np.vstack([pooled.x] * 2), np.tile(pooled.y, 2)),))
            erm_doubled = gf.train_erm(doubled, cfg)
            for wa, wb in zip(model.weights, erm_doubled.weights):
                matches = matches and wa.tobytes() == wb.tobytes()
            for ba, bb in zip(model.biases, erm_doubled.biases):
                matches = matches and ba.tobytes() == bb.tobytes()
            matches = matches and np.array_equal(fict.x_star, pooled.x)
        preserved = 0
        total = 0
        for seed in SEEDS:
            fict = sim_runs[seed]["fict_strong"]
            src = sim_runs[seed]["src"]
            for origin_domain, origin_index, y_star in zip(
                fict.origin_domain, fict.origin_index, fict.y_star
            ):
                preserved += y_star == src.domain(origin_domain).y[origin_index]
                total += 1
        ok = matches and preserved == total
        report(
            11,
            "degenerate equivalence + label preservation",
            ok,
            f"(trajectories {'identical' if matches else 'DIFFER'}, labels {preserved}/{total})",
        )
        assert matches
        assert preserved == total


class TestCriterion12:
    def test_end_to_end_determinism(self, tmp_path):
        from gradframe.cli import main

        out = tmp_path / "run"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "dataset.kind = simulate\n"
            "method = gradframe\n"
            "train.epochs = 40\n"
            "train.pretrain_epochs = 10\n"
            "train.batch_size = 64\n"
            "ascent.max_steps = 5\n"
            "ascent.min_steps = 0\n"
            "seed = 5\n"
            f"output.dir = {out}\n"
        )
        csv_names = ("source.csv", "target.csv", "model.txt", "fictitious.csv", "shift_series.csv")
        json_names = ("train_report.json", "shift_report.json", "simulate.json")

        def run():
            assert main(["simulate", "--config", str(cfgfile)]) == 0
            assert main(["train", "--config", str(cfgfile)]) == 0
            assert main(["shift-report", "--config", str(cfgfile)]) == 0
            return (
                {name: (out / name).read_bytes() for name in csv_names},
                {name: json.loads((out / name).read_text()) for name in json_names},
            )

        first_csv, first_json = run()
        second_csv, second_json = run()
        identical = all(first_csv[n] == second_csv[n] for n in csv_names) and all(
            _without_timestamp(first_json[n]) == _without_timestamp(second_json[n])
            for n in json_names
        )
        report(12, "end-to-end determinism", identical, "(simulate -> train -> shift-report, run twice)")
        assert identical


def _without_timestamp(payload):
    if isinstance(payload, dict):
        return {k: _without_timestamp(v) for k, v in payload.items() if k != "timestamp"}
    if isinstance(payload, list):
        return [_without_timestamp(v) for v in payload]
    return payload
