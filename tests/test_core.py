from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import build_model, separable_blobs, zero_model

from gradframe.core import (
    AscentConfig,
    FictitiousPoint,
    PenaltyParams,
    c_conc,
    c_cov,
    generate_fictitious_set,
    inner_maximize,
    pretrain_domain_models,
    surrogate_value,
    train_gradframe,
)
from gradframe.config import SIM_ASCENT, SIM_TRAIN
from gradframe.data import Domain, DomainSet, LabeledPoint, simulation_source
from gradframe.errors import ConfigError, ShapeError
from gradframe.nn import bce_loss, grad_input, init_mlp, probs_batch, representation
from gradframe.rng import rng_for
from gradframe.training import TrainConfig, fit_pooled


def identity_rep_model():
    # identity first layer: z equals relu(x)
    return build_model(
        weights=[np.eye(2), np.array([[0.8, -0.3], [-0.2, 0.5]])],
        biases=[np.zeros(2), np.zeros(2)],
    )


class TestConstraints:
    def test_c_cov_zero_at_identity(self):
        m = identity_rep_model()
        p = LabeledPoint(np.array([1.0, 0.5]), 1)
        assert c_cov(p, p, m) == 0.0

    def test_c_cov_infinite_on_label_mismatch(self):
        m = identity_rep_model()
        a = LabeledPoint(np.array([1.0, 0.5]), 1)
        b = LabeledPoint(np.array([1.0, 0.5]), 0)
        assert c_cov(a, b, m) == math.inf

    def test_c_cov_hand_value(self):
        m = identity_rep_model()
        star = LabeledPoint(np.array([0.0, 1.0]), 0)  # z* = (0, 1)
        origin = LabeledPoint(np.array([1.0, 0.0]), 0)  # z = (1, 0)
        assert abs(c_cov(star, origin, m) - 1.0) < 1e-12

    def test_c_conc_equals_partner_loss(self):
        m = zero_model((2, 2, 2))
        p = LabeledPoint(np.array([0.3, -0.4]), 1)
        assert abs(c_conc(p, m) - math.log(2.0)) < 1e-12

    def test_c_conc_saturated_toward_label(self):
        m = build_model(
            weights=[np.eye(2), np.array([[-8.0, 8.0], [-8.0, 8.0]])],
            biases=[np.zeros(2), np.zeros(2)],
        )
        p = LabeledPoint(np.array([2.0, 2.0]), 1)
        assert c_conc(p, m) < 1e-6

    def test_c_conc_hand_value(self):
        m = identity_rep_model()
        p = LabeledPoint(np.array([0.7, 0.2]), 0)
        assert abs(c_conc(p, m) - bce_loss(m, p.features, 0)) < 1e-12


class TestSurrogate:
    def test_identity_point_drops_covariate_term(self):
        mi = identity_rep_model()
        mj = zero_model((2, 2, 2))
        p = LabeledPoint(np.array([0.5, -0.5]), 1)
        gammas = PenaltyParams(2.0, 3.0)
        expected = bce_loss(mi, p.features, 1) - 3.0 * bce_loss(mj, p.features, 1)
        assert abs(surrogate_value(p, p, mi, mj, gammas) - expected) < 1e-12

    def test_zero_penalties_reduce_to_adversarial(self):
        mi = identity_rep_model()
        mj = zero_model((2, 2, 2))
        star = LabeledPoint(np.array([1.0, 1.0]), 0)
        origin = LabeledPoint(np.array([0.5, 0.5]), 0)
        v = surrogate_value(star, origin, mi, mj, PenaltyParams(0.0, 0.0))
        assert abs(v - bce_loss(mi, star.features, 0)) < 1e-12

    def test_label_mismatch_is_minus_infinity(self):
        mi = identity_rep_model()
        mj = zero_model((2, 2, 2))
        star = LabeledPoint(np.array([1.0, 1.0]), 1)
        origin = LabeledPoint(np.array([0.5, 0.5]), 0)
        assert surrogate_value(star, origin, mi, mj, PenaltyParams(1.0, 1.0)) == -math.inf

    def test_term_wise_recomposition(self):
        mi = identity_rep_model()
        mj = build_model(
            weights=[np.array([[0.2, -0.6], [0.4, 0.1]]), np.array([[0.9, 0.3], [-0.2, 0.7]])],
            biases=[np.array([0.1, -0.1]), np.zeros(2)],
        )
        star = LabeledPoint(np.array([0.4, 0.9]), 1)
        origin = LabeledPoint(np.array([-0.2, 0.6]), 1)
        gammas = PenaltyParams(1.7, 0.4)
        expected = (
            bce_loss(mi, star.features, 1)
            - 1.7 * c_cov(star, origin, mi)
            - 0.4 * c_conc(star, mj)
        )
        assert abs(surrogate_value(star, origin, mi, mj, gammas) - expected) < 1e-12


class TestInnerMaximize:
    def test_zero_steps_is_identity(self):
        mi = identity_rep_model()
        mj = zero_model((2, 2, 2))
        origin = LabeledPoint(np.array([0.5, -0.25]), 0)
        fp = inner_maximize(origin, mi, mj, PenaltyParams(1.0, 1.0), AscentConfig(max_steps=0, min_steps=0))
        assert np.array_equal(fp.x_star, origin.features)
        assert len(fp.objective_trace) == 1
        assert fp.y_star == 0

    def test_single_step_identity_with_zero_penalties(self):
        mi = identity_rep_model()
        mj = zero_model((2, 2, 2))
        origin = LabeledPoint(np.array([0.5, 0.25]), 0)
        alpha = 1e-3
        cfg = AscentConfig(alpha=alpha, max_steps=1, min_steps=0, rel_tolerance=0.0)
        fp = inner_maximize(origin, mi, mj, PenaltyParams(0.0, 0.0), cfg)
        g = grad_input(mi, origin.features, 0)
        assert np.allclose(fp.x_star, origin.features + alpha * g, atol=1e-15)

    def test_trace_monotone_and_label_preserved(self):
        src = simulation_source(0)
        cfg = TrainConfig(seed=0, beta=0.01, epochs=100, batch_size=400, pretrain_epochs=50)
        models = pretrain_domain_models(src, cfg)
        asc = AscentConfig(alpha=0.05, max_steps=15)
        gammas = PenaltyParams(1.0, 10.0)
        checked = 0
        for dom, partner in (("S1", "S2"), ("S2", "S1")):
            for p in src.domain(dom).points[:50]:
                fp = inner_maximize(p, models[dom], models[partner], gammas, asc)
                diffs = np.diff(fp.objective_trace)
                assert np.all(diffs >= -1e-9)
                assert fp.y_star == p.label
                assert len(fp.objective_trace) <= asc.max_steps + 1
                checked += 1
        assert checked == 100

    def test_non_finite_objective_aborts_with_flag(self):
        mi = identity_rep_model()
        mj = zero_model((2, 2, 2))
        origin = LabeledPoint(np.array([0.5, 0.25]), 0)
        cfg = AscentConfig(alpha=1e308, max_steps=5, min_steps=0)
        with np.errstate(over="ignore"):
            fp = inner_maximize(origin, mi, mj, PenaltyParams(1.0, 0.0), cfg)
        assert fp.aborted
        assert np.all(np.isfinite(fp.x_star))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AscentConfig(alpha=0.0)
        with pytest.raises(ConfigError):
            AscentConfig(max_steps=1, min_steps=2)
        with pytest.raises(ConfigError):
            PenaltyParams(-1.0, 0.0)


class TestPretrain:
    def _two_domain_set(self):
        return DomainSet((separable_blobs("A", seed=1), separable_blobs("B", seed=2)))

    def test_separable_domains_reach_high_accuracy(self):
        ds = self._two_domain_set()
        cfg = TrainConfig(seed=0, beta=0.01, epochs=100, batch_size=32, pretrain_epochs=80)
        models = pretrain_domain_models(ds, cfg)
        for dom in ds.domains:
            p = probs_batch(models[dom.id], dom.feature_matrix())
            acc = np.mean((p > 0.5) == (dom.label_vector() == 1))
            assert acc >= 0.99

    def test_determinism(self):
        ds = self._two_domain_set()
        cfg = TrainConfig(seed=3, beta=0.01, epochs=50, batch_size=32, pretrain_epochs=20)
        a = pretrain_domain_models(ds, cfg)
        b = pretrain_domain_models(ds, cfg)
        for key in a:
            for wa, wb in zip(a[key].weights, b[key].weights):
                assert wa.tobytes() == wb.tobytes()

    def test_single_domain_rejected(self):
        ds = DomainSet((separable_blobs("only", seed=1),))
        cfg = TrainConfig(seed=0)
        with pytest.raises(ConfigError):
            pretrain_domain_models(ds, cfg)


class TestGenerateFictitiousSet:
    def test_simulation_partner_assignment(self):
        src = simulation_source(1)
        cfg = TrainConfig(seed=1, beta=0.01, epochs=50, batch_size=400, pretrain_epochs=20)
        fict = generate_fictitious_set(src, PenaltyParams(1.0, 10.0), AscentConfig(max_steps=0, min_steps=0), cfg)
        assert len(fict) == 400
        for fp in fict.points:
            assert fp.partner_domain == ("S2" if fp.origin_domain == "S1" else "S1")

    def test_zero_steps_reproduces_inputs(self):
        src = simulation_source(2)
        cfg = TrainConfig(seed=2, beta=0.01, epochs=50, batch_size=400, pretrain_epochs=20)
        fict = generate_fictitious_set(src, PenaltyParams(1.0, 1.0), AscentConfig(max_steps=0, min_steps=0), cfg)
        assert np.array_equal(fict.feature_matrix(), src.pooled().feature_matrix())
        assert np.array_equal(fict.label_vector(), src.pooled().label_vector())

    def test_order_deterministic_and_run_to_run_identical(self):
        src = DomainSet((separable_blobs("A", seed=5, n_per_blob=20), separable_blobs("B", seed=6, n_per_blob=20)))
        cfg = TrainConfig(seed=4, beta=0.01, epochs=30, batch_size=32, pretrain_epochs=15)
        asc = AscentConfig(alpha=0.1, max_steps=5)
        first = generate_fictitious_set(src, PenaltyParams(1.0, 1.0), asc, cfg)
        second = generate_fictitious_set(src, PenaltyParams(1.0, 1.0), asc, cfg)
        assert first.feature_matrix().tobytes() == second.feature_matrix().tobytes()
        assert [p.objective_trace for p in first.points] == [p.objective_trace for p in second.points]
        assert [(p.origin_domain, p.origin_index) for p in first.points] == [
            (d.id, i) for d in src.domains for i in range(len(d))
        ]

    # Domain A ascends first, so a 3-input model for A fails as the origin
    # model and one for B fails as A's partner model.
    @pytest.mark.parametrize("wide", ["A", "B"], ids=["origin", "partner"])
    def test_model_dimension_mismatch_is_shape_error(self, wide):
        src = DomainSet((separable_blobs("A", seed=5, n_per_blob=5), separable_blobs("B", seed=6, n_per_blob=5)))
        models = {d: init_mlp((3 if d == wide else 2, 2, 2), 1, seed=0) for d in ("A", "B")}
        with pytest.raises(ShapeError):
            generate_fictitious_set(src, PenaltyParams(1.0, 1.0), AscentConfig(), TrainConfig(), models=models)

    def test_csv_export_columns(self, tmp_path):
        src = simulation_source(3)
        cfg = TrainConfig(seed=3, beta=0.01, epochs=30, batch_size=400, pretrain_epochs=10)
        fict = generate_fictitious_set(src, PenaltyParams(1.0, 1.0), AscentConfig(max_steps=0, min_steps=0), cfg)
        path = tmp_path / "fict.csv"
        fict.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "origin_domain,origin_index,partner_domain,y_star,x_star_0,x_star_1,final_objective"
        assert len(lines) == 401


class TestPenaltyMonotonicity:
    def test_representation_drift_non_increasing_in_gamma1(self):
        src = simulation_source(0)
        cfg = TrainConfig(seed=0, beta=0.01, epochs=100, batch_size=400, pretrain_epochs=50)
        models = pretrain_domain_models(src, cfg)
        asc = AscentConfig(alpha=1.0, max_steps=15)
        drifts = []
        for g1 in (0.1, 1.0, 10.0):
            fict = generate_fictitious_set(src, PenaltyParams(g1, 1.0), asc, cfg, models=models)
            total = 0.0
            for fp in fict.points:
                model = models[fp.origin_domain]
                origin = src.domain(fp.origin_domain).points[fp.origin_index]
                z0 = representation(model, origin.features)
                z1 = representation(model, fp.x_star)
                total += float(np.linalg.norm(z1 - z0))
            drifts.append(total / len(fict))
        assert drifts[0] >= drifts[1] >= drifts[2]

    def test_partner_loss_non_increasing_in_gamma2(self):
        src = simulation_source(0)
        cfg = TrainConfig(seed=0, beta=0.01, epochs=100, batch_size=400, pretrain_epochs=50)
        models = pretrain_domain_models(src, cfg)
        asc = AscentConfig(alpha=1.0, max_steps=15)
        losses = []
        for g2 in (0.1, 1.0, 10.0):
            fict = generate_fictitious_set(src, PenaltyParams(1.0, g2), asc, cfg, models=models)
            vals = [
                c_conc(LabeledPoint(fp.x_star, fp.y_star), models[fp.partner_domain])
                for fp in fict.points
            ]
            losses.append(float(np.mean(vals)))
        assert losses[0] >= losses[1] >= losses[2]


class TestTrainGradframe:
    def test_degenerate_equivalence_with_doubled_erm(self):
        src = simulation_source(4)
        cfg = TrainConfig(seed=4, beta=0.02, epochs=40, batch_size=64, pretrain_epochs=10)
        model, fict = train_gradframe(
            src, PenaltyParams(1.0, 10.0), AscentConfig(max_steps=0, min_steps=0), cfg
        )
        pooled = src.pooled()
        doubled = Domain("doubled", pooled.points + pooled.points)
        erm_doubled = fit_pooled(DomainSet((doubled,)), cfg)
        for wa, wb in zip(model.weights, erm_doubled.weights):
            assert wa.tobytes() == wb.tobytes()
        for ba, bb in zip(model.biases, erm_doubled.biases):
            assert ba.tobytes() == bb.tobytes()
        assert np.array_equal(fict.feature_matrix(), pooled.feature_matrix())

    def test_label_preservation_everywhere(self):
        src = simulation_source(5)
        cfg = TrainConfig(seed=5, beta=0.01, epochs=30, batch_size=400, pretrain_epochs=30)
        _, fict = train_gradframe(src, PenaltyParams(1.0, 10.0), AscentConfig(alpha=0.5, max_steps=10), cfg)
        pooled = src.pooled()
        for fp in fict.points:
            origin = src.domain(fp.origin_domain).points[fp.origin_index]
            assert fp.y_star == origin.label

    def test_determinism(self):
        src = simulation_source(6)
        cfg = TrainConfig(seed=6, beta=0.01, epochs=30, batch_size=400, pretrain_epochs=20)
        a, fa = train_gradframe(src, PenaltyParams(1.0, 1.0), AscentConfig(alpha=0.5, max_steps=5), cfg)
        b, fb = train_gradframe(src, PenaltyParams(1.0, 1.0), AscentConfig(alpha=0.5, max_steps=5), cfg)
        for wa, wb in zip(a.weights, b.weights):
            assert wa.tobytes() == wb.tobytes()
        assert np.array_equal(fa.feature_matrix(), fb.feature_matrix())

    def test_no_op_ascent_behaves_like_plain_erm(self):
        from gradframe.baselines import train_erm
        from gradframe.data import simulation_target
        from gradframe.evaluation import auroc
        from gradframe.nn import probs_batch

        src = simulation_source(7)
        tgt = simulation_target(7)
        cfg = TrainConfig(seed=7, beta=0.01, epochs=200, batch_size=64, pretrain_epochs=10)
        model, _ = train_gradframe(
            src, PenaltyParams(1.0, 10.0), AscentConfig(max_steps=0, min_steps=0), cfg
        )
        erm = train_erm(src, cfg)
        y = tgt.label_vector()
        score_aug = auroc(probs_batch(model, tgt.feature_matrix()), y)
        score_erm = auroc(probs_batch(erm, tgt.feature_matrix()), y)
        assert abs(score_aug - score_erm) <= 0.02


# ---------------------------------------------------------------------------
# Oracle: the one-point-at-a-time ascent loop that the batched kernel in
# gradframe.core replaced.  The body is unchanged; only the names, the type
# annotations and the inlined 1e-12 relative-improvement floor differ.


def _scalar_objective(x, y, z_anchor, model_i, model_j, gammas):
    value = bce_loss(model_i, x, y)
    if gammas.gamma1 != 0.0:
        z = representation(model_i, x)
        value -= gammas.gamma1 * float(0.5 * np.sum((z - z_anchor) ** 2))
    if gammas.gamma2 != 0.0:
        value -= gammas.gamma2 * bce_loss(model_j, x, y)
    return value


def _scalar_inner_maximize(
    origin, model_i, model_j, gammas, cfg, origin_domain="", origin_index=0, partner_domain=""
):
    if origin.features.shape[0] != model_i.input_dim:
        raise ShapeError(
            f"origin has dimension {origin.features.shape[0]}, model expects {model_i.input_dim}"
        )
    x = origin.features.copy()
    y = origin.label
    z_anchor = representation(model_i, origin.features)
    trace = [_scalar_objective(x, y, z_anchor, model_i, model_j, gammas)]
    aborted = False
    for step_no in range(1, cfg.max_steps + 1):
        g = grad_input(
            model_i,
            x,
            y,
            anchor=(z_anchor, gammas.gamma1),
            concept=(model_j, gammas.gamma2),
        )
        step = cfg.alpha
        accepted = False
        for _ in range(4):  # initial step plus up to three halvings
            candidate = x + step * g
            if not np.all(np.isfinite(candidate)):
                aborted = True
                break
            value = _scalar_objective(candidate, y, z_anchor, model_i, model_j, gammas)
            if not math.isfinite(value):
                aborted = True
                break
            if value >= trace[-1]:
                x = candidate
                trace.append(value)
                accepted = True
                break
            step *= 0.5
        if aborted or not accepted:
            break
        if step_no >= cfg.min_steps:
            prev = trace[-2]
            rel = (trace[-1] - prev) / max(abs(prev), 1e-12)
            if rel < cfg.rel_tolerance:
                break
    return FictitiousPoint(
        origin_domain=origin_domain,
        origin_index=origin_index,
        x_star=x,
        y_star=y,
        objective_trace=tuple(trace),
        partner_domain=partner_domain,
        aborted=aborted,
    )


def _scalar_generate(ds, models, gammas, asc, seed):
    ids = [d.id for d in ds.domains]
    points = []
    for dom in ds.domains:
        others = [i for i in ids if i != dom.id]
        offset = int(rng_for(seed, "partner", dom.id).integers(len(others)))
        for idx, point in enumerate(dom.points):
            partner = others[(offset + idx) % len(others)]
            points.append(
                _scalar_inner_maximize(
                    point, models[dom.id], models[partner], gammas, asc, dom.id, idx, partner
                )
            )
    return points


def _compare_with_oracle(ds, models, gammas, asc, seed):
    """Assert identical provenance and stop decisions, and return (max |dx*|, max |dtrace|)."""
    with np.errstate(over="ignore", invalid="ignore"):
        got = generate_fictitious_set(ds, gammas, asc, TrainConfig(seed=seed), models=models).points
        want = _scalar_generate(ds, models, gammas, asc, seed)
    assert len(got) == len(want)
    dx = dt = 0.0
    for a, b in zip(got, want):
        assert (a.origin_domain, a.origin_index, a.partner_domain, a.y_star, a.aborted) == (
            b.origin_domain,
            b.origin_index,
            b.partner_domain,
            b.y_star,
            b.aborted,
        )
        assert len(a.objective_trace) == len(b.objective_trace)
        dx = max(dx, float(np.max(np.abs(a.x_star - b.x_star))))
        dt = max(dt, float(np.max(np.abs(np.subtract(a.objective_trace, b.objective_trace)))))
    assert dx <= 1e-12
    assert dt <= 1e-12
    return got


class TestBatchedAscentOracle:
    @pytest.fixture(scope="class")
    def sim(self):
        src = simulation_source(0)
        cfg = TrainConfig(seed=0, **SIM_TRAIN)
        return src, pretrain_domain_models(src, cfg)

    def test_canonical_simulation_defaults(self, sim):
        src, models = sim
        got = _compare_with_oracle(src, models, PenaltyParams(1.0, 10.0), AscentConfig(**SIM_ASCENT), 0)
        assert max(len(p.objective_trace) for p in got) > 2

    def test_three_domains_split_over_two_partners(self):
        src = DomainSet(
            tuple(separable_blobs(d, seed=s, n_per_blob=15) for d, s in (("A", 1), ("B", 2), ("C", 3)))
        )
        cfg = TrainConfig(seed=2, beta=0.01, epochs=30, batch_size=32, pretrain_epochs=15)
        models = pretrain_domain_models(src, cfg)
        got = _compare_with_oracle(src, models, PenaltyParams(1.0, 1.0), AscentConfig(alpha=0.5), 2)
        for dom in src.domains:
            partners = {p.partner_domain for p in got if p.origin_domain == dom.id}
            assert len(partners) == 2

    @pytest.mark.parametrize("gammas", [PenaltyParams(0.0, 10.0), PenaltyParams(1.0, 0.0)])
    def test_zero_penalty_terms(self, sim, gammas):
        src, models = sim
        _compare_with_oracle(src, models, gammas, AscentConfig(**SIM_ASCENT), 0)

    def test_zero_steps(self, sim):
        src, models = sim
        got = _compare_with_oracle(
            src, models, PenaltyParams(1.0, 10.0), AscentConfig(max_steps=0, min_steps=0), 0
        )
        assert all(len(p.objective_trace) == 1 for p in got)

    def test_some_rows_abort_others_do_not(self):
        # Under identity_rep_model a point with negative coordinates has a zero
        # input gradient and stays put; a positive one is thrown past the
        # float range by alpha = 1e308 and aborts.
        def domain(domain_id, rows):
            return Domain(domain_id, tuple(LabeledPoint(np.array(x), y) for x, y in rows))

        src = DomainSet(
            (
                domain("A", [([-1.0, -0.5], 0), ([0.5, 0.25], 0), ([-0.3, -2.0], 1), ([1.0, 0.4], 1)]),
                domain("B", [([-0.2, -0.1], 1), ([-1.5, -0.7], 0)]),
            )
        )
        models = {"A": identity_rep_model(), "B": zero_model((2, 2, 2))}
        got = _compare_with_oracle(
            src, models, PenaltyParams(1.0, 1.0), AscentConfig(alpha=1e308, max_steps=5, min_steps=0), 0
        )
        assert [p.aborted for p in got] == [False, True, False, True, False, False]
