from __future__ import annotations

import math
import warnings
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_model, one_row_bce, one_row_rep, separable_blobs, zero_model

import gradframe.core as core
from gradframe.core import (
    AscentConfig,
    FictitiousSet,
    PenaltyParams,
    _Stack,
    _ascend,
    _pretrain,
    _stack_grad,
    _stack_objective,
    _ascend_runs,
    fictitious_sets,
    train_gradframe,
)
from gradframe.config import SIM_ASCENT, SIM_TRAIN
from gradframe.data import Domain, DomainSet, simulation_source, standardize
from gradframe.errors import ConfigError, ShapeError
from gradframe.evaluation import lodo_cv_search
from gradframe.nn import _bce, _forward, check_input, init_mlp, probs_batch, representations_batch
from gradframe.rng import derive_seed, rng_for
from gradframe.training import TrainConfig, fit_stack


def identity_rep_model():
    # identity first layer: z equals relu(x)
    return build_model(
        weights=[np.eye(2), np.array([[0.8, -0.3], [-0.2, 0.5]])],
        biases=[np.zeros(2), np.zeros(2)],
    )


def _one_row(features, label):
    return np.asarray(features, dtype=np.float64)[None, :], np.array([float(label)])


def _objective(star, origin, label, model_i, model_j, gammas):
    """``objective_rows`` for one row, anchored at the origin's representation."""
    x, y = _one_row(star, label)
    anchor = representations_batch(model_i, np.asarray(origin, dtype=np.float64)[None, :])
    return float(objective_rows(x, y, anchor, model_i, model_j, gammas)[0])


def _penalty(star, origin, label, model_i, model_j, gammas):
    """The weighted penalty terms of one row: the objective without them minus with them."""
    return _objective(star, origin, label, model_i, model_j, PenaltyParams(0.0, 0.0)) - _objective(
        star, origin, label, model_i, model_j, gammas
    )


def c_cov(star, origin, label, model_i):
    """Half the squared distance between the two representations, as the gamma1 = 1 term."""
    return _penalty(star, origin, label, model_i, model_i, PenaltyParams(1.0, 0.0))


def c_conc(star, label, model_j):
    """The partner model's loss at the row, as the gamma2 = 1 term."""
    return _penalty(star, star, label, model_j, model_j, PenaltyParams(0.0, 1.0))


class TestConstraints:
    def test_c_cov_zero_at_identity(self):
        m = identity_rep_model()
        p = np.array([1.0, 0.5])
        assert c_cov(p, p, 1, m) == 0.0

    def test_c_cov_hand_value(self):
        m = identity_rep_model()
        star = np.array([0.0, 1.0])  # z* = (0, 1)
        origin = np.array([1.0, 0.0])  # z = (1, 0)
        assert abs(c_cov(star, origin, 0, m) - 1.0) < 1e-12

    def test_c_conc_equals_partner_loss(self):
        m = zero_model((2, 2, 2))
        p = np.array([0.3, -0.4])
        assert abs(c_conc(p, 1, m) - math.log(2.0)) < 1e-12

    def test_c_conc_saturated_toward_label(self):
        m = build_model(
            weights=[np.eye(2), np.array([[-8.0, 8.0], [-8.0, 8.0]])],
            biases=[np.zeros(2), np.zeros(2)],
        )
        p = np.array([2.0, 2.0])
        assert c_conc(p, 1, m) < 1e-6

    def test_c_conc_hand_value(self):
        m = identity_rep_model()
        p = np.array([0.7, 0.2])
        assert abs(c_conc(p, 0, m) - one_row_bce(m, p, 0)) < 1e-12


class TestSurrogate:
    def test_identity_point_drops_covariate_term(self):
        mi = identity_rep_model()
        mj = zero_model((2, 2, 2))
        p = np.array([0.5, -0.5])
        gammas = PenaltyParams(2.0, 3.0)
        expected = one_row_bce(mi, p, 1) - 3.0 * one_row_bce(mj, p, 1)
        assert abs(_objective(p, p, 1, mi, mj, gammas) - expected) < 1e-12

    def test_zero_penalties_reduce_to_adversarial(self):
        mi = identity_rep_model()
        mj = zero_model((2, 2, 2))
        star = np.array([1.0, 1.0])
        origin = np.array([0.5, 0.5])
        v = _objective(star, origin, 0, mi, mj, PenaltyParams(0.0, 0.0))
        assert abs(v - one_row_bce(mi, star, 0)) < 1e-12

    def test_term_wise_recomposition(self):
        mi = identity_rep_model()
        mj = build_model(
            weights=[np.array([[0.2, -0.6], [0.4, 0.1]]), np.array([[0.9, 0.3], [-0.2, 0.7]])],
            biases=[np.array([0.1, -0.1]), np.zeros(2)],
        )
        star = np.array([0.4, 0.9])
        origin = np.array([-0.2, 0.6])
        gammas = PenaltyParams(1.7, 0.4)
        expected = (
            one_row_bce(mi, star, 1)
            - 1.7 * c_cov(star, origin, 1, mi)
            - 0.4 * c_conc(star, 1, mj)
        )
        assert abs(_objective(star, origin, 1, mi, mj, gammas) - expected) < 1e-12


def _ascend_one(features, label, model_i, model_j, gammas, cfg):
    """``_ascend`` on one row: its final iterate, its objective trace and its abort flag."""
    [(x, trace, length, aborted)] = _ascend([(*_one_row(features, label), model_i, model_j, gammas)], cfg)
    return x[0], trace[0, : length[0]], bool(aborted[0])


class TestInnerMaximize:
    def test_zero_steps_is_identity(self):
        mi = identity_rep_model()
        mj = zero_model((2, 2, 2))
        origin = np.array([0.5, -0.25])
        x_star, trace, _ = _ascend_one(
            origin, 0, mi, mj, PenaltyParams(1.0, 1.0), AscentConfig(max_steps=0, min_steps=0)
        )
        assert np.array_equal(x_star, origin)
        assert len(trace) == 1

    def test_single_step_identity_with_zero_penalties(self):
        mi = identity_rep_model()
        mj = zero_model((2, 2, 2))
        origin = np.array([0.5, 0.25])
        alpha = 1e-3
        cfg = AscentConfig(alpha=alpha, max_steps=1, min_steps=0, rel_tolerance=0.0)
        x_star, _, _ = _ascend_one(origin, 0, mi, mj, PenaltyParams(0.0, 0.0), cfg)
        anchor = representations_batch(mi, origin[None, :])
        g = objective_grad(*_one_row(origin, 0), anchor, mi, mj, PenaltyParams(0.0, 0.0))[0]
        assert np.allclose(x_star, origin + alpha * g, atol=1e-15)

    def test_trace_monotone_and_label_preserved(self):
        src = simulation_source(0)
        cfg = TrainConfig(seed=0, beta=0.01, epochs=100, batch_size=400, pretrain_epochs=50)
        models = _pretrain([(src, cfg)])[0]
        asc = AscentConfig(alpha=0.05, max_steps=15)
        gammas = PenaltyParams(1.0, 10.0)
        checked = 0
        for dom, partner in (("S1", "S2"), ("S2", "S1")):
            origin = src.domain(dom)
            for features, label in zip(origin.x[:50], origin.y[:50]):
                _, trace, _ = _ascend_one(features, label, models[dom], models[partner], gammas, asc)
                diffs = np.diff(trace)
                assert np.all(diffs >= -1e-9)
                assert len(trace) <= asc.max_steps + 1
                checked += 1
        assert checked == 100

    def test_non_finite_objective_aborts_with_flag(self):
        mi = identity_rep_model()
        mj = zero_model((2, 2, 2))
        origin = np.array([0.5, 0.25])
        cfg = AscentConfig(alpha=1e308, max_steps=5, min_steps=0)
        with np.errstate(over="ignore"):
            x_star, _, aborted = _ascend_one(origin, 0, mi, mj, PenaltyParams(1.0, 0.0), cfg)
        assert aborted
        assert np.all(np.isfinite(x_star))

    def test_overflowing_ascent_aborts_its_rows_without_a_warning(self):
        """At gamma2 = 1e308 every first candidate overflows: each row stops at its
        start, flagged, and numpy's overflow and invalid-value warnings stay off."""
        dom = simulation_source(0).domain("S1")
        mi, mj = init_mlp([2, 2, 2], 1, seed=1), init_mlp([2, 2, 2], 1, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [(x, _, length, aborted)] = _ascend(
                [(dom.x[:40], dom.y[:40], mi, mj, PenaltyParams(1.0, 1e308))], AscentConfig(**SIM_ASCENT)
            )
        assert aborted.all()
        assert np.array_equal(x, dom.x[:40])
        assert (length == 1).all()

    def test_first_candidates_that_all_overflow_leave_no_row_to_evaluate(self):
        """At alpha = 1e308 every first candidate of two members overflows to inf, so no
        row is held and the objective gets zero rows: each row stops at its start,
        flagged, with a trace of length 1 and no warning."""
        mi = identity_rep_model()
        x = np.random.default_rng(0).uniform(0.5, 2.0, size=(9, 2))
        members = [
            (x[:5], np.ones(5), mi, mi, PenaltyParams(0.0, 10.0)),
            (x[5:], np.ones(4), mi, mi, PenaltyParams(1.0, 5.0)),
        ]
        with warnings.catch_warnings(), mock.patch.object(
            core, "_stack_objective", wraps=core._stack_objective
        ) as objective:
            warnings.simplefilter("error")
            got = _ascend(members, AscentConfig(alpha=1e308, max_steps=5, min_steps=0))
        assert sum(len(call.args[0]) for call in objective.call_args_list[1:]) == 0
        for (x_star, trace, length, aborted), (x0, *_) in zip(got, members):
            assert aborted.all()
            assert np.array_equal(x_star, x0)
            assert (length == 1).all()
            assert np.isfinite(trace[:, 0]).all() and np.isnan(trace[:, 1:]).all()

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AscentConfig(alpha=0.0)
        with pytest.raises(ConfigError):
            AscentConfig(max_steps=1, min_steps=2)
        with pytest.raises(ConfigError):
            PenaltyParams(-1.0, 0.0)

    @pytest.mark.parametrize(
        "field, value",
        [("alpha", math.inf), ("alpha", math.nan), ("rel_tolerance", math.nan), ("rel_tolerance", math.inf)],
    )
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(ConfigError, match=field):
            AscentConfig(**{field: value})


class TestPretrain:
    def _two_domain_set(self):
        return DomainSet((separable_blobs("A", seed=1), separable_blobs("B", seed=2)))

    def test_separable_domains_reach_high_accuracy(self):
        ds = self._two_domain_set()
        cfg = TrainConfig(seed=0, beta=0.01, epochs=100, batch_size=32, pretrain_epochs=80)
        models = _pretrain([(ds, cfg)])[0]
        for dom in ds.domains:
            p = probs_batch(models[dom.id], dom.x)
            acc = np.mean((p > 0.5) == (dom.y == 1))
            assert acc >= 0.99

    def test_determinism(self):
        ds = self._two_domain_set()
        cfg = TrainConfig(seed=3, beta=0.01, epochs=50, batch_size=32, pretrain_epochs=20)
        a = _pretrain([(ds, cfg)])[0]
        b = _pretrain([(ds, cfg)])[0]
        for key in a:
            for wa, wb in zip(a[key].weights, b[key].weights):
                assert wa.tobytes() == wb.tobytes()

    @pytest.mark.parametrize("sizes", [(40, 40, 40), (40, 25, 40)], ids=["equal", "unequal"])
    def test_matches_per_domain_fits(self, sizes):
        ds = DomainSet(
            tuple(separable_blobs(name, i, n // 2) for i, (name, n) in enumerate(zip("ABC", sizes)))
        )
        cfg = TrainConfig(seed=5, beta=0.05, epochs=9, batch_size=16, pretrain_epochs=12)
        models = _pretrain([(ds, cfg)])[0]
        assert list(models) == ["A", "B", "C"]
        for dom in ds.domains:
            seed = derive_seed(5, "pretrain", dom.id)
            cfg = TrainConfig(seed=seed, beta=0.05, epochs=12, batch_size=16)
            alone = fit_stack([(dom.x, dom.y, cfg, None)])[0]
            assert models[dom.id].params.tobytes() == alone.params.tobytes()

    def test_single_domain_rejected(self):
        ds = DomainSet((separable_blobs("only", seed=1),))
        cfg = TrainConfig(seed=0)
        with pytest.raises(ConfigError):
            _pretrain([(ds, cfg)])

    @pytest.mark.parametrize("entry", [fictitious_sets, train_gradframe])
    def test_single_domain_rejected_before_any_fit(self, monkeypatch, entry):
        """The public paths reach ``_pretrain``'s two-domain rule before any descent."""
        import gradframe.training as training

        calls = []
        monkeypatch.setattr(training, "descend", lambda *args: calls.append(args))
        ds = DomainSet((separable_blobs("only", seed=1),))
        with pytest.raises(ConfigError, match="need at least 2 domains"):
            entry([(ds, PenaltyParams(1.0, 1.0), TrainConfig(seed=0))], AscentConfig())
        assert calls == []


def _traces(fict):
    """Each row's objective trace without the padding."""
    return [tuple(t[:n].tolist()) for t, n in zip(fict.objective_trace, fict.trace_length)]


class TestFictitiousSet:
    def test_simulation_partner_assignment(self):
        src = simulation_source(1)
        cfg = TrainConfig(seed=1, beta=0.01, epochs=50, batch_size=400, pretrain_epochs=20)
        fict = fictitious_sets([(src, PenaltyParams(1.0, 10.0), cfg)], AscentConfig(max_steps=0, min_steps=0))[0]
        assert len(fict) == 400
        for origin, partner in zip(fict.origin_domain, fict.partner_domain):
            assert partner == ("S2" if origin == "S1" else "S1")

    def test_zero_steps_reproduces_inputs(self):
        src = simulation_source(2)
        cfg = TrainConfig(seed=2, beta=0.01, epochs=50, batch_size=400, pretrain_epochs=20)
        fict = fictitious_sets([(src, PenaltyParams(1.0, 1.0), cfg)], AscentConfig(max_steps=0, min_steps=0))[0]
        assert np.array_equal(fict.x_star, src.pooled().x)
        assert np.array_equal(fict.y_star, src.pooled().y)

    def test_order_deterministic_and_run_to_run_identical(self):
        src = DomainSet((separable_blobs("A", seed=5, n_per_blob=20), separable_blobs("B", seed=6, n_per_blob=20)))
        cfg = TrainConfig(seed=4, beta=0.01, epochs=30, batch_size=32, pretrain_epochs=15)
        asc = AscentConfig(alpha=0.1, max_steps=5)
        first = fictitious_sets([(src, PenaltyParams(1.0, 1.0), cfg)], asc)[0]
        second = fictitious_sets([(src, PenaltyParams(1.0, 1.0), cfg)], asc)[0]
        assert first.x_star.tobytes() == second.x_star.tobytes()
        assert _traces(first) == _traces(second)
        assert list(zip(first.origin_domain.tolist(), first.origin_index.tolist())) == [
            (d.id, i) for d in src.domains for i in range(len(d))
        ]

    # Domain A ascends first, so a 3-input model for A fails as the origin
    # model and one for B fails as A's partner model.
    @pytest.mark.parametrize("wide", ["A", "B"], ids=["origin", "partner"])
    def test_model_dimension_mismatch_is_shape_error(self, wide):
        src = DomainSet((separable_blobs("A", seed=5, n_per_blob=5), separable_blobs("B", seed=6, n_per_blob=5)))
        models = {d: init_mlp((3 if d == wide else 2, 2, 2), 1, seed=0) for d in ("A", "B")}
        with pytest.raises(ShapeError):
            _ascend_runs([(src, PenaltyParams(1.0, 1.0), TrainConfig(), models)], AscentConfig())

    def test_csv_export_columns(self, tmp_path):
        src = simulation_source(3)
        cfg = TrainConfig(seed=3, beta=0.01, epochs=30, batch_size=400, pretrain_epochs=10)
        fict = fictitious_sets([(src, PenaltyParams(1.0, 1.0), cfg)], AscentConfig(max_steps=0, min_steps=0))[0]
        path = tmp_path / "fict.csv"
        fict.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "origin_domain,origin_index,partner_domain,y_star,x_star_0,x_star_1,final_objective"
        assert len(lines) == 401


class TestPenaltyMonotonicity:
    def test_representation_drift_non_increasing_in_gamma1(self):
        src = simulation_source(0)
        cfg = TrainConfig(seed=0, beta=0.01, epochs=100, batch_size=400, pretrain_epochs=50)
        models = _pretrain([(src, cfg)])[0]
        runs = [(src, PenaltyParams(g1, 1.0), cfg) for g1 in (0.1, 1.0, 10.0)]
        drifts = []
        for fict in fictitious_sets(runs, AscentConfig(alpha=1.0, max_steps=15)):
            total = 0.0
            for origin_domain, origin_index, x_star in zip(
                fict.origin_domain, fict.origin_index, fict.x_star
            ):
                model = models[origin_domain]
                z0 = one_row_rep(model, src.domain(origin_domain).x[origin_index])
                z1 = one_row_rep(model, x_star)
                total += float(np.linalg.norm(z1 - z0))
            drifts.append(total / len(fict))
        assert drifts[0] >= drifts[1] >= drifts[2]

    def test_partner_loss_non_increasing_in_gamma2(self):
        src = simulation_source(0)
        cfg = TrainConfig(seed=0, beta=0.01, epochs=100, batch_size=400, pretrain_epochs=50)
        models = _pretrain([(src, cfg)])[0]
        runs = [(src, PenaltyParams(1.0, g2), cfg) for g2 in (0.1, 1.0, 10.0)]
        losses = []
        for fict in fictitious_sets(runs, AscentConfig(alpha=1.0, max_steps=15)):
            vals = [
                c_conc(x_star, y_star, models[partner])
                for x_star, y_star, partner in zip(fict.x_star, fict.y_star, fict.partner_domain)
            ]
            losses.append(float(np.mean(vals)))
        assert losses[0] >= losses[1] >= losses[2]


def _assert_same_sets(got: FictitiousSet, want: FictitiousSet) -> None:
    for field in fields(FictitiousSet):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestFictitiousSetsSharing:
    """Runs that pass one ``DomainSet`` object under equal configs pretrain once."""

    CFG = TrainConfig(seed=1, beta=0.05, epochs=9, batch_size=16, pretrain_epochs=12)
    ASC = AscentConfig(alpha=0.3, max_steps=4)

    @staticmethod
    def _source():
        return DomainSet(tuple(separable_blobs(d, seed, 20) for seed, d in enumerate("ABC")))

    def _plan(self, descents, runs):
        """``fictitious_sets(runs)`` and the fit count of each descent it made."""
        ficts = fictitious_sets(runs, self.ASC)
        return ficts, [len(seeds) for seeds in descents]

    def test_one_source_and_config_share_one_pretraining(self, descents):
        src = self._source()
        runs = [(src, PenaltyParams(g1, 1.0), self.CFG) for g1 in (0.1, 10.0)]
        ficts, stacks = self._plan(descents, runs)
        assert stacks == [src.k]
        for run, fict in zip(runs, ficts):
            _assert_same_sets(fict, fictitious_sets([run], self.ASC)[0])
        assert ficts[0].x_star.tobytes() != ficts[1].x_star.tobytes()

    @pytest.mark.parametrize("second", ["equal-copy", "other-seed"])
    def test_distinct_source_or_config_pretrain_apart(self, descents, second):
        src = self._source()
        if second == "equal-copy":
            other, cfg = self._source(), self.CFG
            assert other is not src
            assert all(np.array_equal(a.x, b.x) for a, b in zip(src.domains, other.domains))
        else:
            other, cfg = src, replace(self.CFG, seed=2)
        runs = [(src, PenaltyParams(0.1, 1.0), self.CFG), (other, PenaltyParams(10.0, 1.0), cfg)]
        ficts, stacks = self._plan(descents, runs)
        assert stacks == [2 * src.k]
        for run, fict in zip(runs, ficts):
            _assert_same_sets(fict, fictitious_sets([run], self.ASC)[0])


SHARING_CFG = TrainConfig(seed=1, beta=0.05, epochs=3, batch_size=8, pretrain_epochs=6)
SHARING_ASC = AscentConfig(alpha=0.3, max_steps=3)


@st.composite
def sharing_plans(draw):
    """1-4 runs over 1-2 source objects, each of 2-3 domains of 6-16 rows, some
    standardized; drawn penalties, and configs that are equal or differ in seed.
    Two sources of the same sizes and scaling are equal copies."""
    sources = []
    for _ in range(draw(st.integers(1, 2))):
        sizes = draw(st.lists(st.integers(3, 8), min_size=2, max_size=3))
        ds = DomainSet(tuple(separable_blobs("ABC"[i], i, n) for i, n in enumerate(sizes)))
        sources.append(standardize(ds) if draw(st.booleans()) else ds)
    gamma = st.sampled_from([0.0, 0.1, 1.0, 10.0])
    return [
        (
            draw(st.sampled_from(sources)),
            PenaltyParams(draw(gamma), draw(gamma)),
            replace(SHARING_CFG, seed=draw(st.integers(1, 2))),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]


@settings(max_examples=40, deadline=None)
@given(runs=sharing_plans())
def test_drawn_plans_pretrain_once_per_source_object_and_config(runs):
    """Pretraining trains K fits per distinct (source object, config) pair, and every
    set is the one its run gives when planned alone."""
    import gradframe.training as training

    with mock.patch.object(training, "descend", wraps=training.descend) as descend:
        ficts = fictitious_sets(runs, SHARING_ASC)
    distinct = {(id(ds), cfg): ds.k for ds, _, cfg in runs}
    assert sum(len(call.args[0]) for call in descend.call_args_list) == sum(distinct.values())
    for run, fict in zip(runs, ficts):
        _assert_same_sets(fict, fictitious_sets([run], SHARING_ASC)[0])


class TestTrainGradframe:
    def test_degenerate_equivalence_with_doubled_erm(self):
        src = simulation_source(4)
        cfg = TrainConfig(seed=4, beta=0.02, epochs=40, batch_size=64, pretrain_epochs=10)
        [(model, fict)] = train_gradframe(
            [(src, PenaltyParams(1.0, 10.0), cfg)], AscentConfig(max_steps=0, min_steps=0)
        )
        pooled = src.pooled()
        doubled = Domain("doubled", np.vstack([pooled.x] * 2), np.tile(pooled.y, 2))
        erm_doubled = fit_stack([(doubled.x, doubled.y, cfg, None)])[0]
        for wa, wb in zip(model.weights, erm_doubled.weights):
            assert wa.tobytes() == wb.tobytes()
        for ba, bb in zip(model.biases, erm_doubled.biases):
            assert ba.tobytes() == bb.tobytes()
        assert np.array_equal(fict.x_star, pooled.x)

    def test_label_preservation_everywhere(self):
        src = simulation_source(5)
        cfg = TrainConfig(seed=5, beta=0.01, epochs=30, batch_size=400, pretrain_epochs=30)
        asc = AscentConfig(alpha=0.5, max_steps=10)
        [(_, fict)] = train_gradframe([(src, PenaltyParams(1.0, 10.0), cfg)], asc)
        pooled = src.pooled()
        for origin_domain, origin_index, y_star in zip(
            fict.origin_domain, fict.origin_index, fict.y_star
        ):
            assert y_star == src.domain(origin_domain).y[origin_index]

    def test_determinism(self):
        src = simulation_source(6)
        cfg = TrainConfig(seed=6, beta=0.01, epochs=30, batch_size=400, pretrain_epochs=20)
        run, asc = (src, PenaltyParams(1.0, 1.0), cfg), AscentConfig(alpha=0.5, max_steps=5)
        [(a, fa)] = train_gradframe([run], asc)
        [(b, fb)] = train_gradframe([run], asc)
        for wa, wb in zip(a.weights, b.weights):
            assert wa.tobytes() == wb.tobytes()
        assert np.array_equal(fa.x_star, fb.x_star)

    def test_plan_matches_each_run_trained_alone(self, descents):
        """One call over runs of two and three domains, of unequal sizes, penalties and
        seeds: the domain models are two descents (40- and 26-row domains), the final
        fits two (160- and 212-row unions), and every run's model and fictitious set
        are those of the pipeline by hand, run by run."""
        two = DomainSet((separable_blobs("A", 1, 20), separable_blobs("B", 2, 20)))
        three = DomainSet(
            (separable_blobs("A", 3, 20), separable_blobs("B", 4, 13), separable_blobs("C", 5, 20))
        )
        base = TrainConfig(beta=0.05, epochs=9, batch_size=16, pretrain_epochs=12)
        asc = AscentConfig(alpha=0.3, max_steps=4)
        runs = [
            (two, PenaltyParams(1.0, 10.0), replace(base, seed=1)),
            (three, PenaltyParams(0.1, 0.5), replace(base, seed=2)),
            (two, PenaltyParams(0.0, 1.0), replace(base, seed=3)),
        ]
        results = train_gradframe(runs, asc)
        assert [len(seeds) for seeds in descents] == [6, 1, 2, 1]
        assert len(results) == len(runs)
        for (ds, gammas, cfg), (model, fict) in zip(runs, results):
            ref_fict = fictitious_sets([(ds, gammas, cfg)], asc)[0]
            pooled = ds.pooled()
            x = np.vstack([pooled.x, ref_fict.x_star])
            y = np.concatenate([pooled.y, ref_fict.y_star])
            assert model.params.tobytes() == fit_stack([(x, y, cfg, None)])[0].params.tobytes()
            _assert_same_sets(fict, ref_fict)

    def test_no_op_ascent_behaves_like_plain_erm(self):
        from gradframe.training import train_erm
        from gradframe.data import simulation_target
        from gradframe.evaluation import auroc
        from gradframe.nn import probs_batch

        src = simulation_source(7)
        tgt = simulation_target(7)
        cfg = TrainConfig(seed=7, beta=0.01, epochs=200, batch_size=64, pretrain_epochs=10)
        [(model, _)] = train_gradframe(
            [(src, PenaltyParams(1.0, 10.0), cfg)], AscentConfig(max_steps=0, min_steps=0)
        )
        erm = train_erm(src, cfg)
        y = tgt.y
        score_aug = auroc(probs_batch(model, tgt.x), y)
        score_erm = auroc(probs_batch(erm, tgt.x), y)
        assert abs(score_aug - score_erm) <= 0.02


# ---------------------------------------------------------------------------
# Oracle: the one-point-at-a-time ascent loop that the batched kernel in
# gradframe.core replaced.  The body is unchanged; only the names, the type
# annotations, the inlined 1e-12 relative-improvement floor, the return
# value (a tuple per point) and the gradient's entry point (``objective_grad``,
# once ``nn.grad_input_batch``) differ.


def _scalar_objective(x, y, z_anchor, model_i, model_j, gammas):
    value = one_row_bce(model_i, x, y)
    if gammas.gamma1 != 0.0:
        z = one_row_rep(model_i, x)
        value -= gammas.gamma1 * float(0.5 * np.sum((z - z_anchor) ** 2))
    if gammas.gamma2 != 0.0:
        value -= gammas.gamma2 * one_row_bce(model_j, x, y)
    return value


def _scalar_inner_maximize(
    features, label, model_i, model_j, gammas, cfg, origin_domain="", origin_index=0, partner_domain=""
):
    if features.shape[0] != model_i.input_dim:
        raise ShapeError(
            f"origin has dimension {features.shape[0]}, model expects {model_i.input_dim}"
        )
    x = features.copy()
    y = label
    z_anchor = one_row_rep(model_i, features)
    trace = [_scalar_objective(x, y, z_anchor, model_i, model_j, gammas)]
    aborted = False
    for step_no in range(1, cfg.max_steps + 1):
        g = objective_grad(*_one_row(x, y), z_anchor[None, :], model_i, model_j, gammas)[0]
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
    return (origin_domain, origin_index, partner_domain, y, aborted), x, tuple(trace)


def _scalar_generate(ds, models, gammas, asc, seed):
    ids = [d.id for d in ds.domains]
    points = []
    for dom in ds.domains:
        others = [i for i in ids if i != dom.id]
        offset = int(rng_for(seed, "partner", dom.id).integers(len(others)))
        for idx, (features, label) in enumerate(zip(dom.x, dom.y)):
            partner = others[(offset + idx) % len(others)]
            points.append(
                _scalar_inner_maximize(
                    features, label, models[dom.id], models[partner], gammas, asc, dom.id, idx, partner
                )
            )
    return points


def _compare_with_oracle(ds, models, gammas, asc, seed):
    """Assert identical provenance and stop decisions, and return (max |dx*|, max |dtrace|)."""
    with np.errstate(over="ignore", invalid="ignore"):
        got = _ascend_runs([(ds, gammas, TrainConfig(seed=seed), models)], asc)[0]
        want = _scalar_generate(ds, models, gammas, asc, seed)
    assert len(got) == len(want)
    dx = dt = 0.0
    rows = zip(
        got.origin_domain.tolist(),
        got.origin_index.tolist(),
        got.partner_domain.tolist(),
        got.y_star.tolist(),
        got.aborted.tolist(),
        got.x_star,
        _traces(got),
    )
    for (*provenance, x_star, trace), (want_provenance, want_x, want_trace) in zip(rows, want):
        assert tuple(provenance) == want_provenance
        assert len(trace) == len(want_trace)
        dx = max(dx, float(np.max(np.abs(x_star - want_x))))
        dt = max(dt, float(np.max(np.abs(np.subtract(trace, want_trace)))))
    assert dx <= 1e-12
    assert dt <= 1e-12
    return got


class TestBatchedAscentOracle:
    @pytest.fixture(scope="class")
    def sim(self):
        src = simulation_source(0)
        cfg = TrainConfig(seed=0, **SIM_TRAIN)
        return src, _pretrain([(src, cfg)])[0]

    def test_canonical_simulation_defaults(self, sim):
        src, models = sim
        got = _compare_with_oracle(src, models, PenaltyParams(1.0, 10.0), AscentConfig(**SIM_ASCENT), 0)
        assert got.trace_length.max() > 2

    def test_three_domains_split_over_two_partners(self):
        src = DomainSet(
            tuple(separable_blobs(d, seed=s, n_per_blob=15) for d, s in (("A", 1), ("B", 2), ("C", 3)))
        )
        cfg = TrainConfig(seed=2, beta=0.01, epochs=30, batch_size=32, pretrain_epochs=15)
        models = _pretrain([(src, cfg)])[0]
        got = _compare_with_oracle(src, models, PenaltyParams(1.0, 1.0), AscentConfig(alpha=0.5), 2)
        for dom in src.domains:
            partners = set(got.partner_domain[got.origin_domain == dom.id].tolist())
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
        assert all(got.trace_length == 1)

    def test_some_rows_abort_others_do_not(self):
        # Under identity_rep_model a point with negative coordinates has a zero
        # input gradient and stays put; a positive one is thrown past the
        # float range by alpha = 1e308 and aborts.
        def domain(domain_id, rows):
            return Domain(domain_id, [x for x, _ in rows], [y for _, y in rows])

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
        assert got.aborted.tolist() == [False, True, False, True, False, False]


# The objective and its gradient on one model pair: a stack of one.


def _one_pair(x, model_i, model_j, gammas) -> tuple:
    """The kernels' stack arguments for the rows ``x``, all of one member."""
    penalty = np.array([[gammas.gamma1, gammas.gamma2]])
    return _Stack.of([model_i]), _Stack.of([model_j]), penalty, np.zeros(x.shape[0], dtype=np.intp)


def objective_rows(x, y, z_anchor, model_i, model_j, gammas) -> np.ndarray:
    """``core._stack_objective`` of the rows ``x`` against one model pair."""
    return _stack_objective(x, y, z_anchor, *_one_pair(x, model_i, model_j, gammas))


def objective_grad(x, y, z_anchor, model_i, model_j, gammas) -> np.ndarray:
    """``core._stack_grad`` of the rows ``x`` against one model pair."""
    return _stack_grad(x, y, z_anchor, *_one_pair(x, model_i, model_j, gammas))


# ---------------------------------------------------------------------------
# Oracle: the per-batch ascent that the stacked one in gradframe.core
# replaced, one ``_ascend`` loop per (origin, partner) batch, with the
# objective and its gradient on one model pair each.  The bodies are
# unchanged; only the names differ.


def ref_objective_rows(x, y, z_anchor, model_i, model_j, gammas) -> np.ndarray:
    ws = _forward(model_i, x)
    value = _bce(ws.p1, y)
    if gammas.gamma1 != 0.0:
        z = ws.acts[model_i.rep_layer_index]
        value = value - gammas.gamma1 * (0.5 * np.sum((z - z_anchor) ** 2, axis=1))
    if gammas.gamma2 != 0.0:
        value = value - gammas.gamma2 * _bce(_forward(model_j, x).p1, y)
    return value


def ref_objective_grad(x, y, z_anchor, model_i, model_j, gammas) -> np.ndarray:
    ws = _forward(model_i, x, y)
    ws.score_grads(mean=False)
    g = ws.backward(model_i.weights, model_i.n_layers)
    rep = model_i.rep_layer_index
    np.subtract(ws.acts[rep], z_anchor, out=ws.deltas[rep])
    g = g - gammas.gamma1 * ws.backward(model_i.weights, rep)
    partner = _forward(model_j, x, y)
    partner.score_grads(mean=False)
    return g - gammas.gamma2 * partner.backward(model_j.weights, model_j.n_layers)


@np.errstate(over="ignore", invalid="ignore")
def ref_ascend(x0, y, model_i, model_j, gammas, cfg):
    x0, y = check_input(model_i, x0, y)
    if model_j.input_dim != model_i.input_dim:
        raise ShapeError(f"partner model takes {model_j.input_dim} inputs, origin {model_i.input_dim}")
    z_anchor = _forward(model_i, x0).acts[model_i.rep_layer_index]
    n = x0.shape[0]
    x = x0.copy()
    values = np.full((n, cfg.max_steps + 1), np.nan)
    values[:, 0] = ref_objective_rows(x, y, z_anchor, model_i, model_j, gammas)
    lengths = np.ones(n, dtype=np.intp)
    aborted = np.zeros(n, dtype=bool)
    live = np.arange(n)
    for step_no in range(1, cfg.max_steps + 1):
        if live.size == 0:
            break
        g = ref_objective_grad(x[live], y[live], z_anchor[live], model_i, model_j, gammas)
        accepted = np.zeros(live.size, dtype=bool)
        trying = np.arange(live.size)  # positions in ``live`` still halving
        step = cfg.alpha
        for _ in range(4):  # initial step plus up to three halvings
            rows = live[trying]
            candidate = x[rows] + step * g[trying]
            value = np.full(rows.size, np.nan)
            finite = np.all(np.isfinite(candidate), axis=1)
            value[finite] = ref_objective_rows(
                candidate[finite], y[rows[finite]], z_anchor[rows[finite]], model_i, model_j, gammas
            )
            bad = ~np.isfinite(value)
            up = ~bad & (value >= values[rows, step_no - 1])
            aborted[rows[bad]] = True
            x[rows[up]] = candidate[up]
            values[rows[up], step_no] = value[up]
            accepted[trying[up]] = True
            trying = trying[~bad & ~up]
            if trying.size == 0:
                break
            step *= 0.5
        lengths[live[accepted]] = step_no + 1
        if step_no >= cfg.min_steps:
            moved = live[accepted]
            prev = values[moved, step_no - 1]
            rel = (values[moved, step_no] - prev) / np.maximum(np.abs(prev), 1e-12)
            accepted[accepted] = ~(rel < cfg.rel_tolerance)
        live = live[accepted]
    return x, values, lengths, aborted


@st.composite
def ascent_stacks(draw):
    """1-6 members of 1-30 rows over one drawn architecture (input width 1-6, hidden
    (2,), (3, 2), (16, 3) or (32,)), seeded models, per-member penalties, a shared step
    size (1e308 aborts rows) and a step budget of 0-15.  A 16- or 32-wide layer feeding
    2 or 3 units is a matmul whose bits for a row depend on its row count."""
    d = draw(st.integers(1, 6))
    hidden = draw(st.sampled_from([(2,), (3, 2), (16, 3), (32,)]))
    rep = draw(st.integers(1, len(hidden)))
    gamma = st.sampled_from([0.0, 0.1, 1.0, 10.0])
    members = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 30))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        x = rng.normal(size=(n, d)) * draw(st.sampled_from([0.5, 3.0]))
        y = rng.integers(0, 2, size=n).astype(float)
        model_i, model_j = (init_mlp((d, *hidden, 2), rep, seed=draw(st.integers(0, 99))) for _ in "ij")
        members.append((x, y, model_i, model_j, PenaltyParams(draw(gamma), draw(gamma))))
    max_steps = draw(st.integers(0, 15))
    cfg = AscentConfig(
        alpha=draw(st.sampled_from([0.05, 1.0, 1e308])),
        max_steps=max_steps,
        min_steps=draw(st.integers(0, max_steps)),
    )
    return members, cfg


@settings(max_examples=40, deadline=None)
@given(stack=ascent_stacks())
def test_stacked_ascent_matches_each_member_alone(stack):
    """Every member's iterates, traces, trace lengths and abort flags are bit for bit
    those of the per-batch ascent on that member alone."""
    members, cfg = stack
    for got, member in zip(_ascend(members, cfg), members):
        for a, b in zip(got, ref_ascend(*member, cfg)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestOneAscentLoopPerPlan:
    CFG = TrainConfig(seed=3, beta=0.05, epochs=4, batch_size=16, pretrain_epochs=6)
    ASC = AscentConfig(alpha=0.3, max_steps=6, min_steps=1)

    def _lodo_plan(self):
        """The one ``_ascend`` call's members of a ``lodo`` plan, and its gradient call count."""
        ds = DomainSet(tuple(separable_blobs(d, seed, 6) for seed, d in enumerate("ABC")))
        pairs = [(0.1, 0.1), (1.0, 1.0), (1.0, 10.0), (10.0, 0.0)]
        with mock.patch.object(core, "_stack_grad", wraps=core._stack_grad) as grad, mock.patch.object(
            core, "_ascend", wraps=core._ascend
        ) as ascend:
            lodo_cv_search(ds, pairs, self.ASC, self.CFG)
        [call] = ascend.call_args_list
        return call.args[0], grad.call_count

    def test_lodo_plan_ascends_in_one_stack(self):
        """4 pairs on 3 equal domains are 12 runs of 2 batches each.  The per-batch
        ascent made up to 24 gradient calls per step; the stack makes one for the
        members with two or more live rows and at most one for those with one."""
        members, grad_calls = self._lodo_plan()
        assert len(members) == 24
        assert 0 < grad_calls <= 2 * self.ASC.max_steps

    def test_stack_computes_no_row_its_members_do_not_compute_alone(self):
        """No padded row is computed: over the plan's ragged stack, the rows that reach
        the objective and its gradient are in sum those of each member ascending alone."""

        def computed(members) -> int:
            rows = []

            def counted(kernel):
                def run(x, *args):
                    rows.append(x.size // x.shape[-1])
                    return kernel(x, *args)

                return run

            with mock.patch.object(core, "_stack_objective", counted(core._stack_objective)), mock.patch.object(
                core, "_stack_grad", counted(core._stack_grad)
            ):
                _ascend(members, self.ASC)
            return sum(rows)

        members, _ = self._lodo_plan()
        assert computed(members) == sum(computed([member]) for member in members)

    def test_two_architectures_ascend_in_two_stacks(self):
        ds = DomainSet(tuple(separable_blobs(d, seed, 5) for seed, d in enumerate("ABC")))
        runs = [
            (ds, PenaltyParams(1.0, 1.0), self.CFG),
            (ds, PenaltyParams(0.0, 10.0), replace(self.CFG, hidden_dims=(3,))),
            (ds, PenaltyParams(10.0, 0.1), replace(self.CFG, seed=4)),
        ]
        with mock.patch.object(core, "_ascend", wraps=core._ascend) as ascend:
            ficts = fictitious_sets(runs, self.ASC)
        assert sorted(len(call.args[0]) for call in ascend.call_args_list) == [6, 12]
        for run, fict in zip(runs, ficts):
            _assert_same_sets(fict, fictitious_sets([run], self.ASC)[0])
