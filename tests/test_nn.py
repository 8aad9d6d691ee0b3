from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import build_model, fd_input_grad, fd_param_grads, rel_err, zero_model

from gradframe.errors import ConfigError, DataError, ShapeError
from gradframe.model_io import load_model, save_model
from gradframe.nn import (
    P_MIN,
    MlpModel,
    adam_step,
    bce_grad_batch,
    bce_loss,
    bce_loss_batch,
    forward,
    grad_input,
    grad_params,
    grad_params_batch,
    init_adam_state,
    init_mlp,
    param_views,
    representation,
)


class TestInit:
    def test_same_seed_same_bytes(self):
        a = init_mlp([368, 64, 32, 16, 8, 2], 3, seed=1)
        b = init_mlp([368, 64, 32, 16, 8, 2], 3, seed=1)
        for wa, wb in zip(a.weights, b.weights):
            assert wa.tobytes() == wb.tobytes()
        for ba, bb in zip(a.biases, b.biases):
            assert ba.tobytes() == bb.tobytes()

    def test_shapes_chain(self):
        m = init_mlp([2, 2, 2], 1, seed=7)
        assert [w.shape for w in m.weights] == [(2, 2), (2, 2)]
        assert m.rep_dim == 2

    def test_churn_architecture(self):
        m = init_mlp([368, 64, 32, 16, 8, 2], 3, seed=1)
        assert m.rep_dim == 16
        assert m.weights[0].shape == (368, 64)

    def test_bound_scale(self):
        m = init_mlp([100, 50, 2], 1, seed=3)
        bound = np.sqrt(6.0 / 150)
        assert np.abs(m.weights[0]).max() <= bound

    def test_model_keeps_its_own_read_only_params(self):
        a = np.arange(12.0)
        m = MlpModel((2, 2, 2), a, 1)
        assert a.flags.writeable
        assert not np.shares_memory(a, m.params)
        assert not m.params.flags.writeable
        a[0] = 99.0
        assert m.params[0] == 0.0
        frozen = np.arange(12.0)
        frozen.setflags(write=False)
        assert MlpModel((2, 2, 2), frozen, 1).params is frozen

    @pytest.mark.parametrize(
        "dims,rep",
        [([2, 0, 2], 1), ([2, -1, 2], 1), ([2, 2], 1), ([2, 2, 3], 1), ([2, 2, 2], 2), ([2, 2, 2], 0)],
    )
    def test_invalid_architecture(self, dims, rep):
        with pytest.raises(ConfigError):
            init_mlp(dims, rep, seed=0)


class TestForward:
    def test_zero_weights_give_half(self):
        m = zero_model((2, 2, 2))
        p1, _ = forward(m, np.array([3.0, -4.0]))
        assert p1 == 0.5

    def test_hand_network_chain_rule(self):
        m = build_model(
            weights=[np.array([[0.3], [-0.7]]), np.array([[0.5, -0.2]])],
            biases=[np.array([0.1]), np.array([0.4, -0.1])],
        )
        x = np.array([1.0, -1.0])
        p1, reps = forward(m, x)
        h = max(0.3 * 1.0 + (-0.7) * (-1.0) + 0.1, 0.0)
        s0 = h * 0.5 + 0.4
        s1 = h * (-0.2) - 0.1
        expected = math.exp(s1) / (math.exp(s0) + math.exp(s1))
        assert abs(p1 - expected) < 1e-12
        assert np.allclose(reps[1], [h])

    def test_zero_scaled_input_matches_zero_vector(self):
        m = init_mlp([3, 4, 2], 1, seed=5)
        m = m.with_params(m.weights, tuple(np.zeros_like(b) for b in m.biases))
        x = np.array([2.0, -1.0, 0.5])
        assert forward(m, 0.0 * x)[0] == forward(m, np.zeros(3))[0]

    def test_dimension_mismatch(self):
        m = init_mlp([2, 2, 2], 1, seed=0)
        with pytest.raises(ShapeError):
            forward(m, np.array([1.0, 2.0, 3.0]))

    def test_non_finite_input(self):
        m = init_mlp([2, 2, 2], 1, seed=0)
        with pytest.raises(DataError):
            forward(m, np.array([1.0, np.nan]))

    def test_probability_sanity_after_clamp(self, rng):
        for trial in range(20):
            m = init_mlp([2, 3, 2], 1, seed=trial)
            big = m.with_params(
                tuple(50.0 * w for w in m.weights), m.biases
            )
            x = rng.normal(scale=1e6, size=2)
            p1, _ = forward(big, x)
            assert P_MIN <= p1 <= 1.0 - P_MIN
            assert 0.0 < p1 < 1.0

    def test_determinism_bytes(self):
        m = init_mlp([4, 5, 2], 1, seed=9)
        x = np.array([0.1, -0.2, 0.3, 0.4])
        a = forward(m, x)
        b = forward(m, x)
        assert a[0] == b[0]
        assert all(np.array_equal(ra, rb) for ra, rb in zip(a[1], b[1]))

    def test_representation_locality(self):
        m = init_mlp([2, 3, 4, 2], 2, seed=11)
        x = np.array([0.5, -1.5])
        z = representation(m, x)
        weights = list(m.weights)
        weights[2] = weights[2] + 10.0  # above the rep layer
        m2 = m.with_params(tuple(weights), m.biases)
        assert np.array_equal(representation(m2, x), z)


class TestBceLoss:
    def test_half_prob_gives_ln2(self):
        m = zero_model((2, 2, 2))
        for y in (0, 1):
            assert abs(bce_loss(m, np.array([1.0, 2.0]), y) - math.log(2.0)) < 1e-12

    def test_loss_decreases_toward_saturation(self):
        base = init_mlp([2, 2, 2], 1, seed=2)
        x = np.array([1.0, 1.0])
        losses = []
        for scale in (1.0, 2.0, 4.0, 8.0):
            m = base.with_params(tuple(scale * w for w in base.weights), base.biases)
            p1, _ = forward(m, x)
            y = 1 if p1 > 0.5 else 0
            # fix the label at the model's preferred class so scaling saturates it
            losses.append(bce_loss(m, x, 1))
        p1, _ = forward(base, x)
        if p1 > 0.5:
            assert losses == sorted(losses, reverse=True)

    def test_hand_value(self):
        m = build_model(
            weights=[np.array([[0.4, -0.3], [0.2, 0.6]]), np.array([[1.0, -0.5], [0.3, 0.8]])],
            biases=[np.array([0.05, -0.1]), np.array([0.2, -0.2])],
        )
        x = np.array([1.0, -1.0])
        h = np.maximum(x @ np.array([[0.4, -0.3], [0.2, 0.6]]) + np.array([0.05, -0.1]), 0.0)
        s = h @ np.array([[1.0, -0.5], [0.3, 0.8]]) + np.array([0.2, -0.2])
        p1 = math.exp(s[1]) / (math.exp(s[0]) + math.exp(s[1]))
        expected = -math.log(1.0 - p1)
        assert abs(bce_loss(m, x, 0) - expected) < 1e-10

    def test_bad_label(self):
        m = zero_model((2, 2, 2))
        with pytest.raises(DataError):
            bce_loss(m, np.array([0.0, 0.0]), 2)


class TestGradParams:
    def test_matches_finite_differences(self, rng):
        for trial in range(5):
            m = init_mlp([2, 8, 2], 1, seed=100 + trial)
            x = rng.normal(size=2)
            y = int(rng.integers(2))
            gw, gb = param_views(m.layer_dims, grad_params(m, x, y))
            fw, fb = fd_param_grads(lambda mm: bce_loss(mm, x, y), m)
            for k in range(m.n_layers):
                assert rel_err(gw[k], fw[k]) < 1e-5
                assert rel_err(gb[k], fb[k]) < 1e-5

    def test_saturated_gradient_vanishes(self):
        m = build_model(
            weights=[np.eye(2), np.array([[10.0, -10.0], [10.0, -10.0]])],
            biases=[np.zeros(2), np.zeros(2)],
        )
        x = np.array([2.0, 2.0])
        p1, _ = forward(m, x)
        assert p1 < 1e-6  # deeply saturated toward class 0
        g = grad_params(m, x, 0)
        norm = math.sqrt(float(np.sum(g**2)))
        assert norm < 1e-6

    def test_batch_mean_linearity(self):
        m = init_mlp([2, 4, 2], 1, seed=4)
        x = np.array([0.3, -0.8])
        single = grad_params(m, x, 1)
        duplicated = grad_params_batch(m, np.stack([x, x]), np.array([1.0, 1.0]))
        assert np.allclose(single, duplicated, atol=1e-15)

    def test_bce_grad_batch_is_mean_loss_and_batch_gradient(self, rng):
        m = init_mlp([3, 5, 4, 2], 2, seed=9)
        x = rng.normal(size=(7, 3))
        y = np.array([0.0, 1.0, 1.0, 0.3, 0.0, 1.0, 0.8])
        loss, grad = bce_grad_batch(m, x, y)
        assert loss == float(bce_loss_batch(m, x, y).mean())
        assert grad.tobytes() == grad_params_batch(m, x, y).tobytes()


class TestGradInput:
    def test_plain_matches_fd(self, rng):
        m = init_mlp([3, 6, 2], 1, seed=21)
        x = rng.normal(size=3)
        g = grad_input(m, x, 1)
        fd = fd_input_grad(lambda q: bce_loss(m, q, 1), x)
        assert rel_err(g, fd) < 1e-5

    def test_anchor_at_own_representation_is_inert(self):
        m = init_mlp([3, 5, 2], 1, seed=22)
        x = np.array([0.2, -0.4, 1.0])
        z = representation(m, x)
        with_anchor = grad_input(m, x, 0, anchor=(z, 3.5))
        without = grad_input(m, x, 0)
        assert np.allclose(with_anchor, without, atol=1e-14)

    def test_three_term_matches_fd(self, rng):
        mi = init_mlp([3, 5, 4, 2], 1, seed=23)
        mj = init_mlp([3, 6, 2], 1, seed=24)
        x = rng.normal(size=3)
        anchor = representation(mi, rng.normal(size=3))
        g1, g2 = 1.3, 4.2
        g = grad_input(mi, x, 1, anchor=(anchor, g1), concept=(mj, g2))

        def objective(q):
            z = representation(mi, q)
            return (
                bce_loss(mi, q, 1)
                - g1 * 0.5 * float(np.sum((z - anchor) ** 2))
                - g2 * bce_loss(mj, q, 1)
            )

        fd = fd_input_grad(objective, x)
        assert rel_err(g, fd) < 1e-5

    def test_dimension_mismatch(self):
        mi = init_mlp([3, 4, 2], 1, seed=0)
        mj = init_mlp([2, 4, 2], 1, seed=0)
        with pytest.raises(ShapeError):
            grad_input(mi, np.zeros(3), 0, concept=(mj, 1.0))


class TestAdam:
    def test_first_step_magnitude(self):
        m = zero_model((2, 2, 2))
        state = init_adam_state(m)
        grads = grad_params_batch(m, np.array([[1.0, 1.0]]), np.array([1.0]))
        # replace with a synthetic constant gradient on one matrix
        gw, _ = param_views(m.layer_dims, grads)
        gw[0][...] = 0.0
        gw[0][0, 0] = 0.37
        gw[1][...] = 0.0

        new_m, new_state = adam_step(m, state, grads, lr=0.01)
        delta = new_m.weights[0][0, 0] - m.weights[0][0, 0]
        assert new_state.step == 1
        assert abs(abs(delta) - 0.01) < 1e-6

    def test_zero_gradient_keeps_parameters(self):
        m = init_mlp([2, 3, 2], 1, seed=5)
        state = init_adam_state(m)
        new_m, new_state = adam_step(m, state, np.zeros_like(m.params), lr=0.1)
        assert new_state.step == 1
        for a, b in zip(m.weights, new_m.weights):
            assert np.array_equal(a, b)

    def test_quadratic_descent(self):
        m = init_mlp([2, 2, 2], 1, seed=6)
        state = init_adam_state(m)

        def objective(model):
            return (model.weights[0][0, 0] - 3.0) ** 2

        start = objective(m)
        for _ in range(100):
            g = np.zeros_like(m.params)
            param_views(m.layer_dims, g)[0][0][0, 0] = 2.0 * (m.weights[0][0, 0] - 3.0)
            m, state = adam_step(m, state, g, lr=0.1)
        assert objective(m) < start

    def test_rejects_bad_lr(self):
        m = init_mlp([2, 2, 2], 1, seed=0)
        state = init_adam_state(m)
        grads = grad_params(m, np.array([0.0, 0.0]), 0)
        with pytest.raises(ConfigError):
            adam_step(m, state, grads, lr=0.0)


class TestModelFile:
    def test_round_trip_keeps_every_parameter(self, tmp_path):
        m = init_mlp([3, 4, 2, 2], 2, seed=8)
        save_model(m, tmp_path / "m.txt")
        loaded = load_model(tmp_path / "m.txt")
        assert loaded.layer_dims == m.layer_dims
        assert loaded.rep_layer_index == 2
        assert loaded.params.tobytes() == m.params.tobytes()

    def test_blocks_disagreeing_with_dims_header(self, tmp_path):
        save_model(init_mlp([2, 3, 2], 1, seed=8), tmp_path / "m.txt")
        text = (tmp_path / "m.txt").read_text().replace("dims 2,3,2", "dims 3,2,2")
        (tmp_path / "m.txt").write_text(text)
        with pytest.raises(DataError):
            load_model(tmp_path / "m.txt")
