from __future__ import annotations

import gc
import itertools
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    build_model,
    fd_input_grad,
    fd_param_grads,
    model_text,
    one_row_bce,
    one_row_rep,
    rel_err,
    zero_model,
)

from test_core import objective_grad

from gradframe.core import AscentConfig, PenaltyParams, _ascend
from gradframe.errors import ConfigError, DataError, ShapeError
from gradframe.model_io import load_model, save_model
from gradframe.nn import (
    P_MAX,
    P_MIN,
    MlpModel,
    Workspace,
    _bce,
    bce_loss_batch,
    bind_adam,
    grad_params_batch,
    init_mlp,
    param_count,
    param_views,
    probs_batch,
    representations_batch,
)
from gradframe.training import TrainConfig, fit_stack


def one_row_prob(model, x) -> float:
    return float(probs_batch(model, np.asarray(x, dtype=np.float64)[None, :])[0])


def one_row_grad_params(model, x, y) -> np.ndarray:
    return grad_params_batch(model, np.asarray(x, dtype=np.float64)[None, :], [y])


def one_row_objective_grad(model_i, x, y, anchor, model_j, gammas) -> np.ndarray:
    """``objective_grad`` of one row."""
    x, anchor = (np.asarray(a, dtype=np.float64)[None, :] for a in (x, anchor))
    return objective_grad(x, np.array([float(y)]), anchor, model_i, model_j, gammas)[0]


def fit_stack_of_one(model, x, y):
    """``fit_stack`` of one fit; it takes no model, so ``model`` is not used."""
    return fit_stack([(x, y, TrainConfig(epochs=1), None)])[0]


def ascend(model, x, y):
    """``core._ascend`` of the rows of ``x`` against ``model`` as its own partner."""
    return _ascend([(x, y, model, model, PenaltyParams(1.0, 1.0))], AscentConfig())[0]


# Every entry that runs ``check_input``, as ``fn(model, x, y)``.
INPUT_ENTRIES = {
    "probs_batch": lambda model, x, y: probs_batch(model, x),
    "representations_batch": lambda model, x, y: representations_batch(model, x),
    "bce_loss_batch": bce_loss_batch,
    "grad_params_batch": grad_params_batch,
    "ascend": ascend,
    "fit_stack": fit_stack_of_one,
}


def _invalid_architectures():
    """Each case through ``init_mlp`` (under its original id), ``MlpModel`` and ``TrainConfig``."""
    cases = [([2, 0, 2], 1), ([2, -1, 2], 1), ([2, 2], 1), ([2, 2, 3], 1), ([2, 2, 2], 2), ([2, 2, 2], 0)]
    for i, (dims, rep) in enumerate(cases):
        yield pytest.param("init_mlp", dims, rep, id=f"dims{i}-{rep}")
        yield pytest.param("MlpModel", dims, rep, id=f"MlpModel-dims{i}-{rep}")
        if dims[-1] == 2:  # TrainConfig fixes the output layer at 2 units
            yield pytest.param("TrainConfig", dims, rep, id=f"TrainConfig-dims{i}-{rep}")


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

    @pytest.mark.parametrize("how,dims,rep", _invalid_architectures())
    def test_invalid_architecture(self, how, dims, rep):
        with pytest.raises(ConfigError):
            if how == "init_mlp":
                init_mlp(dims, rep, seed=0)
            elif how == "MlpModel":
                MlpModel(tuple(dims), np.zeros(max(param_count(dims), 0)), rep)
            else:
                TrainConfig(hidden_dims=tuple(dims[1:-1]), rep_layer_index=rep)


class TestForward:
    def test_zero_weights_give_half(self):
        m = zero_model((2, 2, 2))
        assert one_row_prob(m, np.array([3.0, -4.0])) == 0.5

    def test_hand_network_chain_rule(self):
        m = build_model(
            weights=[np.array([[0.3], [-0.7]]), np.array([[0.5, -0.2]])],
            biases=[np.array([0.1]), np.array([0.4, -0.1])],
        )
        x = np.array([1.0, -1.0])
        p1 = one_row_prob(m, x)
        h = max(0.3 * 1.0 + (-0.7) * (-1.0) + 0.1, 0.0)
        s0 = h * 0.5 + 0.4
        s1 = h * (-0.2) - 0.1
        expected = math.exp(s1) / (math.exp(s0) + math.exp(s1))
        assert abs(p1 - expected) < 1e-12
        assert np.allclose(one_row_rep(m, x), [h])

    def test_zero_scaled_input_matches_zero_vector(self):
        m = init_mlp([3, 4, 2], 1, seed=5)
        m = build_model(m.weights, [np.zeros_like(b) for b in m.biases])
        x = np.array([2.0, -1.0, 0.5])
        assert one_row_prob(m, 0.0 * x) == one_row_prob(m, np.zeros(3))

    def test_dimension_mismatch(self):
        m = init_mlp([2, 2, 2], 1, seed=0)
        with pytest.raises(ShapeError):
            probs_batch(m, np.array([[1.0, 2.0, 3.0]]))
        with pytest.raises(ShapeError):
            probs_batch(m, np.array([1.0, 2.0]))

    def test_non_finite_input(self):
        m = init_mlp([2, 2, 2], 1, seed=0)
        with pytest.raises(DataError):
            representations_batch(m, np.array([[1.0, np.nan]]))

    @pytest.mark.parametrize(
        "entry", ["probs_batch", "representations_batch", "bce_loss_batch", "grad_params_batch"]
    )
    def test_rows_that_overflow_the_network_warn_nothing(self, entry):
        # rows of +-1.7e308 overflow a matmul or a bias add under five of these six
        # seeds' weights; their outputs may be NaN, but no numpy warning gets out
        x = np.array([[1.7e308, -1.7e308], [-1.7e308, 1.7e308], [0.5, 0.1]])
        y = np.array([1.0, 0.0, 1.0])
        for seed in range(6):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                INPUT_ENTRIES[entry](init_mlp([2, 4, 3, 2], 1, seed), x, y)

    def test_probability_sanity_after_clamp(self, rng):
        for trial in range(20):
            m = init_mlp([2, 3, 2], 1, seed=trial)
            big = build_model([50.0 * w for w in m.weights], m.biases)
            x = rng.normal(scale=1e6, size=2)
            p1 = one_row_prob(big, x)
            assert P_MIN <= p1 <= 1.0 - P_MIN
            assert 0.0 < p1 < 1.0

    def test_determinism_bytes(self):
        m = init_mlp([4, 5, 2], 1, seed=9)
        x = np.array([0.1, -0.2, 0.3, 0.4])
        assert one_row_prob(m, x) == one_row_prob(m, x)
        assert np.array_equal(one_row_rep(m, x), one_row_rep(m, x))

    def test_representation_locality(self):
        m = init_mlp([2, 3, 4, 2], 2, seed=11)
        x = np.array([0.5, -1.5])
        z = one_row_rep(m, x)
        weights = list(m.weights)
        weights[2] = weights[2] + 10.0  # above the rep layer
        m2 = build_model(weights, m.biases, m.rep_layer_index)
        assert np.array_equal(one_row_rep(m2, x), z)


class TestBceLoss:
    def test_half_prob_gives_ln2(self):
        m = zero_model((2, 2, 2))
        for y in (0, 1):
            assert abs(one_row_bce(m, np.array([1.0, 2.0]), y) - math.log(2.0)) < 1e-12

    def test_loss_decreases_toward_saturation(self):
        base = init_mlp([2, 2, 2], 1, seed=2)
        x = np.array([1.0, 1.0])
        losses = []
        for scale in (1.0, 2.0, 4.0, 8.0):
            m = build_model([scale * w for w in base.weights], base.biases)
            # fix the label at the model's preferred class so scaling saturates it
            losses.append(one_row_bce(m, x, 1))
        if one_row_prob(base, x) > 0.5:
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
        assert abs(one_row_bce(m, x, 0) - expected) < 1e-10

    def test_bad_label(self):
        m = zero_model((2, 2, 2))
        with pytest.raises(DataError):
            one_row_bce(m, np.array([0.0, 0.0]), 2)

    @pytest.mark.parametrize(
        "fn", [bce_loss_batch, grad_params_batch, ascend, fit_stack_of_one]
    )
    @pytest.mark.parametrize(
        "y, error",
        [([0.0, 2.0], DataError), ([0.0, -0.1], DataError), ([0.0, np.nan], DataError),
         ([1.0, np.inf], DataError), ([1.0], ShapeError), ([[1.0, 0.0]], ShapeError)],
        ids=["above-one", "negative", "nan", "inf", "too-few", "not-a-vector"],
    )
    def test_row_functions_reject_bad_targets(self, fn, y, error):
        m = init_mlp([2, 3, 2], 1, seed=0)
        with pytest.raises(error):
            fn(m, np.zeros((2, 2)), y)

    @pytest.mark.parametrize("entry", sorted(INPUT_ENTRIES))
    @pytest.mark.parametrize(
        "x, error",
        [
            (np.zeros(2), ShapeError),
            (np.zeros((2, 2, 1)), ShapeError),
            (np.zeros((2, 0)), ShapeError),
            (np.zeros((2, 3)), ShapeError),
            ([[0.0, 1.0], [np.nan, 0.0]], DataError),
            ([[0.0, 1.0], [np.inf, 0.0]], DataError),
            ([[0.0, -np.inf], [1.0, 0.0]], DataError),
        ],
        ids=["1-d", "3-d", "zero-width", "wrong-width", "nan", "inf", "minus-inf"],
    )
    def test_every_entry_rejects_bad_inputs(self, entry, x, error):
        """One rule for every model input: the width is the model's, or any d >= 1 for
        ``fit_stack``, which takes no model and so trains on the 3-wide matrix."""
        m = init_mlp([2, 3, 2], 1, seed=0)
        fn = INPUT_ENTRIES[entry]
        if entry == "fit_stack" and np.shape(x) == (2, 3):
            assert fn(m, x, [0.0, 1.0]).input_dim == 3
            return
        with pytest.raises(error):
            fn(m, x, [0.0, 1.0])

    def test_soft_targets_accepted(self):
        m = zero_model((2, 2, 2))
        losses = bce_loss_batch(m, np.zeros((3, 2)), [0.0, 0.25, 1.0])
        assert np.allclose(losses, math.log(2.0), atol=1e-12)

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["rows", "stack"])
    @pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
    def test_bce_is_the_plain_expression(self, lead, soft):
        """``_bce``, with and without work buffers, gives the bytes of the plain
        expression, NaN matching NaN, at the clamp's edges and between them."""
        rng = np.random.default_rng(0)
        edges = [0.0, P_MIN, 0.5, P_MAX, 1.0, np.nan, P_MIN / 2, 1.0 - P_MIN / 2]
        p1 = np.concatenate([np.tile(edges, 2), rng.uniform(size=48)])
        p1 = np.stack([rng.permutation(p1) for _ in range(lead[0])]) if lead else p1
        y = rng.uniform(size=p1.shape) if soft else rng.integers(0, 2, size=p1.shape).astype(float)
        p = np.clip(p1, P_MIN, P_MAX)
        want = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
        nan = np.isnan(want)
        assert np.array_equal(nan, np.isnan(p1))
        for got in (_bce(p1, y), _bce(p1, y, [np.empty(p1.shape) for _ in range(3)])):
            assert np.array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == want[~nan].tobytes()


class TestGradParams:
    def test_matches_finite_differences(self, rng):
        for trial in range(5):
            m = init_mlp([2, 8, 2], 1, seed=100 + trial)
            x = rng.normal(size=2)
            y = int(rng.integers(2))
            gw, gb = param_views(m.layer_dims, one_row_grad_params(m, x, y))
            fw, fb = fd_param_grads(lambda mm: one_row_bce(mm, x, y), m)
            for k in range(m.n_layers):
                assert rel_err(gw[k], fw[k]) < 1e-5
                assert rel_err(gb[k], fb[k]) < 1e-5

    def test_saturated_gradient_vanishes(self):
        m = build_model(
            weights=[np.eye(2), np.array([[10.0, -10.0], [10.0, -10.0]])],
            biases=[np.zeros(2), np.zeros(2)],
        )
        x = np.array([2.0, 2.0])
        assert one_row_prob(m, x) < 1e-6  # deeply saturated toward class 0
        g = one_row_grad_params(m, x, 0)
        norm = math.sqrt(float(np.sum(g**2)))
        assert norm < 1e-6

    def test_batch_mean_linearity(self):
        m = init_mlp([2, 4, 2], 1, seed=4)
        x = np.array([0.3, -0.8])
        single = one_row_grad_params(m, x, 1)
        duplicated = grad_params_batch(m, np.stack([x, x]), np.array([1.0, 1.0]))
        assert np.allclose(single, duplicated, atol=1e-15)



# Row counts on both sides of numpy's pairwise-sum block sizes (8 and 128),
# and a batch's extremes.
GUARD_ROWS = (1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 255, 256, 257, 400, 999, 1000)
# (workspace lead shape, parameter lead shape): one network, stacks of 1-4
# networks, and three row blocks that share one network, as GroupDRO's do.
GUARD_LEADS = {
    "one-network": ((), ()),
    "stack-1": ((1,), (1,)),
    "stack-2": ((2,), (2,)),
    "stack-3": ((3,), (3,)),
    "stack-4": ((4,), (4,)),
    "three-blocks-shared": ((3,), (1,)),
}


class TestStepKernelBitsGuard:
    """The step kernel's bias steps give the bits of the plain expressions.

    The kernel adds biases in another iteration order and sums the bias
    gradient of a layer wider than 1 with ``einsum``.  Both rely on numpy
    keeping each element's operations and the row-by-row summation order of
    ``d.sum(axis=-2)``.  If a numpy upgrade changes either, this fails before
    any model does.
    """

    @staticmethod
    def _kernel(lead, param_lead, width, rows, rng):
        """A workspace on random inputs, random parameters and gradient views."""
        dims = (3, width, 2)
        ws = Workspace(dims, (*lead, rows))
        ws.x[...] = rng.normal(size=ws.x.shape)
        weights, biases = param_views(dims, rng.normal(size=(*param_lead, param_count(dims))))
        if lead:
            biases = tuple(b[:, None, :] for b in biases)  # broadcast over the rows
        grads = param_views(dims, np.empty((*lead, param_count(dims))))
        return ws, weights, biases, grads

    @pytest.mark.parametrize("lead, param_lead", list(GUARD_LEADS.values()), ids=list(GUARD_LEADS))
    def test_bias_gradient_is_the_row_sum(self, lead, param_lead):
        rng = np.random.default_rng(0)
        for width, rows in itertools.product(range(1, 9), GUARD_ROWS):
            ws, weights, _, grads = self._kernel(lead, param_lead, width, rows, rng)
            # every hidden unit active, so the ReLU mask keeps each delta as it is
            ws.acts[1][...] = rng.uniform(0.5, 1.5, size=ws.acts[1].shape)
            for top in (1, 2):  # the hidden layer's sum alone, then both layers'
                d = rng.normal(size=ws.deltas[top].shape)
                d[..., 0] = -0.0  # at width 1 the whole hidden delta
                ws.deltas[top][...] = d
                ws.backward(weights, top, grads)
                for k in range(top):
                    want = ws.deltas[k + 1].sum(axis=-2)
                    assert grads[1][k].tobytes() == want.tobytes(), (width, rows, top, k)

    @pytest.mark.parametrize("lead, param_lead", list(GUARD_LEADS.values()), ids=list(GUARD_LEADS))
    def test_bias_add_is_the_plain_sum(self, lead, param_lead):
        rng = np.random.default_rng(0)
        for width, rows in itertools.product(range(1, 9), GUARD_ROWS):
            ws, weights, biases, _ = self._kernel(lead, param_lead, width, rows, rng)
            ws.forward(weights, biases)
            hidden = np.maximum(np.matmul(ws.x, weights[0]) + biases[0], 0.0)
            assert ws.acts[1].tobytes() == hidden.tobytes(), (width, rows)
            scores = np.matmul(hidden, weights[1]) + biases[1]
            scores -= scores.max(axis=-1, keepdims=True)
            assert ws.scores.tobytes() == scores.tobytes(), (width, rows)

    @pytest.mark.parametrize("lead, param_lead", list(GUARD_LEADS.values()), ids=list(GUARD_LEADS))
    def test_bound_step_is_the_unbound_passes(self, lead, param_lead):
        """``bind``'s step gives the bytes of ``forward``, ``score_grads(mean=True)`` and
        ``backward`` run one by one."""
        rng = np.random.default_rng(0)
        for width, rows in itertools.product(range(1, 9), GUARD_ROWS):
            ws, weights, biases, grads = self._kernel(lead, param_lead, width, rows, rng)
            ws.y[...] = rng.uniform(size=ws.y.shape)
            ws.bind(weights, biases, grads)()
            bound = [g.tobytes() for views in grads for g in views]
            ws.forward(weights, biases)
            ws.score_grads(mean=True)
            ws.backward(weights, len(weights), grads)
            assert [g.tobytes() for views in grads for g in views] == bound, (width, rows)


def test_ragged_workspace_is_freed_without_the_cycle_collector():
    """A workspace of ragged segments holds no reference to itself: the ascent makes
    one per evaluation, and a cycle would keep each alive until a collection."""
    gc.disable()
    try:
        ws = Workspace((3, 2, 2), (6,), segments=[(0, 0, 5), (1, 5, 6)])
        ref = weakref.ref(ws)
        del ws
        assert ref() is None
    finally:
        gc.enable()


class TestGradInput:
    """``core._stack_grad`` on one model pair, the ascent objective's per-row input gradient."""

    def test_plain_matches_fd(self, rng):
        m = init_mlp([3, 6, 2], 1, seed=21)
        x = rng.normal(size=3)
        g = one_row_objective_grad(m, x, 1, one_row_rep(m, x), m, PenaltyParams(0.0, 0.0))
        fd = fd_input_grad(lambda q: one_row_bce(m, q, 1), x)
        assert rel_err(g, fd) < 1e-5

    def test_anchor_at_own_representation_is_inert(self):
        m = init_mlp([3, 5, 2], 1, seed=22)
        x = np.array([0.2, -0.4, 1.0])
        z = one_row_rep(m, x)
        with_anchor = one_row_objective_grad(m, x, 0, z, m, PenaltyParams(3.5, 0.0))
        without = one_row_objective_grad(m, x, 0, z, m, PenaltyParams(0.0, 0.0))
        assert np.allclose(with_anchor, without, atol=1e-14)

    def test_three_term_matches_fd(self, rng):
        mi = init_mlp([3, 5, 4, 2], 1, seed=23)
        mj = init_mlp([3, 6, 2], 1, seed=24)
        x = rng.normal(size=3)
        anchor = one_row_rep(mi, rng.normal(size=3))
        # the zero-weight pairs keep their terms in the gradient, at weight 0
        for g1, g2 in [(1.3, 4.2), (0.0, 4.2), (1.3, 0.0), (0.0, 0.0)]:
            g = one_row_objective_grad(mi, x, 1, anchor, mj, PenaltyParams(g1, g2))

            def objective(q):
                z = one_row_rep(mi, q)
                return (
                    one_row_bce(mi, q, 1)
                    - g1 * 0.5 * float(np.sum((z - anchor) ** 2))
                    - g2 * one_row_bce(mj, q, 1)
                )

            fd = fd_input_grad(objective, x)
            assert rel_err(g, fd) < 1e-5, (g1, g2)

    def test_dimension_mismatch(self):
        mi = init_mlp([3, 4, 2], 1, seed=0)
        mj = init_mlp([2, 4, 2], 1, seed=0)
        with pytest.raises(ShapeError):
            _ascend([(np.zeros((1, 3)), [0.0], mi, mj, PenaltyParams(0.0, 1.0))], AscentConfig())

    def test_rows_match_one_row_calls(self, rng):
        mi = init_mlp([3, 5, 2], 1, seed=25)
        mj = init_mlp([3, 4, 2], 1, seed=26)
        x = rng.normal(size=(6, 3))
        y = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0])
        z = rng.normal(size=(6, 5))
        gammas = PenaltyParams(0.7, 2.0)
        rows = objective_grad(x, y, z, mi, mj, gammas)
        for r in range(6):
            one = one_row_objective_grad(mi, x[r], y[r], z[r], mj, gammas)
            assert np.allclose(rows[r], one, rtol=0.0, atol=1e-15)


def run_adam(params, grad, lr, steps=1) -> np.ndarray:
    """``steps`` Adam updates from zero moments; ``grad(params)`` gives each gradient."""
    params = np.array(params)
    m, v, g = (np.zeros_like(params) for _ in range(3))
    adam = bind_adam(params, m, v, g, lr)
    for step in range(1, steps + 1):
        g[...] = grad(params)
        adam(step)
    return params


class TestAdam:
    def test_first_step_magnitude(self):
        m = zero_model((2, 2, 2))
        grads = grad_params_batch(m, np.array([[1.0, 1.0]]), np.array([1.0]))
        # replace with a synthetic constant gradient on one matrix
        gw, _ = param_views(m.layer_dims, grads)
        gw[0][...] = 0.0
        gw[0][0, 0] = 0.37
        gw[1][...] = 0.0

        new_params = run_adam(m.params, lambda p: grads, lr=0.01)
        delta = param_views(m.layer_dims, new_params)[0][0][0, 0] - m.weights[0][0, 0]
        assert abs(abs(delta) - 0.01) < 1e-6

    def test_zero_gradient_keeps_parameters(self):
        m = init_mlp([2, 3, 2], 1, seed=5)
        new_params = run_adam(m.params, np.zeros_like, lr=0.1)
        assert np.array_equal(new_params, m.params)

    def test_quadratic_descent(self):
        m = init_mlp([2, 2, 2], 1, seed=6)

        def w00(params):
            return param_views(m.layer_dims, params)[0][0][0, 0]

        def grad(params):
            g = np.zeros_like(params)
            param_views(m.layer_dims, g)[0][0][0, 0] = 2.0 * (w00(params) - 3.0)
            return g

        new_params = run_adam(m.params, grad, lr=0.1, steps=100)
        assert (w00(new_params) - 3.0) ** 2 < (w00(m.params) - 3.0) ** 2


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

    @pytest.mark.parametrize(
        "dims, rep",
        [((2, 2, 3), 1), ((2, 2, 2), 7), ((2, 2, 2), 0)],
        ids=["three-outputs", "rep-7", "rep-0"],
    )
    def test_architecture_outside_the_rule(self, tmp_path, dims, rep):
        (tmp_path / "m.txt").write_text(model_text(dims, rep, [0.5]))
        with pytest.raises(DataError, match="m.txt"):
            load_model(tmp_path / "m.txt")

    def test_model_text_matches_save_model(self, tmp_path):
        m = init_mlp([3, 4, 2], 1, seed=2)
        save_model(m, tmp_path / "m.txt")
        assert (tmp_path / "m.txt").read_text() == model_text(m.layer_dims, 1, m.params)


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("models")


@settings(max_examples=200, deadline=None)
@given(
    dims=st.lists(st.integers(-1, 4), min_size=1, max_size=5),
    rep=st.integers(-1, 5),
    values=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8),
)
def test_drawn_model_file_runs_or_is_data_error(model_dir, dims, rep, values):
    path = model_dir / "drawn.txt"
    path.write_text(model_text(dims, rep, values))
    try:
        model = load_model(path)
    except DataError:
        return
    x = np.linspace(-1.0, 1.0, 2 * model.input_dim).reshape(2, model.input_dim)
    p1 = probs_batch(model, x)
    assert p1.shape == (2,) and np.all((p1 >= P_MIN) & (p1 <= 1.0 - P_MIN))
    assert representations_batch(model, x).shape == (2, model.rep_dim)
