"""Bit-identity oracle for the shared training loop.

The reference below is the per-layer formulation the flat-parameter loop
replaced: its own init, per-layer backprop, an Adam update over separate
weight and bias tuples, and one hand-written loop each for minibatch ERM,
mixup and GroupDRO.  The arithmetic is the same, so every weight and bias
must match byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradframe import nn, training
from gradframe.data import Domain, DomainSet
from gradframe.errors import ConfigError, DataError, NumericError, ShapeError
from gradframe.nn import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, P_MAX, P_MIN
from gradframe.rng import derive_seed, rng_for
from gradframe.training import MixupConfig, TrainConfig, draw_lambdas, fit_stack, train_groupdro, train_mixup


def _ref_init(dims, seed):
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _ref_loss_and_grads(weights, biases, x, y):
    """Mean BCE and per-layer parameter gradients of the mean BCE."""
    acts = [x]
    h = x
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
        acts.append(h)
    scores = h @ weights[-1] + biases[-1]
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    p1_raw = e[:, 1] / (e[:, 0] + e[:, 1])
    p1 = np.clip(p1_raw, P_MIN, P_MAX)
    loss = float((-(y * np.log(p1) + (1.0 - y) * np.log(1.0 - p1))).mean())
    d1 = p1_raw - y
    d = np.stack([-d1, d1], axis=1) / x.shape[0]
    n = len(weights)
    g_w, g_b = [None] * n, [None] * n
    g_w[-1] = acts[-1].T @ d
    g_b[-1] = d.sum(axis=0)
    d = d @ weights[-1].T
    for k in range(n - 2, -1, -1):
        d = d * (acts[k + 1] > 0.0)
        g_w[k] = acts[k].T @ d
        g_b[k] = d.sum(axis=0)
        d = d @ weights[k].T
    return loss, g_w, g_b


class _RefAdam:
    """Adam over separate weight and bias lists, one layer at a time."""

    def __init__(self, weights, biases):
        self.m_w = [np.zeros_like(w) for w in weights]
        self.v_w = [np.zeros_like(w) for w in weights]
        self.m_b = [np.zeros_like(b) for b in biases]
        self.v_b = [np.zeros_like(b) for b in biases]
        self.step = 0

    def update(self, weights, biases, g_w, g_b, lr):
        self.step += 1
        c1 = 1.0 - ADAM_BETA1**self.step
        c2 = 1.0 - ADAM_BETA2**self.step

        def one(p, m, v, g):
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
            return p - lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPSILON), m, v

        for k in range(len(weights)):
            weights[k], self.m_w[k], self.v_w[k] = one(weights[k], self.m_w[k], self.v_w[k], g_w[k])
        for k in range(len(biases)):
            biases[k], self.m_b[k], self.v_b[k] = one(biases[k], self.m_b[k], self.v_b[k], g_b[k])


def _ref_start(input_dim, cfg):
    weights, biases = _ref_init(cfg.layer_dims(input_dim), derive_seed(cfg.seed, "init"))
    return weights, biases, _RefAdam(weights, biases), rng_for(cfg.seed, "batch")


def ref_fit_minibatch(x, y, cfg):
    weights, biases, adam, shuffle = _ref_start(x.shape[1], cfg)
    n = x.shape[0]
    for _ in range(cfg.epochs):
        order = shuffle.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            _, g_w, g_b = _ref_loss_and_grads(weights, biases, x[idx], y[idx])
            adam.update(weights, biases, g_w, g_b, cfg.beta)
    return weights, biases


def ref_train_mixup(ds, cfg, mixup):
    pooled = ds.pooled()
    x = pooled.x
    y = pooled.y
    n = x.shape[0]
    weights, biases, adam, shuffle = _ref_start(x.shape[1], cfg)
    mix_rng = rng_for(cfg.seed, "mixup")
    for _ in range(cfg.epochs):
        order = shuffle.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            partners = mix_rng.integers(0, n, size=idx.shape[0])
            lam = draw_lambdas(mixup, mix_rng, idx.shape[0])[:, None]
            x_mix = lam * x[idx] + (1.0 - lam) * x[partners]
            y_mix = lam[:, 0] * y[idx] + (1.0 - lam[:, 0]) * y[partners]
            _, g_w, g_b = _ref_loss_and_grads(weights, biases, x_mix, y_mix)
            adam.update(weights, biases, g_w, g_b, cfg.beta)
    return weights, biases


def ref_train_groupdro(ds, cfg, eta, on_step):
    xs = [d.x for d in ds.domains]
    ys = [d.y for d in ds.domains]
    weights, biases, adam, shuffle = _ref_start(ds.feature_dim, cfg)
    q = np.full(ds.k, 1.0 / ds.k)
    steps_per_epoch = max(int(np.ceil(max(len(x) for x in xs) / cfg.batch_size)), 1)
    step_no = 0
    for _ in range(cfg.epochs):
        orders = [shuffle.permutation(len(x)) for x in xs]
        for s in range(steps_per_epoch):
            losses = np.empty(ds.k)
            per_domain = []
            for i, (x, y, order) in enumerate(zip(xs, ys, orders)):
                idx = order[np.arange(s * cfg.batch_size, (s + 1) * cfg.batch_size) % len(x)]
                losses[i], g_w, g_b = _ref_loss_and_grads(weights, biases, x[idx], y[idx])
                per_domain.append((g_w, g_b))
            q = q * np.exp(eta * losses)
            q = q / q.sum()
            step_no += 1
            on_step(step_no, q.copy(), losses.copy())
            g_w = [sum(q[i] * g[0][k] for i, g in enumerate(per_domain)) for k in range(len(weights))]
            g_b = [sum(q[i] * g[1][k] for i, g in enumerate(per_domain)) for k in range(len(biases))]
            adam.update(weights, biases, g_w, g_b, cfg.beta)
    return weights, biases


def _assert_same_bytes(model, ref):
    weights, biases = ref
    assert len(model.weights) == len(weights)
    for got, want in zip((*model.weights, *model.biases), (*weights, *biases)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _watch_steps(monkeypatch, seen) -> list:
    """Make every bound descent step call ``seen(workspace)`` before it runs; returns
    the list of workspaces that ``Workspace.bind`` is called on, in call order."""
    bind = nn.Workspace.bind
    binds = []

    def watched(self, *args):
        binds.append(self)
        step = bind(self, *args)

        def run():
            seen(self)
            step()

        return run

    monkeypatch.setattr(nn.Workspace, "bind", watched)
    return binds


def _noisy_domain(domain_id, n, seed):
    """Overlapping classes, so gradients stay alive for the whole run."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = (x[:, 0] - 0.5 * x[:, 1] + rng.normal(scale=0.7, size=n) > 0).astype(int)
    return Domain(domain_id, x, y)


def _three_domains():
    return DomainSet(
        (_noisy_domain("a", 37, 1), _noisy_domain("b", 52, 2), _noisy_domain("c", 21, 3))
    )


# (rows, hidden_dims, rep_layer_index, batch_size) of fits run back to back in
# one process; each must match its own reference fit.  "hidden0" is (2,) and
# "hidden1" is (8, 4).  A width-1 layer is the one width at which numpy sums a
# layer's bias gradient pairwise, so it has cases of its own.
FIT_CASES = {
    "full-batch-hidden0-1": [(50, (2,), 1, 50)],
    "full-batch-hidden1-2": [(50, (8, 4), 2, 50)],
    "ragged-hidden0-1": [(50, (2,), 1, 16)],
    "ragged-hidden1-2": [(50, (8, 4), 2, 16)],
    "one-row-last-batch": [(33, (2,), 1, 32)],
    "batch-larger-than-n": [(20, (2,), 1, 64)],
    "train-sim-shape": [(800, (2,), 1, 400)],
    "back-to-back-shapes": [(50, (8, 4), 2, 16), (33, (2,), 1, 32), (50, (8, 4), 2, 16)],
    "width-1-hidden": [(50, (1,), 1, 16)],
    "width-1-top-hidden": [(50, (4, 1), 2, 16)],
    "width-1-full-batch": [(800, (1,), 1, 400), (800, (4, 1), 2, 400)],
}


class TestFitMinibatchOracle:
    @pytest.mark.parametrize("fits", list(FIT_CASES.values()), ids=list(FIT_CASES))
    def test_bit_identical(self, fits):
        for rows, hidden, rep, batch_size in fits:
            dom = _noisy_domain("train", rows, 7)
            x, y = dom.x, dom.y
            cfg = TrainConfig(
                beta=0.05, epochs=40, batch_size=batch_size, seed=4, hidden_dims=hidden, rep_layer_index=rep
            )
            _assert_same_bytes(fit_stack([x], [y], [cfg])[0], ref_fit_minibatch(x, y, cfg))

    def test_bit_identical_past_the_bias_correction_of_the_first_moment(self):
        """From step 356 on, ``1 - beta1**t`` is 1.0 and the descent's Adam step skips
        its division; 200 epochs of two blocks run past it."""
        dom = _noisy_domain("train", 800, 7)
        cfg = TrainConfig(beta=0.05, epochs=200, batch_size=400, seed=4)
        assert 1.0 - ADAM_BETA1**356 == 1.0 != 1.0 - ADAM_BETA1**355
        _assert_same_bytes(fit_stack([dom.x], [dom.y], [cfg])[0], ref_fit_minibatch(dom.x, dom.y, cfg))

    def test_each_block_shape_is_bound_once_per_descent(self, monkeypatch):
        """800 rows at batch 300 are blocks of 300, 300 and 200 rows: two shapes, so
        two binds over all epochs, and one bound step per block."""
        dom = _noisy_domain("train", 800, 7)
        steps = []
        binds = _watch_steps(monkeypatch, lambda ws: steps.append(ws.x.shape[1]))
        fit_stack([dom.x], [dom.y], [TrainConfig(epochs=4, batch_size=300)])
        assert [ws.x.shape[1] for ws in binds] == [300, 200]
        assert steps == [300, 300, 200] * 4

    @pytest.mark.parametrize(
        "x, y, error",
        [
            ([[0.0, 1.0], [np.nan, 0.0], [1.0, 1.0]], [0, 1, 0], DataError),
            ([0.0, 1.0, 2.0], [0, 1, 0], ShapeError),
            (np.zeros((3, 0)), [0, 1, 0], ShapeError),
            ([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], [0, 1], ShapeError),
            ([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], [0, np.nan, 1], DataError),
            ([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], [0, 1, np.inf], DataError),
            ([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], [0, 2, 1], DataError),
        ],
        ids=[
            "nan-row", "one-dimensional", "zero-width", "label-count",
            "nan-label", "inf-label", "label-above-one",
        ],
    )
    def test_bad_input_rejected_before_any_step(self, monkeypatch, x, y, error):
        def no_descent(*args):
            raise AssertionError("the descent started on bad input")

        monkeypatch.setattr(training, "descend", no_descent)
        with pytest.raises(error):
            fit_stack([np.asarray(x)], [np.asarray(y)], [TrainConfig(epochs=2, batch_size=2)])


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 4),
    rows=st.integers(3, 40),
    arch=st.sampled_from([((2,), 1), ((8, 4), 2), ((1,), 1), ((4, 1), 2)]),
    batch_size=st.integers(2, 48),
    shared_seed=st.booleans(),
    shared_data=st.booleans(),
)
def test_stack_matches_separate_fits(m, rows, arch, batch_size, shared_seed, shared_data):
    """Every model of a stack is byte for byte its fit alone, with a short last
    batch whenever ``batch_size`` does not divide ``rows``."""
    hidden, rep = arch
    data_seeds = [11] * m if shared_data else [11 + i for i in range(m)]
    doms = [_noisy_domain("train", rows, s) for s in data_seeds]
    cfgs = [
        TrainConfig(
            beta=0.05, epochs=6, batch_size=batch_size, seed=4 if shared_seed else 4 + i,
            hidden_dims=hidden, rep_layer_index=rep,
        )
        for i in range(m)
    ]
    models = fit_stack([d.x for d in doms], [d.y for d in doms], cfgs)
    assert len(models) == m
    for model, dom, cfg in zip(models, doms, cfgs):
        _assert_same_bytes(model, ref_fit_minibatch(dom.x, dom.y, cfg))


_FIT = st.tuples(
    st.sampled_from(["plain", "mixup-fixed", "mixup-beta", "groupdro"]),
    st.integers(0, 1),  # which of the drawn configs
    st.integers(0, 3),  # seed
    st.floats(0.0, 1.0),  # fixed mixing ratio, or GroupDRO's eta
    st.tuples(st.floats(0.2, 4.0), st.floats(0.2, 4.0)),  # Beta shape
    st.one_of(st.none(), st.integers(3, 60)),  # rows of a plain or mixup fit
)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(3, 24), min_size=2, max_size=4),
    configs=st.lists(
        st.tuples(
            st.sampled_from([((2,), 1), ((8, 4), 2), ((1,), 1), ((4, 1), 2)]),
            st.integers(2, 20),  # batch size
            st.integers(1, 3),  # epochs
        ),
        min_size=2,
        max_size=2,
    ),
    fits=st.lists(_FIT, min_size=2, max_size=6),
)
def test_drawn_plain_mixup_and_groupdro_fits_stack_as_each_alone(sizes, configs, fits):
    """One ``fit_stack`` call over drawn plain, mixup (fixed ratio or Beta) and GroupDRO
    fits, each under one of two drawn configs and one of four seeds.  GroupDRO runs
    over a ragged set of 2-4 domains; a plain or mixup fit has its own rows, drawn or
    as many as make GroupDRO's blocks under its config, so that fits of every kind
    share descents and some do not.  Every model, and every GroupDRO fit's (step, q,
    losses), has the bytes of its reference trained alone."""
    ds = DomainSet(tuple(_noisy_domain(f"d{i}", n, 20 + i) for i, n in enumerate(sizes)))
    data, cfgs, rules, steps = [], [], [], []
    for kind, which, seed, ratio, shape, rows in fits:
        (hidden, rep), batch_size, epochs = configs[which]
        cfgs.append(
            TrainConfig(
                beta=0.05, epochs=epochs, batch_size=batch_size, seed=seed,
                hidden_dims=hidden, rep_layer_index=rep,
            )
        )
        steps.append([])
        if kind == "groupdro":
            data.append(ds)
            rules.append(
                training.GroupDroRule(tuple(sizes), ratio, lambda *a, seen=steps[-1]: seen.append(a))
            )
            continue
        if rows is None:
            rows = -(-max(sizes) // batch_size) * batch_size
        data.append(DomainSet((_noisy_domain("p", rows, rows),)))
        rules.append(None if kind == "plain" else MixupConfig(shape, ratio if kind == "mixup-fixed" else None))
    pools = [d.pooled() for d in data]
    models = fit_stack([p.x for p in pools], [p.y for p in pools], cfgs, rules)
    for model, cfg, rule, d, pooled, got in zip(models, cfgs, rules, data, pools, steps):
        want = []
        if isinstance(rule, training.GroupDroRule):
            ref = ref_train_groupdro(d, cfg, rule.eta, lambda *a: want.append(a))
        elif rule is None:
            ref = ref_fit_minibatch(pooled.x, pooled.y, cfg)
        else:
            ref = ref_train_mixup(d, cfg, rule)
        _assert_same_bytes(model, ref)
        assert len(got) == len(want)
        for (s, q, losses), (s_ref, q_ref, losses_ref) in zip(got, want):
            assert s == s_ref
            assert q.tobytes() == q_ref.tobytes()
            assert losses.tobytes() == losses_ref.tobytes()


class TestFitStack:
    def test_mixed_keys_come_back_in_input_order(self):
        # rows 30, 40, 30, 30 (other epochs), 40: three stacks, interleaved
        shapes = [(30, 5, 1), (40, 5, 2), (30, 5, 3), (30, 7, 4), (40, 5, 5)]
        doms = [_noisy_domain("d", rows, seed) for rows, _, seed in shapes]
        cfgs = [TrainConfig(beta=0.05, epochs=e, batch_size=16, seed=s) for _, e, s in shapes]
        models = fit_stack([d.x for d in doms], [d.y for d in doms], cfgs)
        for model, dom, cfg in zip(models, doms, cfgs):
            _assert_same_bytes(model, ref_fit_minibatch(dom.x, dom.y, cfg))

    def test_diverged_fit_is_named_by_its_seed(self):
        ok = np.random.default_rng(1).normal(size=(20, 4))
        # inputs near the float64 limit overflow the first layer under seed 23's init
        huge = np.full((20, 4), 1e308)
        y = np.arange(20) % 2
        cfgs = [TrainConfig(epochs=3, batch_size=8, seed=s) for s in (17, 23, 31)]
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="with seed 23 "):
            fit_stack([ok, huge, ok], [y, y, y], cfgs)

    def test_plain_and_mixup_fits_share_one_stack(self, monkeypatch):
        """Two seeds, each with a plain fit and a mixup fit (one with a fixed ratio, one
        drawing from a Beta), train as one descent; each model is its fit alone."""
        pooled = _three_domains().pooled()  # 110 rows: a short last batch of 14
        cfgs = [TrainConfig(beta=0.05, epochs=12, batch_size=16, seed=s) for s in (2, 5, 2, 5)]
        mixups = [
            None,
            None,
            MixupConfig(fixed_lambda=0.3),
            MixupConfig(beta_shape=(0.5, 3.0)),
        ]
        stacks = []
        descend = training.descend

        def recording(data, cfg, seeds, *args):
            stacks.append(list(seeds))
            return descend(data, cfg, seeds, *args)

        monkeypatch.setattr(training, "descend", recording)
        models = fit_stack([pooled.x] * 4, [pooled.y] * 4, cfgs, mixups)
        assert stacks == [[2, 5, 2, 5]]
        monkeypatch.setattr(training, "descend", descend)
        ds = DomainSet((pooled,))
        for model, cfg, mixup in zip(models, cfgs, mixups):
            if mixup is None:
                alone = fit_stack([pooled.x], [pooled.y], [cfg])[0]
            else:
                alone = train_mixup(ds, cfg, mixup)
            assert np.array_equal(model.params, alone.params)
        assert not np.array_equal(models[0].params, models[2].params)

    def test_plain_mixup_and_groupdro_fits_stack_by_step_blocks(self, monkeypatch):
        """One call of plain, mixup and GroupDRO fits over two seeds.  At batch 16 a
        64-row fit and GroupDRO over the 37/52/21 or 37/52 domains both take four
        16-row blocks per epoch, so they share one descent, each GroupDRO fit one
        row per domain; the 110 pooled rows (a short last block) and GroupDRO over
        37/21 (three blocks) do not.  Every model is byte for byte its reference,
        and every GroupDRO fit reports the reference's (step, q, losses)."""
        three = _three_domains()
        domains = {
            "three": three,
            "two": DomainSet(three.domains[:2]),
            "uneven-pair": DomainSet((three.domains[0], three.domains[2])),
        }
        rows64 = _noisy_domain("p", 64, 4)
        pooled = three.pooled()
        # (seed, data, rule): "plain" and "mixup" are fits on one set of rows,
        # a domains key is GroupDRO over those domains at that eta
        fits = [
            (2, rows64, None),
            (5, rows64, MixupConfig(beta_shape=(0.5, 3.0))),
            (2, "three", 0.5),
            (5, "two", 0.01),
            (5, "three", 0.01),
            (2, pooled, None),
            (2, "uneven-pair", 1.0),
        ]
        cfgs = [TrainConfig(beta=0.05, epochs=8, batch_size=16, seed=seed) for seed, _, _ in fits]
        xs, ys, rules, steps = [], [], [], []
        for seed, data, rule in fits:
            if isinstance(data, str):
                ds = domains[data]
                steps.append([])
                rule = training.GroupDroRule(
                    tuple(len(d) for d in ds.domains), rule, lambda *a, seen=steps[-1]: seen.append(a)
                )
                data = ds.pooled()
            xs.append(data.x)
            ys.append(data.y)
            rules.append(rule)
        stacks = []
        descend = training.descend

        def recording(data, cfg, seeds, *args):
            stacks.append(list(seeds))
            return descend(data, cfg, seeds, *args)

        heights = set()
        monkeypatch.setattr(training, "descend", recording)
        _watch_steps(monkeypatch, lambda ws: heights.add(ws.x.shape[0]))
        models = fit_stack(xs, ys, cfgs, rules)
        assert stacks == [[2, 5, 2, 5, 5], [2], [2]]
        assert heights == {1 + 1 + 3 + 2 + 3, 1, 2}  # stack rows: a GroupDRO fit has one per domain
        dro_steps = iter(steps)
        for model, cfg, (_, data, rule), x, y in zip(models, cfgs, fits, xs, ys):
            if isinstance(data, str):
                want = []
                ref = ref_train_groupdro(domains[data], cfg, rule, lambda *a: want.append(a))
                got = next(dro_steps)
                assert len(got) == len(want) == 8 * (3 if data == "uneven-pair" else 4)
                for (s, q, losses), (s_ref, q_ref, losses_ref) in zip(got, want):
                    assert s == s_ref
                    assert q.tobytes() == q_ref.tobytes()
                    assert losses.tobytes() == losses_ref.tobytes()
            elif rule is None:
                ref = ref_fit_minibatch(x, y, cfg)
            else:
                ref = ref_train_mixup(DomainSet((data,)), cfg, rule)
            _assert_same_bytes(model, ref)

    def test_groupdro_sizes_must_split_the_rows(self):
        pooled = _three_domains().pooled()
        with pytest.raises(ShapeError, match="do not split 110 rows"):
            fit_stack([pooled.x], [pooled.y], [TrainConfig()], [training.GroupDroRule((37, 52))])

    def test_mismatched_lengths_rejected(self):
        dom = _noisy_domain("d", 10, 1)
        with pytest.raises(ShapeError):
            fit_stack([dom.x, dom.x], [dom.y], [TrainConfig(), TrainConfig(seed=1)])
        with pytest.raises(ShapeError):
            fit_stack([dom.x], [dom.y], [TrainConfig()], [None, MixupConfig()])


# (fixed_lambda, batch_size) of mixup runs on the 110 pooled rows of the three
# domains; the mix buffers are kept per batch row count.
MIXUP_CASES = {
    "beta-drawn": (None, 16),
    "fixed": (0.3, 16),
    "one-row-last-batch": (None, 109),
    "batch-larger-than-pooled": (0.3, 128),
}


class TestTrainMixupOracle:
    @pytest.mark.parametrize(
        "fixed_lambda, batch_size", list(MIXUP_CASES.values()), ids=list(MIXUP_CASES)
    )
    def test_bit_identical(self, fixed_lambda, batch_size):
        ds = _three_domains()
        cfg = TrainConfig(beta=0.05, epochs=15, batch_size=batch_size, seed=2)
        mixup = MixupConfig(beta_shape=(2.0, 2.0), fixed_lambda=fixed_lambda)
        _assert_same_bytes(train_mixup(ds, cfg, mixup), ref_train_mixup(ds, cfg, mixup))

    def test_non_finite_mixed_batch_is_data_error(self, monkeypatch):
        """A mixed batch is checked before its step: a non-finite one is a ``DataError``
        and no model comes back.  Ratios in [0, 1] do not make rows of finite values
        overflow: a search over two million random ratios, and ratios whose ``1 - lam``
        rounds up, on rows at the float maximum found none.  So the draw is replaced by
        ratios of 3, past the range, on rows near the maximum with one sign."""
        draws = []

        def past_one(mixup, rng, n):
            draws.append(n)
            return np.full(n, 3.0)

        monkeypatch.setattr(training, "draw_lambdas", past_one)
        x, y = np.full((20, 2), 1e308), np.arange(20) % 2
        cfg = TrainConfig(epochs=2, batch_size=8)
        models = None
        with pytest.raises(DataError, match="non-finite value in model input"):
            models = fit_stack([x], [y], [cfg], [MixupConfig(fixed_lambda=0.1)])
        assert models is None
        assert draws == [8]  # the first step's batch


# (domain count, hidden_dims, rep_layer_index, batch_size, steps per epoch, eta) of
# GroupDRO runs on the first K of the 37-, 52- and 21-row domains.
GROUPDRO_CASES = {
    "three-domains-eta-0.01": (3, (4,), 1, 16, 4, 0.01),
    "three-domains-eta-1": (3, (4,), 1, 16, 4, 1.0),
    "two-hidden-layers": (3, (5, 3), 2, 16, 4, 0.01),
    "batch-larger-than-every-domain": (3, (4,), 1, 64, 1, 0.01),
    "two-domains": (2, (4,), 1, 16, 4, 0.01),
    "width-1-hidden": (3, (1,), 1, 16, 4, 0.01),
    "width-1-top-hidden": (3, (4, 1), 2, 16, 4, 0.01),
}


class TestTrainGroupDroOracle:
    @pytest.mark.parametrize(
        "k, hidden, rep, batch_size, steps_per_epoch, eta",
        list(GROUPDRO_CASES.values()),
        ids=list(GROUPDRO_CASES),
    )
    def test_bit_identical_with_same_step_sequence(
        self, k, hidden, rep, batch_size, steps_per_epoch, eta
    ):
        ds = DomainSet(_three_domains().domains[:k])
        cfg = TrainConfig(
            beta=0.05, epochs=15, batch_size=batch_size, seed=3, hidden_dims=hidden, rep_layer_index=rep
        )
        got_steps, want_steps = [], []
        model = train_groupdro(ds, cfg, eta=eta, on_step=lambda *a: got_steps.append(a))
        ref = ref_train_groupdro(ds, cfg, eta, lambda *a: want_steps.append(a))
        _assert_same_bytes(model, ref)
        assert len(got_steps) == len(want_steps) == 15 * steps_per_epoch
        for (s, q, losses), (s_ref, q_ref, losses_ref) in zip(got_steps, want_steps):
            assert s == s_ref
            assert q.shape == losses.shape == (k,)
            assert q.tobytes() == q_ref.tobytes()
            assert losses.tobytes() == losses_ref.tobytes()

    @pytest.mark.parametrize("k", [2, 3])
    def test_one_forward_per_step_whatever_k(self, monkeypatch, k):
        """Every step runs the K domains' batches through one kernel call."""
        forwards = []
        _watch_steps(monkeypatch, lambda ws: forwards.append(ws.x.shape[0]))
        ds = DomainSet(_three_domains().domains[:k])
        cfg = TrainConfig(beta=0.05, epochs=3, batch_size=16, seed=3)
        steps = []
        train_groupdro(ds, cfg, eta=0.01, on_step=lambda *a: steps.append(a))
        assert len(steps) == 3 * 4
        assert forwards == [k] * len(steps)


class TestTrainConfig:
    @pytest.mark.parametrize("beta", [np.inf, np.nan])
    def test_rejects_non_finite_beta(self, beta):
        with pytest.raises(ConfigError, match="beta"):
            TrainConfig(beta=beta)

    @pytest.mark.parametrize(
        "hidden_dims, rep_layer_index, match",
        [
            ((), 1, "hidden_dims"),
            ((4, 0), 1, "hidden_dims"),
            ((4,), 0, "rep_layer_index"),
            ((4,), 2, "rep_layer_index"),
            ((8, 4), 3, "rep_layer_index"),
        ],
    )
    def test_rejects_bad_architecture(self, hidden_dims, rep_layer_index, match):
        with pytest.raises(ConfigError, match=match):
            TrainConfig(hidden_dims=hidden_dims, rep_layer_index=rep_layer_index)
