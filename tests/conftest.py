from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import settings

from gradframe import training
from gradframe.core import FictitiousSet
from gradframe.data import Boundary, Domain, generate_gaussian_domain
from gradframe.nn import (
    MlpModel,
    bce_loss_batch,
    flatten_params,
    param_count,
    representations_batch,
)

# a failed draw prints the ``@reproduce_failure`` blob that replays it
settings.register_profile("print-blob", print_blob=True)
settings.load_profile("print-blob")


def build_model(weights, biases, rep_layer_index=1) -> MlpModel:
    """Model with hand-set parameters; dims inferred from the weight shapes."""
    weights = [np.asarray(w, dtype=np.float64) for w in weights]
    biases = [np.asarray(b, dtype=np.float64) for b in biases]
    dims = tuple([weights[0].shape[0]] + [w.shape[1] for w in weights])
    return MlpModel(dims, flatten_params(weights, biases), rep_layer_index)


def zero_model(layer_dims, rep_layer_index=1) -> MlpModel:
    dims = tuple(layer_dims)
    return MlpModel(dims, np.zeros(param_count(dims)), rep_layer_index)


def one_row_bce(model: MlpModel, x, y) -> float:
    """``bce_loss_batch`` on the one-row matrix of the point ``x`` with target ``y``."""
    return float(bce_loss_batch(model, np.asarray(x, dtype=np.float64)[None, :], [y])[0])


def one_row_rep(model: MlpModel, x) -> np.ndarray:
    """``representations_batch`` on the one-row matrix of the point ``x``."""
    return representations_batch(model, np.asarray(x, dtype=np.float64)[None, :])[0]


def constant_prob_model(p1: float, input_dim: int = 2) -> MlpModel:
    """Zero-weight model whose output bias pins the class-1 probability."""
    m = zero_model((input_dim, 2, 2))
    biases = list(m.biases)
    logit = np.log(p1 / (1.0 - p1))
    biases[-1] = np.array([0.0, logit])
    return build_model(m.weights, biases)


def separable_blobs(domain_id: str, seed: int, n_per_blob: int = 60) -> Domain:
    """Two tight blobs on opposite sides of the diagonal labeling rule."""
    blobs = (((-2.0, -2.0), 0.2), ((2.0, 2.0), 0.2))
    return generate_gaussian_domain(domain_id, blobs, n_per_blob, Boundary(-1.0, 0.0), seed)


def domain_of_rows(domain_id: str, rows) -> Domain:
    """Domain from an iterable of (features, label) pairs, drawn in order."""
    rows = list(rows)
    return Domain(domain_id, [f for f, _ in rows], [label for _, label in rows])


def fictitious_set(domain_id: str, x_star, y_star) -> FictitiousSet:
    """Hand-made fictitious rows of one domain in origin order, each with a one-entry trace of 0."""
    n = len(x_star)
    ids = np.full(n, domain_id)
    return FictitiousSet(
        np.asarray(x_star, dtype=np.float64),
        np.asarray(y_star, dtype=np.float64),
        ids,
        np.arange(n),
        ids,
        np.zeros((n, 1)),
        np.ones(n, dtype=np.intp),
        np.zeros(n, dtype=bool),
    )


def model_text(dims, rep, values) -> str:
    """A ``mlp v1`` model file with blocks shaped by ``dims``, filled from ``values`` in turn."""
    fill = itertools.cycle(values)
    lines = ["mlp v1", "dims " + ",".join(str(d) for d in dims), f"rep {rep}"]
    for k, (rows, cols) in enumerate(zip(dims[:-1], dims[1:])):
        lines.append(f"W{k} {rows} {cols}")
        lines += [" ".join("%.17g" % next(fill) for _ in range(cols)) for _ in range(rows)]
        lines.append(f"b{k} {cols}")
        lines.append(" ".join("%.17g" % next(fill) for _ in range(cols)))
    return "\n".join(lines) + "\n"


def fd_param_grads(loss_fn, model: MlpModel, h: float = 1e-5):
    """Central finite differences of a scalar loss over every parameter."""
    g_w = []
    for k, w in enumerate(model.weights):
        g = np.zeros_like(w)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                wp = w.copy()
                wp[i, j] += h
                wm = w.copy()
                wm[i, j] -= h
                ws_p = list(model.weights)
                ws_p[k] = wp
                ws_m = list(model.weights)
                ws_m[k] = wm
                g[i, j] = (
                    loss_fn(build_model(ws_p, model.biases, model.rep_layer_index))
                    - loss_fn(build_model(ws_m, model.biases, model.rep_layer_index))
                ) / (2 * h)
        g_w.append(g)
    g_b = []
    for k, b in enumerate(model.biases):
        g = np.zeros_like(b)
        for i in range(b.shape[0]):
            bp = b.copy()
            bp[i] += h
            bm = b.copy()
            bm[i] -= h
            bs_p = list(model.biases)
            bs_p[k] = bp
            bs_m = list(model.biases)
            bs_m[k] = bm
            g[i] = (
                loss_fn(build_model(model.weights, bs_p, model.rep_layer_index))
                - loss_fn(build_model(model.weights, bs_m, model.rep_layer_index))
            ) / (2 * h)
        g_b.append(g)
    return g_w, g_b


def fd_input_grad(obj_fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    g = np.zeros_like(x)
    for d in range(x.shape[0]):
        e = np.zeros_like(x)
        e[d] = h
        g[d] = (obj_fn(x + e) - obj_fn(x - e)) / (2 * h)
    return g


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def descents(monkeypatch) -> list[list[int]]:
    """``training.descend`` patched to record each call's fit seeds, in call order."""
    seeds = []
    descend = training.descend

    def recording(fits):
        seeds.append([cfg.seed for _, _, cfg, _ in fits])
        return descend(fits)

    monkeypatch.setattr(training, "descend", recording)
    return seeds
