"""Plain-text model persistence.

Header carries the layer dimensions and representation index; matrices follow
row-major with 17-significant-digit decimals, which round-trips float64
exactly across platforms.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .data import read_text
from .errors import ConfigError, DataError
from .nn import MlpModel, flatten_params


def save_model(model: MlpModel, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["mlp v1"]
    lines.append("dims " + ",".join(str(d) for d in model.layer_dims))
    lines.append(f"rep {model.rep_layer_index}")
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        lines.append(f"W{k} {w.shape[0]} {w.shape[1]}")
        for row in w:
            lines.append(" ".join("%.17g" % v for v in row))
        lines.append(f"b{k} {b.shape[0]}")
        lines.append(" ".join("%.17g" % v for v in b))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> MlpModel:
    path = Path(path)
    lines = read_text(path).splitlines()
    try:
        if lines[0].strip() != "mlp v1":
            raise DataError(f"{path}: unsupported model format header {lines[0]!r}")
        dims = tuple(int(v) for v in lines[1].split()[1].split(","))
        rep = int(lines[2].split()[1])
        pos = 3
        weights = []
        biases = []
        for k in range(len(dims) - 1):
            _, rows_s, cols_s = lines[pos].split()
            rows, cols = int(rows_s), int(cols_s)
            if (rows, cols) != dims[k : k + 2]:
                raise DataError(f"{path}: block W{k} is {rows}x{cols}, dims say {dims[k : k + 2]}")
            pos += 1
            w = np.array(
                [[float(v) for v in lines[pos + r].split()] for r in range(rows)]
            )
            if w.shape != (rows, cols):
                raise DataError(f"{path}: malformed weight block W{k}")
            if not np.isfinite(w).all():
                raise DataError(f"{path}: non-finite value in weight block W{k}")
            pos += rows
            n_b = int(lines[pos].split()[1])
            pos += 1
            b = np.array([float(v) for v in lines[pos].split()])
            if n_b != cols or b.shape != (n_b,):
                raise DataError(f"{path}: malformed bias block b{k}")
            if not np.isfinite(b).all():
                raise DataError(f"{path}: non-finite value in bias block b{k}")
            pos += 1
            weights.append(w)
            biases.append(b)
        return MlpModel(dims, flatten_params(weights, biases), rep)
    except (ConfigError, IndexError, ValueError) as exc:
        raise DataError(f"{path}: malformed model file ({exc})") from None
