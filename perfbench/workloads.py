"""Benchmark workloads: seeded inputs, CLI arguments and output checks.

Each workload writes its config (and CSV data, where it has any) from an
input seed before timing starts; the CLI receives only those files.  The
checks read the outputs through gradframe's public API and hold when the
numerics move in the last digits.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """An output file is missing or wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _json(path: Path) -> dict:
    _require(path.exists(), f"missing output {path.name}")
    return json.loads(path.read_text(encoding="utf-8"))


def _csv_rows(path: Path) -> list[dict[str, str]]:
    _require(path.exists(), f"missing output {path.name}")
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _write_config(path: Path, values: dict[str, object]) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")


def _strip_timestamps(payload):
    if isinstance(payload, dict):
        return {k: _strip_timestamps(v) for k, v in payload.items() if k != "timestamp"}
    if isinstance(payload, list):
        return [_strip_timestamps(v) for v in payload]
    return payload


def output_digest(out: Path) -> str:
    """Hash of every output file, with each JSON report's timestamp removed."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.suffix == ".json":
            payload = _strip_timestamps(json.loads(data))
            data = json.dumps(payload, sort_keys=True).encode()
        h.update(path.relative_to(out).as_posix().encode() + b"\0" + data + b"\0")
    return h.hexdigest()


# --- simulation workloads -------------------------------------------------


def _train_sim_inputs(work: Path, seed: int, out: Path) -> list[str]:
    cfg = work / "train.cfg"
    _write_config(cfg, {"dataset.kind": "simulate", "seed": seed, "output.dir": out})
    return ["train", "--config", str(cfg)]


def _check_train(work: Path, seed: int, out: Path) -> float:
    import gradframe as gf
    from gradframe.data import Standardization, apply_standardization
    from gradframe.model_io import load_model

    report = _json(out / "train_report.json")
    model = load_model(out / "model.txt")
    lines = (out / "scaler.txt").read_text(encoding="utf-8").splitlines()
    scaler = Standardization(
        mean=np.array([float(v) for v in lines[0].split()]),
        std=np.array([float(v) for v in lines[1].split()]),
    )
    target = apply_standardization(gf.simulation_target(seed), scaler)
    recomputed = gf.evaluate(model, target).auroc
    reported = report["eval_target"]["auroc"]
    _require(
        math.isclose(recomputed, reported, rel_tol=0.0, abs_tol=1e-12),
        f"target AUROC {reported} in the report, {recomputed} from model.txt",
    )
    source = gf.simulation_source(seed)
    labels = {
        (d.id, i): int(y) for d in source.domains for i, y in enumerate(d.label_vector())
    }
    rows = _csv_rows(out / "fictitious.csv")
    _require(len(rows) == len(labels), f"{len(rows)} fictitious rows for {len(labels)} points")
    for row in rows:
        origin = (row["origin_domain"], int(row["origin_index"]))
        _require(origin in labels, f"fictitious row from unknown origin {origin}")
        _require(int(row["y_star"]) == labels[origin], f"label flipped for origin {origin}")
    return float(reported)


COMPARE_METHODS = ("erm", "mixup", "groupdro")


def _baselines_sim_inputs(work: Path, seed: int, out: Path) -> list[str]:
    cfg = work / "compare.cfg"
    _write_config(
        cfg,
        {
            "dataset.kind": "simulate",
            "compare.methods": ",".join(COMPARE_METHODS),
            "seeds": seed,
            # half the default epochs keeps one run near 3 s; the three
            # loops' shares of the run do not depend on the epoch count
            "train.epochs": 2500,
            "output.dir": out,
        },
    )
    return ["compare", "--config", str(cfg)]


def _check_compare(work: Path, seed: int, out: Path) -> float:
    rows = _csv_rows(out / "compare_matrix.csv")
    _require(
        sorted((r["method"], r["seed"]) for r in rows)
        == sorted((m, str(seed)) for m in COMPARE_METHODS),
        "compare matrix is not methods x seeds",
    )
    scores = [float(r["auroc"]) for r in rows]
    _require(all(0.0 <= s <= 1.0 for s in scores), f"AUROC outside [0, 1]: {scores}")
    _json(out / "compare_report.json")
    return float(np.mean(scores))


# --- CSV workloads ---------------------------------------------------------

N_FEATURES = 6
SHIFT_DOMAINS = 3
SHIFT_ROWS_PER_DOMAIN = 500
SELECTK_ROWS = 300
SELECTK_KEYS = 12


def _write_csv(path: Path, header: list[str], rows: list[list[object]]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _labels(rng: np.random.Generator, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Noisy linear labels, balanced by thresholding at the median score."""
    score = x @ w + 0.5 * rng.standard_normal(x.shape[0])
    return (score > np.median(score)).astype(int)


def _shift_csv_inputs(work: Path, seed: int, out: Path) -> list[str]:
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(N_FEATURES)
    rows = []
    for k in range(SHIFT_DOMAINS):
        # each domain moves the inputs and tilts the labelling rule
        x = rng.standard_normal((SHIFT_ROWS_PER_DOMAIN, N_FEATURES)) + 0.5 * k
        y = _labels(rng, x, w + 0.5 * k * rng.standard_normal(N_FEATURES))
        rows += [["%.17g" % v for v in xi] + [yi, f"D{k + 1}"] for xi, yi in zip(x, y)]
    data = work / "shift.csv"
    features = [f"x{j}" for j in range(N_FEATURES)]
    _write_csv(data, features + ["label", "domain"], rows)
    cfg = work / "shift.cfg"
    _write_config(
        cfg,
        {
            "dataset.kind": "csv",
            "data.source_csv": data,
            "train.epochs": 100,
            "train.batch_size": 500,
            "seed": seed,
            "output.dir": out,
        },
    )
    return ["shift-report", "--config", str(cfg)]


def _check_shift(work: Path, seed: int, out: Path) -> float | None:
    import jsonschema
    from gradframe.shift import SHIFT_REPORT_SCHEMA

    report = _json(out / "shift_report.json")
    jsonschema.validate(report, SHIFT_REPORT_SCHEMA)
    n = SHIFT_DOMAINS * SHIFT_ROWS_PER_DOMAIN
    for key in ("covariate_ratios", "concept_deltas"):
        values = report[key]
        _require(len(values) == n, f"{len(values)} {key} for {n} source rows")
        _require(all(math.isfinite(v) for v in values), f"non-finite value in {key}")
    _require((out / "shift_series.csv").exists(), "missing output shift_series.csv")
    return None


SELECTK_CANDIDATES = (2, 3, 4)


def _selectk_csv_inputs(work: Path, seed: int, out: Path) -> list[str]:
    rng = np.random.default_rng(seed)
    w_start, w_end = rng.standard_normal((2, N_FEATURES))
    per_key = SELECTK_ROWS // SELECTK_KEYS
    rows = []
    for month in range(1, SELECTK_KEYS + 1):
        # the labelling rule drifts with the key, so coarse and fine splits
        # attribute the prediction to the features differently
        t = (month - 1) / (SELECTK_KEYS - 1)
        x = rng.standard_normal((per_key, N_FEATURES))
        y = _labels(rng, x, (1 - t) * w_start + t * w_end)
        rows += [["%.17g" % v for v in xi] + [yi, month] for xi, yi in zip(x, y)]
    data = work / "keyed.csv"
    features = [f"x{j}" for j in range(N_FEATURES)]
    _write_csv(data, features + ["label", "month"], rows)
    cfg = work / "selectk.cfg"
    _write_config(
        cfg,
        {
            "dataset.kind": "csv",
            "data.source_csv": data,
            "csv.feature_columns": ",".join(features),
            "csv.domain_column": "",
            "select_k.key_column": "month",
            "select_k.candidates": ",".join(map(str, SELECTK_CANDIDATES)),
            "select_k.m_samples": 64,
            "train.epochs": 200,
            "seed": seed,
            "output.dir": out,
        },
    )
    return ["select-k", "--config", str(cfg)]


def _check_selectk(work: Path, seed: int, out: Path) -> float | None:
    table = {int(r["k"]): float(r["avg_p_value"]) for r in _csv_rows(out / "k_table.csv")}
    _require(sorted(table) == list(SELECTK_CANDIDATES), f"k_table rows {sorted(table)}")
    best = min(table, key=lambda k: (table[k], k))
    selection = _json(out / "selection.json")
    _require(selection["best_k"] == best, f"best_k {selection['best_k']}, argmin {best}")
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[Path, int, Path], list[str]]
    # raises CheckFailed; returns the target AUROC, None when there is none
    check: Callable[[Path, int, Path], float | None]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-sim",
            "the paper's pipeline on the canonical simulation: ascent and the Adam loop, "
            "no shift or CSV work",
            _train_sim_inputs,
            _check_train,
        ),
        Workload(
            "baselines-sim",
            "ERM, mixup and GroupDRO on the simulation: three training loops and no ascent, "
            "the bypass case for ascent changes",
            _baselines_sim_inputs,
            _check_compare,
        ),
        Workload(
            "shift-csv",
            "shift-report on a 3-domain CSV: the only KDE and peak-memory workload, ascent "
            "on 3.75x the points of train-sim",
            _shift_csv_inputs,
            _check_shift,
        ),
        Workload(
            "selectk-csv",
            "select-k on a CSV with a 12-value month key: Shapley attribution dominates, "
            "no other workload runs it",
            _selectk_csv_inputs,
            _check_selectk,
        ),
    )
}
