"""Flat key-value experiment configuration.

Config files are plain text: one ``key = value`` per line, ``#`` comments,
dotted section keys (e.g. ``ascent.alpha``).  Unknown keys are rejected so
typos fail fast.  ``render_config`` writes the fully-resolved form back out;
re-running from that echo reproduces the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .core import AscentConfig, PenaltyParams
from .data import CsvSchema, read_text
from .errors import ConfigError
from .training import TrainConfig

# Canonical two-domain simulation protocol: full-batch training to a
# saturated fit, light pretraining so ascent gradients stay alive.
SIM_TRAIN = dict(beta=0.01, epochs=5000, batch_size=400, pretrain_epochs=50)
SIM_ASCENT = dict(alpha=1.0, max_steps=15, rel_tolerance=1e-4, min_steps=3)

DEFAULTS: dict[str, str] = {
    "dataset.kind": "simulate",
    "data.source_csv": "",
    "data.target_csv": "",
    "data.standardize": "true",
    "csv.label_column": "label",
    "csv.domain_column": "domain",
    "csv.feature_columns": "",
    "simulate.points_per_blob": "100",
    "simulate.target.points_per_blob": "50",
    "simulate.boundary.a": "-1",
    "simulate.boundary.b": "0",
    "simulate.target.boundary.a": "-2",
    "simulate.target.boundary.b": "0",
    "method": "gradframe",
    "penalty.gamma1": "1",
    "penalty.gamma2": "10",
    "ascent.alpha": str(SIM_ASCENT["alpha"]),
    "ascent.max_steps": str(SIM_ASCENT["max_steps"]),
    "ascent.rel_tolerance": str(SIM_ASCENT["rel_tolerance"]),
    "ascent.min_steps": str(SIM_ASCENT["min_steps"]),
    "train.beta": str(SIM_TRAIN["beta"]),
    "train.epochs": str(SIM_TRAIN["epochs"]),
    "train.batch_size": str(SIM_TRAIN["batch_size"]),
    "train.pretrain_epochs": str(SIM_TRAIN["pretrain_epochs"]),
    "train.hidden_dims": "2",
    "train.rep_layer_index": "1",
    "mixup.beta_shape": "2,2",
    "mixup.fixed_lambda": "",
    "groupdro.eta": "0.01",
    "grid.gamma1_values": "0.1,1",
    "grid.gamma2_values": "0.1,10",
    "grid.pairs": "",
    "select_k.candidates": "2,3,4",
    "select_k.key_column": "key",
    "select_k.m_samples": "64",
    "shift.sweep": "",
    "shift.sweep_values": "0.1,1,10",
    "compare.methods": "erm,gradframe",
    "seed": "0",
    "seeds": "0,1,2,3,4,5,6,7,8,9",
    "output.dir": "out",
}

METHODS = ("erm", "mixup", "groupdro", "gradframe")


def parse_config_file(path: str | Path) -> dict[str, str]:
    path = Path(path)
    values: dict[str, str] = {}
    for line_no, raw in enumerate(read_text(path, ConfigError).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def render_config(values: dict[str, str]) -> str:
    lines = [f"{key} = {values[key]}" for key in sorted(values)]
    return "\n".join(lines) + "\n"


def _as_float(values: dict[str, str], key: str) -> float:
    try:
        return float(values[key])
    except ValueError:
        raise ConfigError(f"config key {key!r}: expected a number, got {values[key]!r}") from None


def _as_int(values: dict[str, str], key: str) -> int:
    try:
        return int(values[key])
    except ValueError:
        raise ConfigError(f"config key {key!r}: expected an integer, got {values[key]!r}") from None


def _as_bool(values: dict[str, str], key: str) -> bool:
    v = values[key].lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise ConfigError(f"config key {key!r}: expected true/false, got {values[key]!r}")


def _as_float_list(values: dict[str, str], key: str) -> list[float]:
    raw = values[key].strip()
    if not raw:
        return []
    try:
        return [float(v) for v in raw.split(",")]
    except ValueError:
        raise ConfigError(f"config key {key!r}: expected comma-separated numbers") from None


def _as_int_list(values: dict[str, str], key: str) -> list[int]:
    raw = values[key].strip()
    if not raw:
        return []
    try:
        return [int(v) for v in raw.split(",")]
    except ValueError:
        raise ConfigError(f"config key {key!r}: expected comma-separated integers") from None


@dataclass
class ExperimentConfig:
    """Typed view over the resolved flat key-value mapping."""

    values: dict[str, str] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | Path, overrides: dict[str, str] | None = None) -> "ExperimentConfig":
        values = dict(DEFAULTS)
        values.update(parse_config_file(path))
        if overrides:
            for key, value in overrides.items():
                if key not in DEFAULTS:
                    raise ConfigError(f"unknown config key {key!r}")
                values[key] = value
        cfg = cls(values=values)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.values["dataset.kind"] not in ("simulate", "csv"):
            raise ConfigError(
                f"config key 'dataset.kind': expected simulate or csv, got "
                f"{self.values['dataset.kind']!r}"
            )
        if self.values["method"] not in METHODS:
            raise ConfigError(
                f"config key 'method': expected one of {METHODS}, got {self.values['method']!r}"
            )
        self.train_config()
        self.ascent_config()
        self.penalties()

    @property
    def seed(self) -> int:
        return _as_int(self.values, "seed")

    @property
    def seeds(self) -> list[int]:
        seeds = _as_int_list(self.values, "seeds")
        if not seeds:
            raise ConfigError("config key 'seeds' must list at least one seed")
        return seeds

    @property
    def method(self) -> str:
        return self.values["method"]

    @property
    def standardize(self) -> bool:
        return _as_bool(self.values, "data.standardize")

    def train_config(self, seed: int | None = None) -> TrainConfig:
        hidden = _as_int_list(self.values, "train.hidden_dims")
        if not hidden:
            raise ConfigError("config key 'train.hidden_dims' must list at least one layer")
        return TrainConfig(
            beta=_as_float(self.values, "train.beta"),
            epochs=_as_int(self.values, "train.epochs"),
            batch_size=_as_int(self.values, "train.batch_size"),
            seed=self.seed if seed is None else seed,
            pretrain_epochs=_as_int(self.values, "train.pretrain_epochs"),
            hidden_dims=tuple(hidden),
            rep_layer_index=_as_int(self.values, "train.rep_layer_index"),
        )

    def ascent_config(self) -> AscentConfig:
        return AscentConfig(
            alpha=_as_float(self.values, "ascent.alpha"),
            max_steps=_as_int(self.values, "ascent.max_steps"),
            rel_tolerance=_as_float(self.values, "ascent.rel_tolerance"),
            min_steps=_as_int(self.values, "ascent.min_steps"),
        )

    def penalties(self) -> PenaltyParams:
        return PenaltyParams(
            gamma1=_as_float(self.values, "penalty.gamma1"),
            gamma2=_as_float(self.values, "penalty.gamma2"),
        )

    def csv_schema(self) -> CsvSchema:
        feature_cols = self.values["csv.feature_columns"].strip()
        domain_col = self.values["csv.domain_column"].strip()
        return CsvSchema(
            label_column=self.values["csv.label_column"],
            domain_column=domain_col or None,
            feature_columns=tuple(c.strip() for c in feature_cols.split(",")) if feature_cols else None,
        )

    def grid_pairs(self) -> list[tuple[float, float]]:
        raw_pairs = self.values["grid.pairs"].strip()
        if raw_pairs:
            pairs = []
            for part in raw_pairs.split(";"):
                try:
                    g1, g2 = part.split(":")
                    pairs.append((float(g1), float(g2)))
                except ValueError:
                    raise ConfigError(
                        "config key 'grid.pairs': expected 'g1:g2;g1:g2;...'"
                    ) from None
            return pairs
        from itertools import product

        g1s = _as_float_list(self.values, "grid.gamma1_values")
        g2s = _as_float_list(self.values, "grid.gamma2_values")
        if not g1s or not g2s:
            raise ConfigError("grid.gamma1_values and grid.gamma2_values must be non-empty")
        return list(product(g1s, g2s))

    def mixup_config(self, seed: int):
        from .baselines import MixupConfig

        shape = _as_float_list(self.values, "mixup.beta_shape")
        if len(shape) != 2:
            raise ConfigError("config key 'mixup.beta_shape': expected two numbers")
        fixed = self.values["mixup.fixed_lambda"].strip()
        return MixupConfig(
            beta_shape=(shape[0], shape[1]),
            seed=seed,
            fixed_lambda=_as_float(self.values, "mixup.fixed_lambda") if fixed else None,
        )

    @property
    def groupdro_eta(self) -> float:
        return _as_float(self.values, "groupdro.eta")

    @property
    def select_k_candidates(self) -> list[int]:
        ks = _as_int_list(self.values, "select_k.candidates")
        if len(ks) < 2:
            raise ConfigError("config key 'select_k.candidates' needs at least two values")
        return ks

    @property
    def select_k_m_samples(self) -> int:
        m = _as_int(self.values, "select_k.m_samples")
        if m < 1:
            raise ConfigError(f"config key 'select_k.m_samples' must be >= 1, got {m}")
        return m

    @property
    def shift_sweep_values(self) -> list[float]:
        values = _as_float_list(self.values, "shift.sweep_values")
        if not values:
            raise ConfigError("config key 'shift.sweep_values' must list at least one value")
        return values

    @property
    def sim_points_per_blob(self) -> int:
        return _as_int(self.values, "simulate.points_per_blob")

    @property
    def sim_target_points_per_blob(self) -> int:
        return _as_int(self.values, "simulate.target.points_per_blob")

    def sim_boundaries(self):
        from .data import Boundary

        return (
            Boundary(
                a=_as_float(self.values, "simulate.boundary.a"),
                b=_as_float(self.values, "simulate.boundary.b"),
            ),
            Boundary(
                a=_as_float(self.values, "simulate.target.boundary.a"),
                b=_as_float(self.values, "simulate.target.boundary.b"),
            ),
        )
