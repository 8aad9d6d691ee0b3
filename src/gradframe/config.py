"""Flat key-value experiment configuration.

Config files are plain text: one ``key = value`` per line, ``#`` comments,
dotted section keys (e.g. ``ascent.alpha``).  Unknown keys are rejected so
typos fail fast.  ``KEYS`` gives every key its default string and its parser;
``ExperimentConfig.load`` parses every key once and builds the library config
types from them, so a bad value is a ``ConfigError`` at load, whatever the
command.  A value is read by its key, ``cfg["data.source_csv"]``, or, under a
built section, through its type, ``cfg.train.epochs``.  ``render_config`` writes
the fully-resolved form back out; re-running from that echo reproduces the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path
from typing import Callable

from .core import AscentConfig, PenaltyParams
from .data import Boundary, CsvSchema, read_text
from .errors import ConfigError
from .training import GroupDroRule, MixupConfig, TrainConfig

# Canonical two-domain simulation protocol: full-batch training to a
# saturated fit, light pretraining so ascent gradients stay alive.
SIM_TRAIN = dict(beta=0.01, epochs=5000, batch_size=400, pretrain_epochs=50)
SIM_ASCENT = dict(alpha=1.0, max_steps=15, rel_tolerance=1e-4, min_steps=3)

METHODS = ("erm", "mixup", "groupdro", "gradframe")

# Largest accepted counts, far past any useful value, so that a mistyped count is a
# config error before any work instead of a failed allocation part-way through.
# 10,000 permutations put an attribution's Monte-Carlo error at 1 % of one
# permutation's spread.  Each ascent row keeps a trace of max_steps + 1 floats,
# 8 KB at 1,000 steps, and the step rule stops rows long before (the default is 15).
# A simulated domain of a million points per blob, or a hidden layer 1,000 wide, is
# far past the 2-unit network and 100-point blobs of the paper's protocol.  100,000
# epochs is 20 times the protocol's 5,000, and each seed of a comparison trains one
# model per method.  A GroupDRO step takes batch_size rows of every domain, however
# few it has, so a batch of a million rows is 2,500 times the protocol's full 400.
MAX_M_SAMPLES = 10_000
MAX_ASCENT_STEPS = 1_000
MAX_POINTS_PER_BLOB = 1_000_000
MAX_HIDDEN_WIDTH = 1_000
MAX_EPOCHS = 100_000
MAX_BATCH_SIZE = 1_000_000
MAX_SEEDS = 1_000

# Each parser takes a stripped value and returns it typed, or raises a
# ValueError saying what it expected; ``ExperimentConfig.load`` names the key.


def _number(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError("expected a finite number")
    return value


def _integer(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError("expected an integer") from None


def _integer_in(low: float = -math.inf, high: float = math.inf) -> Callable[[str], int]:
    def parse(raw: str) -> int:
        value = _integer(raw)
        if value < low:
            raise ValueError(f"expected an integer >= {low}")
        if value > high:
            raise ValueError(f"expected at most {high}")
        return value

    return parse


def _flag(raw: str) -> bool:
    value = raw.lower()
    if value not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError("expected true/false")
    return value in ("true", "1", "yes")


def _name(raw: str) -> str:
    if not raw:
        raise ValueError("expected a non-empty name")
    return raw


def _choice(*options: str) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected one of {options}")
        return raw

    return parse


def _optional(parse: Callable) -> Callable:
    """Empty means None; anything else goes through ``parse``."""
    return lambda raw: parse(raw) if raw else None


def _list(
    item: Callable, at_least: int = 0, distinct: bool = False, at_most: int | None = None
) -> Callable[[str], tuple]:
    """Comma-separated values, each through ``item``; empty is the empty tuple."""

    def parse(raw: str) -> tuple:
        values = tuple(item(v.strip()) for v in raw.split(",")) if raw else ()
        if len(values) < at_least:
            raise ValueError(f"expected at least {at_least} comma-separated values")
        if at_most is not None and len(values) > at_most:
            raise ValueError(f"expected at most {at_most} comma-separated values")
        if distinct and len(set(values)) < len(values):
            raise ValueError("expected distinct values")
        return values

    return parse


def _pairs(raw: str) -> tuple[tuple[float, float], ...]:
    pairs = [part.split(":") for part in raw.split(";")] if raw else []
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError("expected 'g1:g2;g1:g2;...'")
    typed = tuple((_number(g1), _number(g2)) for g1, g2 in pairs)
    if len(set(typed)) < len(typed):
        raise ValueError("expected distinct pairs")
    return typed


# key -> (default string, parser).  The keys of a section named after a
# library config type (``train.``, ``ascent.``, ``penalty.``, ``mixup.``,
# ``csv.``, ``simulate.boundary.``) are that type's fields; the type's own
# range checks run when ``load`` builds it.
KEYS: dict[str, tuple[str, Callable]] = {
    "dataset.kind": ("simulate", _choice("simulate", "csv")),
    "data.source_csv": ("", str),
    "data.target_csv": ("", str),
    "data.standardize": ("true", _flag),
    "csv.label_column": ("label", _name),
    "csv.domain_column": ("domain", _optional(str)),
    "csv.feature_columns": ("", _optional(_list(_name))),
    "simulate.points_per_blob": ("100", _integer_in(1, MAX_POINTS_PER_BLOB)),
    "simulate.target.points_per_blob": ("50", _integer_in(1, MAX_POINTS_PER_BLOB)),
    "simulate.boundary.a": ("-1", _number),
    "simulate.boundary.b": ("0", _number),
    "simulate.target.boundary.a": ("-2", _number),
    "simulate.target.boundary.b": ("0", _number),
    "method": ("gradframe", _choice(*METHODS)),
    "penalty.gamma1": ("1", _number),
    "penalty.gamma2": ("10", _number),
    "ascent.alpha": (str(SIM_ASCENT["alpha"]), _number),
    "ascent.max_steps": (str(SIM_ASCENT["max_steps"]), _integer_in(high=MAX_ASCENT_STEPS)),
    "ascent.rel_tolerance": (str(SIM_ASCENT["rel_tolerance"]), _number),
    "ascent.min_steps": (str(SIM_ASCENT["min_steps"]), _integer),
    "train.beta": (str(SIM_TRAIN["beta"]), _number),
    "train.epochs": (str(SIM_TRAIN["epochs"]), _integer_in(high=MAX_EPOCHS)),
    "train.batch_size": (str(SIM_TRAIN["batch_size"]), _integer_in(high=MAX_BATCH_SIZE)),
    "train.pretrain_epochs": (str(SIM_TRAIN["pretrain_epochs"]), _integer_in(high=MAX_EPOCHS)),
    "train.hidden_dims": ("2", _list(_integer_in(high=MAX_HIDDEN_WIDTH))),
    "train.rep_layer_index": ("1", _integer),
    "mixup.beta_shape": ("2,2", _list(_number, at_least=2, at_most=2)),
    "mixup.fixed_lambda": ("", _optional(_number)),
    "groupdro.eta": ("0.01", _number),
    "grid.gamma1_values": ("0.1,1", _list(_number, distinct=True)),
    "grid.gamma2_values": ("0.1,10", _list(_number, distinct=True)),
    "grid.pairs": ("", _pairs),
    "select_k.candidates": ("2,3,4", _list(_integer_in(2), at_least=2, distinct=True)),
    "select_k.key_column": ("key", _name),
    "select_k.m_samples": ("64", _integer_in(1, MAX_M_SAMPLES)),
    "shift.sweep": ("", _choice("", "gamma1", "gamma2")),
    "shift.sweep_values": ("0.1,1,10", _list(_number, at_least=1)),
    "compare.methods": ("erm,gradframe", _list(_choice(*METHODS), at_least=1, distinct=True)),
    "seed": ("0", _integer),
    "seeds": ("0,1,2,3,4,5,6,7,8,9", _list(_integer, at_least=1, distinct=True, at_most=MAX_SEEDS)),
    "output.dir": ("out", Path),
}


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
        if key not in KEYS:
            raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def render_config(values: dict[str, str]) -> str:
    lines = [f"{key} = {values[key]}" for key in sorted(values)]
    return "\n".join(lines) + "\n"


def _section(parsed: dict[str, object], prefix: str) -> dict[str, object]:
    """The parsed keys under ``prefix``, keyed by the rest of their name."""
    return {key[len(prefix) :]: v for key, v in parsed.items() if key.startswith(prefix)}


def _build(keys: str, factory: Callable, *args, **fields):
    """``factory(*args, **fields)``, with its ``ConfigError`` naming the config ``keys``."""
    try:
        return factory(*args, **fields)
    except ConfigError as exc:
        raise ConfigError(f"config keys {keys}: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Every config key parsed, checked and typed, plus the raw strings it came from.

    ``values`` is the resolved key -> string mapping, kept only to be echoed, and
    ``parsed`` the typed value of every key, read as ``cfg[key]``.  The other
    fields are the values ``load`` builds or cross-checks; a key under a built
    section is read through its type (``cfg.train.epochs``), never by its name.
    ``shift_runs`` holds the penalties of each ``shift-report`` run: the
    configured pair, or one pair per sweep value.
    """

    values: dict[str, str]
    parsed: dict[str, object]
    csv_schema: CsvSchema
    source_boundary: Boundary
    target_boundary: Boundary
    penalties: PenaltyParams
    ascent: AscentConfig
    train: TrainConfig
    mixup: MixupConfig
    grid_pairs: tuple[tuple[float, float], ...]
    shift_runs: tuple[PenaltyParams, ...]

    def __getitem__(self, key: str):
        return self.parsed[key]

    @classmethod
    def load(cls, path: str | Path, overrides: dict[str, str] | None = None) -> "ExperimentConfig":
        values = {key: default for key, (default, _) in KEYS.items()}
        values.update(parse_config_file(path))
        for key, value in (overrides or {}).items():
            if key not in KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = value
        p = {}
        for key, (_, parse) in KEYS.items():
            try:
                p[key] = parse(values[key])
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}, got {values[key]!r}") from None

        penalties = _build("penalty.*", PenaltyParams, **_section(p, "penalty."))
        shift_runs = (penalties,)
        if p["shift.sweep"]:
            shift_runs = tuple(
                _build("shift.sweep_values", replace, penalties, **{p["shift.sweep"]: v})
                for v in p["shift.sweep_values"]
            )
        grid_axes = (p["grid.gamma1_values"], p["grid.gamma2_values"])
        grid_pairs = p["grid.pairs"] or tuple(product(*grid_axes))
        if not grid_pairs:
            raise ConfigError("grid.gamma1_values and grid.gamma2_values must be non-empty")
        for pair in grid_pairs:
            _build("grid.*", PenaltyParams, *pair)
        train = _build("train.*", TrainConfig, seed=p["seed"], **_section(p, "train."))
        _build("groupdro.eta", GroupDroRule, (), p["groupdro.eta"])
        return cls(
            values=values,
            parsed=p,
            csv_schema=_build("csv.*", CsvSchema, **_section(p, "csv.")),
            source_boundary=Boundary(**_section(p, "simulate.boundary.")),
            target_boundary=Boundary(**_section(p, "simulate.target.boundary.")),
            penalties=penalties,
            ascent=_build("ascent.*", AscentConfig, **_section(p, "ascent.")),
            train=train,
            mixup=_build("mixup.*", MixupConfig, **_section(p, "mixup.")),
            grid_pairs=grid_pairs,
            shift_runs=shift_runs,
        )
