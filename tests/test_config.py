"""The config table: every key parsed and range-checked once, at load.

The CLI cases run ``main`` on a config that is bad in one key and check
that it stops at load with exit 2, before any output is written, and that
the message names the key.  The property tests draw junk values for every
key that is not a free-form name or path, and round-trip drawn configs
through ``render_config``.
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradframe.cli import COMMANDS, main
from gradframe.config import KEYS, METHODS, ExperimentConfig, parse_config_file, render_config
from gradframe.errors import ConfigError

FREE_FORM = {
    "data.source_csv",
    "data.target_csv",
    "csv.label_column",
    "csv.domain_column",
    "csv.feature_columns",
    "select_k.key_column",
    "output.dir",
}

# Keys that ``train`` and ``simulate`` used to accept junk for, since
# neither command read them.
UNREAD_KEYS = [
    "seeds",
    "compare.methods",
    "groupdro.eta",
    "mixup.beta_shape",
    "mixup.fixed_lambda",
    "grid.gamma1_values",
    "grid.gamma2_values",
    "grid.pairs",
    "select_k.candidates",
    "select_k.m_samples",
    "shift.sweep",
    "shift.sweep_values",
    "data.standardize",
]


def run(tmp_path: Path, command: str, body: str) -> tuple[int, str]:
    """Exit code and stderr of ``command`` on ``body``, writing to ``tmp_path/o``."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(body + f"output.dir = {tmp_path / 'o'}\n", encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(cfg)])
    return code, err.getvalue()


def assert_load_error(tmp_path: Path, command: str, body: str, named: str) -> None:
    code, err = run(tmp_path, command, body)
    assert code == 2, err
    assert named in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_byte_order_mark_is_not_part_of_the_first_key(tmp_path):
    """A config file saved with a leading UTF-8 byte-order mark reads as the file without it."""
    path = tmp_path / "c.cfg"
    path.write_text("\ufefftrain.epochs = 7\n", encoding="utf-8")
    assert parse_config_file(path) == {"train.epochs": "7"}
    assert ExperimentConfig.load(path).train.epochs == 7


class TestLoadTimeErrors:
    @pytest.mark.parametrize("command", ["train", "simulate"])
    @pytest.mark.parametrize("value", ["abc", "1,,2"])
    @pytest.mark.parametrize("key", UNREAD_KEYS)
    def test_unread_key_junk_exits_at_load(self, tmp_path, command, value, key):
        assert_load_error(tmp_path, command, f"{key} = {value}\n", repr(key))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("train.beta", "inf"),
            ("ascent.alpha", "inf"),
            ("ascent.rel_tolerance", "nan"),
            ("groupdro.eta", "nan"),
            ("groupdro.eta", "inf"),
        ],
    )
    def test_non_finite_hyperparameter_exits_at_load(self, tmp_path, key, value):
        body = f"method = groupdro\ntrain.epochs = 5\n{key} = {value}\n"
        assert_load_error(tmp_path, "train", body, repr(key))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize(
        "key",
        [f"simulate.{part}boundary.{c}" for part in ("", "target.") for c in "ab"],
    )
    def test_non_finite_boundary_is_config_error(self, tmp_path, key, value):
        assert_load_error(tmp_path, "simulate", f"{key} = {value}\n", repr(key))

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("compare", "compare.methods", "erm,erm"),
            ("compare", "seeds", "0,00"),
            ("select-k", "select_k.candidates", "2,2,3"),
            ("lodo", "grid.gamma1_values", "0.1,0.1"),
            ("lodo", "grid.gamma2_values", "1,10,1.0"),
            ("lodo", "grid.pairs", "0.1:0.1;0.1:0.1"),
            ("lodo", "grid.pairs", "1:10;0.1:0.1;1.0:10"),
        ],
    )
    def test_duplicate_entries_exit_at_load(self, tmp_path, command, key, value):
        assert_load_error(tmp_path, command, f"{key} = {value}\n", repr(key))

    @pytest.mark.parametrize(
        "body, named",
        [
            ("train.beta = -1\n", "train.*"),
            ("train.epochs = 0\n", "train.*"),
            ("train.batch_size = 1000001\n", "'train.batch_size'"),
            ("train.batch_size = 1000000000000\n", "'train.batch_size'"),
            ("train.hidden_dims = 4,0\n", "train.*"),
            ("train.rep_layer_index = 2\n", "train.*"),
            ("groupdro.eta = -1\n", "groupdro.eta"),
            ("ascent.min_steps = 5\nascent.max_steps = 3\n", "ascent.*"),
            ("penalty.gamma1 = -1\n", "penalty.*"),
            ("mixup.fixed_lambda = 2\n", "mixup.*"),
            ("mixup.beta_shape = 1\n", "'mixup.beta_shape'"),
            ("mixup.beta_shape = 1,2,3\n", "'mixup.beta_shape'"),
            ("grid.pairs = -1:1\n", "grid.*"),
            ("grid.gamma1_values =\n", "grid.gamma1_values"),
            ("shift.sweep = gamma2\nshift.sweep_values = 1,-1\n", "shift.sweep_values"),
            ("csv.feature_columns = x0,label\n", "csv.*"),
            ("csv.domain_column = label\n", "csv.*"),
            ("csv.feature_columns = x0,x1,x0\n", "csv.*"),
            ("select_k.candidates = 1,2\n", "'select_k.candidates'"),
            ("select_k.candidates = 0,3\n", "'select_k.candidates'"),
            ("select_k.candidates = -4,2\n", "'select_k.candidates'"),
        ],
    )
    def test_library_range_checks_run_at_load(self, tmp_path, body, named):
        assert_load_error(tmp_path, "simulate", body, named)

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("key", ["simulate.points_per_blob", "simulate.target.points_per_blob"])
    def test_non_positive_blob_count_exits_at_load(self, tmp_path, key, value):
        assert_load_error(tmp_path, "simulate", f"{key} = {value}\n", repr(key))


@pytest.mark.parametrize("command", ["simulate", "train"])
def test_negative_seed_runs(tmp_path, command):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"train.epochs = 5\noutput.dir = {tmp_path / 'o'}\n", encoding="utf-8")
    assert main([command, "--config", str(cfg), "--seed", "-1"]) == 0
    assert "seed = -1\n" in (tmp_path / "o" / "effective_config.txt").read_text(encoding="utf-8")


def test_readme_lists_the_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"### Config format.*?```ini\n(.*?)```", readme, re.S).group(1)
    lines = [line.split("#")[0].split("=", 1) for line in block.splitlines()]
    listed = [(key.strip(), default.strip()) for key, default in lines]
    assert listed == [(key, default) for key, (default, _) in KEYS.items()]


def test_readme_lists_each_commands_outputs():
    """The "main outputs" cell of each row of the README's command table names the
    files ``main`` clears for that command."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"\| command \| what it does \| main outputs \|\n\|.*?\n(.*?)\n\n", readme, re.S)
    listed = {}
    for row in block.group(1).splitlines():
        command, _, outputs = row.strip("|").split("|")
        listed[command.strip().strip("`")] = set(re.findall(r"`([^`]+)`", outputs))
    assert listed == {command: set(outputs) for command, (_, outputs) in COMMANDS.items()}


def _rejected(key: str, value: str) -> bool:
    try:
        KEYS[key][1](value.strip())
    except ValueError:
        return True
    return False


# Junk for every checked key, and one-line text (no control characters, no
# line or paragraph separators) that the key's own parser rejects.
JUNK = st.sampled_from(["abc", "1,,2", "nan", "inf", "-inf", "1e400", "1:x", "true,"])
LINE_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12)
CHECKED_KEYS = sorted(set(KEYS) - FREE_FORM)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("junk")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_junk_value_exits_2_naming_the_key(workdir, data):
    key = data.draw(st.sampled_from(CHECKED_KEYS), label="key")
    value = data.draw(JUNK | LINE_TEXT.filter(lambda v: _rejected(key, v)), label="value")
    code, err = run(workdir, "simulate", f"{key} = {value}\n")
    assert code == 2, err
    assert repr(key) in err
    assert "Traceback" not in err
    assert not (workdir / "o").exists()


def _numbers(low: float, high: float, at_least: int = 1, at_most: int = 3, unique: bool = False):
    floats = st.floats(low, high, allow_nan=False)
    return st.lists(floats, min_size=at_least, max_size=at_most, unique=unique).map(
        lambda values: ",".join(map(repr, values))
    )


NAME = st.text("abcdefxyz_0123456789", min_size=1, max_size=6)
INTS = st.integers(1, 5000).map(str)
VALID = {
    "dataset.kind": st.sampled_from(["simulate", "csv"]),
    "data.source_csv": NAME.map(lambda s: f"{s}.csv") | st.just(""),
    "data.target_csv": NAME.map(lambda s: f"{s}.csv") | st.just(""),
    "data.standardize": st.sampled_from(["true", "false", "yes", "no", "1", "0", "TRUE"]),
    "csv.label_column": NAME,
    "csv.domain_column": NAME | st.just(""),
    "csv.feature_columns": st.lists(NAME, max_size=3).map(",".join),
    "simulate.points_per_blob": INTS,
    "simulate.target.points_per_blob": INTS,
    "simulate.boundary.a": _numbers(-10, 10, 1, 1),
    "simulate.boundary.b": _numbers(-10, 10, 1, 1),
    "simulate.target.boundary.a": _numbers(-10, 10, 1, 1),
    "simulate.target.boundary.b": _numbers(-10, 10, 1, 1),
    "method": st.sampled_from(METHODS),
    "penalty.gamma1": _numbers(0, 100, 1, 1),
    "penalty.gamma2": _numbers(0, 100, 1, 1),
    "ascent.alpha": _numbers(1e-3, 10, 1, 1),
    "ascent.max_steps": st.integers(3, 30).map(str),
    "ascent.rel_tolerance": _numbers(0, 1, 1, 1),
    "ascent.min_steps": st.integers(0, 3).map(str),
    "train.beta": _numbers(1e-4, 1, 1, 1),
    "train.epochs": INTS,
    "train.batch_size": INTS,
    "train.pretrain_epochs": INTS,
    "train.hidden_dims": st.lists(st.integers(1, 64).map(str), min_size=1, max_size=4).map(",".join),
    "train.rep_layer_index": st.just("1"),
    "mixup.beta_shape": _numbers(0.1, 10, 2, 2),
    "mixup.fixed_lambda": _numbers(0, 1, 1, 1) | st.just(""),
    "groupdro.eta": _numbers(0, 1, 1, 1),
    "grid.gamma1_values": _numbers(0, 100, unique=True),
    "grid.gamma2_values": _numbers(0, 100, unique=True),
    "grid.pairs": st.lists(st.tuples(st.floats(0, 100), st.floats(0, 100)), max_size=3, unique=True).map(
        lambda pairs: ";".join(f"{g1!r}:{g2!r}" for g1, g2 in pairs)
    ),
    "select_k.candidates": st.lists(st.integers(2, 12), min_size=2, max_size=4, unique=True).map(
        lambda ks: ",".join(map(str, ks))
    ),
    "select_k.key_column": NAME,
    "select_k.m_samples": st.integers(1, 128).map(str),
    "shift.sweep": st.sampled_from(["", "gamma1", "gamma2"]),
    "shift.sweep_values": _numbers(0, 100),
    "compare.methods": st.permutations(METHODS).flatmap(
        lambda ms: st.integers(1, len(ms)).map(lambda n: ",".join(ms[:n]))
    ),
    "seed": st.integers(-(2**31), 2**31).map(str),
    "seeds": st.lists(st.integers(-99, 99), min_size=1, max_size=4, unique=True).map(
        lambda seeds: ",".join(map(str, seeds))
    ),
    "output.dir": NAME,
}


def test_valid_strategies_cover_the_table():
    assert set(VALID) == set(KEYS)


def _csv_roles_clash(values: dict[str, str]) -> bool:
    """Whether the drawn ``csv.*`` keys share a column between roles or repeat a feature."""
    label = values.get("csv.label_column", "label")
    domain = values.get("csv.domain_column", "domain") or None
    features = [name for name in values.get("csv.feature_columns", "").split(",") if name]
    shared = domain == label or label in features or domain in features
    return shared or len(set(features)) < len(features)


@settings(max_examples=150, deadline=None)
@given(values=st.fixed_dictionaries({}, optional=VALID))
def test_render_parse_round_trip(workdir, values):
    path = workdir / "drawn.cfg"
    path.write_text(render_config(values), encoding="utf-8")
    assert parse_config_file(path) == values
    if _csv_roles_clash(values):
        with pytest.raises(ConfigError, match=r"csv\.\*"):
            ExperimentConfig.load(path)
        return
    cfg = ExperimentConfig.load(path)
    echo = workdir / "echo.cfg"
    echo.write_text(render_config(cfg.values), encoding="utf-8")
    assert parse_config_file(echo) == cfg.values
    assert ExperimentConfig.load(echo) == cfg
