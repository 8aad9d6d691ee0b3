from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import build_model, model_text

import gradframe
from gradframe.cli import COMMANDS, _load_data, _load_scaler, _save_scaler, main
from gradframe.config import (
    MAX_ASCENT_STEPS,
    MAX_EPOCHS,
    MAX_HIDDEN_WIDTH,
    MAX_M_SAMPLES,
    MAX_POINTS_PER_BLOB,
    MAX_SEEDS,
    ExperimentConfig,
    render_config,
)
from gradframe.core import PenaltyParams, train_gradframe
from gradframe.data import Boundary, DomainSet, Standardization, label_by_boundary, load_csv_dataset
from gradframe.errors import DataError
from gradframe.evaluation import auroc, evaluate
from gradframe.nn import probs_batch
from gradframe.rng import derive_seed
from gradframe.shift import SHIFT_REPORT_SCHEMA
from gradframe.training import train_erm, train_groupdro, train_mixup


def write_cfg(path: Path, body: str) -> Path:
    path.write_text(body)
    return path


def record_descents(monkeypatch) -> list[list[int]]:
    """Patch ``training.descend`` to record each call's fit seeds, in call order."""
    import gradframe.training as training

    stacks = []
    descend = training.descend

    def recording(data, cfg, seeds, *rest):
        stacks.append(list(seeds))
        return descend(data, cfg, seeds, *rest)

    monkeypatch.setattr(training, "descend", recording)
    return stacks


def train_alone(cfg: ExperimentConfig, method: str, source, seed: int):
    """The model that ``method`` trains on ``source`` under ``cfg`` with ``seed``, by itself."""
    train_cfg = replace(cfg.train, seed=seed)
    if method == "gradframe":
        return train_gradframe([(source, cfg.penalties, train_cfg)], cfg.ascent)[0][0]
    if method == "mixup":
        return train_mixup(source, train_cfg, cfg.mixup)
    if method == "groupdro":
        return train_groupdro(source, train_cfg, cfg["groupdro.eta"])
    return train_erm(source, train_cfg)


def strip_timestamps(payload):
    if isinstance(payload, dict):
        return {
            k: ("<ts>" if k == "timestamp" else strip_timestamps(v)) for k, v in payload.items()
        }
    if isinstance(payload, list):
        return [strip_timestamps(v) for v in payload]
    return payload


TINY_TRAIN = """
dataset.kind = simulate
method = {method}
train.epochs = 25
train.pretrain_epochs = 8
train.batch_size = 64
train.beta = 0.02
ascent.max_steps = 3
ascent.alpha = 0.2
seed = 1
output.dir = {out}
"""


class TestSimulate:
    def test_default_run_and_byte_stability(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", f"dataset.kind = simulate\noutput.dir = {tmp_path}/a\n")
        assert main(["simulate", "--config", str(cfg)]) == 0
        first_src = (tmp_path / "a" / "source.csv").read_bytes()
        first_tgt = (tmp_path / "a" / "target.csv").read_bytes()
        ds = load_csv_dataset(tmp_path / "a" / "source.csv")
        assert ds.k == 2
        assert sum(len(d) for d in ds.domains) == 400
        tgt = load_csv_dataset(tmp_path / "a" / "target.csv")
        assert len(tgt.pooled()) == 100

        cfg2 = write_cfg(tmp_path / "c2.cfg", f"dataset.kind = simulate\noutput.dir = {tmp_path}/b\n")
        assert main(["simulate", "--config", str(cfg2)]) == 0
        assert (tmp_path / "b" / "source.csv").read_bytes() == first_src
        assert (tmp_path / "b" / "target.csv").read_bytes() == first_tgt
        written = {p.name for p in (tmp_path / "b").iterdir()}
        assert written == {"effective_config.txt", *COMMANDS["simulate"][1]}

    def test_boundary_override_relabels(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"dataset.kind = simulate\nsimulate.boundary.a = -2\noutput.dir = {tmp_path}/o\n",
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        ds = load_csv_dataset(tmp_path / "o" / "source.csv")
        boundary = Boundary(-2.0, 0.0)
        for dom in ds.domains:
            for features, label in zip(dom.x, dom.y):
                assert label == label_by_boundary(features, boundary)

    def test_missing_output_dir_created(self, tmp_path):
        nested = tmp_path / "deep" / "nested" / "dir"
        cfg = write_cfg(tmp_path / "c.cfg", f"dataset.kind = simulate\noutput.dir = {nested}\n")
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert (nested / "source.csv").exists()


class TestTrain:
    @pytest.mark.parametrize("method", ["erm", "mixup", "groupdro", "gradframe"])
    def test_methods_produce_reports(self, tmp_path, method):
        out = tmp_path / method
        cfg = write_cfg(tmp_path / f"{method}.cfg", TINY_TRAIN.format(method=method, out=out))
        assert main(["train", "--config", str(cfg)]) == 0
        report = json.loads((out / "train_report.json").read_text())
        assert report["method"] == method
        assert 0.0 <= report["eval_target"]["auroc"] <= 1.0
        assert (out / "model.txt").exists()
        assert (out / "fictitious.csv").exists() == (method == "gradframe")

    def test_rerun_is_identical_modulo_timestamp(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        cfg1 = write_cfg(tmp_path / "c1.cfg", TINY_TRAIN.format(method="gradframe", out=out1))
        cfg2 = write_cfg(tmp_path / "c2.cfg", TINY_TRAIN.format(method="gradframe", out=out2))
        assert main(["train", "--config", str(cfg1)]) == 0
        assert main(["train", "--config", str(cfg2)]) == 0
        a = strip_timestamps(json.loads((out1 / "train_report.json").read_text()))
        b = strip_timestamps(json.loads((out2 / "train_report.json").read_text()))
        assert a == b
        assert (out1 / "model.txt").read_bytes() == (out2 / "model.txt").read_bytes()
        assert (out1 / "fictitious.csv").read_bytes() == (out2 / "fictitious.csv").read_bytes()

    def test_effective_config_round_trip(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        cfg = write_cfg(tmp_path / "c.cfg", TINY_TRAIN.format(method="erm", out=out1))
        assert main(["train", "--config", str(cfg)]) == 0
        echoed = out1 / "effective_config.txt"
        assert main(["train", "--config", str(echoed), "--out", str(out2)]) == 0
        assert (out1 / "model.txt").read_bytes() == (out2 / "model.txt").read_bytes()

    def test_csv_dataset_flow(self, tmp_path):
        sim_out = tmp_path / "sim"
        cfg = write_cfg(tmp_path / "s.cfg", f"dataset.kind = simulate\noutput.dir = {sim_out}\n")
        assert main(["simulate", "--config", str(cfg)]) == 0
        out = tmp_path / "train"
        train_cfg = write_cfg(
            tmp_path / "t.cfg",
            f"""
dataset.kind = csv
data.source_csv = {sim_out}/source.csv
data.target_csv = {sim_out}/target.csv
method = erm
train.epochs = 20
train.batch_size = 64
output.dir = {out}
""",
        )
        assert main(["train", "--config", str(train_cfg)]) == 0
        report = json.loads((out / "train_report.json").read_text())
        assert "eval_target" in report


class TestShiftReport:
    def test_identity_ascent_gives_zero_ratios_and_valid_schema(self, tmp_path):
        out = tmp_path / "shift"
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"""
dataset.kind = simulate
method = gradframe
train.epochs = 25
train.pretrain_epochs = 8
train.batch_size = 64
ascent.max_steps = 0
ascent.min_steps = 0
seed = 2
output.dir = {out}
""",
        )
        assert main(["shift-report", "--config", str(cfg)]) == 0
        payload = json.loads((out / "shift_report.json").read_text())
        import jsonschema

        jsonschema.validate(payload, SHIFT_REPORT_SCHEMA)
        assert all(v == 0.0 for v in payload["covariate_ratios"])
        assert (out / "shift_series.csv").exists()

    def test_sweep_produces_runs(self, tmp_path):
        out = tmp_path / "sweep"
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"""
dataset.kind = simulate
method = gradframe
train.epochs = 20
train.pretrain_epochs = 8
train.batch_size = 64
ascent.max_steps = 2
ascent.min_steps = 0
shift.sweep = gamma1
shift.sweep_values = 0.5,5
seed = 3
output.dir = {out}
""",
        )
        assert main(["shift-report", "--config", str(cfg)]) == 0
        payload = json.loads((out / "shift_report.json").read_text())
        assert len(payload["sweep"]) == 2
        assert payload["sweep"][0]["gamma1"] == 0.5


    @pytest.mark.parametrize(
        "sweep, stacks",
        [("", [2, 4]), ("shift.sweep = gamma1\nshift.sweep_values = 0.5,1,5\n", [2, 8])],
        ids=["single", "three-value-sweep"],
    )
    def test_fits_train_in_two_descents(self, tmp_path, monkeypatch, sweep, stacks):
        """Pretraining is one stack; train_erm, the concept source fit and each sweep
        value's two fictitious-side fits are the other, and no final model trains."""
        import gradframe.training as training

        sizes = []
        descend = training.descend

        def counting(data, cfg, seeds, *rest):
            sizes.append(len(seeds))
            return descend(data, cfg, seeds, *rest)

        monkeypatch.setattr(training, "descend", counting)
        out = tmp_path / "o"
        body = TINY_TRAIN.format(method="gradframe", out=out) + sweep
        assert main(["shift-report", "--config", str(write_cfg(tmp_path / "c.cfg", body))]) == 0
        assert sizes == stacks

    @pytest.mark.parametrize(
        "sweep, extra",
        [("", set()), ("shift.sweep = gamma1\nshift.sweep_values = 0.5,5\n", {"sweep"})],
        ids=["single", "sweep"],
    )
    def test_top_level_keys(self, tmp_path, sweep, extra):
        """The primary run's metrics, config and metadata; a sweep adds only its runs."""
        out = tmp_path / "o"
        body = TINY_TRAIN.format(method="gradframe", out=out) + sweep
        assert main(["shift-report", "--config", str(write_cfg(tmp_path / "c.cfg", body))]) == 0
        payload = json.loads((out / "shift_report.json").read_text())
        metrics = {"covariate_ratios", "concept_deltas", "likelihood_difference", "ks_table"}
        assert set(payload) == metrics | {"config", "metadata"} | extra


def keyed_csv(path: Path) -> Path:
    """A two-feature CSV with a six-value ``month`` key whose labels flip from month 4."""
    rng = np.random.default_rng(0)
    rows = ["x0,x1,label,month"]
    for month in range(1, 7):
        for _ in range(8):
            x = rng.normal(size=2)
            label = int(x[0] + x[1] > 0)
            if month >= 4:
                label = 1 - label
            rows.append(f"{x[0]},{x[1]},{label},{month}")
    path.write_text("\n".join(rows) + "\n")
    return path


TINY_SELECT_K = """
dataset.kind = csv
data.source_csv = {data}
csv.feature_columns = x0,x1
csv.domain_column =
select_k.candidates = 2,3
select_k.key_column = month
select_k.m_samples = 8
train.epochs = 10
train.batch_size = 16
output.dir = {out}
"""


class TestSelectK:
    def test_table_rows_match_candidates(self, tmp_path):
        out = tmp_path / "selk"
        body = TINY_SELECT_K.format(data=keyed_csv(tmp_path / "keyed.csv"), out=out)
        cfg = write_cfg(tmp_path / "c.cfg", body)
        assert main(["select-k", "--config", str(cfg)]) == 0
        table_lines = (out / "k_table.csv").read_text().splitlines()
        assert table_lines[0] == "k,avg_p_value"
        assert len(table_lines) == 3
        selection = json.loads((out / "selection.json").read_text())
        assert selection["best_k"] in (2, 3)

    def test_domain_column_does_not_reorder_rows(self, tmp_path):
        # the rows alternate between domains A and B; grouping them by domain
        # would pair a row's features with another row's month
        plain = keyed_csv(tmp_path / "plain.csv")
        header, *rows = plain.read_text().splitlines()
        tagged = tmp_path / "tagged.csv"
        tagged.write_text(f"{header},domain\n" + "".join(f"{r},{'AB'[i % 2]}\n" for i, r in enumerate(rows)))
        tables = []
        for name, data, schema in (("plain", plain, "csv.domain_column =\n"), ("tagged", tagged, "")):
            body = TINY_SELECT_K.replace("csv.domain_column =\n", schema).format(data=data, out=tmp_path / name)
            assert main(["select-k", "--config", str(write_cfg(tmp_path / f"{name}.cfg", body))]) == 0
            tables.append((tmp_path / name / "k_table.csv").read_bytes())
        assert tables[0] == tables[1]


    def test_key_column_among_features_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "selk"
        body = TINY_SELECT_K.format(data=keyed_csv(tmp_path / "keyed.csv"), out=out)
        cfg = write_cfg(tmp_path / "c.cfg", body.replace("x0,x1", "x0,x1,month"))
        assert main(["select-k", "--config", str(cfg)]) == 2
        assert "excluding the key column" in capsys.readouterr().err
        assert not (out / "k_table.csv").exists()

    def test_key_column_equal_to_label_column_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "selk"
        body = TINY_SELECT_K.format(data=keyed_csv(tmp_path / "keyed.csv"), out=out)
        cfg = write_cfg(tmp_path / "c.cfg", body.replace("key_column = month", "key_column = label"))
        assert main(["select-k", "--config", str(cfg)]) == 2
        assert "'label' is also csv.label_column" in capsys.readouterr().err
        assert not (out / "k_table.csv").exists()

    def test_source_file_is_read_once(self, tmp_path, monkeypatch):
        import gradframe.data as data

        data_path = keyed_csv(tmp_path / "keyed.csv")
        reads = []
        read_text = data.read_text

        def counting(path, *rest):
            reads.append(Path(path))
            return read_text(path, *rest)

        monkeypatch.setattr(data, "read_text", counting)
        body = TINY_SELECT_K.format(data=data_path, out=tmp_path / "selk")
        assert main(["select-k", "--config", str(write_cfg(tmp_path / "c.cfg", body))]) == 0
        assert reads.count(data_path) == 1

    @staticmethod
    def _run_small(tmp_path, text: str, name: str = "keys") -> int:
        """``select-k`` on a one-feature ``x0,label,month`` file holding ``text``."""
        data = tmp_path / f"{name}.csv"
        data.write_text(text)
        body = TINY_SELECT_K.replace("x0,x1", "x0").format(data=data, out=tmp_path / name)
        return main(["select-k", "--config", str(write_cfg(tmp_path / f"{name}.cfg", body))])

    def test_whole_number_key_cell_reads_as_its_integer(self, tmp_path):
        rows = "x0,label,month\n1,0,3\n2,1,1\n3,0,{}\n"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # three rows give a flat table
            assert self._run_small(tmp_path, rows.format("2.0"), "float") == 0
            assert self._run_small(tmp_path, rows.format("2"), "int") == 0
        table = (tmp_path / "int" / "k_table.csv").read_bytes()
        assert (tmp_path / "float" / "k_table.csv").read_bytes() == table

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2,1,1.7", "row 2: key 1.7 is not a whole number"),
            ("2,1,-0.5", "row 2: key -0.5 is not a whole number"),
            ("2,1,3.000001", "row 2: key 3.000001 is not a whole number"),
            ("2,1,abc", "row 2, column 'month': non-numeric value 'abc'"),
            ("2,1,", "row 2, column 'month': non-numeric value ''"),
            ("2,1,nan", "row 2, column 'month': non-finite value 'nan'"),
            ("2,1", "row 2 has 2 cells, expected 3"),
        ],
        ids=["1.7", "-0.5", "3.000001", "abc", "empty", "nan", "short-row"],
    )
    def test_bad_key_cell_is_data_error_before_training(
        self, tmp_path, capsys, monkeypatch, row, message
    ):
        # truncating would group a month of 1.7 with month 1
        stacks = record_descents(monkeypatch)
        assert self._run_small(tmp_path, f"x0,label,month\n1,0,3\n{row}\n") == 3
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert stacks == []

    def test_repeated_key_header_is_data_error(self, tmp_path, capsys):
        assert self._run_small(tmp_path, "month,x0,month,label\n3,1,4,0\n") == 3
        err = capsys.readouterr().err
        assert "column 'month' appears more than once" in err and "Traceback" not in err


# Small enough that each command runs in well under a second.  Three of them stop
# after the load: ``select-k`` needs a CSV key column, ``lodo`` three domains and
# ``evaluate`` a ``model.txt``.
TINY_ECHO = """
dataset.kind = simulate
simulate.points_per_blob = 8
simulate.target.points_per_blob = 8
method = erm
train.epochs = 2
train.pretrain_epochs = 2
ascent.max_steps = 1
ascent.min_steps = 1
compare.methods = erm
seeds = 0
output.dir = {out}
"""


class TestConfigEcho:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_command_echoes_its_resolved_config(self, tmp_path, command):
        """``main`` writes the echo after the load and before the command runs, so a
        command that fails later still leaves it."""
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path / "c.cfg", TINY_ECHO.format(out=out))
        code = main([command, "--config", str(cfg), "--seed", "3"])
        assert code == {"select-k": 2, "lodo": 2, "evaluate": 3}.get(command, 0)
        resolved = ExperimentConfig.load(cfg, {"seed": "3"}).values
        assert (out / "effective_config.txt").read_text(encoding="utf-8") == render_config(resolved)


# Run in a fresh interpreter: import the CLI, then diff ``sys.modules`` around each
# ``main`` call.  Prints one JSON object: the scipy and ``numpy.ma`` modules the import
# loaded, and per command its exit code and the numpy or scipy modules its ``main`` loaded.
IMPORT_PROBE = """
import json, sys
from pathlib import Path
import gradframe.cli
loaded = {
    "import": sorted(
        m for m in sys.modules if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"]
    )
}
for cfg in sys.argv[1:]:
    command = Path(cfg).stem
    before = set(sys.modules)
    code = gradframe.cli.main([command, "--config", cfg])
    new = set(sys.modules) - before
    loaded[command] = [code, sorted(m for m in new if m.split(".")[0] in ("numpy", "scipy"))]
print(json.dumps(loaded))
"""


class TestImportCost:
    def test_cli_loads_no_scipy_and_commands_load_no_numpy_module(self, tmp_path):
        """Importing the CLI loads no scipy and no ``numpy.ma``, and each command's ``main``
        loads no numpy or scipy module: their import cost stays out of the commands' work."""
        tiny = TINY_TRAIN.format(method="gradframe", out="{out}")
        bodies = {
            "train": tiny,
            "compare": tiny + "compare.methods = erm,mixup,groupdro,gradframe\nseeds = 0\n",
            "shift-report": tiny,
            "select-k": TINY_SELECT_K.format(data=keyed_csv(tmp_path / "k.csv"), out="{out}"),
        }
        cfgs = [
            str(write_cfg(tmp_path / f"{cmd}.cfg", body.format(out=tmp_path / cmd)))
            for cmd, body in bodies.items()
        ]
        src = str(Path(gradframe.__file__).parents[1])
        run = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, *cfgs],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "PATH": ""},
            check=True,
        )
        loaded = json.loads(run.stdout)
        assert loaded == {"import": [], **{cmd: [0, []] for cmd in bodies}}


class TestLodoCommand:
    def test_pass_through(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = ["x0,x1,label,domain"]
        for dom in "ABC":
            for _ in range(30):
                x = rng.normal(size=2) + (2.0 if rng.uniform() > 0.5 else -2.0)
                rows.append(f"{x[0]},{x[1]},{int(x[0] + x[1] > 0)},{dom}")
        data = tmp_path / "doms.csv"
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "lodo"
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"""
dataset.kind = csv
data.source_csv = {data}
grid.pairs = 0.1:0.1;1:10
train.epochs = 10
train.pretrain_epochs = 5
train.batch_size = 30
ascent.max_steps = 1
ascent.min_steps = 0
output.dir = {out}
""",
        )
        assert main(["lodo", "--config", str(cfg)]) == 0
        lines = (out / "lodo_table.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 3
        choice = json.loads((out / "lodo_choice.json").read_text())
        assert (choice["gamma1"], choice["gamma2"]) in [(0.1, 0.1), (1.0, 10.0)]

    GRID_LODO = """
dataset.kind = csv
data.source_csv = {data}
grid.pairs = 0.1:0.1;0.1:10;1:1;1:10
train.epochs = 4
train.pretrain_epochs = 3
train.batch_size = 500
ascent.max_steps = 3
output.dir = {out}
"""

    @staticmethod
    def _write_domains(path: Path, sizes) -> None:
        rng = np.random.default_rng(3)
        rows = ["x0,x1,label,domain"]
        for dom, n in zip("ABC", sizes):
            x = rng.normal(size=(n, 2)) + rng.choice([-2.0, 2.0], size=(n, 1))
            rows += [f"{a:.17g},{b:.17g},{int(a + b > 0)},{dom}" for a, b in x]
        path.write_text("\n".join(rows) + "\n")

    @pytest.mark.parametrize(
        "sizes, stacks",
        [((500, 500, 500), [24, 12]), ((500, 300, 420), [8, 8, 8, 4, 4, 4])],
        ids=["equal", "unequal"],
    )
    def test_cells_train_as_one_plan(self, tmp_path, monkeypatch, sizes, stacks):
        """Four pairs over three domains: one pretraining descent per domain size and
        one final descent per fold size, and every row scores the model its cell
        trains alone."""
        data, out = tmp_path / "doms.csv", tmp_path / "lodo"
        self._write_domains(data, sizes)
        cfg_path = write_cfg(tmp_path / "c.cfg", self.GRID_LODO.format(data=data, out=out))
        seeds = record_descents(monkeypatch)
        assert main(["lodo", "--config", str(cfg_path)]) == 0
        assert [len(s) for s in seeds] == stacks
        cfg = ExperimentConfig.load(cfg_path)
        source, _ = _load_data(cfg, cfg["seed"])
        want = ["gamma1,gamma2,fold_domain,auroc"]
        for i, (g1, g2) in enumerate(cfg.grid_pairs):
            for fold in source.domains:
                rest = DomainSet(tuple(d for d in source.domains if d.id != fold.id))
                fold_cfg = replace(cfg.train, seed=derive_seed(cfg.train.seed, "lodo", i, fold.id))
                [(model, _)] = train_gradframe([(rest, PenaltyParams(g1, g2), fold_cfg)], cfg.ascent)
                score = auroc(probs_batch(model, fold.x), fold.y)
                want.append("%.17g,%.17g,%s,%.17g" % (g1, g2, fold.id, score))
        assert (out / "lodo_table.csv").read_text().splitlines() == want


class TestCompare:
    def test_stacked_fits_score_as_fits_trained_alone(self, tmp_path):
        """ERM and mixup of both seeds train as one stack; every score is that of the
        model its method trains for its seed alone."""
        out = tmp_path / "cmp"
        cfg_path = write_cfg(
            tmp_path / "c.cfg",
            f"""
dataset.kind = simulate
compare.methods = erm,mixup,groupdro
seeds = 0,1
train.epochs = 15
train.batch_size = 64
output.dir = {out}
""",
        )
        assert main(["compare", "--config", str(cfg_path)]) == 0
        cfg = ExperimentConfig.load(cfg_path)
        want = ["method,seed,auroc"]
        for method in ("erm", "mixup", "groupdro"):
            for seed in (0, 1):
                source, target = _load_data(cfg, seed)
                model = train_alone(cfg, method, source, seed)
                want.append(f"{method},{seed},{evaluate(model, target).auroc:.17g}")
        assert (out / "compare_matrix.csv").read_text().splitlines() == want

    def test_three_methods_train_as_one_stack_at_batch_400(self, tmp_path, monkeypatch):
        """At batch 400 the simulation's 400 pooled rows and GroupDRO's two 200-row
        domains both take one 400-row block per step, so ERM, mixup and GroupDRO of
        both seeds are one descent, GroupDRO with one row per domain; every score is
        that of the model its method trains alone."""
        out = tmp_path / "cmp"
        cfg_path = write_cfg(
            tmp_path / "c.cfg",
            f"""
dataset.kind = simulate
compare.methods = groupdro,erm,mixup
seeds = 0,1
train.epochs = 15
train.batch_size = 400
output.dir = {out}
""",
        )
        stacks = record_descents(monkeypatch)
        assert main(["compare", "--config", str(cfg_path)]) == 0
        assert stacks == [[0, 1, 0, 1, 0, 1]]
        cfg = ExperimentConfig.load(cfg_path)
        want = ["method,seed,auroc"]
        for method in ("groupdro", "erm", "mixup"):
            for seed in (0, 1):
                source, target = _load_data(cfg, seed)
                model = train_alone(cfg, method, source, seed)
                want.append(f"{method},{seed},{evaluate(model, target).auroc:.17g}")
        assert (out / "compare_matrix.csv").read_text().splitlines() == want

    def test_gradframe_and_erm_train_in_three_descents(self, tmp_path, monkeypatch):
        """A gradframe,erm compare on two seeds: the ERM fits are one descent, the four
        domain models one, and the two final fits one; every score is that of the
        model its method trains alone."""
        out = tmp_path / "cmp"
        cfg_path = write_cfg(
            tmp_path / "c.cfg",
            f"""
dataset.kind = simulate
compare.methods = gradframe,erm
seeds = 0,1
train.epochs = 15
train.pretrain_epochs = 5
train.batch_size = 64
ascent.max_steps = 3
output.dir = {out}
""",
        )
        stacks = record_descents(monkeypatch)
        assert main(["compare", "--config", str(cfg_path)]) == 0
        assert [len(seeds) for seeds in stacks] == [2, 4, 2]
        cfg = ExperimentConfig.load(cfg_path)
        want = ["method,seed,auroc"]
        for method in ("gradframe", "erm"):
            for seed in (0, 1):
                source, target = _load_data(cfg, seed)
                model = train_alone(cfg, method, source, seed)
                want.append(f"{method},{seed},{evaluate(model, target).auroc:.17g}")
        assert (out / "compare_matrix.csv").read_text().splitlines() == want

    def test_csv_files_load_once_for_all_seeds(self, tmp_path, monkeypatch):
        import gradframe.cli as cli

        loads = []

        def counting(path, schema):
            loads.append(Path(path).name)
            return load_csv_dataset(path, schema)

        src, tgt = tmp_path / "src.csv", tmp_path / "tgt.csv"
        src.write_text("x0,x1,label,domain\n" + "0,0,0,A\n1,1,1,A\n0,1,0,B\n1,0,1,B\n" * 3)
        tgt.write_text("x0,x1,label,domain\n0.2,0.1,0,T\n0.9,0.8,1,T\n0.1,0.7,0,T\n0.8,0.3,1,T\n")
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"""
dataset.kind = csv
data.source_csv = {src}
data.target_csv = {tgt}
compare.methods = erm,groupdro
seeds = 0,1,2
train.epochs = 3
train.batch_size = 4
output.dir = {tmp_path}/o
""",
        )
        monkeypatch.setattr(cli, "load_csv_dataset", counting)
        assert main(["compare", "--config", str(cfg)]) == 0
        assert loads == ["src.csv", "tgt.csv"]

    def test_matrix_and_p_values(self, tmp_path):
        out = tmp_path / "cmp"
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"""
dataset.kind = simulate
compare.methods = erm,gradframe
seeds = 0,1
train.epochs = 15
train.pretrain_epochs = 5
train.batch_size = 64
ascent.max_steps = 2
ascent.min_steps = 0
output.dir = {out}
""",
        )
        assert main(["compare", "--config", str(cfg)]) == 0
        lines = (out / "compare_matrix.csv").read_text().splitlines()
        assert lines[0] == "method,seed,auroc"
        assert len(lines) == 5
        report = json.loads((out / "compare_report.json").read_text())
        assert "erm_vs_gradframe" in report["welch_tests"]
        for line in lines[1:]:
            score = float(line.split(",")[2])
            assert 0.0 <= score <= 1.0

    def test_single_seed_skips_tests_with_diagnostic(self, tmp_path):
        out = tmp_path / "cmp1"
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"""
dataset.kind = simulate
compare.methods = erm
seeds = 0
train.epochs = 10
train.batch_size = 64
output.dir = {out}
""",
        )
        assert main(["compare", "--config", str(cfg)]) == 0
        report = json.loads((out / "compare_report.json").read_text())
        assert report["welch_tests"] == {}
        assert report["diagnostics"]

    def test_tied_methods_skip_their_test_with_diagnostic(self, tmp_path, capsys):
        out = tmp_path / "tie"
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"""
dataset.kind = simulate
compare.methods = erm,groupdro
seeds = 0,1
train.epochs = 50
output.dir = {out}
""",
        )
        assert main(["compare", "--config", str(cfg)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((out / "compare_report.json").read_text())
        assert report["mean_auroc"] == {"erm": 1.0, "groupdro": 1.0}
        assert report["welch_tests"] == {}
        assert report["diagnostics"] == [
            "erm_vs_groupdro: t-test skipped, both samples have zero variance; the test is degenerate"
        ]

    def test_target_that_overflows_the_model_is_numeric_failure_with_nothing_written(
        self, tmp_path, capsys
    ):
        """A finite target row of 1.7e308 overflows the trained network, so its score is
        NaN: exit 4, no matrix or report, and no numpy warning."""
        (src := tmp_path / "source.csv").write_text(
            "x0,x1,label\n0,0,0\n0.2,0.1,0\n-0.3,0.2,0\n1,1,1\n1.2,0.8,1\n0.9,1.3,1\n"
        )
        (tgt := tmp_path / "target.csv").write_text(
            "x0,x1,label\n1.7e308,1.7e308,0\n0,0,0\n1,1,1\n0.1,0.2,0\n1.1,0.9,1\n"
        )
        out = tmp_path / "out"
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"""
dataset.kind = csv
data.source_csv = {src}
data.target_csv = {tgt}
data.standardize = false
csv.domain_column =
compare.methods = erm
train.epochs = 5
train.batch_size = 8
seeds = 0
output.dir = {out}
""",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["compare", "--config", str(cfg)]) == 4
        assert "1 of 5 scores are not finite" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["effective_config.txt"]

    def test_precision_loss_goes_to_diagnostics(self, tmp_path, capfd):
        # AUROCs 1, 1 against 0.9996, 1: scipy warns about catastrophic cancellation
        out = tmp_path / "close"
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"""
dataset.kind = simulate
compare.methods = erm,mixup
seeds = 0,1
train.epochs = 50
output.dir = {out}
""",
        )
        assert main(["compare", "--config", str(cfg)]) == 0
        assert capfd.readouterr().err == ""
        report = json.loads((out / "compare_report.json").read_text())
        assert "erm_vs_mixup" in report["welch_tests"]
        assert len(report["diagnostics"]) == 1
        assert report["diagnostics"][0].startswith("erm_vs_mixup: Precision loss occurred")


class TestEvaluateCommand:
    def test_model_round_trip_evaluation(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "c.cfg", TINY_TRAIN.format(method="erm", out=out))
        assert main(["train", "--config", str(cfg)]) == 0
        sim_out = tmp_path / "data"
        sim_cfg = write_cfg(
            tmp_path / "s.cfg", f"dataset.kind = simulate\nseed = 1\noutput.dir = {sim_out}\n"
        )
        assert main(["simulate", "--config", str(sim_cfg)]) == 0
        eval_cfg = write_cfg(
            tmp_path / "e.cfg",
            f"""
dataset.kind = csv
data.target_csv = {sim_out}/target.csv
output.dir = {out}
""",
        )
        assert main(["evaluate", "--config", str(eval_cfg)]) == 0
        payload = json.loads((out / "eval_report.json").read_text())
        assert 0.0 <= payload["report"]["auroc"] <= 1.0


    def test_rerun_leaves_no_file_of_an_earlier_run(self, tmp_path):
        """A standardized gradframe run, then an unstandardized ERM run into the same
        directory: ``evaluate`` reads only what the second run wrote."""
        sim_out = tmp_path / "data"
        sim_cfg = write_cfg(tmp_path / "s.cfg", f"dataset.kind = simulate\noutput.dir = {sim_out}\n")
        assert main(["simulate", "--config", str(sim_cfg)]) == 0
        body = TINY_TRAIN.format(method="{method}", out="{out}").replace(
            "dataset.kind = simulate",
            f"dataset.kind = csv\ndata.source_csv = {sim_out}/source.csv\n"
            f"data.target_csv = {sim_out}/target.csv",
        )
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        first = write_cfg(tmp_path / "a.cfg", body.format(method="gradframe", out=reused))
        assert main(["train", "--config", str(first)]) == 0
        assert (reused / "scaler.txt").exists() and (reused / "fictitious.csv").exists()
        reports = []
        for out in (reused, fresh):
            second = body.format(method="erm", out=out) + "data.standardize = false\n"
            assert main(["train", "--config", str(write_cfg(tmp_path / "b.cfg", second))]) == 0
            assert main(["evaluate", "--config", str(tmp_path / "b.cfg")]) == 0
            reports.append(json.loads((out / "eval_report.json").read_text())["report"])
        assert reports[0] == reports[1]
        assert not (reused / "scaler.txt").exists() and not (reused / "fictitious.csv").exists()


# `evaluate` on a hand-made CSV without a domain column
EVAL_ONE_DOMAIN = "dataset.kind = csv\ndata.target_csv = {tgt}\ncsv.domain_column =\noutput.dir = {out}\n"


class TestExitCodes:
    def test_unknown_method_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", "method = boosting\n")
        assert main(["train", "--config", str(cfg)]) == 2

    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", "methodd = erm\n")
        assert main(["train", "--config", str(cfg)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_missing_dataset_is_data_error(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"dataset.kind = csv\ndata.source_csv = {tmp_path}/nope.csv\noutput.dir = {tmp_path}/o\n",
        )
        assert main(["train", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize(
        "command, out, where",
        [
            ("train", "afile", "out"),
            ("train", "afile/sub", "out"),
            pytest.param(
                "train",
                "/proc/nope",
                "out",
                marks=pytest.mark.skipif(not Path("/proc/self").is_dir(), reason="needs /proc"),
            ),
            ("train", "o", "o/model.txt"),
            ("simulate", "o", "o/simulate.json"),
            ("simulate", "o", "o/effective_config.txt"),
        ],
        ids=[
            "dir-is-a-file",
            "dir-under-a-file",
            "dir-not-creatable",
            "model-is-a-dir",
            "report-is-a-dir",
            "echo-is-a-dir",
        ],
    )
    def test_unusable_output_location_is_config_error(
        self, tmp_path, capsys, monkeypatch, command, out, where
    ):
        """An output directory that is a file, lies under one or cannot be made, or an
        output file that is a directory, exits 2 naming the path; ``train`` stops before
        it trains anything."""
        monkeypatch.chdir(tmp_path)
        Path("afile").touch()
        if where != "out":
            Path(where).mkdir(parents=True)
        cfg = write_cfg(tmp_path / "c.cfg", "train.epochs = 2\n")
        stacks = record_descents(monkeypatch)
        assert main([command, "--config", str(cfg), "--out", out]) == 2
        err = capsys.readouterr().err
        [line] = [line for line in err.splitlines() if line.startswith("config error:")]
        assert (out if where == "out" else where) in line
        assert "Traceback" not in err
        assert stacks == []

    @pytest.mark.parametrize(
        "command, message",
        [
            ("train", "need at least 2 domains"),
            ("shift-report", "need at least 2 domains"),
            ("lodo", "LODO-CV needs at least 3 domains"),
        ],
    )
    def test_one_domain_csv_is_config_error(self, tmp_path, capsys, monkeypatch, command, message):
        """A CSV read as one domain stops ``train`` and ``shift-report`` at the two-domain
        rule and ``lodo`` at its own three-domain one, before any fit, leaving only the
        config echo."""
        data = tmp_path / "one.csv"
        data.write_text("x0,x1,label\n0,0,0\n1,1,1\n0,1,0\n1,0,1\n")
        out = tmp_path / "o"
        body = f"dataset.kind = csv\ndata.source_csv = {data}\ncsv.domain_column =\noutput.dir = {out}\n"
        stacks = record_descents(monkeypatch)
        assert main([command, "--config", str(write_cfg(tmp_path / "c.cfg", body))]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == ["effective_config.txt"]
        assert stacks == []

    def test_misnamed_domain_column_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "regions.csv"
        data.write_text("x0,x1,region,label\n0,0,1,0\n1,1,1,1\n0,1,2,0\n1,0,2,1\n")
        out = tmp_path / "o"
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"""
dataset.kind = csv
data.source_csv = {data}
csv.domain_column = regoin
method = erm
train.epochs = 3
train.batch_size = 4
output.dir = {out}
""",
        )
        assert main(["train", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "'regoin'" in err and "one domain" in err and "Traceback" not in err
        assert not (out / "model.txt").exists()

    def test_single_class_target_is_numeric_failure(self, tmp_path, capsys, monkeypatch):
        """Every seed's target is checked before any fit, so nothing trains."""
        src = tmp_path / "src.csv"
        src.write_text("x0,x1,label,domain\n0,0,0,A\n1,1,1,A\n0,1,0,B\n1,0,1,B\n" * 1)
        tgt = tmp_path / "tgt.csv"
        tgt.write_text("x0,x1,label,domain\n0.5,0.5,1,T\n0.6,0.4,1,T\n")
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"""
dataset.kind = csv
data.source_csv = {src}
data.target_csv = {tgt}
compare.methods = erm,gradframe
seeds = 0,1
train.epochs = 3
train.batch_size = 4
output.dir = {tmp_path}/o
""",
        )
        stacks = record_descents(monkeypatch)
        assert main(["compare", "--config", str(cfg)]) == 4
        assert "target domain has a single class; AUROC undefined" in capsys.readouterr().err
        assert stacks == []

    @pytest.mark.parametrize(
        "width, standardize",
        [(1, "true"), (3, "true"), (1, "false")],
        ids=["narrower", "wider", "narrower-unstandardized"],
    )
    def test_target_of_another_width_is_data_error_before_training(
        self, tmp_path, capsys, width, standardize
    ):
        src = tmp_path / "src.csv"
        src.write_text("x0,x1,label\n0,0,0\n1,1,1\n0,1,0\n1,0,1\n")
        tgt = tmp_path / "tgt.csv"
        header = ",".join(f"x{j}" for j in range(width))
        tgt.write_text(f"{header},label\n" + "0.5," * width + "1\n" + "-0.5," * width + "0\n")
        out = tmp_path / "o"
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"""
dataset.kind = csv
data.source_csv = {src}
data.target_csv = {tgt}
data.standardize = {standardize}
csv.domain_column =
method = erm
train.epochs = 3
train.batch_size = 4
output.dir = {out}
""",
        )
        assert main(["train", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert f"tgt.csv: {width} features, the source has 2" in err
        assert "Traceback" not in err
        assert not (out / "model.txt").exists()

    @pytest.mark.parametrize("header", ["a,b", "x1,x0"], ids=["renamed", "reordered"])
    def test_target_feature_names_must_be_the_sources(self, tmp_path, capsys, header):
        src = tmp_path / "src.csv"
        src.write_text("x0,x1,label\n0,0,0\n1,1,1\n0,1,0\n1,0,1\n")
        tgt = tmp_path / "tgt.csv"
        tgt.write_text(f"{header},label\n0.5,0.5,1\n-0.5,-0.5,0\n")
        out = tmp_path / "o"
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"""
dataset.kind = csv
data.source_csv = {src}
data.target_csv = {tgt}
csv.domain_column =
method = erm
train.epochs = 3
train.batch_size = 4
output.dir = {out}
""",
        )
        assert main(["train", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "tgt.csv: the feature columns differ from the source's, by name or order" in err
        assert str(header.split(",")) in err and "['x0', 'x1']" in err
        assert "Traceback" not in err
        assert not (out / "model.txt").exists()

    # one CSV that every command reads: three domains, a month key and explicit features
    EVERY_COMMAND = """
dataset.kind = csv
data.source_csv = {data}
data.target_csv = {data}
csv.feature_columns = x0,x1
select_k.candidates = 2,3
select_k.key_column = month
select_k.m_samples = 8
grid.pairs = 0.1:0.1
compare.methods = erm
seeds = 0
train.epochs = 3
train.pretrain_epochs = 2
train.batch_size = 16
ascent.max_steps = 1
ascent.min_steps = 0
output.dir = {out}
"""

    @pytest.mark.parametrize(
        "command", ["train", "shift-report", "select-k", "lodo", "compare", "evaluate"]
    )
    def test_failed_train_leaves_no_outputs_of_an_earlier_run(self, tmp_path, capsys, command):
        """A run writes only its echo and the outputs its ``COMMANDS`` entry declares.  A
        second run into the same directory that fails after the load, on an ``abc``
        feature cell, leaves its own echo and none of those outputs; files it does not
        declare, such as ``evaluate``'s ``model.txt`` and ``scaler.txt``, stay."""
        header, *rows = keyed_csv(tmp_path / "keyed.csv").read_text().splitlines()
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text(f"{header},domain\n" + "".join(f"{r},{'ABC'[i % 3]}\n" for i, r in enumerate(rows)))
        bad.write_text(good.read_text().replace("\n", "\nabc", 1))
        out = tmp_path / "o"
        cfgs = [
            write_cfg(tmp_path / f"{data.stem}.cfg", self.EVERY_COMMAND.format(data=data, out=out))
            for data in (good, bad)
        ]
        if command == "evaluate":
            assert main(["train", "--config", str(cfgs[0])]) == 0
        before = {p.name for p in out.iterdir()} if out.exists() else set()
        assert main([command, "--config", str(cfgs[0])]) == 0
        written = {p.name for p in out.iterdir()} - before - {"effective_config.txt"}
        assert written == set(COMMANDS[command][1])
        assert main([command, "--config", str(cfgs[1])]) == 3
        err = capsys.readouterr().err
        assert "non-numeric value 'abc" in err and "Traceback" not in err
        assert {p.name for p in out.iterdir()} == before | {"effective_config.txt"}
        echo = (out / "effective_config.txt").read_text(encoding="utf-8")
        assert echo == render_config(ExperimentConfig.load(cfgs[1]).values)

    def test_lodo_fold_that_overflows_the_model_is_numeric_failure(
        self, tmp_path, capsys, monkeypatch
    ):
        """Every cell's model is a hand-set one that is finite on every row but the
        1e300 row of fold C, where its first layer overflows: ``auroc`` rejects the
        fold's NaN score, so the run exits 4 and writes no table and no choice."""
        import gradframe.evaluation as evaluation

        model = build_model([[[1e10, 0.0], [0.0, 1.0]], np.eye(2)], [np.zeros(2), np.zeros(2)])
        monkeypatch.setattr(evaluation, "train_gradframe", lambda runs, _: [(model, None)] * len(runs))
        rows = [f"{x},{x},{int(x > 0)},{dom}" for dom in "ABC" for x in (-1.0, -0.5, 0.5, 1.0)]
        rows[-1] = "1e300,1,1,C"
        (data := tmp_path / "doms.csv").write_text("x0,x1,label,domain\n" + "\n".join(rows) + "\n")
        out = tmp_path / "o"
        body = f"dataset.kind = csv\ndata.source_csv = {data}\ndata.standardize = false\noutput.dir = {out}\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["lodo", "--config", str(write_cfg(tmp_path / "c.cfg", body))]) == 4
        err = capsys.readouterr().err
        assert "numeric failure: 1 of 4 scores are not finite" in err and "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == ["effective_config.txt"]

    def test_seed_flag_overrides(self, tmp_path):
        out = tmp_path / "s"
        cfg = write_cfg(tmp_path / "c.cfg", f"dataset.kind = simulate\noutput.dir = {out}\n")
        assert main(["simulate", "--config", str(cfg), "--seed", "9"]) == 0
        echoed = (out / "effective_config.txt").read_text()
        assert "seed = 9" in echoed

    def test_bad_sweep_value_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"shift.sweep = gamma1\nshift.sweep_values = 0.1,abc\noutput.dir = {tmp_path}/o\n",
        )
        assert main(["shift-report", "--config", str(cfg)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scaler",
        ["0 0\n", "0 x\n1 1\n", "0 0\n1\n", "0 0 0\n1 1 1\n", "0 0\n-1 -1\n", "0 0\ninf 1\n", "nan 0\n1 1\n"],
        ids=[
            "missing-line", "non-numeric", "length-mismatch", "wrong-dimension",
            "negative-std", "infinite-std", "nan-mean",
        ],
    )
    def test_malformed_scaler_is_data_error(self, tmp_path, capsys, scaler):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "c.cfg", TINY_TRAIN.format(method="erm", out=out))
        assert main(["train", "--config", str(cfg)]) == 0
        (out / "scaler.txt").write_text(scaler)
        tgt = tmp_path / "tgt.csv"
        tgt.write_text("x0,x1,label\n0.5,0.5,1\n-0.6,-0.4,0\n")
        eval_cfg = write_cfg(tmp_path / "e.cfg", EVAL_ONE_DOMAIN.format(tgt=tgt, out=out))
        assert main(["evaluate", "--config", str(eval_cfg)]) == 3
        assert "scaler.txt" in capsys.readouterr().err
        assert not (out / "eval_report.json").exists()

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_m_samples_is_config_error(self, tmp_path, capsys, value):
        data = tmp_path / "keyed.csv"
        data.write_text("x0,x1,label,month\n0,0,0,1\n1,1,1,2\n0,1,0,3\n1,0,1,4\n")
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"""
dataset.kind = csv
data.source_csv = {data}
csv.feature_columns = x0,x1
csv.domain_column =
select_k.key_column = month
select_k.m_samples = {value}
output.dir = {tmp_path}/o
""",
        )
        assert main(["select-k", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "select_k.m_samples" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("at_max_plus_one", [True, False], ids=["max+1", "1e12"])
    @pytest.mark.parametrize(
        "command, key, maximum",
        [
            ("select-k", "select_k.m_samples", MAX_M_SAMPLES),
            ("train", "ascent.max_steps", MAX_ASCENT_STEPS),
            ("train", "simulate.points_per_blob", MAX_POINTS_PER_BLOB),
            ("simulate", "simulate.target.points_per_blob", MAX_POINTS_PER_BLOB),
            ("train", "train.hidden_dims", MAX_HIDDEN_WIDTH),
            ("train", "train.epochs", MAX_EPOCHS),
            ("train", "train.pretrain_epochs", MAX_EPOCHS),
        ],
    )
    def test_count_past_its_maximum_is_config_error_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, key, maximum, at_max_plus_one
    ):
        """A count past its maximum would size work arrays by the count (Shapley
        permutations, ascent traces, simulated points, weight matrices): it fails
        before any data is read or made."""
        cfg = write_cfg(tmp_path / "c.cfg", TINY_TRAIN.format(method="gradframe", out=tmp_path / "o"))
        assert ExperimentConfig.load(cfg, {key: str(maximum)}).values[key] == str(maximum)

        def no_work(*args):
            raise AssertionError("data was read before the config was checked")

        monkeypatch.setattr("gradframe.cli._load_data", no_work)
        monkeypatch.setattr("gradframe.cli.load_csv_dataset", no_work)
        value = maximum + 1 if at_max_plus_one else 10**12
        cfg.write_text(cfg.read_text() + f"{key} = {value}\n")
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"config key '{key}': expected at most {maximum}, got '{value}'" in err
        assert "Traceback" not in err

    def test_seed_count_past_its_maximum_is_config_error_before_any_work(
        self, tmp_path, capsys, monkeypatch
    ):
        """``compare`` trains one model per method and seed: more seeds than the
        maximum fail before any data is read or made."""
        cfg = write_cfg(tmp_path / "c.cfg", TINY_TRAIN.format(method="erm", out=tmp_path / "o"))
        at_max = ",".join(map(str, range(MAX_SEEDS)))
        assert len(ExperimentConfig.load(cfg, {"seeds": at_max})["seeds"]) == MAX_SEEDS

        def no_work(*args):
            raise AssertionError("data was read before the config was checked")

        monkeypatch.setattr("gradframe.cli._load_data", no_work)
        cfg.write_text(cfg.read_text() + f"seeds = {at_max},{MAX_SEEDS}\n")
        assert main(["compare", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"config key 'seeds': expected at most {MAX_SEEDS} comma-separated values" in err
        assert "Traceback" not in err

    def test_bad_fixed_lambda_is_config_error(self, tmp_path, capsys):
        body = TINY_TRAIN.format(method="mixup", out=tmp_path / "o") + "mixup.fixed_lambda = abc\n"
        cfg = write_cfg(tmp_path / "c.cfg", body)
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "mixup.fixed_lambda" in err
        assert "Traceback" not in err

    def test_evaluate_width_mismatch_is_shape_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "c.cfg", TINY_TRAIN.format(method="erm", out=out))
        assert main(["train", "--config", str(cfg)]) == 0
        assert (out / "scaler.txt").exists()
        tgt = tmp_path / "tgt.csv"
        tgt.write_text("x0,x1,x2,label\n0.5,0.5,0.1,1\n-0.6,-0.4,0.2,0\n")
        eval_cfg = write_cfg(tmp_path / "e.cfg", EVAL_ONE_DOMAIN.format(tgt=tgt, out=out))
        assert main(["evaluate", "--config", str(eval_cfg)]) == 3
        assert "3 features, the model takes 2 inputs" in capsys.readouterr().err
        assert not (out / "eval_report.json").exists()

    @pytest.mark.parametrize("dims, rep", [((2, 2, 3), 1), ((2, 2, 2), 7)], ids=["three-outputs", "rep-7"])
    def test_evaluate_model_outside_the_architecture_rule(self, tmp_path, capsys, dims, rep):
        out = tmp_path / "run"
        out.mkdir()
        (out / "model.txt").write_text(model_text(dims, rep, [0.5, -0.25]))
        tgt = tmp_path / "tgt.csv"
        tgt.write_text("x0,x1,label\n0.5,0.5,1\n-0.6,-0.4,0\n")
        eval_cfg = write_cfg(tmp_path / "e.cfg", EVAL_ONE_DOMAIN.format(tgt=tgt, out=out))
        assert main(["evaluate", "--config", str(eval_cfg)]) == 3
        err = capsys.readouterr().err
        assert "model.txt" in err and "Traceback" not in err
        assert not (out / "eval_report.json").exists()

    @pytest.mark.parametrize("line, block", [(4, "W0"), (7, "b0")], ids=["weight", "bias"])
    def test_evaluate_non_finite_model_parameter(self, tmp_path, capsys, line, block):
        out = tmp_path / "run"
        out.mkdir()
        lines = model_text((2, 2, 2), 1, [0.5, -0.25]).splitlines()
        lines[line] = "nan" + lines[line][lines[line].index(" "):]
        (out / "model.txt").write_text("\n".join(lines) + "\n")
        tgt = tmp_path / "tgt.csv"
        tgt.write_text("x0,x1,label\n0.5,0.5,1\n-0.6,-0.4,0\n")
        eval_cfg = write_cfg(tmp_path / "e.cfg", EVAL_ONE_DOMAIN.format(tgt=tgt, out=out))
        assert main(["evaluate", "--config", str(eval_cfg)]) == 3
        err = capsys.readouterr().err
        assert "model.txt" in err and f"block {block}" in err and "Traceback" not in err
        assert not (out / "eval_report.json").exists()

    def test_non_finite_report_value_is_numeric_failure(self, tmp_path, capsys, monkeypatch):
        import gradframe.cli as cli

        def nan_loss(model, domain):
            return replace(evaluate(model, domain), mean_loss=float("nan"))

        monkeypatch.setattr(cli, "evaluate", nan_loss)
        out = tmp_path / "run"
        out.mkdir()
        (out / "model.txt").write_text(model_text((2, 2, 2), 1, [0.5, -0.25]))
        tgt = tmp_path / "tgt.csv"
        tgt.write_text("x0,x1,label\n0.5,0.5,1\n-0.6,-0.4,0\n")
        eval_cfg = write_cfg(tmp_path / "e.cfg", EVAL_ONE_DOMAIN.format(tgt=tgt, out=out))
        assert main(["evaluate", "--config", str(eval_cfg)]) == 4
        err = capsys.readouterr().err
        assert "eval_report.json" in err and "non-finite" in err and "Traceback" not in err
        assert not (out / "eval_report.json").exists()

    def test_diverged_training_is_numeric_failure(self, tmp_path, capsys):
        out = tmp_path / "o"
        body = TINY_TRAIN.format(method="erm", out=out).replace("0.02", "1e308")
        cfg = write_cfg(tmp_path / "c.cfg", body)
        with np.errstate(all="ignore"):
            assert main(["train", "--config", str(cfg)]) == 4
        assert "diverged" in capsys.readouterr().err
        assert not (out / "model.txt").exists()

    def test_overflowing_adam_moment_is_numeric_failure(self, tmp_path, capsys):
        """Unstandardized features near 1e300 overflow Adam's squared gradient; the fit
        is reported as diverged, not saved with its second moments at inf."""
        data = tmp_path / "big.csv"
        rows = [f"{1e300 * (1 + 0.1 * i) if i % 2 else 0.5e300},{i % 3},{i % 2}" for i in range(16)]
        data.write_text("x0,x1,label\n" + "\n".join(rows) + "\n")
        out = tmp_path / "o"
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"""
dataset.kind = csv
data.source_csv = {data}
data.standardize = false
csv.domain_column =
method = erm
train.epochs = 5
train.batch_size = 8
output.dir = {out}
""",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["train", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert "diverged" in err and "RuntimeWarning" not in err
        assert not (out / "model.txt").exists()

    def test_groupdro_weight_overflow_is_numeric_failure(self, tmp_path, capsys):
        out = tmp_path / "o"
        body = TINY_TRAIN.format(method="groupdro", out=out).replace("epochs = 25", "epochs = 50")
        cfg = write_cfg(tmp_path / "c.cfg", body + "groupdro.eta = 1e6\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["train", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not (out / "model.txt").exists()

    @pytest.mark.parametrize(
        "case, code",
        [
            ("source-csv-is-directory", 3),
            ("config-is-directory", 2),
            ("csv-not-utf8", 3),
            ("non-finite-feature", 3),
            ("key-cell-inf", 3),
            ("select-k-without-source", 2),
        ],
    )
    def test_bad_input_file_is_typed_error(self, tmp_path, capsys, case, code):
        data = tmp_path / "data.csv"
        rows = ["0,0,0,1", "1,1,1,2", "0,1,0,3", "1,0,1,4"]
        if case == "non-finite-feature":
            rows[1] = "1,inf,1,2"
        if case == "key-cell-inf":
            rows[1] = "1,1,1,inf"
        data.write_text("x0,x1,label,month\n" + "\n".join(rows) + "\n")
        if case == "csv-not-utf8":
            data.write_bytes(b"x0,x1,label\n0,\xff,1\n")
        source = {"source-csv-is-directory": tmp_path, "select-k-without-source": ""}.get(case, data)
        body = f"dataset.kind = csv\ndata.source_csv = {source}\noutput.dir = {tmp_path}/o\n"
        command = "train"
        if case in ("key-cell-inf", "select-k-without-source"):
            command = "select-k"
            body += "csv.feature_columns = x0,x1\ncsv.domain_column =\nselect_k.key_column = month\n"
        else:
            body += "csv.domain_column = month\n"
        cfg = tmp_path if case == "config-is-directory" else write_cfg(tmp_path / "c.cfg", body)
        assert main([command, "--config", str(cfg)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if case == "non-finite-feature":
            assert "row 2, column 'x1'" in err

    @pytest.mark.parametrize(
        "setting",
        ["csv.feature_columns = x0,label", "csv.feature_columns = x0,domain", "csv.domain_column = label"],
        ids=["feature-is-label", "feature-is-domain", "domain-is-label"],
    )
    def test_overlapping_csv_columns_are_config_error(self, tmp_path, capsys, setting):
        data = tmp_path / "data.csv"
        data.write_text("x0,x1,label,domain\n0,0,0,A\n1,1,1,A\n0,1,0,B\n1,0,1,B\n")
        out = tmp_path / "o"
        body = f"dataset.kind = csv\ndata.source_csv = {data}\nmethod = erm\n{setting}\noutput.dir = {out}\n"
        assert main(["train", "--config", str(write_cfg(tmp_path / "c.cfg", body))]) == 2
        err = capsys.readouterr().err
        assert "config keys csv.*" in err and "Traceback" not in err
        assert not out.exists()

    def test_repeated_csv_column_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("x0,x0,label,domain\n0,0,0,A\n1,1,1,A\n0,1,0,B\n1,0,1,B\n")
        out = tmp_path / "o"
        body = f"dataset.kind = csv\ndata.source_csv = {data}\nmethod = erm\noutput.dir = {out}\n"
        assert main(["train", "--config", str(write_cfg(tmp_path / "c.cfg", body))]) == 3
        err = capsys.readouterr().err
        assert "column 'x0' appears more than once" in err and "Traceback" not in err
        assert not (out / "model.txt").exists()

    def test_removed_parallel_flag_is_usage_error(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", f"dataset.kind = simulate\noutput.dir = {tmp_path}/o\n")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg), "--parallel", "2"])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def scaler_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("scaler")


# the files ``standardize`` can write: finite means, finite stds >= 0
SCALER_STATS = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        arrays(np.float64, n, elements=st.floats(allow_nan=False, allow_infinity=False)),
        arrays(np.float64, n, elements=st.floats(min_value=0, allow_infinity=False)),
    )
)


@settings(max_examples=150, deadline=None)
@given(stats=SCALER_STATS)
def test_scaler_round_trip_is_bit_exact(scaler_dir, stats):
    mean, std = stats
    _save_scaler(Standardization(mean=mean, std=std), scaler_dir)
    loaded = _load_scaler(scaler_dir / "scaler.txt", mean.size)
    assert loaded.mean.tobytes() == mean.tobytes()
    assert loaded.std.tobytes() == std.tobytes()


# any bytes, any text, and text made of the scaler's own tokens in any order
SCALER_TOKENS = st.sampled_from(["0", "1.5", "-2e3", "nan", "inf", "x", " ", "\t", "\n", "\r"])
SCALER_TEXT = (
    st.binary(max_size=64)
    | st.text(max_size=32).map(lambda t: t.encode("utf-8", "surrogatepass"))
    | st.lists(SCALER_TOKENS, max_size=24).map(lambda tokens: "".join(tokens).encode())
)


@settings(max_examples=300, deadline=None)
@given(text=SCALER_TEXT, input_dim=st.integers(1, 3))
def test_any_scaler_text_loads_or_is_data_error(scaler_dir, text, input_dim):
    path = scaler_dir / "drawn.txt"
    path.write_bytes(text)
    try:
        loaded = _load_scaler(path, input_dim)
    except DataError:
        return
    assert loaded.mean.shape == loaded.std.shape == (input_dim,)
    assert np.isfinite(loaded.mean).all() and np.isfinite(loaded.std).all() and (loaded.std >= 0).all()


# Cells that break a key, label or feature column: negative, fractional, empty,
# non-finite and overflowing values, and a whole number that is not a label.
BAD_CELLS = ["2", "-1", "0.5", "1.7", "", "nan", "1e300"]
FUZZ_CELL = st.integers(-3, 3).map(str) | st.floats(-3, 3).map(repr)


@st.composite
def fuzz_csv(draw) -> tuple[str, list[str]]:
    """A source CSV and its config's feature list: 1-3 features and 1-30 rows of
    valid cells, then up to three bad cells or cut rows. Header names may repeat."""
    distinct = st.lists(st.sampled_from(["x0", "x1", "x2"]), min_size=1, max_size=3, unique=True)
    features = draw(distinct | st.lists(st.sampled_from(["x0", "x1", "month"]), min_size=1, max_size=3))
    label, key = draw(st.sampled_from(["label"] * 3 + ["x0"])), draw(st.sampled_from(["month"] * 3 + ["x1"]))
    header = [*features, label, key]
    n = draw(st.integers(1, 30))
    rows = [
        [*(draw(FUZZ_CELL) for _ in features), draw(st.sampled_from("01")), str(draw(st.integers(1, 4)))]
        for _ in range(n)
    ]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        row = rows[draw(st.integers(0, n - 1))]
        col = draw(st.integers(0, len(header)))
        if col == len(header):
            row.pop()
        elif col < len(row):
            row[col] = draw(st.sampled_from(BAD_CELLS))
    text = "\n".join(",".join(r) for r in [header, *rows]) + "\n"
    return text, list(dict.fromkeys(features))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _assert_documented_exits(cfg: Path, out: Path, commands) -> None:
    """Run each command in turn: it exits 0, 2, 3 or 4 with no traceback, and a failed
    ``train`` leaves no ``model.txt``."""
    for command in commands:
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore")
            code = main([command, "--config", str(cfg)])
        assert code in (0, 2, 3, 4), (command, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if command == "train" and code != 0:
            assert not (out / "model.txt").exists()


@settings(max_examples=60, deadline=None)
@given(source=fuzz_csv(), epochs=st.integers(1, 5), standardize=st.booleans())
def test_drawn_csv_runs_end_in_a_documented_exit(fuzz_dir, source, epochs, standardize):
    text, features = source
    run = fuzz_dir / "run"
    shutil.rmtree(run, ignore_errors=True)
    out = run / "out"
    (data := run / "source.csv").parent.mkdir()
    data.write_text(text)
    cfg = write_cfg(
        run / "c.cfg",
        f"dataset.kind = csv\ndata.source_csv = {data}\ndata.standardize = {str(standardize).lower()}\n"
        f"csv.feature_columns = {','.join(features)}\ncsv.domain_column =\nmethod = erm\n"
        f"train.epochs = {epochs}\ntrain.batch_size = 8\nselect_k.candidates = 2,3\n"
        f"select_k.key_column = month\nselect_k.m_samples = 4\noutput.dir = {out}\n",
    )
    _assert_documented_exits(cfg, out, ("train", "evaluate", "select-k"))


def _fuzz_rows(draw, width: int, n: int, domains: str) -> list[list[str]]:
    """n rows of ``width`` valid feature cells, a label and a domain drawn from ``domains``,
    then up to two cells replaced by a bad or huge value, or a row cut short."""
    rows = [
        [*(draw(FUZZ_CELL) for _ in range(width)), draw(st.sampled_from("01")), draw(st.sampled_from(domains))]
        for _ in range(n)
    ]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        row = rows[draw(st.integers(0, n - 1))]
        col = draw(st.integers(0, width + 2))
        if col == width + 2:
            row.pop()
        elif col < len(row):
            row[col] = draw(st.sampled_from([*BAD_CELLS, "1e308", "-1.7e308"]))
    return rows


@st.composite
def fuzz_domain_csvs(draw) -> tuple[str, str, list[str]]:
    """A source CSV of 1-30 rows over 1-4 domains, a target CSV of 1-10 rows with the
    same or another header, and the config's feature list: 1-4 features whose header
    names may repeat."""
    names = ["x0", "x1", "x2", "x3"]
    distinct = st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True)
    features = draw(distinct | st.lists(st.sampled_from(names), min_size=1, max_size=4))
    domains = "abcd"[: draw(st.integers(1, 4))]
    target_features = draw(st.just(features) | distinct)
    files = []
    for cols, n in ((features, draw(st.integers(1, 30))), (target_features, draw(st.integers(1, 10)))):
        rows = [[*cols, "label", "domain"], *_fuzz_rows(draw, len(cols), n, domains)]
        files.append("\n".join(",".join(r) for r in rows) + "\n")
    return files[0], files[1], list(dict.fromkeys(features))


# a step size or penalty weight on its usual scale, or anywhere up to the edge of overflow
FUZZ_WEIGHT = st.sampled_from([0.01, 1.0, 10.0]) | st.floats(0.0, 1e308)


# A failed ``train`` once left its model behind: the target's finite cell 1e308
# overflows the trained network, and the NaN target loss fails the report.
DOMAIN_CSV_EXAMPLE = dict(
    data=(
        "x0,label,domain\n" + "0,0,a\n" * 22 + "1.0,0,b\n",
        "x0,label,domain\n1e308,0,a\n" + "0,0,a\n" * 9,
        ["x0"],
    ),
    epochs=1,
    max_steps=0,
    standardize=False,
    sweep="",
    baseline="erm",
    weights=(0.01, 0.01, 0.01, 1.0),
)


@settings(max_examples=40, deadline=None)
@example(**DOMAIN_CSV_EXAMPLE)
@given(
    data=fuzz_domain_csvs(),
    epochs=st.integers(1, 5),
    max_steps=st.integers(0, 3),
    standardize=st.booleans(),
    sweep=st.sampled_from(["", "gamma1", "gamma2"]),
    baseline=st.sampled_from(["erm", "groupdro"]),
    weights=st.tuples(FUZZ_WEIGHT, FUZZ_WEIGHT, FUZZ_WEIGHT, FUZZ_WEIGHT),
)
def test_drawn_domain_csv_runs_end_in_a_documented_exit(
    fuzz_dir, data, epochs, max_steps, standardize, sweep, baseline, weights
):
    """``train`` with gradframe, a two-seed ``compare`` against ERM or GroupDRO,
    ``shift-report`` and ``lodo`` on drawn source and target files and overrides, with
    ``ascent.alpha``, ``penalty.gamma2``, ``groupdro.eta`` and ``train.beta`` drawn up to
    1e308: each exits 0, 2, 3 or 4 with no traceback, and a failed ``train`` leaves no
    model."""
    source, target, features = data
    alpha, gamma2, eta, beta = weights
    run = fuzz_dir / "domains"
    shutil.rmtree(run, ignore_errors=True)
    out = run / "out"
    (src := run / "source.csv").parent.mkdir()
    src.write_text(source)
    (tgt := run / "target.csv").write_text(target)
    cfg = write_cfg(
        run / "c.cfg",
        f"dataset.kind = csv\ndata.source_csv = {src}\ndata.target_csv = {tgt}\n"
        f"data.standardize = {str(standardize).lower()}\ncsv.feature_columns = {','.join(features)}\n"
        f"method = gradframe\ntrain.epochs = {epochs}\ntrain.pretrain_epochs = {epochs}\n"
        f"train.batch_size = 8\nascent.max_steps = {max_steps}\nascent.min_steps = 0\n"
        f"shift.sweep = {sweep}\nshift.sweep_values = 0.1,1\ncompare.methods = {baseline},gradframe\n"
        f"ascent.alpha = {alpha!r}\npenalty.gamma2 = {gamma2!r}\ngroupdro.eta = {eta!r}\n"
        f"train.beta = {beta!r}\nseeds = 0,1\noutput.dir = {out}\n",
    )
    _assert_documented_exits(cfg, out, ("train", "compare", "shift-report", "lodo"))
