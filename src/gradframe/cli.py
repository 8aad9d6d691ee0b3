"""Command-line front end for reproducible experiment runs.

Subcommands: simulate | train | shift-report | select-k | lodo | compare |
evaluate.  Every command reads a flat key-value config, echoes the resolved
config into the output directory, and writes deterministic CSV/JSON outputs;
the run timestamp is isolated in each report's metadata block.  Before a command
runs, ``main`` removes the outputs its ``COMMANDS`` entry names, so a failed run
leaves its echo and none of them.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, render_config
from .core import FictitiousSet, fictitious_sets, train_gradframe
from .data import (
    Domain,
    DomainSet,
    Standardization,
    apply_standardization,
    load_csv_dataset,
    read_text,
    save_csv_dataset,
    simulation_source,
    simulation_target,
    standardize,
    write_csv,
    write_json,
)
from .errors import ConfigError, DataError, NumericError, ShapeError
from .evaluation import evaluate, lodo_cv_search, welch_t_one_tailed
from .model_io import load_model, save_model
from .nn import MlpModel
from .shift import select_domain_count, shift_metrics
from .training import GroupDroRule, fit_stack


def _metadata(cfg: ExperimentConfig, command: str) -> dict:
    return {
        "command": command,
        "seed": cfg["seed"],
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
    }


def _source_path(cfg: ExperimentConfig) -> str:
    path = cfg["data.source_csv"]
    if not path:
        raise ConfigError("config key 'data.source_csv' is required for dataset.kind=csv")
    return path


def _load_data(cfg: ExperimentConfig, seed: int) -> tuple[DomainSet, Domain | None]:
    """Source domains plus the optional evaluation target, standardized if configured."""
    if cfg["dataset.kind"] == "simulate":
        source = simulation_source(seed, cfg["simulate.points_per_blob"], cfg.source_boundary)
        target = simulation_target(seed, cfg["simulate.target.points_per_blob"], cfg.target_boundary)
    else:
        source = load_csv_dataset(_source_path(cfg), cfg.csv_schema)
        target, target_csv = None, cfg["data.target_csv"]
        if target_csv:
            targets = load_csv_dataset(target_csv, cfg.csv_schema)
            # a model reads its inputs by position, so the columns must be the same, in order
            if targets.feature_names != source.feature_names:
                differ = (
                    f"{targets.feature_dim} features, the source has {source.feature_dim}"
                    if targets.feature_dim != source.feature_dim
                    else "the feature columns differ from the source's, by name or order"
                )
                raise DataError(
                    f"{target_csv}: {differ}: {list(targets.feature_names)} against "
                    f"{list(source.feature_names)}"
                )
            target = targets.pooled()
    if cfg["data.standardize"]:
        source = standardize(source)
        if target is not None:
            target = apply_standardization(target, source.standardization)
    return source, target


def _train_cells(
    cfg: ExperimentConfig, cells: list[tuple[str, int, DomainSet]]
) -> list[tuple[MlpModel, FictitiousSet | None]]:
    """Each ``(method, seed, source)`` cell's model and fictitious set (None for a
    baseline), in cell order: the baselines on the pooled source as one ``fit_stack``,
    the gradframe cells as one ``train_gradframe`` plan, each as it trains alone."""
    pools, cfgs, rules, plan = [], [], [], []
    for method, seed, source in cells:
        train_cfg = replace(cfg.train, seed=seed)
        if method == "gradframe":
            plan.append((source, cfg.penalties, train_cfg))
            continue
        pools.append(source.pooled())
        cfgs.append(train_cfg)
        if method == "mixup":
            rules.append(cfg.mixup)
        elif method == "groupdro":
            rules.append(GroupDroRule(tuple(len(d) for d in source.domains), cfg["groupdro.eta"]))
        else:
            rules.append(None)
    baselines = iter(fit_stack([p.x for p in pools], [p.y for p in pools], cfgs, rules))
    ours = iter(train_gradframe(plan, cfg.ascent))
    return [next(ours) if method == "gradframe" else (next(baselines), None) for method, _, _ in cells]


def _save_scaler(stats: Standardization | None, out: Path) -> None:
    if stats is None:
        return
    lines = [
        " ".join("%.17g" % v for v in stats.mean),
        " ".join("%.17g" % v for v in stats.std),
    ]
    (out / "scaler.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _load_scaler(path: Path, input_dim: int) -> Standardization:
    """The mean and std rows ``_save_scaler`` wrote, one value per model input: every
    value finite and every std >= 0, as ``standardize`` fits them."""
    lines = read_text(path).splitlines()
    try:
        mean, std = (np.array([float(v) for v in line.split()]) for line in lines[:2])
    except ValueError:
        raise DataError(f"{path}: expected a mean row and a std row of numbers") from None
    if mean.shape != (input_dim,) or std.shape != (input_dim,):
        raise DataError(
            f"{path}: mean has {mean.size} and std {std.size} values, the model takes {input_dim} inputs"
        )
    if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std >= 0).all()):
        raise DataError(f"{path}: every mean and std must be finite, and every std >= 0")
    return Standardization(mean=mean, std=std)


def cmd_simulate(cfg: ExperimentConfig, out: Path) -> int:
    source = simulation_source(cfg["seed"], cfg["simulate.points_per_blob"], cfg.source_boundary)
    target = simulation_target(cfg["seed"], cfg["simulate.target.points_per_blob"], cfg.target_boundary)
    save_csv_dataset(source, out / "source.csv")
    save_csv_dataset(DomainSet((target,)), out / "target.csv")
    write_json(
        out / "simulate.json",
        {
            "source_rows": sum(len(d) for d in source.domains),
            "target_rows": len(target),
            "domains": [d.id for d in source.domains],
            "metadata": _metadata(cfg, "simulate"),
        },
    )
    return 0


def cmd_train(cfg: ExperimentConfig, out: Path) -> int:
    source, target = _load_data(cfg, cfg["seed"])
    [(model, fict)] = _train_cells(cfg, [(cfg["method"], cfg["seed"], source)])
    payload = {
        "method": cfg["method"],
        "eval_source": evaluate(model, source.pooled()).to_payload(),
        "metadata": _metadata(cfg, "train"),
    }
    if target is not None:
        payload["eval_target"] = evaluate(model, target).to_payload()
    # the report is checked first, so a model that predicts NaN is not saved
    write_json(out / "train_report.json", payload)
    save_model(model, out / "model.txt")
    _save_scaler(source.standardization, out)
    if fict is not None:
        fict.write_csv(out / "fictitious.csv")
    return 0


def cmd_shift_report(cfg: ExperimentConfig, out: Path) -> int:
    source, _ = _load_data(cfg, cfg["seed"])
    # a sweep's runs share the source and config, so one plan pretrains once
    ficts = fictitious_sets([(source, gammas, cfg.train) for gammas in cfg.shift_runs], cfg.ascent)
    metrics = shift_metrics(source, ficts, cfg.train)
    runs = [{"gamma1": g.gamma1, "gamma2": g.gamma2, **m} for g, m in zip(cfg.shift_runs, metrics)]
    payload = {**metrics[0], "config": dict(cfg.values), "metadata": _metadata(cfg, "shift-report")}
    if len(runs) > 1:
        payload["sweep"] = runs
    write_json(out / "shift_report.json", payload)
    write_csv(
        out / "shift_series.csv",
        ["gamma1", "gamma2", "point_index", "covariate_ratio", "concept_delta"],
        (
            [run["gamma1"], run["gamma2"], i, r, d]
            for run in runs
            for i, (r, d) in enumerate(zip(run["covariate_ratios"], run["concept_deltas"]))
        ),
    )
    return 0


def cmd_select_k(cfg: ExperimentConfig, out: Path) -> int:
    if cfg["dataset.kind"] != "csv":
        raise ConfigError("select-k requires dataset.kind=csv with a key column")
    src_path = _source_path(cfg)
    features = cfg.csv_schema.feature_columns
    key = cfg["select_k.key_column"]
    if features is None or key in features:
        # keep the grouping key out of the feature matrix
        raise ConfigError("select-k requires explicit csv.feature_columns (excluding the key column)")
    if key == cfg.csv_schema.label_column:
        # grouping by the label would split the rows by class
        raise ConfigError(f"select_k.key_column {key!r} is also csv.label_column")
    # one domain in file order, the key as its last column, so row i stays paired with key i
    schema = replace(cfg.csv_schema, domain_column=None, feature_columns=(*features, key))
    rows = load_csv_dataset(src_path, schema).domain("all")
    source, keys = Domain("all", rows.x[:, :-1], rows.y), rows.x[:, -1]
    result = select_domain_count(
        source, cfg["select_k.candidates"], keys, cfg.train, m_samples=cfg["select_k.m_samples"]
    )
    table = [[k, result.table[k]] for k in sorted(result.table)]
    write_csv(out / "k_table.csv", ["k", "avg_p_value"], table)
    write_json(
        out / "selection.json",
        {
            "best_k": result.best_k,
            "flat_table": result.flat,
            "skipped": {str(k): v for k, v in result.skipped.items()},
            "table": {str(k): v for k, v in table},
            "metadata": _metadata(cfg, "select-k"),
        },
    )
    return 0


def cmd_lodo(cfg: ExperimentConfig, out: Path) -> int:
    source, _ = _load_data(cfg, cfg["seed"])
    result = lodo_cv_search(source, cfg.grid_pairs, cfg.ascent, cfg.train)
    result.write_csv(out / "lodo_table.csv")
    write_json(
        out / "lodo_choice.json",
        {
            "gamma1": result.best.gamma1,
            "gamma2": result.best.gamma2,
            "mean_auroc": result.mean_auroc,
            "metadata": _metadata(cfg, "lodo"),
        },
    )
    return 0


def cmd_compare(cfg: ExperimentConfig, out: Path) -> int:
    methods, seeds = cfg["compare.methods"], cfg["seeds"]
    # a CSV run reads the same files whatever the seed, so it loads them once
    simulated = cfg["dataset.kind"] == "simulate"
    runs = [_load_data(cfg, seed) for seed in (seeds if simulated else seeds[:1])]
    if any(target is None for _, target in runs):
        raise DataError("compare requires a target dataset")
    if not all((target.y == 0).any() and (target.y == 1).any() for _, target in runs):
        raise NumericError("target domain has a single class; AUROC undefined")
    if not simulated:
        runs *= len(seeds)
    cells = [(m, seed, source) for m in methods for seed, (source, _) in zip(seeds, runs)]
    fits = iter(_train_cells(cfg, cells))
    scores = {m: [evaluate(next(fits)[0], target).auroc for _, target in runs] for m in methods}
    write_csv(
        out / "compare_matrix.csv",
        ["method", "seed", "auroc"],
        ([m, seed, score] for m in methods for seed, score in zip(seeds, scores[m])),
    )
    tests = {}
    diagnostics = []
    if len(seeds) < 2:
        diagnostics.append("fewer than 2 seeds; t-tests skipped")
    else:
        for other in methods[1:]:
            pair = f"{methods[0]}_vs_{other}"
            try:
                # scipy warns of precision loss when the samples nearly coincide
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    t, dof, p = welch_t_one_tailed(scores[methods[0]], scores[other])
            except NumericError as exc:  # both methods scored the same on every seed
                diagnostics.append(f"{pair}: t-test skipped, {exc}")
                continue
            diagnostics += [f"{pair}: {w.message}" for w in caught]
            tests[pair] = {"t": t, "dof": dof, "p_one_tailed": p}
    write_json(
        out / "compare_report.json",
        {
            "methods": methods,
            "seeds": seeds,
            "mean_auroc": {m: float(np.mean(scores[m])) for m in methods},
            "welch_tests": tests,
            "diagnostics": diagnostics,
            "metadata": _metadata(cfg, "compare"),
        },
    )
    return 0


def cmd_evaluate(cfg: ExperimentConfig, out: Path) -> int:
    model = load_model(out / "model.txt")
    eval_path = cfg["data.target_csv"] or cfg["data.source_csv"]
    if not eval_path:
        raise ConfigError("evaluate requires data.target_csv or data.source_csv")
    domain = load_csv_dataset(eval_path, cfg.csv_schema).pooled()
    if domain.feature_dim != model.input_dim:
        raise ShapeError(
            f"{eval_path}: {domain.feature_dim} features, the model takes {model.input_dim} inputs"
        )
    scaler_path = out / "scaler.txt"
    if scaler_path.exists():
        domain = apply_standardization(domain, _load_scaler(scaler_path, model.input_dim))
    write_json(
        out / "eval_report.json",
        {
            "dataset": eval_path,
            "report": evaluate(model, domain).to_payload(),
            "metadata": _metadata(cfg, "evaluate"),
        },
    )
    return 0


COMMANDS = {
    "simulate": (cmd_simulate, ("source.csv", "target.csv", "simulate.json")),
    "train": (cmd_train, ("model.txt", "scaler.txt", "fictitious.csv", "train_report.json")),
    "shift-report": (cmd_shift_report, ("shift_report.json", "shift_series.csv")),
    "select-k": (cmd_select_k, ("k_table.csv", "selection.json")),
    "lodo": (cmd_lodo, ("lodo_table.csv", "lodo_choice.json")),
    "compare": (cmd_compare, ("compare_matrix.csv", "compare_report.json")),
    "evaluate": (cmd_evaluate, ("eval_report.json",)),  # model.txt and scaler.txt are inputs
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradframe",
        description="Distributionally robust training with worst-case fictitious data",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="flat key-value config file")
    parser.add_argument("--out", default=None, help="output directory (default: config output.dir)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = str(args.seed)
        if args.out is not None:
            overrides["output.dir"] = args.out
        cfg = ExperimentConfig.load(args.config, overrides)
        out = cfg["output.dir"]
        out.mkdir(parents=True, exist_ok=True)
        (out / "effective_config.txt").write_text(render_config(cfg.values), encoding="utf-8")
        command, outputs = COMMANDS[args.command]
        for name in outputs:  # a file an earlier run left would be read as this run's
            (out / name).unlink(missing_ok=True)
        return command(cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:  # inputs are read through ``read_text``, so this is an output path
        print(f"config error: cannot write the output {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
