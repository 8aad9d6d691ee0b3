"""Command-line front end for reproducible experiment runs.

Subcommands: simulate | train | shift-report | select-k | lodo | compare |
evaluate.  Every command reads a flat key-value config, echoes the resolved
config into the output directory, and writes deterministic CSV/JSON outputs;
the run timestamp is isolated in each report's metadata block.

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
from .core import FictitiousSet, PenaltyParams, fictitious_sets, train_gradframe
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
from .errors import ConfigError, DataError, GradframeError, NumericError, ShapeError
from .evaluation import evaluate, lodo_cv_search, welch_t_one_tailed
from .model_io import load_model, save_model
from .nn import MlpModel
from .rng import derive_seed
from .shift import (
    concept_config,
    concept_shift_delta,
    covariate_shift_ratio,
    ks_two_sample,
    likelihood_difference,
    select_domain_count,
)
from .training import GroupDroRule, fit_stack


def _metadata(cfg: ExperimentConfig, command: str) -> dict:
    return {
        "command": command,
        "seed": cfg.seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
    }


def _source_path(cfg: ExperimentConfig) -> str:
    if not cfg.source_csv:
        raise ConfigError("config key 'data.source_csv' is required for dataset.kind=csv")
    return cfg.source_csv


def _load_data(cfg: ExperimentConfig, seed: int) -> tuple[DomainSet, Domain | None]:
    """Source domains plus the optional evaluation target, standardized if configured."""
    if cfg.dataset_kind == "simulate":
        source = simulation_source(seed, cfg.sim_points_per_blob, cfg.source_boundary)
        target = simulation_target(seed, cfg.sim_target_points_per_blob, cfg.target_boundary)
    else:
        source = load_csv_dataset(_source_path(cfg), cfg.csv_schema)
        target = None
        if cfg.target_csv:
            targets = load_csv_dataset(cfg.target_csv, cfg.csv_schema)
            # a model reads its inputs by position, so the columns must be the same, in order
            if targets.feature_names != source.feature_names:
                differ = (
                    f"{targets.feature_dim} features, the source has {source.feature_dim}"
                    if targets.feature_dim != source.feature_dim
                    else "the feature columns differ from the source's, by name or order"
                )
                raise DataError(
                    f"{cfg.target_csv}: {differ}: {list(targets.feature_names)} against "
                    f"{list(source.feature_names)}"
                )
            target = targets.pooled()
    if cfg.standardize:
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
            rules.append(GroupDroRule(tuple(len(d) for d in source.domains), cfg.groupdro_eta))
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
    """The mean and std rows ``_save_scaler`` wrote, one value per model input."""
    lines = read_text(path).splitlines()
    try:
        mean, std = (np.array([float(v) for v in line.split()]) for line in lines[:2])
    except ValueError:
        raise DataError(f"{path}: expected a mean row and a std row of numbers") from None
    if mean.shape != (input_dim,) or std.shape != (input_dim,):
        raise DataError(
            f"{path}: mean has {mean.size} and std {std.size} values, the model takes {input_dim} inputs"
        )
    return Standardization(mean=mean, std=std)


def cmd_simulate(cfg: ExperimentConfig, out: Path) -> int:
    source = simulation_source(cfg.seed, cfg.sim_points_per_blob, cfg.source_boundary)
    target = simulation_target(cfg.seed, cfg.sim_target_points_per_blob, cfg.target_boundary)
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
    # a file an earlier run left in ``out`` would be read as this run's, failed or not
    for name in ("model.txt", "scaler.txt", "fictitious.csv", "train_report.json"):
        (out / name).unlink(missing_ok=True)
    source, target = _load_data(cfg, cfg.seed)
    [(model, fict)] = _train_cells(cfg, [(cfg.method, cfg.seed, source)])
    save_model(model, out / "model.txt")
    _save_scaler(source.standardization, out)
    if fict is not None:
        fict.write_csv(out / "fictitious.csv")
    payload = {
        "method": cfg.method,
        "eval_source": evaluate(model, source.pooled()).to_payload(),
        "metadata": _metadata(cfg, "train"),
    }
    if target is not None:
        payload["eval_target"] = evaluate(model, target).to_payload()
    write_json(out / "train_report.json", payload)
    return 0


def _shift_run(
    cfg: ExperimentConfig,
    source: DomainSet,
    gammas: PenaltyParams,
    fict: FictitiousSet,
    source_model: MlpModel,
    concept_models: tuple[MlpModel, MlpModel],
    fict_model: MlpModel,
) -> dict:
    """The shift metrics of one penalty pair, from its fictitious set and the fitted models."""
    ratios = covariate_shift_ratio(source, fict, source_model)
    deltas = concept_shift_delta(source, fict, cfg.train, models=concept_models)
    likelihood = likelihood_difference(source_model, fict_model, fict.x_star)
    source_x = source.pooled().x
    ks_table = {}
    for j in range(source_x.shape[1]):
        ks = ks_two_sample(source_x[:, j], fict.x_star[:, j])
        ks_table[f"x{j}"] = {"statistic": ks.statistic, "p_value": ks.p_value}
    return {
        "gamma1": gammas.gamma1,
        "gamma2": gammas.gamma2,
        "covariate_ratios": [float(v) for v in ratios],
        "concept_deltas": [float(v) for v in deltas],
        "likelihood_difference": float(likelihood),
        "ks_table": ks_table,
    }


def cmd_shift_report(cfg: ExperimentConfig, out: Path) -> int:
    source, _ = _load_data(cfg, cfg.seed)
    train_cfg = cfg.train
    # a sweep's runs share the source and config, so one plan pretrains once; the
    # train_erm model and the concept source model do not depend on the penalties
    # either, and every fit below has one row per source row, so they are one stack
    ficts = fictitious_sets([(source, gammas, train_cfg) for gammas in cfg.shift_runs], cfg.ascent)
    pooled = source.pooled()
    concept_cfg = concept_config(train_cfg)
    fict_cfg = replace(train_cfg, seed=derive_seed(train_cfg.seed, "shift", "fict-model"))
    xs, ys, cfgs = [pooled.x, pooled.x], [pooled.y, pooled.y], [train_cfg, concept_cfg]
    for fict in ficts:
        xs += [fict.x_star] * 2
        ys += [fict.y_star] * 2
        cfgs += [concept_cfg, fict_cfg]
    source_model, concept_source, *fict_side = fit_stack(xs, ys, cfgs)
    runs = [
        _shift_run(cfg, source, gammas, fict, source_model, (concept_source, concept_fict), fict_model)
        for gammas, fict, concept_fict, fict_model in zip(
            cfg.shift_runs, ficts, fict_side[::2], fict_side[1::2]
        )
    ]
    payload = {k: v for k, v in runs[0].items() if k not in ("gamma1", "gamma2")}
    payload.update(config=dict(cfg.values), metadata=_metadata(cfg, "shift-report"))
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
    if cfg.dataset_kind != "csv":
        raise ConfigError("select-k requires dataset.kind=csv with a key column")
    src_path = _source_path(cfg)
    features = cfg.csv_schema.feature_columns
    if features is None or cfg.select_k_key_column in features:
        # keep the grouping key out of the feature matrix
        raise ConfigError("select-k requires explicit csv.feature_columns (excluding the key column)")
    if cfg.select_k_key_column == cfg.csv_schema.label_column:
        # grouping by the label would split the rows by class
        raise ConfigError(
            f"select_k.key_column {cfg.select_k_key_column!r} is also csv.label_column"
        )
    # one domain in file order, the key as its last column, so row i stays paired with key i
    schema = replace(
        cfg.csv_schema, domain_column=None, feature_columns=(*features, cfg.select_k_key_column)
    )
    rows = load_csv_dataset(src_path, schema).domain("all")
    source, keys = Domain("all", rows.x[:, :-1], rows.y), rows.x[:, -1]
    result = select_domain_count(
        source, cfg.select_k_candidates, keys, cfg.train, m_samples=cfg.select_k_m_samples
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
    source, _ = _load_data(cfg, cfg.seed)
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
    methods, seeds = cfg.compare_methods, cfg.seeds
    # a CSV run reads the same files whatever the seed, so it loads them once
    simulated = cfg.dataset_kind == "simulate"
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
    eval_path = cfg.target_csv or cfg.source_csv
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
    "simulate": cmd_simulate,
    "train": cmd_train,
    "shift-report": cmd_shift_report,
    "select-k": cmd_select_k,
    "lodo": cmd_lodo,
    "compare": cmd_compare,
    "evaluate": cmd_evaluate,
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
        out = cfg.output_dir
        out.mkdir(parents=True, exist_ok=True)
        (out / "effective_config.txt").write_text(render_config(cfg.values), encoding="utf-8")
        return COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except GradframeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
