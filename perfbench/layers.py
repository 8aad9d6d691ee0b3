"""Per-layer metrics: one layer per gradframe module, named <module>.<function>.<stat>.

Each traced run's summary (see ``tracer.summarize``) yields one value per
metric; the benchmark reports the median over its traced runs.  A hook or
counter that is missing, or a function the workload never calls, reads 0.
"""

from __future__ import annotations

import statistics

CALLS_AND_TIME = (
    "core.inner_maximize",
    "nn.grad_params_batch",
    "nn.adam_step",
    "nn.grad_input",
    "nn.probs_batch",
    "nn.bce_loss",
    "training.fit_minibatch",
    "shift.kde_log_density",
    "shift.shapley_attribution",
    "data.Domain.feature_matrix",
    "core.FictitiousSet.feature_matrix",
    "evaluation.evaluate",
)
TIME_ONLY = (
    "core.pretrain_domain_models",
    "core.generate_fictitious_set",
    "shift.covariate_shift_ratio",
    "shift.concept_shift_delta",
    "shift.likelihood_difference",
    "shift.ks_two_sample",
    "shift.select_domain_count",
    "data.load_csv_dataset",
    "data.standardize",
    "model_io.save_model",
    "core.FictitiousSet.write_csv",
)
BASELINES = ("baselines.train_erm", "baselines.train_mixup", "baselines.train_groupdro")


def _one_run(summary: dict) -> dict[str, tuple[float, str]]:
    funcs = summary["functions"]
    counters = summary["counters"]
    under = summary["count_under"]

    def stat(func: str, key: str) -> float:
        return funcs.get(func, {}).get(key, 0)

    m: dict[str, tuple[float, str]] = {}
    for func in CALLS_AND_TIME:
        m[f"{func}.calls"] = (stat(func, "calls"), "count")
        m[f"{func}.time_s"] = (stat(func, "time_s"), "s")
    for func in TIME_ONLY:
        m[f"{func}.time_s"] = (stat(func, "time_s"), "s")

    accepted = counters.get("core.ascent.accepted_steps", 0)
    attempts = stat("nn.grad_input", "calls")
    m["core.ascent.accepted_steps"] = (accepted, "count")
    m["core.ascent.aborted"] = (counters.get("core.ascent.aborted", 0), "count")
    m["core.ascent.accept_ratio"] = (accepted / attempts if attempts else 0.0, "ratio")

    fit_steps = under("nn.adam_step", "training.fit_minibatch")
    m["training.fit_minibatch.self_s"] = (stat("training.fit_minibatch", "self_s"), "s")
    m["training.step_us"] = (
        1e6 * stat("training.fit_minibatch", "time_s") / fit_steps if fit_steps else 0.0,
        "us",
    )
    for func in BASELINES:
        m[f"{func}.time_s"] = (stat(func, "time_s"), "s")
        m[f"{func}.adam_steps"] = (under("nn.adam_step", func), "count")

    m["shift.kde.computed_bytes"] = (counters.get("shift.kde.computed_bytes", 0), "B")
    m["shift.shapley.model_evals"] = (under("nn.probs_batch", "shift.shapley_attribution"), "count")
    m["data.load_csv_dataset.rows"] = (counters.get("data.load_csv_dataset.rows", 0), "count")
    m["evaluation.auroc.calls"] = (stat("evaluation.auroc", "calls"), "count")

    root = funcs.get("cli.main", {})
    m["cli.main.time_s"] = (root.get("time_s", 0.0), "s")
    m["trace.unattributed_s"] = (root.get("self_s", 0.0), "s")
    m["trace.spans"] = (summary["spans"], "count")
    m["trace.missing_hooks"] = (len(summary["missing"]), "count")
    return m


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(
    summaries: list[dict],
    traced: list[dict],
    untraced: list[dict],
    target_auroc: float,
) -> dict[str, tuple[float, str]]:
    """Median of each per-layer metric over the traced runs, plus run-level figures.

    ``traced`` and ``untraced`` are the CLI processes' records from ``run.py``.
    """
    per_run = [_one_run(s) for s in summaries] or [_one_run(_EMPTY)]
    out = {
        name: (median(r[name][0] for r in per_run), unit)
        for name, (_, unit) in per_run[0].items()
    }
    # traced and untraced runs alternate; each pair ran under like load
    out["trace.overhead_s"] = (
        median(t["main_cpu_s"] - u["main_cpu_s"] for u, t in zip(untraced, traced)),
        "s",
    )
    out["process.setup_wall_s"] = (median(r["setup_wall_s"] for r in untraced), "s")
    out["process.wall_s"] = (median(r["wall_s"] for r in untraced), "s")
    out["process.main_cpu_s"] = (median(r["main_cpu_s"] for r in untraced), "s")
    out["process.slowness"] = (median(r["slowness"] for r in untraced), "ratio")
    out["process.cpu_s"] = (median(r["cpu_s"] for r in untraced), "s")
    out["evaluation.target_auroc"] = (target_auroc, "auroc")
    return out


# Summary of a workload whose traced runs all failed: every metric reads 0.
_EMPTY = {
    "functions": {},
    "counters": {},
    "missing": [],
    "count_under": lambda span, ancestor: 0,
    "spans": 0,
}
