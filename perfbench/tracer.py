"""Span tracing of gradframe's public functions, installed from outside the package.

``Tracer.install`` replaces each hooked function with a timing wrapper at
every name a gradframe module bound it to (``from .nn import adam_step``
copies the function into ``training`` and ``baselines``, so patching
``gradframe.nn.adam_step`` alone would record nothing).  Methods are patched
on their class.  A hook whose module, class or function no longer exists is
listed as missing and skipped.

Spans (name, start, end, parent) stay in memory and are written once, by
``Tracer.dump``, when the traced run ends.  ``summarize`` turns a dump into
the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

ROOT_SPAN = "cli.main"

# (module, attribute path) of every hooked function; spans are named
# "<last module component>.<attribute path>".
HOOKS = (
    ("gradframe.core", "inner_maximize"),
    ("gradframe.core", "pretrain_domain_models"),
    ("gradframe.core", "generate_fictitious_set"),
    ("gradframe.core", "train_gradframe"),
    ("gradframe.core", "FictitiousSet.feature_matrix"),
    ("gradframe.core", "FictitiousSet.write_csv"),
    ("gradframe.nn", "grad_params_batch"),
    ("gradframe.nn", "adam_step"),
    ("gradframe.nn", "grad_input"),
    ("gradframe.nn", "probs_batch"),
    ("gradframe.nn", "bce_loss"),
    ("gradframe.training", "fit_minibatch"),
    ("gradframe.baselines", "train_erm"),
    ("gradframe.baselines", "train_mixup"),
    ("gradframe.baselines", "train_groupdro"),
    ("gradframe.shift", "kde_log_density"),
    ("gradframe.shift", "covariate_shift_ratio"),
    ("gradframe.shift", "concept_shift_delta"),
    ("gradframe.shift", "likelihood_difference"),
    ("gradframe.shift", "ks_two_sample"),
    ("gradframe.shift", "select_domain_count"),
    ("gradframe.shift", "shapley_attribution"),
    ("gradframe.data", "load_csv_dataset"),
    ("gradframe.data", "standardize"),
    ("gradframe.data", "Domain.feature_matrix"),
    ("gradframe.evaluation", "evaluate"),
    ("gradframe.evaluation", "auroc"),
    ("gradframe.model_io", "save_model"),
)


def _ascent_counts(args, kwargs, result) -> dict[str, float]:
    points = result.points
    return {
        "core.ascent.accepted_steps": sum(len(p.objective_trace) - 1 for p in points),
        "core.ascent.aborted": sum(bool(p.aborted) for p in points),
    }


def _kde_bytes(args, kwargs, result) -> dict[str, float]:
    kde = args[0] if args else kwargs["model"]
    query = args[1] if len(args) > 1 else kwargs["query"]
    n, d = kde.samples.shape
    m = np.atleast_2d(np.asarray(query)).shape[0]
    return {"shift.kde.computed_bytes": m * n * d * 8}


def _csv_rows(args, kwargs, result) -> dict[str, float]:
    return {"data.load_csv_dataset.rows": sum(len(d) for d in result.domains)}


# Counters read from a hooked call's arguments and result.  They touch the
# returned objects' fields, so a later change of those types makes the
# counter missing, not the run fail.
COUNTERS = {
    "core.generate_fictitious_set": _ascent_counts,
    "shift.kde_log_density": _kde_bytes,
    "data.load_csv_dataset": _csv_rows,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        span_name, start, end, parent, stack = (
            self.span_name,
            self.start,
            self.end,
            self.parent,
            self._stack,
        )
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                self._count(name, counter, args, kwargs, result)
            return result

        return traced

    def _count(self, name, counter, args, kwargs, result) -> None:
        try:
            values = counter(args, kwargs, result)
        except (AttributeError, KeyError, IndexError, TypeError, ValueError):
            self.missing.append(f"counter:{name}")
            return
        for key, value in values.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("gradframe")]
        for module_name, path in HOOKS:
            span = f"{module_name.rsplit('.', 1)[-1]}.{path}"
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(span)
                continue
            wrapper = self.wrap(span, original)
            if outer:
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, bound, wrapper)

    def dump(self, path) -> None:
        meta = {"names": self.names, "counters": self.counters, "missing": self.missing}
        with open(path, "wb") as fh:
            np.savez(
                fh,
                name=np.asarray(self.span_name, dtype=np.int32),
                start=np.asarray(self.start, dtype=np.float64),
                end=np.asarray(self.end, dtype=np.float64),
                parent=np.asarray(self.parent, dtype=np.int64),
                meta=np.array(json.dumps(meta)),
            )


def load(path) -> dict:
    with np.load(path) as data:
        spans = {k: data[k] for k in ("name", "start", "end", "parent")}
        meta = json.loads(str(data["meta"]))
    return {**spans, **meta}


def _has_ancestor(parent: np.ndarray, name: np.ndarray, target: int) -> np.ndarray:
    """Per span: does any enclosing span carry name id ``target``?"""
    found = np.zeros(parent.shape[0], dtype=bool)
    anc = parent.copy()
    while True:
        live = anc >= 0
        if not live.any():
            return found
        found[live] |= name[anc[live]] == target
        anc = np.where(live, parent[np.maximum(anc, 0)], -1)


def summarize(trace: dict) -> dict:
    """Per hooked function: calls, inclusive time and self time, plus counters.

    Inclusive time counts only the outermost span of a name, so a function
    that reaches itself through another hooked function is not counted
    twice.  Self time is a span's duration minus its direct children's.
    """
    name, parent = trace["name"], trace["parent"]
    dur = trace["end"] - trace["start"]
    n_names = len(trace["names"])
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
    self_time = dur - child[: len(dur)]
    nested = np.zeros(len(dur), dtype=bool)
    for nid in range(n_names):
        own = name == nid
        if own.any():
            nested |= own & _has_ancestor(parent, name, nid)
    calls = np.bincount(name, minlength=n_names)
    incl = np.bincount(name[~nested], weights=dur[~nested], minlength=n_names)
    selfs = np.bincount(name, weights=self_time, minlength=n_names)
    funcs = {
        nm: {"calls": int(calls[i]), "time_s": float(incl[i]), "self_s": float(selfs[i])}
        for i, nm in enumerate(trace["names"])
    }

    def count_under(span: str, ancestor: str) -> int:
        ids = trace["names"]
        if span not in ids or ancestor not in ids:
            return 0
        own = name == ids.index(span)
        return int(np.sum(own & _has_ancestor(parent, name, ids.index(ancestor))))

    return {
        "functions": funcs,
        "counters": dict(trace["counters"]),
        "missing": list(trace["missing"]),
        "count_under": count_under,
        "spans": int(len(dur)),
    }
