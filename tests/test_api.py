"""The public surface: the README's library tour runs and uses only exported names,
every export resolves, and every export is used or has a stated reason to be one."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import gradframe as gf

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(gf.__file__).resolve().parent

# Exports that no module uses and the tour does not show, each with what it is for.
UNUSED_EXPORTS = {
    "bce_loss_batch": "the README's row API, and the conftest one-row oracle",
    "grad_params_batch": "criterion 6 and the nn oracles",
    "shapley_attribution": "criterion 9 and the Shapley oracles",
    "train_mixup": "the ref_* oracle comparisons",
    "train_groupdro": "the ref_* oracle comparisons",
}


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("## Library quick tour", 1)[1].split("```python", 1)[1].split("```", 1)[0]


def test_quick_tour_names_are_exported():
    used = set(re.findall(r"\bgf\.(\w+)", _quick_tour()))
    assert used
    assert used <= set(gf.__all__), sorted(used - set(gf.__all__))


def test_quick_tour_runs(capsys):
    tour = {}
    exec(compile(_quick_tour(), "README.md quick tour", "exec"), tour)
    assert capsys.readouterr().out.startswith("EvalReport(auroc=")
    assert len(tour["ratios"]) == len(tour["deltas"]) == len(tour["fictitious"]) == 400


def test_every_export_resolves():
    missing = [name for name in gf.__all__ if not hasattr(gf, name)]
    assert missing == []
    assert len(set(gf.__all__)) == len(gf.__all__)


def test_every_export_is_used_or_allowed():
    """An export must be a name or attribute some module reads, a ``gf.<name>`` of the
    tour, or an entry of ``UNUSED_EXPORTS``; so a dead export cannot come back unseen."""
    used = set(re.findall(r"\bgf\.(\w+)", _quick_tour()))
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    unused = set(gf.__all__) - used
    assert unused <= set(UNUSED_EXPORTS), sorted(unused - set(UNUSED_EXPORTS))
