"""The public surface: the README's library tour runs and uses only exported names, and every export resolves."""

from __future__ import annotations

import re
from pathlib import Path

import gradframe as gf

README = Path(__file__).resolve().parent.parent / "README.md"


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
