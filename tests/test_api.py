"""The public surface: the README's library tour uses only exported names, and every export resolves."""

from __future__ import annotations

import re
from pathlib import Path

import gradframe as gf

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_names_are_exported():
    text = README.read_text(encoding="utf-8")
    tour = text.split("## Library quick tour", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    used = set(re.findall(r"\bgf\.(\w+)", tour))
    assert used
    assert used <= set(gf.__all__), sorted(used - set(gf.__all__))


def test_every_export_resolves():
    missing = [name for name in gf.__all__ if not hasattr(gf, name)]
    assert missing == []
    assert len(set(gf.__all__)) == len(gf.__all__)
