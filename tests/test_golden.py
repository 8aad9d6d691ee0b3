"""Golden output digests: every CLI command's outputs, byte for byte.

Each command runs on a small seeded input, the simulation or a generated
three-domain CSV with a ``month`` key column, and each output directory is
hashed with the JSON ``timestamp`` keys removed.  The digests are checked
against ``golden_digests.json``, recorded with the numpy version, the BLAS
build and OpenBLAS's runtime core, since the bits depend on the BLAS path.
In any other environment the test skips and names both, so another CPU or
numpy build cannot fail it.

Runs chdir into a temporary directory and pass relative paths, because
``effective_config.txt``, ``shift_report.json`` and ``eval_report.json`` echo
them.  A change that alters an output on purpose re-records the file with
``PYTHONPATH=src python tests/test_golden.py`` and says which digests moved.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from gradframe.cli import main

GOLDEN = Path(__file__).resolve().with_name("golden_digests.json")

FAST = """
train.epochs = 12
train.pretrain_epochs = 6
train.batch_size = 64
ascent.max_steps = 3
ascent.alpha = 0.2
"""

KEYED = """
dataset.kind = csv
data.source_csv = keyed.csv
csv.feature_columns = x0,x1
"""

SELECT_K = (
    KEYED
    + "csv.domain_column =\nselect_k.key_column = month\nselect_k.candidates = 2,3\n"
    + "train.epochs = 10\ntrain.batch_size = 16\nseed = 6\n"
)

# (output dir, command, config body); each run's ``output.dir`` is its name
RUNS = [
    ("simulate", "simulate", "dataset.kind = simulate\nseed = 1\n"),
    ("train-gradframe", "train", KEYED + FAST + "method = gradframe\nseed = 2\n"),
    ("train-mixup", "train", "dataset.kind = simulate\nmethod = mixup\nseed = 3\n" + FAST),
    ("evaluate", "evaluate", KEYED),
    ("shift-report", "shift-report", "dataset.kind = simulate\nseed = 4\n" + FAST),
    (
        "shift-sweep",
        "shift-report",
        KEYED + FAST + "shift.sweep = gamma1\nshift.sweep_values = 0.5,5\nseed = 5\n",
    ),
    # the default ascent (15 steps) over a gamma2 sweep reaches the ascent's edge
    # cases: one-row batches, one-row tails of live rows, and a gamma2 = 0 run
    (
        "shift-sweep-gamma2",
        "shift-report",
        KEYED
        + "train.epochs = 12\ntrain.pretrain_epochs = 6\ntrain.batch_size = 64\n"
        + "shift.sweep = gamma2\nshift.sweep_values = 0,1,10\nseed = 8\n",
    ),
    # every other KDE here is 2-D: this one runs at d = 3 on the inputs and
    # d = 16 on the representation
    (
        "shift-report-wide",
        "shift-report",
        KEYED
        + "csv.feature_columns = x0,x1,month\n"
        + FAST
        + "train.hidden_dims = 16,3\nseed = 9\n",
    ),
    ("select-k", "select-k", SELECT_K + "select_k.m_samples = 8\n"),
    # one permutation per point: 2^2 subsets outnumber m(d + 1) = 3 coalition rows,
    # so the Shapley step takes its per-permutation side
    ("select-k-one-permutation", "select-k", SELECT_K + "select_k.m_samples = 1\n"),
    ("lodo", "lodo", KEYED + FAST + "grid.pairs = 0.1:0.1;1:10\nseed = 7\n"),
    (
        "compare",
        "compare",
        "dataset.kind = simulate\ncompare.methods = erm,mixup,groupdro,gradframe\nseeds = 1,2\n"
        + FAST,
    ),
]


def keyed_csv(path: Path) -> None:
    """Three domains A, B, C in turn, 120 rows sorted by a six-value ``month`` key;
    the labels follow a diagonal rule that each domain shifts."""
    rng = np.random.default_rng(26)
    rows = ["x0,x1,label,domain,month"]
    for i in range(120):
        dom = "ABC"[i % 3]
        x0, x1 = (rng.normal(size=2) + (1.5 if rng.uniform() > 0.5 else -1.5)).tolist()
        rows.append(f"{x0!r},{x1!r},{int(x0 + x1 > 0.5 * (i % 3))},{dom},{1 + i // 20}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _strip_timestamps(payload):
    if isinstance(payload, dict):
        return {k: _strip_timestamps(v) for k, v in payload.items() if k != "timestamp"}
    if isinstance(payload, list):
        return [_strip_timestamps(v) for v in payload]
    return payload


def digest(out: Path) -> str:
    """Hash of every file under ``out``, with each JSON report's timestamp removed."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.suffix == ".json":
            data = json.dumps(_strip_timestamps(json.loads(data)), sort_keys=True).encode()
        h.update(path.relative_to(out).as_posix().encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def _openblas_core() -> str | None:
    """The core OpenBLAS picked at run time (numpy's wheels are ``DYNAMIC_ARCH``)."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def environment() -> dict:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_core": _openblas_core(),
    }


def run_all(work: Path) -> dict[str, str]:
    """Every run of ``RUNS`` in ``work``, as the digest of each output directory."""
    keyed_csv(work / "keyed.csv")
    digests = {}
    for name, command, body in RUNS:
        if command == "evaluate":
            (work / name).mkdir()
            for f in ("model.txt", "scaler.txt"):
                shutil.copy(work / "train-gradframe" / f, work / name / f)
        (work / f"{name}.cfg").write_text(body + f"output.dir = {name}\n", encoding="utf-8")
        assert main([command, "--config", f"{name}.cfg"]) == 0, name
        digests[name] = digest(work / name)
    return digests


def test_outputs_match_golden_digests(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    here = environment()
    if golden["environment"] != here:
        pytest.skip(f"digests recorded on {golden['environment']}, this environment is {here}")
    monkeypatch.chdir(tmp_path)
    assert run_all(tmp_path) == golden["digests"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        record = {"environment": environment(), "digests": run_all(Path(work))}
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
