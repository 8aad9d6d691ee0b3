"""Benchmark of the gradframe CLI, one fresh process per timed run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's inputs are written from four
input seeds derived from ``--seed``; then the CLI runs on them, each run in
its own process, until ``--seconds`` are used.  Every run's outputs are
checked, and the first input runs twice so its outputs are compared byte for
byte.

``--trace 0`` prints the end-to-end metrics:

- ``cpu_ref_s``: CPU time of ``gradframe.cli.main`` from entry to return,
  divided by the core's slowness during the run (see ``CoreProbe``); the
  median per input, averaged over the inputs;
- ``setup_s``: CPU time of the process before it enters ``main``
  (interpreter start and ``import gradframe``), divided by the core's
  slowness; the median over the run's CLI processes;
- ``peak_rss_mb``: median peak resident memory of the process.

``--trace 1`` alternates untraced and traced runs on the first input and
prints the per-layer metrics from the traced ones (see ``tracer.py`` and
``layers.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run fails on a
nonzero exit, a missing output, a failed output check, or outputs that
differ from an earlier run of the same input; ``failed / attempted`` is the
workload's failure ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# The network is 2 hidden units wide: BLAS threads only add scheduler noise.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
INPUTS_PER_RUN = 4
# Leaves room under the 180 s a benchmark run may take.
HARD_LIMIT_S = 150.0
POLL_S = 0.01
# On a shared host a core's speed drifts by up to 1.5x over seconds to
# minutes, far more than the changes the benchmark must resolve, and the
# hypervisor takes the core away at times.  CPU time leaves out the time
# taken away, so both timed metrics are CPU times.  For the speed, while a CLI process runs, a harness thread
# on the same core times a fixed loop every PROBE_EVERY_S; the lower quartile
# of those times over PROBE_REF_S (the loop's time on the reference core) is
# how slow the core ran.
PROBE_EVERY_S = 0.05
PROBE_REF_S = 0.001


def input_seeds(seed: int) -> list[int]:
    return [
        int.from_bytes(hashlib.sha256(f"{seed}/{k}".encode()).digest()[:4], "little") >> 1
        for k in range(INPUTS_PER_RUN)
    ]


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREAD_ENV,
    }


def _probe_loop() -> float:
    t = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i
    return time.perf_counter() - t


class CoreProbe:
    """Samples the core's speed in a background thread while the block runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_EVERY_S):
            self.samples.append(_probe_loop())

    def __enter__(self) -> "CoreProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def slowness(self) -> float:
        """Core time per reference-core time; the loop is preempted at times,
        so its lower quartile, not its median, tracks the core."""
        if len(self.samples) < 2:
            return 1.0
        return statistics.quantiles(self.samples, n=4)[0] / PROBE_REF_S


def invoke(cli_args: list[str], work: Path, spans: Path | None, deadline: float) -> dict:
    """Run the CLI once in a fresh process; timings and rusage, or the error."""
    timing = work / "timing.json"
    timing.unlink(missing_ok=True)
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        str(timing),
        str(spans) if spans else "-",
        *cli_args,
    ]
    with (work / "stderr.txt").open("wb") as err, CoreProbe() as probe:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            cmd,
            stdout=subprocess.DEVNULL,
            stderr=err,
            env=child_env(),
            cwd=ROOT,
        )
        status, usage = _wait(proc, deadline)
    if status is None or proc.returncode != 0 or not timing.exists():
        return {
            "exit_code": proc.returncode,
            "error": (work / "stderr.txt").read_text(errors="replace")[-2000:],
        }
    t = json.loads(timing.read_text())
    slowness = probe.slowness()
    return {
        "exit_code": 0,
        "setup_wall_s": t["main_start"] - t_spawn,
        "setup_s": t["setup_cpu"] / slowness,
        "wall_s": t["main_end"] - t["main_start"],
        "main_cpu_s": t["main_cpu"],
        "cpu_ref_s": t["main_cpu"] / slowness,
        "slowness": slowness,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def _kill(proc: subprocess.Popen) -> None:
    proc.kill()
    os.wait4(proc.pid, 0)
    proc.returncode = -signal.SIGKILL


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap the child with ``wait4`` for its own rusage; kill it at the deadline."""
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid == proc.pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return status, usage
            if time.monotonic() > deadline:
                _kill(proc)
                return None, None
            time.sleep(POLL_S)
    except BaseException:
        if proc.returncode is None:
            _kill(proc)
        raise


def schedule(trace: bool):
    """(input, traced) pairs in run order; the first ``minimum`` are always run.

    Untraced: every input once, then the first again, so each run compares
    two runs of one input byte for byte; further runs cycle over the inputs.
    Traced: untraced and traced runs of the first input, alternating.
    """
    if trace:
        return 4, ((0, i % 2 == 1) for i in itertools.count())
    return INPUTS_PER_RUN + 1, ((i % INPUTS_PER_RUN, False) for i in itertools.count())


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from layers import layer_metrics, median
    from tracer import load, summarize
    from workloads import WORKLOADS, CheckFailed, output_digest

    workload = WORKLOADS[name]
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    root = WORK / f"{name}-s{seed}-t{int(trace)}-p{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    try:
        inputs = []
        for k, input_seed in enumerate(input_seeds(seed)[: 1 if trace else INPUTS_PER_RUN]):
            work = root / f"in{k}"
            work.mkdir(parents=True)
            out = work / "out"
            inputs.append((work, input_seed, out, workload.make_inputs(work, input_seed, out)))

        digests: dict[int, str] = {}
        runs: dict[bool, list[dict]] = {False: [], True: []}
        summaries: list[dict] = []
        aurocs: list[float] = []
        attempted = failed = 0
        minimum, order = schedule(trace)
        t_measure = time.monotonic()
        for k, traced in order:
            # stop when the next run would end after --seconds, on average
            elapsed = time.monotonic() - t_measure
            per_run = elapsed / attempted if attempted else 0.0
            if attempted >= minimum and elapsed + per_run > seconds:
                break
            if time.monotonic() + per_run > hard_deadline:
                break
            work, input_seed, out, cli_args = inputs[k]
            shutil.rmtree(out, ignore_errors=True)
            spans = work / "spans.npz" if traced else None
            attempted += 1
            rec = invoke(cli_args, work, spans, hard_deadline)
            try:
                if "error" in rec:
                    raise CheckFailed(f"exit code {rec['exit_code']}: {rec['error']}")
                auroc = workload.check(work, input_seed, out)
                digest = output_digest(out)
                if digests.setdefault(k, digest) != digest:
                    raise CheckFailed("outputs differ from an earlier run of the same input")
            except Exception as exc:  # every failed check counts; the run goes on
                failed += 1
                print(f"{name} input {input_seed} failed: {exc}", file=sys.stderr)
                continue
            rec["input"] = k
            runs[traced].append(rec)
            if traced:
                summaries.append(summarize(load(spans)))
            elif auroc is not None:
                aurocs.append(auroc)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    if trace:
        metrics = layer_metrics(summaries, runs[True], runs[False], median(aurocs))
    else:
        ok = runs[False]
        # inputs differ in work (the ascent takes 3 to 15 steps per point), so
        # each input counts once: the mean of the per-input medians
        per_input = [median(r["cpu_ref_s"] for r in ok if r["input"] == k) for k in digests]
        metrics = {
            "cpu_ref_s": (sum(per_input) / len(per_input) if per_input else 0.0, "s"),
            "setup_s": (median(r["setup_s"] for r in ok), "s"),
            "peak_rss_mb": (median(r["peak_rss_mb"] for r in ok), "MB"),
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gradframe" / "cli.py").is_file():
        print(f"no gradframe sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = environment()
    # the CLI process and the speed probe share one core (see CoreProbe)
    env["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    print(json.dumps({"env": env}))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
