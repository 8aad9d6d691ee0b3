"""Repeat ``run.py`` over seeds and summarize each metric's spread.

    python3 perfbench/collect.py --workloads train-sim,shift-csv --seeds 1-10 \
        [--trace 0|1] [--seconds 25] [--out summary.json]

Runs one workload and seed at a time, from the repository root.  For every
metric it prints the median over seeds and the quartile spread
(Q3 - Q1) / median, with the quartiles from ``statistics.quantiles(values,
n=4)``.  With ``--trace 1`` each ``time_s`` metric also gets its share of the
traced wall time (``cli.main.time_s``).  ``--out`` writes the summary, with
every seed's value, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> float:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["env"], json.loads(lines[-1])


def summarize(results: list[dict], trace: int) -> dict:
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {
            "unit": first["unit"],
            "median": statistics.median(values),
            "spread": spread(values),
            "values": values,
        }
    if trace:
        wall = metrics["cli.main.time_s"]["median"]
        for name, m in metrics.items():
            if name.endswith(".time_s") and wall:
                m["share"] = m["median"] / wall
    return {
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "correct": all(r["correct"] for r in results),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    summary = {"seeds": seeds, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            env, result = run_once(workload, seed, args.seconds, args.trace)
            summary.setdefault("env", env)
            results.append(result)
            brief = "" if args.trace else {k: v["value"] for k, v in result["metrics"].items()}
            print(workload, seed, result["attempted"], result["failed"], brief, file=sys.stderr)
        summary["workloads"][workload] = ws = summarize(results, args.trace)
        print(f"{workload}: attempted {ws['attempted']} failed {ws['failed']}")
        for name, m in ws["metrics"].items():
            share = f" share {m['share']:.3f}" if "share" in m else ""
            print(
                f"  {name:40s} median {m['median']:.6g} {m['unit']:6s}"
                f" spread {m['spread']:.4f}{share}"
            )
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
