"""One timed CLI run, executed in its own process by ``run.py``.

    python3 child.py TIMING_JSON SPANS_NPZ|- gradframe-arguments...

Imports ``gradframe.cli`` (interpreter start plus this import is the run's
set-up), then records the CPU time used so far and times
``gradframe.cli.main`` with the process's CPU clock and with the system-wide
monotonic clock, so the parent can subtract its own spawn time.  With a spans path other than ``-`` the public functions are
traced and the spans are written there at exit; without one the run depends
on no name but ``main``.
"""

from __future__ import annotations

import json
import sys
import time

from gradframe.cli import main


def run(timing_path: str, spans_path: str, argv: list[str]) -> int:
    tracer = None
    entry = main
    if spans_path != "-":
        from tracer import ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap(ROOT_SPAN, main)
    setup_cpu = time.process_time()
    t_main = time.monotonic()
    code = entry(argv)
    t_end = time.monotonic()
    main_cpu = time.process_time() - setup_cpu
    if tracer is not None:
        tracer.dump(spans_path)
    timing = {
        "setup_cpu": setup_cpu,
        "main_start": t_main,
        "main_end": t_end,
        "main_cpu": main_cpu,
        "exit_code": code,
    }
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump(timing, fh)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2], sys.argv[3:]))
