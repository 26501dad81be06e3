"""One child process of the benchmark.

    python3 perfbench/worker.py MODE WORKLOAD SEED OUT

MODE is ``setup`` (import fgkit, then exit), ``pass`` (one untraced pass of
``large-genus``), ``trace`` (one traced pass of either workload;
``sweep-serial`` calls ``fgkit.cli.main`` in process) or ``calibrate``
(time a fixed computation that uses no fgkit).  The result is written to
OUT as JSON; a traced pass also writes its spans next to it.
``PYTHONPATH`` must reach ``src``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

CAL_LETTERS = 300_000


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def calibrate() -> float:
    """Least rotation of a fixed random word, the same on every commit of fgkit."""
    import reference

    word = tuple(random.Random(0).choices((1, -1, 2, -2, 3, -3), k=CAL_LETTERS))
    t0 = time.perf_counter()
    reference.canonical(word, oriented=False)
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    mode, workload, seed, out = argv[1], argv[2], int(argv[3]), Path(argv[4])
    if mode == "calibrate":
        out.write_text(json.dumps({"calibration_s": calibrate()}), encoding="utf-8")
        return 0
    import fgkit.cli  # noqa: F401  (the CLI is what the sweep starts)

    if mode == "setup":
        return 0
    fgkit = sys.modules["fgkit"]
    import workloads

    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    def set_op(op) -> None:
        if tracer is not None:
            tracer.op = op

    result: dict = {}
    if workload == "sweep-serial":
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = fgkit.cli.main(workloads.sweep_argv(seed))
        except Exception as exc:  # a traceback is a failure of every grid point
            code, stderr = 1, io.StringIO(f"Traceback: {exc!r}")
        result["done_at"] = time.monotonic()
        failures = workloads.check_sweep(code, stdout.getvalue(), stderr.getvalue())
    else:
        cpu0, t0 = _cpu_s(), time.perf_counter()
        outputs = workloads.large_genus_run(fgkit, seed, set_op)
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = _cpu_s() - cpu0
        failures = workloads.large_genus_check(outputs)
    result["attempted"] = len(workloads.instances(workload))
    result["failures"] = failures
    if tracer is not None:
        result["metrics"] = tracing.aggregate(tracer.spans)
        if workload == "sweep-serial":
            result["metrics"]["cli.output_bytes"] = len(stdout.getvalue().encode())
        result["layer_shares"] = tracing.layer_shares(tracer.spans)
        tracer.dump(out.with_name("spans.jsonl"))
    out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
