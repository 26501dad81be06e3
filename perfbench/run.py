"""Benchmark for fgkit: run one workload for a fixed time, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/fgkit``; it needs only
the standard library.  Each pass runs in a fresh interpreter: the sweep as
``python3 -m fgkit.cli sweep ...``, the in-process workload through
``worker.py``.  Passes repeat until ``--seconds`` have elapsed, each one
after a set-up probe, and every time metric is the median over passes.
With ``--trace 1`` every untraced pass is followed by a traced one, which
yields the per-layer metrics and the tracing overhead.

The machine's speed drifts by tens of percent over minutes, so the
end-to-end times are given in reference seconds: a fixed calibration
computation runs between passes, on the same CPU, and each pass's times
are scaled by ``CAL_REF_S`` over the mean of the two calibrations around
it.  The raw seconds and the calibrations are on the ``info`` line.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it describes
the machine and the run.  The exit code is 0 only when every output
matched its reference answer and every count repeated exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
SPEC = ROOT / "BENCHMARK.json"

# children still running this long after the measured seconds are killed
DEADLINE_SLACK_S = 120.0
# reference seconds are seconds on a machine where one calibration takes this
CAL_REF_S = 0.25

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class Child:
    """A child process's exit code, wall time, CPU and peak RSS."""

    def __init__(self, argv: list[str], run_dir: Path, deadline: float) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.out_path = run_dir / "child.out"
        self.err_path = run_dir / "child.err"
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            self.started = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            timer = threading.Timer(max(1.0, deadline - self.started), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall_s = time.monotonic() - self.started
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        # wait4 reports the child plus the descendants it waited for
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024

    def read(self) -> tuple[str, str]:
        out = self.out_path.read_text(encoding="utf-8", errors="replace")
        err = self.err_path.read_text(encoding="utf-8", errors="replace")
        self.out_path.unlink()
        self.err_path.unlink()
        return out, err


def worker(
    mode: str, workload: str, seed: int, run_dir: Path, deadline: float
) -> tuple[Child, dict]:
    result_path = run_dir / "result.json"
    argv = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed), str(result_path)]
    child = Child(argv, run_dir, deadline)
    _, err = child.read()
    ops = len(workloads.instances(workload))
    result = {}
    if child.returncode == 0:
        if result_path.exists():  # a set-up probe writes no result
            result = json.loads(result_path.read_text(encoding="utf-8"))
            result_path.unlink()
    else:
        result["failures"] = [f"worker exit {child.returncode}: {err.strip()[-300:]}"] * ops
    result.setdefault("attempted", ops)
    return child, result


def untraced_pass(workload: str, seed: int, run_dir: Path, deadline: float) -> dict:
    if workload == "sweep-serial":
        argv = [sys.executable, "-m", "fgkit.cli", *workloads.sweep_argv(seed)]
        child = Child(argv, run_dir, deadline)
        out, err = child.read()
        failures = workloads.check_sweep(child.returncode, out, err)
        return {
            "wall_s": child.wall_s,
            "cpu_s": child.cpu_s,
            "rss_mb": child.rss_mb,
            "attempted": len(workloads.instances(workload)),
            "failures": failures,
        }
    child, result = worker("pass", workload, seed, run_dir, deadline)
    result["rss_mb"] = child.rss_mb
    return result


def traced_pass(workload: str, seed: int, run_dir: Path, deadline: float) -> dict:
    child, result = worker("trace", workload, seed, run_dir, deadline)
    if workload == "sweep-serial" and "done_at" in result:
        # interpreter start to the CLI's return, as the untraced sweep is timed
        result["wall_s"] = result["done_at"] - child.started
    return result


def setup_probe(workload: str, seed: int, run_dir: Path, deadline: float) -> float:
    """Wall time of interpreter start and ``import fgkit``."""
    child, result = worker("setup", workload, seed, run_dir, deadline)
    if result.get("failures"):
        raise RuntimeError(result["failures"][0])
    return child.wall_s


def calibrate(run_dir: Path, deadline: float) -> float:
    """Seconds this CPU takes now for a fixed computation that uses no fgkit.

    It runs in a child so that its memory does not count in the peak RSS
    that ``wait4`` reports for the children started after it.
    """
    child, result = worker("calibrate", "sweep-serial", 0, run_dir, deadline)
    if "calibration_s" not in result:
        raise RuntimeError(f"calibration failed: {result.get('failures', ['?'])[0]}")
    return result["calibration_s"]


def expected_counts(workload: str) -> dict[str, int]:
    """Counts fixed by the workload's instance set, from the reference data."""
    data = workloads.REFERENCE["instances"]
    keys = {
        "family.image_letters": "image_letters",
        "family.boundary_image_letters": "boundary_image_letters",
        "stallings.wedge_vertices": "wedge_vertices",
        "stallings.folded_vertices": "folded_vertices",
    }
    points = workloads.instances(workload)
    return {m: sum(data[f"{g},{l}"][k] for g, l in points) for m, k in keys.items()}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fgkit" / "__init__.py").is_file():
        print(f"error: no fgkit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    begin = time.monotonic()
    deadline = begin + args.seconds + DEADLINE_SLACK_S
    RUN_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=RUN_DIR))
    try:
        return measure(args, wanted, begin, deadline, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, wanted: list[dict], begin: float, deadline: float, run_dir: Path) -> int:
    """Probes, passes and calibrations in turn for ``args.seconds``; prints the result."""
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_at_start": os.getloadavg(),
        "ops_per_pass": len(workloads.instances(args.workload)),
    }

    # the calibration only tracks the passes' speed if both run on one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_probe(args.workload, args.seed, run_dir, deadline)  # compiles bytecode; not counted
    probes: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []
    cals = [calibrate(run_dir, deadline)]
    start = time.monotonic()
    while True:
        probes.append(setup_probe(args.workload, args.seed, run_dir, deadline))
        plain.append(untraced_pass(args.workload, args.seed, run_dir, deadline))
        if args.trace:
            traced.append(traced_pass(args.workload, args.seed, run_dir, deadline))
        cals.append(calibrate(run_dir, deadline))
        if time.monotonic() - start >= args.seconds:
            break
    # to reference seconds, by the calibrations either side of each pass
    scales = [2 * CAL_REF_S / (a + b) for a, b in zip(cals, cals[1:])]

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failures = [msg for p in passes for msg in p["failures"]]
    problems = failures[:5]
    metrics: dict[str, float] = {}
    if args.trace:
        layer = [p["metrics"] for p in traced if "metrics" in p]
        for spec_metric in wanted:
            name = spec_metric["name"]
            values = [m[name] for m in layer if name in m]
            if values and name not in tracing.COUNT_METRICS:
                metrics[name] = median(values)
        for name in tracing.COUNT_METRICS:
            seen = {m[name] for m in layer if name in m}
            if len(seen) > 1:
                problems.append(f"{name} differs between passes: {sorted(seen)}")
            elif seen:
                metrics[name] = seen.pop()  # exact, not a median of equal values
        for name, want in expected_counts(args.workload).items():
            if metrics.get(name) != want:
                problems.append(f"{name} = {metrics.get(name)}, expected {want}")
        metrics["cli.process_start_s"] = median(probes)
        metrics["trace.overhead_s"] = median([p.get("wall_s", 0.0) for p in traced]) - median(
            [p.get("wall_s", 0.0) for p in plain]
        )
        info["layer_shares"] = traced[-1].get("layer_shares", {})
        spans = run_dir / "spans.jsonl"
        if spans.exists():
            os.replace(spans, RUN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        walls = [p["wall_s"] * k for p, k in zip(plain, scales) if p.get("wall_s")]
        metrics["wall_s"] = median(walls)
        metrics["throughput_ops_s"] = median(
            [p["attempted"] / (p["wall_s"] * k) for p, k in zip(plain, scales) if p.get("wall_s")]
        )
        metrics["cpu_s"] = median([p["cpu_s"] * k for p, k in zip(plain, scales) if "cpu_s" in p])
        metrics["peak_rss_mb"] = median([p["rss_mb"] for p in plain if "rss_mb" in p])
        metrics["setup_s"] = median([t * k for t, k in zip(probes, scales)])
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        problems.append(f"not measured: {missing}")
    info["passes"] = len(plain)
    info["pass_wall_s"] = [p.get("wall_s") for p in plain]
    if args.trace:
        info["traced_pass_wall_s"] = [p.get("wall_s") for p in traced]
    info["setup_probes_s"] = probes
    info["calibrations_s"] = cals
    info["failed_ops_ratio"] = f"{len(failures)}/{attempted}"
    info["problems"] = problems
    info["elapsed_s"] = time.monotonic() - begin
    print("info " + json.dumps(info))

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in metrics
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
