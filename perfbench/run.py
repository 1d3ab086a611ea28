"""The hookw benchmark: wall time until a result is certified, per workload.

    python3 perfbench/run.py --workload intersect-oracle --seed 1 --seconds 20 --trace 0

Every pass runs in a fresh, single-threaded interpreter (``HOOKW_WORKERS``
unset), so the package's caches start empty as they do for a command-line
user.  Every output is compared with the golden outputs recorded from the
seed commit.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
makes a separate traced run and reports the per-layer metrics.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
print each metric with its unit, the sample counts and the environment.
See README.md beside this file for why each workload was chosen.
"""

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# Seconds one pass took at the seed commit on the reference machine.  They
# fix how many passes a run of --seconds makes, so the pass count, and with
# it the tail percentile, is the same for every commit measured.
NOMINAL_PASS_S = {"coincidence-sweep": 8.4, "intersect-oracle": 10.2}
MIN_PASSES = 2
SETUP_SAMPLES = 11
# A run gives up, printing no result, once this many seconds have passed.
RUN_LIMIT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env():
    # Bytecode is cached beside the sources, as for an installed package, so
    # set-up time does not depend on the caller's bytecode settings.
    dropped = ("HOOKW_WORKERS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
    env = {k: v for k, v in os.environ.items() if k not in dropped}
    # Fixed so that set iteration order, and with it the work a pass does,
    # is the same in every pass.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, deadline):
    """Run a child interpreter to completion; return its last stdout line."""
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(0.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"the run did not finish within {RUN_LIMIT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"child {argv[:2]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return lines[-1]


def setup_sample(deadline):
    """Seconds from interpreter start until ``import hookw`` is done."""
    src = ROOT / "src"
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import hookw, time; "
    code += "print(time.monotonic(), hookw.__file__)"
    start = time.monotonic()
    line = run_child(["-c", code], deadline)
    done, path = line.split(" ", 1)
    if not Path(path).resolve().is_relative_to(src):
        raise BenchError(f"hookw was imported from {path}, not from {src}")
    return float(done) - start


def worker_pass(workload, seed, pass_index, deadline, trace=False, repeat=1, sliced=False):
    argv = [str(WORKER), "--workload", workload, "--seed", str(seed)]
    argv += ["--pass-index", str(pass_index), "--repeat", str(repeat)]
    argv += ["--trace"] * trace + ["--slice"] * sliced
    return json.loads(run_child(argv, deadline))


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_level(count):
    """The highest percentile with at least ten samples beyond it (else the max)."""
    return 1.0 - 10.0 / count if count > 10 else 1.0


def pass_count(workload, seconds, sliced):
    if sliced:
        return 1
    return max(MIN_PASSES, int(seconds // NOMINAL_PASS_S[workload]))


def read_git_commit():
    """The checkout's commit, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed):
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "hookw_commit": read_git_commit(),
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
    }


def tally(runs):
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    return attempted, failed, errors


def measure_end_to_end(workload, seed, seconds, deadline, sliced=False):
    """Untraced passes; returns (metrics, runs, details)."""
    passes = pass_count(workload, seconds, sliced)
    per_pass = 1 if sliced else math.ceil(SETUP_SAMPLES / passes)
    setup, results = [], []
    for i in range(passes):
        # Spread over the run, so that one burst of load on the machine
        # does not cover every set-up sample.
        setup += [setup_sample(deadline) for _ in range(per_pass)]
        results.append(worker_pass(workload, seed, i, deadline, sliced=sliced))
    runs = [r["runs"][0] for r in results]
    run_s = [r["run_s"] for r in runs]
    op_ms = [ms for r in runs for ms in r["op_ms"].values()]
    ops = runs[0]["attempted"]
    level = tail_level(len(op_ms))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (statistics.median(run_s), "s"),
        "ops_per_s": (ops / statistics.median(run_s), "1/s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_tail_ms": (quantile(op_ms, level), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
    }
    details = {
        "setup_s": {"samples": len(setup), "values": setup},
        "run_s": {"samples": len(run_s), "values": run_s},
        "op_ms": {"samples": len(op_ms), "tail_percentile": round(100 * level, 2)},
        "ops_per_pass": ops,
        "wrapped": [r["wrapped"] for r in results],
    }
    if "recovered" in runs[0]:
        details["recovered"] = [r["recovered"] for r in runs]
    return metrics, runs, details


def measure_per_layer(workload, seed, deadline, sliced=False):
    """A traced process between two untraced cold-then-warm processes.

    Taking the untraced figures on both sides of the traced one cancels a
    steady drift in the host's speed out of ``trace.overhead_s``.
    """
    before = worker_pass(workload, seed, 0, deadline, repeat=2, sliced=sliced)
    traced = worker_pass(workload, seed, 0, deadline, trace=True, sliced=sliced)
    after = worker_pass(workload, seed, 0, deadline, repeat=2, sliced=sliced)
    plain = before["runs"] + after["runs"]
    cold = statistics.mean(r["run_s"] for r in plain[0::2])
    warm = statistics.mean(r["run_s"] for r in plain[1::2])
    run = traced["runs"][0]
    trace = traced["trace"]
    metrics = {}
    for name in SPAN_NAMES:
        agg = trace["spans"][name]
        metrics[f"{name}.calls"] = (agg["calls"], "count")
        metrics[f"{name}.total_s"] = (agg["total_s"], "s")
        metrics[f"{name}.self_s"] = (agg["self_s"], "s")
    builds = trace["catalog_curve_builds"]
    metrics["exact.rational_roots.max_degree"] = (trace["max_root_degree"], "degree")
    metrics["catalog.curve_builds"] = (builds, "count")
    metrics["catalog.cells_per_build"] = (run["passed"] / builds if builds else 0.0, "cells/build")
    metrics["catalog.cache_fill_s"] = (cold - warm, "s")
    metrics["trace.overhead_s"] = (run["run_s"] - cold, "s")
    details = {
        "run_s": {"untraced": [r["run_s"] for r in plain], "traced": run["run_s"]},
        "span_count": trace["span_count"],
        "wrapped": [before["wrapped"], traced["wrapped"], after["wrapped"]],
    }
    if "recovered" in run:
        details["recovered"] = [r["recovered"] for r in plain + [run]]
    return metrics, plain + [run], details


def benchmark(workload, seed, seconds, trace, sliced=False):
    """Run the benchmark; returns (result, report) without printing."""
    if not (ROOT / "src" / "hookw" / "__init__.py").is_file():
        raise BenchError(f"no hookw sources under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_LIMIT_S
    env = environment(seed)
    if trace:
        metrics, runs, details = measure_per_layer(workload, seed, deadline, sliced)
    else:
        metrics, runs, details = measure_end_to_end(workload, seed, seconds, deadline, sliced)
    env["loadavg_end"] = list(os.getloadavg())
    attempted, failed, errors = tally(runs)
    # The untraced path installs no wrapper, and the traced one removes its own.
    correct = failed == 0 and not any(details["wrapped"])
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    report = {
        "workload": workload,
        "trace": bool(trace),
        "environment": env,
        "error_rate": failed / attempted,
        "errors": errors[:20],
        "details": details,
    }
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result, report = benchmark(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate = {report['error_rate']:.6g} ({result['failed']}/{result['attempted']})")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
