"""One pass of one workload, in a fresh interpreter.

run.py starts this script once per pass, so the package's module caches
start empty, as they do for a user of the command line.  It imports the
package from ``src/`` beside this directory, runs the workload (in the
order the seed and pass index give), compares every output with the
golden outputs recorded from the seed commit, and prints one JSON line:

    python3 perfbench/worker.py --workload intersect-oracle --seed 1 --pass-index 0

``--repeat 2`` runs the workload twice in the same process (the second
run reuses the module caches); ``--trace`` records per-layer spans.
"""

import argparse
import io
import json
import random
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"

WORKLOADS = ("coincidence-sweep", "intersect-oracle")

# The sweep runs the command line at its default sweep; the slice is the
# self-test's smallest run that still builds curves and certifies cells.
SWEEP_ARGV = {
    "coincidence-sweep": {
        "full": ["verify", "coincidences", "--json"],
        "slice": ["verify", "coincidences", "--json", "--sweep", "n=1..1,m=1..1,r=1..2"],
    },
}

# Library-driven slice: two cheap operations of the full list.
SLICE_KEYS = {"intersect-oracle": ("2B(0,1) x sp(1)", "2B(0,1) x osp(1)")}


def import_hookw():
    """Import the package from this checkout's ``src/``, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hookw
    import hookw.cli

    if not Path(hookw.__file__).resolve().is_relative_to(src):
        raise ImportError(f"hookw was imported from {hookw.__file__}, not from {src}")
    return hookw


def load_golden(workload):
    with open(GOLDEN / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Operations.  Each returns a JSON-ready canonical output that is compared
# with the golden output verbatim.
# ---------------------------------------------------------------------------


def run_cli(hookw, argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = hookw.cli.main(list(argv))
    return {"exit_code": code, "stdout": buf.getvalue()}


def oracle_grid(hookw):
    """The acceptance-criterion-5 grid: 2B(n, m) against every target kind."""
    return [
        (f"2B({n},{m}) x {kind}({r})", n, m, kind, r)
        for n in (0, 1)
        for m in (1, 2)
        for kind in hookw.TARGET_KINDS
        for r in (1, 2)
        if r >= hookw.TARGETS[kind].min_r
    ]


def intersect_ops(hookw):
    return {
        key: _intersect_op(hookw, n, m, hookw.TARGETS[kind], r)
        for key, n, m, kind, r in oracle_grid(hookw)
    }


def _intersect_op(hookw, n, m, rule, r):
    def op():
        source = hookw.phi_family("2B", n, m)
        target = hookw.phi_family(rule.tag, 0, rule.m_of(r))
        report = hookw.intersect(source, target)
        return {
            "points": [
                [str(p.psi1), str(p.psi2), str(p.c), str(p.lam), p.degenerate]
                for p in report.points
            ],
            "identity_component": report.identity_component,
            "residual_degree": report.residual_degree,
        }

    return op


LIBRARY_OPS = {"intersect-oracle": intersect_ops}


# ---------------------------------------------------------------------------
# Running and checking.
# ---------------------------------------------------------------------------


def run_sweep(hookw, workload, golden, sliced):
    gold = golden["slice" if sliced else "full"]
    cells = gold["passed"] + gold["skipped"] + gold["failed"]
    errors = []
    start = time.perf_counter()
    try:
        out = run_cli(hookw, gold["argv"])
    except Exception as exc:  # a crash fails every cell of the sweep
        out = None
        errors.append(f"{workload}: {exc!r}")
    elapsed = time.perf_counter() - start
    ok = check_sweep(gold, out)
    if out is not None and not ok:
        errors.append(f"{workload}: output differs from the golden output")
    return {
        "attempted": cells,
        "failed": 0 if ok else cells,
        "passed": gold["passed"] if ok else 0,
        "op_ms": {workload: 1000.0 * elapsed / cells},
        "errors": errors,
    }


def check_sweep(gold, out):
    return out == {"exit_code": gold["exit_code"], "stdout": gold["stdout"]}


def run_library(hookw, workload, golden, order_seed, sliced):
    ops = LIBRARY_OPS[workload](hookw)
    keys = list(SLICE_KEYS[workload] if sliced else ops)
    random.Random(order_seed).shuffle(keys)
    outputs, op_ms, errors = {}, {}, []
    for key in keys:
        start = time.perf_counter()
        try:
            outputs[key] = ops[key]()
        except Exception as exc:
            errors.append(f"{key}: {exc!r}")
        op_ms[key] = 1000.0 * (time.perf_counter() - start)
    bad = check_library(golden, outputs, keys)
    errors.extend(f"{key}: output differs from the golden output" for key in bad if key in outputs)
    result = {
        "attempted": len(keys),
        "failed": len(bad),
        "passed": len(keys) - len(bad),
        "op_ms": op_ms,
        "errors": errors,
    }
    if "predictions" in golden:
        result["recovered"] = count_recovered(golden, outputs, keys)
    return result


def check_library(golden, outputs, keys):
    """Keys whose output is missing or differs from the golden output."""
    return [key for key in keys if key not in outputs or outputs[key] != golden["ops"][key]]


def count_recovered(golden, outputs, keys):
    """Coincidence predictions found among the intersection points."""
    recovered = 0
    for key, _entry, psi1, psi2 in golden["predictions"]:
        out = outputs.get(key)
        if key in keys and out is not None:
            found = {(p[0], p[1]) for p in out["points"]}
            if (psi1, psi2) in found or out["identity_component"]:
                recovered += 1
    return recovered


def run_workload(hookw, workload, golden, order_seed, sliced=False):
    if workload in SWEEP_ARGV:
        return run_sweep(hookw, workload, golden, sliced)
    return run_library(hookw, workload, golden, order_seed, sliced)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--slice", action="store_true")
    args = parser.parse_args(argv)

    hookw = import_hookw()
    golden = load_golden(args.workload)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    runs = []
    try:
        for _ in range(args.repeat):
            start = time.perf_counter()
            outcome = run_workload(
                hookw, args.workload, golden, f"{args.seed}/{args.pass_index}", args.slice
            )
            outcome["run_s"] = time.perf_counter() - start
            runs.append(outcome)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "runs": runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wrapped": spans.count_wrapped(),
    }
    if tracer is not None:
        result["trace"] = {
            "spans": tracer.summary(),
            "span_count": len(tracer.spans),
            "catalog_curve_builds": tracer.via["curves.phi_family", "hookw.catalog"],
            "max_root_degree": tracer.max_root_degree,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
