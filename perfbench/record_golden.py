"""Record the golden outputs every benchmark run is checked against.

    python3 perfbench/record_golden.py

Writes ``perfbench/golden/<workload>.json`` from the package in ``src/``.
The committed files were recorded from the commit that added the
benchmark; re-recording them is only right when a change means to alter
an output, and then that change must say so.
"""

import json
import sys

import worker


def sweep_golden(hookw, argv):
    out = worker.run_cli(hookw, argv)
    tally = json.loads(out["stdout"])
    return {
        "argv": argv,
        "exit_code": out["exit_code"],
        "stdout": out["stdout"],
        "passed": tally["passed"],
        "skipped": tally["skipped"],
        "failed": tally["failed"],
    }


def predictions(hookw):
    """Certified non-degenerate coincidences that the intersections must contain."""
    found = []
    for key, n, m, kind, r in worker.oracle_grid(hookw):
        for entry in hookw.coincidence_table("2B", kind):
            outcome = hookw.verify_coincidence(entry, n, m, r)
            if outcome.status == "pass" and not outcome.degenerate:
                found.append([key, entry.name, str(outcome.psi1), str(outcome.psi2)])
    return found


def main():
    hookw = worker.import_hookw()
    worker.GOLDEN.mkdir(exist_ok=True)
    golden = {
        name: {mode: sweep_golden(hookw, argv) for mode, argv in modes.items()}
        for name, modes in worker.SWEEP_ARGV.items()
    }
    for name, build in worker.LIBRARY_OPS.items():
        golden[name] = {"ops": {key: op() for key, op in build(hookw).items()}}
    golden["intersect-oracle"]["predictions"] = predictions(hookw)
    for name, payload in golden.items():
        with open(worker.GOLDEN / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
