"""A cold ``import hookw`` builds no table, no curve and runs no polynomial gcd.

The import runs in a fresh interpreter, with a profile hook counting the
calls of ``exact._int_poly_gcd``; afterwards the memos of the coincidence
table, of F and its t-slices, of the numeric curves, of the orbit
certificate and of the test for a curve without finite lambda must still
be empty, and the process pool of ``HOOKW_WORKERS`` sweeps must not be
loaded.  A positive control in the same interpreter then builds the table
and certifies one entry, and sees the counters move.

The import also loads none of ``dataclasses``, ``inspect``, ``ast`` and
``dis``: the value types are ``_record.Record`` subclasses, and those
modules would cost more than the rest of the import.
"""

import json
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys

gcd_calls = 0


def profile(frame, event, arg):
    global gcd_calls
    code = frame.f_code
    if event == "call" and code.co_name == "_int_poly_gcd" and code.co_filename.endswith("exact.py"):
        gcd_calls += 1


def snapshot():
    from hookw import catalog, curves
    memos = (catalog.all_entries, curves._F, curves._t_slices, curves._cleared,
             curves._numeric_curve, curves._orbit, curves._lambda_less)
    return {"gcd_calls": gcd_calls,
            "misses": {f.__name__: f.cache_info().misses for f in memos}}


before = set(sys.modules)
sys.setprofile(profile)
import hookw, hookw.cli
sys.setprofile(None)
added = sorted(set(sys.modules) - before)
cold = snapshot()
pool_modules = [name for name in ("multiprocessing", "concurrent.futures") if name in sys.modules]
sys.setprofile(profile)
hookw.all_entries()[0]._cell_forms
hookw.verify_coincidence_symbolic(hookw.all_entries()[0])
sys.setprofile(None)
print(json.dumps({"file": hookw.__file__, "cold": cold, "built": snapshot(),
                  "pool_modules": pool_modules, "added": added}))
"""


@cache
def _probe():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("HOOKW_WORKERS", None)
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def test_import_fills_no_memo_and_runs_no_gcd():
    report = _probe()
    assert Path(report["file"]).resolve().is_relative_to(SRC)
    assert report["cold"] == {
        "gcd_calls": 0,
        "misses": {
            "all_entries": 0, "_F": 0, "_t_slices": 0, "_cleared": 0, "_numeric_curve": 0,
            "_orbit": 0, "_lambda_less": 0,
        },
    }
    assert report["pool_modules"] == []
    # The probe sees the work once the table is asked for.
    built = report["built"]
    assert built["misses"]["all_entries"] == 1
    assert built["misses"]["_orbit"] == 1
    assert built["misses"]["_F"] == 1
    assert built["gcd_calls"] > 0


def test_import_loads_no_code_introspection_modules():
    added = _probe()["added"]
    assert "hookw.catalog" in added
    assert not {"dataclasses", "inspect", "ast", "dis"} & set(added)
