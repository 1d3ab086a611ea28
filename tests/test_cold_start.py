"""A cold ``import hookw`` builds no table, no curve and runs no polynomial gcd.

The import runs in a fresh interpreter, with a profile hook counting the
calls of ``exact._int_poly_gcd``; afterwards every memo of the package,
each global of a ``hookw`` module that has ``cache_info``, must still be
empty, and the process pool of ``HOOKW_WORKERS`` sweeps must not be
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
    memos = {f"{f.__module__}.{f.__qualname__}": f
             for name, module in list(sys.modules.items()) if name.split(".")[0] == "hookw"
             for f in vars(module).values() if hasattr(f, "cache_info")}
    return {"gcd_calls": gcd_calls,
            "misses": {name: f.cache_info().misses for name, f in sorted(memos.items())}}


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
    cold = report["cold"]
    assert cold["gcd_calls"] == 0
    assert {"hookw.catalog.all_entries", "hookw.curves._cleared"} <= set(cold["misses"])
    assert set(cold["misses"].values()) == {0}
    assert report["pool_modules"] == []
    # The probe sees the work once the table is asked for.
    built = report["built"]
    assert built["misses"]["hookw.catalog.all_entries"] == 1
    assert built["misses"]["hookw.curves._orbit"] == 1
    assert built["misses"]["hookw.curves._F"] == 1
    assert built["gcd_calls"] > 0


def test_import_loads_no_code_introspection_modules():
    added = _probe()["added"]
    assert "hookw.catalog" in added
    assert not {"dataclasses", "inspect", "ast", "dis"} & set(added)
