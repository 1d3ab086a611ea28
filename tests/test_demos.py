"""Every script in ``demos/`` runs to completion and prints its pinned text.

The demos are deterministic, so each one's stdout is pinned by its
sha256: a change to what a demo prints must update the pin here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STDOUT_SHA256 = {
    "01_central_charges.py": "03ce1a9ece6858b0cddc5aa0ac2df5c3ffd71d162ce1a7ca166c831bb85a718b",
    "02_truncation_curves.py": "cdf318e086c45b7c2d1387c55e8820035304a7042a93448b12c05d7e83b04c09",
    "03_coincidences.py": "5fabc5e8d642197b96bd4ed7d102a72993fbd5b3641361bbc90c66b2a9c1335e",
    "04_intersections.py": "3b0b397ffa979ff51b0e13c0a3cc1195616417c8c26f080ee789bb2ccce4d7b5",
    "05_rationality_witnesses.py": "613b1884e36bbe612dde0867ec7592bf3485d65d97609a5539453b57c8ead9b1",
}


def test_demos_found():
    assert [demo.name for demo in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    digest = hashlib.sha256(done.stdout.encode()).hexdigest()
    assert digest == STDOUT_SHA256[demo.name], done.stdout
