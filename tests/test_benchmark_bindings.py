"""Every name the benchmark's traced runs bind must exist in the package.

A traced benchmark run (``perfbench/run.py --trace 1``) wraps each
(module, attribute) of ``TARGETS`` in ``perfbench/spans.py`` by name.  A
name removed from the package breaks every traced run while the untraced
runs and the rest of this suite still pass, so the targets are resolved
here.  The file is run from its path as it stands, not imported.
"""

import importlib
import runpy
from pathlib import Path

import hookw  # noqa: F401  (the traced runs bind after the package import)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_span_target_resolves():
    targets = runpy.run_path(str(SPANS))["TARGETS"]
    assert targets
    missing = [
        (module_name, attr)
        for _, module_name, attr in targets
        if not callable(_resolve(module_name, attr))
    ]
    assert missing == []
