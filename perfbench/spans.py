"""Per-layer spans recorded from outside the package.

A traced run rebinds, in every ``hookw`` module that holds it, the public
function at each module boundary: the defining module's own global (so
calls inside that module are seen too), each module that imported the
name, and the package namespace the benchmark calls through.  Methods are
wrapped on their class.  Each wrapper records a span (name, start, end,
parent) and counts its calls per binding, so that curve builds through
``hookw.catalog`` can be told from the others.  A call nested inside an
open span of the same name is passed straight through, so recursion and
``RatFunc.eval`` calling ``MultiPoly.eval`` count once.

Nothing here runs unless a traced run calls ``Tracer.install``; the
untraced run installs no wrapper, which ``count_wrapped`` lets every run
confirm.
"""

import functools
import sys
import time
from collections import Counter

# (span name, defining module, attribute); "Class.method" wraps a method.
TARGETS = (
    ("exact.rational_roots", "hookw.exact", "rational_roots"),
    ("exact.resultant", "hookw.exact", "resultant"),
    ("exact.poly_gcd", "hookw.exact", "poly_gcd"),
    ("exact.substitute", "hookw.exact", "RatFunc.substitute"),
    ("exact.eval", "hookw.exact", "RatFunc.eval"),
    ("exact.eval", "hookw.exact", "MultiPoly.eval"),
    ("curves.phi_family", "hookw.curves", "phi_family"),
    ("curves.on_generic_domain", "hookw.curves", "on_generic_domain"),
    ("curves.intersect", "hookw.curves", "intersect"),
    ("catalog.verify_coincidence", "hookw.catalog", "verify_coincidence"),
    ("cli.main", "hookw.cli", "main"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

_MARK = "_perfbench_span"


def _bindings(module_name, attr):
    """Every (owner, attribute) that currently holds the target object."""
    owner = sys.modules[module_name]
    if "." in attr:
        cls_name, meth = attr.split(".")
        return [(getattr(owner, cls_name), meth)]
    original = getattr(owner, attr)
    found = []
    for name, module in sorted(sys.modules.items()):
        if name == "hookw" or name.startswith("hookw."):
            if getattr(module, attr, None) is original:
                found.append((module, attr))
    return found


def count_wrapped():
    """Number of names in the loaded ``hookw`` modules bound to a span wrapper."""
    modules = [m for n, m in sys.modules.items() if n == "hookw" or n.startswith("hookw.")]
    owners = {id(m): m for m in modules}
    for module in modules:
        owners.update({id(v): v for v in vars(module).values() if isinstance(v, type)})
    return sum(
        1
        for owner in owners.values()
        for value in list(vars(owner).values())
        if getattr(value, _MARK, False)
    )


class Tracer:
    """Span recorder; ``spans`` holds [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self.via = Counter()
        self.max_root_degree = 0
        self._stack = []
        self._open = Counter()
        self._restore = []

    def _wrap(self, name, via, fn):
        spans, stack, is_open = self.spans, self._stack, self._open
        clock = time.perf_counter
        counts_degree = name == "exact.rational_roots"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_open[name]:
                return fn(*args, **kwargs)
            if counts_degree:
                self.max_root_degree = max(self.max_root_degree, args[0].degree())
            self.via[name, via] += 1
            record = [name, clock(), None, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(record)
            is_open[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                is_open[name] -= 1
                stack.pop()

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self):
        for name, module_name, attr in TARGETS:
            for owner, key in _bindings(module_name, attr):
                original = owner.__dict__[key]
                via = getattr(owner, "__name__", module_name)
                setattr(owner, key, self._wrap(name, via, original))
                self._restore.append((owner, key, original))

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def summary(self):
        """Per span name: calls, total seconds and self seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for (name, start, end, _), child in zip(self.spans, covered):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child
        return out
