"""Command-line frontend for the exact coset calculators.

Every subcommand maps to one library operation or one named verification
suite:

=================  ====================================================
charge             central charge of a family member, symbolic or at psi
describe           case analysis of W^psi(n, m) and its coset
gentype            minimal strong generating type
curve              truncation curve psi -> (c, lambda), symbolic or at psi
sing               lowest singular-vector weight at an admissible level
intersect          rational intersections of two truncation curves
verify             a named invariant suite over an integer sweep
rational-points    catalogued exact rationality witnesses on a curve
gt-factors         Gelfand-Tsetlin chain factors of an affine algebra
=================  ====================================================

All numeric input is exact: psi is either an integer-or-fraction literal
("3", "-11/8") or absent, in which case results stay symbolic.  Output
is a plain-text table by default; ``--json`` emits the same data as JSON
on stdout.  Exit status is 0 on success (for ``verify``: all checks
passed), 1 when a verification suite reports a failure, and 2 on usage
or domain errors.

Every option that sizes a loop is capped, as ``verify --max-cells`` caps a
sweep: ``rational-points --r`` at an upper end of 1000 and ``--pq-bound``
at 100, ``gt-factors --n`` and ``--k`` at 1000, ``sing --rank`` at 200 and
``--u``/``--v`` at 10**6.  A larger value is a usage error (exit 2).

Sweeps are single-threaded by default; set the environment variable
``HOOKW_WORKERS`` to fan a ``verify`` sweep out over a process pool of at
most that many workers, capped at the CPU count.
Output ordering is deterministic either way.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Tuple

from .catalog import (
    TARGET_KINDS,
    TARGETS,
    all_entries,
    gelfand_tsetlin_factors,
    gt_factor_json,
    rational_points,
    verify_coincidence,
    witness_json,
)
from .curves import curve_json, intersect, intersection_json, phi, verify_trialities
from .exact import ExactError, parse_rational
from .liedata import (
    FAMILY_TAGS,
    HookFamily,
    assemble_central_charge,
    central_charge,
    describe,
    generator_profile,
    profile_text,
)
from .spectra import (
    AFFINE,
    PRINCIPAL_W,
    max_generator_weight,
    sing_weight_closed,
    sing_weight_general,
)

__all__ = ["SweepSpec", "parse_sweep", "build_parser", "main"]


# ---------------------------------------------------------------------------
# Sweep specifications.
# ---------------------------------------------------------------------------


class SweepSpec:
    """Inclusive integer ranges per sweep variable, e.g. n=0..4, m=0..4.

    Ranges are non-empty by construction and the total cell count is
    capped, so a typo cannot launch an unbounded sweep.
    """

    def __init__(self, ranges: Dict[str, Tuple[int, int]], max_cells: int = 100000):
        size = 1
        for name, (lo, hi) in ranges.items():
            if lo > hi:
                raise ValueError(f"empty range for {name}: {lo}..{hi}")
            size *= hi - lo + 1
        if size > max_cells:
            raise ValueError(f"sweep has {size} cells, above the cap of {max_cells}")
        self.ranges = dict(ranges)
        self.size = size

    def values(self, name: str) -> range:
        lo, hi = self.ranges[name]
        return range(lo, hi + 1)

    def text(self) -> str:
        return ", ".join(f"{k}={lo}..{hi}" for k, (lo, hi) in self.ranges.items())


def parse_sweep(text: str, allowed: Tuple[str, ...]) -> Dict[str, Tuple[int, int]]:
    """Parse "n=0..3,m=0..3" into a name -> (lo, hi) mapping."""
    out: Dict[str, Tuple[int, int]] = {}
    if not text.strip():
        return out
    for piece in text.split(","):
        piece = piece.strip()
        if "=" not in piece:
            raise ValueError(f"bad sweep component {piece!r}; expected var=lo..hi")
        name, _, span = piece.partition("=")
        name = name.strip()
        if name not in allowed:
            raise ValueError(f"unknown sweep variable {name!r}; allowed: {', '.join(allowed)}")
        if name in out:
            raise ValueError(f"sweep variable {name!r} given twice")
        out[name] = _parse_span(span)
    return out


def _parse_span(text: str) -> Tuple[int, int]:
    body = text.strip()
    if ".." in body:
        lo_text, _, hi_text = body.partition("..")
        lo, hi = int(lo_text), int(hi_text)
    else:
        lo = hi = int(body)
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


# ---------------------------------------------------------------------------
# Verification suites.  Each cell is a picklable tuple and each runner is a
# module-level function, so sweeps can fan out over a process pool; results
# come back in submission order, keeping output deterministic.
# ---------------------------------------------------------------------------

SUITES = ("trialities", "coincidences", "charges", "singular")

_SUITE_VARS: Dict[str, Tuple[str, ...]] = {
    "trialities": ("n", "m"),
    "charges": ("n", "m"),
    "coincidences": ("n", "m", "r"),
    "singular": ("n", "u", "v"),
}

_SUITE_DEFAULTS: Dict[str, Dict[str, Tuple[int, int]]] = {
    "trialities": {"n": (0, 5), "m": (0, 5)},
    "charges": {"n": (0, 4), "m": (0, 4)},
    "coincidences": {"n": (0, 4), "m": (0, 4), "r": (1, 4)},
    "singular": {"n": (1, 4), "u": (2, 12), "v": (1, 6)},
}

_ENTRY_INDEX = {e.name: e for e in all_entries()}


def _cell_trialities(cell) -> Tuple[str, str]:
    n, m = cell
    if not (m >= n >= 0 and n + m >= 1):
        return "skip", "outside the domain m >= n >= 0, n + m >= 1"
    bad = [check.name for check in verify_trialities(n, m) if not check.holds]
    if bad:
        return "fail", f"(n={n}, m={m}): " + ", ".join(bad)
    return "pass", ""


def _cell_charges(cell) -> Tuple[str, str]:
    tag, n, m = cell
    if n + m < 1 or (tag[0] == "2" and m == 0):
        return "skip", "no such case"
    fam = HookFamily.from_tag(tag, n, m)
    if assemble_central_charge(fam) == central_charge(fam):
        return "pass", ""
    return "fail", f"assembled charge differs from the closed form for {tag}({n},{m})"


def _cell_coincidences(cell) -> Tuple[str, str]:
    name, n, m, r = cell
    entry = _ENTRY_INDEX[name]
    min_r = TARGETS[entry.target].min_r
    # The documented preconditions of verify_coincidence are the only
    # skips; an error raised past them is a defect, never a skip.
    if n < 0 or m < 0:
        return "skip", "n and m must be non-negative"
    if r < min_r:
        return "skip", f"target kind {entry.target!r} requires r >= {min_r}"
    try:
        outcome = verify_coincidence(entry, n, m, r)
    except Exception as exc:
        return "fail", f"{name} at (n={n}, m={m}, r={r}): {exc}"
    if outcome.status == "fail":
        return "fail", f"{name} at (n={n}, m={m}, r={r})"
    if outcome.status == "skipped":
        return "skip", outcome.reason or ""
    return "pass", ""


def _cell_singular(cell) -> Tuple[str, str]:
    alg, obj, n, u, v = cell
    if u <= n or gcd(u, v) != 1:
        return "skip", "needs u > n and gcd(u, v) = 1"
    general = sing_weight_general(alg, obj, n, u, v)
    closed = sing_weight_closed(alg, obj, n, u, v)
    if general == closed:
        return "pass", ""
    return "fail", (
        f"{alg} {obj} (n={n}, u={u}, v={v}): general {general} != closed {closed}"
    )


_RUNNERS = {
    "trialities": _cell_trialities,
    "charges": _cell_charges,
    "coincidences": _cell_coincidences,
    "singular": _cell_singular,
}


def _run_cell(task):
    suite, cell = task
    return _RUNNERS[suite](cell)


def _suite_cells(suite: str, spec: SweepSpec) -> List[tuple]:
    if suite == "trialities":
        return [(n, m) for n in spec.values("n") for m in spec.values("m")]
    if suite == "charges":
        return [
            (tag, n, m)
            for tag in FAMILY_TAGS
            for n in spec.values("n")
            for m in spec.values("m")
        ]
    if suite == "coincidences":
        return [
            (entry.name, n, m, r)
            for entry in all_entries()
            for n in spec.values("n")
            for m in spec.values("m")
            for r in spec.values("r")
        ]
    return [
        (alg, obj, n, u, v)
        for alg in ("sp", "so_odd")
        for obj in (AFFINE, PRINCIPAL_W)
        for n in spec.values("n")
        for u in spec.values("u")
        for v in spec.values("v")
    ]


def _worker_count() -> int:
    raw = os.environ.get("HOOKW_WORKERS", "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"HOOKW_WORKERS must be a positive integer, got {raw!r}")
    if workers < 1:
        raise ValueError(f"HOOKW_WORKERS must be a positive integer, got {raw!r}")
    return min(workers, os.cpu_count() or 1)


def _run_suite(suite: str, spec: SweepSpec) -> Tuple[Dict[str, int], List[str]]:
    cells = _suite_cells(suite, spec)
    tasks = [(suite, cell) for cell in cells]
    workers = _worker_count()
    if workers > 1 and len(tasks) > 1:
        chunk = max(1, len(tasks) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, tasks, chunksize=chunk))
    else:
        results = [_run_cell(task) for task in tasks]
    tally = {"pass": 0, "skip": 0, "fail": 0}
    failures = []
    for status, detail in results:
        tally[status] += 1
        if status == "fail":
            failures.append(detail)
    return tally, failures


# ---------------------------------------------------------------------------
# Rendering helpers.
# ---------------------------------------------------------------------------


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _fraction_text(value) -> str:
    return str(Fraction(value))


def _family(args) -> HookFamily:
    return HookFamily.from_tag(args.family, args.n, args.m)


# ---------------------------------------------------------------------------
# Subcommand implementations.  Each returns the process exit status.
# ---------------------------------------------------------------------------


def _cmd_charge(args) -> int:
    fam = _family(args)
    charge = central_charge(fam)
    payload = {"family": fam.tag, "n": args.n, "m": args.m}
    if args.psi is not None:
        value = charge.eval({"psi": args.psi})
        payload["psi"] = _fraction_text(args.psi)
        payload["c"] = _fraction_text(value)
        line = f"c = {_fraction_text(value)}"
    else:
        payload["psi"] = None
        payload["c"] = charge.to_text()
        line = f"c = {charge.to_text()}"
    if args.json:
        _print_json(payload)
    else:
        print(line)
    return 0


def _cmd_describe(args) -> int:
    case = describe(_family(args))
    payload = {
        "family": case.tag,
        "n": case.n,
        "m": case.m,
        "w_kind": case.w_kind,
        "w": case.w_text,
        "coset_kind": case.coset_kind,
        "coset": case.coset_text,
        "orbifold": case.orbifold,
        "notes": list(case.notes),
    }
    if args.json:
        _print_json(payload)
        return 0
    print(f"family: {case.tag}(n={case.n}, m={case.m})")
    print(f"W: {case.w_text}  [{case.w_kind}]")
    print(f"coset: {case.coset_text}  [{case.coset_kind}]")
    print(f"orbifold: {'yes' if case.orbifold else 'no'}")
    for note in case.notes:
        print(f"note: {note}")
    return 0


def _cmd_gentype(args) -> int:
    fam = _family(args)
    profile = generator_profile(fam)
    payload = {
        "family": fam.tag,
        "n": args.n,
        "m": args.m,
        "type": profile_text(profile),
        "weights": [[_fraction_text(w), count] for w, count in profile],
        "max_weight": max_generator_weight(fam),
    }
    if args.json:
        _print_json(payload)
        return 0
    print(f"type = {payload['type']}")
    print(f"max weight = {payload['max_weight']}")
    return 0


def _cmd_curve(args) -> int:
    fam = _family(args)
    curve = phi(fam)
    payload = curve_json(fam, curve)
    if args.psi is not None:
        payload["psi"] = _fraction_text(args.psi)
        payload["c"] = _fraction_text(curve.c.eval({"psi": args.psi}))
        payload["lambda"] = (
            None
            if curve.lam is None
            else _fraction_text(curve.lam.eval({"psi": args.psi}))
        )
    payload["source"] = curve.source
    if args.json:
        _print_json(payload)
        return 0
    print(f"family: {payload['family']}(n={payload['n']}, m={payload['m']})")
    print(f"c = {payload['c']}")
    if payload["lambda"] is None:
        print("lambda = (undefined: free-field slice, the curve collapses to a point)")
    else:
        print(f"lambda = {payload['lambda']}")
    print(f"route: {curve.source}")
    return 0


def _cmd_sing(args) -> int:
    obj = AFFINE if args.object == "affine" else PRINCIPAL_W
    weight = sing_weight_general(args.algebra, obj, args.rank, args.u, args.v)
    payload = {
        "algebra": args.algebra,
        "object": args.object,
        "rank": args.rank,
        "u": args.u,
        "v": args.v,
        "weight": _fraction_text(weight),
    }
    if args.json:
        _print_json(payload)
    else:
        print(f"weight = {_fraction_text(weight)}")
    return 0


def _cmd_intersect(args) -> int:
    if (args.target is None) == (args.family2 is None):
        raise ValueError("give exactly one of --target/--r or --family2/--n2/--m2")
    source_fam = _family(args)
    source = phi(source_fam)
    if args.target is not None:
        if args.r is None:
            raise ValueError("--target needs --r")
        rule = TARGETS[args.target]
        target = rule.curve(args.r)
        target_id = {
            "kind": args.target,
            "r": args.r,
            "family": rule.tag,
            "n": "0",
            "m": _fraction_text(rule.m_of(args.r)),
        }
    else:
        if args.n2 is None or args.m2 is None:
            raise ValueError("--family2 needs --n2 and --m2")
        target_fam = HookFamily.from_tag(args.family2, args.n2, args.m2)
        target = phi(target_fam)
        target_id = {"family": target_fam.tag, "n": str(args.n2), "m": str(args.m2)}
    report = intersect(source, target)
    payload = {
        "source": {"family": source_fam.tag, "n": str(args.n), "m": str(args.m)},
        "target": target_id,
        "points": intersection_json(report),
        "identity_component": report.identity_component,
        "residual_degree": report.residual_degree,
    }
    if args.json:
        _print_json(payload)
        return 0
    print(f"points: {len(report.points)}")
    for p in report.points:
        flag = "  [degenerate c]" if p.degenerate else ""
        print(f"psi1={p.psi1} psi2={p.psi2} c={p.c} lambda={p.lam}{flag}")
    print(f"identity component: {'yes' if report.identity_component else 'no'}")
    print(f"residual degree: {report.residual_degree}")
    return 0


def _cmd_verify(args) -> int:
    ranges = dict(_SUITE_DEFAULTS[args.suite])
    ranges.update(parse_sweep(args.sweep, _SUITE_VARS[args.suite]))
    spec = SweepSpec(ranges, max_cells=args.max_cells)
    tally, failures = _run_suite(args.suite, spec)
    ok = tally["fail"] == 0
    if args.json:
        _print_json(
            {
                "suite": args.suite,
                "sweep": {k: [lo, hi] for k, (lo, hi) in spec.ranges.items()},
                "passed": tally["pass"],
                "skipped": tally["skip"],
                "failed": tally["fail"],
                "failures": failures,
                "ok": ok,
            }
        )
    else:
        print(f"suite: {args.suite}")
        print(f"sweep: {spec.text()}")
        print(
            f"passed: {tally['pass']}  skipped: {tally['skip']}  "
            f"failed: {tally['fail']}"
        )
        for detail in failures:
            print(f"fail: {detail}")
        print(f"result: {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_rational_points(args) -> int:
    fam = _family(args)
    lo, hi = args.r
    witnesses = rational_points(
        fam,
        r_bound=hi,
        pq_bound=args.pq_bound,
        include_conjectural=args.include_conjectural,
    )
    kept = []
    for w in witnesses:
        r = dict(w.aux).get("r")
        if r is None or lo <= r <= hi:
            kept.append(w)
    if args.json:
        _print_json([witness_json(w) for w in kept])
        return 0
    for w in kept:
        line = f"{w.theorem}: psi = {w.psi}"
        if w.partner_algebra is not None:
            line += f"  partner = {w.partner_algebra} at s = {w.partner_s}"
        line += f"  [{w.status}]"
        print(line)
        if w.conditions:
            print(f"  conditions: {'; '.join(w.conditions)}")
    return 0


def _cmd_gt_factors(args) -> int:
    factors = gelfand_tsetlin_factors(args.series, args.n, args.k)
    if args.json:
        _print_json([gt_factor_json(f) for f in factors])
        return 0
    for f in factors:
        if f.kind == "H":
            print("H: rank-one Heisenberg")
            continue
        levels = ", ".join(_fraction_text(v) for v in f.levels)
        orb = "^Z2" if f.orbifold else ""
        print(f"{f.label}: {f.algebra}{orb}  levels = ({levels})  [{f.tag}]")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ExactError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


# Largest upper end of the rational-points --r range.
_R_CAP = 1000


def _span_arg(text: str) -> Tuple[int, int]:
    try:
        lo, hi = _parse_span(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if hi > _R_CAP:
        raise argparse.ArgumentTypeError(f"upper end at most {_R_CAP}, got {hi}")
    return lo, hi


def _capped_int(cap: int):
    """An argparse int type that rejects values above cap."""

    def parse(text: str) -> int:
        value = int(text)
        if value > cap:
            raise argparse.ArgumentTypeError(f"at most {cap}, got {value}")
        return value

    # argparse names the type in its message for a non-integer value.
    parse.__name__ = "int"
    return parse


def _add_family_flags(sub) -> None:
    sub.add_argument("--family", required=True, choices=FAMILY_TAGS, help="family tag")
    sub.add_argument("--n", required=True, type=int, help="hook parameter n")
    sub.add_argument("--m", required=True, type=int, help="hook parameter m")


def _add_json_flag(sub) -> None:
    sub.add_argument("--json", action="store_true", help="emit JSON instead of a table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hookw",
        description="Exact calculators for hook-type coset families.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="command")

    p = sub.add_parser("charge", help="central charge, symbolic or at a rational psi")
    _add_family_flags(p)
    p.add_argument("--psi", type=_rational_arg, help="exact rational psi (else symbolic)")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_charge)

    p = sub.add_parser("describe", help="case analysis of the family member")
    _add_family_flags(p)
    _add_json_flag(p)
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser("gentype", help="minimal strong generating type")
    _add_family_flags(p)
    _add_json_flag(p)
    p.set_defaults(func=_cmd_gentype)

    p = sub.add_parser("curve", help="truncation curve psi -> (c, lambda)")
    _add_family_flags(p)
    p.add_argument("--psi", type=_rational_arg, help="evaluate at an exact rational psi")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("sing", help="lowest singular-vector weight at k = -h + u/v")
    p.add_argument("--algebra", required=True, choices=("sp", "so_odd"))
    p.add_argument(
        "--object",
        required=True,
        choices=("affine", "principal"),
        help="affine vacuum module or principal W-algebra",
    )
    p.add_argument("--rank", required=True, type=_capped_int(200), help="rank (at most 200)")
    p.add_argument("--u", required=True, type=_capped_int(10**6), help="at most 10**6")
    p.add_argument("--v", required=True, type=_capped_int(10**6), help="at most 10**6")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_sing)

    p = sub.add_parser("intersect", help="rational intersections of two curves")
    _add_family_flags(p)
    p.add_argument("--target", choices=TARGET_KINDS, help="principal W-algebra target kind")
    p.add_argument("--r", type=int, help="target rank parameter")
    p.add_argument("--family2", choices=FAMILY_TAGS, help="second family tag")
    p.add_argument("--n2", type=int)
    p.add_argument("--m2", type=int)
    _add_json_flag(p)
    p.set_defaults(func=_cmd_intersect)

    p = sub.add_parser("verify", help="run a named verification suite over a sweep")
    p.add_argument("suite", choices=SUITES)
    p.add_argument(
        "--sweep",
        default="",
        help="inclusive integer ranges, e.g. n=0..3,m=0..3; unlisted variables keep defaults",
    )
    p.add_argument("--max-cells", type=int, default=100000, help="sweep size cap")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("rational-points", help="catalogued rationality witnesses")
    _add_family_flags(p)
    p.add_argument(
        "--r",
        type=_span_arg,
        default=(1, 4),
        help="rank range for r-indexed statements, e.g. 1..3 (default 1..4, at most 1000)",
    )
    p.add_argument(
        "--pq-bound",
        type=_capped_int(100),
        default=12,
        help="numerator/denominator bound (at most 100)",
    )
    p.add_argument(
        "--include-conjectural",
        action="store_true",
        help="also list conjectural points",
    )
    _add_json_flag(p)
    p.set_defaults(func=_cmd_rational_points)

    p = sub.add_parser("gt-factors", help="Gelfand-Tsetlin chain factors")
    p.add_argument("--series", required=True, choices=("B", "C", "D"))
    p.add_argument(
        "--n", required=True, type=_capped_int(1000), help="chain length parameter (at most 1000)"
    )
    p.add_argument(
        "--k", required=True, type=_capped_int(1000), help="level parameter (at most 1000)"
    )
    _add_json_flag(p)
    p.set_defaults(func=_cmd_gt_factors)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pipe (head, less) closed early; not an error.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
