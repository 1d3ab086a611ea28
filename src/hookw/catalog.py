"""Level coincidences, rationality witnesses, and orbifold factor chains.

Three bodies of exact data about the hook-type cosets live here:

* the forty-eight catalogued level coincidences between a coset
  C^psi(n, m) and a principal W-algebra (or its orbifold) of type
  sp(2r), so(2r), or osp(1|2r), with their exactly transcribed
  exclusions, verifiable pointwise or with n, m, r fully symbolic;

* the rationality witnesses: parameter values at which a coset is
  certified (or conjectured) to be lisse and rational, each carrying
  the arithmetic conditions that the certifying statement imposes and,
  where the proof runs through a coincidence, the partner algebra and
  its level;

* the Gelfand-Tsetlin factor chains whose tensor factors resolve to
  principal W-algebras and orbifolds at explicitly displayed levels.

Verification maps a coincidence's target to a degenerate member of the
eight families (TARGETS) and compares truncation-curve data exactly, so
everything reduces to statements about the curves of ``curves``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd
from typing import Dict, Optional, Tuple

from .curves import (
    DEGENERATE_CHARGES,
    TruncationCurve,
    compose_cleared,
    on_generic_domain,
    phi_family,
)
from .exact import PoleError, RatFunc
from .liedata import AlgebraDesc, HookFamily

__all__ = [
    "CoincidenceEntry",
    "CoincidenceOutcome",
    "TargetRule",
    "TARGETS",
    "SOURCE_TAGS",
    "TARGET_KINDS",
    "coincidence_table",
    "all_entries",
    "verify_coincidence",
    "verify_coincidence_symbolic",
    "OspOspReport",
    "OspOspPair",
    "verify_osp_osp",
    "osp_osp_charge",
    "RationalityWitness",
    "rational_points",
    "check_witness",
    "witness_json",
    "GTFactor",
    "gelfand_tsetlin_factors",
    "gt_factor_json",
    "is_admissible_nondegenerate",
    "parse_algebra",
]


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an integer or Fraction, got {value!r}")


def _int(value, what: str) -> int:
    f = _frac(value)
    if f.denominator != 1:
        raise ValueError(f"{what} must be an integer, got {f}")
    return int(f)


# ---------------------------------------------------------------------------
# Target dictionary: which degenerate family realizes each W-algebra target.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TargetRule:
    """A target W-algebra kind as a degenerate member of the eight families.

    ``W_s`` of the target algebra of rank parameter r equals the family
    ``tag`` at (n, m) = (0, m_expr(r)) and psi = s + shift(r).  ``min_r``
    is the smallest rank for which coincidence statements exist.
    """

    kind: str
    tag: str
    m_expr: RatFunc
    shift: RatFunc
    min_r: int
    orbifold: bool

    def algebra(self, r: int) -> AlgebraDesc:
        if self.kind == "sp":
            return AlgebraDesc.sp(2 * r)
        if self.kind == "so_even":
            return AlgebraDesc.so(2 * r)
        if self.kind == "so_odd":
            return AlgebraDesc.so(2 * r + 1)
        return AlgebraDesc.osp(1, 2 * r, "C")

    def m_of(self, r) -> Fraction:
        return self.m_expr.eval({"r": _frac(r)})

    def psi_of_s(self, s, r) -> Fraction:
        return _frac(s) + self.shift.eval({"r": _frac(r)})

    def family(self, r) -> HookFamily:
        return HookFamily.from_tag(self.tag, 0, self.m_of(r))

    def curve(self, r) -> TruncationCurve:
        return _curve_at(self.tag, Fraction(0), self.m_of(r))


def _build_targets() -> Dict[str, TargetRule]:
    r = RatFunc.var("r")
    half = Fraction(1, 2)
    return {
        "sp": TargetRule("sp", "2C", r, r + 1, 1, False),
        "so_even": TargetRule("so_even", "1O", r - 1, 2 * r - 2, 2, True),
        "osp": TargetRule("osp", "2B", r, r + half, 1, True),
        "so_odd": TargetRule("so_odd", "1C", r, 2 * r - 1, 1, False),
    }


TARGETS: Dict[str, TargetRule] = _build_targets()

SOURCE_TAGS = ("1B", "1D", "2B", "2C")
TARGET_KINDS = ("sp", "so_even", "osp")


# ---------------------------------------------------------------------------
# The forty-eight coincidence entries.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoincidenceEntry:
    """One catalogued coincidence C^psi_source(n, m) = W-target at rank r.

    ``psi`` and ``s`` are exact rational functions of (n, m, r); the
    target's own psi is s + shift(r) per TARGETS.  ``exclusions`` lists
    expressions E(n, m) with the meaning "the statement requires
    r != E(n, m)"; they are decidable on integer inputs and checked
    before anything else.
    """

    source: str
    target: str
    item: int
    psi: RatFunc
    s: RatFunc
    exclusions: Tuple[RatFunc, ...] = ()

    @property
    def table(self) -> str:
        return f"{self.source}-{self.target}"

    @property
    def name(self) -> str:
        return f"{self.table}({self.item})"

    def excluded_at(self, n, m, r) -> Optional[str]:
        point = {"n": _frac(n), "m": _frac(m)}
        for expr in self.exclusions:
            if _frac(r) == expr.eval(point):
                return f"r != {expr.to_text()}"
        return None


def _build_entries() -> Tuple[CoincidenceEntry, ...]:
    n = RatFunc.var("n")
    m = RatFunc.var("m")
    r = RatFunc.var("r")
    half = Fraction(1, 2)
    sp = -(r + 1)
    so = -(2 * r - 2)
    osp = -(r + half)
    rows = [
        # --- sp targets, source 1B (six entries) ---
        ("1B", "sp", 1, (1 + m + n + r) / (1 + m),
         sp + (1 + m + n + r) / (2 * (n + r)), ()),
        ("1B", "sp", 2, 2 * (m + n) / (1 + 2 * m + 2 * r),
         sp + (1 - 2 * n + 2 * r) / (2 * (1 + 2 * m + 2 * r)), ()),
        ("1B", "sp", 3, (1 + 2 * m + 2 * n + 2 * r) / (2 * m),
         sp + (1 + 2 * n + 2 * r) / (2 * (1 + 2 * m + 2 * n + 2 * r)), ()),
        ("1B", "sp", 4, (1 + m + n) / (1 + m + r),
         sp + (1 + m + r) / (2 * (r - n)), (n,)),
        ("1B", "sp", 5, 2 * (m + n - r) / (1 + 2 * m - 2 * r),
         sp + (r - m - n) / (2 * r - 2 * m - 1), ()),
        ("1B", "sp", 6, (1 + 2 * m + 2 * n - 2 * r) / (2 * (m - r)),
         sp + (r - m) / (2 * r - 2 * m - 2 * n - 1), (m,)),
        # --- sp targets, source 1D ---
        ("1D", "sp", 1, (m + n + r) / m,
         sp + (n + r) / (2 * (m + n + r)), ()),
        ("1D", "sp", 2, (2 * m + 2 * n - 1) / (2 * m + 2 * r + 1),
         sp + (1 - n + r) / (1 + 2 * m + 2 * r), ()),
        ("1D", "sp", 3, (1 + 2 * m + 2 * n + 2 * r) / (2 * (1 + m)),
         sp + (1 + 2 * m + 2 * n + 2 * r) / (2 * (2 * r + 2 * n - 1)), ()),
        ("1D", "sp", 4, (1 + 2 * m + 2 * n) / (2 * (1 + m + r)),
         sp + (1 + m + r) / (1 - 2 * n + 2 * r), ()),
        ("1D", "sp", 5, (2 * m + 2 * n - 2 * r - 1) / (2 * m - 2 * r + 1),
         sp + (1 - 2 * m - 2 * n + 2 * r) / (2 * (2 * r - 2 * m - 1)), ()),
        ("1D", "sp", 6, (m + n - r) / (m - r),
         sp + (r - m) / (2 * (r - m - n)), (m, n + m)),
        # --- sp targets, source 2B ---
        ("2B", "sp", 1, (1 + 2 * m - 2 * n + 2 * r) / (2 * (1 + 2 * m)),
         sp + (1 + 2 * m - 2 * n + 2 * r) / (4 * (r - n)), (n,)),
        ("2B", "sp", 2, (1 + 2 * m - 2 * n) / (2 * (1 + 2 * m + 2 * r)),
         sp + (1 + 2 * m + 2 * r) / (4 * (n + r)), ()),
        ("2B", "sp", 3, (m - n + r) / (2 * m - 1),
         sp + (1 - 2 * n + 2 * r) / (4 * (m - n + r)), (n - m,)),
        ("2B", "sp", 4, (m - n - r) / (2 * m - 2 * r - 1),
         sp + (1 - 2 * m + 2 * r) / (4 * (n - m + r)), (m - n,)),
        ("2B", "sp", 5, (2 * m - 2 * n - 2 * r - 1) / (4 * (m - r)),
         sp + (1 - 2 * m + 2 * n + 2 * r) / (4 * (r - m)), (m,)),
        ("2B", "sp", 6, (2 * m - 2 * n - 1) / (4 * (m + r)),
         sp + (1 + 2 * n + 2 * r) / (4 * (m + r)), ()),
        # --- sp targets, source 2C ---
        ("2C", "sp", 1, (1 + m + n + r) / (1 + 2 * m),
         sp + (1 + m + n + r) / (1 + 2 * n + 2 * r), ()),
        ("2C", "sp", 2, (1 + m + n) / (1 + 2 * m + 2 * r),
         sp + (1 + 2 * m + 2 * r) / (2 * (2 * r - 2 * n - 1)), ()),
        ("2C", "sp", 3, (1 + 2 * m + 2 * n + 2 * r) / (2 * (2 * m - 1)),
         sp + (1 + n + r) / (1 + 2 * m + 2 * n + 2 * r), ()),
        ("2C", "sp", 4, (m + n) / (2 * (m + r)),
         sp + (r - n) / (2 * (m + r)), ()),
        ("2C", "sp", 5, (m + n - r) / (2 * (m - r)),
         sp + (r - m - n) / (2 * (r - m)), (m,)),
        ("2C", "sp", 6, (1 + 2 * m + 2 * n - 2 * r) / (2 * (2 * m - 2 * r - 1)),
         sp + (1 - 2 * m + 2 * r) / (2 * (2 * r - 2 * m - 2 * n - 1)), ()),
        # --- so_even targets, source 1B (three entries) ---
        ("1B", "so_even", 1, 2 * (m + n + r) / (1 + 2 * m),
         so + (2 * n + 2 * r - 1) / (2 * (m + n + r)), ()),
        ("1B", "so_even", 2, (1 + 2 * m + 2 * n) / (2 * (m + r)),
         so + (2 * r - 2 * n - 1) / (2 * (m + r)), ()),
        ("1B", "so_even", 3, (1 + m + n - r) / (1 + m - r),
         so + (r - m - n - 1) / (r - m - 1), (m + 1,)),
        # --- so_even targets, source 1D ---
        ("1D", "so_even", 1, (2 * m + 2 * n + 2 * r - 1) / (1 + 2 * m),
         so + 2 * (n + r - 1) / (2 * m + 2 * n + 2 * r - 1), ()),
        ("1D", "so_even", 2, (m + n) / (m + r),
         so + (r - n) / (m + r), ()),
        ("1D", "so_even", 3, (1 + 2 * m + 2 * n - 2 * r) / (2 * (1 + m - r)),
         so + (2 * r - 2 * m - 2 * n - 1) / (2 * (r - m - 1)), (m + 1,)),
        # --- so_even targets, source 2B ---
        ("2B", "so_even", 1, (2 * m - 2 * n + 2 * r - 1) / (4 * m),
         so + (2 * r - 2 * n - 1) / (2 * m - 2 * n + 2 * r - 1), ()),
        ("2B", "so_even", 2, (1 + 2 * m - 2 * n - 2 * r) / (2 * (1 + 2 * m - 2 * r)),
         so + (2 * r - 2 * m - 1) / (2 * n + 2 * r - 2 * m - 1), ()),
        ("2B", "so_even", 3, (m - n) / (2 * m + 2 * r - 1),
         so + (2 * n + 2 * r - 1) / (2 * m + 2 * r - 1), ()),
        # --- so_even targets, source 2C ---
        ("2C", "so_even", 1, (m + n + r) / (2 * m),
         so + (n + r) / (m + n + r), ()),
        ("2C", "so_even", 2, (1 + 2 * m + 2 * n) / (2 * (2 * m + 2 * r - 1)),
         so + 2 * (r - n - 1) / (2 * m + 2 * r - 1), ()),
        ("2C", "so_even", 3, (1 + m + n - r) / (1 + 2 * m - 2 * r),
         so + 2 * (r - m - n - 1) / (2 * r - 2 * m - 1), ()),
        # --- osp targets, source 1B ---
        ("1B", "osp", 1, (1 + 2 * m + 2 * n + 2 * r) / (1 + 2 * m),
         osp + (n + r) / (1 + 2 * m + 2 * n + 2 * r), ()),
        ("1B", "osp", 2, (1 + 2 * m + 2 * n) / (1 + 2 * m + 2 * r),
         osp + (r - n) / (1 + 2 * m + 2 * r), ()),
        ("1B", "osp", 3, (1 + 2 * m + 2 * n - 2 * r) / (1 + 2 * m - 2 * r),
         osp + (2 * r - 2 * m - 2 * n - 1) / (2 * (2 * r - 2 * m - 1)), ()),
        # --- osp targets, source 1D ---
        ("1D", "osp", 1, 2 * (m + n + r) / (1 + 2 * m),
         osp + (m + n + r) / (2 * n + 2 * r - 1), ()),
        ("1D", "osp", 2, 2 * (m + n) / (1 + 2 * m + 2 * r),
         osp + (1 - 2 * n + 2 * r) / (2 * (1 + 2 * m + 2 * r)), ()),
        ("1D", "osp", 3, 2 * (m + n - r) / (1 + 2 * m - 2 * r),
         osp + (r - m - n) / (2 * r - 2 * m - 1), ()),
        # --- osp targets, source 2B ---
        ("2B", "osp", 1, (m - n + r) / (2 * m),
         osp + (r - n) / (2 * (m - n + r)), (n - m,)),
        ("2B", "osp", 2, (m - n - r) / (2 * (m - r)),
         osp + (r - m) / (2 * (n - m + r)), (m, m - n)),
        ("2B", "osp", 3, (m - n) / (2 * (m + r)),
         osp + (n + r) / (2 * (m + r)), ()),
        # --- osp targets, source 2C ---
        ("2C", "osp", 1, (1 + 2 * m + 2 * n + 2 * r) / (4 * m),
         osp + (1 + 2 * n + 2 * r) / (2 * (1 + 2 * m + 2 * n + 2 * r)), ()),
        ("2C", "osp", 2, (1 + 2 * m + 2 * n) / (4 * (m + r)),
         osp + (m + r) / (2 * r - 2 * n - 1), ()),
        ("2C", "osp", 3, (1 + 2 * m + 2 * n - 2 * r) / (4 * (m - r)),
         osp + (r - m) / (2 * r - 2 * m - 2 * n - 1), (m,)),
    ]
    entries = []
    for source, target, item, psi, s, excl in rows:
        excl = tuple(e if isinstance(e, RatFunc) else RatFunc.const(e) for e in excl)
        entries.append(CoincidenceEntry(source, target, item, psi, s, excl))
    return tuple(entries)


_ENTRIES: Tuple[CoincidenceEntry, ...] = _build_entries()


def all_entries() -> Tuple[CoincidenceEntry, ...]:
    """All forty-eight coincidence entries, in table order."""
    return _ENTRIES


def coincidence_table(source: str, target: str) -> Tuple[CoincidenceEntry, ...]:
    """The catalogued entries for one (source family, target kind) pair."""
    if source not in SOURCE_TAGS or target not in TARGET_KINDS:
        raise ValueError(
            f"no coincidence table for ({source!r}, {target!r}); sources are "
            f"{'/'.join(SOURCE_TAGS)} and targets {'/'.join(TARGET_KINDS)}"
        )
    return tuple(e for e in _ENTRIES if e.source == source and e.target == target)


# ---------------------------------------------------------------------------
# Pointwise and symbolic verification.
# ---------------------------------------------------------------------------


@cache
def _curve_at(tag: str, n: Fraction, m: Fraction) -> TruncationCurve:
    return phi_family(tag, n, m)


@cache
def _source_curve_symbolic(tag: str) -> TruncationCurve:
    return phi_family(tag, RatFunc.var("n"), RatFunc.var("m"))


@cache
def _target_curve_symbolic(kind: str) -> TruncationCurve:
    rule = TARGETS[kind]
    return phi_family(rule.tag, Fraction(0), rule.m_expr)


@dataclass(frozen=True)
class CoincidenceOutcome:
    """Result of checking one entry at integers (n, m, r).

    status is "pass", "skipped", or "fail".  Skips carry the reason
    (a fired exclusion, a pole of a displayed formula, or a point off
    the generic domain of either curve).  Values are filled whenever
    both curves were actually evaluated; ``degenerate`` marks a central
    charge at which the even-spin algebra itself degenerates.
    """

    entry: CoincidenceEntry
    n: int
    m: int
    r: int
    status: str
    reason: Optional[str] = None
    psi1: Optional[Fraction] = None
    psi2: Optional[Fraction] = None
    source_values: Optional[Tuple[Fraction, Fraction]] = None
    target_values: Optional[Tuple[Fraction, Fraction]] = None
    degenerate: bool = False

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def verify_coincidence(entry: CoincidenceEntry, n, m, r) -> CoincidenceOutcome:
    """Check one coincidence entry at integer parameters, exactly.

    Exclusions are evaluated first, then poles of the displayed psi and
    s formulas, then membership in the generic domain of both curves
    (the printed curve denominators must not vanish, else the displayed
    identity has no content at the point and the limit is not claimed).
    Surviving points are compared as exact (c, lambda) pairs.
    """
    rule = TARGETS[entry.target]
    n = _int(n, "n")
    m = _int(m, "m")
    r = _int(r, "r")
    if n < 0 or m < 0:
        raise ValueError("n and m must be non-negative")
    if r < rule.min_r:
        raise ValueError(f"target kind {entry.target!r} requires r >= {rule.min_r}")

    def skipped(reason: str, **kw) -> CoincidenceOutcome:
        return CoincidenceOutcome(entry, n, m, r, "skipped", reason, **kw)

    fired = entry.excluded_at(n, m, r)
    if fired is not None:
        return skipped(f"exclusion {fired} fires")
    point = {"n": Fraction(n), "m": Fraction(m), "r": Fraction(r)}
    try:
        psi1 = entry.psi.eval(point)
    except PoleError:
        return skipped("the displayed psi formula has a pole here")
    try:
        psi2 = entry.s.eval(point) + rule.shift.eval({"r": Fraction(r)})
    except PoleError:
        return skipped("the displayed s formula has a pole here")
    m_t = rule.m_of(r)
    if not on_generic_domain(entry.source, n, m, psi1):
        return skipped(
            "source curve formulas are undefined at psi", psi1=psi1, psi2=psi2
        )
    if not on_generic_domain(rule.tag, 0, m_t, psi2):
        return skipped(
            "target curve formulas are undefined at the target psi",
            psi1=psi1,
            psi2=psi2,
        )
    src = _curve_at(entry.source, Fraction(n), Fraction(m))
    tgt = _curve_at(rule.tag, Fraction(0), m_t)
    try:
        sv = src.values(psi1)
        tv = tgt.values(psi2)
    except PoleError:
        # The canonical denominators divide the printed ones, so this
        # is unreachable unless a curve degenerates; report, not crash.
        return skipped("curve evaluation hit a pole", psi1=psi1, psi2=psi2)
    status = "pass" if sv == tv else "fail"
    return CoincidenceOutcome(
        entry,
        n,
        m,
        r,
        status,
        None if status == "pass" else "exact (c, lambda) values differ",
        psi1=psi1,
        psi2=psi2,
        source_values=sv,
        target_values=tv,
        degenerate=sv[0] in DEGENERATE_CHARGES,
    )


def verify_coincidence_symbolic(entry: CoincidenceEntry) -> bool:
    """Check one entry as a trivariate identity in (n, m, r).

    Both curve components are composed with the displayed formulas as
    cleared polynomial pairs and compared by cross-multiplication; no
    canonicalization of the composites is needed.
    """
    rule = TARGETS[entry.target]
    src = _source_curve_symbolic(entry.source)
    tgt = _target_curve_symbolic(entry.target)
    psi2 = entry.s + rule.shift
    for a, b in ((src.c, tgt.c), (src.lam, tgt.lam)):
        na, da = compose_cleared(a, entry.psi)
        nb, db = compose_cleared(b, psi2)
        if da.is_zero() or db.is_zero():
            return False
        if not (na * db - nb * da).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# The osp-osp diagonal coincidences.
# ---------------------------------------------------------------------------


def osp_osp_charge(m, n) -> Fraction:
    """The displayed common central charge of the osp-osp coincidences."""
    m = _frac(m)
    n = _frac(n)
    if m + n == 0:
        raise ValueError("m + n must be positive")
    return -((1 + 2 * m) * (1 + 2 * n) * (2 * m * n - m - n)) / (2 * (m + n))


def _osp_osp_psis(m: Fraction, n: Fraction) -> Tuple[Fraction, Fraction]:
    return ((m + n) / (2 * m), m / (2 * (m + n)))


@dataclass(frozen=True)
class OspOspPair:
    """One displayed (k, l) level pair, with the curve values compared."""

    k: Fraction
    ell: Fraction
    psi_k: Fraction
    psi_ell: Fraction
    c: Fraction
    lam_left: Fraction
    lam_right: Fraction
    passed: bool


@dataclass(frozen=True)
class OspOspReport:
    m: int
    n: int
    c: Fraction
    degenerate: bool
    pairs: Tuple[OspOspPair, ...]

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.pairs)


def verify_osp_osp(m, n) -> OspOspReport:
    """Check the two-by-two displayed osp-osp level pairs exactly.

    For each displayed pair the orbifold levels k and l are converted to
    curve coordinates psi = k + m + 1/2 and psi = l + n + 1/2, and the
    (c, lambda) values of the two 2B curves are compared with each other
    and with the displayed common central charge.
    """
    m = _int(m, "m")
    n = _int(n, "n")
    if m + n == 0:
        raise ValueError("m + n must be positive")
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    c_display = osp_osp_charge(m, n)
    left = _curve_at("2B", Fraction(0), Fraction(m))
    right = _curve_at("2B", Fraction(0), Fraction(n))
    pairs = []
    for psi_k in _osp_osp_psis(Fraction(m), Fraction(n)):
        for psi_ell in _osp_osp_psis(Fraction(n), Fraction(m)):
            c1, l1 = left.values(psi_k)
            c2, l2 = right.values(psi_ell)
            pairs.append(
                OspOspPair(
                    k=psi_k - m - Fraction(1, 2),
                    ell=psi_ell - n - Fraction(1, 2),
                    psi_k=psi_k,
                    psi_ell=psi_ell,
                    c=c1,
                    lam_left=l1,
                    lam_right=l2,
                    passed=(c1 == c_display == c2 and l1 == l2),
                )
            )
    return OspOspReport(
        m=m,
        n=n,
        c=c_display,
        degenerate=c_display in DEGENERATE_CHARGES,
        pairs=tuple(pairs),
    )


# ---------------------------------------------------------------------------
# Rationality witnesses.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalityWitness:
    """One parameter value at which a coset is lisse and rational.

    ``theorem`` is the catalogue's own certificate tag.  ``conditions``
    records the arithmetic checks the certificate imposes, already
    instantiated at the concrete parameters (every listed condition
    holds).  ``aux`` keeps the auxiliary integers (r, or p and q) that
    produced the point, so the witness can be re-derived.
    """

    family: str
    n: int
    m: int
    psi: Fraction
    theorem: str
    conditions: Tuple[str, ...]
    partner_algebra: Optional[str] = None
    partner_s: Optional[Fraction] = None
    status: str = "certified"
    aux: Tuple[Tuple[str, int], ...] = ()


def witness_json(w: RationalityWitness) -> dict:
    """The witness as a JSON-ready dict (exact values as strings)."""
    partner = None
    if w.partner_algebra is not None:
        partner = {"algebra": w.partner_algebra, "s": str(w.partner_s)}
    return {
        "family": w.family,
        "n": w.n,
        "m": w.m,
        "psi": str(w.psi),
        "theorem": w.theorem,
        "conditions": list(w.conditions),
        "partner": partner,
        "status": w.status,
    }


def _coprime(a: int, b: int) -> bool:
    return gcd(a, b) == 1


def _w(family, n, m, psi, tag, conditions, alg=None, s=None, status="certified",
       **aux) -> RationalityWitness:
    return RationalityWitness(
        family=family,
        n=n,
        m=m,
        psi=_frac(psi),
        theorem=tag,
        conditions=tuple(conditions),
        partner_algebra=None if alg is None else str(alg),
        partner_s=None if s is None else _frac(s),
        status=status,
        aux=tuple(sorted(aux.items())),
    )


def _points_2B(m: int, r_bound: int, pq_bound: int, conjectural: bool):
    out = []
    for r in range(1, r_bound + 1):
        if _coprime(m + r, 1 + 2 * r):
            out.append(_w(
                "2B", 0, m,
                Fraction(2 * m - 1, 4 * (m + r)),
                "osp-principal-1",
                (f"gcd({m + r},{1 + 2 * r})=1",),
                AlgebraDesc.sp(2 * r),
                -(r + 1) + Fraction(1 + 2 * r, 4 * (m + r)),
                r=r,
            ))
        if _coprime(r, 1 + 2 * m):
            out.append(_w(
                "2B", 0, m,
                Fraction(1 + 2 * m, 2 * (1 + 2 * m + 2 * r)),
                "osp-principal-2",
                (f"gcd({r},{1 + 2 * m})=1",),
                AlgebraDesc.sp(2 * r),
                -(r + 1) + Fraction(1 + 2 * m + 2 * r, 4 * r),
                r=r,
            ))
        if _coprime(2 * r - 1, 2 * m):
            out.append(_w(
                "2B", 0, m,
                Fraction(m, 2 * m + 2 * r - 1),
                "osp-so-dual",
                (f"gcd({2 * r - 1},{2 * m})=1",),
                AlgebraDesc.so(2 * r),
                -(2 * r - 2) + Fraction(2 * r - 1, 2 * m + 2 * r - 1),
                r=r,
            ))
    if m == 1:
        for p in range(2, pq_bound + 1):
            for q in range(1, pq_bound + 1):
                if not _coprime(p, q):
                    continue
                a = Fraction(p, q) - 2
                conds = (f"gcd({p},{q})=1", f"{p}>=2")
                out.append(_w(
                    "2B", 0, 1, (2 + a) / (2 * (4 + a)),
                    "osp12-pair", conds, AlgebraDesc.sp(2), a, p=p, q=q,
                ))
                out.append(_w(
                    "2B", 0, 1, (4 + a) / (2 * (2 + a)),
                    "osp12-pair", conds, AlgebraDesc.sp(2), a, p=p, q=q,
                ))
    if conjectural:
        for p in range(1, pq_bound + 1):
            for q in range(1, pq_bound + 1):
                if not _coprime(p, q):
                    continue
                bound = 2 * m - 1 if q % 2 else 2 * m
                if p < bound:
                    continue
                conds = (f"gcd({p},{q})=1", f"{p}>={bound}")
                for psi in (Fraction(p, 2 * (p + q)), Fraction(p + q, 2 * p)):
                    out.append(_w(
                        "2B", 0, m, psi, "conj-osp-coset", conds,
                        status="conjectural", p=p, q=q,
                    ))
    return out


def _points_subreg(tag: str, m: int, r_bound: int, conjectural: bool):
    # tag "1D" holds the displays directly; tag "2D" (at m+1) holds their
    # psi -> 1/(2 psi) partners, with the same partner algebras and levels.
    dual = tag == "2D"
    fam_m = m + 1 if dual else m
    out = []

    def emit(psi, tag_name, conds, alg=None, s=None, status="certified", **aux):
        value = 1 / (2 * psi) if dual else psi
        out.append(_w(tag, 1, fam_m, value, tag_name, conds, alg, s,
                      status=status, **aux))

    for r in range(1, r_bound + 1):
        if _coprime(m + 1, 2 * r + 1):
            emit(
                Fraction(3 + 2 * m + 2 * r, 2 * m + 2),
                "subregB-2" if dual else "subregB-1",
                (f"gcd({m + 1},{2 * r + 1})=1",),
                AlgebraDesc.sp(2 * r),
                -(r + 1) + Fraction(2 * m + 2 * r + 3, 2 * (2 * r + 1)),
                r=r,
            )
        if _coprime(r, 2 * m + 1):
            emit(
                Fraction(2 * m + 2 * r + 1, 2 * m + 1),
                "subregB-4" if dual else "subregB-3",
                (f"gcd({r},{2 * m + 1})=1",),
                AlgebraDesc.so(2 * r),
                -(2 * r - 2) + Fraction(2 * r, 2 * m + 2 * r + 1),
                r=r,
            )
        if conjectural and m >= 2 * r - 1:
            emit(
                Fraction(2 * (m - r + 1), 1 + 2 * m - 2 * r),
                "conj-subregB",
                (f"{m}>={2 * r - 1}",),
                status="conjectural",
                r=r,
            )
    emit(
        Fraction(2 * (2 + m), 2 * m + 1),
        "subregB-osp1",
        (),
        AlgebraDesc.osp(1, 2, "C"),
        Fraction(-3, 2) + Fraction(2 + m, 3),
    )
    if m >= 2:
        emit(
            Fraction(2 * m, 2 * m - 1),
            "subregB-osp1-dual",
            (f"{4 * m - 4}>=1",),
            AlgebraDesc.osp(1, 2, "C"),
            Fraction(-3, 2) + Fraction(m, 2 * m - 1),
        )
    return out


def _points_2C(n: int, r_bound: int):
    out = []
    for r in range(1, r_bound + 1):
        out.append(_w(
            "2C", n, 1,
            Fraction(3 + 2 * n + 2 * r, 2),
            "minC",
            (),
            AlgebraDesc.sp(2 * r),
            -(r + 1) + Fraction(1 + n + r, 3 + 2 * n + 2 * r),
            r=r,
        ))
    return out


def _points_1C(n: int, r_bound: int):
    out = []
    for k in range(1, r_bound + 1):
        out.append(_w(
            "1C", n, 0,
            Fraction(-(2 * k + 2 * n + 1)),
            "osp-affine",
            (f"{k}>=1",),
            AlgebraDesc.sp(2 * n),
            -(n + 1) + Fraction(1 + k + n, 1 + 2 * k + 2 * n),
            r=k,
        ))
    return out


def rational_points(
    fam: HookFamily,
    *,
    r_bound: int = 4,
    pq_bound: int = 12,
    include_conjectural: bool = False,
) -> Tuple[RationalityWitness, ...]:
    """All catalogued rationality witnesses for one family member.

    Auxiliary integers sweep 1..r_bound (the partner rank, or the level
    numerator k) and 1..pq_bound (the admissible-level pairs p, q).
    Conjectural points are emitted only on request and are tagged
    ``status="conjectural"``; they never carry a partner.
    """
    if r_bound < 1 or pq_bound < 1:
        raise ValueError("bounds must be at least 1")
    n, m = int(fam.n), int(fam.m)
    tag = fam.tag
    if tag == "2B" and n == 0 and m >= 1:
        points = _points_2B(m, r_bound, pq_bound, include_conjectural)
    elif tag == "1D" and n == 1 and m >= 1:
        points = _points_subreg("1D", m, r_bound, include_conjectural)
    elif tag == "2D" and n == 1 and m >= 2:
        points = _points_subreg("2D", m - 1, r_bound, include_conjectural)
    elif tag == "2C" and m == 1 and n >= 1:
        points = _points_2C(n, r_bound)
    elif tag == "1C" and m == 0 and n >= 1:
        points = _points_1C(n, r_bound)
    else:
        raise ValueError(
            f"no catalogued rationality statements for {fam!r}; catalogued "
            "shapes are 2B(0,m), 1D(1,m), 2D(1,m>=2), 2C(n,1), 1C(n,0)"
        )
    return tuple(points)


def check_witness(w: RationalityWitness) -> bool:
    """Re-derive a witness from its certificate tag and auxiliary data.

    True when the witness is reproduced exactly (same psi, partner, and
    conditions) by a fresh sweep that covers its auxiliary integers.
    """
    aux = dict(w.aux)
    bound = max([4] + [v for v in aux.values()])
    fresh = rational_points(
        HookFamily.from_tag(w.family, w.n, w.m),
        r_bound=bound,
        pq_bound=bound,
        include_conjectural=(w.status == "conjectural"),
    )
    return w in fresh


# ---------------------------------------------------------------------------
# Gelfand-Tsetlin factor chains.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GTFactor:
    """One tensor factor of a Gelfand-Tsetlin chain.

    kind "H" is the rank-one Heisenberg factor; "D" and "E" are the
    B/D-series factors D_k(j), E_k(j), resolved to a principal W-algebra
    orbifold at the displayed level; "pair" is a C-series double factor
    carrying both displayed levels (ell_i, s_i).
    """

    series: str
    kind: str
    index: int
    k: int
    algebra: Optional[str]
    orbifold: bool
    levels: Tuple[Fraction, ...]
    tag: Optional[str]

    @property
    def label(self) -> str:
        if self.kind == "H":
            return "H"
        if self.kind == "pair":
            return f"F_{self.k}({self.index})"
        return f"{self.kind}_{self.k}({self.index})"


def gt_factor_json(f: GTFactor) -> dict:
    return {
        "series": f.series,
        "kind": f.kind,
        "label": f.label,
        "algebra": f.algebra,
        "orbifold": f.orbifold,
        "levels": [str(v) for v in f.levels],
        "tag": f.tag,
    }


def _bd_factor(series: str, kind: str, j: int, k: int) -> GTFactor:
    # The D_k(j) and E_k(j) factors resolve by the parity of k.
    if k % 2 == 0:
        rr = k // 2
        alg = AlgebraDesc.so(2 * rr)
        if kind == "D":
            s = -(2 * rr - 2) + Fraction(2 * j + 2 * rr - 2, 2 * j + 2 * rr - 1)
        else:
            s = -(2 * rr - 2) + Fraction(2 * j + 2 * rr - 1, 2 * j + 2 * rr)
        tag = "gt-BD-even"
    else:
        rr = (k - 1) // 2
        alg = AlgebraDesc.osp(1, 2 * rr, "C")
        if kind == "D":
            s = Fraction(-(2 * rr + 1), 2) + Fraction(j + rr, 2 * j + 2 * rr - 1)
        else:
            s = Fraction(-(2 * rr + 1), 2) + Fraction(j + rr, 2 * j + 2 * rr + 1)
        tag = "gt-BD-odd"
    return GTFactor(series, kind, j, k, str(alg), True, (s,), tag)


def gelfand_tsetlin_factors(series: str, n: int, k: int) -> Tuple[GTFactor, ...]:
    """The factor chain of one Gelfand-Tsetlin style decomposition.

    Series "C" yields n double factors of W-algebras of sp(2k) at the
    displayed level pairs (ell_i, s_i), i = 1..n.  Series "D" yields the
    chain H, D_k(1), E_k(1), ..., D_k(n), E_k(n) and series "B" the
    chain H, D_k(1), E_k(1), ..., D_k(n-1), E_k(n-1), D_k(n), each D/E
    factor resolved to a W-algebra orbifold at the displayed level.
    """
    n = _int(n, "n")
    k = _int(k, "k")
    if n < 1 or k < 1:
        raise ValueError("n and k must be at least 1")
    if series == "C":
        factors = []
        for i in range(1, n + 1):
            ell = -(k + 1) + Fraction(2 + n - i + k, 3 + 2 * n - 2 * i + 2 * k)
            s = -(k + 1) + Fraction(1 + n - i + k, 3 + 2 * n - 2 * i + 2 * k)
            factors.append(GTFactor(
                "C", "pair", i, k, str(AlgebraDesc.sp(2 * k)), False,
                (ell, s), "gt-C",
            ))
        return tuple(factors)
    if series not in ("B", "D"):
        raise ValueError("series must be one of B, D, C")
    chain = [GTFactor(series, "H", 0, k, None, False, (), None)]
    last = n if series == "D" else n - 1
    for j in range(1, last + 1):
        chain.append(_bd_factor(series, "D", j, k))
        chain.append(_bd_factor(series, "E", j, k))
    if series == "B":
        chain.append(_bd_factor(series, "D", n, k))
    return tuple(chain)


# ---------------------------------------------------------------------------
# Catalogued admissibility certificates.
# ---------------------------------------------------------------------------


def parse_algebra(text) -> AlgebraDesc:
    """Parse "sp(2r)", "so(N)", or "osp(1|2r)" descriptor text."""
    if isinstance(text, AlgebraDesc):
        return text
    s = text.strip().replace(" ", "")
    for kind in ("sp", "so", "osp"):
        if s.startswith(kind + "(") and s.endswith(")"):
            body = s[len(kind) + 1:-1]
            if kind == "osp":
                odd, _, even = body.partition("|")
                return AlgebraDesc.osp(int(odd), int(even), "C")
            size = int(body)
            return AlgebraDesc.sp(size) if kind == "sp" else AlgebraDesc.so(size)
    raise ValueError(f"cannot parse algebra descriptor {text!r}")


def _as_positive_int(value: Fraction) -> Optional[int]:
    if value.denominator == 1 and value > 0:
        return int(value)
    return None


def _solve_linear(num_const: int, num_coeff: int, t: Fraction) -> Optional[Fraction]:
    # Solve t = (num_const + x) / (num_coeff + 2 x) for x; None at the pole.
    den = 2 * t - 1
    if den == 0:
        return None
    return (num_const - t * num_coeff) / den


def _sp_certificates(r: int, t: Fraction):
    # Yields True (certified), False (a catalogued shape matched but its
    # printed coprimality fails), or nothing, per certificate shape.
    found = []
    # Fixed numerator 1 + 2r over 4(m + r); odd numerator, so any common
    # factor of an integer denominator is >= 3 and refutes admissibility.
    if t > 0:
        q_star = _as_positive_int(Fraction(1 + 2 * r) / t)
        if q_star is not None:
            if gcd(q_star, 1 + 2 * r) != 1:
                found.append(False)
            elif q_star % 4 == 0 and q_star // 4 - r >= 1:
                found.append(True)
        # Fixed denominator 4r, numerator 1 + 2m + 2r.  A failing
        # coprimality here does not collapse the reduced numerator (it is
        # unbounded in m), so this shape certifies and never refutes.
        v = _as_positive_int(4 * r * t)
        if v is not None and v % 2 == 1 and (v - 1 - 2 * r) >= 2:
            if (v - 1 - 2 * r) % 2 == 0 and gcd(r, v) == 1:
                found.append(True)
        # Fixed denominator 2(2r + 1), numerator 3 + 2m + 2r; same remark.
        v = _as_positive_int(2 * (2 * r + 1) * t)
        if v is not None and v % 2 == 1 and (v - 3 - 2 * r) >= 2:
            if (v - 3 - 2 * r) % 2 == 0 and gcd((v - 1 - 2 * r) // 2, 2 * r + 1) == 1:
                found.append(True)
    # (1 + x + r)/(3 + 2x + 2r), x >= 1: the minimal-coset partner display
    # (x = n) and the chain s-display (x = n - i >= 1); no coprimality.
    x = _solve_linear(1 + r, 3 + 2 * r, t)
    if x is not None and x.denominator == 1 and x >= 1:
        found.append(True)
    # (2 + x + r)/(3 + 2x + 2r), x >= 0: the chain ell-display.
    x = _solve_linear(2 + r, 3 + 2 * r, t)
    if x is not None and x.denominator == 1 and x >= 0:
        found.append(True)
    # (1 + k + r)/(1 + 2k + 2r), k >= 1: the affine-coset partner display.
    x = _solve_linear(1 + r, 1 + 2 * r, t)
    if x is not None and x.denominator == 1 and x >= 1:
        found.append(True)
    return found


def _so_even_certificates(r: int, t: Fraction):
    found = []
    if t > 0:
        # Fixed odd numerator 2r - 1 over 2m + 2r - 1.
        q_star = _as_positive_int(Fraction(2 * r - 1) / t)
        if q_star is not None:
            if gcd(q_star, 2 * r - 1) != 1:
                found.append(False)
            elif (q_star - 2 * r + 1) % 2 == 0 and (q_star - 2 * r + 1) >= 2:
                found.append(True)
        # Fixed even numerator 2r over 2m + 2r + 1: the loose reading is
        # unsound here (a common factor 2 can reduce to an admissible
        # level), but on a full match the denominator is odd, so any
        # failing common factor is >= 3 and the refutation stands.
        q_star = _as_positive_int(Fraction(2 * r) / t)
        if q_star is not None and q_star % 2 == 1 and (q_star - 2 * r - 1) >= 2:
            if (q_star - 2 * r - 1) % 2 == 0:
                found.append(gcd(r, q_star) == 1)
        # Chain displays: a = 2j + 2r - 1 with t = (a - 1)/a, or
        # a = 2j + 2r with t = (a - 1)/a; no coprimality.
        one_minus = 1 - t
        if one_minus > 0:
            a = _as_positive_int(1 / one_minus)
            if a is not None:
                if a % 2 == 1 and (a - 2 * r + 1) >= 2 and (a - 2 * r + 1) % 2 == 0:
                    found.append(True)
                if a % 2 == 0 and (a - 2 * r) >= 2 and (a - 2 * r) % 2 == 0:
                    found.append(True)
    return found


def is_admissible_nondegenerate(alg, s) -> str:
    """Tri-state admissibility answer from the catalogued certificates.

    "yes" when some catalogued rationality statement's displayed level
    parametrization produces s with its printed arithmetic conditions
    satisfied; "no" when a parametrization matches s but its printed
    coprimality fails; "unknown" otherwise.  No general admissibility
    criterion is implemented, so "unknown" carries no information.
    """
    alg = parse_algebra(alg)
    s = _frac(s)
    if alg.kind == "sp":
        r = alg.size // 2
        if r < 1:
            return "unknown"
        found = _sp_certificates(r, s + r + 1)
    elif alg.kind == "so_even":
        r = alg.size // 2
        if r < 2:
            return "unknown"
        found = _so_even_certificates(r, s + 2 * r - 2)
    elif alg.kind == "so_odd":
        return "unknown"
    else:
        raise ValueError("admissibility certificates cover sp and so only")
    if any(found):
        return "yes"
    if found:
        return "no"
    return "unknown"
