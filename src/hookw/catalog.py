"""Level coincidences, rationality witnesses, factor chains, admissible levels.

Three bodies of exact data about the hook-type cosets, and one test on
levels, live here:

* the forty-eight catalogued level coincidences between a coset
  C^psi(n, m) and a principal W-algebra (or its orbifold) of type
  sp(2r), so(2r), or osp(1|2r), with their exactly transcribed
  exclusions, verifiable pointwise or with n, m, r fully symbolic;

* the rationality witnesses: parameter values at which a coset is
  certified (or conjectured) to be lisse and rational, each carrying
  the arithmetic conditions that the certifying statement imposes and,
  where the proof runs through a coincidence, the partner algebra and
  its level.  Each partnered witness is a coincidence entry at the
  family's fixed parameter (``_SHAPES``), read off the entry's psi, s
  and target; only osp-affine, osp12-pair and the conjectural points are
  typed;

* the Gelfand-Tsetlin factor chains whose tensor factors resolve to
  principal W-algebras and orbifolds at explicitly displayed levels,
  each factor a coincidence entry at its member's parameters, read off
  like a witness (``_entry_at``);

* whether a level of so_N or sp_N is admissible and nondegenerate, the
  hypothesis under which a partner principal W-algebra is rational,
  decided from h, h^vee, the lacing number and the Langlands dual.

Verification maps a coincidence's target to a degenerate member of the
eight families (TARGETS): at integer (n, m, r) the two curves' values are
compared exactly, and with n, m, r symbolic a map of the S3 orbit of the
master curve must take the source's point to the target's (``curves``).

The coincidence table is built on first use (``all_entries``), with one
canonicalization per printed formula, so ``import hookw`` does no exact
arithmetic for it; the curves are memoized on first use as well.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from math import gcd
from typing import Dict, Optional, Tuple

from ._record import Record, replace
from .curves import (
    _DEGENERATE_SET,
    TruncationCurve,
    _orbit_maps,
    _point,
    _same_point,
    _sums_on_domain,
    phi_family,
)
from .exact import (
    _VAR_INDEX,
    VARIABLES,
    PoleError,
    RatFunc,
    _Cleared,
    _coerce_fraction,
    _homogenized_powers,
)
from .liedata import (
    AlgebraDesc,
    HookFamily,
    ambient_algebra,
    coxeter_number,
    dual_coxeter,
    lacing_number,
    langlands_dual,
)

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


_N, _M, _R = (_VAR_INDEX[name] for name in ("n", "m", "r"))
_CELL_VARS = frozenset((_N, _M, _R))


def _int(value, what: str) -> int:
    if type(value) is int:
        return value
    f = _coerce_fraction(value)
    if f.denominator != 1:
        raise ValueError(f"{what} must be an integer, got {f}")
    return int(f)


# ---------------------------------------------------------------------------
# Target dictionary: which degenerate family realizes each W-algebra target.
# ---------------------------------------------------------------------------


class TargetRule(Record):
    """A target W-algebra kind as a degenerate member of the eight families.

    ``W_s`` of the target algebra of rank parameter r equals the family
    ``tag`` at (n, m) = (0, m_expr(r)) and psi = s + shift(r).  ``min_r``
    is the smallest rank for which coincidence statements exist.  The
    algebra is the family's; the shift, a polynomial in r, is its h^vee.
    """

    kind: str
    tag: str
    m_expr: RatFunc
    shift: RatFunc
    min_r: int

    def algebra(self, r: int) -> AlgebraDesc:
        return ambient_algebra(HookFamily.from_tag(self.tag, 0, self.m_of(r))).plain()

    def m_of(self, r) -> Fraction:
        return _rank_data(self.kind, _coerce_fraction(r))[0]

    def psi_of_s(self, s, r) -> Fraction:
        return _coerce_fraction(s) + _rank_data(self.kind, _coerce_fraction(r))[1]

    def curve(self, r) -> TruncationCurve:
        return phi_family(self.tag, 0, self.m_of(r))


@cache
def _rank_data(kind: str, r) -> Tuple[Fraction, Fraction]:
    """(m_expr(r), shift(r)) of the rule TARGETS[kind], evaluated once per rank.

    An int r and the equal Fraction hash alike, so they share one entry.
    """
    rule = TARGETS[kind]
    point = {"r": r}
    return rule.m_expr.eval(point), rule.shift.eval(point)


def _build_targets() -> Dict[str, TargetRule]:
    r = RatFunc.var("r")
    half = Fraction(1, 2)
    return {
        "sp": TargetRule("sp", "2C", r, r + 1, 1),
        "so_even": TargetRule("so_even", "1O", r - 1, 2 * r - 2, 2),
        "osp": TargetRule("osp", "2B", r, r + half, 1),
        "so_odd": TargetRule("so_odd", "1C", r, 2 * r - 1, 1),
    }


TARGETS: Dict[str, TargetRule] = _build_targets()

SOURCE_TAGS = ("1B", "1D", "2B", "2C")
TARGET_KINDS = ("sp", "so_even", "osp")


def _rank_error(kind: str, r) -> Optional[str]:
    """Why the rank r is below the smallest of target kind, or None."""
    min_r = TARGETS[kind].min_r
    return f"target kind {kind!r} requires r >= {min_r}" if r < min_r else None


# ---------------------------------------------------------------------------
# The forty-eight coincidence entries.
# ---------------------------------------------------------------------------


class CoincidenceEntry(Record):
    """One catalogued coincidence C^psi_source(n, m) = W-target at rank r.

    ``psi`` and ``s`` are exact rational functions of (n, m, r); the
    target's own psi is s + shift(r) per TARGETS.  ``exclusions`` lists
    expressions E(n, m) with the meaning "the statement requires
    r != E(n, m)"; they are decidable on integer inputs and checked
    before anything else.  All three are evaluated from one set of
    integer term rows per entry (``_cell_forms``), built on first use.
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
        n, m, r = (_coerce_fraction(x) for x in (n, m, r))
        return self._fired_exclusion(r, self._cell_values(n, m, r))

    @cached_property
    def _cell_forms(self):
        """((dn, dm, dr), rows): the entry's formulas as integer term rows.

        Built on first use.  (dn, dm, dr) are the highest degrees of n, m
        and r in any row.  ``rows`` alternates numerator and denominator:
        psi, then the target psi s + shift(r) folded into one uncanonicalized
        quotient (``exact._Cleared``), then each exclusion.  A row is a tuple
        of terms (c, a, b, e), each c * n**a * m**b * r**e.  shift is a
        polynomial in r, so the folded formula has the denominator of s up
        to a constant, the same poles and the same values, and no gcd runs.
        A formula in any variable but n, m, r raises ValueError.
        """
        target_psi = _Cleared._of(self.s) + TARGETS[self.target].shift
        rows = tuple(
            row
            for q in map(_Cleared._of, (self.psi, target_psi, *self.exclusions))
            for row in (self._term_row(q.num), self._term_row(q.den))
        )
        degrees = tuple(
            max((term[k] for row in rows for term in row), default=0)
            for k in (1, 2, 3)
        )
        return degrees, rows

    def _term_row(self, poly):
        """The terms (c, a, b, e) of the integer dict poly."""
        for key in poly:
            for i, d in enumerate(key):
                if d and i not in _CELL_VARS:
                    raise ValueError(
                        f"{self.name}: a formula mentions {VARIABLES[i]}; "
                        "coincidence formulas are in n, m, r only"
                    )
        return tuple(
            (c, key[_N], key[_M], key[_R]) for key, c in poly.items()
        )

    def _cell_values(self, n, m, r):
        """The sums of the ``_cell_forms`` rows at (n, m, r), all over one scale.

        One list of homogenized powers per variable, up to its degree in
        the entry (``exact._homogenized_powers``), serves every row; at
        integer (n, m, r) the lists are [1, x, x**2, ...], the scale is 1
        and the sums are the rows' integer values.
        """
        (dn, dm, dr), rows = self._cell_forms
        pn = _homogenized_powers(n.numerator, n.denominator, dn)
        pm = _homogenized_powers(m.numerator, m.denominator, dm)
        pr = _homogenized_powers(r.numerator, r.denominator, dr)
        return [sum([c * pn[a] * pm[b] * pr[e] for c, a, b, e in row]) for row in rows]

    def _fired_exclusion(self, r, values) -> Optional[str]:
        """The first exclusion r != E(n, m) that fails, read off ``_cell_values``."""
        for j, text in enumerate(self._exclusion_texts, 2):
            num, den = values[2 * j], values[2 * j + 1]
            if not den:
                raise PoleError("denominator vanishes at the given point")
            if r * den == num:
                return text
        return None

    @cached_property
    def _exclusion_texts(self) -> Tuple[str, ...]:
        """The reason text "r != E" of each exclusion E, printed once per entry."""
        return tuple(f"r != {expr.to_text()}" for expr in self.exclusions)


@cache
def all_entries() -> Tuple[CoincidenceEntry, ...]:
    """All forty-eight coincidence entries, in table order.

    Built on the first call and memoized, so ``import hookw`` does no
    exact arithmetic for the table.  Each row is evaluated as printed on
    uncanonicalized quotients of int dicts (``exact._Cleared``), and each
    printed formula, psi, s and every exclusion, is canonicalized once.
    """
    n = _Cleared.var("n")
    m = _Cleared.var("m")
    r = _Cleared.var("r")
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
    return tuple(
        CoincidenceEntry(source, target, item, psi.canonical(), s.canonical(),
                         tuple(e.canonical() for e in excl))
        for source, target, item, psi, s, excl in rows
    )


@cache
def _entry_index() -> Dict[str, CoincidenceEntry]:
    """The coincidence entries by name, built on first use."""
    return {e.name: e for e in all_entries()}


def coincidence_table(source: str, target: str) -> Tuple[CoincidenceEntry, ...]:
    """The catalogued entries for one (source family, target kind) pair."""
    if source not in SOURCE_TAGS or target not in TARGET_KINDS:
        raise ValueError(
            f"no coincidence table for ({source!r}, {target!r}); sources are "
            f"{'/'.join(SOURCE_TAGS)} and targets {'/'.join(TARGET_KINDS)}"
        )
    return tuple(e for e in all_entries() if e.source == source and e.target == target)


# ---------------------------------------------------------------------------
# Pointwise and symbolic verification.
# ---------------------------------------------------------------------------


class CoincidenceOutcome(Record):
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

    The checks are those of the integer cell kernel ``_cell_check``; this
    wrapper validates the arguments and turns the kernel's int pairs and
    sums into the outcome's Fractions.
    """
    n = _int(n, "n")
    m = _int(m, "m")
    r = _int(r, "r")
    if n < 0 or m < 0:
        raise ValueError("n and m must be non-negative")
    if rank_error := _rank_error(entry.target, r):
        raise ValueError(rank_error)
    status, reason, psi1, psi2, sums = _cell_check(entry, n, m, r)
    if psi1 is not None:
        psi1, psi2 = Fraction(*psi1), Fraction(*psi2)
    if sums is None:
        return CoincidenceOutcome(entry, n, m, r, status, reason, psi1, psi2)
    sv, tv = ((Fraction(cn, cd), Fraction(ln, ld)) for cn, cd, ln, ld in sums)
    c = sv[0]
    return CoincidenceOutcome(
        entry,
        n,
        m,
        r,
        status,
        reason,
        psi1,
        psi2,
        source_values=sv,
        target_values=tv,
        degenerate=(c.numerator, c.denominator) in _DEGENERATE_SET,
    )


def _cell_check(entry: CoincidenceEntry, n: int, m: int, r: int):
    """(status, reason, psi1, psi2, sums) of one cell, over the integers.

    The one cell kernel: ``verify_coincidence`` wraps it, and the CLI's
    coincidence sweep calls it directly.  n, m, r are ints with n, m >= 0
    and r at least the target's ``min_r``; the checks, their order and the
    reasons are those documented on ``verify_coincidence``.

    The entry's integer term rows (``CoincidenceEntry._cell_forms``) are
    summed at (n, m, r).  psi1 and psi2 are the two psi values as the int
    pairs their rows sum to, not reduced; both are None when a displayed
    formula has a pole.  Each curve's cleared lists are summed at its psi
    off its one build, denominators first, or None off the curve's domain
    (``curves._sums_on_domain``).  sums is None unless both curves were
    summed.  The cell passes when c and lambda agree by
    cross-multiplication (``curves._same_point``); no gcd runs and no
    Fraction is built.
    """
    values = entry._cell_values(n, m, r)
    fired = entry._fired_exclusion(r, values)
    if fired is not None:
        return "skipped", f"exclusion {fired} fires", None, None, None
    psi_num, psi_den, t_num, t_den = values[:4]
    if not psi_den:
        return "skipped", "the displayed psi formula has a pole here", None, None, None
    if not t_den:
        return "skipped", "the displayed s formula has a pole here", None, None, None
    psi1, psi2 = (psi_num, psi_den), (t_num, t_den)
    tag = TARGETS[entry.target].tag
    # Every m_expr has integer coefficients, so m_t is an integer here.
    m_t = _rank_data(entry.target, r)[0].numerator
    src = _sums_on_domain(entry.source, n, m, psi1)
    if src is None:
        return "skipped", "source curve formulas are undefined at psi", psi1, psi2, None
    tgt = _sums_on_domain(tag, 0, m_t, psi2)
    if tgt is None:
        reason = "target curve formulas are undefined at the target psi"
        return "skipped", reason, psi1, psi2, None
    if _same_point(src, tgt):
        return "pass", None, psi1, psi2, (src, tgt)
    return "fail", "exact (c, lambda) values differ", psi1, psi2, (src, tgt)


def verify_coincidence_symbolic(entry: CoincidenceEntry) -> bool:
    """Check one entry as a trivariate identity in (n, m, r).

    The entry holds when a map of the S3 orbit of F takes the source's
    point at psi to the target's at s + shift(r) (``curves._orbit_maps``).
    Both points and both psi are uncanonicalized quotients
    (``exact._Cleared``), so no gcd runs.
    """
    rule = TARGETS[entry.target]
    source = _point(entry.source, RatFunc.var("n"), RatFunc.var("m"))
    target = _point(rule.tag, 0, rule.m_expr)
    return bool(_orbit_maps(source, target, (entry.psi, _Cleared._of(entry.s) + rule.shift)))


# ---------------------------------------------------------------------------
# The osp-osp diagonal coincidences.
# ---------------------------------------------------------------------------


def osp_osp_charge(m, n) -> Fraction:
    """The displayed common central charge of the osp-osp coincidences."""
    m = _coerce_fraction(m)
    n = _coerce_fraction(n)
    if m + n == 0:
        raise ValueError("m + n must be positive")
    return -((1 + 2 * m) * (1 + 2 * n) * (2 * m * n - m - n)) / (2 * (m + n))


def _osp_osp_psis(m: Fraction, n: Fraction) -> Tuple[Fraction, Fraction]:
    return ((m + n) / (2 * m), m / (2 * (m + n)))


class OspOspPair(Record):
    """One displayed (k, l) level pair, with the curve values compared."""

    k: Fraction
    ell: Fraction
    psi_k: Fraction
    psi_ell: Fraction
    c: Fraction
    lam_left: Fraction
    lam_right: Fraction
    passed: bool


class OspOspReport(Record):
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
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    c_display = osp_osp_charge(m, n)
    left = phi_family("2B", 0, m)
    right = phi_family("2B", 0, n)
    half = Fraction(1, 2)
    pairs = []
    for psi_k in _osp_osp_psis(Fraction(m), Fraction(n)):
        for psi_ell in _osp_osp_psis(Fraction(n), Fraction(m)):
            (c1, l1), (c2, l2) = left.values(psi_k), right.values(psi_ell)
            pairs.append(OspOspPair(psi_k - m - half, psi_ell - n - half, psi_k, psi_ell,
                                    c1, l1, l2, c1 == c_display == c2 and l1 == l2))
    degenerate = (c_display.numerator, c_display.denominator) in _DEGENERATE_SET
    return OspOspReport(m, n, c_display, degenerate, tuple(pairs))


# ---------------------------------------------------------------------------
# Rationality witnesses.
# ---------------------------------------------------------------------------


class RationalityWitness(Record):
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
        psi=_coerce_fraction(psi),
        theorem=tag,
        conditions=tuple(conditions),
        partner_algebra=None if alg is None else str(alg),
        partner_s=None if s is None else _coerce_fraction(s),
        status=status,
        aux=tuple(sorted(aux.items())),
    )


def _gcd_one(a: int, b: int) -> Optional[Tuple[str, ...]]:
    """The printed condition gcd(a, b) = 1, or None when it fails."""
    return (f"gcd({a},{b})=1",) if _coprime(a, b) else None


# Every witness shape with a W-algebra partner, except osp-affine and
# osp12-pair, is one coincidence entry at the family's fixed parameters:
# (theorem, entry name, the printed conditions at (n, m, r), or None where
# they fail).  psi and the partner level s are the entry's, and the partner
# is its target algebra at rank r.  The "1D r=1" shapes hold at r = 1 only.
_SHAPES = {
    "2B": (
        ("osp-principal-1", "2B-sp(6)", lambda n, m, r: _gcd_one(m + r, 1 + 2 * r)),
        ("osp-principal-2", "2B-sp(2)", lambda n, m, r: _gcd_one(r, 1 + 2 * m)),
        ("osp-so-dual", "2B-so_even(3)", lambda n, m, r: _gcd_one(2 * r - 1, 2 * m)),
    ),
    "1D": (
        ("subregB-1", "1D-sp(3)", lambda n, m, r: _gcd_one(m + 1, 2 * r + 1)),
        ("subregB-3", "1D-so_even(1)", lambda n, m, r: _gcd_one(r, 2 * m + 1)),
    ),
    "1D r=1": (
        ("subregB-osp1", "1D-osp(1)", lambda n, m, r: ()),
        ("subregB-osp1-dual", "1D-osp(3)",
         lambda n, m, r: (f"{4 * m - 4}>=1",) if m >= 2 else None),
    ),
    "2C": (("minC", "2C-sp(3)", lambda n, m, r: ()),),
}

# The 2D(1, m + 1) witnesses are the 1D(1, m) ones under psi -> 1/(2 psi),
# with the same partner algebras and levels; these two shapes are renamed.
_SUBREG_DUAL = {"subregB-1": "subregB-2", "subregB-3": "subregB-4"}


def _entry_at(name: str, n: int, m: int, r: int):
    """(entry, psi, s) of the named entry at integers (n, m, r).

    psi and the target psi s + shift(r) are summed from the entry's integer
    term rows (``CoincidenceEntry._cell_values``).  psi is its (numerator,
    denominator) int pair, so only a caller that reads psi builds its
    Fraction; s is one Fraction, formed in ints from the target psi and the
    shift p/q.  The partner algebra is the caller's to build
    (``_partner``), once per witness or once per chain.
    """
    e = _entry_index()[name]
    psi_num, psi_den, t_num, t_den = e._cell_values(n, m, r)[:4]
    shift = _rank_data(e.target, r)[1]
    q = shift.denominator
    s = Fraction(t_num * q - shift.numerator * t_den, t_den * q)
    return e, (psi_num, psi_den), s


def _partner(name: str, r: int) -> str:
    """The text of the named entry's target algebra at rank r."""
    return str(TARGETS[_entry_index()[name].target].algebra(r))


def _from_entries(shapes, n: int, m: int, r: int, /, **aux):
    """The witnesses of ``_SHAPES`` rows at (n, m, r) whose conditions hold."""
    out = []
    for theorem, name, conditions in shapes:
        conds = conditions(n, m, r)
        if conds is not None:
            e, psi, s = _entry_at(name, n, m, r)
            out.append(_w(e.source, n, m, Fraction(*psi), theorem, conds,
                          _partner(name, r), s, **aux))
    return out


def _points_2B(m: int, r_bound: int, pq_bound: int, conjectural: bool):
    out = []
    for r in range(1, r_bound + 1):
        out += _from_entries(_SHAPES["2B"], 0, m, r, r=r)
    if m == 1:
        for p in range(2, pq_bound + 1):
            for q in range(1, pq_bound + 1):
                if not _coprime(p, q):
                    continue
                a = Fraction(p, q) - 2
                conds = (f"gcd({p},{q})=1", f"{p}>=2")
                for psi in ((2 + a) / (2 * (4 + a)), (4 + a) / (2 * (2 + a))):
                    out.append(_w(
                        "2B", 0, 1, psi, "osp12-pair", conds, AlgebraDesc.sp(2), a,
                        p=p, q=q,
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


def _points_1D(m: int, r_bound: int, conjectural: bool):
    out = []
    for r in range(1, r_bound + 1):
        out += _from_entries(_SHAPES["1D"], 1, m, r, r=r)
        if conjectural and m >= 2 * r - 1:
            out.append(_w(
                "1D", 1, m, Fraction(2 * (m - r + 1), 1 + 2 * m - 2 * r),
                "conj-subregB", (f"{m}>={2 * r - 1}",), status="conjectural", r=r,
            ))
    return out + _from_entries(_SHAPES["1D r=1"], 1, m, 1)


def _points_2C(n: int, r_bound: int):
    return [w for r in range(1, r_bound + 1)
            for w in _from_entries(_SHAPES["2C"], n, 1, r, r=r)]


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
    r_bound = _int(r_bound, "r_bound")
    pq_bound = _int(pq_bound, "pq_bound")
    if r_bound < 1 or pq_bound < 1:
        raise ValueError("bounds must be at least 1")
    n, m = int(fam.n), int(fam.m)
    tag = fam.tag
    if tag == "2B" and n == 0 and m >= 1:
        points = _points_2B(m, r_bound, pq_bound, include_conjectural)
    elif tag == "1D" and n == 1 and m >= 1:
        points = _points_1D(m, r_bound, include_conjectural)
    elif tag == "2D" and n == 1 and m >= 2:
        points = [
            replace(w, family="2D", m=m, psi=1 / (2 * w.psi),
                    theorem=_SUBREG_DUAL.get(w.theorem, w.theorem))
            for w in _points_1D(m - 1, r_bound, include_conjectural)
        ]
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
    conditions) by a fresh sweep that covers its auxiliary integers: the
    rank r sizes r_bound, and p, q size pq_bound.
    """
    aux = dict(w.aux)
    fresh = rational_points(
        HookFamily.from_tag(w.family, w.n, w.m),
        r_bound=max(4, aux.get("r", 0)),
        pq_bound=max(4, aux.get("p", 0), aux.get("q", 0)),
        include_conjectural=(w.status == "conjectural"),
    )
    return w in fresh


# ---------------------------------------------------------------------------
# Gelfand-Tsetlin factor chains.
# ---------------------------------------------------------------------------


class GTFactor(Record):
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


# D_k(j) is 1D(j, 0) and E_k(j) is 1B(j, 0) at level k, each a coincidence
# entry at rank r = k // 2: so(2r) for even k, osp(1|2r) for odd k.
_GT_ENTRIES = {"D": ("1D-so_even(1)", "1D-osp(1)"), "E": ("1B-so_even(1)", "1B-osp(1)")}


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
        # ell_i is 2C(n - i + 1, 0) at level k, s_i the minimal 2C(n - i, 1) at k - 1/2.
        alg = _partner("2C-sp(1)", k)
        factors = []
        for i in range(1, n + 1):
            ell = _entry_at("2C-sp(1)", n - i + 1, 0, k)[2]
            s = _entry_at("2C-sp(3)", n - i, 1, k)[2]
            factors.append(GTFactor("C", "pair", i, k, alg, False, (ell, s), "gt-C"))
        return tuple(factors)
    if series not in ("B", "D"):
        raise ValueError("series must be one of B, D, C")
    steps = [(kind, j) for j in range(1, n + 1) for kind in "DE"]
    if series == "B":
        steps.pop()  # the B chain ends at D_k(n)
    tag = ("gt-BD-even", "gt-BD-odd")[k % 2]
    # The D and E entries of one parity share their target, so one partner.
    alg = _partner(_GT_ENTRIES["D"][k % 2], k // 2)
    chain = [GTFactor(series, "H", 0, k, None, False, (), None)]
    for kind, j in steps:
        s = _entry_at(_GT_ENTRIES[kind][k % 2], j, 0, k // 2)[2]
        chain.append(GTFactor(series, kind, j, k, alg, True, (s,), tag))
    return tuple(chain)


# ---------------------------------------------------------------------------
# Admissibility and nondegeneracy from Lie data.
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


def is_admissible_nondegenerate(alg, s) -> str:
    """Whether level k = s of so_N or sp_N is admissible and nondegenerate.

    Write k + h^vee = p/q in lowest terms, q > 0, with h the Coxeter
    number, r^vee the lacing number and ^L g the Langlands dual.  The
    level is admissible (Kac-Wakimoto, PNAS 1989) and the principal
    W-algebra at it is nondegenerate (Arakawa, Annals 2015) exactly when

    * gcd(q, r^vee) = 1, p >= h^vee and q >= h; or
    * r^vee divides q, p >= h and q >= r^vee h^vee(^L g).

    At rank one both cases give the sl2 answer for sp(2) and so(3), the
    latter at twice the level.  The answer is "yes" or "no", and
    "unknown" only for sp(0), so(1) and so(2), which have no simple part.
    osp raises ValueError.
    """
    alg = parse_algebra(alg)
    s = _coerce_fraction(s)
    if alg.kind == "osp":
        raise ValueError("the admissibility criterion covers sp and so only")
    if alg.size < (2 if alg.kind == "sp" else 3):
        return "unknown"
    h_dual, h, lacing = dual_coxeter(alg), coxeter_number(alg), lacing_number(alg)
    level = s + h_dual
    p, q = level.numerator, level.denominator
    if gcd(q, lacing) == 1:
        ok = p >= h_dual and q >= h
    else:
        ok = p >= h and q >= lacing * dual_coxeter(langlands_dual(alg))
    return "yes" if ok else "no"
