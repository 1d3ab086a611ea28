"""Truncation curves of the hook-type cosets.

Each coset C^psi(n, m) is, as a one-parameter vertex algebra, a quotient
of the universal even-spin algebra parametrized by (c, lambda).  The
kernel ideal is described by a plane curve: a pair of rational functions
(c(psi), lambda(psi)).  This module holds the explicit parametrization
for the 2B family, derives the other seven families from it by exact
substitutions, verifies the triality identities, and finds rational
intersection points of two curves by resultant elimination.

All arithmetic is exact; the master's polynomials and factors are entered
once, verbatim, its c is ``liedata.closed_form_charge("2B")``, and value
checks in the test suite guard them.

Each family's route to the master curve is one row of ``_ROUTES``, read
once (``_route``): the shifted (n, m) at which 2B is taken and the one
degree-one psi map of the triality group composed with it.
The master depends on (n, m) only through t = n + m(2psi - 1), so the
package holds only F(t, psi), its slice at m = 0 (``_at_m0``), with
6 + 2 terms for c and 20 + 33 for lambda against 19 + 2 and 79 + 213.
F is built once (``_F``) from the printed pieces, each sliced at m = 0
before the lambda products are taken, and never from the three-variable
master.  Every curve, numeric or symbolic, is built from F by one
pipeline (``_composed``) behind one constructor, ``phi_family``: F's
pairs by Horner in t = (alpha + beta psi)/L (``_line``, ``_in_psi``) into
lists in psi, then through the route's map (``exact._int_list_moebius``),
all cleared alike: ints at rational (n, m); at symbolic (n, m) polynomial
``exact._Cleared`` values, read as dicts and canonicalized once.

Data that depends only on (family, n, m) is built once and reused for
every psi; every such memo is a ``functools.cache`` on the function that
builds it, keyed on (tag, n, m), where an int and the equal Fraction
share one entry.  A curve at rational (n, m) has exactly one build and
one memo entry (``_cleared``): the pipeline's cleared integer lists, with
no gcd.  The cell kernel and the generic-domain check read it
(``_sums_on_domain``) by one rule: psi is off the domain where it is the
map's pole or a cleared denominator sums to zero, by the one homogeneous
Horner loop over ints (``exact._int_list_at``).  ``phi_family`` reduces
each pair by its one gcd and wraps the lists in RatFuncs once, and the
curve carries the canonical lists: ``values`` sums them (``_psi_lists``)
by the same loop, and ``intersect`` eliminates on them.

Equal (c, lambda) suffices for a match but is not necessary; checked:
1C(0, 2) and 2C(0, 2), so(5) and sp(4), have equal c and opposite lambda,
as do 1C(0, 1) at psi and 2C(0, 1) at 2psi, so(3) and sp(2), and on
2C(0, 2) c(1/(2psi)) = c(psi) and lambda(1/(2psi)) = -lambda(psi).

Every curve identity is certified by the S3 orbit of F, the six maps of
(t, x) that fix F, each proved once (``_orbit``): each side is read from
its ``_ROUTES`` row as a point (t, x) of F (``_point``), and the identity
holds when a map takes the left point to the right one (``_orbit_maps``).
Symbolic points and conditions are uncanonicalized quotients
(``exact._Cleared``), each decided by a zero numerator, with no gcd.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property, reduce
from math import lcm
from typing import Optional, Tuple

from ._record import Record
from .exact import (
    MultiPoly,
    PoleError,
    RatFunc,
    UniPoly,
    ZeroDenominatorError,
    parse_ratfunc,
    rational_roots,
)
from .exact import (
    _DICTS,
    _LISTS,
    _VAR_INDEX,
    _Cleared,
    _coerce_fraction,
    _dcompose,
    _dense_divexact,
    _dense_gcd,
    _dense_trim,
    _dmul,
    _dneg,
    _dscale,
    _dsub,
    _dict_to_int_list,
    _int_list_at,
    _int_list_deflate,
    _int_list_gcd,
    _int_list_moebius,
    _int_list_quotient,
    _int_list_sub,
    _int_list_to_dict,
    _resultant_int,
)
from .liedata import HookFamily, closed_form_charge

__all__ = [
    "TruncationCurve",
    "CurvePoint",
    "IdentityCheck",
    "Intersection",
    "IntersectionReport",
    "phi_family",
    "phi",
    "verify_trialities",
    "known_point_2B_sp",
    "intersect",
    "curve_json",
    "intersection_json",
    "compose_cleared",
    "on_generic_domain",
    "DEGENERATE_CHARGES",
]

# Central charges at which the even-spin algebra degenerates; coincidences
# there need not come from curve intersections.
DEGENERATE_CHARGES = (
    Fraction(0),
    Fraction(1),
    Fraction(-24),
    Fraction(-22, 5),
    Fraction(1, 2),
)
# The same charges as reduced (numerator, denominator) int pairs, so a
# membership test hashes a tuple of ints rather than a Fraction.
_DEGENERATE_SET = frozenset((c.numerator, c.denominator) for c in DEGENERATE_CHARGES)


class TruncationCurve(Record):
    """A truncation curve: central charge and lambda as functions of psi.

    Both components are canonical rational functions of psi; any of n, m,
    r may remain as residual symbols.  ``source`` records the derivation
    route ("2B" for the master curve, "1B<-1O<-2B" for a derived one).

    ``lam`` is None on the isolated parameter slices where the coset is a
    free-field orbifold: the central charge is constant there and the
    lambda denominator vanishes identically, so the curve collapses to a
    point with no finite weight-four datum.
    """

    c: RatFunc
    lam: Optional[RatFunc]
    source: str
    symbols: Tuple[str, ...]

    def values(self, psi) -> Tuple[Fraction, Fraction]:
        """(c, lambda) at a rational psi on a fully numeric curve.

        The quotients of the four sums of ``_psi_lists`` at psi = p/q
        (``_sums_at``) in lowest terms.  Raises ValueError on a curve with
        residual symbols, and PoleError where either denominator vanishes
        and everywhere when ``lam`` is None.
        """
        if self.symbols:
            raise ValueError(f"curve has residual symbols {self.symbols}")
        if self.lam is None:
            raise PoleError("lambda has no finite value on this slice")
        x = psi if isinstance(psi, (int, Fraction)) else _coerce_fraction(psi)
        sums = _sums_at(*self._psi_lists, x.numerator, x.denominator)
        if sums is None:
            raise PoleError("denominator vanishes at the given point")
        cn, cd, ln, ld = sums
        return Fraction(cn, cd), Fraction(ln, ld)

    @cached_property
    def _psi_lists(self):
        """(D, lists): c.num, c.den, lam.num, lam.den as integer lists in psi.

        A numeric curve from ``phi_family`` carries its build's; any other
        reads them once off its RatFuncs' dicts.  D is the largest degree.
        """
        polys = (self.c.num, self.c.den, self.lam.num, self.lam.den)
        lists = [_dict_to_int_list(p._d, _PSI) for p in polys]
        return max(len(cs) for cs in lists) - 1, lists


class CurvePoint(Record):
    """A point (c, lambda), possibly with residual symbols."""

    c: RatFunc
    lam: RatFunc


class IdentityCheck(Record):
    """Outcome of one curve identity: name, verdict, offending difference."""

    name: str
    holds: bool
    c_difference: Optional[RatFunc]
    lambda_difference: Optional[RatFunc]


class Intersection(Record):
    """One rational intersection point of two curves."""

    psi1: Fraction
    psi2: Fraction
    c: Fraction
    lam: Fraction
    degenerate: bool


class IntersectionReport(Record):
    """All rational intersections, plus what could not be enumerated.

    ``identity_component``: the two curves share a whole component (a
    one-parameter family of intersections), which is reported as a flag
    rather than as points.  ``residual_degree``: degree of the eliminant
    factor without rational roots; its roots, if any, are irrational.
    """

    points: Tuple[Intersection, ...]
    identity_component: bool
    residual_degree: int


# ---------------------------------------------------------------------------
# The 2B master curve.  The three polynomials below are transcribed term by
# term from the explicit parametrization; tests pin spot values of each.
# ---------------------------------------------------------------------------

_F_2B = """
-19*m + 80*m^3 - 16*m^5 + 19*n - 240*m^2*n + 80*m^4*n + 240*m*n^2
- 160*m^3*n^2 - 80*n^3
+ 160*m^2*n^3 - 80*m*n^4 + 16*n^5 + 49*psi
+ 114*m*psi - 364*m^2*psi - 640*m^3*psi + 160*m^5*psi - 76*n*psi
+ 728*m*n*psi + 1440*m^2*n*psi - 640*m^4*n*psi - 364*n^2*psi
- 960*m*n^2*psi + 960*m^3*n^2*psi + 160*n^3*psi
- 640*m^2*n^3*psi + 160*m*n^4*psi - 196*psi^2 - 380*m*psi^2
+ 2184*m^2*psi^2 + 2240*m^3*psi^2 - 640*m^5*psi^2
+ 228*n*psi^2 - 2912*m*n*psi^2 - 3840*m^2*n*psi^2 + 1920*m^4*n*psi^2
+ 728*n^2*psi^2 + 1920*m*n^2*psi^2
- 1920*m^3*n^2*psi^2 - 320*n^3*psi^2 + 640*m^2*n^3*psi^2
+ 392*psi^3 + 760*m*psi^3 - 4368*m^2*psi^3 - 4480*m^3*psi^3
+ 1280*m^5*psi^3 - 304*n*psi^3 + 2912*m*n*psi^3 + 5760*m^2*n*psi^3
- 2560*m^4*n*psi^3 - 1920*m*n^2*psi^3
+ 1280*m^3*n^2*psi^3 - 392*psi^4 - 912*m*psi^4 + 2912*m^2*psi^4
+ 5120*m^3*psi^4 - 1280*m^5*psi^4 + 304*n*psi^4
- 3840*m^2*n*psi^4 + 1280*m^4*n*psi^4 + 608*m*psi^5
- 2560*m^3*psi^5 + 512*m^5*psi^5
"""

_G_2B = """
-7 + 4*m^2 - 8*m*n + 4*n^2 + 14*psi - 16*m^2*psi + 16*m*n*psi
- 28*psi^2 + 16*m^2*psi^2
"""

_H_2B = """
5*m - 20*m^3 - 5*n + 60*m^2*n - 60*m*n^2 + 20*n^3 + 49*psi - 20*m*psi
+ 120*m^3*psi + 10*n*psi
- 240*m^2*n*psi + 120*m*n^2*psi - 98*psi^2 + 40*m*psi^2
- 240*m^3*psi^2 - 20*n*psi^2 + 240*m^2*n*psi^2 - 40*m*psi^3
+ 160*m^3*psi^3
"""


@cache
def _master_domain_factors() -> Tuple[MultiPoly, ...]:
    """Every printed denominator factor of the master curve, in psi, n, m."""
    psi, n, m = (RatFunc.var(v) for v in ("psi", "n", "m"))
    factors = (
        2 * psi,
        2 * psi - 1,
        -m + n + psi + 2 * m * psi,
        -1 - 2 * m + 2 * n + 4 * m * psi,
        1 - 2 * m + 2 * n - 2 * psi + 4 * m * psi,
        parse_ratfunc(_G_2B),
        parse_ratfunc(_H_2B),
    )
    return tuple(f.num for f in factors)


_HALF = Fraction(1, 2)
_PSI = _VAR_INDEX["psi"]
_PSI2 = _VAR_INDEX["psi2"]
_N = _VAR_INDEX["n"]
_M = _VAR_INDEX["m"]


def _at_m0(p: MultiPoly) -> dict:
    """p's m-free terms: for a printed master polynomial, P(t, 0, psi).

    Each is a polynomial in t = n + m(2psi - 1) and psi, so P(n, m, psi)
    is this dict with n -> t.
    """
    return {k: c for k, c in p._d.items() if not k[_M]}


@cache
def _F():
    """F, the master at m = 0: (num, den) of c and of lambda, sliced by t.

    Each is [S_0, ..., S_d], S_e the integer list in psi of t**e, from a
    dict in n, for t, and psi.  c is the closed-form 2B charge.  lambda is
    -(2psi)(2psi - 1) F_2B over 7 times the other five domain factors.
    Slicing at m = 0 is a ring homomorphism, so lambda's products are taken
    of the printed factors' slices, with no gcd: none cancels, and the pair
    equals the slice of the canonical master.
    """
    c = closed_form_charge("2B", RatFunc.var("n"), RatFunc.var("m"))
    two_psi, two_psi_less_one, *den = [_at_m0(f) for f in _master_domain_factors()]
    lam_num = reduce(_dmul, (two_psi, two_psi_less_one, _at_m0(parse_ratfunc(_F_2B).num)))
    lam_den = _dscale(reduce(_dmul, den), 7)
    pairs = (_at_m0(c.num), _at_m0(c.den)), (_dneg(lam_num), lam_den)
    return tuple(tuple(_LISTS[_PSI].dense(p, _N) for p in pair) for pair in pairs)


def _line(n, m):
    """(alpha, beta, L): t = n + m(2psi - 1) is (alpha + beta psi)/L.

    Ints; or, for symbolic n or m, polynomial ``_Cleared`` values with the
    denominators of n and m cleared into L, by no gcd.
    """
    if isinstance(n, _Cleared) or isinstance(m, _Cleared):
        (p, u), (q, v) = ((x.num, x.den) for x in map(_Cleared._of, (n, m)))
        if u != v:
            p, q, u = _dmul(p, v), _dmul(q, u), _dmul(u, v)
        return _Cleared(_dsub(p, q)), _Cleared(_dscale(q, 2)), _Cleared(u)
    a, b = n - m, 2 * m
    scale = lcm(a.denominator, b.denominator)
    return a.numerator * (scale // a.denominator), b.numerator * (scale // b.denominator), scale


def _in_psi(polys, t):
    """Polynomials sliced by t at t = (alpha + beta psi)/L, as lists in psi.

    By Horner in t, slice e entering times L**(D - e), so each list is
    L**D times its polynomial, D the top degree of polys: ints, or
    ``_Cleared`` values at a symbolic t.  A polynomial that vanishes gives [].
    """
    alpha, beta, scale = t
    top = max(map(len, polys)) - 1
    out = []
    for slices in polys:
        acc, power = [], 1
        for e in range(top, -1, -1):
            acc = [alpha * x + beta * y for x, y in zip(acc + [0], [0] + acc)] if acc else []
            cs = slices[e] if e < len(slices) else []
            acc += [0] * (len(cs) - len(acc))
            for i, c in enumerate(cs):
                acc[i] += c * power
            power *= scale
        out.append(_dense_trim(acc))
    return out


# The route of each family to the master curve: tag(n, m) is
# 2B(n + dn, m + dm [+ n]) composed with psi -> (a psi + b)/(c psi + d).
# A row is (dn, dm, whether m gains +n, (a, b, c, d) or None for the
# identity, source label).  The maps are the triality substitutions; for
# 1B, 1D and 2C the label names the two-step route they compose.
_ROUTES = {
    "1B": (Fraction(0), _HALF, True, (0, 1, 2, 0), "1B<-1O<-2B"),
    "1C": (_HALF, _HALF, False, (1, 0, 0, 2), "1C<-2B"),
    "1D": (-_HALF, Fraction(0), True, (0, 1, 2, 0), "1D<-2D<-2B"),
    "1O": (Fraction(0), _HALF, False, (1, 0, 0, 2), "1O<-2B"),
    "2B": (Fraction(0), Fraction(0), False, None, "2B"),
    "2C": (_HALF, _HALF, True, (0, 1, 4, 0), "2C<-1C<-2B"),
    "2D": (-_HALF, Fraction(0), False, None, "2D<-2B"),
    "2O": (Fraction(0), Fraction(0), True, (0, 1, 4, 0), "2O<-2B"),
}


def _route(tag: str, n, m):
    """((n', m'), w): the master's (n, m) on family tag's route and its psi
    map, (a, b, c, d) or None.  A symbolic n or m is read as its
    ``_Cleared`` quotient, never canonicalized, and may not mention psi.
    """
    if any(isinstance(x, RatFunc) and "psi" in x.variables() for x in (n, m)):
        raise ValueError("symbolic n and m may not mention psi")
    dn, dm, m_gains_n, w, _ = _ROUTES[tag]
    n, m = (_Cleared._of(x) if isinstance(x, RatFunc) else x for x in (n, m))
    return (n + dn, m + dm + n if m_gains_n else m + dm), w


def _composed(inner, w):
    """F's pairs at t on the line of a ``_route``'s (n', m'), then through
    w, as lists in psi: ints, or polynomial ``_Cleared`` values if symbolic."""
    t = _line(*inner)
    for pair in _F():
        lists = _in_psi(pair, t)
        yield lists if w is None else _int_list_moebius(lists, w)


class _Build:
    """The ``_cleared`` entry of a numeric curve: its cleared lists, as
    (D, lists) like ``TruncationCurve._psi_lists``, the pole of the route's
    map as a reduced (p, q) or None, and the curve, made on first use."""

    __slots__ = ("psi_lists", "pole", "_curve")

    def __init__(self, psi_lists, pole):
        self.psi_lists, self.pole = psi_lists, pole
        self._curve = None

    def curve(self, source: str) -> TruncationCurve:
        """The lists, each pair in canonical form (``_int_list_quotient``),
        as a curve that carries them; lambda None if lam.den is []."""
        if self._curve is None:
            lists = self.psi_lists[1]
            (cn, cd), (ln, ld) = (
                _int_list_quotient(num, den) if den else (num, den)
                for num, den in (lists[:2], lists[2:])
            )
            lam = RatFunc._from_int_lists(ln, ld, _PSI) if ld else None
            self._curve = TruncationCurve(RatFunc._from_int_lists(cn, cd, _PSI), lam, source, ())
            canonical = (cn, cd, ln, ld)
            object.__setattr__(self._curve, "_psi_lists", (max(map(len, canonical)) - 1, canonical))
        return self._curve


@cache
def _cleared(tag: str, n, m) -> _Build:
    """The one build and the one memo entry of tag(n, m) at rational (n, m).

    The one pipeline's integer lists (``_composed``), cleared and not
    reduced: c.num, c.den, lam.num, lam.den in psi, lam.den [] where it
    vanishes identically.  The entry keeps them and the pole psi = -d/c
    of w; no gcd runs until the curve is made (``_Build.curve``).

    The domain lemma: psi avoids every printed denominator factor of the
    master exactly when it is not the pole and neither cleared denominator
    vanishes there (``_sums_on_domain``).  F's c.den lam.den is 7 times the
    product of the seven printed factors; substituting t = n' + m'(2psi - 1)
    is a ring map, so the product survives it; and the cleared composition
    with w multiplies each list only by a power of (c psi + d), which is
    nonzero off the pole.  So off the pole a printed factor vanishes
    exactly where a cleared denominator does.
    """
    inner, w = _route(tag, n, m)
    lists = tuple(cs for pair in _composed(inner, w) for cs in pair)
    pole = None
    if w and w[2]:
        x = Fraction(-w[3], w[2])
        pole = x.numerator, x.denominator
    return _Build((max(map(len, lists)) - 1, lists), pole)


def _sums_at(top, lists, p, q):
    """The sums of c.num, c.den, lam.num, lam.den at psi = p/q, or None at a pole.

    Each list is summed over one scale, q**top, by ``exact._int_list_at``,
    so q may be any nonzero int; the denominators first, None if one is 0.
    """
    cn, cd, ln, ld = lists
    c_den = _int_list_at(cd, p, q, top)
    lam_den = c_den and _int_list_at(ld, p, q, top)
    if not lam_den:
        return None
    return _int_list_at(cn, p, q, top), c_den, _int_list_at(ln, p, q, top), lam_den


def _sums_on_domain(tag: str, n, m, psi):
    """``_sums_at`` on tag(n, m)'s cleared lists at psi, a reduced (p, q);
    None off the domain: at the map's pole or a zero cleared denominator."""
    build = _cleared(tag, n, m)
    return None if psi == build.pole else _sums_at(*build.psi_lists, *psi)


def on_generic_domain(fam_or_tag, n, m, psi) -> bool:
    """Whether (n, m, psi) avoids every printed denominator of the curve.

    The c and lambda formulas are quotients of polynomials; specializing a
    symbolic identity to a point is legitimate only where neither side's
    denominator vanishes.  On the excluded loci the curve is defined as a
    limit and individual printed values carry no content.  By the domain
    lemma (``_cleared``) psi is off the domain exactly where it is the
    route map's pole or a cleared denominator of the curve's one build sums
    to zero (``_sums_on_domain``); no gcd or root search runs.
    """
    tag = getattr(fam_or_tag, "tag", fam_or_tag)
    if tag not in _ROUTES:
        raise ValueError("unknown family tag %r" % (tag,))
    x = psi if isinstance(psi, (int, Fraction)) else _coerce_fraction(psi)
    at = (x.numerator, x.denominator)
    return _sums_on_domain(tag, _exact_key(n), _exact_key(m), at) is not None


def _exact_key(value):
    """An exact scalar as a memo key: an int as itself, else its Fraction.

    An int and the equal Fraction hash and compare alike, so keys of
    either type share one cache entry; an int key skips building and
    hashing a Fraction.
    """
    return value if type(value) is int else _coerce_fraction(value)


def _coerce_param(value):
    if isinstance(value, RatFunc):
        return value
    return _coerce_fraction(value)


def phi_family(tag: str, n, m) -> TruncationCurve:
    """Truncation curve of any of the eight families, one fixed route each.

    Every curve is built here, by one pipeline (``_composed``): F at
    t = n' + m'(2psi - 1), psi through the route's map, with (n', m') and
    the map from the family's row of ``_ROUTES``: 1O, 2D, 1C are
    half-integer shifts of the master, and 1B, 1D, 2C, 2O also invert psi.
    n and m may be any rationals, the curve held by the one memo entry
    (``_cleared``, ``_Build.curve``); or symbolic, the lists read as dicts
    and canonicalized once.  Where the lambda denominator vanishes
    identically (the free-field orbifold cosets) lambda is None.
    """
    if tag not in _ROUTES:
        raise ValueError(f"unknown family {tag!r}")
    n, m = _coerce_param(n), _coerce_param(m)
    label = _ROUTES[tag][4]
    if not (isinstance(n, RatFunc) or isinstance(m, RatFunc)):
        return _cleared(tag, n, m).curve(label)
    pairs = _composed(*_route(tag, n, m))
    dicts = ([_DICTS.undense([_Cleared._of(v).num for v in cs], _PSI) for cs in p] for p in pairs)
    c, lam = (RatFunc._from_dicts(num, den) if den else None for num, den in dicts)
    names = c.variables() | (set() if lam is None else lam.variables())
    return TruncationCurve(c, lam, label, tuple(sorted(names - {"psi"})))


def phi(fam: HookFamily) -> TruncationCurve:
    """Truncation curve of a hook family at its (integer) parameters."""
    return phi_family(fam.tag, fam.n, fam.m)


# ---------------------------------------------------------------------------
# The S3 orbit of F and the triality identities.
# ---------------------------------------------------------------------------

# The six maps of (t, x) that fix F, the anharmonic group S3 on y = 2x: a row
# (k, (a, b, c, d)) is (t, x) -> (k t/(c x + d), (a x + b)/(c x + d)).
_S3 = (
    (1, (1, 0, 0, 1)),  # (t, x)
    (2, (-2, 1, 0, 2)),  # (t, 1/2 - x)
    (1, (1, 0, 2, -1)),  # (t/(2x - 1), x/(2x - 1))
    (-2, (0, 1, -4, 2)),  # (t/(2x - 1), -1/(2(2x - 1)))
    (-2, (0, 1, 4, 0)),  # (-t/(2x), 1/(4x))
    (-2, (2, -1, 4, 0)),  # (-t/(2x), (2x - 1)/(4x))
)


@cache
def _orbit():
    """The maps of ``_S3`` that fix F, each proved once, on first use.

    F is the master at m = 0, n standing for t.  g is kept when F o g, one
    ``_dcompose``, equals F as a quotient (``_Cleared``); a map that fails
    certifies nothing.
    """
    pairs = [[_LISTS[_PSI].undense(slices, _N) for slices in pair] for pair in _F()]
    kept = []
    for k, (a, b, c, d) in _S3:
        z = _int_list_to_dict([d, c], _PSI)
        subs = [(_N, _int_list_to_dict([0, k], _N), z), (_PSI, _int_list_to_dict([b, a], _PSI), z)]
        if all(_Cleared(*_dcompose(*pair, subs)) == _Cleared(*pair) for pair in pairs):
            kept.append((k, (a, b, c, d)))
    return tuple(kept)


def _product(x, y):
    """The 2x2 product x y of matrices (a, b, c, d)."""
    a, b, c, d = x
    e, f, g, h = y
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _point(tag: str, n, m, w=(1, 0, 0, 1)):
    """tag(n, m) o w as a point of F, linear in psi: (T, (a, b, c, d)).

    x = (a psi + b)/(c psi + d) is the route's map after w, and t at the
    route's (n', m') is n' + m'(2x - 1) = (T1 psi + T0)/(c psi + d), T = (T1, T0).
    A symbolic n or m is read as its ``_Cleared`` quotient, so T is never
    canonicalized.
    """
    (n, m), route = _route(tag, n, m)
    a, b, c, d = _product(route or (1, 0, 0, 1), w)
    return (n * c + m * (2 * a - c), n * d + m * (2 * b - d)), (a, b, c, d)


def _orbit_maps(left, right, at=None):
    """The maps of ``_orbit`` that take the point left to the point right.

    Points of ``_point`` are read at one free psi, or at psi = p on the
    left and q on the right when at = (p, q).  With N = adj(M_right) G
    M_left, g = (k, G) fits when (q, 1) is proportional to N (p, 1) and
    (det(M_right) k T_left - T_right N) (p, 1) == 0; at a free psi, when N
    is a multiple of the identity and that row is zero.

    Symbolic p and q are read as ``_Cleared`` quotients, like the points'
    T.  Each condition is then one uncanonicalized quotient, built by ring
    operations from T, p, q and integers, whose denominator is a product
    of the denominators of n, m, p and q: nonzero polynomials, so it is
    nonzero.  The condition holds exactly when its cross-multiplied
    numerator is the zero dict (``_Cleared.__eq__``), and no gcd runs.
    """
    (tl, ml), (tr, (a, b, c, d)) = left, right
    p, q = map(_Cleared._of, at) if at else (None, None)
    found = []
    for k, G in _orbit():
        n11, n12, n21, n22 = _product((d, -b, -c, a), _product(G, ml))
        # The x-part first: at one free psi it needs integer work alone.
        scalar = n12 == n21 == 0 and n11 == n22
        if not (scalar if at is None else q * (n21 * p + n22) == n11 * p + n12):
            continue
        d1 = (a * d - b * c) * k * tl[0] - (tr[0] * n11 + tr[1] * n21)
        d0 = (a * d - b * c) * k * tl[1] - (tr[0] * n12 + tr[1] * n22)
        if d1 == d0 == 0 if at is None else d1 * p + d0 == 0:
            found.append((k, G))
    return tuple(found)


@cache
def _lambda_less(tag: str, n, m) -> bool:
    """Whether F's lambda denominator vanishes on tag(n, m)'s line t = n' + m'(2psi - 1)."""
    return not _in_psi((_F()[1][1],), _line(*_route(tag, n, m)[0]))[0]


# The eight triality identities: name, left family, right family, its (n, m), psi map.
_TRIALITIES = (
    ("2B(n,m) = 2O(n,m-n) o 1/(4psi)", "2B", "2O", lambda n, m: (n, m - n), (0, 1, 4, 0)),
    ("2B(n,m) = 2B(m,n) o psi/(2psi-1)", "2B", "2B", lambda n, m: (m, n), (1, 0, 2, -1)),
    ("1C(n,m) = 2C(n,m-n) o 1/(2psi)", "1C", "2C", lambda n, m: (n, m - n), (0, 1, 2, 0)),
    ("1C(n,m) = 1C(m,n) o psi/(psi-1)", "1C", "1C", lambda n, m: (m, n), (1, 0, 1, -1)),
    ("2D(n,m) = 1D(n,m-n) o 1/(2psi)", "2D", "1D", lambda n, m: (n, m - n), (0, 1, 2, 0)),
    ("2D(n,m) = 1O(m,n-1) o 2psi/(2psi-1)", "2D", "1O", lambda n, m: (m, n - 1), (2, 0, 2, -1)),
    ("1O(n,m) = 1B(n,m-n) o 1/psi", "1O", "1B", lambda n, m: (n, m - n), (0, 1, 1, 0)),
    ("1O(n,m) = 2D(m+1,n) o psi/(2(psi-1))", "1O", "2D", lambda n, m: (m + 1, n), (1, 0, 2, -2)),
)


def verify_trialities(n, m) -> Tuple[IdentityCheck, ...]:
    """Check the eight triality identities at (n, m), numeric or symbolic.

    For numeric parameters the precondition m >= n >= 0, n + m >= 1 is
    enforced.  An identity holds when a map of F's orbit takes its left
    point to its right one (``_orbit_maps``), with no curve built; a
    failing one builds its curves and carries the (c, lambda) differences.
    """
    n, m = _coerce_param(n), _coerce_param(m)
    if not (isinstance(n, RatFunc) or isinstance(m, RatFunc) or m >= n >= 0 and n + m >= 1):
        raise ValueError(f"need m >= n >= 0 and n + m >= 1, got n={n}, m={m}")
    checks = []
    for name, left_tag, right_tag, right_at, w in _TRIALITIES:
        left, right = (left_tag, n, m), (right_tag, *right_at(n, m))
        if _lambda_less(*left) or _lambda_less(*right):
            raise ValueError(f"identity {name!r} involves a curve with no finite lambda")
        diffs = None, None
        if not _orbit_maps(_point(*left), _point(*right, w)):
            psi = RatFunc.var("psi")
            at_w = {"psi": (w[0] * psi + w[1]) / (w[2] * psi + w[3])}
            lhs, rhs = phi_family(*left), phi_family(*right)
            diffs = [x - y.specialize(at_w) for x, y in ((lhs.c, rhs.c), (lhs.lam, rhs.lam))]
        checks.append(IdentityCheck(name, diffs[0] is None, *diffs))
    return tuple(checks)


# ---------------------------------------------------------------------------
# The printed intersection with the type-C principal curve.
# ---------------------------------------------------------------------------

_F_POINT = """
-68*n - 408*m*n - 816*m^2*n - 544*m^3*n + 136*n^2 + 544*m*n^2
+ 544*m^2*n^2 + 96*n^3 + 192*m*n^3
- 49*r - 256*m*r - 360*m^2*r + 64*m^3*r + 304*m^4*r - 212*n*r
- 1000*m*n*r - 1456*m^2*n*r
- 608*m^3*n*r + 92*n^2*r - 1296*m*n^2*r - 2960*m^2*n^2*r + 1824*n^3*r
+ 3264*m*n^3*r - 576*n^4*r - 196*r^2
- 632*m*r^2 - 176*m^2*r^2 + 608*m^3*r^2 - 772*n*r^2 - 3000*m*n*r^2
- 496*m^2*n*r^2 + 4832*m^3*n*r^2
+ 640*n^2*r^2 - 5792*m*n^2*r^2 - 9664*m^2*n^2*r^2 + 4176*n^3*r^2
+ 6432*m*n^3*r^2 - 1600*n^4*r^2 - 392*r^3
- 328*m*r^3 + 2368*m^2*r^3 + 2272*m^3*r^3 - 1280*m^4*r^3 - 1544*n*r^3
- 5824*m*n*r^3 + 928*m^2*n*r^3
+ 3840*m^3*n*r^3 + 2240*n^2*r^3 - 4512*m*n^2*r^3 - 4480*m^2*n^2*r^3
+ 1312*n^3*r^3 + 2560*m*n^3*r^3 - 640*n^4*r^3
- 392*r^4 + 608*m*r^4 + 2912*m^2*r^4 - 1280*m^3*r^4 - 912*n*r^4
- 2784*m*n*r^4 + 1600*m^2*n*r^4
- 640*m^3*n*r^4 - 128*n^2*r^4 + 640*m*n^2*r^4 + 1920*m^2*n^2*r^4
- 960*n^3*r^4 - 1920*m*n^3*r^4 + 640*n^4*r^4
+ 608*m*r^5 - 1216*m^2*r^5 - 128*m^3*r^5 + 256*m^4*r^5 - 608*n*r^5
+ 2432*m*n*r^5 + 384*m^2*n*r^5
- 1024*m^3*n*r^5 - 1216*n^2*r^5 - 384*m*n^2*r^5 + 1536*m^2*n^2*r^5
+ 128*n^3*r^5 - 1024*m*n^3*r^5 + 256*n^4*r^5
"""

_G_POINT = """
-7 - 28*m - 28*m^2 + 14*n + 28*m*n - 24*n^2 - 14*r - 28*m*r - 28*n*r
- 16*m*n*r + 16*n^2*r
- 28*r^2 + 16*m^2*r^2 - 32*m*n*r^2 + 16*n^2*r^2
"""

_H_POINT = """
-44*n - 88*m*n - 49*r - 108*m*r - 20*m^2*r - 78*n*r + 20*m*n*r
+ 40*n^2*r - 98*r^2 - 20*m*r^2
+ 40*n*r^2 - 120*m*n*r^2 + 120*n^2*r^2 - 40*m*r^3 + 80*m^2*r^3
+ 40*n*r^3 - 160*m*n*r^3 + 80*n^2*r^3
"""


@cache
def _printed_point() -> Tuple[RatFunc, RatFunc]:
    n = RatFunc.var("n")
    m = RatFunc.var("m")
    r = RatFunc.var("r")
    c = -(
        r
        * (-1 - 2 * m + 4 * n - 4 * m * r + 4 * n * r)
        * (1 + 2 * m + 2 * n + 2 * r - 4 * m * r + 4 * n * r)
    ) / (2 * (n + r) * (1 + 2 * m + 2 * r))
    f = parse_ratfunc(_F_POINT)
    g = parse_ratfunc(_G_POINT)
    h = parse_ratfunc(_H_POINT)
    lam = -(2 * (n + r) * (1 + 2 * m + 2 * r) * f) / (
        7
        * (1 + 2 * r)
        * (2 * n + r - 2 * m * r + 2 * n * r)
        * (1 + 2 * m - 4 * m * r + 4 * n * r)
        * g
        * h
    )
    return c, lam


def compose_cleared(rf: RatFunc, psi_value: RatFunc) -> Tuple[MultiPoly, MultiPoly]:
    """rf(psi := psi_value) as an uncanonicalized (num, den) polynomial pair.

    Composing and canonicalizing first would force large multivariate gcd
    computations; the cleared pair supports cross-multiplied equality
    checks without them.  The denominator entry is identically zero
    exactly when the composition is a pole.
    """
    num_star, den_star = _dcompose(
        rf.num._d, rf.den._d, [(_PSI, psi_value.num._d, psi_value.den._d)]
    )
    return MultiPoly._raw(num_star), MultiPoly._raw(den_star)


def _composed_equals(rf: RatFunc, psi_value: RatFunc, target: RatFunc) -> bool:
    """Whether rf(psi := psi_value) == target, as uncanonicalized quotients."""
    num_star, den_star = compose_cleared(rf, psi_value)
    if den_star.is_zero():
        raise ValueError("psi value is a pole of the curve")
    return _Cleared(num_star._d, den_star._d) == target


def known_point_2B_sp(n, m, r) -> CurvePoint:
    """The printed intersection of the 2B curve with a type-C principal curve.

    This is coincidence entry 2B-sp(2) with the printed (c, lambda)
    attached: psi* = (1 + 2m - 2n) / (2 (1 + 2m + 2r)) is that entry's psi.
    Returns the printed (c, lambda), after asserting that the 2B curve at
    psi* actually passes through it.
    Arguments may be numeric or symbolic; with all three symbolic the
    assertion is a trivariate identity.  Numeric arguments at which a
    printed denominator of the point vanishes, or at which the 2B curve
    has no finite lambda, raise ZeroDenominatorError.
    """
    n = _coerce_param(n)
    m = _coerce_param(m)
    r = _coerce_param(r)
    c_raw, lam_raw = _printed_point()
    mapping = {"n": n, "m": m, "r": r}
    c_pt = c_raw.specialize(mapping)
    lam_pt = lam_raw.specialize(mapping)
    curve = phi_family("2B", n, m)
    if curve.lam is None:
        raise ZeroDenominatorError("the 2B curve has no finite lambda at these n, m")
    psi_star = (1 + 2 * m - 2 * n) / (2 * (1 + 2 * m + 2 * r))
    if not isinstance(psi_star, RatFunc):
        psi_star = RatFunc.const(psi_star)
    failures = []
    if not _composed_equals(curve.c, psi_star, c_pt):
        failures.append("c")
    if not _composed_equals(curve.lam, psi_star, lam_pt):
        failures.append("lambda")
    if failures:
        raise ValueError(
            "curve does not pass through the printed point: "
            f"mismatch in {', '.join(failures)} at psi* = {psi_star.to_text()}"
        )
    return CurvePoint(c=c_pt, lam=lam_pt)


# ---------------------------------------------------------------------------
# Rational intersection points.
# ---------------------------------------------------------------------------


def _curve_value(curve: TruncationCurve, psi: Fraction):
    """(c, lambda) at psi, or None at a pole of either component."""
    try:
        return curve.values(psi)
    except PoleError:
        return None


def _difference_rows(A, B):
    """Numerators of c(psi1) - c(psi2) and of lambda(psi1) - lambda(psi2).

    A's components in psi1 and B's in psi2, read off both curves' integer
    lists in psi (``_psi_lists``), each dense in psi1 over integer lists
    in psi2: row i of f(psi1) - g(psi2) is f.num[i] g.den - f.den[i] g.num.
    The two denominators live in disjoint variables, so the
    cross-multiplied numerator shares no factor with their product and
    needs no gcd.
    """
    _, a = A._psi_lists
    _, b = B._psi_lists
    out = []
    for fn, fd, gn, gd in ((*a[:2], *b[:2]), (*a[2:], *b[2:])):
        rows = []
        for i in range(max(len(fn), len(fd))):
            x = fn[i] if i < len(fn) else 0
            y = fd[i] if i < len(fd) else 0
            rows.append(_int_list_sub([x * v for v in gd], [y * v for v in gn]))
        out.append(_dense_trim(rows))
    return out


def intersect(A: TruncationCurve, B: TruncationCurve) -> IntersectionReport:
    """All rational points where curve A meets curve B.

    The two copies of psi become psi1 (on A) and psi2 (on B), and each
    difference equation is dense in psi1 over integer lists in psi2
    (``_difference_rows``).  Common components of the two equations are
    split off (``_dense_gcd``, ``_dense_divexact``) and flagged as an
    identity component; the rest is eliminated by a resultant in psi1
    (``_resultant_int``), and each rational root b of the eliminant in
    psi2 is split off it (``_int_list_deflate``).  Both equations are read
    at b by ``_int_list_at``; the rational roots of their gcd are the psi1
    candidates, and every candidate pair is verified by exact evaluation
    on the original curves.  Candidates at poles are discarded.  Points
    with degenerate central charge are flagged, not dropped.

    The gcd is the full one, contents in psi2 included, so after the exact
    division the two residuals are coprime in Z[psi1, psi2]: their
    eliminant is never zero, and at each of its roots b at least one of
    them is nonzero in psi1, since q psi2 - p, for b = p/q, cannot divide both.

    The eliminant is computed on packed integers: each row is read at
    psi2 = 2^k and the integer resultant's signed base-2^k digits are its
    coefficients.  This is exact, because the resultant is a Sylvester
    determinant, which commutes with that evaluation, and k exceeds the
    bit length of its bound on every coefficient (``_resultant_int``).
    """
    for curve in (A, B):
        if curve.symbols:
            raise ValueError(
                f"curve has residual symbols {curve.symbols}; "
                "intersection needs fully numeric curves"
            )
    if A.lam is None or B.lam is None:
        # A curve with no finite lambda meets nothing in the (c, lambda)
        # plane; two such curves coincide iff their constant charges do.
        both = A.lam is None and B.lam is None
        same = both and A.c == B.c
        return IntersectionReport(points=(), identity_component=same, residual_degree=0)
    ec, el = _difference_rows(A, B)

    if not ec or not el:
        # One equation is trivial: the other one's zero locus is a whole
        # family of intersections, not isolated points.
        return IntersectionReport(points=(), identity_component=True, residual_degree=0)

    ring = _LISTS[_PSI2]
    identity = False
    common = _dense_gcd(ec, el, ring, {_PSI2})
    if len(common) > 1 or len(common[0]) > 1:
        identity = True
        ec = _dense_divexact(ec, common, ring)
        el = _dense_divexact(el, common, ring)

    deg_c = len(ec) - 1
    deg_l = len(el) - 1
    if deg_c >= 1 and deg_l >= 1:
        eliminant = _resultant_int(ec, el, ring)
    elif deg_c == 0 and deg_l == 0:
        # Neither residual involves psi1, and two coprime polynomials in
        # psi2 share no root: no point and no vertical line.
        return IntersectionReport(points=(), identity_component=identity, residual_degree=0)
    else:
        eliminant = (ec if deg_c == 0 else el)[0]

    psi2_roots = sorted(rational_roots(UniPoly._view("psi2", eliminant)))
    rest = eliminant
    for b in psi2_roots:
        rest, _ = _int_list_deflate(rest, b)
    residual = len(rest) - 1

    points = []
    for b in psi2_roots:
        value_b = _curve_value(B, b)
        if value_b is None:
            continue
        # ec and el at psi2 = b, as integer lists in psi1, each cleared by
        # one power of b's denominator; their common roots are their gcd's.
        at_b = []
        for rows in (ec, el):
            top = max(map(len, rows)) - 1
            at_b.append(_dense_trim([_int_list_at(row, b.numerator, b.denominator, top)
                                     for row in rows]))
        for a in sorted(rational_roots(UniPoly._view("psi1", _int_list_gcd(*at_b)))):
            value_a = _curve_value(A, a)
            if value_a is None:
                continue
            if value_a != value_b:
                continue
            c_val, lam_val = value_a
            degenerate = (c_val.numerator, c_val.denominator) in _DEGENERATE_SET
            points.append(
                Intersection(
                    psi1=a, psi2=b, c=c_val, lam=lam_val, degenerate=degenerate
                )
            )
    points.sort(key=lambda p: (p.psi1, p.psi2))
    return IntersectionReport(
        points=tuple(points),
        identity_component=identity,
        residual_degree=residual,
    )


# ---------------------------------------------------------------------------
# JSON forms.
# ---------------------------------------------------------------------------


def curve_json(fam: HookFamily, curve: Optional[TruncationCurve] = None) -> dict:
    """The curve of a family as a JSON-ready mapping with exact text fields."""
    if curve is None:
        curve = phi(fam)
    return {
        "family": fam.tag,
        "n": str(fam.n),
        "m": str(fam.m),
        "c": curve.c.to_text(),
        "lambda": None if curve.lam is None else curve.lam.to_text(),
    }


def intersection_json(report: IntersectionReport) -> list:
    """Intersection points as a JSON-ready array of exact-text mappings."""
    return [
        {
            "psi1": str(p.psi1),
            "psi2": str(p.psi2),
            "c": str(p.c),
            "lambda": str(p.lam),
            "degenerate": p.degenerate,
        }
        for p in report.points
    ]
