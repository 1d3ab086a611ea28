"""Truncation curves of the hook-type cosets.

Each coset C^psi(n, m) is, as a one-parameter vertex algebra, a quotient
of the universal even-spin algebra parametrized by (c, lambda).  The
kernel ideal is described by a plane curve: a pair of rational functions
(c(psi), lambda(psi)).  This module holds the explicit parametrization
for the 2B family, derives the other seven families from it by exact
substitutions, verifies the triality identities, and finds rational
intersection points of two curves by resultant elimination.

All arithmetic is exact; the master-curve polynomials are entered once,
verbatim, and guarded by value checks in the test suite.

Each family's route to the master curve is one row of ``_ROUTES``: the
shifted (n, m) at which 2B is taken and the one degree-one psi map of the
triality group composed with it.  Every curve is built by one
constructor, ``_family_curve``, from that row: the master at the shifted
(n, m) with psi through the route's map, times the identity's own map on
the right-hand side of a triality identity, as one 2x2 integer product.
The master depends on (n, m) only through t = n + m(2psi - 1), so it is
read only to derive F(t, psi), its slice at m = 0 (``_at_m0``), with
6 + 2 terms for c and 20 + 33 for lambda against 19 + 2 and 79 + 213;
every curve is built from F.
The generic-domain check maps denominator roots back through the inverse
of the route's map, so the two cannot disagree.

Data that depends only on (family, n, m) is built once and reused for
every psi; every such memo is a ``functools.cache`` on the function that
builds it.  A numeric curve runs F by Horner in t into integer lists in
psi, reduced by one gcd and composed with the degree-one psi map
without another; ``TruncationCurve.values`` dots its four integer lists
with one table of powers of psi.  A symbolic curve composes F with
n -> t, then with the psi map, and is canonicalized once.
The generic-domain check looks psi up in the set of excluded values,
built from the rational roots of the denominator factors, run at t.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import lcm
from typing import Optional, Tuple

from .exact import (
    MultiPoly,
    PoleError,
    RatFunc,
    UniPoly,
    ZeroDenominatorError,
    parse_ratfunc,
    poly_gcd,
    rational_roots,
    resultant,
)
from .exact import (
    _LISTS,
    _VAR_INDEX,
    _coerce_fraction,
    _dcompose,
    _dense_trim,
    _dict_to_int_list,
    _divexact_int,
    _homogenized_powers,
    _int_list_at,
    _int_list_deflate,
    _int_list_moebius,
    _int_list_quotient,
    _int_list_to_dict,
)
from .liedata import HookFamily

__all__ = [
    "TruncationCurve",
    "CurvePoint",
    "IdentityCheck",
    "Intersection",
    "IntersectionReport",
    "phi_2B",
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
# The same charges as a set, for membership tests.
_DEGENERATE_SET = frozenset(DEGENERATE_CHARGES)


@dataclass(frozen=True)
class TruncationCurve:
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

        The four polynomials are read once per curve as dense integer
        lists in psi (``_psi_lists``); each is dotted with one shared table
        of homogenized powers of psi (``_int_list_at``), so the common
        power of psi's denominator cancels in each quotient.  Raises
        PoleError where either denominator vanishes, and everywhere when
        ``lam`` is None.
        """
        if self.symbols:
            raise ValueError(f"curve has residual symbols {self.symbols}")
        if self.lam is None:
            raise PoleError("lambda has no finite value on this slice")
        degree, lists = self._psi_lists
        x = _coerce_fraction(psi)
        table = _homogenized_powers(x, degree)
        cn, cd, ln, ld = [_int_list_at(cs, x, table) for cs in lists]
        if not cd or not ld:
            raise PoleError("denominator vanishes at the given point")
        return Fraction(cn, cd), Fraction(ln, ld)

    @cached_property
    def _psi_lists(self):
        """(D, lists): integer lists in psi of c.num, c.den, lam.num, lam.den.

        Read off the integer dicts of the curve's own RatFuncs, whose
        canonical parts have denominator 1, once per curve: the RatFuncs
        are all a curve holds, whoever built it.  D, the largest of the
        four degrees, is the degree of the curve's one table of powers of
        psi.
        """
        polys = (self.c.num, self.c.den, self.lam.num, self.lam.den)
        lists = [_dict_to_int_list(p._d, _PSI) for p in polys]
        return max(len(cs) for cs in lists) - 1, lists


@dataclass(frozen=True)
class CurvePoint:
    """A point (c, lambda), possibly with residual symbols."""

    c: RatFunc
    lam: RatFunc


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of one curve identity: name, verdict, offending difference."""

    name: str
    holds: bool
    c_difference: Optional[RatFunc]
    lambda_difference: Optional[RatFunc]


@dataclass(frozen=True)
class Intersection:
    """One rational intersection point of two curves."""

    psi1: Fraction
    psi2: Fraction
    c: Fraction
    lam: Fraction
    degenerate: bool


@dataclass(frozen=True)
class IntersectionReport:
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
def _master_2B() -> Tuple[RatFunc, RatFunc]:
    """The symbolic 2B curve in the three variables psi, n, m."""
    psi = RatFunc.var("psi")
    n = RatFunc.var("n")
    m = RatFunc.var("m")
    c = -(
        (-m + n - psi + 2 * m * psi)
        * (1 - 2 * m + 2 * n + 4 * m * psi)
        * (-1 - 2 * m + 2 * n + 2 * psi + 4 * m * psi)
    ) / (2 * psi * (2 * psi - 1))
    f = parse_ratfunc(_F_2B)
    g = parse_ratfunc(_G_2B)
    h = parse_ratfunc(_H_2B)
    lam = -(2 * psi * (2 * psi - 1) * f) / (
        7
        * (-m + n + psi + 2 * m * psi)
        * (-1 - 2 * m + 2 * n + 4 * m * psi)
        * (1 - 2 * m + 2 * n - 2 * psi + 4 * m * psi)
        * g
        * h
    )
    return c, lam


@cache
def _master_domain_factors() -> Tuple[MultiPoly, ...]:
    """Every printed denominator factor of the master curve, in psi, n, m."""
    psi = RatFunc.var("psi")
    n = RatFunc.var("n")
    m = RatFunc.var("m")
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
_N = _VAR_INDEX["n"]
_M = _VAR_INDEX["m"]


def _at_m0(p: MultiPoly) -> dict:
    """p's m-free terms: for a printed master polynomial, P(t, 0, psi).

    Each is a polynomial in t = n + m(2psi - 1) and psi, so P(n, m, psi)
    is this dict with n -> t.
    """
    return {k: c for k, c in p._d.items() if not k[_M]}


@cache
def _t_slices():
    """F's (num, den) of c and of lambda, and the domain factors, at m = 0.

    Each is sliced by t: [S_0, ..., S_d], S_e an integer list in psi.
    """
    (c, lam), factors = _master_2B(), _master_domain_factors()
    polys = (c.num, c.den, lam.num, lam.den) + factors
    c_num, c_den, lam_num, lam_den, *factors = [_LISTS[_PSI].dense(_at_m0(p), _N) for p in polys]
    return (c_num, c_den), (lam_num, lam_den), factors


def _t_coeffs(n, m):
    """(alpha, beta, L): t = n + m(2psi - 1) is (alpha + beta psi)/L, all ints."""
    a, b = n - m, 2 * m
    scale = lcm(a.denominator, b.denominator)
    return a.numerator * (scale // a.denominator), b.numerator * (scale // b.denominator), scale


def _in_psi(polys, t):
    """Polynomials sliced by t at t = (alpha + beta psi)/L, as integer lists in psi.

    By Horner in t, slice e entering times L**(D - e), so each list is
    L**D times its polynomial, D the top degree of polys.  A polynomial
    that vanishes gives [].
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


def _inner_params(tag: str, n, m):
    """The master curve's (n, m) on the route of family tag."""
    dn, dm, m_gains_n, _, _ = _ROUTES[tag]
    return n + dn, (m + dm + n if m_gains_n else m + dm)


@cache
def _excluded_psi(tag: str, n, m):
    """The psi at which a printed denominator of tag(n, m) vanishes.

    A frozenset, or None when a factor vanishes for every psi.  Built once
    per (tag, n, m) from the family's row of ``_ROUTES``: each master
    factor is run at the inner t into an integer list in psi
    (``_in_psi``), and each rational root r in
    the inner psi is mapped back through the inverse of the route's map,
    psi = (d r - b)/(a - c r).  A root with a = c r has no finite preimage;
    the pole psi = -d/c of the map itself (psi = 0 on the inverting routes)
    is excluded.  A polynomial with rational coefficients vanishes at a
    rational point exactly when that point is one of its rational roots.
    """
    t = _t_coeffs(*_inner_params(tag, n, m))
    a, b, c, d = _ROUTES[tag][3] or (1, 0, 0, 1)
    excluded = {Fraction(-d, c)} if c else set()
    for factor in _t_slices()[2]:
        (spec,) = _in_psi((factor,), t)
        if not spec:
            return None
        for root in rational_roots(UniPoly._view("psi", spec)):
            if a != c * root:
                excluded.add((d * root - b) / (a - c * root))
    return frozenset(excluded)


def on_generic_domain(fam_or_tag, n, m, psi) -> bool:
    """Whether (n, m, psi) avoids every printed denominator of the curve.

    The c and lambda formulas are quotients of polynomials; specializing a
    symbolic identity to a point is legitimate only where neither side's
    denominator vanishes.  On the excluded loci the curve is defined as a
    limit and individual printed values carry no content.  The check is a
    lookup in the excluded psi of (tag, n, m), see ``_excluded_psi``.
    """
    tag = getattr(fam_or_tag, "tag", fam_or_tag)
    if tag not in _ROUTES:
        raise ValueError("unknown family tag %r" % (tag,))
    excluded = _excluded_psi(tag, _exact_key(n), _exact_key(m))
    return excluded is not None and _exact_key(psi) not in excluded


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


def _substituted(rf: RatFunc, mapping: dict) -> RatFunc:
    """rf with every variable of mapping replaced by its value, all at once.

    Values are RatFuncs or exact scalars and may mention the replaced
    variables themselves, as in an n <-> m swap.  One nested Horner pass
    on the polynomial dicts (``_dcompose``) and one canonicalization.
    Raises ZeroDenominatorError on a slice where the denominator then
    vanishes identically.
    """
    subs = []
    for var, value in mapping.items():
        if not isinstance(value, RatFunc):
            value = RatFunc.const(value)
        elif value == RatFunc.var(var):
            continue
        subs.append((_VAR_INDEX[var], value.num._d, value.den._d))
    if not subs:
        return rf
    num, den = _dcompose(rf.num._d, rf.den._d, subs)
    if not den:
        raise ZeroDenominatorError("substitution makes the denominator vanish identically")
    return RatFunc._from_dicts(num, den)


def _residual_symbols(c: RatFunc, lam: Optional[RatFunc]) -> Tuple[str, ...]:
    names = set(c.variables())
    if lam is not None:
        names |= lam.variables()
    return tuple(sorted(names - {"psi"}))


def _curve(c: RatFunc, lam: Optional[RatFunc], source: str) -> TruncationCurve:
    return TruncationCurve(c=c, lam=lam, source=source, symbols=_residual_symbols(c, lam))


def _psi_part(num, den, w) -> RatFunc:
    """The RatFunc in psi of the quotient of integer lists, composed with w.

    w = (a, b, c, d) is psi -> (a psi + b)/(c psi + d), or None.  The gcd
    is taken before composing; the composite of the coprime pair needs
    none (``_int_list_quotient`` has the proof).
    """
    num, den = _int_list_quotient(num, den)
    if w is not None:
        num, den = _int_list_quotient(*_int_list_moebius(num, den, w), coprime=True)
    return RatFunc._from_int_lists(num, den, _PSI)


def _numeric_2B(n: Fraction, m: Fraction, w, source: str) -> TruncationCurve:
    """The 2B curve at rational (n, m), composed with w, on integer lists.

    F is run at t = n + m(2psi - 1) into integer lists in psi over one
    scale (``_in_psi``), then reduced and composed with w (``_psi_part``).
    """
    t = _t_coeffs(n, m)
    out = []
    for pair in _t_slices()[:2]:
        num, den = _in_psi(pair, t)
        out.append(_psi_part(num, den, w) if den else None)
    return _curve(*out, source)


def _symbolic_2B(n, m, w, source: str) -> TruncationCurve:
    """The 2B curve at symbolic (n, m), composed with w, on polynomial dicts.

    F is composed with n -> t = n + m(2psi - 1), then with psi -> w(psi),
    and canonicalized once.  n and m must not mention psi, which the
    second composition would capture.
    """
    if any(isinstance(x, RatFunc) and "psi" in x.variables() for x in (n, m)):
        raise ValueError("symbolic n and m may not mention psi")
    t = n + m * (2 * RatFunc.var("psi") - 1)
    steps = [[(_N, t.num._d, t.den._d)]]
    if w is not None:
        a, b, c, d = w
        steps.append([(_PSI, _int_list_to_dict([b, a], _PSI), _int_list_to_dict([d, c], _PSI))])
    out = []
    for rf in _master_2B():
        num, den = _at_m0(rf.num), _at_m0(rf.den)
        for subs in steps:
            num, den = _dcompose(num, den, subs)
        out.append(RatFunc._from_dicts(num, den) if den else None)
    return _curve(*out, source)


def _psi_map(tag: str, w):
    """The route map of tag composed with w, as one integer (a, b, c, d).

    A map (a, b, c, d) is psi -> (a psi + b)/(c psi + d) and None the
    identity; tag(n, m) o w takes the master at psi -> route(w(psi)),
    whose matrix is the product route . w.  Raises ValueError unless
    ad - bc != 0.
    """
    a, b, c, d = _ROUTES[tag][3] or (1, 0, 0, 1)
    e, f, g, h = w or (1, 0, 0, 1)
    a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    if a * d == b * c:
        raise ValueError(f"not an invertible degree-one map: {(a, b, c, d)}")
    return None if b == c == 0 and a == d else (a, b, c, d)


def _family_curve(tag: str, n, m, w=None) -> TruncationCurve:
    """tag(n, m) o w: the master at the route's (n, m), psi through route . w.

    Every curve is built here: F at t = n' + m'(2psi - 1), (n', m') =
    ``_inner_params(tag, n, m)``, with psi through ``_psi_map``; on integer
    lists at rational (n, m) (``_numeric_2B``), else on polynomial dicts
    (``_symbolic_2B``).  Where the lambda denominator vanishes identically
    (the free-field orbifold cosets) the lambda component is None.
    """
    label = _ROUTES[tag][4]
    psi_map = _psi_map(tag, w)
    n, m = _coerce_param(n), _coerce_param(m)
    inner_n, inner_m = _inner_params(tag, n, m)
    if isinstance(n, RatFunc) or isinstance(m, RatFunc):
        return _symbolic_2B(inner_n, inner_m, psi_map, label)
    return _numeric_2B(inner_n, inner_m, psi_map, label)


def phi_2B(n, m) -> TruncationCurve:
    """The 2B curve at parameters n, m (rationals or symbolic expressions).

    Half-integer and negative parameters are meaningful: the other seven
    families are this curve at shifted arguments.  On the slices where
    the lambda denominator vanishes identically (the free-field orbifold
    cosets) the lambda component is None.  Built by ``_family_curve``.
    """
    return _family_curve("2B", n, m)


def phi_family(tag: str, n, m) -> TruncationCurve:
    """Truncation curve of any of the eight families, one fixed route each.

    The family's row of ``_ROUTES`` gives the shifted (n, m) at which the
    2B master curve is taken and the one degree-one psi substitution of
    the triality group that is composed with it: 1O, 2D, 1C are
    half-integer shifts of the master, and 1B, 1D, 2C, 2O also invert psi.
    n and m may be any rationals (the internal shifts leave the lattice)
    or symbolic expressions.  ``_family_curve`` builds the curve from F,
    the master at m = 0, at the route's t = n + m(2psi - 1).
    """
    if tag not in _ROUTES:
        raise ValueError(f"unknown family {tag!r}")
    return _family_curve(tag, n, m)


def phi(fam: HookFamily) -> TruncationCurve:
    """Truncation curve of a hook family at its (integer) parameters."""
    return phi_family(fam.tag, fam.n, fam.m)


# ---------------------------------------------------------------------------
# Triality identities.
# ---------------------------------------------------------------------------


def _identity_specs(n, m):
    """The eight pairwise identities: (name, left curve, right curve).

    A right-hand side tag(a, b) o w is one ``_family_curve`` build, with
    w = (a, b, c, d) the psi map named after "o".
    """
    specs = []
    left = _family_curve("2B", n, m)
    specs.append(("2B(n,m) = 2O(n,m-n) o 1/(4psi)", left,
                  _family_curve("2O", n, m - n, (0, 1, 4, 0))))
    specs.append(("2B(n,m) = 2B(m,n) o psi/(2psi-1)", left,
                  _family_curve("2B", m, n, (1, 0, 2, -1))))
    left = _family_curve("1C", n, m)
    specs.append(("1C(n,m) = 2C(n,m-n) o 1/(2psi)", left,
                  _family_curve("2C", n, m - n, (0, 1, 2, 0))))
    specs.append(("1C(n,m) = 1C(m,n) o psi/(psi-1)", left,
                  _family_curve("1C", m, n, (1, 0, 1, -1))))
    left = _family_curve("2D", n, m)
    specs.append(("2D(n,m) = 1D(n,m-n) o 1/(2psi)", left,
                  _family_curve("1D", n, m - n, (0, 1, 2, 0))))
    specs.append(("2D(n,m) = 1O(m,n-1) o 2psi/(2psi-1)", left,
                  _family_curve("1O", m, n - 1, (2, 0, 2, -1))))
    left = _family_curve("1O", n, m)
    specs.append(("1O(n,m) = 1B(n,m-n) o 1/psi", left,
                  _family_curve("1B", n, m - n, (0, 1, 1, 0))))
    specs.append(("1O(n,m) = 2D(m+1,n) o psi/(2(psi-1))", left,
                  _family_curve("2D", m + 1, n, (1, 0, 2, -2))))
    return specs


def verify_trialities(n, m) -> Tuple[IdentityCheck, ...]:
    """Check the eight triality identities at (n, m), numeric or symbolic.

    For numeric parameters the precondition m >= n >= 0, n + m >= 1 is
    enforced; symbolic parameters are checked as multivariate identities.
    Each result carries the (c, lambda) differences when the identity
    fails.
    """
    numeric = not (isinstance(n, RatFunc) or isinstance(m, RatFunc))
    if numeric:
        n = _coerce_fraction(n)
        m = _coerce_fraction(m)
        if not (m >= n >= 0 and n + m >= 1):
            raise ValueError(f"need m >= n >= 0 and n + m >= 1, got n={n}, m={m}")
    checks = []
    for name, left, right in _identity_specs(n, m):
        if left.lam is None or right.lam is None:
            raise ValueError(f"identity {name!r} involves a curve with no finite lambda")
        # Canonical forms are unique, so equality is structural; the
        # differences are built only for an identity that fails.
        holds = left.c == right.c and left.lam == right.lam
        checks.append(
            IdentityCheck(
                name=name,
                holds=holds,
                c_difference=None if holds else left.c - right.c,
                lambda_difference=None if holds else left.lam - right.lam,
            )
        )
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
    """Whether rf(psi := psi_value) == target, by cross-multiplication."""
    num_star, den_star = compose_cleared(rf, psi_value)
    if den_star.is_zero():
        raise ValueError("psi value is a pole of the curve")
    return (num_star * target.den - den_star * target.num).is_zero()


def known_point_2B_sp(n, m, r) -> CurvePoint:
    """The printed intersection of the 2B curve with a type-C principal curve.

    Returns the printed (c, lambda), after asserting that the 2B curve at
    psi* = (1 + 2m - 2n) / (2 (1 + 2m + 2r)) actually passes through it.
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
    c_pt = _substituted(c_raw, mapping)
    lam_pt = _substituted(lam_raw, mapping)
    curve = phi_2B(n, m)
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


def _as_quotient(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """The exact quotient p / q; ExactError, a ValueError, if inexact.

    q is primitive with integer coefficients, as ``poly_gcd`` returns, so
    by Gauss's lemma q divides p's integer dict whenever it divides p.
    """
    return MultiPoly._reduced(_divexact_int(p._d, q._d), p._den)


def _curve_value(curve: TruncationCurve, psi: Fraction):
    """(c, lambda) at psi, or None at a pole of either component."""
    try:
        return curve.values(psi)
    except PoleError:
        return None


def _root_candidates(polys):
    """Common rational roots of UniPolys; None marks a free line.

    A nonzero constant has no roots, so it leaves no candidates.
    """
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return None
    first, *rest = polys
    return {x for x in rational_roots(first) if not any(q.eval(x) for q in rest)}


def _in_var(poly: MultiPoly, var: str) -> MultiPoly:
    """A polynomial in psi alone, rewritten in var by moving exponent slots."""
    i = _VAR_INDEX[var]
    return MultiPoly._raw(
        {(0,) * i + (k[_PSI],) + (0,) * (len(k) - 1 - i): c for k, c in poly._d.items()},
        poly._den,
    )


def _cross_difference(f: RatFunc, g: RatFunc) -> MultiPoly:
    """Numerator of f(psi1) - g(psi2) up to a nonzero constant factor.

    The two denominators live in disjoint variables, so the cross-multiplied
    numerator shares no factor with their product and needs no gcd; the
    constant is irrelevant to every zero set computed from it.
    """
    n1, d1 = _in_var(f.num, "psi1"), _in_var(f.den, "psi1")
    n2, d2 = _in_var(g.num, "psi2"), _in_var(g.den, "psi2")
    return n1 * d2 - n2 * d1


def intersect(A: TruncationCurve, B: TruncationCurve) -> IntersectionReport:
    """All rational points where curve A meets curve B.

    The two copies of psi become psi1 (on A) and psi2 (on B).  Common
    components of the two difference equations are split off and flagged
    as an identity component; the rest is eliminated by a resultant in
    psi1, rational roots are extracted in psi2, back-substituted, and
    every candidate pair is verified by exact evaluation on the original
    curves.  Candidates at poles are discarded.  Points with degenerate
    central charge are flagged, not dropped.
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
    ec = _cross_difference(A.c, B.c)
    el = _cross_difference(A.lam, B.lam)

    if ec.is_zero() or el.is_zero():
        # One equation is trivial: the other one's zero locus is a whole
        # family of intersections, not isolated points.
        return IntersectionReport(points=(), identity_component=True, residual_degree=0)

    identity = False
    common = poly_gcd(ec, el)
    if common.total_degree() > 0:
        identity = True
        ec = _as_quotient(ec, common)
        el = _as_quotient(el, common)

    deg_c = ec.degree("psi1")
    deg_l = el.degree("psi1")
    if deg_c >= 1 and deg_l >= 1:
        eliminant = resultant(ec, el, "psi1")
    elif deg_c == 0 and deg_l == 0:
        # Neither residual equation involves psi1: common psi2 roots would
        # give vertical lines, which are identity components.
        shared = _root_candidates(UniPoly.from_multipoly(p, "psi2") for p in (ec, el))
        if shared:
            identity = True
        return IntersectionReport(points=(), identity_component=identity, residual_degree=0)
    else:
        eliminant = ec if deg_c == 0 else el

    if eliminant.is_zero():
        raise ValueError("eliminant vanished identically after component removal")

    uni = UniPoly.from_multipoly(eliminant, "psi2")
    psi2_roots = sorted(rational_roots(uni))
    rest = uni._ints
    for b in psi2_roots:
        rest, _ = _int_list_deflate(rest, b)
    residual = len(rest) - 1

    points = []
    for b in psi2_roots:
        value_b = _curve_value(B, b)
        if value_b is None:
            continue
        candidates = _root_candidates(
            UniPoly.from_multipoly(p.substitute("psi2", b), "psi1") for p in (ec, el)
        )
        if candidates is None:
            # Both equations vanish along psi2 = b: a free line of
            # solutions in psi1.
            identity = True
            continue
        for a in sorted(candidates):
            value_a = _curve_value(A, a)
            if value_a is None:
                continue
            if value_a != value_b:
                continue
            c_val, lam_val = value_a
            points.append(
                Intersection(
                    psi1=a,
                    psi2=b,
                    c=c_val,
                    lam=lam_val,
                    degenerate=c_val in _DEGENERATE_SET,
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
