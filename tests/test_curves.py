import functools
import hashlib
import json
import sys
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hookw import catalog as K
from hookw import curves as C
from hookw import exact as E
from hookw import liedata as L
from hookw.exact import (
    ExactError,
    MultiPoly,
    PoleError,
    RatFunc,
    UniPoly,
    ZeroDenominatorError,
    parse_ratfunc,
    rational_roots,
    resultant,
)
from master_curve import master_2B


F = Fraction
PSI = RatFunc.var("psi")
N = RatFunc.var("n")
M = RatFunc.var("m")
R = RatFunc.var("r")


def fam(tag, n, m):
    return L.HookFamily.from_tag(tag, n, m)


# Rationals with numerators and denominators up to 10**6, of either sign.
RATIONALS = st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**6))


def _eval_or_pole(crv, psi):
    """(c, lambda) of crv at psi by RatFunc.eval, or PoleError."""
    try:
        return crv.c.eval({"psi": psi}), crv.lam.eval({"psi": psi})
    except PoleError:
        return PoleError


def _values_or_pole(crv, psi):
    try:
        return crv.values(psi)
    except PoleError:
        return PoleError


def _psi_poly(coeffs):
    return sum((c * PSI**e for e, c in enumerate(coeffs)), RatFunc.const(0))


class TestMasterTranscription:
    """Spot values pinning the three transcribed polynomials."""

    def test_f_g_h_at_unit_point(self):
        f = parse_ratfunc(C._F_2B)
        g = parse_ratfunc(C._G_2B)
        h = parse_ratfunc(C._H_2B)
        at = {"psi": F(1), "n": F(0), "m": F(0)}
        assert f.eval(at) == -147
        assert g.eval(at) == -21
        assert h.eval(at) == -49

    def test_lambda_value(self):
        crv = C.phi_family("2B", 0, 0)
        assert crv.lam.eval({"psi": F(1)}) == F(2, 49)

    def test_c_identically_half_at_origin(self):
        crv = C.phi_family("2B", 0, 0)
        assert crv.c == RatFunc.const(F(1, 2))
        assert crv.c == L.central_charge(fam("2B", 0, 0))

    def test_c_value(self):
        assert C.phi_family("2B", 1, 1).c.eval({"psi": F(1)}) == F(-25, 2)

    def test_master_is_pinned(self):
        # c, lambda and the seven domain factors, against the sha256 of the
        # master as it was entered with its factors and its c typed inline;
        # the master is built on the test side, the package holds only F.
        c, lam = master_2B()
        text = json.dumps(
            [c.to_text(), lam.to_text()] + [p.to_text() for p in C._master_domain_factors()]
        )
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "65abb36c89ce92e7aaa77237b1cc4bad880094c29f3f32b333b2b74cd08ebd9a"

    def test_symbolic_parameters_supported(self):
        crv = C.phi_family("2B", N, M)
        assert "n" in crv.symbols and "m" in crv.symbols
        assert crv.c.eval({"psi": F(1), "n": F(1), "m": F(1)}) == F(-25, 2)


class TestPhiRoutes:
    def test_2O_route_symbolic_m(self):
        left = C.phi_family("2O", 0, M)
        inner = C.phi_family("2B", 0, M)
        w = 1 / (4 * PSI)
        assert left.c == inner.c.substitute("psi", w)
        assert left.lam == inner.lam.substitute("psi", w)

    def test_2C_charge_matches_closed_form(self):
        f = fam("2C", 0, 1)
        assert C.phi(f).c == L.central_charge(f)

    def test_1D_equals_1C_charge_at_m2(self):
        assert C.phi_family("1D", 0, 2).c == C.phi_family("1C", 0, 2).c

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            C.phi_family("3B", 0, 1)

    def test_every_route_map_is_a_rescaling_or_an_inversion(self):
        # exact._int_list_monomial composes psi -> a psi/d (b = c = 0) and
        # psi -> b/(c psi) (a = d = 0) only; a general map fails here.
        kinds = set()
        for tag, (_, _, _, w, _) in C._ROUTES.items():
            if w is not None:
                a, b, c, d = w
                assert (b == c == 0 and a and d) or (a == d == 0 and b and c), tag
                kinds.add(b == 0)
        assert kinds == {True, False}

    def test_symbolic_parameters_may_not_mention_psi(self):
        # psi in n or m would be captured by the route's psi map.
        for n, m in ((PSI, M), (N, M * PSI)):
            with pytest.raises(ValueError, match="may not mention psi"):
                C.phi_family("1B", n, m)

    def test_source_traces_route(self):
        # `hookw curve` prints these as its route line.
        assert {tag: C.phi_family(tag, 0, 1).source for tag in L.FAMILY_TAGS} == {
            "1B": "1B<-1O<-2B",
            "1C": "1C<-2B",
            "1D": "1D<-2D<-2B",
            "1O": "1O<-2B",
            "2B": "2B",
            "2C": "2C<-1C<-2B",
            "2D": "2D<-2B",
            "2O": "2O<-2B",
        }

    def test_one_map_equals_the_two_step_triality_routes(self):
        # 1B, 1D and 2C are reached through 1O, 2D and 1C in one product
        # map, and a triality right-hand side reads one more map w into
        # its point: each against the maps substituted one at a time.
        # Curves are route-only builds, composed with w by substitution.
        half = F(1, 2)
        cases = (
            # (tag, w, the master's (n, m), psi maps in the order applied)
            ("1B", None, lambda n, m: (n, m + n + half), (PSI / 2, 1 / PSI)),
            ("1D", None, lambda n, m: (n - half, m + n), (1 / (2 * PSI),)),
            ("2C", None, lambda n, m: (n + half, m + n + half), (PSI / 2, 1 / (2 * PSI))),
            ("2O", (0, 1, 4, 0), lambda n, m: (n, m + n), (1 / (4 * PSI), 1 / (4 * PSI))),
            ("1O", (2, 0, 2, -1), lambda n, m: (n, m + half), (PSI / 2, 2 * PSI / (2 * PSI - 1))),
            ("2D", (1, 0, 2, -2), lambda n, m: (n - half, m), (PSI / (2 * (PSI - 1)),)),
        )
        for tag, w, master_at, maps in cases:
            for n, m in ((N, M), (0, 0), (F(1, 2), 1), (F(-1, 2), F(3, 2)), (2, 3)):
                inner_n, inner_m = master_at(n, m)
                master = C.phi_family("2B", inner_n, inner_m)
                want = [master.c, master.lam]
                x = PSI
                for step in maps:
                    want = [None if rf is None else rf.substitute("psi", step) for rf in want]
                    x = x.substitute("psi", step)
                crv = C.phi_family(tag, n, m)
                got = [crv.c, crv.lam]
                if w is not None:
                    a, b, c, d = w
                    at_w = (a * PSI + b) / (c * PSI + d)
                    got = [None if rf is None else rf.substitute("psi", at_w) for rf in got]
                assert got == want, (tag, n, m)
                # The point of F that the orbit check reads: x, and t on
                # the master's line, over the denominator c psi + d.
                (t1, t0), (a, b, c, d) = C._point(tag, n, m, w or (1, 0, 0, 1))
                assert (a * PSI + b) / (c * PSI + d) == x, (tag, n, m)
                t = (t1 * PSI + t0) / (c * PSI + d)
                assert t == inner_n + inner_m * (2 * x - 1), (tag, n, m)

    def test_charge_agreement_all_families(self):
        for tag in L.FAMILY_TAGS:
            for n in range(5):
                for m in range(5):
                    f = fam(tag, n, m)
                    assert C.phi(f).c == L.central_charge(f), (tag, n, m)


class TestTwoCoordinates:
    """The master depends on (n, m) only through t = n + m(2psi - 1)."""

    @staticmethod
    def printed():
        c, lam = master_2B()
        return (c.num, c.den, lam.num, lam.den) + C._master_domain_factors()

    def test_each_printed_polynomial_is_a_polynomial_in_t(self):
        # P(n, m, psi) == P(n + m(2psi - 1), 0, psi), so F, the m = 0
        # slice, is the m-free part of each dict and loses nothing.
        psi, n, m = (MultiPoly.var(v) for v in ("psi", "n", "m"))
        t = n + m * (2 * psi - 1)
        polys = self.printed()
        assert len(polys) == 11
        for p in polys:
            at_m0 = RatFunc(p).substitute("m", 0)
            assert at_m0.substitute("n", t) == p, p
            assert MultiPoly._raw(C._at_m0(p)) == at_m0

    def test_F_is_the_slice_of_the_canonical_master(self):
        # F is built from the printed pieces, each sliced at m = 0, with
        # no gcd; it equals the m = 0 slice of the canonical master, read
        # by t into integer lists in psi.
        c, lam = master_2B()
        sliced = [E._LISTS[0].dense(C._at_m0(p), E._VAR_INDEX["n"])
                  for p in (c.num, c.den, lam.num, lam.den)]
        assert C._F() == (tuple(sliced[:2]), tuple(sliced[2:]))

    def test_the_denominators_are_the_printed_factors(self):
        # The domain lemma of curves._cleared: F's c.den times its lam.den
        # is 7 times the product of the seven printed factors' slices.
        (_, c_den), (_, lam_den) = (
            [E._LISTS[0].undense(slices, E._VAR_INDEX["n"]) for slices in pair] for pair in C._F()
        )
        factors = [C._at_m0(f) for f in C._master_domain_factors()]
        product = functools.reduce(E._dmul, factors)
        assert E._dmul(c_den, lam_den) == E._dscale(product, 7)

    def test_t_slices_are_pinned(self):
        # F sliced by t, c and lambda, against the sha256 of the slices as
        # they were read off the canonical master.
        digest = hashlib.sha256(json.dumps(C._F()).encode()).hexdigest()
        assert digest == "91662a4bf4ccb0fb4ec8876c75b853a79dd68e3adc085eaf3bc4eb3d7e7cbab6"

    def test_F_is_smaller_than_the_entered_master(self):
        c, lam = master_2B()
        polys = (c.num, c.den, lam.num, lam.den)
        assert [len(p._d) for p in polys] == [19, 2, 79, 213]
        assert [len(C._at_m0(p)) for p in polys] == [6, 2, 20, 33]

    def test_curves_agree_along_the_lines_of_constant_t(self):
        # (n, m) and (n + m(2psi - 1), 0) give one curve, at symbolic and
        # at rational parameters; the second needs psi in n, so it is
        # checked on the entered master.
        c, lam = master_2B()
        t = N + M * (2 * PSI - 1)
        for rf in (c, lam):
            assert rf.specialize({"n": t, "m": 0}) == rf
        for n, m in ((F(1, 2), F(3)), (F(-2, 3), F(5, 2))):
            crv = C.phi_family("2B", n, m)
            for psi in (F(1, 3), F(-5, 7)):
                point = {"psi": psi, "n": n + m * (2 * psi - 1), "m": 0}
                assert crv.values(psi) == (c.eval(point), lam.eval(point))

    def test_fiber_at_three_sevenths_splits_into_orbit_factors(self):
        # The fiber theorem at one rung: Res_t of F(t, psi) - F(t0, x0),
        # t in n and t0 in m, at x0 = 3/7.  In psi it is psi^6 (2psi - 1)^6
        # times one linear factor for each S3 image of x0, by y = 2psi:
        # y, 1 - y, y/(y - 1), 1/(1 - y), 1/y, (y - 1)/y.  What is left is
        # free of psi.
        x0 = F(3, 7)
        pair = []
        for rf in master_2B():
            f = RatFunc(MultiPoly._raw(C._at_m0(rf.num)), MultiPoly._raw(C._at_m0(rf.den)))
            pair.append((f - f.substitute("psi", x0).substitute("n", M)).num)
        res = resultant(*pair, "n")
        assert (len(res.terms()), res.degree("psi"), res.degree("m")) == (403, 18, 33)
        y = 2 * x0
        images = [z / 2 for z in (y, 1 - y, y / (y - 1), 1 / (1 - y), 1 / y, (y - 1) / y)]
        assert images == [F(3, 7), F(1, 14), F(-3), F(7, 2), F(7, 12), F(-1, 12)]
        psi = MultiPoly.var("psi")
        orbit = psi**6 * (2 * psi - 1) ** 6
        for z in images:
            orbit = orbit * (z.denominator * psi - z.numerator)
        rest = MultiPoly._raw(E._divexact_int(res._d, orbit._d))
        assert rest.variables() == {"m"} and rest.degree("m") == 33


_GRID = (F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(2), F(3))


def _fraction_specialize(poly, vals):
    """The dict of poly at scalars {index: Fraction}, term by term over Fractions."""
    out = {}
    for k, c in poly.terms():
        key = list(k)
        for i, v in vals.items():
            c *= v ** key[i]
            key[i] = 0
        key = tuple(key)
        out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


def _cleared(num, den):
    """Two Fraction dicts times the lcm of all their denominators, as int dicts."""
    scale = lcm(*(c.denominator for c in (*num.values(), *den.values())))
    return tuple({k: int(c * scale) for k, c in d.items()} for d in (num, den))


def _reference_family(tag, n, m):
    """phi_family on polynomial dicts: specialize, compose, full canonical form."""
    dn, dm, m_gains_n, w, _ = C._ROUTES[tag]
    inner = {E._VAR_INDEX["n"]: n + dn, E._VAR_INDEX["m"]: m + dm + (n if m_gains_n else 0)}
    psi = MultiPoly.var("psi")

    def route(rf):
        num = _fraction_specialize(rf.num, inner)
        den = _fraction_specialize(rf.den, inner)
        if not den:
            return None
        num, den = _cleared(num, den)
        if w is not None:
            a, b, c, d = w
            num, den = E._dcompose(
                num, den, [(E._VAR_INDEX["psi"], (a * psi + b)._d, (c * psi + d)._d)]
            )
        return RatFunc._raw_canonical(*E._ratfunc_canonical(num, den))

    return tuple(route(rf) for rf in master_2B())


class TestNumericBuilds:
    """Numeric curves come from the integer-list kernel, never the dict route."""

    def test_matches_the_polynomial_dict_route(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("numeric curve built through the polynomial dict route")

        # Built afresh, not read from the memo of builds.
        C._cleared.cache_clear()
        with monkeypatch.context() as patch:
            for module in (C, E):
                patch.setattr(module, "_dcompose", forbidden)
            patch.setattr(RatFunc, "specialize", forbidden)
            patch.setattr(RatFunc, "substitute", forbidden)
            built = {
                (tag, n, m): C.phi_family(tag, n, m)
                for tag in L.FAMILY_TAGS
                for n in _GRID
                for m in _GRID
            }
        slices = 0
        for (tag, n, m), got in built.items():
            c, lam = _reference_family(tag, n, m)
            assert got.c == c, (tag, n, m)
            assert got.c.to_text() == c.to_text(), (tag, n, m)
            assert got.symbols == ()
            if lam is None:
                slices += 1
                assert got.lam is None, (tag, n, m)
            else:
                assert got.lam == lam, (tag, n, m)
                assert got.lam.to_text() == lam.to_text(), (tag, n, m)
        # Both kinds of slice are on the grid.
        assert 0 < slices < len(built)

    def test_numeric_trialities_build_no_curve(self, monkeypatch):
        # An identity that holds is read off its two points of F and the
        # orbit of F; a curve without lambda is found on the lambda
        # denominator's t-slices, with no curve build and no root finding.
        def forbidden(*args):
            raise AssertionError("a triality that holds built a curve")

        for name in ("TruncationCurve", "_composed", "_cleared", "rational_roots"):
            monkeypatch.setattr(C, name, forbidden)
        monkeypatch.setattr(RatFunc, "substitute", forbidden)
        monkeypatch.setattr(RatFunc, "specialize", forbidden)
        pairs = [(n, m) for n in _GRID for m in _GRID if m >= n >= 0 and n + m >= 1]
        lambda_less = []
        for n, m in pairs:
            try:
                checks = C.verify_trialities(n, m)
            except ValueError as exc:
                assert "no finite lambda" in str(exc), (n, m)
                lambda_less.append((n, m))
                continue
            assert all(check.holds for check in checks), (n, m)
        assert len(pairs) == 13
        assert lambda_less == [(F(1, 2), F(1, 2))]

    def test_cleared_pairs_have_coprime_contents(self):
        # _cleared divides each pair by the gcd of its two integer
        # contents; no polynomial gcd runs before a curve is made.
        for tag in L.FAMILY_TAGS:
            for n in range(5):
                for m in range(5):
                    lists = C._cleared(tag, n, m).psi_lists[1]
                    for num, den in (lists[:2], lists[2:]):
                        assert gcd(E._int_content(num), E._int_content(den)) == 1, (tag, n, m)


class TestNumericMemo:
    """A numeric curve is built once per (tag, n, m), in one memo."""

    def test_int_and_fraction_share_a_curve(self):
        # The curve is held by the build's one memo entry.
        assert C.phi_family("2B", 1, 2) is C.phi_family("2B", F(1), 2) is C._cleared("2B", 1, 2)._curve
        assert C.phi_family("1D", F(1, 2), 3) is C.phi_family("1D", F(2, 4), F(3))

    def test_a_float_is_refused_with_the_curve_cached(self):
        C.phi_family("2B", 1, 2)
        with pytest.raises(ExactError):
            C.phi_family("2B", 1.0, 2)
        with pytest.raises(ExactError):
            C.phi_family("2B", 1, 2.0)

    def test_one_oracle_pass_builds_seven_curves(self):
        # The acceptance oracle's 20 intersections call phi_family 40
        # times on 4 sources and 3 targets.
        C._cleared.cache_clear()
        calls = 0
        for n in (0, 1):
            for m in (1, 2):
                for kind in K.TARGET_KINDS:
                    rule = K.TARGETS[kind]
                    for r in (1, 2):
                        if r < rule.min_r:
                            continue
                        source = C.phi_family("2B", n, m)
                        target = C.phi_family(rule.tag, 0, rule.m_of(r))
                        C.intersect(source, target)
                        calls += 2
        info = C._cleared.cache_info()
        assert calls == 40
        assert (info.misses, info.hits) == (7, 33)


def _composed_family(tag, n, m):
    """tag(n, m) on polynomial dicts: F's pairs composed with n -> t, then psi -> w.

    t = n' + m'(2psi - 1) at the route's (n', m') and w its map, each by one
    ``exact._dcompose``, then one canonicalization: the dict route that
    symbolic curves once took, kept as an oracle for the list pipeline.
    """
    dn, dm, m_gains_n, w, source = C._ROUTES[tag]
    inner_n, inner_m = n + dn, m + dm + (n if m_gains_n else 0)
    t = inner_n + inner_m * (2 * PSI - 1)
    steps = [[(E._VAR_INDEX["n"], t.num._d, t.den._d)]]
    if w is not None:
        a, b, c, d = w
        steps.append([(E._VAR_INDEX["psi"], (a * PSI + b).num._d, (c * PSI + d).num._d)])
    out = []
    for rf in master_2B():
        num, den = C._at_m0(rf.num), C._at_m0(rf.den)
        for subs in steps:
            num, den = E._dcompose(num, den, subs)
        out.append(RatFunc._from_dicts(num, den) if den else None)
    return out, source


def _text(rf):
    return None if rf is None else rf.to_text()


class TestSymbolicBuilds:
    """Symbolic curves come from the same list pipeline as numeric ones."""

    def test_matches_the_composed_dict_route(self):
        cases = [(N, M), (N, 0), (0, M), (R, R), (N, M - 1), (1 / (M + 1), N)]
        built = {(tag, n, m): C.phi_family(tag, n, m) for tag in L.FAMILY_TAGS for n, m in cases}
        # One half-integer parameter, and one symbolic point with no lambda.
        for tag, n, m in (("2D", N + F(1, 2), M), ("2B", RatFunc.const(F(1, 2)), 0)):
            built[tag, n, m] = C.phi_family(tag, n, m)
        assert built["2B", F(1, 2), 0].lam is None
        for (tag, n, m), got in built.items():
            (c, lam), source = _composed_family(tag, n, m)
            assert got.source == source
            assert got.c.to_text() == c.to_text(), (tag, n, m)
            assert _text(got.lam) == _text(lam), (tag, n, m)
            names = c.variables() | (set() if lam is None else lam.variables())
            assert got.symbols == tuple(sorted(names - {"psi"})), (tag, n, m)

    def test_1D_at_half_n_is_the_curve_at_n_under_n_to_n_over_2(self):
        # Its one canonicalization is certified coprime by a probe row of
        # larger mixed-sign primes (the first three rows each meet a
        # spurious common factor).  The sides are compared as uncanonicalized
        # quotients (``exact._Cleared``), so no gcd runs in the comparison.
        half, whole = C.phi_family("1D", N / 2, M), C.phi_family("1D", N, M)
        subs = E._substitutions({"n": N / 2})
        assert half.symbols == whole.symbols == ("m", "n")
        for got, f in ((half.c, whole.c), (half.lam, whole.lam)):
            assert E._Cleared(*E._dcompose(f.num._d, f.den._d, subs)) == got


class TestOrbifoldSlices:
    """The three combos whose lambda denominator vanishes identically."""

    def test_lambda_none_exactly_here(self):
        none_set = set()
        for tag in L.FAMILY_TAGS:
            for n in range(5):
                for m in range(5):
                    if C.phi(fam(tag, n, m)).lam is None:
                        none_set.add((tag, n, m))
        assert none_set == {("1B", 0, 0), ("1O", 0, 0), ("2D", 1, 0)}

    def test_lambda_denominator_vanishes_at_three_points_only(self):
        # phi_family specializes (n, m) into the master lambda in one pass,
        # so lambda is None exactly where every psi-coefficient of the master
        # denominator vanishes.  The lowest and highest coefficients are
        # coprime, so their resultant in m is nonzero and every such n is
        # among its roots.  Each coefficient is dense in m over integer
        # lists in n, the ring ``intersect`` eliminates on.
        ring = E._LISTS[E._VAR_INDEX["n"]]
        den = master_2B()[1].den
        coeffs = [ring.dense(c, E._VAR_INDEX["m"])
                  for c in E._DICTS.dense(den._d, E._VAR_INDEX["psi"])]
        eliminant = E._resultant_int(coeffs[0], coeffs[-1], ring)
        assert any(eliminant)
        zeros = set()
        for n in rational_roots(UniPoly._view("n", eliminant)):
            at_n = [UniPoly("m", [UniPoly._view("n", row).eval(n) for row in c]) for c in coeffs]
            at_n = [u for u in at_n if not u.is_zero()]
            assert at_n, f"the denominator vanishes on the whole line n = {n}"
            if at_n[0].degree() == 0:
                continue
            zeros |= {
                (n, m)
                for m in rational_roots(at_n[0])
                if all(u.eval(m) == 0 for u in at_n)
            }
        assert zeros == {(F(-1, 2), F(-1, 2)), (F(0), F(1, 2)), (F(1, 2), F(0))}
        grid_n = [F(k, 2) for k in range(-2, 9)]
        grid_m = [F(k, 2) for k in range(-2, 11)]
        none_set = {
            (n, m) for n in grid_n for m in grid_m if C.phi_family("2B", n, m).lam is None
        }
        assert none_set == zeros

    def test_constant_charge_one(self):
        for tag, n, m in (("1B", 0, 0), ("1O", 0, 0), ("2D", 1, 0)):
            assert C.phi(fam(tag, n, m)).c == RatFunc.const(F(1))

    def test_json_emits_null_lambda(self):
        blob = C.curve_json(fam("1O", 0, 0))
        assert blob["lambda"] is None
        assert blob["c"] == "1"

    def test_intersect_with_lambda_less_curve_is_empty(self):
        rep = C.intersect(C.phi_family("2B", 0, 1), C.phi_family("1O", 0, 0))
        assert rep.points == ()
        assert not rep.identity_component

    def test_two_lambda_less_curves_coincide(self):
        rep = C.intersect(C.phi_family("1O", 0, 0), C.phi_family("2D", 1, 0))
        assert rep.identity_component
        assert rep.points == ()


# How each family's (n, m, psi) sits inside the master curve's coordinates,
# written out independently of the route table the domain check reads.
# The last entry marks routes that invert psi, which excludes psi = 0.
_INNER_COORDS = {
    "1B": (F(0), F(1, 2), True, "n", F(1, 2)),
    "1C": (F(1, 2), F(1, 2), False, "", F(1, 2)),
    "1D": (F(-1, 2), F(0), True, "n", F(1, 2)),
    "1O": (F(0), F(1, 2), False, "", F(1, 2)),
    "2B": (F(0), F(0), False, "", F(1)),
    "2C": (F(1, 2), F(1, 2), True, "n", F(1, 4)),
    "2D": (F(-1, 2), F(0), False, "", F(1)),
    "2O": (F(0), F(0), True, "n", F(1, 4)),
}


def _domain_reference(tag, n, m, psi):
    """Evaluate the seven trivariate master factors at the inner point."""
    n, m, psi = F(n), F(m), F(psi)
    dn, dm, inverts, m_shift, scale = _INNER_COORDS[tag]
    if inverts:
        if psi == 0:
            return False
        psi_in = scale / psi
    else:
        psi_in = scale * psi
    point = {"psi": psi_in, "n": n + dn, "m": m + dm + (n if m_shift == "n" else 0)}
    return all(f.eval(point) != 0 for f in C._master_domain_factors())


class TestGenericDomain:
    """on_generic_domain reads the cleared lists; the references evaluate per call."""

    HALVES = [F(k, 2) for k in range(-2, 6)]
    PSIS = sorted({F(p, q) for p in range(-6, 7) for q in range(1, 5)})

    def test_matches_trivariate_evaluation(self):
        excluded = 0
        for tag in L.FAMILY_TAGS:
            for n in self.HALVES:
                for m in self.HALVES:
                    for psi in self.PSIS:
                        got = C.on_generic_domain(tag, n, m, psi)
                        assert got == _domain_reference(tag, n, m, psi), (tag, n, m, psi)
                        excluded += not got
        # The grid reaches the excluded loci, not only generic points.
        assert excluded > 1000

    def test_cleared_rule_matches_the_canonical_rule(self):
        # The rule the cleared lists replace: psi is off the domain where a
        # canonical denominator vanishes, at a rational root of a factor the
        # canonical form cancelled, or at the route map's pole.  The psi set
        # holds every such root and pole besides the small rationals.
        def at(cs, psi):
            return sum(c * psi**e for e, c in enumerate(cs))

        def roots(cs):
            return rational_roots(UniPoly._view("psi", cs)) if len(cs) > 1 else set()

        only_cancelled = 0
        for tag in L.FAMILY_TAGS:
            w = C._ROUTES[tag][3]
            pole = {F(-w[3], w[2])} if w and w[2] else set()
            for n in range(5):
                for m in range(5):
                    lists = C._cleared(tag, n, m).psi_lists[1]
                    dens, cancelled = [], set()
                    for num, den in (lists[:2], lists[2:]):
                        if den:
                            cancelled |= roots(E._int_list_gcd(num, den) if num else den)
                            den = E._int_list_quotient(num, den)[1]
                        dens.append(den)
                    psis = set(self.PSIS) | cancelled | pole | roots(dens[0]) | roots(dens[1])
                    for psi in psis:
                        vanishes = any(at(d, psi) == 0 for d in dens)
                        old = vanishes or psi in cancelled or psi in pole
                        got = C._sums_on_domain(tag, n, m, (psi.numerator, psi.denominator))
                        assert (got is None) == old, (tag, n, m, psi)
                        only_cancelled += not vanishes and psi in cancelled - pole
        # The cancelled-root clause decides cells on this grid.
        assert only_cancelled > 0

    def test_any_int_pair_reads_as_its_fraction(self):
        # The cell kernel passes its summed psi pairs unreduced, with
        # either sign of q: every multiple (k p, k q) of a reduced pair has
        # the same verdict and, on the domain, the same (c, lambda).
        poles = 0
        for tag in L.FAMILY_TAGS:
            for n in range(3):
                for m in range(3):
                    for psi in self.PSIS:
                        p, q = psi.numerator, psi.denominator
                        want = C._sums_on_domain(tag, n, m, (p, q))
                        poles += want is None
                        for k in (-1, 2, -3):
                            got = C._sums_on_domain(tag, n, m, (k * p, k * q))
                            assert (got is None) == (want is None), (tag, n, m, psi, k)
                            assert got is None or C._same_point(got, want), (tag, n, m, psi, k)
        assert poles > 0

    def test_psi_zero_on_inverting_routes(self):
        for tag in ("1B", "1D", "2C", "2O"):
            assert _INNER_COORDS[tag][2]
            for n, m in ((0, 1), (1, 2), (2, 2)):
                assert not C.on_generic_domain(tag, n, m, 0)
                assert not _domain_reference(tag, n, m, 0)

    def test_family_object_and_unknown_tag(self):
        psi = F(3, 5)
        assert C.on_generic_domain(fam("2C", 1, 2), 1, 2, psi) == C.on_generic_domain(
            "2C", 1, 2, psi
        )
        with pytest.raises(ValueError, match="unknown family tag"):
            C.on_generic_domain("3B", 0, 1, psi)

    def test_every_psi_excluded_exactly_where_lambda_is_none(self):
        # The cell kernel reads a curve only where the domain check passes,
        # so no passing check may lead to a curve without lambda.  A curve
        # with lambda has finitely many excluded psi, fewer than the grid's.
        grid_n = [F(k, 2) for k in range(-2, 9)]
        grid_m = [F(k, 2) for k in range(-2, 11)]
        all_excluded = set()
        no_lambda = set()
        for tag in L.FAMILY_TAGS:
            for n in grid_n:
                for m in grid_m:
                    if not any(C.on_generic_domain(tag, n, m, psi) for psi in self.PSIS):
                        all_excluded.add((tag, n, m))
                    if C.phi_family(tag, n, m).lam is None:
                        no_lambda.add((tag, n, m))
        assert len(no_lambda) == 24
        assert all_excluded == no_lambda


class TestValues:
    def test_matches_eval(self):
        psis = (F(1), F(-3, 7), F(5, 2), F(0), F(11, 3), F(1, 2), F(-1, 4))
        poles = 0
        cases = (("2B", 0, 0), ("2B", 2, 3), ("1B", 1, 2), ("2O", 0, 1), ("1C", F(1, 2), 1))
        for tag, n, m in cases:
            crv = C.phi_family(tag, n, m)
            for psi in psis:
                try:
                    expected = (crv.c.eval({"psi": psi}), crv.lam.eval({"psi": psi}))
                except PoleError:
                    poles += 1
                    with pytest.raises(PoleError):
                        crv.values(psi)
                    continue
                assert crv.values(psi) == expected
        assert poles > 0

    @settings(max_examples=200, deadline=None)
    @given(
        tag=st.sampled_from(L.FAMILY_TAGS),
        n=st.integers(0, 3),
        m=st.integers(0, 3),
        psi=RATIONALS,
    )
    @example(tag="2B", n=0, m=0, psi=F(0))
    @example(tag="2C", n=0, m=1, psi=F(-1))
    @example(tag="1D", n=1, m=2, psi=F(-999999, 1000000))
    def test_family_curves_match_eval(self, tag, n, m, psi):
        crv = C.phi_family(tag, n, m)
        assume(crv.lam is not None)
        assert _values_or_pole(crv, psi) == _eval_or_pole(crv, psi)

    @settings(max_examples=300, deadline=None)
    @given(
        lists=st.lists(
            st.lists(st.integers(-30, 30), max_size=4), min_size=4, max_size=4
        ),
        psi=RATIONALS,
    )
    @example(lists=[[], [3], [5], [-2]], psi=F(-1))
    @example(lists=[[1, 1], [7], [], [0, 2]], psi=F(0))
    @example(lists=[[4], [1, 0, 0, 1], [2], [1, 1, 1]], psi=F(-5, 3))
    @example(lists=[[0, 0, 1], [-3], [1], [1, 2, 3, 4]], psi=F(2, 999983))
    def test_short_and_empty_lists_match_eval(self, lists, psi):
        # Numerators may be zero (an empty list) and any list may have
        # length 1; each is read top-first against the largest degree.
        c_num, c_den, l_num, l_den = map(_psi_poly, lists)
        assume(not c_den.is_zero() and not l_den.is_zero())
        crv = C.TruncationCurve(c_num / c_den, l_num / l_den, "test", ())
        assert _values_or_pole(crv, psi) == _eval_or_pole(crv, psi)

    def test_pole_of_each_component(self):
        crv = C.phi_family("2B", 1, 2)
        _, (_, c_den, _, lam_den) = crv._psi_lists
        for den in (c_den, lam_den):
            roots = rational_roots(UniPoly._view("psi", den))
            assert roots
            for root in roots:
                with pytest.raises(PoleError):
                    crv.values(root)

    def test_no_lambda_and_symbols(self):
        with pytest.raises(PoleError):
            C.phi_family("1O", 0, 0).values(F(1, 3))
        with pytest.raises(ValueError):
            C.phi_family("2B", N, 1).values(F(1, 3))


class TestTrialities:
    def test_all_pass_at_01(self):
        checks = C.verify_trialities(0, 1)
        assert len(checks) == 8
        assert all(c.holds for c in checks)
        assert all(c.c_difference is None for c in checks)

    def test_spot_vanishing_charge(self):
        assert C.phi_family("2B", 0, 1).c.eval({"psi": F(1)}) == 0
        w = PSI / (2 * PSI - 1)
        moved = C.phi_family("2B", 1, 0).c.substitute("psi", w)
        assert moved.eval({"psi": F(1)}) == 0

    def test_symbolic_identities(self):
        checks = C.verify_trialities(N, M)
        assert all(c.holds for c in checks)

    def test_integer_sweep(self):
        for n in range(6):
            for m in range(n, 6):
                if n + m < 1:
                    continue
                assert all(c.holds for c in C.verify_trialities(n, m)), (n, m)

    def test_perturbed_lambda_fails_line_one(self):
        A = C.phi_family("2B", 0, 1)
        pert = C.TruncationCurve(A.c, A.lam + 1, A.source, A.symbols)
        B = C.phi_family("2O", 0, 1)
        w = 1 / (4 * PSI)
        dl = pert.lam - B.lam.substitute("psi", w)
        dc = pert.c - B.c.substitute("psi", w)
        assert dc.num.is_zero() and not dl.num.is_zero()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            C.verify_trialities(1, 0)
        with pytest.raises(ValueError):
            C.verify_trialities(0, 0)
        with pytest.raises(ValueError):
            C.verify_trialities(-1, 2)

    def test_failing_check_reports_differences(self, monkeypatch):
        # The first identity with 1/(2psi) for its map 1/(4psi): no map of
        # the orbit fits, and the check carries both curve differences.
        name, left, right, right_at, _ = C._TRIALITIES[0]
        wrong = ((name, left, right, right_at, (0, 1, 2, 0)),) + C._TRIALITIES[1:]
        monkeypatch.setattr(C, "_TRIALITIES", wrong)
        for n, m in ((0, 2), (N, M)):
            first, *rest = C.verify_trialities(n, m)
            assert first.name == name and not first.holds
            assert not first.c_difference.is_zero()
            assert not first.lambda_difference.is_zero()
            assert all(c.holds and c.c_difference is None for c in rest)


class TestOrbit:
    """The six maps of (t, x) that fix F, and the trialities they certify."""

    def test_all_six_maps_are_certified(self):
        assert C._orbit() == C._S3
        assert len(set(C._S3)) == 6

    def test_a_map_that_fails_is_dropped(self, monkeypatch):
        # (t, x) -> (t, 1 - x) does not fix F.
        monkeypatch.setattr(C, "_S3", C._S3 + ((1, (-1, 1, 0, 1)),))
        C._orbit.cache_clear()
        try:
            assert C._orbit() == C._S3[:-1]
        finally:
            C._orbit.cache_clear()

    def test_trialities_use_the_identity_and_the_inversion(self):
        # Four identities read one point twice; the other four move it by
        # (t, x) -> (t/(2x - 1), x/(2x - 1)).
        used = []
        for _, left, right, right_at, w in C._TRIALITIES:
            maps = C._orbit_maps(C._point(left, N, M), C._point(right, *right_at(N, M), w))
            assert len(maps) == 1
            used.append(maps[0])
        assert sorted(used) == sorted([(1, (1, 0, 0, 1))] * 4 + [(1, (1, 0, 2, -1))] * 4)

    def test_a_wrong_t_finds_no_map(self):
        # The x-parts of 2B(n, m) and 2B(m + 1, n) o psi/(2psi - 1) still
        # match, so the t-part alone refuses the pair.
        left = C._point("2B", N, M)
        assert not C._orbit_maps(left, C._point("2B", M + 1, N, (1, 0, 2, -1)))
        assert C._orbit_maps(left, C._point("2B", M, N, (1, 0, 2, -1)))


class TestKnownPoint:
    def test_origin_value(self):
        pt = C.known_point_2B_sp(0, 0, 1)
        assert pt.c == RatFunc.const(F(1, 2))

    def test_111_value(self):
        pt = C.known_point_2B_sp(1, 1, 1)
        assert pt.c == RatFunc.const(F(-7, 20))

    def test_vanishing_printed_denominator_raises(self):
        # n + r = 0 zeroes the printed charge denominator 2(n + r)(1 + 2m + 2r);
        # the point is specialized in one pass, so no limit is taken.
        for n, m, r in ((0, 0, 0), (0, 1, 0), (1, 2, -1)):
            with pytest.raises(ZeroDenominatorError):
                C.known_point_2B_sp(n, m, r)

    def test_lambda_less_slices_raise(self):
        # The three (n, m) where the 2B curve has no finite lambda; at
        # (1/2, 0) no printed denominator of the point vanishes.
        for n, m in ((F(1, 2), 0), (0, F(1, 2)), (F(-1, 2), F(-1, 2))):
            for r in (1, 2, F(3, 2)):
                with pytest.raises(ZeroDenominatorError):
                    C.known_point_2B_sp(n, m, r)

    def test_trivariate_identity(self):
        pt = C.known_point_2B_sp(N, M, R)
        spot = {"n": F(0), "m": F(0), "r": F(1)}
        assert pt.c.eval(spot) == F(1, 2)

    def test_psi_star_on_curve(self):
        # psi* = (1+2m-2n)/(2(1+2m+2r)) at (0,0,1) is 1/6; the curve's c
        # there must equal the printed c.
        crv = C.phi_family("2B", 0, 0)
        assert crv.c.eval({"psi": F(1, 6)}) == F(1, 2)


class TestVirasoroQuotient:
    def test_identity(self):
        crv = C.phi_family("2C", 0, 1)
        expr = 49 * crv.lam * crv.lam * (crv.c - 25) * (crv.c - 1)
        assert expr == RatFunc.const(F(1))


class TestLambdaSign:
    """Equal (c, lambda) is sufficient, not necessary: lambda flips sign
    between two spellings of one algebra and along the sp(4) line."""

    def test_so5_and_sp4_at_one_psi(self):
        so5, sp4 = C.phi_family("1C", 0, 2), C.phi_family("2C", 0, 2)
        assert so5.c == sp4.c
        assert so5.lam == -sp4.lam

    def test_so3_at_psi_and_sp2_at_twice_psi(self):
        so3, sp2 = C.phi_family("1C", 0, 1), C.phi_family("2C", 0, 1)
        at = {"psi": 2 * PSI}
        assert so3.c == sp2.c.specialize(at)
        assert so3.lam == -sp2.lam.specialize(at)

    def test_sp4_line_under_one_over_twice_psi(self):
        sp4 = C.phi_family("2C", 0, 2)
        at = {"psi": 1 / (2 * PSI)}
        assert sp4.c.specialize(at) == sp4.c
        assert sp4.lam.specialize(at) == -sp4.lam


class TestW24Relation:
    """On the lines of sp(4), so(5) and so(3) lambda**2 is a function of c
    alone, as on the Virasoro line of 2C(0, 1)."""

    def test_sp4_and_so5_lines(self):
        # 2C(0, 2) is sp(4), 1C(0, 2) is so(5): identically in psi.
        for tag in ("2C", "1C"):
            crv = C.phi_family(tag, 0, 2)
            c, lam = crv.c, crv.lam
            left = 441 * lam * lam * (c - 1) ** 2 * (5 * c + 22) ** 2
            assert left == c * c - 172 * c + 196, tag

    def test_so3_line(self):
        crv = C.phi_family("1C", 0, 1)
        assert 49 * crv.lam * crv.lam * (crv.c - 25) * (crv.c - 1) == RatFunc.const(1)

    def test_poles_of_lambda_squared_are_degenerate_charges(self):
        # lambda**2 = (c**2 - 172 c + 196)/(441 (c - 1)**2 (5 c + 22)**2) on
        # the sp(4) line: a pole where the denominator vanishes and the
        # numerator does not.
        poles = {F(1), F(-22, 5)}
        for c in poles:
            assert (c - 1) * (5 * c + 22) == 0
            assert c * c - 172 * c + 196 != 0
        assert poles <= set(C.DEGENERATE_CHARGES)


class TestIntersect:
    def test_contains_printed_sp_point(self):
        rep = C.intersect(C.phi_family("2B", 0, 1), C.phi_family("2C", 0, 1))
        pairs = {(p.psi1, p.psi2) for p in rep.points}
        assert (F(1, 8), F(3, 8)) in pairs

    def test_full_point_set_2B01_2C01(self):
        rep = C.intersect(C.phi_family("2B", 0, 1), C.phi_family("2C", 0, 1))
        got = {(p.psi1, p.psi2, p.c, p.lam) for p in rep.points}
        assert got == {
            (F(1, 8), F(3, 8), F(-21, 4), F(4, 385)),
            (F(3, 10), F(5, 4), F(7, 10), F(-10, 189)),
            (F(5, 6), F(5, 4), F(7, 10), F(-10, 189)),
            (F(2), F(3, 8), F(-21, 4), F(4, 385)),
        }
        assert not rep.identity_component

    def test_self_intersection_is_identity_component(self):
        crv = C.phi_family("2B", 1, 1)
        rep = C.intersect(crv, crv)
        assert rep.identity_component
        assert rep.points == ()

    def test_symmetry(self):
        A = C.phi_family("2B", 0, 1)
        B = C.phi_family("2C", 0, 1)
        ab = {(p.psi1, p.psi2) for p in C.intersect(A, B).points}
        ba = {(p.psi2, p.psi1) for p in C.intersect(B, A).points}
        assert ab == ba

    def test_so_curve_predictions_r2(self):
        # so(4) target at r=2 is the 1O(0,1) curve; the predicted pairs
        # (3/4 and 1/3 rows continued to r=2) must appear.
        rep = C.intersect(C.phi_family("2B", 0, 1), C.phi_family("1O", 0, 1))
        pairs = {(p.psi1, p.psi2) for p in rep.points}
        assert (F(5, 4), F(3, 5)) in pairs
        assert (F(1, 5), F(3, 5)) in pairs
        for p in rep.points:
            assert p.c == F(-6, 5)
            assert p.lam == F(-775, 29876)

    def test_residual_degree_reported(self):
        rep = C.intersect(C.phi_family("2B", 0, 1), C.phi_family("1O", 0, 1))
        assert rep.residual_degree == 12

    def test_oracle_pairs_verify_roots_without_values(self, monkeypatch):
        # The 20 oracle pairs: 2B(n, m), n in 0..1, m in 1..2, against every
        # target kind at r = 1, 2.  Each root is summed on the curves' lists
        # and compared by cross-multiplication, so no candidate builds a
        # Fraction through TruncationCurve.values; the points returned are
        # the curves' values.
        calls = []
        real = C.TruncationCurve.values
        reports = []
        with monkeypatch.context() as patch:
            patch.setattr(C.TruncationCurve, "values",
                          lambda self, psi: calls.append(psi) or real(self, psi))
            for n in (0, 1):
                for m in (1, 2):
                    for kind in K.TARGET_KINDS:
                        rule = K.TARGETS[kind]
                        for r in (1, 2):
                            if r >= rule.min_r:
                                pair = (C.phi_family("2B", n, m), rule.curve(r))
                                reports.append((pair, C.intersect(*pair)))
        assert len(reports) == 20 and calls == []
        points = [(pair, p) for pair, rep in reports for p in rep.points]
        assert len(points) > 20
        for (A, B), p in points:
            assert A.values(p.psi1) == B.values(p.psi2) == (p.c, p.lam)

    def test_degenerate_flagging(self):
        rep = C.intersect(C.phi_family("2B", 0, 1), C.phi_family("2C", 0, 1))
        for p in rep.points:
            assert p.degenerate == (p.c in C.DEGENERATE_CHARGES)

    def test_rejects_symbolic_curves(self):
        with pytest.raises(ValueError):
            C.intersect(C.phi_family("2B", N, 1), C.phi_family("2C", 0, 1))

    @pytest.mark.parametrize(
        "a, b, identity",
        [
            # c(psi1) - c(psi2) vanishes: the lambda equation alone is a curve.
            pytest.param((1, PSI), (1, PSI**2), True, id="one-equation-trivial"),
            # Both equations are psi1 - psi2; once it is split off, neither
            # residual involves psi1, and no psi2 root is shared.
            pytest.param((PSI, PSI), (PSI, PSI), True, id="residuals-free-of-psi1"),
            # psi1 = psi2 and psi1 = psi2 + 1: a nonzero constant eliminant.
            pytest.param((PSI, PSI), (PSI, PSI + 1), False, id="no-common-point"),
        ],
    )
    def test_hand_built_curves(self, a, b, identity):
        A, B = (C.TruncationCurve(RatFunc.const(1) * c, lam, "hand", ()) for c, lam in (a, b))
        assert C.intersect(A, B) == C.IntersectionReport(
            points=(), identity_component=identity, residual_degree=0
        )

    def test_json_shape(self):
        rep = C.intersect(C.phi_family("2B", 0, 1), C.phi_family("2C", 0, 1))
        blob = C.intersection_json(rep)
        assert {"psi1": "1/8", "psi2": "3/8", "c": "-21/4", "lambda": "4/385", "degenerate": False} in blob


    def test_rational_roots_always_receives_a_unipoly(self, monkeypatch):
        # The traced benchmark (perfbench/spans.py) reads args[0].degree()
        # on every rational_roots call, which a MultiPoly does not accept.
        callers = []

        def checked(p):
            assert isinstance(p, UniPoly), type(p)
            p.degree()
            callers.append(sys._getframe(1).f_code.co_name)
            return rational_roots(p)

        monkeypatch.setattr(C, "rational_roots", checked)
        # Fresh builds search no root: only intersect itself does.
        C._cleared.cache_clear()
        rep = C.intersect(C.phi_family("2B", 0, 1), C.phi_family("2C", 0, 1))
        assert len(rep.points) == 4
        assert len(callers) > 1 and set(callers) == {"intersect"}
        # The domain is read off the cleared lists, so no domain question
        # searches a root: on 2B(0, 1) the canonical curve has a value at
        # psi = 1/2, a root of a factor its gcd cancels, yet 1/2 is off the
        # domain, since a cleared denominator sums to zero there.
        callers.clear()
        assert C.phi_family("2B", 0, 1).values(F(1, 2)) == (F(3, 2), F(-22, 2891))
        assert not C.on_generic_domain("2B", 0, 1, F(1, 2))
        assert C.on_generic_domain("2B", 0, 1, F(3)) and callers == []


class TestExactParameters:
    """Curve entry points take ints, Fractions or RatFuncs, never floats."""

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: C.phi_family("2B", 0.1, 1), id="phi_family-n"),
            pytest.param(lambda: C.phi_family("1O", 0, 1.0), id="phi_family-m"),
            pytest.param(lambda: C.phi_family("2B", 0.5, 1), id="phi_2B-n"),
            pytest.param(lambda: C.phi_family("2B", N, 1.5), id="phi_2B-symbolic-n"),
            pytest.param(lambda: C.known_point_2B_sp(0, 1, 1.0), id="known_point-r"),
            pytest.param(lambda: C.on_generic_domain("2B", 0.5, 1, F(1, 3)), id="domain-n"),
            pytest.param(lambda: C.on_generic_domain("2B", 0, 1, 0.3), id="domain-psi"),
            pytest.param(lambda: C.verify_trialities(1.0, 2), id="trialities-n"),
            pytest.param(lambda: C.verify_trialities(N, 2.0), id="trialities-symbolic-n"),
            pytest.param(
                lambda: K.verify_coincidence(K.all_entries()[0], 1.0, 2, 1), id="coincidence-n"
            ),
            pytest.param(lambda: K.all_entries()[0].excluded_at(1, 2.0, 1), id="excluded_at-m"),
            pytest.param(lambda: K.TARGETS["sp"].m_of(1.0), id="m_of-r"),
            pytest.param(lambda: K.osp_osp_charge(1, 0.5), id="osp_osp_charge-n"),
            pytest.param(lambda: K.is_admissible_nondegenerate("sp(4)", 0.5), id="admissible-s"),
            pytest.param(lambda: L.HookFamily.from_tag("2B", 1.0, 2), id="hook_family-n"),
            pytest.param(
                lambda: K.rational_points(L.HookFamily.from_tag("2B", 0, 1), r_bound=2.5),
                id="rational_points-r_bound",
            ),
            pytest.param(
                lambda: K.rational_points(L.HookFamily.from_tag("2B", 0, 1), pq_bound=2.5),
                id="rational_points-pq_bound",
            ),
        ],
    )
    def test_float_is_rejected(self, call):
        with pytest.raises(ExactError):
            call()


class TestCurveJson:
    def test_fields_exact_text(self):
        blob = C.curve_json(fam("2B", 0, 0))
        assert blob == {
            "family": "2B",
            "n": "0",
            "m": "0",
            "c": "1/2",
            "lambda": blob["lambda"],
        }
        assert blob["lambda"].count("/") <= 1 or "(" in blob["lambda"]
