from fractions import Fraction

import pytest

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


F = Fraction
PSI = RatFunc.var("psi")
N = RatFunc.var("n")
M = RatFunc.var("m")
R = RatFunc.var("r")


def fam(tag, n, m):
    return L.HookFamily.from_tag(tag, n, m)


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
        crv = C.phi_2B(0, 0)
        assert crv.lam.eval({"psi": F(1)}) == F(2, 49)

    def test_c_identically_half_at_origin(self):
        crv = C.phi_2B(0, 0)
        assert crv.c == RatFunc.const(F(1, 2))
        assert crv.c == L.central_charge(fam("2B", 0, 0))

    def test_c_value(self):
        assert C.phi_2B(1, 1).c.eval({"psi": F(1)}) == F(-25, 2)

    def test_symbolic_parameters_supported(self):
        crv = C.phi_2B(N, M)
        assert "n" in crv.symbols and "m" in crv.symbols
        assert crv.c.eval({"psi": F(1), "n": F(1), "m": F(1)}) == F(-25, 2)


class TestPhiRoutes:
    def test_2O_route_symbolic_m(self):
        left = C.phi_family("2O", 0, M)
        inner = C.phi_2B(0, M)
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

    def test_composition_needs_an_invertible_degree_one_map(self):
        # Only such maps keep a canonical quotient coprime without a gcd,
        # so every composed map is checked, numeric or symbolic.
        # (2 psi + 2)/(psi + 1) has ad - bc == 0.
        for n, m in ((0, 1), (N, M)):
            with pytest.raises(ValueError, match="not an invertible"):
                C._family_curve("2B", n, m, (2, 2, 1, 1))
            with pytest.raises(ValueError, match="not an invertible"):
                C._family_curve("2O", n, m, (2, 2, 1, 1))

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
        # 1B, 1D and 2C are reached through 1O, 2D and 1C, and a triality
        # right-hand side composes one more map: each is built with one
        # product map, against the maps substituted one at a time.
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
                master = C.phi_2B(*master_at(n, m))
                want = [master.c, master.lam]
                for x in maps:
                    want = [None if rf is None else rf.substitute("psi", x) for rf in want]
                got = C._family_curve(tag, n, m, w)
                assert [got.c, got.lam] == want, (tag, n, m)

    def test_charge_agreement_all_families(self):
        for tag in L.FAMILY_TAGS:
            for n in range(5):
                for m in range(5):
                    f = fam(tag, n, m)
                    assert C.phi(f).c == L.central_charge(f), (tag, n, m)


_GRID = (F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(2), F(3))


def _fraction_specialize(poly, vals):
    """The dict of poly at scalars {index: Fraction}, term by term over Fractions."""
    out = {}
    for key, c in poly._d.items():
        key = list(key)
        for i, v in vals.items():
            c *= v ** key[i]
            key[i] = 0
        key = tuple(key)
        out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


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
        if w is not None:
            a, b, c, d = w
            num, den = E._dcompose(
                num, den, [(E._VAR_INDEX["psi"], (a * psi + b)._d, (c * psi + d)._d)]
            )
        return RatFunc._raw_canonical(*E._ratfunc_canonical(num, den))

    return tuple(route(rf) for rf in C._master_2B())


class TestNumericBuilds:
    """Numeric curves come from the integer-list kernel, never the dict route."""

    def test_matches_the_polynomial_dict_route(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("numeric curve built through the polynomial dict route")

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

    def test_trialities_stay_on_the_integer_lists(self, monkeypatch):
        # A numeric right-hand side composes the identity's map into its
        # route's, so both sides of every identity are integer-list builds.
        def forbidden(*args):
            raise AssertionError("numeric triality left the integer-list kernel")

        for module in (C, E):
            monkeypatch.setattr(module, "_dcompose", forbidden)
        monkeypatch.setattr(RatFunc, "specialize", forbidden)
        monkeypatch.setattr(RatFunc, "substitute", forbidden)
        pairs = [(n, m) for n in _GRID for m in _GRID if m >= n >= 0 and n + m >= 1]
        lambda_less = []
        for n, m in pairs:
            try:
                checks = C.verify_trialities(n, m)
            except ValueError as exc:
                # Raised after the curves are built, by the lambda check.
                assert "no finite lambda" in str(exc), (n, m)
                lambda_less.append((n, m))
                continue
            assert all(check.holds for check in checks), (n, m)
        assert len(pairs) == 13
        assert lambda_less == [(F(1, 2), F(1, 2))]


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
        # phi_2B specializes (n, m) into the master lambda in one pass, so
        # lambda is None exactly where every psi-coefficient of the master
        # denominator vanishes.  The lowest and highest coefficients are
        # coprime, so their resultant in m is nonzero and every such n is
        # among its roots.
        den = C._master_2B()[1].den
        coeffs = [den.coefficient_of("psi", k) for k in range(den.degree("psi") + 1)]
        eliminant = resultant(coeffs[0], coeffs[-1], "m")
        assert not eliminant.is_zero()
        zeros = set()
        for n in rational_roots(eliminant):
            at_n = [c for c in (c.substitute("n", n) for c in coeffs) if not c.is_zero()]
            assert at_n, f"the denominator vanishes on the whole line n = {n}"
            if at_n[0].is_const():
                continue
            zeros |= {
                (n, m)
                for m in rational_roots(at_n[0])
                if all(c.eval({"m": m}) == 0 for c in at_n)
            }
        assert zeros == {(F(-1, 2), F(-1, 2)), (F(0), F(1, 2)), (F(1, 2), F(0))}
        grid_n = [F(k, 2) for k in range(-2, 9)]
        grid_m = [F(k, 2) for k in range(-2, 11)]
        none_set = {(n, m) for n in grid_n for m in grid_m if C.phi_2B(n, m).lam is None}
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
    """on_generic_domain is a set lookup; the reference evaluates per call."""

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
        # values() is reached only after both domain checks pass, so no
        # passing check may lead to a curve without lambda.
        grid_n = [F(k, 2) for k in range(-2, 9)]
        grid_m = [F(k, 2) for k in range(-2, 11)]
        all_excluded = set()
        no_lambda = set()
        for tag in L.FAMILY_TAGS:
            for n in grid_n:
                for m in grid_m:
                    if C._excluded_psi(tag, n, m) is None:
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

    def test_pole_of_each_component(self):
        crv = C.phi_family("2B", 1, 2)
        for part in (crv.c, crv.lam):
            roots = rational_roots(part.den)
            assert roots
            for root in roots:
                with pytest.raises(PoleError):
                    crv.values(root)

    def test_no_lambda_and_symbols(self):
        with pytest.raises(PoleError):
            C.phi_family("1O", 0, 0).values(F(1, 3))
        with pytest.raises(ValueError):
            C.phi_2B(N, 1).values(F(1, 3))


class TestTrialities:
    def test_all_pass_at_01(self):
        checks = C.verify_trialities(0, 1)
        assert len(checks) == 8
        assert all(c.holds for c in checks)
        assert all(c.c_difference is None for c in checks)

    def test_spot_vanishing_charge(self):
        assert C.phi_2B(0, 1).c.eval({"psi": F(1)}) == 0
        w = PSI / (2 * PSI - 1)
        moved = C.phi_2B(1, 0).c.substitute("psi", w)
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

    def test_failing_check_reports_differences(self):
        # Compare 2B(0,1) against the wrong partner by hand through the
        # public entry point: a failing IdentityCheck carries both diffs.
        checks = C.verify_trialities(0, 2)
        assert all(c.holds for c in checks)


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
        crv = C.phi_2B(0, 0)
        assert crv.c.eval({"psi": F(1, 6)}) == F(1, 2)


class TestVirasoroQuotient:
    def test_identity(self):
        crv = C.phi_family("2C", 0, 1)
        expr = 49 * crv.lam * crv.lam * (crv.c - 25) * (crv.c - 1)
        assert expr == RatFunc.const(F(1))


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

    def test_degenerate_flagging(self):
        rep = C.intersect(C.phi_family("2B", 0, 1), C.phi_family("2C", 0, 1))
        for p in rep.points:
            assert p.degenerate == (p.c in C.DEGENERATE_CHARGES)

    def test_rejects_symbolic_curves(self):
        with pytest.raises(ValueError):
            C.intersect(C.phi_2B(N, 1), C.phi_family("2C", 0, 1))

    def test_json_shape(self):
        rep = C.intersect(C.phi_family("2B", 0, 1), C.phi_family("2C", 0, 1))
        blob = C.intersection_json(rep)
        assert {"psi1": "1/8", "psi2": "3/8", "c": "-21/4", "lambda": "4/385", "degenerate": False} in blob


    def test_rational_roots_always_receives_a_unipoly(self, monkeypatch):
        # The traced benchmark (perfbench/spans.py) reads args[0].degree()
        # on every rational_roots call, which a MultiPoly does not accept.
        degrees = []

        def checked(p):
            assert isinstance(p, UniPoly), type(p)
            degrees.append(p.degree())
            return rational_roots(p)

        monkeypatch.setattr(C, "rational_roots", checked)
        rep = C.intersect(C.phi_family("2B", 0, 1), C.phi_family("2C", 0, 1))
        assert len(rep.points) == 4
        calls = len(degrees)
        # A fresh build, past the memo, of one generic-domain exclusion set.
        assert C._excluded_psi.__wrapped__("2B", F(7, 2), F(9, 2))
        assert calls > 1 and len(degrees) > calls


class TestExactParameters:
    """Curve entry points take ints, Fractions or RatFuncs, never floats."""

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: C.phi_family("2B", 0.1, 1), id="phi_family-n"),
            pytest.param(lambda: C.phi_family("1O", 0, 1.0), id="phi_family-m"),
            pytest.param(lambda: C.phi_2B(0.5, 1), id="phi_2B-n"),
            pytest.param(lambda: C.phi_2B(N, 1.5), id="phi_2B-symbolic-n"),
            pytest.param(lambda: C.known_point_2B_sp(0, 1, 1.0), id="known_point-r"),
            pytest.param(lambda: C.on_generic_domain("2B", 0.5, 1, F(1, 3)), id="domain-n"),
            pytest.param(lambda: C.on_generic_domain("2B", 0, 1, 0.3), id="domain-psi"),
            pytest.param(lambda: C.verify_trialities(1.0, 2), id="trialities-n"),
            pytest.param(lambda: C.verify_trialities(N, 2.0), id="trialities-symbolic-n"),
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
