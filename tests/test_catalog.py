import hashlib
import json
import sys
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import hookw.cli as cli
from hookw import catalog as K
from hookw import curves as C
from hookw import exact as E
from hookw import liedata as L
from hookw._record import replace
from hookw.exact import MultiPoly, PoleError, RatFunc


F = Fraction
N = RatFunc.var("n")
M = RatFunc.var("m")
R = RatFunc.var("r")


def fam(tag, n, m):
    return L.HookFamily.from_tag(tag, n, m)


def entry(source, target, item):
    return K.coincidence_table(source, target)[item - 1]


class TestTableShape:
    def test_entry_counts(self):
        assert len(K.all_entries()) == 48
        for src in K.SOURCE_TAGS:
            assert len(K.coincidence_table(src, "sp")) == 6
            assert len(K.coincidence_table(src, "so_even")) == 3
            assert len(K.coincidence_table(src, "osp")) == 3

    def test_items_numbered_in_order(self):
        for src in K.SOURCE_TAGS:
            for kind in K.TARGET_KINDS:
                items = [e.item for e in K.coincidence_table(src, kind)]
                assert items == list(range(1, len(items) + 1))

    def test_table_pinned(self):
        # The canonical texts of all 48 entries, recorded when the rows were
        # still built by canonical RatFunc arithmetic; any change to how the
        # table is built must reproduce them exactly.
        rows = [
            [e.name, e.psi.to_text(), e.s.to_text(), [x.to_text() for x in e.exclusions]]
            for e in K.all_entries()
        ]
        blob = json.dumps(rows, separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == (
            "e0e091792e204c82e966935d85487027618fe05e14b7632562a80f0d31e926d9"
        )
        sizes = {(s, t): len(K.coincidence_table(s, t))
                 for s in K.SOURCE_TAGS for t in K.TARGET_KINDS}
        assert sizes == {(s, t): 6 if t == "sp" else 3
                         for s in K.SOURCE_TAGS for t in K.TARGET_KINDS}

    def test_unknown_pair_rejected(self):
        with pytest.raises(ValueError):
            K.coincidence_table("1O", "sp")
        with pytest.raises(ValueError):
            K.coincidence_table("2B", "so_odd")

    def test_pinned_formulas(self):
        e = entry("2B", "sp", 6)
        assert e.psi == (2 * M - 2 * N - 1) / (4 * (M + R))
        assert e.s == -(R + 1) + (1 + 2 * N + 2 * R) / (4 * (M + R))
        e = entry("1D", "so_even", 2)
        assert e.psi == (M + N) / (M + R)
        assert e.s == -(2 * R - 2) + (R - N) / (M + R)
        e = entry("1D", "osp", 3)
        assert e.psi == 2 * (M + N - R) / (1 + 2 * M - 2 * R)
        assert e.s == -(R + F(1, 2)) + (R - M - N) / (2 * R - 2 * M - 1)

    def test_exclusion_transcription(self):
        assert [e.to_text() for e in entry("1B", "sp", 4).exclusions] == ["n"]
        assert [e.to_text() for e in entry("1D", "sp", 6).exclusions] == ["m", "m + n"]
        assert [e.to_text() for e in entry("2B", "sp", 3).exclusions] == ["-m + n"]
        assert [e.to_text() for e in entry("2B", "osp", 2).exclusions] == ["m", "m - n"]
        assert [e.to_text() for e in entry("1B", "so_even", 3).exclusions] == ["m + 1"]

    def test_target_dictionary_rows(self):
        sp = K.TARGETS["sp"]
        assert (sp.tag, sp.m_of(3), sp.psi_of_s(F(-4), 3)) == ("2C", 3, 0)
        so = K.TARGETS["so_even"]
        assert (so.tag, so.m_of(3), so.psi_of_s(F(0), 3)) == ("1O", 2, 4)
        osp = K.TARGETS["osp"]
        assert (osp.tag, osp.m_of(3), osp.psi_of_s(F(0), 3)) == ("2B", 3, F(7, 2))
        so_odd = K.TARGETS["so_odd"]
        assert (so_odd.tag, so_odd.m_of(3), so_odd.psi_of_s(F(0), 3)) == ("1C", 3, 5)
        assert str(sp.algebra(2)) == "sp(4)"
        assert str(so.algebra(2)) == "so(4)"
        assert str(osp.algebra(2)) == "osp(1|4)"
        assert str(so_odd.algebra(2)) == "so(5)"

    def test_typed_shift_is_the_dual_coxeter_of_the_family_algebra(self):
        # The shift stays typed, a polynomial in r; at each rank it is h^vee
        # of the target algebra, which is the family's at (0, m_of(r)) with
        # osp(M|0) spelled so(M).
        def plain(g):
            return f"so({g.odd})" if g.kind == "osp" and not g.even else str(g)

        cases = 0
        for kind, rule in K.TARGETS.items():
            for r in range(1, 41):
                member = L.HookFamily.from_tag(rule.tag, 0, rule.m_of(r))
                assert rule.psi_of_s(0, r) == L.dual_coxeter(rule.algebra(r)), (kind, r)
                assert str(rule.algebra(r)) == plain(L.ambient_algebra(member)), (kind, r)
                cases += 1
        assert cases == 160


class TestVerifyPointwise:
    def test_pinned_pass(self):
        out = K.verify_coincidence(entry("2B", "sp", 6), 0, 1, 1)
        assert out.status == "pass"
        assert out.psi1 == F(1, 8)
        assert out.psi2 == F(3, 8)
        # the displayed s itself
        assert out.psi2 - 2 == F(-13, 8)
        assert out.source_values == out.target_values

    def test_pinned_exclusion_skip(self):
        out = K.verify_coincidence(entry("1B", "sp", 4), 1, 0, 1)
        assert out.status == "skipped"
        assert "r != n" in out.reason

    def test_tampered_entry_fails(self):
        bad = replace(entry("2B", "sp", 6), s=entry("2B", "sp", 6).s + 1)
        out = K.verify_coincidence(bad, 0, 1, 1)
        assert out.status == "fail"
        assert out.source_values != out.target_values

    def test_formula_pole_reported_not_raised(self):
        # 1D-sp(1) has psi = (m+n+r)/m, a pole at m = 0.
        out = K.verify_coincidence(entry("1D", "sp", 1), 2, 0, 1)
        assert out.status == "skipped"
        assert "pole" in out.reason

    def test_off_domain_slices_skipped(self):
        # At n = 0 the displayed psi of this entry composes to the locus
        # where the source curve's printed denominators vanish.
        out = K.verify_coincidence(entry("2B", "so_even", 2), 0, 1, 2)
        assert out.status == "skipped"
        assert "undefined" in out.reason
        # At n = m the displayed psi is 0, a pole of the source curve.
        out = K.verify_coincidence(entry("2B", "so_even", 3), 1, 1, 2)
        assert out.status == "skipped"

    def test_orbifold_source_slice_skipped(self):
        # 1B(0, 0) has no finite lambda; every psi is off-domain there.
        for item in (1, 2, 3, 5):
            out = K.verify_coincidence(entry("1B", "sp", item), 0, 0, 2)
            assert out.status == "skipped"

    def test_curve_pole_past_the_domain_check_is_an_error(self, monkeypatch):
        # The domain is read off each curve's one build, so no pole gets
        # past it: with the map's pole dropped (the identity's denominator
        # row (0, 1)) and the cleared denominators zeroed, a passing cell
        # skips, and 0 == 0 never passes it.  A pole raised while building
        # 1B(0, 0) or reading 1B(1, 1) is a defect, so a failed cell and a
        # PoleError, never a skip.
        e = entry("1B", "sp", 1)
        real = C._cleared
        assert K._cell_check(e, 1, 1, 2)[0] == "pass"

        def zeroed(tag, n, m):
            top, (cn, _, ln, _) = real(tag, n, m).psi_lists
            return C._Build((top, (cn, [], ln, [])), (0, 1))

        with monkeypatch.context() as patch:
            patch.setattr(C, "_cleared", zeroed)
            undefined = "source curve formulas are undefined at psi"
            assert K._cell_check(e, 1, 1, 2)[:2] == ("skipped", undefined)

        def pole(*args):
            raise PoleError("curve evaluation hit a pole")

        for name, cell in (("_cleared", (0, 0, 1)), ("_int_list_at", (1, 1, 2))):
            with monkeypatch.context() as patch:
                patch.setattr(C, name, pole)
                assert cli._cell_coincidences((e.name, *cell))[0] == "fail"
                with pytest.raises(PoleError):
                    K.verify_coincidence(e, *cell)

    def test_degenerate_charge_flagged(self):
        out = K.verify_coincidence(entry("2B", "osp", 1), 0, 1, 1)
        assert out.status == "pass"
        assert out.psi1 == 1
        assert out.source_values[0] == 0
        assert out.degenerate

    def test_parameter_validation(self):
        e = entry("2B", "so_even", 1)
        with pytest.raises(ValueError):
            K.verify_coincidence(e, 0, 1, 1)  # so_even needs r >= 2
        with pytest.raises(ValueError):
            K.verify_coincidence(entry("2B", "sp", 1), -1, 0, 1)
        with pytest.raises(ValueError):
            K.verify_coincidence(entry("2B", "sp", 1), 0, F(1, 2), 1)


def _reference_cell(e, n, m, r):
    """(status, reason, psi1, psi2, degenerate) of a cell, on RatFunc.eval.

    The displayed formulas are evaluated at Fraction points, the target
    psi as s + shift(r), and each exclusion as r == E(n, m); the curves
    are built afresh, outside the catalog's memo.
    """
    rule = K.TARGETS[e.target]
    point = {"n": F(n), "m": F(m), "r": F(r)}
    for expr in e.exclusions:
        if r == expr.eval(point):
            return "skipped", f"exclusion r != {expr.to_text()} fires", None, None, False
    try:
        psi1 = e.psi.eval(point)
    except PoleError:
        return "skipped", "the displayed psi formula has a pole here", None, None, False
    try:
        psi2 = e.s.eval(point) + rule.shift.eval({"r": F(r)})
    except PoleError:
        return "skipped", "the displayed s formula has a pole here", None, None, False
    m_t = rule.m_expr.eval({"r": F(r)})
    if not C.on_generic_domain(e.source, F(n), F(m), psi1):
        return "skipped", "source curve formulas are undefined at psi", psi1, psi2, False
    if not C.on_generic_domain(rule.tag, F(0), m_t, psi2):
        reason = "target curve formulas are undefined at the target psi"
        return "skipped", reason, psi1, psi2, False
    sv = C.phi_family(e.source, F(n), F(m)).values(psi1)
    tv = C.phi_family(rule.tag, F(0), m_t).values(psi2)
    if sv != tv:
        return "fail", "exact (c, lambda) values differ", psi1, psi2, sv[0] in C.DEGENERATE_CHARGES
    return "pass", None, psi1, psi2, sv[0] in C.DEGENERATE_CHARGES


class TestCellKernel:
    """verify_coincidence on the integer forms against the RatFunc route."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_the_ratfunc_reference(self, data):
        e = data.draw(st.sampled_from(K.all_entries()))
        if data.draw(st.booleans()):
            # Tampered: the catalogued s never has a pole at an integer cell
            # that no earlier skip catches, so put one in, with rational
            # coefficients in psi and s and one more exclusion.
            a = data.draw(st.integers(min_value=1, max_value=5))
            b = data.draw(st.integers(min_value=1, max_value=5))
            c = data.draw(st.integers(min_value=-5, max_value=5))
            pole = RatFunc.const(F(1, b)) / (N + M - R + c)
            e = replace(e, psi=e.psi * F(a, b), s=e.s + pole, exclusions=e.exclusions + (N + c,))
        n = data.draw(st.integers(min_value=0, max_value=15))
        m = data.draw(st.integers(min_value=0, max_value=15))
        r = data.draw(st.integers(min_value=K.TARGETS[e.target].min_r, max_value=15))
        out = K.verify_coincidence(e, n, m, r)
        got = (out.status, out.reason, out.psi1, out.psi2, out.degenerate)
        assert got == _reference_cell(e, n, m, r), (e, n, m, r)
        assert all(type(x) is F for x in (out.psi1, out.psi2) if x is not None)

    def test_folded_target_psi_has_the_denominator_of_s(self):
        # shift(r) is a polynomial, so s + shift has the poles of s and
        # the "s formula has a pole" skip reads the folded formula.
        for e in K.all_entries():
            folded = e.s + K.TARGETS[e.target].shift
            ratio = RatFunc(folded.den, e.s.den)
            assert not ratio.variables() and not ratio.is_zero(), e.name
            for point in ((0, 0, 1), (2, 1, 3), (1, 4, 4),
                          (F(1, 2), F(3, 2), F(5, 2)), (F(-1, 2), 2, F(7, 2))):
                n, m, r = map(F, point)
                values = e._cell_values(n, m, r)
                try:
                    expected = folded.eval({"n": n, "m": m, "r": r})
                except PoleError:
                    assert values[3] == 0, (e.name, point)
                else:
                    assert F(values[2], values[3]) == expected, (e.name, point)

    @pytest.mark.parametrize(
        "field, var", [("psi", "psi"), ("s", "s"), ("exclusions", "psi1")]
    )
    def test_formula_outside_n_m_r_names_the_variable(self, field, var):
        e = entry("1D", "sp", 6)
        X = RatFunc.var(var)
        tampered = replace(e, **{
            "psi": {"psi": e.psi * X},
            "s": {"s": e.s + X},
            "exclusions": {"exclusions": e.exclusions + (N + X,)},
        }[field])
        message = f"1D-sp\\(6\\): a formula mentions {var}; coincidence formulas are in n, m, r"
        with pytest.raises(ValueError, match=message):
            K.verify_coincidence(tampered, 1, 2, 4)
        with pytest.raises(ValueError, match=message):
            tampered.excluded_at(1, 2, 4)

    def test_cell_path_calls_no_generic_evaluator(self):
        # Once an entry's rows and the curves are built, a cell is integer
        # sums and Horner loops: no substitution and no RatFunc.eval.
        cells = [
            (e, n, m, r)
            for e in K.all_entries()
            for n in range(3)
            for m in range(3)
            for r in range(K.TARGETS[e.target].min_r, 4)
        ]
        warm = [K.verify_coincidence(*cell) for cell in cells]
        watched = {
            f.__code__
            for f in (E._dsubst, RatFunc.eval, MultiPoly.eval)
        }
        seen = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                seen.add(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            again = [K.verify_coincidence(*cell) for cell in cells]
        finally:
            sys.setprofile(None)
        assert again == warm and seen == set()
        assert sum(out.passed for out in warm) > 0

    def test_cli_kernel_and_public_api_agree(self, monkeypatch):
        # Every cell of the default sweep, and the cells of one tampered
        # entry: the CLI runs the kernel alone, verify_coincidence wraps it.
        sweeps = cli._SUITE_SWEEPS["coincidences"]
        grid = [range(lo, hi + 1) for (lo, hi), _ in (sweeps[v] for v in "nmr")]
        tampered = replace(K.all_entries()[0], s=K.all_entries()[0].s + 1)
        statuses = Counter()
        for e in (*K.all_entries(), tampered):
            monkeypatch.setattr(cli, "_entry_index", lambda e=e: {e.name: e})
            for n in grid[0]:
                for m in grid[1]:
                    for r in grid[2]:
                        got = cli._cell_coincidences((e.name, n, m, r))
                        if rank_error := K._rank_error(e.target, r):
                            assert got == ("skip", rank_error)
                            with pytest.raises(ValueError, match=rank_error):
                                K.verify_coincidence(e, n, m, r)
                            continue
                        out = K.verify_coincidence(e, n, m, r)
                        statuses[e is tampered, out.status] += 1
                        assert got == {
                            "pass": ("pass", ""),
                            "skipped": ("skip", out.reason),
                            "fail": ("fail", f"{e.name} at (n={n}, m={m}, r={r})"),
                        }[out.status], (e.name, n, m, r)
                        status, reason, psi1, psi2, sums = K._cell_check(e, n, m, r)
                        assert (status, reason) == (out.status, out.reason)
                        assert (out.psi1, out.psi2) == tuple(
                            None if pair is None else F(*pair) for pair in (psi1, psi2)
                        )
                        if sums is None:
                            assert out.source_values is out.target_values is None
                            continue
                        rule = K.TARGETS[e.target]
                        m_t = int(rule.m_of(r))
                        source = C.phi_family(e.source, n, m)
                        target = C.phi_family(rule.tag, 0, m_t)
                        for pair, values, curve, psi in (
                            (sums[0], out.source_values, source, out.psi1),
                            (sums[1], out.target_values, target, out.psi2),
                        ):
                            cn, cd, ln, ld = pair
                            assert values == (F(cn, cd), F(ln, ld)) == curve.values(psi)
        assert statuses[False, "fail"] == 0 and statuses[False, "pass"] == 3663
        assert statuses[True, "fail"] > 0

    def test_lambda_alone_can_fail_a_cell(self, monkeypatch):
        # Every target curve keeps its c and gets lambda + 1: cells that
        # passed now fail on lambda alone, in the kernel and in the wrapper.
        e = entry("2B", "sp", 6)
        real = C._cleared
        target_tag = K.TARGETS[e.target].tag

        def shifted(tag, n, m):
            build = real(tag, n, m)
            if tag != target_tag:
                return build
            top, (cn, cd, ln, ld) = build.psi_lists
            lam_plus_one = E._int_list_sub(ln, [-v for v in ld])
            lists = (max(top, len(lam_plus_one) - 1), (cn, cd, lam_plus_one, ld))
            return C._Build(lists, build.den_row)

        assert K.verify_coincidence(e, 0, 1, 1).passed
        monkeypatch.setattr(C, "_cleared", shifted)
        out = K.verify_coincidence(e, 0, 1, 1)
        assert (out.status, out.reason) == ("fail", "exact (c, lambda) values differ")
        assert out.source_values[0] == out.target_values[0]
        assert out.source_values[1] + 1 == out.target_values[1]
        assert K._cell_check(e, 0, 1, 1)[0] == "fail"

    def test_warm_cli_cell_builds_no_fraction(self, monkeypatch):
        # Once the rows, excluded sets and curves are built, a CLI cell is
        # ints end to end: not one Fraction is constructed.
        monkeypatch.delenv("HOOKW_WORKERS", raising=False)
        cells = [(e.name, 1, 1, 2) for e in K.all_entries()]
        warm = [cli._cell_coincidences(cell) for cell in cells]
        fraction_new = F.__new__.__code__
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code is fraction_new:
                calls += 1

        sys.setprofile(profile)
        try:
            again = [cli._cell_coincidences(cell) for cell in cells]
        finally:
            sys.setprofile(None)
        assert again == warm and calls == 0
        assert ("pass", "") in warm
        # The hook does see the Fractions of the public wrapper.
        sys.setprofile(profile)
        try:
            K.verify_coincidence(K.all_entries()[0], 1, 1, 2)
        finally:
            sys.setprofile(None)
        assert calls > 0

    def test_excluded_at_reads_the_cell_forms(self):
        e = entry("1D", "sp", 6)
        assert e.excluded_at(1, 2, 2) == "r != m"
        assert e.excluded_at(1, 2, 3) == "r != m + n"
        assert e.excluded_at(F(1, 2), F(3, 2), 2) == "r != m + n"
        assert e.excluded_at(1, 2, 4) is None
        assert entry("2B", "sp", 6).excluded_at(0, 0, 1) is None


class TestFullSweep:
    def test_integer_sweep_never_fails(self):
        passes = skips = 0
        reasons = Counter()
        for e in K.all_entries():
            min_r = K.TARGETS[e.target].min_r
            for n in range(5):
                for m in range(5):
                    for r in range(min_r, 5):
                        out = K.verify_coincidence(e, n, m, r)
                        assert out.status != "fail", (e.name, n, m, r)
                        if out.status == "pass":
                            passes += 1
                        else:
                            skips += 1
                            fired = out.reason.startswith("exclusion ")
                            reasons["exclusion" if fired else out.reason] += 1
        # Frozen from the first verified sweep; a semantics drift in the
        # skip conditions would show up as a count change.
        assert passes == 3663
        assert skips == 837
        assert reasons == {
            "source curve formulas are undefined at psi": 495,
            "exclusion": 236,
            "the displayed psi formula has a pole here": 106,
        }


class TestCurveMemo:
    def test_int_and_fraction_share_an_entry(self):
        # The build's one memo entry holds the curve, whichever key asks.
        C._cleared.cache_clear()
        curve = C.phi_family("2B", 0, 1)
        assert curve is C.phi_family("2B", F(0), F(1)) is C._cleared("2B", 0, 1)._curve
        info = C._cleared.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_one_build_per_distinct_curve(self):
        # A cell reads its source curve once the displayed formulas have
        # no pole, and its target curve once the source is on its domain.
        C._cleared.cache_clear()
        curves = set()
        reads = compared = 0
        for e in K.all_entries():
            rule = K.TARGETS[e.target]
            for n in range(2):
                for m in range(2):
                    for r in range(rule.min_r, 3):
                        out = K.verify_coincidence(e, n, m, r)
                        if out.psi1 is None:
                            continue
                        read = [(e.source, n, m)]
                        if out.reason != "source curve formulas are undefined at psi":
                            read.append((rule.tag, 0, rule.m_of(r)))
                        curves.update(read)
                        reads += len(read)
                        compared += out.source_values is not None
        info = C._cleared.cache_info()
        assert compared > 0
        assert info.misses == len(curves)
        assert info.hits + info.misses == reads

    def test_int_and_fraction_arguments_agree(self):
        e = entry("2B", "sp", 6)
        assert K.verify_coincidence(e, F(2), F(1), F(1)) == K.verify_coincidence(e, 2, 1, 1)
        for e in K.all_entries():
            r = K.TARGETS[e.target].min_r + 1
            assert K.verify_coincidence(e, F(1), F(2), F(r)) == K.verify_coincidence(e, 1, 2, r)

    def test_default_sweep_reduces_no_psi_pair(self, capsys, monkeypatch):
        # Each cell hands its summed psi pairs to the curves unreduced, and
        # a pole is where c p + d q = 0 for the map's row (c, d): a cold
        # default sweep runs no gcd of the catalog module.
        calls = []
        monkeypatch.setattr(K, "gcd", lambda *args: calls.append(args) or gcd(*args))
        monkeypatch.delenv("HOOKW_WORKERS", raising=False)
        C._cleared.cache_clear()
        assert cli.main(["verify", "coincidences"]) == 0
        assert "passed: 3663  skipped: 1137  failed: 0" in capsys.readouterr().out
        assert calls == []

    def test_default_sweep_builds_each_curve_once(self, capsys, monkeypatch):
        # The sweep keys the memo by ints; Fraction arguments afterwards
        # find the same entries, so no curve is built twice, and the
        # sweep reads the builds' cleared lists directly: no entry makes
        # its curve, and no cell searches a root or reduces a pair, by any
        # binding of rational_roots or _int_list_quotient in the package.
        builds = []

        class Recorded(C._Build):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                builds.append(self)

        calls = Counter()
        for module in (E, C, K, cli):
            for name in ("rational_roots", "_int_list_quotient"):
                if hasattr(module, name):

                    def counted(*args, _name=name, _real=getattr(module, name)):
                        calls[_name] += 1
                        return _real(*args)

                    monkeypatch.setattr(module, name, counted)
        monkeypatch.delenv("HOOKW_WORKERS", raising=False)
        monkeypatch.setattr(C, "_Build", Recorded)
        C._cleared.cache_clear()
        assert cli.main(["verify", "coincidences", "--json"]) == 0
        capsys.readouterr()
        assert C._cleared.cache_info().currsize == len(builds) == 103
        assert calls == Counter()
        assert all(b._curve is None for b in builds)
        for e in K.all_entries():
            K.verify_coincidence(e, F(1), F(2), F(K.TARGETS[e.target].min_r))
        assert C._cleared.cache_info().currsize == len(builds) == 103
        assert all(b._curve is None for b in builds)
        C._cleared.cache_clear()


def _composed_oracle(e, curves):
    """The entry as a trivariate identity by composing both curves.

    Each curve component is composed with its displayed psi formula as a
    cleared polynomial pair (``compose_cleared``) and the two pairs are
    compared by cross-multiplication: an independent check of the orbit
    certificate.  ``curves`` memoizes the symbolic curves, a source by its
    family and a target by its kind.
    """
    rule = K.TARGETS[e.target]
    if e.source not in curves:
        curves[e.source] = C.phi_family(e.source, N, M)
    if e.target not in curves:
        curves[e.target] = C.phi_family(rule.tag, 0, rule.m_expr)
    src, tgt = curves[e.source], curves[e.target]
    for a, b in ((src.c, tgt.c), (src.lam, tgt.lam)):
        na, da = C.compose_cleared(a, e.psi)
        nb, db = C.compose_cleared(b, e.s + rule.shift)
        if da.is_zero() or db.is_zero():
            return False
        if not (na * db - nb * da).is_zero():
            return False
    return True


class TestSymbolicSweep:
    @pytest.mark.parametrize("idx", range(48))
    def test_trivariate_identity(self, idx):
        e = K.all_entries()[idx]
        assert K.verify_coincidence_symbolic(e), e.name

    @pytest.mark.parametrize("idx", range(48))
    def test_symbolic_check_rejects_tampering(self, idx):
        # Negative controls: with psi or s perturbed, no map of the orbit
        # takes the source's point to the target's.
        e = K.all_entries()[idx]
        assert not K.verify_coincidence_symbolic(replace(e, psi=e.psi + R / 1000)), e.name
        assert not K.verify_coincidence_symbolic(replace(e, s=e.s + 1)), e.name

    def test_certification_runs_no_gcd(self, monkeypatch):
        # The 48 verdicts and the entries' term rows are built on
        # uncanonicalized quotients: with the dict-ring gcd and the
        # canonicalization refused, fresh entries give the same results.
        entries = K.all_entries()
        C._orbit()

        def certify():
            return [(K.verify_coincidence_symbolic(e), replace(e)._cell_forms) for e in entries]

        want = certify()

        def refused(*args):
            raise AssertionError("a gcd on the certification path")

        monkeypatch.setattr(E, "_int_poly_gcd", refused)
        monkeypatch.setattr(E, "_ratfunc_canonical", refused)
        assert certify() == want
        assert all(verdict for verdict, _ in want)

    def test_each_entry_is_one_map_of_the_orbit(self):
        # Every entry is certified by exactly one of the six maps; each sp
        # table uses all six and each so_even and osp table three, so
        # 4 * (6 + 3 + 3) = 48.
        used = {}
        for e in K.all_entries():
            rule = K.TARGETS[e.target]
            maps = C._orbit_maps(
                C._point(e.source, N, M),
                C._point(rule.tag, 0, rule.m_expr),
                (e.psi, e.s + rule.shift),
            )
            assert len(maps) == 1, e.name
            used.setdefault(e.table, set()).add(maps[0])
        assert {table: len(maps) for table, maps in used.items()} == {
            f"{source}-{target}": 6 if target == "sp" else 3
            for source in K.SOURCE_TAGS
            for target in K.TARGET_KINDS
        }
        assert set.union(*used.values()) == set(C._orbit())

    def test_orbit_certificate_agrees_with_the_composed_oracle(self):
        # The 48 entries, psi + 1 and s -> -s of each, and the two tampered
        # variants of 2C-osp(1): the two checks agree on all 146.  1B and
        # 1D share their route's psi map, so with the source swapped
        # between them only the t-part of the orbit check can refuse an
        # entry: 24 more, all refused by both.
        e = entry("2C", "osp", 1)
        variants = [replace(e, s=e.s + 1), replace(e, psi=e.psi * F(35, 36))]
        for e in K.all_entries():
            variants += [e, replace(e, psi=e.psi + 1), replace(e, s=-e.s)]
        swapped = {"1B": "1D", "1D": "1B"}
        variants += [replace(e, source=swapped[e.source])
                     for e in K.all_entries() if e.source in swapped]
        curves = {}
        verdicts = Counter()
        for v in variants:
            verdict = K.verify_coincidence_symbolic(v)
            assert _composed_oracle(v, curves) == verdict, (v.name, v.psi, v.s)
            verdicts[verdict] += 1
        assert verdicts == {True: 48, False: 122}


class TestOspOsp:
    def test_pinned_pair(self):
        rep = K.verify_osp_osp(1, 2)
        assert rep.passed
        assert rep.c == F(-5, 2)
        assert not rep.degenerate
        assert len(rep.pairs) == 4
        assert (F(0), F(-7, 4)) in {(p.k, p.ell) for p in rep.pairs}

    def test_degenerate_diagonal(self):
        rep = K.verify_osp_osp(1, 1)
        assert rep.passed
        assert rep.c == 0
        assert rep.degenerate

    def test_sweep(self):
        for m in range(1, 5):
            for n in range(1, 5):
                assert K.verify_osp_osp(m, n).passed

    def test_symbolic_charge_display(self):
        n = RatFunc.var("n")
        for m in (1, 2, 3):
            c_curve = L.central_charge(fam("2B", 0, m))
            display = -((1 + 2 * m) * (1 + 2 * n) * (2 * m * n - m - n)) / (
                2 * (m + n)
            )
            for psi in ((m + n) / (2 * m), RatFunc.const(F(m)) / (2 * (m + n))):
                assert c_curve.substitute("psi", psi) == display

    def test_validation(self):
        with pytest.raises(ValueError):
            K.verify_osp_osp(0, 0)
        with pytest.raises(ValueError):
            K.verify_osp_osp(0, 2)


class TestRationalPoints:
    def test_osp_principal_pinned(self):
        ws = K.rational_points(fam("2B", 0, 1), r_bound=1, pq_bound=1)
        by_tag = {w.theorem: w for w in ws}
        w = by_tag["osp-principal-1"]
        assert w.psi == F(1, 8)
        assert w.conditions == ("gcd(2,3)=1",)
        assert w.partner_algebra == "sp(2)"
        assert w.partner_s == F(-13, 8)
        assert by_tag["osp-principal-2"].psi == F(3, 10)
        assert by_tag["osp-so-dual"].psi == F(1, 3)

    def test_witness_json_schema(self):
        ws = K.rational_points(fam("2B", 0, 1), r_bound=1, pq_bound=1)
        w = next(w for w in ws if w.theorem == "osp-principal-1")
        assert K.witness_json(w) == {
            "family": "2B",
            "n": 0,
            "m": 1,
            "psi": "1/8",
            "theorem": "osp-principal-1",
            "conditions": ["gcd(2,3)=1"],
            "partner": {"algebra": "sp(2)", "s": "-13/8"},
            "status": "certified",
        }

    def test_coprimality_gating(self):
        # m = 2, r = 1: gcd(m+r, 1+2r) = 3, so the first principal
        # witness is absent while the second survives.
        tags = [w.theorem for w in K.rational_points(fam("2B", 0, 2), r_bound=1)]
        assert "osp-principal-1" not in tags
        assert "osp-principal-2" in tags

    def test_osp12_pairs_only_at_m1(self):
        ws = K.rational_points(fam("2B", 0, 1), r_bound=1, pq_bound=3)
        pairs = [w for w in ws if w.theorem == "osp12-pair"]
        assert pairs and all(w.partner_algebra == "sp(2)" for w in pairs)
        # a = -2 + p/q; the two displayed psi values per (p, q)
        w32 = [w for w in pairs if dict(w.aux) == {"p": 3, "q": 2}]
        assert sorted(w.psi for w in w32) == [F(3, 14), F(7, 6)]
        assert all(w.partner_s == F(-1, 2) for w in w32)
        ws2 = K.rational_points(fam("2B", 0, 2), r_bound=1, pq_bound=3)
        assert not [w for w in ws2 if w.theorem == "osp12-pair"]

    def test_subregular_pinned(self):
        ws = K.rational_points(fam("1D", 1, 1), r_bound=1)
        by_tag = {w.theorem: w for w in ws}
        assert by_tag["subregB-1"].psi == F(7, 4)
        assert by_tag["subregB-1"].partner_s == F(-5, 6)
        assert by_tag["subregB-3"].psi == F(5, 3)
        assert by_tag["subregB-osp1"].psi == 2
        assert by_tag["subregB-osp1"].partner_s == F(-1, 2)
        # the m >= 2 gate for the fourth statement
        assert "subregB-osp1-dual" not in by_tag
        ws2 = {w.theorem: w for w in K.rational_points(fam("1D", 1, 2), r_bound=1)}
        assert ws2["subregB-osp1-dual"].psi == F(4, 3)

    def test_subregular_duals(self):
        # 2D(1, m+1) carries the psi -> 1/(2 psi) partners of 1D(1, m).
        direct = {w.theorem: w for w in K.rational_points(fam("1D", 1, 1), r_bound=1)}
        dual = {w.theorem: w for w in K.rational_points(fam("2D", 1, 2), r_bound=1)}
        assert dual["subregB-2"].psi == 1 / (2 * direct["subregB-1"].psi)
        assert dual["subregB-2"].partner_s == direct["subregB-1"].partner_s
        assert dual["subregB-4"].psi == 1 / (2 * direct["subregB-3"].psi)
        assert dual["subregB-osp1"].psi == 1 / (2 * direct["subregB-osp1"].psi)
        assert dual["subregB-2"].psi == F(2, 7)

    def test_minimal_type_c_pinned(self):
        ws = K.rational_points(fam("2C", 1, 1), r_bound=2)
        w = next(w for w in ws if dict(w.aux)["r"] == 2)
        assert w.theorem == "minC"
        assert w.psi == F(9, 2)
        assert w.partner_algebra == "sp(4)"
        assert w.partner_s == -3 + F(4, 9)

    def test_affine_osp_pinned(self):
        ws = K.rational_points(fam("1C", 1, 0), r_bound=2)
        w = ws[0]
        assert w.theorem == "osp-affine"
        assert w.psi == -5
        assert w.partner_algebra == "sp(2)"
        assert w.partner_s == F(-7, 5)

    def test_conjectural_gating(self):
        plain = K.rational_points(fam("2B", 0, 2), r_bound=2, pq_bound=6)
        assert all(w.status == "certified" for w in plain)
        full = K.rational_points(
            fam("2B", 0, 2), r_bound=2, pq_bound=6, include_conjectural=True
        )
        conj = [w for w in full if w.status == "conjectural"]
        assert conj and all(w.theorem == "conj-osp-coset" for w in conj)
        assert all(w.partner_algebra is None for w in conj)
        # parity-dependent lower bound: q odd needs p >= 2m-1, q even p >= 2m
        assert all(
            dict(w.aux)["p"] >= (3 if dict(w.aux)["q"] % 2 else 4) for w in conj
        )
        sub = K.rational_points(
            fam("1D", 1, 3), r_bound=2, include_conjectural=True
        )
        tags = [w.theorem for w in sub if w.status == "conjectural"]
        assert tags == ["conj-subregB", "conj-subregB"]

    def test_uncatalogued_family_rejected(self):
        for bad in (fam("2O", 1, 1), fam("2B", 1, 1), fam("1D", 0, 1),
                    fam("2C", 1, 2), fam("1C", 1, 1), fam("2D", 1, 1)):
            with pytest.raises(ValueError):
                K.rational_points(bad)

    def test_idempotent_certification(self):
        for f in (fam("2B", 0, 1), fam("1D", 1, 2), fam("2C", 2, 1),
                  fam("1C", 2, 0), fam("2D", 1, 3)):
            for w in K.rational_points(f, r_bound=3, pq_bound=4):
                assert K.check_witness(w), w
        conj = K.rational_points(
            fam("2B", 0, 1), r_bound=2, pq_bound=3, include_conjectural=True
        )
        for w in conj:
            assert K.check_witness(w), w

    def test_check_witness_sizes_each_bound_from_its_own_aux(self, monkeypatch):
        # A rank-200 witness re-derives the ranks up to 200 but only the
        # floor of 4 for the p, q pairs.
        (w,) = [x for x in K.rational_points(fam("2B", 0, 1), r_bound=200, pq_bound=2)
                if dict(x.aux).get("r") == 200 and x.theorem == "osp-principal-1"]
        bounds = []
        real = K.rational_points

        def recording(f, **kwargs):
            bounds.append((kwargs["r_bound"], kwargs["pq_bound"]))
            return real(f, **kwargs)

        monkeypatch.setattr(K, "rational_points", recording)
        assert K.check_witness(w)
        assert not K.check_witness(replace(w, psi=w.psi + 1))
        assert bounds == [(200, 4), (200, 4)]

    def test_witnesses_lie_on_catalogued_coincidences(self):
        # Each certified witness with a W-algebra partner reproduces an
        # exact curve-value match at (psi, partner psi), read through the
        # partner's target rule alone, over every catalogued shape.  An
        # so(2) partner at r = 1 is below the rule's min_r: counted, not
        # passed.
        verdicts, on_curve, below = Counter(), Counter(), Counter()
        for f in _WITNESS_GRID:
            src = C.phi(f)
            for w in K.rational_points(f, r_bound=9, pq_bound=9):
                if w.partner_algebra is None or w.theorem == "osp12-pair":
                    # osp12-pair's partner level is a diagonal affine
                    # level, not a point on a catalogued truncation curve.
                    continue
                alg = K.parse_algebra(w.partner_algebra)
                rule = K.TARGETS[alg.kind]
                r = (alg.size or alg.even) // 2
                if r < rule.min_r:
                    below[w.theorem] += 1
                    continue
                try:
                    psi2 = rule.psi_of_s(w.partner_s, r)
                    on = src.values(w.psi) == rule.curve(r).values(psi2)
                except PoleError:
                    verdicts["pole"] += 1
                    continue
                verdicts["on" if on else "off"] += 1
                on_curve[w.theorem] += on
        assert verdicts == {"on": 608}
        assert below == {"osp-so-dual": 9, "subregB-3": 9, "subregB-4": 9}
        assert on_curve == {
            "minC": 63, "osp-affine": 63, "osp-principal-1": 65,
            "osp-principal-2": 69, "osp-so-dual": 60, "subregB-1": 67,
            "subregB-2": 67, "subregB-3": 60, "subregB-4": 60,
            "subregB-osp1": 18, "subregB-osp1-dual": 16,
        }

    def test_output_is_pinned(self):
        # The sha256 of every witness's JSON with its aux, conjectural
        # points off and on, over the catalogued shapes.
        lines = [
            json.dumps({**K.witness_json(w), "aux": dict(w.aux)}, sort_keys=True)
            for conjectural in (False, True)
            for f in _WITNESS_GRID
            for w in K.rational_points(
                f, r_bound=12, pq_bound=9, include_conjectural=conjectural
            )
        ]
        assert len(lines) == 2152
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "2281d22eb03cdda430380fd32c3e7ba766ac519622c6c28b83991481e4c24bbb"


# Every catalogued witness shape: 2B(0, m), 1D(1, m), 2D(1, m + 1), 2C(n, 1), 1C(n, 0).
_WITNESS_GRID = (
    [fam("2B", 0, m) for m in range(1, 10)]
    + [fam("1D", 1, m) for m in range(1, 10)]
    + [fam("2D", 1, m) for m in range(2, 11)]
    + [fam("2C", n, 1) for n in range(1, 8)]
    + [fam("1C", n, 0) for n in range(1, 8)]
)


class TestGTFactors:
    def test_type_c_pinned(self):
        factors = K.gelfand_tsetlin_factors("C", 1, 1)
        assert len(factors) == 1
        f = factors[0]
        assert f.levels == (F(-7, 5), F(-8, 5))
        assert f.algebra == "sp(2)"
        assert not f.orbifold
        assert f.tag == "gt-C"

    def test_bd_chains_pinned(self):
        d13 = K.gelfand_tsetlin_factors("D", 1, 3)
        assert [f.label for f in d13] == ["H", "D_3(1)", "E_3(1)"]
        assert d13[1].algebra == "osp(1|2)" and d13[1].orbifold
        assert d13[1].levels == (F(-3, 2) + F(2, 3),)
        assert d13[2].levels == (F(-3, 2) + F(2, 5),)
        b12 = K.gelfand_tsetlin_factors("B", 1, 2)
        assert [f.label for f in b12] == ["H", "D_2(1)"]
        assert b12[1].algebra == "so(2)"
        assert b12[1].levels == (F(2, 3),)
        assert b12[1].tag == "gt-BD-even"
        assert d13[1].tag == "gt-BD-odd"

    def test_chain_lengths(self):
        for n in range(1, 5):
            assert len(K.gelfand_tsetlin_factors("D", n, 2)) == 2 * n + 1
            assert len(K.gelfand_tsetlin_factors("B", n, 2)) == 2 * n
            assert len(K.gelfand_tsetlin_factors("C", n, 2)) == n

    def test_first_factor_matches_diagonal_coset_level(self):
        for n in range(1, 6):
            for k in range(1, 6):
                ell1 = K.gelfand_tsetlin_factors("C", n, k)[0].levels[0]
                assert ell1 == -(k + 1) + F(1 + n + k, 1 + 2 * n + 2 * k)

    def test_factors_lie_on_the_curves(self):
        # Each factor's member and psi come from Lie data alone: D_k(j) is
        # 1D(j, 0) and E_k(j) is 1B(j, 0) at level k, ell_i is 2C(n-i+1, 0)
        # at level k and s_i the minimal 2C(n-i, 1) at level k - 1/2, with
        # psi = level + h^vee(g).  The partner is read from the factor's
        # algebra and level alone.  A partner below min_r or a point off
        # the generic domain is counted, never passed.
        n = 8
        verdicts = Counter()
        for k in range(1, 9):
            for f in K.gelfand_tsetlin_factors("D", n, k):
                if f.kind != "H":
                    member = fam("1D" if f.kind == "D" else "1B", f.index, 0)
                    verdict = self._verdict(member, F(k), f.algebra, f.levels[0])
                    verdicts[f.kind, f.tag, verdict] += 1
            for f in K.gelfand_tsetlin_factors("C", n, k):
                ell, s = f.levels
                member = fam("2C", n - f.index + 1, 0)
                verdicts["ell", self._verdict(member, F(k), f.algebra, ell)] += 1
                member = fam("2C", n - f.index, 1)
                verdicts["s", self._verdict(member, k - F(1, 2), f.algebra, s)] += 1
        assert verdicts == {
            ("D", "gt-BD-even", "on"): 24, ("D", "gt-BD-even", "below"): 8,
            ("E", "gt-BD-even", "on"): 24, ("E", "gt-BD-even", "below"): 8,
            ("D", "gt-BD-odd", "on"): 24, ("D", "gt-BD-odd", "below"): 8,
            ("E", "gt-BD-odd", "on"): 24, ("E", "gt-BD-odd", "below"): 8,
            ("ell", "on"): 64,
            ("s", "on"): 63, ("s", "domain"): 1,
        }

    @staticmethod
    def _verdict(member, level, algebra, s):
        psi = level + L.dual_coxeter(L.ambient_algebra(member))
        alg = K.parse_algebra(algebra)
        rule = K.TARGETS[alg.kind]
        r = (alg.size or alg.even) // 2
        if r < rule.min_r:
            return "below"
        psi2 = rule.psi_of_s(s, r)
        if not (
            C.on_generic_domain(member, member.n, member.m, psi)
            and C.on_generic_domain(rule.tag, 0, rule.m_of(r), psi2)
        ):
            return "domain"
        try:
            on = C.phi(member).values(psi) == rule.curve(r).values(psi2)
        except PoleError:
            return "pole"
        return "on" if on else "off"

    def test_validation(self):
        with pytest.raises(ValueError):
            K.gelfand_tsetlin_factors("A", 1, 1)
        with pytest.raises(ValueError):
            K.gelfand_tsetlin_factors("C", 0, 1)

    def test_json_shape(self):
        f = K.gelfand_tsetlin_factors("C", 1, 1)[0]
        assert K.gt_factor_json(f) == {
            "series": "C",
            "kind": "pair",
            "label": "F_1(1)",
            "algebra": "sp(2)",
            "orbifold": False,
            "levels": ["-7/5", "-8/5"],
            "tag": "gt-C",
        }


class TestAdmissibility:
    def test_pinned_examples(self):
        assert K.is_admissible_nondegenerate("sp(2)", -2 + F(3, 8)) == "yes"
        assert K.is_admissible_nondegenerate("sp(2)", -2 + F(3, 6)) == "no"
        # so(4): k + h^vee = 22/7 + 2 = 36/7, p = 36 >= 2 and q = 7 >= h = 2.
        assert K.is_admissible_nondegenerate("so(4)", F(22, 7)) == "yes"

    def test_so_odd_from_the_criterion(self):
        # so(5): h^vee = 3, h = 4, r^vee = 2, ^L g = sp(4) with h^vee = 3.
        # 0 -> 3/1 fails q >= 4; -7/5 -> 8/5 holds; 1/3 -> 10/3 fails q >= 4.
        for s, answer in ((F(0), "no"), (F(-7, 5), "yes"), (F(1, 3), "no")):
            assert K.is_admissible_nondegenerate("so(5)", s) == answer, s

    def test_low_rank_isomorphisms_and_the_sl2_rule(self):
        # so(3) = sp(2) = sl2 with the so(3) level doubled, and so(5) = sp(4)
        # at one level; at rank one the answer is the sl2 rule: "yes"
        # exactly when k + 2 = p/q with p >= 2 and q >= 2.
        levels = {F(a, b) for a in range(-40, 80) for b in range(1, 13)}
        assert len(levels) == 896
        for k in levels:
            sp2 = K.is_admissible_nondegenerate("sp(2)", k)
            assert K.is_admissible_nondegenerate("so(3)", k) == K.is_admissible_nondegenerate(
                "sp(2)", 2 * k), k
            assert K.is_admissible_nondegenerate("so(5)", k) == K.is_admissible_nondegenerate(
                "sp(4)", k), k
            p, q = (k + 2).numerator, (k + 2).denominator
            assert sp2 == ("yes" if p >= 2 and q >= 2 else "no"), k

    def test_no_simple_part_is_unknown(self):
        for alg in ("sp(0)", "so(1)", "so(2)"):
            assert K.is_admissible_nondegenerate(alg, F(1, 7)) == "unknown"

    def test_no_requires_a_sound_refutation(self):
        # sp(6): t = 21/12 reduces to 7/4, admissible (p = 7 >= h = 6) but
        # degenerate, as q = 4 < r^vee h^vee(so(7)) = 10.
        assert K.is_admissible_nondegenerate("sp(6)", F(21, 12) - 4) == "no"
        # sp(2): t = 15/6 reduces to 5/2, admissible and nondegenerate.
        assert K.is_admissible_nondegenerate("sp(2)", F(15, 6) - 2) == "yes"

    def test_witness_partners_certified(self):
        for f in (fam("2B", 0, 1), fam("2B", 0, 3), fam("1D", 1, 2)):
            for w in K.rational_points(f, r_bound=4):
                if w.partner_algebra is None or w.theorem == "osp12-pair":
                    continue
                alg = K.parse_algebra(w.partner_algebra)
                if alg.kind == "osp":
                    continue
                if alg.kind == "so_even" and alg.size < 4:
                    continue
                assert K.is_admissible_nondegenerate(alg, w.partner_s) == "yes", w

    def test_gt_levels_certified(self):
        for n in range(1, 4):
            for k in range(1, 4):
                for i, f in enumerate(K.gelfand_tsetlin_factors("C", n, k), 1):
                    ell, s = f.levels
                    assert K.is_admissible_nondegenerate(f"sp({2*k})", ell) == "yes"
                    if n - i >= 1:
                        assert K.is_admissible_nondegenerate(f"sp({2*k})", s) == "yes"

    def test_affine_partner_certified(self):
        for w in K.rational_points(fam("1C", 2, 0), r_bound=3):
            assert K.is_admissible_nondegenerate("sp(4)", w.partner_s) == "yes"

    def test_criterion_reproduces_the_printed_conditions(self, monkeypatch):
        # With the coprimality filter off, every cell of the gcd-conditioned
        # shapes is emitted with its partner level and its printed
        # gcd(a,b)=1 text.  osp12-pair is left out: its printed condition
        # is the admissibility of L_a(sl2) alone, with no q bound.
        monkeypatch.setattr(K, "_coprime", lambda a, b: True)
        agree, differ = 0, set()
        for tag, n in (("2B", 0), ("1D", 1)):
            for m in range(1, 10):
                for w in K.rational_points(fam(tag, n, m), r_bound=9):
                    if w.partner_algebra is None or w.theorem == "osp12-pair":
                        continue
                    alg = K.parse_algebra(w.partner_algebra)
                    if alg.kind == "osp" or str(alg) == "so(2)":
                        continue
                    (condition,) = w.conditions
                    a, b = map(int, condition[4:-3].split(","))
                    printed = gcd(a, b) == 1
                    criterion = K.is_admissible_nondegenerate(alg, w.partner_s)
                    if (criterion == "yes") == printed:
                        agree += 1
                    else:
                        differ.add((w.theorem, m, dict(w.aux)["r"], criterion))
        # subregB-1 at r = 1 prints gcd(m + 1, 3) = 1, but at m = 2, 5, 8
        # the reduced sp(2) level is admissible and nondegenerate.
        assert agree == 384
        assert differ == {("subregB-1", m, 1, "yes") for m in (2, 5, 8)}

    def test_osp_rejected(self):
        with pytest.raises(ValueError):
            K.is_admissible_nondegenerate("osp(1|2)", F(0))

    def test_parse_algebra(self):
        assert K.parse_algebra("sp(4)").kind == "sp"
        assert K.parse_algebra("so(7)").kind == "so_odd"
        assert K.parse_algebra("osp(1|6)").even == 6
        with pytest.raises(ValueError):
            K.parse_algebra("e8")


class TestIntersectionOracle:
    """Certified appendix points are recovered by resultant elimination."""

    @pytest.mark.parametrize("n,m", [(0, 1), (0, 2), (1, 1), (1, 2)])
    def test_2B_grid(self, n, m):
        src = C.phi_family("2B", n, m)
        for kind in K.TARGET_KINDS:
            rule = K.TARGETS[kind]
            for r in (1, 2):
                if r < rule.min_r:
                    continue
                tgt = C.phi_family(rule.tag, 0, rule.m_of(r))
                rep = C.intersect(src, tgt)
                points = {(p.psi1, p.psi2) for p in rep.points}
                for e in K.coincidence_table("2B", kind):
                    out = K.verify_coincidence(e, n, m, r)
                    if out.status != "pass" or out.degenerate:
                        continue
                    pair = (out.psi1, out.psi2)
                    assert pair in points or rep.identity_component, (
                        e.name, n, m, r, pair,
                    )
