from dataclasses import replace
from fractions import Fraction

import pytest

from hookw import catalog as K
from hookw import curves as C
from hookw import liedata as L
from hookw.exact import RatFunc


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


class TestFullSweep:
    def test_integer_sweep_never_fails(self):
        passes = skips = 0
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
        # Frozen from the first verified sweep; a semantics drift in the
        # skip conditions would show up as a count change.
        assert passes == 3663
        assert skips == 837


class TestCurveMemo:
    def test_int_and_fraction_share_an_entry(self):
        K._curve_at.cache_clear()
        assert K._curve_at("2B", 0, 1) is K._curve_at("2B", F(0), F(1))
        info = K._curve_at.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_one_build_per_distinct_curve(self):
        K._curve_at.cache_clear()
        curves = set()
        compared = 0
        for e in K.all_entries():
            rule = K.TARGETS[e.target]
            for n in range(2):
                for m in range(2):
                    for r in range(rule.min_r, 3):
                        out = K.verify_coincidence(e, n, m, r)
                        if out.source_values is not None:
                            compared += 1
                            curves |= {(e.source, n, m), (rule.tag, 0, rule.m_of(r))}
        info = K._curve_at.cache_info()
        assert compared > 0
        assert info.misses == len(curves)
        assert info.hits + info.misses == 2 * compared


class TestSymbolicSweep:
    @pytest.mark.parametrize("idx", range(48))
    def test_trivariate_identity(self, idx):
        e = K.all_entries()[idx]
        assert K.verify_coincidence_symbolic(e), e.name

    def test_symbolic_check_rejects_tampering(self):
        e = entry("2C", "osp", 1)
        assert not K.verify_coincidence_symbolic(replace(e, s=e.s + 1))
        assert not K.verify_coincidence_symbolic(
            replace(e, psi=e.psi * F(35, 36))
        )


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

    def test_witnesses_lie_on_catalogued_coincidences(self):
        # Each certified witness with a W-algebra partner reproduces an
        # exact curve-value match at (psi, partner psi).
        rules = {"sp": K.TARGETS["sp"], "so": K.TARGETS["so_even"]}
        for f in (fam("2B", 0, 1), fam("2B", 0, 2), fam("1D", 1, 1)):
            src = C.phi(f)
            for w in K.rational_points(f, r_bound=3):
                if w.partner_algebra is None or w.partner_algebra.startswith("osp"):
                    continue
                if w.theorem == "osp12-pair":
                    # Its partner level is a diagonal affine level, not a
                    # point on a catalogued truncation curve.
                    continue
                kind = "sp" if w.partner_algebra.startswith("sp") else "so"
                rule = rules[kind]
                r = dict(w.aux)["r"]
                if r < rule.min_r:
                    continue
                tgt = rule.curve(r)
                psi2 = rule.psi_of_s(w.partner_s, r)
                assert src.c.eval({"psi": w.psi}) == tgt.c.eval({"psi": psi2}), w
                assert src.lam.eval({"psi": w.psi}) == tgt.lam.eval({"psi": psi2}), w


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
        assert K.is_admissible_nondegenerate("so(4)", F(22, 7)) == "unknown"

    def test_so_odd_always_unknown(self):
        for s in (F(0), F(-7, 5), F(1, 3)):
            assert K.is_admissible_nondegenerate("so(5)", s) == "unknown"

    def test_no_requires_a_sound_refutation(self):
        # sp(6): t = 21/12 reduces to 7/4, which is admissible (p = 7 >=
        # h = 6) even though the fixed-denominator display's gcd fails;
        # the answer must not be "no".
        assert K.is_admissible_nondegenerate("sp(6)", F(21, 12) - 4) == "unknown"
        # sp(2): t = 15/6 reduces to admissible 5/2; same remark.
        assert K.is_admissible_nondegenerate("sp(2)", F(15, 6) - 2) == "unknown"

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
