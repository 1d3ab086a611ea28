import hashlib
import json
from fractions import Fraction

import pytest

from hookw import curves as C
from hookw import liedata as L
from hookw.exact import RatFunc


F = Fraction
PSI = RatFunc.var("psi")


def fam(tag, n, m):
    return L.HookFamily.from_tag(tag, n, m)


def case_valid(tag, n, m):
    return n + m >= 1 and not (tag[0] == "2" and m == 0)


class TestAlgebraDesc:
    def test_text(self):
        assert str(L.AlgebraDesc.so(7)) == "so(7)"
        assert str(L.AlgebraDesc.sp(4)) == "sp(4)"
        assert str(L.AlgebraDesc.osp(1, 4, "C")) == "osp(1|4)"

    def test_so_parity_dispatch(self):
        assert L.AlgebraDesc.so(7).kind == "so_odd"
        assert L.AlgebraDesc.so(6).kind == "so_even"
        assert L.AlgebraDesc.so(0).kind == "so_even"

    def test_validation(self):
        with pytest.raises(ValueError):
            L.AlgebraDesc(kind="so_odd", size=4)
        with pytest.raises(ValueError):
            L.AlgebraDesc.sp(3)
        with pytest.raises(ValueError):
            L.AlgebraDesc.osp(1, 3, "C")
        with pytest.raises(ValueError):
            L.AlgebraDesc.osp(1, 4, "X")
        with pytest.raises(ValueError):
            L.AlgebraDesc(kind="gl", size=3)
        with pytest.raises(ValueError):
            L.AlgebraDesc.sp(-2)


class TestDualCoxeter:
    def test_osp_type_c(self):
        assert L.dual_coxeter(L.AlgebraDesc.osp(1, 2, "C")) == F(3, 2)

    def test_sp(self):
        assert L.dual_coxeter(L.AlgebraDesc.sp(4)) == 3

    def test_osp_type_b(self):
        assert L.dual_coxeter(L.AlgebraDesc.osp(3, 0, "B")) == 1

    def test_so(self):
        assert L.dual_coxeter(L.AlgebraDesc.so(7)) == 5
        assert L.dual_coxeter(L.AlgebraDesc.so(6)) == 4

    def test_flag_changes_value(self):
        b = L.dual_coxeter(L.AlgebraDesc.osp(1, 4, "B"))
        c = L.dual_coxeter(L.AlgebraDesc.osp(1, 4, "C"))
        assert b == -5 and c == F(5, 2)


class TestSdim:
    def test_osp_examples(self):
        assert L.sdim(L.AlgebraDesc.osp(1, 2, "C")) == 1
        assert L.sdim(L.AlgebraDesc.osp(3, 2, "B")) == 0

    def test_classical(self):
        assert L.sdim(L.AlgebraDesc.sp(2)) == 3
        assert L.sdim(L.AlgebraDesc.so(7)) == 21
        assert L.sdim(L.AlgebraDesc.so(0)) == 0


class TestGhostCharge:
    def test_values(self):
        assert L.ghost_central_charge(1) == 0
        assert L.ghost_central_charge(2) == F(1, 2)
        assert L.ghost_central_charge(3) == -2

    def test_errors(self):
        with pytest.raises(ValueError):
            L.ghost_central_charge(0)
        with pytest.raises(ValueError):
            L.ghost_central_charge(-3)


class TestHookFamily:
    def test_tag_round_trip(self):
        f = fam("2B", 1, 2)
        assert (f.i, f.x, f.n, f.m) == (2, "B", 1, 2)
        assert f.tag == "2B"

    def test_valid_tags_only(self):
        with pytest.raises(ValueError):
            L.HookFamily.from_tag("3B", 0, 0)
        with pytest.raises(ValueError):
            L.HookFamily.from_tag("1A", 0, 0)
        with pytest.raises(ValueError):
            L.HookFamily(1, "Q", 0, 0)

    def test_public_requires_integers(self):
        with pytest.raises(ValueError):
            L.HookFamily(1, "B", F(1, 2), 0)
        with pytest.raises(ValueError):
            fam("2C", 1, F(3, 2))
        with pytest.raises(ValueError):
            fam("2C", -1, 0)

    def test_equality_and_hash(self):
        assert fam("1C", 2, 3) == fam("1C", 2, 3)
        assert fam("1C", 2, 3) != fam("1D", 2, 3)
        assert len({fam("1C", 2, 3), fam("1C", 2, 3)}) == 1

    def test_immutable(self):
        f = fam("1B", 1, 1)
        with pytest.raises(AttributeError):
            f.n = 2


class TestCentralCharge:
    def test_2b_11_at_one(self):
        c = L.central_charge(fam("2B", 1, 1))
        assert c.eval({"psi": F(1)}) == F(-25, 2)

    def test_trivial_coset_is_zero(self):
        assert L.central_charge(fam("1C", 0, 0)).is_zero()

    def test_constant_values_at_origin(self):
        expected = {
            "1B": F(1), "1C": F(0), "1D": F(0), "1O": F(1),
            "2B": F(1, 2), "2C": F(0), "2D": F(0), "2O": F(1, 2),
        }
        for tag, value in expected.items():
            c = L.central_charge(fam(tag, 0, 0))
            assert c == RatFunc.const(value), tag

    def test_half_integer_parameters_allowed(self):
        # The closed form takes (n, m) off the integer lattice; at this
        # free-field point it is constant, as is the 2B curve's charge.
        c = L.closed_form_charge("2B", F(0), F(1, 2))
        assert c == RatFunc.const(1)
        assert c == C.phi_family("2B", F(0), F(1, 2)).c


class TestAssembledCharge:
    def test_matches_closed_form_on_sweep(self):
        for tag in L.FAMILY_TAGS:
            for n in range(5):
                for m in range(5):
                    if not case_valid(tag, n, m):
                        continue
                    f = fam(tag, n, m)
                    assert L.assemble_central_charge(f) == L.central_charge(f), (
                        tag, n, m)

    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            L.assemble_central_charge(fam("1B", 0, 0))

    def test_rejects_unreduced_2x(self):
        with pytest.raises(ValueError):
            L.assemble_central_charge(fam("2C", 1, 0))
        with pytest.raises(ValueError):
            L.assemble_central_charge(fam("2B", 3, 0))


class TestLevels:
    def test_printed_affine_levels(self):
        n = F(1)
        assert L.affine_level_expr("2B", n) == -2 * PSI - 2 * n + 2
        assert L.affine_level_expr("1C", n) == -PSI / 2 - n - F(1, 2)
        assert L.affine_level_expr("2C", n) == PSI - n - F(3, 2)

    def test_affine_subalgebra_level_uses_family_n(self):
        assert L.affine_subalgebra_level(fam("2B", 2, 5)) == -2 * PSI - 2
        assert L.affine_subalgebra_level(fam("1B", 3, 0)) == PSI - 6

    def test_h_dual_g_table(self):
        n, m = F(1), F(2)
        expected = {
            "1B": 6, "1C": 1, "1D": 5, "1O": 2,
            "2B": F(3, 2), "2C": 4, "2D": 2, "2O": F(7, 2),
        }
        for tag, value in expected.items():
            assert L.h_dual_g(tag, n, m) == value, tag

    def test_h_dual_g_matches_ambient_algebra(self):
        for tag in L.FAMILY_TAGS:
            for n in range(4):
                for m in range(4):
                    f = fam(tag, n, m)
                    assert L.dual_coxeter(L.ambient_algebra(f)) == L.h_dual_g(
                        tag, F(n), F(m)), (tag, n, m)

    def test_ell_cases(self):
        assert L._FAMILY["1B"].ell == "k"
        assert L._FAMILY["1C"].ell == "-k/2"
        assert L._FAMILY["2B"].ell == "-2k"
        ld = L.level_dictionary(fam("1O", 1, 1))
        assert ld.ell_of_k == "-k/2"
        assert ld.ell(F(4)) == -2
        assert L.level_dictionary(fam("2D", 0, 1)).ell(F(3)) == -6

    def test_t_equals_shifted_ell(self):
        # t = ell(k) +/- (d_b - 1) * xi, sign by the pairing parity.
        for tag in L.FAMILY_TAGS:
            dat = L._FAMILY[tag]
            for n in range(5):
                for m in range(5):
                    f = fam(tag, n, m)
                    ld = L.level_dictionary(f)
                    k = PSI - ld.h_dual_g
                    sign = 1 if dat.even_pairing else -1
                    t = ld.ell(k) + sign * (L.d_b(f) - 1) * dat.xi
                    assert t == ld.t_of_psi, (tag, n, m)

    def test_affine_subalgebra_descriptors(self):
        assert L.level_dictionary(fam("1B", 2, 1)).affine_subalgebra == \
            L.AlgebraDesc.so(5)
        assert L.level_dictionary(fam("2C", 2, 1)).affine_subalgebra == \
            L.AlgebraDesc.sp(4)
        assert L.level_dictionary(fam("2O", 2, 1)).affine_subalgebra == \
            L.AlgebraDesc.osp(1, 4, "C")
        assert L.level_dictionary(fam("1D", 2, 1)).affine_subalgebra == \
            L.AlgebraDesc.so(4)


class TestPrincipalChargeCoincidences:
    def test_1c_equals_1d_at_n_zero(self):
        for m in range(7):
            a = L.closed_form_charge("1C", F(0), F(m))
            b = L.closed_form_charge("1D", F(0), F(m))
            assert a == b, m

    def test_2c_equals_2d_at_n_zero(self):
        for m in range(7):
            a = L.closed_form_charge("2C", F(0), F(m))
            b = L.closed_form_charge("2D", F(0), F(m))
            assert a == b, m

    def test_symbolic_m(self):
        m = RatFunc.var("m")
        zero = F(0)
        assert L.closed_form_charge("1C", zero, m) == \
            L.closed_form_charge("1D", zero, m)
        assert L.closed_form_charge("2C", zero, m) == \
            L.closed_form_charge("2D", zero, m)


class TestDescribe:
    def test_principal_2c(self):
        d = L.describe(fam("2C", 0, 3))
        assert d.w_kind == "principal"
        assert d.w_text == "W^{psi-4}(sp(6))"
        assert d.coset_text == d.w_text
        assert not d.orbifold

    def test_subregular_1d(self):
        d = L.describe(fam("1D", 1, 2))
        assert d.w_kind == "subregular"
        assert d.w_text == "W^{psi-5}(so(7), f_subreg)"
        assert d.orbifold
        assert "Com(H(1)," in d.coset_text
        assert any("H(1)" in note for note in d.notes)

    def test_free_fermion_2b(self):
        d = L.describe(fam("2B", 0, 0))
        assert d.w_text == "F(1)"
        assert d.coset_text == "F(1)^Z2"

    def test_orbifold_row_flags(self):
        # B and 2O rows always carry the orbifold; C rows never do;
        # D rows only for n >= 1; the 1O affine row is printed bare.
        assert L.describe(fam("1B", 0, 2)).orbifold
        assert L.describe(fam("1B", 2, 0)).orbifold
        assert L.describe(fam("2B", 2, 2)).orbifold
        assert L.describe(fam("2O", 1, 0)).orbifold
        assert not L.describe(fam("1C", 2, 2)).orbifold
        assert not L.describe(fam("2C", 1, 1)).orbifold
        assert not L.describe(fam("1D", 0, 2)).orbifold
        assert L.describe(fam("1D", 2, 2)).orbifold
        assert not L.describe(fam("2D", 0, 2)).orbifold
        assert L.describe(fam("2D", 3, 1)).orbifold
        assert L.describe(fam("1O", 0, 2)).orbifold
        assert not L.describe(fam("1O", 2, 0)).orbifold
        assert L.describe(fam("1O", 1, 1)).orbifold

    def test_minimal_rows(self):
        d = L.describe(fam("2C", 2, 1))
        assert d.w_kind == "minimal"
        assert d.w_text == "W^{psi-4}(sp(6), f_min)"
        d = L.describe(fam("2O", 1, 1))
        assert d.w_kind == "minimal"
        assert d.w_text == "W^{psi-5/2}(osp(1|4), f_min)"
        d = L.describe(fam("2B", 2, 1))
        assert d.w_kind == "minimal"
        assert d.w_text == "W^{psi+1/2}(osp(5|2), f_min)"

    def test_free_field_tensor_rows(self):
        d = L.describe(fam("2B", 1, 0))
        assert d.w_kind == "affine_free"
        assert d.w_text == "V^{-2*psi-1}(so(3)) (x) F(3)"
        d = L.describe(fam("2C", 2, 0))
        assert d.w_text == "V^{psi-3}(sp(4)) (x) S(2)"
        d = L.describe(fam("2O", 1, 0))
        assert d.w_text == "V^{psi-3/2}(osp(1|2)) (x) S(1) (x) F(1)"

    def test_affine_rows(self):
        d = L.describe(fam("1B", 2, 0))
        assert d.w_kind == "affine"
        assert d.w_text == "V^{psi-4}(so(6))"
        d = L.describe(fam("1C", 2, 0))
        assert d.w_text == "V^{psi+5}(osp(1|4))"

    def test_principal_super_2d(self):
        d = L.describe(fam("2D", 1, 2))
        assert d.w_kind == "principal"
        assert d.w_text == "W^{psi-2}(osp(2|4))"
        assert d.orbifold

    def test_trivial_rows(self):
        for tag in ("1C", "1D", "2C", "2D"):
            d = L.describe(fam(tag, 0, 0))
            assert d.w_kind == "trivial" and d.coset_text == "C"

    def test_heisenberg_rows(self):
        assert L.describe(fam("1B", 0, 0)).coset_text == "H(1)^Z2"
        assert L.describe(fam("1O", 0, 0)).coset_text == "H(1)^Z2"

    def test_generic_rows_name_commutant(self):
        d = L.describe(fam("1B", 2, 2))
        assert d.w_kind == "generic"
        assert d.coset_kind == "commutant"
        assert d.coset_text == "Com(V^{psi-4}(so(5)), W^psi_1B(2,2))^Z2"

    def test_grid_is_pinned(self):
        # Every field of every member, 8 tags x n, m in 0..7, against the
        # sha256 of the hand-written case analysis it replaced.
        rows = {}
        for tag in L.FAMILY_TAGS:
            for n in range(8):
                for m in range(8):
                    d = L.describe(fam(tag, n, m))
                    rows[f"{tag}({n},{m})"] = [
                        d.w_kind, d.w_text, d.coset_kind, d.coset_text,
                        d.orbifold, list(d.notes),
                    ]
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        assert digest == "ffbe94cc7a3e231d6475755b6ad99234f05679fef939be155833b563f7492246"


class TestGeneratorProfile:
    def test_spec_triples(self):
        assert L.generator_profile(fam("2C", 1, 1)) == (
            (F(1), 3), (F(3, 2), 2), (F(2), 1))
        assert L.generator_profile(fam("1B", 0, 1)) == ((F(2), 2),)
        assert L.generator_profile(fam("1C", 1, 0)) == ((F(1), 5),)

    def test_degenerate_corners(self):
        assert L.generator_profile(fam("2B", 0, 0)) == ((F(1, 2), 1),)
        assert L.generator_profile(fam("1B", 0, 0)) == ((F(1), 1),)
        assert L.generator_profile(fam("1C", 0, 0)) == ()

    def test_osp_counts(self):
        # a = osp(1|2): five weight-1 fields; the tail has d_a = 3 fields
        # of weight 2 on top of the single even weight-2 field.
        assert L.generator_profile(fam("1O", 1, 1)) == ((F(1), 5), (F(2), 4))

    def test_text(self):
        assert L.profile_text(L.generator_profile(fam("2C", 1, 1))) == \
            "W(1^3, (3/2)^2, 2)"
        assert L.profile_text(L.generator_profile(fam("1B", 0, 1))) == "W(2^2)"
        assert L.profile_text(L.generator_profile(fam("1C", 1, 0))) == "W(1^5)"
        assert L.profile_text(L.generator_profile(fam("2B", 0, 0))) == "W(1/2)"
