from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hookw import liedata as L
from hookw import spectra as S


F = Fraction


def fam(tag, n, m):
    return L.HookFamily.from_tag(tag, n, m)


def coprime_triples(n_max=4, v_max=6, u_max=12):
    for n in range(1, n_max + 1):
        for v in range(1, v_max + 1):
            for u in range(n + 1, u_max + 1):
                if gcd(u, v) == 1:
                    yield n, u, v


class TestRootSystemData:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_so_odd_product_table(self, n):
        rs = S.root_system("so_odd", n)
        assert rs.inner(rs.rho, rs.coroot(rs.theta)) == 2 * n - 2
        assert rs.inner(rs.rho_check, rs.theta) == 2 * n - 1
        assert rs.inner(rs.rho, rs.coroot(rs.theta_s)) == 2 * n - 1
        assert rs.inner(rs.rho_check, rs.theta_s) == n

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sp_product_table(self, n):
        rs = S.root_system("sp", n)
        assert rs.inner(rs.rho, rs.coroot(rs.theta)) == n
        assert rs.inner(rs.rho_check, rs.theta) == 2 * n - 1
        assert rs.inner(rs.rho, rs.coroot(rs.theta_s)) == 2 * n - 1
        assert rs.inner(rs.rho_check, rs.theta_s) == 2 * n - 2

    @pytest.mark.parametrize("kind", ["so_odd", "sp"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_root_lengths(self, kind, n):
        rs = S.root_system(kind, n)
        assert rs.inner(rs.theta, rs.theta) == 2
        assert rs.inner(rs.theta_s, rs.theta_s) == 1
        assert rs.coroot(rs.coroot(rs.theta)) == rs.theta
        assert rs.coroot(rs.coroot(rs.theta_s)) == rs.theta_s

    @pytest.mark.parametrize("n", range(1, 7))
    def test_constants(self, n):
        so = S.root_system("so_odd", n)
        sp = S.root_system("sp", n)
        assert so.lacity == sp.lacity == 2
        assert so.coxeter == sp.coxeter == 2 * n
        assert so.dual_coxeter == 2 * n - 1
        assert sp.dual_coxeter == n + 1
        assert so.dual_coxeter == L.dual_coxeter(L.AlgebraDesc.so(2 * n + 1))
        assert sp.dual_coxeter == L.dual_coxeter(L.AlgebraDesc.sp(2 * n))
        # so(2n+1) and sp(2n) are each other's Langlands dual.
        for rs, dual, alg in (
            (so, sp, L.AlgebraDesc.so(2 * n + 1)),
            (sp, so, L.AlgebraDesc.sp(2 * n)),
        ):
            assert rs.coxeter == L.coxeter_number(alg)
            assert rs.lacity == L.lacing_number(alg)
            assert dual.dual_coxeter == L.dual_coxeter(L.langlands_dual(alg))

    @pytest.mark.parametrize("kind", ["so_odd", "sp"])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_simple_roots(self, kind, n):
        rs = S.root_system(kind, n)
        assert len(rs.simple_roots) == n
        # In both families the first n-1 simple roots are short for sp
        # and long for so_{2n+1}; the last one has the other length.
        body = Fraction(2) if kind == "so_odd" else Fraction(1)
        tail = Fraction(1) if kind == "so_odd" else Fraction(2)
        for alpha in rs.simple_roots[:-1]:
            assert rs.inner(alpha, alpha) == body
        last = rs.simple_roots[-1]
        assert rs.inner(last, last) == tail

    def test_validation(self):
        with pytest.raises(ValueError):
            S.root_system("so_even", 2)
        with pytest.raises(ValueError):
            S.root_system("sp", 0)
        with pytest.raises(ValueError):
            S.root_system("sp", Fraction(3, 2))


class TestSingWeightGeneral:
    def test_examples(self):
        assert S.sing_weight_general("sp", S.AFFINE, 1, 3, 1) == 2
        assert S.sing_weight_general("so_odd", S.AFFINE, 2, 4, 2) == 1
        assert S.sing_weight_general("sp", S.PRINCIPAL_W, 2, 5, 3) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            S.sing_weight_general("sp", S.AFFINE, 0, 3, 1)
        with pytest.raises(ValueError):
            S.sing_weight_general("so_even", S.AFFINE, 1, 3, 1)
        with pytest.raises(ValueError):
            S.sing_weight_general("sp", "walgebra", 1, 3, 1)
        with pytest.raises(ValueError):
            S.sing_weight_general("sp", S.AFFINE, 1, 3, 0)
        with pytest.raises(ValueError):
            S.sing_weight_general("sp", S.AFFINE, 1, Fraction(7, 2), 1)


class TestSingWeightClosed:
    def test_examples(self):
        assert S.sing_weight_closed("sp", S.AFFINE, 2, 5, 3) == 9
        assert S.sing_weight_closed("so_odd", S.AFFINE, 2, 5, 2) == 2
        assert S.sing_weight_closed("so_odd", S.PRINCIPAL_W, 1, 3, 3) == 6

    def test_each_branch(self):
        assert S.sing_weight_closed("sp", S.AFFINE, 2, 7, 4) == F(2) * (7 - 3)
        assert S.sing_weight_closed("sp", S.PRINCIPAL_W, 2, 7, 3) == 0
        assert S.sing_weight_closed("sp", S.PRINCIPAL_W, 2, 7, 4) == 0
        assert S.sing_weight_closed("sp", S.PRINCIPAL_W, 2, 7, 6) == 4
        assert S.sing_weight_closed("so_odd", S.AFFINE, 2, 7, 3) == 3 * 5
        assert S.sing_weight_closed("so_odd", S.PRINCIPAL_W, 2, 7, 4) == 0
        assert S.sing_weight_closed("so_odd", S.PRINCIPAL_W, 2, 7, 6) == 4

    def test_validation_shared(self):
        with pytest.raises(ValueError):
            S.sing_weight_closed("sp", "vacuum", 1, 3, 1)
        with pytest.raises(ValueError):
            S.sing_weight_closed("sp", S.AFFINE, 1, 3, -1)


class TestRoutesAgree:
    @pytest.mark.parametrize("alg", ["so_odd", "sp"])
    @pytest.mark.parametrize("obj", [S.AFFINE, S.PRINCIPAL_W])
    def test_sweep(self, alg, obj):
        seen_parities = set()
        for n, u, v in coprime_triples():
            seen_parities.add(v % 2)
            general = S.sing_weight_general(alg, obj, n, u, v)
            closed = S.sing_weight_closed(alg, obj, n, u, v)
            assert general == closed, (alg, obj, n, u, v)
        assert seen_parities == {0, 1}

    @settings(max_examples=80, deadline=None)
    @given(
        alg=st.sampled_from(["so_odd", "sp"]),
        obj=st.sampled_from([S.AFFINE, S.PRINCIPAL_W]),
        n=st.integers(1, 8),
        u=st.integers(1, 60),
        v=st.integers(1, 12),
    )
    def test_random(self, alg, obj, n, u, v):
        # The two routes agree as polynomial identities in (u, v), so no
        # coprimality filter is needed here.
        assert S.sing_weight_general(alg, obj, n, u, v) == S.sing_weight_closed(
            alg, obj, n, u, v
        )


class TestLowRankIsomorphism:
    """so(5) and sp(4) are one Lie algebra, with the same dual Coxeter number
    and lacity, so at the same (u, v) they are one level and give one weight."""

    def test_so5_equals_sp4(self):
        compared = 0
        for u in range(1, 25):
            for v in range(1, 13):
                if gcd(u, v) != 1:
                    continue
                for obj in (S.AFFINE, S.PRINCIPAL_W):
                    for weight in (S.sing_weight_general, S.sing_weight_closed):
                        so5 = weight("so_odd", obj, 2, u, v)
                        assert so5 == weight("sp", obj, 2, u, v), (weight.__name__, obj, u, v)
                        compared += 1
        assert compared == 724


class TestMaxGeneratorWeight:
    def test_examples(self):
        assert S.max_generator_weight(fam("2B", 1, 1)) == 14
        assert S.max_generator_weight(fam("1B", 1, 0)) == 18
        assert S.max_generator_weight(fam("1O", 0, 1)) == 8

    def test_table_at_1_1(self):
        expected = {
            "1B": 26,
            "1C": 6,
            "1D": 16,
            "1O": 18,
            "2B": 14,
            "2C": 10,
            "2D": 10,
            "2O": 22,
        }
        for tag, value in expected.items():
            assert S.max_generator_weight(fam(tag, 1, 1)) == value

    def test_validation(self):
        for tag in L.FAMILY_TAGS:
            with pytest.raises(ValueError):
                S.max_generator_weight(fam(tag, 0, 0))

    def test_positive_even(self):
        for tag in L.FAMILY_TAGS:
            for n in range(0, 6):
                for m in range(0, 6):
                    if n + m < 1:
                        continue
                    w = S.max_generator_weight(fam(tag, n, m))
                    assert isinstance(w, int)
                    assert w > 0 and w % 2 == 0

    def test_triality_invariance(self):
        w = lambda tag, n, m: S.max_generator_weight(fam(tag, n, m))
        for n in range(0, 6):
            for m in range(n, 6):
                if n + m < 1:
                    continue
                assert w("2B", n, m) == w("2O", n, m - n) == w("2B", m, n)
                assert w("1C", n, m) == w("2C", n, m - n) == w("1C", m, n)
                assert w("2D", n, m) == w("1D", n, m - n)
                if n >= 1:
                    assert w("2D", n, m) == w("1O", m, n - 1)
                assert w("1O", n, m) == w("1B", n, m - n) == w("2D", m + 1, n)
