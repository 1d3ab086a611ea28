"""Unit tests for the exact arithmetic kernel."""

from fractions import Fraction
from functools import reduce

import pytest

from hookw import exact as E
from hookw.exact import MultiPoly, RatFunc, UniPoly


PSI = MultiPoly.var("psi")
N = MultiPoly.var("n")
M = MultiPoly.var("m")
P = RatFunc.var("psi")


class TestNormalize:
    def test_common_factor_removed(self):
        f = RatFunc(2 * PSI**2 - 2, 2 * PSI - 2)
        assert f.num == PSI + 1
        assert f.den == 1
        assert f.to_text() == "psi + 1"

    def test_zero_numerator(self):
        f = RatFunc(MultiPoly.zero(), PSI)
        assert f.num.is_zero()
        assert f.den == 1

    def test_sign_pushed_to_numerator(self):
        f = RatFunc(-PSI, -2 * PSI + 1)
        assert f.to_text() == "psi/(2*psi - 1)"
        assert f.den.leading_coefficient() > 0

    def test_zero_denominator_rejected(self):
        with pytest.raises(E.ZeroDenominatorError):
            RatFunc(PSI, MultiPoly.zero())

    def test_idempotent(self):
        f = RatFunc(6 * PSI**2 * N - 6 * N, 3 * PSI * N - 3 * N)
        again = RatFunc(f.num, f.den)
        assert f == again

    def test_scale_invariance(self):
        a = 5 * PSI * M - 7
        p = PSI**2 - N
        q = 2 * PSI + N
        assert RatFunc(a * p, a * q) == RatFunc(p, q)

    def test_content_coprime_but_not_integer_primitive_pair(self):
        # psi/2 keeps a constant denominator: contents 1 and 2 are coprime.
        f = RatFunc(PSI, 2)
        assert f.num == PSI
        assert f.den == 2
        f = RatFunc(MultiPoly.const(Fraction(3, 2)) * PSI, MultiPoly.one())
        assert f.num == 3 * PSI
        assert f.den == 2


class TestArithmetic:
    def test_field_ops_small(self):
        a = P / (P - 1)
        b = (P + 1) / P
        s = a + b
        assert s == RatFunc(PSI * PSI + (PSI + 1) * (PSI - 1), PSI * (PSI - 1))
        assert a * b == RatFunc(PSI + 1, PSI - 1)
        assert a - a == 0
        assert (a / b) * b == a

    def test_pow(self):
        f = (P + 1) / (2 * P)
        assert f**0 == 1
        assert f**3 == f * f * f
        assert f**-2 == 1 / (f * f)

    def test_inverse_of_zero(self):
        with pytest.raises(E.ZeroDenominatorError):
            RatFunc.zero().inverse()
        with pytest.raises(E.ZeroDenominatorError):
            P / RatFunc.zero()

    def test_cancellation_through_product(self):
        b = PSI**2 + 3 * N - 1
        f = RatFunc((PSI + N) * b, (PSI - N) * b)
        assert f == RatFunc(PSI + N, PSI - N)


class TestSubstitute:
    def test_var_into_var(self):
        g = 1 / (4 * P)
        assert P.substitute("psi", g) == g

    def test_involution(self):
        assert (1 / P).substitute("psi", 1 / P) == P

    def test_self_composition_of_mobius(self):
        # (psi/(2 psi - 1)) composed with itself: hand expansion gives
        # (psi/(2 psi - 1)) / (2 psi/(2 psi - 1) - 1) = psi / (2 psi - (2 psi - 1)).
        h = P / (2 * P - 1)
        assert h.substitute("psi", h) == P

    def test_identically_zero_denominator(self):
        with pytest.raises(E.ZeroDenominatorError):
            (1 / P).substitute("psi", RatFunc.zero())

    def test_unknown_variable(self):
        with pytest.raises(E.UnknownVariableError):
            P.substitute("zeta", P)

    def test_specialize_takes_no_limit(self):
        # r/(n + r) at n = r = 0: one variable at a time would cancel r and
        # reach 1; the one-pass specialization reports the vanishing
        # denominator instead.
        f = RatFunc(MultiPoly.var("r"), N + MultiPoly.var("r"))
        assert f.substitute("n", 0).substitute("r", 0) == 1
        with pytest.raises(E.ZeroDenominatorError):
            f.specialize({"n": 0, "r": 0})
        assert f.specialize({"n": 1, "r": Fraction(1, 2)}) == Fraction(1, 3)
        assert f.specialize({"n": 2}) == RatFunc(MultiPoly.var("r"), MultiPoly.var("r") + 2)

    def test_specialize_takes_every_exact_value(self):
        # A MultiPoly, a RatFunc and a scalar at once; an entry that maps a
        # variable to itself substitutes nothing.
        f = RatFunc(PSI + N, PSI - M)
        got = f.specialize({"psi": 2 * N, "n": RatFunc.var("n"), "m": Fraction(1, 2)})
        assert got == RatFunc(3 * N, 2 * N - Fraction(1, 2))
        assert f.specialize({"n": N, "m": RatFunc.var("m")}) is f
        with pytest.raises(E.ExactError):
            f.specialize({"psi": 0.5})


class TestEval:
    def test_simple(self):
        f = (P + 1) / (P - 1)
        assert f.eval({"psi": 3}) == 2

    def test_pole(self):
        with pytest.raises(E.PoleError):
            (1 / (2 * P - 1)).eval({"psi": Fraction(1, 2)})

    def test_missing_variable_is_distinct(self):
        f = 1 / (2 * P - 1)
        with pytest.raises(E.MissingVariableError):
            f.eval({})
        # Having psi but not n is the missing-variable error as well.
        g = P + RatFunc.var("n")
        with pytest.raises(E.MissingVariableError):
            g.eval({"psi": 0})

    def test_extra_assignments_allowed(self):
        assert (P + 1).eval({"psi": 1, "n": 99}) == 2


class TestResultant:
    def test_linear_pair(self):
        assert E.resultant(PSI**2 - 2, PSI - N, "psi") == N**2 - 2

    def test_self_resultant_vanishes(self):
        p = PSI**2 - 2
        assert E.resultant(p, p, "psi").is_zero()

    def test_elimination_example(self):
        p1 = MultiPoly.var("psi1")
        p2 = MultiPoly.var("psi2")
        res = E.resultant(p1 - 2 * p2, p1 * p2 - 1, "psi1")
        assert res == 2 * p2**2 - 1

    def test_degree_zero_rejected(self):
        with pytest.raises(E.DegreeError):
            E.resultant(PSI + 1, MultiPoly.const(3), "psi")
        with pytest.raises(E.DegreeError):
            E.resultant(N + 1, PSI + 1, "psi")

    def test_rational_coefficients_scaled_exactly(self):
        # res(c*f, g) = c^deg(g) * res(f, g).
        f = PSI**2 - 2
        g = PSI - N
        lhs = E.resultant(MultiPoly.const(Fraction(1, 3)) * f, g, "psi")
        assert lhs == MultiPoly.const(Fraction(1, 3)) * (N**2 - 2)

    def test_planted_common_factor(self):
        common = PSI - 3 * N
        p = common * (PSI + 1)
        q = common * (PSI**2 + N)
        assert E.resultant(p, q, "psi").is_zero()

    def test_swap_sign_rule(self):
        p = PSI**2 + N * PSI + 1
        q = PSI**3 - N
        ab = E.resultant(p, q, "psi")
        ba = E.resultant(q, p, "psi")
        sign = (-1) ** (3 * 2)
        assert ba == MultiPoly.const(sign) * ab


def uni(*factors):
    """The UniPoly in psi of a product of integer coefficient lists (low to high)."""
    return UniPoly("psi", reduce(E._int_list_mul, factors, [1]))


class TestRationalRoots:
    def test_quadratic(self):
        assert E.rational_roots(uni([1, -3, 2])) == {
            Fraction(1),
            Fraction(1, 2),
        }

    def test_no_rational_roots(self):
        assert E.rational_roots(uni([1, 0, 1])) == set()

    def test_cubic_with_irrational_pair(self):
        assert E.rational_roots(uni([-1, 0, 0, 8])) == {Fraction(1, 2)}

    def test_zero_root_and_multiplicity(self):
        p = uni([0, 0, 1], [-2, 1], [-2, 1], [1, 3])
        assert E.rational_roots(p) == {Fraction(0), Fraction(2), Fraction(-1, 3)}

    def test_planted_roots_with_larger_coefficients(self):
        roots = [Fraction(3, 7), Fraction(-11, 5), Fraction(20), Fraction(-1, 24)]
        p = uni(*([-root.numerator, root.denominator] for root in roots), [5, 0, 1])
        assert E.rational_roots(p) == set(roots)

    def test_linear_non_monic(self):
        # A linear polynomial's root is read off as -c0/c1, also after the
        # root at 0 is split off.
        assert E.rational_roots(uni([4, 6])) == {Fraction(-2, 3)}
        third_psi = UniPoly("psi", [Fraction(-5, 2), Fraction(1, 3)])
        assert E.rational_roots(third_psi) == {Fraction(15, 2)}
        assert E.rational_roots(uni([8, -4])) == {Fraction(2)}
        assert E.rational_roots(uni([0, 0, 0, 4, 7])) == {Fraction(0), Fraction(-4, 7)}

    def test_repeated_roots_and_content(self):
        # The squarefree part drops the double root and the content 6.
        p = uni([6], [-1, 1], [-1, 1], [2, 3], [7, 0, 1], [-4, 5])
        assert E.rational_roots(p) == {Fraction(1), Fraction(-2, 3), Fraction(4, 5)}

    def test_hard_semiprime_constant_term(self):
        # A constant term with two large prime factors: any search through
        # divisors of the coefficients has to factor it first.
        semiprime = (2**61 - 1) * (2**89 - 1)
        p = uni([-1, 1], [semiprime, 0, 1])
        assert E.rational_roots(p) == {Fraction(1)}

    def test_zero_polynomial_rejected(self):
        with pytest.raises(E.ExactError):
            E.rational_roots(UniPoly("psi", []))

    def test_multivariate_rejected(self):
        # Only a UniPoly is read, so a MultiPoly is refused even when it
        # involves one variable.
        for p in (PSI + N, 2 * PSI - 1):
            with pytest.raises(E.ExactError, match="^rational_roots needs a UniPoly$"):
                E.rational_roots(p)


class TestText:
    def test_term_order_graded_lex(self):
        p = M * PSI + N * PSI + PSI**2 + 1
        assert p.to_text() == "m*psi + n*psi + psi^2 + 1"

    def test_descending_degree_first(self):
        p = 4 * PSI**2 - 2 * PSI
        assert p.to_text() == "4*psi^2 - 2*psi"

    def test_negative_leading(self):
        assert (-PSI - 1).to_text() == "-psi - 1"

    def test_fraction_coefficient(self):
        p = MultiPoly.const(Fraction(3, 2)) * PSI - Fraction(1, 2)
        assert p.to_text() == "3/2*psi - 1/2"

    def test_quotient_parenthesization(self):
        assert (1 / (2 * P)).to_text() == "1/(2*psi)"
        assert (1 / (P**2)).to_text() == "1/psi^2"
        assert (RatFunc(PSI, 2)).to_text() == "psi/2"
        assert ((P + 1) / (P - 1)).to_text() == "(psi + 1)/(psi - 1)"

    def test_round_trip(self):
        samples = [
            P,
            (P + 1) / (P - 1),
            RatFunc(PSI, 2),
            (3 * P**2 - P + Fraction(1, 2)) / (7 * P - 2),
            RatFunc(M * PSI + N, 2 * PSI**3 - PSI),
            RatFunc.const(Fraction(-22, 5)),
        ]
        for f in samples:
            assert E.parse_ratfunc(f.to_text()) == f

    def test_parse_rational(self):
        assert E.parse_rational("-25/2") == Fraction(-25, 2)
        assert E.parse_rational(" 7 ") == 7
        for bad in ["", "1/0", "x", "1.5", "1/2/3"]:
            with pytest.raises(E.ParseError):
                E.parse_rational(bad)

    def test_parse_rejects_unknown_names(self):
        with pytest.raises(E.UnknownVariableError):
            E.parse_ratfunc("zeta + 1")

    def test_parse_rejects_garbage(self):
        for bad in ["", "psi +", "(psi", "psi ^ n", "1 @ 2"]:
            with pytest.raises(E.ExactError):
                E.parse_ratfunc(bad)

    def test_parse_division_by_zero(self):
        with pytest.raises(E.ZeroDenominatorError):
            E.parse_ratfunc("1/(psi - psi)")


class TestTypes:
    def test_no_zero_coefficients_stored(self):
        p = PSI + N - PSI
        assert p == N
        assert len(p.terms()) == 1

    def test_multipoly_from_terms(self):
        p = MultiPoly({(1, 0, 0, 0, 0, 0, 0): 2, (0,) * 7: -1})
        assert p == 2 * PSI - 1
        assert p.terms() == [((1, 0, 0, 0, 0, 0, 0), 2), ((0,) * 7, -1)]
        for key in ("psi", (1, 0), (0, 0, 0, 0, 0, 0, -1), (0.5, 0, 0, 0, 0, 0, 0)):
            with pytest.raises(E.ExactError, match="^bad exponent tuple "):
                MultiPoly({key: 1})

    def test_leading_coefficient(self):
        assert (2 * M * PSI - 100 * PSI).leading_coefficient() == 2
        assert MultiPoly.zero().leading_coefficient() == 0

    def test_hash_and_equality(self):
        assert hash(RatFunc.const(Fraction(3, 2))) == hash(Fraction(3, 2))
        assert RatFunc.const(3) == 3
        assert MultiPoly.const(3) == 3
        assert {RatFunc(PSI, 2), RatFunc(PSI, 2)} == {RatFunc(PSI, 2)}

    def test_equal_ratfunc_and_multipoly_hash_alike(self):
        # A RatFunc over a constant denominator equals, and hashes as, the
        # MultiPoly with the same value.
        third = Fraction(1, 3)
        for poly in (PSI, 3 * PSI * N - 1, third * PSI + 1, MultiPoly.const(Fraction(5, 4))):
            rf = RatFunc(poly)
            assert rf == poly and poly == rf
            assert hash(rf) == hash(poly)
            assert len({poly, rf}) == 1
        assert len({MultiPoly.var("psi"), RatFunc.var("psi")}) == 1
        assert RatFunc(PSI, N) != PSI and RatFunc(PSI, 2) != PSI


class TestCleared:
    def test_a_quotient_is_false_exactly_when_zero(self):
        n = E._Cleared.var("n")
        assert n and not n - n and not E._Cleared._of(0) and E._Cleared._of(Fraction(1, 2))
        # So the dense trim drops zero quotients, as it drops zero ints.
        assert E._dense_trim([n, n - n, E._Cleared({}, {E._ZERO_KEY: 3})]) == [n]

    def test_int_operands_keep_the_denominator(self):
        half_n = E._Cleared(N._d, {E._ZERO_KEY: 2})
        for k in (-3, 0, 1, 4):
            got = half_n * k
            assert got == k * half_n == RatFunc(k * N, 2)
            assert got.den == half_n.den and bool(got) == bool(k)
        assert E._Cleared._of(-7).num == {E._ZERO_KEY: -7} and E._Cleared._of(0).num == {}


class TestUniPoly:
    def test_round_trip_and_eval(self):
        p = UniPoly("psi", [1, -3, 2])
        assert p.degree() == 2
        assert p.eval(Fraction(1, 2)) == 0
        assert p.to_multipoly() == 2 * PSI**2 - 3 * PSI + 1

    def test_trailing_zeros_trimmed(self):
        assert UniPoly("psi", [1, 0, 0]).degree() == 0
        assert UniPoly("psi", []).is_zero()

    def test_repr_and_coeffs_text(self):
        # The Fraction view prints as the stored Fraction coefficients did.
        F = Fraction
        cases = [
            (UniPoly("psi", [1, -3, 2]), (F(1), F(-3), F(2)),
             "UniPoly('psi', [Fraction(1, 1), Fraction(-3, 1), Fraction(2, 1)])"),
            (UniPoly("psi", [1, 0, 3]), (F(1), F(0), F(3)),
             "UniPoly('psi', [Fraction(1, 1), Fraction(0, 1), Fraction(3, 1)])"),
            (UniPoly("psi", [0, 6]), (F(0), F(6)),
             "UniPoly('psi', [Fraction(0, 1), Fraction(6, 1)])"),
            (UniPoly("psi", [1, 0, 0]), (F(1),), "UniPoly('psi', [Fraction(1, 1)])"),
            (UniPoly("psi", []), (), "UniPoly('psi', [])"),
            (UniPoly("n", [F(1, 2), 0, F(-2, 3)]), (F(1, 2), F(0), F(-2, 3)),
             "UniPoly('n', [Fraction(1, 2), Fraction(0, 1), Fraction(-2, 3)])"),
        ]
        for p, coeffs, text in cases:
            assert repr(p) == text
            assert p.coeffs == coeffs
            assert all(type(c) is Fraction for c in p.coeffs)

    def test_coeffs_is_read_only(self):
        p = UniPoly("psi", [1, 2])
        with pytest.raises(AttributeError):
            p.coeffs = (Fraction(3),)
