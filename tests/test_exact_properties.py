"""Property-based and oracle cross-checks for the exact kernel.

The randomized resultant and root checks run the same inputs through an
independent implementation (sympy) and through brute-force searches, so a
systematic defect in the remainder-sequence code cannot hide behind its own
fixed test vectors.
"""

import time
from fractions import Fraction
from itertools import count
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import hookw
from hookw import curves as C
from hookw import exact as E
from hookw.exact import MultiPoly, RatFunc, UniPoly
from master_curve import master_2B


small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)


@st.composite
def polys(draw, vars=("psi", "n"), max_terms=4, max_exp=3, zero_ok=True, coeffs=small_fractions):
    terms = draw(st.integers(min_value=0 if zero_ok else 1, max_value=max_terms))
    p = MultiPoly.zero()
    for _ in range(terms):
        coeff = draw(coeffs)
        mono = MultiPoly.one()
        for name in vars:
            mono = mono * MultiPoly.var(name) ** draw(
                st.integers(min_value=0, max_value=max_exp)
            )
        p = p + MultiPoly.const(coeff) * mono
    return p


@st.composite
def ratfuncs(draw):
    num = draw(polys())
    den = draw(polys(zero_ok=False))
    if den.is_zero():
        den = MultiPoly.one()
    return RatFunc(num, den)


nonzero_ratfuncs = ratfuncs().filter(lambda f: not f.is_zero())


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(nonzero_ratfuncs)
def test_multiplicative_inverse(a):
    assert a * a.inverse() == 1


@settings(max_examples=60, deadline=None)
@given(ratfuncs())
def test_normalize_idempotent(f):
    assert RatFunc(f.num, f.den) == f


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), polys(zero_ok=False))
def test_multiplying_through_cancels(f, a):
    if a.is_zero():
        a = MultiPoly.one()
    assert RatFunc(f.num * a, f.den * a) == f


@settings(max_examples=40, deadline=None)
@given(ratfuncs(), ratfuncs(), small_fractions, small_fractions)
def test_eval_substitute_consistency(f, g, x, y):
    # eval(substitute(f, psi, g), sigma) == eval(f, sigma[psi := eval(g, sigma)])
    sigma = {"psi": x, "n": y}
    try:
        inner = g.eval(sigma)
        composed = f.substitute("psi", g)
        lhs = composed.eval(sigma)
        rhs = f.eval({"psi": inner, "n": y})
    except (E.PoleError, E.ZeroDenominatorError):
        return
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), small_fractions, small_fractions)
def test_specialize_matches_stepwise_substitution(f, x, y):
    # One variable: the same slice vanishes either way.
    try:
        stepwise = f.substitute("n", y)
    except E.ZeroDenominatorError:
        with pytest.raises(E.ZeroDenominatorError):
            f.specialize({"n": y})
    else:
        assert f.specialize({"n": y}) == stepwise
    # Two variables at once: where the one-pass result exists, it is the
    # value that substituting one at a time reaches.
    try:
        direct = f.specialize({"psi": x, "n": y})
    except E.ZeroDenominatorError:
        return
    assert direct == f.substitute("psi", x).substitute("n", y)


@settings(max_examples=40, deadline=None)
@given(ratfuncs())
def test_text_round_trip(f):
    assert E.parse_ratfunc(f.to_text()) == f


def _to_sympy(p, symbols):
    import sympy

    expr = sympy.Integer(0)
    for key, coeff in p.terms():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for name, exp in zip(E.VARIABLES, key):
            if exp:
                term *= symbols[name] ** exp
        expr += term
    return sympy.expand(expr)


def _sylvester_det(p, q, x, symbols):
    # Determinant of the Sylvester matrix, the textbook definition of the
    # resultant.  sympy.resultant() itself flips the sign on some inputs
    # (e.g. resultant(x+1, x**3) returns +1 where the determinant is -1),
    # so the determinant is the trustworthy oracle.
    import sympy

    pf = sympy.Poly(_to_sympy(p, symbols), x)
    pg = sympy.Poly(_to_sympy(q, symbols), x)
    m, n = pf.degree(), pg.degree()
    fc, gc = pf.all_coeffs(), pg.all_coeffs()
    size = m + n
    rows = []
    for i in range(n):
        rows.append([0] * i + fc + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + gc + [0] * (size - n - 1 - i))
    return sympy.expand(sympy.Matrix(rows).det())


@settings(max_examples=30, deadline=None)
@given(
    polys(max_terms=4, max_exp=3),
    polys(max_terms=4, max_exp=3),
)
def test_resultant_matches_sylvester_determinant(p, q):
    sympy = pytest.importorskip("sympy")
    if p.degree("psi") < 1 or q.degree("psi") < 1:
        return
    symbols = {"psi": sympy.Symbol("psi"), "n": sympy.Symbol("n")}
    ours = _to_sympy(E.resultant(p, q, "psi"), symbols)
    theirs = _sylvester_det(p, q, symbols["psi"], symbols)
    assert sympy.expand(ours - theirs) == 0


def _unipoly(sp):
    """The UniPoly of a univariate sympy Poly with rational coefficients."""
    coeffs = reversed(sp.all_coeffs())
    return UniPoly(str(sp.gen), [Fraction(int(c.p), int(c.q)) for c in coeffs])


@settings(max_examples=30, deadline=None)
@given(polys(vars=("psi",), max_terms=5, max_exp=5, zero_ok=False))
def test_rational_roots_match_sympy(p):
    sympy = pytest.importorskip("sympy")
    if p.is_zero():
        return
    x = sympy.Symbol("psi")
    sp = sympy.Poly(_to_sympy(p, {"psi": x}), x)
    theirs = {
        Fraction(int(root.p), int(root.q))
        for root in sympy.roots(sp, filter="Q").keys()
    }
    assert E.rational_roots(_unipoly(sp)) == theirs


@settings(max_examples=30, deadline=None)
@given(
    polys(max_terms=3, max_exp=2, zero_ok=False),
    polys(max_terms=3, max_exp=2, zero_ok=False),
    st.integers(min_value=-4, max_value=4),
)
def test_resultant_vanishes_on_shared_root(u, v, a):
    # Plant the common root psi = a and check the resultant vanishes at
    # every n once the shared factor is present.
    common = MultiPoly.var("psi") - a
    p = common * (u if not u.is_zero() else MultiPoly.one())
    q = common * (v if not v.is_zero() else MultiPoly.one())
    if p.degree("psi") < 1 or q.degree("psi") < 1:
        return
    res = E.resultant(p, q, "psi")
    for nval in (-2, 0, 1, 5):
        if res.is_zero():
            break
        assert res.eval({"n": nval}) == 0


@settings(max_examples=30, deadline=None)
@given(
    polys(vars=("psi",), max_terms=3, max_exp=3, zero_ok=False),
    polys(vars=("psi",), max_terms=3, max_exp=3, zero_ok=False),
)
def test_resultant_nonzero_iff_no_common_root(p, q):
    # For univariate integer-coefficient inputs the resultant is zero
    # exactly when the two polynomials share a root over the closure,
    # which sympy's gcd detects.
    sympy = pytest.importorskip("sympy")
    if p.degree("psi") < 1 or q.degree("psi") < 1:
        return
    x = sympy.Symbol("psi")
    res = E.resultant(p, q, "psi")
    g = sympy.gcd(
        sympy.Poly(_to_sympy(p, {"psi": x}), x), sympy.Poly(_to_sympy(q, {"psi": x}), x)
    )
    assert res.is_zero() == (sympy.Poly(g, x).degree() > 0)


@settings(max_examples=40, deadline=None)
@given(
    polys(max_terms=3, max_exp=2),
    polys(max_terms=3, max_exp=2),
    polys(max_terms=3, max_exp=2),
)
def test_poly_gcd_matches_sympy(p, q, common):
    _assert_gcd_matches_sympy(p, q, common, ("psi", "n"))


def _assert_gcd_matches_sympy(p, q, common, names):
    # A planted common factor makes most gcds nonconstant.  Agreement is
    # up to a nonzero rational constant; ours is primitive with a positive
    # leading coefficient.
    sympy = pytest.importorskip("sympy")
    p, q = p * common, q * common
    symbols = {name: sympy.Symbol(name) for name in names}
    g = E.poly_gcd(p, q)
    ours = _to_sympy(g, symbols)
    theirs = sympy.gcd(_to_sympy(p, symbols), _to_sympy(q, symbols))
    if theirs == 0:
        assert g.is_zero()
        return
    assert not g.is_zero()
    assert sympy.cancel(ours / theirs).is_Rational
    assert g._den == 1 and E._int_content(g._d.values()) == 1
    assert g.leading_coefficient() > 0


_LINEAR_VARS = ("n", "m", "r")


def _linear_dict(const, coeffs):
    # const + sum(coeffs[i] * _LINEAR_VARS[i]), as an int dict.
    out = {E._ZERO_KEY: const} if const else {}
    for name, c in zip(_LINEAR_VARS, coeffs):
        if c:
            key = [0] * len(E._ZERO_KEY)
            key[E._VAR_INDEX[name]] = 1
            out[tuple(key)] = c
    return out


@st.composite
def linear_gcd_cases(draw):
    """(a, b): a = c * lin, lin linear in one to three variables, c an int.

    b is an int times one of: lin times another polynomial, lin itself
    (proportional to a), a constant, or an unrelated polynomial, which lin
    rarely divides.
    """
    nvars = draw(st.integers(min_value=1, max_value=3))
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=nvars, max_size=nvars).filter(any))
    lin = _linear_dict(draw(st.integers(-4, 4)), coeffs)
    a = E._dscale(lin, draw(st.sampled_from([1, 2, 3, 6, -1, -4])))
    other = draw(polys(vars=_LINEAR_VARS, max_terms=3, max_exp=2))._d
    scale = draw(st.sampled_from([1, 2, 4, 9, -6]))
    b = E._dscale(draw(st.sampled_from([
        E._dmul(lin, other),
        lin,
        {E._ZERO_KEY: 1},
        other,
    ])), scale)
    return a, b


@settings(max_examples=150, deadline=None)
@given(linear_gcd_cases())
# gcd(6(n + m), 4(n + m)r) = 2(n + m): the integer contents count.
@example((_linear_dict(0, (6, 6)), E._dmul(_linear_dict(0, (4, 4)), _linear_dict(0, (0, 0, 1)))))
# A negative leading coefficient, and proportional operands.
@example((_linear_dict(3, (0, -2, 0)), _linear_dict(-9, (0, 6, 0))))
# A linear operand that divides the other only up to its content.
@example((_linear_dict(2, (4, 0, 0)), E._dmul(_linear_dict(1, (2, 0, 0)), _linear_dict(0, (0, 3, 3)))))
# A linear operand that does not divide the other.
@example((_linear_dict(1, (1, 1, 0)), E._dadd(E._dmul(_linear_dict(1, (1, 1, 0)),
                                                      _linear_dict(0, (0, 0, 2))), {E._ZERO_KEY: 2})))
# Constant operands.
@example((_linear_dict(2, (0, 2, 2)), {E._ZERO_KEY: 6}))
@example(({E._ZERO_KEY: -4}, _linear_dict(0, (3, 0, 0))))
def test_gcd_with_a_linear_operand_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    a, b = case
    symbols = {name: sympy.Symbol(name) for name in _LINEAR_VARS}
    theirs = sympy.gcd(*(_to_sympy(MultiPoly._raw(d), symbols) for d in (a, b)))
    for x, y in ((a, b), (b, a)):
        g = E._int_poly_gcd(x, y)
        ours = _to_sympy(MultiPoly._raw(g), symbols)
        # sympy keeps the integer content too; its sign follows its own order.
        assert sympy.expand(ours - theirs) == 0 or sympy.expand(ours + theirs) == 0
        assert not g or E._dleading(g)[1] > 0


@settings(max_examples=15, deadline=None)
@given(
    polys(vars=("psi", "n", "m"), max_terms=3, max_exp=2),
    polys(vars=("psi", "n", "m"), max_terms=3, max_exp=2),
)
def test_trivariate_resultant_matches_sylvester_determinant(p, q):
    # Coefficients in two variables take the dict ring, which the bivariate
    # tests above no longer reach.
    sympy = pytest.importorskip("sympy")
    if p.degree("psi") < 1 or q.degree("psi") < 1:
        return
    symbols = {name: sympy.Symbol(name) for name in ("psi", "n", "m")}
    ours = _to_sympy(E.resultant(p, q, "psi"), symbols)
    theirs = _sylvester_det(p, q, symbols["psi"], symbols)
    assert sympy.expand(ours - theirs) == 0


# ---------------------------------------------------------------------------
# The coefficient rings of the dense remainder layer.
# ---------------------------------------------------------------------------

_PSI_IDX, _N_IDX = E._VAR_INDEX["psi"], E._VAR_INDEX["n"]


def test_ring_is_chosen_by_the_coefficient_variables():
    assert E._ring_for(_PSI_IDX, {_N_IDX}) is E._LISTS[_N_IDX]
    assert E._ring_for(_PSI_IDX, set()) is E._INTS
    assert E._ring_for(_PSI_IDX, {_N_IDX, E._VAR_INDEX["m"]}) is E._DICTS


def _assert_rings_agree(a, b, idx, y):
    """Gcd and resultant of int dicts a, b in idx, in both rings; the resultant.

    The resultant is taken, and returned, only when both have positive
    degree in idx; otherwise None.
    """
    out = []
    for ring in (E._LISTS[y], E._DICTS):
        A, B = ring.dense(a, idx), ring.dense(b, idx)
        g = ring.undense(E._dense_gcd(A, B, ring, {y}), idx)
        res = None
        if len(A) > 1 and len(B) > 1:
            res = ring.undense([E._resultant_int(A, B, ring)], idx)
        out.append((g, res))
    assert out[0] == out[1]
    return out[0][1]


# Coefficients up to 2^80 in size, so packed rows run to hundreds of bits.
_wide_coeffs = st.one_of(small_fractions, st.integers(min_value=-(2**80), max_value=2**80))
_P, _N1 = MultiPoly.var("psi"), MultiPoly.var("n")
_ONE = MultiPoly.one()


@settings(max_examples=60, deadline=None)
@given(
    polys(max_terms=4, max_exp=3, zero_ok=False, coeffs=_wide_coeffs),
    polys(max_terms=4, max_exp=3, zero_ok=False, coeffs=_wide_coeffs),
    polys(max_terms=2, max_exp=2, zero_ok=False),
)
# Coefficients of 2^80 with both signs in every row.
@example((2**80 * _N1 - 3) * _P**2 - (2**80 - 1) * _P + 5 * _N1**3,
         -(2**79 + 5) * _N1**2 * _P + 2**80 * _N1 - 7, _ONE)
# A degree-1 polynomial against a degree-6 one, with a degree-6 row.
@example(_N1 * _P + 1, (_N1**6 - 3) * _P**6 + _N1 * _P**2 - 5, _ONE)
# Zero middle rows on both sides.
@example((_N1**2 + 1) * _P**4 - 7 * _N1, _N1 * _P**3 - 2, _ONE)
# Negative leading rows on both sides.
@example(-(_N1**2 + 3) * _P**3 + _N1 * _P - 1, -_N1 * _P**2 + 1, _ONE)
# A planted common factor in psi: the resultant vanishes.
@example(_P - _N1, _P**2 + 3, _N1 * _P + 1)
def test_list_and_dict_rings_agree_on_bivariate_inputs(p, q, common):
    # A planted common factor makes some gcds nonconstant, and the
    # resultant zero when the factor involves psi.
    a = E._dprimitive((p * common)._d)[1]
    b = E._dprimitive((q * common)._d)[1]
    if a and b:
        res = _assert_rings_agree(a, b, _PSI_IDX, _N_IDX)
        if res is not None and common.degree("psi") >= 1:
            assert res == {}


def test_packed_digits_take_both_signs_with_borrows():
    # 2^4 - 1 reads as the digits -1, 1 (a borrow); 1 - 2^4 as 1, -1.
    assert E._int_list_unpack(15, 4) == [-1, 1]
    assert E._int_list_unpack(-15, 4) == [1, -1]
    for k in (2, 4, 64):
        cs = [-1, 2 ** (k - 1) - 1, -(2 ** (k - 1)), 0, 1, -1]
        assert E._int_list_unpack(E._int_list_at(cs, 1 << k), k) == cs
    assert E._int_list_unpack(0, 8) == []


_PSI1_IDX, _PSI2_IDX = E._VAR_INDEX["psi1"], E._VAR_INDEX["psi2"]


def _proportional(x, y):
    """Whether int dicts x and y agree up to a nonzero integer constant."""
    if x.keys() != y.keys():
        return False
    k0 = next(iter(x), None)
    return all(x[k] * y[k0] == y[k] * x[k0] for k in x)


def _check_elimination(a, b):
    """intersect()'s dense elimination of curves a, b against the dict route.

    The dict route runs on MultiPoly dicts in psi1 and psi2: the cross
    differences of c and of lambda, their common factor by ``poly_gcd``,
    divided out, and the eliminant by ``resultant`` in psi1.  The
    package's rows (``_difference_rows``), common factor (``_dense_gcd``)
    and eliminant (``_resultant_int``) must agree with it up to nonzero
    integer constants.  Returns the dict route's pairs before and after
    the split, or None when an equation vanishes.
    """
    ring = E._LISTS[_PSI2_IDX]

    def agree(p, rows):
        assert _proportional(p._d, ring.undense(rows, _PSI1_IDX))

    def at(p, var):
        return RatFunc(p).substitute("psi", MultiPoly.var(var)).num

    pair = tuple(
        at(f.num, "psi1") * at(g.den, "psi2") - at(g.num, "psi2") * at(f.den, "psi1")
        for f, g in ((a.c, b.c), (a.lam, b.lam))
    )
    rows = C._difference_rows(a, b)
    for p, r in zip(pair, rows):
        agree(p, r)
    if any(p.is_zero() for p in pair):
        return None
    common = E.poly_gcd(*pair)
    dense_common = E._dense_gcd(*rows, ring, {_PSI2_IDX})
    agree(common, dense_common)
    split = pair
    if common.total_degree() > 0:
        split = tuple(MultiPoly._raw(E._divexact_int(p._d, common._d)) for p in pair)
        rows = [E._dense_divexact(r, dense_common, ring) for r in rows]
        for p, r in zip(split, rows):
            agree(p, r)
    if all(p.degree("psi1") >= 1 for p in split):
        agree(E.resultant(*split, "psi1"), [E._resultant_int(*rows, ring)])
    return pair, split


def test_list_and_dict_rings_agree_on_the_oracle_eliminants():
    # The difference equations intersect() builds for the 20 pairs of the
    # intersect-oracle benchmark, before and after their common factor
    # goes: the dense route against the dict route, and the list ring
    # against the dict ring.
    grid = [(n, m, hookw.TARGETS[kind], r)
            for n in (0, 1) for m in (1, 2) for kind in hookw.TARGET_KINDS for r in (1, 2)
            if r >= hookw.TARGETS[kind].min_r]
    assert len(grid) == 20
    for n, m, rule, r in grid:
        a = hookw.phi_family("2B", n, m)
        b = hookw.phi_family(rule.tag, 0, rule.m_of(r))
        for ec, el in _check_elimination(a, b):
            _assert_rings_agree(ec._d, el._d, _PSI1_IDX, _PSI2_IDX)


@st.composite
def psi_curves(draw):
    """A numeric curve whose c and lambda are small rational functions of psi."""
    parts = []
    for _ in range(2):
        num = draw(polys(vars=("psi",), max_terms=3, max_exp=3))
        den = draw(polys(vars=("psi",), max_terms=3, max_exp=3, zero_ok=False))
        parts.append(RatFunc(num, MultiPoly.one() if den.is_zero() else den))
    return C.TruncationCurve(*parts, "drawn", ())


_PSI = RatFunc.var("psi")
# A shared component psi1 = psi2, and a constant charge on both sides.
_TWIN = C.TruncationCurve(_PSI**2 / (_PSI + 1), _PSI - 3, "drawn", ())
_FLAT = C.TruncationCurve(RatFunc.const(2), _PSI**2, "drawn", ())


@settings(max_examples=80, deadline=None)
@given(psi_curves(), psi_curves())
@example(_TWIN, _TWIN)
@example(_FLAT, C.TruncationCurve(RatFunc.const(2), 1 / _PSI, "drawn", ()))
def test_dense_elimination_matches_the_dict_route_on_drawn_curves(a, b):
    _check_elimination(a, b)


# One exact division for every ring: ints in psi alone, integer lists in n,
# integer dicts in n and m; each polynomial is dense in psi.
_DIVISION_RINGS = {
    "ints": (E._INTS, ("psi",)),
    "lists": (E._LISTS[_N_IDX], ("psi", "n")),
    "dicts": (E._DICTS, ("psi", "n", "m")),
}


@pytest.mark.parametrize("ring_name", sorted(_DIVISION_RINGS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dense_divexact_in_every_ring(ring_name, data):
    ring, names = _DIVISION_RINGS[ring_name]
    a = data.draw(polys(vars=names, max_terms=4, max_exp=3), "a")._d
    b = data.draw(polys(vars=names, max_terms=3, max_exp=2, zero_ok=False), "b")._d
    assume(b)

    def dense(d):
        return ring.dense(d, _PSI_IDX)

    B = dense(b)
    assert E._dense_divexact(dense(E._dmul(a, b)), B, ring) == dense(a)
    # A nonzero constant added to a*b leaves a remainder, unless b is a
    # constant that divides it.
    bump = data.draw(st.integers(min_value=1, max_value=30), "bump") * 31
    if E._dvars(b) or bump % b[E._ZERO_KEY]:
        with pytest.raises(E.ExactError):
            E._dense_divexact(dense(E._dadd(E._dmul(a, b), {E._ZERO_KEY: bump})), B, ring)
    # psi^deg(b) over 2b: the leading coefficient 2 lc(b) does not divide 1.
    B2 = dense(E._dscale(b, 2))
    with pytest.raises(E.ExactError):
        E._dense_divexact([ring.zero] * (len(B2) - 1) + [ring.one], B2, ring)
    # A nonzero dividend of lower degree than the divisor.
    if a:
        shifted = {(k[0] + len(dense(a)),) + k[1:]: c for k, c in b.items()}
        with pytest.raises(E.ExactError):
            E._dense_divexact(dense(a), dense(shifted), ring)


@settings(max_examples=60, deadline=None)
@given(
    polys(vars=("psi", "n", "m"), max_terms=4, max_exp=2),
    polys(vars=("psi", "n", "m"), max_terms=3, max_exp=2, zero_ok=False),
    polys(vars=("psi", "n", "m"), max_terms=1, max_exp=2),
)
def test_trivariate_divexact_matches_sympy_div(a, b, bump):
    # The dividend is a*b, or a*b plus one term; sympy divides over Q, so
    # an exact integer quotient is ours and anything else raises.
    sympy = pytest.importorskip("sympy")
    assume(not b.is_zero())
    symbols = {name: sympy.Symbol(name) for name in ("psi", "n", "m")}
    dividend = E._dadd(E._dmul(a._d, b._d), bump._d)
    exprs = [_to_sympy(MultiPoly._raw(d), symbols) for d in (dividend, b._d)]
    quotient, remainder = sympy.div(*exprs, *symbols.values())
    integral = all(c.is_integer for c in sympy.Poly(quotient, *symbols.values()).coeffs())
    if remainder == 0 and integral:
        ours = E._divexact_int(dividend, b._d)
        assert sympy.expand(_to_sympy(MultiPoly._raw(ours), symbols) - quotient) == 0
    else:
        with pytest.raises(E.ExactError):
            E._divexact_int(dividend, b._d)


# ---------------------------------------------------------------------------
# The univariate integer-list kernel.
# ---------------------------------------------------------------------------

int_lists = st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=6).filter(
    lambda cs: cs[-1] != 0
)


def _psi_dict(cs):
    # An integer-coefficient dict in psi, built without the kernel's helpers.
    return {(e, 0, 0, 0, 0, 0, 0): c for e, c in enumerate(cs) if c}


@settings(max_examples=60, deadline=None)
@given(
    polys(vars=("psi",), max_terms=4, max_exp=4),
    polys(vars=("psi",), max_terms=4, max_exp=4),
    polys(vars=("psi",), max_terms=3, max_exp=3),
)
def test_univariate_poly_gcd_matches_sympy(p, q, common):
    _assert_gcd_matches_sympy(p, q, common, ("psi",))


@settings(max_examples=80, deadline=None)
@given(int_lists, int_lists, int_lists)
def test_univariate_int_gcd_keeps_content(a, b, common):
    # Over Z the gcd carries the integer content: gcd(2psi + 2, 2psi) == 2.
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("psi")
    a = E._dmul(_psi_dict(a), _psi_dict(common))
    b = E._dmul(_psi_dict(b), _psi_dict(common))
    ours = E._int_poly_gcd(a, b)
    theirs = sympy.gcd(*(sympy.Poly({(k[0],): c for k, c in d.items()}, x) for d in (a, b)))
    assert ours == {(e, 0, 0, 0, 0, 0, 0): int(c) for (e,), c in theirs.terms()}


@settings(max_examples=80, deadline=None)
@given(int_lists, int_lists, st.integers(min_value=1, max_value=30))
def test_univariate_divexact(a, b, shift):
    a, b = _psi_dict(a), _psi_dict(b)
    assert E._divexact_int(E._dmul(a, b), b) == a
    # Adding a nonzero constant below b's leading term leaves a remainder
    # when b is not constant, and a non-multiple when b is the constant.
    bumped = E._dadd(E._dmul(a, b), {E._ZERO_KEY: shift * 31})
    if E._dvars(b) or shift * 31 % b[E._ZERO_KEY]:
        with pytest.raises(E.ExactError):
            E._divexact_int(bumped, b)


def test_univariate_divexact_rejects_a_lower_degree_dividend():
    with pytest.raises(E.ExactError):
        E._divexact_int(_psi_dict([6]), _psi_dict([1, 2]))
    with pytest.raises(E.ExactError):
        E._divexact_int(_psi_dict([1, 2]), _psi_dict([1, 0, 1]))


def _prime_by_discriminant(g):
    # The prime rule rational_roots used before the GF(q) squarefree test:
    # the smallest prime dividing neither lc(g) nor Res(g, g').
    dg = [e * c for e, c in enumerate(g)][1:]
    disc = g[-1]
    if len(dg) > 1:
        dense = [[{E._ZERO_KEY: c} if c else {} for c in cs] for cs in (g, dg)]
        disc *= E._resultant_int(*dense, E._DICTS)[E._ZERO_KEY]
    return next(
        q for q in count(2) if disc % q and all(q % d for d in range(2, isqrt(q) + 1))
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=-12, max_value=12), min_size=1, max_size=5),
    int_lists,
)
def test_root_prime_matches_discriminant_rule(roots, cofactor):
    # Planted small roots make lc * Res(g, g') divisible by small primes,
    # so the search has to skip some of them.
    f = cofactor
    for root in roots:
        f = [a - root * b for a, b in zip([0] + f, f + [0])]
    content = E._int_content(f)
    g = E._int_list_squarefree([c // content for c in f])
    assert E._root_prime(g) == _prime_by_discriminant(g)


def _sp_ladder_eliminant(n, m, r):
    # The psi1-resultant eliminant that intersect() builds for 2B(n, m)
    # against the sp target at rank r.
    rule = hookw.TARGETS["sp"]
    a = hookw.phi_family("2B", n, m)
    b = hookw.phi_family(rule.tag, 0, rule.m_of(r))
    psi1, psi2 = RatFunc.var("psi1"), RatFunc.var("psi2")
    ec = (a.c.substitute("psi", psi1) - b.c.substitute("psi", psi2)).num
    el = (a.lam.substitute("psi", psi1) - b.lam.substitute("psi", psi2)).num
    common = E.poly_gcd(ec, el)
    ec, el = RatFunc(ec, common).num, RatFunc(el, common).num
    return E.resultant(ec, el, "psi1")


def test_ladder_eliminant_roots_match_sympy():
    # The rungs where the eliminants have large coefficients with hard
    # integer factorizations; each rung must also intersect within budget.
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("psi2")
    rungs = ((1, 3, 3), (2, 3, 3))
    for n, m, r in rungs:
        eliminant = _sp_ladder_eliminant(n, m, r)
        expr = _to_sympy(eliminant, {"psi2": x})
        _, factors = sympy.factor_list(expr, x)
        theirs = set()
        for factor, _ in factors:
            if sympy.degree(factor, x) == 1:
                lead, const = sympy.Poly(factor, x).all_coeffs()
                root = -const / lead
                theirs.add(Fraction(int(root.p), int(root.q)))
        assert E.rational_roots(_unipoly(sympy.Poly(expr, x))) == theirs, (n, m, r)
    start = time.monotonic()
    for n, m, r in rungs:
        rule = hookw.TARGETS["sp"]
        hookw.intersect(
            hookw.phi_family("2B", n, m), hookw.phi_family(rule.tag, 0, rule.m_of(r))
        )
    elapsed = time.monotonic() - start
    assert elapsed < 20, f"budget 20s exceeded: {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Evaluation against a term-by-term Fraction reference.
# ---------------------------------------------------------------------------

eval_values = st.builds(
    Fraction,
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=30),
)


@st.composite
def sparse_polys(draw, zero_ok=True):
    names = draw(st.lists(st.sampled_from(E.VARIABLES), max_size=3, unique=True))
    return draw(polys(vars=tuple(names), max_terms=6, max_exp=5, zero_ok=zero_ok))


@st.composite
def assignments(draw):
    """Values for a random subset of the universe, in a random order."""
    names = draw(st.permutations(E.VARIABLES))
    keep = draw(st.lists(st.booleans(), min_size=len(names), max_size=len(names)))
    return {name: draw(eval_values) for name, k in zip(names, keep) if k}


def _reference_value(p, vals):
    total = Fraction(0)
    for key, coeff in p.terms():
        term = coeff
        for name, exp in zip(E.VARIABLES, key):
            if exp:
                term *= vals[name] ** exp
        total += term
    return total


def _at_scalars(p, vals):
    """p with the scalars vals substituted term by term, over Fractions."""
    out = {}
    for key, coeff in p.terms():
        rest = list(key)
        for name, x in vals.items():
            i = E.VARIABLES.index(name)
            coeff *= x ** rest[i]
            rest[i] = 0
        out[tuple(rest)] = out.get(tuple(rest), 0) + coeff
    return MultiPoly(out)


def _missing(f, vals):
    return [v for v in E.VARIABLES if v in f.variables() and v not in vals]


def _missing_text(names):
    return "no value for variable(s): %s" % ", ".join(names)


@settings(max_examples=150, deadline=None)
@given(sparse_polys(), assignments())
# psi is missing although psi2 = 0 makes the value 0 without it.
@example(MultiPoly.var("psi2") * MultiPoly.var("psi"), {"psi2": Fraction(0)})
def test_multipoly_eval_matches_reference(p, vals):
    missing = _missing(p, vals)
    if missing:
        with pytest.raises(E.MissingVariableError) as info:
            p.eval(vals)
        assert str(info.value) == _missing_text(missing)
    else:
        value = p.eval(vals)
        assert type(value) is Fraction
        assert value == _reference_value(p, vals)


@settings(max_examples=150, deadline=None)
@given(sparse_polys(), sparse_polys(zero_ok=False), assignments())
def test_ratfunc_eval_matches_reference(num, den, vals):
    if den.is_zero():
        den = MultiPoly.one()
    f = RatFunc(num, den)
    missing = _missing(f, vals)
    if missing:
        with pytest.raises(E.MissingVariableError) as info:
            f.eval(vals)
        assert str(info.value) == _missing_text(missing)
        return
    den_value = _reference_value(f.den, vals)
    if den_value == 0:
        with pytest.raises(E.PoleError):
            f.eval(vals)
    else:
        assert f.eval(vals) == _reference_value(f.num, vals) / den_value


@st.composite
def one_sided_quotients(draw):
    """(f, name, pole): no variable of f occurs on both sides of f, and f's
    denominator vanishes wherever ``name`` takes the value ``pole``."""
    names = draw(st.permutations(E.VARIABLES))
    split = draw(st.integers(min_value=0, max_value=3))
    num = draw(polys(vars=tuple(names[:split]), max_terms=5, max_exp=4))
    den_vars = tuple(names[split : split + 2])
    den = draw(polys(vars=den_vars, max_terms=4, max_exp=3, zero_ok=False))
    if den.is_zero():
        den = MultiPoly.one()
    pole = draw(eval_values)
    den = den * (MultiPoly.var(den_vars[0]) - pole)
    return RatFunc(num, den), den_vars[0], pole


@settings(max_examples=150, deadline=None)
@given(one_sided_quotients(), st.data())
def test_ratfunc_eval_with_one_sided_variables(quotient, data):
    # Numerator and denominator share one table per variable; a variable
    # on one side only scales the other side's sum by its table[0].
    f, name, pole = quotient
    assert not f.num.variables() & f.den.variables()
    names = sorted(f.variables()) + data.draw(st.lists(st.sampled_from(E.VARIABLES), max_size=2))
    vals = {v: data.draw(eval_values) for v in names}
    if data.draw(st.booleans()):
        vals[name] = pole
    if names and data.draw(st.integers(min_value=0, max_value=4)) == 0:
        del vals[data.draw(st.sampled_from(names))]
    missing = _missing(f, vals)
    if missing:
        with pytest.raises(E.MissingVariableError) as info:
            f.eval(vals)
        assert str(info.value) == _missing_text(missing)
        return
    den_value = _reference_value(f.den, vals)
    if den_value == 0:
        with pytest.raises(E.PoleError):
            f.eval(vals)
    else:
        value = f.eval(vals)
        assert type(value) is Fraction
        assert value == _reference_value(f.num, vals) / den_value


@settings(max_examples=60, deadline=None)
@given(sparse_polys(), assignments(), st.sampled_from([0.5, 2.0, "1/2", None]))
def test_eval_rejects_non_exact_values_first(p, vals, bad):
    # A non-exact value is refused before any missing variable is reported,
    # by MultiPoly.eval and RatFunc.eval alike.
    vals = dict(vals, psi=bad)
    for f in (p, RatFunc(p)):
        with pytest.raises(E.ExactError) as info:
            f.eval(vals)
        assert type(info.value) is E.ExactError


def test_eval_unknown_variable_handling():
    p = MultiPoly.var("psi") + 1
    # MultiPoly.eval checks every name, in assignment order, before values.
    with pytest.raises(E.UnknownVariableError):
        p.eval({"zeta": 1, "psi": 0.5})
    with pytest.raises(E.ExactError) as info:
        p.eval({"psi": 0.5, "zeta": 1})
    assert type(info.value) is E.ExactError
    # RatFunc.eval checks names the same way, whether it needs them or not.
    with pytest.raises(E.UnknownVariableError):
        RatFunc(p).eval({"psi": 1, "zeta": 7})
    with pytest.raises(E.UnknownVariableError):
        RatFunc.var("n").eval({"n": 1, "q": 2})
    assert RatFunc(p).eval({"psi": 1, "r": 7}) == 2


# ---------------------------------------------------------------------------
# The UniPoly view against Fraction references.
# ---------------------------------------------------------------------------

uni_coeffs = st.lists(small_fractions, max_size=7)


def _horner(coeffs, x):
    # Evaluation over Fractions, one coefficient at a time.
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@settings(max_examples=150, deadline=None)
@given(uni_coeffs, eval_values)
def test_unipoly_eval_matches_fraction_horner(coeffs, x):
    value = UniPoly("psi", coeffs).eval(x)
    assert type(value) is Fraction
    assert value == _horner(coeffs, x)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=-30, max_value=30), max_size=6),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-5, max_value=5).filter(bool),
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
)
@example([], 3, -2, None)
@example([], 3, -2, 2)
@example([4, 0, -1, 0], 2, -3, 1)
@example([-1, 2, 0, 1], 1 << 64, 1, None)
def test_int_list_at_matches_fraction_evaluation(cs, p, q, extra):
    # q**top times the value at p/q, for top the degree or, when extra
    # is drawn, extra above it; q may be negative.
    top = len(cs) - 1 + (extra or 0)
    got = E._int_list_at(cs, p, q) if extra is None else E._int_list_at(cs, p, q, top)
    assert type(got) is int
    assert got == _horner(cs, Fraction(p, q)) * Fraction(q) ** top


@settings(max_examples=100, deadline=None)
@given(uni_coeffs, st.sampled_from(E.VARIABLES))
def test_unipoly_from_fractions_equals_the_multipoly_sum(coeffs, var):
    x = MultiPoly.var(var)
    built = UniPoly(var, coeffs)
    padded = UniPoly(var, coeffs + [0, 0])
    assert built.to_multipoly() == sum((c * x**e for e, c in enumerate(coeffs)), MultiPoly.zero())
    assert built == padded
    assert hash(built) == hash(padded)
    assert list(built.coeffs) == coeffs[: built.degree() + 1]
    assert not any(coeffs[built.degree() + 1 :])


def _deflate_reference(coeffs, root):
    # Synthetic division by (x - root) over Fractions, repeated while exact.
    mult = 0
    while len(coeffs) > 1:
        quotient, acc = [], Fraction(0)
        for c in reversed(coeffs[1:]):
            acc = c + acc * root
            quotient.append(acc)
        if coeffs[0] + acc * root:
            break
        coeffs, mult = quotient[::-1], mult + 1
    return coeffs, mult


@settings(max_examples=150, deadline=None)
@given(int_lists, small_fractions, st.integers(min_value=0, max_value=3))
# The zero list, a root that is absent, and the root 0 planted twice.
@example([], Fraction(2, 3), 0)
@example([1, 1], Fraction(2, 3), 0)
@example([3, 0, 2], Fraction(0), 2)
def test_deflation_matches_fraction_division(cofactor, root, planted):
    # Plant the root's factor q*x - p, `planted` times, in a random cofactor.
    f = cofactor
    for _ in range(planted):
        f = [root.denominator * a - root.numerator * b for a, b in zip([0] + f, f + [0])]
    quotient, mult = E._int_list_deflate(f, root)
    want, want_mult = _deflate_reference([Fraction(c) for c in f], root)
    assert mult == want_mult >= planted
    # Dividing by q*x - p instead of x - p/q scales the quotient by 1/q.
    assert [c * root.denominator**mult for c in quotient] == want


# ---------------------------------------------------------------------------
# Specialization and Moebius composition on integer lists, against Fraction
# substitution and the polynomial-dict route.
# ---------------------------------------------------------------------------


def _psi_list(d):
    # The coefficient list, low to high, of a dict in psi alone.
    cs = [0] * (max((k[0] for k in d), default=-1) + 1)
    for k, c in d.items():
        assert not any(k[1:])
        cs[k[0]] = c
    return cs


small_ints = st.integers(min_value=-5, max_value=5)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.just([]), int_lists),
    int_lists,
    int_lists,
    small_ints,
    small_ints,
    small_ints,
    small_ints,
)
def test_int_list_moebius_matches_dict_composition(num, den, common, a, b, c, d):
    # A quotient with a planted common factor: the kernel composes with
    # psi -> (a psi + b)/(c psi + d) and then takes one gcd; the dict route
    # composes and takes the full canonical form.  The cleared pair is the
    # canonical pair times one exact quotient.
    assume(a * d != b * c)
    num_d = E._dmul(_psi_dict(num), _psi_dict(common))
    den_d = E._dmul(_psi_dict(den), _psi_dict(common))
    pair = E._int_list_moebius([_psi_list(num_d), _psi_list(den_d)], (a, b, c, d))
    kn, kd = E._int_list_quotient(*pair)
    psi = MultiPoly.var("psi")
    rn, rd = E._dcompose(num_d, den_d, [(0, (a * psi + b)._d, (c * psi + d)._d)])
    rn, rd = E._ratfunc_canonical(rn, rd)
    assert (kn, kd) == (_psi_list(rn), _psi_list(rd))
    quotient = E._dense_divexact(pair[1], kd, E._INTS)
    assert [E._int_list_mul(k, quotient) for k in (kn, kd)] == list(pair)


# ---------------------------------------------------------------------------
# Several variables substituted at once, against one at a time.
# ---------------------------------------------------------------------------

_TRIVARIATE = ("psi", "n", "m")


@st.composite
def trivariate_ratfuncs(draw, max_terms=3, max_exp=2):
    num = draw(polys(vars=_TRIVARIATE, max_terms=max_terms, max_exp=max_exp))
    den = draw(polys(vars=_TRIVARIATE, max_terms=max_terms, max_exp=max_exp, zero_ok=False))
    return RatFunc(num, MultiPoly.one() if den.is_zero() else den)


@st.composite
def simultaneous_maps(draw):
    names = draw(st.lists(st.sampled_from(_TRIVARIATE), min_size=1, max_size=3, unique=True))
    return {name: draw(trivariate_ratfuncs(max_terms=2, max_exp=1)) for name in names}


def _sequential_reference(f, mapping):
    """Substitute one variable at a time, through fresh variables."""
    fresh = dict(zip(mapping, ("psi1", "psi2", "s")))
    for var, tmp in fresh.items():
        f = f.substitute(var, RatFunc.var(tmp))
    for var, tmp in fresh.items():
        f = f.substitute(tmp, mapping[var])
    return f


_N, _M, _PSI = (RatFunc.var(v) for v in ("n", "m", "psi"))


@settings(max_examples=100, deadline=None)
@given(trivariate_ratfuncs(), simultaneous_maps())
@example(E.parse_ratfunc("(n^2*m - psi*m + 3)/(2*n - m^2 + psi)"), {"n": _M, "m": _N})
@example(
    E.parse_ratfunc("(n*m^2 + psi^2*n)/(psi*m - n + 1)"),
    {"n": _M * _PSI + 1, "psi": (_N - _M) / (_PSI + 2), "m": _N / 3},
)
def test_simultaneous_substitution_matches_sequential(f, mapping):
    # The n <-> m swap and a value that mentions a variable substituted
    # later are pinned as examples: nothing may be captured.
    subs = [(E._VAR_INDEX[v], x.num._d, x.den._d) for v, x in mapping.items()]
    for p in (f.num, f.den):
        cleared, degrees = E._dsubst(p._d, subs)
        assert degrees == [p.degree(v) if not p.is_zero() else 0 for v in mapping]
        scale = RatFunc.one()
        for x, d in zip(mapping.values(), degrees):
            scale = scale * RatFunc(x.den) ** d
        assert RatFunc(MultiPoly._raw(cleared)) == _sequential_reference(RatFunc(p), mapping) * scale
    num, den = E._dcompose(f.num._d, f.den._d, subs)
    if not den:
        # Where the one pass vanishes identically, no value is claimed.
        with pytest.raises(E.ZeroDenominatorError):
            f.specialize(mapping)
        return
    want = _sequential_reference(f, mapping)
    assert RatFunc(MultiPoly._raw(num), MultiPoly._raw(den)) == want
    assert f.specialize(mapping) == want


parameters = st.builds(
    Fraction, st.integers(min_value=-8, max_value=8), st.sampled_from([1, 2, 3])
)
# F, the master at m = 0: c.num, c.den, lam.num, lam.den as int dicts.
_F = tuple(C._at_m0(p) for rf in master_2B() for p in (rf.num, rf.den))


@st.composite
def t_sliced_pairs(draw):
    """A pair of int dicts in n and psi: c or lambda of the master's F, or drawn."""
    if draw(st.booleans()):
        i = draw(st.sampled_from([0, 2]))
        return _F[i : i + 2]
    return tuple(draw(polys(vars=("psi", "n"), max_terms=5, max_exp=4))._d for _ in "nd")


@settings(max_examples=150, deadline=None)
@given(t_sliced_pairs(), parameters, parameters)
@example(_F[2:], Fraction(-1, 2), Fraction(3, 2))
@example(_F[:2], Fraction(0), Fraction(0))
def test_horner_in_t_matches_composition_of_the_slice(pair, n, m):
    # The numeric curve builder runs each dict's slices in n by Horner at
    # t = n + m(2psi - 1) == (alpha + beta psi)/L, both lists over one
    # power of L; _dcompose substitutes the same t for n in the dicts and
    # clears both sides by the same power of L.
    alpha, beta, scale = C._line(n, m)
    assert (Fraction(alpha, scale), Fraction(beta, scale)) == (n - m, 2 * m)
    t = alpha + beta * MultiPoly.var("psi")
    want = E._dcompose(*pair, [(E._VAR_INDEX["n"], t._d, {E._ZERO_KEY: scale})])
    slices = [E._LISTS[0].dense(d, E._VAR_INDEX["n"]) for d in pair]
    assert C._in_psi(slices, (alpha, beta, scale)) == [_psi_list(d) for d in want]


@settings(max_examples=150, deadline=None)
@given(sparse_polys(), sparse_polys(zero_ok=False), assignments())
def test_specialize_matches_fraction_substitution(num, den, vals):
    # Any subset of the variables, so several may remain; the denominator
    # substituted term by term is zero exactly where specialize refuses.
    if den.is_zero():
        den = MultiPoly.one()
    f = RatFunc(num, den)
    num_at, den_at = (_at_scalars(p, vals) for p in (f.num, f.den))
    if den_at.is_zero():
        with pytest.raises(E.ZeroDenominatorError):
            f.specialize(vals)
    else:
        assert f.specialize(vals) == RatFunc(num_at, den_at)


# ---------------------------------------------------------------------------
# The parser on non-canonical text.
# ---------------------------------------------------------------------------

_leaves = st.one_of(
    st.integers(min_value=0, max_value=12).map(lambda v: ("int", v)),
    st.sampled_from(E.VARIABLES).map(lambda v: ("var", v)),
)


def _branches(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children),
        st.tuples(st.just("^"), children, st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("neg"), children, st.integers(min_value=1, max_value=3)),
        st.tuples(st.just("()"), children),
    )


expression_trees = st.recursive(_leaves, _branches, max_leaves=8)


def _tree_text(node):
    """(text, level) of a tree; levels 1 sum, 2 product, 3 signed, 4 power, 5 atom."""
    kind = node[0]
    if kind in ("int", "var"):
        return str(node[1]), 5
    if kind == "()":
        return "(%s)" % _tree_text(node[1])[0], 5
    if kind == "neg":
        return "-" * node[2] + _text_at(node[1], 4), 3
    if kind == "^":
        return "%s^%d" % (_text_at(node[1], 5), node[2]), 4
    level = 1 if kind in "+-" else 2
    return "%s %s %s" % (_text_at(node[1], level), kind, _text_at(node[2], level + 1)), level


def _text_at(node, level):
    # Parenthesize exactly when the grammar needs it at this position.
    text, own = _tree_text(node)
    return text if own >= level else "(%s)" % text


def _tree_value(node):
    kind = node[0]
    if kind == "int":
        return RatFunc.const(node[1])
    if kind == "var":
        return RatFunc.var(node[1])
    if kind == "()":
        return _tree_value(node[1])
    if kind == "neg":
        value = _tree_value(node[1])
        return -value if node[2] % 2 else value
    if kind == "^":
        return _tree_value(node[1]) ** node[2]
    a, b = _tree_value(node[1]), _tree_value(node[2])
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    if kind == "*":
        return a * b
    return a / b


@settings(max_examples=200, deadline=None)
@given(expression_trees)
def test_parse_matches_ratfunc_arithmetic(tree):
    text = _tree_text(tree)[0]
    try:
        want = _tree_value(tree)
    except E.ZeroDenominatorError:
        with pytest.raises(E.ZeroDenominatorError):
            E.parse_ratfunc(text)
        return
    assert E.parse_ratfunc(text) == want, text


def test_parse_canonicalizes_once(monkeypatch):
    texts = [
        hookw.curves._F_2B,
        master_2B()[1].to_text(),
        "(psi + 1)/(n - 2) - 3/(psi*m)^2 + --n",
        "-(1/psi)^3*(psi - 1)/(2*psi - 2) + 0^0",
    ]
    calls = []
    canonical = E._ratfunc_canonical

    def counted(*args, **kwargs):
        calls.append(args)
        return canonical(*args, **kwargs)

    monkeypatch.setattr(E, "_ratfunc_canonical", counted)
    for text in texts:
        calls.clear()
        E.parse_ratfunc(text)
        assert len(calls) == 1, text
