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
from hookw import exact as E
from hookw.exact import MultiPoly, RatFunc, UniPoly


small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)


@st.composite
def polys(draw, vars=("psi", "n"), max_terms=4, max_exp=3, zero_ok=True):
    terms = draw(st.integers(min_value=0 if zero_ok else 1, max_value=max_terms))
    p = MultiPoly.zero()
    for _ in range(terms):
        coeff = draw(small_fractions)
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
    for mono, coeff in p.terms():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for name, exp in mono.exponents().items():
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
    assert E.rational_roots(p) == theirs


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
    assert E._dcontent(g._d) == 1
    assert g.leading_coefficient() > 0


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
    a = E._dmul_raw(_psi_dict(a), _psi_dict(common))
    b = E._dmul_raw(_psi_dict(b), _psi_dict(common))
    ours = E._int_poly_gcd(a, b)
    theirs = sympy.gcd(*(sympy.Poly({(k[0],): c for k, c in d.items()}, x) for d in (a, b)))
    assert ours == {(e, 0, 0, 0, 0, 0, 0): int(c) for (e,), c in theirs.terms()}


@settings(max_examples=80, deadline=None)
@given(int_lists, int_lists, st.integers(min_value=1, max_value=30))
def test_univariate_divexact(a, b, shift):
    a, b = _psi_dict(a), _psi_dict(b)
    assert E._divexact_int(E._dmul_raw(a, b), b) == a
    # Adding a nonzero constant below b's leading term leaves a remainder
    # when b is not constant, and a non-multiple when b is the constant.
    bumped = E._dadd(E._dmul_raw(a, b), {E._ZERO_KEY: shift * 31})
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
        disc *= E._resultant_int(*dense)[E._ZERO_KEY]
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
        _, factors = sympy.factor_list(_to_sympy(eliminant, {"psi2": x}), x)
        theirs = set()
        for factor, _ in factors:
            if sympy.degree(factor, x) == 1:
                lead, const = sympy.Poly(factor, x).all_coeffs()
                root = -const / lead
                theirs.add(Fraction(int(root.p), int(root.q)))
        assert E.rational_roots(eliminant) == theirs, (n, m, r)
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
    for mono, coeff in p.terms():
        term = coeff
        for name, exp in mono.exponents().items():
            term *= vals[name] ** exp
        total += term
    return total


def _missing(f, vals):
    return [v for v in E.VARIABLES if v in f.variables() and v not in vals]


def _missing_text(names):
    return "no value for variable(s): %s" % ", ".join(names)


@settings(max_examples=150, deadline=None)
@given(sparse_polys(), assignments())
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


@settings(max_examples=100, deadline=None)
@given(uni_coeffs, st.sampled_from(E.VARIABLES))
def test_unipoly_from_fractions_equals_from_multipoly(coeffs, var):
    x = MultiPoly.var(var)
    built = UniPoly(var, coeffs)
    via = UniPoly.from_multipoly(
        sum((c * x**e for e, c in enumerate(coeffs)), MultiPoly.zero()), var
    )
    assert built == via
    assert hash(built) == hash(via)
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
    # A quotient with a planted common factor: the kernel takes one gcd,
    # composes with psi -> (a psi + b)/(c psi + d) and normalizes without
    # another; the dict route composes and takes the full canonical form.
    assume(a * d != b * c)
    num_d = E._dmul_raw(_psi_dict(num), _psi_dict(common))
    den_d = E._dmul_raw(_psi_dict(den), _psi_dict(common))
    kn, kd = E._int_list_quotient(_psi_list(num_d), _psi_list(den_d))
    kn, kd = E._int_list_quotient(*E._int_list_moebius(kn, kd, (a, b, c, d)), coprime=True)
    psi = MultiPoly.var("psi")
    rn, rd = E._dcompose(
        {k: Fraction(v) for k, v in num_d.items()},
        {k: Fraction(v) for k, v in den_d.items()},
        [(0, (a * psi + b)._d, (c * psi + d)._d)],
    )
    rn, rd = E._ratfunc_canonical(rn, rd)
    assert (kn, kd) == (_psi_list(rn), _psi_list(rd))


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.just([]), int_lists), int_lists, small_ints, small_ints, small_ints, small_ints)
def test_moebius_composition_is_canonical_without_gcd(num, den, a, b, c, d):
    # Composing a canonical quotient with x -> (a x + b)/(c x + d),
    # ad - bc != 0, leaves only content and sign to normalize.
    assume(a * d != b * c)
    num, den = E._int_list_quotient(num, den)
    pair = E._int_list_moebius(num, den, (a, b, c, d))
    assert E._int_list_quotient(*pair, coprime=True) == E._int_list_quotient(*pair)


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
    # Where the one pass vanishes identically, no value is claimed.
    assume(den)
    assert RatFunc(MultiPoly._raw(num), MultiPoly._raw(den)) == _sequential_reference(f, mapping)


@settings(max_examples=150, deadline=None)
@given(st.lists(sparse_polys(), min_size=1, max_size=3), st.data())
def test_int_lists_at_matches_fraction_substitution(polys_, data):
    # The lists are the polynomials substituted one variable at a time,
    # all times one positive integer scale, whichever variables each has.
    names = sorted({v for p in polys_ for v in p.variables()} - {"psi"})
    names += data.draw(st.lists(st.sampled_from(E.VARIABLES[1:]), max_size=2))
    vals = {v: data.draw(eval_values) for v in names}
    if names and data.draw(st.integers(min_value=0, max_value=4)) == 0:
        del vals[data.draw(st.sampled_from(names))]
    idx_vals = {E._VAR_INDEX[v]: x for v, x in vals.items()}
    missing = sorted({v for p in polys_ for v in p.variables()} - set(vals) - {"psi"})
    if missing:
        with pytest.raises(E.MissingVariableError):
            E._int_lists_at(polys_, 0, idx_vals)
        return
    lists = E._int_lists_at(polys_, 0, idx_vals)
    scales = set()
    for got, p in zip(lists, polys_):
        for name, x in vals.items():
            p = p.substitute(name, x)
        want = _psi_list(p._d)
        assert len(got) == len(want)
        assert all(type(c) is int for c in got)
        for g, w in zip(got, want):
            if w:
                scales.add(g / w)
            else:
                assert g == 0
    assert len(scales) <= 1
    assert all(s > 0 and s.denominator == 1 for s in scales)


@settings(max_examples=150, deadline=None)
@given(sparse_polys(), sparse_polys(zero_ok=False), assignments())
def test_specialize_matches_fraction_substitution(num, den, vals):
    # Any subset of the variables, so several may remain; the denominator
    # substituted term by term is zero exactly where specialize refuses.
    if den.is_zero():
        den = MultiPoly.one()
    f = RatFunc(num, den)
    num_at, den_at = f.num, f.den
    for name, x in vals.items():
        num_at, den_at = num_at.substitute(name, x), den_at.substitute(name, x)
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
        hookw.curves._master_2B()[1].to_text(),
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
