"""Differential oracle: MultiPoly's integer dicts against Fraction dicts.

A MultiPoly holds an int dict over one positive denominator.  Every
operation here is also run on a plain dict of Fractions, written in the
test without the kernel's helpers, and the public term view must agree
with it.  The stored form must be the unique one: the denominator is the
lcm of the coefficient denominators, so it shares no factor with the
content.  Equal values of any exact type must hash alike.
"""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings, strategies as st

from hookw.exact import VARIABLES, MultiPoly, RatFunc, UniPoly, parse_ratfunc

NAMES = ("psi", "n", "m")
SLOTS = tuple(VARIABLES.index(name) for name in NAMES)
ZERO = (0,) * len(VARIABLES)


def key(exponents):
    """The universe key with the given exponents of NAMES."""
    out = list(ZERO)
    for i, e in zip(SLOTS, exponents):
        out[i] = e
    return tuple(out)


coefficients = st.builds(
    Fraction, st.integers(min_value=-12, max_value=12), st.integers(min_value=1, max_value=6)
)
keys = st.tuples(*(st.integers(min_value=0, max_value=2) for _ in NAMES)).map(key)
fraction_dicts = st.dictionaries(keys, coefficients, max_size=4).map(
    lambda d: {k: c for k, c in d.items() if c}
)
values = st.builds(
    Fraction, st.integers(min_value=-5, max_value=5), st.integers(min_value=1, max_value=4)
)


# -- the reference: dicts of Fractions -----------------------------------------


def r_add(a, b, sign=1):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def r_mul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def r_pow(a, e):
    out = {ZERO: Fraction(1)}
    for _ in range(e):
        out = r_mul(out, a)
    return out


def r_substitute(a, idx, value):
    out = {}
    for k, c in a.items():
        rest = {k[:idx] + (0,) + k[idx + 1 :]: c}
        out = r_add(out, r_mul(rest, r_pow(value, k[idx])))
    return out


def r_eval(a, point):
    total = Fraction(0)
    for k, c in a.items():
        for x, e in zip(point, k):
            c *= x**e
        total += c
    return total


def r_coefficient_of(a, idx, power):
    return {k[:idx] + (0,) + k[idx + 1 :]: c for k, c in a.items() if k[idx] == power}


def view(p):
    """The public term view as a dict, every coefficient checked to be a Fraction."""
    out = {}
    for mono, c in p.terms():
        assert type(c) is Fraction
        out[mono.key] = c
    return out


def assert_unique_form(p, ref):
    """p is ref stored as ints over the lcm of the reference's denominators."""
    den = lcm(*(c.denominator for c in ref.values()))
    assert p._den == den > 0
    assert p._d == {k: int(c * den) for k, c in ref.items()}
    assert all(type(c) is int and c for c in p._d.values())
    content = 0
    for c in p._d.values():
        content = gcd(content, c)
    assert gcd(p._den, content) == 1


def check(p, ref):
    assert view(p) == ref
    assert_unique_form(p, ref)


# -- the oracle -------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(fraction_dicts, fraction_dicts, st.integers(min_value=0, max_value=3))
def test_ring_operations_match_fraction_dicts(a, b, e):
    p, q = MultiPoly(a), MultiPoly(b)
    check(p, a)
    check(p + q, r_add(a, b))
    check(p - q, r_add(a, b, -1))
    check(q - p, r_add(b, a, -1))
    check(-p, {k: -c for k, c in a.items()})
    check(p * q, r_mul(a, b))
    check(p**e, r_pow(a, e))
    # Mixed with scalars on either side.
    check(p + Fraction(1, 3), r_add(a, {ZERO: Fraction(1, 3)}))
    check(Fraction(2, 5) - p, r_add({ZERO: Fraction(2, 5)}, a, -1))
    check(p * Fraction(-3, 4), r_mul(a, {ZERO: Fraction(-3, 4)}))
    assert (p == q) == (a == b)


@settings(max_examples=100, deadline=None)
@given(fraction_dicts, fraction_dicts, values, st.sampled_from(SLOTS))
def test_substitute_matches_fraction_dicts(a, b, x, idx):
    # Both a polynomial value and a scalar, whose denominator is often not 1.
    p, q = MultiPoly(a), MultiPoly(b)
    name = VARIABLES[idx]
    check(p.substitute(name, q), r_substitute(a, idx, b))
    check(p.substitute(name, x), r_substitute(a, idx, {ZERO: x} if x else {}))
    check(p.substitute(name, MultiPoly.const(x)), r_substitute(a, idx, {ZERO: x} if x else {}))


@settings(max_examples=100, deadline=None)
@given(fraction_dicts, st.tuples(values, values, values), st.sampled_from(SLOTS),
       st.integers(min_value=0, max_value=2))
def test_eval_and_coefficients_match_fraction_dicts(a, point, idx, power):
    p = MultiPoly(a)
    got = p.eval(dict(zip(NAMES, point)))
    assert type(got) is Fraction
    assert got == r_eval(a, key(point))
    check(p.coefficient_of(VARIABLES[idx], power), r_coefficient_of(a, idx, power))
    lead = p.leading_coefficient()
    assert type(lead) is Fraction
    if a:
        top = max(a, key=lambda k: (sum(k), k[::-1]))
        assert lead == a[top]
        assert p.terms()[0][0].key == top
    else:
        assert lead == 0


@settings(max_examples=100, deadline=None)
@given(fraction_dicts)
def test_text_round_trip(a):
    p = MultiPoly(a)
    back = parse_ratfunc(p.to_text())
    assert back == p and p == back
    assert back == RatFunc(p)
    check(MultiPoly(dict(view(p))), a)


@settings(max_examples=100, deadline=None)
@given(values, fraction_dicts)
def test_equal_values_hash_alike(x, a):
    # Constants: int, Fraction, MultiPoly and RatFunc, reached several ways.
    consts = [x, MultiPoly.const(x), RatFunc.const(x), RatFunc(MultiPoly.const(x)),
              MultiPoly.const(x - 1) + 1, RatFunc(MultiPoly.const(2 * x), 2),
              RatFunc.var("psi") - RatFunc.var("psi") + x]
    if x.denominator == 1:
        consts.append(x.numerator)
    # Polynomials: a MultiPoly and the RatFuncs over constant denominators.
    p = MultiPoly(a)
    polys = [p, RatFunc(p), RatFunc(3 * p, 3), RatFunc(p * 2) / 2]
    for group in (consts, polys):
        for u in group:
            for v in group:
                assert u == v
                assert hash(u) == hash(v)


@settings(max_examples=100, deadline=None)
@given(st.lists(coefficients, max_size=5), values)
def test_public_views_are_fractions(cs, x):
    u = UniPoly("psi", cs)
    assert all(type(c) is Fraction for c in u.coeffs)
    assert type(u.eval(x)) is Fraction
    p = u.to_multipoly()
    assert UniPoly.from_multipoly(p, "psi") == u
    assert type(p.const_value() if p.is_const() else p.eval({"psi": x})) is Fraction
    f = RatFunc(p, MultiPoly.var("psi") ** 2 + 1)
    assert type(f.eval({"psi": x})) is Fraction
    assert type(RatFunc.const(x).const_value()) is Fraction
