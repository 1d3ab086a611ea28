"""Exact sparse multivariate rational-function arithmetic.

Everything in this package that looks like a number is an arbitrary-precision
rational, and everything that looks like a formula is a sparse multivariate
polynomial or a quotient of two of them, held in a canonical form.  No
floats anywhere.

Variables live in a fixed, closed universe:

    psi < psi1 < psi2 < n < m < r < s

Terms are compared in graded-lexicographic order: higher total degree
first; ties broken lexicographically with ``s`` most significant and ``psi``
least.  The canonical text form lists terms in descending graded-lex order
with explicit ``*`` and ``^``, which makes serialized output deterministic
and round-trippable through :func:`parse_ratfunc`.

One coefficient ring: integers over one denominator.  A ``MultiPoly`` is
a dict from exponent keys to nonzero ints over one positive denominator,
the lcm of its coefficient denominators, and a ``UniPoly`` an int list
over one such denominator, so each stored form is unique.  Every ``_d*``
helper and the parser work on int dicts, the gcd and the resultant on int
dicts or int lists (see below); a Fraction is built only at a public view
(``terms()``, ``leading_coefficient()``, ``const_value()``,
``to_text()``, ``UniPoly.coeffs``) and as the result of an evaluation.

Canonical form of a quotient: numerator and denominator are integer
polynomials (denominator 1) with no common polynomial factor, the gcd of
their integer contents is 1, and the leading coefficient of the
denominator is positive.  Structural equality of canonical forms then
decides equality of rational functions.

The resultant and the multivariate gcd use a fraction-free subresultant
polynomial remainder sequence (Brown and Traub, J. ACM 18, 1971), which
keeps intermediate coefficients determinant-sized instead of letting naive
Euclidean division blow them up.  The sequence runs on a polynomial dense
in one main variable, and its pseudo-remainder (``_dense_prem``), exact
division (``_dense_divexact``), content, coprimality probe and sequence
step are written once over a coefficient ring that the shape of the
inputs picks (``_ring_for``): ints
when no other variable occurs (``_Ints``), integer lists in the one other
variable (``_Lists``; ``curves.intersect`` builds its bivariate
eliminations, in psi1 over psi2, on this ring directly), integer dicts
when there are more (``_Dicts``; the trivariate master and the catalog's
canonicalizations).  Dict gcds and
exact divisions (``_int_poly_gcd``, ``_divexact_int``) run on this layer,
and their coefficient operations recurse into it, one variable down.
The step, the pseudo-remainder of the last two members divided exactly
by g h^delta and the update of g and h, is one generator
(``_subresultants``); the gcd (``_dense_gcd``) reads the last member and
the resultant (``_resultant_int``) the last two, h and a sign.  The
resultant over integer lists in y runs on packed ints (Kronecker
substitution): each row is replaced by its value at y = 2^k and the
integer resultant is read back as signed base-2^k digits.  That is exact
because the resultant, a Sylvester determinant, commutes with evaluation
while both leading rows survive, and k is chosen past the bound on its
coefficients, the product of the 1-norms of the Sylvester rows.

Univariate work runs on dense integer coefficient lists, low to high: the
gcd over Z (a primitive remainder sequence, W. S. Brown 1971), exact
division, deflation by a rational root, the squarefree part and a
squarefree test over GF(q), all on ``_dense_prem`` and
``_dense_divexact`` over the ints ring, and every evaluation on one
kernel, ``_int_list_at``: q**top times the value at p/q, by one
homogeneous Horner loop over ints.  ``UniPoly`` is the one public
univariate form: one such list over one positive denominator, evaluated
over the integers and read by the root finder as it is.  The polynomial
gcd takes this kernel whenever its two arguments together involve
exactly one variable, and the lists ring of the remainder sequence is
made of its gcd, exact division and product (``_int_list_mul``).
Rational roots come from the squarefree part g of the primitive integer
form: its roots modulo the smallest prime q with q not dividing lc(g) and
g squarefree mod q are Newton-lifted p-adically past the bound on any
rational root, and every candidate is verified by exact evaluation.  For
q not dividing lc(g), g is squarefree mod q exactly when q does not
divide Res(g, g'), so this is the smallest prime dividing neither lc(g)
nor that resultant, found without forming it.  No integer is factored
and no step is probabilistic.

Substitution runs on the polynomial dicts (``_dsubst``, ``_dcompose``):
several variables at once by nested Horner, sliced by the first
variable, the rest substituted into each slice, and the slices combined
by Horner, so no value is captured by a later substitution.  A value is
a rational function or a scalar p/q; once only scalars remain, they go
in by one pass over the terms, term x^e times p^e * q^(d - e) for d the
degree, so the pass multiplies integers only.  ``RatFunc.specialize`` is
the one entry: ``RatFunc.substitute`` is its one-variable case, and
``RatFunc.eval`` and ``MultiPoly.eval`` are its composition at a full
scalar assignment, read as one Fraction.  A curve is instead read off as
lists in psi (``hookw.curves``), composed with a degree-one map of psi by
``_int_list_moebius``; integer lists are put in canonical form, with one
gcd, by ``_int_list_quotient``.

``_Cleared``, an uncanonicalized quotient of two int dicts, is the one
quotient arithmetic and the one zero test: its ring operations and its
equality, which zero-tests the cross difference, run no gcd, and an int
operand builds no Fraction.  ``RatFunc``'s operators are these plus one
canonicalization.  The parser and the coincidence table build formulas
on it and canonicalize each once; a symbolic curve runs the list kernels
above on polynomial ``_Cleared`` entries, so one pipeline builds every
curve (``hookw.curves``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import count, repeat
from math import gcd, isqrt, lcm
from operator import add, itemgetter, mul, sub, truediv

from ._record import Frozen

VARIABLES = ("psi", "psi1", "psi2", "n", "m", "r", "s")
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}
_NVARS = len(VARIABLES)
_ZERO_KEY = (0,) * _NVARS
_VAR_KEYS = tuple(tuple(int(j == i) for j in range(_NVARS)) for i in range(_NVARS))
_UNIT = {_ZERO_KEY: 1}

__all__ = [
    "VARIABLES",
    "ExactError",
    "ZeroDenominatorError",
    "PoleError",
    "MissingVariableError",
    "UnknownVariableError",
    "DegreeError",
    "ParseError",
    "MultiPoly",
    "RatFunc",
    "UniPoly",
    "poly_gcd",
    "resultant",
    "rational_roots",
    "parse_rational",
    "parse_ratfunc",
]


class ExactError(ValueError):
    """Base error for the exact-arithmetic layer."""


class ZeroDenominatorError(ExactError):
    """A quotient was constructed with an identically zero denominator."""


class PoleError(ExactError):
    """Evaluation hit a point where the denominator vanishes."""


class MissingVariableError(ExactError):
    """Evaluation was asked without a value for a variable that occurs."""


class UnknownVariableError(ExactError):
    """A variable name outside the fixed universe was used."""


class DegreeError(ExactError):
    """An operation needed positive degree in the eliminated variable."""


class ParseError(ExactError):
    """Text could not be parsed as an expression over the universe."""


def _check_var(name):
    if name not in _VAR_INDEX:
        raise UnknownVariableError(
            "unknown variable %r; universe is %s" % (name, ", ".join(VARIABLES))
        )
    return _VAR_INDEX[name]


def _grlex_key(key):
    # Total degree first, then lex with the last universe variable most
    # significant.  Used both for term ordering and for the sign rule.
    return (sum(key), key[::-1])


def _coerce_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise ExactError("expected an integer or Fraction, got %r" % (value,))


# ---------------------------------------------------------------------------
# Raw dict helpers.  A polynomial is dict[key 7-tuple -> nonzero int]; a
# MultiPoly is one such dict over one positive denominator.
# ---------------------------------------------------------------------------


def _dadd(a, b):
    out = dict(a)
    for k, c in b.items():
        v = out.get(k)
        if v is None:
            out[k] = c
        else:
            v = v + c
            if v:
                out[k] = v
            else:
                del out[k]
    return out


def _dneg(a):
    return {k: -c for k, c in a.items()}


def _dsub(a, b):
    out = dict(a)
    for k, c in b.items():
        v = out.get(k)
        if v is None:
            out[k] = -c
        else:
            v = v - c
            if v:
                out[k] = v
            else:
                del out[k]
    return out


def _dscale(a, c):
    """a times the nonzero int c."""
    return a if c == 1 else {k: v * c for k, v in a.items()}


def _dmul(a, b):
    # Plain convolution, with the smaller operand as the outer loop.
    if len(a) > len(b):
        a, b = b, a
    out = {}
    bitems = list(b.items())
    for ka, ca in a.items():
        for kb, cb in bitems:
            k = (
                ka[0] + kb[0],
                ka[1] + kb[1],
                ka[2] + kb[2],
                ka[3] + kb[3],
                ka[4] + kb[4],
                ka[5] + kb[5],
                ka[6] + kb[6],
            )
            v = out.get(k)
            if v is None:
                out[k] = ca * cb
            else:
                v = v + ca * cb
                if v:
                    out[k] = v
                else:
                    del out[k]
    return out


def _dpow(a, e):
    # Square and multiply, from the first factor rather than the unit.
    result = None
    while e:
        if e & 1:
            result = a if result is None else _dmul(result, a)
        e >>= 1
        if e:
            a = _dmul(a, a)
    return {_ZERO_KEY: 1} if result is None else result


def _dconst(a):
    """The int value of a constant dict, or None when a variable occurs."""
    return None if len(a) > 1 else (a.get(_ZERO_KEY) if a else 0)


def _dmul_pow(a, b, e):
    """a * b**e for e >= 1, by an integer scaling when b is a constant."""
    c = _dconst(b)
    if c is None:
        return _dmul(a, _dpow(b, e))
    return _dscale(a, c**e) if c else {}


def _dreduced(a, den):
    """(a', den') with a'/den' == a/den, den' > 0 and gcd(den', content(a')) == 1."""
    g = den if den == 1 else gcd(den, _int_content(a.values()))
    return (a, den) if g == 1 else ({k: c // g for k, c in a.items()}, den // g)


def _dleading(a):
    """(key, coeff) of the graded-lex greatest term; a must be nonzero."""
    k = max(a, key=_grlex_key)
    return k, a[k]


def _dvars(a):
    return frozenset(i for i, column in enumerate(zip(*a)) if any(column))


def _ddeg_var(a, idx):
    d = -1
    for k in a:
        if k[idx] > d:
            d = k[idx]
    return d if a else -1


def _dprimitive(a):
    """(content, primitive dict): content the nonnegative gcd of a's values."""
    c = _int_content(a.values())
    return c, (a if c <= 1 else {k: v // c for k, v in a.items()})


def _dsubst(a, subs):
    """Substitute several variables at once into dict a: subs lists (idx, num, den).

    Returns (result, degrees) where result == a(idx_j := num_j/den_j for
    all j) * prod(den_j**degrees[j]) and degrees[j] is the degree of a in
    idx_j.  Nested Horner: a is sliced by the power of the first variable,
    with the variable removed, the rest are substituted into each slice,
    each cleared to a's own degree in them, and the slices are combined
    by Horner from the top degree, which keeps the factor count low.  A
    value may mention any variable, one substituted later included: it
    enters only after its variable is gone from what it multiplies, so
    nothing is captured.  Once every remaining value is a scalar p/q they
    go in by one pass over the terms, with one table of p**e q**(d-e) per
    variable; a scalar before a polynomial value makes its Horner steps
    integer scalings.
    """
    if not subs:
        return dict(a), []
    scalars = [(_dconst(num), _dconst(den)) for _, num, den in subs]
    if all(p is not None and q is not None for p, q in scalars):
        degrees = [max(map(itemgetter(idx), a), default=0) for idx, _, _ in subs]
        coeffs = a.values()
        picks = list(range(_NVARS))
        for (idx, _, _), (p, q), d in zip(subs, scalars, degrees):
            if d:
                powers = [p**e * q ** (d - e) for e in range(d + 1)]
                coeffs = map(mul, coeffs, map(powers.__getitem__, map(itemgetter(idx), a)))
            picks[idx] = _NVARS
        # Each key is read from k + (0,), a substituted exponent from the 0.
        strip = itemgetter(*picks)
        out = {}
        for kk, c in zip(map(strip, map(add, a, repeat((0,)))), coeffs):
            out[kk] = out.get(kk, 0) + c
        return {k: c for k, c in out.items() if c}, degrees
    (idx, num, den), rest = subs[0], subs[1:]
    d = max(_ddeg_var(a, idx), 0)
    slices = {}
    for k, c in a.items():
        e = k[idx]
        kk = k[:idx] + (0,) + k[idx + 1 :]
        sl = slices.setdefault(e, {})
        v = sl.get(kk)
        sl[kk] = c if v is None else v + c
    degrees = [0] * len(rest)
    if rest:
        done = {e: _dsubst(sl, rest) for e, sl in slices.items()}
        for _, ds in done.values():
            degrees = [max(x, y) for x, y in zip(degrees, ds)]
        for e, (sl, ds) in done.items():
            for (_, _, b), have, want in zip(rest, ds, degrees):
                if have < want:
                    sl = _dmul_pow(sl, b, want - have)
            slices[e] = sl
    acc = slices.get(d, {})
    for e in range(d - 1, -1, -1):
        acc = _dmul_pow(acc, num, 1)
        coeff = slices.get(e)
        if coeff:
            acc = _dadd(acc, _dmul_pow(coeff, den, d - e))
    return acc, [d] + degrees


def _dcompose(num, den, subs):
    """Cleared composition of the quotient num/den with idx_j -> a_j/b_j.

    ``subs`` lists (idx, a, b), substituted simultaneously (``_dsubst``).
    Returns uncanonicalized (num', den') with num'/den' the composed
    value: for each variable both sides are cleared by the same power of
    its b.  den' is empty exactly when the composition makes the
    denominator vanish identically.
    """
    nn, n_degs = _dsubst(num, subs)
    dd, d_degs = _dsubst(den, subs)
    for (_, _, b), dn, dd_deg in zip(subs, n_degs, d_degs):
        if dn < dd_deg:
            nn = _dmul_pow(nn, b, dd_deg - dn)
        elif dd_deg < dn:
            dd = _dmul_pow(dd, b, dn - dd_deg)
    return nn, dd


def _substitutions(assignment):
    """The (idx, num, den) rows of ``_dsubst`` for a map of names to values.

    Values are exact scalars, MultiPolys or RatFuncs; an entry that maps
    a variable to itself is dropped.
    """
    subs = []
    for name, value in assignment.items():
        i = _check_var(name)
        if isinstance(value, RatFunc):
            num, den = value.num._d, value.den._d
        elif isinstance(value, MultiPoly):
            num, den = value._d, {_ZERO_KEY: value._den}
        else:
            c = _coerce_fraction(value)
            num, den = {_ZERO_KEY: c.numerator} if c else {}, {_ZERO_KEY: c.denominator}
        if den != _UNIT or num != {_VAR_KEYS[i]: 1}:
            subs.append((i, num, den))
    return subs


def _homogenized_powers(value, d):
    """[p**e * q**(d - e) for e in 0..d], where value == p/q in lowest terms.

    Dividing by q**d turns each entry into value**e, so a polynomial of
    degree at most d in the variable is evaluated over the integers.
    """
    p, q = value.numerator, value.denominator
    table = [1] * (d + 1)
    for e in range(1, d + 1):
        table[e] = table[e - 1] * p
    if q != 1:
        qe = 1
        for e in range(d - 1, -1, -1):
            qe *= q
            table[e] *= qe
    return table


# ---------------------------------------------------------------------------
# Exact division of integer dicts.  A dense polynomial is a list of
# coefficients, low to high, with a nonzero last entry; _dense_trim drops
# zero leading entries, whatever the coefficients are.
# ---------------------------------------------------------------------------


def _dense_trim(coeffs):
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _divexact_int(a, b):
    """Exact division of integer-coefficient dicts; raises if inexact.

    Dense in the lowest variable that occurs, over the coefficient ring
    ``_ring_for`` picks from the others (``_dense_divexact``).
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    vs = _dvars(a) | _dvars(b)
    idx = min(vs, default=0)
    ring = _ring_for(idx, vs - {idx})
    return ring.undense(_dense_divexact(ring.dense(a, idx), ring.dense(b, idx), ring), idx)


# ---------------------------------------------------------------------------
# Dense univariate integer kernel.  A polynomial is a list of ints, low to
# high, with a nonzero last entry; [] is zero.  Every univariate gcd, exact
# division and squarefree test runs here, on the remainder layer's loops
# _dense_prem and _dense_divexact over the ints ring _INTS.
# ---------------------------------------------------------------------------


def _int_content(values):
    """Nonnegative gcd of an iterable of ints."""
    g = 0
    for c in values:
        g = gcd(g, c)
        if g == 1:
            break
    return g


def _int_list_gcd(a, b):
    """Gcd over Z of integer lists, not both zero: content included, positive leading.

    Primitive remainder sequence (W. S. Brown, J. ACM 18, 1971): each
    pseudo-remainder is divided by its integer content before the next step.
    """
    if not a or not b:
        c = a or b
        return c if c[-1] > 0 else [-v for v in c]
    ca = _int_content(a)
    cb = _int_content(b)
    cont = gcd(ca, cb)
    a = [c // ca for c in a]
    b = [c // cb for c in b]
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _dense_prem(a, b, _INTS)
        if not r:
            if b[-1] < 0:
                cont = -cont
            return [c * cont for c in b]
        cr = _int_content(r)
        a, b = b, [c // cr for c in r]
    return [cont]


def _int_list_mul(a, b):
    """Product of integer lists."""
    if not a or not b:
        return []
    nb = len(b)
    out = [0] * (len(a) + nb - 1)
    for i, x in enumerate(a):
        if x:
            out[i : i + nb] = [o + x * y for o, y in zip(out[i : i + nb], b)]
    return out


def _int_list_sub(a, b):
    """Difference a - b of integer lists, trimmed."""
    out = a + [0] * (len(b) - len(a))
    for j, c in enumerate(b):
        out[j] -= c
    return _dense_trim(out)


def _int_list_pow(a, e):
    """a**e by repeated products; the remainder sequences raise to small e."""
    out = [1]
    for _ in range(e):
        out = _int_list_mul(out, a)
    return out


def _int_list_at(cs, p, q=1, top=None):
    """q**top times the value of an integer list at p/q; top defaults to its degree.

    The package's one evaluator of an integer list: sum(c_e p**e q**(top - e))
    by one homogeneous Horner loop, for any nonzero int q and top >= degree.
    """
    if top is None:
        top = len(cs) - 1
    # The last of k coefficients carries q**(top + 1 - k); each step down one more q.
    acc = 0
    qe = q ** (top + 1 - len(cs))
    for c in reversed(cs):
        acc = acc * p + c * qe
        qe *= q
    return acc


def _int_list_unpack(v, k):
    """The integer list whose value at 2**k is v, each digit in [-2**(k-1), 2**(k-1))."""
    half, mask = 1 << (k - 1), (1 << k) - 1
    out = []
    while v:
        d = v & mask
        if d >= half:
            d -= mask + 1
        out.append(d)
        v = (v - d) >> k
    return out


def _int_list_deflate(cs, root):
    """(quotient, multiplicity) of the root p/q's factor q*x - p in cs.

    Divides until ``_dense_divexact`` raises, evaluating nothing: the
    factor is primitive, so by Gauss's lemma the first failed division
    over Z proves the root is gone.  The zero list stops at once.
    """
    factor = [-root.numerator, root.denominator]
    mult = 0
    while cs:
        try:
            cs = _dense_divexact(cs, factor, _INTS)
        except ExactError:
            break
        mult += 1
    return cs, mult


def _int_list_squarefree(f):
    """Squarefree part f / gcd(f, f') of a primitive list of degree >= 1."""
    df = [e * c for e, c in enumerate(f)][1:]
    return _dense_divexact(f, _int_list_gcd(f, df), _INTS)


def _squarefree_mod(g, q):
    """Whether g, whose leading coefficient q does not divide, is squarefree mod q.

    Euclid over GF(q) on g and g': each pseudo-remainder is a unit multiple
    of the remainder there, so the sequence ends in a nonzero constant
    exactly when gcd(g mod q, g' mod q) == 1.
    """
    a = [c % q for c in g]
    b = _dense_trim([e * c % q for e, c in enumerate(g)][1:])
    while len(b) > 1:
        a, b = b, _dense_trim([c % q for c in _dense_prem(a, b, _INTS)])
    return len(b) == 1


def _int_list_quotient(num, den):
    """(num', den'): the canonical form of num/den.

    ``_ratfunc_canonical`` on the kernel: no common factor, coprime integer
    contents, positive leading denominator coefficient.
    """
    if not den:
        raise ZeroDenominatorError("zero denominator")
    if not num:
        return [], [1]
    g = _int_list_gcd(num, den)
    if len(g) > 1:
        num = _dense_divexact(num, g, _INTS)
        den = _dense_divexact(den, g, _INTS)
    c = gcd(_int_content(num), _int_content(den))
    if den[-1] < 0:
        c = -c
    return [v // c for v in num], [v // c for v in den]


def _int_list_moebius(lists, w):
    """Cleared composition of integer lists with x -> (a x + b)/(c x + d), w = (a, b, c, d).

    All lists are homogenized to k, the largest degree: each becomes
    sum(cs[i] * (a x + b)**i * (c x + d)**(k - i)), by Horner in the
    ratio of the two linear forms, so the quotient of any two is their
    composite.  An empty list stays empty, and so does all-empty input.
    """
    a, b, c, d = w
    k = max(map(len, lists)) - 1
    if k < 0:
        return lists

    def times(p, lo, hi):
        # p * (hi x + lo)
        return [lo * x + hi * y for x, y in zip(p + [0], [0] + p)]

    out = []
    for cs in lists:
        acc = [cs[k]] if k < len(cs) else [0]
        power = [1]
        for i in range(k - 1, -1, -1):
            power = times(power, d, c)
            acc = times(acc, b, a)
            if i < len(cs) and cs[i]:
                for e, v in enumerate(power):
                    acc[e] += cs[i] * v
        out.append(_dense_trim(acc))
    return out


def _dict_to_int_list(a, idx):
    """Integer list of a dict in at most the variable idx."""
    cs = [0] * (_ddeg_var(a, idx) + 1)
    for k, c in a.items():
        cs[k[idx]] = c
    return cs


def _int_list_to_dict(cs, idx):
    key = list(_ZERO_KEY)
    out = {}
    for e, c in enumerate(cs):
        if c:
            key[idx] = e
            out[tuple(key)] = c
    return out


# ---------------------------------------------------------------------------
# Dense remainder layer over a coefficient ring.  The resultant, the
# multivariate gcd and exact division read a polynomial as dense in one main
# variable, its coefficients in the ring that ``_ring_for`` picks from the
# other variables that occur: ints when there is none (``_Ints``), integer
# lists in the one other variable (``_Lists``), integer dicts over the
# universe when there are more (``_Dicts``).  The rings offer the same
# operations, bar the gcd's probe that ``_Ints`` never needs, so every loop
# below is written once.  No ring operation mutates its arguments, so
# ``zero`` and ``one`` are shared values.
# ---------------------------------------------------------------------------


class _Ints:
    """Coefficients as ints: a polynomial in the main variable alone, as a list."""

    zero = 0
    one = 1
    mul = staticmethod(mul)
    sub = staticmethod(sub)
    power = staticmethod(pow)
    gcd = staticmethod(gcd)
    dense = staticmethod(_dict_to_int_list)
    undense = staticmethod(_int_list_to_dict)

    @staticmethod
    def divexact(a, b):
        q, r = divmod(a, b)
        if r:
            raise ExactError("inexact polynomial division")
        return q


class _Lists:
    """Coefficients as integer lists, low to high, in the variable y."""

    zero = []
    one = [1]
    mul = staticmethod(_int_list_mul)
    sub = staticmethod(_int_list_sub)
    power = staticmethod(_int_list_pow)
    gcd = staticmethod(_int_list_gcd)

    @staticmethod
    def divexact(a, b):
        return _dense_divexact(a, b, _INTS)

    def __init__(self, y):
        self.y = y

    def dense(self, a, idx):
        """Dict a, in idx and at most y, as a dense polynomial in idx."""
        y = self.y
        rows = [[] for _ in range(_ddeg_var(a, idx) + 1)]
        for k, c in a.items():
            row = rows[k[idx]]
            f = k[y]
            if len(row) <= f:
                row.extend([0] * (f + 1 - len(row)))
            row[f] = c
        return rows

    def undense(self, A, idx):
        """The dict of a dense polynomial in idx."""
        key = list(_ZERO_KEY)
        out = {}
        for e, cs in enumerate(A):
            key[idx] = e
            for f, c in enumerate(cs):
                if c:
                    key[self.y] = f
                    out[tuple(key)] = c
        return out

    @staticmethod
    def probe(seed, others):
        """Evaluation of a coefficient at y = seed[0] (``_int_list_at``)."""
        x = seed[0]
        return lambda cs: _int_list_at(cs, x)


class _Dicts:
    """Coefficients as integer dicts over the universe."""

    zero = {}
    one = _UNIT
    mul = staticmethod(_dmul)
    sub = staticmethod(_dsub)
    power = staticmethod(_dpow)
    divexact = staticmethod(_divexact_int)

    @staticmethod
    def gcd(a, b):
        return _int_poly_gcd(a, b)

    @staticmethod
    def dense(a, idx):
        """Dict a as a dense polynomial in idx."""
        coeffs = [{} for _ in range(_ddeg_var(a, idx) + 1)]
        for k, c in a.items():
            coeffs[k[idx]][k[:idx] + (0,) + k[idx + 1 :]] = c
        return coeffs

    @staticmethod
    def undense(A, idx):
        """The dict of a dense polynomial in idx."""
        return {k[:idx] + (e,) + k[idx + 1 :]: c
                for e, sl in enumerate(A) for k, c in sl.items()}

    @staticmethod
    def probe(seed, others):
        """Evaluation of a coefficient with the others at seed's entries, in order."""
        subs = [(i, {_ZERO_KEY: seed[slot % len(seed)]}, _UNIT)
                for slot, i in enumerate(sorted(others))]
        return lambda c: _dsubst(c, subs)[0].get(_ZERO_KEY, 0)


_INTS = _Ints()
_LISTS = tuple(_Lists(y) for y in range(_NVARS))
_DICTS = _Dicts()


def _ring_for(idx, others):
    """The coefficient ring for main variable idx when the variables others occur."""
    if not others:
        return _INTS
    return _DICTS if len(others) > 1 else _LISTS[min(others)]


def _dense_prem(A, B, ring):
    """Pseudo-remainder: lc(B)^(degA-degB+1) * A  mod  B."""
    mul, sub = ring.mul, ring.sub
    dB = len(B) - 1
    assert dB >= 0 and len(A) - 1 >= dB
    lb = B[-1]
    R = list(A)
    for i in range(len(A) - 1 - dB, -1, -1):
        # Multiply the rest of the remainder by lc(B), then cancel the
        # x^(dB+i) term against top * B.
        top = R.pop()
        R = [mul(c, lb) if c else c for c in R]
        if top:
            for j in range(dB):
                if B[j]:
                    R[i + j] = sub(R[i + j], mul(top, B[j]))
    return _dense_trim(R)


def _dense_divexact(A, B, ring):
    """Quotient A / B of dense polynomials over ring; ExactError unless exact.

    Each quotient coefficient is an exact division of leading coefficients
    in the ring, which raises when it is inexact there; a remainder left
    below B's degree raises here.
    """
    divexact, mul, sub = ring.divexact, ring.mul, ring.sub
    lb = B[-1]
    low = [(j, c) for j, c in enumerate(B[:-1]) if c]
    R = list(A)
    Q = [ring.zero] * max(len(A) - len(B) + 1, 0)
    for i in range(len(Q) - 1, -1, -1):
        top = R.pop()
        if top:
            q = Q[i] = divexact(top, lb)
            for j, c in low:
                R[i + j] = sub(R[i + j], mul(q, c))
    if any(R):
        raise ExactError("inexact polynomial division")
    return Q


def _dense_primitive(A, ring):
    """(content, primitive part) of a dense polynomial over ring, content positive leading."""
    g = ring.zero
    for c in A:
        if c:
            g = ring.gcd(g, c)
            if g == ring.one:
                break
    return g, [ring.divexact(c, g) if c else c for c in A]


# Probe points for the coprimality certificate: any tuple whose entries keep
# both leading coefficients nonzero preserves the gcd degree bound.
_PROBE_SEEDS = ((2, 3, 5, 7, 11, 13, 17), (5, 7, 11, 13, 17, 19, 23),
                (-3, 4, -7, 9, -11, 15, -13))


def _coprime_by_probe(A, B, ring, others):
    """Certify two primitive dense polynomials coprime in their main variable.

    Specializing the coefficient variables ``others`` at integers where both
    leading coefficients survive cannot lower the gcd degree in the main
    variable, so one constant specialized gcd is a proof.  Probe failure
    proves nothing and the caller runs the full remainder sequence.
    """
    for seed in _PROBE_SEEDS:
        at = ring.probe(seed, others)
        if at(A[-1]) == 0 or at(B[-1]) == 0:
            continue
        if len(_int_list_gcd([at(c) for c in A], [at(c) for c in B])) == 1:
            return True
    return False


def _subresultants(A, B, ring):
    """The subresultant remainder sequence of dense A, B over ring, len(A) >= len(B).

    One step: the pseudo-remainder of the last two members, divided exactly
    by g h^delta, and the update of g and h (Brown and Traub).  Yields
    (A, B, h) after each step, B the newest member; stops when B is a
    constant or the next pseudo-remainder is zero.
    """
    divexact, mul, power = ring.divexact, ring.mul, ring.power
    g = h = ring.one
    while len(B) > 1:
        delta = len(A) - len(B)
        R = _dense_prem(A, B, ring)
        if not R:
            return
        divisor = mul(g, power(h, delta))
        A, B = B, [divexact(c, divisor) if c else c for c in R]
        g = A[-1]
        if delta:
            h = divexact(power(g, delta), power(h, delta - 1))
        yield A, B, h


def _dense_gcd(A, B, ring, others):
    """Gcd of dense polynomials over ring, as a dense polynomial, up to sign.

    The contents are stripped and their gcd taken in the ring; the
    primitive parts are certified coprime by ``_coprime_by_probe`` when it
    can, and otherwise run through ``_subresultants``, whose last member
    has the gcd as its primitive part (none when it is a constant).
    """
    ca, A = _dense_primitive(A, ring)
    cb, B = _dense_primitive(B, ring)
    cont = ring.gcd(ca, cb)
    if _coprime_by_probe(A, B, ring, others):
        return [cont]
    if len(A) < len(B):
        A, B = B, A
    for _, B, _ in _subresultants(A, B, ring):
        pass
    if len(B) == 1:
        return [cont]
    _, B = _dense_primitive(B, ring)
    return [ring.mul(c, cont) if c else c for c in B]


def _resultant_int(A, B, ring):
    """Resultant of dense polynomials over ring (degrees >= 1), in the ring.

    The resultant of the primitive parts is read off ``_subresultants``:
    zero unless the sequence ends in a constant B, and then
    B^deg(A) / h^(deg(A) - 1), signed by the degrees of the members.

    Over integer lists in y (``_Lists``) it runs on packed ints instead
    (Kronecker substitution y -> 2^k, von zur Gathen and Gerhard, Modern
    Computer Algebra, 8.4): each row becomes its value at 2^k, the
    resultant is taken over ``_INTS`` and read back as signed base-2^k
    digits.  With |A|_1 the sum of the absolute coefficients of all rows
    of A, k = bitlen(|A|_1^deg B * |B|_1^deg A) + 2, and this is exact:

    - |Res|_inf <= |Res|_1 <= the product over the Sylvester rows of their
      1-norms, since the 1-norm is submultiplicative; that product is
      |A|_1^deg B * |B|_1^deg A, and it also bounds every input coefficient;
    - so every coefficient has absolute value below 2^(k-2), and both
      leading rows stay nonzero at 2^k;
    - so the degrees survive, the packed resultant is Res(2^k) (the
      resultant is a determinant of the Sylvester matrix, so it commutes
      with evaluation), and its digits are exactly Res's coefficients.
    """
    if isinstance(ring, _Lists):
        norm_a = sum(abs(c) for row in A for c in row)
        norm_b = sum(abs(c) for row in B for c in row)
        k = (norm_a ** (len(B) - 1) * norm_b ** (len(A) - 1)).bit_length() + 2
        packed = [[_int_list_at(row, 1 << k) for row in P] for P in (A, B)]
        return _int_list_unpack(_resultant_int(*packed, _INTS), k)
    mul, power = ring.mul, ring.power
    s = 1
    if len(A) < len(B):
        A, B = B, A
        if ((len(A) - 1) * (len(B) - 1)) % 2:
            s = -s
    ca, A = _dense_primitive(A, ring)
    cb, B = _dense_primitive(B, ring)
    t = mul(power(ca, len(B) - 1), power(cb, len(A) - 1))
    d = len(A) - 1
    for A, B, h in _subresultants(A, B, ring):
        # A is the member before B: the step just taken paired degrees d, deg A.
        if d % 2 and (len(A) - 1) % 2:
            s = -s
        d = len(A) - 1
    if len(B) > 1:
        return ring.zero
    out = mul(t, ring.divexact(power(B[0], d), power(h, d - 1)))
    return out if s > 0 else ring.sub(ring.zero, out)


def _int_poly_gcd(a, b):
    """Gcd of integer-coefficient dicts over Z, positive leading coefficient.

    Integer content is part of the answer: gcd(6*psi, 4) == 2.  When a and
    b together involve one variable, the integer-list kernel answers.  When
    one of them is linear (total degree 1), its primitive part p is
    irreducible, so the gcd is p times the gcd of the two integer contents
    if p divides the other (one exact division), and that content gcd
    alone if not.  Otherwise the lowest shared variable is the main one
    and ``_dense_gcd`` runs the subresultant remainder sequence (the
    primitive one is ``_int_list_gcd``'s) over the ring ``_ring_for``
    picks: integer lists when the coefficients involve one other
    variable, integer dicts when they involve more, whose content gcds
    recurse here.
    """
    if not a:
        return _sign_normalize_int(dict(b))
    if not b:
        return _sign_normalize_int(dict(a))
    va = _dvars(a)
    vb = _dvars(b)
    if not va or not vb or not (va & vb):
        # A constant side, or no shared variable: only the integer contents
        # can divide both.
        return {_ZERO_KEY: gcd(_int_content(a.values()), _int_content(b.values()))}
    vs = va | vb
    if len(vs) == 1:
        (idx,) = vs
        return _int_list_to_dict(_int_list_gcd(
            _dict_to_int_list(a, idx), _dict_to_int_list(b, idx)), idx)
    for lin, other in ((a, b), (b, a)):
        if all(sum(k) <= 1 for k in lin):
            content, p = _dprimitive(lin)
            g = gcd(content, _int_content(other.values()))
            try:
                _divexact_int(other, p)
            except ExactError:
                return {_ZERO_KEY: g}
            return _sign_normalize_int(_dscale(p, g))
    if a == b:
        return _sign_normalize_int(dict(a))
    idx = min(va & vb)
    others = vs - {idx}
    ring = _ring_for(idx, others)
    G = _dense_gcd(ring.dense(a, idx), ring.dense(b, idx), ring, others)
    return _sign_normalize_int(ring.undense(G, idx))


def _sign_normalize_int(a):
    if not a:
        return a
    _, lead = _dleading(a)
    if lead < 0:
        return {k: -c for k, c in a.items()}
    return a


# ---------------------------------------------------------------------------
# Public classes.
# ---------------------------------------------------------------------------


def _monomial_text(key):
    # Variables inside a term print with the most significant first, matching
    # the tie-breaking order of the term sort.
    parts = []
    for i in range(_NVARS - 1, -1, -1):
        e = key[i]
        if e == 1:
            parts.append(VARIABLES[i])
        elif e:
            parts.append("%s^%d" % (VARIABLES[i], e))
    return "*".join(parts)


class MultiPoly(Frozen):
    """Sparse multivariate polynomial over exact rationals, held as integers.

    An integer dict (exponent key -> nonzero int) over one positive
    denominator ``_den``, the lcm of the coefficient denominators, so
    gcd(den, content) == 1 and the stored form is unique: equality is
    structural and equal values hash alike, a constant as its Fraction.
    Immutable.  Supports ring arithmetic and the canonical text form; keys
    are exponent tuples, one entry per variable of ``VARIABLES``.  ``eval``
    is the polynomial as a quotient by its denominator, evaluated by
    ``RatFunc.eval``.  ``terms()``, ``leading_coefficient()``,
    ``const_value()`` and ``eval`` return Fractions.
    """

    __slots__ = _record_fields = ("_d", "_den", "_hash")

    def __init__(self, terms=None):
        d = {}
        if terms:
            for key, coeff in terms.items():
                if not isinstance(key, tuple) or len(key) != _NVARS or any(
                    not isinstance(e, int) or e < 0 for e in key
                ):
                    raise ExactError("bad exponent tuple %r" % (key,))
                c = _coerce_fraction(coeff)
                if c:
                    prev = d.get(key)
                    c = c if prev is None else prev + c
                    if c:
                        d[key] = c
                    else:
                        del d[key]
        den = lcm(*(c.denominator for c in d.values()))
        self._set({k: c.numerator * (den // c.denominator) for k, c in d.items()}, den)

    @classmethod
    def _raw(cls, d, den=1):
        """The polynomial d / den; d an int dict with gcd(den, content) == 1."""
        self = cls.__new__(cls)
        self._set(d, den)
        return self

    @classmethod
    def _reduced(cls, d, den):
        """The polynomial d / den for any int dict d and positive int den."""
        return cls._raw(*_dreduced(d, den))

    def _set(self, d, den):
        object.__setattr__(self, "_d", d)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_hash", None)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return _POLY_ZERO

    @classmethod
    def one(cls):
        return _POLY_ONE

    @classmethod
    def const(cls, value):
        c = _coerce_fraction(value)
        if not c:
            return _POLY_ZERO
        return cls._raw({_ZERO_KEY: c.numerator}, c.denominator)

    @classmethod
    def var(cls, name):
        return cls._raw({_VAR_KEYS[_check_var(name)]: 1})

    # -- inspection --------------------------------------------------------

    def terms(self):
        """Canonical term list: (exponent tuple, coefficient), descending graded-lex."""
        items = sorted(self._d.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)
        return [(k, Fraction(c, self._den)) for k, c in items]

    def is_zero(self):
        return not self._d

    def is_const(self):
        return not self._d or (len(self._d) == 1 and _ZERO_KEY in self._d)

    def const_value(self):
        if self.is_const():
            return Fraction(self._d.get(_ZERO_KEY, 0), self._den)
        raise ExactError("not a constant polynomial")

    def variables(self):
        return frozenset(VARIABLES[i] for i in _dvars(self._d))

    def total_degree(self):
        if not self._d:
            return 0
        return max(sum(k) for k in self._d)

    def degree(self, var):
        i = _check_var(var)
        if not self._d:
            return 0
        return max(k[i] for k in self._d)

    def leading_coefficient(self):
        if not self._d:
            return Fraction(0)
        return Fraction(_dleading(self._d)[1], self._den)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(other)
        return None

    def _combine(self, o, combine):
        # combine(self, o) on the dicts over the lcm of the two denominators.
        a, b, den = self._d, o._d, self._den
        if den != o._den:
            den = lcm(den, o._den)
            a = _dscale(a, den // self._den)
            b = _dscale(b, den // o._den)
        return MultiPoly._reduced(combine(a, b), den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, _dadd)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, _dsub)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._combine(self, _dsub)

    def __neg__(self):
        return MultiPoly._raw(_dneg(self._d), self._den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return MultiPoly._reduced(_dmul(self._d, o._d), self._den * o._den)

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ExactError("polynomial power must be a non-negative int")
        # Gauss's lemma: content(a**e) == content(a)**e, still coprime to den**e.
        return MultiPoly._raw(_dpow(self._d, e), self._den**e)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_const() and self.const_value() == other
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._den == other._den and self._d == other._d

    def __hash__(self):
        h = self._hash
        if h is None:
            if self.is_const():
                h = hash(self.const_value())
            else:
                h = hash((frozenset(self._d.items()), self._den))
            object.__setattr__(self, "_hash", h)
        return h

    # -- evaluation ----------------------------------------------------------

    def eval(self, assignment):
        """Exact value at a full assignment of the occurring variables (``RatFunc.eval``)."""
        return RatFunc._from_poly(self).eval(assignment)

    # -- text ----------------------------------------------------------------

    def to_text(self):
        if not self._d:
            return "0"
        parts = []
        items = sorted(self._d.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)
        for pos, (k, c) in enumerate(items):
            mono = _monomial_text(k)
            mag = Fraction(abs(c), self._den)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = "%s*%s" % (_rat_text(mag), mono)
            else:
                body = _rat_text(mag)
            if pos == 0:
                parts.append("-" + body if c < 0 else body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        return "".join(parts)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return "MultiPoly(%s)" % self.to_text()


_POLY_ZERO = MultiPoly._raw({})
_POLY_ONE = MultiPoly._raw({_ZERO_KEY: 1})


def _rat_text(q):
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


class RatFunc(Frozen):
    """Quotient of two multivariate polynomials in canonical form.

    The constructor always canonicalizes: polynomial gcd and shared integer
    content removed, denominator leading coefficient positive.  ``num`` and
    ``den`` have integer coefficients (denominator 1).  Equality is
    structural equality of the canonical parts, which is a decision
    procedure for equality of rational functions.  ``+ - * /`` are the
    ``_Cleared`` operations followed by one canonicalization.
    """

    __slots__ = _record_fields = ("num", "den", "_hash")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = MultiPoly.const(num)
        if den is None:
            den = _POLY_ONE
        elif isinstance(den, (int, Fraction)):
            den = MultiPoly.const(den)
        if not isinstance(num, MultiPoly) or not isinstance(den, MultiPoly):
            raise ExactError("RatFunc needs MultiPoly or scalar arguments")
        # (N/a) / (D/b) == (N*b) / (D*a).
        nd, dd = _ratfunc_canonical(_dscale(num._d, den._den), _dscale(den._d, num._den))
        object.__setattr__(self, "num", MultiPoly._raw(nd))
        object.__setattr__(self, "den", MultiPoly._raw(dd))
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _from_dicts(cls, num_d, den_d):
        """The canonical form of the quotient of two int dicts."""
        return cls._raw_canonical(*_ratfunc_canonical(num_d, den_d))

    @classmethod
    def _from_int_lists(cls, num, den, idx):
        """The RatFunc of a canonical pair of integer lists in variable idx."""
        return cls._raw_canonical(_int_list_to_dict(num, idx), _int_list_to_dict(den, idx))

    @classmethod
    def _from_poly(cls, p):
        # p is p._d / p._den with gcd(p._den, content) == 1: already canonical.
        return cls._raw_canonical(p._d, {_ZERO_KEY: p._den})

    @classmethod
    def _raw_canonical(cls, num_d, den_d):
        self = cls.__new__(cls)
        object.__setattr__(self, "num", MultiPoly._raw(num_d))
        object.__setattr__(self, "den", MultiPoly._raw(den_d))
        object.__setattr__(self, "_hash", None)
        return self

    # -- constructors --------------------------------------------------------

    @classmethod
    def const(cls, value):
        c = _coerce_fraction(value)
        num = {} if not c else {_ZERO_KEY: c.numerator}
        return cls._raw_canonical(num, {_ZERO_KEY: c.denominator})

    @classmethod
    def var(cls, name):
        return cls._raw_canonical(MultiPoly.var(name)._d, {_ZERO_KEY: 1})

    @classmethod
    def zero(cls):
        return cls.const(0)

    @classmethod
    def one(cls):
        return cls.const(1)

    # -- inspection ----------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_const(self):
        return self.num.is_const() and self.den.is_const()

    def const_value(self):
        if not self.is_const():
            raise ExactError("not a constant rational function")
        return Fraction(self.num._d.get(_ZERO_KEY, 0), self.den._d[_ZERO_KEY])

    def variables(self):
        return self.num.variables() | self.den.variables()

    # -- arithmetic: one ``_Cleared`` operation, then one canonicalization ----

    def _operate(self, other, op, reflected=False):
        if not isinstance(other, (RatFunc, MultiPoly, int, Fraction)):
            return NotImplemented
        a, b = _Cleared._of(self), _Cleared._of(other)
        return (op(b, a) if reflected else op(a, b)).canonical()

    def __add__(self, other):
        return self._operate(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._operate(other, sub)

    def __rsub__(self, other):
        return self._operate(other, sub, True)

    def __neg__(self):
        return RatFunc._raw_canonical(_dneg(self.num._d), self.den._d)

    def __mul__(self, other):
        return self._operate(other, mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._operate(other, truediv)

    def __rtruediv__(self, other):
        return self._operate(other, truediv, True)

    def inverse(self):
        if self.is_zero():
            raise ZeroDenominatorError("inverse of the zero rational function")
        return RatFunc._from_dicts(self.den._d, self.num._d)

    def __pow__(self, e):
        if not isinstance(e, int):
            raise ExactError("rational function power must be an int")
        if e < 0:
            return self.inverse() ** (-e)
        if e == 0:
            return RatFunc.one()
        # Powers of a canonical form are canonical: coprimality and the
        # positive-leading sign survive exponentiation.
        return RatFunc._raw_canonical(_dpow(self.num._d, e), _dpow(self.den._d, e))

    def _poly_den(self):
        """The denominator as a positive int when it is constant, else None."""
        d = self.den._d
        return d[_ZERO_KEY] if len(d) == 1 and _ZERO_KEY in d else None

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_const() and self.const_value() == other
        if isinstance(other, MultiPoly):
            # A quotient by a constant is canonical exactly as a MultiPoly is.
            return self._poly_den() == other._den and self.num._d == other._d
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num._d == other.num._d and self.den._d == other.den._d

    def __hash__(self):
        h = self._hash
        if h is None:
            den = self._poly_den()
            if den is None:
                h = hash((self.num, self.den))
            else:
                # Hash as the equal MultiPoly, a constant as its Fraction.
                h = hash(MultiPoly._raw(self.num._d, den))
            object.__setattr__(self, "_hash", h)
        return h

    # -- substitution and evaluation ------------------------------------------

    def substitute(self, var, value):
        """Exact composition: replace a variable by a rational function (``specialize``)."""
        return self.specialize({var: value})

    def specialize(self, assignment):
        """Substitute several variables at once, each by its value.

        Values are exact scalars, MultiPolys or RatFuncs and may mention
        the replaced variables themselves, as in an n <-> m swap; an entry
        that maps a variable to itself is skipped.  One cleared
        composition (``_dcompose``) and one canonicalization.  Raises
        ZeroDenominatorError when the specialized denominator vanishes
        identically.
        """
        subs = _substitutions(assignment)
        if not subs:
            return self
        num, den = _dcompose(self.num._d, self.den._d, subs)
        if not den:
            raise ZeroDenominatorError(
                "specialization makes the denominator vanish identically"
            )
        return RatFunc._from_dicts(num, den)

    def eval(self, assignment):
        """Exact value at a full scalar assignment of the occurring variables.

        A name outside the universe raises UnknownVariableError, a value
        that is not an int or a Fraction ExactError, a variable left
        without a value MissingVariableError and a vanishing denominator
        PoleError, in that order.  The value is ``specialize``'s
        composition at the scalars, read as a constant quotient.
        """
        vals = {}
        for name, v in assignment.items():
            _check_var(name)
            vals[name] = _coerce_fraction(v)
        names = self.variables()
        missing = [name for name in VARIABLES if name in names and name not in vals]
        if missing:
            raise MissingVariableError("no value for variable(s): %s" % ", ".join(missing))
        num, den = _dcompose(self.num._d, self.den._d, _substitutions(vals))
        if not den:
            raise PoleError("denominator vanishes at the given point")
        return Fraction(_dconst(num), _dconst(den))

    # -- text ------------------------------------------------------------------

    def to_text(self):
        num_text = self.num.to_text()
        if self.den == 1:
            return num_text
        if len(self.num._d) > 1:
            num_text = "(%s)" % num_text
        den_text = self.den.to_text()
        if not _is_atomic_text(self.den):
            den_text = "(%s)" % den_text
        return "%s/%s" % (num_text, den_text)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return "RatFunc(%s)" % self.to_text()


def _is_atomic_text(poly):
    # A denominator can drop parentheses only when it prints as a bare
    # positive integer, a bare variable, or var^k.
    d = poly._d
    if len(d) != 1 or poly._den != 1:
        return False
    k, c = next(iter(d.items()))
    if k == _ZERO_KEY:
        return c > 0
    nz = [e for e in k if e]
    return c == 1 and len(nz) == 1


def _ratfunc_canonical(num_d, den_d):
    """Canonicalize a raw quotient of int dicts into a pair of int dicts."""
    if not den_d:
        raise ZeroDenominatorError("zero denominator")
    if not num_d:
        return {}, {_ZERO_KEY: 1}
    cn, pn = _dprimitive(num_d)
    cd, pd = _dprimitive(den_d)
    if _dconst(pn) is None and _dconst(pd) is None:
        # Only two non-constant primitive parts can share a factor.
        g = _int_poly_gcd(pn, pd)
        if g != _UNIT:
            pn = _divexact_int(pn, g)
            pd = _divexact_int(pd, g)
    s = gcd(cn, cd)
    p, q = cn // s, cd // s
    _, lead = _dleading(pd)
    if lead < 0:
        p, q = -p, -q
    return _dscale(pn, p), _dscale(pd, q)


def poly_gcd(p, q):
    """Greatest common divisor of two polynomials.

    The result is primitive with integer coefficients and positive leading
    coefficient (constant 1 for coprime inputs); gcd(0, q) is q normalized
    the same way.  Computed by ``_int_poly_gcd`` on the primitive integer
    forms: the integer-list kernel when they involve one variable, else a
    subresultant remainder sequence in their lowest shared variable, over
    integer-list coefficients when the other variables number one and
    integer-dict coefficients when they number more, each member made by
    the one step of ``_subresultants``.
    """
    if not isinstance(p, MultiPoly) or not isinstance(q, MultiPoly):
        raise ExactError("poly_gcd needs MultiPoly arguments")
    return MultiPoly._raw(_int_poly_gcd(_dprimitive(p._d)[1], _dprimitive(q._d)[1]))


# ---------------------------------------------------------------------------
# Resultants.
# ---------------------------------------------------------------------------


def resultant(p, q, var):
    """Resultant of two polynomials with respect to one variable.

    Fraction-free subresultant remainder sequence on the primitive integer
    forms, dense in var, by the gcd's one step (``_subresultants``), over
    the ring the other variables pick: ints when there are none, integer
    lists when there is one, integer dicts when there are more.  The
    contents and the denominators come back as one scale, so the result
    is the true resultant of the inputs.  With one other variable y the
    sequence runs on packed ints: each coefficient list is read at
    y = 2^k, k past the bound on the resultant's coefficients (the
    product of the 1-norms of the Sylvester rows), and the integer
    resultant's signed base-2^k digits are the coefficients, exactly
    (``_resultant_int``).  ``curves.intersect`` calls ``_resultant_int``
    on its integer lists directly.
    """
    if not isinstance(p, MultiPoly) or not isinstance(q, MultiPoly):
        raise ExactError("resultant needs MultiPoly arguments")
    i = _check_var(var)
    dp = p.degree(var) if not p.is_zero() else 0
    dq = q.degree(var) if not q.is_zero() else 0
    if dp < 1 or dq < 1:
        raise DegreeError("resultant needs positive degree in %s on both sides" % var)
    sp, ip = _dprimitive(p._d)
    sq, iq = _dprimitive(q._d)
    ring = _ring_for(i, (_dvars(ip) | _dvars(iq)) - {i})
    res = ring.undense([_resultant_int(ring.dense(ip, i), ring.dense(iq, i), ring)], i)
    return MultiPoly._reduced(_dscale(res, sp**dq * sq**dp), p._den**dq * q._den**dp)


# ---------------------------------------------------------------------------
# Univariate polynomials over rationals: a view over the integer-list kernel.
# ---------------------------------------------------------------------------


class UniPoly(Frozen):
    """Univariate polynomial over exact rationals, held as integers.

    The variable, a trimmed integer list (low to high) and one positive
    denominator, the lcm of the coefficient denominators; ``coeffs`` is the
    read-only Fraction view.  The stored form is unique, so equality and
    hashing are structural.  Evaluation and root finding run on the
    integer list.
    """

    __slots__ = _record_fields = ("var", "_ints", "_den")

    def __init__(self, var, coeffs):
        _check_var(var)
        cs = [_coerce_fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        self._set(var, [c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def _view(cls, var, ints, den=1):
        """The polynomial sum(ints[e] * var**e) / den, for a positive int den."""
        self = cls.__new__(cls)
        self._set(var, ints, den)
        return self

    def _set(self, var, ints, den):
        ints = _dense_trim(list(ints))
        g = gcd(den, _int_content(ints))
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "_ints", tuple(c // g for c in ints))
        object.__setattr__(self, "_den", den // g)

    def to_multipoly(self):
        return MultiPoly._raw(_int_list_to_dict(self._ints, _VAR_INDEX[self.var]), self._den)

    @property
    def coeffs(self):
        return tuple(Fraction(c, self._den) for c in self._ints)

    def is_zero(self):
        return not self._ints

    def degree(self):
        return len(self._ints) - 1

    def eval(self, x):
        x = _coerce_fraction(x)
        if not self._ints:
            return Fraction(0)
        bottom = self._den * x.denominator ** self.degree()
        return Fraction(_int_list_at(self._ints, x.numerator, x.denominator), bottom)

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return (self.var, self._ints, self._den) == (other.var, other._ints, other._den)

    def __hash__(self):
        return hash((self.var, self._ints, self._den))

    def __str__(self):
        return self.to_multipoly().to_text()

    def __repr__(self):
        return "UniPoly(%r, %s)" % (self.var, list(self.coeffs))


def _mod_horner(cs, x, mod):
    """Value of a dense integer coefficient list (low to high) at x, mod mod."""
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % mod
    return acc


def _root_prime(g):
    """The smallest prime q dividing neither lc(g) nor Res(g, g').

    For q not dividing lc(g), q divides Res(g, g') exactly when g mod q and
    g' mod q share a factor over GF(q), so the test is ``_squarefree_mod``
    and no resultant is formed.  g is squarefree, so lc(g) * Res(g, g') is
    nonzero and the search ends within its number of prime factors.
    """
    lc = g[-1]
    return next(q for q in count(2)
                if lc % q and all(q % d for d in range(2, isqrt(q) + 1))
                and _squarefree_mod(g, q))


def rational_roots(p):
    """All rational roots of a nonzero UniPoly.

    p-adic lifting (R. Loos, SIAM J. Comput. 12, 1983) on f, the primitive
    part of the UniPoly's integer list, with the root at 0 split off; a
    linear f = c1*x + c0 has the one root -c0/c1, read off directly.  The
    squarefree part g = f / gcd(f, f'), from the integer-list kernel, has
    the same roots.  The smallest prime p that divides neither lc(g) nor
    Res(g, g') keeps g squarefree of full degree mod p, so a rational root
    a/b, where b divides lc(g) and a divides g(0), reduces to a simple root
    mod p.  That prime is found by Euclid over GF(p) (``_root_prime``): for
    p not dividing lc(g), p divides Res(g, g') exactly when gcd(g, g') mod
    p is not constant.  Each root mod p is Newton-lifted until
    p^k > 2*|lc(g)*g(0)|; the symmetric residue of lc(g)*x mod p^k is then
    the integer lc(g)*a/b.  Every candidate is confirmed by the integer
    evaluation ``UniPoly.eval`` runs, so the output is exactly the set of
    rational roots (multiplicity ignored).  No integer is factored and no
    step is probabilistic.
    """
    if not isinstance(p, UniPoly):
        raise ExactError("rational_roots needs a UniPoly")
    if p.is_zero():
        raise ExactError("rational_roots of the zero polynomial")
    content = _int_content(p._ints)
    cs = [c // content for c in p._ints]
    roots = set()
    k = 0
    while cs[k] == 0:
        k += 1
    if k:
        roots.add(Fraction(0))
        cs = cs[k:]
    if len(cs) == 1:
        return roots
    if len(cs) == 2:
        roots.add(Fraction(-cs[0], cs[1]))
        return roots
    g = _int_list_squarefree(cs)
    dg = [e * c for e, c in enumerate(g)][1:]
    lc = g[-1]
    prime = _root_prime(g)
    bound = 2 * abs(lc * g[0])
    for x in range(prime):
        if _mod_horner(g, x, prime):
            continue
        mod = prime
        while mod <= bound:
            mod *= mod
            step = _mod_horner(g, x, mod) * pow(_mod_horner(dg, x, mod), -1, mod)
            x = (x - step) % mod
        num = lc * x % mod
        if 2 * num > mod:
            num -= mod
        if not _int_list_at(cs, num, lc):
            roots.add(Fraction(num, lc))
    return roots


# ---------------------------------------------------------------------------
# Parsing.
# ---------------------------------------------------------------------------

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^]))")


def parse_rational(text):
    """Parse ``p`` or ``p/q`` into an exact rational."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ParseError("not an exact rational: %r" % (text,))
    body = text.strip()
    if "/" in body:
        top, bottom = body.split("/")
        if int(bottom) == 0:
            raise ParseError("zero denominator in %r" % (text,))
        return Fraction(int(top), int(bottom))
    return Fraction(int(body))


class _Cleared:
    """An uncanonicalized quotient num / den of two int dicts.

    Ring operations run no gcd; terms over one denominator add directly.
    No den is the zero dict, so one is false exactly when num is, and two
    are equal exactly when num * o.den - o.num * den is.  Ints, Fractions,
    MultiPolys and RatFuncs are coerced; ``canonical`` is the RatFunc.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=_UNIT):
        self.num = num
        self.den = den

    @classmethod
    def var(cls, name):
        return cls(MultiPoly.var(name)._d)

    @staticmethod
    def _of(value):
        if type(value) is int:
            return _Cleared({_ZERO_KEY: value} if value else {})
        if isinstance(value, _Cleared):
            return value
        if isinstance(value, RatFunc):
            return _Cleared(value.num._d, value.den._d)
        if isinstance(value, MultiPoly):
            return _Cleared(value._d, {_ZERO_KEY: value._den})
        c = _coerce_fraction(value)
        return _Cleared({_ZERO_KEY: c.numerator} if c else {}, {_ZERO_KEY: c.denominator})

    def canonical(self):
        return RatFunc._from_dicts(self.num, self.den)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        o = self._of(other)
        return not _dsub(_dmul(self.num, o.den), _dmul(o.num, self.den))

    def _combine(self, o, combine):
        if o.den == self.den:
            return _Cleared(combine(self.num, o.num), self.den)
        num = combine(_dmul(self.num, o.den), _dmul(o.num, self.den))
        return _Cleared(num, _dmul(self.den, o.den))

    def __add__(self, other):
        return self._combine(self._of(other), _dadd)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(self._of(other), _dsub)

    def __rsub__(self, other):
        return self._of(other)._combine(self, _dsub)

    def __neg__(self):
        return _Cleared(_dneg(self.num), self.den)

    def __mul__(self, other):
        if type(other) is int:
            return _Cleared(_dscale(self.num, other) if other else {}, self.den)
        o = self._of(other)
        return _Cleared(_dmul(self.num, o.num), _dmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._of(other)
        if not o.num:
            raise ZeroDenominatorError("division by the zero rational function")
        return _Cleared(_dmul(self.num, o.den), _dmul(self.den, o.num))

    def __pow__(self, e):
        return _Cleared(_dpow(self.num, e), _dpow(self.den, e))


class _Parser:
    """Recursive descent to one uncanonicalized quotient (``_Cleared``).

    ``parse`` canonicalizes once.
    """

    def __init__(self, text):
        self.text = text
        self.tokens = []
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if not match:
                if text[pos:].strip():
                    raise ParseError("bad character %r in %r" % (text[pos], text))
                break
            pos = match.end()
            if match.group(1):
                self.tokens.append(("int", int(match.group(1))))
            elif match.group(2):
                name = match.group(2)
                _check_var(name)
                self.tokens.append(("var", name))
            else:
                self.tokens.append(("op", match.group(3)))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError("expected %r in %r" % (op, self.text))

    def parse(self):
        value = self.expr()
        if self.pos != len(self.tokens):
            raise ParseError("trailing tokens in %r" % self.text)
        return value.canonical()

    def expr(self):
        value = self.term()
        while True:
            kind, val = self.peek()
            if kind != "op" or val not in "+-":
                return value
            self.pos += 1
            rhs = self.term()
            value = value + rhs if val == "+" else value - rhs

    def term(self):
        value = self.unary()
        while True:
            kind, val = self.peek()
            if kind != "op" or val not in "*/":
                return value
            self.pos += 1
            rhs = self.unary()
            if val == "*":
                value = value * rhs
            elif not rhs.num:
                raise ZeroDenominatorError("division by zero in %r" % self.text)
            else:
                value = value / rhs

    def unary(self):
        negate = False
        while self.peek() in (("op", "+"), ("op", "-")):
            negate ^= self.take()[1] == "-"
        value = self.power()
        return -value if negate else value

    def power(self):
        value = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.pos += 1
            ekind, e = self.take()
            if ekind != "int":
                raise ParseError("exponent must be an integer literal in %r" % self.text)
            return value**e
        return value

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return _Cleared._of(val)
        if kind == "var":
            return _Cleared.var(val)
        if kind == "op" and val == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ParseError("unexpected token in %r" % self.text)


def parse_ratfunc(text):
    """Parse an expression over the variable universe into a RatFunc.

    Accepts sums, differences, products, quotients, integer powers, and
    parentheses; names outside the universe are rejected.  Inverse of the
    canonical text form.  The expression is built as one cleared quotient
    and canonicalized once.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression")
    return _Parser(text).parse()
