"""Exact sparse multivariate rational-function arithmetic.

Everything in this package that looks like a number is an arbitrary-precision
rational, and everything that looks like a formula is a sparse multivariate
polynomial or a quotient of two of them, kept in a canonical form at all
times.  No floats anywhere.

Variables live in a fixed, closed universe:

    psi < psi1 < psi2 < n < m < r < s

Monomials are compared in graded-lexicographic order: higher total degree
first; ties broken lexicographically with ``s`` most significant and ``psi``
least.  The canonical text form lists terms in descending graded-lex order
with explicit ``*`` and ``^``, which makes serialized output deterministic
and round-trippable through :func:`parse_ratfunc`.

Canonical form of a quotient: numerator and denominator are integer
polynomials with no common polynomial factor, the gcd of their integer
contents is 1, and the leading coefficient of the denominator is positive.
Structural equality of canonical forms then decides equality of rational
functions.

The resultant uses a fraction-free subresultant polynomial remainder
sequence, which keeps intermediate coefficients determinant-sized instead of
letting naive Euclidean division blow them up.

Univariate work runs on dense integer coefficient lists, low to high: the
gcd over Z (a primitive remainder sequence, W. S. Brown 1971), exact
division, deflation by a rational root, the squarefree part and a
squarefree test over GF(q), with one pseudo-remainder loop,
``_prem_int_list``.  ``UniPoly`` is the one public univariate form: one
such list over one positive denominator, evaluated over the integers and
read by the root finder as it is.  The polynomial gcd and exact division
take this kernel whenever their two arguments together involve exactly
one variable, which includes the univariate content gcds inside the
multivariate remainder sequence.  Rational roots come from the
squarefree part g of the primitive integer form: its roots modulo the
smallest prime q with q not dividing lc(g) and g squarefree mod q are
Newton-lifted p-adically past the bound on any rational root, and every
candidate is verified by exact evaluation.  For q not dividing lc(g), g
is squarefree mod q exactly when q does not divide Res(g, g'), so this is
the smallest prime dividing neither lc(g) nor that resultant, found
without forming it.  No integer is factored and no step is probabilistic.

Evaluation runs over the integers.  Each polynomial builds its integer form
once, on first use: a common denominator, the occurring variables with
their degrees, integer coefficients and one exponent column per variable.
A value p/q of a variable of degree d enters term x^e as p^e * q^(d - e),
so an evaluation multiplies integers only and builds one Fraction at the
end.  A quotient's numerator and denominator share one such table per
variable, to the larger of the two degrees, so their sums carry the same
scale; a variable on one side only multiplies the other side's sum by
q^d.  Specialization at scalars (``_int_forms_at``) runs on the same
forms and tables and gives integer dicts in the remaining variables over
one scale; ``RatFunc.specialize`` canonicalizes them.  When one variable
remains they are read as dense integer lists (``_int_lists_at``): this is
how a curve at rational (n, m) is built, reduced with ``_int_list_gcd``,
composed with a degree-one map x -> (a x + b)/(c x + d) by
``_int_list_moebius`` without a gcd, and normalized by
``_int_list_quotient``.

Substitution of rational functions for variables runs on the polynomial
dicts (``_dsubst``, ``_dcompose``): several variables at once by nested
Horner, sliced by the first variable, the rest substituted into each
slice, and the slices combined by Horner, so no value is captured by a
later substitution.  ``RatFunc.substitute`` is the one-variable case.

The parser builds an expression as one uncanonicalized quotient of
polynomial dicts and canonicalizes it once, at the end.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import count, repeat
from math import gcd, isqrt, lcm
from operator import mul

VARIABLES = ("psi", "psi1", "psi2", "n", "m", "r", "s")
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}
_NVARS = len(VARIABLES)
_ZERO_KEY = (0,) * _NVARS

__all__ = [
    "VARIABLES",
    "ExactError",
    "ZeroDenominatorError",
    "PoleError",
    "MissingVariableError",
    "UnknownVariableError",
    "DegreeError",
    "ParseError",
    "Monomial",
    "MultiPoly",
    "RatFunc",
    "UniPoly",
    "normalize",
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
# Raw dict helpers.  A polynomial is dict[key 7-tuple -> coefficient].  The
# helpers are agnostic about int vs Fraction coefficients unless stated.
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


def _dmul_raw(a, b):
    # Plain convolution; callers pick the smaller operand as the outer loop.
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


def _dto_int(a):
    """Return (int dict, den) with den a positive int so a == dict/den."""
    den = 1
    for c in a.values():
        if isinstance(c, Fraction):
            den = lcm(den, c.denominator)
    if den == 1:
        return {k: c.numerator for k, c in a.items()}, 1
    return {k: int(c * den) for k, c in a.items()}, den


def _dmul(a, b):
    # Multiply through integer scaling: the convolution inner loop runs on
    # machine/big ints, and Fractions are rebuilt once per output term.
    if not a or not b:
        return {}
    ia, da = _dto_int(a)
    ib, db = _dto_int(b)
    prod = _dmul_raw(ia, ib)
    den = da * db
    if den == 1:
        return {k: Fraction(v) for k, v in prod.items()}
    return {k: Fraction(v, den) for k, v in prod.items()}


def _dpow(a, e):
    if e < 0:
        raise ExactError("negative power of a polynomial")
    result = {_ZERO_KEY: Fraction(1)}
    base = a
    while e:
        if e & 1:
            result = _dmul(result, base)
        e >>= 1
        if e:
            base = _dmul(base, base)
    return result


def _dleading(a):
    """(key, coeff) of the graded-lex greatest term; a must be nonzero."""
    k = max(a, key=_grlex_key)
    return k, a[k]


def _dvars(a):
    present = [False] * _NVARS
    for k in a:
        for i in range(_NVARS):
            if k[i]:
                present[i] = True
    return frozenset(i for i in range(_NVARS) if present[i])


def _ddeg_var(a, idx):
    d = -1
    for k in a:
        if k[idx] > d:
            d = k[idx]
    return d if a else -1


def _dcontent(a):
    """Positive rational c with a/c integer and primitive; 0 for the zero poly."""
    if not a:
        return Fraction(0)
    num = 0
    den = 1
    for c in a.values():
        if isinstance(c, Fraction):
            num = gcd(num, c.numerator)
            den = lcm(den, c.denominator)
        else:
            num = gcd(num, c)
    return Fraction(num, den)


def _dprimitive(a):
    """(content, primitive int dict).  content * primitive == a."""
    c = _dcontent(a)
    if not c:
        return Fraction(0), {}
    inv = 1 / c
    return c, {k: int(v * inv) for k, v in a.items()}


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
    nothing is captured.
    """
    if not subs:
        return dict(a), []
    (idx, num, den), rest = subs[0], subs[1:]
    d = _ddeg_var(a, idx)
    if d <= 0 and not rest:
        return dict(a), [0]
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
                    sl = _dmul(sl, _dpow(b, want - have))
            slices[e] = sl
    d = max(d, 0)
    acc = slices.get(d, {})
    for e in range(d - 1, -1, -1):
        acc = _dmul(acc, num)
        coeff = slices.get(e)
        if coeff:
            acc = _dadd(acc, _dmul(coeff, _dpow(den, d - e)))
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
            nn = _dmul(nn, _dpow(b, dd_deg - dn))
        elif dd_deg < dn:
            dd = _dmul(dd, _dpow(b, dn - dd_deg))
    return nn, dd


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


def _shared_tables(forms, vals):
    """One table of homogenized powers per variable of vals the forms involve.

    ``forms`` are ``MultiPoly._int_form()``s; each table reaches the highest
    degree the variable has in any of them, so all forms summed against
    the tables (``_int_form_value``) carry the same power of its denominator.
    """
    degree = {}
    for form in forms:
        for i, d in zip(form[1], form[2]):
            if degree.get(i, -1) < d:
                degree[i] = d
    return {i: _homogenized_powers(vals[i], d) for i, d in degree.items() if i in vals}


def _int_form_value(form, tables):
    """The terms of an integer form summed against tables of homogenized powers.

    ``tables`` maps every variable of the form, and possibly others, to
    ``_homogenized_powers(p/q, D)`` with D at least the form's degree in
    it.  A variable the form lacks multiplies the sum by its table[0],
    q**D, so forms summed against the same tables share one scale: the
    sum is den * prod(q**D) times the form's value.
    """
    _, idxs, _, coeffs, cols = form
    terms = coeffs
    for i, col in zip(idxs, cols):
        terms = map(mul, terms, map(tables[i].__getitem__, col))
    total = sum(terms)
    for i, table in tables.items():
        if i not in idxs:
            total *= table[0]
    return total


def _int_forms_at(polys, vals):
    """Polynomials at scalars, as integer dicts in the remaining variables.

    ``vals`` maps variable indices to Fractions.  The cached integer forms
    are summed against one table of homogenized powers per variable,
    shared by all the polynomials (``_shared_tables``), and their
    denominators are brought to their lcm, so polys[j] at vals is
    dicts[j] / S for one positive int S: quotients of the polynomials are
    quotients of the dicts.  Returns (rest, dicts): ``rest`` holds the
    occurring variables outside vals in universe order, and each dict maps
    a tuple of their exponents to a nonzero int.
    """
    forms = [p._int_form() for p in polys]
    tables = _shared_tables(forms, vals)
    rest = tuple(sorted({i for form in forms for i in form[1]} - tables.keys()))
    common = lcm(*(form[0] for form in forms))
    dicts = []
    for den, idxs, _, coeffs, cols in forms:
        scale = common // den
        terms = coeffs
        for i, table in tables.items():
            if i in idxs:
                terms = map(mul, terms, map(table.__getitem__, cols[idxs.index(i)]))
            else:
                # A variable the form lacks: its sum times q**D.
                scale *= table[0]
        if rest:
            zeros = (0,) * len(coeffs)
            keys = zip(*(cols[idxs.index(i)] if i in idxs else zeros for i in rest))
        else:
            keys = repeat((), len(coeffs))
        out = {}
        for k, c in zip(keys, terms):
            out[k] = out.get(k, 0) + c
        dicts.append({k: c * scale for k, c in out.items() if c})
    return rest, dicts


def _int_lists_at(polys, idx, vals):
    """``_int_forms_at`` as dense integer lists, low to high, in variable idx.

    Every occurring variable other than idx must have a value.  The lists
    are trimmed, so a polynomial that vanishes gives [].
    """
    rest, dicts = _int_forms_at(polys, vals)
    if set(rest) - {idx}:
        raise MissingVariableError(
            "no value for variable(s): %s" % ", ".join(VARIABLES[i] for i in rest if i != idx)
        )
    lists = []
    for d in dicts:
        # Each key is () or (e,), so its sum is the exponent of idx.
        cs = [0] * (max(map(sum, d), default=-1) + 1)
        for k, c in d.items():
            cs[sum(k)] = c
        lists.append(cs)
    return lists


# ---------------------------------------------------------------------------
# Dense univariate layer over multivariate integer-dict coefficients, used by
# the subresultant machinery.  A dense poly is a list of dicts, low to high,
# with a nonzero leading dict.
# ---------------------------------------------------------------------------


def _dense_from_dict(a, idx):
    d = _ddeg_var(a, idx)
    coeffs = [dict() for _ in range(d + 1)]
    for k, c in a.items():
        e = k[idx]
        kk = k[:idx] + (0,) + k[idx + 1 :]
        sl = coeffs[e]
        v = sl.get(kk)
        sl[kk] = c if v is None else v + c
    return _dense_trim(coeffs)


def _dense_to_dict(coeffs, idx):
    out = {}
    for e, sl in enumerate(coeffs):
        for k, c in sl.items():
            kk = k[:idx] + (e,) + k[idx + 1 :]
            v = out.get(kk)
            out[kk] = c if v is None else v + c
    return {k: c for k, c in out.items() if c}


def _dense_trim(coeffs):
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _divexact_int(a, b):
    """Exact division of integer-coefficient dicts; raises if inexact.

    When a and b together involve one variable the integer-list kernel
    divides; otherwise the leading terms are cancelled in graded-lex order.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return {}
    vs = _dvars(a) | _dvars(b)
    if len(vs) == 1:
        (idx,) = vs
        return _int_list_to_dict(_int_list_divexact(
            _dict_to_int_list(a, idx), _dict_to_int_list(b, idx)), idx)
    kb, cb = _dleading(b)
    rem = dict(a)
    quo = {}
    bitems = list(b.items())
    while rem:
        ka, ca = _dleading(rem)
        kq = tuple(ka[i] - kb[i] for i in range(_NVARS))
        if any(e < 0 for e in kq):
            raise ExactError("inexact polynomial division")
        q, rr = divmod(ca, cb)
        if rr:
            raise ExactError("inexact polynomial division")
        quo[kq] = q
        for k2, c2 in bitems:
            kk = tuple(kq[i] + k2[i] for i in range(_NVARS))
            v = rem.get(kk)
            v = (0 if v is None else v) - q * c2
            if v:
                rem[kk] = v
            else:
                rem.pop(kk, None)
    return quo


def _dense_prem(A, B):
    """Pseudo-remainder: lc(B)^(degA-degB+1) * A  mod  B."""
    dA = len(A) - 1
    dB = len(B) - 1
    assert dB >= 0 and dA >= dB
    lb = B[-1]
    R = [dict(c) for c in A]
    for i in range(dA - dB, -1, -1):
        # Multiply the whole remainder by lc(B), then kill the x^(dB+i) term.
        top = R[dB + i]
        R = [_dmul_raw(c, lb) if c else {} for c in R]
        if top:
            for j in range(dB + 1):
                if B[j]:
                    R[i + j] = _dsub(R[i + j], _dmul_raw(top, B[j]))
        R[dB + i] = {}
    del R[dB:]
    return _dense_trim(R)


def _dense_content(A):
    g = {}
    for c in A:
        if c:
            g = _int_poly_gcd(g, c)
            if g == {_ZERO_KEY: 1}:
                break
    return g


# Probe points for the coprimality certificate: any tuple whose entries keep
# both leading coefficients nonzero preserves the gcd degree bound.
_PROBE_SEEDS = ((2, 3, 5, 7, 11, 13, 17), (5, 7, 11, 13, 17, 19, 23),
                (-3, 4, -7, 9, -11, 15, -13))


def _dint_eval(c, point):
    """Integer value of an int-coefficient dict at an integer point."""
    total = 0
    for k, v in c.items():
        term = v
        for i, e in enumerate(k):
            if e:
                term *= point[i] ** e
        total += term
    return total


# ---------------------------------------------------------------------------
# Dense univariate integer kernel.  A polynomial is a list of ints, low to
# high, with a nonzero last entry; [] is zero.  Every univariate gcd, exact
# division and squarefree test runs here, and _prem_int_list is its only
# remainder loop.
# ---------------------------------------------------------------------------


def _prem_int_list(a, b):
    """Pseudo-remainder of dense integer coefficient lists."""
    da = len(a) - 1
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    for i in range(da - db, -1, -1):
        top = r[db + i]
        r = [c * lb for c in r]
        if top:
            for j in range(db + 1):
                r[i + j] -= top * b[j]
        r[db + i] = 0
    del r[db:]
    return _dense_trim(r)


def _int_content(values):
    """Nonnegative gcd of an iterable of ints."""
    g = 0
    for c in values:
        g = gcd(g, c)
        if g == 1:
            break
    return g


def _int_list_gcd(a, b):
    """Gcd over Z of nonzero integer lists, content included, positive leading.

    Primitive remainder sequence (W. S. Brown, J. ACM 18, 1971): each
    pseudo-remainder is divided by its integer content before the next step.
    """
    ca = _int_content(a)
    cb = _int_content(b)
    cont = gcd(ca, cb)
    a = [c // ca for c in a]
    b = [c // cb for c in b]
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _prem_int_list(a, b)
        if not r:
            if b[-1] < 0:
                cont = -cont
            return [c * cont for c in b]
        cr = _int_content(r)
        a, b = b, [c // cr for c in r]
    return [cont]


def _int_list_divexact(a, b):
    """Quotient a / b of integer lists; ExactError unless it is exact."""
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[i + db], lb)
        if rem:
            raise ExactError("inexact polynomial division")
        q[i] = c
        if c:
            for j in range(db):
                r[i + j] -= c * b[j]
    if any(r[:db]):
        raise ExactError("inexact polynomial division")
    return q


def _int_list_at(cs, x, table=None):
    """q**D times the value of an integer list at x == p/q.

    D is the list's degree, or, when ``table`` is given, its top index:
    ``table`` is ``_homogenized_powers(x, D)`` for a D at least the degree,
    shared by several lists evaluated at the same x.
    """
    if table is None:
        table = _homogenized_powers(x, len(cs) - 1)
    return sum(map(mul, cs, table))


def _int_list_deflate(cs, root):
    """(quotient, multiplicity) of the root p/q's factor q*x - p in cs.

    The factor is primitive, so by Gauss's lemma each division is exact
    over Z; the loop stops at the first quotient that does not vanish at
    the root, tested by exact evaluation.
    """
    factor = [-root.numerator, root.denominator]
    mult = 0
    while cs and not _int_list_at(cs, root):
        cs = _int_list_divexact(cs, factor)
        mult += 1
    return cs, mult


def _int_list_squarefree(f):
    """Squarefree part f / gcd(f, f') of a primitive list of degree >= 1."""
    df = [e * c for e, c in enumerate(f)][1:]
    return _int_list_divexact(f, _int_list_gcd(f, df))


def _squarefree_mod(g, q):
    """Whether g, whose leading coefficient q does not divide, is squarefree mod q.

    Euclid over GF(q) on g and g': each pseudo-remainder is a unit multiple
    of the remainder there, so the sequence ends in a nonzero constant
    exactly when gcd(g mod q, g' mod q) == 1.
    """
    a = [c % q for c in g]
    b = _dense_trim([e * c % q for e, c in enumerate(g)][1:])
    while len(b) > 1:
        a, b = b, _dense_trim([c % q for c in _prem_int_list(a, b)])
    return len(b) == 1


def _int_list_quotient(num, den, coprime=False):
    """The canonical form of the quotient num/den of integer lists.

    ``_ratfunc_canonical`` on the kernel: no common factor, coprime integer
    contents, positive leading denominator coefficient.  ``coprime=True``
    vouches that the lists share no nonconstant factor and skips the gcd.
    The pair ``_int_list_moebius`` makes from a canonical N/D and a map
    x -> (a x + b)/(c x + d) with ad - bc != 0 is such a pair.  Proof: let
    k = max(deg N, deg D) and homogenize, N~(X, Y) = Y^k N(X/Y), likewise
    D~; the pair is (N~(L), D~(L)) at Y = 1, where L = (aX + bY, cX + dY).
    N~ and D~ are coprime: a common factor would dehomogenize to a common
    factor of N and D, or be Y, which cannot divide the one of degree k.
    L is an invertible linear change of (X, Y), a ring automorphism, so
    N~(L) and D~(L) stay coprime, and a common factor of their
    dehomogenizations would homogenize to a common factor of theirs.
    """
    if not den:
        raise ZeroDenominatorError("zero denominator")
    if not num:
        return [], [1]
    if not coprime:
        g = _int_list_gcd(num, den)
        if len(g) > 1:
            num = _int_list_divexact(num, g)
            den = _int_list_divexact(den, g)
    c = gcd(_int_content(num), _int_content(den))
    if den[-1] < 0:
        c = -c
    return [v // c for v in num], [v // c for v in den]


def _int_list_moebius(num, den, w):
    """Cleared composition of num/den with x -> (a x + b)/(c x + d), w = (a, b, c, d).

    Both lists are homogenized to k, the larger degree: each becomes
    sum(cs[i] * (a x + b)**i * (c x + d)**(k - i)), by Horner in the
    ratio of the two linear forms.  The pair's quotient is the composite.
    """
    a, b, c, d = w
    k = max(len(num), len(den)) - 1

    def times(p, lo, hi):
        # p * (hi x + lo)
        return [lo * x + hi * y for x, y in zip(p + [0], [0] + p)]

    out = []
    for cs in (num, den):
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


def _coprime_by_probe(A, B, others):
    """Certify two primitive dense polynomials coprime in their main variable.

    Specializing the remaining variables at integers where both leading
    coefficients survive cannot lower the gcd degree in the main variable,
    so one constant specialized gcd is a proof.  Probe failure proves
    nothing and the caller falls back to the full remainder sequence.
    """
    for seed in _PROBE_SEEDS:
        point = [0] * _NVARS
        for slot, i in enumerate(sorted(others)):
            point[i] = seed[slot % len(seed)]
        if _dint_eval(A[-1], point) == 0 or _dint_eval(B[-1], point) == 0:
            continue
        a = [_dint_eval(c, point) if c else 0 for c in A]
        b = [_dint_eval(c, point) if c else 0 for c in B]
        if len(_int_list_gcd(a, b)) == 1:
            return True
    return False


def _int_poly_gcd(a, b):
    """Gcd of integer-coefficient dicts over Z, positive leading coefficient.

    Integer content is part of the answer: gcd(6*psi, 4) == 2.  Recursive
    primitive-PRS algorithm: strip contents, run a subresultant remainder
    sequence in the lowest shared variable, recurse on the coefficients for
    the contents.  A degree-preserving specialization probe certifies the
    common coprime case without running the multivariate sequence.  When a
    and b together involve one variable, the integer-list kernel answers.
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
    common = va & vb
    if len(va | vb) == 1:
        (idx,) = common
        return _int_list_to_dict(_int_list_gcd(
            _dict_to_int_list(a, idx), _dict_to_int_list(b, idx)), idx)
    if a == b:
        return _sign_normalize_int(dict(a))
    idx = min(common)
    A = _dense_from_dict(a, idx)
    B = _dense_from_dict(b, idx)
    ca = _dense_content(A)
    cb = _dense_content(B)
    A = [(_divexact_int(c, ca) if c else {}) for c in A]
    B = [(_divexact_int(c, cb) if c else {}) for c in B]
    cont = _int_poly_gcd(ca, cb)
    if (va | vb) - {idx} and _coprime_by_probe(A, B, (va | vb) - {idx}):
        return _sign_normalize_int(cont)
    if len(A) < len(B):
        A, B = B, A
    g = {_ZERO_KEY: 1}
    h = {_ZERO_KEY: 1}
    while True:
        delta = (len(A) - 1) - (len(B) - 1)
        R = _dense_prem(A, B)
        if not R:
            pp = B
            break
        if len(R) == 1:
            # Degree dropped to zero: the primitive parts are coprime.
            pp = None
            break
        divisor = _dmul_raw(g, _dpow_int(h, delta))
        R = [(_divexact_int(c, divisor) if c else {}) for c in R]
        A, B = B, R
        g = A[-1]
        if delta:
            h = _divexact_int(_dpow_int(g, delta), _dpow_int(h, delta - 1))
    if pp is None:
        result = cont
    else:
        cpp = _dense_content(pp)
        pp = [(_divexact_int(c, cpp) if c else {}) for c in pp]
        result = _dmul_raw(_dense_to_dict(pp, idx), cont)
    return _sign_normalize_int(result)


def _dpow_int(a, e):
    result = {_ZERO_KEY: 1}
    base = a
    while e:
        if e & 1:
            result = _dmul_raw(result, base)
        e >>= 1
        if e:
            base = _dmul_raw(base, base)
    return result


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


class Monomial:
    """A power product of universe variables; exponent 0 means absent."""

    __slots__ = ("key",)

    def __init__(self, exponents=None):
        key = [0] * _NVARS
        if exponents:
            for name, e in exponents.items():
                i = _check_var(name)
                if not isinstance(e, int) or e < 0:
                    raise ExactError("exponent of %s must be a non-negative int" % name)
                key[i] = e
        object.__setattr__(self, "key", tuple(key))

    @classmethod
    def _from_key(cls, key):
        self = cls.__new__(cls)
        object.__setattr__(self, "key", key)
        return self

    def __setattr__(self, *args):
        raise AttributeError("Monomial is immutable")

    def exponents(self):
        return {VARIABLES[i]: e for i, e in enumerate(self.key) if e}

    def degree(self):
        return sum(self.key)

    def __mul__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return Monomial._from_key(tuple(a + b for a, b in zip(self.key, other.key)))

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        if self.key == _ZERO_KEY:
            return "Monomial()"
        return "Monomial(%r)" % (self.exponents(),)

    def __str__(self):
        return _monomial_text(self.key) or "1"


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


class MultiPoly:
    """Sparse multivariate polynomial over exact rationals.

    Immutable.  Zero coefficients are never stored.  Supports ring
    arithmetic, substitution, evaluation, and the canonical text form.
    """

    __slots__ = ("_d", "_hash", "_int")

    def __init__(self, terms=None):
        d = {}
        if terms:
            for mono, coeff in terms.items():
                if isinstance(mono, Monomial):
                    key = mono.key
                elif isinstance(mono, tuple):
                    if len(mono) != _NVARS or any(
                        not isinstance(e, int) or e < 0 for e in mono
                    ):
                        raise ExactError("bad exponent tuple %r" % (mono,))
                    key = mono
                else:
                    raise ExactError("term keys must be Monomial, got %r" % (mono,))
                c = _coerce_fraction(coeff)
                if c:
                    prev = d.get(key)
                    c = c if prev is None else prev + c
                    if c:
                        d[key] = c
                    else:
                        del d[key]
        object.__setattr__(self, "_d", d)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_int", None)

    @classmethod
    def _raw(cls, d):
        self = cls.__new__(cls)
        object.__setattr__(self, "_d", d)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_int", None)
        return self

    def __setattr__(self, *args):
        raise AttributeError("MultiPoly is immutable")

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
        return cls._raw({_ZERO_KEY: c})

    @classmethod
    def var(cls, name):
        i = _check_var(name)
        key = tuple(1 if j == i else 0 for j in range(_NVARS))
        return cls._raw({key: Fraction(1)})

    # -- inspection --------------------------------------------------------

    def terms(self):
        """Canonical term list: (Monomial, coefficient), descending graded-lex."""
        items = sorted(self._d.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)
        return [(Monomial._from_key(k), c) for k, c in items]

    def is_zero(self):
        return not self._d

    def is_const(self):
        return not self._d or (len(self._d) == 1 and _ZERO_KEY in self._d)

    def const_value(self):
        if not self._d:
            return Fraction(0)
        if self.is_const():
            return self._d[_ZERO_KEY]
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
        return _dleading(self._d)[1]

    def coefficient_of(self, var, power):
        """Coefficient of var**power, as a polynomial in the other variables."""
        i = _check_var(var)
        out = {}
        for k, c in self._d.items():
            if k[i] == power:
                kk = k[:i] + (0,) + k[i + 1 :]
                v = out.get(kk)
                out[kk] = c if v is None else v + c
        return MultiPoly._raw({k: c for k, c in out.items() if c})

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return MultiPoly._raw(_dadd(self._d, o._d))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return MultiPoly._raw(_dsub(self._d, o._d))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return MultiPoly._raw(_dsub(o._d, self._d))

    def __neg__(self):
        return MultiPoly._raw(_dneg(self._d))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return MultiPoly._raw(_dmul(self._d, o._d))

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ExactError("polynomial power must be a non-negative int")
        return MultiPoly._raw(_dpow(self._d, e))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_const() and self.const_value() == other
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._d == other._d

    def __hash__(self):
        h = self._hash
        if h is None:
            if self.is_const():
                h = hash(self.const_value())
            else:
                h = hash(frozenset(self._d.items()))
            object.__setattr__(self, "_hash", h)
        return h

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, var, value):
        """Substitute a polynomial (or scalar) for a variable."""
        i = _check_var(var)
        if isinstance(value, (int, Fraction)):
            value = MultiPoly.const(value)
        if not isinstance(value, MultiPoly):
            raise ExactError("substitute into MultiPoly needs a MultiPoly value")
        res, _ = _dsubst(self._d, [(i, value._d, {_ZERO_KEY: Fraction(1)})])
        return MultiPoly._raw(res)

    def _int_form(self):
        """(den, idxs, degrees, coeffs, cols), built once: the integer form.

        ``idxs`` are the occurring variable indices in universe order and
        ``degrees`` their maximum exponents.  ``cols`` holds one column
        per variable of idxs: term j is ``coeffs[j]`` times the product of
        each variable to the power ``col[j]``.  self is the sum of the terms
        over den, a positive int.
        """
        form = self._int
        if form is None:
            ints, den = _dto_int(self._d)
            idxs = tuple(sorted(_dvars(ints)))
            cols = tuple(tuple(k[i] for k in ints) for i in idxs)
            degrees = tuple(max(col) for col in cols)
            form = (den, idxs, degrees, tuple(ints.values()), cols)
            object.__setattr__(self, "_int", form)
        return form

    def eval(self, assignment):
        """Exact value at a full assignment of the occurring variables."""
        vals = {}
        for name, v in assignment.items():
            vals[_check_var(name)] = _coerce_fraction(v)
        form = self._int_form()
        missing = [VARIABLES[i] for i in form[1] if i not in vals]
        if missing:
            raise MissingVariableError(
                "no value for variable(s): %s" % ", ".join(missing)
            )
        tables = _shared_tables((form,), vals)
        bottom = form[0]
        for i, table in tables.items():
            bottom *= vals[i].denominator ** (len(table) - 1)
        return Fraction(_int_form_value(form, tables), bottom)

    # -- text ----------------------------------------------------------------

    def to_text(self):
        if not self._d:
            return "0"
        parts = []
        items = sorted(self._d.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)
        for pos, (k, c) in enumerate(items):
            mono = _monomial_text(k)
            mag = abs(c)
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
_POLY_ONE = MultiPoly._raw({_ZERO_KEY: Fraction(1)})


def _rat_text(q):
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


class RatFunc:
    """Quotient of two multivariate polynomials in canonical form.

    The constructor always canonicalizes: polynomial gcd and shared integer
    content removed, denominator leading coefficient positive.  Equality is
    structural equality of the canonical parts, which is a decision procedure
    for equality of rational functions.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = MultiPoly.const(num)
        if den is None:
            den = _POLY_ONE
        elif isinstance(den, (int, Fraction)):
            den = MultiPoly.const(den)
        if not isinstance(num, MultiPoly) or not isinstance(den, MultiPoly):
            raise ExactError("RatFunc needs MultiPoly or scalar arguments")
        nd, dd = _ratfunc_canonical(num._d, den._d)
        object.__setattr__(self, "num", MultiPoly._raw(nd))
        object.__setattr__(self, "den", MultiPoly._raw(dd))
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _from_int_lists(cls, num, den, idx):
        """The RatFunc of a canonical pair of integer lists in variable idx."""
        return cls._raw_canonical(
            {k: Fraction(c) for k, c in _int_list_to_dict(num, idx).items()},
            {k: Fraction(c) for k, c in _int_list_to_dict(den, idx).items()},
        )

    @classmethod
    def _raw_canonical(cls, num_d, den_d):
        self = cls.__new__(cls)
        object.__setattr__(self, "num", MultiPoly._raw(num_d))
        object.__setattr__(self, "den", MultiPoly._raw(den_d))
        object.__setattr__(self, "_hash", None)
        return self

    def __setattr__(self, *args):
        raise AttributeError("RatFunc is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def const(cls, value):
        c = _coerce_fraction(value)
        num = {} if not c else {_ZERO_KEY: Fraction(c.numerator)}
        return cls._raw_canonical(num, {_ZERO_KEY: Fraction(c.denominator)})

    @classmethod
    def var(cls, name):
        return cls._raw_canonical(MultiPoly.var(name)._d, {_ZERO_KEY: Fraction(1)})

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
        if self.num.is_zero():
            return Fraction(0)
        return self.num.const_value() / self.den.const_value()

    def variables(self):
        return self.num.variables() | self.den.variables()

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(other)
        if isinstance(other, MultiPoly):
            return RatFunc._raw_canonical(other._d, {_ZERO_KEY: Fraction(1)})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num = _dadd(_dmul(self.num._d, o.den._d), _dmul(o.num._d, self.den._d))
        return RatFunc(MultiPoly._raw(num), MultiPoly._raw(_dmul(self.den._d, o.den._d)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num = _dsub(_dmul(self.num._d, o.den._d), _dmul(o.num._d, self.den._d))
        return RatFunc(MultiPoly._raw(num), MultiPoly._raw(_dmul(self.den._d, o.den._d)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return RatFunc._raw_canonical(_dneg(self.num._d), dict(self.den._d))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(
            MultiPoly._raw(_dmul(self.num._d, o.num._d)),
            MultiPoly._raw(_dmul(self.den._d, o.den._d)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDenominatorError("division by the zero rational function")
        return RatFunc(
            MultiPoly._raw(_dmul(self.num._d, o.den._d)),
            MultiPoly._raw(_dmul(self.den._d, o.num._d)),
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def inverse(self):
        if self.is_zero():
            raise ZeroDenominatorError("inverse of the zero rational function")
        return RatFunc(self.den, self.num)

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

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_const() and self.const_value() == other
        if isinstance(other, MultiPoly):
            return self.den == 1 and self.num == other
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num._d == other.num._d and self.den._d == other.den._d

    def __hash__(self):
        h = self._hash
        if h is None:
            if self.is_const():
                h = hash(self.const_value())
            else:
                h = hash((self.num, self.den))
            object.__setattr__(self, "_hash", h)
        return h

    # -- substitution and evaluation ------------------------------------------

    def substitute(self, var, value):
        """Exact composition: replace a variable by a rational function."""
        i = _check_var(var)
        if isinstance(value, (int, Fraction)):
            value = RatFunc.const(value)
        elif isinstance(value, MultiPoly):
            value = RatFunc._raw_canonical(value._d, {_ZERO_KEY: Fraction(1)})
        if not isinstance(value, RatFunc):
            raise ExactError("substitute needs a RatFunc, MultiPoly, or scalar")
        nn, dd = _dcompose(self.num._d, self.den._d, [(i, value.num._d, value.den._d)])
        if not dd:
            raise ZeroDenominatorError(
                "composition makes the denominator vanish identically"
            )
        return RatFunc(MultiPoly._raw(nn), MultiPoly._raw(dd))

    def specialize(self, assignment):
        """Substitute exact scalars for several variables in one pass.

        Numerator and denominator are specialized from their cached
        integer forms over one scale (``_int_forms_at``) and the quotient
        is canonicalized once at the end.  Raises ZeroDenominatorError when the specialized
        denominator vanishes identically.
        """
        vals = {}
        for name, v in assignment.items():
            vals[_check_var(name)] = _coerce_fraction(v)
        rest, (num, den) = _int_forms_at((self.num, self.den), vals)
        if not den:
            raise ZeroDenominatorError(
                "specialization makes the denominator vanish identically"
            )

        def widen(d):
            # Exponent tuples over rest back to keys over the universe.
            out = {}
            for k, c in d.items():
                key = list(_ZERO_KEY)
                for i, e in zip(rest, k):
                    key[i] = e
                out[tuple(key)] = Fraction(c)
            return out

        return RatFunc._raw_canonical(*_ratfunc_canonical(widen(num), widen(den)))

    def eval(self, assignment):
        """Exact value; pole and missing-variable failures are distinct.

        Names outside the universe raise UnknownVariableError, as in
        ``MultiPoly.eval``.  Numerator and denominator are summed over the
        integers against one table of homogenized powers per variable,
        so the two sums share their scale and their quotient is the value.
        """
        vals = {}
        for name, v in assignment.items():
            vals[_check_var(name)] = _coerce_fraction(v)
        num_form = self.num._int_form()
        den_form = self.den._int_form()
        missing = sorted({i for i in num_form[1] + den_form[1] if i not in vals})
        if missing:
            raise MissingVariableError(
                "no value for variable(s): %s" % ", ".join(VARIABLES[i] for i in missing)
            )
        tables = _shared_tables((num_form, den_form), vals)
        bottom = _int_form_value(den_form, tables)
        if not bottom:
            raise PoleError("denominator vanishes at the given point")
        return Fraction(_int_form_value(num_form, tables) * den_form[0], bottom * num_form[0])

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
    if len(d) != 1:
        return False
    k, c = next(iter(d.items()))
    if k == _ZERO_KEY:
        return c > 0 and c.denominator == 1
    nz = [e for e in k if e]
    return c == 1 and len(nz) == 1


def _ratfunc_canonical(num_d, den_d):
    """Canonicalize a raw quotient of Fraction dicts."""
    if not den_d:
        raise ZeroDenominatorError("zero denominator")
    if not num_d:
        return {}, {_ZERO_KEY: Fraction(1)}
    cn, pn = _dprimitive(num_d)
    cd, pd = _dprimitive(den_d)
    g = _int_poly_gcd(pn, pd)
    if len(g) != 1 or _ZERO_KEY not in g or g[_ZERO_KEY] != 1:
        pn = _divexact_int(pn, g)
        pd = _divexact_int(pd, g)
    scale = cn / cd
    p, q = scale.numerator, scale.denominator
    _, lead = _dleading(pd)
    if lead < 0:
        p, q = -p, q
        pd = {k: -c for k, c in pd.items()}
    return (
        {k: Fraction(c * p) for k, c in pn.items()},
        {k: Fraction(c * q) for k, c in pd.items()},
    )


def normalize(num, den):
    """Canonical quotient of two polynomials (the RatFunc constructor)."""
    return RatFunc(num, den)


def poly_gcd(p, q):
    """Greatest common divisor of two polynomials.

    The result is primitive with integer coefficients and positive leading
    coefficient (constant 1 for coprime inputs); gcd(0, q) is q normalized
    the same way.
    """
    if not isinstance(p, MultiPoly) or not isinstance(q, MultiPoly):
        raise ExactError("poly_gcd needs MultiPoly arguments")
    g = _int_poly_gcd(_dprimitive(p._d)[1], _dprimitive(q._d)[1])
    return MultiPoly._raw({k: Fraction(c) for k, c in g.items()})


# ---------------------------------------------------------------------------
# Resultants.
# ---------------------------------------------------------------------------


def resultant(p, q, var):
    """Resultant of two polynomials with respect to one variable.

    Fraction-free subresultant remainder sequence over the integer forms;
    the rational scaling introduced by clearing denominators is divided back
    out exactly, so the result is the true resultant of the inputs.
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
    res_int = _resultant_int(_dense_from_dict(ip, i), _dense_from_dict(iq, i))
    scale = sp**dq * sq**dp
    return MultiPoly._raw({k: scale * c for k, c in res_int.items()} if scale != 1
                          else {k: Fraction(c) for k, c in res_int.items()})


def _resultant_int(A, B):
    """Resultant of dense integer-dict polynomials (degrees >= 1)."""
    s = 1
    if len(A) < len(B):
        A, B = B, A
        if ((len(A) - 1) * (len(B) - 1)) % 2:
            s = -s
    ca = _dense_content(A)
    cb = _dense_content(B)
    A = [(_divexact_int(c, ca) if c else {}) for c in A]
    B = [(_divexact_int(c, cb) if c else {}) for c in B]
    t = _dmul_raw(_dpow_int(ca, len(B) - 1), _dpow_int(cb, len(A) - 1))
    g = {_ZERO_KEY: 1}
    h = {_ZERO_KEY: 1}
    while True:
        d = len(A) - 1
        e = len(B) - 1
        delta = d - e
        if d % 2 and e % 2:
            s = -s
        R = _dense_prem(A, B)
        if not R:
            return {}
        divisor = _dmul_raw(g, _dpow_int(h, delta))
        R = [(_divexact_int(c, divisor) if c else {}) for c in R]
        A, B = B, R
        g = A[-1]
        if delta:
            h = _divexact_int(_dpow_int(g, delta), _dpow_int(h, delta - 1))
        if len(B) == 1:
            dA = len(A) - 1
            final = _divexact_int(_dpow_int(B[0], dA), _dpow_int(h, dA - 1))
            out = _dmul_raw(t, final)
            return out if s > 0 else {k: -c for k, c in out.items()}


# ---------------------------------------------------------------------------
# Univariate polynomials over rationals: a view over the integer-list kernel.
# ---------------------------------------------------------------------------


class UniPoly:
    """Univariate polynomial over exact rationals, held as integers.

    The variable, a trimmed integer list (low to high) and one positive
    denominator, the lcm of the coefficient denominators; ``coeffs`` is the
    read-only Fraction view.  The stored form is unique, so equality and
    hashing are structural.  Evaluation and root finding run on the
    integer list.
    """

    __slots__ = ("var", "_ints", "_den")

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

    def __setattr__(self, *args):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def from_multipoly(cls, p, var=None):
        if not isinstance(p, MultiPoly):
            raise ExactError("from_multipoly needs a MultiPoly")
        vs = p.variables()
        if var is None:
            if len(vs) > 1:
                raise ExactError("polynomial is not univariate: %s" % sorted(vs))
            var = next(iter(vs)) if vs else "psi"
        elif vs - {var}:
            raise ExactError("polynomial involves extra variables: %s" % sorted(vs - {var}))
        ints, den = _dto_int(p._d)
        return cls._view(var, _dict_to_int_list(ints, _VAR_INDEX[var]), den)

    def to_multipoly(self):
        d = _int_list_to_dict(self._ints, _VAR_INDEX[self.var])
        return MultiPoly._raw({k: Fraction(c, self._den) for k, c in d.items()})

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
        return Fraction(_int_list_at(self._ints, x), bottom)

    def derivative(self):
        return UniPoly._view(self.var, [e * c for e, c in enumerate(self._ints)][1:], self._den)

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
    """All rational roots of a nonzero UniPoly or univariate MultiPoly.

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
    if isinstance(p, MultiPoly):
        p = UniPoly.from_multipoly(p)
    if not isinstance(p, UniPoly):
        raise ExactError("rational_roots needs a UniPoly or univariate MultiPoly")
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
        candidate = Fraction(num, lc)
        if not _int_list_at(cs, candidate):
            roots.add(candidate)
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


class _Parser:
    """Recursive descent to one uncanonicalized (num, den) pair of dicts.

    ``parse`` canonicalizes once; terms over one denominator add directly.
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
        num, den = self.expr()
        if self.pos != len(self.tokens):
            raise ParseError("trailing tokens in %r" % self.text)
        return RatFunc._raw_canonical(*_ratfunc_canonical(num, den))

    def expr(self):
        num, den = self.term()
        while True:
            kind, val = self.peek()
            if kind != "op" or val not in "+-":
                return num, den
            self.pos += 1
            rnum, rden = self.term()
            combine = _dadd if val == "+" else _dsub
            if rden == den:
                num = combine(num, rnum)
            else:
                num = combine(_dmul(num, rden), _dmul(rnum, den))
                den = _dmul(den, rden)

    def term(self):
        num, den = self.unary()
        while True:
            kind, val = self.peek()
            if kind != "op" or val not in "*/":
                return num, den
            self.pos += 1
            rnum, rden = self.unary()
            if val == "/":
                if not rnum:
                    raise ZeroDenominatorError("division by zero in %r" % self.text)
                rnum, rden = rden, rnum
            num, den = _dmul(num, rnum), _dmul(den, rden)

    def unary(self):
        negate = False
        while self.peek() in (("op", "+"), ("op", "-")):
            negate ^= self.take()[1] == "-"
        num, den = self.power()
        return (_dneg(num), den) if negate else (num, den)

    def power(self):
        num, den = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.pos += 1
            ekind, e = self.take()
            if ekind != "int":
                raise ParseError("exponent must be an integer literal in %r" % self.text)
            return _dpow(num, e), _dpow(den, e)
        return num, den

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return ({_ZERO_KEY: Fraction(val)} if val else {}), _POLY_ONE._d
        if kind == "var":
            return MultiPoly.var(val)._d, _POLY_ONE._d
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
