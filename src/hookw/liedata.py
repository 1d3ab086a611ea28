"""Structure data for the eight orthosymplectic hook-type families.

Each family iX (i in {1, 2}, X in {B, C, D, O}) is a two-parameter series
of W-(super)algebras W^psi_iX(n, m) built from a Lie superalgebra g, a
nilpotent that is principal in a factor b and trivial in a factor a, and
the critically shifted level psi = k + h^vee(g).  The coset of interest is
the commutant of the affine subalgebra V^t(a), orbifolded by Z_2 whenever
the component group of a contributes one.

The module tabulates, per family, the algebras g, a, b and one row of
``_FAMILY``: ell(k) (k, -k/2 or -2k), the parity of rho_a (x) rho_b and
the scale xi.  The levels are derived from it, each by one rule:
h^vee(g) = ``dual_coxeter(ambient_algebra(fam))``, k = psi - h^vee(g), and
t = ell(k) + sigma (d_b - 1) xi, sigma = +1 for an even pairing and -1
for an odd one (``affine_subalgebra_level``).  The coset central charge
is tabulated as a closed form and rebuilt from building blocks.
``describe`` derives W from the same data, as W^k(g, f_b), or W^k(g) at
n = 0.  It tabulates only the n = m = 0 and m = 0 members, the orbifold
at n = 0, and the two members at n = 1 whose V^t(so(2)) is H(1).

All arithmetic is exact.  ``closed_form_charge`` is written generically,
so that n and m may be Fractions or symbolic RatFunc values; results
carrying psi are always RatFunc.  Each charge, closed or assembled, is
built as one uncanonicalized quotient (``_closed_form``, ``_assembled``)
and canonicalized once, at the return; ``hookw verify charges`` compares
the two quotients by their zero test (``exact._Cleared``), with no gcd.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from ._record import Record
from .exact import MultiPoly, RatFunc, _Cleared, _coerce_fraction

FAMILY_TAGS = ("1B", "1C", "1D", "1O", "2B", "2C", "2D", "2O")

_HALF = Fraction(1, 2)


class AlgebraDesc(Record):
    """Descriptor for so_N, sp_N, or osp(M|2N).

    osp carries a dual-Coxeter normalization flag: "B" gives
    h^vee = M - 2N - 2, "C" gives h^vee = (2N + 2 - M)/2.  The flag is a
    property of how the algebra is being used, not of the algebra itself,
    so it is part of the descriptor.
    """

    kind: str  # "so_odd" | "so_even" | "sp" | "osp"
    size: int = 0  # so: N; sp: N (even)
    odd: int = 0  # osp: M
    even: int = 0  # osp: 2N
    flag: str = ""  # osp: "B" | "C"

    def __post_init__(self):
        if self.kind == "so_odd":
            if self.size < 0 or self.size % 2 == 0:
                raise ValueError("so_odd requires an odd non-negative size")
        elif self.kind == "so_even":
            if self.size < 0 or self.size % 2 != 0:
                raise ValueError("so_even requires an even non-negative size")
        elif self.kind == "sp":
            if self.size < 0 or self.size % 2 != 0:
                raise ValueError("sp requires an even non-negative size")
        elif self.kind == "osp":
            if self.odd < 0 or self.even < 0 or self.even % 2 != 0:
                raise ValueError("osp requires M >= 0 and an even 2N >= 0")
            if self.flag not in ("B", "C"):
                raise ValueError("osp requires exactly one flag, 'B' or 'C'")
        else:
            raise ValueError(f"unknown algebra kind {self.kind!r}")

    @classmethod
    def so(cls, size: int) -> "AlgebraDesc":
        kind = "so_odd" if size % 2 else "so_even"
        return cls(kind=kind, size=size)

    @classmethod
    def sp(cls, size: int) -> "AlgebraDesc":
        return cls(kind="sp", size=size)

    @classmethod
    def osp(cls, odd: int, even: int, flag: str) -> "AlgebraDesc":
        return cls(kind="osp", odd=odd, even=even, flag=flag)

    def __str__(self) -> str:
        if self.kind in ("so_odd", "so_even"):
            return f"so({self.size})"
        if self.kind == "sp":
            return f"sp({self.size})"
        return f"osp({self.odd}|{self.even})"


def dual_coxeter(a: AlgebraDesc) -> Fraction:
    """Dual Coxeter number in the normalization selected by the descriptor."""
    if a.kind in ("so_odd", "so_even"):
        return Fraction(a.size - 2)
    if a.kind == "sp":
        return Fraction(a.size, 2) + 1
    if a.flag == "B":
        return Fraction(a.odd - a.even - 2)
    return Fraction(a.even + 2 - a.odd, 2)


def coxeter_number(a: AlgebraDesc) -> int:
    """Coxeter number h of so_N or sp_N: 2r for so(2r+1) and sp(2r), 2r - 2
    for so(2r)."""
    return a.size - {"so_odd": 1, "so_even": 2, "sp": 0}[a.kind]


def lacing_number(a: AlgebraDesc) -> int:
    """Lacing number r^vee of so_N or sp_N: 1 for so(2r), 2 otherwise."""
    return 1 if a.kind == "so_even" else 2


def langlands_dual(a: AlgebraDesc) -> AlgebraDesc:
    """The Langlands dual of so_N or sp_N: so(2r+1) and sp(2r) swap, and
    so(2r) is its own dual."""
    if a.kind == "so_odd":
        return AlgebraDesc.sp(a.size - 1)
    if a.kind == "sp":
        return AlgebraDesc.so(a.size + 1)
    return a


def sdim(a: AlgebraDesc) -> Fraction:
    """Superdimension; for so and sp this is the ordinary dimension."""
    if a.kind in ("so_odd", "so_even"):
        return Fraction(a.size * (a.size - 1), 2)
    if a.kind == "sp":
        r = a.size // 2
        return Fraction(r * (a.size + 1))
    d = a.odd - a.even
    return Fraction(d * (d - 1), 2)


def _dim_plain(a: AlgebraDesc) -> int:
    # Ordinary (ungraded) dimension: the count of strong generators of the
    # corresponding affine vertex superalgebra.
    if a.kind in ("so_odd", "so_even"):
        return a.size * (a.size - 1) // 2
    if a.kind == "sp":
        r = a.size // 2
        return r * (a.size + 1)
    n2 = a.even
    return a.odd * (a.odd - 1) // 2 + (n2 // 2) * (n2 + 1) + a.odd * n2


def ghost_central_charge(d: int) -> Fraction:
    """Central-charge contribution of the ghosts attached to a d-dimensional
    sl2-component of the grading, c_d = -(d-1)(d^2-2d-1)/2."""
    if not isinstance(d, int) or d < 1:
        raise ValueError("ghost dimension must be a positive integer")
    return Fraction(-(d - 1) * (d * d - 2 * d - 1), 2)


class _FamilyData(Record):
    ell: str  # "k" | "-k/2" | "-2k"
    even_pairing: bool  # parity of rho_a (x) rho_b
    xi: Fraction  # 1 if a is orthogonal, 1/2 if symplectic or osp


_FAMILY = {
    "1B": _FamilyData("k", True, Fraction(1)),
    "1C": _FamilyData("-k/2", False, _HALF),
    "1D": _FamilyData("k", True, Fraction(1)),
    "1O": _FamilyData("-k/2", False, _HALF),
    "2B": _FamilyData("-2k", False, Fraction(1)),
    "2C": _FamilyData("k", True, _HALF),
    "2D": _FamilyData("-2k", False, Fraction(1)),
    "2O": _FamilyData("k", True, _HALF),
}


class HookFamily(Record):
    """One member of the eight hook-type series, with parameters n, m >= 0.

    The constructor requires integer parameters.  Curves at half-integer
    or negative shifts are built from a family tag and (n, m) directly
    (``curves.phi_family``), with no HookFamily.
    """

    i: int
    x: str
    n: Fraction
    m: Fraction

    def __post_init__(self):
        tag = f"{self.i}{self.x}"
        if tag not in _FAMILY:
            raise ValueError(f"unknown family {tag!r}")
        n = _coerce_fraction(self.n)
        m = _coerce_fraction(self.m)
        if n < 0 or m < 0:
            raise ValueError("parameters must be non-negative")
        if n.denominator != 1 or m.denominator != 1:
            raise ValueError("parameters must be integers")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)

    @classmethod
    def from_tag(cls, tag: str, n, m) -> "HookFamily":
        if len(tag) != 2 or tag not in _FAMILY:
            raise ValueError(f"unknown family {tag!r}")
        return cls(int(tag[0]), tag[1], n, m)

    @property
    def tag(self) -> str:
        return f"{self.i}{self.x}"

    def __repr__(self) -> str:
        return f"HookFamily({self.tag!r}, n={self.n}, m={self.m})"


def _ints(fam: HookFamily):
    return int(fam.n), int(fam.m)


def ambient_algebra(fam: HookFamily) -> AlgebraDesc:
    """The algebra g the hook-type W-algebra is built from."""
    n, m = _ints(fam)
    tag = fam.tag
    if tag == "1B":
        return AlgebraDesc.so(2 * n + 2 * m + 2)
    if tag == "1C":
        return AlgebraDesc.osp(2 * m + 1, 2 * n, "B")
    if tag == "1D":
        return AlgebraDesc.so(2 * n + 2 * m + 1)
    if tag == "1O":
        return AlgebraDesc.osp(2 * m + 2, 2 * n, "B")
    if tag == "2B":
        return AlgebraDesc.osp(2 * n + 1, 2 * m, "C")
    if tag == "2C":
        return AlgebraDesc.sp(2 * n + 2 * m)
    if tag == "2D":
        return AlgebraDesc.osp(2 * n, 2 * m, "C")
    return AlgebraDesc.osp(1, 2 * n + 2 * m, "C")


def affine_subalgebra(fam: HookFamily) -> AlgebraDesc:
    """The algebra a of the affine subalgebra V^t(a)."""
    n, _ = _ints(fam)
    if fam.x == "B":
        return AlgebraDesc.so(2 * n + 1)
    if fam.x == "C":
        return AlgebraDesc.sp(2 * n)
    if fam.x == "D":
        return AlgebraDesc.so(2 * n)
    return AlgebraDesc.osp(1, 2 * n, "C")


def reduction_algebra(fam: HookFamily) -> AlgebraDesc:
    """The algebra b whose principal nilpotent defines the reduction."""
    _, m = _ints(fam)
    if fam.i == 1:
        return AlgebraDesc.so(2 * m + 1)
    return AlgebraDesc.sp(2 * m)


def d_a(fam: HookFamily) -> int:
    """Dimension of the standard a-module rho_a."""
    n, _ = _ints(fam)
    return 2 * n + 1 if fam.x in ("B", "O") else 2 * n


def d_b(fam: HookFamily) -> int:
    """Dimension of the standard b-module rho_b."""
    _, m = _ints(fam)
    return 2 * m + 1 if fam.i == 1 else 2 * m


# ell(k) as a multiple of k, by _FamilyData.ell.
_ELL = {"k": 1, "-k/2": -_HALF, "-2k": -2}


def affine_subalgebra_level(fam: HookFamily) -> RatFunc:
    """Level t of the affine subalgebra V^t(a), as a RatFunc in psi.

    t = ell(k) + sigma (d_b - 1) xi with k = psi - h^vee(g), where sigma
    is +1 for an even pairing rho_a (x) rho_b and -1 for an odd one: one
    linear polynomial in psi, already canonical.
    """
    dat = _FAMILY[fam.tag]
    ell = _ELL[dat.ell]
    shift = (d_b(fam) - 1) * dat.xi
    constant = (shift if dat.even_pairing else -shift) - ell * dual_coxeter(ambient_algebra(fam))
    return RatFunc._from_poly(ell * MultiPoly.var("psi") + constant)


def closed_form_charge(tag: str, n, m) -> RatFunc:
    """Coset central charge as a rational function of psi.

    n and m may be Fractions or symbolic RatFunc values.  The formula is
    built as one uncanonicalized quotient (``_closed_form``) and
    canonicalized once.  At n = m = 0 the families whose coset is the
    one-dimensional algebra give 0, and the free-field families give 1 or
    1/2; the shared factors cancel on normalization.
    """
    return _closed_form(tag, n, m).canonical()


def _closed_form(tag: str, n, m) -> _Cleared:
    """The closed-form charge as one ``exact._Cleared`` quotient, with no gcd."""
    psi = _Cleared.var("psi")
    n, m = (_Cleared._of(x) if isinstance(x, RatFunc) else x for x in (n, m))
    if tag == "1B":
        num = (
            (psi + m * psi - m - n - 1)
            * (2 * m * psi - 2 * m - 2 * n - 1)
            * (psi + 2 * m * psi - 2 * m - 2 * n)
        )
        den = (psi - 1) * psi
    elif tag == "1C":
        num = (
            (-m + n + m * psi)
            * (1 - 2 * m + 2 * n + psi + 2 * m * psi)
            * (-1 - 2 * m + 2 * n + 2 * psi + 2 * m * psi)
        )
        den = (psi - 1) * psi
    elif tag == "1D":
        num = (
            (-m - n + m * psi)
            * (1 - 2 * m - 2 * n + psi + 2 * m * psi)
            * (-1 - 2 * m - 2 * n + 2 * psi + 2 * m * psi)
        )
        den = (psi - 1) * psi
    elif tag == "1O":
        num = (
            (-1 - m + n + psi + m * psi)
            * (-1 - 2 * m + 2 * n + 2 * m * psi)
            * (-2 * m + 2 * n + psi + 2 * m * psi)
        )
        den = (psi - 1) * psi
    elif tag == "2B":
        num = (
            (-m + n - psi + 2 * m * psi)
            * (1 - 2 * m + 2 * n + 4 * m * psi)
            * (-1 - 2 * m + 2 * n + 2 * psi + 4 * m * psi)
        )
        den = 2 * psi * (2 * psi - 1)
    elif tag == "2C":
        num = (
            (-m - n + 2 * m * psi)
            * (-1 - m - n + psi + 2 * m * psi)
            * (-1 - 2 * m - 2 * n - 2 * psi + 4 * m * psi)
        )
        den = psi * (2 * psi - 1)
    elif tag == "2D":
        num = (
            (-m + n + 2 * m * psi)
            * (-1 - m + n + psi + 2 * m * psi)
            * (-1 - 2 * m + 2 * n - 2 * psi + 4 * m * psi)
        )
        den = psi * (2 * psi - 1)
    elif tag == "2O":
        num = (
            (-m - n - psi + 2 * m * psi)
            * (1 - 2 * m - 2 * n + 4 * m * psi)
            * (-1 - 2 * m - 2 * n + 2 * psi + 4 * m * psi)
        )
        den = 2 * psi * (2 * psi - 1)
    else:
        raise ValueError(f"unknown family {tag!r}")
    return -(num / den)


def central_charge(fam: HookFamily) -> RatFunc:
    """Central charge of the coset, from the closed form."""
    return closed_form_charge(fam.tag, fam.n, fam.m)


def assemble_central_charge(fam: HookFamily) -> RatFunc:
    """Coset central charge rebuilt from its constituent blocks.

    The W-algebra charge is c_g + c_dilaton + c_ghost with
    c_g = k sdim(g) / psi, the dilaton term proportional to k with a
    coefficient depending on whether b is orthogonal or symplectic, and
    c_ghost = (6m^2 - 8m^4) + eps * sd_a * c_{d_b}.  Subtracting the
    Sugawara charge of V^t(a) gives the coset charge, which must agree
    with closed_form_charge.

    Calibrated signs: eps = +1 for 1B, 1D, 2C, 2O (even pairing) and
    eps = -1 for 1C, 1O, 2B, 2D (odd pairing); sd_a = d_a - 2 when a is
    osp(1|2n), else d_a.

    The blocks are combined as one uncanonicalized quotient
    (``_assembled``), and the difference is canonicalized once.
    """
    return _assembled(fam).canonical()


def _assembled(fam: HookFamily) -> _Cleared:
    """The assembled charge as one ``exact._Cleared`` quotient, with no gcd."""
    dat = _FAMILY[fam.tag]
    n, m = fam.n, fam.m
    if n + m < 1:
        raise ValueError("assembled charge requires n + m >= 1")
    if fam.i == 2 and m < 1:
        raise ValueError("families 2X with m = 0 are not built by reduction")

    psi = _Cleared.var("psi")
    g = ambient_algebra(fam)
    k = psi - dual_coxeter(g)
    c_g = k * sdim(g) / psi
    if fam.i == 1:
        c_dilaton = -k * (2 * m * (m + 1) * (2 * m + 1))
    else:
        c_dilaton = -k * (2 * m * (4 * m * m - 1))
    c_prin = 6 * m * m - 8 * m ** 4

    a = affine_subalgebra(fam)
    sd = d_a(fam) - 2 if a.kind == "osp" else d_a(fam)
    eps = 1 if dat.even_pairing else -1
    c_ghost = c_prin + eps * sd * ghost_central_charge(d_b(fam))

    c_w = c_g + c_dilaton + c_ghost
    t = _Cleared._of(affine_subalgebra_level(fam))
    c_sugawara = t * sdim(a) / (t + dual_coxeter(a))
    return c_w - c_sugawara


class CaseDescription(Record):
    """Identity of a family member and of its coset.

    w_kind is one of generic, principal, subregular, minimal, affine,
    affine_free, heisenberg, free_fermion, trivial.  coset_kind is one of
    commutant, walgebra, heisenberg, free_fermion, trivial.  orbifold
    marks a Z_2-orbifold on the coset identity.
    """

    tag: str
    n: int
    m: int
    w_kind: str
    w_text: str
    coset_kind: str
    coset_text: str
    orbifold: bool
    notes: tuple = ()


def _lvl(expr: RatFunc) -> str:
    # Levels are polynomials in psi up to an integer denominator; render
    # with fractional coefficients ("psi-5/2") rather than as a quotient.
    if expr.den.total_degree() == 0:
        scale = Fraction(1) / expr.den.leading_coefficient()
        return (expr.num * scale).to_text().replace(" ", "")
    return expr.to_text().replace(" ", "")


def _algebra_text(g: AlgebraDesc) -> str:
    # osp(M|0) is so(M) and osp(0|2N) is sp(2N).
    if g.kind == "osp" and not g.even:
        return str(AlgebraDesc.so(g.odd))
    if g.kind == "osp" and not g.odd:
        return str(AlgebraDesc.sp(g.even))
    return str(g)


# The n = m = 0 members other than C, as (kind, text); each is its own coset.
_BOTTOM = {
    "1B": ("heisenberg", "H(1)"),
    "1O": ("heisenberg", "H(1)"),
    "2B": ("free_fermion", "F(1)"),
    "2O": ("free_fermion", "F(1)"),
}

# The m = 0 members, n >= 1, are V^{scale k}(g) (x) free fields: a row is
# (scale, free fields, orbifold).
_AFFINE_ROWS = {
    "1B": (1, "", True),
    "1C": (1, "", False),
    "1D": (1, "", True),
    "1O": (1, "", False),
    "2B": (-2, " (x) F({d_a})", True),
    "2C": (1, " (x) S({n})", False),
    "2D": (-2, " (x) F({d_a})", True),
    "2O": (1, " (x) S({n}) (x) F(1)", True),
}


def describe(fam: HookFamily) -> CaseDescription:
    """Case analysis of W^psi_iX(n, m) and its coset at the given n, m.

    f_b is written f_min when b is sp(2).  A coset is the commutant of
    V^t(a), orbifolded unless X is C.
    """
    n, m = _ints(fam)
    tag = fam.tag
    algebra = ambient_algebra(fam)
    k = RatFunc.var("psi") - dual_coxeter(algebra)
    g = _algebra_text(algebra)

    def done(w_kind, w_text, coset_kind, coset_text, orbifold, notes=()):
        if orbifold:
            coset_text += "^Z2"
        return CaseDescription(
            tag=tag, n=n, m=m, w_kind=w_kind, w_text=w_text,
            coset_kind=coset_kind, coset_text=coset_text,
            orbifold=orbifold, notes=notes,
        )

    if n == 0:
        orbifold = fam.x in ("B", "O")
        if m == 0:
            kind, w = _BOTTOM.get(tag, ("trivial", "C"))
            return done(kind, w, kind, w, orbifold)
        w = f"W^{{{_lvl(k)}}}({g})"
        return done("principal", w, "walgebra", w, orbifold)
    affine = f"V^{{{_lvl(affine_subalgebra_level(fam))}}}({affine_subalgebra(fam)})"
    if m == 0:
        scale, free, orbifold = _AFFINE_ROWS[tag]
        w = f"V^{{{_lvl(scale * k)}}}({g})" + free.format(n=n, d_a=d_a(fam))
        return done("affine_free" if free else "affine", w, "commutant",
                    f"Com({affine}, {w})", orbifold)
    orbifold = fam.x != "C"
    if n == 1 and fam.x == "D":
        # a = so(2), and V^t(so(2)) is the Heisenberg algebra H(1).
        kind, f = ("subregular", ", f_subreg") if fam.i == 1 else ("principal", "")
        w = f"W^{{{_lvl(k)}}}({g}{f})"
        return done(kind, w, "commutant", f"Com(H(1), {w})", orbifold,
                    (f"affine part {affine} = H(1)",))
    if fam.i == 2 and m == 1:
        kind, f = "minimal", "f_min"
    else:
        kind, f = "generic", f"f_{reduction_algebra(fam)}"
    w = f"W^{{{_lvl(k)}}}({g}, {f})"
    return done(kind, w, "commutant", f"Com({affine}, W^psi_{tag}({n},{m}))", orbifold)


def generator_profile(fam: HookFamily) -> tuple:
    """Weight multiset of a minimal strong generating set.

    The displayed type is W(1^{dim a}, 2, 4, ..., 2m, ((d_b+1)/2)^{d_a});
    coinciding weights merge.  Returned as ((weight, count), ...) sorted
    by weight.
    """
    n, m = _ints(fam)
    counts = Counter()
    dim_a = _dim_plain(affine_subalgebra(fam))
    if dim_a:
        counts[Fraction(1)] += dim_a
    for w in range(2, 2 * m + 1, 2):
        counts[Fraction(w)] += 1
    da = d_a(fam)
    if da:
        counts[Fraction(d_b(fam) + 1, 2)] += da
    return tuple(sorted(counts.items()))


def profile_text(profile: tuple) -> str:
    parts = []
    for weight, count in profile:
        if weight.denominator == 1:
            base = str(weight.numerator)
        else:
            base = f"{weight.numerator}/{weight.denominator}"
        if count == 1:
            parts.append(base)
        elif weight.denominator == 1:
            parts.append(f"{base}^{count}")
        else:
            parts.append(f"({base})^{count}")
    return "W(" + ", ".join(parts) + ")"
