"""Structure data for the eight orthosymplectic hook-type families.

Each family iX (i in {1, 2}, X in {B, C, D, O}) is a two-parameter series
of W-(super)algebras W^psi_iX(n, m) built from a Lie superalgebra g, a
nilpotent that is principal in a factor b and trivial in a factor a, and
the critically shifted level psi = k + h^vee(g).  The coset of interest is
the commutant of the affine subalgebra V^t(a), orbifolded by Z_2 whenever
the component group of a contributes one.

The module records, per family: the algebras g, a, b; the level maps
k <-> psi, ell(k), t(psi); dual Coxeter numbers and superdimensions; the
coset central charge both as a closed form and as an assembled sum of
building blocks; the degenerate-case identifications at small n, m; and
the strong-generator weight profiles.

All arithmetic is exact.  Formulas are written generically so that n and
m may be Fractions or symbolic RatFunc values; results carrying psi are
always RatFunc.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .exact import RatFunc

FAMILY_TAGS = ("1B", "1C", "1D", "1O", "2B", "2C", "2D", "2O")

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class AlgebraDesc:
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


@dataclass(frozen=True)
class _FamilyData:
    i: int
    x: str
    ell: str  # "k" | "-k/2" | "-2k"
    even_pairing: bool  # parity of rho_a (x) rho_b
    xi: Fraction  # 1 if a is orthogonal, 1/2 if symplectic or osp


_FAMILY = {
    "1B": _FamilyData(1, "B", "k", True, Fraction(1)),
    "1C": _FamilyData(1, "C", "-k/2", False, _HALF),
    "1D": _FamilyData(1, "D", "k", True, Fraction(1)),
    "1O": _FamilyData(1, "O", "-k/2", False, _HALF),
    "2B": _FamilyData(2, "B", "-2k", False, Fraction(1)),
    "2C": _FamilyData(2, "C", "k", True, _HALF),
    "2D": _FamilyData(2, "D", "-2k", False, Fraction(1)),
    "2O": _FamilyData(2, "O", "k", True, _HALF),
}


class HookFamily:
    """One member of the eight hook-type series, with parameters n, m >= 0.

    The constructor requires integer parameters.  Curves at half-integer
    or negative shifts are built from a family tag and (n, m) directly
    (``curves.phi_family``), with no HookFamily.
    """

    __slots__ = ("i", "x", "n", "m")

    def __init__(self, i: int, x: str, n, m):
        tag = f"{i}{x}"
        if tag not in _FAMILY:
            raise ValueError(f"unknown family {tag!r}")
        n = Fraction(n)
        m = Fraction(m)
        if n < 0 or m < 0:
            raise ValueError("parameters must be non-negative")
        if n.denominator != 1 or m.denominator != 1:
            raise ValueError("parameters must be integers")
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)

    def __setattr__(self, name, value):
        raise AttributeError("HookFamily is immutable")

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, HookFamily):
            return NotImplemented
        return (self.i, self.x, self.n, self.m) == (other.i, other.x, other.n, other.m)

    def __hash__(self) -> int:
        return hash((self.i, self.x, self.n, self.m))


def _ints(fam: HookFamily):
    return int(fam.n), int(fam.m)


def h_dual_g(tag: str, n, m):
    """Dual Coxeter number of the ambient algebra g, as a function of n, m."""
    if tag == "1B":
        return 2 * n + 2 * m
    if tag == "1C":
        return 2 * m - 2 * n - 1
    if tag == "1D":
        return 2 * n + 2 * m - 1
    if tag == "1O":
        return 2 * m - 2 * n
    if tag == "2B":
        return m - n + _HALF
    if tag == "2C":
        return n + m + 1
    if tag == "2D":
        return m - n + 1
    if tag == "2O":
        return m + n + _HALF
    raise ValueError(f"unknown family {tag!r}")


def affine_level_expr(tag: str, n) -> RatFunc:
    """Level t of the affine subalgebra V^t(a), as a RatFunc in psi."""
    psi = RatFunc.var("psi")
    if tag == "1B":
        return psi - 2 * n
    if tag == "1C":
        return -psi / 2 - n - _HALF
    if tag == "1D":
        return psi - 2 * n + 1
    if tag == "1O":
        return -psi / 2 - n
    if tag == "2B":
        return -2 * psi - 2 * n + 2
    if tag == "2C":
        return psi - n - Fraction(3, 2)
    if tag == "2D":
        return -2 * psi - 2 * n + 3
    if tag == "2O":
        return psi - n - 1
    raise ValueError(f"unknown family {tag!r}")


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


@dataclass(frozen=True)
class LevelDictionary:
    h_dual_g: Fraction
    ell_of_k: str  # "k" | "-k/2" | "-2k"
    t_of_psi: RatFunc
    affine_subalgebra: AlgebraDesc

    def ell(self, k):
        if self.ell_of_k == "k":
            return k
        if self.ell_of_k == "-k/2":
            return -k / 2
        return -2 * k


def level_dictionary(fam: HookFamily) -> LevelDictionary:
    dat = _FAMILY[fam.tag]
    return LevelDictionary(
        h_dual_g=Fraction(h_dual_g(fam.tag, fam.n, fam.m)),
        ell_of_k=dat.ell,
        t_of_psi=affine_level_expr(fam.tag, fam.n),
        affine_subalgebra=affine_subalgebra(fam),
    )


def affine_subalgebra_level(fam: HookFamily) -> RatFunc:
    return affine_level_expr(fam.tag, fam.n)


def closed_form_charge(tag: str, n, m) -> RatFunc:
    """Coset central charge as a rational function of psi.

    n and m may be Fractions or symbolic RatFunc values.  At n = m = 0 the
    families whose coset is the one-dimensional algebra give 0, and the
    free-field families give 1 or 1/2; the shared factors cancel on
    normalization.
    """
    psi = RatFunc.var("psi")
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
    """
    dat = _FAMILY[fam.tag]
    n, m = fam.n, fam.m
    if n + m < 1:
        raise ValueError("assembled charge requires n + m >= 1")
    if dat.i == 2 and m < 1:
        raise ValueError("families 2X with m = 0 are not built by reduction")

    psi = RatFunc.var("psi")
    g = ambient_algebra(fam)
    k = psi - h_dual_g(fam.tag, n, m)
    c_g = k * sdim(g) / psi
    if dat.i == 1:
        c_dilaton = -k * (2 * m * (m + 1) * (2 * m + 1))
    else:
        c_dilaton = -k * (2 * m * (4 * m * m - 1))
    c_prin = 6 * m * m - 8 * m ** 4

    a = affine_subalgebra(fam)
    sd = d_a(fam) - 2 if a.kind == "osp" else d_a(fam)
    eps = 1 if dat.even_pairing else -1
    c_ghost = c_prin + eps * sd * ghost_central_charge(d_b(fam))

    c_w = c_g + c_dilaton + c_ghost
    t = affine_level_expr(fam.tag, n)
    c_sugawara = t * sdim(a) / (t + dual_coxeter(a))
    return c_w - c_sugawara


@dataclass(frozen=True)
class CaseDescription:
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


def _psi_shift(c) -> str:
    # Text for psi + c.
    return _lvl(RatFunc.var("psi") + Fraction(c))


def describe(fam: HookFamily) -> CaseDescription:
    """Case analysis of W^psi_iX(n, m) and its coset at the given n, m."""
    n, m = _ints(fam)
    tag = fam.tag
    psi = RatFunc.var("psi")
    t_text = _lvl(affine_level_expr(tag, n))
    a_text = str(affine_subalgebra(fam))

    def com(inner: str, orbifold: bool, affine: str = "") -> tuple:
        base = affine if affine else f"V^{{{t_text}}}({a_text})"
        text = f"Com({base}, {inner})"
        if orbifold:
            text += "^Z2"
        return "commutant", text, orbifold

    def done(w_kind, w_text, coset_kind, coset_text, orbifold, notes=()):
        return CaseDescription(
            tag=tag, n=n, m=m, w_kind=w_kind, w_text=w_text,
            coset_kind=coset_kind, coset_text=coset_text,
            orbifold=orbifold, notes=tuple(notes),
        )

    if tag == "1B":
        if n == 0 and m == 0:
            return done("heisenberg", "H(1)", "heisenberg", "H(1)^Z2", True)
        if n == 0:
            w = f"W^{{{_psi_shift(-2 * m)}}}(so({2 * m + 2}))"
            return done("principal", w, "walgebra", w + "^Z2", True)
        if m == 0:
            w = f"V^{{{_psi_shift(-2 * n)}}}(so({2 * n + 2}))"
            kind, text, orb = com(w, True)
            return done("affine", w, kind, text, orb)
        w = f"W^{{{_lvl(psi - (2 * n + 2 * m))}}}(so({2 * n + 2 * m + 2}), f_so({2 * m + 1}))"
        kind, text, orb = com(f"W^psi_1B({n},{m})", True)
        return done("generic", w, kind, text, orb)

    if tag == "1C":
        if n == 0 and m == 0:
            return done("trivial", "C", "trivial", "C", False)
        if n == 0:
            w = f"W^{{{_psi_shift(-2 * m + 1)}}}(so({2 * m + 1}))"
            return done("principal", w, "walgebra", w, False)
        if m == 0:
            w = f"V^{{{_psi_shift(2 * n + 1)}}}(osp(1|{2 * n}))"
            kind, text, orb = com(w, False)
            return done("affine", w, kind, text, orb)
        w = f"W^{{{_lvl(psi - (2 * m - 2 * n - 1))}}}(osp({2 * m + 1}|{2 * n}), f_so({2 * m + 1}))"
        kind, text, orb = com(f"W^psi_1C({n},{m})", False)
        return done("generic", w, kind, text, orb)

    if tag == "1D":
        if n == 0 and m == 0:
            return done("trivial", "C", "trivial", "C", False)
        if n == 0:
            w = f"W^{{{_psi_shift(-2 * m + 1)}}}(so({2 * m + 1}))"
            return done("principal", w, "walgebra", w, False)
        if m == 0:
            w = f"V^{{{_psi_shift(-2 * n + 1)}}}(so({2 * n + 1}))"
            kind, text, orb = com(w, True)
            return done("affine", w, kind, text, orb)
        if n == 1:
            w = f"W^{{{_psi_shift(-2 * m - 1)}}}(so({2 * m + 3}), f_subreg)"
            kind, text, orb = com(w, True, affine="H(1)")
            note = f"affine part V^{{{_psi_shift(-1)}}}(so(2)) = H(1)"
            return done("subregular", w, kind, text, orb, (note,))
        w = f"W^{{{_lvl(psi - (2 * n + 2 * m - 1))}}}(so({2 * n + 2 * m + 1}), f_so({2 * m + 1}))"
        kind, text, orb = com(f"W^psi_1D({n},{m})", True)
        return done("generic", w, kind, text, orb)

    if tag == "1O":
        if n == 0 and m == 0:
            return done("heisenberg", "H(1)", "heisenberg", "H(1)^Z2", True)
        if n == 0:
            w = f"W^{{{_psi_shift(-2 * m)}}}(so({2 * m + 2}))"
            return done("principal", w, "walgebra", w + "^Z2", True)
        if m == 0:
            # The coset identity at m = 0 is printed without the orbifold.
            w = f"V^{{{_psi_shift(2 * n)}}}(osp(2|{2 * n}))"
            kind, text, orb = com(w, False)
            return done("affine", w, kind, text, orb)
        w = f"W^{{{_lvl(psi - (2 * m - 2 * n))}}}(osp({2 * m + 2}|{2 * n}), f_so({2 * m + 1}))"
        kind, text, orb = com(f"W^psi_1O({n},{m})", True)
        return done("generic", w, kind, text, orb)

    if tag == "2B":
        if n == 0 and m == 0:
            return done("free_fermion", "F(1)", "free_fermion", "F(1)^Z2", True)
        if n == 0:
            w = f"W^{{{_lvl(psi - m - _HALF)}}}(osp(1|{2 * m}))"
            return done("principal", w, "walgebra", w + "^Z2", True)
        if m == 0:
            w = f"V^{{{_lvl(-2 * psi - 2 * n + 1)}}}(so({2 * n + 1})) (x) F({2 * n + 1})"
            kind, text, orb = com(w, True)
            return done("affine_free", w, kind, text, orb)
        if m == 1:
            w = f"W^{{{_lvl(psi + n - Fraction(3, 2))}}}(osp({2 * n + 1}|2), f_min)"
            kind, text, orb = com(f"W^psi_2B({n},{m})", True)
            return done("minimal", w, kind, text, orb)
        w = f"W^{{{_lvl(psi - (m - n + _HALF))}}}(osp({2 * n + 1}|{2 * m}), f_sp({2 * m}))"
        kind, text, orb = com(f"W^psi_2B({n},{m})", True)
        return done("generic", w, kind, text, orb)

    if tag == "2C":
        if n == 0 and m == 0:
            return done("trivial", "C", "trivial", "C", False)
        if n == 0:
            w = f"W^{{{_psi_shift(-m - 1)}}}(sp({2 * m}))"
            return done("principal", w, "walgebra", w, False)
        if m == 0:
            w = f"V^{{{_psi_shift(-n - 1)}}}(sp({2 * n})) (x) S({n})"
            kind, text, orb = com(w, False)
            return done("affine_free", w, kind, text, orb)
        if m == 1:
            w = f"W^{{{_psi_shift(-n - 2)}}}(sp({2 * n + 2}), f_min)"
            kind, text, orb = com(f"W^psi_2C({n},{m})", False)
            return done("minimal", w, kind, text, orb)
        w = f"W^{{{_lvl(psi - (n + m + 1))}}}(sp({2 * n + 2 * m}), f_sp({2 * m}))"
        kind, text, orb = com(f"W^psi_2C({n},{m})", False)
        return done("generic", w, kind, text, orb)

    if tag == "2D":
        if n == 0 and m == 0:
            return done("trivial", "C", "trivial", "C", False)
        if n == 0:
            w = f"W^{{{_psi_shift(-m - 1)}}}(sp({2 * m}))"
            return done("principal", w, "walgebra", w, False)
        if m == 0:
            w = f"V^{{{_lvl(-2 * psi - 2 * n + 2)}}}(so({2 * n})) (x) F({2 * n})"
            kind, text, orb = com(w, True)
            return done("affine_free", w, kind, text, orb)
        if n == 1:
            w = f"W^{{{_psi_shift(-m)}}}(osp(2|{2 * m}))"
            kind, text, orb = com(w, True, affine="H(1)")
            note = f"affine part V^{{{_lvl(-2 * psi + 1)}}}(so(2)) = H(1)"
            return done("principal", w, kind, text, orb, (note,))
        if m == 1:
            w = f"W^{{{_psi_shift(n - 2)}}}(osp({2 * n}|2), f_min)"
            kind, text, orb = com(f"W^psi_2D({n},{m})", True)
            return done("minimal", w, kind, text, orb)
        w = f"W^{{{_lvl(psi - (m - n + 1))}}}(osp({2 * n}|{2 * m}), f_sp({2 * m}))"
        kind, text, orb = com(f"W^psi_2D({n},{m})", True)
        return done("generic", w, kind, text, orb)

    # 2O
    if n == 0 and m == 0:
        return done("free_fermion", "F(1)", "free_fermion", "F(1)^Z2", True)
    if n == 0:
        w = f"W^{{{_lvl(psi - m - _HALF)}}}(osp(1|{2 * m}))"
        return done("principal", w, "walgebra", w + "^Z2", True)
    if m == 0:
        w = f"V^{{{_lvl(psi - n - _HALF)}}}(osp(1|{2 * n})) (x) S({n}) (x) F(1)"
        kind, text, orb = com(w, True)
        return done("affine_free", w, kind, text, orb)
    if m == 1:
        w = f"W^{{{_lvl(psi - n - Fraction(3, 2))}}}(osp(1|{2 * n + 2}), f_min)"
        kind, text, orb = com(f"W^psi_2O({n},{m})", True)
        return done("minimal", w, kind, text, orb)
    w = f"W^{{{_lvl(psi - (m + n + _HALF))}}}(osp(1|{2 * n + 2 * m}), f_sp({2 * m}))"
    kind, text, orb = com(f"W^psi_2O({n},{m})", True)
    return done("generic", w, kind, text, orb)


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
