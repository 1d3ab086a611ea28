"""Singular-vector weights and strong generating types.

For g = so_{2n+1} or sp_{2n} at an admissible level k = -h_dual + u/v,
the vacuum module of the affine vertex algebra V^k(g), and of the
principal W-algebra W^k(g) when k is nondegenerate, has a unique
singular vector of lowest conformal weight.  This module computes that
weight two independent ways (at rank n >= 2; for rank 1 see below):

* ``sing_weight_general`` builds the extremal weight vector from
  explicit root-system data in orthogonal coordinates and evaluates the
  quadratic Casimir-type expression directly;
* ``sing_weight_closed`` evaluates the factored closed forms, one per
  (algebra, parity of v) case.

The two routes share no code beyond input validation, so their
agreement is a meaningful cross-check.

At rank 1 both routes compute the rank-generic formula continued to
n = 1 (``root_system``).  For so_3 with odd v and for sp_2 with even v
the continued theta resp. theta_s is not a root, so the number is that
continuation, not the weight of a singular vector.  For the affine
object, so_3 at u = 2, v = 1 gives 2, though V^2(sl_2) has its vacuum
singular vector at weight 3, and sp_2 at u = 3, v = 2 gives 2, where the
sl_2 rule (p - 1) q gives 4.

``max_generator_weight`` returns the top weight of the minimal strong
generating set of the generic coset C^psi(n, m): every coset is of type
W(2, 4, ..., 2N) as a one-parameter vertex algebra, and this function
returns 2N.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Tuple

from ._record import Record
from .liedata import HookFamily

__all__ = [
    "AFFINE",
    "PRINCIPAL_W",
    "RootSystemData",
    "root_system",
    "sing_weight_general",
    "sing_weight_closed",
    "max_generator_weight",
]

AFFINE = "affine"
PRINCIPAL_W = "principal_W"

_OBJECTS = (AFFINE, PRINCIPAL_W)
_ALGEBRAS = ("so_odd", "sp")

Vector = Tuple[Fraction, ...]


class RootSystemData(Record):
    """Root-system constants of so_{2n+1} or sp_{2n} in orthogonal coordinates.

    Vectors are coordinate tuples with respect to a basis e_1, ..., e_N
    satisfying (e_i, e_j) = gram * delta_ij.  For so_{2n+1} the basis is
    orthonormal (gram = 1); for sp_{2n} it is scaled so that all
    coordinates are rational while long roots keep squared length 2
    (gram = 1/2).

    The coordinate patterns are the rank-generic ones: rho has i-th
    coordinate (2n-2i+1)/2 for so_{2n+1} and n-i+1 for sp_{2n}, and so
    on.  At rank 1 a second coordinate is kept, continuing the same
    patterns, because theta resp. theta_s and the products below involve
    e_2; this continuation is what the rank-generic closed forms are
    stated for.  With it, the products

        so_{2n+1}: (rho, theta^v) = 2n-2,  (rho^v, theta)   = 2n-1,
                   (rho, theta_s^v) = 2n-1, (rho^v, theta_s) = n
        sp_{2n}:   (rho, theta^v) = n,     (rho^v, theta)   = 2n-1,
                   (rho, theta_s^v) = 2n-1, (rho^v, theta_s) = 2n-2

    hold for every n >= 1.
    """

    kind: str
    rank: int
    gram: Fraction
    simple_roots: Tuple[Vector, ...]
    theta: Vector
    theta_s: Vector
    rho: Vector
    rho_check: Vector
    lacity: int
    coxeter: int
    dual_coxeter: int

    def inner(self, x: Vector, y: Vector) -> Fraction:
        return self.gram * sum(a * b for a, b in zip(x, y))

    def coroot(self, alpha: Vector) -> Vector:
        norm = self.inner(alpha, alpha)
        return tuple(2 * a / norm for a in alpha)


def _basis_vector(dim: int, *coords: int) -> Vector:
    padded = list(coords) + [0] * (dim - len(coords))
    return tuple(Fraction(c) for c in padded)


def root_system(kind: str, n: int) -> RootSystemData:
    """Root-system data for so_{2n+1} (kind "so_odd") or sp_{2n} (kind "sp")."""
    if kind not in _ALGEBRAS:
        raise ValueError(f"unknown algebra kind {kind!r}; expected one of {_ALGEBRAS}")
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"rank must be a positive integer, got {n!r}")
    dim = max(n, 2)
    if kind == "so_odd":
        gram = Fraction(1)
        rho = tuple(Fraction(2 * n - 2 * i + 1, 2) for i in range(1, dim + 1))
        rho_check = tuple(Fraction(n - i + 1) for i in range(1, dim + 1))
        theta = _basis_vector(dim, 1, 1)
        theta_s = _basis_vector(dim, 1)
        simple = [
            _basis_vector(dim, *([0] * (i - 1) + [1, -1])) for i in range(1, n)
        ]
        simple.append(_basis_vector(dim, *([0] * (n - 1) + [1])))
        coxeter, dual_coxeter = 2 * n, 2 * n - 1
    else:
        gram = Fraction(1, 2)
        rho = tuple(Fraction(n - i + 1) for i in range(1, dim + 1))
        rho_check = tuple(Fraction(2 * n - 2 * i + 1) for i in range(1, dim + 1))
        theta = _basis_vector(dim, 2)
        theta_s = _basis_vector(dim, 1, 1)
        simple = [
            _basis_vector(dim, *([0] * (i - 1) + [1, -1])) for i in range(1, n)
        ]
        simple.append(_basis_vector(dim, *([0] * (n - 1) + [2])))
        coxeter, dual_coxeter = 2 * n, n + 1
    return RootSystemData(
        kind=kind,
        rank=n,
        gram=gram,
        simple_roots=tuple(simple),
        theta=theta,
        theta_s=theta_s,
        rho=rho,
        rho_check=rho_check,
        lacity=2,
        coxeter=coxeter,
        dual_coxeter=dual_coxeter,
    )


def _check_args(alg: str, obj: str, n: int, u: int, v: int) -> None:
    if alg not in _ALGEBRAS:
        raise ValueError(f"unknown algebra kind {alg!r}; expected one of {_ALGEBRAS}")
    if obj not in _OBJECTS:
        raise ValueError(f"unknown object {obj!r}; expected one of {_OBJECTS}")
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"rank must be a positive integer, got {n!r}")
    for name, value in (("u", u), ("v", v)):
        if not isinstance(value, int) or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")


def sing_weight_general(alg: str, obj: str, n: int, u: int, v: int) -> Fraction:
    """Lowest singular-vector weight from explicit root-system data.

    The level is k = -h_dual + u/v.  The pair (u, v) enters the formulas
    directly and is not reduced; only coprime pairs correspond to
    admissible levels, where, at rank n >= 2, the result is the weight of
    an actual singular vector.  At rank 1 it is the rank-generic formula
    continued to n = 1, which for so_3 with odd v and sp_2 with even v is
    not a singular weight (see the module docstring).  The reflecting
    root is selected by gcd(v, r^v) where r^v is the lacity: gcd 1 takes
    alpha = -theta, gcd r^v takes alpha = -theta_s.  The extremal weight is

        lam = -(u / gcd(v, r^v)) alpha^v - (rho, alpha^v) alpha,

    and the singular vector of V^k(g) sits at conformal weight
    (v/2u) (lam, lam + 2 rho).  For W^k(g), which requires k
    nondegenerate admissible, the reduction shifts the weight down by
    (lam, rho^v).
    """
    _check_args(alg, obj, n, u, v)
    rs = root_system(alg, n)
    if gcd(v, rs.lacity) == 1:
        base = rs.theta
    else:
        base = rs.theta_s
    alpha = tuple(-a for a in base)
    alpha_check = rs.coroot(alpha)
    scale = Fraction(-u, gcd(v, rs.lacity))
    pairing = rs.inner(rs.rho, alpha_check)
    lam = tuple(scale * ac - pairing * a for ac, a in zip(alpha_check, alpha))
    weight = Fraction(v, 2 * u) * (rs.inner(lam, lam) + 2 * rs.inner(lam, rs.rho))
    if obj == PRINCIPAL_W:
        weight -= rs.inner(lam, rs.rho_check)
    return weight


def sing_weight_closed(alg: str, obj: str, n: int, u: int, v: int) -> Fraction:
    """Lowest singular-vector weight from the factored closed forms."""
    _check_args(alg, obj, n, u, v)
    odd = v % 2 == 1
    if alg == "sp":
        if obj == AFFINE:
            return Fraction(v) * (u - n) if odd else Fraction(v, 2) * (u - 2 * n + 1)
        if odd:
            return Fraction(v - 2 * n + 1) * (u - n)
        return (Fraction(v, 2) - 2 * n + 2) * (u - 2 * n + 1)
    if obj == AFFINE:
        return Fraction(v) * (u - 2 * n + 2) if odd else Fraction(v, 2) * (u - 2 * n + 1)
    if odd:
        return Fraction(v - 2 * n + 1) * (u - 2 * n + 2)
    return (Fraction(v, 2) - n) * (u - 2 * n + 1)


_TOP_WEIGHT = {
    "1B": lambda n, m: 2 * (1 + n) * (3 + 2 * m + 2 * n) - 2,
    "1C": lambda n, m: 2 * (1 + m) * (1 + n) - 2,
    "1D": lambda n, m: 2 * (1 + m + n) * (1 + 2 * n) - 2,
    "1O": lambda n, m: 2 * (3 + 2 * m) * (1 + n) - 2,
    "2B": lambda n, m: 4 * (m + 1) * (n + 1) - 2,
    "2C": lambda n, m: 2 * (1 + n) * (1 + m + n) - 2,
    "2D": lambda n, m: 2 * (m + 1) * (2 * n + 1) - 2,
    "2O": lambda n, m: 4 * (1 + n) * (1 + m + n) - 2,
}


def max_generator_weight(fam: HookFamily) -> int:
    """Top weight 2N of the minimal strong generating set of C^psi(n, m).

    Every generic coset is of type W(2, 4, ..., 2N) as a one-parameter
    vertex algebra; the table of 2N values is family-specific.
    """
    n, m = int(fam.n), int(fam.m)
    if n + m < 1:
        raise ValueError("n + m must be at least 1")
    return _TOP_WEIGHT[fam.tag](n, m)
