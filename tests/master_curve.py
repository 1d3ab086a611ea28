"""The canonical three-variable 2B master curve, built for the tests alone.

The package holds only F, the master at m = 0 (``curves._F``): every
curve depends on (n, m) through t = n + m(2psi - 1) alone.  The tests
that pin the entered master, check that each printed polynomial is a
polynomial in t, or compare F with the full master read it from here.
"""

from functools import cache
from math import prod

from hookw import curves as C
from hookw.exact import RatFunc, parse_ratfunc
from hookw.liedata import closed_form_charge


@cache
def master_2B():
    """The symbolic 2B curve (c, lambda) in psi, n, m, each canonical.

    c is the closed-form 2B charge.  lambda is -(2psi)(2psi - 1) F_2B over
    7 times the other five domain factors.
    """
    c = closed_form_charge("2B", RatFunc.var("n"), RatFunc.var("m"))
    two_psi, two_psi_less_one, *den = C._master_domain_factors()
    lam = -RatFunc(two_psi * two_psi_less_one * parse_ratfunc(C._F_2B).num, 7 * prod(den))
    return c, lam
