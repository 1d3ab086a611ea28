"""
Rationality witnesses, singular weights, and chain factors
==========================================================

The catalog's rational points mark specializations that are lisse and
rational; each witness carries its arithmetic side conditions and, where
one exists, the principal W-algebra partner.  Alongside: the lowest
singular-vector weights that control these specializations, and the
chain decompositions into principal W-algebra factors.
"""

from fractions import Fraction

import hookw

# Catalogued exact witnesses on the 2B(0,1) curve, with partners.
fam = hookw.HookFamily.from_tag("2B", 0, 1)
for w in hookw.rational_points(fam, r_bound=2, pq_bound=4):
    partner = f"  partner {w.partner_algebra} at s={w.partner_s}" if w.partner_algebra else ""
    print(f"{w.theorem}: psi = {w.psi}{partner}  conditions: {', '.join(w.conditions)}")

# Each witness re-derives from scratch; certification is idempotent.
witness = hookw.rational_points(fam, r_bound=1)[0]
print("re-check of the first witness:", hookw.check_witness(witness))

# A partner level is tested from Lie data alone: with k + h^vee = p/q in
# lowest terms, it must be admissible (Kac-Wakimoto) and the principal
# W-algebra at it nondegenerate (Arakawa).  sp(6) at -9/4 reads 7/4:
# admissible, but q = 4 is below the bound 10, so the answer is "no".
for alg, s in (
    ("sp(2)", Fraction(-13, 8)),
    ("sp(2)", Fraction(-2) + Fraction(3, 6)),
    ("sp(6)", Fraction(21, 12) - 4),
):
    print(f"{alg} at s = {s}:", hookw.is_admissible_nondegenerate(alg, s))

# The singular-vector weight behind admissibility, two independent ways.
general = hookw.sing_weight_general("sp", hookw.PRINCIPAL_W, 2, 5, 2)
closed = hookw.sing_weight_closed("sp", hookw.PRINCIPAL_W, 2, 5, 2)
print(f"sing weight sp(4), u/v = 5/2: general {general}, closed {closed}")

# Chain decompositions into principal W-algebra factors: type C gives n
# paired-level factors; types B and D alternate two interleaved ranks.
for f in hookw.gelfand_tsetlin_factors("C", 2, 1):
    levels = ", ".join(str(v) for v in f.levels)
    print(f"C chain: {f.label} on {f.algebra}, levels ({levels})")
for f in hookw.gelfand_tsetlin_factors("D", 1, 3):
    name = f.algebra if f.algebra else "Heisenberg"
    levels = ", ".join(str(v) for v in f.levels)
    print(f"D chain: {f.label} on {name}, levels ({levels})")
