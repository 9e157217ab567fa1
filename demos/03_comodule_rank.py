"""Multilinear identity testing and the sign co-module.

A multilinear polynomial is an identity iff it vanishes on the
generators themselves; the space of sign values is a free module of
rank 2^(n-1), certified by an integer elimination on +-1 pivots (which
proves an all-ones Smith diagonal), and normal forms modulo the
identities are exact coordinates in the spanning set.
"""

from epsgrass import GF, QQ, ZZ
from epsgrass.comodule import (
    MultilinearPoly,
    comodule_rank,
    freeness_certificate,
    grassmann_normal_form,
    is_identity,
    psi,
    spanning_terms,
)
from epsgrass.terms import TracePoly

x = lambda i: TracePoly.letter(ZZ, i)  # noqa: E731

grassmann = MultilinearPoly.from_word_poly(
    x(1).commutator(x(2).commutator(x(3))), 3
)
print("is [x1,[x2,x3]] an identity? ", is_identity(grassmann))
print("its sign image:", psi(grassmann).render())

swap = MultilinearPoly.from_word_poly(x(2) * x(1), 2)
print("\nis x2*x1 an identity?", is_identity(swap))
print("its normal form coordinates:")
for term, c in grassmann_normal_form(swap).items():
    print(f"  {term.render()}: {c}")

print("\nco-module ranks (always 2^(n-1)):")
for n in range(1, 6):
    ranks = [comodule_rank(n, ring) for ring in (ZZ, QQ, GF(2), GF(3))]
    print(f"  n={n}: Z,Q,F2,F3 -> {ranks}, free: {freeness_certificate(n)}")

print("\nspanning set at n=3:")
for term in spanning_terms(3):
    print(" ", term.render())
