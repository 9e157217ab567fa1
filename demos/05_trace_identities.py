"""The free algebra with a formal linear function F.

Four identities generate all multilinear consequences:

    F(F(x)y) = F(x)F(y)      F(xF(y)) = F(x)F(y)
    [x, F([y,z])] = 0        [F(x), [F(y), z]] = 0

The normalizer computes canonical standard forms; matrix algebras over
the twisted Grassmann algebra (with F the ordinary trace) separate
everything that is not a consequence.
"""

from epsgrass import CoeffRing, GrassAlgebra, ZZ
from epsgrass.rings import IntegerRing
from epsgrass.hull import SuperTraceContext, eval_trace_poly, witness_search
from epsgrass.supertrace import TracePoly, is_trace_identity, trace_normalize

ring = IntegerRing()
x = lambda i: TracePoly.letter(ring, i)  # noqa: E731

axiom = (x(1).trace() * x(2)).trace() - x(1).trace() * x(2).trace()
print("F(F(x1)x2) - F(x1)F(x2) is an identity:", is_trace_identity(axiom))

derived = x(1).commutator(x(2).trace().commutator(x(3).trace()))
print("[x1,[F(x2),F(x3)]] is an identity:", is_trace_identity(derived))

f = x(1).trace() * x(2) - x(2) * x(1).trace()
print("\nF(x1)x2 - x2F(x1): identity?", is_trace_identity(f))
print("standard form:", trace_normalize(f).render())

w = witness_search(f, max_n=3, seed=1)
print("witness:", w.render())
algebra = GrassAlgebra(CoeffRing(ZZ))
ctx = SuperTraceContext(w.size, algebra)
value = eval_trace_poly(f, ctx, w.matrices(ctx))
print("value is nonzero:", not value.is_zero())

g = (x(1) * x(2).trace() * x(3)).trace()
print("\na trace with an interior trace factor is already canonical:")
print("  normalize(Tr(x1*Tr(x2)*x3)) =", trace_normalize(g).render())
