"""Basis terms as trace polynomials built by products of commutators: a
slow oracle for ``StandardTerm.words`` and for the model values that the
block certifier computes for its candidates.

``product_trace_poly`` multiplies the term's factors as ``TracePoly``
values, each commutator expanded by ``TracePoly.commutator``, and
``candidate_values`` runs one ``model_eval`` per candidate, with no
expansion shared between candidates."""

from epsgrass.rings import IntegerRing
from epsgrass.supertrace import StandardTerm, model_eval
from epsgrass.terms import TracePoly


def product_trace_poly(term, ring) -> TracePoly:
    """The basis term as a product of ``TracePoly`` factors over ``ring``."""
    one = ring.one()
    if not isinstance(term, StandardTerm):
        return TracePoly(ring, {term.term: one})

    def word(letters):
        return TracePoly(ring, {tuple(letters): one})

    acc = word(term.w)
    for v in term.vs:
        acc = acc * word(v).trace()
    for wi, ui in term.ms:
        acc = acc * word(wi).commutator(word(ui).trace())
    for u, u2 in term.ffs:
        acc = acc * word(u).trace().commutator(word(u2).trace())
    for s, t in term.tcs:
        acc = acc * word((s,)).commutator(word(t)).trace()
    return acc


def candidate_values(candidates) -> list:
    """The model value over Z of each candidate's product polynomial, as
    ``model_eval`` gives it: {((w0, traces), eps mask): int}."""
    zz = IntegerRing()
    return [model_eval(product_trace_poly(cand, zz)) for cand in candidates]
