"""Basis terms as trace polynomials built by products of commutators: a
slow oracle for ``StandardTerm.words`` and for the model values that the
block certifier computes for its candidates.

``product_trace_poly`` multiplies the term's factors as ``TracePoly``
values, each commutator expanded by ``TracePoly.commutator``, and
``candidate_values`` runs one ``model_eval`` per candidate, with no
expansion shared between candidates.

``word_by_word_vectors`` is the certifier's earlier evaluation of a
block's candidates: one model monomial per signed word of
``StandardTerm.words``, each rotated by a scan over every rotation, and
one flat column map {((w0, traces), eps mask): column}."""

from epsgrass.epsilon import _expand, _odd_factors
from epsgrass.grassmann import word_parity_pairs
from epsgrass.rings import IntegerRing
from epsgrass.supertrace import StandardTerm, TraceArgumentError, _sorted_traces, model_eval
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


def scan_rotation(word: tuple, pairs: list) -> tuple:
    """The lexicographically minimal rotation of ``word`` (the first,
    if several are equal), found by trying every rotation, moved to one
    letter at a time: each letter moved to the back passes the rest of
    the word as a multiset, whose pairs go to ``pairs``."""
    shift = min(range(len(word)), key=lambda k: word[k:] + word[:k])
    for head in word[:shift]:
        rest = list(word)
        rest.remove(head)
        pairs.extend(word_parity_pairs([head], rest))
    return word[shift:] + word[:shift]


def scan_model_monomial(term: tuple, pairs: list) -> tuple:
    """``supertrace._model_monomial`` with every trace argument rotated
    by ``scan_rotation``."""
    w0: tuple = ()
    traces: tuple = ()
    for atom in term:
        if isinstance(atom, int):
            for v in traces:
                pairs.extend(word_parity_pairs(v, (atom,)))
            w0 += (atom,)
            continue
        arg, inner = scan_model_monomial(atom[1], pairs)
        if not arg:
            raise TraceArgumentError("trace argument without letters of its own")
        rotated = scan_rotation(arg, pairs)
        traces = _sorted_traces(traces + (rotated,) + inner, pairs)
    return w0, traces


def word_by_word_vectors(candidates) -> tuple[dict, list]:
    """(columns, vectors): each candidate's model value over Z as a
    vector {column: nonzero int}, summed over its ``words`` one word at
    a time, with the flat columns {((w0, traces), eps mask): column}
    numbered as they are first seen and each distinct exp expanded
    once."""
    columns: dict = {}
    expansions: dict = {}
    vectors = []
    for cand in candidates:
        acc: dict = {}
        for term, c in cand.words().items():
            pairs: list = []
            mono = scan_model_monomial(term, pairs)
            factors = tuple(_odd_factors(pairs))
            if factors not in expansions:
                expansions[factors] = _expand(factors)
            for m, v in expansions[factors].items():
                j = columns.setdefault((mono, m), len(columns))
                acc[j] = acc.get(j, 0) + c * v
        vectors.append({j: c for j, c in acc.items() if c})
    return columns, vectors
