"""The free algebra with a formal linear function F and its identities.

Multilinear polynomials in letters x_1..x_n and a formal trace-like
function F are reduced to a canonical standard form.  Terms are either
commutator-structured,

    w * F(v_1)...F(v_k) * [w_1,F(u_1)]...[w_m,F(u_m)]
      * [F(u_{m+1}),F(u_{m+2})]... * F([s_1,t_1])...

with the trace words cyclically minimal, the u-words globally sorted,
the (s, t) pairs sorted and each s smaller than some letter of t, or
irreducible nested monomials: plain products whose trace arguments
contain further trace factors strictly in their interior (e.g.
F(x1*F(x2)*x3), which no combination of the structured terms can
express).

The reduction is computed semantically: polynomials are evaluated in a
graded model, in which trace values twist-commute past everything, and
their coordinates are solved block by block, a block being the letters
outside every trace and the letters of each trace.  One elimination per
block, on +-1 pivots only, picks the basis and certifies it
(``_block_solver``): a unimodular integer transform, it makes the
coordinates unique and valid over every base ring.  A block with no
trace part is the free algebra on its letters, and a value's
coordinates there are its own coefficients (``trace_normalize``).  Four
defining identities generate everything:

    F(F(x)y) = F(x)F(y)        F(xF(y)) = F(x)F(y)
    [x, F([y,z])] = 0          [F(x), [F(y), z]] = 0

This module evaluates nothing on matrices: the matrix model, in which
the identities are checked and non-identities get a witness, lives
beside the matrix type.
"""

from __future__ import annotations

from itertools import compress, permutations, product as iproduct
from typing import NamedTuple

from .epsilon import InternalError, _expand, _odd_factors
from .grassmann import word_parity_pairs
from .linalg import NoUnitPivot, SmithSolver
from .rings import BaseRing
from .terms import (
    NonMultilinearError,
    TermMap,
    TracePoly,
    _letters_of_term,
    _render_term,
    _term_sort_key,
    render_sum,
)

MAX_TRACE_ARITY = 6


class TraceArgumentError(ValueError):
    """A trace argument without letters at its own level (e.g. F(F(x)))
    is outside the reducible fragment."""


# -- the graded evaluation model -----------------------------------------
#
# Values are C[eps]-combinations of monomials (w0, traces): a plain word
# of letters followed by formal trace factors, grouped by monomial as
# {(w0, traces): {eps mask: c}}.  Letters are graded by their own
# index; trace values twist-commute past everything, and a trace argument may be
# rotated at the cost of an exp factor.  The four defining identities
# hold here, so evaluation kills exactly their consequences (on
# multilinear input).
#
# A monomial of f evaluates to exactly one model monomial times exp(P),
# where P joins the eps-index pairs of every reordering on the way:
# C[eps] is commutative and each factor 1 - eps_i*eps_j squares to 1,
# over every ring and in the theta=0 quotient alike, so
# exp(p)*exp(q) = exp(p + q).  The helpers below only append their pairs
# to one list per term, whose product of binomials is expanded once.


def _sorted_traces(traces: tuple, pairs: list) -> tuple:
    """Sort trace values; each inversion a > b costs exp(eps_a eps_b),
    whose pairs go to ``pairs``."""
    for k, a in enumerate(traces):
        for b in traces[k + 1 :]:
            if a > b:
                pairs.extend(word_parity_pairs(a, b))
    return tuple(sorted(traces))


def _canonical_rotation(word: tuple, pairs: list) -> tuple:
    """Rotate to the lexicographically minimal linearization (the
    first one, if several are equal), which starts at a copy of the
    least letter; moving the head before it to the back costs
    exp(eps_head eps_rest), whose pairs go to ``pairs``.  Rotating one
    letter at a time costs the same: each pair inside the head, a
    repeated letter's (a, a) included, is charged twice and cancels."""
    shift = word.index(min(word))
    if word.count(word[shift]) > 1:
        shift = min(range(len(word)), key=lambda k: word[k:] + word[:k])
    pairs.extend(word_parity_pairs(word[:shift], word[shift:]))
    return word[shift:] + word[:shift]


def _model_monomial(term: tuple, pairs: list) -> tuple:
    """The model monomial (w0, traces) of one term; the pairs of every
    reordering on the way go to ``pairs``."""
    w0: list = []
    traces: tuple = ()
    for atom in term:
        if isinstance(atom, int):
            # the trace factors collected so far move past the letter
            for v in traces:
                pairs.extend(word_parity_pairs(v, (atom,)))
            w0.append(atom)
            continue
        arg, inner = _model_monomial(atom[1], pairs)
        if not arg:
            raise TraceArgumentError(
                "trace argument has no letters at its own nesting level"
            )
        # Tr(arg * inner) = Tr(arg) * inner: the fresh trace value sits
        # between the outer trace values and the inner ones
        rotated = _canonical_rotation(arg, pairs)
        traces = _sorted_traces(traces + (rotated,) + inner, pairs)
    return tuple(w0), traces


def _term_entries(items):
    """The (model monomial, odd factors, c) entry of each (term, c)
    item: c times the term's model value is c times the monomial times
    the product of the binomials (1 - f) over the factor masks f."""
    for term, c in items:
        pairs: list = []
        mono = _model_monomial(term, pairs)
        yield mono, tuple(_odd_factors(pairs)), c


def _model_sum(entries, columns: dict, expansions: dict, n: int) -> tuple:
    """(acc, n): the sum of the (monomial, odd factors, int or ring
    element c) entries, as a vector acc = {column: c} summed with Python
    arithmetic, zeros kept, and the number of columns after it.  The
    column of ((w0, traces), eps mask) is ``columns[(w0, traces)][mask]``,
    numbered n, n + 1, ... as first seen, so each entry hashes its
    monomial once.  ``expansions`` maps the odd factors of an exp to its
    expansion over Z, (masks, coefficients), so each distinct exp is
    expanded once per ``expansions`` dict."""
    acc: dict = {}
    for mono, factors, c in entries:
        exp = expansions.get(factors)
        if exp is None:  # masks and coefficients, kept as tuples to save memory
            exp = _expand(factors)
            exp = expansions[factors] = (tuple(exp), tuple(exp.values()))
        cols = columns.get(mono)
        if cols is None:
            cols = columns[mono] = {}
        for m, v in zip(*exp):
            j = cols.get(m)
            if j is None:
                j = cols[m] = n
                n += 1
            acc[j] = acc[j] + c * v if j in acc else c * v
    return acc, n


def model_eval(f: TracePoly) -> dict:
    """The model value of f over f's ring, grouped by model monomial:
    {(w0, traces): {eps mask: c}}.  The coefficients are summed with
    Python arithmetic and mapped into the ring once, with the zeros
    pruned, as ``EpsPoly.__mul__`` does; a monomial whose masks all
    cancel is left out."""
    columns: dict = {}
    acc, _ = _model_sum(_term_entries(f.terms.items()), columns, {}, 0)
    frm = f.ring.from_int
    out = {}
    for mono, cols in columns.items():
        if masks := {m: c for m, j in cols.items() if (c := frm(acc[j]))}:
            out[mono] = masks
    return out


# -- the standard form -----------------------------------------------------


def _words_poly(term, ring: BaseRing) -> TracePoly:
    """``to_trace_poly`` of a basis term: its ``words`` over ``ring``."""
    frm, is_zero = ring.from_int, ring.is_zero
    return TracePoly(ring, {t: v for t, c in term.words().items() if not is_zero(v := frm(c))})


class MonomialTerm(NamedTuple):
    """A plain multilinear monomial with nested trace factors that the
    five commutator-structured blocks cannot express: every trace
    argument starts and ends with a letter of its own level (boundary
    trace factors reduce away), but interior trace factors are
    irreducible and enlarge the basis."""

    term: tuple

    def letters(self) -> list[int]:
        return _letters_of_term(self.term)

    def words(self) -> dict:
        return {self.term: 1}

    to_trace_poly = _words_poly

    def render(self) -> str:
        return _render_term(self.term)


def _monomial_irreducible(term) -> bool:
    """No trace atom at the boundary of any trace argument, and every
    trace argument owns at least one letter."""
    for atom in term:
        if not isinstance(atom, int):
            arg = atom[1]
            if not (arg and isinstance(arg[0], int) and isinstance(arg[-1], int)):
                return False
            if not _monomial_irreducible(arg):
                return False
    return True


class StandardTerm(NamedTuple):
    w: tuple  # outer word (letters, any order)
    vs: tuple  # trace words, cyclically minimal, sorted
    ms: tuple  # ((w_i word, u_i word), ...), u's sorted
    ffs: tuple  # ((u, u'), ...): commutators of trace values
    tcs: tuple  # ((s letter, t word), ...): traces of commutators

    def u_stack(self) -> list:
        return [u for _, u in self.ms] + [u for pair in self.ffs for u in pair]

    def letters(self) -> list[int]:
        out = list(self.w)
        for word in (*self.vs, *(word for pair in self.ms + self.ffs for word in pair)):
            out.extend(word)
        for s, t in self.tcs:
            out.append(s)
            out.extend(t)
        return out

    def _commutators(self) -> list:
        """(a*b atoms, b*a atoms, (p, q)) of each commutator, in the order
        of the product: [w_i, F(u_i)], then [F(u), F(u')], then F([s, t]).
        Swapping a commutator from a*b to b*a adds pairs(p, q) to the
        exp of a word (``_structured_entries``).  It runs once for every
        structured candidate of a block, so it is built in plain loops:
        three list comprehensions took twice as long."""
        out = []
        for wi, ui in self.ms:
            f = (("F", ui),)
            out.append((wi + f, f + wi, (ui, wi)))
        for u, u2 in self.ffs:
            a, b = ("F", u), ("F", u2)
            out.append(((a, b), (b, a), (u, u2)))
        for s, t in self.tcs:
            out.append(((("F", (s,) + t),), (("F", t + (s,)),), ((s,), t)))
        return out

    def words(self) -> dict:
        """The expansion {term: int}, in the order of the product of the
        factors: each trace word appends its trace, and each commutator
        appends a*b, or b*a with the opposite sign.  Terms meet only when
        a letter repeats, and then they are summed; a standard term's
        coefficients are all +-1."""
        out = {self.w + tuple(("F", v) for v in self.vs): 1}
        for ab, ba, _ in self._commutators():
            nxt: dict = {}
            for term, c in out.items():
                nxt[term + ab] = nxt.get(term + ab, 0) + c
                nxt[term + ba] = nxt.get(term + ba, 0) - c
            out = nxt
        return out

    to_trace_poly = _words_poly

    def render(self) -> str:
        r = _render_term
        parts = [r(self.w)] if self.w else []
        parts += [f"Tr({r(v)})" for v in self.vs]
        parts += [f"[{r(wi)},Tr({r(ui)})]" for wi, ui in self.ms]
        parts += [f"[Tr({r(u)}),Tr({r(u2)})]" for u, u2 in self.ffs]
        parts += [f"Tr([x{s},{r(t)}])" for s, t in self.tcs]
        return "*".join(parts) if parts else "1"


def _is_cyclically_minimal(word: tuple) -> bool:
    return all(word <= word[k:] + word[:k] for k in range(1, len(word)))


def check_standard_term(term: StandardTerm, arity: int | None = None) -> None:
    """Raise ValueError when a structural constraint is violated."""
    letters = term.letters()
    if len(set(letters)) != len(letters):
        raise ValueError("letters repeat")
    if arity is not None and sorted(letters) != list(range(1, arity + 1)):
        raise ValueError("wrong letter set")
    for v in term.vs:
        if not (v and _is_cyclically_minimal(v)):
            raise ValueError(f"trace word {v} not cyclic-minimal")
    if list(term.vs) != sorted(term.vs):
        raise ValueError("trace words unsorted")
    for wi, ui in term.ms:
        if not wi:
            raise ValueError("empty word slot in a mixed commutator")
        if not (ui and _is_cyclically_minimal(ui)):
            raise ValueError(f"{ui} not cyclic-minimal")
    for u, u2 in term.ffs:
        if not (_is_cyclically_minimal(u) and _is_cyclically_minimal(u2)):
            raise ValueError(f"{u} or {u2} not cyclic-minimal")
    stack = term.u_stack()
    if stack != sorted(stack):
        raise ValueError("u-words not globally sorted")
    for s, t in term.tcs:
        if not t:
            raise ValueError("empty commutator tail")
        if not any(s < x for x in t):
            raise ValueError(f"x{s} is not below any letter of {t}")
    if list(term.tcs) != sorted(term.tcs):
        raise ValueError("trace-commutator pairs unsorted")


def _basis_term_key(t):
    if isinstance(t, StandardTerm):
        return (0, t)
    return (1, _term_sort_key(t.term))


class StandardForm(TermMap):
    """Sum of standard terms with coefficients, in canonical term order."""

    __slots__ = ("ring",)

    def __init__(self, ring: BaseRing, items: dict):
        self.ring = ring
        self.terms = {t: c for t, c in items.items() if not ring.is_zero(c)}

    @property
    def items(self) -> dict:
        return self.terms

    def to_trace_poly(self) -> TracePoly:
        acc = TracePoly.zero(self.ring)
        for t, c in self.terms.items():
            acc = acc + t.to_trace_poly(self.ring).scale(c)
        return acc

    def render(self) -> str:
        # a term whose fields are all empty is the constant: an empty body
        return render_sum(
            (self.ring.render(self.terms[t]), t.render() if any(t) else "")
            for t in sorted(self.terms, key=_basis_term_key)
        )


# -- basis enumeration per block -------------------------------------------


def _cyclic_min_words(part: frozenset) -> list[tuple]:
    m = min(part)
    rest = sorted(part - {m})
    return [(m,) + p for p in permutations(rest)]


def _tc_options(part: frozenset) -> list[tuple]:
    top = max(part)
    return [(s, t) for s in sorted(part) if s != top for t in permutations(sorted(part - {s}))]


def _outer_arrangements(outer: frozenset, k: int):
    """All (w word, list of k nonempty words) arrangements of the outer
    letters."""
    letters = sorted(outer)
    results = []
    for assign in iproduct(range(k + 1), repeat=len(letters)):
        slots = [[] for _ in range(k + 1)]
        for letter, slot in zip(letters, assign):
            slots[slot].append(letter)
        if not all(slots[1:]):
            continue
        for orders in iproduct(*(permutations(s) for s in slots)):
            results.append((orders[0], list(orders[1:])))
    return results


def enumerate_block_basis(outer: frozenset, parts: frozenset) -> list[StandardTerm]:
    part_list = sorted(parts, key=sorted)
    out = []
    for roles in iproduct(("v", "m", "ff", "tc"), repeat=len(part_list)):
        v_parts = [p for p, r in zip(part_list, roles) if r == "v"]
        m_parts = [p for p, r in zip(part_list, roles) if r == "m"]
        ff_parts = [p for p, r in zip(part_list, roles) if r == "ff"]
        tc_parts = [p for p, r in zip(part_list, roles) if r == "tc"]
        if len(ff_parts) % 2:
            continue
        if any(len(p) < 2 for p in tc_parts):
            continue
        if len(m_parts) > len(outer):
            continue
        arrangements = _outer_arrangements(outer, len(m_parts))
        for v_choice in iproduct(*(_cyclic_min_words(p) for p in v_parts)):
            vs = tuple(sorted(v_choice))
            for m_choice in iproduct(*(_cyclic_min_words(p) for p in m_parts)):
                us_m = sorted(m_choice)
                for ff_choice in iproduct(*(_cyclic_min_words(p) for p in ff_parts)):
                    us_ff = sorted(ff_choice)
                    if us_m and us_ff and us_m[-1] > us_ff[0]:
                        continue
                    ffs = tuple(
                        (us_ff[i], us_ff[i + 1]) for i in range(0, len(us_ff), 2)
                    )
                    for tc_choice in iproduct(*(_tc_options(p) for p in tc_parts)):
                        tcs = tuple(sorted(tc_choice))
                        for w, wm in arrangements:
                            ms = tuple(
                                (tuple(wm[j]), us_m[j]) for j in range(len(us_m))
                            )
                            out.append(StandardTerm(w, vs, ms, ffs, tcs))
    return out


def _host_forests(part_list: list):
    """The forests on the parts in which only hosts, parts of 2 or more
    letters, have children: parents[i] is -1 (a root) or a host other
    than i, in lexicographic order."""
    m = len(part_list)
    hosts = [h for h in range(m) if len(part_list[h]) >= 2]
    choices = [[-1] + [h for h in hosts if h != i] for i in range(m)]
    for parents in iproduct(*choices):
        ok = True
        for i in range(m):
            seen = set()
            j = i
            while j != -1:
                if j in seen:
                    ok = False
                    break
                seen.add(j)
                j = parents[j]
            if not ok:
                break
        if ok:
            yield parents


def _interleavings(letters, fatoms, boundary_letters: bool):
    seqs = permutations((*letters, *fatoms))
    if not boundary_letters:
        return list(seqs)
    return [s for s in seqs if not s or (isinstance(s[0], int) and isinstance(s[-1], int))]


def enumerate_nested_monomials(outer: frozenset, parts: frozenset) -> list[MonomialTerm]:
    """Irreducible multilinear monomials with the given value pattern:
    each part is the own-letter set of one trace node, nested in every
    forest shape with at least one edge, with letters guarding every
    trace boundary.  Only hosts, parts of 2 or more letters, get
    children: a one-letter argument cannot put letters on both sides of
    a trace, so the forests are hung on the hosts alone, and parts that
    are all one-letter give no candidate.  A flat monomial, with no
    trace inside a trace, lies in the span of the five-block terms on
    every block of at most ``MAX_TRACE_ARITY`` letters, so it is not a
    candidate either."""
    part_list = sorted(parts, key=sorted)
    m = len(part_list)
    if m < 2:
        return []
    out = []
    for parents in _host_forests(part_list):
        if max(parents) < 0:
            continue
        children: dict = {i: [] for i in range(-1, m)}
        for i, p in enumerate(parents):
            children[p].append(i)

        def node_options(i):
            child_opts = [node_options(j) for j in children[i]]
            seqs = []
            for picks in iproduct(*child_opts):
                fatoms = [("F", p) for p in picks]
                seqs.extend(_interleavings(sorted(part_list[i]), fatoms, True))
            return seqs

        top_opts = [node_options(j) for j in children[-1]]
        for picks in iproduct(*top_opts):
            fatoms = [("F", p) for p in picks]
            for seq in _interleavings(sorted(outer), fatoms, False):
                out.append(MonomialTerm(seq))
    return out


def _structured_entries(term: StandardTerm) -> list:
    """The entries (``_term_entries``) of ``term.words()``, in its order,
    from one model monomial.  Every word has the monomial of the first
    word, which takes a*b in each commutator, and swapping one
    commutator to b*a adds a fixed pair list to the first word's pairs,
    mod 2, whatever the other commutators take:

    - [w_i, F(u_i)]: pairs(u_i, w_i), the letters of w_i also pass the
      trace value u_i, which now comes before them;
    - [F(u), F(u')]: pairs(u, u'), the one sort inversion between the
      two trace values flips, and the others stay;
    - F([s, t]): pairs(s, t), the words s*t and t*s are one rotation
      step apart, and rotating to the same minimal word costs that one
      step more or less."""
    # a list is built faster than a generator: this runs once per candidate
    first = term.w + tuple([("F", v) for v in term.vs])
    flips = []
    for ab, _, (p, q) in term._commutators():
        first += ab
        flips.append(word_parity_pairs(p, q))
    pairs: list = []
    mono = _model_monomial(first, pairs)
    if not flips:
        return [(mono, tuple(_odd_factors(pairs)), 1)]
    signed = [(frozenset(_odd_factors(pairs)), 1)]
    for flip in flips:
        flip = frozenset(_odd_factors(flip))
        signed = [x for odd, c in signed for x in ((odd, c), (odd ^ flip, -c))]
    return [(mono, tuple(sorted(odd)), c) for odd, c in signed]


def _candidate_vectors(candidates: list) -> tuple[dict, int, list]:
    """(columns, n, vectors): the model value of each candidate's
    ``words`` over Z as a vector {column: nonzero int}, with the n
    columns {(w0, traces): {eps mask: column}} numbered as they are first
    seen and one table of exp expansions for the call.  A structured
    candidate's value comes from its fields (``_structured_entries``), a
    nested monomial's from its one word."""
    columns: dict = {}
    expansions: dict = {}
    vectors = []
    n = 0
    for cand in candidates:
        if isinstance(cand, StandardTerm):
            entries = _structured_entries(cand)
        else:
            entries = _term_entries(((cand.term, 1),))
        acc, n = _model_sum(entries, columns, expansions, n)
        vectors.append(acc if all(acc.values()) else {j: c for j, c in acc.items() if c})
    return columns, n, vectors


_BLOCK_CACHE: dict = {}
_CHECKED: dict = {}  # each answer term that passed its check -> its arity


def _block_solver(outer: frozenset, parts: frozenset):
    """Basis and integer solver for one block of the standard form.

    Candidates are taken in order: the five-block structured terms
    first, then irreducible nested monomials.  Their model values
    (``_candidate_vectors``) go to one unit-pivot elimination
    (``SmithSolver``), which keeps a candidate exactly when its value
    leaves the rational span of the earlier ones; the kept candidates
    are the basis.  The elimination is a unimodular integer
    certificate, so the coordinates are valid over every base ring; a
    block that offers no +-1 pivot raises ``InternalError``."""
    key = (outer, parts)
    if key in _BLOCK_CACHE:
        return _BLOCK_CACHE[key]
    candidates: list = list(enumerate_block_basis(outer, parts))
    candidates.extend(enumerate_nested_monomials(outer, parts))
    if not candidates:
        raise InternalError(f"no basis candidates for block {key}")
    columns, n, vectors = _candidate_vectors(candidates)
    try:
        solver = SmithSolver(vectors, n)
    except NoUnitPivot as err:
        raise InternalError(
            f"standard basis for block {key} is not unimodularly independent: {err}"
        ) from err
    basis = [candidates[k] for k in solver.kept]
    _BLOCK_CACHE[key] = (basis, columns, solver)
    return _BLOCK_CACHE[key]


# -- normalization -----------------------------------------------------------


def trace_normalize(f: TracePoly) -> StandardForm:
    """Canonical standard form of a multilinear polynomial, modulo the
    four defining identities.  A block with no trace part, (outer, {}),
    is read in closed form: evaluating a word w of its basis moves no
    trace, so charges no pair, and its value is (w, ()) at mask 0.  The
    elimination keeps these distinct unit vectors, and a value's
    coordinates there are its own coefficients.  Each term of an answer
    passes ``check_standard_term``, or the monomial check, once."""
    n = f.require_multilinear()
    if n > MAX_TRACE_ARITY:
        raise ValueError(f"arity {n} exceeds the supported bound {MAX_TRACE_ARITY}")
    ring = f.ring
    items: dict = {}
    groups: dict = {}
    for mono, masks in model_eval(f).items():
        w0, traces = mono
        if traces:
            pattern = frozenset(w0), frozenset([frozenset(v) for v in traces])
            groups.setdefault(pattern, []).append((mono, masks))
        elif masks.keys() == {0}:
            items[StandardTerm(w0, (), (), (), ())] = masks[0]
        else:
            raise InternalError("value outside the span of the standard basis")
    for pattern, values in groups.items():
        basis, columns, solver = _block_solver(*pattern)
        try:
            vec = {columns[mono][m]: c for mono, masks in values for m, c in masks.items()}
        except KeyError:
            raise InternalError("value outside the span of the standard basis") from None
        sol, ok = solver.solve(vec, ring)
        if not ok:
            raise InternalError("value not solvable in the standard basis")
        # a zero of the ring is falsy, as in model_eval
        items.update(zip(compress(basis, sol), filter(None, sol)))
    for term in items:
        if _CHECKED.get(term) == n:
            continue
        if isinstance(term, StandardTerm):
            try:
                check_standard_term(term, n)
            except ValueError as exc:
                raise InternalError(f"basis term is not standard: {exc}") from exc
        elif not (
            _monomial_irreducible(term.term)
            and sorted(term.letters()) == list(range(1, n + 1))
        ):
            raise InternalError(f"basis monomial {term.term} is not irreducible")
        _CHECKED[term] = n
    return StandardForm(ring, items)


def is_trace_identity(f: TracePoly) -> bool:
    """True iff f is a consequence of the four defining identities."""
    return trace_normalize(f).is_zero()
