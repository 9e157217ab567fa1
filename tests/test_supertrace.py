import os
import subprocess
import sys
from fractions import Fraction

import pytest

from epsgrass import CoeffRing, GF, GrassAlgebra, QQ, ZZ, supertrace
from epsgrass.epsilon import InternalError, _odd_factors, monomial_key
from epsgrass.hull import Matrix, SuperTraceContext, eval_trace_poly, witness_search
from epsgrass.rings import IntegerRing, ModRing
from epsgrass.supertrace import (
    MonomialTerm,
    NonMultilinearError,
    StandardTerm,
    TraceArgumentError,
    TracePoly,
    check_standard_term,
    is_trace_identity,
    trace_normalize,
)

from block_shapes import all_blocks, block_shapes
from conftest import random_grass_elem
from esgn_oracle import model_value, reduce
from forest_oracle import nested_monomials
from product_oracle import candidate_values, product_trace_poly, scan_rotation, word_by_word_vectors
from rank_oracle import rational_choice

ZZr = IntegerRing()


def x(i, ring=ZZr):
    return TracePoly.letter(ring, i)


def word(*letters, ring=ZZr):
    p = TracePoly(ring, {(): ring.one()})
    for i in letters:
        p = p * x(i, ring)
    return p


def axiom_polys(ring=ZZr):
    a1 = (x(1, ring).trace() * x(2, ring)).trace() - x(1, ring).trace() * x(2, ring).trace()
    a2 = (x(1, ring) * x(2, ring).trace()).trace() - x(1, ring).trace() * x(2, ring).trace()
    a3 = x(1, ring).commutator(x(2, ring).commutator(x(3, ring)).trace())
    a4 = x(1, ring).trace().commutator(x(2, ring).trace().commutator(x(3, ring)))
    return [a1, a2, a3, a4]


def derived_polys(ring=ZZr):
    d1 = x(1, ring).commutator(x(2, ring).trace().commutator(x(3, ring).trace()))
    d2 = x(1, ring).commutator(x(2, ring).trace()) * x(3, ring).trace().commutator(
        x(4, ring).trace()
    ) + x(1, ring).commutator(x(3, ring).trace()) * x(2, ring).trace().commutator(
        x(4, ring).trace()
    )
    d3 = x(1, ring).trace().commutator(x(2, ring)) * x(3, ring).trace().commutator(
        x(4, ring).trace()
    ) + x(1, ring).trace().commutator(x(3, ring).trace()) * x(2, ring).commutator(
        x(4, ring).trace()
    )
    return [d1, d2, d3]


# -- multilinearity ---------------------------------------------------------


def test_multilinear_validation():
    f = x(1) * x(1)
    with pytest.raises(NonMultilinearError):
        f.require_multilinear()
    g = x(1) * x(2) + x(2) * x(1)
    assert g.require_multilinear() == 2
    h = x(1) * x(2) + x(1)
    with pytest.raises(NonMultilinearError):
        h.require_multilinear()


# -- normalization -----------------------------------------------------------


def test_axioms_normalize_to_zero():
    for f in axiom_polys():
        assert is_trace_identity(f), f.render()


def test_derived_consequences_normalize_to_zero():
    for f in derived_polys():
        assert is_trace_identity(f), f.render()


def test_non_identities():
    assert not is_trace_identity(x(1) * x(2) - x(2) * x(1))
    assert not is_trace_identity(x(1).trace() * x(2) - x(2) * x(1).trace())
    assert not is_trace_identity(word(1, 2).trace() - word(2, 1).trace())


def test_normalize_examples():
    # plain words are their own normal form
    sf = trace_normalize(x(2) * x(1))
    assert sf.render() == "x2*x1"
    # trace of a reversed word picks up a trace-commutator correction
    sf = trace_normalize(word(2, 1).trace())
    assert sf.items == {
        StandardTerm((), ((1, 2),), (), (), ()): 1,
        StandardTerm((), (), (), (), ((1, (2,)),)): -1,
    }
    # x1*Tr(x2) sorts its outer letter ahead of the trace with a
    # mixed-commutator correction
    sf = trace_normalize(x(1).trace() * x(2))
    assert sf.items == {
        StandardTerm((2,), ((1,),), (), (), ()): 1,
        StandardTerm((), (), (((2,), (1,)),), (), ()): -1,
    }


def test_normalize_interior_trace_monomial():
    # trace arguments with interior trace factors are irreducible and
    # stand as their own normal form
    f = (x(1) * x(2).trace() * x(3)).trace()
    sf = trace_normalize(f)
    assert list(sf.items) == [MonomialTerm(((("F", ((1,) + (("F", (2,)),) + (3,)))),))] or len(sf.items) >= 1
    assert trace_normalize(sf.to_trace_poly()) == sf


def test_normalize_idempotent_random(rng):
    for _ in range(30):
        f = _random_trace_poly(rng, rng.randint(2, 4))
        try:
            sf = trace_normalize(f)
        except TraceArgumentError:
            continue
        assert trace_normalize(sf.to_trace_poly()) == sf


def test_normalize_rejects_bare_nested_trace():
    f = x(1).trace().trace()
    with pytest.raises(TraceArgumentError):
        trace_normalize(f)


def test_standard_form_conformance_checker():
    check_standard_term(StandardTerm((1,), ((2, 3),), (), (), ()), 3)
    with pytest.raises(ValueError):
        # not cyclically minimal
        check_standard_term(StandardTerm((1,), ((3, 2),), (), (), ()), 3)
    with pytest.raises(ValueError):
        # s not below any letter of t
        check_standard_term(StandardTerm((), (), (), (), ((2, (1,)),)), 2)


@pytest.mark.parametrize(
    "term, arity, message",
    [
        (StandardTerm((1, 1), (), (), (), ()), None, "letters repeat"),
        (StandardTerm((1, 2), (), (), (), ()), 3, "wrong letter set"),
        (StandardTerm((), ((),), (), (), ()), None, r"trace word \(\) not cyclic-minimal"),
        (StandardTerm((), ((2,), (1,)), (), (), ()), 2, "trace words unsorted"),
        (StandardTerm((), (), (((), (1,)),), (), ()), 1, "empty word slot in a mixed commutator"),
        (StandardTerm((), (), (((1,), (3, 2)),), (), ()), 3, r"\(3, 2\) not cyclic-minimal"),
        (StandardTerm((), (), (), (((2, 1), (3,)),), ()), 3, r"\(2, 1\) or \(3,\) not cyclic-minimal"),
        (StandardTerm((), (), (((1,), (4,)), ((2,), (3,))), (), ()), 4, "u-words not globally sorted"),
        (StandardTerm((), (), (), (), ((1, ()),)), 1, "empty commutator tail"),
        (StandardTerm((), (), (), (), ((2, (1,)),)), 2, r"x2 is not below any letter of \(1,\)"),
        (StandardTerm((), (), (), (), ((2, (3,)), (1, (4,)))), 4, "trace-commutator pairs unsorted"),
    ],
)
def test_each_malformed_standard_term_is_refused(term, arity, message):
    # one term per check of check_standard_term, which passes every check
    # before its own
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_standard_term(term, arity)


def test_standard_form_checker_survives_optimize_flag():
    import epsgrass

    code = (
        "import sys\n"
        "from epsgrass.supertrace import StandardTerm, check_standard_term\n"
        "try:\n"
        "    check_standard_term(StandardTerm((1,), ((3, 2),), (), (), ()), 3)\n"
        "except ValueError:\n"
        "    print('rejected', sys.flags.optimize)\n"
    )
    src = os.path.dirname(os.path.dirname(epsgrass.__file__))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["rejected", "1"]


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(3)], ids=["Z", "Q", "F3"])
def test_identity_decision_over_rings(ring):
    for f in axiom_polys(ring) + derived_polys(ring):
        assert is_trace_identity(f)
    assert not is_trace_identity(
        TracePoly.letter(ring, 1) * TracePoly.letter(ring, 2)
    )


# -- consequences of the axioms ----------------------------------------------


def _substitute(f, images):
    def sub_term(term):
        out = ()
        for atom in term:
            if isinstance(atom, int):
                out = out + images[atom]
            else:
                out = out + ((("F", sub_term(atom[1]))),)
        return out

    terms: dict = {}
    for t, c in f.terms.items():
        nt = sub_term(t)
        s = terms.get(nt, 0) + c
        if s:
            terms[nt] = s
        else:
            terms.pop(nt, None)
    return TracePoly(f.ring, terms)


def random_axiom_consequence(rng, max_letters=5):
    """A random multilinear element of the ideal generated by the four
    defining identities: monomials substituted into the axiom variables
    and multiplied by monomial contexts."""
    ax = rng.choice(axiom_polys())
    k = 2 if len(next(iter(ax.terms))) == 1 else None
    letters_in_ax = set()
    for t in ax.terms:
        from epsgrass.supertrace import _letters_of_term

        letters_in_ax.update(_letters_of_term(t))
    k = len(letters_in_ax)
    total = rng.randint(k, max_letters)
    pool = list(range(1, total + 1))
    rng.shuffle(pool)
    blocks = []
    remaining = total - k
    for i in range(k):
        take = 1 + (rng.randint(0, remaining) if remaining else 0)
        take = min(take, 1 + remaining)
        blocks.append([pool.pop() for _ in range(take)])
        remaining = total - k + 1 - sum(len(b) - 1 for b in blocks) - (k - len(blocks))
        remaining = max(remaining, 0)
    while pool:
        blocks[rng.randrange(k)].append(pool.pop())
    images = {}
    for i in range(1, k + 1):
        img = tuple(blocks[i - 1])
        if rng.random() < 0.3:
            img = (("F", img),)
        images[i] = img
    return _substitute(ax, images)


def test_random_axiom_consequences_are_identities(rng):
    count = 0
    while count < 60:
        f = random_axiom_consequence(rng, max_letters=5)
        try:
            result = is_trace_identity(f)
        except TraceArgumentError:
            continue  # consequence escaped the representable domain
        assert result, f.render()
        count += 1


# -- evaluation ---------------------------------------------------------------


def _random_matrix(rng, ctx, algebra):
    return Matrix(
        [
            [
                random_grass_elem(rng, algebra, max_index=3, max_len=2, nterms=2, lo=-2, hi=2)
                for _ in range(ctx.n)
            ]
            for _ in range(ctx.n)
        ],
        algebra.zero(),
    )


def test_eval_trace_of_identity_matrix():
    algebra = GrassAlgebra(CoeffRing(ZZ))
    ctx = SuperTraceContext(2, algebra)
    f = x(1).trace()
    value = eval_trace_poly(f, ctx, [ctx.identity()])
    assert value == ctx.identity().scale(algebra.from_int(2))


def test_eval_axiom_vanishes_on_random_matrices(rng):
    algebra = GrassAlgebra(CoeffRing(ZZ))
    a2 = axiom_polys()[1]
    for n in (2, 3):
        ctx = SuperTraceContext(n, algebra)
        for _ in range(10):
            subs = [_random_matrix(rng, ctx, algebra) for _ in range(2)]
            assert eval_trace_poly(a2, ctx, subs).is_zero()


def test_matrix_model_satisfies_supertrace_axioms(rng):
    # estr is linear, kills twisted commutators of homogeneous tensors
    # and absorbs its own values
    from epsgrass import exp_map, word_from_letters
    from epsgrass.grassmann import word_grade, word_parity_pairs

    algebra = GrassAlgebra(CoeffRing(ZZ))
    ctx = SuperTraceContext(2, algebra)
    for _ in range(30):
        wa = word_from_letters([rng.randint(1, 3) for _ in range(rng.randint(1, 2))])
        wb = word_from_letters([rng.randint(1, 3) for _ in range(rng.randint(1, 2))])
        scalars_a = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        scalars_b = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        A = Matrix(
            [[algebra.monomial(wa).scale_int(v) for v in row] for row in scalars_a],
            algebra.zero(),
        )
        B = Matrix(
            [[algebra.monomial(wb).scale_int(v) for v in row] for row in scalars_b],
            algebra.zero(),
        )
        factor = exp_map(algebra.coeff, word_parity_pairs(word_grade(wa), word_grade(wb)))
        twisted = A * B - (B * A).scale(algebra.from_coeff(factor))
        assert ctx.estr(twisted).is_zero()
        lhs = ctx.estr(A * ctx.estr(B))
        rhs = ctx.estr(A) * ctx.estr(B)
        assert lhs == rhs


def _random_trace_poly(rng, n):
    return __random_trace_poly_impl(rng, n)


def __random_trace_poly_impl(rng, n):
    letters = list(range(1, n + 1))

    def build(ls, depth):
        atoms = []
        i = 0
        while i < len(ls):
            take = rng.randint(1, len(ls) - i)
            chunk = ls[i : i + take]
            if rng.random() < 0.4 and depth < 2:
                atoms.append(("F", build(chunk, depth + 1)))
            else:
                atoms.extend(chunk)
            i += take
        return tuple(atoms)

    poly = TracePoly(ZZr, {})
    for _ in range(rng.randint(1, 3)):
        ls = letters[:]
        rng.shuffle(ls)
        poly = poly + TracePoly(ZZr, {build(ls, 0): rng.choice([-2, -1, 1, 2])})
    return poly


def test_soundness_eval_equals_eval_of_normal_form(rng):
    algebra = GrassAlgebra(CoeffRing(ZZ))
    checked = 0
    while checked < 40:
        n = rng.randint(2, 4)
        f = _random_trace_poly(rng, n)
        try:
            sf = trace_normalize(f)
        except TraceArgumentError:
            continue
        g = f - sf.to_trace_poly()
        for size in (2, 3):
            ctx = SuperTraceContext(size, algebra)
            subs = [_random_matrix(rng, ctx, algebra) for _ in range(n)]
            assert eval_trace_poly(g, ctx, subs).is_zero()
        checked += 1


def test_cyclic_equalities_evaluate_to_zero(rng):
    # [s,t] telescopes over rotations; both equalities vanish identically
    algebra = GrassAlgebra(CoeffRing(ZZ))
    for n_letters in (2, 3, 4):
        s_letters = list(range(1, n_letters))
        t_letter = n_letters
        lhs = word(*s_letters).commutator(word(t_letter))
        acc = TracePoly.zero(ZZr)
        for k in range(len(s_letters)):
            rot = s_letters[k + 1 :] + [t_letter] + s_letters[:k]
            acc = acc + word(s_letters[k]).commutator(word(*rot))
        diff = lhs - acc
        full = TracePoly.zero(ZZr)
        cyc = s_letters + [t_letter]
        for k in range(len(cyc)):
            rot = cyc[k + 1 :] + cyc[:k]
            full = full + word(cyc[k]).commutator(word(*rot))
        for f in (diff, full):
            assert f.is_zero() or is_trace_identity(f)
            ctx = SuperTraceContext(2, algebra)
            subs = [_random_matrix(rng, ctx, algebra) for _ in range(n_letters)]
            assert eval_trace_poly(f, ctx, subs).is_zero()


# -- witness search ------------------------------------------------------------


def test_witness_for_noncommutativity():
    f = x(1) * x(2) - x(2) * x(1)
    w = witness_search(f, max_n=2, seed=3)
    assert w is not None
    algebra = GrassAlgebra(CoeffRing(ZZ))
    ctx = SuperTraceContext(w.size, algebra)
    assert not eval_trace_poly(f, ctx, w.matrices(ctx)).is_zero()


def test_witness_for_noncentral_trace():
    f = x(1).trace() * x(2) - x(2) * x(1).trace()
    w = witness_search(f, max_n=3, seed=3)
    assert w is not None
    algebra = GrassAlgebra(CoeffRing(ZZ))
    ctx = SuperTraceContext(w.size, algebra)
    assert not eval_trace_poly(f, ctx, w.matrices(ctx)).is_zero()


def test_witness_search_random_nonidentities(rng, capsys):
    # completeness spot checks: a bounded search should usually separate
    # non-identities; misses are reported for review, not asserted
    found, misses = 0, []
    tried = 0
    while tried < 10:
        f = _random_trace_poly(rng, rng.randint(2, 3))
        try:
            if is_trace_identity(f):
                continue
        except TraceArgumentError:
            continue
        tried += 1
        w = witness_search(f, max_n=3, seed=11)
        if w is None:
            misses.append(f.render())
            continue
        algebra = GrassAlgebra(CoeffRing(ZZ))
        ctx = SuperTraceContext(w.size, algebra)
        assert not eval_trace_poly(f, ctx, w.matrices(ctx)).is_zero()
        found += 1
    if misses:
        with capsys.disabled():
            for text in misses:
                print(f"witness search missed (size <= 3): {text}")
    assert found >= 1  # the search machinery itself works


def test_render_roundtrip_shape():
    f = x(1) * word(2, 3).trace() - x(1).trace() * x(2) * x(3)
    text = f.render()
    assert "Tr(x2*x3)" in text and "x1" in text


def test_letter_then_trace_is_already_standard():
    # the ordered two-atom product x1*Tr(x2) needs no correction
    f = x(1) * x(2).trace()
    sf = trace_normalize(f)
    assert sf.items == {StandardTerm((1,), ((2,),), (), (), ()): 1}


def test_identity_decision_char2():
    from epsgrass import GF

    ring = GF(2)
    for f in axiom_polys(ring) + derived_polys(ring):
        assert is_trace_identity(f)
    x1 = TracePoly.letter(ring, 1)
    x2 = TracePoly.letter(ring, 2)
    # x1*x2 + x2*x1 is the commutator mod 2; still not an identity
    assert not is_trace_identity(x1 * x2 + x2 * x1)


def test_identity_decision_composite_modulus():
    # the integer transforms base-change to rings with zero divisors
    from epsgrass import ModRing

    ring = ModRing(4)
    for f in axiom_polys(ring) + derived_polys(ring):
        assert is_trace_identity(f)
    x1 = TracePoly.letter(ring, 1)
    x2 = TracePoly.letter(ring, 2)
    two_comm = (x1 * x2 - x2 * x1).scale(ring.from_int(2))
    # 2[x1,x2] is still not an identity over Z/4
    assert not is_trace_identity(two_comm)


def model_terms(value):
    """The flat model value as {mono: {(t, eps): c}}."""
    out: dict = {}
    for (mono, mask), c in value.items():
        out.setdefault(mono, {})[monomial_key(mask)] = c
    return out


def nests(term) -> bool:
    """True if a trace of the term holds a trace in its argument."""
    return any(
        not isinstance(atom, int) and any(not isinstance(a, int) for a in atom[1])
        for atom in term
    )


def test_model_eval_matches_stepwise_oracle_on_block_candidates():
    # every candidate of the blocks with at most 4 letters, over Z; the
    # nested monomials all nest a trace in a trace
    checked = 0
    for outer, parts in all_blocks(4):
        candidates = list(supertrace.enumerate_block_basis(outer, parts))
        nested = supertrace.enumerate_nested_monomials(outer, parts)
        assert all(nests(m.term) for m in nested), (outer, parts)
        for cand in candidates + nested:
            f = cand.to_trace_poly(ZZr)
            got = model_terms(supertrace.model_eval(f))
            assert got == model_value(f.terms), cand.render()
            checked += 1
    assert checked == 777


def test_nested_monomials_match_the_full_parent_map_walk():
    # forests hung only on parts of 2 or more letters give the same
    # candidates, in the same order, as the walk over all parent maps
    def terms(outer, parts):
        return [m.term for m in supertrace.enumerate_nested_monomials(outer, parts)]

    total = 0
    for outer, parts in all_blocks(5):
        got = terms(outer, parts)
        assert got == nested_monomials(outer, parts), (outer, parts)
        total += len(got)
    assert total == 5358
    host_and_five = frozenset([frozenset({1, 2})] + [frozenset({i}) for i in range(3, 8)])
    got = terms(frozenset(), host_and_five)
    assert len(got) == 3600 and got == nested_monomials(frozenset(), host_and_five)
    singles = frozenset(frozenset({i}) for i in range(1, 8))
    assert terms(frozenset(), singles) == []


@pytest.mark.parametrize("ring", [ModRing(4), ModRing(6), QQ], ids=["Z4", "Z6", "Q"])
def test_model_eval_matches_stepwise_oracle_on_random_polys(ring, rng):
    raised = 0
    for _ in range(150):
        f = _random_trace_poly(rng, rng.randint(1, 5))
        terms = {}
        for term, c in f.terms.items():
            scale = Fraction(rng.randint(1, 5), rng.randint(1, 4)) if ring is QQ else 1
            terms[term] = ring.from_int(c) * scale
        f = TracePoly(ring, terms)
        try:
            want = model_value(terms)
        except ValueError:
            with pytest.raises(TraceArgumentError):
                supertrace.model_eval(f)
            raised += 1
            continue
        if ring is not QQ:
            want = {mono: reduce(p, ring.m) for mono, p in want.items()}
            want = {mono: p for mono, p in want.items() if p}
        assert model_terms(supertrace.model_eval(f)) == want, f.render()
    assert 0 < raised < 150


def test_model_eval_rotates_repeated_letters_as_a_multiset(rng):
    # moving a letter past the rest of a trace argument passes every other
    # copy of a repeated letter: Tr(x2*x1*x1) rotates x2 past x1 twice,
    # which costs exp(2*eps1*eps2) = 1
    for f in (word(2, 1, 1).trace(), word(2, 1, 2, 3).trace()):
        assert model_terms(supertrace.model_eval(f)) == model_value(f.terms)
    assert model_terms(supertrace.model_eval(word(2, 1, 1).trace())) == {
        ((), ((1, 1, 2),)): {(0, ()): 1}
    }
    for _ in range(200):
        letters = tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 7)))
        cut = rng.randint(0, len(letters) - 2)
        arg = letters[cut:]
        if len(arg) >= 3 and rng.random() < 0.5:
            arg = (arg[0], ("F", arg[1:-1]), arg[-1])
        terms = {letters[:cut] + (("F", arg),): rng.choice([-3, -1, 1, 2])}
        want = model_value(terms)
        got = supertrace.model_eval(TracePoly(ZZr, terms))
        assert model_terms(got) == want, terms
        reduced = {key: ModRing(4).from_int(c) for key, c in terms.items()}
        got = supertrace.model_eval(TracePoly(ModRing(4), reduced))
        want = {mono: reduce(p, 4) for mono, p in want.items()}
        assert model_terms(got) == {mono: p for mono, p in want.items() if p}, terms


def test_block_basis_is_the_rational_choice():
    # the unit-pivot elimination keeps exactly the candidates whose model
    # values leave the rational span of the earlier ones
    blocks = list(all_blocks(4))
    assert len(blocks) == 74
    for outer, parts in blocks:
        candidates = list(supertrace.enumerate_block_basis(outer, parts))
        candidates.extend(supertrace.enumerate_nested_monomials(outer, parts))
        columns: dict = {}
        vectors = []
        for cand in candidates:
            value = supertrace.model_eval(cand.to_trace_poly(ZZr))
            vectors.append({columns.setdefault(key, len(columns)): c for key, c in value.items()})
        dense = [[vec.get(j, 0) for j in range(len(columns))] for vec in vectors]
        chosen = [candidates[k] for k in rational_choice(dense)]
        assert supertrace._block_solver(outer, parts)[0] == chosen, (outer, parts)


def block_candidates(outer, parts) -> list:
    candidates = list(supertrace.enumerate_block_basis(outer, parts))
    return candidates + supertrace.enumerate_nested_monomials(outer, parts)


def column_keys(columns: dict, n: int) -> list:
    """The ((w0, traces), eps mask) of each of the n columns of a nested
    column map {(w0, traces): {eps mask: column}}, in column order."""
    keys: list = [None] * n
    for mono, cols in columns.items():
        for m, j in cols.items():
            assert keys[j] is None, (mono, m)
            keys[j] = mono, m
    assert None not in keys
    return keys


def test_certifier_vectors_match_one_model_eval_per_candidate():
    # the certifier evaluates a block's candidates in one pass, each
    # distinct exp expanded once and the columns numbered as they come;
    # every candidate's vector, keyed back by (monomial, mask), is the
    # model_eval of its product-built polynomial.  About 1.3 s.
    blocks = list(all_blocks(5))
    assert len(blocks) == 277
    checked = 0
    for outer, parts in blocks:
        candidates = block_candidates(outer, parts)
        columns, n, vectors = supertrace._candidate_vectors(candidates)
        keys = column_keys(columns, n)
        assert len(vectors) == len(candidates)
        for cand, vec, want in zip(candidates, vectors, candidate_values(candidates)):
            assert all(vec.values()), cand.render()
            assert {keys[j]: c for j, c in vec.items()} == want, cand.render()
            checked += 1
    assert checked == 10603


def test_structured_values_match_the_word_by_word_oracle():
    # a structured candidate's value, from one model monomial and one
    # pair list per swapped commutator, equals the sum over its signed
    # words, each word evaluated on its own with the rotation scan: the
    # same vectors and the same column numbering, on every block of at
    # most 5 letters and on one block of each shape on 6 letters.
    # About 1.6 s.
    blocks = list(all_blocks(5)) + list(block_shapes(6).values())
    assert len(blocks) == 277 + 30
    structured = 0
    for outer, parts in blocks:
        candidates = block_candidates(outer, parts)
        columns, n, vectors = supertrace._candidate_vectors(candidates)
        want_columns, want_vectors = word_by_word_vectors(candidates)
        assert column_keys(columns, n) == list(want_columns), (outer, parts)
        assert vectors == want_vectors, (outer, parts)
        structured += sum(isinstance(c, StandardTerm) for c in candidates)
    assert structured == 5245 + 4040


def test_value_outside_the_block_columns_raises_internal_error(monkeypatch):
    # a model value on a monomial, or on a mask of a known monomial, that
    # no candidate of its block reaches is a certificate failure
    monkeypatch.setattr(supertrace, "_BLOCK_CACHE", {})
    _, columns, _ = supertrace._block_solver(frozenset({1, 2}), frozenset())
    assert trace_normalize(word(2, 1)).items
    del columns[((2, 1), ())]
    with pytest.raises(InternalError, match="outside the span of the standard basis"):
        trace_normalize(word(2, 1))
    _, columns, _ = supertrace._block_solver(frozenset(), frozenset({frozenset({1, 2})}))
    value = supertrace.model_eval(word(2, 1).trace())
    assert [m for _, m in value] == [0, 0b110]
    del columns[((), ((1, 2),))][0b110]
    with pytest.raises(InternalError, match="outside the span of the standard basis"):
        trace_normalize(word(2, 1).trace())


def test_canonical_rotation_matches_the_scan(rng):
    # every word charges pairs(head, rest) at once, whether its letters
    # are distinct or one repeats: it gives the scan's rotated word and
    # the same odd factors as rotating one letter at a time.
    cases = [(1,), (3, 1, 2), (2, 1, 1), (1, 2, 1, 2), (2, 1, 2, 1)]
    for _ in range(400):
        k = rng.randint(1, 8)
        if rng.random() < 0.5:
            cases.append(tuple(rng.sample(range(1, 12), k)))
        else:
            cases.append(tuple(rng.randint(1, 3) for _ in range(k)))
    repeated = 0
    for word in cases:
        got_pairs: list = []
        want_pairs: list = []
        got = supertrace._canonical_rotation(word, got_pairs)
        assert got == scan_rotation(word, want_pairs), word
        assert _odd_factors(got_pairs) == _odd_factors(want_pairs), word
        repeated += len(set(word)) < len(word)
    assert 150 < repeated < len(cases) - 150


def test_signed_words_equal_the_product_expansion():
    # StandardTerm.words gives the terms of the product of its factors,
    # with the same coefficients and in the same order, on every
    # structured candidate of the blocks with at most 6 letters.  About
    # 2.7 s.
    checked = 0
    for outer, parts in all_blocks(6):
        for cand in supertrace.enumerate_block_basis(outer, parts):
            want = product_trace_poly(cand, ZZr).terms
            assert list(cand.words().items()) == list(want.items()), cand.render()
            assert cand.to_trace_poly(ZZr) == TracePoly(ZZr, want)
            checked += 1
    assert checked == 54977
