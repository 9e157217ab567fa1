import copy
import os
import pickle
import random
import subprocess
import sys
import textwrap
from bisect import bisect
from itertools import permutations

import pytest

from epsgrass import GF, QQ, ZZ, CoeffRing, GrassAlgebra, GrassElem, ModRing, comodule, esgn
from epsgrass import cli, epsilon, grassmann
from epsgrass.comodule import (
    MAX_COMODULE_ARITY,
    InternalError,
    MultilinearPoly,
    SpanningTerm,
    comodule_rank,
    evaluate,
    freeness_certificate,
    grassmann_normal_form,
    is_identity,
    matrix_dump,
    psi,
    sign_matrix_int,
    spanning_terms,
    unit_words,
)
from epsgrass.epsilon import EpsPoly, all_monomials, monomial_key
from epsgrass.linalg import SmithSolver
from epsgrass.terms import TracePoly

from conftest import keyed, random_perm, sign_act, sn_act_poly, zz_algebra
from rank_oracle import fraction_rank
from smith_oracle import smith_full_scan


A = zz_algebra()
C = A.coeff


def xvar(i, ring=ZZ):
    return TracePoly.letter(ring, i)


def to_ml(p, n):
    return MultilinearPoly.from_word_poly(p, n)


def grassmann_poly(ring=ZZ):
    # [x1, [x2, x3]]
    return to_ml(xvar(1, ring).commutator(xvar(2, ring).commutator(xvar(3, ring))), 3)


def test_evaluate_examples():
    f = to_ml(xvar(1) * xvar(2), 2)
    assert evaluate(f, [A.gen(1), A.gen(2)]) == A.gen(1) * A.gen(2)
    g = to_ml(xvar(1) * xvar(2) - xvar(2) * xvar(1), 2)
    expected = (A.gen(1) * A.gen(2)).scale_coeff(C.eps(1) * C.eps(2))
    assert evaluate(g, [A.gen(1), A.gen(2)]) == expected
    assert evaluate(grassmann_poly(), [A.gen(i) for i in (1, 2, 3)]).is_zero()


def test_evaluate_arity_mismatch():
    f = to_ml(xvar(1) * xvar(2), 2)
    with pytest.raises(ValueError):
        evaluate(f, [A.gen(1)])


def test_is_identity_examples():
    assert is_identity(grassmann_poly())
    assert not is_identity(to_ml(xvar(1) * xvar(2) - xvar(2) * xvar(1), 2))
    assert not is_identity(to_ml(xvar(1), 1))


def test_non_multilinear_rejected():
    with pytest.raises(ValueError):
        to_ml(xvar(1) * xvar(1), 1)
    with pytest.raises(ValueError):
        to_ml(xvar(1), 2)


def test_sn_action():
    f = to_ml(xvar(1) * xvar(2), 2)
    assert sn_act_poly((1, 2), f) == f
    assert sn_act_poly((2, 1), f) == to_ml(xvar(2) * xvar(1), 2)
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(2, 5)
        key = random_perm(rng, n)
        g = MultilinearPoly.monomial(n, ZZ, key)
        p, r = random_perm(rng, n), random_perm(rng, n)
        pr = tuple(p[r[i] - 1] for i in range(n))
        assert sn_act_poly(pr, g) == sn_act_poly(p, sn_act_poly(r, g))


def test_psi_examples():
    n = 4
    f = MultilinearPoly.monomial(n, ZZ, tuple(range(1, n + 1)))
    assert psi(f) == CoeffRing(ZZ).one()
    g = to_ml(xvar(2) * xvar(1), 2)
    cz = CoeffRing(ZZ)
    assert psi(g) == cz.one() - cz.eps(1) * cz.eps(2)


def test_psi_equivariance(rng):
    for _ in range(50):
        n = rng.randint(2, 6)
        f = MultilinearPoly.monomial(n, ZZ, random_perm(rng, n))
        g = MultilinearPoly.monomial(n, ZZ, random_perm(rng, n), 2)
        h = f + g if random_perm(rng, 2) == (1, 2) else f - g
        if h.is_zero():
            continue
        pi = random_perm(rng, n)
        assert psi(sn_act_poly(pi, h)) == sign_act(pi, psi(h))


def test_sign_act_examples():
    cz = CoeffRing(ZZ)
    lam = cz.one()
    assert sign_act((1, 2), lam) == lam
    assert sign_act((2, 1), lam) == cz.one() - cz.eps(1) * cz.eps(2)


def test_sign_act_is_group_action(rng):
    cz = CoeffRing(ZZ)
    for _ in range(40):
        n = rng.randint(2, 5)
        lam = esgn(cz, unit_words(n), random_perm(rng, n))
        s, t = random_perm(rng, n), random_perm(rng, n)
        st = tuple(s[t[i] - 1] for i in range(n))
        assert sign_act(st, lam) == sign_act(s, sign_act(t, lam))


def test_sign_act_is_an_action_on_every_monomial():
    # the generator certificate of comodule_rank rests on this law
    cz = CoeffRing(ZZ)
    for n in range(1, 5):
        perms = list(permutations(range(1, n + 1)))
        basis = [cz.monomial(t, eps) for t, eps in all_monomials(range(1, n + 1))]
        image = {(s, i): sign_act(s, m) for s in perms for i, m in enumerate(basis)}
        for s in perms:
            for t in perms:
                st = tuple(s[t[i] - 1] for i in range(n))
                for i in range(len(basis)):
                    assert image[st, i] == sign_act(s, image[t, i]), (s, t, i)
        for k in range(1, n):
            s_k = tuple(range(1, k)) + (k + 1, k) + tuple(range(k + 2, n + 1))
            for i, m in enumerate(basis):
                assert sign_act(s_k, image[s_k, i]) == m


@pytest.mark.parametrize(
    "ring", [ZZ, QQ, ModRing(4), ModRing(6), GF(3)], ids=["Z", "Q", "Z4", "Z6", "F3"]
)
def test_is_identity_agrees_with_evaluation(rng, ring):
    # is_identity reads psi(f); the oracle multiplies out f(e_1, ..., e_n)
    # in the algebra, which equals psi(f) * e_1...e_n
    algebra = GrassAlgebra(CoeffRing(ring))
    for _ in range(60):
        n = rng.randint(2, 4)
        p = TracePoly.const(ring, ring.zero())
        for _ in range(rng.randint(1, 3)):
            mono = TracePoly.const(ring, ring.from_int(rng.choice([-2, -1, 1, 2])))
            for i in random_perm(rng, n):
                mono = mono * xvar(i, ring)
            p = p + mono
        if not p.terms:
            continue
        f = to_ml(p, n)
        gens = [algebra.gen(i) for i in range(1, n + 1)]
        value = evaluate(f, gens)
        assert is_identity(f) == value.is_zero()
        word = algebra.one()
        for g in gens:
            word = word * g
        assert value == word.scale_coeff(psi(f))


def test_identity_tests_make_no_esgn_call_and_no_product(monkeypatch):
    f = to_ml(xvar(3) * xvar(1) * xvar(2) - (xvar(2) * xvar(3) * xvar(1)).scale(2), 3)
    coords = grassmann_normal_form(f)  # builds and caches the spanning rows

    def forbidden(*args):
        raise AssertionError("esgn or a GrassElem product was called")

    monkeypatch.setattr(comodule, "esgn", forbidden)
    monkeypatch.setattr(grassmann, "esgn", forbidden)
    monkeypatch.setattr(epsilon, "exp_map", forbidden)
    monkeypatch.setattr(GrassElem, "__mul__", forbidden)
    assert not is_identity(f)
    assert is_identity(grassmann_poly())
    assert psi(grassmann_poly()).is_zero()
    assert grassmann_normal_form(f) == coords


@pytest.mark.parametrize(
    "ring",
    [ZZ, QQ, GF(2), GF(3), ModRing(4), ModRing(6)],
    ids=["Z", "Q", "F2", "F3", "Z4", "Z6"],
)
def test_comodule_rank_small(ring):
    for n in range(1, 6):
        assert comodule_rank(n, ring) == 2 ** (n - 1)


def test_comodule_rank_guard():
    assert MAX_COMODULE_ARITY == 15
    with pytest.raises(ValueError):
        comodule_rank(16, ZZ)
    with pytest.raises(ValueError):
        comodule_rank(0, ZZ)


def test_comodule_rank_at_arity_8():
    assert comodule_rank(8, ZZ) == 128


@pytest.mark.parametrize("n", range(1, 7))
def test_comodule_rank_matches_elimination_oracles(n):
    # the whole sign table has Smith diagonal 2^(n-1) ones, then zeros
    rows = sign_matrix_int(n)[2]
    r = 2 ** (n - 1)
    diag, _, _ = smith_full_scan(rows)
    assert diag == [1] * r + [0] * (len(diag) - r)
    assert comodule_rank(n, ZZ) == r
    if n <= 5:
        assert fraction_rank(rows) == r


def spanning_rows(n: int) -> dict:
    """The spanning rows B as {pivot: EpsPoly}, read off the echelon of
    the solver that ``_spanning_rows`` keeps."""
    cz = CoeffRing(ZZ)
    return {p: EpsPoly(cz, r) for p, r, _ in comodule._spanning_rows(n)[1].echelon}


def reduce_by_scan(rows: dict, p: EpsPoly) -> tuple[dict, dict]:
    """The reduction against B by walking every pivot eps_T in order of
    |T|, then T: (coordinates by pivot, residual)."""
    left = dict(p.terms)
    coords = {}
    for pivot in sorted(rows, key=lambda m: (m.bit_count(), monomial_key(m))):
        c = left.pop(pivot, 0)
        if c:
            coords[pivot] = c
            for key, v in rows[pivot].terms.items():
                if key != pivot:
                    left[key] = left.get(key, 0) - c * v
    return coords, {key: c for key, c in left.items() if c}


def test_reduce_matches_a_scan_of_every_pivot():
    # in and out of the span of B: integer combinations of its rows plus,
    # half the time, a random monomial
    rng = random.Random(37)
    cz = CoeffRing(ZZ)
    for n in range(1, 8):
        terms, solver = comodule._spanning_rows(n)
        rows = spanning_rows(n)
        # the solver keeps every row of B as it is, with pivot eps_T: the
        # closed form of each term's row, in the order of the terms
        assert solver.kept == list(range(len(terms)))
        assert [(p, r) for p, r, _ in solver.echelon] == [
            (sum(1 << t for t in term.tail), term.sign_image(cz).terms) for term in terms
        ]
        assert all(w is None for _, _, w in solver.echelon)
        keys = list(rows)
        for _ in range(30):
            p = cz.zero()
            for key in rng.sample(keys, rng.randint(0, min(6, len(keys)))):
                p = p + rows[key].scale(rng.choice((-3, -1, 1, 2)))
            if rng.random() < 0.5:
                p = p + cz.monomial(rng.randint(0, 1), rng.sample(range(1, n + 1), rng.randint(0, n)), 5)
            left, steps = solver.reduce(p.terms)
            coords = {solver.echelon[i][0]: q for i, q in steps}
            assert (coords, left) == reduce_by_scan(rows, p)


@pytest.mark.parametrize("n", range(1, 7))
def test_whole_table_checks_still_hold(n):
    # the table certificate the generator certificate replaced: every sign
    # row S reduces to zero against the spanning rows B, and B = T*S
    perms, cols, sign_rows = sign_matrix_int(n)
    terms, solver = comodule._spanning_rows(n)
    rows = spanning_rows(n)
    cz = CoeffRing(ZZ)
    for row in sign_rows:
        sign = sum((cz.monomial(*cols[j], v) for j, v in enumerate(row) if v), cz.zero())
        assert solver.reduce(sign.terms)[0] == {}
    table = dict(zip(perms, sign_rows))
    for term, poly in zip(terms, rows.values()):
        combo = [0] * len(cols)
        for perm, c in term.to_poly(ZZ).coeffs.items():
            combo = [x + c * v for x, v in zip(combo, table[perm])]
        assert {cols[j]: v for j, v in enumerate(combo) if v} == keyed(poly), term.render()


def test_spanning_rows_closed_form_equals_psi():
    # over Z, Q and Z/4, and over Z/2 in the theta = 0 quotient, where
    # psi's theta monomials vanish
    for ring, theta_zero in ((ZZ, False), (QQ, False), (ModRing(4), False), (GF(2), True)):
        coeff = CoeffRing(ring, theta_zero)
        for n in range(1, 10):
            for term in spanning_terms(n):
                want = psi(term.to_poly(ring)).terms
                if theta_zero:
                    want = {m: c for m, c in want.items() if not m & 1}
                assert term.sign_image(coeff).terms == want, (ring, term.render())


def test_spanning_rows_nonzeros_are_fibonacci():
    # observed, not proved: B has F(2n-1) nonzero entries (F(1) = F(2) = 1)
    cz = CoeffRing(ZZ)
    fib = [0, 1]
    while len(fib) < 2 * MAX_COMODULE_ARITY:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, MAX_COMODULE_ARITY + 1):
        nonzeros = sum(len(t.sign_image(cz).terms) for t in spanning_terms(n))
        assert nonzeros == fib[2 * n - 1], n


def test_rank_and_normal_form_never_read_the_sign_table(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the sign table or esgn was read")

    f = to_ml(xvar(3) * xvar(1) * xvar(2) - (xvar(2) * xvar(3) * xvar(1)).scale(2), 3)
    expected = grassmann_normal_form(f)
    monkeypatch.setattr(comodule, "sign_matrix_int", forbidden)
    monkeypatch.setattr(comodule, "esgn", forbidden)
    monkeypatch.setattr(comodule, "_ROWS_CACHE", {})
    monkeypatch.setattr(comodule, "_RANK_CACHE", {})
    for n in range(1, 7):
        assert comodule_rank(n, ZZ) == 2 ** (n - 1)
    assert grassmann_normal_form(f) == expected


def rank_on_spanning_rows(monkeypatch, n, polys):
    """comodule_rank(n) certified afresh with the spanning rows B, in the
    order of ``spanning_terms(n)``, replaced by the given C[eps]
    polynomials (a corrupted ``SpanningTerm.sign_image``)."""
    images = dict(zip(spanning_terms(n), polys))
    monkeypatch.setattr(SpanningTerm, "sign_image", lambda term, coeff: images[term])
    monkeypatch.setattr(comodule, "_ROWS_CACHE", {})
    monkeypatch.setattr(comodule, "_RANK_CACHE", {})
    return comodule_rank(n, ZZ)


def test_comodule_rank_rejects_rows_not_unitriangular(monkeypatch):
    # the tie of check (a): a row that is not the closed form of its
    # descriptor (T, Q) never reaches the solver
    cz = CoeffRing(ZZ)
    rows3 = list(spanning_rows(3).values())  # before any patch
    e12 = cz.eps(1) * cz.eps(2)
    for rows in (
        [cz.one(), e12.scale_int(2)],  # pivot 2
        [cz.one(), e12 + cz.one()],  # eps_() is not a superset of {1, 2}
        [cz.one(), cz.theta()],  # no pivot at eps1*eps2
    ):
        with pytest.raises(InternalError, match=r"arity 2 is not certified free: the row of \[x1,x2\] is not its"):
            rank_on_spanning_rows(monkeypatch, 2, rows)
    # eps3 on the row of eps1*eps2: {3} and {1, 2} are not nested
    rows3[1] = rows3[1] + cz.eps(3)
    with pytest.raises(InternalError, match=r"row of x3\*\[x1,x2\] is not its closed form"):
        rank_on_spanning_rows(monkeypatch, 3, rows3)
    monkeypatch.undo()
    assert comodule_rank(2, ZZ) == 2  # the real spanning rows still certify


def test_comodule_rank_rejects_rows_without_a_unit_pivot(monkeypatch):
    # rows that reach the solver past the tie: the row of x3*x4*[x1,x2]
    # picks theta as its pivot, and clearing it from the row of
    # [x1,x2]*[x3,x4] leaves -3*eps1*eps2*eps3*eps4 - 2*eps1*eps2, with no
    # +-1 entry
    cz = CoeffRing(ZZ)
    rows = [r.terms for r in spanning_rows(4).values()]  # before any patch
    e12, e1234 = cz.eps(1) * cz.eps(2), cz.eps(1) * cz.eps(2) * cz.eps(3) * cz.eps(4)
    rows[1] = (e12 + cz.theta() + e1234.scale_int(2)).terms
    rows[7] = (e1234 + cz.theta().scale_int(2)).terms
    monkeypatch.setattr(comodule, "SmithSolver", lambda _, ncols: SmithSolver(rows, ncols))
    monkeypatch.setattr(comodule, "_ROWS_CACHE", {})
    monkeypatch.setattr(comodule, "_RANK_CACHE", {})
    with pytest.raises(InternalError, match="arity 4 is not certified free: row 7"):
        comodule_rank(4, ZZ)


def adjacent(n: int, k: int) -> tuple:
    """s_k = (k k+1) as the image tuple of a permutation of 1..n."""
    return tuple(range(1, k)) + (k + 1, k) + tuple(range(k + 2, n + 1))


def first_unstable_generator(n: int):
    """Check (b') by reduction, the oracle of the check on descriptors, on
    the rows B that ``SpanningTerm.sign_image`` gives, corrupted or not:
    0 if 1 leaves span(B), else the first k such that s_k (``sign_act``)
    moves a row of B out of span(B) (``SmithSolver.reduce`` leaves a
    residual), else None."""
    cz = CoeffRing(ZZ)
    rows = [term.sign_image(cz).terms for term in spanning_terms(n)]
    solver = SmithSolver(rows, 2 << n)
    if solver.reduce({0: 1})[0]:
        return 0
    for k in range(1, n):
        for row in rows:
            if solver.reduce(sign_act(adjacent(n, k), EpsPoly(cz, row)).terms)[0]:
                return k
    return None


def test_comodule_rank_rejects_span_not_stable(monkeypatch):
    # [1, eps1*eps2 + theta] is unitriangular and holds 1, but
    # s_1(1) = 1 - eps1*eps2 reduces to theta, outside its span; the tie
    # rejects its second row
    cz = CoeffRing(ZZ)
    e = {(i, j): cz.eps(i) * cz.eps(j) for i, j in ((1, 2), (1, 3), (2, 3))}
    with pytest.raises(InternalError, match=r"the row of \[x1,x2\] is not its closed form"):
        rank_on_spanning_rows(monkeypatch, 2, [cz.one(), e[1, 2] + cz.theta()])
    assert first_unstable_generator(2) == 1
    # the extra theta*eps2 and theta*eps1 on the rows of eps1*eps3 and
    # eps2*eps3 swap under s_1, so the span stays stable under it, but not
    # under s_2: the reduction finds the last generator, and the tie the
    # first changed row
    rows = [
        cz.one(),
        e[1, 2],
        e[1, 3] - cz.theta() * cz.eps(1) * e[2, 3] + cz.theta() * cz.eps(2),
        e[2, 3] + cz.theta() * cz.eps(1),
    ]
    with pytest.raises(InternalError, match=r"the row of x2\*\[x1,x3\] is not its closed form"):
        rank_on_spanning_rows(monkeypatch, 3, rows)
    assert first_unstable_generator(3) == 2
    monkeypatch.undo()
    assert comodule_rank(2, ZZ) == 2  # the real spanning rows still certify
    assert comodule_rank(3, ZZ) == 4


def even_parity(term) -> list:
    """Q read with the wrong parity everywhere: the prefix letters above
    an even number of tail letters."""
    return [p for p in term.prefix if not bisect(term.tail, p) & 1]


def test_comodule_rank_rejects_span_missing_one(monkeypatch):
    cz = CoeffRing(ZZ)
    rows = [cz.one() + cz.theta(), cz.eps(1) * cz.eps(2)]
    with pytest.raises(InternalError, match=r"the row of x1\*x2 is not its closed form"):
        rank_on_spanning_rows(monkeypatch, 2, rows)
    assert first_unstable_generator(2) == 0
    monkeypatch.undo()
    # a Q wrong in the rows and in their descriptors alike passes the tie,
    # and check (b') too: B times the S_n-invariant unit prod_p (1 -
    # theta*eps_p) is as stable as B.  Only the row of the empty tail
    # shows it
    monkeypatch.setattr(comodule, "_odd_letters", even_parity)
    monkeypatch.setattr(comodule, "_ROWS_CACHE", {})
    monkeypatch.setattr(comodule, "_RANK_CACHE", {})
    with pytest.raises(InternalError, match=r"the row of x1\*x2\*x3 is not 1"):
        comodule_rank(3, ZZ)
    comodule._spanning_rows(3)[1].echelon[0] = (0, {0: 1}, None)
    assert comodule_rank(3, ZZ) == 4


def test_rows_pivoting_off_eps_t_raise_internal_error(monkeypatch):
    # the row of [x1,x2] has theta as its first unit entry, so the solver
    # would pivot it off eps1*eps2: the tie rejects it before the solver
    # is built, so it raises InternalError, and the CLI exits 4, never
    # with a KeyError
    cz = CoeffRing(ZZ)
    rows = [cz.one(), cz.eps(1) * cz.eps(2) + cz.theta()]
    with pytest.raises(InternalError, match=r"the row of \[x1,x2\] is not its closed form"):
        rank_on_spanning_rows(monkeypatch, 2, rows)
    assert 2 not in comodule._ROWS_CACHE
    assert cli.main(["comodule", "--n", "2"]) == 4


def test_freeness_certificate_counts_the_rows(monkeypatch):
    # a spanning set one row short of 2^(n-1) is not certified free
    terms, solver = comodule._spanning_rows(3)
    monkeypatch.setattr(comodule, "_ROWS_CACHE", {3: (terms[:-1], solver)})
    with pytest.raises(InternalError, match="^spanning set at arity 3 is not certified free$"):
        freeness_certificate(3)


def test_normal_form_checks_its_solve_and_its_residual(monkeypatch):
    # a sign image off the span of B (theta alone is no monomial of a
    # row), then spanning words of the wrong sign, whose residual is 2f
    f = MultilinearPoly.monomial(3, ZZ, (2, 1, 3))
    theta = CoeffRing(ZZ).theta()
    with monkeypatch.context() as patch:
        patch.setattr(comodule, "psi", lambda g: psi(g) + theta)
        with pytest.raises(InternalError, match="^sign image not in the span of the spanning set$"):
            grassmann_normal_form(f)
    words = SpanningTerm.words.func
    flipped = property(lambda term: {w: -v for w, v in words(term).items()})
    monkeypatch.setattr(SpanningTerm, "words", flipped)
    with pytest.raises(InternalError, match="^normal-form residual is not an identity$"):
        grassmann_normal_form(f)


def flipped_rule(k, tail, rule=comodule._adjacent_rule):
    """``_adjacent_rule`` with one case of the wrong sign: s_k*b_T = b_T
    when k and k+1 are both in T."""
    pair = 3 << k
    return ((tail, 1),) if tail & pair == pair else rule(k, tail)


def late_parity(term) -> list:
    """Q read with the wrong parity on some letters: that of the tail
    letters up to p + 1, not below p.  The row of the empty tail is still
    1."""
    return [p for p in term.prefix if bisect(term.tail, p + 1) & 1]


def test_comodule_rank_rejects_a_wrong_local_rule(monkeypatch):
    # the check on descriptors against one broken case of the rule, and
    # against Q of the wrong parity in the rows and their descriptors
    # alike, so that the tie passes
    monkeypatch.setattr(comodule, "_RANK_CACHE", {})
    with monkeypatch.context() as patch:
        patch.setattr(comodule, "_adjacent_rule", flipped_rule)
        with pytest.raises(InternalError, match=r"s_1 moves the row of x3\*\[x1,x2\] off its closed form"):
            comodule_rank(3, ZZ)
    # s_2 sends the row of the empty tail to it minus the row of {2, 3},
    # whose Q is {1}, not the empty tail's
    monkeypatch.setattr(comodule, "_odd_letters", late_parity)
    monkeypatch.setattr(comodule, "_ROWS_CACHE", {})
    with pytest.raises(InternalError, match=r"s_2 moves the row of x1\*x2\*x3 off its closed form"):
        comodule_rank(3, ZZ)
    assert first_unstable_generator(3) == 2


def test_comodule_rank_rejects_a_wrong_twist(monkeypatch):
    # without its factor esgn(s_k) = 1 - eps_k*eps_(k+1), the local action
    # of s_k is the bare renaming phi, which fixes the row 1
    monkeypatch.setattr(comodule, "exp_map", lambda ring, pairs: ring.one())
    monkeypatch.setattr(comodule, "_RANK_CACHE", {})
    with pytest.raises(InternalError, match=r"s_1 moves the row of x1\*x2\*x3\*x4 off"):
        comodule_rank(4, ZZ)


@pytest.mark.parametrize("n", range(2, 9))
def test_adjacent_act_is_sign_act(n):
    # the factorization behind check (b'), against the generic twisted
    # action on every spanning row and every adjacent transposition: s_k
    # fixes the factor of b_T off {k, k+1} and acts on its factor on
    # {k, k+1} as s_1 acts on the same factor moved to {1, 2}
    cz = CoeffRing(ZZ)
    for term in spanning_terms(n):
        b = term.sign_image(cz)
        tail = sum(1 << t for t in term.tail)
        q = sum(1 << p for p in comodule._odd_letters(term))
        assert not q & tail
        for k in range(1, n):
            off = [p for p in comodule._odd_letters(term) if p not in (k, k + 1)]
            local = [p for p in (1, 2) if q >> k + p - 1 & 1]
            moved = sign_act((2, 1), EpsPoly(cz, comodule._closed_row((tail >> k & 3) << 1, local)))
            image = EpsPoly(cz, comodule._closed_row(tail & ~(3 << k), off))
            image = image * epsilon.phi_sigma({1: k, 2: k + 1}, moved)
            assert sign_act(adjacent(n, k), b) == image, (k, term.render())


def closed_form(k: int, tail: frozenset) -> dict:
    """s_k*b_T as {tail: +-1}, the three cases of the rule stated on sets."""
    pair = frozenset((k, k + 1))
    if pair <= tail:
        return {tail: -1}
    if pair & tail:
        return {tail ^ pair: 1}
    return {tail: 1, tail | pair: -1}


@pytest.mark.parametrize("n", range(1, 11))
def test_every_image_equals_its_closed_form_and_reduces_to_zero(n):
    # check (b') on the rows both ways: each image of a row of B under
    # s_k (``sign_act``) is the signed row, or difference of rows, of the
    # rule, and reduces to zero against B; the library's rule is the one
    # stated here
    terms, solver = comodule._spanning_rows(n)
    cz = CoeffRing(ZZ)
    rows = {frozenset(term.tail): EpsPoly(cz, row) for term, (_, row, _) in zip(terms, solver.echelon)}
    assert rows[frozenset()] == cz.one()
    for k in range(1, n):
        for tail, b in rows.items():
            image = sign_act(adjacent(n, k), b)
            rule = closed_form(k, tail)
            mask = sum(1 << t for t in tail)
            assert comodule._adjacent_rule(k, mask) == tuple(
                (sum(1 << t for t in t2), c) for t2, c in rule.items()
            )
            assert image == sum((rows[t2].scale_int(c) for t2, c in rule.items()), cz.zero()), (k, tail)
            assert solver.reduce(image.terms)[0] == {}
    assert first_unstable_generator(n) is None


def test_q_agrees_off_each_pair_on_seven_local_patterns():
    # the facts that check (b') reads off the descriptors, scanned for
    # n <= 12: every row that the rule names for s_k*b_T has T's Q outside
    # {k, k+1}, and the bits of T and Q on {k, k+1} take 7 of their 16
    # values
    seen = set()
    for n in range(1, 13):
        qs = {
            sum(1 << t for t in term.tail): sum(1 << p for p in comodule._odd_letters(term))
            for term in spanning_terms(n)
        }
        for k in range(1, n):
            pair = 3 << k
            for tail, q in qs.items():
                seen.add((tail >> k & 3, q >> k & 3))
                assert all(not (qs[t] ^ q) & ~pair for t, _ in comodule._adjacent_rule(k, tail))
    # (bits of T, bits of Q), bit 0 for k and bit 1 for k+1: Q holds no
    # letter of T, both letters or neither when neither is in T, and k+1
    # (k) with k (k+1) in T only when the tail letters below k are even (odd)
    assert seen == {(0, 0), (0, 3), (1, 0), (1, 2), (2, 0), (2, 1), (3, 0)}


@pytest.mark.parametrize("n", range(1, 9))
def test_action_on_b_satisfies_the_coxeter_relations(n):
    # the +-1 matrix of each s_k on B in spanning_terms order, from the
    # rule: s_k^2 = 1, (s_k s_(k+1))^3 = 1 and (s_j s_k)^2 = 1 for
    # |j - k| > 1, on every basis vector, so the rule is an action of S_n
    tails = [sum(1 << t for t in term.tail) for term in spanning_terms(n)]
    index = {t: i for i, t in enumerate(tails)}
    matrix = {
        k: [{index[t]: c for t, c in comodule._adjacent_rule(k, tail)} for tail in tails]
        for k in range(1, n)
    }
    assert all(set(row.values()) <= {-1, 1} for m in matrix.values() for row in m)

    def act(word, i):
        vec = {i: 1}
        for k in word:
            out: dict = {}
            for j, c in vec.items():
                for l, v in matrix[k][j].items():
                    out[l] = out.get(l, 0) + c * v
            vec = {j: c for j, c in out.items() if c}
        return vec

    words = [(k, k) for k in range(1, n)]
    words += [(k, k + 1) * 3 for k in range(1, n - 1)]
    words += [(j, k) * 2 for j in range(1, n) for k in range(j + 2, n)]
    for word in words:
        for i in range(len(tails)):
            assert act(word, i) == {i: 1}, (word, i)
    # and the relations are not empty: s_1 moves b_() when n >= 2
    if n >= 2:
        assert act((1,), 0) != {0: 1}


def test_stability_check_survives_optimize():
    # under python -O: every corrupted row and every mutation above exits
    # 4 from the CLI, and raises from comodule_rank
    code = textwrap.dedent(
        """
        from bisect import bisect
        from epsgrass import ZZ, CoeffRing, cli, comodule, linalg
        cz = CoeffRing(ZZ)
        e12, e13, e23 = cz.eps(1) * cz.eps(2), cz.eps(1) * cz.eps(3), cz.eps(2) * cz.eps(3)
        t1, t2 = cz.theta() * cz.eps(1), cz.theta() * cz.eps(2)
        e1234 = e12 * cz.eps(3) * cz.eps(4)
        rows = {}
        sign_image = comodule.SpanningTerm.sign_image
        comodule.SpanningTerm.sign_image = lambda term, coeff: rows.get(term) or sign_image(term, coeff)
        unit = comodule.SmithSolver
        unpivoted = [r for _, r, _ in comodule._spanning_rows(4)[1].echelon]
        unpivoted[1] = (e12 + cz.theta() + e1234.scale_int(2)).terms
        unpivoted[7] = (e1234 + cz.theta().scale_int(2)).terms
        rule = comodule._adjacent_rule
        cases = [
            (2, {}, [cz.one(), e12 * cz.from_int(2)]),
            (2, {}, [cz.one(), e12 + cz.theta()]),
            (2, {}, [cz.one() + cz.theta(), e12]),
            (3, {}, [cz.one(), e12, e13 - t1 * e23 + t2, e23 + t1]),
            (4, {"SmithSolver": lambda _, ncols: unit(unpivoted, ncols)}, []),
            (2, {"_odd_letters": lambda t: [p for p in t.prefix if not bisect(t.tail, p) & 1]}, []),
            (3, {"_adjacent_rule": lambda k, t: ((t, 1),) if t >> k & 3 == 3 else rule(k, t)}, []),
            (3, {"_odd_letters": lambda t: [p for p in t.prefix if bisect(t.tail, p + 1) & 1]}, []),
            (4, {"exp_map": lambda ring, pairs: ring.one()}, []),
        ]
        for n, patches, polys in cases:
            saved = {name: getattr(comodule, name) for name in patches}
            vars(comodule).update(patches)
            rows.clear()
            rows.update(zip(comodule.spanning_terms(n), polys))
            comodule._ROWS_CACHE.clear()
            comodule._RANK_CACHE.clear()
            print("exit", cli.main(["comodule", "--n", str(n)]))
            try:
                comodule.comodule_rank(n, ZZ)
            except comodule.InternalError as err:
                print("raised:", err)
            vars(comodule).update(saved)
        """
    )
    src = os.path.dirname(os.path.dirname(comodule.__file__))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    messages = [
        "spanning set at arity 2 is not certified free: the row of [x1,x2] is not its closed form",
        "spanning set at arity 2 is not certified free: the row of [x1,x2] is not its closed form",
        "spanning set at arity 2 is not certified free: the row of x1*x2 is not its closed form",
        "spanning set at arity 3 is not certified free: the row of x2*[x1,x3] is not its closed form",
        "spanning set at arity 4 is not certified free: row 7 leaves a residue with no unit entry",
        "the row of x1*x2 is not 1",
        "s_1 moves the row of x3*[x1,x2] off its closed form",
        "s_2 moves the row of x1*x2*x3 off its closed form",
        "s_1 moves the row of x1*x2*x3*x4 off its closed form",
    ]
    assert done.stdout == "".join(f"exit 4\nraised: {m}\n" for m in messages)
    assert done.stderr == "".join(f"internal error: {m}\n" for m in messages)


def test_spanning_terms_count():
    for n in range(1, 7):
        assert len(spanning_terms(n)) == 2 ** (n - 1)


def test_spanning_term_validation():
    with pytest.raises(ValueError):
        SpanningTerm((2, 1), ())
    with pytest.raises(ValueError):
        SpanningTerm((1,), (2,))
    with pytest.raises(ValueError):
        SpanningTerm((1,), (1, 2))


def test_freeness_certificate_small():
    # n=2: psi(x1x2) = 1, psi([x1,x2]) = eps1*eps2; Smith diagonal (1, 1)
    cz = CoeffRing(ZZ)
    t_word = SpanningTerm((1, 2), ())
    t_comm = SpanningTerm((), (1, 2))
    assert psi(t_word.to_poly(ZZ)) == cz.one()
    assert psi(t_comm.to_poly(ZZ)) == cz.eps(1) * cz.eps(2)
    diag, _, _ = smith_full_scan([[1, 0], [0, 1]])
    assert diag == [1, 1]
    for n in (1, 2, 3, 4):
        assert freeness_certificate(n)


def test_normal_form_examples():
    # x2*x1 = x1*x2 - [x1,x2]
    f = to_ml(xvar(2) * xvar(1), 2)
    coords = grassmann_normal_form(f)
    assert coords == {
        SpanningTerm((1, 2), ()): 1,
        SpanningTerm((), (1, 2)): -1,
    }
    # identities have all-zero coordinates
    assert grassmann_normal_form(grassmann_poly()) == {}
    # already standard
    g = to_ml(xvar(1) * xvar(2) * xvar(3), 3)
    assert grassmann_normal_form(g) == {SpanningTerm((1, 2, 3), ()): 1}


def test_spanning_terms_survive_pickle_and_copy():
    term = SpanningTerm((1, 3), (2, 4))
    assert term.words  # the words built on first use travel with the term
    for back in (pickle.loads(pickle.dumps(term)), copy.copy(term), copy.deepcopy(term)):
        assert type(back) is SpanningTerm and back == term
        assert (back.prefix, back.tail, back.words) == ((1, 3), (2, 4), term.words)
    coords = grassmann_normal_form(to_ml(xvar(3) * xvar(1) * xvar(2), 3))
    assert len(coords) > 1
    assert pickle.loads(pickle.dumps(coords)) == coords == copy.copy(coords)
    assert copy.deepcopy(coords) == coords


def test_normal_form_idempotent(rng):
    for _ in range(20):
        n = rng.randint(2, 4)
        terms = spanning_terms(n)
        coords = {}
        for t in terms:
            c = rng.randint(-2, 2)
            if c:
                coords[t] = c
        f = None
        for t, c in coords.items():
            piece = t.to_poly(ZZ).scale(c)
            f = piece if f is None else f + piece
        if f is None or f.is_zero():
            continue
        assert grassmann_normal_form(f) == coords


def test_normal_form_residual_is_identity(rng):
    for _ in range(20):
        n = rng.randint(2, 4)
        p = TracePoly.const(ZZ, 0)
        for _ in range(3):
            mono = TracePoly.const(ZZ, rng.randint(-2, 2))
            for i in random_perm(rng, n):
                mono = mono * xvar(i)
            p = p + mono
        if not p.terms:
            continue
        f = to_ml(p, n)
        coords = grassmann_normal_form(f)
        g = f
        for t, c in coords.items():
            g = g - t.to_poly(ZZ).scale(c)
        assert g.is_zero() or is_identity(g)


def test_consequence_closure(rng):
    # random multilinear consequences of [x,[y,z]] are identities
    for _ in range(30):
        n = rng.randint(3, 5)
        vars_ = list(range(1, n + 1))
        rng.shuffle(vars_)
        a, b, c = vars_[0], vars_[1], vars_[2]
        rest = vars_[3:]
        core = xvar(a).commutator(xvar(b).commutator(xvar(c)))
        left = TracePoly.const(ZZ, 1)
        right = TracePoly.const(ZZ, 1)
        for i in rest:
            if rng.random() < 0.5:
                left = left * xvar(i)
            else:
                right = right * xvar(i)
        f = to_ml(left * core * right, n)
        assert is_identity(f)
        assert grassmann_normal_form(f) == {}


def test_matrix_dump_shape():
    lines = list(matrix_dump(2))
    assert lines[0].startswith("# columns:")
    assert len(lines) == 3  # header + 2 permutations


def test_truncated_mode_agrees_on_identity_testing(rng):
    # the quotient by all generator squares satisfies the same
    # multilinear identities
    for _ in range(40):
        n = rng.randint(2, 4)
        p = TracePoly.const(ZZ, 0)
        for _ in range(rng.randint(1, 3)):
            mono = TracePoly.const(ZZ, rng.choice([-2, -1, 1, 2]))
            for i in random_perm(rng, n):
                mono = mono * xvar(i)
            p = p + mono
        if not p.terms:
            continue
        f = to_ml(p, n)
        truncated = zz_algebra(truncated=True)
        gens = [truncated.gen(i) for i in range(1, n + 1)]
        assert is_identity(f) == evaluate(f, gens).is_zero()


def test_freeness_basis_matches_known_rank4_span():
    # at n=3 the sign images of the spanning set generate the lattice
    # spanned by 1, eps1*eps2, eps2*eps3 and eps1*eps3 - theta*eps1*eps2*eps3
    from lattice_oracle import LatticeReducer

    cols = all_monomials(range(1, 4))

    def vector(p):
        return [keyed(p).get(key, 0) for key in cols]

    rows = spanning_rows(3)
    cz = CoeffRing(ZZ)
    expected_polys = [
        cz.one(),
        cz.eps(1) * cz.eps(2),
        cz.eps(2) * cz.eps(3),
        cz.eps(1) * cz.eps(3) - cz.theta() * cz.eps(1) * cz.eps(2) * cz.eps(3),
    ]
    got = LatticeReducer([vector(p) for p in rows.values()], len(cols))
    want = LatticeReducer([vector(p) for p in expected_polys], len(cols))
    assert got.hnf == want.hnf


@pytest.mark.parametrize("m", [4, 6])
def test_normal_form_over_composite_modulus(rng, m):
    # the integer certificate holds over every ring: the normal form over
    # Z/m is the normal form over Z reduced mod m
    ring = ModRing(m)
    for n in (3, 4, 5):
        for _ in range(4):
            coeffs = {
                random_perm(rng, n): rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3)
            }
            over_z = grassmann_normal_form(MultilinearPoly(n, ZZ, coeffs))
            expected = {t: ring.from_int(c) for t, c in over_z.items() if c % m}
            reduced = {k: ring.from_int(c) for k, c in coeffs.items() if c % m}
            assert grassmann_normal_form(MultilinearPoly(n, ring, reduced)) == expected


def test_from_word_poly_rejects_traces():
    with pytest.raises(ValueError, match="Tr"):
        to_ml(xvar(1).trace() * xvar(2), 2)
    with pytest.raises(ValueError, match="not multilinear"):
        to_ml(xvar(1) * xvar(1), 2)
