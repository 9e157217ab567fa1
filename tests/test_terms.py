"""Property tests of the term-map core over Z, Q, Z/4, Z/6 and GF(3).

Every container is built from the same integer data over each ring, so
one example exercises all of them: no stored coefficient is ever zero,
addition is commutative and associative, a - a = 0, scaling distributes,
and products commute with base change from Z to Z/m.  Every container
refuses an operand of another parent, and a negative on a repeated word
keeps the canonical torsion residue.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from epsgrass import GF, QQ, ZZ, CoeffRing, EpsPoly, GrassAlgebra, ModRing, SAlgebra
from epsgrass.comodule import MultilinearPoly
from epsgrass.hull import GradedPoly
from epsgrass.rings import RingMismatchError
from epsgrass.supertrace import MonomialTerm, StandardForm, model_eval
from epsgrass.terms import TracePoly, add_term, add_terms

from conftest import keyed

RINGS = [ZZ, QQ, ModRing(4), ModRing(6), GF(3)]
RING_IDS = ["Z", "Q", "Z4", "Z6", "F3"]
PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)

coeffs = st.integers(-3, 3)
eps_data = st.lists(
    st.tuples(st.integers(0, 1), st.frozensets(st.integers(1, 3), max_size=2), coeffs),
    max_size=3,
)
grass_data = st.lists(
    st.tuples(st.lists(st.integers(1, 3), min_size=1, max_size=3), eps_data), max_size=3
)
atoms = st.one_of(
    st.integers(1, 3),
    st.lists(st.integers(1, 3), min_size=1, max_size=2).map(lambda w: ("F", tuple(w))),
)
trace_data = st.lists(
    st.tuples(st.lists(atoms, max_size=3).map(tuple), coeffs), max_size=4
)
selem_data = st.lists(
    st.tuples(
        st.lists(
            st.tuples(st.frozensets(st.integers(1, 2), max_size=2), st.integers(1, 2)),
            min_size=1,
            max_size=2,
        ),
        eps_data,
    ),
    max_size=2,
)
perm_data = st.lists(st.tuples(st.permutations([1, 2, 3]), coeffs), max_size=4)


def eps_poly(coeff, data):
    acc = coeff.zero()
    for t, eps, c in data:
        acc = acc + coeff.monomial(t, eps, coeff.base.from_int(c))
    return acc


def grass_elem(alg, data):
    acc = alg.zero()
    for letters, c in data:
        word = tuple(sorted({i: letters.count(i) for i in letters}.items()))
        acc = acc + alg.monomial(word, eps_poly(alg.coeff, c))
    return acc


def trace_poly(ring, data):
    acc = TracePoly.zero(ring)
    for term, c in data:
        acc = acc + TracePoly(ring, {term: ring.one()}).scale(ring.from_int(c))
    return acc


def selem(alg, data):
    acc = alg.zero()
    for keys, c in data:
        acc = acc + alg.monomial(keys, eps_poly(alg.coeff, c))
    return acc


def multilinear(ring, data):
    acc = MultilinearPoly(3, ring, {})
    for perm, c in data:
        acc = acc + MultilinearPoly(3, ring, {tuple(perm): ring.one()}).scale(
            ring.from_int(c)
        )
    return acc


def flat_model_value(f) -> dict:
    """``model_eval`` of f as one vector {((w0, traces), eps mask): c};
    a monomial of the grouped value holds no empty mask map."""
    value = model_eval(f)
    assert all(value.values())
    return {(mono, m): c for mono, masks in value.items() for m, c in masks.items()}


def assert_no_zero(terms, ring):
    for c in terms.values():
        if isinstance(c, EpsPoly):
            assert not c.is_zero()
            assert_no_zero(c.terms, c.ring.base)
        else:
            assert not ring.is_zero(c)


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
@PROPERTY
@given(eps_data, eps_data, eps_data, coeffs)
def test_eps_poly_laws(ring, da, db, dc, k):
    coeff = CoeffRing(ring)
    a, b, c = (eps_poly(coeff, d) for d in (da, db, dc))
    s = ring.from_int(k)
    for value in (a + b, a - b, a * b, a.scale(s), a.scale_int(k)):
        assert_no_zero(value.terms, ring)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a - a).is_zero()
    assert (a + b).scale(s) == a.scale(s) + b.scale(s)


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
@PROPERTY
@given(grass_data, grass_data, grass_data, eps_data)
def test_grass_elem_laws(ring, da, db, dc, dk):
    alg = GrassAlgebra(CoeffRing(ring))
    a, b, c = (grass_elem(alg, d) for d in (da, db, dc))
    k = eps_poly(alg.coeff, dk)
    for value in (a + b, a - b, -a, a * b, a.scale_coeff(k)):
        assert_no_zero(value.terms, alg.coeff)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a - a).is_zero()
    assert -a == a.scale_int(-1)
    assert (a + b).scale_coeff(k) == a.scale_coeff(k) + b.scale_coeff(k)


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
@PROPERTY
@given(selem_data, selem_data, selem_data, coeffs)
def test_selem_laws(ring, da, db, dc, k):
    alg = SAlgebra(CoeffRing(ring))
    a, b, c = (selem(alg, d) for d in (da, db, dc))
    for value in (a + b, a - b, -a, a * b, a.scale_int(k)):
        assert_no_zero(value.terms, alg.coeff)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a - a).is_zero()
    assert -a == a.scale_int(-1)
    assert (a + b).scale_int(k) == a.scale_int(k) + b.scale_int(k)


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
@PROPERTY
@given(trace_data, trace_data, trace_data, coeffs)
def test_trace_poly_and_model_laws(ring, da, db, dc, k):
    a, b, c = (trace_poly(ring, d) for d in (da, db, dc))
    s = ring.from_int(k)
    for value in (a + b, a - b, a * b, a.trace(), a.scale(s)):
        assert_no_zero(value.terms, ring)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a - a).is_zero()
    assert (a + b).scale(s) == a.scale(s) + b.scale(s)
    # the trace model is linear, and its values store no zero either
    va, vb, vab = (flat_model_value(f) for f in (a, b, a + b))
    for value in (va, vab, flat_model_value(a * b)):
        assert_no_zero(value, ring)
    assert add_terms(ring, va, vb) == vab


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
@PROPERTY
@given(perm_data, perm_data, perm_data, coeffs)
def test_multilinear_poly_laws(ring, da, db, dc, k):
    a, b, c = (multilinear(ring, d) for d in (da, db, dc))
    s = ring.from_int(k)
    for value in (a + b, a - b, a.scale(s)):
        assert_no_zero(value.coeffs, ring)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a - a).is_zero()
    assert (a + b).scale(s) == a.scale(s) + b.scale(s)


def base_change_grass(x, alg):
    """The image over ``alg`` of an element over Z."""
    base = alg.coeff.base
    acc = alg.zero()
    for word, c in x.terms.items():
        image = EpsPoly(alg.coeff, {})
        for (t, eps), v in keyed(c).items():
            image = image + alg.coeff.monomial(t, eps, base.from_int(v))
        acc = acc + alg.monomial(word, image)
    return acc


@pytest.mark.parametrize("m", [2, 3, 4, 6])
@PROPERTY
@given(grass_data, grass_data, trace_data, trace_data)
def test_products_commute_with_base_change(m, ga, gb, ta, tb):
    ring = ModRing(m)
    alg_z, alg_m = GrassAlgebra(CoeffRing(ZZ)), GrassAlgebra(CoeffRing(ring))
    a, b = grass_elem(alg_z, ga), grass_elem(alg_z, gb)
    assert base_change_grass(a * b, alg_m) == (
        base_change_grass(a, alg_m) * base_change_grass(b, alg_m)
    )
    assert base_change_grass(a, alg_m) == grass_elem(alg_m, ga)
    f, g = trace_poly(ZZ, ta), trace_poly(ZZ, tb)
    assert trace_poly(ring, (f * g).terms.items()) == (
        trace_poly(ring, f.terms.items()) * trace_poly(ring, g.terms.items())
    )
    assert trace_poly(ring, f.terms.items()) == trace_poly(ring, ta)


LAW_RINGS = [ZZ, QQ, ModRing(4)]
LAW_RING_IDS = ["Z", "Q", "Z4"]
GRADES = (frozenset({1}), frozenset({1, 2}), frozenset())
graded_data = st.lists(st.tuples(st.permutations([1, 2, 3]), eps_data), max_size=3)


def graded_poly(coeff, data):
    acc = GradedPoly(coeff, GRADES, {})
    for perm, c in data:
        acc = acc + GradedPoly(coeff, GRADES, {tuple(perm): eps_poly(coeff, c)})
    return acc


def standard_form(ring, data):
    acc = StandardForm(ring, {})
    for perm, c in data:
        acc = acc + StandardForm(ring, {MonomialTerm(tuple(perm)): ring.from_int(c)})
    return acc


def assert_linear_laws(a, b, c, s, k):
    """The laws every term map keeps: a commutative, associative sum with
    inverses, scaling by s and by the integer k that distributes, and no
    stored zero."""
    ring = a._coeff_ring()
    for value in (a + b, a - b, -a, a.scale(s), a.scale_int(k)):
        for v in value.terms.values():
            assert not ring.is_zero(v)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a - a).is_zero() and (a + (-a)).is_zero()
    assert -(-a) == a
    assert a - b == a + (-b)
    assert (a + b).scale(s) == a.scale(s) + b.scale(s)
    assert (a + b).scale_int(k) == a.scale_int(k) + b.scale_int(k)
    assert a.scale_int(-1) == -a


@pytest.mark.parametrize("ring", LAW_RINGS, ids=LAW_RING_IDS)
@PROPERTY
@given(graded_data, graded_data, graded_data, eps_data, coeffs)
def test_graded_poly_laws(ring, da, db, dc, ds, k):
    coeff = CoeffRing(ring)
    a, b, c = (graded_poly(coeff, d) for d in (da, db, dc))
    assert_linear_laws(a, b, c, eps_poly(coeff, ds), k)
    for value in (a, a + b, a.scale_int(k)):
        assert_no_zero(value.coeffs, coeff)
    assert a.map_coeffs(lambda key, v: v.scale_int(k)) == a.scale_int(k)


@pytest.mark.parametrize("ring", LAW_RINGS, ids=LAW_RING_IDS)
@PROPERTY
@given(perm_data, perm_data, perm_data, coeffs)
def test_standard_form_laws(ring, da, db, dc, k):
    a, b, c = (standard_form(ring, d) for d in (da, db, dc))
    assert_linear_laws(a, b, c, ring.from_int(k), k)
    assert_no_zero(a.items, ring)
    assert (a + b).to_trace_poly() == a.to_trace_poly() + b.to_trace_poly()


@pytest.mark.parametrize("ring", LAW_RINGS, ids=LAW_RING_IDS)
@PROPERTY
@given(grass_data, grass_data, grass_data, eps_data, coeffs)
def test_truncated_grass_elem_laws(ring, da, db, dc, dk, k):
    alg = GrassAlgebra(CoeffRing(ring), truncated=True)
    a, b, c = (grass_elem(alg, d) for d in (da, db, dc))
    assert_linear_laws(a, b, c, ring.from_int(k), k)
    for value in (a, a + b, -a, a * b, a ** 2, a.scale_coeff(eps_poly(alg.coeff, dk))):
        assert_no_zero(value.terms, alg.coeff)
        assert all(m == 1 for word in value.terms for _, m in word)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a ** 0 == alg.one() and a ** 2 == a * a


@pytest.mark.parametrize("ring", LAW_RINGS, ids=LAW_RING_IDS)
@PROPERTY
@given(grass_data, selem_data)
def test_negation_keeps_the_canonical_torsion_residue(ring, dg, ds):
    coeff = CoeffRing(ring)
    for alg, x in (
        (GrassAlgebra(coeff), grass_elem(GrassAlgebra(coeff), dg)),
        (SAlgebra(coeff), selem(SAlgebra(coeff), ds)),
    ):
        for word, c in (-x).terms.items():
            assert c == alg._reduce_coeff(word, -x.terms[word])
            assert alg._reduce_coeff(word, c) == c
    # on e1^2 the coefficient of eps1 is defined mod 2, so -eps1*e1^2 is
    # eps1*e1^2 (and 0 over Q, where 2 is a unit)
    alg = GrassAlgebra(coeff)
    x = alg.monomial(((1, 2),), coeff.eps(1))
    assert -x == x and (x + x).is_zero()
    assert x.terms == ({} if ring is QQ else {((1, 2),): coeff.eps(1)})


def test_every_container_refuses_another_parents_element():
    cz, cq = CoeffRing(ZZ), CoeffRing(QQ)
    sz, sq = SAlgebra(cz), SAlgebra(cq)
    pairs = [
        (cz.one(), cq.one()),
        (GrassAlgebra(cz).one(), GrassAlgebra(cz, truncated=True).one()),
        (GrassAlgebra(cz).one(), GrassAlgebra(cq).one()),
        (sz.one(), sq.one()),
        (TracePoly.letter(ZZ, 1), TracePoly.letter(QQ, 1)),
        (MultilinearPoly.monomial(2, ZZ, (2, 1)), MultilinearPoly.monomial(2, QQ, (2, 1))),
        (MultilinearPoly.monomial(2, ZZ, (2, 1)), MultilinearPoly.monomial(3, ZZ, (2, 1, 3))),
        (GradedPoly(cz, GRADES, {(1, 2, 3): cz.one()}), GradedPoly(cq, GRADES, {(1, 2, 3): cq.one()})),
        (GradedPoly(cz, GRADES, {(1, 2, 3): cz.one()}), GradedPoly(cz, GRADES[::-1], {(1, 2, 3): cz.one()})),
        (StandardForm(ZZ, {MonomialTerm((1,)): 1}), StandardForm(QQ, {MonomialTerm((1,)): QQ.one()})),
    ]
    for a, b in pairs:
        assert a != b
        with pytest.raises(RingMismatchError):
            a + b
        with pytest.raises(RingMismatchError):
            a - b
        if hasattr(a, "__mul__"):
            with pytest.raises(RingMismatchError):
                a * b


CONST_RINGS = [ZZ, QQ, ModRing(4), ModRing(6)]
CONST_RING_IDS = ["Z", "Q", "Z4", "Z6"]


def plain_product(x, y) -> dict:
    """The terms of x*y from every pair of terms, with no shortcut for a
    constant."""
    out: dict = {}
    if isinstance(x, TracePoly):
        for ta, ca in x.terms.items():
            for tb, cb in y.terms.items():
                add_term(x.ring, out, ta + tb, x.ring.mul(ca, cb))
        return out
    alg = x.algebra
    for u, cu in x.terms.items():
        for v, cv in y.terms.items():
            word, sign = alg._merge(u, v)
            alg._accumulate(out, word, cu * cv * sign)
    return out


def assert_products_by_constants(x, c, d):
    """c*x, x*c, c*d and x*x against the term-by-term products, in value
    and in term order."""
    for a, b in ((c, x), (x, c), (c, d), (d, c), (x, x)):
        got, want = (a * b).terms, plain_product(a, b)
        assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("ring", CONST_RINGS, ids=CONST_RING_IDS)
@PROPERTY
@given(grass_data, selem_data, trace_data, eps_data, eps_data, coeffs, coeffs)
def test_products_by_a_constant_are_term_by_term_products(ring, dg, ds, dt, dk, dl, k, l):
    coeff = CoeffRing(ring)
    k_poly, l_poly = eps_poly(coeff, dk), eps_poly(coeff, dl)
    for alg, x in (
        (GrassAlgebra(coeff), lambda a: grass_elem(a, dg)),
        (GrassAlgebra(coeff, truncated=True), lambda a: grass_elem(a, dg)),
        (SAlgebra(coeff), lambda a: selem(a, ds)),
    ):
        x = x(alg)
        assert_products_by_constants(x, alg.one().scale_coeff(k_poly), alg.one().scale_coeff(l_poly))
        assert_products_by_constants(x, alg.one().scale_int(k), alg.one().scale_int(l))
    f = trace_poly(ring, dt)
    assert_products_by_constants(f, TracePoly.const(ring, ring.from_int(k)), TracePoly.const(ring, ring.from_int(l)))


@pytest.mark.parametrize("ring", CONST_RINGS, ids=CONST_RING_IDS)
def test_products_by_a_constant_on_repeated_words_and_torsion(ring):
    coeff = CoeffRing(ring)
    two = ring.from_int(2)
    for alg in (GrassAlgebra(coeff), GrassAlgebra(coeff, truncated=True)):
        # e1^2*e2 carries the torsion residue of eps1 and theta*eps1
        x = grass_elem(alg, [([1, 1, 2], [(0, frozenset({1}), 1), (1, frozenset({1}), 3), (0, frozenset(), 2)]), ([2], [(0, frozenset(), 2)])])
        c = alg.one().scale_coeff(coeff.one() + coeff.eps(1))
        for d in (alg.from_int(2), alg.from_int(3), alg.one().scale_coeff(coeff.theta() * coeff.eps(1))):
            assert_products_by_constants(x, c, d)
            assert_products_by_constants(x, d, c)
    s_alg = SAlgebra(coeff)
    y = s_alg.monomial([(frozenset({1}), 1), (frozenset({1}), 1)], coeff.one() + coeff.eps(1))
    assert_products_by_constants(y, s_alg.one().scale_int(2), s_alg.one().scale_coeff(coeff.eps(1)))
    f = TracePoly(ring, {(1, 1): two, (("F", (1,)), 2): ring.one()})
    assert_products_by_constants(f, TracePoly.const(ring, two), TracePoly.const(ring, ring.from_int(3)))
    if ring == ModRing(4):  # 2*2 = 0 kills a product of constants and a coefficient
        alg = GrassAlgebra(coeff)
        assert (alg.from_int(2) * alg.from_int(2)).is_zero()
        assert (alg.from_int(2) * alg.gen(1).scale_int(2)).is_zero()
        assert (TracePoly.const(ring, two) * f).terms == {(("F", (1,)), 2): two}


def test_equal_parents_pass_and_foreign_ones_are_named():
    # the same parent object passes at once, an equal one of another
    # object by comparison; a foreign one names both parents
    pairs = [
        (GrassAlgebra(CoeffRing(ZZ)).gen(1), GrassAlgebra(CoeffRing(ZZ)).gen(2)),
        (SAlgebra(CoeffRing(QQ)).gen({1}, 1), SAlgebra(CoeffRing(QQ)).gen({2}, 2)),
        (CoeffRing(ZZ).eps(1), CoeffRing(ZZ).eps(2)),
        (TracePoly.letter(ModRing(4), 1), TracePoly.letter(ModRing(4), 2)),
    ]
    for a, b in pairs:
        assert a._parent() == b._parent() and a._parent()[0] is not b._parent()[0]
        assert (a + b).terms == (b + a).terms == {**a.terms, **b.terms}
        assert (a * b)._parent() == a._parent()
    foreign = [
        (GrassAlgebra(ZZ).gen(1), GrassAlgebra(QQ).gen(1), "GrassAlgebra(CoeffRing(Z)) vs GrassAlgebra(CoeffRing(Q))"),
        (TracePoly.letter(ZZ, 1), TracePoly.letter(ModRing(4), 1), "Z vs Z/4"),
        (CoeffRing(ZZ).eps(1), CoeffRing(QQ).eps(1), "CoeffRing(Z) vs CoeffRing(Q)"),
        (GrassAlgebra(ZZ).gen(1), TracePoly.letter(ZZ, 1), "GrassAlgebra(CoeffRing(Z)) vs Z"),
        (TracePoly.letter(ZZ, 1), MultilinearPoly.monomial(1, ZZ, (1,)), "Z vs 1, Z"),
    ]
    for a, b, text in foreign:
        with pytest.raises(RingMismatchError) as err:
            a + b
        assert str(err.value) == text


def test_a_constant_of_another_parent_is_refused():
    cz, cq = CoeffRing(ZZ), CoeffRing(QQ)
    pairs = [
        (GrassAlgebra(cz).from_int(2), GrassAlgebra(cq).gen(1)),
        (GrassAlgebra(cz).from_int(2), GrassAlgebra(cz, truncated=True).gen(1)),
        (GrassAlgebra(cz).from_int(2), GrassAlgebra(cq).from_int(3)),
        (SAlgebra(cz).one().scale_int(2), SAlgebra(cq).gen({1}, 1)),
        (TracePoly.const(ZZ, 2), TracePoly.letter(QQ, 1)),
        (TracePoly.const(ZZ, 2), TracePoly.const(ModRing(4), 3)),
    ]
    for c, x in pairs:
        for a, b in ((c, x), (x, c)):
            with pytest.raises(RingMismatchError):
                a * b
            with pytest.raises(RingMismatchError):
                a.commutator(b)


def random_trace_poly(rng, ring) -> TracePoly:
    """Up to four terms: words of up to three letters out of two, and a
    trace, so that concatenations of terms often coincide."""
    atoms = (1, 2, ("F", (1,)))
    terms = {}
    for _ in range(rng.randint(0, 4)):
        terms[tuple(rng.choice(atoms) for _ in range(rng.randint(0, 3)))] = rng.choice((-2, -1, 1, 2, 3))
    return TracePoly(ring, {t: ring.from_int(c) for t, c in terms.items() if not ring.is_zero(ring.from_int(c))})


@pytest.mark.parametrize("ring", CONST_RINGS, ids=CONST_RING_IDS)
def test_trace_commutator_is_the_difference_of_products_in_order(ring):
    # the terms of a*b, then those of b*a summed on their own: a sum on
    # one word that cancels inside b*a leaves the word of a*b in its place
    rng = random.Random(29)
    for _ in range(3000):
        a, b = random_trace_poly(rng, ring), random_trace_poly(rng, ring)
        ba = {t: ring.neg(c) for t, c in plain_product(b, a).items()}
        want = add_terms(ring, plain_product(a, b), ba)
        assert list(a.commutator(b).terms.items()) == list(want.items())
