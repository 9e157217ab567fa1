import random

import pytest

from epsgrass import QQ, ZZ, CoeffRing, GF, epsilon, exp_map, phi_sigma
from epsgrass.rings import RingMismatchError

from conftest import random_eps_poly, random_perm
from raw_oracle import eps_to_raw, raw_mul, raw_reduce


CZ = CoeffRing(ZZ)


def test_defining_relations():
    # eps_i^2 = theta*eps_i
    assert CZ.eps(1) * CZ.eps(1) == CZ.theta() * CZ.eps(1)
    # theta^2 = 2
    assert CZ.theta() * CZ.theta() == CZ.from_int(2)


def test_add_examples():
    one, e1 = CZ.one(), CZ.eps(1)
    # (1 + eps1) + (-eps1) = 1
    assert (one + e1) + (-e1) == one
    # 0 + x = x
    x = CZ.theta() * CZ.eps(2)
    assert CZ.zero() + x == x
    # (theta*eps1) + (theta*eps1) = 2*theta*eps1 (no reduction on addition)
    te1 = CZ.theta() * CZ.eps(1)
    assert te1 + te1 == te1.scale_int(2)
    assert (te1 + te1).terms == {(1, (1,)): 2}


def test_mul_example_derived_theta_eps_product():
    # (theta*eps1)*(theta*eps2) = 2*eps1*eps2, cross-checked by raw reduction
    lhs = (CZ.theta() * CZ.eps(1)) * (CZ.theta() * CZ.eps(2))
    assert lhs == CZ.monomial(0, (1, 2), 2)
    raw = raw_reduce(raw_mul(eps_to_raw(CZ.theta() * CZ.eps(1)),
                             eps_to_raw(CZ.theta() * CZ.eps(2))))
    assert raw == raw_reduce(eps_to_raw(lhs))


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        CZ.eps(1) + CoeffRing(QQ).eps(1)
    with pytest.raises(RingMismatchError):
        CZ.eps(1) * CoeffRing(GF(3)).eps(1)


def test_exp_map_examples():
    assert exp_map(CZ, []) == CZ.one()
    assert exp_map(CZ, [(1, 2)]) == CZ.one() - CZ.eps(1) * CZ.eps(2)
    # repeated pair cancels mod 2
    assert exp_map(CZ, [(1, 2), (1, 2)]) == CZ.one()
    # diagonal pair: 1 - theta*eps1, whose square is 1
    d = exp_map(CZ, [(1, 1)])
    assert d == CZ.one() - CZ.theta() * CZ.eps(1)
    assert d * d == CZ.one()


def test_exp_map_square_and_homomorphism(rng):
    for _ in range(100):
        pairs = [
            (rng.randint(1, 4), rng.randint(1, 4)) for _ in range(rng.randint(0, 5))
        ]
        other = [
            (rng.randint(1, 4), rng.randint(1, 4)) for _ in range(rng.randint(0, 5))
        ]
        e = exp_map(CZ, pairs)
        assert e * e == CZ.one()
        assert exp_map(CZ, pairs + other) == e * exp_map(CZ, other)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(3)], ids=["Z", "Q", "F2", "F3"])
def test_ring_axioms_on_eps_polys(ring, rng):
    coeff = CoeffRing(ring)
    for _ in range(60):
        a = random_eps_poly(rng, coeff)
        b = random_eps_poly(rng, coeff)
        c = random_eps_poly(rng, coeff)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a


def test_mul_against_raw_oracle(rng):
    for _ in range(120):
        a = random_eps_poly(rng, CZ)
        b = random_eps_poly(rng, CZ)
        lib = eps_to_raw(a * b)
        raw = raw_mul(eps_to_raw(a), eps_to_raw(b))
        assert raw_reduce(raw, rng) == raw_reduce(lib)


def test_reduction_confluence_random_rule_order(rng):
    # reducing raw monomials in any rule order gives one normal form
    for _ in range(80):
        terms = []
        for _ in range(rng.randint(1, 4)):
            eps = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 4)))
            terms.append((rng.randint(-4, 4), rng.randint(0, 3), tuple(sorted(eps)), ()))
        first = raw_reduce(terms, rng)
        for _ in range(4):
            assert raw_reduce(terms, rng) == first


def test_key_of_matches_the_bit_loop(monkeypatch):
    # fresh memos, so every key is decoded by the byte table
    monkeypatch.setattr(epsilon, "_KEYS", {})
    monkeypatch.setattr(epsilon, "_MASKS", {})
    rng = random.Random(31)
    masks = [0, 1, 2, 3, 255, 256, 257, (1 << 40) - 1, (1 << 40) - 2]
    masks += [rng.getrandbits(rng.randint(1, 40)) for _ in range(3000)]
    for mask in masks:
        for m in (mask, mask | 1, mask & ~1):
            want = (m & 1, tuple(i for i in range(1, m.bit_length()) if m >> i & 1))
            assert epsilon._key_of(m) == want, bin(m)
            assert epsilon._MASKS[want] == m


def test_phi_sigma_examples():
    swap = {1: 2, 2: 1}
    # symmetric monomial is fixed
    assert phi_sigma(swap, CZ.eps(1) * CZ.eps(2)) == CZ.eps(1) * CZ.eps(2)
    assert phi_sigma(swap, CZ.eps(1)) == CZ.eps(2)
    p = random_eps_poly(random.Random(3), CZ)
    assert phi_sigma({}, p) == p


def test_phi_sigma_is_ring_homomorphism(rng):
    for _ in range(60):
        n = 4
        sigma = random_perm(rng, n)
        tau = random_perm(rng, n)
        smap = {i + 1: sigma[i] for i in range(n)}
        tmap = {i + 1: tau[i] for i in range(n)}
        stmap = {i + 1: smap[tmap[i + 1]] for i in range(n)}
        a = random_eps_poly(rng, CZ, max_index=n)
        b = random_eps_poly(rng, CZ, max_index=n)
        assert phi_sigma(smap, a * b) == phi_sigma(smap, a) * phi_sigma(smap, b)
        assert phi_sigma(smap, a + b) == phi_sigma(smap, a) + phi_sigma(smap, b)
        assert phi_sigma(stmap, a) == phi_sigma(smap, phi_sigma(tmap, a))


def test_render_golden():
    p = CZ.one() - CZ.eps(1) * CZ.eps(2) + CZ.theta() * CZ.eps(3)
    assert p.render() == "[1] + [-1]*eps1*eps2 + [1]*theta*eps3"
    assert CZ.zero().render() == "[0]"


def test_render_expr_roundtrippable_shape():
    p = CZ.one() - CZ.eps(1) * CZ.eps(2)
    assert p.render_expr() == "1 - eps1*eps2"
    assert (-CZ.one()).render_expr() == "-1"
