import os
import random
import subprocess
import sys

import pytest

from epsgrass import QQ, ZZ, CoeffRing, GF, ModRing, epsilon, exp_map, phi_sigma
from epsgrass.rings import RingMismatchError

from conftest import keyed, random_eps_poly, random_perm
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
    assert keyed(te1 + te1) == {(1, (1,)): 2}


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


def test_monomial_key_matches_the_bit_loop(monkeypatch):
    # a fresh byte table, built as wider masks come
    monkeypatch.setattr(epsilon, "_BYTE_INDICES", [])
    rng = random.Random(31)
    masks = [0, 1, 2, 3, 255, 256, 257, (1 << 40) - 1, (1 << 40) - 2]
    masks += [rng.getrandbits(rng.randint(1, 40)) for _ in range(3000)]
    for mask in masks:
        for m in (mask, mask | 1, mask & ~1):
            want = (m & 1, tuple(i for i in range(1, m.bit_length()) if m >> i & 1))
            assert epsilon.monomial_key(m) == want, bin(m)


def test_phi_sigma_examples():
    swap = {1: 2, 2: 1}
    # symmetric monomial is fixed
    assert phi_sigma(swap, CZ.eps(1) * CZ.eps(2)) == CZ.eps(1) * CZ.eps(2)
    assert phi_sigma(swap, CZ.eps(1)) == CZ.eps(2)
    p = random_eps_poly(random.Random(3), CZ)
    assert phi_sigma({}, p) == p


def test_phi_sigma_rejects_an_image_below_one():
    # index 0 would be the theta bit of a mask
    with pytest.raises(ValueError, match="start at 1"):
        phi_sigma({1: 0}, CZ.eps(1))
    with pytest.raises(ValueError, match="start at 1"):
        phi_sigma(lambda i: i - 1, CZ.one() + CZ.eps(1) * CZ.eps(2))
    # an index outside the support is never renamed
    assert phi_sigma({5: 0}, CZ.theta() * CZ.eps(1)) == CZ.theta() * CZ.eps(1)


def test_phi_sigma_matches_renaming_the_keys():
    # any index map, injective or not, against renaming the (t, eps) keys
    rng = random.Random(19)
    for _ in range(300):
        p = random_eps_poly(rng, CZ, max_index=6, nterms=5)
        covered = rng.sample(range(1, 7), rng.randint(0, 6))
        perm = {i: rng.randint(1, 8) for i in covered}
        want: dict = {}
        clash = False
        for (t, eps), c in keyed(p).items():
            new = tuple(sorted(perm.get(i, i) for i in eps))
            clash = clash or len(set(new)) != len(new)
            want[t, new] = want.get((t, new), 0) + c
        for how in (perm, lambda i: perm.get(i, i)):
            if clash:
                with pytest.raises(ValueError, match="not injective"):
                    phi_sigma(how, p)
            else:
                assert keyed(phi_sigma(how, p)) == {k: c for k, c in want.items() if c}


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


def reference_render(base, terms: dict) -> str:
    """``render`` of the (t, eps)-keyed terms, in the order of the keys."""
    parts = [
        "*".join([f"[{base.render(c)}]"] + ["theta"] * t + [f"eps{i}" for i in eps])
        for (t, eps), c in sorted(terms.items())
    ]
    return " + ".join(parts) or "[0]"


def reference_render_expr(base, terms: dict) -> str:
    """``render_expr`` of the (t, eps)-keyed terms, in the order of the
    keys."""
    chunks = []
    for (t, eps), c in sorted(terms.items()):
        text = base.render(c)
        mag = text.lstrip("-")
        factors = ["theta"] * t + [f"eps{i}" for i in eps]
        body = "*".join(factors if factors and mag == "1" else [mag] + factors)
        if chunks:
            chunks.append(("- " if text != mag else "+ ") + body)
        else:
            chunks.append(("-" if text != mag else "") + body)
    return " ".join(chunks) or "0"


@pytest.mark.parametrize("ring", [ZZ, QQ, ModRing(4)], ids=["Z", "Q", "Z4"])
@pytest.mark.parametrize("theta", [False, True], ids=["theta-free", "theta"])
def test_render_lists_terms_in_key_order(ring, theta):
    # masks up to 40 bits: eps1*eps3 comes before eps2, though its mask is
    # larger, so an order by mask fails here
    rng = random.Random(29)
    coeff = CoeffRing(ring)
    for _ in range(200):
        terms: dict = {}
        for _ in range(rng.randint(0, 8)):
            t = rng.randint(0, 1) if theta else 0
            eps = tuple(sorted(rng.sample(range(1, 40), rng.randint(0, 6))))
            c = ring.from_int(rng.choice((-5, -3, -1, 1, 2, 3, 7)))
            if ring is QQ:
                c = c / rng.choice((1, 2, 3))
            if not ring.is_zero(c):
                terms[t, eps] = c
        p = sum((coeff.monomial(t, eps, c) for (t, eps), c in terms.items()), coeff.zero())
        assert keyed(p) == terms
        assert p.render() == reference_render(ring, terms)
        assert p.render_expr() == reference_render_expr(ring, terms)


def test_psi_retains_no_monomial():
    # in a fresh process: psi of the reversed triples on 21 letters has
    # 5^7 monomials, and once it is dropped no module-level container of
    # epsilon is larger than before, except the byte table (one row per
    # byte of the widest mask) and the field masks (one entry per shape)
    code = (
        "from epsgrass import ZZ, epsilon\n"
        "from epsgrass.comodule import MultilinearPoly, psi\n"
        "def sizes():\n"
        "    return {k: len(v) for k, v in vars(epsilon).items()\n"
        "            if isinstance(v, (dict, list, set))}\n"
        "before = sizes()\n"
        "sigma = tuple(3 * (k // 3) + 3 - k % 3 for k in range(21))\n"
        "print(len(psi(MultilinearPoly(21, ZZ, {sigma: 1})).terms))\n"
        "after = sizes()\n"
        "print(' '.join(k for k in after if after[k] != before.get(k)))\n"
    )
    src = os.path.dirname(os.path.dirname(epsilon.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    count, grown = done.stdout.split("\n", 1)
    assert count == str(5 ** 7)
    assert set(grown.split()) <= {"_BYTE_INDICES", "_FIELD_MASKS"}, grown
