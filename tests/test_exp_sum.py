"""Differential tests of ``epsilon.exp_sum`` and of ``psi``, which calls it
with the inversion graphs: against products of binomials by the
letter-counting ``esgn_oracle.naive_mul`` (no code shared with the
kernel) and against the sum of esgn, over Z, Q, Z/4, Z/6 and GF(3)."""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations

import pytest

from epsgrass import GF, QQ, ZZ, CoeffRing, ModRing, comodule, epsilon, esgn
from epsgrass.cli import main
from epsgrass.comodule import MultilinearPoly, is_identity, psi, spanning_terms, unit_words
from epsgrass.epsilon import exp_sum

from conftest import keyed
from esgn_oracle import ONE, binomial, exp_graph, inversion_pairs, naive_mul, reduce

RINGS = [ZZ, QQ, ModRing(4), ModRing(6), GF(3)]
RING_IDS = ["Z", "Q", "Z4", "Z6", "F3"]


def oracle_exp(pairs) -> dict:
    """The product of the binomials 1 - eps_a*eps_b (1 - theta*eps_a for
    a = b), multiplied out letter by letter."""
    out = {ONE: 1}
    for a, b in pairs:
        out = naive_mul(out, binomial(a, b))
    return out


def oracle_sum(items) -> dict:
    """sum of c * oracle_exp over (pairs, c) items, with int or Fraction c."""
    out: dict = {}
    for pairs, c in items:
        for key, v in oracle_exp(pairs).items():
            out[key] = out.get(key, 0) + c * v
    return {k: v for k, v in out.items() if v}


def in_ring(ring, poly: dict) -> dict:
    """The oracle's Z (or Q) polynomial over ``ring``, keyed by (t, eps)."""
    if ring is QQ:
        return {k: Fraction(v) for k, v in poly.items()}
    return reduce(poly, getattr(ring, "m", None))


def sample_coefficient(rng, ring):
    """A nonzero int, or a Fraction over Q; reduced into Z/m by the kernel's
    caller, as ``MultilinearPoly`` stores it."""
    if ring is QQ:
        return Fraction(rng.choice((-5, -3, -1, 1, 2, 7)), rng.choice((1, 2, 3, 4)))
    return rng.choice((-5, -3, -2, -1, 1, 2, 3, 7))


def random_pairs(rng, n):
    """A pair list on 1..n with loops (i, i), repeats and both orientations."""
    return [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 9))]


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_exp_sum_matches_products_of_binomials(ring):
    rng = random.Random(41)
    coeff = CoeffRing(ring)
    for _ in range(150):
        items = []
        for _ in range(rng.randint(0, 5)):
            pairs = random_pairs(rng, rng.randint(1, 7))
            items.append((pairs, sample_coefficient(rng, ring)))
        want = in_ring(ring, oracle_sum(items))
        ring_items = [(pairs, ring.from_int(c) if ring is not QQ else c) for pairs, c in items]
        assert keyed(exp_sum(coeff, ring_items)) == want, items


def test_subset_transform_matches_products_of_binomials():
    # the transform alone, which exp_sum reaches only once expanding the
    # binomials has cost as much as it would
    rng = random.Random(42)
    for _ in range(150):
        vertices = tuple(sorted(rng.sample(range(1, 9), rng.randint(1, 6))))
        members = []
        for _ in range(rng.randint(1, 6)):
            pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(rng.randint(0, 9))]
            members.append((pairs, rng.choice((-5, -3, -2, -1, 1, 2, 3, 7))))
        acc: dict = {}
        epsilon._add_subset_image(acc, vertices, members, epsilon._edge_parity)
        got = {epsilon.monomial_key(m): c for m, c in acc.items() if c}
        assert got == oracle_sum(members), members


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_exp_sum_of_many_graphs_on_one_vertex_set(ring):
    # 40 items on 6 vertices: more than the budget of the vertex set can
    # pay the fixed cost of expanding, so all go through the transform
    rng = random.Random(44)
    coeff = CoeffRing(ring)
    supports = [frozenset({k}) for k in range(1, 7)]
    for _ in range(4):
        items = []
        for _ in range(40):
            sigma = list(range(1, 7))
            rng.shuffle(sigma)
            items.append((inversion_pairs(supports, sigma), sample_coefficient(rng, ring)))
        want = in_ring(ring, oracle_sum(items))
        ring_items = [(pairs, ring.from_int(c) if ring is not QQ else c) for pairs, c in items]
        assert keyed(exp_sum(coeff, ring_items)) == want


def test_exp_sum_of_disconnected_graphs():
    rng = random.Random(43)
    coeff = CoeffRing(ZZ)
    for _ in range(100):
        n = rng.randint(4, 10)
        letters = list(range(1, n + 1))
        rng.shuffle(letters)
        pairs = []
        while len(letters) >= 2:
            size = min(len(letters), rng.randint(2, 4))
            part, letters = letters[:size], letters[size:]
            pairs.extend(zip(part, part[1:]))
            if size > 2 and rng.random() < 0.5:
                pairs.append((part[0], part[-1]))
        items = [(pairs, 3), (pairs[:-1], -2)]
        assert keyed(exp_sum(coeff, items)) == oracle_sum(items), pairs


def test_exp_sum_in_the_theta_zero_quotient():
    rng = random.Random(47)
    cf2 = CoeffRing(GF(2), theta_zero=True)
    for _ in range(100):
        items = [(random_pairs(rng, rng.randint(1, 6)), 1) for _ in range(rng.randint(0, 4))]
        want = reduce(oracle_sum(items), 2, theta_zero=True)
        assert keyed(exp_sum(cf2, items)) == want


def test_exp_sum_rejects_index_below_one():
    with pytest.raises(ValueError, match="start at 1"):
        exp_sum(CoeffRing(ZZ), [([(0, 1), (0, 1)], 1)])


def random_multilinear(rng, ring, n, count):
    coeffs = {}
    for _ in range(count):
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        c = ring.from_int(rng.choice((-3, -2, -1, 1, 2, 3)))
        if ring is QQ:
            c = c / rng.choice((1, 2, 3))
        if not ring.is_zero(c):
            coeffs[tuple(sigma)] = c
    return MultilinearPoly(n, ring, coeffs)


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_psi_matches_sum_of_esgn_and_oracle(ring):
    rng = random.Random(53)
    coeff = CoeffRing(ring)
    for _ in range(60):
        n = rng.randint(1, 7)
        f = random_multilinear(rng, ring, n, rng.randint(1, 12))
        by_esgn = coeff.zero()
        for sigma, c in f.coeffs.items():
            by_esgn = by_esgn + esgn(coeff, unit_words(n), sigma).scale(c)
        assert psi(f) == by_esgn
        supports = [frozenset({k}) for k in range(1, n + 1)]
        items = [(inversion_pairs(supports, s), c) for s, c in f.coeffs.items()]
        assert keyed(psi(f)) == in_ring(ring, oracle_sum(items))


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_psi_of_every_permutation_at_arity_4(ring):
    coeff = CoeffRing(ring)
    c = ring.from_int(5)
    for sigma in permutations(range(1, 5)):
        f = MultilinearPoly(4, ring, {sigma: c})
        assert psi(f) == esgn(coeff, unit_words(4), sigma).scale(c)


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_psi_of_identity_permutations(ring):
    coeff = CoeffRing(ring)
    for n in (1, 2, 5, 12):
        c = ring.from_int(7)
        f = MultilinearPoly(n, ring, {tuple(range(1, n + 1)): c})
        assert psi(f) == coeff.scalar(c)
    assert exp_sum(coeff, [([], ring.from_int(2)), ([], ring.from_int(-2))]).is_zero()


@pytest.mark.parametrize("n", [20, 22, 24])
def test_psi_of_disjoint_transpositions_is_fast(n):
    # (1 2)(3 4)...: the inversion graph is a perfect matching on n letters,
    # whose exp has 2^(n/2) monomials; a transform over all 2^n subsets of
    # its vertex set would take minutes
    sigma = tuple(k + 1 + (1 if k % 2 == 0 else -1) for k in range(n))
    shifted = (1,) + tuple(k + 1 + (1 if k % 2 == 1 else -1) for k in range(1, n - 1)) + (n,)
    f = MultilinearPoly(n, ZZ, {sigma: 3, shifted: -1})
    start = time.perf_counter()
    got = psi(f)
    assert time.perf_counter() - start < 1.0
    matching = [(k, k + 1) for k in range(1, n, 2)]
    assert keyed(got) == oracle_sum([(matching, 3), ([(k, k + 1) for k in range(2, n - 1, 2)], -1)])


def reversed_triples(n):
    """(3 2 1)(6 5 4)...: n/3 disjoint triangles, whose exps have 5 terms."""
    return tuple(3 * (k // 3) + 3 - k % 3 for k in range(n))


def path_permutation(n):
    """2 4 1 6 3 8 5 ... n n-3 n-1, for even n: the inversion graph is the
    path 2-1-4-3-6-5-..., connected and with n - 1 edges."""
    sigma = [2]
    for k in range(4, n + 1, 2):
        sigma += [k, k - 3]
    return tuple(sigma + [n - 1])


@pytest.mark.parametrize("sigma", [reversed_triples(18), reversed_triples(21), path_permutation(20)],
                         ids=["triples18", "triples21", "path20"])
def test_psi_of_large_sparse_inversion_graphs_is_fast(monkeypatch, sigma):
    # a transform over all 2^n subsets of the vertex set would take
    # seconds and hundreds of MB; these graphs' products of binomials
    # expand with 5^(n/3) and about 1.7^n terms
    def no_transform(acc, vertices, members, parity_of):
        raise AssertionError(f"subset transform on {len(vertices)} vertices")

    monkeypatch.setattr(epsilon, "_add_subset_image", no_transform)
    with pytest.raises(AssertionError, match="subset transform on 8 vertices"):
        psi(random_multilinear(random.Random(9), ZZ, 8, 50))  # the patch is on psi's path
    f = MultilinearPoly(len(sigma), ZZ, {sigma: 1})
    start = time.perf_counter()
    got = psi(f)
    assert time.perf_counter() - start < 1.0
    supports = [frozenset({k}) for k in range(1, len(sigma) + 1)]
    pairs = inversion_pairs(supports, sigma)
    if sigma == path_permutation(20):
        walk = [k + 1 if k % 2 else k - 1 for k in range(1, 21)]  # 2 1 4 3 ... 20 19
        assert sorted(map(sorted, pairs)) == sorted(map(sorted, zip(walk, walk[1:])))
        assert got == epsilon.exp_map(CoeffRing(ZZ), pairs)
    else:
        # disjoint supports: the product of the triangles' exps
        triangle = oracle_exp([(1, 2), (1, 3), (2, 3)])
        want = {ONE: 1}
        for k in range(0, len(sigma), 3):
            shifted = {(t, tuple(i + k for i in eps)): c for (t, eps), c in triangle.items()}
            want = {
                (ta + tb, ea + eb): ca * cb for (ta, ea), ca in want.items() for (tb, eb), cb in shifted.items()
            }
        want = {((t & 1), eps): c << (t >> 1) for (t, eps), c in want.items()}
        assert len(want) == 5 ** (len(sigma) // 3)
        assert keyed(got) == want


def supports_of(n: int) -> list:
    """The parity supports of the unit words e_1, ..., e_n."""
    return [frozenset({k}) for k in range(1, n + 1)]


def sum_of_exps(f: MultilinearPoly) -> dict:
    """psi(f) over Z or Q by the closed form of each inversion graph's exp."""
    out: dict = {}
    for sigma, c in f.coeffs.items():
        for key, v in exp_graph(inversion_pairs(supports_of(f.n), sigma)).items():
            out[key] = out.get(key, 0) + c * v
    return {k: v for k, v in out.items() if v}


def transforms(monkeypatch) -> list:
    """The vertex counts of the subset transforms run from here on."""
    sizes = []
    transform = epsilon._add_subset_image

    def counted(acc, vertices, members, parity_of):
        sizes.append(len(vertices))
        transform(acc, vertices, members, parity_of)

    monkeypatch.setattr(epsilon, "_add_subset_image", counted)
    return sizes


def expansions(monkeypatch) -> list:
    """The factor lists of every expansion started from here on."""
    done = []
    expand = epsilon._expand

    def counted(factors, *rest):
        done.append(factors)
        return expand(factors, *rest)

    monkeypatch.setattr(epsilon, "_expand", counted)
    return done


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_psi_at_arities_8_to_10_matches_esgn_and_oracle(monkeypatch, ring):
    # many permutations whose sets of inverted letters nest, so groups
    # merge into maximal vertex sets and reach the transform
    sizes = transforms(monkeypatch)
    rng = random.Random(61)
    coeff = CoeffRing(ring)
    for n, count in ((8, 20), (9, 40), (10, 60)):
        f = random_multilinear(rng, ring, n, count)
        by_esgn = coeff.zero()
        for sigma, c in f.coeffs.items():
            by_esgn = by_esgn + esgn(coeff, unit_words(n), sigma).scale(c)
        got = psi(f)
        assert got == by_esgn
        assert keyed(got) == in_ring(ring, sum_of_exps(MultilinearPoly(n, QQ if ring is QQ else ZZ, f.coeffs)))
        assert is_identity(f) == got.is_zero()
    assert sizes and max(sizes) <= 10


def grassmann_consequence(rng, letters) -> dict:
    """u*[[x_a,x_b],x_c]*v for a random arrangement of the letters."""
    order = list(letters)
    rng.shuffle(order)
    k = rng.randint(0, len(order) - 3)
    u, (a, b, c), v = order[:k], order[k:k + 3], order[k + 3:]
    words = {(a, b, c): 1, (b, a, c): -1, (c, a, b): -1, (c, b, a): 1}
    return {tuple(u) + w + tuple(v): s for w, s in words.items()}


def test_psi_of_a_normal_form_input_runs_one_transform(monkeypatch):
    # the shape of an arity-7 normal-form query: every spanning term with a
    # coefficient, plus consequences of [[x,y],z], whose psi is 0
    sizes = transforms(monkeypatch)
    expanded = expansions(monkeypatch)
    rng = random.Random(71)
    coeffs: dict = {}
    for term in spanning_terms(7):
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        for word, v in term.to_poly(ZZ).coeffs.items():
            coeffs[word] = coeffs.get(word, 0) + c * v
    rows = sum_of_exps(MultilinearPoly(7, ZZ, {w: c for w, c in coeffs.items() if c}))
    for _ in range(3):
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        for word, v in grassmann_consequence(rng, range(1, 8)).items():
            coeffs[word] = coeffs.get(word, 0) + c * v
    f = MultilinearPoly(7, ZZ, {w: c for w, c in coeffs.items() if c})
    assert len(f.coeffs) > 200
    assert keyed(psi(f)) == rows
    assert sizes == [7]
    # its words are more than the budget of 7 vertices can pay the fixed
    # cost of expanding: none is expanded before the transform
    assert expanded == []


def shuffled_blocks(rng, n, blocks, count):
    """count permutations of 1..n, each shuffling the letters of one of
    the blocks (index ranges) in turn and fixing the rest."""
    coeffs = {}
    for k in range(count):
        sigma = list(range(1, n + 1))
        lo, hi = blocks[k % len(blocks)]
        part = sigma[lo:hi]
        rng.shuffle(part)
        sigma[lo:hi] = part
        coeffs[tuple(sigma)] = rng.choice((-3, -2, -1, 1, 2, 3))
    return MultilinearPoly(n, ZZ, coeffs)


def test_psi_of_disjoint_blocks_transforms_each_block(monkeypatch):
    # half the permutations shuffle letters 1-10, half 15-24: one
    # transform per block of at most 10 vertices, not one of 20 or 24
    sizes = transforms(monkeypatch)
    f = shuffled_blocks(random.Random(81), 24, [(0, 10), (14, 24)], 100)
    got = psi(f)
    assert sorted(sizes) == [10, 10]
    assert keyed(got) == sum_of_exps(f)


def test_psi_keeps_a_small_block_out_of_a_large_sparse_group(monkeypatch):
    # one sparse permutation of 18 letters, expanded, and 60 dense
    # permutations of letters 1-12: merging them into the 18-letter group
    # would make it run a transform over all 18 letters
    sizes = transforms(monkeypatch)
    rng = random.Random(83)
    dense = shuffled_blocks(rng, 18, [(0, 12)], 60)
    f = MultilinearPoly(18, ZZ, {**dense.coeffs, reversed_triples(18): 1})
    start = time.perf_counter()
    got = psi(f)
    assert time.perf_counter() - start < 1.0
    assert sizes and max(sizes) <= 12
    coeff = CoeffRing(ZZ)
    want = coeff.zero()
    for sigma, c in f.coeffs.items():
        want = want + epsilon.exp_map(coeff, inversion_pairs(supports_of(18), sigma)).scale(c)
    assert got == want


@pytest.mark.parametrize("ring", [ModRing(4), ModRing(6), GF(3)], ids=["Z4", "Z6", "F3"])
def test_is_identity_when_the_int_sums_vanish_only_in_the_ring(ring):
    # the representatives m - 1 of -1 leave nonzero int sums that are
    # multiples of m
    rng = random.Random(89)
    for _ in range(20):
        coeffs: dict = {}
        for _ in range(rng.randint(1, 3)):
            c = rng.choice((-2, -1, 1, 2))
            for word, v in grassmann_consequence(rng, range(1, 7)).items():
                coeffs[word] = coeffs.get(word, 0) + c * v
        f = MultilinearPoly(6, ring, {w: ring.from_int(c) for w, c in coeffs.items() if ring.from_int(c)})
        assert is_identity(f)
        word = next(iter(f.coeffs), tuple(range(1, 7)))
        g = f + MultilinearPoly.monomial(6, ring, word)
        assert not is_identity(g)


def test_non_divisible_character_sum_raises_under_optimize():
    # The character sum of a GF(2) quadratic form on S is 0 or divisible
    # by 2^ceil(|S|/2), so no graph reaches the check; breaking the subset
    # masks makes the parity of the triangle on 1, 2, 3 odd on the full set
    # only, a cubic form whose sum is 2, not divisible by 4.  exp_sum
    # expands so small a graph as a product of binomials, so the test
    # calls the transform itself.
    code = (
        "from epsgrass import epsilon\n"
        "masks, ones, memo = epsilon._field_masks(3, 1)\n"
        "epsilon._FIELD_MASKS[3, 1] = ([1 << 56] * 3, ones, memo)\n"
        "try:\n"
        "    epsilon._add_subset_image({}, (1, 2, 3), [([(1, 2), (2, 3), (1, 3)], 1)], epsilon._edge_parity)\n"
        "except epsilon.InternalError as err:\n"
        "    print('raised:', err)\n"
    )
    src = os.path.dirname(os.path.dirname(epsilon.__file__))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised: character sum -2 on (1, 2, 3) is not divisible by 2^2")


def full_support_perms(rng, n, count) -> list:
    """count distinct permutations of 1..n with every letter in an
    inversion: no prefix of k < n places holds 1..k."""
    out: set = set()
    while len(out) < count:
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        if all(max(sigma[:k]) > k for k in range(1, n)):
            out.add(tuple(sigma))
    return sorted(out)


def in_ring_coefficient(ring, c):
    return c if ring is QQ else ring.from_int(c)


def oracle_psi(ring, f: MultilinearPoly) -> dict:
    """psi(f) by the closed form of each exp, over Z (Q for QQ) and then
    reduced into the ring."""
    return in_ring(ring, sum_of_exps(MultilinearPoly(f.n, QQ if ring is QQ else ZZ, f.coeffs)))


def parity_by_definition(vertices, masks, sigma) -> int:
    """The parity word of sigma's inversion graph on ``vertices``: the XOR
    over the inversions a > b inside the vertex set of at[a] & at[b];
    letters outside the vertex set are skipped."""
    at = dict(zip(vertices, masks))
    want = 0
    for i, a in enumerate(sigma):
        for b in sigma[i + 1:]:
            if a > b and a in at and b in at:
                want ^= at[a] & at[b]
    return want


@pytest.mark.parametrize("width", [1, 2, 3, 8])
def test_inversion_parity_words_at_every_table_width(monkeypatch, width):
    # the parity word from the tables and rows against its definition
    monkeypatch.setattr(comodule, "_TABLE_WIDTH", width)
    rng = random.Random(103)
    for k in range(13):
        vertices = tuple(sorted(rng.sample(range(1, 15), k)))
        masks, _, memo = epsilon._field_masks(k, 1)
        parity = comodule._inversion_parity(vertices, masks, 1 << k, memo)
        for _ in range(6):
            sigma = list(range(1, 15))
            rng.shuffle(sigma)
            assert parity(sigma) == parity_by_definition(vertices, masks, sigma), (vertices, sigma)


def test_inversion_parity_after_the_table_width_changes(monkeypatch):
    # the tables are kept in the shape's _FIELD_MASKS entry by their
    # chunks: a width patched once the shape's tables are built cuts new
    # tables, and a width that cuts the same chunks finds them again
    # (widths 8 and 5 both cut 10 vertices in two).  Clearing the field
    # masks drops the tables with them, and a shape above _MEMO_VERTICES
    # builds its tables per call, here through psi's transform.
    builds = []
    build = comodule._xor_tables

    def counted(masks, chunks):
        builds.append(len(chunks))
        return build(masks, chunks)

    monkeypatch.setattr(comodule, "_xor_tables", counted)
    monkeypatch.setattr(epsilon, "_FIELD_MASKS", {})
    rng = random.Random(113)
    vertices = tuple(range(2, 12))
    sigmas = [rng.sample(range(1, 13), 12) for _ in range(20)]
    for clear in (False, True):
        if clear:
            monkeypatch.setattr(epsilon, "_FIELD_MASKS", {})
        masks, _, memo = epsilon._field_masks(10, 1)
        want = [parity_by_definition(vertices, masks, sigma) for sigma in sigmas]
        for width in (8, 3, 8, 1, 5, 3):
            monkeypatch.setattr(comodule, "_TABLE_WIDTH", width)
            parity = comodule._inversion_parity(vertices, masks, 1 << 10, memo)
            assert [parity(sigma) for sigma in sigmas] == want, width
        assert builds == [2, 4, 10] * (1 + clear)
        tables = memo[(0, 2), (2, 5), (5, 7), (7, 10)]  # of width 3
        assert [len(rows) for _, rows in tables] == [2, 3, 2, 3] and tables[0][0] is None
    del builds[:]
    vertices = tuple(range(1, 14))
    members = [(tuple(rng.sample(vertices, 13)), rng.choice((-2, 1, 3))) for _ in range(4)]
    images = []
    for _ in range(2):
        images.append({})
        epsilon._add_subset_image(images[-1], vertices, members, comodule._inversion_parity)
    assert images[0] == images[1] and builds == [5, 5]  # 13 vertices at width 3
    assert list(epsilon._FIELD_MASKS) == [(10, 1)]


@pytest.mark.parametrize("k", range(13))
def test_subset_transform_of_inversion_words_on_every_vertex_count(monkeypatch, k):
    # the transform alone on k vertices, from the inversion parity words of
    # permutations of 1..14, for two letter sets of each size in turn, which
    # share the shape's memoized tables: against the closed form of each exp
    rng = random.Random(107 + k)
    for _ in range(2):
        vertices = tuple(sorted(rng.sample(range(1, 15), k)))
        supports = [frozenset({v} & set(vertices)) for v in range(1, 15)]
        members = []
        for _ in range(12 if k <= 8 else 2):
            sigma = list(range(1, 15))
            rng.shuffle(sigma)
            members.append((tuple(sigma), rng.choice((-5, -3, -2, -1, 1, 2, 3, 7))))
        acc: dict = {}
        epsilon._add_subset_image(acc, vertices, members, comodule._inversion_parity)
        want: dict = {}
        for sigma, c in members:
            for key, v in exp_graph(inversion_pairs(supports, sigma)).items():
                want[key] = want.get(key, 0) + c * v
        got = {epsilon.monomial_key(m): c for m, c in acc.items() if c}
        assert got == {key: v for key, v in want.items() if v}, vertices
    if k == 0:  # x1 is in no inversion: check-identity transforms on no vertex
        sizes = transforms(monkeypatch)
        assert main(["check-identity", "x1", "--vars", "1"]) == 1
        assert sizes == [0]


@pytest.mark.parametrize(
    "total", [255, 256, 65535, 65536, 2**24 - 1, 2**24, 2**32 - 1, 2**32, 2**64 - 1, 2**64]
)
@pytest.mark.parametrize("ring", [ZZ, QQ], ids=["Z", "Q"])
def test_psi_at_the_field_width_edges(monkeypatch, ring, total):
    # sum |c| = 255 fills a field of one byte and 256 takes two; 65535 and
    # 65536 likewise for two and three, and so on up to fields of 9 bytes:
    # the widths 1, 2, 4 and 8 are read in one cast, 3, 5 and 9 field by
    # field.  Over Q the coefficients are sixths, so the scaled ints reach
    # the edge.  Mixed signs, then all negative: a negative c scatters |c|
    # into the clear fields.
    widths = []
    field_masks = epsilon._field_masks

    def recorded(k, nbytes):
        widths.append(nbytes)
        return field_masks(k, nbytes)

    monkeypatch.setattr(epsilon, "_field_masks", recorded)
    sizes = transforms(monkeypatch)
    rng = random.Random(total)
    perms = full_support_perms(rng, 6, 40)
    parts = [total // 40] * 40
    parts[-1] = 1  # a sixth in lowest terms, so the common denominator is 6
    parts[0] += total - sum(parts)
    for signs in ([rng.choice((1, -1)) for _ in parts], [-1] * 40):
        coeffs = {
            sigma: Fraction(s * part, 6) if ring is QQ else s * part
            for sigma, s, part in zip(perms, signs, parts)
        }
        f = MultilinearPoly(6, ring, coeffs)
        assert keyed(psi(f)) == oracle_psi(ring, f)
    assert sizes == [6, 6]
    assert widths == [(total.bit_length() + 7) // 8] * 2


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_psi_on_9_to_12_letters_with_chunked_tables(monkeypatch, ring):
    # one group per input on all n letters, whose tables are cut into
    # chunks: 8 + 1 vertices at 9 and 7 + 5 at 12
    sizes = transforms(monkeypatch)
    rng = random.Random(97)
    for n, count in ((9, 24), (10, 16), (11, 10), (12, 6)):
        coeffs = {}
        for sigma in full_support_perms(rng, n, count):
            c = in_ring_coefficient(ring, sample_coefficient(rng, ring))
            if not ring.is_zero(c):
                coeffs[sigma] = c
        f = MultilinearPoly(n, ring, coeffs)
        got = psi(f)
        assert keyed(got) == oracle_psi(ring, f)
        assert is_identity(f) == got.is_zero()
    assert set(sizes) == {9, 10, 11, 12}


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_psi_of_a_group_both_expanded_and_transformed(monkeypatch, ring):
    # on 11 letters the exact supports decide the groups: five sparse
    # permutations, each five disjoint adjacent transpositions on 10
    # letters, join the group of twelve dense permutations of 11 letters
    # (a support of 10 letters joins a group of up to 12); the budget pays
    # the bounds of their expansions, smallest support first, and the bound
    # of the first dense graph overruns it, so the dense ones go through
    # the transform
    sizes = transforms(monkeypatch)
    expanded = expansions(monkeypatch)
    rng = random.Random(101)
    coeffs = {}
    for skipped in range(1, 10, 2):
        rest = [v for v in range(1, 12) if v != skipped]
        sigma = list(range(1, 12))
        for a, b in zip(rest[::2], rest[1::2]):
            sigma[a - 1], sigma[b - 1] = b, a
        coeffs[tuple(sigma)] = sample_coefficient(rng, ring)
    for sigma in full_support_perms(rng, 11, 12):
        coeffs[sigma] = sample_coefficient(rng, ring)
    coeffs = {w: in_ring_coefficient(ring, c) for w, c in coeffs.items()}
    f = MultilinearPoly(11, ring, {w: c for w, c in coeffs.items() if not ring.is_zero(c)})
    assert keyed(psi(f)) == oracle_psi(ring, f)
    assert sizes == [11]
    assert sorted(map(len, expanded)) == [5] * 5


def test_psi_of_the_reversed_14_letter_word_starts_no_expansion(monkeypatch):
    # the inversion graph is the complete graph on 14 letters: bounding its
    # expansion by 2^15 - 1 + 76 * 2^15 term visits, far past the budget of
    # 14 * 2^14 / 4, sends it to the transform before any pass is made
    sigma = tuple(range(14, 0, -1))
    f = MultilinearPoly(14, ZZ, {sigma: 1})
    want = sum_of_exps(f)
    sizes = transforms(monkeypatch)
    expanded = expansions(monkeypatch)
    assert keyed(psi(f)) == want
    assert expanded == []
    assert sizes == [14]


UNITS = (-5, -1, 1, 5, 7)  # units of Z/4, Z/6 and GF(3) as well


def disjoint_transpositions(n, first) -> tuple:
    """(first first+1)(first+2 first+3)... on 1..n, the rest fixed."""
    sigma = list(range(1, n + 1))
    for a in range(first, n, 2):
        sigma[a - 1], sigma[a] = a + 1, a
    return tuple(sigma)


def inverted_letters(sigma) -> int:
    """The mask of the letters of sigma in an inversion, by definition."""
    mask = 0
    for i, a in enumerate(sigma):
        for b in sigma[i + 1:]:
            if a > b:
                mask |= 1 << a | 1 << b
    return mask


def block_words(n, letters, sign) -> dict:
    """The permutations of ``letters`` in their places, the other letters
    of 1..n fixed, with their signs (or 1)."""
    out = {}
    for image in permutations(letters):
        sigma = list(range(1, n + 1))
        for a, b in zip(letters, image):
            sigma[a - 1] = b
        out[tuple(sigma)] = inversion_sign(image) if sign else 1
    return out


def inversion_sign(sigma) -> int:
    return (-1) ** sum(a > b for i, a in enumerate(sigma) for b in sigma[i + 1:])


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_psi_on_1_to_11_letters_across_the_grouping_rule(monkeypatch, ring):
    # sparse words, the identity permutation and adjacent transpositions
    # (letters in no inversion), alone and mixed with dense permutations,
    # with unit coefficients (fractions over Q, the identity's a third).
    # Sparse words keep the exact supports.  Up to 10 letters a monomial
    # that inverts every letter makes its group the only one, and every
    # later monomial gets the support of all n letters unread, so every
    # transform runs on n vertices; at 11 the exact supports decide the
    # groups again: the transposition's two letters, which the identity's
    # empty support joins, and all 11 for the rest.  A transform on all
    # n <= _TABLE_WIDTH letters reads its permutations from a list by letter.
    sizes = transforms(monkeypatch)
    lists = []
    reader = comodule._inversion_parity

    def recorded(vertices, masks, word_bytes, memo, n=0):
        lists.append(len(vertices) == n)
        return reader(vertices, masks, word_bytes, memo, n)

    monkeypatch.setattr(comodule, "_inversion_parity", recorded)
    rng = random.Random(131)
    for n in range(1, 12):
        identity = tuple(range(1, n + 1))
        sparse = {identity, disjoint_transpositions(n, 1 + n % 2)}
        if n > 1:
            k = rng.randint(1, n - 1)
            sparse.add(identity[:k - 1] + (k + 1, k) + identity[k + 1:])
        # dense: every letter in an inversion, as only 1, 1 and 3 permutations
        # of 1, 2 and 3 letters have it (none of 1 letter)
        dense = full_support_perms(rng, n, {1: 1, 2: 1, 3: 3}.get(n, 3 if n >= 10 else 2 * n))
        for words in (sparse, sparse | set(dense)):
            coeffs = {}  # the identity, then the words on all n letters, then the rest
            for w in sorted(words, key=lambda w: (w != identity, inverted_letters(w) != (2 << n) - 2, w)):
                c = rng.choice(UNITS)
                coeffs[w] = Fraction(c, rng.choice((1, 2, 3))) if ring is QQ else ring.from_int(c)
            if ring is QQ:
                coeffs[identity] = Fraction(1, 3)
            f = MultilinearPoly(n, ring, coeffs)
            supports = {perm: support for support, perm, _ in comodule._support_items(f)}
            exact = {w: inverted_letters(w) for w in words}
            one_group = n <= 10 and (2 << n) - 2 in exact.values()
            want, unread = {}, False  # the monomials after the first on all n letters
            for w in f.coeffs:
                want[w] = (2 << n) - 2 if unread else exact[w]
                unread = unread or one_group and exact[w] == (2 << n) - 2
            assert supports == want, n
            if words is sparse and n % 2:  # the transpositions from 2 leave letter 1 be
                assert not one_group
            elif words is not sparse and 1 < n < 11:
                assert one_group
            del sizes[:], lists[:]
            got = psi(f)
            assert lists == [size == n <= comodule._TABLE_WIDTH for size in sizes], n
            if one_group and n < 10:  # the group of all n letters may expand every member
                assert set(sizes) <= {n}, (n, sizes)
            elif words is not sparse and n >= 10:
                assert sorted(sizes) == ([10] if n == 10 else [2, 11])
            assert keyed(got) == oracle_psi(ring, f), n
            assert is_identity(f) == got.is_zero()


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_psi_of_dense_blocks_on_few_of_10_letters(monkeypatch, ring):
    # many monomials that move only a few of the letters keep the exact
    # supports: a signed block of 4 letters, at the front and at the back,
    # transforms on its 4 vertices, not on all 10; two disjoint blocks
    # summed transform on 4 vertices each
    sizes = transforms(monkeypatch)
    front, back = block_words(10, (1, 2, 3, 4), True), block_words(10, (7, 8, 9, 10), False)
    both = {w: front.get(w, 0) + back.get(w, 0) for w in {**front, **back}}
    for coeffs, want in ((front, [4]), (back, [4]), (both, [4, 4])):
        coeffs = {w: in_ring_coefficient(ring, c) for w, c in coeffs.items() if c}
        f = MultilinearPoly(10, ring, {w: c for w, c in coeffs.items() if not ring.is_zero(c)})
        assert {s for s, _, _ in comodule._support_items(f)} == set(map(inverted_letters, f.coeffs))
        del sizes[:]
        got = psi(f)
        assert sorted(sizes) == want
        assert keyed(got) == oracle_psi(ring, f)
        assert is_identity(f) == got.is_zero()


def test_one_chunk_parity_words_match_their_definition():
    # a chunk on all the letters 1..n of the permutations reads them from a
    # list by letter; a chunk among more letters (1..k of n > k, or any
    # other set) reads them by the chunk's dict, which skips the letters
    # outside it
    rng = random.Random(137)
    for k in range(1, comodule._TABLE_WIDTH + 1):
        for vertices in [tuple(range(1, k + 1))] + [tuple(sorted(rng.sample(range(1, 13), k))) for _ in range(3)]:
            masks = epsilon._field_masks(k, 1)[0]
            for n in sorted({vertices[-1], vertices[-1] + 1, 13, 14}):
                memo: dict = {}
                parity = comodule._inversion_parity(vertices, masks, 1 << k, memo, n)
                assert list(memo) == [((0, k),)]  # one chunk
                by_dict = comodule._inversion_parity(vertices, masks, 1 << k, memo)
                assert (parity.__code__ is by_dict.__code__) == (n > k)
                for _ in range(5):
                    sigma = list(range(1, n + 1))
                    rng.shuffle(sigma)
                    assert parity(sigma) == parity_by_definition(vertices, masks, sigma), (vertices, sigma)


def adjacent_products(rng, n) -> tuple:
    """A product of one or two adjacent transpositions of 1..n."""
    sigma = list(range(1, n + 1))
    for _ in range(rng.randint(1, 2)):
        k = rng.randrange(n - 1)
        sigma[k], sigma[k + 1] = sigma[k + 1], sigma[k]
    return tuple(sigma)


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_sign_sums_hold_no_zero_value(ring):
    # expansions that cancel on a mask, and groups whose transforms meet on
    # one, leave no key with the value 0: psi(2*x1x3x2 - x1x2x3 - x2x1x3)
    # has no constant term, and sums of products of adjacent
    # transpositions cancel on many masks
    f = MultilinearPoly(3, ZZ, {(1, 3, 2): 2, (1, 2, 3): -1, (2, 1, 3): -1})
    assert comodule._sign_sum(f) == ({12: -2, 6: 1}, 1)
    rng = random.Random(139)
    for n in range(2, 13):
        for _ in range(6):
            coeffs: dict = {}
            for _ in range(rng.randint(2, 6)):
                sigma = adjacent_products(rng, n)
                coeffs[sigma] = coeffs.get(sigma, 0) + rng.choice(UNITS)
            coeffs = {w: in_ring_coefficient(ring, c) for w, c in coeffs.items()}
            f = MultilinearPoly(n, ring, {w: c for w, c in coeffs.items() if not ring.is_zero(c)})
            acc, _ = comodule._sign_sum(f)
            assert all(acc.values()), n
            assert keyed(psi(f)) == oracle_psi(ring, f), n
