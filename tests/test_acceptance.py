"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime (run with ``pytest -s tests/test_acceptance.py`` to see
them).  All tolerances are exact; the stated time budgets are asserted.
"""

import json
import pathlib
import random
import time

from epsgrass import (
    CoeffRing,
    GF,
    GrassAlgebra,
    ModRing,
    QQ,
    ZZ,
    commutator,
    esgn,
    permute_words,
    phi_sigma,
    quotient_mod_theta,
)
from epsgrass.comodule import comodule_rank, freeness_certificate, unit_words
from epsgrass.cli import main as cli_main
from epsgrass.expr import compile_grass, parse
from epsgrass.hull import (
    Matrix,
    SuperTraceContext,
    all_sign_maps,
    eval_trace_poly,
    hull_eval_factorization,
    grassmann_involution,
    idempotent_system_check,
    lambda_idempotent,
    projected_commutation_check,
)
from epsgrass.salg import SAlgebra
from epsgrass.supertrace import TraceArgumentError, is_trace_identity, trace_normalize

from conftest import random_grass_elem, random_perm, random_word, zz_algebra
from test_hull import random_graded_poly
from test_supertrace import (
    _random_matrix,
    _random_trace_poly,
    axiom_polys,
    derived_polys,
    random_axiom_consequence,
)

DATA = pathlib.Path(__file__).parent / "data"


def report(num, description, started, budget):
    elapsed = time.time() - started
    print(f"criterion {num}: PASS ({description}; {elapsed:.2f}s < {budget}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_s3_sign_table(capsys):
    started = time.time()
    coeff = CoeffRing(ZZ)
    w = unit_words(3)
    e1, e2, e3, th, one = (
        coeff.eps(1),
        coeff.eps(2),
        coeff.eps(3),
        coeff.theta(),
        coeff.one(),
    )
    expected = {
        (1, 2, 3): one,
        (2, 1, 3): one - e1 * e2,
        (1, 3, 2): one - e2 * e3,
        (3, 2, 1): one - e1 * e2 - e2 * e3 - e1 * e3 + th * e1 * e2 * e3,
        (2, 3, 1): one - e1 * e2 - e1 * e3 + th * e1 * e2 * e3,
        (3, 1, 2): one - e1 * e3 - e2 * e3 + th * e1 * e2 * e3,
    }
    for sigma, value in expected.items():
        assert esgn(coeff, w, sigma) == value, sigma
    assert cli_main(["signs", "--n", "3"]) == 0
    out = capsys.readouterr().out
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    for sigma, value in expected.items():
        key = "".join(map(str, sigma))
        assert lines[key] == value.render(), sigma
    with capsys.disabled():
        report(1, "all six S3 signs reproduced verbatim", started, 1.0)


def test_criterion_2_comodule_rank(capsys):
    started = time.time()
    for n in range(1, 8):
        for ring in (ZZ, QQ, GF(2), GF(3)):
            assert comodule_rank(n, ring) == 2 ** (n - 1), (n, ring)
    with capsys.disabled():
        report(2, "rank 2^(n-1) for n=1..7 over Z, Q, F2, F3", started, 60.0)


def test_criterion_3_freeness_certificate(capsys):
    started = time.time()
    for n in range(1, 7):
        assert freeness_certificate(n), n
    with capsys.disabled():
        report(3, "all-ones Smith diagonal for n=1..6", started, 60.0)


def test_criterion_4_grassmann_identity_suite(capsys):
    started = time.time()
    rng = random.Random(40)
    algebra = zz_algebra()

    def elem():
        return random_grass_elem(
            rng, algebra, max_index=4, max_len=3, nterms=3, lo=-3, hi=3
        )

    for _ in range(200):
        x, y, z = elem(), elem(), elem()
        assert commutator(x, commutator(y, z)).is_zero()
    for _ in range(200):
        x, u, v, z = elem(), elem(), elem(), elem()
        assert (
            commutator(x, u) * commutator(v, z)
            + commutator(x, v) * commutator(u, z)
        ).is_zero()
    for _ in range(200):
        x, y, z = elem(), elem(), elem()
        assert (commutator(x, y) * commutator(y, z)).is_zero()
    with capsys.disabled():
        report(4, "600 random identity instances vanish exactly", started, 30.0)


def test_criterion_5_sign_cocycle(capsys):
    started = time.time()
    rng = random.Random(50)
    coeff = CoeffRing(ZZ)

    def compose(s, t):
        return tuple(s[t[i] - 1] for i in range(len(s)))

    for _ in range(500):
        n = rng.randint(2, 6)
        words = [random_word(rng, max_index=6, max_len=3) for _ in range(n)]
        sigma, tau = random_perm(rng, n), random_perm(rng, n)
        assert esgn(coeff, words, compose(sigma, tau)) == esgn(
            coeff, words, sigma
        ) * esgn(coeff, permute_words(words, sigma), tau)
    for _ in range(500):
        n = rng.randint(2, 6)
        words = unit_words(n)
        sigma, tau = random_perm(rng, n), random_perm(rng, n)
        smap = {i + 1: sigma[i] for i in range(n)}
        assert esgn(coeff, words, compose(sigma, tau)) == esgn(
            coeff, words, sigma
        ) * phi_sigma(smap, esgn(coeff, words, tau))
    with capsys.disabled():
        report(5, "both cocycle laws on 500 random samples each", started, 30.0)


def test_criterion_6_idempotent_system(capsys):
    started = time.time()
    for ring in (QQ, ModRing(5)):
        coeff = CoeffRing(ring)
        for size in range(0, 5):
            lambdas = [
                lambda_idempotent(coeff, s) for s in all_sign_maps(range(1, size + 1))
            ]
            for lam in lambdas:
                assert lam * lam == lam
            assert idempotent_system_check(coeff, range(1, size + 1))
        algebra = GrassAlgebra(coeff)
        for size in range(0, 4):
            for signs in all_sign_maps(range(1, size + 1)):
                assert projected_commutation_check(algebra, signs)
    with capsys.disabled():
        report(
            6,
            "idempotence, orthogonality, sum 1 (|X|<=4) and projected "
            "commutation (|X|<=3) over Q and Z/5",
            started,
            30.0,
        )


def test_criterion_7_involution_and_hull(capsys):
    started = time.time()
    rng = random.Random(70)
    CQ = CoeffRing(QQ)
    for _ in range(200):
        n = rng.randint(1, 5)
        f = random_graded_poly(rng, CQ, n)
        assert grassmann_involution(grassmann_involution(f)) == f
    S = SAlgebra(CQ)
    for _ in range(100):
        n = rng.randint(1, 3)
        f = random_graded_poly(rng, CQ, n, max_index=4)
        mats, words = [], []
        for i in range(n):
            rows = [[QQ.sample(rng) for _ in range(2)] for _ in range(2)]
            mats.append(
                (Matrix([[CQ.scalar(v) for v in row] for row in rows], CQ.zero()), f.grades[i])
            )
            grade = f.grades[i] if f.grades[i] else frozenset()
            words.append(S.monomial([(grade, rng.randint(1, 3))]))
        assert hull_eval_factorization(f, mats, words)
    with capsys.disabled():
        report(
            7,
            "200 double involutions and 100 hull factorizations over M2(Q)",
            started,
            60.0,
        )


def test_criterion_8_trace_axioms_and_normalizer(capsys):
    started = time.time()
    for f in axiom_polys() + derived_polys():
        assert is_trace_identity(f)
    rng = random.Random(80)
    count = 0
    while count < 100:
        f = random_axiom_consequence(rng, max_letters=5)
        try:
            verdict = is_trace_identity(f)
        except TraceArgumentError:
            continue
        assert verdict, f.render()
        count += 1
    algebra = zz_algebra()
    substitutions = 0
    while substitutions < 200:
        n = rng.randint(2, 4)
        f = _random_trace_poly(rng, n)
        try:
            sf = trace_normalize(f)
        except TraceArgumentError:
            continue
        g = f - sf.to_trace_poly()
        ctx = SuperTraceContext(2, algebra)
        for _ in range(4):
            subs = [_random_matrix(rng, ctx, algebra) for _ in range(n)]
            assert eval_trace_poly(g, ctx, subs).is_zero()
            substitutions += 1
    with capsys.disabled():
        report(
            8,
            "7 identity polynomials, 100 consequences and 200 soundness "
            "substitutions in M2",
            started,
            120.0,
        )


def test_criterion_9_finite_field_separation(capsys):
    started = time.time()
    rng = random.Random(90)
    algebra = GrassAlgebra(CoeffRing(GF(3)))
    coeff = algebra.coeff
    # projected anticommuting model over F3 (1/2 = 2): all signs -1
    signs = {1: -1, 2: -1, 3: -1}
    lam = lambda_idempotent(coeff, signs)
    from itertools import combinations

    basis = [algebra.from_coeff(lam)]
    for r in range(1, 4):
        for combo in combinations((1, 2, 3), r):
            word = algebra.one()
            for a in combo:
                word = word * algebra.gen(a)
            basis.append(word.scale_coeff(lam))

    def sample():
        acc = algebra.zero()
        for b in basis:
            acc = acc + b.scale_int(rng.randrange(3))
        return acc

    def value(x, y):
        return x**9 * y**3 - x**3 * y**9

    for _ in range(50):
        assert value(sample(), sample()).is_zero()
    # stored witness where the same polynomial does not vanish
    fixture = json.loads((DATA / "finite_field_witness.json").read_text())
    x = compile_grass(parse(fixture["x"]), algebra)
    y = compile_grass(parse(fixture["y"]), algebra)
    val = value(x, y)
    assert not val.is_zero()
    assert val.render() == fixture["value_render"]
    assert len(val.terms) == fixture["nonzero_terms"]
    with capsys.disabled():
        report(
            9,
            "x^9y^3 - x^3y^9 vanishes on 50 projected samples, witness "
            f"x={fixture['x']}, y={fixture['y']} is nonzero",
            started,
            120.0,
        )


def test_criterion_10_mod_theta_quotient(capsys):
    started = time.time()
    algebra = zz_algebra()
    sample = quotient_mod_theta(algebra.one())
    q = sample.algebra
    qc = q.coeff
    for i in range(1, 5):
        assert (qc.eps(i) * qc.eps(i)).is_zero(), i
        for j in range(1, 5):
            lhs = commutator(q.gen(i), q.gen(j))
            rhs = (q.gen(i) * q.gen(j)).scale_coeff(qc.eps(i) * qc.eps(j))
            assert lhs == rhs, (i, j)
    # the quotient map kills theta
    x = algebra.gen(1).scale_coeff(algebra.coeff.theta())
    assert quotient_mod_theta(x).is_zero()
    with capsys.disabled():
        report(10, "quotient relations eps_i^2=0, [e_i,e_j]=eps_i eps_j e_i e_j over Z/2", started, 5.0)
