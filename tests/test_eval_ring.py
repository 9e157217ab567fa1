"""Expressions computed in a ring's evaluation ring and mapped into it.

The command line computes an expression over Q on ints, in the integers
of Q (``QQ.eval_ring``), and over Z and Z/m in the ring itself, then maps
the value into the ring once (``WordAlgebra.base_change``,
``TracePoly.base_change``, ``MultilinearPoly.from_word_poly``).  Every
value must equal the one computed straight in the ring, over Z, Q, Z/4,
Z/6, Z/3 and GF(3); so must the integral value over Z, mapped the same
way.  Z and Q print integers of at most ``MAX_DIGITS`` digits and refuse
longer ones with the CLI's own message.
"""

import random
from fractions import Fraction

import pytest

from epsgrass import GF, QQ, ZZ, GrassAlgebra, ModRing
from epsgrass.cli import main
from epsgrass.comodule import MultilinearPoly, is_identity
from epsgrass.expr import MAX_DIGITS, compile_grass, compile_trace_poly, parse
from epsgrass.grassmann import quotient_mod_theta
from epsgrass.rings import RingMismatchError
from epsgrass.terms import TracePoly

RINGS = [ZZ, QQ, ModRing(4), ModRing(6), ModRing(3), GF(3)]
RING_IDS = ["Z", "Q", "Z4", "Z6", "Z3", "F3"]


def random_grass_text(rng, depth=3) -> str:
    """Sums, products, [,], {,}, theta, eps and generators e1..e3, so
    that products repeat generators."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(
            [str(rng.randint(0, 7)), "theta", f"eps{rng.randint(1, 3)}", f"e{rng.randint(1, 3)}"]
        )
    a, b = random_grass_text(rng, depth - 1), random_grass_text(rng, depth - 1)
    return rng.choice([f"({a} + {b})", f"({a} - {b})", f"{a}*{b}", f"[{a},{b}]", f"{{{a},{b}}}", f"(-{a})"])


def random_trace_text(rng, depth=3) -> str:
    """Sums, products, [,] and Tr over x1..x3 and integers."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([str(rng.randint(0, 7)), f"x{rng.randint(1, 3)}", f"x{rng.randint(1, 3)}"])
    a, b = random_trace_text(rng, depth - 1), random_trace_text(rng, depth - 1)
    return rng.choice([f"({a} + {b})", f"({a} - {b})", f"{a}*{b}", f"[{a},{b}]", f"Tr({a})"])


def random_multilinear_text(rng, n) -> str:
    """A sum of multiples of bracketed orderings of x1..xn, with
    coefficients that vanish modulo 2, 3, 4 or 6; for n >= 3, often of
    consequences [[a,b],c]*d of the Grassmann identity."""
    terms = []
    consequences = n >= 3 and rng.random() < 0.4
    for _ in range(rng.randint(1, 4)):
        letters = [f"x{i}" for i in rng.sample(range(1, n + 1), n)]
        if consequences:
            letters[:3] = [f"[[{letters[0]},{letters[1]}],{letters[2]}]"]
        while len(letters) > 1:
            k = rng.randrange(len(letters) - 1)
            a, b = letters[k], letters[k + 1]
            letters[k : k + 2] = [rng.choice([f"[{a},{b}]", f"{a}*{b}", f"({a}*{b} + {b}*{a})"])]
        c = rng.choice(["1", "2", "3", "4", "6", "12", "(-5)"])
        terms.append(f"{c}*{letters[0]}")
    return " + ".join(terms)


@pytest.mark.parametrize("truncated", [False, True], ids=["full", "truncated"])
@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_grass_values_equal_the_mapped_integral_values(ring, truncated):
    rng = random.Random(3100 + RINGS.index(ring))
    direct_alg = GrassAlgebra(ring, truncated=truncated)
    eval_alg = GrassAlgebra(ring.eval_ring, truncated=truncated)
    zz_alg = GrassAlgebra(ZZ, truncated=truncated)
    nonzero = 0
    for _ in range(150):
        tree = parse(random_grass_text(rng))
        direct = compile_grass(tree, direct_alg)
        assert direct_alg.base_change(compile_grass(tree, eval_alg)) == direct
        assert direct_alg.base_change(compile_grass(tree, zz_alg)) == direct
        nonzero += not direct.is_zero()
    assert nonzero > 50


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_trace_values_equal_the_mapped_integral_values(ring):
    rng = random.Random(3200 + RINGS.index(ring))
    for _ in range(200):
        tree = parse(random_trace_text(rng))
        direct = compile_trace_poly(tree, ring)
        assert compile_trace_poly(tree, ring.eval_ring).base_change(ring) == direct
        assert compile_trace_poly(tree, ZZ).base_change(ring) == direct


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_check_identity_verdicts_equal_the_direct_ones(ring, capsys):
    rng = random.Random(3300 + RINGS.index(ring))
    spec = {ZZ: "z", QQ: "q"}.get(ring) or f"mod:{ring.m}"
    verdicts = set()
    for _ in range(40):
        n = rng.randint(2, 4)
        text = random_multilinear_text(rng, n)
        tree = parse(text)
        direct = is_identity(MultilinearPoly.from_word_poly(compile_trace_poly(tree, ring), n))
        for calc in (ring.eval_ring, ZZ):
            f = MultilinearPoly.from_word_poly(compile_trace_poly(tree, calc), n, ring)
            assert f.ring is ring
            assert is_identity(f) == direct, text
        code = main(["check-identity", text, "--vars", str(n), "--ring", spec])
        assert capsys.readouterr().out == ("identity\n" if direct else "not an identity\n")
        assert code == (0 if direct else 1)
        verdicts.add(direct)
    assert verdicts == {True, False}


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_normalize_and_trace_check_print_the_direct_values(ring, capsys):
    from epsgrass.supertrace import trace_normalize

    rng = random.Random(3400 + RINGS.index(ring))
    spec = {ZZ: "z", QQ: "q"}.get(ring) or f"mod:{ring.m}"
    for _ in range(30):
        text = random_grass_text(rng)
        assert main(["normalize", text, "--ring", spec]) == 0
        expect = compile_grass(parse(text), GrassAlgebra(ring)).render()
        assert capsys.readouterr().out == expect + "\n"
    for _ in range(10):
        text = random_trace_text(rng, depth=2)
        code = main(["trace-check", text, "--ring", spec])
        out, err = capsys.readouterr()
        try:
            form = trace_normalize(compile_trace_poly(parse(text), ring))
        except ValueError as exc:  # not multilinear
            assert (code, out, err) == (2, "", f"error: {exc}\n")
        else:
            assert code == (0 if form.is_zero() else 1)
            assert out.endswith(f"standard form: {form.render()}\n")


def test_a_vanishing_square_keeps_its_answer_per_ring(capsys):
    # 4*x1*x1 vanishes over Z/4 before the multilinearity check, not over Q
    text = "4*x1*x1 + [x1,x2]"
    assert main(["check-identity", text, "--vars", "2", "--ring", "mod:4"]) == 1
    assert capsys.readouterr() == ("not an identity\n", "")
    assert main(["check-identity", text, "--vars", "2", "--ring", "q"]) == 2
    assert capsys.readouterr() == ("", "error: monomial (1, 1) is not multilinear in x1..x2\n")


def test_the_evaluation_ring_of_q_drops_torsion_at_once():
    calc = QQ.eval_ring
    assert calc != ZZ and ZZ != calc and hash(calc) != hash(ZZ)
    z4 = ModRing(4)
    assert ZZ.eval_ring is ZZ and z4.eval_ring is z4
    assert compile_grass(parse("eps1*e1*e1"), GrassAlgebra(calc)).is_zero()
    assert not compile_grass(parse("eps1*e1*e1"), GrassAlgebra(ZZ)).is_zero()
    with pytest.raises(RingMismatchError):
        GrassAlgebra(calc).gen(1) + GrassAlgebra(ZZ).gen(1)
    with pytest.raises(RingMismatchError):
        TracePoly.letter(calc, 1) * TracePoly.letter(ZZ, 1)


def test_base_change_reduces_to_the_target_residues():
    # Z keeps eps1 on e1^2 as the residue 1; over Q and Z/3 it is 0, and
    # over Z/4 it stays
    x = compile_grass(parse("eps1*e1*e1 + 3*e1*e2"), GrassAlgebra(ZZ))
    assert GrassAlgebra(QQ).base_change(x).render() == "([3]) * e1*e2"
    assert GrassAlgebra(ModRing(3)).base_change(x).is_zero()
    assert GrassAlgebra(ModRing(4)).base_change(x).render() == "([3]) * e1*e2 + ([1]*eps1) * e1^2"
    # the mod-theta quotient is the same base change, into F2 with theta = 0
    y = compile_grass(parse("(3 + theta + 2*eps2)*e1*e2 + theta*e3"), GrassAlgebra(ModRing(4)))
    assert quotient_mod_theta(y).render() == "([1]) * e1*e2"


def test_disjoint_vanishing_squares_over_q(capsys):
    # over Z the product carries 6^5 words; over Q each factor is 0
    factors = [
        "(" + " + ".join(f"eps{i}*e{i}*e{i}" for i in range(6 * k + 1, 6 * k + 7)) + ")"
        for k in range(5)
    ]
    assert main(["normalize", "*".join(factors), "--ring", "q"]) == 0
    assert capsys.readouterr().out == "(0)\n"


BIG = "7" * 3000


@pytest.mark.parametrize("ring", ["z", "q"])
@pytest.mark.parametrize(
    "argv", [["normalize", f"{BIG}*{BIG}*e1"], ["trace-check", f"{BIG}*{BIG}*x1"]], ids=["normalize", "trace-check"]
)
def test_a_coefficient_past_the_digit_bound_exits_2(argv, ring, capsys):
    assert main([*argv, "--ring", ring]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: a coefficient of more than {MAX_DIGITS} digits is not printed\n"


@pytest.mark.parametrize("ring", ["z", "q"])
def test_a_coefficient_at_the_digit_bound_prints_and_parses(ring, capsys):
    # 10^2150 * 10^2149 has 4300 digits, 10^2150 * 10^2150 one more
    a, b = "1" + "0" * 2150, "1" + "0" * 2149
    assert main(["normalize", "--ring", ring, "--", f"-{a}*{b}*e1"]) == 0
    out = capsys.readouterr().out
    assert out == f"([-1{'0' * 4299}]) * e1\n"
    assert main(["normalize", "--ring", ring, "--", f"-1{'0' * 4299}*e1"]) == 0
    assert capsys.readouterr().out == out
    assert main(["normalize", f"{a}*{a}*e1", "--ring", ring]) == 2
    capsys.readouterr()


def test_rendering_refuses_long_integers_and_fractions():
    top = 10**MAX_DIGITS - 1
    assert ZZ.render(-top) == "-" + "9" * MAX_DIGITS
    assert QQ.render(Fraction(top, 3)) == "3" * MAX_DIGITS
    assert QQ.render(Fraction(-7, 3)) == "-7/3"
    for render, value in [
        (ZZ.render, top + 1),
        (ZZ.render, -top - 1),
        (QQ.render, Fraction(top + 1)),
        (QQ.render, Fraction(1, top + 1)),
    ]:
        with pytest.raises(ValueError, match=f"more than {MAX_DIGITS} digits"):
            render(value)
