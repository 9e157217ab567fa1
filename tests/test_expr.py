import pytest

from epsgrass import CoeffRing, GrassAlgebra, ZZ, commutator
from epsgrass.expr import (
    MAX_DIGITS,
    MAX_INDEX,
    MAX_NESTING,
    ExprSyntaxError,
    compile_grass,
    compile_trace_poly,
    parse,
)
from epsgrass.rings import IntegerRing
from epsgrass.supertrace import TracePoly

from conftest import random_grass_elem, zz_algebra


A = zz_algebra()


def test_parse_shapes():
    assert parse("[x1,[x2,x3]]")[0] == "comm"
    ast = parse("Tr(x1*x2) - Tr(x1)*Tr(x2)")
    assert ast[0] == "sub" and ast[1][0] == "tr"
    ast = parse("(1 - eps1*eps2)*e1*e2")
    assert ast[0] == "mul"


def test_parse_grade_annotation():
    # x<k>@{i,...} is not in the grammar: the tokenizer stops at the '@',
    # whatever the indices after it
    with pytest.raises(ExprSyntaxError, match=r"unknown symbol '@\{1,3\}' at line 1, column 3"):
        parse("x2@{1,3}")


def test_parse_errors_have_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("e1 + $")
    assert "column 6" in str(err.value)
    with pytest.raises(ExprSyntaxError):
        parse("[e1, e2")
    with pytest.raises(ExprSyntaxError):
        parse("ep1")


@pytest.mark.parametrize("opening, closing", [("(", ")"), ("Tr(", ")"), ("[x1,", "]"), ("{x1,", "}")])
def test_nesting_bound(opening, closing):
    def nested(depth):
        return opening * depth + "x2" + closing * depth

    assert parse(nested(MAX_NESTING))
    with pytest.raises(ExprSyntaxError, match=f"more than {MAX_NESTING} nested brackets"):
        parse(nested(MAX_NESTING + 1))
    with pytest.raises(ExprSyntaxError):
        parse(nested(3000))


@pytest.mark.parametrize("template", ["eps{}", "e{}", "x{}", "x1@{{2,{}}}"])
def test_index_bound(template):
    if "@" in template:
        # a grade annotation is not syntax: the tokenizer stops at the '@'
        # on either side of the bound
        for k in (MAX_INDEX, MAX_INDEX + 1):
            with pytest.raises(ExprSyntaxError, match=f"unknown symbol '@{{2,{k}' at line 1, column 8"):
                parse("e1 + " + template.format(k))
        return
    assert parse(template.format(MAX_INDEX))
    with pytest.raises(ExprSyntaxError, match=f"index {MAX_INDEX + 1} is above {MAX_INDEX} at line 1, column 6"):
        parse("e1 + " + template.format(MAX_INDEX + 1))
    with pytest.raises(ExprSyntaxError, match="is above"):
        parse(template.format(10**11))


def test_long_chains_cost_no_recursion_depth():
    ring = IntegerRing()
    n = 3000
    f = compile_trace_poly(parse(" + ".join(["x1*x2"] * n) + " - x2*x1"), ring)
    assert f == (TracePoly.letter(ring, 1) * TracePoly.letter(ring, 2)).scale(n) - (
        TracePoly.letter(ring, 2) * TracePoly.letter(ring, 1)
    )
    word = "*".join(["e1"] * n)
    assert compile_grass(parse(f"{word} - {word}"), A).is_zero()


def test_compile_grass_expressions():
    elem = compile_grass(parse("(1 - eps1*eps2)*e1*e2"), A)
    expected = (A.gen(1) * A.gen(2)).scale_coeff(
        A.coeff.one() - A.coeff.eps(1) * A.coeff.eps(2)
    )
    assert elem == expected
    assert compile_grass(parse("[e1,e2]"), A) == commutator(A.gen(1), A.gen(2))
    assert compile_grass(parse("{e1,e2}"), A).is_zero()
    assert compile_grass(parse("theta*theta"), A) == A.from_int(2)


def test_compile_grass_vars_denote_generators():
    assert compile_grass(parse("x1*e2"), A) == A.gen(1) * A.gen(2)
    assert compile_grass(parse("x2 - e2"), A).is_zero()
    with pytest.raises(ExprSyntaxError, match="unknown symbol '@"):
        compile_grass(parse("x1@{1,2}*e2"), A)


def test_compile_word_poly_rejects_generators():
    with pytest.raises(ValueError):
        compile_trace_poly(parse("e1*x2"), ZZ)


def test_compile_trace_poly():
    ring = IntegerRing()
    f = compile_trace_poly(parse("Tr(Tr(x1)*x2) - Tr(x1)*Tr(x2)"), ring)
    x1, x2 = TracePoly.letter(ring, 1), TracePoly.letter(ring, 2)
    assert f == (x1.trace() * x2).trace() - x1.trace() * x2.trace()


def test_roundtrip_grass_render(rng):
    # parse(render_expr(x)) == x on canonical renderings over Z
    for _ in range(50):
        x = random_grass_elem(rng, A, max_index=3, max_len=2, nterms=2)
        back = compile_grass(parse(x.render_expr()), A)
        assert back == x
    z = A.zero()
    assert compile_grass(parse(z.render_expr()), A) == z


def test_roundtrip_mod_ring(rng):
    from epsgrass import GF

    B = GrassAlgebra(CoeffRing(GF(5)))
    for _ in range(30):
        x = random_grass_elem(rng, B, max_index=3, max_len=2, nterms=2)
        assert compile_grass(parse(x.render_expr()), B) == x


def test_roundtrip_trace_render():
    ring = IntegerRing()
    x1, x2, x3 = (TracePoly.letter(ring, i) for i in (1, 2, 3))
    f = (x1 * x2.trace() * x3).trace() - x3 * x1 * x2.trace()
    back = compile_trace_poly(parse(f.render()), ring)
    assert back == f


# Every kind of ExprSyntaxError, with its message, line and column: an
# unknown symbol raises before any parse error, an int token shows
# without quotes, and the end of the text is the token ''.
SYNTAX_ERRORS = [
    ("x1 + + $", "unknown symbol '$'", 1, 8),
    ("x1 2 + $", "unknown symbol '$'", 1, 8),
    ("e1 + @", "unknown symbol '@'", 1, 6),
    ("ep1", "unknown symbol 'ep1'", 1, 1),
    ("x1 + eps", "unknown symbol 'eps'", 1, 6),
    ("theta x", "unknown symbol 'x'", 1, 7),
    ("x٣", "unknown symbol 'x٣'", 1, 1),
    ("٣", "unknown symbol '٣'", 1, 1),
    ("x1 5", "unexpected 5", 1, 4),
    ("x1\t-\n\n 7 8", "unexpected 8", 3, 4),
    ("5 x1", "unexpected 'x1'", 1, 3),
    ("x1)", "unexpected ')'", 1, 3),
    ("x1, x2", "unexpected ','", 1, 3),
    ("x1 + * x2", "unexpected '*'", 1, 6),
    ("- - x1", "unexpected '-'", 1, 3),
    ("x1 +\n  * x2", "unexpected '*'", 2, 3),
    ("x1 +", "unexpected ''", 1, 5),
    ("-", "unexpected ''", 1, 2),
    ("", "unexpected ''", 1, 1),
    ("   ", "unexpected ''", 1, 4),
    ("(x1", "expected ')', found ''", 1, 4),
    ("Tr(x1", "expected ')', found ''", 1, 6),
    ("Tr x1", "expected '(', found 'x1'", 1, 4),
    ("[x1 x2]", "expected ',', found 'x2'", 1, 5),
    ("[x1, x2", "expected ']', found ''", 1, 8),
    ("{x1, x2)", "expected '}', found ')'", 1, 8),
    ("e1 + x1001", f"index 1001 is above {MAX_INDEX}", 1, 6),
    ("e1 + eps1001", f"index 1001 is above {MAX_INDEX}", 1, 6),
    ("(" * 101 + "x1" + ")" * 101, f"more than {MAX_NESTING} nested brackets", 1, 102),
    ("[x1," * 101 + "x2" + "]" * 101, f"more than {MAX_NESTING} nested brackets", 1, 402),
    # digit runs past MAX_DIGITS, refused at the run after every unknown
    # symbol; runs within the bound keep their messages
    pytest.param("e1 + " + "9" * 4301 + " + $", "unknown symbol '$'", 1, 4310, id="long-run-then-$"),
    pytest.param("e1 + " + "9" * 4301, f"more than {MAX_DIGITS} digits", 1, 6, id="long-literal"),
    pytest.param("x" + "1" * 4301, f"more than {MAX_DIGITS} digits", 1, 2, id="long-x-index"),
    pytest.param("x1 + eps" + "0" * 4301, f"more than {MAX_DIGITS} digits", 1, 9, id="long-eps-index"),
    pytest.param("2*e" + "0" * 4297 + "1001", f"more than {MAX_DIGITS} digits", 1, 4, id="long-e-index"),
    pytest.param("e" + "0" * 4296 + "1001", f"index 1001 is above {MAX_INDEX}", 1, 1, id="index-at-bound"),
    pytest.param("9" * 4300 + " x1", "unexpected 'x1'", 1, 4302, id="literal-at-bound"),
]


@pytest.mark.parametrize("text, message, line, col", SYNTAX_ERRORS)
def test_syntax_error_table(text, message, line, col):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text)
    assert str(err.value) == f"{message} at line {line}, column {col}"
    before = text[: err.value.pos]
    assert (before.count("\n") + 1, len(before) - before.rfind("\n")) == (line, col)
