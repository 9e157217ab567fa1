"""Expression grammar shared by the command line tools.

    expr   := ('-')? term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := INT | SYM | '(' expr ')' | '[' expr ',' expr ']'
            | '{' expr ',' expr '}' | 'Tr' '(' expr ')'
    SYM    := theta | eps<k> | e<k> | x<k>

Whitespace insensitive.  The leading minus is accepted so canonical
renderings (which may start with a negative coefficient) parse back.

Every expression passes through ``Parser``, which bounds it: at most
``MAX_NESTING`` brackets around any point, so that parsing and
evaluation stay far below Python's recursion limit, and indices k of at
most ``MAX_INDEX``.  A sum or product of any length costs no recursion
depth: the parser builds it as a left-nested chain, and ``_evaluate``
walks the chain in a loop.
"""

from __future__ import annotations

import operator
import re

from .grassmann import GrassAlgebra, GrassElem, scommutator
from .rings import BaseRing
from .terms import TracePoly


# The parser takes three frames per bracket and evaluation at most two,
# against Python's default limit of 1000.
MAX_NESTING = 100
# An index k is a bit of an eps mask and a letter of a word.  Budget:
# 0.25 s and 32 MB cold for a term at the bound; normalize
# '(1 + eps1000)*e1000*e1 + x1000' takes 0.16-0.23 s and 22 MB, against
# 0.89 s and 79 MB with 10000.
MAX_INDEX = 1000


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, text: str, pos: int):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} at line {line}, column {col}")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<int>[0-9]+)"
    r"|(?P<sym>theta|eps[0-9]+|e[0-9]+|x[0-9]+|Tr)"
    r"|(?P<punct>[-+*()\[\]{},])"
    r"|(?P<bad>\S)"
    r")"
)


def tokenize(text: str):
    """(kind, value, position) tokens, ending in an ``end`` token; only
    trailing whitespace matches nothing."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        pos = m.start(kind)
        if kind == "bad":
            raise ExprSyntaxError(f"unknown symbol {text[pos:pos + 8]!r}", text, pos)
        tokens.append((kind, int(m[kind]) if kind == "int" else m[kind], pos))
    tokens.append(("end", "", len(text)))
    return tokens


class Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.k = 0
        self.depth = 0  # the brackets around the expression being parsed

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, value: str):
        kind, tok, pos = self.next()
        if tok != value:
            raise ExprSyntaxError(f"expected {value!r}, found {tok!r}", self.text, pos)

    def parse(self):
        node = self.expr()
        kind, tok, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {tok!r}", self.text, pos)
        return node

    def index(self, digits: str, pos: int) -> int:
        k = int(digits)
        if k > MAX_INDEX:
            raise ExprSyntaxError(f"index {k} is above {MAX_INDEX}", self.text, pos)
        return k

    def expr(self):
        # every bracket parses its contents here
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(
                f"more than {MAX_NESTING} nested brackets", self.text, self.peek()[2]
            )
        self.depth += 1
        if self.peek()[1] == "-":
            self.next()
            node = ("neg", self.term())
        else:
            node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        self.depth -= 1
        return node

    def term(self):
        node = self.factor()
        while self.peek()[1] == "*":
            self.next()
            node = ("mul", node, self.factor())
        return node

    def factor(self):
        kind, tok, pos = self.next()
        if kind == "int":
            return ("int", tok)
        if kind == "sym":
            if tok == "Tr":
                self.expect("(")
                inner = self.expr()
                self.expect(")")
                return ("tr", inner)
            if tok == "theta":
                return ("theta",)
            if tok.startswith("eps"):
                return ("eps", self.index(tok[3:], pos))
            if tok.startswith("x"):
                return ("var", self.index(tok[1:], pos))
            return ("gen", self.index(tok[1:], pos))
        if tok == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if tok == "[":
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect("]")
            return ("comm", a, b)
        if tok == "{":
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect("}")
            return ("scomm", a, b)
        raise ExprSyntaxError(f"unexpected {tok!r}", self.text, pos)


def parse(text: str):
    return Parser(text).parse()


# The binary operations, folded with the values' own operators.
_FOLDS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "comm": lambda a, b: a * b - b * a,
}


def _evaluate(node, leaf, word=None):
    """The value of an expression.  ``leaf(node)`` gives the value of a
    node that is not a binary operation.  The left operands of a chain of
    binary operations are walked in a loop, so a long sum or product
    costs no recursion depth.  Given ``word``, a run of letters in a
    product, x<i>*x<j>*..., is one value ``word(nodes)`` in place of a
    leaf and a product per letter; the leaves are still taken from left
    to right, so the first bad one raises."""
    chain = []
    while node[0] in _FOLDS:
        chain.append(node)
        node = node[1]
    value, run = None, []
    for op, _, rhs in [(None, None, node), *reversed(chain)]:
        if word is not None and rhs[0] == "var" and op in (None, "mul"):
            run.append(rhs)
            continue
        if run:
            value = word(run) if value is None else value * word(run)
            run = []
        rhs = _evaluate(rhs, leaf, word) if rhs[0] in _FOLDS else leaf(rhs)
        value = rhs if value is None else _FOLDS[op](value, rhs)
    if run:
        value = word(run) if value is None else value * word(run)
    return value


def compile_grass(node, algebra: GrassAlgebra) -> GrassElem:
    """Evaluate an expression to an algebra element; a formal variable
    x<k> denotes the generator e<k>."""

    def leaf(node):
        op = node[0]
        if op == "int":
            return algebra.from_int(node[1])
        if op == "theta":
            return algebra.theta()
        if op == "eps":
            return algebra.eps(node[1])
        if op == "gen":
            return algebra.gen(node[1])
        if op == "neg":
            return -_evaluate(node[1], leaf)
        if op == "var":
            return algebra.gen(node[1])
        if op == "scomm":
            return scommutator(_evaluate(node[1], leaf), _evaluate(node[2], leaf))
        if op == "tr":
            raise ValueError("Tr(...) has no meaning for concrete algebra elements")
        raise AssertionError(node)

    return _evaluate(node, leaf)


def compile_trace_poly(node, ring: BaseRing) -> TracePoly:
    """Evaluate an expression in formal variables, with or without Tr."""

    def word(nodes):
        letters = []
        for node in nodes:
            if node[1] < 1:
                raise ValueError("letters are numbered from 1")
            letters.append(node[1])
        return TracePoly(ring, {tuple(letters): ring.one()})

    def leaf(node):
        op = node[0]
        if op == "int":
            return TracePoly.const(ring, ring.from_int(node[1]))
        if op == "var":
            return word((node,))
        if op == "neg":
            return -_evaluate(node[1], leaf, word)
        if op == "tr":
            return _evaluate(node[1], leaf, word).trace()
        if op in ("theta", "eps", "gen"):
            raise ValueError("concrete generators are not allowed in variable polynomials")
        if op == "scomm":
            raise ValueError("the twisted commutator needs graded operands")
        raise AssertionError(node)

    return _evaluate(node, leaf, word)
