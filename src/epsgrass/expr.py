"""Expression grammar shared by the command line tools.

    expr   := ('-')? term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := INT | SYM | '(' expr ')' | '[' expr ',' expr ']'
            | '{' expr ',' expr '}' | 'Tr' '(' expr ')'
    SYM    := theta | eps<k> | e<k> | x<k>

Whitespace insensitive: one ``findall`` reads the tokens, and only an
error scans the text again, for the token's position.  The leading minus
is accepted so canonical renderings (which may start with a negative
coefficient) parse back.

Every expression passes through ``Parser``, which bounds it: at most
``MAX_NESTING`` brackets around any point, so that parsing and
evaluation stay far below Python's recursion limit, and indices k of at
most ``MAX_INDEX``.  A sum or product of any length costs no recursion
depth: the parser builds it as a left-nested chain, and ``_evaluate``
walks the chain in a loop.

``compile_grass`` and ``compile_trace_poly`` compute in the algebra or
ring they are given.  Every constant of the grammar is an integer, so
over any ring the value is the image of an integral one: the command
line compiles in ``ring.eval_ring`` and maps the value into the ring
once, which over Q keeps the sums and products on ints.
"""

from __future__ import annotations

import operator
import re

from .grassmann import GrassAlgebra, GrassElem, commutator, scommutator
from .rings import MAX_DIGITS, BaseRing
from .terms import TracePoly


# The parser takes three frames per bracket and evaluation at most two,
# against Python's default limit of 1000.
MAX_NESTING = 100
# An index k is a bit of an eps mask and a letter of a word.  Budget:
# 0.25 s and 32 MB cold for a term at the bound; normalize
# '(1 + eps1000)*e1000*e1 + x1000' takes 0.16-0.23 s and 22 MB, against
# 0.89 s and 79 MB with 10000.
MAX_INDEX = 1000
# A digit run, of a literal or an index, is read with int(), which by
# default refuses more than MAX_DIGITS (from ``rings``) digits, with no
# position; a longer run is refused in tokenize, at its position.


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, text: str, pos: int):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} at line {line}, column {col}")
        self.pos = pos


_TOKEN_RE = re.compile(r"[0-9]+|theta|eps[0-9]+|e[0-9]+|x[0-9]+|Tr|[-+*()\[\]{},]|\S")


def _token_start(text: str, k: int) -> int:
    """The position of token k of the text, by a scan made only for errors."""
    return [*(m.start() for m in _TOKEN_RE.finditer(text)), len(text)][k]


def tokenize(text: str) -> list:
    """The tokens of one ``findall`` and the end token ''.  A token's first
    character tells its kind: a digit starts an int (kept as an int), a
    letter a symbol, and any other is a lone punctuation or unknown one.
    Unknown symbols are refused first, then runs of more than
    ``MAX_DIGITS`` digits, found by length: no such run reaches ``int()``."""
    tokens = _TOKEN_RE.findall(text)
    for k, tok in enumerate(tokens):
        if tok[0] in "0123456789":
            if len(tok) <= MAX_DIGITS:
                tokens[k] = int(tok)
        elif len(tok) == 1 and tok not in "-+*()[]{},":
            pos = _token_start(text, k)
            raise ExprSyntaxError(f"unknown symbol {text[pos:pos + 8]!r}", text, pos)
    if len(text) > MAX_DIGITS:  # only then can a run be longer
        for k, tok in enumerate(tokens):
            # the digits of a literal left as text, or after an index's letters
            if type(tok) is str and len(run := tok.lstrip("epsx")) > MAX_DIGITS:
                pos = _token_start(text, k) + len(tok) - len(run)
                raise ExprSyntaxError(f"more than {MAX_DIGITS} digits", text, pos)
    return tokens + [""]


class Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.k = 0  # the next token
        self.depth = 0  # the brackets around the expression being parsed

    def error(self, message: str, k: int) -> ExprSyntaxError:
        return ExprSyntaxError(message, self.text, _token_start(self.text, k))

    def expect(self, value: str):
        tok = self.tokens[self.k]
        if tok != value:
            raise self.error(f"expected {value!r}, found {tok!r}", self.k)
        self.k += 1

    def parse(self):
        node = self.expr()
        if self.tokens[self.k] != "":
            raise self.error(f"unexpected {self.tokens[self.k]!r}", self.k)
        return node

    def index(self, digits: str, k: int) -> int:
        n = int(digits)
        if n > MAX_INDEX:
            raise self.error(f"index {n} is above {MAX_INDEX}", k)
        return n

    def expr(self):
        # every bracket parses its contents here
        if self.depth > MAX_NESTING:
            raise self.error(f"more than {MAX_NESTING} nested brackets", self.k)
        self.depth += 1
        if self.tokens[self.k] == "-":
            self.k += 1
            node = ("neg", self.term())
        else:
            node = self.term()
        while (op := self.tokens[self.k]) in ("+", "-"):
            self.k += 1
            node = ("add" if op == "+" else "sub", node, self.term())
        self.depth -= 1
        return node

    def term(self):
        node = self.factor()
        while self.tokens[self.k] == "*":
            self.k += 1
            node = ("mul", node, self.factor())
        return node

    def factor(self):
        k = self.k
        tok, self.k = self.tokens[k], k + 1
        if type(tok) is int:
            return ("int", tok)
        if tok.startswith("x"):
            return ("var", self.index(tok[1:], k))
        if tok == "(" or tok == "Tr":
            if tok == "Tr":
                self.expect("(")
            inner = self.expr()
            self.expect(")")
            return inner if tok == "(" else ("tr", inner)
        if tok == "[" or tok == "{":
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect("]" if tok == "[" else "}")
            return ("comm" if tok == "[" else "scomm", a, b)
        if tok == "theta":
            return ("theta",)
        if tok.startswith("eps"):
            return ("eps", self.index(tok[3:], k))
        if tok.startswith("e"):
            return ("gen", self.index(tok[1:], k))
        raise self.error(f"unexpected {tok!r}", k)


def parse(text: str):
    return Parser(text).parse()


# The binary operations, folded with the values' own operators.
_FOLDS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "comm": commutator,
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
        if op == "gen" or op == "var":
            return algebra.gen(node[1])
        if op == "neg":
            return -_evaluate(node[1], leaf)
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
