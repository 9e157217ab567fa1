"""Expression grammar shared by the command line tools.

    expr   := ('-')? term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := INT | SYM | '(' expr ')' | '[' expr ',' expr ']'
            | '{' expr ',' expr '}' | 'Tr' '(' expr ')'
    SYM    := theta | eps<k> | e<k> | x<k> (@'{'k(,k)*'}')?

Whitespace insensitive.  The leading minus is accepted so canonical
renderings (which may start with a negative coefficient) parse back.
"""

from __future__ import annotations

import re

from .grassmann import GrassAlgebra, GrassElem, commutator, scommutator
from .rings import BaseRing
from .terms import TracePoly


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, text: str, pos: int):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} at line {line}, column {col}")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<int>[0-9]+)"
    r"|(?P<sym>theta|eps[0-9]+|e[0-9]+|x[0-9]+(?:@\{[0-9]+(?:,[0-9]+)*\})?|Tr)"
    r"|(?P<punct>[-+*()\[\]{},])"
    r")"
)


def tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ExprSyntaxError(f"unknown symbol {stripped[:8]!r}", text, bad)
        if m.group("int"):
            tokens.append(("int", int(m.group("int")), m.start("int")))
        elif m.group("sym"):
            tokens.append(("sym", m.group("sym"), m.start("sym")))
        else:
            tokens.append(("punct", m.group("punct"), m.start("punct")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.k = 0

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

    def expr(self):
        if self.peek()[1] == "-":
            self.next()
            node = ("neg", self.term())
        else:
            node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
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
                return ("eps", int(tok[3:]))
            if tok.startswith("x"):
                if "@" in tok:
                    name, grade = tok.split("@", 1)
                    indices = tuple(int(v) for v in grade.strip("{}").split(","))
                    return ("var", int(name[1:]), indices)
                return ("var", int(tok[1:]), None)
            return ("gen", int(tok[1:]))
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


def reject_trace(node) -> None:
    """Raise ValueError if the expression applies Tr anywhere."""
    if node[0] == "tr":
        raise ValueError("Tr(...) is only allowed in trace expressions")
    for child in node[1:]:
        if isinstance(child, tuple):
            reject_trace(child)


def compile_grass(node, algebra: GrassAlgebra, vars_as_generators: bool = False) -> GrassElem:
    """Evaluate an expression to an algebra element.  Formal variables
    x<k> are admitted only when vars_as_generators is set (they then
    denote e<k>)."""
    op = node[0]
    if op == "int":
        return algebra.from_int(node[1])
    if op == "theta":
        return algebra.theta()
    if op == "eps":
        return algebra.eps(node[1])
    if op == "gen":
        return algebra.gen(node[1])
    if op == "var":
        if not vars_as_generators:
            raise ValueError("formal variables x<k> are not allowed here")
        if node[2] is not None:
            raise ValueError("grade annotations are not supported here")
        return algebra.gen(node[1])
    if op == "neg":
        return -compile_grass(node[1], algebra, vars_as_generators)
    if op == "add":
        return compile_grass(node[1], algebra, vars_as_generators) + compile_grass(
            node[2], algebra, vars_as_generators
        )
    if op == "sub":
        return compile_grass(node[1], algebra, vars_as_generators) - compile_grass(
            node[2], algebra, vars_as_generators
        )
    if op == "mul":
        return compile_grass(node[1], algebra, vars_as_generators) * compile_grass(
            node[2], algebra, vars_as_generators
        )
    if op == "comm":
        return commutator(
            compile_grass(node[1], algebra, vars_as_generators),
            compile_grass(node[2], algebra, vars_as_generators),
        )
    if op == "scomm":
        return scommutator(
            compile_grass(node[1], algebra, vars_as_generators),
            compile_grass(node[2], algebra, vars_as_generators),
        )
    if op == "tr":
        raise ValueError("Tr(...) has no meaning for concrete algebra elements")
    raise AssertionError(node)


def compile_trace_poly(node, ring: BaseRing) -> TracePoly:
    """Evaluate an expression in formal variables, with or without Tr."""
    op = node[0]
    if op == "int":
        return TracePoly.const(ring, ring.from_int(node[1]))
    if op == "var":
        if node[2] is not None:
            raise ValueError("grade annotations are not supported here")
        return TracePoly.letter(ring, node[1])
    if op == "neg":
        return -compile_trace_poly(node[1], ring)
    if op == "add":
        return compile_trace_poly(node[1], ring) + compile_trace_poly(node[2], ring)
    if op == "sub":
        return compile_trace_poly(node[1], ring) - compile_trace_poly(node[2], ring)
    if op == "mul":
        return compile_trace_poly(node[1], ring) * compile_trace_poly(node[2], ring)
    if op == "comm":
        return compile_trace_poly(node[1], ring).commutator(
            compile_trace_poly(node[2], ring)
        )
    if op == "tr":
        return compile_trace_poly(node[1], ring).trace()
    if op in ("theta", "eps", "gen"):
        raise ValueError("concrete generators are not allowed in variable polynomials")
    if op == "scomm":
        raise ValueError("the twisted commutator needs graded operands")
    raise AssertionError(node)
