"""Tiny arithmetic expression grammar for sampled-function inputs.

Supported: + - * / ^ (power, right-associative), unary minus, parentheses,
the variable x, constants pi and e, and the functions sin, cos, exp.
Evaluation is vectorized over a numpy array of x samples; no eval() involved.
"""

from __future__ import annotations

import math
import re

import numpy as np

__all__ = ["parse_expression", "evaluate"]

_NUMBER_PATTERN = r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
_TOKEN = re.compile(
    rf"(?P<num>{_NUMBER_PATTERN})|(?P<ident>[A-Za-z_]\w*)|(?P<op>[()+\-*/^])"
)

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_CONSTANTS = {"pi": math.pi, "e": math.e}


class ExpressionError(ValueError):
    """Malformed expression or unknown identifier."""


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ExpressionError(f"unexpected character {text[pos]!r} in expression")
        tokens.append(m.group(0))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise ExpressionError(f"expected {tok!r}, got {got!r}")

    # expr := term (('+'|'-') term)*
    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = ("+" if op == "+" else "-", node, rhs)
        return node

    # term := factor (('*'|'/') factor)*
    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            node = (op, node, rhs)
        return node

    # factor := '-' factor | power      (unary minus binds looser than '^')
    def factor(self):
        if self.peek() == "-":
            self.take()
            return ("neg", self.factor())
        return self.power()

    # power := primary ('^' factor)?    (right-associative)
    def power(self):
        node = self.primary()
        if self.peek() == "^":
            self.take()
            return ("^", node, self.factor())
        return node

    def primary(self):
        tok = self.take()
        if tok == "(":
            node = self.expr()
            self.expect(")")
            return node
        if re.fullmatch(_NUMBER_PATTERN, tok):
            return ("num", float(tok))
        if tok in _FUNCTIONS:
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return ("call", tok, arg)
        if tok in _CONSTANTS:
            return ("num", _CONSTANTS[tok])
        if tok == "x":
            return ("var",)
        raise ExpressionError(f"unknown identifier {tok!r}")


def parse_expression(text: str):
    """Parse to an AST; raises ExpressionError on malformed input."""
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    if parser.peek() is not None:
        raise ExpressionError(f"trailing tokens starting at {parser.peek()!r}")
    return node


def _eval(node, x: np.ndarray):
    kind = node[0]
    if kind == "num":
        return np.float64(node[1])  # numpy arithmetic: 1/0 is inf, not ZeroDivisionError
    if kind == "var":
        return x
    if kind == "neg":
        return -_eval(node[1], x)
    if kind == "call":
        return _FUNCTIONS[node[1]](_eval(node[2], x))
    a = _eval(node[1], x)
    b = _eval(node[2], x)
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    if kind == "*":
        return a * b
    if kind == "/":
        return a / b
    return a ** b


def evaluate(text: str, x: np.ndarray) -> np.ndarray:
    """Evaluate an expression string over the sample points x.

    Division by zero and overflow give inf or nan samples without a numpy
    warning; the caller rejects them and can name the config key.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        values = _eval(parse_expression(text), x)
    return np.broadcast_to(np.asarray(values, dtype=float), x.shape).copy()
