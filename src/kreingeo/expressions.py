"""Arithmetic expression language for user-defined embedding maps.

Grammar (precedence climbing, ``^`` right-associative, ``**`` an alias):

    expr    := unary (BINOP unary)*        with precedence +,- < *,/ < ^
    unary   := '-' unary | atom
    atom    := NUMBER | 'pi' | u<k> | FUNC '(' expr ')' | '(' expr ')'

Variables are ``u1`` .. ``un``; functions are sin, cos, sinh, cosh, exp.
Evaluation is numpy-aware, so expressions broadcast over point arrays.
Errors carry 1-based line/column positions.  Parentheses, signs, calls and
operators may nest at most ``MAX_DEPTH`` levels, so parsing and the
recursive walks over a tree stay far inside Python's recursion limit.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ExpressionError

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "exp": np.exp,
}

MAX_DEPTH = 100

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}
_RIGHT_ASSOC = {"^"}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()]))"
)


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # zero-based; u1 -> 0


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


Expr = Num | Var | Neg | Call | BinOp

_VAR_RE = re.compile(r"^u([1-9]\d*)$")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:]
            stripped = rest.lstrip()
            if not stripped:
                break
            col = pos + (len(rest) - len(stripped)) + 1
            raise ExpressionError(f"unexpected character {stripped[0]!r}", column=col)
        col = m.start(m.lastgroup) + 1
        if m.lastgroup == "number":
            tokens.append(("number", float(m.group("number")), col))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), col))
        else:
            op = m.group("op")
            tokens.append(("op", "^" if op == "**" else op, col))
        pos = m.end()
    tokens.append(("end", None, len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, col = self.peek()
        if kind != "op" or value != op:
            raise ExpressionError(f"expected {op!r}", column=col)
        self.advance()

    def parse(self) -> Expr:
        node, _ = self.parse_expr(1, 0)
        kind, value, col = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected token {value!r}", column=col)
        return node

    # The parse methods take the nesting depth of the text being parsed and
    # return (node, height of its tree); both stay within MAX_DEPTH.

    def parse_expr(self, min_prec: int, depth: int) -> tuple[Expr, int]:
        _within_limit(depth, self.peek()[2])
        left, height = self.parse_unary(depth)
        while True:
            kind, value, col = self.peek()
            if kind != "op" or value not in _PRECEDENCE:
                return left, height
            prec = _PRECEDENCE[value]
            if prec < min_prec:
                return left, height
            self.advance()
            next_min = prec if value in _RIGHT_ASSOC else prec + 1
            right, right_height = self.parse_expr(next_min, depth + 1)
            left = BinOp(value, left, right)
            height = _within_limit(max(height, right_height) + 1, col)

    def parse_unary(self, depth: int) -> tuple[Expr, int]:
        # Unary minus binds looser than '^' but tighter than '*': -u1^2
        # reads as -(u1^2), matching the usual written convention.
        kind, value, col = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            arg, height = self.parse_expr(_PRECEDENCE["^"], depth + 1)
            return Neg(arg), _within_limit(height + 1, col)
        if kind == "op" and value == "+":
            self.advance()
            return self.parse_expr(_PRECEDENCE["^"], depth + 1)
        return self.parse_atom(depth)

    def parse_atom(self, depth: int) -> tuple[Expr, int]:
        kind, value, col = self.advance()
        if kind == "number":
            return Num(value), 0
        if kind == "name":
            m = _VAR_RE.match(value)
            if m:
                return Var(int(m.group(1)) - 1), 0
            if value == "pi":
                return Num(math.pi), 0
            if value in FUNCTIONS:
                self.expect_op("(")
                arg, height = self.parse_expr(1, depth + 1)
                self.expect_op(")")
                return Call(value, arg), _within_limit(height + 1, col)
            raise ExpressionError(f"unknown identifier {value!r}", column=col)
        if kind == "op" and value == "(":
            parsed = self.parse_expr(1, depth + 1)
            self.expect_op(")")
            return parsed
        label = "end of input" if kind == "end" else repr(value)
        raise ExpressionError(f"expected a value, found {label}", column=col)


def _within_limit(levels: int, col: int) -> int:
    if levels > MAX_DEPTH:
        raise ExpressionError(f"expression nested more than {MAX_DEPTH} levels deep",
                              column=col)
    return levels


def parse_expression(text: str) -> Expr:
    """Parse one expression; raises ExpressionError with a 1-based column."""
    return _Parser(text).parse()


def evaluate(node: Expr, u) -> np.ndarray | float:
    """Evaluate at u (a vector of coordinate values or arrays)."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.index >= len(u):
            raise ExpressionError(f"variable u{node.index + 1} exceeds the domain dimension")
        return u[node.index]
    if isinstance(node, Neg):
        return -evaluate(node.arg, u)
    if isinstance(node, Call):
        return FUNCTIONS[node.func](evaluate(node.arg, u))
    if isinstance(node, BinOp):
        a = evaluate(node.left, u)
        b = evaluate(node.right, u)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return a / b
        return np.power(a, b)
    raise TypeError(f"not an expression node: {node!r}")


def max_var_index(node: Expr) -> int:
    """Highest 1-based variable index used, 0 when constant."""
    if isinstance(node, Var):
        return node.index + 1
    if isinstance(node, Neg):
        return max_var_index(node.arg)
    if isinstance(node, Call):
        return max_var_index(node.arg)
    if isinstance(node, BinOp):
        return max(max_var_index(node.left), max_var_index(node.right))
    return 0


def _node_prec(node: Expr) -> int:
    if isinstance(node, BinOp):
        return _PRECEDENCE[node.op]
    if isinstance(node, Neg):
        return 1
    return 9


def to_string(node: Expr) -> str:
    """Render with minimal parentheses; reparses to an identical tree."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return f"u{node.index + 1}"
    if isinstance(node, Neg):
        inner = to_string(node.arg)
        if _node_prec(node.arg) < 3 and not isinstance(node.arg, Neg):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.func}({to_string(node.arg)})"
    if isinstance(node, BinOp):
        prec = _PRECEDENCE[node.op]
        left = to_string(node.left)
        right = to_string(node.right)
        right_assoc = node.op in _RIGHT_ASSOC
        if _node_prec(node.left) < prec or (right_assoc and _node_prec(node.left) == prec):
            left = f"({left})"
        if _node_prec(node.right) < prec or (not right_assoc and _node_prec(node.right) == prec):
            right = f"({right})"
        return f"{left} {node.op} {right}"
    raise TypeError(f"not an expression node: {node!r}")
