"""Arithmetic expression language for the run-config coefficients.

Grammar (whitespace-insensitive)::

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := ('+'|'-') unary | power
    power  := atom ('^' unary)?             # right-associative, binds
    atom   := NUMBER | VARIABLE | 'pi' | 'e' #   tighter than unary minus
            | ('exp'|'tanh'|'sin'|'cos'|'abs') '(' expr ')'
            | '(' expr ')'

Expressions evaluate vectorized over numpy arrays and differentiate
symbolically.  ``abs`` parses and evaluates but has no derivative; a variable
exponent (``u^v`` with ``v`` depending on the variable) is likewise rejected
when a derivative is requested, with the offending construct named.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "DifferentiationError",
    "Expression",
    "ExpressionError",
    "parse_expression",
]

_FUNCTIONS = ("exp", "tanh", "sin", "cos", "abs")
_CONSTANTS = {"pi": np.pi, "e": np.e}


class ExpressionError(ValueError):
    """Parse failure with a column pointer into the expression text."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column + 1})")
        self.column = column


class DifferentiationError(ValueError):
    """The expression contains a construct without a symbolic derivative."""


# ---------------------------------------------------------------- AST nodes

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


Node = Union[Num, Var, BinOp, Neg, Call]


def _num(v: float) -> Num:
    return Num(float(v))


def _add(a: Node, b: Node) -> Node:
    if isinstance(a, Num) and a.value == 0:
        return b
    if isinstance(b, Num) and b.value == 0:
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _num(a.value + b.value)
    return BinOp("+", a, b)


def _sub(a: Node, b: Node) -> Node:
    if isinstance(b, Num) and b.value == 0:
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _num(a.value - b.value)
    if isinstance(a, Num) and a.value == 0:
        return Neg(b)
    return BinOp("-", a, b)


def _mul(a: Node, b: Node) -> Node:
    if isinstance(a, Num):
        if a.value == 0:
            return _num(0.0)
        if a.value == 1:
            return b
    if isinstance(b, Num):
        if b.value == 0:
            return _num(0.0)
        if b.value == 1:
            return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _num(a.value * b.value)
    return BinOp("*", a, b)


def _div(a: Node, b: Node) -> Node:
    if isinstance(a, Num) and a.value == 0:
        return _num(0.0)
    if isinstance(b, Num) and b.value == 1:
        return a
    return BinOp("/", a, b)


def _pow(a: Node, b: Node) -> Node:
    if isinstance(b, Num):
        if b.value == 1:
            return a
        if b.value == 0:
            return _num(1.0)
    return BinOp("^", a, b)


# ----------------------------------------------------------------- tokenizer

@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            seen_e = False
            while j < n and (text[j].isdigit() or text[j] == "."
                             or text[j] in "eE"
                             or (seen_e and text[j] in "+-"
                                 and text[j - 1] in "eE")):
                if text[j] in "eE":
                    if seen_e or j + 1 >= n or not (text[j + 1].isdigit()
                                                    or text[j + 1] in "+-"):
                        break
                    seen_e = True
                j += 1
            try:
                float(text[i:j])
            except ValueError:
                raise ExpressionError(f"bad number {text[i:j]!r}", i) from None
            tokens.append(_Token("number", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


# -------------------------------------------------------------------- parser

class _Parser:
    def __init__(self, tokens: list[_Token], variables: tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise ExpressionError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.column)
        self.pos += 1
        return tok

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(f"trailing input {tok.text!r}", tok.column)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take(self.peek().kind).kind
            rhs = self.term()
            node = _add(node, rhs) if op == "+" else _sub(node, rhs)
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.take(self.peek().kind).kind
            rhs = self.unary()
            node = _mul(node, rhs) if op == "*" else _div(node, rhs)
        return node

    def unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "-":
            self.take("-")
            arg = self.unary()
            return _num(-arg.value) if isinstance(arg, Num) else Neg(arg)
        if tok.kind == "+":
            self.take("+")
            return self.unary()
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        if self.peek().kind == "^":
            self.take("^")
            node = _pow(node, self.unary())
        return node

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "number":
            self.take("number")
            return _num(float(tok.text))
        if tok.kind == "(":
            self.take("(")
            node = self.expr()
            self.take(")")
            return node
        if tok.kind == "name":
            self.take("name")
            name = tok.text
            if name in _FUNCTIONS:
                self.take("(")
                arg = self.expr()
                self.take(")")
                return Call(name, arg)
            if name in _CONSTANTS:
                return _num(_CONSTANTS[name])
            if name in self.variables:
                return Var(name)
            raise ExpressionError(f"unknown identifier {name!r}", tok.column)
        raise ExpressionError(
            f"expected a value, found {tok.text or 'end of input'!r}",
            tok.column)


# --------------------------------------------------------- eval / diff / str

def _evaluate(node: Node, env: dict) -> np.ndarray:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_evaluate(node.arg, env)
    if isinstance(node, Call):
        arg = _evaluate(node.arg, env)
        if node.fn == "exp":
            return np.exp(arg)
        if node.fn == "tanh":
            return np.tanh(arg)
        if node.fn == "sin":
            return np.sin(arg)
        if node.fn == "cos":
            return np.cos(arg)
        return np.abs(arg)
    a = _evaluate(node.left, env)
    b = _evaluate(node.right, env)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return a / b
    return np.power(a, b)


def _depends_on(node: Node, var: str) -> bool:
    if isinstance(node, Var):
        return node.name == var
    if isinstance(node, Num):
        return False
    if isinstance(node, Neg):
        return _depends_on(node.arg, var)
    if isinstance(node, Call):
        return _depends_on(node.arg, var)
    return _depends_on(node.left, var) or _depends_on(node.right, var)


def _differentiate(node: Node, var: str) -> Node:
    if isinstance(node, Num):
        return _num(0.0)
    if isinstance(node, Var):
        return _num(1.0 if node.name == var else 0.0)
    if isinstance(node, Neg):
        return Neg(_differentiate(node.arg, var))
    if isinstance(node, Call):
        inner = _differentiate(node.arg, var)
        if node.fn == "exp":
            return _mul(Call("exp", node.arg), inner)
        if node.fn == "tanh":
            return _mul(_sub(_num(1.0), _pow(Call("tanh", node.arg), _num(2.0))),
                        inner)
        if node.fn == "sin":
            return _mul(Call("cos", node.arg), inner)
        if node.fn == "cos":
            return Neg(_mul(Call("sin", node.arg), inner))
        if isinstance(inner, Num) and inner.value == 0:
            return _num(0.0)
        raise DifferentiationError(
            "abs(...) has no derivative; rewrite the expression without abs "
            "where a derivative is required")
    da = _differentiate(node.left, var)
    db = _differentiate(node.right, var)
    if node.op == "+":
        return _add(da, db)
    if node.op == "-":
        return _sub(da, db)
    if node.op == "*":
        return _add(_mul(da, node.right), _mul(node.left, db))
    if node.op == "/":
        return _div(_sub(_mul(da, node.right), _mul(node.left, db)),
                    _pow(node.right, _num(2.0)))
    # power: constant exponents only
    if _depends_on(node.right, var):
        raise DifferentiationError(
            "power with a variable exponent has no supported derivative")
    return _mul(_mul(node.right, _pow(node.left,
                                      _sub(node.right, _num(1.0)))), da)


def _render(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"-({_render(node.arg)})"
    if isinstance(node, Call):
        return f"{node.fn}({_render(node.arg)})"
    return f"({_render(node.left)} {node.op} {_render(node.right)})"


class Expression:
    """Parsed expression: vectorized call plus symbolic derivative."""

    def __init__(self, node: Node, variables: tuple[str, ...], text: str = ""):
        self.node = node
        self.variables = variables
        self.text = text or _render(node)

    def __call__(self, *args):
        if len(args) != len(self.variables):
            raise TypeError(f"expression of {self.variables} got "
                            f"{len(args)} arguments")
        env = dict(zip(self.variables, (np.asarray(a, dtype=float)
                                        for a in args)))
        result = np.asarray(_evaluate(self.node, env), dtype=float)
        shape = np.broadcast_shapes(*(np.shape(a) for a in args)) if args else ()
        if not shape:
            return float(result)
        if result.shape != shape:
            result = np.broadcast_to(result, shape)
        return result.copy()

    def derivative(self, var: str | None = None) -> "Expression":
        var = var if var is not None else self.variables[0]
        if var not in self.variables:
            raise ValueError(f"unknown variable {var!r}")
        return Expression(_differentiate(self.node, var), self.variables)

    def __str__(self):
        return self.text


def parse_expression(text: str, variables: tuple[str, ...] = ("x",)
                     ) -> Expression:
    """Parse an expression over the given variables; raises ExpressionError."""
    node = _Parser(_tokenize(text), variables).parse()
    return Expression(node, variables, text=text.strip())
