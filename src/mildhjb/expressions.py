"""Arithmetic expression language for the run-config coefficients.

Grammar (whitespace-insensitive)::

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := ('+'|'-') unary | atom ('^' unary)?  # '^' is right-associative
    atom   := NUMBER | VARIABLE | 'pi' | 'e'        #   and binds tighter
            | ('exp'|'tanh'|'sin'|'cos'|'abs') '(' expr ')'  # than unary minus
            | '(' expr ')'

Expressions evaluate vectorized over numpy arrays and differentiate
symbolically.  ``abs`` parses and evaluates but has no derivative; a variable
exponent (``u^v`` with ``v`` depending on the variable) is likewise rejected
when a derivative is requested, with the offending construct named.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "DifferentiationError",
    "Expression",
    "ExpressionError",
    "parse_expression",
]

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


# each function's numpy ufunc and its derivative rule, ``rule(arg, d_arg)``;
# abs has none
_FUNCTIONS = {
    "exp": (np.exp, lambda a, d: _mul(Call("exp", a), d)),
    "tanh": (np.tanh, lambda a, d: _mul(
        _sub(_num(1.0), _pow(Call("tanh", a), _num(2.0))), d)),
    "sin": (np.sin, lambda a, d: _mul(Call("cos", a), d)),
    "cos": (np.cos, lambda a, d: Neg(_mul(Call("sin", a), d))),
    "abs": (np.abs, None),
}
# truediv keeps 1/0 of two constants an error
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": np.power}


# ----------------------------------------------------------------- tokenizer

# after optional whitespace: a number (its 'e' needs a digit or sign next),
# a name (from a letter or '_'), an operator, or any other character
_TOKEN = re.compile(r"""\s*(?:
    (?P<number>[\d.]+(?:[eE](?=[\d+-])[+-]?[\d.]*)?)
  | (?P<name>\w+)
  | (?P<op>[-+*/^()])
  | (?P<other>\S))""", re.VERBOSE)
_Token = tuple[str, str, int]  # kind, text, column


def _tokenize(text: str) -> list[_Token]:
    """Tokens of ``text`` (an operator's kind is itself), then "end"."""
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        word, column = match.group(kind), match.start(kind)
        if kind == "number":
            try:
                finite = math.isfinite(float(word))
            except ValueError:
                finite = False
            if not finite:
                raise ExpressionError(f"bad number {word!r}", column)
        elif not (word[0].isalpha() or word[0] in "_+-*/^()"):
            raise ExpressionError(f"unexpected character {word[0]!r}", column)
        tokens.append((word if kind == "op" else kind, word, column))
    tokens.append(("end", "", len(text)))
    return tokens


# -------------------------------------------------------------------- parser

# each binary operator's level (a higher one binds tighter) and constructor
_INFIX = {"+": (0, _add), "-": (0, _sub), "*": (1, _mul), "/": (1, _div)}
# the deepest nesting accepted, one level per sign, power, group, call and
# chained operator: parsing, evaluation and derivatives recurse once a level
_MAX_DEPTH = 64


class _Parser:
    def __init__(self, tokens: list[_Token], variables: tuple[str, ...]):
        self.tokens, self.pos, self.variables = tokens, 0, variables
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str | None = None) -> _Token:
        """The next token, which must be of ``kind`` if one is given."""
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExpressionError(
                f"expected {kind!r}, found {tok[1] or 'end of input'!r}",
                tok[2])
        self.pos += 1
        return tok

    def parse(self) -> Node:
        node = self.binary()
        kind, text, column = self.peek()
        if kind != "end":
            raise ExpressionError(f"trailing input {text!r}", column)
        return node

    def constant(self, node: Node, column: int) -> float | None:
        """The value of ``node`` if it depends on no variable, else None.  A
        value that is not finite is an error at ``column``: folded into the
        tree, it would only show once a field is sampled."""
        if any(_depends_on(node, var) for var in self.variables):
            return None
        with np.errstate(all="ignore"):
            value = float(_evaluate(node, {}))
        if not math.isfinite(value):
            raise ExpressionError(f"constant evaluates to {value}", column)
        return value

    def binary(self, level: int = 0) -> Node:
        """Operands joined by the operators of ``level`` and tighter ones."""
        column = self.peek()[2]
        node = self.unary()
        depth = self.depth
        while self.peek()[0] in _INFIX and _INFIX[self.peek()[0]][0] >= level:
            op, _, op_column = self.take()
            op_level, build = _INFIX[op]
            self.depth += 1  # the chain is a left-deep tree
            right = self.binary(op_level + 1)  # left-associative
            if op == "/" and self.constant(right, op_column) == 0:
                raise ExpressionError("division by a constant zero",
                                      op_column)
            node = build(node, right)
            self.constant(node, column)
        self.depth = depth
        return node

    def unary(self) -> Node:
        kind, _, column = self.peek()
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ExpressionError(
                f"nested deeper than {_MAX_DEPTH} levels", column)
        if kind in ("+", "-"):
            self.take()
            node = self.unary()
            if kind == "-":
                node = _num(-node.value) if isinstance(node, Num) else Neg(node)
        else:
            node = self.atom()
            if self.peek()[0] == "^":
                self.take()
                node = _pow(node, self.unary())
                self.constant(node, column)
        self.depth -= 1
        return node

    def group(self) -> Node:
        self.take("(")
        node = self.binary()
        self.take(")")
        return node

    def atom(self) -> Node:
        kind, text, column = self.peek()
        if kind == "(":
            return self.group()
        if kind not in ("number", "name"):
            raise ExpressionError(
                f"expected a value, found {text or 'end of input'!r}", column)
        self.take()
        if kind == "number":
            return _num(float(text))
        if text in _FUNCTIONS:
            node = Call(text, self.group())
            self.constant(node, column)
            return node
        if text in _CONSTANTS:
            return _num(_CONSTANTS[text])
        if text in self.variables:
            return Var(text)
        raise ExpressionError(f"unknown identifier {text!r}", column)


# --------------------------------------------------------------- eval / diff

def _evaluate(node: Node, env: dict) -> np.ndarray:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_evaluate(node.arg, env)
    if isinstance(node, Call):
        return _FUNCTIONS[node.fn][0](_evaluate(node.arg, env))
    return _BINARY[node.op](_evaluate(node.left, env),
                           _evaluate(node.right, env))


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
        rule = _FUNCTIONS[node.fn][1]
        if rule is not None:
            return rule(node.arg, inner)
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


class Expression:
    """Parsed expression: vectorized call plus symbolic derivative."""

    def __init__(self, node: Node, variables: tuple[str, ...]):
        self.node = node
        self.variables = variables

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
            return np.broadcast_to(result, shape).copy()
        # every operation returns a new array; only a bare variable aliases
        if any(result is v for v in env.values()):
            return result.copy()
        return result

    def derivative(self, var: str | None = None) -> "Expression":
        var = var if var is not None else self.variables[0]
        if var not in self.variables:
            raise ValueError(f"unknown variable {var!r}")
        return Expression(_differentiate(self.node, var), self.variables)


def parse_expression(text: str, variables: tuple[str, ...] = ("x",)
                     ) -> Expression:
    """Parse an expression over the given variables; raises ExpressionError."""
    node = _Parser(_tokenize(text), variables).parse()
    return Expression(node, variables)
