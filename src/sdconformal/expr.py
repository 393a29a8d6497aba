"""A small analytic expression language evaluated over jet arithmetic.

Grammar (whitespace insignificant, function application requires parens):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' ['-'] INTEGER)?
    atom   := NUMBER | IDENT | FUNC '(' expr ')' | '(' expr ')'

Precedence: ^ > unary- > * / > + -, with + - * / left associative.
Exponents are integer literals only; general powers go through exp/log.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Union

from .jets import Jet, JetDomainError, JetSpace

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")


class ExprError(ValueError):
    """Base class for expression-language errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExprError):
    pass


class ExprDomainError(ArithmeticError):
    """Evaluation hit an analytic singularity."""


# -- AST ------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


Node = Union[Const, Var, Neg, Call, BinOp, Pow]

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _precedence(node: Node) -> int:
    if isinstance(node, BinOp):
        return _PREC_ADD if node.op in "+-" else _PREC_MUL
    if isinstance(node, Neg):
        return _PREC_NEG
    if isinstance(node, Pow):
        return _PREC_POW
    if isinstance(node, Const) and node.value < 0:
        return _PREC_NEG
    return _PREC_ATOM


# -- tokenizer ------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError(
                f"unexpected character {stripped[0]!r}", len(source) - len(stripped)
            )
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


# -- parser ---------------------------------------------------------------

class _Parser:
    def __init__(self, source: str, allowed_vars):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.allowed = tuple(allowed_vars)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {text!r}", off)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            sign = 1
            kind, text, off = self.peek()
            if kind == "op" and text == "-":
                self.advance()
                sign = -1
                kind, text, off = self.peek()
            if kind != "num" or not re.fullmatch(r"\d+", text):
                raise ExprSyntaxError("exponent must be an integer literal", off)
            self.advance()
            return Pow(base, sign * int(text))
        return base

    def atom(self) -> Node:
        kind, text, off = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            nkind, ntext, _ = self.peek()
            if nkind == "op" and ntext == "(":
                if text not in FUNCTIONS:
                    raise UnknownIdentifierError(
                        f"unknown function {text!r} at offset {off}"
                    )
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if text not in self.allowed:
                raise UnknownIdentifierError(
                    f"variable {text!r} not among allowed variables "
                    f"{list(self.allowed)} (offset {off})"
                )
            return Var(text)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {text!r}", off)


# -- expression value type -------------------------------------------------

class Expression:
    """Immutable parsed expression; supports arithmetic, printing, symbolic
    differentiation and evaluation over jets."""

    __slots__ = ("node", "free_vars")

    def __init__(self, node: Node):
        self.node = node
        self.free_vars = frozenset(_free_vars(node))

    # construction helpers
    @staticmethod
    def const(value: float) -> "Expression":
        return Expression(Const(float(value)))

    @staticmethod
    def var(name: str) -> "Expression":
        return Expression(Var(name))

    def __eq__(self, other):
        return isinstance(other, Expression) and self.node == other.node

    def __hash__(self):
        return hash(self.node)

    def _lift(self, other) -> "Expression":
        if isinstance(other, Expression):
            return other
        if isinstance(other, (int, float)):
            return Expression.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        return Expression(BinOp("+", self.node, other.node))

    def __radd__(self, other):
        other = self._lift(other)
        return Expression(BinOp("+", other.node, self.node))

    def __sub__(self, other):
        other = self._lift(other)
        return Expression(BinOp("-", self.node, other.node))

    def __rsub__(self, other):
        other = self._lift(other)
        return Expression(BinOp("-", other.node, self.node))

    def __mul__(self, other):
        other = self._lift(other)
        return Expression(BinOp("*", self.node, other.node))

    def __rmul__(self, other):
        other = self._lift(other)
        return Expression(BinOp("*", other.node, self.node))

    def __truediv__(self, other):
        other = self._lift(other)
        return Expression(BinOp("/", self.node, other.node))

    def __rtruediv__(self, other):
        other = self._lift(other)
        return Expression(BinOp("/", other.node, self.node))

    def __neg__(self):
        return Expression(Neg(self.node))

    def __pow__(self, n: int):
        return Expression(Pow(self.node, int(n)))

    def __str__(self):
        return _print(self.node)

    def __repr__(self):
        return f"Expression({_print(self.node)!r})"

    def diff(self, var: str) -> "Expression":
        return Expression(_diff(self.node, var))

    def __call__(self, env: Mapping[str, Jet | float]):
        return evaluate(self, env)

    def eval_jet(self, space: JetSpace, point: Mapping[str, float]) -> Jet:
        """Evaluate with all space variables seeded at `point`."""
        return evaluate(self, space.seed(dict(point)), space=space)


def _free_vars(node: Node):
    if isinstance(node, Var):
        yield node.name
    elif isinstance(node, Neg):
        yield from _free_vars(node.arg)
    elif isinstance(node, Call):
        yield from _free_vars(node.arg)
    elif isinstance(node, BinOp):
        yield from _free_vars(node.lhs)
        yield from _free_vars(node.rhs)
    elif isinstance(node, Pow):
        yield from _free_vars(node.base)


def parse(source: str, allowed_vars) -> Expression:
    """Parse `source` into an Expression over the given variables."""
    return Expression(_Parser(source, allowed_vars).parse())


def as_expression(value, allowed_vars) -> Expression:
    """An Expression as it is, source text parsed over the given
    variables, or a number as a constant."""
    if isinstance(value, Expression):
        return value
    if isinstance(value, str):
        return parse(value, allowed_vars)
    return Expression.const(float(value))


# -- printing ---------------------------------------------------------------

def _print(node: Node) -> str:
    if isinstance(node, Const):
        return repr(node.value) if node.value >= 0 else f"-{repr(-node.value)}"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = _print(node.arg)
        if _precedence(node.arg) < _PREC_NEG:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.fn}({_print(node.arg)})"
    if isinstance(node, Pow):
        base = _print(node.base)
        if _precedence(node.base) < _PREC_ATOM:
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, BinOp):
        mine = _precedence(node)
        lhs = _print(node.lhs)
        if _precedence(node.lhs) < mine:
            lhs = f"({lhs})"
        rhs = _print(node.rhs)
        # left associativity: parenthesize an equal-precedence right child
        if _precedence(node.rhs) <= mine:
            rhs = f"({rhs})"
        return f"{lhs} {node.op} {rhs}"
    raise TypeError(node)


def to_source(e: Expression) -> str:
    return _print(e.node)


# -- symbolic differentiation ------------------------------------------------

def _diff(node: Node, var: str) -> Node:
    if isinstance(node, Const):
        return Const(0.0)
    if isinstance(node, Var):
        return Const(1.0) if node.name == var else Const(0.0)
    if isinstance(node, Neg):
        return Neg(_diff(node.arg, var))
    if isinstance(node, BinOp):
        dl, dr = _diff(node.lhs, var), _diff(node.rhs, var)
        if node.op in "+-":
            return BinOp(node.op, dl, dr)
        if node.op == "*":
            return BinOp("+", BinOp("*", dl, node.rhs), BinOp("*", node.lhs, dr))
        # quotient rule
        num = BinOp("-", BinOp("*", dl, node.rhs), BinOp("*", node.lhs, dr))
        return BinOp("/", num, Pow(node.rhs, 2))
    if isinstance(node, Pow):
        db = _diff(node.base, var)
        n = node.exponent
        if n == 0:
            return Const(0.0)
        return BinOp("*", BinOp("*", Const(float(n)), Pow(node.base, n - 1)), db)
    if isinstance(node, Call):
        da = _diff(node.arg, var)
        a = node.arg
        outer = {
            "sin": Call("cos", a),
            "cos": Neg(Call("sin", a)),
            "exp": Call("exp", a),
            "log": BinOp("/", Const(1.0), a),
            "sqrt": BinOp("/", Const(0.5), Call("sqrt", a)),
        }[node.fn]
        return BinOp("*", outer, da)
    raise TypeError(node)


# -- evaluation ---------------------------------------------------------------

def evaluate(e: Expression, env: Mapping[str, Jet | float], space: JetSpace | None = None):
    """Evaluate `e` at a jet point.  All jet values in `env` must share a
    space; plain floats are lifted to constants.  Returns a Jet when a
    space is available, otherwise a float."""
    if space is None:
        for v in env.values():
            if isinstance(v, Jet):
                space = v.space
                break
    missing = e.free_vars - set(env)
    if missing:
        raise UnknownIdentifierError(f"unassigned variables: {sorted(missing)}")
    try:
        return _eval(e.node, env, space)
    except (ZeroDivisionError, OverflowError, JetDomainError) as exc:
        raise ExprDomainError(str(exc)) from exc


def _as_value(x, space):
    if isinstance(x, Jet):
        return x
    if space is not None:
        return space.constant(float(x))
    return float(x)


def _eval(node: Node, env, space):
    import math

    if isinstance(node, Const):
        return _as_value(node.value, space)
    if isinstance(node, Var):
        return _as_value(env[node.name], space)
    if isinstance(node, Neg):
        return -_eval(node.arg, env, space)
    if isinstance(node, BinOp):
        lhs = _eval(node.lhs, env, space)
        rhs = _eval(node.rhs, env, space)
        if node.op == "+":
            return lhs + rhs
        if node.op == "-":
            return lhs - rhs
        if node.op == "*":
            return lhs * rhs
        return lhs / rhs
    if isinstance(node, Pow):
        return _eval(node.base, env, space) ** node.exponent
    if isinstance(node, Call):
        arg = _eval(node.arg, env, space)
        if isinstance(arg, float):
            try:
                return getattr(math, node.fn)(arg)
            except ValueError:   # math's domain error, e.g. log(0.0)
                raise ExprDomainError(f"{node.fn} outside its domain at "
                                      f"{arg!r}") from None
        return getattr(arg, node.fn)()
    raise TypeError(node)


ZERO = Expression.const(0.0)
ONE = Expression.const(1.0)
