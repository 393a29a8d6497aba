"""A small analytic expression language evaluated over jet arithmetic.

Grammar (whitespace insignificant, function application requires parens):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' ['-'] INTEGER)?
    atom   := NUMBER | IDENT | FUNC '(' expr ')' | '(' expr ')'

Precedence: ^ > unary- > * / > + -, with + - * / left associative.
Exponents are integer literals only; general powers go through exp/log.

Expressions are evaluated over jets (`jets_at`) by first compiling them
(`compile`) into a `Plan`: a flat tape of the jet operations that
walking their trees would perform, in the walk's order, with each node
object run once and each subtree without free variables folded into a
read-only jet.  A plan gives the walk's results to the last bit and
raises the walk's first error, the `jets.JetDomainError` of a jet
operation at a singularity (`ExprDomainError` is another name for it).
Nothing is kept between calls: `jets_at` compiles all the expressions it
is given into one plan and runs it once.  `values_at` compiles
expressions once over order-0 jets for a caller that evaluates them at
one point after another (`ProjectiveSurface.integrate_geodesic` at every
RK4 stage, `sampling.halton_points` at every candidate).
"""
from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Union

import numpy as np

from .jets import JetDomainError, JetSpace, stack

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")


class ExprError(ValueError):
    """Base class for expression-language errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExprError):
    pass


# Another name for the error a plan's jet operations raise at a singularity.
ExprDomainError = JetDomainError


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

def _operator(op, reflected=False):
    """The Expression method of the binary operator `op`.  A number is
    lifted to a constant; any other operand gives NotImplemented, so
    Python raises its TypeError."""
    def method(self, other):
        if isinstance(other, (int, float)):
            other = Expression.const(other)
        elif not isinstance(other, Expression):
            return NotImplemented
        lhs, rhs = (other, self) if reflected else (self, other)
        return Expression(BinOp(op, lhs.node, rhs.node))
    return method


class Expression:
    """Immutable parsed expression; supports arithmetic, printing, symbolic
    differentiation and evaluation over jets."""

    __slots__ = ("node",)

    def __init__(self, node: Node):
        self.node = node

    @property
    def free_vars(self) -> frozenset:
        return frozenset(_free_vars(self.node))

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

    __add__, __radd__ = _operator("+"), _operator("+", reflected=True)
    __sub__, __rsub__ = _operator("-"), _operator("-", reflected=True)
    __mul__, __rmul__ = _operator("*"), _operator("*", reflected=True)
    __truediv__ = _operator("/")
    __rtruediv__ = _operator("/", reflected=True)

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

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}
_CALLS = {fn: operator.methodcaller(fn) for fn in FUNCTIONS}


class Plan(NamedTuple):
    """Expressions compiled over one jet space (see `compile`)."""

    names: tuple      # the variables read, whose jets `run` takes in order
    inputs: tuple     # the register of each of them
    registers: list   # constants and exponents; None where run writes
    tape: tuple       # (function, argument, argument or -1, result), as
                      # registers
    outputs: list     # the register of each expression's jet

    def run(self, jets) -> list:
        """The jets of the expressions, given the jets of `names`."""
        regs = self.registers.copy()
        for i, jet in zip(self.inputs, jets):
            regs[i] = jet
        for fn, a, b, out in self.tape:
            regs[out] = fn(regs[a]) if b < 0 else fn(regs[a], regs[b])
        return [regs[i] for i in self.outputs]

    def bind(self, env: Mapping) -> list:
        """The values of `names` in `env`, in order."""
        missing = sorted(set(self.names) - set(env))
        if missing:
            raise UnknownIdentifierError(f"unassigned variables: {missing}")
        return [env[name] for name in self.names]


def compile(exprs, space: JetSpace) -> Plan:
    """Compile a sequence of Expressions over `space` into a Plan.

    The trees are walked once.  The plan's tape holds the jet operations
    that walking them at every evaluation would perform, in the same
    order, less two kinds: a node object reached again (``diff`` shares
    subtrees by reference) reuses its first result, and a subtree without
    free variables is evaluated here, once, into a read-only jet that
    only this plan holds.  A subtree whose folding raises stays on the
    tape, so it raises where the walk would.  Results are the walk's to
    the last bit."""
    registers, tape, memo, names = [], [], {}, {}
    put = registers.append

    def emit(node):
        out = memo.get(id(node))
        if out is not None:
            return out
        kind = type(node)
        if kind is Const:
            put(_fold(space.constant, (node.value,)))
        elif kind is Var:
            if node.name in names:
                return names[node.name]
            put(None)
            names[node.name] = len(registers) - 1
        else:
            if kind is BinOp:
                fn, a, b = _BINARY[node.op], emit(node.lhs), emit(node.rhs)
            elif kind is Pow:
                fn, a, b = operator.pow, emit(node.base), len(registers)
                put(node.exponent)
            elif kind is Neg:
                fn, a, b = operator.neg, emit(node.arg), -1
            elif kind is Call:
                fn, a, b = _CALLS[node.fn], emit(node.arg), -1
            else:
                raise TypeError(node)
            args = (registers[a],) if b < 0 else (registers[a], registers[b])
            value = None if None in args else _fold(fn, args)
            put(value)
            if value is None:
                tape.append((fn, a, b, len(registers) - 1))
        out = memo[id(node)] = len(registers) - 1
        return out

    outputs = [emit(e.node) for e in exprs]
    emit = None   # frees the recursive closure without waiting for the GC
    return Plan(tuple(names), tuple(names.values()), registers, tuple(tape),
                outputs)


def _fold(fn, args):
    """fn(*args) as a read-only jet, or None if it raises: the plan then
    raises it where the walk would."""
    try:
        jet = fn(*args)
    except Exception:
        return None
    jet.coeffs.flags.writeable = False
    return jet


def values_at(exprs, names):
    """A function that evaluates the expressions at one point at a time:
    given the values of the variables `names`, in that order, it returns
    the expressions' values there.  They are compiled once into a plan
    over order-0 jets whose input jets are seeded once; each call writes
    the values into those jets and runs the plan."""
    space = JetSpace(names, 0)
    plan = compile(exprs, space)
    env = space.seed(dict.fromkeys(space.vars, 0.0))
    inputs = plan.bind(env)
    slots = [env[name].coeffs for name in space.vars]

    def at(values):
        for slot, value in zip(slots, values):
            slot[0] = value
        return [jet.value for jet in plan.run(inputs)]
    return at


def jets_at(exprs, space: JetSpace, point):
    """Jets of `space` of an Expression, or of a nested list of them, at
    `point`: a mapping of the space variables to numbers or to
    equal-shaped arrays of values (see `jets.point_arrays`).

    All the expressions are compiled into one plan and run once, so a
    node they share runs once.  An Expression gives its jet as evaluated
    (constant over the points if it is).  A nested list gives one jet
    whose batch axes are the point axes, which constant entries are
    broadcast to, followed by the nesting axes, as `jets.stack` lays
    them out."""
    env = space.seed(point)

    def each(item, fn):   # `item` with fn applied to its Expressions
        if isinstance(item, Expression):
            return fn(item)
        return [each(x, fn) for x in item]

    leaves = []
    each(exprs, leaves.append)
    plan = compile(leaves, space)
    jets = iter(plan.run(plan.bind(env)))
    batch = np.broadcast_shapes(*(j.coeffs.shape[:-1] for j in env.values()))
    return stack(each(exprs, lambda e: next(jets)), batch)
