"""A small analytic expression language evaluated over jet arithmetic.

Grammar (whitespace insignificant, function application requires parens):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' ['-'] INTEGER)?
    atom   := NUMBER | IDENT | FUNC '(' expr ')' | '(' expr ')'

Precedence: ^ > unary- > * / > + -, with + - * / left associative.
Exponents are integer literals that fit a float; general powers go
through exp/log.

An expression is its tree: `Expression` is the base class of the six
immutable node classes, which `parse`, the arithmetic operators and
`diff` return.  Parsing, compiling and `diff` recurse on the nesting of
the tree, so input nested too deeply raises RecursionError.

Expressions are evaluated over jets (`jets_at`) by first compiling them
(`compile`) into a `Plan`: a flat tape of the jet operations that
walking their trees would perform, in the walk's order, with each node
object run once and each subtree without free variables folded into a
read-only jet.  A plan gives the walk's results to the last bit and
raises the walk's first error, the `jets.JetDomainError` of a jet
operation at a singularity (`ExprDomainError` is another name for it).
Nothing is kept between calls: `jets_at` compiles all the expressions it
is given into one plan and runs it once.  `values_at` compiles
expressions once over order-0 jets, and runs them on Python floats, for
a caller that evaluates them at one point after another (at every RK4
stage of `ProjectiveSurface.integrate_geodesic`, at every candidate of
`sampling.halton_points`).
"""
from __future__ import annotations

import math
import operator
import re
from typing import Mapping, NamedTuple

import numpy as np

from .jets import CALLS, FLOAT_TWINS, Jet, JetDomainError, JetSpace, stack

FUNCTIONS = tuple(CALLS)


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

_set = object.__setattr__


def _operator(op, reflected=False):
    """The Expression method of the binary operator `op`.  A number is
    lifted to a constant; any other operand gives NotImplemented, so
    Python raises its TypeError."""
    def method(self, other):
        if isinstance(other, (int, float)):
            other = Expression.const(other)
        elif not isinstance(other, Expression):
            return NotImplemented
        return BinOp(op, other, self) if reflected else BinOp(op, self, other)
    return method


class Expression:
    """An expression, which is the root node of its tree: an instance of
    a node class below, made from its fields (`__slots__`) in order.  It
    cannot be changed, and equals, and hashes like, a node of the same
    class with equal fields.  Expressions support arithmetic, printing
    and symbolic differentiation, and are evaluated over jets."""

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):   # copy and pickle rebuild it from its fields
        return type(self), self._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    @property
    def free_vars(self) -> frozenset:
        return frozenset(_free_vars(self))

    # construction helpers
    @staticmethod
    def const(value: float) -> "Expression":
        return Const(float(value))

    @staticmethod
    def var(name: str) -> "Expression":
        return Var(name)

    __add__, __radd__ = _operator("+"), _operator("+", reflected=True)
    __sub__, __rsub__ = _operator("-"), _operator("-", reflected=True)
    __mul__, __rmul__ = _operator("*"), _operator("*", reflected=True)
    __truediv__ = _operator("/")
    __rtruediv__ = _operator("/", reflected=True)

    def __neg__(self):
        return Neg(self)

    def __pow__(self, n: int):
        return Pow(self, int(n))

    def __str__(self):
        return _print(self)

    def diff(self, var: str) -> "Expression":
        return _diff(self, var)


class Const(Expression):
    __slots__ = ("value",)

    def __init__(self, value: float):
        _set(self, "value", value)


class Var(Expression):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class Neg(Expression):
    __slots__ = ("arg",)

    def __init__(self, arg: Expression):
        _set(self, "arg", arg)


class Call(Expression):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: str, arg: Expression):
        _set(self, "fn", fn)
        _set(self, "arg", arg)


class BinOp(Expression):
    __slots__ = ("op", "lhs", "rhs")   # op is one of + - * /

    def __init__(self, op: str, lhs: Expression, rhs: Expression):
        _set(self, "op", op)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)


class Pow(Expression):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expression, exponent: int):
        _set(self, "base", base)
        _set(self, "exponent", exponent)


_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _precedence(node: Expression) -> int:
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
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


# -- parser ---------------------------------------------------------------

class _Parser:
    def __init__(self, source: str, allowed_vars):
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

    def parse(self) -> Expression:
        node = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {text!r}", off)
        return node

    def expr(self, ops: str = "+-") -> Expression:
        """Terms joined by + and - (an expr), or with ops="*/" unary
        operands joined by * and / (a term), left associative.  One method
        parses both, so a level of nesting costs no extra call."""
        node = None
        while True:
            rhs = self.unary() if ops == "*/" else self.expr("*/")
            node = rhs if node is None else BinOp(op, node, rhs)
            kind, op, _ = self.peek()
            if kind != "op" or op not in ops:
                return node
            self.advance()

    def unary(self) -> Expression:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expression:
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
            try:   # `_diff` takes it as a float
                exponent = int(text)
                float(exponent)
            except (ValueError, OverflowError):   # also too many digits
                raise ExprSyntaxError(f"an exponent of {len(text)} digits "
                                      "does not fit a float", off) from None
            self.advance()
            return Pow(base, sign * exponent)
        return base

    def atom(self) -> Expression:
        kind, text, off = self.advance()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):   # 1e400 reads as inf
                raise ExprSyntaxError(f"a number literal of {len(text)} "
                                      "characters does not fit a float", off)
            return Const(value)
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


def _free_vars(node: Expression):
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
    return _Parser(source, allowed_vars).parse()


def as_expression(value, allowed_vars) -> Expression:
    """An Expression as it is, source text parsed over the given
    variables, or a finite number as a constant."""
    if isinstance(value, Expression):
        return value
    if isinstance(value, str):
        return parse(value, allowed_vars)
    value = float(value)
    if not math.isfinite(value):   # JSON reads 1e400, NaN and Infinity
        raise ExprError(f"the number {value} is not finite")
    return Expression.const(value)


# -- printing ---------------------------------------------------------------

def _print(node: Expression) -> str:
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

def _diff(node: Expression, var: str) -> Expression:
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
                fn, a, b = CALLS[node.fn], emit(node.arg), -1
            else:
                raise TypeError(node)
            args = (registers[a],) if b < 0 else (registers[a], registers[b])
            value = None if None in args else _fold(fn, args)
            put(value)
            if value is None:
                tape.append((fn, a, b, len(registers) - 1))
        out = memo[id(node)] = len(registers) - 1
        return out

    outputs = [emit(e) for e in exprs]
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
    their values there as floats.  They are compiled once over order-0
    jets, and the plan runs with floats for its folded constant jets and
    the float twins (`jets.FLOAT_TWINS`) of its tape functions."""
    plan = compile(exprs, JetSpace(names, 0))
    order = plan.bind({name: k for k, name in enumerate(names)})
    plan = plan._replace(
        registers=[float(r.value) if isinstance(r, Jet) else r
                   for r in plan.registers],
        tape=tuple((FLOAT_TWINS[fn], a, b, out)
                   for fn, a, b, out in plan.tape))

    def at(values):
        return plan.run([float(values[k]) for k in order])
    return at


def jets_at(exprs, space: JetSpace, point):
    """Jets of `space` of an Expression, or of a nested list of them, at
    `point`: a mapping of the space variables to numbers or to
    equal-shaped arrays of values, such as a `halton_points` sample set.

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
