"""Coefficient expression language: parsing, evaluation, differentiation.

The language covers what coefficient functions of a third-order ODE need:
numbers, the time variable ``t``, named parameters, ``pi``, the binary
operators ``+ - * / ^`` (with ``^`` right-associative), unary minus,
comparisons ``< <= > >=``, and the functions ``sin cos exp ln abs sqrt
floor min max`` plus the ternary ``if(cond, a, b)``.  The full grammar with
precedence rules lives in grammar.md at the repository root.

Derivatives are symbolic and almost-everywhere: ``floor`` and comparison
nodes differentiate to zero, ``abs``/``min``/``max`` pick a branch, so the
returned tree is correct away from the (measure zero) breakpoints.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Union


class ExprError(ValueError):
    """Base class for everything this module raises on purpose."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, pos: int, source: str):
        self.pos = pos
        self.source = source
        super().__init__(f"{message} (column {pos})")


class UnknownIdentifierError(ExprSyntaxError):
    pass


class EvalDomainError(ExprError):
    """Evaluation left the real domain (log of a nonpositive number, ...)."""


class UnboundParameterError(ExprError):
    pass


# ---------------------------------------------------------------------------
# AST nodes.  Frozen dataclasses give structural equality and hashability
# for free, and keep parsed trees safely shareable across worker processes.

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    """The independent variable t."""


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Neg:
    a: "Node"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    a: "Node"
    b: "Node"


@dataclass(frozen=True)
class Cmp:
    op: str  # one of < <= > >=
    a: "Node"
    b: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


@dataclass(frozen=True)
class If:
    cond: "Node"
    then: "Node"
    other: "Node"


Node = Union[Const, Var, Param, Neg, Bin, Cmp, Call, If]

_UNARY_FUNCS = ("sin", "cos", "exp", "ln", "abs", "sqrt", "floor")
_ARITY = {name: 1 for name in _UNARY_FUNCS}
_ARITY.update({"min": 2, "max": 2, "if": 3})

_MAX_DEPTH = 100


@dataclass(frozen=True)
class ExprAst:
    """A parsed expression together with the source text it came from."""

    root: Node
    source: str


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<num>   (\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)? )
  | (?P<name>  [A-Za-z_][A-Za-z_0-9]* )
  | (?P<op>    <=|>=|[-+*/^<>(),] )
  | (?P<ws>    \s+ )
    """,
    re.VERBOSE,
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {source[pos]!r}", pos, source)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, param_names):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0
        self.param_names = frozenset(param_names)
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text):
        kind, value, pos = self.peek()
        if value != text:
            raise ExprSyntaxError(f"expected {text!r}", pos, self.source)
        return self.take()

    def _enter(self, pos):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ExprSyntaxError("expression nested too deeply", pos, self.source)

    def _leave(self):
        self.depth -= 1

    # expression := additive (cmp_op additive)?     -- comparisons do not chain
    def parse_expression(self):
        _, _, pos = self.peek()
        self._enter(pos)
        try:
            left = self.parse_additive()
            kind, value, _ = self.peek()
            if kind == "op" and value in ("<", "<=", ">", ">="):
                self.take()
                right = self.parse_additive()
                return Cmp(value, left, right)
            return left
        finally:
            self._leave()

    def parse_additive(self):
        node = self.parse_term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("+", "-"):
                self.take()
                node = Bin(value, node, self.parse_term())
            else:
                return node

    def parse_term(self):
        node = self.parse_unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("*", "/"):
                self.take()
                node = Bin(value, node, self.parse_unary())
            else:
                return node

    # unary minus binds looser than ^ :  -t^2 == -(t^2)
    def parse_unary(self):
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.take()
            self._enter(pos)
            try:
                return Neg(self.parse_unary())
            finally:
                self._leave()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.take()
            # right-associative; allow a unary-minus exponent (t^-1)
            return Bin("^", base, self.parse_unary())
        return base

    def parse_atom(self):
        kind, value, pos = self.take()
        if kind == "num":
            number = float(value)
            if not math.isfinite(number):
                raise ExprSyntaxError(f"number {value} is not finite in double precision", pos, self.source)
            return Const(number)
        if kind == "op" and value == "(":
            self._enter(pos)
            try:
                node = self.parse_expression()
            finally:
                self._leave()
            self.expect(")")
            return node
        if kind == "name":
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                return self.parse_call(value, pos)
            if value == "t":
                return Var()
            if value == "pi":
                return Const(math.pi)
            if value in self.param_names:
                return Param(value)
            raise UnknownIdentifierError(f"unknown identifier {value!r}", pos, self.source)
        raise ExprSyntaxError("expected a number, name or parenthesis", pos, self.source)

    def parse_call(self, name, pos):
        if name not in _ARITY:
            raise UnknownIdentifierError(f"unknown function {name!r}", pos, self.source)
        self.expect("(")
        self._enter(pos)
        try:
            args = [self.parse_expression()]
            while True:
                kind, value, _ = self.peek()
                if kind == "op" and value == ",":
                    self.take()
                    args.append(self.parse_expression())
                else:
                    break
        finally:
            self._leave()
        self.expect(")")
        if len(args) != _ARITY[name]:
            raise ExprSyntaxError(
                f"{name} expects {_ARITY[name]} argument(s), got {len(args)}", pos, self.source
            )
        if name == "if":
            return If(args[0], args[1], args[2])
        return Call(name, tuple(args))


def parse(source: str, param_names=()) -> ExprAst:
    """Parse ``source`` into an AST.

    ``param_names`` lists the identifiers (besides ``t`` and ``pi``) that may
    appear.  Anything else is an UnknownIdentifierError with a position.
    """
    parser = _Parser(source, param_names)
    root = parser.parse_expression()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {value!r}", pos, parser.source)
    return ExprAst(root, source)


# ---------------------------------------------------------------------------
# Evaluation

def _pow(a: float, b: float) -> float:
    try:
        return math.pow(a, b)
    except (ValueError, OverflowError) as exc:
        raise EvalDomainError(f"pow({a!r}, {b!r}) undefined: {exc}") from exc


def _checked_div(a: float, b: float, t: float) -> float:
    if b == 0.0:
        raise EvalDomainError(f"division by zero at t={t!r}")
    return a / b


def _checked_ln(a: float) -> float:
    if a <= 0.0:
        raise EvalDomainError(f"ln({a!r}) undefined")
    return math.log(a)


def _checked_sqrt(a: float) -> float:
    if a < 0.0:
        raise EvalDomainError(f"sqrt({a!r}) undefined")
    return math.sqrt(a)


def _checked_exp(a: float) -> float:
    try:
        return math.exp(a)
    except OverflowError as exc:
        raise EvalDomainError(f"exp({a!r}) overflows") from exc


# One helper per language function: ``f(a, ...)`` compiles to ``_f(a, ...)``.
_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": _checked_exp,
    "ln": _checked_ln,
    "abs": abs,
    "sqrt": _checked_sqrt,
    "floor": math.floor,
    "min": min,
    "max": max,
}
_COMPILE_NS = {f"_{name}": fn for name, fn in _FUNCS.items()}
_COMPILE_NS.update(_pow=_pow, _div=_checked_div, __builtins__={})


def compile_fn(ast: ExprAst, params: Mapping[str, float] | None = None) -> Callable[[float], float]:
    """Bind parameters and return a plain ``f(t) -> float``.

    This is the module's only evaluator and the hot path of quadrature and
    ODE stepping: the AST becomes one Python lambda with constants and
    parameter values inlined.  A missing or non-finite parameter raises here.
    Domain failures raise EvalDomainError through small checked helpers;
    there is no per-call finiteness check (:func:`evaluate` adds one).
    """
    bound = dict(params or {})

    def gen(node: Node) -> str:
        if isinstance(node, Const):
            return repr(node.value)
        if isinstance(node, Var):
            return "t"
        if isinstance(node, Param):
            if node.name not in bound:
                raise UnboundParameterError(f"parameter {node.name!r} has no value")
            value = float(bound[node.name])
            if not math.isfinite(value):
                # repr would inline 'inf' or 'nan', names the lambda cannot resolve
                raise EvalDomainError(f"parameter {node.name}={value!r} is not finite")
            return repr(value)
        if isinstance(node, Neg):
            return f"(-{gen(node.a)})"
        if isinstance(node, Bin):
            a, b = gen(node.a), gen(node.b)
            if node.op == "/":
                return f"_div({a}, {b}, t)"
            if node.op == "^":
                return f"_pow({a}, {b})"
            return f"({a} {node.op} {b})"
        if isinstance(node, Cmp):
            return f"(1.0 if {gen(node.a)} {node.op} {gen(node.b)} else 0.0)"
        if isinstance(node, If):
            return f"({gen(node.then)} if {gen(node.cond)} != 0.0 else {gen(node.other)})"
        return f"_{node.fn}({', '.join(gen(a) for a in node.args)})"

    source = "lambda t: " + gen(ast.root)
    return eval(source, dict(_COMPILE_NS))


def evaluate(ast: ExprAst, t: float, params: Mapping[str, float] | None = None) -> float:
    """Compile ``ast`` and evaluate it at a single t.

    Raises EvalDomainError instead of returning NaN or infinity, also for the
    OverflowError or ValueError that ``floor``, ``sin`` and ``cos`` raise on
    an infinite or NaN argument.
    """
    try:
        value = compile_fn(ast, params)(t)
    except ExprError:
        raise
    except (OverflowError, ValueError) as exc:
        raise EvalDomainError(f"expression undefined at t={t!r}: {exc}") from exc
    if not math.isfinite(value):
        raise EvalDomainError(f"expression value {value!r} at t={t!r} is not finite")
    # floor returns an int
    return float(value)


# ---------------------------------------------------------------------------
# Differentiation

def _t_free(node: Node) -> bool:
    if isinstance(node, Var):
        return False
    if isinstance(node, (Const, Param)):
        return True
    if isinstance(node, Neg):
        return _t_free(node.a)
    if isinstance(node, (Bin, Cmp)):
        return _t_free(node.a) and _t_free(node.b)
    if isinstance(node, If):
        return _t_free(node.cond) and _t_free(node.then) and _t_free(node.other)
    return all(_t_free(a) for a in node.args)


_ZERO = Const(0.0)
_ONE = Const(1.0)


def _d(node: Node) -> Node:
    if isinstance(node, (Const, Param)):
        return _ZERO
    if isinstance(node, Var):
        return _ONE
    if isinstance(node, Neg):
        return Neg(_d(node.a))
    if isinstance(node, Cmp):
        # step function: zero derivative away from the jump
        return _ZERO
    if isinstance(node, If):
        return If(node.cond, _d(node.then), _d(node.other))
    if isinstance(node, Bin):
        a, b = node.a, node.b
        da, db = _d(a), _d(b)
        if node.op == "+":
            return Bin("+", da, db)
        if node.op == "-":
            return Bin("-", da, db)
        if node.op == "*":
            return Bin("+", Bin("*", da, b), Bin("*", a, db))
        if node.op == "/":
            num = Bin("-", Bin("*", da, b), Bin("*", a, db))
            return Bin("/", num, Bin("^", b, Const(2.0)))
        # power
        if _t_free(b):
            # plain power rule; stays valid for negative bases with
            # integer exponents, unlike the exp/ln route
            return Bin("*", Bin("*", b, Bin("^", a, Bin("-", b, _ONE))), da)
        # general a^b = exp(b ln a), requires a > 0 at evaluation time
        term1 = Bin("*", db, Call("ln", (a,)))
        term2 = Bin("/", Bin("*", b, da), a)
        return Bin("*", Bin("^", a, b), Bin("+", term1, term2))
    # Call
    fn = node.fn
    a = node.args[0]
    da = _d(a)
    if fn == "sin":
        return Bin("*", Call("cos", (a,)), da)
    if fn == "cos":
        return Neg(Bin("*", Call("sin", (a,)), da))
    if fn == "exp":
        return Bin("*", Call("exp", (a,)), da)
    if fn == "ln":
        return Bin("/", da, a)
    if fn == "sqrt":
        return Bin("/", da, Bin("*", Const(2.0), Call("sqrt", (a,))))
    if fn == "abs":
        return If(Cmp(">=", a, _ZERO), da, Neg(da))
    if fn == "floor":
        return _ZERO
    b = node.args[1]
    db = _d(b)
    if fn == "min":
        return If(Cmp("<=", a, b), da, db)
    return If(Cmp(">=", a, b), da, db)


def differentiate(ast: ExprAst) -> ExprAst:
    """Symbolic d/dt.  The result is an unsimplified tree, correct almost
    everywhere (floor and comparison breakpoints carry derivative zero)."""
    return ExprAst(_d(ast.root), f"d/dt({ast.source})")
