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

import itertools
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


def _children(node: Node) -> tuple:
    if isinstance(node, (Const, Var, Param)):
        return ()
    if isinstance(node, Neg):
        return (node.a,)
    if isinstance(node, (Bin, Cmp)):
        return (node.a, node.b)
    if isinstance(node, If):
        return (node.cond, node.then, node.other)
    return node.args


def _param_names(node: Node):
    if isinstance(node, Param):
        yield node.name
    for child in _children(node):
        yield from _param_names(child)


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


class _Code:
    """A subtree left for run time.

    ``parts`` are the pieces it is emitted from, in evaluation order: fixed
    text, leaf text (``t`` or a literal) and child ``_Code``s.  An ``if``
    holds just (condition, then, other) and sets ``is_if``, because its
    condition runs first and then one branch.  ``key``, the text the subtree
    emits without sharing, is its identity.
    """

    __slots__ = ("parts", "is_if", "key")

    def __init__(self, parts: tuple, is_if: bool = False):
        self.parts = parts
        self.is_if = is_if
        keys = [p.key if isinstance(p, _Code) else p for p in parts]
        self.key = f"({keys[1]} if {keys[0]} != 0.0 else {keys[2]})" if is_if else "".join(keys)


def _literal(value) -> str:
    text = repr(value)
    return f"({text})" if text.startswith("-") else text


def _is_literal(piece) -> bool:
    return isinstance(piece, str) and piece != "t"


def _fold(node: Node, bound: Mapping[str, float]):
    """The piece ``node`` emits, with every subtree that does not depend on
    t computed: a literal, ``"t"``, or a :class:`_Code`.

    A subtree whose children are all literals is computed by evaluating its
    own text, so compile time runs exactly the code run time would.  It
    stays code when that raises or gives a non-finite float.
    """
    if isinstance(node, Const):
        return _literal(node.value)
    if isinstance(node, Param):
        return _literal(bound[node.name])
    if isinstance(node, Var):
        return "t"
    if isinstance(node, If):
        cond = _fold(node.cond, bound)
        if _is_literal(cond):
            return _fold(node.then if eval(cond, _COMPILE_NS) != 0.0 else node.other, bound)
        return _Code((cond, _fold(node.then, bound), _fold(node.other, bound)), is_if=True)
    if isinstance(node, Neg):
        args, texts = (node.a,), ("(-", ")")
    elif isinstance(node, Bin):
        args = (node.a, node.b)
        if node.op == "/":
            texts = ("_div(", ", ", ", t)")
        elif node.op == "^":
            texts = ("_pow(", ", ", ")")
        else:
            texts = ("(", f" {node.op} ", ")")
    elif isinstance(node, Cmp):
        args, texts = (node.a, node.b), ("(1.0 if ", f" {node.op} ", " else 0.0)")
    else:
        args, texts = node.args, (f"_{node.fn}(", *[", "] * (len(node.args) - 1), ")")
    pieces = [_fold(a, bound) for a in args]
    parts = [texts[0]]
    for piece, text in zip(pieces, texts[1:]):
        parts += [piece, text]
    code = _Code(tuple(parts))
    if all(_is_literal(p) for p in pieces):
        try:
            value = eval(code.key, _COMPILE_NS, {"t": None})
            if not isinstance(value, float) or math.isfinite(value):
                return _literal(value)  # raises ValueError for an int too long to write out
        except (ArithmeticError, ValueError):
            pass
    return code


def compile_fn(ast: ExprAst, params: Mapping[str, float] | None = None) -> Callable[[float], float]:
    """Bind parameters and return a plain ``f(t) -> float``.

    This is the module's only evaluator and the hot path of quadrature and
    ODE stepping: the AST becomes one Python lambda.  Every parameter in the
    tree, also in an ``if`` branch that folds away, must be bound to a
    finite value; otherwise this raises.

    * Folded: every subtree without ``t`` is computed here by the same
      helpers and inlined as the ``repr`` of its value, and an ``if`` whose
      condition folds keeps only the taken branch.
    * Left to run time: a subtree without ``t`` whose computation raises or
      gives a non-finite float (``1/0``, ``sqrt(-1)``, ``9e307*9``), so it
      raises or overflows at evaluation exactly where it did unfolded.
    * Shared: a non-leaf subtree that occurs again where it is sure to have
      been evaluated is bound once, ``(_cN := ...)``, at its first
      occurrence in evaluation order, and read as ``_cN`` after that.  What
      an ``if`` condition binds is visible in both branches; what a branch
      binds stays in that branch, so an untaken branch never runs.
      Identity is the emitted text.

    No algebraic identities (``0*x``, ``x*1``) are applied; they would
    change inf, NaN and the sign of zero.  Domain failures raise
    EvalDomainError through small checked helpers; there is no per-call
    finiteness check (:func:`evaluate` adds one).
    """
    return eval(_lambda_source(ast, params), dict(_COMPILE_NS))


def _lambda_source(ast: ExprAst, params: Mapping[str, float] | None) -> str:
    """The ``lambda t: ...`` text that :func:`compile_fn` evaluates."""
    given = params or {}
    bound = {}
    for name in _param_names(ast.root):
        if name not in given:
            raise UnboundParameterError(f"parameter {name!r} has no value")
        value = float(given[name])
        if not math.isfinite(value):
            # repr would inline 'inf' or 'nan', names the lambda cannot resolve
            raise EvalDomainError(f"parameter {name}={value!r} is not finite")
        bound[name] = value
    root = _fold(ast.root, bound)
    reused = set()

    def emit(piece, scope: dict, count) -> str:
        if not isinstance(piece, _Code):
            return piece
        if piece.key in scope:
            n = scope[piece.key]
            reused.add(n)
            return f"_c{n}"
        n = next(count)
        if piece.is_if:
            cond = emit(piece.parts[0], scope, count)
            then = emit(piece.parts[1], dict(scope), count)
            other = emit(piece.parts[2], dict(scope), count)
            text = f"({then} if {cond} != 0.0 else {other})"
        else:
            text = "".join([emit(p, scope, count) for p in piece.parts])
        scope[piece.key] = n
        return f"(_c{n} := {text})" if n in reused else text

    emit(root, {}, itertools.count())  # finds which subtrees are read again
    return "lambda t: " + emit(root, {}, itertools.count())


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
    return not isinstance(node, Var) and all(_t_free(c) for c in _children(node))


_ZERO = Const(0.0)
_ONE = Const(1.0)


def _plus(x: Node, y: Node) -> Node:
    """x + y, leaving out a term that is ``_ZERO``."""
    if x is _ZERO:
        return y
    return x if y is _ZERO else Bin("+", x, y)


def _minus(x: Node, y: Node) -> Node:
    """x - y, leaving out a term that is ``_ZERO``."""
    if y is _ZERO:
        return x
    return Neg(y) if x is _ZERO else Bin("-", x, y)


def _times(x: Node, y: Node) -> Node:
    """x * y, or ``_ZERO`` when either factor is ``_ZERO``."""
    return _ZERO if x is _ZERO or y is _ZERO else Bin("*", x, y)


def _d(node: Node) -> Node:
    """d/dt of ``node``.  An identically zero derivative (of a constant, a
    parameter, ``floor`` or a comparison) is ``_ZERO``, and no sum or
    product-rule term is built on it."""
    if isinstance(node, (Const, Param, Cmp)):
        # a comparison is a step function: zero derivative away from the jump
        return _ZERO
    if isinstance(node, Var):
        return _ONE
    if isinstance(node, If):
        dt, do = _d(node.then), _d(node.other)
        return _ZERO if dt is _ZERO and do is _ZERO else If(node.cond, dt, do)
    if isinstance(node, Neg):
        da = _d(node.a)
        return _ZERO if da is _ZERO else Neg(da)
    if isinstance(node, Bin):
        a, b = node.a, node.b
        da, db = _d(a), _d(b)
        if node.op == "+":
            return _plus(da, db)
        if node.op == "-":
            return _minus(da, db)
        if node.op == "*":
            return _plus(_times(da, b), _times(a, db))
        if node.op == "/":
            num = _minus(_times(da, b), _times(a, db))
            return _ZERO if num is _ZERO else Bin("/", num, Bin("^", b, Const(2.0)))
        # power
        if _t_free(b):
            # plain power rule; stays valid for negative bases with
            # integer exponents, unlike the exp/ln route
            return _times(Bin("*", b, Bin("^", a, Bin("-", b, _ONE))), da)
        # general a^b = exp(b ln a), requires a > 0 at evaluation time
        term1 = _times(db, Call("ln", (a,)))
        term2 = _ZERO if da is _ZERO else Bin("/", Bin("*", b, da), a)
        return _times(Bin("^", a, b), _plus(term1, term2))
    # Call
    fn = node.fn
    a = node.args[0]
    da = _d(a)
    if fn in ("min", "max"):
        b = node.args[1]
        db = _d(b)
        if da is _ZERO and db is _ZERO:
            return _ZERO
        return If(Cmp("<=" if fn == "min" else ">=", a, b), da, db)
    if da is _ZERO or fn == "floor":
        return _ZERO
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
    return If(Cmp(">=", a, _ZERO), da, Neg(da))  # abs


def differentiate(ast: ExprAst) -> ExprAst:
    """Symbolic d/dt.  The result is unsimplified except that no term is
    built on an identically zero derivative; it is correct almost
    everywhere (floor and comparison breakpoints carry derivative zero)."""
    return ExprAst(_d(ast.root), f"d/dt({ast.source})")
