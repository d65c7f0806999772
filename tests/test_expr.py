"""Parser, evaluator, compiler, and symbolic derivative tests."""

import math
import operator
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from osc3.expr import (
    EvalDomainError,
    ExprError,
    ExprSyntaxError,
    UnboundParameterError,
    UnknownIdentifierError,
    _CHECKED_NS,
    _FAST_NS,
    _folded,
    _spelling,
    compile_fn,
    differentiate,
    evaluate,
    parse,
)
from osc3.fixtures import EXAMPLE31, EXAMPLE32


def ev(src, t, params=None, param_names=()):
    return evaluate(parse(src, param_names=param_names), t, params)


# example31's corrected r and example32's bump p at their default parameters,
# written out in Python in the operation order of their sources
def _lambda_source(ast, params):
    """The checked ``lambda t: ...`` text that a function from
    ``compile_fn`` compiles and runs at a point where its fast spelling
    fails."""
    return "lambda t: " + _spelling(_folded(ast, params), fast=False)


def _r31_corrected(t, M=1.0, N=1.0, gamma=2.0, beta=2.0):
    disc = M ** 2.0 * t ** (2.0 * gamma) - 3.0 * M * gamma * t ** (gamma - 1.0)
    if (1.0 if disc < 0.0 else 0.0) != 0.0:
        correction = 0.0
    else:
        u = (math.sqrt(disc) + M * t ** gamma) / 3.0
        g = u ** 3.0 - M * t ** gamma * u ** 2.0 + M * gamma * t ** (gamma - 1.0) * u
        correction = min(0.0, g)
    return N * t ** beta - correction


def _p32_bumps(t, M=13.0):
    n = math.floor(t)
    if (1.0 if t - n <= math.pow(n, -5.0) else 0.0) != 0.0:
        return -M * math.pow(n, 3.0) * math.pow(math.sin(math.pow(n, 5.0) * math.pi * (t - n)), 2.0)
    return 0.0


# dense, plus 7 points on each bump [n, n + n^-5] of example32 up to n = 30
_PARITY_T = np.linspace(1.0, 31.0, 6001).tolist() + [
    n + k / 8.0 * n ** -5.0 for n in range(1, 31) for k in range(1, 8)
]


class TestParseEvaluate:
    def test_arithmetic(self):
        assert ev("1 + 2*3", 0.0) == 7.0
        assert ev("(1 + 2)*3", 0.0) == 9.0
        assert ev("7/2", 0.0) == 3.5
        assert ev("10 - 4 - 3", 0.0) == 3.0

    def test_power_right_associative(self):
        assert ev("2^3^2", 0.0) == 512.0

    def test_unary_minus_binds_looser_than_power(self):
        assert ev("-2^2", 0.0) == -4.0
        assert ev("(-2)^2", 0.0) == 4.0

    def test_power_negative_exponent(self):
        assert ev("t^-1", 2.0) == 0.5

    def test_variable_and_pi(self):
        assert ev("t", 3.5) == 3.5
        assert ev("pi", 0.0) == math.pi
        assert ev("cos(pi)", 0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_functions(self):
        assert ev("sqrt(t)", 9.0) == 3.0
        assert ev("ln(exp(t))", 2.0) == pytest.approx(2.0)
        assert ev("abs(t)", -4.0) == 4.0
        assert ev("floor(t)", 2.7) == 2.0
        assert type(ev("floor(t)", 2.7)) is float
        assert ev("min(t, 1)", 3.0) == 1.0
        assert ev("max(t, 1)", 3.0) == 3.0

    def test_comparisons_are_indicator_valued(self):
        assert ev("t > 1", 2.0) == 1.0
        assert ev("t > 1", 0.5) == 0.0
        assert ev("(t < 3)*5", 2.0) == 5.0
        assert ev("t >= 2", 2.0) == 1.0
        assert ev("t <= 2", 2.0) == 1.0

    def test_conditional_both_branches(self):
        src = "if(t > 1, 10, 20)"
        assert ev(src, 2.0) == 10.0
        assert ev(src, 0.0) == 20.0

    def test_conditional_is_lazy(self):
        # the untaken branch must not be evaluated
        src = "if(t > 0, 1/t, 0)"
        assert ev(src, 0.0) == 0.0
        assert ev(src, 2.0) == 0.5
        f = compile_fn(parse(src))
        assert f(0.0) == 0.0
        assert f(2.0) == 0.5

    def test_parameters(self):
        assert ev("M*t^g", 2.0, {"M": 3.0, "g": 2.0}, ("M", "g")) == 12.0

    def test_whitespace_insensitive(self):
        assert ev(" 1+ 2 * t ", 3.0) == ev("1+2*t", 3.0)


class TestErrors:
    @pytest.mark.parametrize(
        "src",
        ["", "1 +", "(1 + 2", "1 2", "sin()", "min(1)", "if(1, 2)", "t @ 2", "1..5"],
    )
    def test_syntax_errors(self, src):
        with pytest.raises(ExprSyntaxError):
            parse(src)

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError):
            parse("bogus(t)")
        with pytest.raises(UnknownIdentifierError):
            parse("M*t")  # M not declared as a parameter

    def test_unbound_parameter_at_eval(self):
        ast = parse("M*t", param_names=("M",))
        with pytest.raises(UnboundParameterError):
            evaluate(ast, 1.0, {})
        with pytest.raises(UnboundParameterError):
            compile_fn(ast, {})
        # a binding is checked when the whole tree compiles, not per branch taken
        with pytest.raises(UnboundParameterError):
            evaluate(parse("if(t > 0, 1, M)", param_names=("M",)), 1.0, {})

    def test_non_finite_literal(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse("t + 1e999")
        assert info.value.pos == 4

    def test_non_finite_parameter(self):
        ast = parse("M*t", param_names=("M",))
        for bad in (math.inf, math.nan):
            with pytest.raises(EvalDomainError):
                compile_fn(ast, {"M": bad})
            with pytest.raises(EvalDomainError):
                evaluate(ast, 1.0, {"M": bad})

    def test_domain_errors(self):
        cases = [("1/t", 0.0), ("ln(t)", 0.0), ("ln(t)", -1.0),
                 ("sqrt(t)", -1.0), ("exp(t)", 1000.0)]
        for src, t in cases:
            ast = parse(src)
            with pytest.raises(EvalDomainError):
                evaluate(ast, t)
            f = compile_fn(ast)
            with pytest.raises(EvalDomainError):
                f(t)

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalDomainError):
            ev("t^-1", 0.0)


class TestCompiledParity:
    # each source written out by hand in Python, in the same operation order
    REFERENCE = {
        "t^3 - 2*t + 1": lambda t: t ** 3.0 - 2.0 * t + 1.0,
        "sin(2*t) + cos(t/3)": lambda t: math.sin(2.0 * t) + math.cos(t / 3.0),
        "exp(-t)*t^2": lambda t: math.exp(-t) * t ** 2.0,
        "if(t > 2, ln(t), sqrt(abs(t)))": lambda t: math.log(t) if t > 2.0 else math.sqrt(abs(t)),
        "min(t, 5) + max(t, -5)": lambda t: min(t, 5.0) + max(t, -5.0),
        "(t > 1)*(t - 1)^2": lambda t: (1.0 if t > 1.0 else 0.0) * (t - 1.0) ** 2.0,
        "floor(t/2)": lambda t: float(math.floor(t / 2.0)),
    }

    @pytest.mark.parametrize("src", list(REFERENCE))
    def test_matches_tree_walker(self, src):
        """Both entry points equal the reference exactly; the reference
        shares no code with the parser or the compiler."""
        ast = parse(src)
        f = compile_fn(ast)
        reference = self.REFERENCE[src]
        for t in np.linspace(0.1, 12.0, 97):
            t = float(t)
            assert f(t) == reference(t)
            assert evaluate(ast, t) == reference(t)

    @pytest.mark.parametrize(
        "src, params, reference",
        [
            (EXAMPLE31.ode_r_src, dict(EXAMPLE31.defaults), _r31_corrected),
            (EXAMPLE32.p_src, dict(EXAMPLE32.defaults), _p32_bumps),
        ],
        ids=["example31-corrected-r", "example32-p"],
    )
    def test_fixture_coefficients_bit_for_bit(self, src, params, reference):
        f = compile_fn(parse(src, tuple(params)), params)
        for t in _PARITY_T:
            value, expected = f(t), reference(t)
            assert value == expected and math.copysign(1.0, value) == math.copysign(1.0, expected), t

    def test_corrected_r_source_is_folded_and_shared(self):
        params = dict(EXAMPLE31.defaults)
        source = _lambda_source(parse(EXAMPLE31.ode_r_src, tuple(params)), params)
        assert source.count("_sqrt(") == 1
        # the discriminant, computed in the if condition, is read again under the sqrt
        assert source.count("_pow(t, 4.0)") == 1
        literal = r"\(?-?[0-9][0-9.e+-]*\)?"
        assert not re.search(rf"_pow\({literal}, {literal}\)", source), source

    def test_parameter_binding_baked_in(self):
        ast = parse("a*t + b", param_names=("a", "b"))
        f = compile_fn(ast, {"a": 2.5, "b": -1.0})
        assert f(4.0) == 9.0
        # later bindings see their own values, not shared state
        g = compile_fn(ast, {"a": 0.0, "b": 7.0})
        assert g(4.0) == 7.0
        assert f(4.0) == 9.0


class TestFolding:
    @pytest.mark.parametrize(
        "src, message",
        [
            ("t + 1/0", "division by zero at t=1.0"),
            ("ln(0)*t", "ln(0.0) undefined"),
            ("sqrt(-1) + t", "sqrt(-1.0) undefined"),
        ],
    )
    def test_failing_constant_subtree_raises_at_evaluation(self, src, message):
        f = compile_fn(parse(src))
        with pytest.raises(EvalDomainError) as info:
            f(1.0)
        assert str(info.value) == message

    def test_overflowing_constant_is_left_to_run_time(self):
        # folding 9e307*9 would inline 'inf', a name the lambda cannot resolve
        assert compile_fn(parse("9e307*9*t"))(1.0) == math.inf

    def test_unbound_parameter_in_folded_away_branch(self):
        with pytest.raises(UnboundParameterError):
            compile_fn(parse("if(1 > 0, t, M)", param_names=("M",)), {})

    def test_signed_zeros_stay_apart(self):
        assert math.copysign(1.0, compile_fn(parse("t*(-0.0)"))(1.0)) == -1.0
        assert math.copysign(1.0, compile_fn(parse("t*0.0"))(1.0)) == 1.0
        # equal as values, different as text: the second product is not the first
        assert math.copysign(1.0, compile_fn(parse("-(t*0.0) + t*(-0.0)"))(1.0)) == -1.0

    def test_repeated_subtree_under_untaken_branch_is_not_evaluated(self):
        f = compile_fn(parse("if(t > 0, sqrt(t) + sqrt(t), 0) + if(t < 0, ln(-t)*ln(-t), 1)"))
        assert f(4.0) == 5.0
        assert f(-math.e) == 1.0
        assert f(0.0) == 1.0

    def test_branch_bindings_stay_in_their_branch(self):
        # t*t in one branch is computed anew in the other branch and after the if
        f = compile_fn(parse("if(t > 0, t*t, t*t + 1) + t*t"))
        assert f(2.0) == 8.0
        assert f(-2.0) == 9.0


class TestDerivative:
    @pytest.mark.parametrize(
        "src",
        [
            "t^3",
            "t^2 - 3*t + 1",
            "sin(t)*cos(t)",
            "exp(-t^2/2)",
            "ln(t)",
            "sqrt(t)",
            "t/(1 + t^2)",
            "t^t",
            "sin(t^2)/t",
        ],
    )
    def test_against_central_difference(self, src):
        ast = parse(src)
        d = differentiate(ast)
        h = 1e-6
        for t in [0.5, 1.0, 1.7, 2.9, 4.3]:
            approx = (evaluate(ast, t + h) - evaluate(ast, t - h)) / (2 * h)
            exact = evaluate(d, t)
            assert exact == pytest.approx(approx, rel=1e-6, abs=1e-6)

    def test_piecewise_constant_has_zero_derivative(self):
        # floor is flat almost everywhere; the derivative ignores the jumps
        d = differentiate(parse("floor(t)"))
        assert evaluate(d, 2.5) == 0.0

    def test_conditional_differentiates_branchwise(self):
        d = differentiate(parse("if(t > 1, t^2, t)"))
        assert evaluate(d, 2.0) == 4.0
        assert evaluate(d, 0.5) == 1.0

    def test_no_term_on_a_zero_derivative(self):
        # floor(t), M and pi differentiate to nothing, not to a literal 0.0 factor
        params = dict(EXAMPLE32.defaults)
        source = _lambda_source(differentiate(parse(EXAMPLE32.p_src, tuple(params))), params)
        assert "* 0.0" not in source, source
        assert "0.0 *" not in source, source
        assert _lambda_source(differentiate(parse("floor(t)^3 + M", ("M",))), {"M": 1.0}) == "lambda t: 0.0"

    def test_parameter_treated_as_constant(self):
        ast = parse("M*t^2", param_names=("M",))
        d = differentiate(ast)
        assert evaluate(d, 3.0, {"M": 2.0}) == 12.0


@settings(max_examples=200, deadline=None)
@example("1e999")
@example("floor(9e307*9)")
@example("sin(9e307*9)")
@given(st.text(alphabet="0123456789.+-*/^() tincosqrlexpabfmx,<>=", max_size=40))
def test_parser_never_crashes_unexpectedly(source):
    """Arbitrary input either parses or raises the module's own error type."""
    try:
        ast = parse(source)
    except ExprError:
        return
    # anything that parsed must evaluate or fail with a domain error
    try:
        value = evaluate(ast, 1.5)
    except ExprError:
        return
    assert isinstance(value, float)


# A tree walker that shares nothing with the compiler: math and operators only.
_WALK_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_WALK_CMP = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _walk(node, t, params):
    kind = type(node).__name__
    if kind == "Const":
        return node.value
    if kind == "Var":
        return t
    if kind == "Param":
        return params[node.name]
    if kind == "Neg":
        return -_walk(node.a, t, params)
    if kind == "If":
        cond = _walk(node.cond, t, params)
        return _walk(node.then if cond != 0.0 else node.other, t, params)
    if kind == "Cmp":
        a, b = _walk(node.a, t, params), _walk(node.b, t, params)
        return 1.0 if _WALK_CMP[node.op](a, b) else 0.0
    if kind == "Bin":
        a, b = _walk(node.a, t, params), _walk(node.b, t, params)
        if node.op in _WALK_OPS:
            return _WALK_OPS[node.op](a, b)
        if node.op == "/":
            if b == 0.0:
                raise EvalDomainError("division by zero")
            return a / b
        try:
            return math.pow(a, b)
        except (ValueError, OverflowError):
            raise EvalDomainError("pow") from None
    args = [_walk(a, t, params) for a in node.args]
    fn = node.fn
    if fn == "exp":
        try:
            return math.exp(args[0])
        except OverflowError:
            raise EvalDomainError("exp") from None
    if fn == "ln":
        if args[0] <= 0.0:
            raise EvalDomainError("ln")
        return math.log(args[0])
    if fn == "sqrt":
        if args[0] < 0.0:
            raise EvalDomainError("sqrt")
        return math.sqrt(args[0])
    return {"sin": math.sin, "cos": math.cos, "abs": abs, "floor": math.floor,
            "min": min, "max": max}[fn](*args)


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:  # compared by class below
        return type(exc)
    return type(value), repr(value)


_LEAVES = st.sampled_from(["t", "a", "b", "pi", "0", "0.5", "2", "3", "1e-3", "9e307"])


def _grow(children):
    pair = st.tuples(children, children)
    return st.one_of(
        pair.flatmap(lambda p: st.sampled_from(
            [f"({p[0]}){op}({p[1]})" for op in ("+", "-", "*", "/", "^", "<", ">=")])),
        children.map(lambda c: f"-({c})"),
        children.flatmap(lambda c: st.sampled_from(
            [f"{fn}({c})" for fn in ("sin", "cos", "exp", "ln", "abs", "sqrt", "floor")])),
        pair.map(lambda p: f"min({p[0]}, {p[1]})"),
        pair.map(lambda p: f"max({p[0]}, {p[1]})"),
        st.tuples(children, children, children).map(lambda p: f"if({p[0]}, {p[1]}, {p[2]})"),
        # repeated subtrees, also across an if, exercise the sharing
        children.map(lambda c: f"({c})*({c}) - ({c})"),
        pair.map(lambda p: f"if({p[0]}, ({p[1]})+({p[0]}), ({p[1]})*({p[1]}))"),
    )


_SOURCES = st.recursive(_LEAVES, _grow, max_leaves=10)
_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -2.5, 3.0, 1e300, 1e-300])


@settings(max_examples=300, deadline=None)
@example("(t)*(t) - (t)", 0.0, 0.0, -0.0)
@example("if(a, (sqrt(t))+(a), (sqrt(t))*(sqrt(t)))", 0.0, 1.0, -1.0)
@given(_SOURCES, _VALUES, _VALUES, _VALUES)
def test_compiled_matches_tree_walker(source, a, b, t):
    """Folded and shared code gives the walker's value bit for bit, or
    raises the same exception class."""
    ast = parse(source, param_names=("a", "b"))
    params = {"a": a, "b": b}
    f = compile_fn(ast, params)
    assert _outcome(f, t) == _outcome(_walk, ast.root, t, params), _lambda_source(ast, params)


def _spelled(fn, t):
    """What ``fn(t)`` gives, as a value's type and repr (which tells -0.0
    from 0.0) or an exception's class and message."""
    try:
        value = fn(t)
    except Exception as exc:  # compared by class and message below
        return type(exc), str(exc)
    return type(value), repr(value)


_TIMES = st.one_of(_VALUES, st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
# integral powers of a negative, a zero and an int (floor) base
@example("t^3", 0.0, 0.0, -2.5)
@example("t^a", -2.0, 0.0, -3.0)
@example("t^2", 0.0, 0.0, -0.0)
@example("t^-1", 0.0, 0.0, -0.0)
@example("t^-2", 0.0, 0.0, 0.0)
@example("floor(t)^3", 0.0, 0.0, -2.5)
@example("floor(t)^2", 0.0, 0.0, 0.5)
@example("floor(t)^floor(a)", 2.5, 0.0, -7.5)
@example("t^0.5", 0.0, 0.0, -4.0)  # not integral: math.pow, which raises, not a complex **
@example("0^-1", 0.0, 0.0, 1.0)
@example("floor(t)^-5", 0.0, 0.0, 1e62)
@example("floor(t)^-5", 0.0, 0.0, 1e300)
@example("9e307*t^2", 0.0, 0.0, 2.0)
@example("9e307*t^2", 0.0, 0.0, 1e200)
@example("ln(t)", 0.0, 0.0, 0.0)
@example("ln(t)", 0.0, 0.0, -0.0)
@example("ln(t) + ln(-t)", 0.0, 0.0, -1.0)
@example("sqrt(t)", 0.0, 0.0, -0.0)
@example("sqrt(t)", 0.0, 0.0, -1e-300)
@example("exp(t)", 0.0, 0.0, 1000.0)
@example("t + 1/0", 0.0, 0.0, 1.0)
@example("1/t", 0.0, 0.0, -0.0)
@example("1/floor(t)", 0.0, 0.0, 0.5)
@given(_SOURCES, _VALUES, _VALUES, _TIMES)
def test_fast_spelling_matches_checked_spelling(source, a, b, t):
    """The fast spelling gives the checked one's value bit for bit, or
    raises an ArithmeticError or ValueError where the checked one fails; and
    the compiled function, the fast spelling under its guard, gives the
    checked value or raises the checked exception with its message."""
    ast = parse(source, param_names=("a", "b"))
    params = {"a": a, "b": b}
    root = _folded(ast, params)
    checked = eval(_lambda_source(ast, params), dict(_CHECKED_NS))
    fast = eval("lambda t: " + _spelling(root, fast=True), dict(_FAST_NS))
    want, got = _spelled(checked, t), _spelled(fast, t)
    note = _spelling(root, fast=True)
    if not issubclass(got[0], (ArithmeticError, ValueError)):
        assert got == want, note
    assert _spelled(compile_fn(ast, params), t) == want, note


class TestSpellings:
    def test_checked_spelling_is_compiled_at_the_first_failure_only(self, monkeypatch):
        import osc3.expr
        from osc3.coeffs import build_model

        spelling, compiled = osc3.expr._spelling, []

        def counted(root, fast):
            text = spelling(root, fast)
            if not fast:
                compiled.append(text)
            return text

        monkeypatch.setattr(osc3.expr, "_spelling", counted)
        model = EXAMPLE31.build()
        EXAMPLE32.build()
        build_model("0", "-3*t^2", "2.5*t^3")
        for t in np.linspace(1.0, 12.0, 1000).tolist():
            model.r_at(t)
        assert compiled == []

        f = compile_fn(parse("ln(t - 3)"))
        for t in np.linspace(3.5, 100.0, 1000).tolist():
            f(t)
        assert compiled == []
        for _ in range(2):
            with pytest.raises(EvalDomainError) as info:
                f(2.0)
            assert str(info.value) == "ln(-1.0) undefined"
        assert compiled == ["_ln((t - 3.0))"]
        assert f(4.0) == 0.0

    def test_checked_text_is_what_a_failing_point_runs(self):
        ast = parse("t + 1/(t - t)")
        assert _lambda_source(ast, None) == "lambda t: (t + _div(1.0, (t - t), t))"
        assert _spelling(_folded(ast, None), fast=True) == "(t + (1.0 / (t - t)))"
        with pytest.raises(EvalDomainError, match=r"^division by zero at t=5\.0$"):
            compile_fn(ast)(5.0)
