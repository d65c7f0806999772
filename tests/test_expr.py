"""Parser, evaluator, compiler, and symbolic derivative tests."""

import math

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
    compile_fn,
    differentiate,
    evaluate,
    parse,
)


def ev(src, t, params=None, param_names=()):
    return evaluate(parse(src, param_names=param_names), t, params)


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

    def test_parameter_binding_baked_in(self):
        ast = parse("a*t + b", param_names=("a", "b"))
        f = compile_fn(ast, {"a": 2.5, "b": -1.0})
        assert f(4.0) == 9.0
        # later bindings see their own values, not shared state
        g = compile_fn(ast, {"a": 0.0, "b": 7.0})
        assert g(4.0) == 7.0
        assert f(4.0) == 9.0


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
