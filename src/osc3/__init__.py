"""Oscillation tests for phi''' + p(t) phi'' + q(t) phi' + r(t) phi = 0.

The package has three layers.  `expr`, `quad`, and `coeffs` provide the
coefficient machinery: a small expression language, adaptive quadrature,
and the pointwise minimum function D used by every integral test.
`kamenev` evaluates the averaged criteria on geometric grids and turns
sampled trajectories into verdicts.  `ode` and `riccati` are the
cross-checks: direct integration with zero counting, and a first order
comparison harness fed by the second order substitution y = phi'/phi.
"""

__version__ = "0.1.0"

from .coeffs import (
    CoefficientModel,
    ModelError,
    SignReport,
    SplitModel,
    build_model,
    check_condition_a,
    cubic_g,
    d_closed,
    d_oracle,
    make_split,
    p_minus,
    sample_points,
)
from .expr import (
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
from .fixtures import FIXTURES, Fixture, get_fixture
from .kamenev import (
    GeometricGrid,
    LimsupPolicy,
    TheoremReport,
    Verdict,
    check_33f,
    classify_bounded_below,
    classify_limsup,
    criterion_kamenev,
    criterion_lazer,
    cumulative_D,
    kamenev_transform,
    theorem_verdict,
)
from .ode import (
    OdeControls,
    OscillationReport,
    Trajectory,
    classify_lemma21,
    count_zeros,
    fundamental_basis,
    integrate_third_order,
    oscillation_report,
    wronskian,
)
from .quad import CumulativeTable, QuadResult, cumulative, integrate_adaptive
from .riccati import (
    AS_WRITTEN,
    LINEARIZED,
    ComparisonPreconditionError,
    ComparisonReport,
    RiccatiProblem,
    bernoulli_closed,
    comparison_check,
    riccati2_residual,
    solve_riccati1,
)

__all__ = [
    "__version__",
    "AS_WRITTEN",
    "LINEARIZED",
    "FIXTURES",
    "CoefficientModel",
    "ComparisonPreconditionError",
    "ComparisonReport",
    "CumulativeTable",
    "EvalDomainError",
    "ExprError",
    "ExprSyntaxError",
    "Fixture",
    "GeometricGrid",
    "LimsupPolicy",
    "ModelError",
    "OdeControls",
    "OscillationReport",
    "QuadResult",
    "RiccatiProblem",
    "SignReport",
    "SplitModel",
    "TheoremReport",
    "Trajectory",
    "UnboundParameterError",
    "UnknownIdentifierError",
    "Verdict",
    "bernoulli_closed",
    "build_model",
    "check_33f",
    "check_condition_a",
    "classify_bounded_below",
    "classify_lemma21",
    "classify_limsup",
    "comparison_check",
    "compile_fn",
    "count_zeros",
    "criterion_kamenev",
    "criterion_lazer",
    "cubic_g",
    "cumulative",
    "cumulative_D",
    "d_closed",
    "d_oracle",
    "differentiate",
    "evaluate",
    "fundamental_basis",
    "get_fixture",
    "integrate_adaptive",
    "integrate_third_order",
    "kamenev_transform",
    "make_split",
    "oscillation_report",
    "p_minus",
    "parse",
    "riccati2_residual",
    "sample_points",
    "solve_riccati1",
    "theorem_verdict",
    "wronskian",
]
