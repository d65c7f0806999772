"""Named coefficient fixtures used by the CLI and the test suite.

Each fixture bundles sources for p, q, r together with the extras a fair
evaluation needs: the intended minimum-function override where the
coefficients were engineered so that D collapses to a stated closed form,
quadrature breakpoints and integrator step windows for bump trains, and
per-theorem alpha choices.  The command line builds an unnamed fixture
(name None) from raw sources, so every command works on one Fixture.

The `example31` fixture keeps two r sources.  The plain one drops the
correction term that the engineered coefficients carry, so its honest
minimum function differs from the intended N t^beta; criteria therefore
run with the override.  The corrected source reinstates that term in
closed form (it is expressible with sqrt/min/if), which makes d_closed of
the corrected model equal N t^beta to rounding and gives the ODE
verification path the actual engineered equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .coeffs import PROBE_SPAN, CoefficientModel, SplitModel, build_model, make_split, probe
from .expr import compile_fn, parse
from .kamenev import GeometricGrid

# u achieving the interior minimum of the cubic, for p = -M t^gamma, q = 0
_U31 = "((sqrt(M^2*t^(2*gamma) - 3*M*gamma*t^(gamma-1)) + M*t^gamma)/3)"
# cubic at that u, without its constant term r
_G31 = f"({_U31}^3 - M*t^gamma*{_U31}^2 + M*gamma*t^(gamma-1)*{_U31})"
_R31_CORRECTED = (
    "N*t^beta - if(M^2*t^(2*gamma) - 3*M*gamma*t^(gamma-1) < 0, 0, min(0, " + _G31 + "))"
)

# bump train: on [n, n + n^-5] with n = floor(t), p = -M n^3 sin^2(n^5 pi (t-n))
_P_BUMPS = (
    "if(t - floor(t) <= floor(t)^(-5), "
    "-M*floor(t)^3 * sin(floor(t)^5 * pi * (t - floor(t)))^2, 0)"
)


@dataclass(frozen=True)
class Fixture:
    name: str | None
    description: str
    p_src: str
    q_src: str
    r_src: str
    defaults: tuple = ()
    t0: float = 1.0
    d_src: str | None = None
    split_srcs: tuple | None = None
    alpha: float = 1.0
    alpha33: float = 2.0
    grid_ratio: float = 1.15
    grid_count: int = 120
    theorems: tuple = ("LAZER", "THM31", "THM32", "THM33")
    ode_r_src: str | None = None
    has_bumps: bool = False

    def params_with(self, overrides: dict | None = None) -> dict:
        params = dict(self.defaults)
        for k, v in (overrides or {}).items():
            if k not in params:
                raise KeyError(f"fixture {self.name} has no parameter {k!r}; knows {sorted(params)}")
            params[k] = float(v)
        return params

    def build(self, overrides: dict | None = None) -> CoefficientModel:
        return build_model(self.p_src, self.q_src, self.r_src, self.params_with(overrides), t0=self.t0)

    def build_ode_model(self, overrides: dict | None = None) -> CoefficientModel:
        r_src = self.ode_r_src or self.r_src
        return build_model(self.p_src, self.q_src, r_src, self.params_with(overrides), t0=self.t0)

    def build_split(self, model: CoefficientModel) -> SplitModel:
        p1, p2 = self.split_srcs or (None, None)
        windows = self.feature_windows(model.t0 + PROBE_SPAN) or ()
        return make_split(model, p1_src=p1, p2_src=p2, windows=windows)

    def d_fn(self, overrides: dict | None = None) -> Callable[[float], float] | None:
        if not self.d_src:
            return None
        params = self.params_with(overrides)
        fn = compile_fn(parse(self.d_src, param_names=tuple(params)), params)
        probe({"D": fn}, self.t0)
        return fn

    def grid(self) -> GeometricGrid:
        return GeometricGrid(self.t0, self.grid_ratio, self.grid_count)

    def alpha_for(self, theorem: str) -> float | None:
        if theorem == "THM33":
            return self.alpha33
        if theorem == "LAZER":
            return None
        return self.alpha

    def breakpoints(self, t_end: float) -> list | None:
        if not self.has_bumps:
            return None
        return [edge for pair in bump_intervals(t_end) for edge in pair]

    def feature_windows(self, t_end: float) -> list | None:
        if not self.has_bumps:
            return None
        return bump_intervals(t_end)


def bump_intervals(t_end: float) -> list:
    """The active intervals [n, n + n^-5] of the bump train up to t_end."""
    out = []
    n = 1
    while n <= t_end:
        out.append((float(n), float(n) + float(n) ** -5.0))
        n += 1
    return out


LAZER_FIXTURE = Fixture(
    name="lazer",
    description="constant coefficients p=0, q=0, r=1; the classical divergent-integral case",
    p_src="0",
    q_src="0",
    r_src="1",
    alpha=1.0,
    alpha33=2.0,
)

EXAMPLE31 = Fixture(
    name="example31",
    description="p = -M t^gamma, q = 0, r = N t^beta; minimum function intended as N t^beta",
    p_src="-M*t^gamma",
    q_src="0",
    r_src="N*t^beta",
    defaults=(("M", 1.0), ("N", 1.0), ("gamma", 2.0), ("beta", 2.0)),
    d_src="N*t^beta",
    alpha=1.0,
    alpha33=2.0,
    theorems=("THM31", "THM32"),
    ode_r_src=_R31_CORRECTED,
)

EXAMPLE32 = Fixture(
    name="example32",
    description="bump-train p with shrinking supports, q = 0, r = r0; minimum function intended as r0",
    p_src=_P_BUMPS,
    q_src="0",
    r_src="r0",
    defaults=(("M", 13.0), ("r0", 1.0)),
    d_src="r0",
    split_srcs=(_P_BUMPS, "0"),
    alpha=2.0,
    alpha33=2.0,
    grid_count=61,
    theorems=("THM31", "THM33"),
    has_bumps=True,
)

FIXTURES = {f.name: f for f in (LAZER_FIXTURE, EXAMPLE31, EXAMPLE32)}


def get_fixture(name: str) -> Fixture:
    try:
        return FIXTURES[name]
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(sorted(FIXTURES))}") from None
