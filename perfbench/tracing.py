"""Spans and counters around osc3's public functions, from outside osc3.

``Tracer.install`` rebinds each traced function in every ``osc3`` module
that holds it (modules import each other's functions by name), and
``Tracer.uninstall`` puts the originals back, so untraced operations run
the program exactly as shipped.

Layers are osc3's modules.  A span is opened at each call of:

    coeffs   build_model, make_split            -> coeffs.build
             check_condition_a                  -> coeffs.sign_check
    quad     integrate_adaptive, cumulative
    kamenev  theorem_verdict, and one span per criterion, named by its id
             (THM31B ... LAZER; check_33f is THM33F)
    ode      oscillation_report, integrate_third_order, count_zeros,
             classify_lemma21

Counted without a span, because they run per integrand point: every
function returned by ``expr.compile_fn`` (the compiled coefficients), and
``coeffs.d_closed`` and ``coeffs.p_minus``.

Two totals are kept by independent paths so that the tracer checks itself:
the integrand calls seen by a counting wrapper around every integrand
passed to ``integrate_adaptive`` must equal the sum of ``QuadResult.evals``,
and for every ``integrate_third_order`` call the calls of the model's
compiled ``p_at`` must equal 1 + 6 (accepted + rejected) steps.
"""

from __future__ import annotations

import functools
import sys
import time

POINT_STRIDE = 16  # every 16th argument of a compiled coefficient is kept ...
POINT_CAP = 20000  # ... up to this many per function, to time it afterwards

KAMENEV_IDS = ("THM31B", "THM32C", "THM32D", "THM33E", "THM33F", "THM33G", "LAZER")


class Span:
    __slots__ = ("sid", "parent", "name", "layer", "op", "start", "end", "evals")

    def __init__(self, sid, parent, name, layer, op, start):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.layer = layer
        self.op = op
        self.start = start
        self.end = None
        self.evals = 0

    def as_dict(self):
        return {"id": self.sid, "parent": self.parent, "name": self.name, "layer": self.layer,
                "op": self.op, "start": self.start, "end": self.end, "quad_evals": self.evals}


class Tracer:
    """Spans kept in memory plus the counters named in the module docstring."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.saved = []
        self.live_compiled = []
        self.counts = {"quad.calls": 0, "quad.evals": 0, "quad.depth_cap_hits": 0,
                       "integrand.calls": 0, "coeffs.d_closed_calls": 0,
                       "coeffs.p_minus_calls": 0, "ode.steps_accepted": 0,
                       "ode.steps_rejected": 0, "ode.renormalizations": 0, "ode.zeros": 0}
        self.fn_calls = {}  # compiled-function key -> calls
        self.fn_points = {}  # compiled-function key -> kept arguments
        self.fn_source = {}  # compiled-function key -> (ast, params)
        self.ode_mismatches = []

    # -- spans ---------------------------------------------------------
    def open(self, name, layer):
        parent = self.stack[-1].sid if self.stack else None
        span = Span(len(self.spans), parent, name, layer, self.op, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def add_quad_evals(self, n):
        for span in self.stack:
            span.evals += n

    def _spanned(self, fn, name_of, layer, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name_of(args, kwargs), layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- counting --------------------------------------------------------
    def _counted(self, fn, key):
        def wrapper(*args):
            self.counts[key] += 1
            return fn(*args)

        return wrapper

    def _counted_compiled(self, fn, key):
        calls = self.fn_calls
        points = self.fn_points.setdefault(key, [])
        calls.setdefault(key, 0)
        cell = [0]

        def compiled(t):
            n = cell[0] + 1
            cell[0] = n
            if n % POINT_STRIDE == 0 and len(points) < POINT_CAP:
                points.append(t)
            return fn(t)

        compiled.cell = cell
        compiled.key = key
        return compiled

    # -- installation ----------------------------------------------------
    def _patch(self, original, replacement):
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("osc3"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self.saved.append((mod, attr, original))

    def install(self):
        from osc3 import coeffs, expr, kamenev, ode, quad

        orig_compile = expr.compile_fn

        def compile_fn(ast, params=None):
            fn = orig_compile(ast, params)
            key = (ast.source, tuple(sorted((params or {}).items())))
            self.fn_source.setdefault(key, (ast, dict(params or {})))
            wrapped = self._counted_compiled(fn, key)
            self.live_compiled.append(wrapped)
            return wrapped

        self._patch(orig_compile, functools.wraps(orig_compile)(compile_fn))

        fixed = lambda name: (lambda args, kwargs: name)
        self._patch(coeffs.build_model, self._spanned(coeffs.build_model, fixed("coeffs.build"), "coeffs"))
        self._patch(coeffs.make_split, self._spanned(coeffs.make_split, fixed("coeffs.build"), "coeffs"))
        self._patch(coeffs.check_condition_a,
                    self._spanned(coeffs.check_condition_a, fixed("coeffs.sign_check"), "coeffs"))
        self._patch(coeffs.d_closed, self._counted(coeffs.d_closed, "coeffs.d_closed_calls"))
        self._patch(coeffs.p_minus, self._counted(coeffs.p_minus, "coeffs.p_minus_calls"))

        orig_integrate = quad.integrate_adaptive

        @functools.wraps(orig_integrate)
        def integrate_adaptive(f, *args, **kwargs):
            counts = self.counts

            def integrand(x):
                counts["integrand.calls"] += 1
                return f(x)

            span = self.open("quad.integrate_adaptive", "quad")
            try:
                res = orig_integrate(integrand, *args, **kwargs)
            finally:
                self.close(span)
            counts["quad.calls"] += 1
            counts["quad.evals"] += res.evals
            counts["quad.depth_cap_hits"] += int(res.warning)
            self.add_quad_evals(res.evals)
            return res

        self._patch(orig_integrate, integrate_adaptive)
        self._patch(quad.cumulative, self._spanned(quad.cumulative, fixed("quad.cumulative"), "quad"))

        self._patch(kamenev.theorem_verdict,
                    self._spanned(kamenev.theorem_verdict, fixed("kamenev.theorem_verdict"), "kamenev"))
        self._patch(kamenev.criterion_kamenev,
                    self._spanned(kamenev.criterion_kamenev,
                                  lambda a, k: "kamenev." + (a[2] if len(a) > 2 else k["mode"]), "kamenev"))
        self._patch(kamenev.cumulative_D,
                    self._spanned(kamenev.cumulative_D,
                                  lambda a, k: "kamenev." + (a[2] if len(a) > 2 else k.get("criterion_id", "THM32C")),
                                  "kamenev"))
        self._patch(kamenev.check_33f, self._spanned(kamenev.check_33f, fixed("kamenev.THM33F"), "kamenev"))
        self._patch(kamenev.criterion_lazer,
                    self._spanned(kamenev.criterion_lazer, fixed("kamenev.LAZER"), "kamenev"))

        orig_ode = ode.integrate_third_order

        @functools.wraps(orig_ode)
        def integrate_third_order(model, *args, **kwargs):
            p_at = model.p_at
            before = p_at.cell[0] if hasattr(p_at, "cell") else None
            span = self.open("ode.integrate", "ode")
            try:
                traj = orig_ode(model, *args, **kwargs)
            finally:
                self.close(span)
            st = traj.stats
            self.counts["ode.steps_accepted"] += st.accepted
            self.counts["ode.steps_rejected"] += st.rejected
            if traj.log_scale is not None:
                steps = traj.log_scale[1:] != traj.log_scale[:-1]
                self.counts["ode.renormalizations"] += int(steps.sum())
            if before is not None:
                seen = p_at.cell[0] - before
                expect = 1 + 6 * (st.accepted + st.rejected)
                if seen != expect:
                    self.ode_mismatches.append((seen, expect))
            else:
                self.ode_mismatches.append(("p_at not counted", None))
            return traj

        self._patch(orig_ode, integrate_third_order)

        def note_zeros(args, zeros):
            self.counts["ode.zeros"] += len(zeros)

        self._patch(ode.count_zeros, self._spanned(ode.count_zeros, fixed("ode.zeros"), "ode", note_zeros))
        self._patch(ode.classify_lemma21,
                    self._spanned(ode.classify_lemma21, fixed("ode.classify"), "ode"))
        self._patch(ode.oscillation_report,
                    self._spanned(ode.oscillation_report, fixed("ode.report"), "ode"))

    def uninstall(self):
        for mod, attr, original in reversed(self.saved):
            setattr(mod, attr, original)
        self.saved = []
        for fn in self.live_compiled:  # fold this operation's calls into the totals
            self.fn_calls[fn.key] += fn.cell[0]
        self.live_compiled = []

    def run_op(self, op_index, call):
        """Run ``call()`` as operation ``op_index`` with every wrapper installed."""
        self.op = op_index
        self.install()
        span = self.open("cli.op", "cli")
        try:
            return call()
        finally:
            self.close(span)
            self.uninstall()

    # -- results -----------------------------------------------------------
    def ns_per_eval(self, min_seconds=0.02):
        """Count-weighted cost of one call of the compiled coefficients,
        timed on the arguments kept during the traced operations."""
        from osc3 import expr

        total_calls = 0
        total_ns = 0.0
        for key, pts in self.fn_points.items():
            if not pts:
                continue
            ast, params = self.fn_source[key]
            fn = expr.compile_fn(ast, params)
            evals = 0
            t0 = time.perf_counter()
            while True:
                for t in pts:
                    fn(t)
                evals += len(pts)
                elapsed = time.perf_counter() - t0
                if elapsed >= min_seconds:
                    break
            calls = self.fn_calls[key]
            total_calls += calls
            total_ns += calls * elapsed / evals * 1e9
        return total_ns / total_calls if total_calls else 0.0

    def metrics(self, n_ops):
        """Per-layer metrics, per traced operation."""
        spans = self.spans
        dur = [s.end - s.start for s in spans]
        child = [0.0] * len(spans)
        for s, d in zip(spans, dur):
            if s.parent is not None:
                child[s.parent] += d
        self_time = {}
        for s, d, c in zip(spans, dur, child):
            self_time[s.layer] = self_time.get(s.layer, 0.0) + d - c
        by_name = {}
        evals_by_name = {}
        for s, d in zip(spans, dur):
            by_name[s.name] = by_name.get(s.name, 0.0) + d
            evals_by_name[s.name] = evals_by_name.get(s.name, 0) + s.evals
        quad_s = sum(d for s, d in zip(spans, dur)
                     if s.layer == "quad" and (s.parent is None or spans[s.parent].layer != "quad"))
        c = self.counts
        steps = c["ode.steps_accepted"] + c["ode.steps_rejected"]
        per = lambda v: v / n_ops
        out = {
            "expr.evals": (per(sum(self.fn_calls.values())), "count"),
            "expr.ns_per_eval": (self.ns_per_eval(), "ns"),
            "coeffs.build_s": (per(by_name.get("coeffs.build", 0.0)), "s"),
            "coeffs.sign_check_s": (per(by_name.get("coeffs.sign_check", 0.0)), "s"),
            "coeffs.d_closed_calls": (per(c["coeffs.d_closed_calls"]), "count"),
            "coeffs.p_minus_calls": (per(c["coeffs.p_minus_calls"]), "count"),
            "quad.calls": (per(c["quad.calls"]), "count"),
            "quad.evals": (per(c["quad.evals"]), "count"),
            "quad.s": (per(quad_s), "s"),
            "quad.us_per_eval": (quad_s / c["quad.evals"] * 1e6 if c["quad.evals"] else 0.0, "us"),
            "quad.depth_cap_hits": (per(c["quad.depth_cap_hits"]), "count"),
        }
        for cid in KAMENEV_IDS:
            out[f"kamenev.{cid}_s"] = (per(by_name.get(f"kamenev.{cid}", 0.0)), "s")
            out[f"kamenev.{cid}_evals"] = (per(evals_by_name.get(f"kamenev.{cid}", 0)), "count")
        out.update({
            "kamenev.self_s": (per(self_time.get("kamenev", 0.0)), "s"),
            "ode.steps_accepted": (per(c["ode.steps_accepted"]), "count"),
            "ode.steps_rejected": (per(c["ode.steps_rejected"]), "count"),
            "ode.integrate_s": (per(by_name.get("ode.integrate", 0.0)), "s"),
            "ode.us_per_step": (by_name.get("ode.integrate", 0.0) / steps * 1e6 if steps else 0.0, "us"),
            "ode.renormalizations": (per(c["ode.renormalizations"]), "count"),
            "ode.zeros": (per(c["ode.zeros"]), "count"),
            "ode.zeros_s": (per(by_name.get("ode.zeros", 0.0)), "s"),
            "ode.classify_s": (per(by_name.get("ode.classify", 0.0)), "s"),
            "cli.self_s": (per(self_time.get("cli", 0.0)), "s"),
        })
        return out

    def identity_problems(self):
        problems = []
        c = self.counts
        if c["quad.evals"] != c["integrand.calls"]:
            problems.append(f"quad.evals {c['quad.evals']} != counted integrand calls {c['integrand.calls']}")
        for seen, expect in self.ode_mismatches:
            problems.append(f"integrate_third_order: p_at called {seen} times, 1 + 6 steps = {expect}")
        return problems
