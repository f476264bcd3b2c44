"""Per-layer spans and counters, attached to fanoslope from outside.

Each public function is wrapped under the name its calling module looks it
up by (``cli``, ``classify``, ``seshadri`` and ``blowup`` each bind
``compare`` at import, ``slope`` binds the Hilbert polynomials and calls
``quotient_slope_via_integrals`` through its globals), so nothing inside
``src/`` is edited. A span's self time is its duration minus the time of
the spans it encloses, kept on a stack. A name that no longer exists makes
installation fail, so a renamed function cannot quietly report zero.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

SESHADRI_RULES = (
    "linear_subspace_exact",
    "witness_curve_upper",
    "proper_transform_upper",
    "intersection_min_lower",
    "product_fiber_estimate",
    "blowup_exceptional_shift",
    "nested_restriction",
    "moving_curve_upper",
    "point_upper_bound",
    "certify_exact_by_restriction",
)
SPAN_LAYERS = (
    "cli.parse",
    "cli.resolve",
    "cli.render",
    "classify",
    "seshadri.rules",
    "blowup.consistency",
    "blowup.hilbert",
    "slope.closed",
    "slope.integrals",
    "slope.quadratic",
    "exactnum.compare",
)
COUNTERS = (
    "cli.parse.scenarios",
    "cli.resolve.errors",
    "cli.render.bytes",
    "seshadri.rules.refused",
    "seshadri.provenance.entries",
    "blowup.consistency.rejected",
    "classify.errors",
    "slope.integrals.repeats",
    "exactnum.compare.rational",
    "exactnum.surd.constructed",
    "exactnum.polynomial.constructed",
    "exactnum.polynomial.evals",
)
RULE_FAMILIES = (
    "high-genus",
    "codimension-cap",
    "picard-rank-one",
    "fano-index",
    "degree-regime",
)


class Tracer:
    """Wraps fanoslope's modules; counts and self times accumulate until
    :meth:`reset`."""

    def __init__(self, fanoslope):
        self.fs = fanoslope
        self._stack = []
        self._patches = []
        self._seen_scenarios = set()
        self.counts = Counter()
        self.self_time = defaultdict(float)
        self.reset()

    def reset(self):
        self.counts.clear()
        self.self_time.clear()
        self._seen_scenarios.clear()
        for layer in SPAN_LAYERS:
            self.counts[layer + ".calls"] = 0
            self.self_time[layer] = 0.0
        for name in COUNTERS:
            self.counts[name] = 0
        for status in self.fs.classify.VerdictStatus:
            self.counts[f"classify.status.{status.value}"] = 0
        for family in RULE_FAMILIES:
            self.counts[f"classify.rule.{family}"] = 0

    # -- wrappers -------------------------------------------------------

    def _span(self, layer, fn, before=None, after=None, failed=None):
        stack, self_time, counts = self._stack, self.self_time, self.counts
        calls = layer + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if before is not None:
                before(*args)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if failed is not None:
                    failed(exc)
                raise
            finally:
                elapsed = perf_counter() - start
                self_time[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, make):
        if attr not in vars(owner):
            raise RuntimeError(
                f"cannot trace {getattr(owner, '__name__', owner)}.{attr}: "
                "the name no longer exists"
            )
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # -- hooks ----------------------------------------------------------

    def _count(self, name, amount=1):
        self.counts[name] += amount

    def _compare_args(self, left, right):
        surd = self.fs.exactnum.Surd
        if all(not isinstance(x, surd) or x.is_rational for x in (left, right)):
            self.counts["exactnum.compare.rational"] += 1

    def _integral_args(self, scenario, lam):
        if scenario in self._seen_scenarios:
            self.counts["slope.integrals.repeats"] += 1
        self._seen_scenarios.add(scenario)

    def _verdict(self, verdict):
        self.counts[f"classify.status.{verdict.status.value}"] += 1
        family = verdict.rule.split(":")[0].split("(")[0]
        self.counts[f"classify.rule.{family}"] += 1

    def _refused(self, exc):
        errors = self.fs.errors
        if isinstance(exc, (errors.HypothesisNotCertified, errors.HypothesisFails)):
            self._count("seshadri.rules.refused")

    def _rejected(self, exc):
        if isinstance(exc, self.fs.errors.ScenarioInconsistent):
            self._count("blowup.consistency.rejected")

    # -- installation ---------------------------------------------------

    def _install(self):
        fs = self.fs
        cli, slope, exactnum = fs.cli, fs.slope, fs.exactnum

        def span(layer, **hooks):
            return lambda fn: self._span(layer, fn, **hooks)

        self._patch(cli, "load_scenario_file", span(
            "cli.parse",
            after=lambda r: self._count("cli.parse.scenarios", len(r.entries)),
        ))
        self._patch(cli, "resolve_estimate", span(
            "cli.resolve",
            after=lambda r: self._count(
                "seshadri.provenance.entries", len(r.provenance)
            ),
            failed=lambda exc: self._count("cli.resolve.errors"),
        ))
        self._patch(cli, "cmd_classify", span("cli.render"))
        self._patch(cli, "classify_curve", span(
            "classify",
            after=self._verdict,
            failed=lambda exc: self._count("classify.errors"),
        ))
        for module in (cli, fs.classify):
            self._patch(module, "check_epsilon_consistency", span(
                "blowup.consistency", failed=self._rejected
            ))
        for module in (cli, fs.classify, fs.seshadri, fs.blowup, exactnum):
            self._patch(module, "compare", span(
                "exactnum.compare", before=self._compare_args
            ))
        for name in SESHADRI_RULES:
            self._patch(fs.seshadri, name, span(
                "seshadri.rules", failed=self._refused
            ))
        self._patch(fs.seshadri.SeshadriEstimate, "merge", span("seshadri.rules"))
        for name in (
            "hilbert_leading_poly",
            "hilbert_subleading_poly",
            "exceptional_restriction_poly",
        ):
            self._patch(slope, name, span("blowup.hilbert"))
        self._patch(slope, "quotient_slope_via_integrals", span(
            "slope.integrals", before=self._integral_args
        ))
        for module in (slope, cli):
            self._patch(module, "quotient_slope", span("slope.closed"))
            self._patch(module, "destabilizing_quadratic", span("slope.quadratic"))
        for owner, attr, name in (
            (exactnum.Surd, "__init__", "exactnum.surd.constructed"),
            (exactnum.Polynomial, "__init__", "exactnum.polynomial.constructed"),
            (exactnum.Polynomial, "__call__", "exactnum.polynomial.evals"),
        ):
            self._patch(owner, attr, lambda fn, name=name: self._counter(name, fn))

    def _uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        try:
            self._install()
            yield self
        finally:
            self._uninstall()

    # -- results --------------------------------------------------------

    def layer_counts(self):
        """Exact counters under their metric names, shares included."""
        counts = dict(self.counts)
        compares = counts["exactnum.compare.calls"]
        integrals = counts["slope.integrals.calls"]
        rational = counts.pop("exactnum.compare.rational")
        repeats = counts.pop("slope.integrals.repeats")
        counts["exactnum.compare.rational_share"] = (
            rational / compares if compares else 0.0
        )
        counts["slope.integrals.repeat_share"] = (
            repeats / integrals if integrals else 0.0
        )
        return counts
