"""Seeded inputs for the benchmark workloads.

The scenario draws follow ``tests/generators.py`` but are a copy, so that an
edit to the tests cannot silently change what the benchmark measures. The
generator never imports fanoslope: it produces plain records in the
scenario-file format, together with what each record is expected to yield
(the certified interval, and whether the record is deliberately
inconsistent), which the oracles compare against.

Every value is exact. A quadratic surd ``a + b*sqrt(m)`` is a :class:`Quad`;
rationals are ``Fraction``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

CLASSIFY_BATCH = 4000  # scenarios per pass over a classify-* batch
FILE_SIZE = 4  # scenarios per file, so one pass is 1000 classify calls
SWEEP_SCENARIOS = 400
POINTS_PER_SCENARIO = 4  # so one sweep pass is 1600 (scenario, lambda) points

FAMILIES = (
    "high-genus",
    "codimension-cap",
    "picard-rank-one",
    "fano-index",
    "degree-regime",
)
FAMILY_WEIGHTS = (1, 1, 1, 1, 4)
SPEC_FORMS = ("literal", "exact", "interval", "pipeline")
INCONSISTENT_SHARE = 0.03


class Quad(NamedTuple):
    """The real number rat + coef*sqrt(rad); rad is n**2 - 1, unreduced."""

    rat: Fraction
    coef: Fraction
    rad: int


def sign(value):
    """Exact sign of a Fraction or a Quad."""
    if not isinstance(value, Quad) or value.coef == 0:
        v = value.rat if isinstance(value, Quad) else value
        return (v > 0) - (v < 0)
    a, b, m = value
    sa, sb = (a > 0) - (a < 0), (1 if b > 0 else -1)
    if sa == 0 or sa == sb:
        return sb
    # opposite signs: a**2 != b**2*m because m = n**2 - 1 is never a square
    return sa if a * a > b * b * m else sb


def sub(x, y):
    """x - y for Fractions and Quads sharing one radicand."""
    if not isinstance(x, Quad) and not isinstance(y, Quad):
        return x - y
    x = x if isinstance(x, Quad) else Quad(x, Fraction(0), 0)
    y = y if isinstance(y, Quad) else Quad(y, Fraction(0), 0)
    return Quad(x.rat - y.rat, x.coef - y.coef, x.rad or y.rad)


def le(x, y):
    return sign(sub(x, y)) <= 0


def dump(value):
    """The scenario-file spelling of an exact value."""
    if isinstance(value, Quad):
        return {"rat": str(value.rat), "coef": str(value.coef), "rad": value.rad}
    return str(value)


@dataclass(frozen=True)
class Expect:
    """What one generated scenario must come back as."""

    name: str
    inconsistent: bool
    lower: object  # Fraction | Quad
    upper: object  # Fraction | Quad | None
    open_interval: bool
    family: str  # the cascade rule the generator aimed at


# -- copies of tests/generators.py, emitting records -------------------------


def random_general_scenario(rng, n_lo=3, n_hi=8):
    """Arbitrary polarization; p independent of (g, d)."""
    n = rng.randint(n_lo, n_hi)
    return {
        "n": n,
        "genus": rng.randint(0, 3),
        "degree": rng.randint(1, 6),
        "normalBundleDegree": rng.randint(-1, n),
        "Ln": str(Fraction(rng.randint(1, 60), rng.randint(1, 4))),
        "KLn1": str(Fraction(rng.randint(-40, 40), rng.randint(1, 3))),
    }


def random_anticanonical_scenario(rng, n_lo=3, n_hi=8, genus_hi=3):
    n = rng.randint(n_lo, n_hi)
    return {
        "n": n,
        "genus": rng.randint(0, genus_hi),
        "degree": rng.randint(1, 6),
        "anticanonical": True,
        "Ln": str(Fraction(rng.randint(1, 80))),
    }


def normal_degree(record):
    if record.get("anticanonical"):
        return record["degree"] - 2 + 2 * record["genus"]
    return record["normalBundleDegree"]


def consistency_cap(record):
    """Largest epsilon compatible with (n-1)*d - epsilon*p >= 0 (a generic
    finite stand-in when p <= 0 puts no cap at all)."""
    n, d, p = record["n"], record["degree"], normal_degree(record)
    if p > 0:
        return Fraction((n - 1) * d, p)
    return Fraction(n + 3)


def consistent_lambda(rng, record):
    """A rational twist strictly inside (0, cap)."""
    return consistency_cap(record) * Fraction(rng.randint(1, 29), 30)


# -- classify-mixed -----------------------------------------------------------


def _nice(rng, top):
    q = rng.choice((1, 1, 2, 3))
    return Fraction(rng.randint(1, top * q), q)


def _upper_pipeline(rng, upper, record):
    n, d, genus = record["n"], record["degree"], record["genus"]
    choices = ["witness", "transform", "nested", "combine"]
    if genus == 0 and d >= 3 and upper == d:
        choices.append("moving")
    if upper.denominator == 1 and upper >= 3:
        choices.append("point")
    kind = rng.choice(choices)
    if kind == "witness":
        return [{"rule": "witness_curve_upper", "degree": str(upper)}]
    if kind == "transform":
        mult = rng.randint(2, 4)
        return [{"rule": "proper_transform_upper", "degree": str(upper * mult),
                 "multiplicity": str(mult)}]
    if kind == "nested":
        k = max(1, math.floor(upper) + rng.randint(0, 2))
        return [
            {"rule": "linear_subspace_exact", "n": k, "as": "ambient"},
            {"rule": "witness_curve_upper", "degree": str(upper), "as": "inner"},
            {"rule": "nested_restriction", "inner": "inner", "ambient": "ambient"},
        ]
    if kind == "combine":
        loose = upper + _nice(rng, 3)
        return [
            {"rule": "witness_curve_upper", "degree": str(loose), "as": "loose"},
            {"rule": "witness_curve_upper", "degree": str(upper), "as": "tight"},
            {"rule": "combine", "of": rng.sample(["loose", "tight"], 2)},
        ]
    if kind == "moving":
        return [{"rule": "moving_curve_upper"}]
    return [{"rule": "point_upper_bound", "n": int(upper), "isPn": False}]


def _exact_pipeline(rng, value):
    choices = ["certify", "certify-shift"]
    if value.denominator == 1 and value >= 2:
        choices += ["subspace", "fiber", "shift"]
        if value >= 4:
            choices.append("point")
    kind = rng.choice(choices)
    v = int(value) if value.denominator == 1 else None
    if kind == "subspace":
        return [{"rule": "linear_subspace_exact", "n": v - 1}]
    if kind == "fiber":
        return [
            {"rule": "linear_subspace_exact", "n": v - 1, "as": "factor"},
            {"rule": "product_fiber_estimate", "of": "factor"},
        ]
    if kind == "shift":
        return [
            {"rule": "linear_subspace_exact", "n": v},
            {"rule": "blowup_exceptional_shift"},
        ]
    if kind == "point":
        return [{"rule": "point_upper_bound", "n": v - 1, "isPn": True}]
    restricted = str(value + Fraction(rng.randint(0, 3), rng.choice((1, 2))))
    k = max(1, math.ceil(value) - 1 + rng.randint(0, 2))  # k + 1 >= value
    if kind == "certify":
        ambient = [{"rule": "linear_subspace_exact", "n": k, "as": "ambient"}]
    else:
        ambient = [
            {"rule": "linear_subspace_exact", "n": k + 1, "as": "center"},
            {"rule": "blowup_exceptional_shift", "of": "center", "as": "ambient"},
        ]
    return ambient + [
        {"rule": "witness_curve_upper", "degree": str(value), "as": "cap"},
        {"rule": "certify_exact_by_restriction", "upper": "cap",
         "ambient": "ambient", "restricted": restricted},
    ]


def _lower_pipeline(rng, lower):
    """[lower, unbounded] for an integer lower >= 2."""
    first = int(lower) - 1
    second = first + rng.randint(0, 3)
    names = rng.sample(["a", "b"], 2)
    return [
        {"rule": "linear_subspace_exact", "n": first, "as": names[0]},
        {"rule": "linear_subspace_exact", "n": second, "as": names[1]},
        {"rule": "intersection_min_lower", "first": "a", "second": "b",
         "as": "low"},
    ]


def _mixed_target(rng, form, record, family):
    """A (lower, upper) the spec form can express; upper None = unbounded."""
    n, d = record["n"], record["degree"]
    top = n + 3
    exact_threshold = None
    if family == "degree-regime" and rng.random() < 0.35:
        if d == 2:
            exact_threshold = Fraction(n)
        elif d == n + 1:
            exact_threshold = Fraction(d)
    if form in ("literal", "exact"):
        value = exact_threshold or _nice(rng, top)
        return value, value
    if form == "interval":
        shape = rng.choice(("both", "upper", "lower"))
    else:
        shape = rng.choice(("upper", "exact", "lower", "both"))
        if shape == "exact":
            value = exact_threshold or _nice(rng, top)
            return value, value
        if shape in ("lower", "both"):
            lower = Fraction(rng.randint(2, top))
            if shape == "lower":
                return lower, None
            return lower, lower + _nice(rng, 4)
    if shape == "upper":
        return Fraction(0), _nice(rng, top)
    if shape == "lower":
        return _nice(rng, top), None
    a, b = sorted((_nice(rng, top), _nice(rng, top)))
    return a, b


def _mixed_spec(rng, form, lower, upper, record):
    if form == "literal":
        return dump(lower)
    if form == "exact":
        return {"exact": dump(lower)}
    if form == "interval":
        spec = {}
        if lower != 0 or rng.random() < 0.5:
            spec["lower"] = dump(lower)
        if upper is not None:
            spec["upper"] = dump(upper)
        return spec
    if upper is not None and lower == upper:
        return _exact_pipeline(rng, lower)
    if lower == 0:
        return _upper_pipeline(rng, upper, record)
    steps = _lower_pipeline(rng, lower)
    if upper is None:
        return steps
    return steps + [
        {"rule": "witness_curve_upper", "degree": str(upper), "as": "high"},
        {"rule": "combine", "of": rng.sample(["low", "high"], 2)},
    ]


def _mixed_flags(rng, family, record):
    n, d = record["n"], record["degree"]
    if family in ("high-genus", "codimension-cap"):
        # these rules fire before any flag is consulted
        flags = {}
        if rng.random() < 0.5:
            flags["picardRankOne"] = rng.random() < 0.5
        if rng.random() < 0.5:
            flags["fanoIndex"] = rng.randint(1, n + 1)
        return flags
    if family == "picard-rank-one":
        flags = {"picardRankOne": True}
        if d != n + 1 and rng.random() < 0.3:
            flags["isPn"] = True
        return flags
    if family == "fano-index":
        return {"fanoIndex": rng.randint(3, n) if n >= 4 else 3}
    choice = rng.randrange(3)
    if choice == 0:
        return {}
    if choice == 1 or d != n + 1:
        return {"fanoIndex": rng.choice((1, 2, n + 1))}
    return {"picardRankOne": True, "isPn": True}


def _fits_family(family, record, lower, upper, cap):
    n = record["n"]
    if cap is not None and not le(lower, cap):
        return False
    if upper is not None and not le(lower, upper):
        return False
    if family == "codimension-cap":
        return upper is not None and le(upper, n - 1)
    if family == "high-genus":
        return True
    return upper is None or not le(upper, n - 1)


def _decorate(rng, record, p):
    """Optional fields that exercise the parser without changing the value."""
    n = record["n"]
    if rng.random() < 0.2:
        record["description"] = f"generated {record['name']} in dimension {n}"
    if rng.random() < 0.3:
        record["normalBundleDegree"] = p
    if rng.random() < 0.2:
        twists = [rng.randint(-1, 2) for _ in range(n - 2)]
        record["splitting"] = twists + [p - sum(twists)]
    if rng.random() < 0.2:
        record["KLn1"] = str(-Fraction(record["Ln"]))


def mixed_scenario(rng, index, open_interval):
    """One classify-mixed record and its expectation."""
    name = f"s{index:05d}"
    while True:
        family = rng.choices(FAMILIES, FAMILY_WEIGHTS)[0]
        form = rng.choice(SPEC_FORMS)
        record = random_anticanonical_scenario(rng, 3, 8, genus_hi=3)
        if family != "high-genus":
            record["genus"] = 0
        elif record["genus"] == 0:
            record["genus"] = rng.randint(1, 3)
        record = {"name": name, **record}
        n, d, genus = record["n"], record["degree"], record["genus"]
        p = normal_degree(record)
        cap = Fraction((n - 1) * d, p) if p > 0 else None
        if rng.random() < INCONSISTENT_SHARE and cap is not None:
            value = cap + Fraction(rng.randint(1, 4), rng.choice((1, 2, 3)))
            lower, upper = value, value
            expect_family = "inconsistent"
        else:
            if genus == 0 and d >= 3:
                cap = min(cap, Fraction(d))
            lower, upper = _mixed_target(rng, form, record, family)
            if not _fits_family(family, record, lower, upper, cap):
                continue
            expect_family = family
        record["seshadri"] = _mixed_spec(rng, form, lower, upper, record)
        flags = _mixed_flags(rng, family, record)
        if flags or rng.random() < 0.5:
            record["flags"] = flags
        _decorate(rng, record, p)
        return record, Expect(
            name=name,
            inconsistent=expect_family == "inconsistent",
            lower=lower,
            upper=upper,
            open_interval=open_interval,
            family=expect_family,
        )


# -- classify-surd ------------------------------------------------------------


def _near(rng, target, rad, root):
    """An irrational a + b*sqrt(rad) within 1e-5 of target."""
    coef = Fraction(rng.choice((1, 1, 2, 3, -1, -2)), rng.choice((1, 2, 3, 4)))
    return Quad(target - coef * root, coef, rad)


def _surd_value(rng, n, d, rad, root):
    if d == 1 and rng.random() < 0.25:
        return Quad(Fraction(0), Fraction(1), rad)  # the threshold itself
    if rng.random() < 0.12:
        return Fraction(n) if d == 2 and rng.random() < 0.5 else _nice(rng, n + 1)
    return _near(rng, n - 1 + Fraction(rng.randint(0, 8), 4), rad, root)


def surd_scenario(rng, index, open_interval):
    """One classify-surd record: genus 0, degree 1 or 2, surd bounds whose
    radicand n**2 - 1 is the radicand of the sqrt(n**2 - 1) threshold.

    (n, d) cycles through 3..8 x {1, 2}, so every seed has the same share of
    each field and regime."""
    name = f"s{index:05d}"
    n = 3 + (index // 2) % 6
    d = 1 + index % 2
    rad = n * n - 1
    root = Fraction(math.isqrt(rad * 10**12), 10**6)
    record = {
        "name": name,
        "n": n,
        "genus": 0,
        "degree": d,
        "anticanonical": True,
        "Ln": str(rng.randint(1, 80)),
    }
    # A bare surd object as the whole spec is read as an unbounded interval
    # by resolve_estimate (a known defect), so surds come as exact or interval.
    if rng.random() < 0.4:
        lower = upper = _surd_value(rng, n, d, rad, root)
        record["seshadri"] = {"exact": dump(lower)}
    else:
        shape = rng.choice(("both", "both", "upper", "lower"))
        a = _surd_value(rng, n, d, rad, root)
        b = _surd_value(rng, n, d, rad, root)
        if not le(a, b):
            a, b = b, a
        lower, upper = {
            "both": (a, b),
            "upper": (Fraction(0), b),
            "lower": (a, None),
        }[shape]
        record["seshadri"] = {}
        if shape != "upper" or rng.random() < 0.5:
            record["seshadri"]["lower"] = dump(lower)
        if upper is not None:
            record["seshadri"]["upper"] = dump(upper)
    _decorate(rng, record, d - 2)
    return record, Expect(
        name=name,
        inconsistent=False,
        lower=lower,
        upper=upper,
        open_interval=open_interval,
        family="surd",
    )


# -- batches ------------------------------------------------------------------


def classify_batch(seed, workload, size=CLASSIFY_BATCH, file_size=FILE_SIZE):
    """Files for a classify-* workload.

    Returns a list of (records, open_interval, expectations) per file. In
    classify-surd every other file is classified with --open-interval.
    """
    rng = random.Random(f"{workload}:{seed}")
    make = mixed_scenario if workload == "classify-mixed" else surd_scenario
    files = []
    for start in range(0, size, file_size):
        open_interval = workload == "classify-surd" and (start // file_size) % 2 == 1
        records, expects = [], []
        for i in range(start, min(size, start + file_size)):
            record, expect = make(rng, i, open_interval)
            records.append(record)
            expects.append(expect)
        files.append((records, open_interval, expects))
    return files


def sweep_batch(seed, scenarios=SWEEP_SCENARIOS, points=POINTS_PER_SCENARIO):
    """General and anticanonical scenarios with n up to 12, each with
    rational twists strictly inside its consistent range.

    The kind alternates and n cycles through 3..12, so that every seed has
    the same share of the costly high-dimensional scenarios. Returns
    (records, lambdas) where lambdas[i] lists the twists of records[i] as
    Fractions.
    """
    rng = random.Random(f"sweep-crosscheck:{seed}")
    records, lambdas = [], []
    for i in range(scenarios):
        n = 3 + (i // 2) % 10
        if i % 2:
            record = random_anticanonical_scenario(rng, n, n)
        else:
            record = random_general_scenario(rng, n, n)
        record = {"name": f"s{i:05d}", **record}
        record["seshadri"] = str(consistency_cap(record))
        records.append(record)
        lambdas.append([consistent_lambda(rng, record) for _ in range(points)])
    return records, lambdas
