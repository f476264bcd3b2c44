"""Exact oracles for the benchmark's outputs.

They run after the timed region, on the outputs of the reference pass, and
take a different route from the code being timed:

* classify-*: the witness of every destabilizing verdict is put into
  ``destabilizing_quadratic`` (not the regime formulas ``classify`` uses); it
  must be 0 for ``semistable-not-stable``, negative for
  ``strictly-destabilized``, and lie in (0, lower] (in (0, lower) with
  ``--open-interval``). The certified interval must be the one the
  generator built, and exactly the deliberately inconsistent scenarios come
  back as ``ScenarioInconsistent`` records.
* sweep-crosscheck: the closed form must equal the integral route, and
  sign(F(lambda)) must equal sign(mu_lambda - mu), with mu recomputed here.

Each item also gets a short hash of its own output, compared with the
recorded reference on the recorded seed.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from fanoslope.blowup import CurveScenario
from fanoslope.exactnum import Surd, compare
from fanoslope.slope import destabilizing_quadratic

from gen import Quad

_RATIONAL = r"-?\d+(?:/\d+)?"
_SURD = re.compile(
    rf"^(?:(?P<rat>{_RATIONAL}) (?P<op>[+-]) )?(?P<neg>-)?"
    r"(?:(?P<coef>\d+(?:/\d+)?)\*)?sqrt\((?P<rad>\d+)\)$"
)


@dataclass
class Item:
    """One checked item: a scenario, or a (scenario, lambda) point."""

    ident: str
    text: str  # the item's own output, canonically spelled
    problem: str | None = None

    @property
    def digest(self):
        return hashlib.sha256(self.text.encode()).hexdigest()[:12]


def exact(value):
    """A generator value (Fraction or Quad) as a fanoslope number."""
    if isinstance(value, Quad):
        return Surd(value.rat, value.coef, value.rad)
    return value


def parse_rendered(text):
    """Invert ``render_value``: '3/2', 'sqrt(2)', '1 - 3/4*sqrt(15)'."""
    if re.fullmatch(_RATIONAL, text):
        return Fraction(text)
    match = _SURD.match(text)
    if match is None:
        raise ValueError(f"unreadable exact value {text!r}")
    coef = Fraction(match["coef"] or 1)
    if match["neg"] or match["op"] == "-":
        coef = -coef
    return Surd(Fraction(match["rat"] or 0), coef, int(match["rad"]))


def parse_dumped(value):
    """Invert ``dump_value``: a rational string or a surd object."""
    if value is None:
        return None
    if isinstance(value, dict):
        return Surd(Fraction(value["rat"]), Fraction(value["coef"]), value["rad"])
    return Fraction(value)


def _text_blocks(stdout):
    blocks = []
    for line in stdout.splitlines():
        if line.startswith("scenario: "):
            blocks.append({"name": line[len("scenario: "):], "lines": [line]})
            continue
        if not blocks:
            raise ValueError(f"output line outside a block: {line!r}")
        blocks[-1]["lines"].append(line)
        key, _, value = line.strip().partition(": ")
        if key in ("status", "witness lambda", "seshadri", "rule"):
            blocks[-1][key] = value
        elif key == "error":
            blocks[-1]["error_type"] = value.partition(":")[0]
    records = []
    for block in blocks:
        record = {"name": block["name"], "text": "\n".join(block["lines"])}
        if "error_type" in block:
            record["error_type"] = block["error_type"]
        else:
            record["status"] = block["status"]
            record["rule"] = block["rule"]
            witness = block.get("witness lambda")
            record["witness"] = None if witness is None else parse_rendered(witness)
            interval = block["seshadri"]
            if interval.startswith("exact "):
                record["lower"] = record["upper"] = parse_rendered(interval[6:])
            else:
                low, high = interval.strip("[]").split(", ")
                record["lower"] = parse_rendered(low)
                record["upper"] = None if high == "unbounded" else parse_rendered(high)
        records.append(record)
    return records


def _json_blocks(stdout):
    records = []
    for raw in json.loads(stdout)["verdicts"]:
        record = {"name": raw["name"], "text": json.dumps(raw, sort_keys=True)}
        if "error" in raw:
            record["error_type"] = raw["error_type"]
        else:
            record["status"] = raw["status"]
            record["rule"] = raw["rule"]
            record["witness"] = parse_dumped(raw["witness_lambda"])
            record["lower"] = parse_dumped(raw["seshadri"]["lower"])
            record["upper"] = parse_dumped(raw["seshadri"]["upper"])
        records.append(record)
    return records


def rule_family(rule):
    """'degree-regime(d=2): ...' -> 'degree-regime'."""
    match = re.match(r"[a-z]+(?:-[a-z]+)*", rule)
    return match.group(0) if match else rule


def _scenario(record):
    return CurveScenario.anticanonical_curve(
        record["n"], record["genus"], record["degree"], Fraction(record["Ln"])
    )


def _same(value, expected):
    if expected is None or value is None:
        return value is None and expected is None
    return compare(value, exact(expected)) == 0


def _verdict_problem(out, expect, record):
    if expect.inconsistent:
        if out.get("error_type") != "ScenarioInconsistent":
            return "a deliberately inconsistent scenario was not rejected"
        return None
    if "error_type" in out:
        return f"unexpected {out['error_type']} record"
    if not (_same(out["lower"], expect.lower) and _same(out["upper"], expect.upper)):
        return "certified interval differs from the generated one"
    status, witness = out["status"], out["witness"]
    if status in ("stable", "conditional-on-seshadri"):
        return None if witness is None else f"{status} verdict carries a witness"
    if witness is None:
        return f"{status} verdict without a witness"
    edge = compare(witness, out["lower"])
    if compare(witness, 0) <= 0 or edge > 0 or (expect.open_interval and edge == 0):
        return "witness lies outside the certified interval"
    f_sign = compare(destabilizing_quadratic(_scenario(record))(witness), 0)
    wanted = 0 if status == "semistable-not-stable" else -1
    if f_sign != wanted:
        return f"F(witness) has sign {f_sign} for a {status} verdict"
    return None


def check_classify_call(records, expects, fmt, code, stdout, stderr):
    """Check one classify call; returns its items and parsed records."""
    wanted_code = 1 if any(e.inconsistent for e in expects) else 0
    file_problem = None
    if code != wanted_code:
        file_problem = f"exit code {code}, expected {wanted_code}"
    elif stderr:
        file_problem = f"unexpected stderr {stderr[:80]!r}"
    try:
        outs = (_json_blocks if fmt == "json" else _text_blocks)(stdout)
    except (ValueError, KeyError, TypeError) as exc:
        outs, file_problem = [], file_problem or f"unparseable output: {exc}"
    if [o["name"] for o in outs] != [e.name for e in expects]:
        file_problem = file_problem or "scenario records missing or out of order"
        outs = [{"name": e.name, "text": ""} for e in expects]
    items = []
    for out, expect, record in zip(outs, expects, records):
        problem = file_problem
        if problem is None:
            try:
                problem = _verdict_problem(out, expect, record)
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"oracle could not read the verdict: {exc}"
        items.append(Item(expect.name, out["text"], problem))
    return items, outs


def manifold_slope(record):
    """mu = -n*K.L**(n-1) / (2*L**n), recomputed from the record."""
    ln = Fraction(record["Ln"])
    k_ln1 = -ln if record.get("anticanonical") else Fraction(record["KLn1"])
    return -record["n"] * k_ln1 / (2 * ln)


def check_sweep_point(record, lam, mu_lambda, via_integral, f_value):
    ident = f"{record['name']}@{lam}"
    text = f"{ident} {mu_lambda} {via_integral} {f_value}"
    problem = None
    if mu_lambda != via_integral:
        problem = "closed form and integral route differ"
    else:
        mu = manifold_slope(record)
        lhs = (f_value > 0) - (f_value < 0)
        rhs = (mu_lambda > mu) - (mu_lambda < mu)
        if lhs != rhs:
            problem = "sign of F(lambda) differs from sign of mu_lambda - mu"
    return Item(ident, text, problem)


def check_outputs(workload, state, outputs, fmt):
    """Oracle items for the reference pass, plus the workload's mix
    histograms (verdicts, rule families and error types, or for the sweep
    the sign of F and the polarization kind)."""
    mix = {"status": Counter(), "rule": Counter(), "error": Counter()}
    items = []
    if workload == "sweep-crosscheck":
        records, lambdas = state
        points = [(r, lam) for r, lams in zip(records, lambdas) for lam in lams]
        for (record, lam), values in zip(points, outputs, strict=True):
            mu_lambda, via_integral, f_value = map(Fraction, values)
            items.append(
                check_sweep_point(record, lam, mu_lambda, via_integral, f_value)
            )
            mix["status"][("F=0", "F>0", "F<0")[(f_value > 0) - (f_value < 0)]] += 1
            kind = "anticanonical" if record.get("anticanonical") else "general"
            mix["rule"][kind] += 1
        return items, mix
    for (records, _, expects), (code, stdout, stderr) in zip(state, outputs, strict=True):
        call_items, outs = check_classify_call(
            records, expects, fmt, code, stdout, stderr
        )
        items.extend(call_items)
        for out in outs:
            if "error_type" in out:
                mix["error"][out["error_type"]] += 1
            elif "status" in out:
                mix["status"][out["status"]] += 1
                mix["rule"][rule_family(out["rule"])] += 1
    return items, mix
