"""Shared pytest wiring: acceptance-criterion reporting, and a fixture that
counts builds of the quotient slope's integral route.

Tests decorated with ``@criterion(num, title)`` (see test_acceptance.py)
carry a ``_criterion`` attribute; the hooks below collect their outcomes
and append one "criterion NN PASS/FAIL title" line per criterion to the
terminal summary, so the acceptance status is visible even when stdout
capture is on.
"""

import pytest

from fanoslope import slope

_criterion_results = []


@pytest.fixture
def route_builds(monkeypatch):
    """The scenarios the integral route is built for, one entry a build,
    seen where slope reads a0's terms from blowup."""
    builds, real_terms = [], slope._hilbert_terms

    def counting_terms(scenario, index):
        if not index:
            builds.append(scenario)
        return real_terms(scenario, index)

    monkeypatch.setattr(slope, "_hilbert_terms", counting_terms)
    return builds


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = getattr(getattr(item, "function", None), "_criterion", None)
    if marker is not None:
        _criterion_results.append((marker[0], marker[1], report.passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_results:
        return
    terminalreporter.section("acceptance criteria")
    for num, title, passed in sorted(_criterion_results):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {num:02d} {status} {title}")
