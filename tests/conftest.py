"""Shared fixtures and test-only generators for the test suite."""

import numpy as np
import pytest

from gafields.checks import random_metric


def random_metric_signed(n, rng, sign):
    """Random metric whose determinant has the requested sign."""
    while True:
        m = random_metric(n, rng)
        if m.sign == sign:
            return m


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


# verdict lines recorded by the acceptance tests, echoed after the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
