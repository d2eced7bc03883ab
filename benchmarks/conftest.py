"""Shared benchmark fixtures and the experiment report channel.

Benches measure timing through pytest-benchmark, but each experiment
also produces the *rows/series* the paper's figures would show (label
sizes, accuracy tables, depth statistics).  Tests push those rows
through the ``report`` fixture; they are printed together in the
terminal summary so ``pytest benchmarks/ --benchmark-only`` ends with a
readable paper-versus-measured record.
"""

from __future__ import annotations

import numpy as np
import pytest

_REPORT_LINES: list[str] = []


@pytest.fixture
def report():
    """Append lines to the end-of-run experiment report."""

    def _add(line: str = "") -> None:
        _REPORT_LINES.append(line)

    return _add


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORT_LINES:
        return
    terminalreporter.section("experiment report (paper-vs-measured)")
    for line in _REPORT_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(2006)


@pytest.fixture(scope="session")
def session_rng():
    return np.random.default_rng(1231)
