import pytest

import orbitsep.cli
import orbitsep.plan

ACCEPTANCE_LINES = []


@pytest.fixture(autouse=True)
def cold_caches():
    """Start every test with no group plan (quotient, tables, weights, Phi's
    reduction, metric arrays) and no cached parser, so build, compile and
    draw counts and patched command handlers do not depend on which tests
    ran before."""
    orbitsep.plan.plan.cache_clear()
    orbitsep.cli.build_parser.cache_clear()


@pytest.fixture
def criterion():
    """Record one pass/fail line per acceptance criterion, then assert it.

    Lines are replayed uncaptured in the terminal summary so every criterion
    shows up exactly once in the run output.
    """

    def _record(number: int, passed: bool, detail: str):
        line = f"criterion {number:02d}: {'PASS' if passed else 'FAIL'} - {detail}"
        ACCEPTANCE_LINES.append(line)
        assert passed, line

    return _record


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
