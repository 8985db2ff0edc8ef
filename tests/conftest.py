"""Shared acceptance-reporting plumbing and a per-test wall clock.

The acceptance tests record one pass/fail line per criterion through
record_criterion; a terminal-summary hook replays the collected lines
after the run so they are visible even for passing (output-captured)
tests.
"""

import faulthandler
import os

import pytest

TEST_WALL_CLOCK_S = 300  # the slowest test takes about 13 s
_TERMINAL_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # output capture is suspended while plugins configure, so this copies the terminal's stderr; a stack
    # written to the captured stderr would be lost when faulthandler ends the process
    config.stash[_TERMINAL_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_TERMINAL_STDERR])


@pytest.fixture(autouse=True)
def wall_clock(request):
    """A test still running after TEST_WALL_CLOCK_S ends the run with every
    thread's stack, so a hang fails instead of stalling the suite."""
    faulthandler.dump_traceback_later(TEST_WALL_CLOCK_S, exit=True, file=request.config.stash[_TERMINAL_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()

_CRITERION_LINES: list[str] = []


def record_criterion(number: int, ok: bool, detail: str) -> bool:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    _CRITERION_LINES.append(line)
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)
