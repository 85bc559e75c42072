"""Test-harness hooks.

``REPRO_LOCKWATCH=1`` installs the runtime lock-order watcher before
any code under test creates its locks; the observed acquisition edges
are dumped to ``REPRO_LOCKWATCH_OUT`` (default ``lockwatch.json``) at
interpreter exit and cross-validated against the static lock-order
graph by ``python -m repro.analysis --lockwatch-report`` — see the
static-analysis CI lane.

Without the ``pytest-timeout`` plugin, pyproject's ``timeout`` value is
still enforced: a test running past it makes the process print every
thread's stack and exit non-zero, so a hang ends the run visibly
instead of eating it.
"""

import os

import pytest

if os.environ.get("REPRO_LOCKWATCH") == "1":
    from repro.analysis import lockwatch

    if not os.environ.get("REPRO_LOCKWATCH_OUT"):
        os.environ["REPRO_LOCKWATCH_OUT"] = "lockwatch.json"
    lockwatch.install()

try:
    import pytest_timeout  # noqa: F401
except ImportError:
    import faulthandler

    #: the terminal's stderr, duplicated while output capture is off:
    #: when the timer fires, fd 2 belongs to the running test's capture
    _HANG_REPORT_FD = pytest.StashKey[int]()

    def pytest_addoption(parser):
        # the keys pyproject sets for pytest-timeout
        parser.addini(
            "timeout", "seconds a test may run before the process dumps "
            "every thread's stack and exits",
        )
        parser.addini("timeout_method", "pytest-timeout's; unused here")

    def pytest_configure(config):
        config.stash[_HANG_REPORT_FD] = os.dup(2)

    def pytest_unconfigure(config):
        os.close(config.stash[_HANG_REPORT_FD])

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(item):
        timeout = float(item.config.getini("timeout") or 0)
        if timeout > 0:
            faulthandler.dump_traceback_later(
                timeout, exit=True, file=item.config.stash[_HANG_REPORT_FD]
            )
        try:
            yield
        finally:
            faulthandler.cancel_dump_traceback_later()
