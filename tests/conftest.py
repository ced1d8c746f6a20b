"""A per-test time limit on the standard library's ``signal.alarm``.

``@pytest.mark.time_limit(seconds)`` fails a test still running after
``seconds`` whole seconds, so a test whose code has turned exponential
fails instead of running without end.  Where ``SIGALRM`` does not exist
the marker is ignored.
"""

import signal

import pytest


def pytest_configure(config):
    config.addinivalue_line("markers", "time_limit(seconds): fail the test after that many seconds")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    marker = item.get_closest_marker("time_limit")
    if marker is None or not hasattr(signal, "SIGALRM"):
        yield
        return
    (seconds,) = marker.args

    def expired(signum, frame):
        pytest.fail(f"still running after its time limit of {seconds} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
