import signal

import pytest
from hypothesis import settings

# exact-arithmetic cases vary wildly in size; deadlines would flake, and a
# derandomized profile keeps the suite reproducible run over run
settings.register_profile("exact", deadline=None, derandomize=True)
settings.load_profile("exact")

# A fault that makes a run multiply signals can keep one test busy for
# minutes (the mesh runs are bounded only by their event budget), so every
# test fails, by name, once it has run this long.  The alarm spans the
# test's setup, call and teardown, so fixtures of any scope that are set up
# for it count too.
TEST_SECONDS = 120


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    def expire(signum, frame):
        pytest.fail(f"{item.nodeid} ran longer than {TEST_SECONDS} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
