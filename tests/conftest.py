import multiprocessing

import pytest


def pytest_runtest_logreport(report):
    # surface the acceptance-criterion verdict lines even when output
    # capture is on (i.e. without -s)
    if report.when != "call":
        return
    for line in report.capstdout.splitlines():
        if line.startswith("ACCEPTANCE"):
            print(f"\n{line}")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a live child process (such as a validation worker)."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    if left:
        pytest.fail(f"test left child processes running: {left}")
