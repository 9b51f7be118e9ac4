"""The per-test deadline of ``tests/conftest.py`` fails a hung test by name."""

import signal
import time
from types import SimpleNamespace

import pytest

from tests import conftest

pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="POSIX only")


def test_a_test_past_the_deadline_fails_with_its_name(monkeypatch):
    monkeypatch.setattr(conftest, "TEST_DEADLINE_S", 1)
    handler = signal.getsignal(signal.SIGALRM)
    wrapper = conftest.pytest_runtest_call(SimpleNamespace(nodeid="tests/x.py::test_hangs"))
    next(wrapper)  # armed: the test body would run here
    with pytest.raises(pytest.fail.Exception) as failure:
        time.sleep(5)
    assert str(failure.value) == "tests/x.py::test_hangs ran past the 1-s per-test deadline"
    with pytest.raises(StopIteration):
        next(wrapper)  # disarmed
    assert signal.alarm(0) == 0
    assert signal.getsignal(signal.SIGALRM) is handler


def test_a_test_inside_the_deadline_is_left_alone(monkeypatch):
    monkeypatch.setattr(conftest, "TEST_DEADLINE_S", 1)
    wrapper = conftest.pytest_runtest_call(SimpleNamespace(nodeid="tests/x.py::test_quick"))
    next(wrapper)
    with pytest.raises(StopIteration):
        next(wrapper)
    time.sleep(1.5)  # an alarm left armed would fire here
