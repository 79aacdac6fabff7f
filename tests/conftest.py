import signal

import pytest

from graph_calculus import graph_core


@pytest.fixture
def split_blocks(monkeypatch):
    """Shrink the kernel tile so an n-point cloud spans several row blocks.

    At the default tile most test clouds fit in one diagonal block, which
    would leave the off-diagonal blocks untested. The last block is ragged
    (rows does not divide n).
    """

    def split(n, rows):
        monkeypatch.setattr(graph_core, "_TILE", rows)
        assert rows < n
        assert n % rows != 0

    return split


@pytest.fixture
def time_limit():
    """Arm a timer that fails the test, instead of hanging the suite, after the given seconds."""

    def expire(signum, frame):
        raise TimeoutError("the test ran past its time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    yield signal.alarm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
