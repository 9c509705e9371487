import os

import pytest


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes a census see n CPUs: one that tests survivors splits its
    rows over n processes, and at n = 1 runs them all in this one, where a
    test that patches the census sees every row and every test."""
    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    return use
