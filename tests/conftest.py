"""Fixtures shared by the test modules."""

import multiprocessing

import pytest


@pytest.fixture
def start_method():
    """A setter of multiprocessing's start method for one test; the previous method comes back after it.

    `--jobs N` starts its helper processes with the default start method,
    so a test picks the method the helpers start with by calling
    start_method("spawn"), say.
    """
    previous = multiprocessing.get_start_method(allow_none=True)
    yield lambda method: multiprocessing.set_start_method(method, force=True)
    multiprocessing.set_start_method(previous, force=True)
