"""Fixtures shared across the test modules."""

import functools

import pytest

from comppat.asymptotics import estimate


@pytest.fixture(scope="session")
def default_estimate():
    """estimate(p) on the default circle (|x| = 0.7, 4096 samples),
    computed at most once per pattern per test session."""
    return functools.cache(estimate)
