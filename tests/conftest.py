"""Fixtures shared across the test modules."""

import functools

import pytest

from comppat import genfun
from comppat.asymptotics import estimate


@pytest.fixture(scope="session")
def default_estimate():
    """estimate(p) on the default circle (|x| = 0.7, 4096 samples),
    computed at most once per pattern per test session."""
    return functools.cache(estimate)


@pytest.fixture(scope="session")
def shared_build_gf():
    """From first use to the end of the session, ``genfun.build_gf`` (the
    name the CLI calls) is a cache of the original, so the tests that
    expand and verify the same order-60 series build it once.  Series are
    immutable and PartSet is hashable, so sharing results is safe."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(genfun, "build_gf", functools.cache(genfun.build_gf))
        yield
