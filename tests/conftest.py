import contextlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from isozonoid.measures import cross_measure, equiangular_measure


@pytest.fixture
def nu2():
    return cross_measure(2)


@pytest.fixture
def nu3():
    return cross_measure(3)


@pytest.fixture
def hexm():
    return equiangular_measure(3)


@pytest.fixture
def rng():
    return np.random.default_rng(0x5EED)


@contextlib.contextmanager
def _call_log(module, *names):
    """Record each call of module.<name>, for each name, as (name, args) in
    the list it yields; the originals are back on exit."""
    calls = []
    real = {name: getattr(module, name) for name in names}

    def logged(name):
        def call(*args, **kwargs):
            calls.append((name, args))
            return real[name](*args, **kwargs)
        return call

    try:
        for name in names:
            setattr(module, name, logged(name))
        yield calls
    finally:
        for name, fn in real.items():
            setattr(module, name, fn)


@pytest.fixture
def call_log():
    """``with call_log(module, *names) as calls``: the calls of those
    functions, to show that work does not grow a call per point."""
    return _call_log
