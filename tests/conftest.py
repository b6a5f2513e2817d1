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
