import numpy as np
import pytest

from lambda_sta.protocol import design_sta
from lambda_sta.dynamics import PulsePair
from lambda_sta.pulsefit import reference_m1_fit


@pytest.fixture(scope="session")
def sta_m1():
    return design_sta(1)


@pytest.fixture(scope="session")
def reference_pulses():
    """The published two-component Gaussian decomposition for m=1."""
    return PulsePair(*reference_m1_fit())


@pytest.fixture(scope="session")
def time_grid():
    return np.linspace(0.0, 1.0, 1001)
