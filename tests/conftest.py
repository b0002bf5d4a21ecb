import numpy as np
import pytest

from ftnsim.waveform import build_isi_circulant


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def default_lambda_g():
    return build_isi_circulant(tau=0.8, beta=0.5, nu=10, N=128)[1]


@pytest.fixture(scope="session")
def small_lambda_g():
    return build_isi_circulant(tau=0.8, beta=0.5, nu=4, N=32)[1]
