import numpy as np
import pytest
from hypothesis import settings

from ncresidue import SU2, Torus

settings.register_profile("suite", max_examples=40, deadline=None)
# `pytest --hypothesis-profile=deep` overrides the suite profile below
settings.register_profile("deep", max_examples=400, deadline=None)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def t1():
    return Torus(1)


@pytest.fixture(scope="session")
def t2():
    return Torus(2)


@pytest.fixture(scope="session")
def t3():
    return Torus(3)


@pytest.fixture(scope="session")
def su2():
    return SU2()


def random_complex_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def random_hermitian(rng, d):
    a = random_complex_matrix(rng, d)
    return 0.5 * (a + a.conj().T)


def random_unitary(rng, d):
    q, r = np.linalg.qr(random_complex_matrix(rng, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))
