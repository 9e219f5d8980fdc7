import numpy as np
import pytest

from qudit_teleport.channels import KrausChannel


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_complex_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_hermitian(rng, n):
    a = random_complex_matrix(rng, n, n)
    return (a + a.conj().T) / 2.0


def random_density(rng, n, rank=None):
    rank = rank or n
    a = random_complex_matrix(rng, n, rank)
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex_matrix(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def isometry_channel(d, n_ops, rng):
    """Random channel: the d x d blocks of an (n_ops d) x d isometry."""
    g = rng.standard_normal((n_ops * d, d)) + 1j * rng.standard_normal((n_ops * d, d))
    q, _ = np.linalg.qr(g)
    return KrausChannel(d=d, operators=tuple(q[k * d : (k + 1) * d] for k in range(n_ops)))


def strip_global_phase(v):
    """Rotate a ket so its largest-magnitude entry is real positive."""
    v = np.asarray(v)
    k = int(np.argmax(np.abs(v)))
    return v * np.conj(v[k]) / abs(v[k])


def assert_same_floats(got, want):
    """Same shape, dtype and values, compared with IEEE equality.

    Nonzero entries then carry identical bits; a zero entry may differ in
    sign, since BLAS writes some zero products as -0.0.
    """
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
