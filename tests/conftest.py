"""Shared test oracles."""

import numpy as np
import pytest

from oracles import dzt


@pytest.fixture
def zak_tx():
    """Zak-transform delay-Doppler modulator, assembled column by column.

    Each column is the inverse discrete Zak transform of one delay-Doppler
    basis vector, so the matrix is built independently of the multicarrier
    chain the library uses for every delay-Doppler scheme.
    """

    def build(M: int, N: int) -> np.ndarray:
        L = M * N
        a_tx = np.empty((L, L), dtype=complex)
        for j, basis in enumerate(np.eye(L, dtype=complex)):
            a_tx[:, j] = dzt(basis, M, N, direction="inverse")
        return a_tx

    return build
