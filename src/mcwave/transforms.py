"""Unitary transform matrices, their diagonal factors and the random interleaver.

The ``*_matrix`` builders form each transform densely as a ``complex128``
matrix: that is the checkable reference every fast path is held against.
The chirp transforms are a DFT between two unit-modulus diagonals, and the
diagonals come from one function each (``daft_chirps``, ``dfrft_chirp``,
``dfnt_diagonals``), so the dense matrix and the factored operator of a
waveform (an FFT between the same diagonals) share their entries.  All
builders are pure functions of their arguments.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dft_matrix",
    "daft_chirps",
    "daft_matrix",
    "dfrft_chirp",
    "dfrft_matrix",
    "dfnt_diagonals",
    "dfnt_matrix",
    "wht_matrix",
    "random_interleaver",
]


def _check_size(M: int, name: str = "M") -> int:
    M = int(M)
    if M < 1:
        raise ValueError(f"{name} must be >= 1, got {M}")
    return M


def dft_matrix(M: int) -> np.ndarray:
    """Forward DFT matrix with entries exp(-2j*pi*k*l/M)/sqrt(M).

    The inverse transform is the conjugate transpose.
    """
    M = _check_size(M)
    k = np.arange(M)
    return np.exp(-2j * np.pi * np.outer(k, k) / M) / np.sqrt(M)


def daft_chirps(M: int, c1: float, c2: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals ``(lam1, lam2)`` of :func:`daft_matrix`, lam_c[l] = exp(-2j*pi*c*l^2)."""
    M = _check_size(M)
    l = np.arange(M)
    return np.exp(-2j * np.pi * c1 * l**2), np.exp(-2j * np.pi * c2 * l**2)


def daft_matrix(M: int, c1: float, c2: float) -> np.ndarray:
    """Forward discrete affine Fourier transform ``A = L_c2 @ F @ L_c1``.

    ``L_c = diag(exp(-2j*pi*c*l^2))`` for l = 0..M-1.  With c1 = c2 = 0 the
    result reduces to :func:`dft_matrix`.  The inverse transform is ``A^H``.
    """
    lam1, lam2 = daft_chirps(M, c1, c2)
    return lam2[:, None] * dft_matrix(M) * lam1[None, :]


def dfrft_chirp(M: int, p: float) -> tuple[complex, np.ndarray]:
    """Scale and chirp of :func:`dfrft_matrix`: the kernel is
    ``scale * chirp[k] * exp(-2j*pi*k*l/M) * chirp[l]``.

    Raises:
        ValueError: if the rotation is degenerate (p*pi/2 in {0, pi}), where
            the chirp factor cot(a) is undefined.
    """
    M = _check_size(M)
    alpha = p * np.pi / 2.0
    if not 0.0 < alpha < np.pi:
        raise ValueError(
            f"rotation alpha=p*pi/2 must lie strictly inside (0, pi); got p={p}"
        )
    if alpha == np.pi / 2.0:
        cot = 0.0
    else:
        cot = np.cos(alpha) / np.sin(alpha)
    du_sq = 2.0 * np.pi * abs(np.sin(alpha)) / M  # = ts_sq (symmetric split)
    scale = np.sqrt((np.sin(alpha) - 1j * np.cos(alpha)) / M)
    k = np.arange(M)
    return scale, np.exp(0.5j * k**2 * cot * du_sq)


def dfrft_matrix(M: int, p: float) -> np.ndarray:
    """Discrete fractional Fourier kernel of order ``p`` (rotation p*pi/2).

    The sampling intervals of the fractional and time axes are only
    constrained through their product ``du * ts = 2*pi*|sin(a)| / M``; the
    symmetric split ``du = ts = sqrt(2*pi*|sin(a)|/M)`` is used so the kernel
    has a single free parameter.  ``p = 1`` reproduces :func:`dft_matrix`.
    Raises ``ValueError`` for a degenerate rotation (:func:`dfrft_chirp`).
    """
    scale, chirp = dfrft_chirp(M, p)
    k = np.arange(chirp.size)
    return scale * chirp[:, None] * np.exp(-2j * np.pi * np.outer(k, k) / k.size) * chirp[None, :]


def dfnt_diagonals(M: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-modulus diagonals ``(t1, t2)`` of :func:`dfnt_matrix`; they
    depend on the parity of M."""
    M = _check_size(M)
    k = np.arange(M)
    if M % 2 == 0:
        t1 = np.exp(-1j * np.pi / 4) * np.exp(1j * np.pi * k**2 / M)
        t2 = np.exp(1j * np.pi * k**2 / M)
    else:
        t1 = (
            np.exp(-1j * np.pi / 4)
            * np.exp(1j * np.pi / (4 * M))
            * np.exp(1j * np.pi * (k**2 + k) / M)
        )
        t2 = np.exp(1j * np.pi * (k**2 - k) / M)
    return t1, t2


def dfnt_matrix(M: int) -> np.ndarray:
    """Discrete Fresnel transform ``Phi = T2 @ F @ T1``.

    T1 and T2 are the unit-modulus diagonals of :func:`dfnt_diagonals` and F
    is the DFT matrix; Phi is the (unitary) Fresnel transform used by the
    chirp-multiplexed waveform.  The modulator applies ``Phi^H``.
    """
    t1, t2 = dfnt_diagonals(M)
    return np.diag(t2) @ dft_matrix(M) @ np.diag(t1)


def wht_matrix(N: int) -> np.ndarray:
    """Orthonormal sequency-ordered Walsh matrix of size N (N a power of two).

    Row k has k sign changes, matching the sampled continuous Walsh
    functions; the matrix is symmetric, so it is its own inverse.  Entry
    (k, j) is (-1)^popcount(r_k & j) / sqrt(N), r_k the bit-reversed Gray
    code of k: row r_k of the Sylvester (Hadamard) matrix.
    """
    N = _check_size(N, "N")
    if N & (N - 1) != 0:
        raise ValueError(f"N must be a power of two, got {N}")
    bits = N.bit_length() - 1
    k = np.arange(N)
    gray = k ^ (k >> 1)
    rev = np.zeros(N, dtype=int)
    odd = np.zeros(N, dtype=int)  # popcount(j) % 2
    for b in range(bits):
        rev |= ((gray >> b) & 1) << (bits - 1 - b)
        odd ^= (k >> b) & 1
    return np.where(odd, -1.0, 1.0)[rev[:, None] & k] / np.sqrt(N)


def random_interleaver(M: int, seed: int) -> np.ndarray:
    """Deterministic pseudo-random permutation of 0..M-1.

    Fisher-Yates shuffle driven by a counter-based (Philox) stream keyed on
    ``seed``, so the same (M, seed) pair always yields the same permutation
    on any platform.
    """
    M = _check_size(M)
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    return rng.permutation(M)
