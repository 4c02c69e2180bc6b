"""Unitary transform matrices, their diagonal factors and the random interleaver.

The chirp transforms are a DFT between two unit-modulus diagonals, which
come from one function each (``daft_chirps``, ``dfrft_chirp``,
``dfnt_diagonals``); a waveform's factored operator is an FFT between them.
All functions are pure functions of their arguments.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dft_matrix",
    "daft_chirps",
    "dfrft_chirp",
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
    f = -2j * np.pi * np.outer(k, k)
    f /= M
    np.exp(f, out=f)
    f /= np.sqrt(M)
    return f


def daft_chirps(M: int, c1: float, c2: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals ``(lam1, lam2)`` of the affine Fourier transform ``diag(lam2) F diag(lam1)``.

    lam_c[l] = exp(-2j*pi*c*l^2) for l = 0..M-1; c1 = c2 = 0 gives the DFT.
    """
    M = _check_size(M)
    l = np.arange(M)
    return np.exp(-2j * np.pi * c1 * l**2), np.exp(-2j * np.pi * c2 * l**2)


def dfrft_chirp(M: int, p: float) -> tuple[complex, np.ndarray]:
    """Scale and chirp of the fractional Fourier kernel of order ``p`` (rotation p*pi/2).

    The kernel is ``scale * chirp[k] * exp(-2j*pi*k*l/M) * chirp[l]``, and
    ``p = 1`` gives the DFT.  The sampling intervals of the fractional and
    time axes are only constrained through their product
    ``du * ts = 2*pi*|sin(a)| / M``; the symmetric split ``du = ts`` is used.

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

    F's rows are scaled by t2, then its columns by t1, each entry by the
    unfused complex product ``(dr*fr - di*fi, dr*fi + di*fr)`` in real
    arithmetic, written into F.  At even M these are the bytes of the GEMM
    product ``diag(t2) @ F @ diag(t1)`` under the BLAS kernels that do not
    fuse it; unlike that product they depend on no BLAS kernel.
    """
    t1, t2 = dfnt_diagonals(M)
    f = dft_matrix(M)
    re, im = f.real, f.imag
    for d in (t2[:, None], t1[None, :]):
        real = d.real * re
        real -= d.imag * im
        im *= d.real
        im += d.imag * re
        re[...] = real
    return f


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
