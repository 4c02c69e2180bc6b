"""Constellations and modulation-domain equalizers.

Square QAM alphabets use per-axis Gray labeling; the 128-point alphabet is
the usual cross layout with a documented quasi-Gray map (it only feeds peak
power statistics, where the bit map is irrelevant).  The equalizer is the
block linear MMSE (regularized least squares) over the modulation-domain
vector; a periodic-banded solver, batched over noise levels and right-hand
sides, serves the same block stage in the time domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

QAM_ORDERS = (4, 16, 64, 128)


def _qam_lattice(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Points and integer labels of a QAM alphabet on the odd-integer lattice.

    A square order takes the whole side x side lattice, row-major, with
    per-axis Gray labels.  128 is the cross: the 12 x 12 lattice minus its
    2 x 2 corners, the survivors labeled in row-major order.
    """
    side = 12 if order == 128 else int(round(np.sqrt(order)))
    levels = 2 * np.arange(side) - (side - 1)  # ..., -3, -1, 1, 3, ...
    i, q = np.divmod(np.arange(side * side), side)
    points = levels[i] + 1j * levels[q]
    if order == 128:
        corner = ((i < 2) | (i >= side - 2)) & ((q < 2) | (q >= side - 2))
        return points[~corner], np.arange(order)
    return points, ((i ^ (i >> 1)) << (side.bit_length() - 1)) | (q ^ (q >> 1))


@dataclass(frozen=True)
class Constellation:
    """A unit-average-energy symbol alphabet with a bijective bit map.

    ``points[i]`` is the symbol whose bit label is ``labels[i]`` read as a
    ``bits_per_symbol``-wide word, most significant bit first.
    """

    order: int
    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        energy = float(np.mean(np.abs(self.points) ** 2))
        if abs(energy - 1.0) > 1e-12:
            raise ValueError(f"alphabet not unit energy: {energy}")
        if sorted(self.labels.tolist()) != list(range(self.order)):
            raise ValueError("bit labels are not a bijection")

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1

    def index_of_label(self) -> np.ndarray:
        """Map bit-label -> point index."""
        inv = np.empty(self.order, dtype=int)
        inv[self.labels] = np.arange(self.order)
        return inv


def qam_constellation(order: int) -> Constellation:
    """Unit-energy QAM alphabet of the given order (4, 16, 64 or 128)."""
    if order not in QAM_ORDERS:
        raise ValueError(f"unsupported order {order}; pick from {QAM_ORDERS}")
    points, labels = _qam_lattice(order)
    points = points / np.sqrt(np.mean(np.abs(points) ** 2))
    return Constellation(order=order, points=points, labels=labels)


def indices_for_bits(bits: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Point indices of bits grouped into labels (MSB first)."""
    bits = np.asarray(bits, dtype=int)
    k = constellation.bits_per_symbol
    if bits.ndim != 1 or bits.size % k:
        raise ValueError(f"bit count must be a multiple of {k}")
    labels = bits.reshape(-1, k) @ (1 << np.arange(k - 1, -1, -1))
    return constellation.index_of_label()[labels]


def map_bits(bits: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Group bits (MSB first) into labels and map them to symbols."""
    return constellation.points[indices_for_bits(bits, constellation)]


@lru_cache(maxsize=None)
def _decision_grid(order: int) -> tuple[int, float, float, np.ndarray]:
    """The slicer of a QAM order: (side, scale, shift, cells).

    A symbol's coordinate times ``scale`` plus ``shift`` is (u + side) / 2,
    u the coordinate in lattice units; its ceiling is the 1-based level of
    the nearest odd integer, the lower one on an exact tie.  ``cells`` maps
    the 1-based levels (i, q) of the real and imaginary parts, at flat
    index i (side + 1) + q, to the point index, and to -1 where the lattice
    has no point (the corners of the 128 cross).
    """
    points, _ = _qam_lattice(order)
    side = int(points.real.max()) + 1  # the top level is side - 1
    norm = np.sqrt(np.mean(np.abs(points) ** 2))  # what qam_constellation divides by
    i = (points.real.astype(int) + side + 1) // 2
    q = (points.imag.astype(int) + side + 1) // 2
    cells = np.full((side + 1) ** 2, -1, dtype=np.intp)
    cells[i * (side + 1) + q] = np.arange(order)
    return side, norm / 2.0, side / 2.0, cells


def _slice_axis(x: np.ndarray, scale: float, shift: float, side: int) -> np.ndarray:
    """1-based nearest lattice level of each coordinate, as floats.

    A NaN goes to level 1, and so a NaN symbol to index 0, where the search
    over every point put it.
    """
    level = x * scale
    level += shift
    np.ceil(level, out=level)
    np.fmax(level, 1, out=level)
    return np.fmin(level, side, out=level)


def hard_decide(symbols: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Nearest-point indices in a :func:`qam_constellation` alphabet, shaped as ``symbols``.

    Each axis is sliced on the alphabet's bounding odd-integer lattice,
    ties going to the lower level and so to the lower index; a lattice
    cell holds exactly the symbols nearest its point.  Only the corner
    cells of the 128 cross hold no point, and their symbols alone are
    searched over every point (ties to the lowest index).
    """
    symbols = np.asarray(symbols, dtype=complex)
    side, scale, shift, cells = _decision_grid(constellation.order)
    cell = _slice_axis(symbols.real, scale, shift, side)
    cell *= side + 1
    cell += _slice_axis(symbols.imag, scale, shift, side)
    hard = cells[cell.astype(np.intp)]
    outside = hard < 0
    if outside.any():
        d2 = np.abs(symbols[outside][:, None] - constellation.points) ** 2
        hard[outside] = np.argmin(d2, axis=1)
    return hard


@lru_cache(maxsize=None)
def label_distances(order: int) -> np.ndarray:
    """Bit errors between the labels of QAM points h and s at flat index h * order + s."""
    labels = _qam_lattice(order)[1]
    table = np.bitwise_count(labels[:, None] ^ labels[None, :]).astype(np.uint8).reshape(-1)
    table.setflags(write=False)  # one table per order, shared by every caller
    return table


def demap_hard(symbols: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Hard-decision bits (MSB first) for a symbol vector."""
    return bits_for_indices(hard_decide(symbols, constellation), constellation)


def bits_for_indices(indices: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Bits (MSB first) labeling the given point indices."""
    labels = constellation.labels[np.asarray(indices, dtype=int)]
    k = constellation.bits_per_symbol
    shifts = np.arange(k - 1, -1, -1)
    return ((labels[:, None] >> shifts[None, :]) & 1).reshape(-1)


def mmse_equalize(y: np.ndarray, h_eff: np.ndarray, sigma2: float) -> np.ndarray:
    """Soft symbols of the block linear MMSE over the modulation-domain vector.

    Solves (H^H H + sigma2 I) x = H^H y; with sigma2 = 0 and a singular
    channel the solver error propagates rather than being regularized away.
    """
    y = np.asarray(y, dtype=complex)
    H = np.asarray(h_eff, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"effective channel must be square, got {H.shape}")
    if sigma2 < 0:
        raise ValueError("sigma2 must be >= 0")
    gram = H.conj().T @ H + sigma2 * np.eye(H.shape[0])
    return np.linalg.solve(gram, H.conj().T @ y)


_MIN_BLOCK = 8  # below this, per-block call overhead outweighs the O(b^3) work


def solve_periodic_banded(
    band: np.ndarray, shifts: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve (A + s_q I) z_rq = b_rq for every diagonal load s_q at once.

    A is L x L, Hermitian positive definite and periodic-banded:
    A[j, (j + d) % L] = band[j, w + d] for |d| <= w, ``band`` of shape
    (L, 2w + 1), with columns whose offsets coincide modulo L adding.
    ``shifts`` holds the Q loads and ``rhs`` is (R, Q, L): R right-hand
    sides per load, which share every factorization; returns (R, Q, L), a
    view of the work array whose right-hand-side columns the solution is
    written over.

    Bordered block elimination: the last block (the border) meets the first
    only through the wrap corners.  The interior blocks, each at least w
    wide, form a block-tridiagonal system that one block Thomas sweep
    solves, carrying the R right-hand sides and the border's columns along;
    each step inverts the running b x b Schur complement once for all Q
    loads and applies the inverse by matrix products.  The border then
    follows from its Schur complement.  The cost is
    O(L w (w + R)) per load.  Systems too small for two blocks are solved
    densely.
    """
    band = np.asarray(band, dtype=complex)
    shifts = np.asarray(shifts, dtype=float).reshape(-1)
    rhs = np.asarray(rhs, dtype=complex)
    L, width = band.shape
    w = width // 2
    Q = shifts.size
    if width != 2 * w + 1 or rhs.ndim != 3 or rhs.shape[1:] != (Q, L):
        raise ValueError(
            f"need band (L, 2w+1) and rhs (R, {Q}, L), got {band.shape}, {rhs.shape}"
        )
    R = rhs.shape[0]
    b = max(w, _MIN_BLOCK)
    m = L // b - 1  # interior blocks; the border takes the remaining c in [b, 2b)
    if m < 1 or L < 2 * w + 1:
        j = np.arange(L)
        A = np.zeros((L, L), dtype=complex)
        for k in range(width):
            A[j, (j + k - w) % L] += band[:, k]
        systems = A + shifts[:, None, None] * np.eye(L)
        return np.linalg.solve(systems, rhs.transpose(1, 2, 0)).transpose(2, 0, 1)
    c = L - m * b  # border width
    flat = np.append(band.reshape(-1), 0)  # entries outside the band read the 0
    D, U, E, border = (flat[i] for i in _block_gathers(L, width, b))
    load = shifts[:, None, None] * np.eye(b)
    # Columns swept through the interior: the R right-hand sides, then E
    # (the border rows hold their right-hand sides only).  The solution is
    # written over the right-hand sides, so no result-sized array is made.
    G = np.empty((Q, L, R + c), dtype=complex)
    G[..., :R] = rhs.transpose(1, 2, 0)
    G[:, : m * b, R:] = E.reshape(m * b, -1)
    blocks = G[:, : m * b].reshape(Q, m, b, -1)  # the interior rows, block by block
    # KU[i] = S_i^{-1} U_i, S_i the running Schur complement of block i.  The
    # swept columns S_i^{-1} g_i are written over block i of G, which g_i has
    # already folded in, so only the b x b blocks KU are kept for the way back.
    # One inverse per block and matrix products are faster than a solve with
    # b + R + c right-hand sides, whose triangular solves dominate at these b.
    KU = []
    UH = U.conj().transpose(0, 2, 1)
    S, g = D[0] + load, blocks[:, 0]
    for i in range(m - 1):
        S_inv = np.linalg.inv(S)
        KU.append(S_inv @ U[i])
        blocks[:, i] = S_inv @ g
        S, g = D[i + 1] + load - UH[i] @ KU[-1], blocks[:, i + 1] - UH[i] @ blocks[:, i]
    # Back substitution turns G into the interior's inverse applied to [rhs | E].
    blocks[:, m - 1] = np.linalg.solve(S, g)
    for i in range(m - 2, -1, -1):
        blocks[:, i] -= KU.pop() @ blocks[:, i + 1]
    y = G[:, : m * b, :R]
    X = G[:, : m * b, R:]
    E = E.reshape(m * b, -1)
    schur = border + shifts[:, None, None] * np.eye(c) - E.conj().T @ X
    z_border = np.linalg.solve(schur, G[:, m * b :, :R] - E.conj().T @ y)
    for q in range(Q):  # one load at a time, so the product's temporary stays small
        y[q] -= X[q] @ z_border[q]
    G[:, m * b :, :R] = z_border
    return G[..., :R].transpose(2, 0, 1)


@lru_cache(maxsize=16)
def _block_gathers(L: int, width: int, b: int) -> tuple[np.ndarray, ...]:
    """Flat band indices of the solver's blocks D, U, E and the border block.

    Entry A[r, col] of the periodic band (2w + 1 = ``width`` <= L) lies at
    flat index r (2w + 1) + w + d of the band, d the wrapped distance from
    r to col, when |d| <= w, and at the flat band's end (one past it, where
    the solver appends a 0) elsewhere.  D holds the m diagonal b x b blocks
    of the interior, U the m - 1 blocks right of them, E the interior rows'
    border columns and the last the border's own block.
    """
    w = width // 2
    m = L // b - 1
    interior = np.arange(m * b).reshape(m, b)
    border = np.arange(m * b, L)

    def gather(rows, cols):
        d = (cols - rows + L // 2) % L - L // 2
        return np.where(np.abs(d) <= w, rows * width + w + d, L * width)

    return (gather(interior[:, :, None], interior[:, None, :]),
            gather(interior[:-1, :, None], interior[1:, None, :]),
            gather(interior[:, :, None], border),
            gather(border[:, None], border))
