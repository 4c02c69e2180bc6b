"""Constellation and equalizer tests."""

import hashlib
import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mcwave import detection as det

import oracles


class TestConstellation:
    def test_qpsk_points(self):
        c = det.qam_constellation(4)
        expected = {(-1 - 1j), (-1 + 1j), (1 - 1j), (1 + 1j)}
        got = {complex(round(p.real * np.sqrt(2)), round(p.imag * np.sqrt(2)))
               for p in c.points}
        assert got == expected

    @pytest.mark.parametrize("order", [4, 16, 64, 128])
    def test_unit_energy(self, order):
        c = det.qam_constellation(order)
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)
        assert c.points.size == order

    def test_gray_adjacency_16(self):
        c = det.qam_constellation(16)
        dmin = np.sqrt(4.0 / 10.0)  # lattice step after normalization
        for i in range(16):
            for j in range(16):
                if i != j and abs(c.points[i] - c.points[j]) <= dmin * 1.001:
                    diff = int(c.labels[i]) ^ int(c.labels[j])
                    assert bin(diff).count("1") == 1

    @pytest.mark.parametrize("order", [4, 16, 64, 128])
    def test_bit_round_trip(self, order):
        c = det.qam_constellation(order)
        rng = np.random.default_rng(order)
        bits = rng.integers(0, 2, 10**4 // c.bits_per_symbol * c.bits_per_symbol)
        assert np.array_equal(det.demap_hard(det.map_bits(bits, c), c), bits)

    def test_misaligned_bits_rejected(self):
        c = det.qam_constellation(16)
        with pytest.raises(ValueError):
            det.map_bits(np.zeros(7, dtype=int), c)

    def test_unsupported_order_rejected(self):
        with pytest.raises(ValueError):
            det.qam_constellation(32)

    # sha256 of points.tobytes() and labels.tobytes(); the PAPR golden cases
    # and the benchmark's 128-QAM DDAM frames pin these alphabets
    PINNED = {
        4: ("396fa67b42551008ee291dff4a9d5b2e5ec5a845576e65fb6feac5500271efb1",
            "a1e03200f1f82ad2c1cec8795c271aaecf98f5aa2d151d2229ec5fa0c177cf77"),
        16: ("fadc5967faf0cb3c51e73103d8a453da1358cbf554a72c7a2d2cbdfc3be31a8b",
             "134b98cb8cdcf912139838cc05cb233e9c8c2182593cffe2c769e5a180ef42ab"),
        64: ("5bf9650888696536af317351095ea3560cc283c48f4f53012720f9b6b4acae5c",
             "2d1eddf29aa963d79e8aa75b7b5788dd75ab2be13f18383ff6dc1b7e83238979"),
        128: ("b71bfca8bc61536a38282e9d3e9329a1e85502cb32ef254854e55402517faa82",
              "3e4f0a2fd9498da7c1440a355a22b6292161a5216c63aa0bc59b5a4742fd1e36"),
    }

    @pytest.mark.parametrize("order", [4, 16, 64, 128])
    def test_alphabet_bytes_are_pinned(self, order):
        c = det.qam_constellation(order)
        assert c.labels.dtype == np.int64
        got = tuple(hashlib.sha256(v.tobytes()).hexdigest() for v in (c.points, c.labels))
        assert got == self.PINNED[order]


class TestHardDecide:
    """The lattice slicer against the all-points argmin it replaced."""

    ORDERS = [4, 16, 64, 128]

    @staticmethod
    def centres(c):
        """Every cell centre of the alphabet's bounding lattice, the 128 corners included."""
        levels = np.unique(c.points.real)  # the cross covers every level of each axis
        return (levels[:, None] + 1j * levels[None, :]).reshape(-1)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("scale", [0.25, 1.0, 4.0])
    def test_random_symbols(self, order, scale):
        c = det.qam_constellation(order)
        rng = np.random.default_rng(order)
        s = scale * (rng.standard_normal(20000) + 1j * rng.standard_normal(20000))
        assert np.array_equal(det.hard_decide(s, c), oracles.nearest_points(s, c))

    @pytest.mark.parametrize("order", ORDERS)
    def test_every_cell_centre(self, order):
        c = det.qam_constellation(order)
        s = self.centres(c)
        assert s.size == (144 if order == 128 else order)
        assert np.array_equal(det.hard_decide(s, c), oracles.nearest_points(s, c))
        # a centre of the alphabet is its own point
        assert np.array_equal(c.points[det.hard_decide(c.points, c)], c.points)

    def test_cross_corner_regions(self):
        # the 2 x 2 lattice corners of the 128 cross hold no point: their
        # symbols are searched over every point, with its ties at the cell centres
        c = det.qam_constellation(128)
        step = np.ptp(c.points.real) / 22  # half the lattice step
        rng = np.random.default_rng(5)
        u, v = rng.uniform(8, 14, (2, 20000)) * step
        signs = rng.choice([-1, 1], (2, 20000))
        s = signs[0] * u + 1j * signs[1] * v
        assert np.array_equal(det.hard_decide(s, c), oracles.nearest_points(s, c))

    @pytest.mark.parametrize("order", ORDERS)
    def test_exact_ties_go_to_the_lowest_index(self, order):
        # 0 is the middle boundary of each axis: both neighbours are equally far
        c = det.qam_constellation(order)
        rng = np.random.default_rng(order)
        x = rng.standard_normal(200)
        s = np.concatenate([[0j], x, 1j * x])
        hard = det.hard_decide(s, c)
        assert np.array_equal(hard, oracles.nearest_points(s, c))
        assert c.points[hard[0]].real < 0 and c.points[hard[0]].imag < 0

    def test_keeps_the_shape_of_the_symbols(self):
        c = det.qam_constellation(16)
        rng = np.random.default_rng(3)
        s = rng.standard_normal((2, 3, 50)) + 1j * rng.standard_normal((2, 3, 50))
        strided = s.transpose(2, 0, 1)  # a view, as the solver returns its soft symbols
        assert np.array_equal(det.hard_decide(strided, c),
                              oracles.nearest_points(strided.reshape(-1), c).reshape(50, 2, 3))

    @pytest.mark.parametrize("order", ORDERS)
    def test_table_count_equals_the_bit_comparison(self, order):
        c = det.qam_constellation(order)
        k = c.bits_per_symbol
        bits = det.bits_for_indices(np.arange(order), c).reshape(order, k)
        table = det.label_distances(order).reshape(order, order)
        assert np.array_equal(table, np.sum(bits[:, None] != bits[None, :], axis=2))
        rng = np.random.default_rng(order)
        hard, sent = rng.integers(0, order, (2, 3, 1000))
        counts = det.label_distances(order)[hard * order + sent].sum(axis=1)
        for h, s, n in zip(hard, sent, counts):
            assert n == np.sum(det.bits_for_indices(h, c) != det.bits_for_indices(s, c))

    def test_tables_are_read_only(self):
        with pytest.raises(ValueError):
            det.label_distances(4)[0] = 1


class TestSingleTap:
    """The per-bin Wiener filter, kept as a test reference: on a diagonal
    channel it equals the block MMSE, so BER runs need no one-tap detector."""

    def test_identity_noiseless(self):
        y = np.array([1 + 1j, -2.0, 0.5j])
        out = oracles.single_tap_equalize(y, np.ones(3), 0.0)
        assert_allclose(out, y, atol=1e-15)

    def test_scalar_gain(self):
        y = np.array([4.0 + 0j])
        out = oracles.single_tap_equalize(y, np.array([2.0 + 0j]), 0.0)
        assert_allclose(out, [2.0], atol=1e-15)

    def test_matches_block_solver_on_diagonal(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        for s2 in (0.0, 0.3, 2.0):
            a = oracles.single_tap_equalize(y, np.diag(h), s2)
            b = det.mmse_equalize(y, np.diag(h), s2)
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_non_diagonal_rejected(self):
        H = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            oracles.single_tap_equalize(np.ones(2), H, 0.1)


class TestMmse:
    def test_identity_low_noise(self):
        y = np.array([1.0, 1j, -0.5])
        out = det.mmse_equalize(y, np.eye(3), 1e-12)
        assert np.max(np.abs(out - y)) <= 1e-9

    def test_scalar_closed_form(self):
        h, s2, y = 1.5 - 0.5j, 0.4, np.array([2.0 + 1j])
        out = det.mmse_equalize(y, np.array([[h]]), s2)
        expected = np.conj(h) * y / (abs(h) ** 2 + s2)
        assert_allclose(out, expected, atol=1e-14)

    def test_singular_noiseless_system_raises(self):
        H = np.zeros((3, 3), dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            det.mmse_equalize(np.ones(3), H, 0.0)

    def test_high_snr_matches_exhaustive_search(self):
        c = det.qam_constellation(4)
        rng = np.random.default_rng(99)
        snr = 10 ** (30 / 10)
        sigma2 = 1.0 / snr
        agree = 0
        trials = 1000
        for _ in range(trials):
            H = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / np.sqrt(2)
            idx = rng.integers(0, 4, 4)
            x = c.points[idx]
            w = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) * np.sqrt(sigma2 / 2)
            y = H @ x + w
            mmse = det.hard_decide(det.mmse_equalize(y, H, sigma2), c)
            ml = oracles.ml_oracle(y, H, c)
            agree += int(np.array_equal(mmse, ml))
        assert agree >= 0.99 * trials

    def test_error_rate_monotone_in_snr(self):
        c = det.qam_constellation(4)
        rng = np.random.default_rng(5)
        H = (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))) / np.sqrt(2)
        errors = []
        for snr_db in (0.0, 10.0, 20.0, 30.0):
            sigma2 = 10 ** (-snr_db / 10)
            nerr = 0
            nrng = np.random.default_rng(123)
            for _ in range(400):
                idx = nrng.integers(0, 4, 8)
                w = (nrng.standard_normal(8) + 1j * nrng.standard_normal(8)) * np.sqrt(sigma2 / 2)
                y = H @ c.points[idx] + w
                hard = det.hard_decide(det.mmse_equalize(y, H, sigma2), c)
                nerr += int(np.sum(hard != idx))
            errors.append(nerr)
        assert errors == sorted(errors, reverse=True)


# Loads and right-hand sides per load of the BER presets' shapes: the noise
# variances of 0..20 dB (desk, L = 256) and 0..30 dB (full size, L = 1024),
# five schemes sharing each solve.
PRESET_SHAPES = {
    (256, 15): (10.0 ** (-np.arange(0.0, 25.0, 5.0) / 10.0), (5,)),
    (1024, 8): (10.0 ** (-np.arange(0.0, 35.0, 5.0) / 10.0), (5,)),
}


class TestPeriodicBandedSolver:
    @staticmethod
    def system(L, w, rng):
        """A = B^H B for a random periodic B with offsets 0..w (band w)."""
        B = np.zeros((L, L), dtype=complex)
        j = np.arange(L)
        for e in range(w + 1):
            B[j, (j + e) % L] = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        A = B.conj().T @ B
        band = np.stack([A[j, (j + d) % L] for d in range(-w, w + 1)], axis=1)
        return A, band

    @pytest.mark.parametrize("L,w", [
        (20, 0),  # no channel memory
        (37, 5),  # L not a multiple of the block size
        (21, 10),  # w close to L/2: one interior block and the border
        (200, 15),
        (9, 4),  # too small for two blocks: dense
        *PRESET_SHAPES,
    ])
    def test_matches_dense_solve(self, L, w):
        rng = np.random.default_rng(L + w)
        A, band = self.system(L, w, rng)
        # one right-hand side per load, then three (five at the preset shapes)
        shifts, Rs = PRESET_SHAPES.get((L, w), (np.array([1.0, 1e-2, 1e-3]), (1, 3)))
        Q = shifts.size
        for R in Rs:
            rhs = rng.standard_normal((R, Q, L)) + 1j * rng.standard_normal((R, Q, L))
            z = det.solve_periodic_banded(band, shifts, rhs)
            assert z.shape == (R, Q, L)
            for q, s in enumerate(shifts):
                refs = np.linalg.solve(A + s * np.eye(L), rhs[:, q].T).T
                for zq, ref in zip(z[:, q], refs):
                    assert np.max(np.abs(zq - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            det.solve_periodic_banded(np.ones((8, 3)), [1.0, 2.0], np.ones((1, 1, 8)))
        with pytest.raises(ValueError):
            det.solve_periodic_banded(np.ones((8, 2)), [1.0], np.ones((1, 1, 8)))
        with pytest.raises(ValueError):  # (Q, L) without the leading R axis
            det.solve_periodic_banded(np.ones((8, 3)), [1.0], np.ones((1, 8)))


class TestMlOracle:
    def test_noiseless_recovery(self):
        c = det.qam_constellation(4)
        rng = np.random.default_rng(2)
        H = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        idx = np.array([3, 0, 2])
        assert np.array_equal(oracles.ml_oracle(H @ c.points[idx], H, c), idx)

    def test_zero_channel_tie_break(self):
        c = det.qam_constellation(4)
        got = oracles.ml_oracle(np.ones(2), np.zeros((2, 2)), c)
        assert np.array_equal(got, [0, 0])  # lowest lexicographic indices

    def test_matches_independent_enumeration(self):
        # hand-checkable 2-symbol instance enumerated with a separate loop
        c = det.qam_constellation(4)
        H = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
        rng = np.random.default_rng(31)
        for _ in range(50):
            y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            best, best_m = None, np.inf
            for cand in itertools.product(range(4), repeat=2):
                m = np.sum(np.abs(y - H @ c.points[list(cand)]) ** 2)
                if m < best_m:
                    best_m, best = m, cand
            assert np.array_equal(oracles.ml_oracle(y, H, c), best)

    def test_oracle_lower_bounds_linear_detector(self):
        c = det.qam_constellation(4)
        rng = np.random.default_rng(44)
        sigma2 = 10 ** (-0.5)
        ml_total, lin_total = 0, 0
        for _ in range(200):
            H = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / np.sqrt(2)
            idx = rng.integers(0, 4, 3)
            w = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * np.sqrt(sigma2 / 2)
            y = H @ c.points[idx] + w
            ml_hard = oracles.ml_oracle(y, H, c)
            lin_hard = det.hard_decide(det.mmse_equalize(y, H, sigma2), c)
            # per instance the oracle minimizes the exhaustive metric ...
            m_ml = np.sum(np.abs(y - H @ c.points[ml_hard]) ** 2)
            m_lin = np.sum(np.abs(y - H @ c.points[lin_hard]) ** 2)
            assert m_ml <= m_lin + 1e-12
            ml_total += int(np.sum(ml_hard != idx))
            lin_total += int(np.sum(lin_hard != idx))
        # ... and in aggregate it makes no more symbol errors
        assert ml_total <= lin_total

    def test_oversized_instance_refused(self):
        c = det.qam_constellation(128)
        with pytest.raises(ValueError):
            oracles.ml_oracle(np.ones(8), np.eye(8), c)
        with pytest.raises(ValueError):
            oracles.ml_oracle(np.ones(9), np.eye(9), det.qam_constellation(4))
