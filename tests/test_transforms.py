"""Transform construction tests: frozen examples plus structural properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mcwave import transforms as tr

import oracles


def unitary_defect(A):
    return np.max(np.abs(A @ A.conj().T - np.eye(A.shape[0])))


class TestDft:
    def test_size_one_is_identity(self):
        assert_allclose(tr.dft_matrix(1), [[1.0]], atol=1e-15)

    def test_size_two_values(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert_allclose(tr.dft_matrix(2), expected, atol=1e-15)

    def test_unitary_at_8(self):
        assert unitary_defect(tr.dft_matrix(8)) <= 1e-12

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            tr.dft_matrix(0)


class TestDaft:
    def test_zero_chirps_reduce_to_dft(self):
        assert np.max(np.abs(oracles.daft_matrix(8, 0.0, 0.0) - tr.dft_matrix(8))) <= 1e-14

    def test_unitary(self):
        assert unitary_defect(oracles.daft_matrix(16, 0.01, 0.3)) <= 1e-10

    def test_fresnel_factorization_at_8(self):
        # With c1 = c2 = 1/(2M) the affine transform is a unit-modulus
        # diagonal sandwich of the Fresnel matrix:  A = D_left @ Phi @ D_right
        # with D_left = diag(e^{-2j pi l^2 / M}) and
        # D_right = diag(e^{j pi/4} e^{-2j pi k^2 / M})  (even M).
        M = 8
        c = 1.0 / (2 * M)
        A = oracles.daft_matrix(M, c, c)
        Phi = tr.dfnt_matrix(M)
        k = np.arange(M)
        d_left = np.exp(-2j * np.pi * k**2 / M)
        d_right = np.exp(1j * np.pi / 4) * np.exp(-2j * np.pi * k**2 / M)
        assert np.max(np.abs(np.abs(A) - np.abs(Phi))) <= 1e-12
        recon = d_left[:, None] * Phi * d_right[None, :]
        assert np.max(np.abs(A - recon)) <= 1e-12


class TestDfrft:
    def test_order_one_is_dft(self):
        assert np.max(np.abs(oracles.dfrft_matrix(12, 1.0) - tr.dft_matrix(12))) <= 1e-12

    def test_unitary_fractional_order(self):
        assert unitary_defect(oracles.dfrft_matrix(16, 0.5)) <= 1e-8

    def test_single_point_is_unit_modulus(self):
        for p in (0.3, 1.0, 1.7):
            K = oracles.dfrft_matrix(1, p)
            assert K.shape == (1, 1)
            assert abs(abs(K[0, 0]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("p", [0.0, 2.0, -0.1, 2.5])
    def test_degenerate_rotation_rejected(self, p):
        with pytest.raises(ValueError):
            tr.dfrft_chirp(8, p)


class TestDfnt:
    @pytest.mark.parametrize("M", [2, 3, 4, 5, 8, 9])
    def test_factorization_is_definitional(self, M):
        t1, t2 = tr.dfnt_diagonals(M)
        Phi = tr.dfnt_matrix(M)
        assert np.max(np.abs(Phi - np.diag(t2) @ tr.dft_matrix(M) @ np.diag(t1))) <= 1e-14

    def test_even_diagonal_spot_value(self):
        # Even-M first diagonal: e^{-j pi/4} e^{j pi k^2 / M}; at M=4, k=1 the
        # two phases cancel exactly.
        t1, _ = tr.dfnt_diagonals(4)
        assert abs(t1[1] - 1.0) <= 1e-14

    def test_odd_branch_unitary(self):
        Phi = tr.dfnt_matrix(3)
        assert unitary_defect(Phi) <= 1e-12

    @pytest.mark.parametrize("M", [2, 3, 4, 7, 16])
    def test_chirp_rows_unit_modulus(self, M):
        t1, t2 = tr.dfnt_diagonals(M)
        assert_allclose(np.abs(t1), 1.0, atol=1e-14)
        assert_allclose(np.abs(t2), 1.0, atol=1e-14)


class TestWht:
    def test_size_two(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert_allclose(tr.wht_matrix(2), expected, atol=1e-15)

    def test_sequency_ordering_sign_changes(self):
        W = tr.wht_matrix(4)
        changes = [int(np.sum(np.diff(np.sign(row)) != 0)) for row in W]
        assert changes == [0, 1, 2, 3]

    def test_orthonormal_at_8(self):
        W = tr.wht_matrix(8)
        assert np.max(np.abs(W @ W.T - np.eye(8))) <= 1e-12

    def test_involution(self):
        for N in (2, 4, 8, 16, 32):
            W = tr.wht_matrix(N)
            assert np.max(np.abs(W @ W - np.eye(N))) <= 1e-12

    @pytest.mark.parametrize("N", [2**e for e in range(9)])
    def test_closed_form_keeps_the_recursion_bytes(self, N):
        assert tr.wht_matrix(N).tobytes() == oracles.sequency_walsh(N).tobytes()

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            tr.wht_matrix(6)


class TestInterleaver:
    def test_bijection(self):
        perm = tr.random_interleaver(33, seed=5)
        assert sorted(perm.tolist()) == list(range(33))

    def test_matrix_orthogonal(self):
        P = np.eye(16)[tr.random_interleaver(16, seed=9)]
        assert np.max(np.abs(P @ P.T - np.eye(16))) == 0.0

    def test_deterministic(self):
        a = tr.random_interleaver(64, seed=1234)
        b = tr.random_interleaver(64, seed=1234)
        assert np.array_equal(a, b)
        c = tr.random_interleaver(64, seed=1235)
        assert not np.array_equal(a, c)


def _dzt_inverse_oracle(x, M, N):
    """Direct loop evaluation of the synthesis sum (independent oracle)."""
    s = np.zeros(M * N, dtype=complex)
    for n in range(M * N):
        for k in range(N):
            s[n] += x[(n % M) + k * M] * np.exp(2j * np.pi * (n // M) * k / N)
    return s / np.sqrt(N)


class TestDzt:
    def test_delta_example(self):
        x = np.zeros(4, dtype=complex)
        x[0] = 1.0
        s = oracles.dzt(x, 2, 2, direction="inverse")
        assert_allclose(s, np.array([1, 0, 1, 0]) / np.sqrt(2), atol=1e-15)

    @pytest.mark.parametrize("M,N", [(2, 2), (3, 4), (4, 4), (5, 3)])
    def test_inverse_matches_direct_sum_oracle(self, M, N):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(M * N) + 1j * rng.standard_normal(M * N)
        assert_allclose(oracles.dzt(x, M, N, "inverse"), _dzt_inverse_oracle(x, M, N),
                        atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        rt = oracles.dzt(oracles.dzt(x, 4, 4, "inverse"), 4, 4, "forward")
        assert np.max(np.abs(rt - x)) <= 1e-12

    def test_single_doppler_bin_is_identity(self):
        x = np.arange(6) + 0.5j
        assert_allclose(oracles.dzt(x, 6, 1, "forward"), x, atol=1e-14)
        assert_allclose(oracles.dzt(x, 6, 1, "inverse"), x, atol=1e-14)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            oracles.dzt(np.ones(5), 2, 2)


class TestStructuredPermutation:
    def test_oddm_2x2_mapping(self):
        P = oracles.structured_permutation("oddm", 2, 2)
        # output k picks input (k mod M) * N + floor(k / M)
        assert [int(np.argmax(P[k])) for k in range(4)] == [0, 2, 1, 3]

    def test_shuffle_degenerate_is_identity(self):
        assert_allclose(oracles.structured_permutation("shuffle", 1, 5), np.eye(5))

    @pytest.mark.parametrize("kind", ["oddm", "shuffle"])
    def test_orthogonal(self, kind):
        P = oracles.structured_permutation(kind, 3, 2)
        assert np.max(np.abs(P @ P.T - np.eye(6))) == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            oracles.structured_permutation("spiral", 2, 2)


@settings(max_examples=25, deadline=None)
@given(M=st.integers(min_value=1, max_value=257))
def test_property_dft_daft_unitary(M):
    assert unitary_defect(tr.dft_matrix(M)) <= 1e-10
    assert unitary_defect(oracles.daft_matrix(M, 0.013, 0.21)) <= 1e-10


@settings(max_examples=15, deadline=None)
@given(M=st.integers(min_value=2, max_value=128), p=st.floats(min_value=0.05, max_value=1.95))
def test_property_dfrft_unitary(M, p):
    assert unitary_defect(oracles.dfrft_matrix(M, p)) <= 1e-10


@settings(max_examples=20, deadline=None)
@given(
    M=st.integers(min_value=1, max_value=16),
    N=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_dzt_round_trip(M, N, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(M * N) + 1j * rng.standard_normal(M * N)
    rt = oracles.dzt(oracles.dzt(x, M, N, "inverse"), M, N, "forward")
    assert np.max(np.abs(rt - x)) <= 1e-12


@settings(max_examples=10, deadline=None)
@given(M=st.sampled_from([2, 3, 5, 8, 13, 33, 64]))
def test_property_daft_matches_dft_at_zero_chirp(M):
    assert np.max(np.abs(oracles.daft_matrix(M, 0, 0) - tr.dft_matrix(M))) <= 1e-14
    assert np.max(np.abs(oracles.dfrft_matrix(M, 1.0) - tr.dft_matrix(M))) <= 1e-12


def test_large_size_unitarity():
    # Dense check at 1024; at 4096 the same operators are validated through
    # forward/adjoint round trips on random vectors (equivalent evidence for
    # a square operator, without the 4096^2 triple product).
    assert unitary_defect(tr.dft_matrix(1024)) <= 1e-10
    M = 4096
    A = oracles.daft_matrix(M, 1 / (2 * M), 1e-5)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    assert np.max(np.abs(A.conj().T @ (A @ x) - x)) <= 1e-10
