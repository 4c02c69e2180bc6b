"""Waveform bundle tests: operator chains, prefixes, filters, precoding."""

import pickle
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mcwave import bench
from mcwave import channel as ch
from mcwave import transforms as tr
from mcwave import waveforms as wf
from mcwave.config import validate_config
from mcwave.presets import preset_config

import oracles

RNG = np.random.default_rng(2024)


def rand_syms(n, rng=RNG):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def geo_1d(m=16, prefix=4):
    return wf.FrameGeometry(m=m, n=1, delta_f_hz=15e3, prefix_len=prefix)


def geo_2d(m=16, n=8, prefix=4):
    return wf.FrameGeometry(m=m, n=n, delta_f_hz=60e3, prefix_len=prefix)


def exact_cpp_phase(core_len, prefix_len, c1):
    """Chirp-periodic prefix phase from the exact rational turns c1*(L^2 + 2Ll) mod 1.

    Each turn count is taken to (-1/2, 1/2] before the exponential.
    """
    turns = [Fraction(c1) * (core_len * core_len + 2 * core_len * l) % 1
             for l in range(-prefix_len, 0)]
    return np.exp(-2j * np.pi * np.array([float(t - 1 if t > Fraction(1, 2) else t)
                                           for t in turns]))


def prefix_operator(rule, core_len, prefix_len, c1=0.0):
    """Matrix form of ``add_prefix``: (core_len + prefix_len) x core_len."""
    R = np.zeros((core_len + prefix_len, core_len), dtype=complex)
    R[prefix_len:, :] = np.eye(core_len)
    if rule == "cpp":
        phase = exact_cpp_phase(core_len, prefix_len, c1)
    else:
        phase = np.ones(prefix_len)
    for j in range(prefix_len):
        R[j, core_len - prefix_len + j] = phase[j]
    return R


def dense_fold(b, real):
    """Core channel as the dense fold (H @ R)[Lp:] of the frame channel and prefix."""
    L, Lp = b.core_len, b.geometry.prefix_len
    c1 = wf._afdm_chirp_rates(b.geometry, b.params)[0]
    R_add = prefix_operator(b.row.prefix_rule, L, Lp, c1)
    return (oracles.channel_matrix_full(real, L + Lp) @ R_add)[Lp:]


UNITARY_CASES = [
    ("scm", geo_1d(), {}),
    ("ofdm", geo_1d(), {}),
    ("dft-s-ofdm", geo_1d(), {}),
    ("dft-s-ofdm", geo_1d(), {"width": 8, "mapping": "dc-centered"}),
    ("frft-ofdm", geo_1d(), {"p": 0.7}),
    ("ocdm", geo_1d(), {}),
    ("ocdm", wf.FrameGeometry(m=15, n=1, prefix_len=3), {}),  # odd size branch
    ("ifdm", geo_1d(), {"seed": 3}),
    ("afdm", geo_1d(), {"c1": 3 / 32, "c2": 1e-4}),
    ("otfs", geo_2d(), {}),
    ("zak-otfs", geo_2d(), {}),
    ("oddm", geo_2d(), {}),
    ("otsm", geo_2d(), {}),
]


class TestBundles:
    @pytest.mark.parametrize("scheme,geo,params", UNITARY_CASES)
    def test_unitary_and_loopback(self, scheme, geo, params):
        b = wf.build_waveform(scheme, geo, params)
        n = b.n_symbols
        assert np.max(np.abs(b.a_tx.conj().T @ b.a_tx - np.eye(n))) <= 1e-10
        x = rand_syms(n)
        assert np.max(np.abs(oracles.receive(b, oracles.transmit(b, x)) - x)) <= 1e-10

    def test_ofdm_first_column(self):
        b = wf.build_waveform("ofdm", geo_1d(m=4, prefix=0))
        x = np.zeros(4, dtype=complex)
        x[0] = 1.0
        assert_allclose(b.operator.tx(x), 0.5 * np.ones(4), atol=1e-15)

    def test_afdm_zero_chirps_match_plain_multicarrier(self):
        geo = geo_1d()
        ba = wf.build_waveform("afdm", geo, {"c1": 0.0, "c2": 0.0})
        bo = wf.build_waveform("ofdm", geo)
        x = rand_syms(16)
        fa, fo = oracles.transmit(ba, x), oracles.transmit(bo, x)
        assert np.array_equal(fa, fo)  # bit-identical frames

    def test_spread_full_allocation_is_passthrough(self):
        b = wf.build_waveform("dft-s-ofdm", geo_1d())
        assert np.max(np.abs(b.a_tx - np.eye(16))) <= 1e-10

    def test_spread_mapping_offset(self):
        b = wf.build_waveform("dft-s-ofdm", geo_1d(), {"width": 4})
        # the band occupies IDFT bins 6..9: demodulating a pure bin-6 tone
        # recovers the first spread symbol's transform component
        assert np.max(np.abs(b.a_tx.conj().T @ b.a_tx - np.eye(4))) <= 1e-10

    def test_fractional_order_one_is_plain_multicarrier(self):
        geo = geo_1d()
        bf = wf.build_waveform("frft-ofdm", geo, {"p": 1.0})
        bo = wf.build_waveform("ofdm", geo)
        x = rand_syms(16)
        assert np.max(np.abs(oracles.transmit(bf, x) - oracles.transmit(bo, x))) <= 1e-12

    def test_otfs_variants_agree(self, zak_tx):
        geo = geo_2d()
        oracle = zak_tx(geo.m, geo.n)
        for scheme in ("otfs", "zak-otfs"):
            b = wf.build_waveform(scheme, geo)
            assert np.max(np.abs(b.a_tx - oracle)) <= 1e-12

    def test_mc_otfs_small_structure(self):
        geo = wf.FrameGeometry(m=2, n=2, prefix_len=0)
        b = wf.build_waveform("otfs", geo)
        expected = np.kron(tr.dft_matrix(2).conj().T, np.eye(2))
        assert_allclose(b.a_tx, expected, atol=1e-15)
        x = np.zeros(4, dtype=complex)
        x[0] = 1.0  # delay 0, Doppler 0
        assert_allclose(b.operator.tx(x), np.array([1, 0, 1, 0]) / np.sqrt(2), atol=1e-15)

    def test_otsm_explicit_chain(self):
        geo = wf.FrameGeometry(m=2, n=2, prefix_len=0)
        b = wf.build_waveform("otsm", geo)
        P = oracles.structured_permutation("shuffle", 2, 2)
        expected = np.kron(tr.wht_matrix(2), np.eye(2)) @ P
        assert np.max(np.abs(b.a_tx - expected)) <= 1e-12
        assert np.max(np.abs(b.a_tx @ b.a_tx.conj().T - np.eye(4))) <= 1e-12

    def test_otsm_row_wise_sequency_oracle(self):
        # Delay-major input X flattened row-major must modulate to
        # vec(X @ W) flattened time-order (column-major).
        M, N = 3, 4
        geo = wf.FrameGeometry(m=M, n=N, prefix_len=0)
        b = wf.build_waveform("otsm", geo)
        rng = np.random.default_rng(5)
        X = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
        W = tr.wht_matrix(N)
        expected = (X @ W).T.reshape(-1)
        got = b.operator.tx(X.reshape(-1))
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_otsm_requires_power_of_two_slots(self):
        with pytest.raises(wf.ConfigurationError):
            wf.build_waveform("otsm", wf.FrameGeometry(m=4, n=6, prefix_len=0))

    def test_otsm_real_orthogonal_and_involutory_core(self):
        geo = wf.FrameGeometry(m=4, n=8, prefix_len=0)
        b = wf.build_waveform("otsm", geo)
        assert np.max(np.abs(b.a_tx.imag)) == 0.0
        A = b.a_tx.real
        assert np.max(np.abs(A @ A.T - np.eye(32))) <= 1e-12
        # with the shuffle removed, the sequency stage is its own inverse
        core = np.kron(tr.wht_matrix(8), np.eye(4))
        assert np.max(np.abs(core @ core - np.eye(32))) <= 1e-12

    def test_oddm_matches_zak_on_reordered_input(self):
        # Same delay-Doppler map, delay-major stacking instead of
        # delay-fastest vectorization.
        M, N = 4, 3
        geo = wf.FrameGeometry(m=M, n=N, prefix_len=0)
        bo = wf.build_waveform("oddm", geo)
        bz = wf.build_waveform("zak-otfs", geo)
        rng = np.random.default_rng(8)
        X = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
        assert np.max(np.abs(bo.operator.tx(X.reshape(-1)) -
                             bz.operator.tx(X.T.reshape(-1)))) <= 1e-12

    def test_chirp_multiplex_allone_frame_is_constant(self):
        # For even sizes the all-one chirp-multiplexed frame collapses to a
        # constant sequence (full-period quadratic Gauss sums are
        # shift-invariant), which is why it shares the single-carrier
        # reference's ambiguity metrics.
        b = wf.build_waveform("ocdm", geo_1d(m=32, prefix=0))
        s = b.operator.tx(np.ones(32, dtype=complex))
        assert np.max(np.abs(s - s[0])) <= 1e-12

    def test_1d_schemes_reject_slots(self):
        for scheme, row in wf.SCHEMES.items():
            if row.dim == 1:
                with pytest.raises(wf.ConfigurationError, match="1D scheme"):
                    wf.build_waveform(scheme, geo_2d())

    def test_scheme_table_rows(self):
        for label, row in wf.SCHEMES.items():
            assert label == row.name
            geo = geo_1d(prefix=0) if row.dim == 1 else geo_2d(m=4, n=2, prefix=0)
            b = wf.build_waveform(row.name, geo)
            assert b.row is row

    # parameters that no config key sets: the builder refuses them
    @pytest.mark.parametrize("scheme,param,value", [
        ("dft-s-ofdm", "offset", 6), ("otsm", "ordering", "natural"),
        ("afdm", "alpha_max_int", 2), ("fbmc", "overlap", 6)])
    def test_only_config_key_parameters_are_accepted(self, scheme, param, value):
        geo = geo_1d() if wf.SCHEMES[scheme].dim == 1 else geo_2d(m=4, n=2, prefix=0)
        with pytest.raises(wf.ConfigurationError, match=param):
            wf.build_waveform(scheme, geo, {param: value})

    @pytest.mark.parametrize("M,N", [(4, 3), (16, 8)])
    def test_oddm_matches_interleaved_chain(self, M, N):
        # The canonical staggered chain Pi (I_M kron F_N^H), built apart
        # from the otfs columns the bundle reuses.
        b = wf.build_waveform("oddm", wf.FrameGeometry(m=M, n=N, prefix_len=0))
        chain = oracles.structured_permutation("oddm", M, N) @ np.kron(
            np.eye(M), tr.dft_matrix(N).conj().T)
        assert np.array_equal(b.a_tx, chain)

    def test_unknown_scheme_and_params(self):
        with pytest.raises(wf.ConfigurationError):
            wf.build_waveform("cdma", geo_1d())
        with pytest.raises(wf.ConfigurationError):
            wf.build_waveform("ofdm", geo_1d(), {"bogus": 1})


def crit7_bundles():
    """Every table row at the unitarity suite's sizes and parameters."""
    for m, n in ((16, 1), (64, 1), (16, 8), (32, 32)):
        for scheme, row in wf.SCHEMES.items():
            if (row.dim == 1) != (n == 1):
                continue
            params = {"p": 0.8} if scheme == "frft-ofdm" else (
                {"c1": 3 / (2 * m), "c2": 1e-4} if scheme == "afdm" else {})
            prefix = 0 if row.prefix_rule == "none" else 4
            yield wf.build_waveform(scheme, wf.FrameGeometry(m=m, n=n, prefix_len=prefix), params)


def factor_error(b, rng):
    """Largest deviation of the factored tx / rx from the dense reference matrices."""
    a_tx = oracles.bundle_dense(b)
    x = rng.standard_normal((3, b.n_symbols)) + 1j * rng.standard_normal((3, b.n_symbols))
    r = rng.standard_normal((3, b.core_len)) + 1j * rng.standard_normal((3, b.core_len))
    return max(np.max(np.abs(b.operator.tx(x) - x @ a_tx.T)),
               np.max(np.abs(b.operator.rx(r) - r @ a_tx.conj())))


def assert_dense_matches_reference(b):
    """The composed a_tx against the dense reference, as close as its operand order allows.

    Elementwise diagonals and the Kronecker factor keep every byte; a
    product with an index map differs at most in signs of zeros; the
    fractional kernel (F scaled by sqrt(m) back) and the narrow spread
    scheme (F_m^H P F_w in the other order) round differently.  ocdm's
    a_tx is the reference's GEMM Fresnel product itself.
    """
    ref = oracles.bundle_dense(b)
    narrow = b.scheme == "dft-s-ofdm" and b.n_symbols < b.core_len
    if b.scheme == "frft-ofdm" or narrow:
        assert np.max(np.abs(b.a_tx - ref)) <= 1e-14, (b.scheme, b.geometry)
    elif b.scheme in ("ifdm", "oddm"):
        assert np.array_equal(b.a_tx, ref), (b.scheme, b.geometry)
    else:
        assert b.a_tx.tobytes() == ref.tobytes(), (b.scheme, b.geometry)


class TestFactoredOperators:
    """The factors are the working path; the dense matrices their reference."""

    @pytest.mark.parametrize("m", [1, 4, 17, 64, 256, 512, 1024])
    def test_composed_dense_matches_reference_1d(self, m):
        geo = geo_1d(m=m)
        for scheme, params in [("scm", {}), ("ofdm", {}), ("dft-s-ofdm", {}),
                               ("dft-s-ofdm", {"width": max(1, m // 2)}),
                               ("dft-s-ofdm", {"width": max(1, m // 3), "mapping": "dc-centered"}),
                               ("frft-ofdm", {"p": 0.7}), ("ocdm", {}), ("ifdm", {"seed": 3}),
                               ("afdm", {"c1": 5 / (2 * m), "c2": 1e-4}), ("afdm", {})]:
            assert_dense_matches_reference(wf.build_waveform(scheme, geo, params))

    @pytest.mark.parametrize("M,N", [(2, 2), (4, 2), (8, 4), (16, 8), (32, 16), (16, 32),
                                     (32, 32), (64, 8)])
    def test_composed_dense_matches_reference_2d(self, M, N):
        for scheme in ("fbmc", "otfs", "zak-otfs", "oddm", "otsm"):
            assert_dense_matches_reference(wf.build_waveform(scheme, wf.FrameGeometry(m=M, n=N)))

    def test_composed_dense_matches_reference_at_papr_desk(self):
        cfg = preset_config("tab6-papr-desk")
        chan = validate_config(cfg)
        for label in cfg["waveforms"]:
            if label != "ddam":  # precoded streams: no modulator
                assert_dense_matches_reference(bench.build_bundle(label, cfg, chan))

    def test_ocdm_is_the_only_dense_override(self):
        assert [name for name, row in wf.SCHEMES.items() if row.dense] == ["ocdm"]
        b = wf.build_waveform("ocdm", geo_1d(m=64))
        assert b.a_tx.tobytes() == (tr.dfnt_matrix(64).conj().T).tobytes()

    def test_factors_match_dense_at_unitarity_sizes(self):
        rng = np.random.default_rng(7)
        for b in crit7_bundles():
            assert factor_error(b, rng) <= 1e-12, (b.scheme, b.geometry)

    @pytest.mark.parametrize("m", [256, 1024])
    def test_factors_match_dense_at_full_1d_sizes(self, m):
        rng = np.random.default_rng(m)
        geo = geo_1d(m=m)
        for scheme, params in [("scm", {}), ("ofdm", {}), ("dft-s-ofdm", {"width": m // 2}),
                               ("frft-ofdm", {"p": 0.7}), ("ocdm", {}), ("ifdm", {"seed": 3}),
                               ("afdm", {"c1": 5 / (2 * m), "c2": 1e-4})]:
            b = wf.build_waveform(scheme, geo, params)
            assert factor_error(b, rng) <= 1e-11, scheme

    def test_single_vector_modulation_matches_batch(self):
        rng = np.random.default_rng(3)
        for b in crit7_bundles():
            x = rand_syms(b.n_symbols, rng)
            assert np.array_equal(b.operator.tx(x), b.operator.tx(x[None])[0])
            r = rand_syms(b.core_len, rng)
            assert np.array_equal(b.operator.rx(r), b.operator.rx(r[None])[0])

    @pytest.mark.parametrize("scheme", list(wf.SCHEMES))
    def test_wrong_last_axis_rejected(self, scheme):
        # 8 symbols: ofdm would turn 5 symbols into a 5-sample frame, and
        # otfs (4 x 2) would take 12, if the operator did not check
        geo = geo_1d(m=8) if wf.SCHEMES[scheme].dim == 1 else wf.FrameGeometry(m=4, n=2)
        op = wf.build_waveform(scheme, geo).operator
        for apply, size in ((op.tx, op.shape[1]), (op.rx, op.shape[0])):
            for batch in ((), (3,), (2, 5)):
                assert apply(np.ones((*batch, size))).shape[:-1] == batch
                for bad in (size - 3, size + 4):
                    with pytest.raises(wf.ConfigurationError, match=f"expected {size} "):
                        apply(np.ones((*batch, bad)))
            with pytest.raises(wf.ConfigurationError):
                apply(1.0)

    def test_dense_matrix_is_built_on_first_read(self):
        b = wf.build_waveform("ocdm", geo_1d())
        oracles.receive(b, oracles.transmit(b, rand_syms(16)))
        assert "a_tx" not in vars(b)
        a_tx = b.a_tx
        assert b.a_tx is a_tx  # one build, kept

    @pytest.mark.parametrize("M,N", [(16, 16), (32, 32), (32, 16), (8, 4), (4, 8), (64, 8)])
    def test_otsm_dense_reference_keeps_the_shuffle_product_bytes(self, M, N):
        W = tr.wht_matrix(N)
        P = oracles.structured_permutation("shuffle", M, N)
        a_tx = oracles.dense_a_tx("otsm", wf.FrameGeometry(m=M, n=N))
        assert a_tx.tobytes() == (np.kron(W, np.eye(M)) @ P.T).astype(complex).tobytes()

    @pytest.mark.parametrize("M", [4, 8, 16, 17, 32, 64, 100, 256])
    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_ifdm_dense_reference_keeps_the_interleaver_product_bytes(self, M, seed):
        Pi = np.eye(M)[tr.random_interleaver(M, seed)]
        F = tr.dft_matrix(M)
        a_tx = oracles.dense_a_tx("ifdm", geo_1d(m=M), {"seed": seed})
        assert a_tx.tobytes() == (Pi @ F.conj().T).tobytes()


class TestPrefix:
    def test_cp_example(self):
        out = oracles.add_prefix(np.array([1.0, 2.0, 3.0, 4.0]), "cp", 2)
        assert_allclose(out, [3, 4, 1, 2, 3, 4])

    def test_cpp_zero_chirp_equals_cp(self):
        core = rand_syms(8)
        assert_allclose(oracles.add_prefix(core, "cpp", 3, phase=wf._cpp_phase(8, 3, 0.0)),
                        oracles.add_prefix(core, "cp", 3), atol=1e-15)

    def test_cpp_phase_values(self):
        core = np.ones(8, dtype=complex)
        c1 = 3 / 16
        out = oracles.add_prefix(core, "cpp", 2, phase=wf._cpp_phase(8, 2, c1))
        l = np.arange(-2, 0)
        expected = np.exp(-2j * np.pi * c1 * (64 + 16 * l))
        assert_allclose(out[:2], expected, atol=1e-14)

    def test_remove_inverts_add(self):
        core = rand_syms(12)
        for rule, c1 in (("cp", 0.0), ("cpp", 0.07)):
            frame = oracles.add_prefix(core, rule, 5, phase=wf._cpp_phase(12, 5, c1))
            assert_allclose(oracles.remove_prefix(frame, 5), core, atol=1e-15)

    def test_operator_matches_function(self):
        core = rand_syms(10)
        for rule, c1 in (("cp", 0.0), ("cpp", 0.11)):
            R = prefix_operator(rule, 10, 4, c1)
            frame = oracles.add_prefix(core, rule, 4, phase=wf._cpp_phase(10, 4, c1))
            assert_allclose(R @ core, frame, atol=1e-14)

    @pytest.mark.parametrize("preset,core_len", [
        ("fig21-sweep", 128), ("tab5-ber-desk", 256), ("tab5-ber", 1024)])
    def test_cpp_phase_is_one_at_the_default_c1(self, preset, core_len):
        # c1 = (2a + 1)/(2L): the chirp-periodic prefix is a cyclic prefix
        cfg = preset_config(preset)
        b = bench.build_bundle("afdm", cfg, validate_config(cfg))
        assert b.core_len == core_len and b.geometry.prefix_len > 0
        assert np.array_equal(b.prefix_phase, np.ones(b.geometry.prefix_len))
        c1 = wf._afdm_chirp_rates(b.geometry, b.params)[0]
        assert np.array_equal(wf._cpp_phase(core_len, core_len, c1), np.ones(core_len))

    @pytest.mark.parametrize("core_len", [1, 3, 15, 17])
    @pytest.mark.parametrize("c1", [0.5, 1.5, -0.5])
    def test_cpp_phase_is_minus_one_for_odd_half_turns(self, core_len, c1):
        # 2 L c1 is an integer and 2 L c1 L is odd
        phase = wf._cpp_phase(core_len, core_len, c1)
        assert np.array_equal(phase, -np.ones(core_len))

    @pytest.mark.parametrize("core_len,c1", [(32, 0.05), (128, 0.05), (1024, 0.05)] + [
        (128, c1) for c1 in np.linspace(0.0, 1.0 / 256.0, 16)])  # the fig21-sweep grid
    def test_cpp_phase_matches_the_rational_reference(self, core_len, c1):
        phase = wf._cpp_phase(core_len, core_len, c1)
        assert np.max(np.abs(phase - exact_cpp_phase(core_len, core_len, c1))) <= 1e-15

    def test_transmit_reads_the_cached_phase(self, monkeypatch):
        b = wf.build_waveform("afdm", geo_1d(m=32, prefix=6), {"c1": 0.05})
        x = rand_syms(32)
        expected = oracles.add_prefix(b.operator.tx(x), "cpp", 6, phase=wf._cpp_phase(32, 6, 0.05))
        calls = []
        cpp_phase = wf._cpp_phase
        monkeypatch.setattr(wf, "_cpp_phase", lambda *a: calls.append(a) or cpp_phase(*a))
        frames = [oracles.transmit(b, x) for _ in range(3)]
        assert calls == [(32, 6, 0.05)]
        for frame in frames:
            assert frame.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("m,params,c1", [
        (32, {}, wf.afdm_default_c1(32, 0)), (32, {"c1": 0.05}, 0.05),
        (15, {"c1": 0.5}, 0.5)])  # 2 L c1 L odd: an odd number of half turns
    def test_afdm_prefix_phase_takes_c1_from_the_parameters(self, m, params, c1):
        b = wf.build_waveform("afdm", geo_1d(m=m, prefix=4), params)
        assert np.max(np.abs(b.prefix_phase - exact_cpp_phase(m, 4, c1))) <= 1e-15

    def test_cpp_phase_rejects_a_non_finite_c1(self):
        with pytest.raises(wf.ConfigurationError, match="c1 must be finite"):
            wf._cpp_phase(4, 2, float("inf"))

    @pytest.mark.parametrize("prefix_len", [0, 2])
    def test_cpp_prefix_without_a_phase_rejected(self, prefix_len):
        with pytest.raises(wf.ConfigurationError, match="needs its phase"):
            oracles.add_prefix(np.ones(4), "cpp", prefix_len)

    def test_prefix_longer_than_core_rejected(self):
        with pytest.raises(wf.ConfigurationError):
            oracles.add_prefix(np.ones(4), "cp", 5)

    @pytest.mark.parametrize("prefix_len", [0, 2])
    def test_unknown_rule_rejected_at_any_length(self, prefix_len):
        with pytest.raises(wf.ConfigurationError, match="unknown prefix rule"):
            oracles.add_prefix(np.ones(4), "bogus", prefix_len)


class TestFbmc:
    def test_prototype_even_symmetry(self):
        t = np.linspace(0.01, 2.5, 64)
        assert np.max(np.abs(wf.hermite_prototype(t) - wf.hermite_prototype(-t))) <= 1e-12

    def test_leading_series_coefficient_verbatim(self):
        # At t = 0 only the even orders contribute through their constant
        # terms: sum a_i H_i(0), dominated by a_0 = 1.412692577.
        from mcwave.waveforms import _HERMITE_COEFFS

        assert _HERMITE_COEFFS[0] == 1.412692577
        assert _HERMITE_COEFFS[20] == 1.8633e-16

    def test_real_field_orthogonality(self):
        geo = wf.FrameGeometry(m=16, n=8, delta_f_hz=15e3, prefix_len=0)
        G = wf.fbmc_synthesis(geo)
        n_samp = G.shape[0]
        assert G.shape == (n_samp, 16 * 8)
        R = (G.conj().T @ G).real
        assert np.max(np.abs(R - np.eye(16 * 8))) <= 1e-3

    def test_bundle_real_loopback(self):
        geo = wf.FrameGeometry(m=16, n=8, delta_f_hz=15e3, prefix_len=0)
        b = wf.build_waveform("fbmc", geo)
        x = np.random.default_rng(3).choice([-1.0, 1.0], size=b.n_symbols)
        y = b.operator.rx(b.operator.tx(x))
        assert np.max(np.abs(y.real - x)) <= 1e-3


class TestEffectiveChannel:
    def test_unit_chain_for_every_scheme(self):
        real = ch.discretize(ch.channel_preset("AWGN"), 16 * 15e3)
        for scheme, geo, params in UNITARY_CASES:
            if geo.m * geo.n > 256:
                continue
            b = wf.build_waveform(scheme, geo, params)
            real_b = ch.discretize(ch.channel_preset("AWGN"), b.geometry.sample_rate_hz)
            He = wf.effective_channel(b, real_b)
            assert np.max(np.abs(He - np.eye(b.n_symbols))) <= 1e-10, scheme

    def test_plain_multicarrier_over_delay_only_channel_is_diagonal(self):
        geo = wf.FrameGeometry(m=32, n=1, delta_f_hz=15e3, prefix_len=4)
        b = wf.build_waveform("ofdm", geo)
        fs = geo.sample_rate_hz
        ps = ch.PathSet(paths=(ch.Path(0.9, 0.0), ch.Path(0.3, 2 / fs),
                               ch.Path(0.2j, 4 / fs)))
        real = ch.discretize(ps, fs, kind=ch.TDC)
        He = wf.effective_channel(b, real)
        off = He - np.diag(np.diag(He))
        assert np.max(np.abs(off)) <= 1e-10 * np.max(np.abs(He))

    def test_chirp_domain_single_path_support(self):
        # One path with integer normalized Doppler: exactly one entry per row,
        # magnitude |h|, cross-checked against an end-to-end probe.
        M = 16
        geo = wf.FrameGeometry(m=M, n=1, delta_f_hz=1e3, prefix_len=3)
        fs = geo.sample_rate_hz
        b = wf.build_waveform("afdm", geo, {"c1": 3 / (2 * M)})
        h = 0.7 - 0.2j
        ps = ch.PathSet(paths=(ch.Path(h, 2 / fs, doppler_hz=fs / M),))
        real = ch.discretize(ps, fs)
        He = wf.effective_channel(b, real)
        mags = np.abs(He)
        assert np.all((mags > 1e-10).sum(axis=1) == 1)
        assert_allclose(mags.max(axis=1), abs(h), atol=1e-12)
        # brute force: probe the physical chain column by column
        probe = np.zeros((M, M), dtype=complex)
        for j in range(M):
            e = np.zeros(M, dtype=complex)
            e[j] = 1.0
            probe[:, j] = oracles.receive(b, oracles.apply_channel(oracles.transmit(b, e), real))
        assert np.max(np.abs(He - probe)) <= 1e-12

    def test_prefix_too_short_rejected(self):
        geo = wf.FrameGeometry(m=16, n=1, delta_f_hz=15e3, prefix_len=1)
        b = wf.build_waveform("ofdm", geo)
        fs = geo.sample_rate_hz
        ps = ch.PathSet(paths=(ch.Path(1.0, 3 / fs),))
        with pytest.raises(wf.ConfigurationError):
            wf.effective_channel(b, ch.discretize(ps, fs))

    def test_matches_probe_on_dispersive_channel(self):
        geo = wf.FrameGeometry(m=8, n=4, delta_f_hz=60e3, prefix_len=3)
        b = wf.build_waveform("otfs", geo)
        fs = b.geometry.sample_rate_hz
        ps = ch.draw_jakes_dopplers(ch.channel_preset("EVA"), 2000.0, rng=oracles.philox(4))
        real = ch.discretize(ps, fs)
        He = wf.effective_channel(b, real)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        y = oracles.receive(b, oracles.apply_channel(oracles.transmit(b, x), real))
        assert np.max(np.abs(He @ x - y)) <= 1e-11


class TestCoreChannel:
    """The directly built core channel against the dense fold it replaces."""

    # Two taps share delay 0; the scales warp the wideband columns.
    PATHS = ch.PathSet(paths=(
        ch.Path(0.6 + 0.1j, 0.0, doppler_hz=1e4, scale=0.05),
        ch.Path(0.5j, 3 / 3.072e6, doppler_hz=-2e4, scale=-0.04),
        ch.Path(-0.4, 6 / 3.072e6, doppler_hz=3e3),
        ch.Path(0.3, 0.0, doppler_hz=-1e4),
    ))

    @pytest.mark.parametrize("kind", ch.CHANNEL_MODEL_KINDS)
    @pytest.mark.parametrize("scheme,params", [("ofdm", {}), ("afdm", {"c1": 5 / 64, "c2": 0.01})])
    def test_matches_dense_fold(self, kind, scheme, params):
        geo = wf.FrameGeometry(m=32, n=1, delta_f_hz=96e3, prefix_len=6)
        b = wf.build_waveform(scheme, geo, params)
        real = ch.discretize(self.PATHS, geo.sample_rate_hz, kind=kind)
        core = wf.core_channel(b, real)
        C = dense_fold(b, real)
        assert np.max(np.abs(oracles.core_matrix(core) - C)) <= 1e-14
        if kind == ch.WIDEBAND_DDC:  # warping moves entries off the delay diagonals
            assert set(core.offsets) > {-t.delay_samples for t in real.taps}
        gram = core.gram_band()
        w = gram.shape[1] // 2
        j = np.arange(32)
        A = np.zeros((32, 32), dtype=complex)
        for d in range(-w, w + 1):
            A[j, (j + d) % 32] += gram[:, w + d]
        assert np.max(np.abs(A - C.conj().T @ C)) <= 1e-14
        r = rand_syms(32)
        assert np.max(np.abs(core.adjoint(r) - C.conj().T @ r)) <= 1e-14
        assert np.max(np.abs(core.apply(r) - C @ r)) <= 1e-14

    @pytest.mark.parametrize("kind", ch.CHANNEL_MODEL_KINDS)
    @pytest.mark.parametrize("scheme,geo,params", [
        ("ofdm", wf.FrameGeometry(m=32, n=1, delta_f_hz=96e3, prefix_len=6), {}),
        ("afdm", wf.FrameGeometry(m=32, n=1, delta_f_hz=96e3, prefix_len=6), {"c1": 0.05}),
        ("otfs", wf.FrameGeometry(m=8, n=4, delta_f_hz=384e3, prefix_len=6), {}),
    ])
    def test_apply_matches_the_frame_channel(self, kind, scheme, geo, params):
        # C x against the physical chain: prefix, frame channel, prefix removed
        b = wf.build_waveform(scheme, geo, params)
        Lp = geo.prefix_len
        if b.row.prefix_rule == "cpp":
            assert np.max(np.abs(b.prefix_phase - 1.0)) > 0.1
        real = ch.discretize(self.PATHS, geo.sample_rate_hz, kind=kind)
        core = wf.core_channel(b, real)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((5, 32)) + 1j * rng.standard_normal((5, 32))
        out = core.apply(x)
        assert out.shape == x.shape
        for row, xr in zip(out, x):
            assert row.tobytes() == core.apply(xr).tobytes()
            frame = oracles.add_prefix(xr, b.row.prefix_rule, Lp, phase=b.prefix_phase)
            ref = oracles.remove_prefix(oracles.apply_channel(frame, real), Lp)
            assert np.linalg.norm(row - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("kind", ch.CHANNEL_MODEL_KINDS)
    @pytest.mark.parametrize("scheme,geo,params", [
        c for c in UNITARY_CASES if c[0] != "dft-s-ofdm" or "width" not in c[2]])
    def test_effective_channel_matches_dense_fold(self, kind, scheme, geo, params):
        # taps at the bundle's rate, the longest one as long as the prefix
        b = wf.build_waveform(scheme, geo, params)
        fs, Lp = b.geometry.sample_rate_hz, b.geometry.prefix_len
        ps = ch.PathSet(paths=(
            ch.Path(0.6 + 0.1j, 0.0, doppler_hz=0.01 * fs, scale=0.05),
            ch.Path(0.5j, 2 / fs, doppler_hz=-0.02 * fs, scale=-0.04),
            ch.Path(-0.4, Lp / fs, doppler_hz=0.003 * fs),
            ch.Path(0.3, 0.0, doppler_hz=-0.01 * fs),
        ))
        real = ch.discretize(ps, fs, kind=kind)
        He = wf.effective_channel(b, real)
        a_tx = oracles.bundle_dense(b)
        fold = a_tx.conj().T @ dense_fold(b, real) @ a_tx
        assert np.max(np.abs(He - fold)) <= 1e-13

    def test_checks_match_effective_channel(self):
        b = wf.build_waveform("ofdm", wf.FrameGeometry(m=16, n=1, delta_f_hz=15e3, prefix_len=1))
        fs = b.geometry.sample_rate_hz
        for real in (ch.discretize(ch.PathSet(paths=(ch.Path(1.0, 3 / fs),)), fs),
                     ch.discretize(ch.channel_preset("AWGN"), 2 * fs)):
            for build in (wf.effective_channel, wf.core_channel):
                with pytest.raises(wf.ConfigurationError):
                    build(b, real)

    def test_adjoint_pair_from_the_operators(self):
        for scheme, geo, params in UNITARY_CASES:
            b = wf.build_waveform(scheme, geo, params)
            assert b.adjoint_pair == (b.n_symbols == b.core_len), (scheme, params)
        assert not wf.build_waveform("fbmc", geo_2d()).adjoint_pair

    def test_real_field_bundle_rejected(self):
        b = wf.build_waveform("fbmc", geo_2d(prefix=0))
        real = ch.discretize(ch.channel_preset("AWGN"), b.geometry.sample_rate_hz)
        with pytest.raises(wf.ConfigurationError, match="real-field"):
            wf.effective_channel(b, real)

    @pytest.mark.parametrize("scheme,geo,params", [
        ("afdm", geo_1d(m=32, prefix=6), {"c1": 0.05}), ("ofdm", geo_1d(), {}),
        ("fbmc", geo_2d(prefix=0), {})])
    def test_bundle_survives_pickle(self, scheme, geo, params):
        # the BER worker pool receives its bundles pickled
        b = wf.build_waveform(scheme, geo, params)
        copy = pickle.loads(pickle.dumps(b))
        assert copy.row is b.row
        assert copy.prefix_phase.tobytes() == b.prefix_phase.tobytes()
        assert copy.adjoint_pair == b.adjoint_pair
        x = rand_syms(b.n_symbols)
        assert copy.operator.tx(x).tobytes() == b.operator.tx(x).tobytes()


class TestDdam:
    def test_single_path_degenerate(self):
        steer = np.array([[1.0 + 0j, 1j, -1.0, 0.5]])
        F = wf.ddam_beamformers(steer, "mrt")
        ps = ch.PathSet(paths=(ch.Path(1.0, 0.0, doppler_hz=100.0),))
        real = ch.discretize(ps, 1e6)
        x = rand_syms(32)
        s = oracles.ddam_precode(x, F, real)
        assert s.shape == (4, 32)  # kappa_1 = 0, no extension
        f = steer[0] / np.linalg.norm(steer[0])
        n = np.arange(32)
        expected = np.outer(f, x * np.exp(-2j * np.pi * 100.0 * n / 1e6))
        assert_allclose(s, expected, atol=1e-12)

    @staticmethod
    def _dense_precode(x, F, real):
        """The whole-frame construction: every path's shifted, rotated copy at once."""
        kappas = [real.max_delay_samples - t.delay_samples for t in real.taps]
        L = x.size + max(kappas)
        n = np.arange(L)
        streams = np.zeros((F.shape[0], L), dtype=complex)
        for i, (tap, kap) in enumerate(zip(real.taps, kappas)):
            streams[i, kap : kap + x.size] = x
            streams[i] *= np.exp(-2j * np.pi * tap.doppler_hz * n / real.sample_rate_hz)
        return F.T @ streams

    @staticmethod
    def _setup(dopplers, beamformer, n_tx=8, n_symbols=5003, fs=1e6):
        rng = np.random.default_rng(len(dopplers) + n_tx)
        delays = (0, 3, 7, 11, 40)[: len(dopplers)]
        paths = tuple(ch.Path(gain=1.0, delay_s=d / fs, doppler_hz=nu)
                      for d, nu in zip(delays, dopplers))
        real = ch.discretize(ch.PathSet(paths=paths), fs)
        H = rng.standard_normal((len(dopplers), n_tx)) + 1j * rng.standard_normal((len(dopplers), n_tx))
        x = rng.standard_normal(n_symbols) + 1j * rng.standard_normal(n_symbols)
        return x, wf.ddam_beamformers(H, beamformer), real

    @pytest.mark.parametrize("dopplers", [(0.0, 0.0, 0.0, 0.0, 0.0),
                                          (500.0, -800.0, 0.0, 120.0, 3e3),
                                          (-250.0,)])
    @pytest.mark.parametrize("beamformer", ["zf", "mrt"])
    def test_blocks_concatenate_to_the_dense_frame(self, dopplers, beamformer):
        x, F, real = self._setup(dopplers, beamformer)
        L = wf.ddam_frame_length(x.size, real)
        dense = self._dense_precode(x, F, real)
        s = oracles.ddam_precode(x, F, real)
        assert s.shape == dense.shape == (F.shape[1], L)
        assert np.array_equal(s, dense)  # a zero tap's skipped rotation moves no value
        # spans of a multiple of 8 samples but the last, as the pairwise-sum
        # tree cuts them: a BLAS product computes the last few columns of a
        # block apart, so other spans may differ from the whole in the last bit
        for spans in ([(0, 8), (8, 40), (40, 2048), (2048, L)],
                      [(lo, min(L, lo + 1000)) for lo in range(0, L, 1000)]):
            blocks, previous = [], None
            for b in wf.ddam_blocks(x, F, real, spans):
                # each block is a view of the one buffer the frame reuses
                assert previous is None or np.shares_memory(b, previous)
                previous = b
                blocks.append(b.copy())
            assert [b.shape for b in blocks] == [(F.shape[1], hi - lo) for lo, hi in spans]
            assert np.array_equal(np.concatenate(blocks, axis=1), dense)

    @staticmethod
    def _piece_widths(n_tx, n_paths):
        """Widths about one and two pieces, where a last piece of one column falls."""
        step, _ = wf._product_pieces(0, n_tx, n_paths)
        edges = (step - 1, step, step + 1, 2 * step + 1)
        return sorted({1, 7, 8, 9, 1600, 1608, 2048} | {w for w in edges if 0 < w <= 2048})

    @pytest.mark.parametrize("n_paths", [1, 5, 9])
    @pytest.mark.parametrize("n_tx", [1, 5, 13, 64, 256, 1024, 2048])
    def test_pieces_equal_the_whole_product(self, n_tx, n_paths):
        rng = np.random.default_rng(100 * n_tx + n_paths)
        F = rng.standard_normal((n_paths, n_tx)) + 1j * rng.standard_normal((n_paths, n_tx))
        for width in self._piece_widths(n_tx, n_paths):
            streams = (rng.standard_normal((n_paths, width))
                       + 1j * rng.standard_normal((n_paths, width)))
            out = np.empty((n_tx, width), dtype=complex)
            wf._precode(F, streams, out)
            assert out.tobytes() == (F.T @ streams).tobytes(), width

    @pytest.mark.parametrize("n_paths", [1, 5, 9])
    @pytest.mark.parametrize("n_tx", [1, 5, 13, 64, 256, 2048])
    def test_pieces_tile_the_block_within_the_budget(self, n_tx, n_paths):
        # 8 columns is the smallest piece, even where it exceeds the budget
        budget = max(wf.PRODUCT_MACS, 8 * n_tx * n_paths)
        for width in self._piece_widths(n_tx, n_paths):
            step, count = wf._product_pieces(width, n_tx, n_paths)
            rest = width - step * count
            assert step % 8 == 0 and step * n_tx * n_paths <= budget
            # the last piece is shorter than a step, or a step and the one
            # column that would otherwise stand alone
            assert 0 <= rest < step or rest == step + 1
            assert rest != 1 or width == 1

    def test_blocks_check_arguments_before_the_first_block(self):
        x, F, real = self._setup((0.0, 10.0), "zf")
        with pytest.raises(wf.ConfigurationError, match="steering vectors"):
            wf.ddam_blocks(x, F[:1], real, [(0, 10)])
        with pytest.raises(wf.ConfigurationError, match="1-D"):
            wf.ddam_blocks(x[:0], F, real, [(0, 10)])

    def test_zero_forcing_nulls_cross_paths(self):
        rng = np.random.default_rng(42)
        H = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
        F = wf.ddam_beamformers(H, "zf")
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert abs(H[j].conj() @ F[i]) <= 1e-10

    def test_zero_forcing_equivalent_channel_single_tap(self):
        rng = np.random.default_rng(17)
        P, n_tx = 4, 16
        H = rng.standard_normal((P, n_tx)) + 1j * rng.standard_normal((P, n_tx))
        F = wf.ddam_beamformers(H, "zf")
        fs = 1e6
        paths = tuple(
            ch.Path(gain=1.0, delay_s=d / fs, doppler_hz=nu)
            for d, nu in zip((0, 3, 7, 11), (500.0, -800.0, 120.0, 0.0))
        )
        real = ch.discretize(ch.PathSet(paths=paths), fs)
        x = rand_syms(64)
        s = oracles.ddam_precode(x, F, real)
        r = oracles.ddam_apply_channel(s, H, real)
        # all energy collapses onto the common tap at l_max
        l_max = real.max_delay_samples
        g = oracles.ddam_composite_gain(H, F, real)
        aligned = r[l_max : l_max + x.size]
        leak = np.linalg.norm(r) ** 2 - np.linalg.norm(aligned) ** 2
        assert leak <= 1e-9 * np.linalg.norm(r) ** 2
        x_hat = oracles.ddam_receive(r, l_max, g, n_symbols=x.size)
        assert np.max(np.abs(x_hat - x)) <= 1e-9

    def test_zero_input_zero_output(self):
        assert np.all(oracles.ddam_receive(np.zeros(8, complex), 2, 1.0) == 0)

    def test_mrt_with_orthogonal_paths_recovers(self):
        # spatially orthogonal steering makes matched beams interference-free
        H = np.eye(2, 8) + 0j
        F = wf.ddam_beamformers(H, "mrt")
        fs = 1e6
        paths = (ch.Path(1.0, 0.0, doppler_hz=300.0), ch.Path(1.0, 4 / fs, doppler_hz=-2e3))
        real = ch.discretize(ch.PathSet(paths=paths), fs)
        x = rand_syms(40)
        r = oracles.ddam_apply_channel(oracles.ddam_precode(x, F, real), H, real)
        g = oracles.ddam_composite_gain(H, F, real)
        x_hat = oracles.ddam_receive(r, real.max_delay_samples, g, n_symbols=x.size)
        assert np.max(np.abs(x_hat - x)) <= 1e-9

    def test_zero_forcing_infeasible_rejected(self):
        rng = np.random.default_rng(0)
        H = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        with pytest.raises(wf.ConfigurationError):
            wf.ddam_beamformers(H, "zf")
        # duplicated steering rows: path inside the span of the others
        H2 = np.ones((2, 8)) + 0j
        with pytest.raises(wf.ConfigurationError):
            wf.ddam_beamformers(H2, "zf")

    @pytest.mark.parametrize("steering,beamformer,match", [
        (np.ones(8, complex), "mrt", "steering must be"),
        (np.ones((2, 8), complex), "svd", "unknown beamformer"),
        (np.vstack([np.ones(8), np.zeros(8)]) + 0j, "mrt", "must be nonzero"),
    ], ids=["1-D", "unknown", "zero-row"])
    def test_malformed_inputs_rejected(self, steering, beamformer, match):
        with pytest.raises(wf.ConfigurationError, match=match):
            wf.ddam_beamformers(steering, beamformer)

    def test_total_power_normalized(self):
        rng = np.random.default_rng(9)
        H = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        for bf in ("mrt", "zf"):
            F = wf.ddam_beamformers(H, bf)
            assert np.sum(np.abs(F) ** 2) == pytest.approx(1.0)
