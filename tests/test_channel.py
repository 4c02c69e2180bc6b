"""Channel model tests: presets, discretization and the frame-level reference channel."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mcwave import channel as ch

import oracles


class TestPresets:
    def test_eva_summary_stats(self):
        ps = ch.channel_preset("EVA")
        assert ps.count == 9
        assert ps.max_delay_s == pytest.approx(2510e-9)

    def test_epa_etu_summary_stats(self):
        assert ch.channel_preset("EPA").count == 7
        assert ch.channel_preset("EPA").max_delay_s == pytest.approx(410e-9)
        assert ch.channel_preset("ETU").count == 9
        assert ch.channel_preset("ETU").max_delay_s == pytest.approx(5000e-9)

    def test_five_path_doppler_from_velocity(self):
        # nu = (v / 3.6) * f_c / c for v = -1080 km/h at 24 GHz -> -24 kHz
        ps = ch.channel_preset("FIG16")
        expected = (-1080.0 / 3.6) * 24e9 / 3e8
        assert np.array([p.doppler_hz for p in ps.paths])[1] == pytest.approx(expected)
        assert np.array([p.doppler_hz for p in ps.paths])[1] == pytest.approx(-24e3)

    def test_awgn_single_unit_path(self):
        ps = ch.channel_preset("AWGN")
        assert ps.count == 1
        assert ps.paths[0].gain == 1.0
        assert ps.paths[0].delay_s == 0.0
        assert ps.paths[0].doppler_hz == 0.0

    def test_unit_total_power(self):
        for name in ("EPA", "EVA", "ETU", "FIG16", "PAPR5"):
            ps = ch.channel_preset(name)
            assert np.sum(np.abs(ps.gains()) ** 2) == pytest.approx(1.0)

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError):
            ch.channel_preset("EXZ")


class TestJakesDraw:
    def test_zero_spread_zeroes_dopplers(self):
        ps = ch.draw_jakes_dopplers(ch.channel_preset("EVA"), 0.0, rng=oracles.philox(1))
        assert np.all(np.array([p.doppler_hz for p in ps.paths]) == 0.0)

    def test_cosine_bound(self):
        ps = ch.channel_preset("EVA")
        for seed in range(20):
            drawn = ch.draw_jakes_dopplers(ps, 500.0, rng=oracles.philox(seed))
            assert np.all(np.abs(np.array([p.doppler_hz for p in drawn.paths])) <= 500.0)

    def test_sample_mean_near_zero(self):
        # cos(U[-pi,pi]) has zero mean and variance 1/2; check a large draw.
        nu_max = 100.0
        n = 10**5
        rng = np.random.Generator(np.random.Philox(key=77))
        base = ch.PathSet(paths=tuple(ch.Path(gain=1.0, delay_s=0.0) for _ in range(5)))
        draws = []
        for _ in range(n // 5):
            drawn = ch.draw_jakes_dopplers(base, nu_max, rng)
            draws.append(np.array([p.doppler_hz for p in drawn.paths]))
        vals = np.concatenate(draws)
        sigma = nu_max / np.sqrt(2.0) / np.sqrt(vals.size)
        assert abs(vals.mean()) <= 3 * sigma


class TestDiscretize:
    def test_rounding_example(self):
        ps = ch.PathSet(paths=(ch.Path(gain=1.0, delay_s=2.34e-6),))
        real = ch.discretize(ps, 1.536e6)
        assert real.taps[0].delay_samples == 4  # round(3.594)

    def test_zero_delay(self):
        ps = ch.PathSet(paths=(ch.Path(gain=1.0, delay_s=0.0),))
        assert ch.discretize(ps, 1e6).taps[0].delay_samples == 0

    def test_model_kind_degeneracies(self):
        ps = ch.PathSet(
            paths=(ch.Path(gain=1.0, delay_s=1e-6, doppler_hz=100.0, scale=1e-6),)
        )
        tdc = ch.discretize(ps, 1e6, kind=ch.TDC)
        assert tdc.taps[0].doppler_hz == 0.0 and tdc.taps[0].delay_samples == 1
        fdc = ch.discretize(ps, 1e6, kind=ch.FDC)
        assert fdc.taps[0].delay_samples == 0 and fdc.taps[0].doppler_hz == 100.0
        nb = ch.discretize(ps, 1e6, kind=ch.NARROWBAND_DDC)
        assert nb.taps[0].scale == 0.0

    def test_idempotent(self):
        ps = ch.channel_preset("EVA")
        r1 = ch.discretize(ps, 3.072e6)
        r2 = ch.discretize(oracles.implied_path_set(r1), 3.072e6)
        assert r1.taps == r2.taps


class TestTapColumns:
    N = np.arange(2**20 + 1)

    @pytest.mark.parametrize("kind", [ch.TDC, ch.FDC, ch.NARROWBAND_DDC])
    def test_unwarped_kinds_read_the_plain_delay(self, kind):
        # FIG16's paths have nonzero time scales; only the wideband kind keeps them
        real = ch.discretize(ch.channel_preset("FIG16"), 30.72e6, kind=kind)
        for tap in real.taps:
            cols = ch.tap_columns(tap, self.N)
            plain = self.N - tap.delay_samples
            assert cols.dtype == plain.dtype and np.array_equal(cols, plain)

    def test_wideband_reads_the_warped_axis(self):
        real = ch.discretize(ch.channel_preset("FIG16"), 30.72e6, kind=ch.WIDEBAND_DDC)
        assert any(tap.scale != 0 for tap in real.taps)
        for tap in real.taps:
            warped = np.round(self.N * (1.0 + tap.scale)).astype(int) - tap.delay_samples
            cols = ch.tap_columns(tap, self.N)
            assert cols.dtype == warped.dtype and np.array_equal(cols, warped)


class TestApplyChannel:
    def test_identity_path(self):
        real = ch.discretize(ch.channel_preset("AWGN"), 1e6)
        s = np.arange(8) + 1j
        assert_allclose(oracles.apply_channel(s, real), s, atol=1e-15)

    def test_pure_shift(self):
        ps = ch.PathSet(paths=(ch.Path(gain=1.0, delay_s=1e-6),))
        real = ch.discretize(ps, 1e6)
        out = oracles.apply_channel(np.array([1.0, 2.0, 3.0]), real)
        assert_allclose(out, [0.0, 1.0, 2.0], atol=1e-15)

    def test_fdc_is_phase_ramp(self):
        nu = 1234.0
        ps = ch.PathSet(paths=(ch.Path(gain=1.0, delay_s=0.0, doppler_hz=nu),))
        real = ch.discretize(ps, 1e6, kind=ch.FDC)
        rng = np.random.default_rng(0)
        s = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        n = np.arange(64)
        assert_allclose(oracles.apply_channel(s, real), s * np.exp(2j * np.pi * nu * n / 1e6),
                        atol=1e-12)

    def test_empty_input_rejected(self):
        real = ch.discretize(ch.channel_preset("AWGN"), 1e6)
        with pytest.raises(ValueError):
            oracles.apply_channel(np.array([]), real)

    @pytest.mark.parametrize("kind", ch.CHANNEL_MODEL_KINDS)
    def test_stack_equals_rows_byte_for_byte(self, kind):
        # delayed, Doppler-shifted and (wideband) time-scaled taps
        ps = ch.PathSet(paths=(
            ch.Path(0.6 + 0.1j, 0.0, doppler_hz=1e4, scale=0.05),
            ch.Path(0.5j, 3e-6, doppler_hz=-2e4, scale=-0.04),
            ch.Path(-0.4, 6e-6, doppler_hz=3e3),
        ))
        real = ch.discretize(ps, 1e6, kind=kind)
        rng = np.random.default_rng(5)
        for rows, length in ((1, 40), (6, 263), (7, 1032)):
            s = rng.standard_normal((rows, length)) + 1j * rng.standard_normal((rows, length))
            out = oracles.apply_channel(s, real)
            assert out.shape == s.shape
            for row, frame in zip(out, s):
                assert row.tobytes() == oracles.apply_channel(frame, real).tobytes()

    def test_wideband_time_scaling(self):
        # positive scale factor compresses the waveform: sample n reads the
        # input at round(n * (1 + a)).
        a = 0.25
        ps = ch.PathSet(paths=(ch.Path(gain=1.0, delay_s=0.0, doppler_hz=0.0, scale=a),))
        real = ch.discretize(ps, 1e6, kind=ch.WIDEBAND_DDC)
        s = np.arange(16, dtype=complex)
        out = oracles.apply_channel(s, real)
        expected = np.zeros(16, dtype=complex)
        for n in range(16):
            idx = round(n * (1 + a))
            if idx < 16:
                expected[n] = s[idx]
        assert_allclose(out, expected, atol=1e-15)


class TestChannelMatrix:
    def test_identity(self):
        real = ch.discretize(ch.channel_preset("AWGN"), 1e6)
        assert_allclose(oracles.channel_matrix_full(real, 8), np.eye(8), atol=1e-15)

    def test_tdc_is_toeplitz(self):
        ps = ch.PathSet(paths=(ch.Path(gain=0.8, delay_s=0.0),
                               ch.Path(gain=0.6, delay_s=2e-6)))
        real = ch.discretize(ps, 1e6, kind=ch.TDC)
        H = oracles.channel_matrix_full(real, 16)
        for d in range(16):
            diag = np.diag(H, -d)
            assert np.max(np.abs(diag - diag[0])) <= 1e-15 if diag.size else True

    def test_fdc_is_diagonal(self):
        ps = ch.PathSet(paths=(ch.Path(gain=1.0, delay_s=0.0, doppler_hz=500.0),))
        real = ch.discretize(ps, 1e6, kind=ch.FDC)
        H = oracles.channel_matrix_full(real, 12)
        assert np.max(np.abs(H - np.diag(np.diag(H)))) == 0.0

    def test_matches_apply_channel(self):
        ps = ch.draw_jakes_dopplers(ch.channel_preset("EVA"), 300.0, rng=oracles.philox(3))
        real = ch.discretize(ps, 3.072e6)
        rng = np.random.default_rng(1)
        s = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        H = oracles.channel_matrix_full(real, 32)
        assert np.max(np.abs(H @ s - oracles.apply_channel(s, real))) <= 1e-12

    def test_matches_apply_channel_wideband(self):
        # scale factors exaggerated so the warped index actually moves
        # within a 48-sample frame
        paths = (ch.Path(0.8, 2e-6, doppler_hz=900.0, scale=0.05),
                 ch.Path(0.4j, 0.0, doppler_hz=-400.0, scale=-0.03))
        real = ch.discretize(ch.PathSet(paths=paths), 1e6, kind=ch.WIDEBAND_DDC)
        rng = np.random.default_rng(2)
        s = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        H = oracles.channel_matrix_full(real, 48)
        out = oracles.apply_channel(s, real)
        assert np.max(np.abs(H @ s - out)) <= 1e-12
        # the warp genuinely differs from the unwarped indexing
        nb = ch.discretize(oracles.implied_path_set(real), 1e6, kind=ch.NARROWBAND_DDC)
        assert np.max(np.abs(out - oracles.apply_channel(s, nb))) > 1e-3

    def test_too_short_rejected(self):
        ps = ch.PathSet(paths=(ch.Path(gain=1.0, delay_s=9e-6),))
        real = ch.discretize(ps, 1e6)
        with pytest.raises(ValueError):
            oracles.channel_matrix_full(real, 8)


class TestSparsity:
    def test_identity_support(self):
        m = oracles.sparsity_metrics(np.eye(16), threshold=0.5)
        assert m["support_fraction"] == pytest.approx(1 / 16)
        assert m["max_row_support"] == 1

    def test_all_equal_support(self):
        m = oracles.sparsity_metrics(np.ones((4, 4)), threshold=0.5)
        assert m["support_fraction"] == 1.0
        assert m["max_row_support"] == 4

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            oracles.sparsity_metrics(np.eye(4), threshold=0.0)


class TestProfileFile:
    def test_load_doppler_units(self, tmp_path):
        p = tmp_path / "prof.txt"
        p.write_text("# power_db delay_s doppler_hz\n0 0 100\n-3, 1e-6, -50\n")
        ps = ch.load_profile_file(str(p))
        assert ps.count == 2
        assert ps.paths[1].delay_s == pytest.approx(1e-6)
        assert ps.paths[1].doppler_hz == pytest.approx(-50.0)
        assert np.sum(np.abs(ps.gains()) ** 2) == pytest.approx(1.0)
        # 3 dB power split: |g0|^2 / |g1|^2 = 2
        ratio = abs(ps.paths[0].gain) ** 2 / abs(ps.paths[1].gain) ** 2
        assert ratio == pytest.approx(10 ** 0.3, rel=1e-6)

    def test_load_velocity_units(self, tmp_path):
        p = tmp_path / "prof.txt"
        p.write_text("# units: velocity_kmh\n0 0 540\n")
        ps = ch.load_profile_file(str(p), carrier_hz=24e9)
        assert ps.paths[0].doppler_hz == pytest.approx(12e3)

    def test_malformed_rejected(self, tmp_path):
        p = tmp_path / "prof.txt"
        p.write_text("0 0\n")
        with pytest.raises(ValueError):
            ch.load_profile_file(str(p))

    @pytest.mark.parametrize("line", ["4000 0 0", "0 inf 0", "0 nan 0", "nan 0 0", "0 0 -inf"])
    def test_non_finite_field_or_power_names_the_line(self, tmp_path, line):
        p = tmp_path / "prof.txt"
        p.write_text(f"# header\n0 0 0\n{line}\n")
        with pytest.raises(ValueError, match=f"line 3: .*{line!r}"):
            ch.load_profile_file(str(p))

    def test_non_numeric_field_names_the_line(self, tmp_path):
        p = tmp_path / "prof.txt"
        p.write_text("0 0 0\nx 1e-6 0\n")
        with pytest.raises(ValueError, match="line 2: .*'x 1e-6 0'"):
            ch.load_profile_file(str(p))

    def test_powers_that_sum_to_zero_rejected(self, tmp_path):
        p = tmp_path / "prof.txt"
        p.write_text("-4000 0 0\n-5000 1e-6 0\n")
        with pytest.raises(ValueError, match="sum to 0"):
            ch.load_profile_file(str(p))


class TestChannelConfig:
    def test_profile_file_read_once(self, tmp_path):
        p = tmp_path / "prof.txt"
        p.write_text("0 0 0\n-3 1e-6 0\n")
        cfg = ch.ChannelConfig(profile_path=str(p), random_gains=True)
        assert cfg.path_set is cfg.path_set
        p.unlink()
        assert len(cfg.realize(1e6, rng=oracles.philox(1)).taps) == 2

    def test_realize_deterministic(self):
        cfg = ch.ChannelConfig(preset="EVA", nu_max_hz=500.0,
                               random_gains=True, jakes=True)
        r1 = cfg.realize(3.072e6, rng=oracles.philox(42))
        r2 = cfg.realize(3.072e6, rng=oracles.philox(42))
        assert r1.taps == r2.taps

    def test_realize_normalized_power(self):
        cfg = ch.ChannelConfig(preset="ETU", nu_max_hz=100.0,
                               random_gains=True, jakes=True)
        real = cfg.realize(1e6, rng=oracles.philox(7))
        total = sum(abs(t.gain) ** 2 for t in real.taps)
        assert total == pytest.approx(1.0)
