"""KPI tests: Monte-Carlo error rates, peak power, ambiguity metrics, overheads."""

import inspect
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mcwave import bench
from mcwave import channel as ch
from mcwave import detection as det
from mcwave import kpi
from mcwave import waveforms as wf
from mcwave.config import validate_config
from mcwave.presets import preset_config

import oracles


def awgn_bundle(m=64):
    geo = wf.FrameGeometry(m=m, n=1, delta_f_hz=15e3, prefix_len=0)
    return wf.build_waveform("scm", geo)


class TestRunBer:
    def test_noiseless_identity_channel_is_error_free(self):
        c = det.qam_constellation(4)
        cfg = ch.ChannelConfig(preset="AWGN")
        pts = kpi.run_ber([awgn_bundle()], cfg, [300.0], trials=3, seed=1,
                          constellation=c)[0]
        assert pts[0].bit_errors == 0
        assert pts[0].ber == 0.0

    def test_matches_closed_form_on_pure_noise(self):
        c = det.qam_constellation(4)
        cfg = ch.ChannelConfig(preset="AWGN")
        pts = kpi.run_ber([awgn_bundle(m=256)], cfg, [0.0, 4.0, 8.0], trials=120,
                          seed=11, constellation=c)[0]
        for p in pts:
            ana = oracles.awgn_qpsk_ber(p.snr_db)
            stderr = np.sqrt(ana * (1 - ana) / p.bits)
            assert abs(p.ber - ana) <= 3 * stderr

    def test_shared_seed_streams_identical_across_waveforms(self):
        # Same (seed, trial) must give identical bits and channel draws no
        # matter which bundle consumes them.
        c = det.qam_constellation(4)
        bits_a = kpi.derive_rng(7, 3, 0).integers(0, 2, 512)
        bits_b = kpi.derive_rng(7, 3, 0).integers(0, 2, 512)
        assert np.array_equal(bits_a, bits_b)
        cfg = ch.ChannelConfig(preset="EVA", nu_max_hz=1e3, random_gains=True, jakes=True)
        r1 = cfg.realize(3.072e6, kpi.derive_rng(7, 3, 1))
        r2 = cfg.realize(3.072e6, kpi.derive_rng(7, 3, 1))
        assert r1.taps == r2.taps

    def test_worker_count_invariance(self):
        c = det.qam_constellation(4)
        cfg = ch.ChannelConfig(preset="EVA", nu_max_hz=500.0, random_gains=True,
                               jakes=True)
        geo = wf.FrameGeometry(m=32, n=1, delta_f_hz=96e3, prefix_len=8)
        b = wf.build_waveform("ofdm", geo)
        serial = kpi.run_ber([b], cfg, [5.0, 10.0], trials=12, seed=5,
                             constellation=c, workers=1)[0]
        parallel = kpi.run_ber([b], cfg, [5.0, 10.0], trials=12, seed=5,
                               constellation=c, workers=2)[0]
        assert [(p.bit_errors, p.bits) for p in serial] == \
               [(p.bit_errors, p.bits) for p in parallel]

    @pytest.mark.parametrize("cpus,pool_size", [(4, 3), (2, 2), (1, None), (None, None)])
    def test_pool_never_exceeds_trials_or_cpus(self, monkeypatch, cpus, pool_size):
        # A recording fake stands in for the pool, so no process starts
        # whatever the worker count asks for.
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args, chunksize=1):
                return map(fn, args)

        monkeypatch.setattr(kpi, "ProcessPoolExecutor", FakePool)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        c = det.qam_constellation(4)
        cfg = ch.ChannelConfig(preset="EVA", nu_max_hz=500.0, random_gains=True, jakes=True)
        b = wf.build_waveform("ofdm", wf.FrameGeometry(m=32, n=1, delta_f_hz=96e3,
                                                       prefix_len=8))
        run = dict(channel_cfg=cfg, snr_db_list=[5.0, 10.0], trials=3, seed=5,
                   constellation=c)
        pooled = kpi.run_ber([b], **run, workers=100000)
        assert sizes == ([] if pool_size is None else [pool_size])
        assert pooled == kpi.run_ber([b], **run, workers=1)

    def test_usable_cpus_is_the_affinity_set(self, monkeypatch):
        # a process pinned to fewer CPUs than the host has gets a pool that size
        if hasattr(os, "sched_getaffinity"):
            assert kpi.usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert kpi.usable_cpus() == 2

    def test_noise_variance_scaling(self):
        w = np.sqrt(0.25 / 2.0) * kpi.noise_shape(4096, kpi.derive_rng(5))
        assert np.mean(np.abs(w) ** 2) == pytest.approx(0.25, rel=0.1)

    def test_bad_trials_rejected(self):
        c = det.qam_constellation(4)
        with pytest.raises(wf.ConfigurationError):
            kpi.run_ber([awgn_bundle()], ch.ChannelConfig(), [0.0], trials=0, seed=1,
                        constellation=c)

    def test_signature_takes_no_detector(self):
        # Every bundle is equalized by the block MMSE, so there is nothing to choose.
        assert list(inspect.signature(kpi.run_ber).parameters) == [
            "bundles", "channel_cfg", "snr_db_list", "trials", "seed", "constellation",
            "workers"]
        with pytest.raises(TypeError, match="detector"):
            kpi.run_ber([awgn_bundle()], ch.ChannelConfig(), [0.0], trials=1, seed=1,
                        constellation=det.qam_constellation(4), detector="single-tap")


def dense_ber_errors(bundle, cfg, equalize, snrs, trials, seed, c):
    """Bit errors per SNR from the modulation-domain chain, trial by trial.

    ``equalize(y, h_eff, sigma2)`` gives the soft symbols of each frame.
    """
    errors = np.zeros(len(snrs), dtype=int)
    for t in range(trials):
        bits = kpi.derive_rng(seed, t, 0).integers(0, 2, bundle.n_symbols * c.bits_per_symbol)
        frame = oracles.transmit(bundle, det.map_bits(bits, c))
        real = cfg.realize(bundle.geometry.sample_rate_hz, kpi.derive_rng(seed, t, 1))
        h_eff = wf.effective_channel(bundle, real)
        for i, snr in enumerate(snrs):
            sigma2 = 10.0 ** (-snr / 10.0)
            w = kpi.noise_shape(frame.size, kpi.derive_rng(seed, t, 2))
            r = oracles.apply_channel(frame, real) + np.sqrt(sigma2 / 2.0) * w
            hard = det.hard_decide(equalize(oracles.receive(bundle, r), h_eff, sigma2), c)
            errors[i] += np.sum(det.bits_for_indices(hard, c) != bits)
    return errors


EVA_DOPPLER = ch.ChannelConfig(preset="EVA", nu_max_hz=2e3, random_gains=True, jakes=True)
EVA_STATIC = ch.ChannelConfig(preset="EVA", kind="tdc")
AWGN_STATIC = ch.ChannelConfig(preset="AWGN")
# EVA at 3.072 MHz has an 8-sample memory.
GEO_1D = wf.FrameGeometry(m=32, n=1, delta_f_hz=96e3, prefix_len=8)
GEO_2D = wf.FrameGeometry(m=8, n=4, delta_f_hz=384e3, prefix_len=8)
SQUARE_SCHEMES = [
    ("scm", GEO_1D, {}),
    ("ofdm", GEO_1D, {}),
    ("frft-ofdm", GEO_1D, {"p": 0.7}),
    ("ocdm", GEO_1D, {}),
    ("ifdm", GEO_1D, {"seed": 3}),
    ("afdm", GEO_1D, {"c1": 3 / 64}),
    ("mc-otfs", GEO_2D, {}),
    ("zak-otfs", GEO_2D, {}),
    ("oddm", GEO_2D, {}),
    ("otsm", GEO_2D, {}),
]


class TestTimeDomainMmse:
    @pytest.mark.parametrize("scheme,geo,params", SQUARE_SCHEMES)
    def test_matches_modulation_domain_mmse(self, scheme, geo, params):
        b = wf.build_waveform(scheme, geo, params)
        assert b.adjoint_pair
        real = EVA_DOPPLER.realize(geo.sample_rate_hz, 3)
        rng = np.random.default_rng(99)
        x = rng.standard_normal(b.n_symbols) + 1j * rng.standard_normal(b.n_symbols)
        frame = oracles.transmit(b, x)
        sigma2s = [1.0, 1e-2, 1e-3]
        w = kpi.noise_shape(frame.size, np.random.Generator(np.random.Philox(key=5)))
        frames = [oracles.apply_channel(frame, real) + np.sqrt(s / 2.0) * w for s in sigma2s]
        cores = oracles.remove_prefix(np.array(frames), geo.prefix_len)
        soft = kpi.time_domain_mmse(wf.core_channel(b, real), [b], [cores], sigma2s)[0]
        h_eff = wf.effective_channel(b, real)
        for sq, r, s in zip(soft, frames, sigma2s):
            ref = det.mmse_equalize(oracles.receive(b, r), h_eff, s)
            assert np.max(np.abs(sq - ref)) <= 1e-10

    # The last two cases have a diagonal effective channel (ofdm over a
    # static channel, and the single-carrier frame over static AWGN that the
    # awgn-ber preset runs): the time-domain block MMSE decides every bit as
    # the per-bin Wiener filter does, and builds no dense matrix for it.
    @pytest.mark.parametrize("scheme,geo,params,cfg,equalize,dense_calls", [
        ("ofdm", GEO_1D, {}, EVA_DOPPLER, det.mmse_equalize, 0),
        ("mc-otfs", GEO_2D, {}, EVA_DOPPLER, det.mmse_equalize, 0),
        ("dft-s-ofdm", GEO_1D, {"width": 24}, EVA_DOPPLER, det.mmse_equalize, 3),  # not square
        ("ofdm", GEO_1D, {}, EVA_STATIC, oracles.single_tap_equalize, 0),
        ("scm", GEO_1D, {}, AWGN_STATIC, oracles.single_tap_equalize, 0),
    ], ids=["ofdm", "mc-otfs", "dft-s-ofdm", "ofdm-static-single-tap", "scm-awgn-single-tap"])
    def test_run_ber_path_and_counts(self, monkeypatch, scheme, geo, params, cfg, equalize,
                                     dense_calls):
        c = det.qam_constellation(4)
        b = wf.build_waveform(scheme, geo, params)
        snrs = [0.0, 10.0, 20.0]
        expected = dense_ber_errors(b, cfg, equalize, snrs, 3, 7, c)
        calls = {"effective_channel": 0, "core_channel": 0, "apply": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in ("effective_channel", "core_channel"):
            monkeypatch.setattr(kpi, name, counted(name, getattr(kpi, name)))
        monkeypatch.setattr(wf.CoreChannel, "apply", counted("apply", wf.CoreChannel.apply))
        pts = kpi.run_ber([b], cfg, snrs, trials=3, seed=7, constellation=c)[0]
        assert [p.bit_errors for p in pts] == expected.tolist()
        # one core channel and one propagation through it per trial on both
        # paths; each effective channel applies C once more, to the modulated
        # identity, and no path builds the dense modulator
        assert calls == {"effective_channel": dense_calls, "core_channel": 3,
                         "apply": 3 + dense_calls}
        assert "a_tx" not in vars(b)


# Every label of the bit-error experiments, the spread scheme narrower than
# the frame (the non-square, effective-channel path).
BER_BUNDLES = [
    (row.label, GEO_1D if row.dim == 1 else GEO_2D,
     {"width": 24} if row.name == "dft-s-ofdm" else {})
    for row in wf.SCHEMES_BY_LABEL.values() if not row.real_field
]


def desk_run(**overrides):
    """The six ``tab5-ber-desk`` bundles over the preset's validated channel.

    Returns the bundles and the keyword arguments of a serial ``run_ber``.
    """
    cfg = dict(preset_config("tab5-ber-desk"), **overrides)
    chan = validate_config(cfg)
    bundles = [bench.build_bundle(label, cfg, chan) for label in cfg["waveforms"]]
    assert len(bundles) == 6 and bundles[3].scheme == "afdm"
    return bundles, dict(channel_cfg=chan, snr_db_list=cfg["snr_db"], trials=cfg["trials"],
                         seed=cfg["seed"],
                         constellation=det.qam_constellation(cfg["constellation"]))


class TestFactoredBerPath:
    def test_desk_preset_is_error_free_at_high_snr(self):
        # At 120 dB the loaded normal equations still decide every bit of
        # these trials (cond(C) reaches 1.3e9); at 200 dB they no longer do.
        bundles, run = desk_run(trials=3, seed=1, snr_db=[120.0])
        for points in kpi.run_ber(bundles, **run):
            assert [p.bit_errors for p in points] == [0]

    @pytest.mark.parametrize("label,geo,params", BER_BUNDLES)
    def test_worker_count_invariance_every_label(self, label, geo, params):
        c = det.qam_constellation(4)
        b = wf.build_waveform(wf.SCHEMES_BY_LABEL[label].name, geo, params)
        counts = [
            [p.bit_errors for p in kpi.run_ber([b], EVA_DOPPLER, [10.0, 20.0], trials=4,
                                                 seed=2, constellation=c,
                                                 workers=workers)[0]]
            for workers in (1, 2)
        ]
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("scheme,geo,params", SQUARE_SCHEMES)
    def test_mmse_builds_no_dense_matrix(self, scheme, geo, params):
        b = wf.build_waveform(scheme, geo, params)
        kpi.run_ber([b], EVA_DOPPLER, [10.0], trials=2, seed=1,
                    constellation=det.qam_constellation(4))
        assert not {"a_tx", "a_rx"} & set(vars(b))


# The five plain-prefix schemes of the 1D geometry: every one sees the same
# core channel, so a trial solves it once.
CP_SCHEMES_1D = [(name, GEO_1D, params) for name, geo, params in SQUARE_SCHEMES
                 if geo is GEO_1D and name != "afdm"]


class TestSharedSolve:
    def test_shared_inputs_are_built_once_per_trial(self, monkeypatch):
        # one bit count, one sample rate and one frame length: three streams,
        # one realization; afdm's chirp-periodic prefix is a cyclic prefix at
        # its default c1, so all six schemes share one core channel, one solve
        # and one propagation
        bundles, run = desk_run(trials=2)
        calls = dict.fromkeys(("realize", "core_channel", "derive_rng", "gram_band",
                               "solve_periodic_banded", "apply"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ch.ChannelConfig, "realize",
                            counted("realize", ch.ChannelConfig.realize))
        for name in ("gram_band", "apply"):
            monkeypatch.setattr(wf.CoreChannel, name, counted(name, getattr(wf.CoreChannel, name)))
        for name in ("core_channel", "derive_rng", "solve_periodic_banded"):
            monkeypatch.setattr(kpi, name, counted(name, getattr(kpi, name)))
        kpi.run_ber(bundles, **run)
        assert calls == {"realize": 2, "core_channel": 2, "derive_rng": 6, "gram_band": 2,
                         "solve_periodic_banded": 2, "apply": 2}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_bundle_gets_its_own_counts(self, workers):
        c = det.qam_constellation(4)
        bundles = [wf.build_waveform(wf.SCHEMES_BY_LABEL[label].name, geo, params)
                   for label, geo, params in BER_BUNDLES]
        bundles.append(wf.build_waveform("afdm", GEO_1D, {"c1": 3 / 64}))
        run = dict(channel_cfg=EVA_DOPPLER, snr_db_list=[10.0, 20.0],
                   trials=4, seed=2, constellation=c, workers=workers)
        together = kpi.run_ber(bundles, **run)
        alone = [kpi.run_ber([b], **run)[0] for b in bundles]
        assert together == alone

    # Without Doppler C depends on neither the prefix length nor the sample
    # rate, so one group can hold frames of two lengths (the cp schemes'
    # 20-sample prefix, otfs/otsm's automatic 15) or of two rates (AWGN with
    # the 2-D frame at half the rate).  Their cores have one length, so the
    # group goes through C in one call per trial; each bundle takes the
    # noise of its own frame length after its own prefix.
    @pytest.mark.parametrize("overrides", [
        {"channel.velocity_kmh": 0.0, "frame.prefix_1d": 20},
        {"channel.preset": "AWGN", "channel.velocity_kmh": 0.0, "frame.delta_f_2d_hz": 192e3},
    ], ids=["prefix-lengths", "sample-rates"])
    def test_one_solve_over_frames_of_two_shapes(self, monkeypatch, overrides):
        bundles, run = desk_run(trials=2, **overrides)
        assert len({(b.geometry.sample_rate_hz, b.geometry.prefix_len) for b in bundles}) == 2
        calls = {"solve": 0, "apply": 0}
        solve, apply = kpi.solve_periodic_banded, wf.CoreChannel.apply

        def counted_solve(*args):
            calls["solve"] += 1
            return solve(*args)

        def counted_apply(*args):
            calls["apply"] += 1
            return apply(*args)

        monkeypatch.setattr(kpi, "solve_periodic_banded", counted_solve)
        monkeypatch.setattr(wf.CoreChannel, "apply", counted_apply)
        together = kpi.run_ber(bundles, **run)
        assert calls == {"solve": 2, "apply": 2}
        assert together == [kpi.run_ber([b], **run)[0] for b in bundles]

    # afdm at c1 = 3/64 (2 L c1 = 3, times L even) has a cyclic prefix and
    # joins the solve; at c1 = 0.05 its prefix phase differs and it has its own.
    @pytest.mark.parametrize("afdm_c1,solves", [(None, 1), (3 / 64, 1), (0.05, 2)])
    def test_one_solve_per_core_channel(self, monkeypatch, afdm_c1, solves):
        bundles = [wf.build_waveform(*row) for row in CP_SCHEMES_1D]
        assert len(bundles) == 5
        if afdm_c1 is not None:
            bundles.append(wf.build_waveform("afdm", GEO_1D, {"c1": afdm_c1}))
        calls = {"solve": 0, "gram": 0}
        solve, gram_band = kpi.solve_periodic_banded, wf.CoreChannel.gram_band

        def counted_solve(*args):
            calls["solve"] += 1
            return solve(*args)

        def counted_gram(core):
            calls["gram"] += 1
            return gram_band(core)

        monkeypatch.setattr(kpi, "solve_periodic_banded", counted_solve)
        monkeypatch.setattr(wf.CoreChannel, "gram_band", counted_gram)
        kpi.run_ber(bundles, EVA_DOPPLER, [10.0, 20.0], trials=1, seed=3,
                    constellation=det.qam_constellation(4))
        assert calls == {"solve": solves, "gram": solves}


class TestPapr:
    def test_constant_envelope_is_zero_db(self):
        assert kpi.papr(np.exp(1j * np.linspace(0, 6, 50))) == pytest.approx(0.0, abs=1e-12)

    def test_two_sample_example(self):
        assert kpi.papr(np.array([1.0, 0.0])) == pytest.approx(10 * np.log10(2), abs=1e-9)

    def test_invariant_under_phase_and_scale(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        a = kpi.papr(s)
        assert kpi.papr(3.7 * np.exp(0.3j) * s) == pytest.approx(a, abs=1e-12)

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            kpi.papr(np.zeros(4))

    def test_empty_rejected_before_any_reduction(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "Mean of empty slice" first
            with pytest.raises(ValueError, match="nonempty"):
                kpi.papr(np.array([], dtype=complex))
            with pytest.raises(ValueError, match="nonempty"):
                kpi.branch_papr(0, lambda spans: iter(()))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 0.0),
                                     complex(0.0, np.inf)])
    def test_non_finite_sample_rejected(self, bad):
        s = np.ones(300, dtype=complex)
        s[170] = bad
        with pytest.raises(ValueError, match="non-finite"):
            kpi.papr(s)
        frame = np.ones((3, 5000), dtype=complex)
        frame[1, 4321] = bad
        with pytest.raises(ValueError, match="non-finite"):
            kpi.branch_papr(frame.shape[1], lambda spans: (frame[:, lo:hi] for lo, hi in spans))

    def test_zero_power_branch_rejected(self):
        frame = np.ones((2, 40), dtype=complex)
        frame[0] = 0
        with pytest.raises(ValueError, match="nonzero power"):
            kpi.branch_papr(40, lambda spans: (frame[:, lo:hi] for lo, hi in spans))

    # lengths below the 8-wide unrolled sum, within one 128-value pairwise
    # leaf, above it and not a multiple of 8, odd, below one block, spanning
    # several blocks, and the desk DDAM frame (512 x 100 symbols + 40)
    @pytest.mark.parametrize("length", [1, 5, 8, 100, 128, 129, 1001, 2047,
                                        kpi.PAPR_BLOCK, 2 * kpi.PAPR_BLOCK + 9, 51240])
    def test_branch_papr_equals_per_row_papr_bit_for_bit(self, length):
        rng = np.random.default_rng(length)
        frame = rng.standard_normal((4, length)) + 1j * rng.standard_normal((4, length))
        frame *= 10.0 ** rng.uniform(-3, 3, (4, 1))  # branches of unequal power
        spans_seen = []

        def blocks(spans):
            spans_seen.extend(spans)
            return (frame[:, lo:hi] for lo, hi in spans)

        got = kpi.branch_papr(length, blocks)
        assert np.array_equal(got, [kpi.papr(row) for row in frame])
        # the blocks tile the frame in order, none longer than PAPR_BLOCK
        assert [lo for lo, _ in spans_seen] == [0] + [hi for _, hi in spans_seen[:-1]]
        assert spans_seen[-1][1] == length
        assert max(hi - lo for lo, hi in spans_seen) <= kpi.PAPR_BLOCK

    def test_papr_samples_concatenates_frame_samples(self):
        samples = kpi.papr_samples(lambda rng: [rng.uniform(), 1.0, 2.0], 3, seed=4)
        assert samples.shape == (9,)
        assert samples[0] == kpi.derive_rng(4, 0).uniform()
        assert list(samples[1:3]) == [1.0, 2.0]

    # (channel, antennas, QAM order, symbols, sample rate, frames, seed).  The PAPR5
    # frames are 372 + 29 samples long, one block of two 200-column product
    # pieces and one column; product pieces that leave that column alone
    # move the branch PAPRs of a few of the 200 frames under either beamformer
    @pytest.mark.parametrize("geometry", [
        pytest.param((dict(preset="EVA", carrier_hz=3e9, random_gains=True),
                      12, 16, 3000, 30.72e6, 6, 7), id="eva"),
        pytest.param((dict(preset="EVA", carrier_hz=3e9, nu_max_hz=900.0,
                           random_gains=True, jakes=True), 12, 16, 3000, 30.72e6, 6, 7),
                     id="eva-doppler"),
        pytest.param((dict(preset="PAPR5", carrier_hz=28e9, random_gains=True),
                      64, 128, 372, 93e6, 200, 1), id="papr5-lone-column"),
    ])
    @pytest.mark.parametrize("beamformer", ["zf", "mrt"])
    def test_threaded_ddam_frames_equal_the_serial_run(self, geometry, beamformer):
        chan_kw, n_tx, order, n_samples, fs, frames, seed = geometry
        chan = ch.ChannelConfig(**chan_kw)
        source = kpi.ddam_frame_source(
            chan, n_tx, beamformer, det.qam_constellation(order),
            n_samples=n_samples, sample_rate_hz=fs)
        # more threads than cores, switching often, and the config's path set
        # first read by concurrent frames
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = kpi.papr_samples(source, frames, seed=seed, threads=4)
        finally:
            sys.setswitchinterval(interval)
        serial = kpi.papr_samples(source, frames, seed=seed, threads=1)
        assert serial.shape == (frames * n_tx,)
        assert np.array_equal(threaded, serial)
        assert np.array_equal(kpi.papr_samples(source, frames, seed=seed, threads=2), serial)

    def test_threaded_frames_keep_frame_order(self):
        def source(rng):
            t = int(rng.integers(0, 1000))
            if t % 2 == 0:
                time.sleep(0.01)  # even draws finish after their odd successors
            return [t, -t]

        expected = kpi.papr_samples(source, 8, seed=2)
        assert {int(t) % 2 for t in expected[::2]} == {0, 1}
        before = threading.active_count()
        assert np.array_equal(kpi.papr_samples(source, 8, seed=2, threads=3), expected)
        assert threading.active_count() == before  # the pool ends with the call

    def test_threaded_frame_error_is_the_serial_one(self):
        def source(rng):
            if rng.uniform() < 0.5:
                raise ConnectionError("frame failed")
            return [1.0]

        with pytest.raises(ConnectionError):
            kpi.papr_samples(source, 20, seed=1)
        before = threading.active_count()
        with pytest.raises(ConnectionError):
            kpi.papr_samples(source, 20, seed=1, threads=2)
        assert threading.active_count() == before

    def test_bundle_source_reads_a_tx_alone(self):
        b = wf.build_waveform("ofdm", wf.FrameGeometry(m=16))
        kpi.qam_frame_source(b, det.qam_constellation(4), n_symbols=3)(kpi.derive_rng(1, 0))
        assert "a_tx" in vars(b)

    def test_ddam_source_streams_the_frame(self):
        # one desk-size frame: 64 antennas x (51200 + 40) samples
        n_tx, n_samples = 64, 51200
        chan = ch.ChannelConfig(preset="PAPR5", carrier_hz=28e9, random_gains=True)
        source = kpi.ddam_frame_source(chan, n_tx, "zf", det.qam_constellation(128),
                                       n_samples=n_samples, sample_rate_hz=128e6)
        rng = kpi.derive_rng(1, 0)  # outside the trace: numpy.random may import here
        tracemalloc.start()
        try:
            samples = source(rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(samples) == n_tx
        # one block and one power buffer of 64 x 2048 values each, reused
        # through the frame, against a 50 MiB frame
        assert peak < 4 * 2**20

    def test_ddam_source_equals_rows_of_the_dense_frame(self):
        chan = ch.ChannelConfig(preset="EVA", carrier_hz=3e9, nu_max_hz=900.0,
                                random_gains=True, jakes=True)
        const = det.qam_constellation(16)
        source = kpi.ddam_frame_source(chan, 12, "mrt", const, n_samples=3000,
                                       sample_rate_hz=30.72e6)
        rng = kpi.derive_rng(3, 1)
        got = source(rng)
        # replay the source's draws and precode the whole frame densely
        rng = kpi.derive_rng(3, 1)
        real = chan.realize(30.72e6, rng_seed=rng)
        P = len(real.taps)
        steering = (rng.standard_normal((P, 12)) + 1j * rng.standard_normal((P, 12)))
        cfg = wf.DdamConfig(steering=steering / np.sqrt(2.0), beamformer="mrt")
        x = const.points[rng.integers(0, const.order, 3000)]
        frame = oracles.ddam_precode(x, cfg, real)
        assert np.array_equal(got, [kpi.papr(row) for row in frame])

    def test_ccdf_floor_and_monotonicity(self):
        samples = np.arange(100, dtype=float)
        pts = kpi.papr_ccdf(samples)
        levels = [p[1] for p in pts]
        assert min(levels) >= kpi.PAPR_MIN_TAIL / 100
        assert levels == sorted(levels, reverse=True)

    def test_quantile_lookup(self):
        # the survivor curve reads the median of a uniform grid at 1/2
        samples = np.linspace(0, 10, 1001)
        x, level = min(kpi.papr_ccdf(samples), key=lambda p: abs(p[1] - 0.5))
        assert x == pytest.approx(5.0, abs=0.02)
        assert level == pytest.approx(0.5, abs=1e-3)


class TestAmbiguity:
    @staticmethod
    def _random_frame(seed, size=64):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    def test_origin_value_is_signal_energy(self):
        a = self._random_frame(1)
        energy = np.sum(np.abs(a) ** 2)
        assert kpi.af_delay_cut(a)[a.size - 1] == pytest.approx(energy)
        assert kpi.af_doppler_cut(a, [0.0])[0] == pytest.approx(energy)

    def test_magnitudes_invariant_under_global_phase(self):
        a = self._random_frame(4)
        b = a * np.exp(0.7j)
        nu = np.linspace(-2e-3, 2e-3, 11)
        peak = np.sum(np.abs(a) ** 2)
        for cut in (kpi.af_delay_cut, lambda x: kpi.af_doppler_cut(x, nu)):
            assert np.max(np.abs(np.abs(cut(a)) - np.abs(cut(b)))) <= 1e-12 * peak

    def test_self_ambiguity_peaks_at_origin(self):
        a = self._random_frame(5)
        nu = np.linspace(-3e-3, 3e-3, 31)
        assert np.argmax(np.abs(kpi.af_delay_cut(a))) == a.size - 1
        assert nu[np.argmax(np.abs(kpi.af_doppler_cut(a, nu)))] == pytest.approx(0.0)

    def test_cyclic_wraps(self):
        a = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        # cyclic lag-1 correlation of (1,2,3,4)
        expected = abs(np.sum(a * np.conj(np.roll(a, 1))))
        assert abs(kpi.af_delay_cut(a, "cyclic")[a.size]) == pytest.approx(expected)
        aperiodic = abs(np.sum(a[1:] * np.conj(a[:-1])))
        assert abs(kpi.af_delay_cut(a)[a.size]) == pytest.approx(aperiodic)

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError, match="convention"):
            kpi.af_delay_cut(np.ones(4), "periodic")

    @pytest.mark.parametrize("convention", kpi.AF_CONVENTIONS)
    @pytest.mark.parametrize("label", [*preset_config("tab8-unit")["waveforms"], "fbmc"])
    def test_cuts_are_the_oracle_surface_through_the_origin(self, label, convention):
        # tab8-unit's all-one frames, and fbmc's on the af-fbmc golden case's grid
        cfg = dict(preset_config("tab8-unit"), **{"af.convention": convention})
        if label == "fbmc":
            cfg.update({"frame.m_2d": 16, "frame.n_2d": 8})
        bundle = bench.build_bundle(label, cfg, validate_config(cfg))
        core = bundle.operator.tx(np.ones(bundle.n_symbols))
        L = core.size
        span = cfg["af.doppler_span"]
        nu = np.linspace(-span, span, cfg["af.doppler_points"]) / bundle.geometry.core_samples
        row = oracles.ambiguity_grid(core, core, np.arange(1 - L, L), [0.0], convention)[0]
        column = oracles.ambiguity_grid(core, core, [0], nu, convention)[:, 0]
        peak = np.abs(row).max()
        assert np.max(np.abs(kpi.af_delay_cut(core, convention) - row)) <= 1e-13 * peak
        assert np.max(np.abs(kpi.af_doppler_cut(core, nu) - column)) <= 1e-13 * peak


class TestAfCutMetrics:
    def test_impulse_sentinel(self):
        cut = np.zeros(65)
        cut[32] = 1.0
        m = kpi.af_cut_metrics(cut, np.linspace(-1, 1, 65))
        assert m.pslr_db <= -300
        assert m.islr_db <= -300
        assert not m.no_null

    def test_triangle_flagged_no_null(self):
        axis = np.linspace(-1, 1, 101)
        cut = 1.0 - np.abs(axis)
        m = kpi.af_cut_metrics(cut, axis)
        assert m.no_null
        assert m.pslr_db == 0.0
        # 3 dB width of the triangle: 2 (1 - 1/sqrt(2))
        assert m.width_3db == pytest.approx(2 * (1 - 2 ** -0.5), abs=1e-3)

    def test_flat_cut_flagged(self):
        m = kpi.af_cut_metrics(np.ones(33), np.linspace(-1, 1, 33))
        assert m.no_null and m.pslr_db == 0.0

    def test_synthetic_two_lobe_values(self):
        # Mainlobe height 1, one sidelobe of height 0.25 and one of 0.1:
        # PSLR = 20 log10(0.25) and ISLR from the exact energies.
        axis = np.arange(11, dtype=float)
        cut = np.array([0.0, 0.1, 0.0, 0.25, 0.0, 0.5, 1.0, 0.5, 0.0, 0.05, 0.0])
        m = kpi.af_cut_metrics(cut, axis)
        assert m.pslr_db == pytest.approx(20 * np.log10(0.25), abs=1e-9)
        side = 0.1**2 + 0.25**2 + 0.05**2
        main = 0.5**2 + 1.0 + 0.5**2
        assert m.islr_db == pytest.approx(10 * np.log10(side / main), abs=1e-9)
        assert not m.no_null

    def test_ratios_invariant_under_rescaling(self):
        axis = np.arange(11, dtype=float)
        cut = np.array([0.0, 0.1, 0.0, 0.25, 0.0, 0.5, 1.0, 0.5, 0.0, 0.05, 0.0])
        m1 = kpi.af_cut_metrics(cut, axis)
        m2 = kpi.af_cut_metrics(cut * 7.3, axis)
        assert m1.pslr_db == pytest.approx(m2.pslr_db)
        assert m1.islr_db == pytest.approx(m2.islr_db)

    def test_flat_zero_cut_rejected(self):
        with pytest.raises(ValueError):
            kpi.af_cut_metrics(np.zeros(8), np.arange(8.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cut_or_axis_rejected(self, bad):
        cut, axis = np.array([0.0, 0.5, 1.0, 0.5, 0.0]), np.arange(5.0)
        with pytest.raises(ValueError, match="finite"):
            kpi.af_cut_metrics(np.where(axis == 3, bad, cut), axis)
        with pytest.raises(ValueError, match="finite"):
            kpi.af_cut_metrics(cut, np.where(axis == 3, bad, axis))


class TestOverheadFormulas:
    def test_cp_overhead_values(self):
        assert kpi.cp_overhead(0.0, 1.0) == 0.0
        assert kpi.cp_overhead(0.25, 1.0) == pytest.approx(0.2)
        assert kpi.cp_overhead(1.0, 1.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            kpi.cp_overhead(-1.0, 1.0)

    def test_spectral_efficiency_values(self):
        # K subcarriers over bandwidth B with T_sym = K/B
        assert kpi.spectral_efficiency(0.0, 4, 64, 64e-6, 0.0, 1e6) == pytest.approx(2.0)
        assert kpi.spectral_efficiency(0.0, 4, 64, 64e-6, 16e-6, 1e6) == pytest.approx(1.6)
        assert kpi.spectral_efficiency(0.1, 4, 64, 64e-6, 16e-6, 1e6) == pytest.approx(1.44)

    def test_pilot_overhead_reference_values(self):
        count_a, frac_a = kpi.pilot_overhead("afdm", 8, 4, 0, 1024)
        count_o, frac_o = kpi.pilot_overhead("otfs", 8, 4, 0, 1024)
        assert count_a == 161 and count_o == 289
        assert frac_a == pytest.approx(161 / 1024)
        assert frac_o == pytest.approx(289 / 1024)

    def test_pilot_overhead_degenerate(self):
        assert kpi.pilot_overhead("afdm", 0, 0, 0, 8)[0] == 1
        assert kpi.pilot_overhead("otfs", 0, 0, 0, 8)[0] == 1

    def test_pilot_overhead_guard_factor(self):
        base = kpi.pilot_overhead("afdm", 8, 4, 0, 1024)[0]
        guarded = kpi.pilot_overhead("afdm", 8, 4, 1, 1024)[0]
        assert guarded > base

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            kpi.pilot_overhead("ofdm", 1, 1, 0, 64)


class TestAnalyticAnchors:
    """Closed forms that the run's numbers must meet, whatever their bytes."""

    @pytest.mark.parametrize("label", ["scm", "afdm"])
    def test_zero_delay_doppler_cut_is_the_dirichlet_kernel(self, label):
        # A unit-modulus L-sample frame has |A(0, nu)| = |sin(pi nu L) / sin(pi nu)|,
        # nu in cycles per sample; tab8-unit's afdm chirp is unit-modulus too.
        cfg = preset_config("tab8-unit")
        bundle = bench.build_bundle(label, cfg, validate_config(cfg))
        core = bundle.operator.tx(np.ones(bundle.n_symbols))
        L = core.size
        span = cfg["af.doppler_span"]
        nu = np.linspace(-span, span, cfg["af.doppler_points"]) / L  # cycles per sample
        cut = np.abs(kpi.af_doppler_cut(core, nu))
        assert L == 1024
        # sin(pi nu L) / (L sin(pi nu)) = sinc(nu L) / sinc(nu), finite at nu = 0
        dirichlet = np.abs(np.sinc(nu * L) / np.sinc(nu))
        np.testing.assert_allclose(cut / cut.max(), dirichlet, rtol=0, atol=1e-12)

    def test_ofdm_papr_ccdf_meets_the_gaussian_approximation(self):
        # N independent complex-Gaussian samples exceed gamma times their mean
        # power with probability 1 - (1 - e^-gamma)^N; at 1e-2 and N = 51 200
        # that is 11.89 dB.  papr_ccdf keeps points down to 10/n, so 1000 frames.
        cfg = dict(preset_config("tab6-papr-desk"), trials=1000)
        n = cfg["frame.m_1d"] * cfg["papr.symbols"]
        assert n == 51_200
        bundle = bench.build_bundle("ofdm", cfg, validate_config(cfg))
        source = kpi.qam_frame_source(bundle, det.qam_constellation(cfg["constellation"]),
                                      n_symbols=cfg["papr.symbols"])
        papr_db, ccdf = np.array(kpi.papr_ccdf(kpi.papr_samples(source, 1000, cfg["seed"]))).T
        measured = float(np.interp(-1e-2, -ccdf, papr_db))  # ccdf decreasing
        gaussian = 10.0 * np.log10(-np.log(-np.expm1(np.log1p(-1e-2) / n)))
        assert gaussian == pytest.approx(11.89, abs=5e-3)
        assert abs(measured - gaussian) <= 0.3, (measured, gaussian)
