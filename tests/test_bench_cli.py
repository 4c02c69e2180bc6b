"""Config parsing, presets, CSV/manifest emission and CLI behavior."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcwave import bench, channel, cli, config, kpi
from mcwave import waveforms as wf
from mcwave.config import (
    CONFIG_SCHEMA,
    EXPERIMENT_KINDS,
    WAVEFORM_LABELS,
    ValidationError,
    channel_config,
    default_config,
    parse_config,
    serialize_config,
    validate_config,
)
from mcwave.presets import preset_config, preset_names


class TestConfigFormat:
    def test_round_trip_lossless(self):
        cfg = preset_config("tab5-ber-desk")
        text = serialize_config(cfg)
        assert parse_config(text) == cfg
        # and a second trip is byte-stable
        assert serialize_config(parse_config(text)) == text

    def test_round_trip_keeps_every_writable_string(self):
        for name in preset_names():
            cfg = dict(preset_config(name), output_dir="runs 1/a=b;c", **{
                "channel.profile_file": "profiles/eva (x).txt"})
            assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize("key, value", [
        ("output_dir", "runs#1"),
        ("output_dir", "runs\n1"),
        ("channel.profile_file", "a\rb"),
        ("channel.profile_file", "a\u2028b"),
        ("waveforms", ["ofdm,afdm"]),
        ("chanmat.models", ["tdc#"]),
        ("output_dir", " runs"),
        ("waveforms", ["ofdm", ""]),
    ])
    def test_serialize_rejects_what_would_not_parse_back(self, key, value):
        # a '#' starts a comment, a line break ends the pair, a value is
        # stripped, a ',' splits a list and an empty item is dropped
        cfg = dict(preset_config("awgn-ber"), **{key: value})
        with pytest.raises(ValidationError, match=key):
            serialize_config(cfg)

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\ntrials = 7  # inline\nseed = 3\n")
        assert cfg["trials"] == 7 and cfg["seed"] == 3

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_config("tirals = 5\n")

    def test_negative_trials_names_field(self):
        with pytest.raises(ValidationError, match="trials"):
            validate_config(parse_config("trials = -3\n"))

    def test_bad_value_names_key(self):
        with pytest.raises(ValidationError, match="snr_db"):
            parse_config("snr_db = a,b\n")

    def test_otsm_slot_count_names_field(self):
        cfg = default_config()
        cfg["frame.n_2d"] = 12
        with pytest.raises(ValidationError, match="frame.n_2d"):
            validate_config(cfg)

    def test_unknown_waveform_label(self):
        with pytest.raises(ValidationError, match="waveforms"):
            validate_config(parse_config("waveforms = ofdm,qpsk-burst\n"))


class TestValidationGaps:
    """Configs that cannot run are rejected at validation, naming the field."""

    @staticmethod
    def _cfg(**overrides):
        cfg = default_config()
        cfg.update(overrides)
        return cfg

    def test_labels_come_from_the_scheme_table(self):
        assert WAVEFORM_LABELS == (*wf.SCHEMES_BY_LABEL, "ddam")

    @pytest.mark.parametrize("experiment", ["ber", "chanmat"])
    def test_real_field_scheme_rejected_in_channel_experiments(self, experiment):
        cfg = self._cfg(experiment=experiment, waveforms=["ofdm", "fbmc"])
        with pytest.raises(ValidationError, match="waveforms: 'fbmc'"):
            validate_config(cfg)

    def test_real_field_scheme_allowed_in_papr_and_af(self):
        for experiment in ("papr", "af"):
            validate_config(self._cfg(experiment=experiment, waveforms=["fbmc"]))

    def test_real_field_scheme_validate_exit_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "fbmc.cfg"
        cfg_file.write_text("experiment = ber\nwaveforms = fbmc\n")
        assert cli.main(["validate", str(cfg_file)]) == 2
        assert "waveforms" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key", [k for k, v in CONFIG_SCHEMA.items() if v.kind in ("float", "float_list")])
    def test_non_finite_floats_rejected(self, key, bad):
        with pytest.raises(ValidationError, match=f"{key} must be finite"):
            validate_config(parse_config(f"{key} = {bad}\n"))

    def test_nan_snr_run_exit_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "nan.cfg"
        cfg_file.write_text("experiment = ber\nwaveforms = scm\nsnr_db = nan\n"
                            "output_dir = {}\n".format(tmp_path / "out"))
        assert cli.main(["run", str(cfg_file)]) == 2
        assert "snr_db" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # EVA at 32 x 96 kHz = 3.072 MHz: the channel memory is 8 samples.
    _EVA_1D = {"frame.m_1d": 32, "frame.delta_f_1d_hz": 96e3, "waveforms": ["ofdm"]}

    @pytest.mark.parametrize("experiment", ["ber", "chanmat", "afdm-sweep"])
    def test_prefix_shorter_than_channel_memory(self, experiment):
        cfg = self._cfg(experiment=experiment, **self._EVA_1D, **{"frame.prefix_1d": 7})
        with pytest.raises(ValidationError,
                           match="frame.prefix_1d: prefix 7 shorter than channel memory 8"):
            validate_config(cfg)
        cfg["frame.prefix_1d"] = 8
        validate_config(cfg)

    def test_prefix_longer_than_core(self):
        cfg = self._cfg(**self._EVA_1D, **{"frame.prefix_1d": 33})
        with pytest.raises(ValidationError, match="frame.prefix_1d: prefix 33 longer"):
            validate_config(cfg)
        cfg = self._cfg(experiment="chanmat", waveforms=["otfs"],
                        **{"frame.m_2d": 4, "frame.n_2d": 2, "frame.prefix_2d": 9,
                           "channel.preset": "AWGN"})
        with pytest.raises(ValidationError, match="frame.prefix_2d: prefix 9 longer"):
            validate_config(cfg)

    def test_automatic_prefix_longer_than_core(self):
        # EVA at 4 x 6.4 MHz = 25.6 MHz: a 64-sample memory over a 32-sample core
        cfg = self._cfg(waveforms=["otfs"], **{"frame.m_2d": 4, "frame.n_2d": 8,
                                               "frame.delta_f_2d_hz": 6.4e6})
        with pytest.raises(ValidationError, match="frame.prefix_2d: prefix 64 longer"):
            validate_config(cfg)

    def test_prefix_unchecked_where_the_channel_is_not_crossed(self):
        validate_config(self._cfg(experiment="papr", **self._EVA_1D, **{"frame.prefix_1d": 1}))
        # a Doppler-only channel has no delay spread to cover
        validate_config(self._cfg(experiment="chanmat", **self._EVA_1D,
                                  **{"frame.prefix_1d": 1, "chanmat.models": ["fdc"]}))

    def test_automatic_prefix_of_a_doppler_only_channel_fits_the_core(self, tmp_path, capsys):
        # ETU at 16 x 384 kHz = 6.144 MHz: the automatic prefix is the preset's
        # 31-sample memory, though a Doppler-only channel needs none
        frame = {"frame.m_1d": 16, "frame.delta_f_1d_hz": 384e3, "channel.preset": "ETU"}
        for cfg in (self._cfg(waveforms=["ofdm"], **frame, **{"channel.model": "fdc"}),
                    self._cfg(experiment="chanmat", waveforms=["ofdm"], **frame,
                              **{"chanmat.models": ["fdc"]})):
            with pytest.raises(ValidationError,
                               match="frame.prefix_1d: prefix 31 longer than the core frame 16"):
                validate_config(cfg)
            cfg["frame.prefix_1d"] = 0
            validate_config(cfg)
        cfg_file = tmp_path / "fdc.cfg"
        cfg_file.write_text(
            "experiment = ber\ntrials = 2\nwaveforms = ofdm\nchannel.model = fdc\n"
            "channel.preset = ETU\nframe.m_1d = 16\nframe.delta_f_1d_hz = 384000\n"
            "output_dir = {}\n".format(tmp_path / "out"))
        assert cli.main(["validate", str(cfg_file)]) == 2
        assert "frame.prefix_1d" in capsys.readouterr().err
        assert cli.main(["run", str(cfg_file)]) == 2
        assert not (tmp_path / "out").exists()

    def test_snr_whose_noise_variance_overflows_names_snr_db(self, tmp_path, capsys):
        # sigma2 = 10^(-snr_db / 10) passes the float range below about -3083 dB
        with pytest.raises(ValidationError, match="snr_db: -4000.0 dB"):
            validate_config(self._cfg(snr_db=[10.0, -4000.0]))
        validate_config(self._cfg(snr_db=[-3080.0, 150.0]))
        cfg_file = tmp_path / "snr.cfg"
        cfg_file.write_text(
            "experiment = ber\ntrials = 1\nwaveforms = ofdm\nframe.m_1d = 16\n"
            "snr_db = -4000\noutput_dir = {}\n".format(tmp_path / "out"))
        assert cli.main(["validate", str(cfg_file)]) == 2
        assert "snr_db" in capsys.readouterr().err
        assert cli.main(["run", str(cfg_file)]) == 2
        assert "snr_db" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment", ["ber", "afdm-sweep"])
    def test_snr_the_mmse_cannot_resolve_names_snr_db(self, tmp_path, capsys, experiment):
        # sigma2 below machine epsilon (about 156.5 dB) is lost in the rounding
        # of the formed Gram matrix; 4000 dB even underflows to a zero variance
        for snr in (156.6, 200.0, 4000.0):
            with pytest.raises(ValidationError, match=f"snr_db: {snr} dB .* machine epsilon"):
                validate_config(self._cfg(experiment=experiment, waveforms=["afdm"],
                                          snr_db=[10.0, snr]))
        validate_config(self._cfg(experiment=experiment, waveforms=["afdm"], snr_db=[156.5]))
        # the cap is the block MMSE's: the peak-power study never reads the SNR
        validate_config(self._cfg(experiment="papr", waveforms=["ofdm"], snr_db=[4000.0]))
        cfg_file = tmp_path / "snr.cfg"
        cfg_file.write_text(
            "experiment = {}\ntrials = 1\nwaveforms = afdm\nframe.m_1d = 16\n"
            "snr_db = 10, 200\noutput_dir = {}\n".format(experiment, tmp_path / "out"))
        for command in ("validate", "run"):
            assert cli.main([command, str(cfg_file)]) == 2
            assert "snr_db: 200.0 dB" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("waveform", ["ofdm", "afdm"])
    def test_doppler_beyond_the_float_range_names_velocity(self, tmp_path, capsys, waveform):
        # nu_max = inf: NaN phases in the ofdm draw, an infinite automatic afdm c1
        cfg_file = tmp_path / "fast.cfg"
        cfg_file.write_text(
            "experiment = ber\ntrials = 1\nwaveforms = {}\nframe.m_1d = 16\n"
            "channel.velocity_kmh = 1e300\noutput_dir = {}\n".format(waveform, tmp_path / "out"))
        for command in ("validate", "run"):
            assert cli.main([command, str(cfg_file)]) == 2
            assert "channel.velocity_kmh" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        validate_config(self._cfg(**{"channel.velocity_kmh": 1e290}))

    @pytest.mark.parametrize("d", ["1d", "2d"])
    @pytest.mark.parametrize("name", ["tab5-ber-desk", "tab6-papr-desk", "tab8-unit",
                                      "fig16-chanmat", "fig21-sweep", "overhead"])
    def test_sample_rate_beyond_the_float_range_names_the_spacing(
            self, tmp_path, capsys, name, d):
        # m * delta_f = inf, which every run's manifest records, whichever
        # dimension the run's schemes use
        cfg = dict(preset_config(name), output_dir=str(tmp_path / "out"))
        cfg_file = tmp_path / "rate.cfg"
        cfg_file.write_text(serialize_config({**cfg, f"frame.delta_f_{d}_hz": 1e308}))
        for command in ("validate", "run"):
            assert cli.main([command, str(cfg_file)]) == 2
            assert f"validation error: frame.delta_f_{d}_hz: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        # a frame size beyond the float range, which m * delta_f cannot even convert
        with pytest.raises(ValidationError, match=f"frame.delta_f_{d}_hz: times frame.m_{d}"):
            validate_config({**cfg, f"frame.m_{d}": 10**400})
        validate_config({**cfg, f"frame.delta_f_{d}_hz": 1e300 if name == "overhead" else 1e5})

    def test_doppler_span_beyond_the_float_range_names_the_span(self, tmp_path, capsys):
        # 2 pi span = inf: NaN grid points and phases, and a NaN width in every row
        cfg = dict(preset_config("tab8-unit"), output_dir=str(tmp_path / "out"))
        cfg_file = tmp_path / "span.cfg"
        cfg_file.write_text(serialize_config({**cfg, "af.doppler_span": 1e308}))
        for command in ("validate", "run"):
            assert cli.main([command, str(cfg_file)]) == 2
            assert "validation error: af.doppler_span " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        validate_config({**cfg, "af.doppler_span": 2.8e307})

    @pytest.mark.parametrize("frame,key", [
        ("waveforms = scm\nframe.m_1d = 1\n", "frame.m_1d"),
        ("waveforms = otfs\nframe.m_2d = 1\nframe.n_2d = 1\n", "frame.m_2d, frame.n_2d"),
    ], ids=["scm", "otfs"])
    def test_one_sample_af_frame_names_the_frame_key(self, tmp_path, capsys, frame, key):
        # the delay cut of an L-sample frame has 2L - 1 points and needs 3
        cfg_file = tmp_path / "af.cfg"
        cfg_file.write_text("experiment = af\n{}output_dir = {}\n".format(
            frame, tmp_path / "out"))
        for command in ("validate", "run"):
            assert cli.main([command, str(cfg_file)]) == 2
            assert f"validation error: {key}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        # the fbmc frame carries the prototype's tails
        validate_config(self._cfg(experiment="af", waveforms=["fbmc"],
                                  **{"frame.m_2d": 1, "frame.n_2d": 1}))

    def test_short_prefix_run_exit_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "prefix.cfg"
        cfg_file.write_text(
            "experiment = ber\ntrials = 2\nwaveforms = ofdm\nframe.m_1d = 32\n"
            "frame.delta_f_1d_hz = 96000\nframe.prefix_1d = 1\n"
            "output_dir = {}\n".format(tmp_path / "out"))
        assert cli.main(["run", str(cfg_file)]) == 2
        assert "frame.prefix_1d" in capsys.readouterr().err

    def test_unreadable_profile_file_names_field(self, tmp_path):
        # every experiment reads the file, if only for the manifest
        for experiment in EXPERIMENT_KINDS:
            cfg = self._cfg(experiment=experiment, waveforms=["ofdm"],
                            **{"channel.preset": "file",
                               "channel.profile_file": str(tmp_path / "missing.txt")})
            with pytest.raises(ValidationError, match="channel.profile_file"):
                validate_config(cfg)

    def test_unreadable_profile_file_run_exit_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "papr.cfg"
        cfg_file.write_text(
            "experiment = papr\ntrials = 20\nwaveforms = ddam\nchannel.preset = file\n"
            "channel.profile_file = {}\noutput_dir = {}\n".format(
                tmp_path / "missing.txt", tmp_path / "out"))
        assert cli.main(["run", str(cfg_file)]) == 2
        assert "channel.profile_file" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["4000 0 0", "0 inf 0", "0 nan 0", "-4000 0 0", "nan 0 0"])
    def test_profile_file_without_finite_powers_exit_2(self, tmp_path, capsys, line):
        # a power that overflows, one that underflows to a zero total, a non-finite field
        profile = tmp_path / "profile.txt"
        profile.write_text(line + "\n")
        cfg_file = tmp_path / "profile.cfg"
        cfg_file.write_text(
            "experiment = ber\ntrials = 1\nwaveforms = ofdm\nframe.m_1d = 16\n"
            "channel.preset = file\nchannel.profile_file = {}\noutput_dir = {}\n".format(
                profile, tmp_path / "out"))
        for command in ("validate", "run"):
            assert cli.main([command, str(cfg_file)]) == 2
            assert "channel.profile_file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_too_few_papr_samples_names_trials(self, tmp_path, capsys):
        # the survivor curve keeps points with at least 10 samples beyond them
        cfg = self._cfg(experiment="papr", trials=10, waveforms=["ofdm"])
        with pytest.raises(ValidationError, match="trials: 'ofdm' gets 10"):
            validate_config(cfg)
        cfg["trials"] = 11
        validate_config(cfg)
        # path precoding gives one sample per antenna (matched beams: zero-forcing
        # needs 9 antennas on EVA's 9 paths)
        cfg = self._cfg(experiment="papr", trials=2, waveforms=["ddam"],
                        **{"ddam.n_tx": 5, "ddam.beamformer": "mrt"})
        with pytest.raises(ValidationError, match="trials: 'ddam' gets 10"):
            validate_config(cfg)
        cfg["ddam.n_tx"] = 6
        validate_config(cfg)
        cfg_file = tmp_path / "papr.cfg"
        cfg_file.write_text("experiment = papr\ntrials = 10\nwaveforms = ofdm\n"
                            "output_dir = {}\n".format(tmp_path / "out"))
        assert cli.main(["run", str(cfg_file)]) == 2
        assert "trials" in capsys.readouterr().err

    def test_zero_forcing_needs_an_antenna_per_path(self, tmp_path, capsys):
        # PAPR5 has 5 paths: zero-forcing nulls 4 of them with each beam
        cfg = preset_config("tab6-papr-desk")
        cfg.update(waveforms=["ddam"], **{"ddam.n_tx": 3})
        with pytest.raises(ValidationError, match="ddam.n_tx: zero-forcing over 5 paths"):
            validate_config(cfg)
        validate_config(dict(cfg, **{"ddam.beamformer": "mrt"}))
        validate_config(dict(cfg, **{"ddam.n_tx": 5}))
        # the path count of a profile file
        profile = tmp_path / "three.txt"
        profile.write_text("0 0 0\n-3 1e-7 0\n-6 2e-7 0\n")
        cfg.update({"channel.preset": "file", "channel.profile_file": str(profile),
                    "trials": 20})
        validate_config(cfg)
        cfg["ddam.n_tx"] = 2
        with pytest.raises(ValidationError, match="ddam.n_tx: zero-forcing over 3 paths"):
            validate_config(cfg)
        cfg_file = tmp_path / "zf.cfg"
        cfg_file.write_text("experiment = papr\ntrials = 20\nwaveforms = ddam\n"
                            "channel.preset = PAPR5\nddam.n_tx = 3\n"
                            "output_dir = {}\n".format(tmp_path / "out"))
        assert cli.main(["validate", str(cfg_file)]) == 2
        assert "ddam.n_tx" in capsys.readouterr().err
        assert cli.main(["run", str(cfg_file)]) == 2
        assert not (tmp_path / "out").exists()

    def test_builder_parameter_ranges(self):
        for key, bad in (("frft.p", 0.0), ("frft.p", 2.0), ("ifdm.seed", -1)):
            with pytest.raises(ValidationError, match=key):
                validate_config(self._cfg(**{key: bad}))
        for width in (0, -2, 257):
            with pytest.raises(ValidationError, match="dfts.width"):
                validate_config(self._cfg(waveforms=["dft-s-ofdm"], **{"dfts.width": width}))
        validate_config(self._cfg(waveforms=["dft-s-ofdm"], **{"dfts.width": 256}))


# The keys whose values no single-key domain bounds: free values, or values
# that validate_config's rules check against other keys, the channel or a
# sentinel.  A new key declares its domain, or joins this list on purpose.
KEYS_WITHOUT_DOMAIN = {
    "seed", "output_dir", "snr_db", "channel.preset", "channel.profile_file",
    "channel.jakes", "channel.random_gains", "afdm.c1", "afdm.c2", "dfts.width",
}


def _has_domain(spec: config.Key) -> bool:
    return bool(spec.choices) or spec.low > -math.inf or spec.high < math.inf


def _outside_domains():
    """(key, value) just outside each declared bound or choice set of each key.

    A list key gets one bad item after its valid ones.
    """
    cases = []
    for key, spec in CONFIG_SCHEMA.items():
        bad = []
        if spec.choices:
            bad.append(max(spec.choices) + 1 if spec.kind == "int" else "bogus")
        if spec.low > -math.inf:
            below = spec.low - 1 if spec.kind == "int" else math.nextafter(spec.low, -math.inf)
            bad.append(spec.low if spec.low_open else below)
        if spec.high < math.inf:
            bad.append(spec.high)
        cases += [pytest.param(key, item, id=f"{key}={item}") for item in bad]
    return cases


class TestConfigDomains:
    """Each key declares the values it accepts; one check enforces them all."""

    def test_keys_without_a_domain_are_pinned(self):
        assert {k for k, v in CONFIG_SCHEMA.items() if not _has_domain(v)} == KEYS_WITHOUT_DOMAIN

    @pytest.mark.parametrize("key,item", _outside_domains())
    def test_value_outside_the_domain_names_the_key(self, tmp_path, capsys, key, item):
        cfg = preset_config("tab5-ber-desk")
        spec = CONFIG_SCHEMA[key]
        cfg[key] = [*cfg[key], item] if spec.kind.endswith("_list") else item
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(serialize_config(cfg))
        assert cli.main(["validate", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: {key} must be ") and f"({spec.help})" in err

    @pytest.mark.parametrize("key,value", [
        ("trials", "5"), ("trials", 5.5), ("seed", 1.5), ("channel.jakes", "no"),
        ("frame.m_1d", "256"), ("snr_db", ["a"]), ("trials", True), ("snr_db", 5.0)])
    def test_value_of_the_wrong_type_names_the_key(self, key, value):
        # through the Python API, where no text parser types the values
        with pytest.raises(ValidationError, match=f"^{key} must be "):
            validate_config(dict(preset_config("tab5-ber-desk"), **{key: value}))

    def test_int_is_accepted_for_a_float(self):
        validate_config(dict(preset_config("tab5-ber-desk"), snr_db=[0, 10],
                             **{"channel.velocity_kmh": 100}))

    @pytest.mark.parametrize("key", [k for k, v in CONFIG_SCHEMA.items()
                                     if v.kind.endswith("_list")])
    def test_empty_list_names_the_key(self, key):
        with pytest.raises(ValidationError, match=f"{key} must be nonempty"):
            validate_config(dict(preset_config("tab8-unit"), **{key: []}))

    def test_empty_af_waveforms_exit_2(self, tmp_path, capsys):
        # an ambiguity run over no scheme has no records to write
        cfg_file = tmp_path / "af.cfg"
        cfg_file.write_text("experiment = af\nwaveforms =\noutput_dir = {}\n".format(
            tmp_path / "out"))
        assert cli.main(["run", str(cfg_file)]) == 2
        assert "waveforms" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_chirp_rate_is_automatic_or_nonnegative(self, tmp_path, capsys):
        # any other negative c1 used to run as the automatic one
        cfg = preset_config("tab5-ber-desk")
        for c1 in (-0.01, -2.0, -1.0 + 1e-12):
            cfg_file = tmp_path / "c1.cfg"
            cfg_file.write_text(serialize_config(dict(cfg, **{"afdm.c1": c1})))
            assert cli.main(["validate", str(cfg_file)]) == 2
            assert "validation error: afdm.c1 must be >= 0 or -1" in capsys.readouterr().err
        for c1 in (-1.0, 0.0, 0.01):
            validate_config(dict(cfg, **{"afdm.c1": c1}))


# Run-time failures that come from the numbers drawn, not from the config:
# a drawn steering set that zero-forcing cannot null, or a non-finite frame.
NUMERICAL_FAILURES = ("rank-deficient", "span of the others", "non-finite", "LinAlgError")

SMALL_PAPR = st.fixed_dictionaries({
    # path precoding drawn as often as all bundle schemes together
    "waveforms": st.lists(st.sampled_from([*WAVEFORM_LABELS, *["ddam"] * 11]), min_size=1,
                          max_size=3, unique=True),
    "ddam.beamformer": st.sampled_from(["zf", "mrt"]),
    "ddam.n_tx": st.integers(1, 10),
    "trials": st.integers(10, 13),  # a bundle scheme needs 11
    "papr.symbols": st.integers(1, 3),
    "channel.preset": st.sampled_from(["PAPR5", "EVA", "FIG16", "AWGN"]),
    "channel.jakes": st.booleans(),
    "frame.n_2d": st.integers(1, 4),
})


# Small configs of the experiments whose frames cross the channel, plus the
# ambiguity study.  Every draw runs at m = 16 (1D) and 4 x n (2D); the
# default 1D sample rate makes EVA and FIG16 one sample long, the 2D one
# four.  The wide 1D spacing makes their memory (39 and 36 samples) longer
# than the 16-sample core, which a Doppler-only model cannot run either.
SMALL_CHANNEL = st.fixed_dictionaries({
    "experiment": st.sampled_from(["ber", "ber", "ber", "chanmat", "af", "afdm-sweep"]),
    "waveforms": st.lists(st.sampled_from([w for w in WAVEFORM_LABELS if w != "ddam"]),
                          min_size=1, max_size=3, unique=True),
    "channel.preset": st.sampled_from(["AWGN", "EVA", "FIG16"]),
    "channel.model": st.sampled_from(["narrowband", "wideband", "tdc", "fdc"]),
    "channel.velocity_kmh": st.sampled_from([0.0, 540.0]),
    "channel.jakes": st.booleans(),
    "chanmat.models": st.lists(st.sampled_from(["tdc", "fdc", "narrowband", "wideband"]),
                               min_size=1, max_size=3, unique=True),
    "dfts.width": st.sampled_from([-1, 5]),
    "frame.n_2d": st.sampled_from([2, 4]),
    "frame.delta_f_1d_hz": st.sampled_from([24e3, 960e3]),
})

SMALL_FRAMES = {"frame.m_1d": 16, "frame.m_2d": 4, "trials": 2, "snr_db": [10.0],
                "sweep.steps": 2, "af.doppler_points": 5}

# Every label of the bit-error experiments, with the spread scheme narrower
# than the frame so that it takes the non-square path.
BER_LABELS = [w for w in WAVEFORM_LABELS if w not in ("fbmc", "ddam")]


def run_cli(cfg: dict) -> tuple[bool, int, str]:
    """(validates, exit code of ``mcwave run``, stderr) for one config."""
    try:
        validate_config(cfg)
        valid = True
    except ValidationError:
        valid = False
    with tempfile.TemporaryDirectory() as tmp:
        cfg = dict(cfg, output_dir=str(Path(tmp) / "out"))
        cfg_file = Path(tmp) / "run.cfg"
        cfg_file.write_text(serialize_config(cfg))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main(["run", str(cfg_file)])
    return valid, code, err.getvalue()


def assert_validates_iff_runs(cfg: dict) -> None:
    valid, code, err = run_cli(cfg)
    if not valid:
        assert code == 2, err
    elif code != 0:
        assert code == 3 and any(m in err for m in NUMERICAL_FAILURES), err


class TestValidatedConfigsRun:
    """A config that passes validation runs; only a numerical failure exits 3."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(SMALL_PAPR)
    def test_small_papr_configs(self, overrides):
        cfg = default_config()
        cfg.update(overrides, experiment="papr", **{"frame.m_1d": 16, "frame.m_2d": 4})
        assert_validates_iff_runs(cfg)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(SMALL_CHANNEL)
    def test_small_channel_configs(self, overrides):
        cfg = default_config()
        cfg.update(SMALL_FRAMES, **overrides)
        assert_validates_iff_runs(cfg)

    @pytest.mark.parametrize("channel", [
        {"channel.preset": "EVA", "channel.velocity_kmh": 540.0},
        {"channel.preset": "FIG16", "channel.model": "wideband"},
        {"channel.preset": "AWGN", "channel.velocity_kmh": 0.0},
        {"channel.preset": "AWGN", "channel.velocity_kmh": 540.0},
        {"channel.preset": "EVA", "channel.velocity_kmh": 0.0},
    ])
    def test_every_ber_label(self, channel):
        cfg = default_config()
        cfg.update(SMALL_FRAMES, experiment="ber", waveforms=BER_LABELS,
                   **{"dfts.width": 5, "frame.n_2d": 4}, **channel)
        valid, code, err = run_cli(cfg)
        assert (valid, code) == (True, 0), err

    def test_awgn_ber_past_machine_epsilon_names_snr(self):
        # The block MMSE equalizes every BER run, the pure-noise one included,
        # so its noise variance must stay above machine epsilon too.
        valid, code, err = run_cli(dict(preset_config("awgn-ber"), snr_db=[200.0]))
        assert (valid, code) == (False, 2), err
        assert "snr_db" in err

    def test_detector_is_an_unknown_key(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(serialize_config(preset_config("awgn-ber")) + "detector = mmse\n")
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            assert cli.main(["validate", str(cfg_file)]) == 2
        assert "detector" in err.getvalue()


class TestBuildBundle:
    def test_set_up_timer_name_is_the_config_channel(self):
        assert bench._channel_config is channel_config

    def test_label_row_sets_scheme_geometry_and_params(self):
        cfg = default_config()
        cfg.update({"frame.m_1d": 32, "frame.m_2d": 4, "frame.n_2d": 4,
                    "frame.prefix_2d": 9, "frft.p": 0.7, "dfts.width": 8})
        chan = bench._channel_config(cfg)
        otfs = bench.build_bundle("otfs", cfg, chan)
        assert (otfs.scheme, otfs.geometry.n, otfs.geometry.prefix_len) == ("mc-otfs", 4, 9)
        assert bench.build_bundle("fbmc", cfg, chan).geometry.prefix_len == 0
        assert bench.build_bundle("frft-ofdm", cfg, chan).params == {"p": 0.7}
        dfts = bench.build_bundle("dft-s-ofdm", cfg, chan)
        assert dfts.params == {"width": 8, "mapping": "block-centered"}
        cfg["dfts.width"] = -1  # full allocation: the builder's default width
        assert bench.build_bundle("dft-s-ofdm", cfg, chan).n_symbols == 32
        cfg.update({"afdm.c1": 0.01, "afdm.c2": -0.002})
        assert bench.build_bundle("afdm", cfg, chan).params == {"c1": 0.01, "c2": -0.002}

    @pytest.mark.parametrize("label", sorted(wf.SCHEMES_BY_LABEL))
    def test_bundle_params_are_the_row_config_keys(self, label):
        cfg = preset_config("tab5-ber-desk")
        cfg["dfts.width"] = 64  # -1 (full allocation) would leave the width to the builder
        row = wf.SCHEMES_BY_LABEL[label]
        bundle = bench.build_bundle(label, cfg, channel_config(cfg))
        assert set(bundle.params) == {p for p, _ in row.config_keys}

    @pytest.mark.parametrize("name", preset_names())
    def test_geometry_is_the_validated_one(self, name, monkeypatch):
        cfg = preset_config(name)
        scheme_geometry = config.scheme_geometry
        checked = {}  # the frame validation checked, per dimension

        def record(cfg, row, chan):
            checked[row.dim] = scheme_geometry(cfg, row, chan)
            return checked[row.dim]

        monkeypatch.setattr(config, "scheme_geometry", record)
        validate_config(cfg)
        assert bool(checked) == (cfg["experiment"] in ("ber", "chanmat", "af", "afdm-sweep"))
        chan = channel_config(cfg)
        for label in (w for w in cfg["waveforms"] if w != "ddam"):
            row = wf.SCHEMES_BY_LABEL[label]
            geometry = bench.build_bundle(label, cfg, chan).geometry
            assert geometry == scheme_geometry(cfg, row, chan)
            assert geometry == checked.get(row.dim, geometry)

    def test_file_profile_doppler_sets_the_automatic_chirp_rate(self, tmp_path):
        # one path at 20 kHz: a Doppler span of ceil(20 / 24) = 1 subcarrier at
        # M = 256, 24 kHz, although the Jakes draw is off and nu_max is 0
        profile = tmp_path / "doppler.txt"
        profile.write_text("0 0 0\n-3 1e-6 20000\n")
        cfg = default_config()
        cfg.update({"channel.preset": "file", "channel.profile_file": str(profile),
                    "channel.jakes": False, "channel.velocity_kmh": 0.0})
        validate_config(cfg)
        afdm = bench.build_bundle("afdm", cfg, bench._channel_config(cfg))
        assert afdm.params["c1"] == 3 / (2 * 256)

    def test_static_paths_keep_the_plain_chirp_rate(self):
        # EVA's paths are static when the Jakes draw is off, whatever the speed
        cfg = default_config()
        cfg.update({"channel.jakes": False, "channel.velocity_kmh": 540.0})
        afdm = bench.build_bundle("afdm", cfg, bench._channel_config(cfg))
        assert afdm.params["c1"] == 1 / (2 * 256)


# sha256 of ``mcwave show <preset>``, first recorded before the desk presets
# were written as overrides of the full-size ones; a schema change that adds
# or drops a printed line re-pins them.
SHOW_DIGESTS = {
    "awgn-ber": "d90958ac1840c9637a682ba81cc256419dee9e85f532b040fc23d86685202e53",
    "fig16-chanmat": "9f7d9718d0267e59b26a5af0f02f2a130b0e97b460aff6a4323372bafaa063c4",
    "fig17-desk": "6676a17e0a51ee90499433e81220da14059121071ddd681560077ef3493c77ae",
    "fig21-sweep": "6edafbdb9637804e3fb9c7a1e18717b922e93d302edb61d508e831ea18fc8769",
    "overhead": "5cec853c464ffcca0944c01b354ad77ef789d30d39f10e25d6333cbe834f3733",
    "tab5-ber": "0b2fddc1b64b49e02d47a12a20818b72ade6d035cc5aecf8db9906c5d4a48e55",
    "tab5-ber-desk": "6676a17e0a51ee90499433e81220da14059121071ddd681560077ef3493c77ae",
    "tab6-papr": "a8d95d46291276ce63974536718f088c894509d0c1c6155514ee2615046e22ca",
    "tab6-papr-desk": "589ddc9ff1a17bb06c1a91b9df3d627d9de5ec13e023562704b2fa4a1cc76532",
    "tab8-unit": "354cbd3c37610cb63a36729ff2cff24bd59f36a8f71deebd260ec985f3deef90",
}


class TestPresets:
    @pytest.mark.parametrize("name", preset_names())
    def test_show_output_is_pinned(self, name, capsys):
        assert cli.main(["show", name]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SHOW_DIGESTS[name]

    def test_configs_do_not_share_lists(self):
        preset_config("tab6-papr-desk")["waveforms"].remove("ddam")
        assert "ddam" in preset_config("tab6-papr")["waveforms"]

    def test_all_presets_validate(self):
        for name in preset_names():
            validate_config(preset_config(name))

    def test_expected_presets_exist(self):
        names = preset_names()
        for required in ("tab5-ber", "tab5-ber-desk", "fig17-desk", "tab6-papr",
                         "tab6-papr-desk", "tab8-unit", "fig21-sweep",
                         "fig16-chanmat", "awgn-ber", "overhead"):
            assert required in names

    def test_sweep_grid_documented_range(self):
        cfg = preset_config("fig21-sweep")
        assert cfg["frame.m_1d"] == 128
        assert cfg["constellation"] == 4
        assert cfg["sweep.steps"] == 16


def _run(tmp_path, name, **overrides):
    cfg = preset_config(name)
    cfg.update(overrides)
    out = tmp_path / name
    manifest = bench.run_experiment(cfg, out, preset_name=name)
    return cfg, out, manifest


class TestExperiments:
    def test_ber_outputs_and_schema(self, tmp_path):
        cfg, out, manifest = _run(
            tmp_path, "awgn-ber", trials=4, snr_db=[0.0], **{"frame.m_1d": 32}
        )
        text = (out / "ber_scm.csv").read_text()
        assert text.splitlines()[0] == "scheme,snr_db,bits,bit_errors,ber"
        assert manifest["outputs"]["ber_scm.csv"]
        data = json.loads((out / "manifest.json").read_text())
        jsonschema.validate(data, bench.MANIFEST_SCHEMA)

    def test_fig17_desk_file_set(self, tmp_path):
        cfg = preset_config("fig17-desk")
        cfg.update(trials=2, snr_db=[10.0])
        cfg["frame.m_1d"] = 64
        cfg["frame.m_2d"] = 8
        cfg["frame.n_2d"] = 8
        cfg["frame.delta_f_2d_hz"] = 8 * cfg["frame.delta_f_1d_hz"]
        out = tmp_path / "fig17"
        manifest = bench.run_experiment(cfg, out, preset_name="fig17-desk")
        expected = {f"ber_{s}.csv" for s in ("scm", "ofdm", "ocdm", "afdm", "otfs", "otsm")}
        assert expected == set(manifest["outputs"])

    def test_papr_schema(self, tmp_path):
        cfg, out, _ = _run(
            tmp_path, "tab6-papr-desk", trials=12,
            **{"frame.m_1d": 64, "ddam.n_tx": 8, "papr.symbols": 2,
               "waveforms": ["ofdm", "ddam"]},
        )
        header = (out / "papr_ofdm.csv").read_text().splitlines()[0]
        assert header == "scheme,papr_db,ccdf"
        assert (out / "papr_ddam.csv").exists()

    def test_papr_threads_ddam_frames_only(self, tmp_path, monkeypatch):
        # path precoding runs its frames on a thread per usable CPU; the QAM
        # sources' dense products already use every core through BLAS
        calls = []
        papr_samples = kpi.papr_samples

        def recording(source, trials, seed, threads=1):
            calls.append(threads)
            return papr_samples(source, trials, seed, threads=threads)

        monkeypatch.setattr(kpi, "papr_samples", recording)
        for cpus, trials, labels, expected in ((4, 12, ["ofdm", "ddam"], [1, 4]),
                                               (4, 2, ["ddam"], [2]),
                                               (1, 12, ["ofdm", "ddam"], [1, 1])):
            monkeypatch.setattr(kpi, "usable_cpus", lambda: cpus)
            calls.clear()
            _run(tmp_path, "tab6-papr-desk", trials=trials,
                 **{"frame.m_1d": 64, "ddam.n_tx": 8, "papr.symbols": 2, "waveforms": labels})
            assert calls == expected

    def test_ddam_bytes_do_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch):
        # 372 + 29 = 401 samples: one block, two 200-column product pieces at
        # 64 antennas and 5 paths, and one column that must not stand alone
        digests = set()
        for cpus in (1, 2):
            monkeypatch.setattr(kpi, "usable_cpus", lambda: cpus)
            _, out, _ = _run(tmp_path / str(cpus), "tab6-papr-desk", trials=200, seed=1,
                             waveforms=["ddam"], **{"frame.m_1d": 372, "papr.symbols": 1})
            digests.add(hashlib.sha256((out / "papr_ddam.csv").read_bytes()).hexdigest())
        assert len(digests) == 1

    @pytest.mark.skipif(
        not np._core._multiarray_umath.__cpu_features__.get("AVX2"),
        reason="OpenBLAS's Haswell kernel needs AVX2")
    def test_ddam_bytes_do_not_depend_on_the_cpu_count_on_haswell(self, tmp_path):
        # The same 401-sample run under the kernel an AVX2-only host gets,
        # whose threaded ZGEMM sums a whole block's product apart from the
        # one-thread kernel.  OpenBLAS reads its kernel choice at load time,
        # so the runs go to a child process.
        code = (
            "import hashlib, sys\n"
            "from mcwave import bench, kpi\n"
            "from mcwave.presets import preset_config\n"
            "for cpus in (1, 2):\n"
            "    kpi.usable_cpus = lambda: cpus\n"
            "    cfg = preset_config('tab6-papr-desk')\n"
            "    cfg.update({'trials': 200, 'seed': 1, 'waveforms': ['ddam'],\n"
            "                'frame.m_1d': 372, 'papr.symbols': 1})\n"
            "    out = f'{sys.argv[1]}/{cpus}'\n"
            "    bench.run_experiment(cfg, out)\n"
            "    print(hashlib.sha256(open(out + '/papr_ddam.csv', 'rb').read()).hexdigest())\n"
        )
        src = Path(bench.__file__).resolve().parents[1]
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests = proc.stdout.split()
        assert len(digests) == 2 and len(set(digests)) == 1, digests

    def test_af_metrics_columns(self, tmp_path):
        cfg, out, _ = _run(
            tmp_path, "tab8-unit",
            **{"frame.m_1d": 64, "frame.m_2d": 8, "frame.n_2d": 8,
               "afdm.c1": 3 / 128, "afdm.c2": 1 / 128},
        )
        lines = (out / "af_metrics.csv").read_text().splitlines()
        assert lines[0] == ("scheme,delay_width_3db,doppler_width_3db,"
                            "pslr_delay_db,islr_delay_db,pslr_doppler_db,islr_doppler_db")
        assert len(lines) == 1 + 5
        header = (out / "af_points.csv").read_text().splitlines()[0]
        assert header == "scheme,axis,metric,value"

    # One desk-size run of every kind but papr, shrunk in trials and SNR points.
    @pytest.mark.parametrize("name,overrides", [
        ("tab5-ber-desk", {"trials": 2, "snr_db": [10.0]}),
        ("fig16-chanmat", {}),
        ("tab8-unit", {"frame.m_1d": 64}),
        ("fig21-sweep", {"trials": 2, "sweep.steps": 2}),
        ("overhead", {}),
    ])
    def test_runs_build_no_dense_matrix(self, tmp_path, monkeypatch, name, overrides):
        built, build_bundle = [], bench.build_bundle

        def recorded(*args):
            built.append(build_bundle(*args))
            return built[-1]

        monkeypatch.setattr(bench, "build_bundle", recorded)
        _run(tmp_path, name, **overrides)
        assert (name == "overhead") != bool(built)
        for b in built:
            assert not {"a_tx", "a_rx"} & set(vars(b)), (name, b.scheme)

    def test_af_cuts_trace_under_two_megabytes(self):
        # Each cut is one slice sum per lag or Doppler point: no (2L - 1) x L
        # lag matrix, which alone is 33.5 MB at tab8-unit's L = 1024.
        cfg = preset_config("tab8-unit")
        b = bench.build_bundle("afdm", cfg, validate_config(cfg))
        assert b.n_symbols == 1024
        tracemalloc.start()
        try:
            bench._af_cuts(b, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6, peak

    def test_chanmat_threshold_dump(self, tmp_path):
        cfg, out, manifest = _run(
            tmp_path, "fig16-chanmat",
            **{"frame.m_1d": 32, "frame.m_2d": 8, "frame.n_2d": 4,
               "frame.delta_f_2d_hz": 48e3, "chanmat.models": ["tdc"],
               "waveforms": ["ofdm", "afdm"]},
        )
        text = (out / "chanmat_ofdm_tdc.csv").read_text().splitlines()
        assert text[0] == "row,col,magnitude"
        # delay-only channel gives a diagonal map for the Fourier scheme
        rows = [line.split(",") for line in text[1:]]
        assert all(r == c for r, c, _ in rows)

    def test_sweep_contains_anchor_points(self, tmp_path):
        cfg, out, _ = _run(
            tmp_path, "fig21-sweep", trials=2,
            **{"frame.m_1d": 16, "sweep.steps": 3, "snr_db": [10.0]},
        )
        text = (out / "afdm_sweep.csv").read_text()
        assert "afdm[c1=0;c2=0]" in text
        m = cfg["frame.m_1d"]
        assert f"afdm[c1={1/(2*m):.10g};c2={1/(2*m):.10g}]" in text

    def test_overhead_values(self, tmp_path):
        cfg, out, _ = _run(tmp_path, "overhead", **{"frame.m_1d": 1024,
                                                    "frame.m_2d": 32, "frame.n_2d": 32})
        rows = dict()
        for line in (out / "overhead.csv").read_text().splitlines()[1:]:
            scheme, metric, value = line.split(",")
            rows[(scheme, metric)] = float(value)
        assert rows[("afdm", "pilot_entries")] == 161
        assert rows[("otfs", "pilot_entries")] == 289


class TestDeterminism:
    def test_same_config_same_bytes(self, tmp_path):
        cfg = preset_config("awgn-ber")
        cfg.update(trials=6, snr_db=[2.0, 6.0])
        cfg["frame.m_1d"] = 32
        m1 = bench.run_experiment(cfg, tmp_path / "a")
        m2 = bench.run_experiment(cfg, tmp_path / "b")
        assert m1["outputs"] == m2["outputs"]
        assert (tmp_path / "a/ber_scm.csv").read_bytes() == \
               (tmp_path / "b/ber_scm.csv").read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        cfg = preset_config("tab5-ber-desk")
        cfg.update(trials=6, snr_db=[10.0], waveforms=["ofdm"])
        cfg["frame.m_1d"] = 32
        m1 = bench.run_experiment(cfg, tmp_path / "w1")
        cfg2 = dict(cfg)
        cfg2["workers"] = 2
        m2 = bench.run_experiment(cfg2, tmp_path / "w2")
        assert m1["outputs"]["ber_ofdm.csv"] == m2["outputs"]["ber_ofdm.csv"]

    def test_seed_changes_bytes(self, tmp_path):
        cfg = preset_config("awgn-ber")
        cfg.update(trials=6, snr_db=[2.0])
        cfg["frame.m_1d"] = 32
        m1 = bench.run_experiment(cfg, tmp_path / "s1")
        cfg2 = dict(cfg)
        cfg2["seed"] = 999
        m2 = bench.run_experiment(cfg2, tmp_path / "s2")
        assert m1["outputs"]["ber_scm.csv"] != m2["outputs"]["ber_scm.csv"]


class TestCli:
    def test_validate_preset_ok(self, capsys):
        assert cli.main(["validate", "awgn-ber"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_bad_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("trials = -1\n")
        assert cli.main(["validate", str(bad)]) == 2
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "validate", "show"])
    @pytest.mark.parametrize("unreadable", ["directory", "utf-16"])
    def test_unreadable_config_path_exit_2(self, tmp_path, capsys, command, unreadable):
        path = tmp_path / "cfg"
        if unreadable == "directory":
            path.mkdir()
        else:  # a byte-order mark no UTF-8 text starts with
            path.write_bytes(b"\xff\xfe" + "trials = 3\n".encode("utf-16-le"))
        assert cli.main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and str(path) in err

    def test_unknown_name_exit_2(self, capsys):
        assert cli.main(["run", "no-such-preset"]) == 2

    def test_presets_listing(self, capsys):
        assert cli.main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "fig21-sweep" in out and "tab5-ber" in out

    def test_run_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "mini.cfg"
        cfg_file.write_text(
            "experiment = overhead\nwaveforms = afdm,otfs\noutput_dir = {}\n".format(tmp_path)
        )
        assert cli.main(["run", str(cfg_file)]) == 0
        assert (tmp_path / "overhead.csv").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_show_round_trips(self, capsys):
        assert cli.main(["show", "awgn-ber"]) == 0
        text = capsys.readouterr().out
        assert parse_config(text)["experiment"] == "ber"

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MCWAVE_OUTPUT_DIR", str(tmp_path / "envout"))
        assert cli.main(["run", "overhead"]) == 0
        assert (tmp_path / "envout" / "overhead.csv").exists()

    def test_runtime_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        # a valid config whose banded solve fails numerically at runtime
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(kpi, "solve_periodic_banded", singular)
        cfg_file = tmp_path / "rt.cfg"
        cfg_file.write_text(
            "experiment = ber\ntrials = 2\nsnr_db = 10\nwaveforms = ofdm\n"
            "frame.m_1d = 32\nframe.delta_f_1d_hz = 3000\n"
            "channel.preset = EVA\nchannel.velocity_kmh = 540\n"
            "output_dir = {}\n".format(tmp_path / "out")
        )
        assert cli.main(["run", str(cfg_file)]) == 3
        assert "runtime error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failed_run_leaves_no_partial_outputs(self, tmp_path, capsys, monkeypatch):
        # ofdm's CSV is staged; writing ocdm's then fails
        emit_results, staged = bench.emit_results, []

        def failing_second_file(records, kind, path):
            if staged:
                raise OSError("No space left on device")
            emit_results(records, kind, path)
            staged.append(path.name)

        monkeypatch.setattr(bench, "emit_results", failing_second_file)
        out = tmp_path / "out"
        out.mkdir()
        (out / "ber_ofdm.csv").write_text("earlier run\n")
        cfg_file = tmp_path / "rt.cfg"
        cfg_file.write_text(
            "experiment = ber\ntrials = 2\nsnr_db = 10\nwaveforms = ofdm,ocdm\n"
            "frame.m_1d = 32\nframe.delta_f_1d_hz = 96000\n"
            "channel.preset = EVA\nchannel.velocity_kmh = 0\n"
            "output_dir = {}\n".format(out)
        )
        assert cli.main(["run", str(cfg_file)]) == 3
        assert "No space left on device" in capsys.readouterr().err
        assert staged == ["ber_ofdm.csv"]
        assert [p.name for p in out.iterdir()] == ["ber_ofdm.csv"]
        assert (out / "ber_ofdm.csv").read_text() == "earlier run\n"
        monkeypatch.setattr(bench, "emit_results", emit_results)
        cfg_file.write_text(cfg_file.read_text().replace("ofdm,ocdm", "ofdm"))
        assert cli.main(["run", str(cfg_file)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["ber_ofdm.csv", "manifest.json"]

    def test_ber_run_imports_no_scipy(self, tmp_path):
        # the package declares numpy as its only dependency
        code = (
            "import sys\n"
            "from mcwave import bench\n"
            "from mcwave.presets import preset_config\n"
            "cfg = preset_config('tab5-ber-desk')\n"
            "cfg.update(trials=1, snr_db=[10.0], waveforms=['ofdm', 'otfs'])\n"
            "bench.run_experiment(cfg, sys.argv[1])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = Path(bench.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        assert (tmp_path / "ber_otfs.csv").exists()

    @pytest.mark.parametrize("experiment,reads", [("ber", 1), ("chanmat", 4)])
    def test_run_reads_the_profile_file_once_per_channel(
            self, tmp_path, monkeypatch, experiment, reads):
        # one channel for validation, the run and the manifest; chanmat adds
        # one per model (three here)
        prof = tmp_path / "two_paths.txt"
        prof.write_text("0 0 0\n-3 1e-6 0\n")
        calls = []
        load = channel.load_profile_file

        def counting(*args, **kwargs):
            calls.append(args)
            return load(*args, **kwargs)

        monkeypatch.setattr(channel, "load_profile_file", counting)
        cfg = default_config()
        cfg.update(experiment=experiment, trials=1, snr_db=[10.0], waveforms=["ofdm"],
                   **{"frame.m_1d": 32, "frame.delta_f_1d_hz": 96e3,
                      "channel.preset": "file", "channel.profile_file": str(prof),
                      "chanmat.models": ["tdc", "fdc", "narrowband"]})
        bench.run_experiment(cfg, tmp_path / "out")
        assert len(calls) == reads

    def test_cli_run_validates_once(self, tmp_path, monkeypatch):
        # the profile is read by the one validation inside run_experiment
        prof = tmp_path / "two_paths.txt"
        prof.write_text("0 0 0\n-3 1e-6 0\n")
        reads = []
        load = channel.load_profile_file

        def counting(*args, **kwargs):
            reads.append(args)
            return load(*args, **kwargs)

        monkeypatch.setattr(channel, "load_profile_file", counting)
        cfg_file = tmp_path / "file_chan.cfg"
        cfg_file.write_text(
            "experiment = ber\ntrials = 1\nsnr_db = 10\nwaveforms = ofdm\n"
            "frame.m_1d = 32\nframe.delta_f_1d_hz = 96000\n"
            "channel.preset = file\nchannel.profile_file = {}\n"
            "output_dir = {}\n".format(prof, tmp_path / "out"))
        assert cli.main(["run", str(cfg_file)]) == 0
        assert len(reads) == 1

    def test_run_with_profile_file_channel(self, tmp_path):
        prof = tmp_path / "two_paths.txt"
        prof.write_text("0 0 0\n-3 1e-6 0\n")
        cfg_file = tmp_path / "file_chan.cfg"
        cfg_file.write_text(
            "experiment = ber\ntrials = 3\nsnr_db = 10\nwaveforms = ofdm\n"
            "frame.m_1d = 32\nframe.delta_f_1d_hz = 96000\n"
            "channel.preset = file\nchannel.profile_file = {}\n"
            "channel.jakes = false\nchannel.random_gains = true\n"
            "output_dir = {}\n".format(prof, tmp_path / "out")
        )
        assert cli.main(["run", str(cfg_file)]) == 0
        assert (tmp_path / "out" / "ber_ofdm.csv").exists()


class TestEmit:
    def test_unknown_schema_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            bench.emit_results([("a", 1.0)], "nope", tmp_path / "x.csv")

    def test_numbers_have_17_significant_digits(self, tmp_path):
        path = tmp_path / "t.csv"
        bench.emit_results([("s", 1 / 3, 2 / 3)], "papr", path)
        line = path.read_text().splitlines()[1]
        assert line == f"s,{1/3:.17g},{2/3:.17g}"
