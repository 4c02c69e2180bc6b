"""Named experiment presets.

Each preset is the default config plus overrides.  Full-size presets mirror
the published comparison setups; ``*-desk`` variants shrink trial counts and
frame sizes so the whole study runs on a laptop, with every shrink recorded
in the run manifest.
"""

from __future__ import annotations

from .config import default_config

_PRESETS: dict[str, tuple[str, dict]] = {}


def _register(name: str, description: str, **overrides):
    _PRESETS[name] = (description, overrides)


_register(
    "tab5-ber",
    "Full-size error-rate comparison: six schemes, 4-QAM, vehicular profile at "
    "540 km/h, block MMSE with ideal CSI, 1000 realizations, M=1024 / 32x32.",
    **{
        "experiment": "ber",
        "trials": 1000,
        "snr_db": [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0],
        "frame.m_1d": 1024,
        "frame.delta_f_1d_hz": 3e3,
        "frame.m_2d": 32,
        "frame.n_2d": 32,
        "frame.delta_f_2d_hz": 96e3,
    },
)

_register(
    "tab5-ber-desk",
    "Desk-scale error-rate comparison (shrunk from tab5-ber: M=256 / 16x16, 200 "
    "realizations, subcarrier spacing widened to 24 kHz so the vehicular delay "
    "spread still spans 15 samples at the smaller M).",
    **{
        "experiment": "ber",
        "trials": 200,
        "snr_db": [0.0, 5.0, 10.0, 15.0, 20.0],
    },
)

_register(
    "fig17-desk",
    "Alias of tab5-ber-desk: the six-scheme error-rate study at desk scale.",
    **_PRESETS["tab5-ber-desk"][1],
)

_register(
    "tab6-papr",
    "Full-size peak-power study: 128-QAM, M=512 single-carrier-spacing frames, "
    "256 transmit antennas for the path-precoded scheme, 10000 frames, static "
    "5-path channel with 40-sample delay spread.",
    **{
        "experiment": "papr",
        "trials": 10000,
        "constellation": 128,
        "waveforms": ["ofdm", "ocdm", "afdm", "otfs", "ddam"],
        "frame.m_1d": 512,
        "frame.delta_f_1d_hz": 0.25e6,
        "frame.m_2d": 32,
        "frame.n_2d": 16,
        "frame.delta_f_2d_hz": 4e6,
        "channel.preset": "PAPR5",
        "channel.carrier_hz": 28e9,
        "channel.velocity_kmh": 0.0,
        "channel.jakes": False,
        "channel.random_gains": True,
        "ddam.n_tx": 256,
    },
)

_register(
    "tab6-papr-desk",
    "Desk-scale peak-power study (shrunk from tab6-papr: 64 antennas, 2000 "
    "frames; frame sizes unchanged).",
    **{**_PRESETS["tab6-papr"][1], "trials": 2000, "ddam.n_tx": 64},
)

_register(
    "tab8-unit",
    "Ambiguity sidelobe metrics for all-one frames under the validated "
    "convention: discrete aperiodic lags on core frames (prefix excluded); "
    "chirp-multiplexed scheme at c1=3/(2M), c2=1/(2M) so the frame is a "
    "unit-modulus quadratic-phase sequence.",
    **{
        "experiment": "af",
        "waveforms": ["scm", "ofdm", "ocdm", "afdm", "otfs"],
        "frame.m_1d": 1024,
        "frame.delta_f_1d_hz": 3e3,
        "frame.m_2d": 32,
        "frame.n_2d": 32,
        "frame.delta_f_2d_hz": 96e3,
        "afdm.c1": 3.0 / 2048.0,
        "afdm.c2": 1.0 / 2048.0,
        "af.convention": "aperiodic",
    },
)

_register(
    "fig21-sweep",
    "Chirp-parameter sweep: QPSK, M=128, deterministic 5-path high-mobility "
    "channel, block MMSE; error rate on a 16x16 grid of (c1, c2) over "
    "[0, 1/(2M)] each (grid range is a choice; the two anchor corners are the "
    "plain-Fourier and unit-chirp parameterizations).",
    **{
        "experiment": "afdm-sweep",
        "trials": 100,
        "snr_db": [15.0],
        "waveforms": ["afdm"],
        "frame.m_1d": 128,
        "frame.delta_f_1d_hz": 12e3,
        "channel.preset": "FIG16",
        "channel.jakes": False,
        "channel.random_gains": False,
        "sweep.steps": 16,
    },
)

_register(
    "fig16-chanmat",
    "Effective channel matrix structure dumps: four schemes (M=128 1D, 16x8 "
    "delay-Doppler) over the deterministic 5-path channel in its delay-only, "
    "Doppler-only and doubly-dispersive variants.",
    **{
        "experiment": "chanmat",
        "waveforms": ["scm", "ofdm", "afdm", "otfs"],
        "frame.m_1d": 128,
        "frame.delta_f_1d_hz": 12e3,
        "frame.m_2d": 16,
        "frame.n_2d": 8,
        "frame.delta_f_2d_hz": 96e3,
        "channel.preset": "FIG16",
        "channel.jakes": False,
        "channel.random_gains": False,
        "chanmat.models": ["tdc", "fdc", "narrowband"],
    },
)

_register(
    "awgn-ber",
    "Pure-noise sanity run: 4-QAM single-carrier frames, block MMSE (a scalar "
    "under AWGN), compared against the closed-form Gaussian-tail error rate.",
    **{
        "experiment": "ber",
        "trials": 200,
        "snr_db": [0.0, 4.0, 8.0],
        "waveforms": ["scm"],
        "frame.m_1d": 256,
        "frame.delta_f_1d_hz": 15e3,
        "channel.preset": "AWGN",
        "channel.jakes": False,
        "channel.random_gains": False,
        "channel.velocity_kmh": 0.0,
    },
)

_register(
    "overhead",
    "Closed-form overhead numbers: guard-interval ratio, net spectral "
    "efficiency, and the chirp- vs delay-Doppler-domain pilot footprints "
    "(l_max=8, alpha_max=4, integer Doppler).",
    **{
        "experiment": "overhead",
        "waveforms": ["afdm", "otfs"],
        "overhead.l_max": 8,
        "overhead.alpha_max": 4,
        "overhead.xi_nu": 0,
    },
)


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def preset_description(name: str) -> str:
    return _PRESETS[name][0]


def preset_config(name: str) -> dict:
    """Materialize a preset as a full config dict."""
    if name not in _PRESETS:
        raise KeyError(f"unknown preset {name!r}")
    cfg = default_config()
    # presets share override lists, so each config gets its own copies
    cfg.update({k: list(v) if isinstance(v, list) else v for k, v in _PRESETS[name][1].items()})
    return cfg
