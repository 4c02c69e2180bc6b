"""The public names of the package and of its transform module."""

import mcwave
from mcwave import transforms

PUBLIC = [
    "__version__",
    "ChannelConfig",
    "ChannelRealization",
    "Path",
    "PathSet",
    "channel_preset",
    "discretize",
    "draw_jakes_dopplers",
    "Constellation",
    "demap_hard",
    "map_bits",
    "mmse_equalize",
    "qam_constellation",
    "BerPoint",
    "af_delay_cut",
    "af_doppler_cut",
    "af_cut_metrics",
    "papr",
    "pilot_overhead",
    "run_ber",
    "FrameGeometry",
    "WaveformBundle",
    "build_waveform",
    "effective_channel",
]


def test_package_exports_are_pinned():
    assert mcwave.__all__ == PUBLIC


def test_every_exported_name_resolves():
    for module in (mcwave, transforms):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
