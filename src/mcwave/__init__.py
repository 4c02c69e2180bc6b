"""Unified multicarrier waveform simulation and benchmarking toolbox.

Builds a single-carrier reference and eleven multicarrier schemes as
explicit operator bundles over a common frame geometry, propagates them
through dispersive channel models, and measures link and sensing figures of
merit (error rates, peak power statistics, ambiguity functions, overhead
ratios) with a deterministic, config-driven benchmark CLI.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelConfig,
    ChannelRealization,
    Path,
    PathSet,
    channel_preset,
    discretize,
    draw_jakes_dopplers,
)
from .detection import Constellation, demap_hard, map_bits, mmse_equalize, qam_constellation
from .kpi import BerPoint, af_cut_metrics, af_delay_cut, af_doppler_cut, papr, pilot_overhead, run_ber
from .waveforms import (
    FrameGeometry,
    WaveformBundle,
    build_waveform,
    effective_channel,
)

__all__ = [
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
