"""Dispersive channel models: path sets, discretization and tap index rules.

A :class:`PathSet` carries continuous per-path (gain, delay, Doppler) triples;
:func:`discretize` rounds delays onto the sample grid (Doppler is kept
continuous) to produce an immutable :class:`ChannelRealization`, whose taps
``waveforms.core_channel`` turns into the core channel that frames are
propagated through.  The named presets embed the standard 3GPP extended
power-delay profiles (EPA/EVA/ETU) plus the five-path high-mobility set used
by the channel-matrix experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

SPEED_OF_LIGHT = 3e8  # m/s

WIDEBAND_DDC = "wideband"
NARROWBAND_DDC = "narrowband"
TDC = "tdc"
FDC = "fdc"

CHANNEL_MODEL_KINDS = (WIDEBAND_DDC, NARROWBAND_DDC, TDC, FDC)


@dataclass(frozen=True)
class Path:
    """One propagation path: complex gain, delay (s), Doppler (Hz), scale."""

    gain: complex
    delay_s: float
    doppler_hz: float = 0.0
    scale: float = 0.0  # Doppler scale factor (velocity / medium speed)


@dataclass(frozen=True)
class PathSet:
    """A set of propagation paths."""

    paths: tuple[Path, ...]
    normalized: bool = False

    def __post_init__(self):
        if len(self.paths) < 1:
            raise ValueError("a path set needs at least one path")
        for p in self.paths:
            if p.delay_s < 0:
                raise ValueError(f"negative path delay {p.delay_s}")
        if self.normalized:
            total = sum(abs(p.gain) ** 2 for p in self.paths)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"normalized flag set but total power is {total}")

    @property
    def count(self) -> int:
        return len(self.paths)

    @property
    def max_delay_s(self) -> float:
        return max(p.delay_s for p in self.paths)

    def gains(self) -> np.ndarray:
        return np.array([p.gain for p in self.paths], dtype=complex)


@dataclass(frozen=True)
class Tap:
    """A discretized path: integer delay in samples, continuous Doppler."""

    delay_samples: int
    doppler_hz: float
    gain: complex
    scale: float = 0.0


@dataclass(frozen=True)
class ChannelRealization:
    """An immutable channel draw tied to a sample rate."""

    taps: tuple[Tap, ...]
    sample_rate_hz: float

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValueError("sample rate must be positive")

    @property
    def max_delay_samples(self) -> int:
        return max(t.delay_samples for t in self.taps)


# 3GPP extended multipath profiles: (delay ns, relative power dB) per tap.
_PROFILES = {
    "EPA": (
        (0, 0.0), (30, -1.0), (70, -2.0), (90, -3.0),
        (110, -8.0), (190, -17.2), (410, -20.8),
    ),
    "EVA": (
        (0, 0.0), (30, -1.5), (150, -1.4), (310, -3.6), (370, -0.6),
        (710, -9.1), (1090, -7.0), (1730, -12.0), (2510, -16.9),
    ),
    "ETU": (
        (0, -1.0), (50, -1.0), (120, -1.0), (200, 0.0), (230, 0.0),
        (500, 0.0), (1600, -3.0), (2300, -5.0), (5000, -7.0),
    ),
}

# Five-path high-mobility set: delays (us) and velocities (km/h) at 24 GHz.
_FIG16_DELAYS_US = (0.0, 0.0, 0.39, 1.17, 2.34)
_FIG16_VELOCITIES_KMH = (0.0, -1080.0, 648.0, 270.0, 108.0)
_FIG16_CARRIER_HZ = 24e9

# Static five-path equal-power profile spanning 312.5 ns (the peak-power
# study channel: 40 samples of delay spread at a 128 MHz sample rate).
_PAPR5_DELAYS_NS = (0.0, 78.125, 156.25, 234.375, 312.5)

CHANNEL_PRESETS = (*_PROFILES, "FIG16", "PAPR5", "AWGN")


def doppler_from_velocity(velocity_kmh: float, carrier_hz: float) -> float:
    """Doppler shift in Hz of a path moving at ``velocity_kmh`` at ``carrier_hz``."""
    return (velocity_kmh / 3.6) * carrier_hz / SPEED_OF_LIGHT


def profile_powers(name: str) -> np.ndarray:
    """Linear per-tap powers of a named profile, normalized to sum to one."""
    prof = _PROFILES[name]
    p = np.array([10.0 ** (db / 10.0) for _, db in prof])
    return p / p.sum()


def channel_preset(name: str) -> PathSet:
    """Look up a named path set.

    EPA/EVA/ETU return the standard extended profiles with unit-magnitude
    deterministic gains scaled by the (normalized) profile powers; Doppler is
    zero until drawn (see :func:`draw_jakes_dopplers`) or set explicitly.
    FIG16 is the deterministic five-path high-mobility set (equal-power
    gains, Dopplers fixed by path velocity at 24 GHz).  AWGN is a single
    unit-gain path.
    """
    key = name.upper()
    if key not in CHANNEL_PRESETS:
        raise KeyError(f"unknown channel preset {name!r}")
    if key == "AWGN":
        return PathSet(paths=(Path(gain=1.0 + 0j, delay_s=0.0),), normalized=True)
    if key == "FIG16":
        P = len(_FIG16_DELAYS_US)
        g = 1.0 / np.sqrt(P)
        paths = tuple(
            Path(
                gain=g,
                delay_s=d * 1e-6,
                doppler_hz=doppler_from_velocity(v, _FIG16_CARRIER_HZ),
                scale=(v / 3.6) / SPEED_OF_LIGHT,
            )
            for d, v in zip(_FIG16_DELAYS_US, _FIG16_VELOCITIES_KMH)
        )
        return PathSet(paths=paths, normalized=True)
    if key == "PAPR5":
        g = 1.0 / np.sqrt(len(_PAPR5_DELAYS_NS))
        paths = tuple(Path(gain=g, delay_s=d * 1e-9) for d in _PAPR5_DELAYS_NS)
        return PathSet(paths=paths, normalized=True)
    powers = profile_powers(key)
    paths = tuple(
        Path(gain=np.sqrt(p), delay_s=d_ns * 1e-9) for (d_ns, _), p in zip(_PROFILES[key], powers)
    )
    return PathSet(paths=paths, normalized=True)


def load_profile_file(path: str, carrier_hz: float = 0.0) -> PathSet:
    """Load a path set from a plain text profile file.

    One path per line: ``power_dB delay_s doppler`` (whitespace or comma
    separated, ``#`` comments).  The third column is a Doppler shift in Hz
    unless a header line ``# units: velocity_kmh`` appears, in which case it
    is a velocity converted via ``carrier_hz``.  Gains are the square roots
    of the normalized linear powers.  Raises ``ValueError`` naming the line
    for a non-numeric or non-finite field or power, and when the powers sum to 0.
    """
    velocity_units = False
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.lower().replace(" ", "") in ("#units:velocity_kmh",):
                velocity_units = True
                continue
            if not line or line.startswith("#"):
                continue
            parts = [p for p in line.replace(",", " ").split() if p]
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 3 fields, got {line!r}")
            try:
                db, delay_s, third = (float(p) for p in parts)
            except ValueError:
                raise ValueError(f"line {lineno}: fields must be numbers, got {line!r}") from None
            try:
                power = 10.0 ** (db / 10.0)
            except OverflowError:
                power = math.inf
            if not all(map(math.isfinite, (db, delay_s, third, power))):
                raise ValueError(
                    f"line {lineno}: fields and linear power must be finite, got {line!r}")
            rows.append((power, delay_s, third))
    if not rows:
        raise ValueError(f"no paths found in {path!r}")
    powers = np.array([power for power, _, _ in rows])
    total = powers.sum()
    if not 0.0 < total < math.inf:
        raise ValueError(f"the linear powers in {path!r} sum to {total}")
    powers = powers / total
    paths = []
    for (_, delay_s, third), p in zip(rows, powers):
        if velocity_units:
            if carrier_hz <= 0:
                raise ValueError("velocity units need a positive carrier_hz")
            dop = doppler_from_velocity(third, carrier_hz)
        else:
            dop = third
        paths.append(Path(gain=np.sqrt(p), delay_s=delay_s, doppler_hz=dop))
    return PathSet(paths=tuple(paths), normalized=True)


def draw_jakes_dopplers(path_set: PathSet, nu_max_hz: float, rng: np.random.Generator) -> PathSet:
    """Replace every path's Doppler by ``nu_max * cos(theta)``, theta ~ U[-pi, pi].

    Each path gets an independent angle from ``rng``.
    """
    if nu_max_hz < 0:
        raise ValueError("nu_max_hz must be >= 0")
    theta = rng.uniform(-np.pi, np.pi, size=path_set.count)
    dops = nu_max_hz * np.cos(theta)
    paths = tuple(
        replace(p, doppler_hz=float(d)) for p, d in zip(path_set.paths, dops)
    )
    return PathSet(paths=paths, normalized=path_set.normalized)


def draw_profile_gains(path_set: PathSet, rng: np.random.Generator) -> PathSet:
    """Redraw gains as circular Gaussians scaled by the per-path powers.

    The existing |gain|^2 values act as the power profile; the redrawn set is
    renormalized to unit total power so the SNR definition stays exact.
    """
    P = path_set.count
    g = (rng.standard_normal(P) + 1j * rng.standard_normal(P)) / np.sqrt(2.0)
    g = g * np.abs(path_set.gains())
    g = g / np.linalg.norm(g)
    paths = tuple(replace(p, gain=complex(gi)) for p, gi in zip(path_set.paths, g))
    return PathSet(paths=paths, normalized=True)


def discretize(
    path_set: PathSet,
    sample_rate_hz: float,
    kind: str = NARROWBAND_DDC,
) -> ChannelRealization:
    """Round path delays to the nearest sample and freeze a realization.

    Delays quantize as ``l = round(tau * f_s)``; Doppler stays continuous.
    ``kind`` imposes the degenerate cases: a time-dispersive realization
    zeroes all Dopplers, a frequency-dispersive one zeroes all delays, and
    the narrowband model ignores time scaling.
    """
    if kind not in CHANNEL_MODEL_KINDS:
        raise ValueError(f"unknown channel model kind {kind!r}")
    taps = []
    for p in path_set.paths:
        l = int(round(p.delay_s * sample_rate_hz))
        nu = p.doppler_hz
        scale = p.scale
        if kind == TDC:
            nu = 0.0
        if kind == FDC:
            l = 0
        if kind != WIDEBAND_DDC:
            scale = 0.0
        taps.append(Tap(delay_samples=l, doppler_hz=nu, gain=p.gain, scale=scale))
    return ChannelRealization(taps=tuple(taps), sample_rate_hz=sample_rate_hz)


def tap_columns(tap: Tap, n: np.ndarray) -> np.ndarray:
    """Input sample index that output sample ``n`` reads through ``tap``.

    The warped time axis at the nearest sample, round(n*(1+a)) - l, for the
    tap's time scale a.  Only a wideband tap has a != 0 (:func:`discretize`),
    so every other tap reads n - l exactly: n*1.0 is exact for n < 2**53.
    Indices may fall outside the frame; callers drop them.
    """
    return np.round(n * (1.0 + tap.scale)).astype(int) - tap.delay_samples


@dataclass(frozen=True)
class ChannelConfig:
    """Declarative Monte-Carlo channel description used by the benchmarks.

    ``realize`` draws one :class:`ChannelRealization`: optionally redrawing
    profile gains as scaled circular Gaussians and per-path Dopplers from the
    cosine-of-uniform-angle law, then discretizing at the given sample rate.
    The draw consumes the generator identically for every waveform so shared
    seeds give shared realizations.
    """

    preset: str = "AWGN"
    kind: str = NARROWBAND_DDC
    carrier_hz: float = 0.0
    nu_max_hz: float = 0.0
    random_gains: bool = False
    jakes: bool = False
    profile_path: str = ""

    @cached_property
    def path_set(self) -> PathSet:
        """The paths before any draw: the profile file's, else the preset's.

        Built on first use and kept, so a config reads its profile file once.
        """
        if self.profile_path:
            return load_profile_file(self.profile_path, self.carrier_hz)
        return channel_preset(self.preset)

    def realize(self, sample_rate_hz: float, rng: np.random.Generator) -> ChannelRealization:
        ps = self.path_set
        if self.random_gains:
            ps = draw_profile_gains(ps, rng)
        if self.jakes:
            ps = draw_jakes_dopplers(ps, self.nu_max_hz, rng)
        return discretize(ps, sample_rate_hz, kind=self.kind)

    def max_delay_samples(self, sample_rate_hz: float) -> int:
        return int(round(self.path_set.max_delay_s * sample_rate_hz))
