"""Experiment configuration: a flat, typed, dotted-key text format.

One ``key = value`` pair per line, ``#`` comments, lists comma-separated.
Unknown keys are hard errors (nothing is silently ignored) and every value
is validated against the schema below, so a config file round-trips
losslessly through :func:`parse_config` / :func:`serialize_config`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import CHANNEL_MODEL_KINDS, CHANNEL_PRESETS, ChannelConfig, doppler_from_velocity
from .detection import QAM_ORDERS
from .kpi import AF_CONVENTIONS, DETECTORS, PAPR_MIN_TAIL, noise_variance
from .waveforms import (
    BEAMFORMERS,
    DFTS_MAPPINGS,
    SCHEMES_BY_LABEL,
    FrameGeometry,
    Scheme,
    afdm_default_c1,
)

EXPERIMENT_KINDS = ("ber", "papr", "af", "chanmat", "afdm-sweep", "overhead")

# Every scheme label, plus the path precoding of the peak-power experiments.
WAVEFORM_LABELS = (*SCHEMES_BY_LABEL, "ddam")


class ValidationError(ValueError):
    """A config failed schema or semantic validation."""


@dataclass(frozen=True)
class Key:
    kind: str  # int | float | str | bool | float_list | str_list
    default: object
    help: str


CONFIG_SCHEMA: dict[str, Key] = {
    "experiment": Key("str", "ber", "experiment kind: " + "|".join(EXPERIMENT_KINDS)),
    "seed": Key("int", 1, "master seed; every trial stream derives from it"),
    "trials": Key("int", 100, "Monte-Carlo realizations"),
    "workers": Key("int", 1, "parallel trial workers, used by ber and afdm-sweep only "
                   "(results are worker-count invariant); papr and af run in one process"),
    "output_dir": Key("str", "", "output directory (default: $MCWAVE_OUTPUT_DIR or cwd)"),
    "constellation": Key("int", 4, "QAM order: " + "|".join(map(str, QAM_ORDERS))),
    "detector": Key("str", "mmse", "|".join(DETECTORS)),
    "snr_db": Key("float_list", [0.0, 5.0, 10.0, 15.0, 20.0], "symbol-SNR grid in dB"),
    "waveforms": Key(
        "str_list",
        ["scm", "ofdm", "ocdm", "afdm", "otfs", "otsm"],
        "scheme labels to run",
    ),
    "frame.m_1d": Key("int", 256, "subcarriers for 1D schemes"),
    "frame.delta_f_1d_hz": Key("float", 24e3, "1D subcarrier spacing"),
    "frame.prefix_1d": Key("int", -1, "1D prefix samples; -1 = channel max delay"),
    "frame.m_2d": Key("int", 16, "delay bins for 2D schemes"),
    "frame.n_2d": Key("int", 16, "Doppler bins / slots for 2D schemes"),
    "frame.delta_f_2d_hz": Key("float", 384e3, "2D subcarrier spacing"),
    "frame.prefix_2d": Key("int", -1, "2D prefix samples; -1 = channel max delay"),
    "channel.preset": Key("str", "EVA", "|".join(CHANNEL_PRESETS) + " or 'file'"),
    "channel.model": Key("str", "narrowband", "|".join(CHANNEL_MODEL_KINDS)),
    "channel.carrier_hz": Key("float", 24e9, "carrier frequency"),
    "channel.velocity_kmh": Key("float", 540.0, "max speed for the Doppler draw"),
    "channel.jakes": Key("bool", True, "redraw per-path Doppler as nu_max*cos(U[-pi,pi])"),
    "channel.random_gains": Key("bool", True, "redraw gains as profile-scaled Gaussians"),
    "channel.profile_file": Key("str", "", "path profile file when channel.preset = file"),
    "afdm.c1": Key("float", -1.0, "first chirp rate; -1 = (2 ceil(alpha_max)+1)/(2M)"),
    "afdm.c2": Key("float", 0.0, "second chirp rate"),
    "frft.p": Key("float", 0.5, "fractional transform order"),
    "ifdm.seed": Key("int", 0, "interleaver key"),
    "dfts.width": Key("int", -1, "spread width; -1 = full allocation"),
    "dfts.mapping": Key("str", "block-centered", "|".join(DFTS_MAPPINGS)),
    "ddam.n_tx": Key("int", 64, "transmit antennas for path precoding"),
    "ddam.beamformer": Key("str", "zf", "|".join(BEAMFORMERS)),
    "papr.symbols": Key("int", 100, "time-domain symbols concatenated per realization"),
    "af.convention": Key("str", "aperiodic", "ambiguity evaluation: " + "|".join(AF_CONVENTIONS)),
    "af.doppler_span": Key("float", 0.9, "Doppler cut half-span in subcarrier spacings"),
    "af.doppler_points": Key("int", 721, "Doppler cut grid points"),
    "sweep.steps": Key("int", 16, "grid steps per chirp axis over [0, 1/(2M)]"),
    "chanmat.threshold": Key("float", 1e-3, "relative magnitude dump threshold"),
    "chanmat.models": Key("str_list", ["tdc", "fdc", "narrowband"], "channel kinds to dump"),
    "overhead.l_max": Key("int", 8, "max normalized delay for pilot footprints"),
    "overhead.alpha_max": Key("int", 4, "max normalized Doppler for pilot footprints"),
    "overhead.xi_nu": Key("int", 0, "fractional-Doppler guard factor"),
}

_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _parse_value(key: str, kind: str, raw: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "str":
            return raw
        if kind == "bool":
            if raw.lower() not in _BOOL_WORDS:
                raise ValueError(f"not a boolean: {raw!r}")
            return _BOOL_WORDS[raw.lower()]
        if kind == "float_list":
            return [float(p) for p in raw.split(",") if p.strip() != ""]
        if kind == "str_list":
            return [p.strip() for p in raw.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"bad value for {key!r}: {exc}") from exc
    raise ValidationError(f"unknown schema kind {kind!r}")  # pragma: no cover


def _format_value(kind: str, value) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind == "float":
        return f"{float(value):.17g}"
    if kind == "float_list":
        return ",".join(f"{float(v):.17g}" for v in value)
    if kind == "str_list":
        return ",".join(value)
    return str(value)


def default_config() -> dict:
    return {k: (list(v.default) if isinstance(v.default, list) else v.default)
            for k, v in CONFIG_SCHEMA.items()}


def parse_config(text: str) -> dict:
    """Parse config text into a full (defaults-applied) validated dict."""
    cfg = default_config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in CONFIG_SCHEMA:
            raise ValidationError(f"line {lineno}: unknown key {key!r}")
        cfg[key] = _parse_value(key, CONFIG_SCHEMA[key].kind, val)
    validate_config(cfg)
    return cfg


def serialize_config(cfg: dict) -> str:
    """Render a config dict back to the text format (sorted, lossless)."""
    lines = []
    for key in sorted(cfg):
        if key not in CONFIG_SCHEMA:
            raise ValidationError(f"unknown key {key!r}")
        lines.append(f"{key} = {_format_value(CONFIG_SCHEMA[key].kind, cfg[key])}")
    return "\n".join(lines) + "\n"


def _is_pow2(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def _check_choice(cfg: dict, key: str, choices: tuple) -> None:
    if cfg[key] not in choices:
        raise ValidationError(
            f"{key} must be one of {'|'.join(map(str, choices))}, got {cfg[key]!r}")


def validate_config(cfg: dict) -> ChannelConfig:
    """Semantic validation; raises :class:`ValidationError` naming the field.

    Returns the channel the checks read, which is the channel the run uses.
    """
    unknown = set(cfg) - set(CONFIG_SCHEMA)
    if unknown:
        raise ValidationError(f"unknown keys: {sorted(unknown)}")
    missing = set(CONFIG_SCHEMA) - set(cfg)
    if missing:
        raise ValidationError(f"missing keys: {sorted(missing)}")

    for key, spec in CONFIG_SCHEMA.items():
        values = {"float": [cfg[key]], "float_list": cfg[key]}.get(spec.kind, [])
        if not all(math.isfinite(v) for v in values):
            raise ValidationError(f"{key} must be finite, got {cfg[key]!r}")

    exp = cfg["experiment"]
    _check_choice(cfg, "experiment", EXPERIMENT_KINDS)
    if cfg["trials"] < 1:
        raise ValidationError("trials must be >= 1")
    if cfg["workers"] < 1:
        raise ValidationError("workers must be >= 1")
    _check_choice(cfg, "constellation", QAM_ORDERS)
    _check_choice(cfg, "detector", DETECTORS)
    if not cfg["snr_db"]:
        raise ValidationError("snr_db must be nonempty")
    for snr in cfg["snr_db"]:
        try:
            noise_variance(snr)
        except OverflowError:
            raise ValidationError(
                f"snr_db: {snr} dB gives a noise variance beyond the float range"
            ) from None
    for w in cfg["waveforms"]:
        if w not in WAVEFORM_LABELS:
            raise ValidationError(f"waveforms: unknown label {w!r}")
        if w in SCHEMES_BY_LABEL and SCHEMES_BY_LABEL[w].real_field and exp in ("ber", "chanmat"):
            raise ValidationError(
                f"waveforms: {w!r} is real-field and has no complex channel matrix, "
                f"so it is not available in {exp} experiments"
            )
    if "ddam" in cfg["waveforms"] and exp != "papr":
        raise ValidationError("waveforms: 'ddam' is only available in papr experiments")
    for key in ("frame.m_1d", "frame.m_2d", "frame.n_2d"):
        if cfg[key] < 1:
            raise ValidationError(f"{key} must be >= 1")
    for key in ("frame.delta_f_1d_hz", "frame.delta_f_2d_hz"):
        if cfg[key] <= 0:
            raise ValidationError(f"{key} must be positive")
    for key in ("frame.prefix_1d", "frame.prefix_2d"):
        if cfg[key] < -1:
            raise ValidationError(f"{key} must be >= 0, or -1 for automatic")
    if "otsm" in cfg["waveforms"] and not _is_pow2(cfg["frame.n_2d"]):
        raise ValidationError(
            f"frame.n_2d: the sequency transform needs a power of two, got {cfg['frame.n_2d']}"
        )
    _check_choice(cfg, "channel.model", CHANNEL_MODEL_KINDS)
    preset = cfg["channel.preset"].upper()
    if preset not in (*CHANNEL_PRESETS, "FILE"):
        raise ValidationError(f"channel.preset: unknown preset {cfg['channel.preset']!r}")
    if preset == "FILE" and not cfg["channel.profile_file"]:
        raise ValidationError("channel.profile_file required when channel.preset = file")
    if cfg["channel.carrier_hz"] <= 0:
        raise ValidationError("channel.carrier_hz must be positive")
    chan = channel_config(cfg)
    if preset == "FILE":  # every experiment reads it, if only for the manifest
        try:
            chan.path_set
        except (OSError, ValueError) as exc:
            raise ValidationError(f"channel.profile_file: {exc}") from exc
    if cfg["channel.velocity_kmh"] < 0:
        raise ValidationError("channel.velocity_kmh must be >= 0")
    if not math.isfinite(chan.nu_max_hz):
        raise ValidationError(
            f"channel.velocity_kmh: {cfg['channel.velocity_kmh']} km/h at "
            f"{cfg['channel.carrier_hz']} Hz gives a Doppler shift beyond the float range"
        )
    if not 0.0 < cfg["frft.p"] < 2.0:
        raise ValidationError("frft.p must lie in (0, 2)")
    if cfg["ifdm.seed"] < 0:
        raise ValidationError("ifdm.seed must be >= 0")
    width = cfg["dfts.width"]
    if "dft-s-ofdm" in cfg["waveforms"] and width != -1 and not 1 <= width <= cfg["frame.m_1d"]:
        raise ValidationError("dfts.width must be -1 (full allocation) or in 1..frame.m_1d")
    _check_choice(cfg, "dfts.mapping", DFTS_MAPPINGS)
    _check_choice(cfg, "ddam.beamformer", BEAMFORMERS)
    if cfg["ddam.n_tx"] < 1:
        raise ValidationError("ddam.n_tx must be >= 1")
    if cfg["papr.symbols"] < 1:
        raise ValidationError("papr.symbols must be >= 1")
    if "ddam" in cfg["waveforms"] and cfg["ddam.beamformer"] == "zf":
        paths = chan.path_set.count
        if cfg["ddam.n_tx"] < paths:
            raise ValidationError(
                f"ddam.n_tx: zero-forcing over {paths} paths needs at least {paths} "
                f"antennas, got {cfg['ddam.n_tx']}"
            )
    for w in cfg["waveforms"] if exp == "papr" else ():
        # a bundle frame gives one sample, a DDAM frame one per antenna
        samples = cfg["trials"] * (cfg["ddam.n_tx"] if w == "ddam" else 1)
        if samples <= PAPR_MIN_TAIL:
            raise ValidationError(
                f"trials: {w!r} gets {samples} peak-power samples from {cfg['trials']} "
                f"trials; its survivor curve needs more than {PAPR_MIN_TAIL}"
            )
    _check_choice(cfg, "af.convention", AF_CONVENTIONS)
    if cfg["af.doppler_points"] < 3:
        raise ValidationError("af.doppler_points must be >= 3")
    if cfg["af.doppler_span"] <= 0:
        raise ValidationError("af.doppler_span must be positive")
    if cfg["sweep.steps"] < 2:
        raise ValidationError("sweep.steps must be >= 2")
    if not 0.0 < cfg["chanmat.threshold"] < 1.0:
        raise ValidationError("chanmat.threshold must lie in (0, 1)")
    for m in cfg["chanmat.models"]:
        if m not in CHANNEL_MODEL_KINDS:
            raise ValidationError(f"chanmat.models: unknown kind {m!r}")
    for key in ("overhead.l_max", "overhead.alpha_max", "overhead.xi_nu"):
        if cfg[key] < 0:
            raise ValidationError(f"{key} must be >= 0")
    if exp in ("ber", "chanmat", "afdm-sweep"):  # frames cross the channel
        _check_prefixes(cfg, chan)
    if exp in ("ber", "afdm-sweep") and cfg["detector"] == "single-tap":
        _check_single_tap(cfg, chan)
    return chan


# The mapping from a config to what a run builds.  Validation and the runner
# both read these, so a config that validates is the config that runs.

def channel_config(cfg: dict, kind: str | None = None) -> ChannelConfig:
    """The configured channel, drawn as ``kind`` (default ``channel.model``)."""
    preset = cfg["channel.preset"].upper()
    return ChannelConfig(
        preset=preset if preset != "FILE" else "AWGN",
        kind=kind or cfg["channel.model"],
        carrier_hz=cfg["channel.carrier_hz"],
        nu_max_hz=doppler_from_velocity(cfg["channel.velocity_kmh"], cfg["channel.carrier_hz"]),
        random_gains=cfg["channel.random_gains"],
        jakes=cfg["channel.jakes"],
        profile_path=cfg["channel.profile_file"] if preset == "FILE" else "",
    )


def scheme_geometry(cfg: dict, row: Scheme, chan: ChannelConfig) -> FrameGeometry:
    """The frame of a scheme row: its dimension's size, spacing and prefix.

    The prefix is 0 under the ``none`` rule; the config's -1 (automatic)
    is the channel memory at the sample rate m * delta_f.
    """
    d = f"{row.dim}d"
    m, delta_f = cfg[f"frame.m_{d}"], cfg[f"frame.delta_f_{d}_hz"]
    prefix = 0 if row.prefix_rule == "none" else cfg[f"frame.prefix_{d}"]
    if prefix < 0:
        prefix = chan.max_delay_samples(m * delta_f)
    n = 1 if row.dim == 1 else cfg["frame.n_2d"]
    return FrameGeometry(m=m, n=n, delta_f_hz=delta_f, prefix_len=prefix)


def doppler_span_hz(chan: ChannelConfig) -> float:
    """Largest |Doppler| of any draw: nu_max under the Jakes draw, else the paths'."""
    if chan.jakes:  # every path draws nu_max * cos(angle)
        return chan.nu_max_hz
    return max(abs(p.doppler_hz) for p in chan.path_set.paths)


def afdm_c1(cfg: dict, chan: ChannelConfig) -> float:
    """The configured first chirp rate, or (2a + 1)/(2M) for the Doppler span.

    a is the span in 1D subcarrier spacings, rounded up to an integer.
    """
    if cfg["afdm.c1"] >= 0:
        return cfg["afdm.c1"]
    alpha = math.ceil(doppler_span_hz(chan) / cfg["frame.delta_f_1d_hz"] - 1e-12)
    return afdm_default_c1(cfg["frame.m_1d"], alpha)


def _crossing_rows(cfg: dict) -> list[Scheme]:
    """Scheme rows whose frames cross the channel in this experiment."""
    labels = ["afdm"] if cfg["experiment"] == "afdm-sweep" else cfg["waveforms"]
    return [SCHEMES_BY_LABEL[label] for label in labels]


def _check_prefixes(cfg: dict, chan: ChannelConfig) -> None:
    """Each prefix in use must cover the channel memory and fit in the core frame.

    An automatic prefix is the memory, so only a set one needs the cover
    check; a Doppler-only channel has no delay spread to cover.
    """
    kinds = cfg["chanmat.models"] if cfg["experiment"] == "chanmat" else [cfg["channel.model"]]
    rows = {row.dim: row for row in _crossing_rows(cfg) if row.prefix_rule != "none"}
    for d, row in sorted(rows.items()):
        key = f"frame.prefix_{d}d"
        geo = scheme_geometry(cfg, row, chan)
        if cfg[key] >= 0 and set(kinds) != {"fdc"}:
            memory = chan.max_delay_samples(geo.sample_rate_hz)
            if geo.prefix_len < memory:
                raise ValidationError(
                    f"{key}: prefix {geo.prefix_len} shorter than channel memory {memory}")
        if geo.prefix_len > geo.core_samples:
            raise ValidationError(
                f"{key}: prefix {geo.prefix_len} longer than the core frame {geo.core_samples}")


def _check_single_tap(cfg: dict, chan: ChannelConfig) -> None:
    """The per-bin detector needs a diagonal effective channel for every draw.

    That holds over a static channel (no path with a nonzero Doppler, no
    wideband time warping) when the channel is flat (every path at zero
    delay, at the scheme's sample rate) or the scheme is ofdm, whose prefix
    turns a static delay spread into one gain per subcarrier.
    """
    model = cfg["channel.model"]
    if model == "wideband" or (doppler_span_hz(chan) > 0 and model != "tdc"):
        raise ValidationError(
            "detector: single-tap needs a static channel (no Doppler, not wideband); "
            "use mmse"
        )
    for row in _crossing_rows(cfg):
        fs = scheme_geometry(cfg, row, chan).sample_rate_hz
        if row.label != "ofdm" and model != "fdc" and chan.max_delay_samples(fs) > 0:
            raise ValidationError(
                f"detector: single-tap needs a flat channel for {row.label!r} (only ofdm "
                "equalizes a static delay spread per subcarrier); use mmse"
            )
