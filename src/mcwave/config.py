"""Experiment configuration: a flat, typed, dotted-key text format.

One ``key = value`` pair per line, ``#`` comments, lists comma-separated.
Unknown keys are hard errors (nothing is silently ignored) and every value
is typed by the schema below, so a config file round-trips losslessly
through :func:`parse_config` / :func:`serialize_config`; the semantic
checks are :func:`validate_config`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .channel import CHANNEL_MODEL_KINDS, CHANNEL_PRESETS, ChannelConfig, doppler_from_velocity
from .detection import QAM_ORDERS
from .kpi import AF_CONVENTIONS, PAPR_MIN_TAIL, noise_variance
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
    """A config key and the values it accepts (each item, for a list kind)."""

    kind: str  # int | float | str | bool | float_list | str_list
    default: object
    help: str
    choices: tuple = ()
    low: float = -math.inf  # excluded when low_open
    low_open: bool = False
    high: float = math.inf  # always excluded


CONFIG_SCHEMA: dict[str, Key] = {
    "experiment": Key("str", "ber", "experiment kind", choices=EXPERIMENT_KINDS),
    "seed": Key("int", 1, "master seed; every trial stream derives from it"),
    "trials": Key("int", 100, "Monte-Carlo realizations", low=1),
    "workers": Key("int", 1, "parallel trial workers, used by ber and afdm-sweep only "
                   "(results are worker-count invariant); papr and af run in one process, "
                   "and papr runs its ddam frames on that process's threads, one per usable CPU",
                   low=1),
    "output_dir": Key("str", "", "output directory (default: $MCWAVE_OUTPUT_DIR or cwd)"),
    "constellation": Key("int", 4, "QAM order", choices=QAM_ORDERS),
    "snr_db": Key("float_list", [0.0, 5.0, 10.0, 15.0, 20.0], "symbol-SNR grid in dB"),
    "waveforms": Key("str_list", ["scm", "ofdm", "ocdm", "afdm", "otfs", "otsm"],
                     "scheme labels to run", choices=WAVEFORM_LABELS),
    "frame.m_1d": Key("int", 256, "subcarriers for 1D schemes", low=1),
    "frame.delta_f_1d_hz": Key("float", 24e3, "1D subcarrier spacing", low=0, low_open=True),
    "frame.prefix_1d": Key("int", -1, "1D prefix samples; -1 = channel max delay", low=-1),
    "frame.m_2d": Key("int", 16, "delay bins for 2D schemes", low=1),
    "frame.n_2d": Key("int", 16, "Doppler bins / slots for 2D schemes", low=1),
    "frame.delta_f_2d_hz": Key("float", 384e3, "2D subcarrier spacing", low=0, low_open=True),
    "frame.prefix_2d": Key("int", -1, "2D prefix samples; -1 = channel max delay", low=-1),
    "channel.preset": Key("str", "EVA", "|".join(CHANNEL_PRESETS) + " or 'file'"),
    "channel.model": Key("str", "narrowband", "channel model of the run",
                         choices=CHANNEL_MODEL_KINDS),
    "channel.carrier_hz": Key("float", 24e9, "carrier frequency", low=0, low_open=True),
    "channel.velocity_kmh": Key("float", 540.0, "max speed for the Doppler draw", low=0),
    "channel.jakes": Key("bool", True, "redraw per-path Doppler as nu_max*cos(U[-pi,pi])"),
    "channel.random_gains": Key("bool", True, "redraw gains as profile-scaled Gaussians"),
    "channel.profile_file": Key("str", "", "path profile file when channel.preset = file"),
    "afdm.c1": Key("float", -1.0, "first chirp rate; -1 = (2 ceil(alpha_max)+1)/(2M)"),
    "afdm.c2": Key("float", 0.0, "second chirp rate"),
    "frft.p": Key("float", 0.5, "fractional transform order", low=0, low_open=True, high=2),
    "ifdm.seed": Key("int", 0, "interleaver key", low=0),
    "dfts.width": Key("int", -1, "spread width; -1 = full allocation"),
    "dfts.mapping": Key("str", "block-centered", "spread-block subcarrier mapping",
                        choices=DFTS_MAPPINGS),
    "ddam.n_tx": Key("int", 64, "transmit antennas for path precoding", low=1),
    "ddam.beamformer": Key("str", "zf", "beamformer of the path precoding", choices=BEAMFORMERS),
    "papr.symbols": Key("int", 100, "time-domain symbols concatenated per realization", low=1),
    "af.convention": Key("str", "aperiodic", "ambiguity evaluation", choices=AF_CONVENTIONS),
    # below the high end the cut's largest phase, 2 pi span, stays in the float range
    "af.doppler_span": Key("float", 0.9, "Doppler cut half-span in subcarrier spacings",
                           low=0, low_open=True, high=sys.float_info.max / (2 * math.pi)),
    "af.doppler_points": Key("int", 721, "Doppler cut grid points", low=3),
    "sweep.steps": Key("int", 16, "grid steps per chirp axis over [0, 1/(2M)]", low=2),
    "chanmat.threshold": Key("float", 1e-3, "relative magnitude dump threshold",
                             low=0, low_open=True, high=1),
    "chanmat.models": Key("str_list", ["tdc", "fdc", "narrowband"], "channel kinds to dump",
                          choices=CHANNEL_MODEL_KINDS),
    "overhead.l_max": Key("int", 8, "max normalized delay for pilot footprints", low=0),
    "overhead.alpha_max": Key("int", 4, "max normalized Doppler for pilot footprints", low=0),
    "overhead.xi_nu": Key("int", 0, "fractional-Doppler guard factor", low=0),
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
    """Parse config text into a full (defaults-applied) typed dict.

    Rejects unknown keys and values of the wrong kind; the semantic checks
    are left to :func:`validate_config`.
    """
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
    return cfg


def serialize_config(cfg: dict) -> str:
    """Render a config dict back to the text format (sorted, lossless).

    A string the format cannot hold is rejected, naming its key: a ``#``
    starts a comment, a line break ends the pair, a value loses its outer
    whitespace and a list splits at ``,`` and drops empty items.
    """
    lines = []
    for key in sorted(cfg):
        if key not in CONFIG_SCHEMA:
            raise ValidationError(f"unknown key {key!r}")
        kind = CONFIG_SCHEMA[key].kind
        items = cfg[key] if kind == "str_list" else [cfg[key]] if kind == "str" else []
        for item in items:
            # splitlines drops every character at which the parser breaks a line
            broken = "".join(item.splitlines()) != item
            if ("#" in item or broken or item != item.strip()
                    or (kind == "str_list" and ("," in item or not item))):
                raise ValidationError(f"{key}: {item!r} cannot be written to a config file")
        lines.append(f"{key} = {_format_value(kind, cfg[key])}")
    return "\n".join(lines) + "\n"


# Each kind's item types: a bool is never an int, and an int is accepted for a float.
_ITEM_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool}


def _check_domain(key: str, spec: Key, value) -> None:
    """Reject a wrong-typed item, an empty list, a non-finite float or a value off the domain."""
    kind, listed = spec.kind.removesuffix("_list"), spec.kind.endswith("_list")
    if listed and not isinstance(value, list):
        raise ValidationError(f"{key} must be a list, got {value!r} ({spec.help})")
    items = value if listed else (value,)
    if not items:
        raise ValidationError(f"{key} must be nonempty ({spec.help})")
    for item in items:
        if not isinstance(item, _ITEM_TYPES[kind]) or (item.__class__ is bool and kind != "bool"):
            bad = f"of kind {kind}"
        elif spec.choices:
            if item in spec.choices:
                continue
            bad = "one of " + "|".join(map(str, spec.choices))
        elif isinstance(item, str):
            continue
        elif isinstance(item, float) and not math.isfinite(item):
            bad = "finite"
        elif (spec.low < item if spec.low_open else spec.low <= item) and item < spec.high:
            continue
        else:
            bad = f"in {'(' if spec.low_open else '['}{spec.low:g}, {spec.high:g})"
        raise ValidationError(f"{key} must be {bad}, got {item!r} ({spec.help})")


def validate_config(cfg: dict) -> ChannelConfig:
    """Semantic validation; raises :class:`ValidationError` naming the field.

    After each key's own domain, the rules read several keys or the channel.
    Returns the channel the checks read, which is the channel the run uses.
    """
    unknown = set(cfg) - set(CONFIG_SCHEMA)
    if unknown:
        raise ValidationError(f"unknown keys: {sorted(unknown)}")
    missing = set(CONFIG_SCHEMA) - set(cfg)
    if missing:
        raise ValidationError(f"missing keys: {sorted(missing)}")

    for key, spec in CONFIG_SCHEMA.items():
        _check_domain(key, spec, cfg[key])
    for d in ("1d", "2d"):  # every run's manifest records both sample rates
        m, delta_f = cfg[f"frame.m_{d}"], cfg[f"frame.delta_f_{d}_hz"]
        if m > sys.float_info.max or not math.isfinite(m * delta_f):
            raise ValidationError(f"frame.delta_f_{d}_hz: times frame.m_{d} it gives a "
                                  "sample rate beyond the float range")

    exp = cfg["experiment"]
    for snr in cfg["snr_db"]:
        try:
            sigma2 = noise_variance(snr)
        except OverflowError:
            raise ValidationError(
                f"snr_db: {snr} dB gives a noise variance beyond the float range"
            ) from None
        # Below machine epsilon the rounding of the formed Gram matrix C^H C
        # outweighs the MMSE's regularization, and the solve returns noise.
        if exp in ("ber", "afdm-sweep") and sigma2 < math.ulp(1.0):
            raise ValidationError(
                f"snr_db: {snr} dB gives a noise variance {sigma2:.3g} below machine "
                f"epsilon, which the MMSE cannot resolve (at most "
                f"{-10.0 * math.log10(math.ulp(1.0)):.1f} dB)"
            )
    for w in cfg["waveforms"]:
        if w in SCHEMES_BY_LABEL and SCHEMES_BY_LABEL[w].real_field and exp in ("ber", "chanmat"):
            raise ValidationError(
                f"waveforms: {w!r} is real-field and has no complex channel matrix, "
                f"so it is not available in {exp} experiments"
            )
    if "ddam" in cfg["waveforms"] and exp != "papr":
        raise ValidationError("waveforms: 'ddam' is only available in papr experiments")
    if "otsm" in cfg["waveforms"] and cfg["frame.n_2d"] & (cfg["frame.n_2d"] - 1):
        raise ValidationError(
            f"frame.n_2d: the sequency transform needs a power of two, got {cfg['frame.n_2d']}"
        )
    preset = cfg["channel.preset"].upper()
    if preset not in (*CHANNEL_PRESETS, "FILE"):
        raise ValidationError(f"channel.preset: unknown preset {cfg['channel.preset']!r}")
    if preset == "FILE" and not cfg["channel.profile_file"]:
        raise ValidationError("channel.profile_file required when channel.preset = file")
    chan = channel_config(cfg)
    if preset == "FILE":  # every experiment reads it, if only for the manifest
        try:
            chan.path_set
        except (OSError, ValueError) as exc:
            raise ValidationError(f"channel.profile_file: {exc}") from exc
    if not math.isfinite(chan.nu_max_hz):
        raise ValidationError(
            f"channel.velocity_kmh: {cfg['channel.velocity_kmh']} km/h at "
            f"{cfg['channel.carrier_hz']} Hz gives a Doppler shift beyond the float range"
        )
    if cfg["afdm.c1"] < 0 and cfg["afdm.c1"] != -1:  # a sentinel no range can hold
        raise ValidationError(f"afdm.c1 must be >= 0 or -1, got {cfg['afdm.c1']!r} "
                              f"({CONFIG_SCHEMA['afdm.c1'].help})")
    width = cfg["dfts.width"]
    if "dft-s-ofdm" in cfg["waveforms"] and width != -1 and not 1 <= width <= cfg["frame.m_1d"]:
        raise ValidationError("dfts.width must be -1 (full allocation) or in 1..frame.m_1d")
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
    for w in cfg["waveforms"] if exp == "af" else ():
        # the delay cut of an L-sample core frame has 2L - 1 points and a cut
        # needs 3; fbmc's frame also carries the prototype's tails
        row = SCHEMES_BY_LABEL[w]
        if row.label != "fbmc" and scheme_geometry(cfg, row, chan).core_samples < 2:
            keys = "frame.m_1d" if row.dim == 1 else "frame.m_2d, frame.n_2d"
            raise ValidationError(
                f"{keys}: the {w!r} core frame has one sample; its ambiguity delay cut "
                "needs at least 2")
    if exp in ("ber", "chanmat", "afdm-sweep"):  # frames cross the channel
        _check_prefixes(cfg, chan)
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


def _check_prefixes(cfg: dict, chan: ChannelConfig) -> None:
    """Each prefix in use must cover the channel memory and fit in the core frame.

    An automatic prefix is the memory, so only a set one needs the cover
    check; a Doppler-only channel has no delay spread to cover.
    """
    kinds = cfg["chanmat.models"] if cfg["experiment"] == "chanmat" else [cfg["channel.model"]]
    labels = ["afdm"] if cfg["experiment"] == "afdm-sweep" else cfg["waveforms"]
    rows = {r.dim: r for r in (SCHEMES_BY_LABEL[w] for w in labels) if r.prefix_rule != "none"}
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
