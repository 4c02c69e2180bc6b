"""Experiment execution: config dict in, CSV files plus a manifest out.

Everything written here is byte-deterministic for a fixed (config, seed)
pair: numbers are printed with 17 significant digits, rows are emitted in a
fixed order, and the Monte-Carlo layer aggregates integer counts that do not
depend on worker scheduling.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from . import __version__, channel, detection, kpi, waveforms
from .config import ValidationError, afdm_c1, channel_config, scheme_geometry, validate_config

CSV_SCHEMAS = {
    "ber": ("scheme", "snr_db", "bits", "bit_errors", "ber"),
    "papr": ("scheme", "papr_db", "ccdf"),
    "af": ("scheme", "axis", "metric", "value"),
    "af_metrics": ("scheme", "delay_width_3db", "doppler_width_3db",
                   "pslr_delay_db", "islr_delay_db", "pslr_doppler_db", "islr_doppler_db"),
    "chanmat": ("row", "col", "magnitude"),
    "overhead": ("scheme", "metric", "value"),
}

MANIFEST_SCHEMA = {
    "type": "object",
    "required": ["library", "version", "experiment", "config", "derived", "outputs"],
    "properties": {
        "library": {"type": "string"},
        "version": {"type": "string"},
        "experiment": {"type": "string"},
        "preset": {"type": ["string", "null"]},
        "config": {"type": "object"},
        "derived": {"type": "object"},
        "outputs": {
            "type": "object",
            "additionalProperties": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        },
    },
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_results(records: list[tuple], schema_kind: str, path: Path) -> None:
    """Write records as CSV with the fixed column set for ``schema_kind``."""
    if schema_kind not in CSV_SCHEMAS:
        raise ValueError(f"unknown schema kind {schema_kind!r}")
    if not records:
        raise ValueError("no records to emit")
    header = CSV_SCHEMAS[schema_kind]
    lines = [",".join(header)]
    for rec in records:
        if len(rec) != len(header):
            raise ValueError(f"record arity {len(rec)} != schema {len(header)}")
        lines.append(",".join(_fmt(v) for v in rec))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# The benchmark harness times set-up through this name.
_channel_config = channel_config


def build_bundle(label: str, cfg: dict, chan: channel.ChannelConfig) -> waveforms.WaveformBundle:
    """Build the operator bundle behind a config waveform label."""
    row = waveforms.SCHEMES_BY_LABEL.get(label)
    if row is None:
        raise ValidationError(f"waveforms: no bundle for label {label!r}")
    # -1 (dfts.width's full allocation) leaves the builder's default in place
    params = {p: cfg[k] for p, k in row.config_keys if cfg[k] != -1}
    if label == "afdm":  # the automatic chirp rate depends on the channel
        params.update(c1=afdm_c1(cfg, chan), c2=cfg["afdm.c2"])
    return waveforms.build_waveform(row.name, scheme_geometry(cfg, row, chan), params)


def _derived_info(cfg: dict, chan: channel.ChannelConfig) -> dict:
    fs1 = cfg["frame.m_1d"] * cfg["frame.delta_f_1d_hz"]
    fs2 = cfg["frame.m_2d"] * cfg["frame.delta_f_2d_hz"]
    nu_max = chan.nu_max_hz
    info = {
        "sample_rate_1d_hz": fs1,
        "sample_rate_2d_hz": fs2,
        "nu_max_hz": nu_max,
        "max_delay_samples_1d": chan.max_delay_samples(fs1),
        "max_delay_samples_2d": chan.max_delay_samples(fs2),
        "normalized_doppler_1d": nu_max / cfg["frame.delta_f_1d_hz"],
        "normalized_doppler_2d": nu_max / (cfg["frame.delta_f_2d_hz"] / cfg["frame.n_2d"]),
        "snr_convention": "symbol SNR Es/N0; sigma2 = 10^(-snr_db/10), unit-energy alphabet",
        "delay_rounding": "nearest sample: l = round(tau * f_s)",
        "doppler_quantization": "none (continuous per-path phase ramps)",
        "pulse_shaping": "rectangular (identity pulse matrices); filter-bank prototype "
        "and truncated root-Nyquist pulse train are the two exceptions "
        "(edge pulses truncated, not wrapped)",
        "gain_profile": "per-path circular Gaussians scaled by profile powers, "
        "renormalized to unit total power" if cfg["channel.random_gains"]
        else "deterministic preset gains",
        "equalizer_scope": "block MMSE over the full symbol vector (ideal CSI)",
        "af_convention": cfg["af.convention"] + " discrete lags on core frames "
        "(prefix excluded)",
        "papr_statistic": "per antenna branch, prefix excluded, "
        f"{cfg['papr.symbols']} time-domain symbols per realization",
    }
    if "afdm" in cfg["waveforms"]:
        info["afdm_c1"] = afdm_c1(cfg, chan)
        info["afdm_c2"] = cfg["afdm.c2"]
    return info


def _csv_name(kind: str, label: str, tag: str = "") -> str:
    """``<kind>_<label with - as _>[_<tag>].csv``, the file of one scheme."""
    return "_".join(filter(None, (kind, label.replace("-", "_"), tag))) + ".csv"


def _ber_rows(tag: str, bundle: waveforms.WaveformBundle, cfg: dict,
              chan: channel.ChannelConfig) -> list[tuple]:
    """The ``ber`` records of one bundle, one per SNR point, labelled ``tag``."""
    points = kpi.run_ber(
        bundle,
        chan,
        cfg["detector"],
        cfg["snr_db"],
        cfg["trials"],
        cfg["seed"],
        detection.qam_constellation(cfg["constellation"]),
        workers=cfg["workers"],
    )
    return [(tag, p.snr_db, p.bits, p.bit_errors, p.ber) for p in points]


def _run_ber_experiment(cfg: dict, chan: channel.ChannelConfig):
    for label in cfg["waveforms"]:
        rows = _ber_rows(label, build_bundle(label, cfg, chan), cfg, chan)
        yield _csv_name("ber", label), "ber", rows


def _run_papr_experiment(cfg: dict, chan: channel.ChannelConfig):
    const = detection.qam_constellation(cfg["constellation"])
    for label in cfg["waveforms"]:
        if label == "ddam":
            fs = cfg["frame.m_1d"] * cfg["frame.delta_f_1d_hz"]
            source = kpi.ddam_frame_source(
                chan,
                cfg["ddam.n_tx"],
                cfg["ddam.beamformer"],
                const,
                n_samples=cfg["frame.m_1d"] * cfg["papr.symbols"],
                sample_rate_hz=fs,
            )
        else:
            source = kpi.qam_frame_source(
                build_bundle(label, cfg, chan), const, n_symbols=cfg["papr.symbols"]
            )
        samples = kpi.papr_samples(source, cfg["trials"], cfg["seed"])
        records = [(label, v, c) for v, c in kpi.papr_ccdf(samples)]
        yield _csv_name("papr", label), "papr", records


def _af_cuts(bundle: waveforms.WaveformBundle, cfg: dict):
    """Delay- and Doppler-cut metrics of the self-ambiguity of an all-one frame.

    The Doppler cut spans +-``af.doppler_span`` Doppler bins of delta_f / n.
    """
    # The dense product pins the AF bytes; the factored apply differs in
    # last bits, so it waits for a declared numerics move.
    core = bundle.a_tx @ np.ones(bundle.n_symbols, dtype=complex)
    geo = bundle.geometry
    fs, doppler_ref = geo.sample_rate_hz, geo.delta_f_hz / geo.n
    L = core.size
    tau = np.arange(-(L - 1), L) / fs
    delay_grid = kpi.ambiguity_grid(
        core, core, tau, np.array([0.0]), fs, convention=cfg["af.convention"],
        doppler_ref_hz=doppler_ref,
    )
    delay_cut = kpi.af_cut_metrics(delay_grid.magnitudes[0], delay_grid.delay_norm)
    span = cfg["af.doppler_span"]
    nu = np.linspace(-span, span, cfg["af.doppler_points"]) * doppler_ref
    dop_grid = kpi.ambiguity_grid(
        core, core, np.array([0.0]), nu, fs, convention=cfg["af.convention"],
        doppler_ref_hz=doppler_ref,
    )
    dop_cut = kpi.af_cut_metrics(dop_grid.magnitudes[:, 0], dop_grid.doppler_norm)
    return delay_cut, dop_cut


def _run_af_experiment(cfg: dict, chan: channel.ChannelConfig):
    wide_rows = []
    long_records = []
    for label in cfg["waveforms"]:
        dcut, ncut = _af_cuts(build_bundle(label, cfg, chan), cfg)
        wide_rows.append(
            (label, dcut.width_3db, ncut.width_3db, dcut.pslr_db, dcut.islr_db,
             ncut.pslr_db, ncut.islr_db)
        )
        for axis, cut in (("delay", dcut), ("doppler", ncut)):
            long_records += [
                (label, axis, "width_3db", cut.width_3db),
                (label, axis, "pslr_db", cut.pslr_db),
                (label, axis, "islr_db", cut.islr_db),
                (label, axis, "no_null", float(cut.no_null)),
            ]
    yield "af_metrics.csv", "af_metrics", wide_rows
    yield "af_points.csv", "af", long_records


def _run_chanmat_experiment(cfg: dict, chan: channel.ChannelConfig):
    thr = cfg["chanmat.threshold"]
    for kind in cfg["chanmat.models"]:  # each model draws its own channel
        model_chan = channel_config(cfg, kind=kind)
        for label in cfg["waveforms"]:
            bundle = build_bundle(label, cfg, model_chan)
            real = model_chan.realize(bundle.geometry.sample_rate_hz, sigma2=0.0,
                                      rng_seed=cfg["seed"])
            h_eff = waveforms.effective_channel(bundle, real)
            mag = np.abs(h_eff)
            peak = mag.max()
            rows, cols = np.nonzero(mag >= thr * peak)
            records = [
                (int(r), int(c), float(mag[r, c])) for r, c in zip(rows, cols)
            ]
            yield _csv_name("chanmat", label, kind), "chanmat", records


def _run_sweep_experiment(cfg: dict, chan: channel.ChannelConfig):
    M = cfg["frame.m_1d"]
    grid = np.linspace(0.0, 1.0 / (2.0 * M), cfg["sweep.steps"])
    records = []
    for c1 in grid:
        for c2 in grid:
            sweep_cfg = dict(cfg)
            sweep_cfg["afdm.c1"] = float(c1)
            sweep_cfg["afdm.c2"] = float(c2)
            tag = f"afdm[c1={c1:.10g};c2={c2:.10g}]"
            records += _ber_rows(tag, build_bundle("afdm", sweep_cfg, chan), cfg, chan)
    yield "afdm_sweep.csv", "ber", records


def _run_overhead_experiment(cfg: dict, chan: channel.ChannelConfig):
    l_max, a_max, xi = cfg["overhead.l_max"], cfg["overhead.alpha_max"], cfg["overhead.xi_nu"]
    m1 = cfg["frame.m_1d"]
    mn = cfg["frame.m_2d"] * cfg["frame.n_2d"]
    records = []
    for label, grid in (("afdm", m1), ("otfs", mn)):
        if label in cfg["waveforms"]:
            count, frac = kpi.pilot_overhead(label, l_max, a_max, xi, grid)
            records.append((label, "pilot_entries", float(count)))
            records.append((label, "pilot_fraction", frac))
    t_sym = 1.0 / cfg["frame.delta_f_1d_hz"]
    for frac in (1.0 / 16, 1.0 / 8, 1.0 / 4):
        records.append(("any", f"cp_overhead_ratio_{frac:.4g}",
                        kpi.cp_overhead(frac * t_sym, t_sym)))
    bw = cfg["frame.m_1d"] * cfg["frame.delta_f_1d_hz"]
    order = cfg["constellation"]
    records.append(("any", "spectral_efficiency_no_overhead",
                    kpi.spectral_efficiency(0.0, order, m1, m1 / bw, 0.0, bw)))
    records.append(("any", "spectral_efficiency_cp_quarter",
                    kpi.spectral_efficiency(0.0, order, m1, m1 / bw, m1 / bw / 4, bw)))
    yield "overhead.csv", "overhead", records


_RUNNERS = {
    "ber": _run_ber_experiment,
    "papr": _run_papr_experiment,
    "af": _run_af_experiment,
    "chanmat": _run_chanmat_experiment,
    "afdm-sweep": _run_sweep_experiment,
    "overhead": _run_overhead_experiment,
}


def run_experiment(cfg: dict, output_dir: str | Path | None = None,
                   preset_name: str | None = None) -> dict:
    """Validate, execute and write one experiment; returns the manifest.

    The experiment's runner computes over the channel that validation
    checked and yields (file name, schema kind, records) per CSV; each file
    is written as soon as its records exist.  The CSVs and the manifest are
    written to a staging directory inside the output directory and moved
    into place only once all of them exist, so a run that fails leaves the
    directory as it found it (and removes it if the run created it).
    """
    chan = validate_config(cfg)
    out = Path(
        output_dir
        or cfg["output_dir"]
        or os.environ.get("MCWAVE_OUTPUT_DIR", "")
        or "."
    )
    created = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".partial-", dir=out))
    try:
        outputs = {}
        for fname, kind, records in _RUNNERS[cfg["experiment"]](cfg, chan):
            emit_results(records, kind, staging / fname)
            outputs[fname] = _sha256(staging / fname)
        manifest = {
            "library": "mcwave",
            "version": __version__,
            "experiment": cfg["experiment"],
            "preset": preset_name,
            "config": {k: cfg[k] for k in sorted(cfg)},
            "derived": _derived_info(cfg, chan),
            "outputs": outputs,
        }
        (staging / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        for fname in (*outputs, "manifest.json"):
            os.replace(staging / fname, out / fname)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
        if created and not any(out.iterdir()):
            out.rmdir()
    return manifest
