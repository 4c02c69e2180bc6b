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
from .config import (ValidationError, afdm_c1, channel_config, doppler_span_hz,
                     scheme_geometry, validate_config)

CSV_SCHEMAS = {
    "ber": ("scheme", "snr_db", "bits", "bit_errors", "ber"),
    "papr": ("scheme", "papr_db", "ccdf"),
    "af": ("scheme", "axis", "metric", "value"),
    "af_metrics": ("scheme", "delay_width_3db", "doppler_width_3db",
                   "pslr_delay_db", "islr_delay_db", "pslr_doppler_db", "islr_doppler_db"),
    "chanmat": ("row", "col", "magnitude"),
    "overhead": ("scheme", "metric", "value"),
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
    row = waveforms.SCHEMES.get(label)
    if row is None:
        raise ValidationError(f"waveforms: no bundle for label {label!r}")
    # -1 (dfts.width's full allocation) leaves the builder's default in place
    params = {p: cfg[k] for p, k in row.config_keys if cfg[k] != -1}
    if label == "afdm":  # the automatic chirp rate depends on the channel
        params.update(c1=afdm_c1(cfg, chan), c2=cfg["afdm.c2"])
    return waveforms.build_waveform(label, scheme_geometry(cfg, row, chan), params)


def _derived_info(cfg: dict, chan: channel.ChannelConfig) -> dict:
    fs1 = cfg["frame.m_1d"] * cfg["frame.delta_f_1d_hz"]
    fs2 = cfg["frame.m_2d"] * cfg["frame.delta_f_2d_hz"]
    span = doppler_span_hz(chan)  # the largest |Doppler| the run draws
    info = {
        "sample_rate_1d_hz": fs1,
        "sample_rate_2d_hz": fs2,
        "nu_max_hz": span,
        "max_delay_samples_1d": chan.max_delay_samples(fs1),
        "max_delay_samples_2d": chan.max_delay_samples(fs2),
        "normalized_doppler_1d": span / cfg["frame.delta_f_1d_hz"],
        "normalized_doppler_2d": span * cfg["frame.n_2d"] / cfg["frame.delta_f_2d_hz"],
        "snr_convention": "symbol SNR Es/N0; sigma2 = 10^(-snr_db/10), unit-energy alphabet",
        "delay_rounding": "nearest sample: l = round(tau * f_s)",
        "doppler_quantization": "none (continuous per-path phase ramps)",
        "pulse_shaping": "rectangular (identity pulse matrices); the filter-bank "
        "prototype is the one exception (edge pulses truncated, not wrapped)",
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


def _ber_rows(tags: list[str], bundles: list[waveforms.WaveformBundle], cfg: dict,
              chan: channel.ChannelConfig) -> list[list[tuple]]:
    """The ``ber`` records of each bundle, one per SNR point, labelled by its tag.

    One ``kpi.run_ber`` call covers every bundle, so bundles that see the
    same core channel share each trial's block MMSE solve.
    """
    results = kpi.run_ber(
        bundles,
        chan,
        cfg["snr_db"],
        cfg["trials"],
        cfg["seed"],
        detection.qam_constellation(cfg["constellation"]),
        workers=cfg["workers"],
    )
    return [
        [(tag, p.snr_db, p.bits, p.bit_errors, p.ber) for p in points]
        for tag, points in zip(tags, results)
    ]


def _run_ber_experiment(cfg: dict, chan: channel.ChannelConfig):
    labels = cfg["waveforms"]
    bundles = [build_bundle(label, cfg, chan) for label in labels]
    for label, rows in zip(labels, _ber_rows(labels, bundles, cfg, chan)):
        yield _csv_name("ber", label), "ber", rows


def _run_papr_experiment(cfg: dict, chan: channel.ChannelConfig):
    const = detection.qam_constellation(cfg["constellation"])
    for label in cfg["waveforms"]:
        if label == "ddam":
            # a frame per usable CPU; each frame cuts its products small
            # enough to stay on its thread
            threads = min(cfg["trials"], kpi.usable_cpus())
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
            threads = 1  # the dense a_tx products already use every core through BLAS
        samples = kpi.papr_samples(source, cfg["trials"], cfg["seed"], threads=threads)
        records = [(label, v, c) for v, c in kpi.papr_ccdf(samples)]
        yield _csv_name("papr", label), "papr", records


def _af_cuts(bundle: waveforms.WaveformBundle, cfg: dict):
    """Delay- and Doppler-cut metrics of the self-ambiguity of an all-one frame.

    The delay axis is the lag over the frame length; the Doppler cut spans
    +-``af.doppler_span`` Doppler bins of delta_f / n.
    """
    core = bundle.operator.tx(np.ones(bundle.n_symbols))
    geo = bundle.geometry
    L = core.size
    delay = np.abs(kpi.af_delay_cut(core, cfg["af.convention"]))
    span = cfg["af.doppler_span"]
    bins = np.linspace(-span, span, cfg["af.doppler_points"])
    # a bin of delta_f / n at m * delta_f samples per second is 1 / (m n) cycles per sample
    doppler = np.abs(kpi.af_doppler_cut(core, bins / geo.core_samples))
    return (kpi.af_cut_metrics(delay, np.arange(1 - L, L) / L),
            kpi.af_cut_metrics(doppler, bins))


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
    # a bundle reads the path set and the Doppler rule, never the model kind
    bundles = [(label, build_bundle(label, cfg, chan)) for label in cfg["waveforms"]]
    thr = cfg["chanmat.threshold"]
    for kind in cfg["chanmat.models"]:  # each model draws its own channel
        model_chan = channel_config(cfg, kind=kind)
        for label, bundle in bundles:
            rng = np.random.Generator(np.random.Philox(key=cfg["seed"]))
            real = model_chan.realize(bundle.geometry.sample_rate_hz, rng)
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
    geo = scheme_geometry(cfg, waveforms.SCHEMES["afdm"], chan)
    tags, bundles = [], []
    for c1 in grid:
        for c2 in grid:
            tags.append(f"afdm[c1={c1:.10g};c2={c2:.10g}]")
            params = {"c1": float(c1), "c2": float(c2)}
            bundles.append(waveforms.build_waveform("afdm", geo, params))
    rows = _ber_rows(tags, bundles, cfg, chan)
    yield "afdm_sweep.csv", "ber", [row for points in rows for row in points]


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
        # a non-finite derived number fails the run: JSON has no Infinity or NaN
        text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
        (staging / "manifest.json").write_text(text + "\n", encoding="utf-8")
        for fname in (*outputs, "manifest.json"):
            os.replace(staging / fname, out / fname)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
        if created and not any(out.iterdir()):
            out.rmdir()
    return manifest
