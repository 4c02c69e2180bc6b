"""The benchmark's workloads and the configs they hand to ``run_experiment``.

Each workload is a named preset with its trial count cut so that one
``run_experiment`` call lasts seconds, not hours; every other preset value is
kept.  The Monte-Carlo seed is the benchmark's ``--seed`` argument and
``workers`` is pinned to 1 so the measured process does all the work.  Why
each workload is there is said once, in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

# Spans that fire on every workload: the runner, validation, bundle build
# and the dense transform builders behind it.
_COMMON_SPANS = (
    "config.validate_config",
    "bench.build_bundle",
    "bench.emit_results",
    "transforms.total",
)

BER_SPANS = _COMMON_SPANS + (
    "kpi.run_ber",
    "channel.realize",
    "channel.apply_channel",
    "waveforms.transmit",
    "waveforms.receive",
    "waveforms.effective_channel",
    "detection.mmse_equalize",
    "detection.map_bits",
    "detection.bits_for_indices",
)

PAPR_SPANS = _COMMON_SPANS + (
    "kpi.papr_samples",
    "kpi.papr",
    "kpi.qam_frame",
    "kpi.ddam_frame",
    "waveforms.ddam_precode",
    "channel.realize",
)


@dataclass(frozen=True)
class Workload:
    preset: str
    trials: int
    spans: tuple  # spans the seed code fires on this workload


WORKLOADS = {
    "ber-l256": Workload(preset="tab5-ber-desk", trials=20, spans=BER_SPANS),
    "ber-l1024": Workload(preset="tab5-ber", trials=1, spans=BER_SPANS),
    "papr-ddam": Workload(preset="tab6-papr-desk", trials=100, spans=PAPR_SPANS),
}


def make_config(workload: str, seed: int) -> dict:
    """Full experiment config for one workload at one seed."""
    from mcwave.presets import preset_config

    w = WORKLOADS[workload]
    cfg = preset_config(w.preset)
    cfg.update(trials=w.trials, seed=seed, workers=1)
    return cfg


def expected_outputs(cfg: dict) -> list[str]:
    """CSV files a run of ``cfg`` writes, by the runner's naming rule."""
    prefix = {"ber": "ber", "papr": "papr"}[cfg["experiment"]]
    return [f"{prefix}_{label.replace('-', '_')}.csv" for label in cfg["waveforms"]]


def bundle_labels(cfg: dict) -> list[str]:
    """Waveform labels that ``bench.build_bundle`` builds (DDAM has no bundle)."""
    return [label for label in cfg["waveforms"] if label != "ddam"]
