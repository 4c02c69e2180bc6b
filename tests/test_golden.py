"""Golden digests: the CSV bytes of small runs, pinned across versions.

Each case is a preset plus overrides, small enough that all of them run in
seconds.  ``golden/digests.json`` holds the sha256 of every CSV a case
writes and of its ``manifest.json``, which pins the ``derived`` block.
Policy: outputs stay byte-identical; a change that moves a digest re-records
the file with ``PYTHONPATH=src python tests/test_golden.py`` and names every
moved digest and its cause in CHANGES.md (README, "Decisions").

Together the cases use every waveform label at least once, including the
ones no benchmark workload runs: the delay-Doppler variants, the spread,
fractional and interleaved multicarrier schemes in the BER and
channel-matrix experiments, and the filter bank in the peak-power and
ambiguity experiments.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from mcwave import bench
from mcwave.presets import preset_config

DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.json"

_VARIANTS = ["zak-otfs", "oddm", "dft-s-ofdm", "frft-ofdm", "ifdm"]

CASES = {
    "awgn-ber": ("awgn-ber", {"trials": 20}),
    "tab8-unit": ("tab8-unit", {}),
    "fig16-chanmat": ("fig16-chanmat", {}),
    "overhead": ("overhead", {}),
    "tab5-ber-desk": ("tab5-ber-desk", {"trials": 4}),
    "tab6-papr-desk": ("tab6-papr-desk", {"trials": 20}),
    "fig21-sweep": ("fig21-sweep", {"trials": 2, "sweep.steps": 2}),
    "ber-variants": ("tab5-ber-desk", {
        "trials": 4,
        "snr_db": [10.0, 20.0],
        "waveforms": _VARIANTS,
        "frame.m_1d": 64,
        "frame.m_2d": 8,
        "frame.n_2d": 8,
    }),
    "chanmat-variants": ("fig16-chanmat", {
        "waveforms": _VARIANTS,
        "dfts.width": 48,
        "dfts.mapping": "dc-centered",
        "frft.p": 0.7,
        "ifdm.seed": 5,
    }),
    "papr-fbmc": ("tab6-papr-desk", {"trials": 20, "waveforms": ["fbmc"]}),
    # Doppler-rotated taps and matched beamforming over a frame of several
    # time blocks; tab6-papr-desk itself is static and zero-forcing.
    "papr-ddam-doppler": ("tab6-papr-desk", {
        "trials": 4,
        "waveforms": ["ddam"],
        "channel.velocity_kmh": 500.0,
        "channel.jakes": True,
        "ddam.beamformer": "mrt",
        "ddam.n_tx": 8,
        "papr.symbols": 24,
    }),
    "af-fbmc": ("tab8-unit", {"waveforms": ["fbmc"], "frame.m_2d": 16, "frame.n_2d": 8}),
    # An explicit first chirp rate over a channel longer than one sample:
    # the delays wrap through the chirp-periodic prefix.
    "chanmat-afdm-c1": ("fig16-chanmat", {
        "waveforms": ["afdm"],
        "afdm.c1": 0.05,
        "channel.preset": "EVA",
        "chanmat.models": ["tdc", "fdc", "narrowband", "wideband"],
    }),
}


def run_case(name: str, out: Path) -> dict:
    """Run one case into ``out``; returns the digests of its CSVs and manifest."""
    preset, overrides = CASES[name]
    cfg = preset_config(preset)
    cfg.update(overrides)
    outputs = bench.run_experiment(cfg, out, preset_name=preset)["outputs"]
    manifest = hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()
    return dict(outputs, **{"manifest.json": manifest})


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name, tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[name]
    assert run_case(name, tmp_path) == expected


def test_cases_use_every_label():
    from mcwave.config import WAVEFORM_LABELS

    used = set()
    for preset, overrides in CASES.values():
        cfg = preset_config(preset)
        cfg.update(overrides)
        used.update(cfg["waveforms"])
    assert used == set(WAVEFORM_LABELS)


def record(out_root: Path) -> None:
    """Rewrite ``golden/digests.json`` from runs of the code on ``sys.path``."""
    digests = {name: run_case(name, out_root / name) for name in sorted(CASES)}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp))
    print(f"wrote {DIGESTS}", file=sys.stderr)
