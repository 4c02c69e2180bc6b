"""Golden digests: the CSV bytes of small runs, pinned across versions.

Each case is a preset plus overrides, small enough that all of them run in
seconds.  ``golden/digests.json`` holds the sha256 of every CSV a case
writes and of its ``manifest.json``, which pins the ``derived`` block.
Policy: outputs stay byte-identical; a change that moves a digest re-records
the file with ``PYTHONPATH=src python tests/test_golden.py --record``, which
prints each moved entry (case, file, old -> new digest prefix) and the count
of unchanged ones, and names every moved digest and its cause in CHANGES.md
(README, "Decisions").
Run as a script without ``--record``, or with any other argument, the module
prints its usage, exits 2 and writes nothing.

Together the cases use every waveform label at least once, including the
ones no benchmark workload runs: the delay-Doppler variants, the spread,
fractional and interleaved multicarrier schemes in the BER and
channel-matrix experiments, and the filter bank in the peak-power and
ambiguity experiments.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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
    # The same fold over FIG16's Doppler-shifted paths: the narrowband CSV
    # differs from the tdc one.  The wideband CSV equals the narrowband one,
    # because FIG16's time warp stays under half a sample over 128 samples.
    "chanmat-afdm-c1-fig16": ("fig16-chanmat", {
        "waveforms": ["afdm"],
        "afdm.c1": 0.05,
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


def _refuse(constant):
    raise ValueError(f"{constant} is not standard JSON")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name, tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[name]
    assert run_case(name, tmp_path) == expected
    # the manifest is standard JSON: no Infinity or NaN
    json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"), parse_constant=_refuse)


# Every case whose bytes hold on every host: the channel matrices, the
# ambiguity cuts, the bit error rates and the overheads.  The PAPR cases
# still depend on the BLAS kernel and on numpy's AVX-512 loops.
HOST_CASES = ["af-fbmc", "awgn-ber", "ber-variants", "chanmat-afdm-c1", "chanmat-afdm-c1-fig16",
              "chanmat-variants", "fig16-chanmat", "fig21-sweep", "overhead", "tab5-ber-desk",
              "tab8-unit"]


def ocdm_digests() -> dict[str, str]:
    """sha256 of the ocdm a_tx at m = 64, 127 and 512, keyed by m."""
    from mcwave.waveforms import FrameGeometry, build_waveform

    return {str(m): hashlib.sha256(build_waveform("ocdm", FrameGeometry(m=m)).a_tx.tobytes())
            .hexdigest() for m in (64, 127, 512)}


_CPU_FEATURES = np._core._multiarray_umath.__cpu_features__
_HASWELL = pytest.mark.skipif(not _CPU_FEATURES.get("AVX2"),
                              reason="OpenBLAS's Haswell kernel needs AVX2")


@pytest.mark.parametrize("env, one_cpu", [
    pytest.param({"OPENBLAS_CORETYPE": "Haswell"}, True, id="one-cpu", marks=[
        _HASWELL, pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                     reason="the one-CPU run needs sched_setaffinity")]),
    pytest.param({"OPENBLAS_CORETYPE": "Haswell"}, False, id="all-cpus", marks=_HASWELL),
    pytest.param({"NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"}, False,
                 id="avx512-off", marks=pytest.mark.skipif(
                     not _CPU_FEATURES.get("AVX512F"), reason="the host has no AVX-512 to turn off")),
])
def test_host_cases_do_not_depend_on_cpu_dispatch(env, one_cpu, tmp_path):
    # Under the BLAS kernel an AVX2-only host gets, on one CPU and on all of
    # the process's CPUs, and under numpy's loops without AVX-512, the cases
    # write the recorded bytes and the ocdm modulators are this process's.
    # OpenBLAS reads its kernel and its thread count, and numpy its CPU
    # features, when they load, so the runs go to a child process that cuts
    # its affinity before it imports numpy.
    code = (
        "import json, os, sys\n"
        "if sys.argv[2] == 'one':\n"
        "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from pathlib import Path\n"
        "import test_golden\n"
        "out = Path(sys.argv[1])\n"
        "print(json.dumps([{n: test_golden.run_case(n, out / n) for n in sys.argv[3:]},\n"
        "                  test_golden.ocdm_digests()]))\n"
    )
    src, tests = Path(bench.__file__).resolve().parents[1], Path(__file__).resolve().parent
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), str(tests), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path), "one" if one_cpu else "all", *HOST_CASES],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    cases, ocdm = json.loads(proc.stdout)
    assert cases == {name: expected[name] for name in HOST_CASES}
    assert ocdm == ocdm_digests()


def test_cases_use_every_label():
    from mcwave.config import WAVEFORM_LABELS

    used = set()
    for preset, overrides in CASES.values():
        cfg = preset_config(preset)
        cfg.update(overrides)
        used.update(cfg["waveforms"])
    assert used == set(WAVEFORM_LABELS)


@pytest.mark.parametrize("argv", [[], ["--help"], ["-h"], ["--record", "extra"], ["record"]])
def test_recording_needs_exactly_record(argv, capsys):
    before = DIGESTS.read_bytes()
    assert main(argv) == 2
    assert "--record" in capsys.readouterr().err
    assert DIGESTS.read_bytes() == before


def digest_moves(old: dict, new: dict) -> tuple[list[str], int]:
    """Entries whose digest differs, as "case file: old -> new", and the unchanged count.

    Digests are shown by their first 12 hex digits, "-" for an entry on one
    side only.
    """
    moves, unchanged = [], 0
    for case in sorted(old.keys() | new.keys()):
        before, after = old.get(case, {}), new.get(case, {})
        for name in sorted(before.keys() | after.keys()):
            if before.get(name) == after.get(name):
                unchanged += 1
            else:
                moves.append(f"{case} {name}: {before.get(name, '-')[:12]} -> "
                              f"{after.get(name, '-')[:12]}")
    return moves, unchanged


def test_digest_moves_lists_each_changed_entry():
    old = {"a": {"x.csv": "1" * 64, "y.csv": "2" * 64}, "b": {"z.csv": "3" * 64}}
    new = {"a": {"x.csv": "1" * 64, "y.csv": "4" * 64}, "c": {"z.csv": "3" * 64}}
    assert digest_moves(old, new) == ([
        f"a y.csv: {'2' * 12} -> {'4' * 12}",
        f"b z.csv: {'3' * 12} -> -",
        f"c z.csv: - -> {'3' * 12}",
    ], 1)


def record(out_root: Path) -> None:
    """Rewrite ``golden/digests.json`` from runs of the code on ``sys.path``.

    Prints every entry whose digest moved and the count of unchanged ones.
    """
    old = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    digests = {name: run_case(name, out_root / name) for name in sorted(CASES)}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    moves, unchanged = digest_moves(old, digests)
    for line in moves:
        print(line)
    print(f"{len(moves)} moved, {unchanged} unchanged")


USAGE = "usage: PYTHONPATH=src python tests/test_golden.py --record"


def main(argv: list[str]) -> int:
    """Record the digests only when asked by exactly ``--record``; else exit 2."""
    if argv != ["--record"]:
        print(USAGE, file=sys.stderr)
        print("rewrites golden/digests.json from the code on sys.path", file=sys.stderr)
        return 2
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp))
    print(f"wrote {DIGESTS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
