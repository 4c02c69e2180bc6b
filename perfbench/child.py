"""One measurement in a fresh process; prints one JSON object on stdout.

    python3 perfbench/child.py <workload> <seed> <output_dir> [--trace <trace_file>]

Times one ``run_experiment`` call and reports its peak RSS and the sha256 of
every CSV it wrote.  Untraced, it then times the set-up, ``validate_config``
plus ``bench.build_bundle`` for every scheme, repeated for at least
``SETUP_SECONDS``, so that every call of a run gives set-up samples.  With
``--trace`` the program's public functions are wrapped for the run, the span
list is written to the trace file, and a complex matrix product is timed
afterwards to give the BLAS rate of the same process.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
from workloads import WORKLOADS, bundle_labels, make_config  # noqa: E402

ZGEMM_N = 512
ZGEMM_REPS = 5
SETUP_SECONDS = 0.5


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_setup(cfg: dict) -> list[float]:
    """Set-up times, repeated until ``SETUP_SECONDS`` is spent (at least once)."""
    from mcwave import bench
    from mcwave.config import validate_config

    labels = bundle_labels(cfg)
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < SETUP_SECONDS:
        t0 = time.perf_counter()
        validate_config(cfg)
        chan = bench._channel_config(cfg)
        for label in labels:
            bench.build_bundle(label, cfg, chan)
        times.append(time.perf_counter() - t0)
    return times


def zgemm_gflops() -> float:
    """Median rate of an n x n complex matrix product, 8 n^3 flops each."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((ZGEMM_N, ZGEMM_N)) + 1j * rng.standard_normal((ZGEMM_N, ZGEMM_N))
    b = a.conj().T.copy()
    rates = []
    for _ in range(ZGEMM_REPS):
        t0 = time.perf_counter()
        a @ b
        rates.append(8.0 * ZGEMM_N**3 / (time.perf_counter() - t0) / 1e9)
    return sorted(rates)[len(rates) // 2]


def run_once(workload: str, seed: int, out: Path, trace_file: Path | None) -> dict:
    from mcwave import bench

    cfg = make_config(workload, seed)
    tracer = spans.Tracer() if trace_file else None
    with spans.installed(tracer) if tracer else nullcontext():
        t0 = time.perf_counter()
        bench.run_experiment(cfg, out)
        wall = time.perf_counter() - t0
    result = {"wall_s": wall}
    if tracer:
        result["uncovered_s"] = wall - tracer.covered_s()
        result["layers"] = spans.layer_metrics(tracer.summary(), tracer.counters)
        result["zgemm_gflops"] = zgemm_gflops()
        trace_file.write_text(json.dumps({
            "workload": workload,
            "seed": seed,
            "wall_s": wall,
            "summary": tracer.summary(),
            "counters": dict(tracer.counters),
            "spans": tracer.spans,
        }) + "\n", encoding="utf-8")
    result["peak_rss_mb"] = _peak_rss_mb()
    result["digests"] = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))
    }
    if not tracer:
        result["setup_s"] = time_setup(cfg)
    return result


def main(argv: list[str]) -> int:
    workload, seed, out = argv[0], int(argv[1]), Path(argv[2])
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}")
    trace_file = Path(argv[4]) if argv[3:4] == ["--trace"] else None
    print(json.dumps(run_once(workload, seed, out, trace_file)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
