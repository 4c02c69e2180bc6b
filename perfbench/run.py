"""mcwave benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload ber-l256 --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Every measurement is one ``mcwave.bench.run_experiment`` call in a
fresh process (``perfbench/child.py``) with ``workers = 1`` and the BLAS
library's default thread count.  Calls repeat until ``--seconds`` is spent
(at least ``MIN_REPS``) and each metric is the median over the calls; each
untraced call also times the set-up after its run, so ``setup_s`` is sampled
across the whole run.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``,
untraced and traced calls alternate (at least ``MIN_REPS`` pairs) and the
per-layer metrics of the traced calls are printed.  Every CSV a call writes
is checked against the sha256 recorded from the seed code in
``digests.json``; a seed with no recorded digests is reported as unchecked.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``attempted`` counts expected output files over
all calls and ``failed`` the missing or mismatched ones, a call that raised
counting all of its files.  Machine facts and the per-call samples go to
``perfbench/.work/result-<workload>-<trace>.json``.  Exits 1 when an output
is wrong, 2 when the checkout has no program to run.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, expected_outputs  # noqa: E402

MIN_REPS = 3
DEADLINE_S = 170.0  # whole process, below the 180 s a run may take


def _load_digests() -> dict:
    return json.loads((HERE / "digests.json").read_text(encoding="utf-8"))


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, read through its C API."""
    import numpy  # noqa: F401  (loads the BLAS library into this process)

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line}
    for lib in map(ctypes.CDLL, sorted(libs)):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np

    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": rev or "unknown (not a git checkout)",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


class Runner:
    """Starts child processes under the run's deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = time.perf_counter()
        self.calls = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def child(self, *args: str) -> dict | None:
        """Run child.py; its last stdout line parsed, or None if it failed."""
        cmd = [sys.executable, str(HERE / "child.py"), *args]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            print(f"child timed out: {' '.join(args)}", file=sys.stderr)
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"child exited {proc.returncode}: {' '.join(args)}", file=sys.stderr)
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def experiment(self, trace: bool) -> dict | None:
        self.calls += 1
        out_dir = WORK / f"out-{self.workload}-{os.getpid()}-{self.calls}"
        args = [self.workload, str(self.seed), str(out_dir)]
        if trace:
            args += ["--trace", str(WORK / f"trace-{self.workload}.json")]
        try:
            return self.child(*args)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


def repeat(step, seconds: float, min_reps: int, runner: Runner) -> list:
    """Call ``step`` until ``seconds`` would be exceeded, at least ``min_reps`` times."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - t0)
        typical = statistics.median(durations)
        if typical > runner.remaining() - 5.0:
            break
        if len(results) >= min_reps and time.perf_counter() - start + typical > seconds:
            break
    return results


class Checker:
    """Counts expected output files and the ones missing or wrong."""

    def __init__(self, workload: str, seed: int, cfg: dict):
        self.expected = expected_outputs(cfg)
        recorded = _load_digests().get(workload, {}).get("seeds", {})
        self.reference = recorded.get(str(seed))
        self.first: dict | None = None
        self.attempted = 0
        self.failed = 0

    def check(self, result: dict | None) -> None:
        self.attempted += len(self.expected)
        if result is None:
            self.failed += len(self.expected)
            return
        got = result["digests"]
        if self.first is None:
            self.first = got
        want = self.reference or self.first  # unchecked seeds: calls must agree
        for name in self.expected:
            if name not in got or got[name] != want.get(name):
                self.failed += 1

    @property
    def failed_fraction(self) -> float:
        return self.failed / max(1, self.attempted)

    @property
    def status(self) -> str:
        return "checked against recorded digests" if self.reference else "UNCHECKED"


def end_to_end(runner: Runner, checker: Checker, cfg: dict, seconds: float):
    """Untraced calls: (metrics, samples)."""
    runs = repeat(lambda: runner.experiment(trace=False), seconds, MIN_REPS, runner)
    for r in runs:
        checker.check(r)
    ok = [r for r in runs if r is not None]
    if not ok:
        return {}, {}
    samples = {"wall_s": [r["wall_s"] for r in ok]}
    samples["setup_s"] = [statistics.median(r["setup_s"]) for r in ok]
    samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in ok]
    wall = statistics.median(samples["wall_s"])
    return {
        "wall_s": (wall, "s"),
        "trials_per_s": (cfg["trials"] * len(cfg["waveforms"]) / wall, "1/s"),
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
        "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MB"),
    }, samples


def per_layer(runner: Runner, checker: Checker, seconds: float):
    """Alternating untraced and traced calls: (metrics, samples)."""
    pairs = repeat(lambda: (runner.experiment(trace=False), runner.experiment(trace=True)),
                   seconds, MIN_REPS, runner)
    for plain, traced in pairs:
        checker.check(plain)
        checker.check(traced)
    plain = [p for p, _ in pairs if p is not None]
    traced = [t for _, t in pairs if t is not None]
    if not (plain and traced):
        return {}, {}
    samples = {"wall_s": [r["wall_s"] for r in plain],
               "traced_wall_s": [r["wall_s"] for r in traced]}
    metrics = {
        name: (statistics.median([r["layers"][name][0] for r in traced]), unit)
        for name, (_, unit) in traced[0]["layers"].items()
    }
    metrics["blas.zgemm_gflops"] = (
        statistics.median([r["zgemm_gflops"] for r in traced]), "GFLOP/s")
    metrics["trace.overhead_frac"] = (
        statistics.median(samples["traced_wall_s"]) / statistics.median(samples["wall_s"]) - 1.0,
        "fraction")
    metrics["trace.uncovered_s"] = (statistics.median([r["uncovered_s"] for r in traced]), "s")
    metrics["failed_fraction"] = (checker.failed_fraction, "fraction")
    return metrics, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mcwave" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'mcwave'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import make_config

    cfg = make_config(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed)
    checker = Checker(args.workload, args.seed, cfg)
    facts = machine_facts()
    if args.trace:
        metrics, samples = per_layer(runner, checker, args.seconds)
    else:
        metrics, samples = end_to_end(runner, checker, cfg, args.seconds)
    if checker.reference is None:
        print(f"warning: no recorded digests for {args.workload} seed {args.seed}; "
              "outputs UNCHECKED", file=sys.stderr)

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"outputs {checker.status}")
    print(f"# machine {json.dumps(facts, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        if name != "failed_fraction":
            print(f"{name} = {value:.6g} {unit}")
    print(f"failed_fraction = {checker.failed_fraction:.6g} fraction "
          f"({checker.failed} of {checker.attempted} output files)")
    as_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (WORK / f"result-{args.workload}-{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "outputs": checker.status, "failed_fraction": checker.failed_fraction,
        "machine": facts, "samples": samples, "metrics": as_json,
    }, indent=1) + "\n", encoding="utf-8")

    correct = checker.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": as_json}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
