"""Record the sha256 of every workload's CSV outputs into ``digests.json``.

    python3 perfbench/record_digests.py

Runs each workload once per seed in ``SEEDS`` through the same child process
the benchmark uses and writes ``digests.json`` afresh.  Run it only on the
code whose outputs are the reference: the benchmark fails any later run whose
bytes differ.
"""

from __future__ import annotations

import json
import sys

from run import HERE, WORK, Runner
from workloads import WORKLOADS

SEEDS = range(32)


def main() -> int:
    recorded = {}
    WORK.mkdir(exist_ok=True)
    for workload, w in WORKLOADS.items():
        seeds = {}
        for seed in SEEDS:
            result = Runner(workload, seed).experiment(trace=False)
            if result is None:
                raise SystemExit(f"{workload} seed {seed}: run failed")
            seeds[str(seed)] = result["digests"]
            print(f"{workload} seed {seed}: {len(result['digests'])} files", flush=True)
        recorded[workload] = {"preset": w.preset, "trials": w.trials, "seeds": seeds}
    path = HERE / "digests.json"
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
