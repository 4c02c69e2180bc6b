"""Tests of the benchmark itself.

    python3 -m pytest perfbench

One traced run of every workload at seed 1 (about 25 s in all) backs the
checks that the wrappers change no output byte and that every span a
workload is expected to fire does fire on the seed code.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import child
import spans
from run import Checker, _load_digests
from workloads import WORKLOADS, make_config

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
TRACE_EXTRAS = ("blas.zgemm_gflops", "trace.overhead_frac", "trace.uncovered_s", "failed_fraction")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Workload -> result of one traced run at seed 1."""
    out = {}
    for workload in WORKLOADS:
        work = tmp_path_factory.mktemp(workload)
        out[workload] = child.run_once(workload, 1, work / "out", work / "trace.json")
    return out


def test_traced_outputs_match_untraced_digests(traced):
    recorded = _load_digests()
    for workload, result in traced.items():
        assert result["digests"] == recorded[workload]["seeds"]["1"], workload


def test_expected_spans_fire_on_seed_code(traced):
    for workload, result in traced.items():
        silent = [s for s in WORKLOADS[workload].spans if result["layers"][f"{s}.calls"][0] == 0]
        assert not silent, f"{workload}: {silent}"


def test_ber_spans_silent_on_papr_and_back(traced):
    papr = traced["papr-ddam"]["layers"]
    for s in ("kpi.run_ber", "detection.mmse_equalize", "waveforms.effective_channel"):
        assert papr[f"{s}.calls"][0] == 0
    for s in ("kpi.papr", "waveforms.ddam_precode"):
        assert traced["ber-l256"]["layers"][f"{s}.calls"][0] == 0


def test_wrappers_are_removed_after_the_run(traced):
    from mcwave import bench, kpi, waveforms

    for _, owner, attr, _, _ in spans.program_bindings():
        assert not hasattr(getattr(owner, attr), "__wrapped__"), attr
    assert not hasattr(bench.build_bundle, "__wrapped__")
    assert not hasattr(kpi.mmse_equalize, "__wrapped__")
    assert not hasattr(waveforms.WaveformBundle.transmit, "__wrapped__")


def test_metric_names_and_declared_metrics(traced):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = [m["name"] for m in declared["end_to_end"]]
    per_layer = [m["name"] for m in declared["per_layer"]]
    reported = list(traced["ber-l1024"]["layers"]) + list(TRACE_EXTRAS)
    assert sorted(per_layer) == sorted(reported)
    names = end_to_end + per_layer + [w["name"] for w in declared["workloads"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(WORKLOADS)


def test_untraced_call_times_setup():
    times = child.time_setup(make_config("ber-l256", 1))
    assert times and all(t > 0 for t in times)
    assert sum(times) >= child.SETUP_SECONDS


def test_self_time_excludes_child_spans(monkeypatch):
    tracer = spans.Tracer()
    clock = iter([0.0, 1.0, 3.0, 10.0])
    monkeypatch.setattr(spans.time, "perf_counter", lambda: next(clock))
    tracer.wrap("outer", tracer.wrap("inner", lambda: None))()
    monkeypatch.undo()
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "self_s": 8.0}
    assert summary["inner"] == {"calls": 1, "self_s": 2.0}
    assert tracer.covered_s() == 10.0


def test_checker_fails_mismatch_and_flags_unrecorded_seed():
    cfg = make_config("ber-l256", 1)
    checker = Checker("ber-l256", 1, cfg)
    good = dict(_load_digests()["ber-l256"]["seeds"]["1"])
    checker.check({"digests": good})
    assert (checker.attempted, checker.failed) == (6, 0)
    checker.check({"digests": dict(good, **{"ber_ofdm.csv": "0" * 64})})
    checker.check(None)  # a raised run fails all of its files
    assert (checker.attempted, checker.failed) == (18, 7)
    assert checker.status.startswith("checked")
    assert Checker("ber-l256", 10**9, make_config("ber-l256", 10**9)).status == "UNCHECKED"
