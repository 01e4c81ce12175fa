"""Smoke test of the benchmark on its smallest sizes (a few seconds).

Runs every workload untraced and traced with a handful of requests, and
checks that every metric named in BENCHMARK.json is printed with its unit
and that every output gate passes.  Run it from the repository root:

    python3 bench/test_smoke.py        (or: python3 -m pytest bench)
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: bool) -> dict:
    header, result = run.run(
        workload, seed=0, seconds=0, trace=trace, min_requests=2, setup_repeats=1, subprocess_repeats=1
    )
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in expected), workload
    for m in expected:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float)), m["name"]
    assert result["correct"], header["header"]["failures"]
    assert result["attempted"] >= 2
    assert result["failed"] == 0, header["header"]
    for probe in header["header"]["known_defects"]:
        assert set(probe) == {"request", "defect", "still_fails", "problems"}, probe
    return result


def test_every_workload_untraced_and_traced():
    workloads.Lattice.TRACE_PAIRS = 1
    workloads.Ingest.TRACE_BLOCKS = 1
    for spec in SPEC["workloads"]:
        _run(spec["name"], trace=False)
        _run(spec["name"], trace=True)


if __name__ == "__main__":
    test_every_workload_untraced_and_traced()
    print("smoke test passed")
