"""Benchmark of the mukai library and CLI: one workload per run.

Usage (from the repository root):

    python3 bench/run.py --workload lattice --seed 1 --seconds 30 --trace 0

Workloads: lattice, ingest, schubert and cli (see workloads.py and
README.md).  Each is a closed loop with one caller and one request in
flight.  With ``--trace 0`` the run times requests for ``--seconds``
seconds (and at least ``MIN_REQUESTS`` of them, so that ten samples lie
above p90) and prints the end-to-end metrics; with ``--trace 1`` it runs a
fixed request set twice, untraced and traced, and prints the per-layer
metrics.  Every output is checked exactly; an unexpected failure makes the
command exit 1.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a reproducibility header.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import ROOT, WORK  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden.json"
MIN_REQUESTS = 100  # p90 then has at least ten samples above it
SETUP_REPEATS = 5
SUBPROCESS_REPEATS = 5
MODULES = tracing.LAYERS + ("errors",)


def use_source_tree() -> None:
    """Import ``mukai`` from ``src/`` and keep its fractional-chi warnings quiet."""
    sys.path.insert(0, str(ROOT / "src"))
    # euler_chi warns on every fractional value; the benchmark does not print them.
    warnings.filterwarnings("ignore", message=r".* is fractional on integral Chern data")


def import_library(with_cli: bool) -> SimpleNamespace:
    """Import ``mukai`` afresh (dropping any earlier import) and return its modules."""
    for name in [n for n in sys.modules if n == "mukai" or n.startswith("mukai.")]:
        del sys.modules[name]
    importlib.import_module("mukai")
    names = MODULES + (("cli",) if with_cli else ())
    return SimpleNamespace(**{n: importlib.import_module(f"mukai.{n}") for n in names})


def set_up(name: str, repeats: int):
    """Import, build the inputs and warm up ``repeats`` times; keep the last.

    Returns the workload and the median set-up time in seconds, corrected
    for host speed and as measured.
    """
    host = hostspeed.HostSpeed()
    raw, corrected = [], []
    for _ in range(repeats):
        host.start()
        if name == "cli":  # so that no cold CLI call pays for compiling
            compileall.compile_dir(str(ROOT / "src" / "mukai"), quiet=1)
        lib = import_library(with_cli=name == "cli")
        workload = workloads.WORKLOADS[name](lib)
        for key in workload.warm_keys():
            workload.call(workload.prepare(key))
        host.split()
        raw.append(host.raw_ns / 1e9)
        corrected.append(host.corrected_ns / 1e9)
    return workload, statistics.median(corrected), statistics.median(raw)


class Checker:
    """Checks each output as it arrives and keeps only what the report needs."""

    def __init__(self, workload, golden):
        self.workload = workload
        self.golden = golden
        self.unexpected: list[dict] = []
        self.digest = hashlib.sha256()
        self.bits = 0

    def add(self, key, request, output) -> None:
        if isinstance(output, Exception):
            problems = ["".join(traceback.format_exception_only(type(output), output)).strip()]
            text = repr(output)
        else:
            problems = self.workload.check(key, request, output, self.golden)
            text = self.workload.render(request, output)
            self.bits = max(self.bits, self.workload.bits(output))
        self.digest.update(workloads.sha256(text).encode("ascii"))
        if problems:
            self.unexpected.append({"request": key, "problems": problems})

    def finish(self) -> None:
        """Identities checked once, after the requests."""
        self.unexpected += [{"request": "post-run", "problems": [p]} for p in self.workload.post_checks()]

    @property
    def failed(self) -> int:
        return len(self.unexpected)


def call_safely(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # recorded and counted as a failed request
        return exc


def percentile(sorted_values, q: float):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def summary(ordered) -> dict:
    """Throughput and latency percentiles of sorted request times in ns."""
    return {
        "ops_per_s": len(ordered) / (sum(ordered) / 1e9),
        "latency_p50_ms": statistics.median(ordered) / 1e6,
        "latency_p90_ms": percentile(ordered, 0.9) / 1e6,
    }


def run_untraced(name, seed, seconds, min_requests, setup_repeats, golden):
    workload, setup_s, setup_raw_s = set_up(name, setup_repeats)
    checker = Checker(workload, golden)
    raw, corrected = [], []
    host = hostspeed.HostSpeed()
    keys = workload.keys(seed)
    start = perf_counter()
    while perf_counter() - start < seconds or len(raw) < min_requests:
        key = next(keys)
        request = workload.prepare(key)
        host.start()
        output = call_safely(workload.call, request, host.split)
        host.split()
        raw.append(host.raw_ns)
        corrected.append(host.corrected_ns)
        checker.add(key, request, output)
    checker.finish()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF)
    metrics = {"setup_s": setup_s, **summary(sorted(corrected)), "peak_rss_mb": usage.ru_maxrss / 1024}
    extra = {
        "samples": len(raw),
        "samples_above_p90": len(raw) - math.ceil(0.9 * len(raw)),
        "fail_ratio": checker.failed / len(raw),
        "host_factor_median": statistics.median(host.factors),
        "uncorrected": {"setup_s": setup_raw_s, **summary(sorted(raw))},
    }
    return metrics, len(raw), checker, extra


def subprocess_ms(argv, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run(argv, cwd=ROOT, env=workloads.cli_env(), stdin=subprocess.DEVNULL,
                       capture_output=True, check=True, timeout=120)
        times.append((perf_counter() - start) * 1000)
    return statistics.median(times)


def cli_layer_metrics(lib, repeats: int) -> dict:
    """Interpreter start, ``import mukai.cli`` and in-process ``main`` costs."""
    interpreter = subprocess_ms([sys.executable, "-c", "pass"], repeats)
    imported = subprocess_ms([sys.executable, "-c", "import mukai.cli"], repeats)
    cli = workloads.Cli(lib)
    start = perf_counter()
    for argv, _ in cli.requests.values():
        cli.trace_call(argv)
    return {
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": imported - interpreter,
        "cli.main_ms": (perf_counter() - start) * 1000 / len(cli.requests),
    }


def run_traced(name, seed, subprocess_repeats, golden):
    workload, _, _ = set_up(name, 1)
    workload.lib.cli = importlib.import_module("mukai.cli")
    call = getattr(workload, "trace_call", workload.call)
    keys = workload.trace_keys(seed)
    metrics = cli_layer_metrics(workload.lib, subprocess_repeats)

    requests = [workload.prepare(k) for k in keys]
    start = perf_counter()
    for request in requests:
        call_safely(call, request)
    untraced_ops = len(keys) / (perf_counter() - start)

    tracer = tracing.Tracer()
    tracer.install(workload.lib)
    workloads.parse_json = tracer.span("documents", "json.loads", workloads.parse_json,
                                       tracing.count_document_text)
    checker = Checker(workload, golden)
    elapsed = 0.0
    for index, key in enumerate(keys):
        request = workload.prepare(key)
        start = perf_counter()
        output = call_safely(tracer.run_request, index, call, request)
        elapsed += perf_counter() - start
        checker.add(key, request, output)
    checker.finish()

    metrics.update(tracer.layer_totals(len(keys)))
    metrics["result_bits_max"] = checker.bits
    metrics["trace_overhead_ratio"] = len(keys) / elapsed / untraced_ops
    WORK.mkdir(exist_ok=True)
    tracer.dump(WORK / f"spans-{name}.jsonl")
    return metrics, len(keys), checker, {"spans": len(tracer.spans), "untraced_ops_per_s": untraced_ops}


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def run(workload: str, seed: int, seconds: float, trace: bool, *, min_requests=MIN_REQUESTS,
        setup_repeats=SETUP_REPEATS, subprocess_repeats=SUBPROCESS_REPEATS) -> tuple[dict, dict]:
    """Run one workload; returns (header, result) as printed by ``main``."""
    use_source_tree()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if trace:
        metrics, attempted, checker, extra = run_traced(workload, seed, subprocess_repeats, golden)
    else:
        metrics, attempted, checker, extra = run_untraced(
            workload, seed, seconds, min_requests, setup_repeats, golden
        )
    probe = getattr(checker.workload, "probe_known_defects", None)
    header = {
        "header": {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "attempted": attempted,
            "failed": checker.failed,
            "output_digest": checker.digest.hexdigest(),
            "failures": checker.unexpected[:20],
            "known_defects": probe() if probe else [],
            **extra,
        }
    }
    result = {
        "correct": not checker.unexpected,
        "attempted": attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return header, result


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one vCPU, so a request and the
    host-speed samples around it run on the same one."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mukai" / "__init__.py").is_file():
        print(f"bench: no mukai sources under {ROOT / 'src' / 'mukai'}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    header, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(header))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
