"""Calibrate the harness against the baseline table in ROADMAP.md.

Times ``euler_chi`` at rho in {1, 2, 4, 8, 16} (the quintic's O, O(1) at
rho = 1, seeded random symmetric rings above), the Schubert integral
``top_chern_sym_dual_tautological(n, 2n-5)`` at n in {5, 10, 20, 40} and a
cold ``python -m mukai chi`` call, and writes bench/calibration.json.
Run it from the repository root:

    python3 bench/calibrate.py
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

REPEATS = 7


def _time_ms(fn, repeats: int = REPEATS) -> dict:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append((perf_counter() - start) * 1000)
    return {"min_ms": min(times), "median_ms": statistics.median(times), "repeats": repeats}


def _random_pair(lib, rho: int):
    rng = random.Random(workloads.POOL_SEED + rho)
    ring = lib.rings.ThreefoldRing(
        name=f"calibration-{rho}",
        basis_labels=tuple(f"e{i}" for i in range(rho)),
        triple=workloads._symmetric_tensor(rng, rho, -2, 3),
        c1_coords=[rng.randint(1, 2) for _ in range(rho)],
        c2_values=[rng.randint(-12, 48) for _ in range(rho)],
        chi_top=0,
        h12=0,
    )

    def bundle():
        return lib.chern.ChernData(
            ring=ring,
            rank=rng.randint(1, 3),
            c1=[rng.randint(-2, 2) for _ in range(rho)],
            c2=[rng.randint(-6, 6) for _ in range(rho)],
            c3=rng.randint(-4, 4),
        )

    return bundle(), bundle()


def main() -> int:
    run.use_source_tree()
    lib = run.import_library(with_cli=False)
    quintic = lib.documents.load_manifold(lib.documents.builtin_path("quintic.json"))
    o = lib.chern.ChernData(ring=quintic, rank=1, c1=(0,), c2=(0,), c3=0)
    o1 = lib.chern.ChernData(ring=quintic, rank=1, c1=(1,), c2=(0,), c3=0)
    euler = {"1 (quintic O, O(1))": _time_ms(lambda: lib.pairings.euler_chi(o, o1), 50)}
    for rho in (2, 4, 8, 16):
        e1, e2 = _random_pair(lib, rho)
        euler[str(rho)] = _time_ms(lambda: lib.pairings.euler_chi(e1, e2), 50 if rho < 8 else REPEATS)
    ctop = {
        str(n): _time_ms(lambda: lib.schubert.top_chern_sym_dual_tautological(n, 2 * n - 5))
        for n in (5, 10, 20, 40)
    }
    cli = workloads.Cli(lib)
    argv = cli.requests["chi"][0]
    cli.call(argv)  # bytecode caches warm
    cold = _time_ms(lambda: cli.call(argv))
    bare = _time_ms(lambda: subprocess.run([sys.executable, "-c", "pass"], check=True))
    out = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "euler_chi_by_rho": euler,
        "ctop_by_n": ctop,
        "cli_chi_cold": cold,
        "bare_interpreter": bare,
    }
    path = Path(__file__).resolve().parent / "calibration.json"
    path.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
