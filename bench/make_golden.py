"""Write golden.json: the expected output of every pool item of every workload.

Run it only at a commit whose outputs are known to be right, from the
repository root:

    python3 bench/make_golden.py

In-process workloads store the SHA-256 of each rendered result; the cli
workload stores the exact stdout of each request that should succeed.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    run.use_source_tree()
    lib = run.import_library(with_cli=False)
    golden = {}

    lattice = workloads.Lattice(lib)
    golden["lattice"] = {}
    for r in range(lattice.RINGS):
        for p in range(lattice.PAIRS):
            key = f"{r}:{p}"
            request = lattice.prepare(key)
            golden["lattice"][key] = workloads.sha256(lattice.render(request, lattice.call(request)))

    ingest = workloads.Ingest(lib)
    golden["ingest"] = {}
    for index, texts in enumerate(ingest.pool):
        request = (ingest.PLACEHOLDER, texts)
        golden["ingest"][str(index)] = workloads.sha256(ingest.render(request, ingest.call(request)))

    schubert = workloads.Schubert(lib)
    golden["schubert"] = {
        str(n): workloads.sha256(schubert.render(n, schubert.call(n))) for n in schubert.N_VALUES
    }

    cli = workloads.Cli(lib)
    golden["cli"] = {}
    for key, (argv, expected) in cli.requests.items():
        if expected == 0:
            code, stdout, stderr = cli.call(argv)
            if code != 0 or stderr:
                raise SystemExit(f"{key}: exit {code}, stderr {stderr!r}")
            golden["cli"][key] = stdout

    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
