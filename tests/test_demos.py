"""The six demos print exactly the bytes recorded in `demos_stdout.json`.

The demos print graded classes, K3 vectors and pairing values through
their `str` forms, so this pins every printed byte of the library's
display path, not only the exit code.  Each demo runs as its own
process, as a reader would run it.  To rewrite the fixture from the
current code (only where the outputs are known right):

    PYTHONPATH=src python3 tests/test_demos.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
FIXTURE = Path(__file__).with_name("demos_stdout.json")


def _run(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT, check=False
    )


def test_fixture_lists_every_demo():
    assert sorted(json.loads(FIXTURE.read_text(encoding="utf-8"))) == [d.name for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_prints_the_recorded_bytes(demo):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))[demo.name]
    done = _run(demo)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == expected


if __name__ == "__main__":
    outputs = {}
    for demo in DEMOS:
        done = _run(demo)
        if done.returncode != 0:
            sys.exit(f"{demo.name} exited {done.returncode}:\n{done.stderr}")
        outputs[demo.name] = done.stdout
    FIXTURE.write_text(json.dumps(outputs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(outputs)} demo outputs to {FIXTURE}", file=sys.stderr)
