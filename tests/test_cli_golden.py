"""Golden replay of the command line: exit code, stdout and stderr per call.

`cli_golden.json` holds one record per call of `mukai.cli.main`: every
README command, every subcommand in text and --json, every --help, the
error paths of exit codes 1, 2 and 64, and the registry workflow on a
temporary registry.  Exit codes, stdout and stderr must match byte for
byte, so rewriting the fixture on unchanged code changes nothing.

Calls run in order in one temporary directory, written as ``<tmp>`` in
the fixture.  Computed reports are the same bytes on every Python.  The
--help layout belongs to argparse, which changed it in Python 3.13, so a
help record whose bytes differ there carries the 3.13 bytes under the
key "py3.13", and each Python compares against its own.  To rewrite the
fixture from the current code (only where the outputs are known right),
run on Python 3.12 or older, then on 3.13 if any help text changed:

    PYTHONPATH=src python3 tests/test_cli_golden.py

A rewrite keeps the other layout's bytes of every help record.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from mukai.cli import main
from mukai.documents import builtin_path, flag_to_document

from conftest import cp3_quartic_flag

FIXTURE = Path(__file__).with_name("cli_golden.json")

PY313 = "py3.13"
NEW_HELP_LAYOUT = sys.version_info >= (3, 13)

def _calls() -> list[list[str]]:
    cy = ["--manifold", "quintic.json"]
    fl = ["--flag", "cp3-quartic.json"]
    o_o1 = ["--bundle", "quintic-o.json", "--bundle2", "quintic-o1.json"]
    inst = ["--bundle", "instanton1.json"]
    glue = ["glue-check", "--gluing", "cp3-double.json", *inst]
    reg = ["--registry", "<tmp>/reg.json"]
    both = [
        ["schubert", "lines-quintic"],
        ["schubert", "lines-octic-double"],
        ["schubert", "integrate", "sigma1^4", "--n", "4"],
        ["schubert", "integrate", "sigma2*sigma1,1", "--n", "4"],
        ["schubert", "integrate", "sigma3,3", "--n", "5"],
        ["schubert", "pieri", "sigma1", "--n", "4", "--k", "1"],
        ["schubert", "pieri", "sigma1^2*sigma1,1", "--n", "5", "--k", "2"],
        ["schubert", "ctop", "--n", "5", "--k", "5"],
        ["schubert", "ctop", "--n", "4", "--k", "3"],
        ["schubert", "euler", "--n", "4"],
        ["schubert", "four-lines"],
        ["mukai", *cy, "--bundle", "quintic-o1.json"],
        ["mukai", *fl, *inst],
        ["chi", *cy, *o_o1, "--split"],
        ["chi", *cy, *o_o1],
        ["chi", *fl, "--bundle", "cp3-o1.json", "--bundle2", "instanton1.json", "--split"],
        ["pair", *cy, *o_o1],
        ["pair", *fl, *inst, "--bundle2", "cp3-o1.json"],
        ["restrict", *fl, *inst],
        ["restrict", *fl, "--bundle", "cp3-o1.json"],
        ["vdim", *fl, *inst],
        ["vdim", *cy, "--bundle", "quintic-o1.json"],
        ["twist", "--manifold", "cp3-quartic.json", *inst, "--L", "1", "--k", "1"],
        ["twist", *cy, "--bundle", "quintic-o.json", "--L", "1/2", "--k", "-3"],
        ["reflect", *cy, *o_o1],
        ["reflect", *cy, *o_o1, "--h", "-1"],
        ["validate-flag", "cp3-quartic.json"],
        ["validate-flag", "synthetic-rho2.json"],
        ["double", *fl],
        glue,
        [*glue, "--bundle2", "cp3-o1.json"],
        [*glue, "--matrix=-identity"],
        ["glue-check", *fl, *inst, "--matrix", "identity"],
        ["deform-dims", *fl, "--h12-plus", "0", "--h12-minus", "0"],
        ["deform-dims", "--gluing", "cp3-double.json", "--h12-plus", "2", "--h12-minus", "1",
         "--h0", "3"],
        ["constants"],
        ["constants", "quintic-lines"],
        ["cd", "seed", *reg, *cy, "--kind", "line-bundle"],
        ["cd", "seed", *reg, *cy, "--kind", "skyscraper"],
        ["cd", "closure", *reg, "--parent", "quintic:line-bundle",
         "--parent2", "quintic:line-bundle", "--L", "1", "--k", "k"],
        ["cd", "degeneration", *reg, *fl, *inst, "--chi", "6"],
        ["cd", "degeneration", *reg, *fl, "--bundle", "cp3-o1.json", "--chi", "N"],
        ["cd", "list", *reg],
        ["cd", "load", *reg],
        ["cd", "show", *reg, "--key", "quintic:skyscraper"],
        ["cd", "mark-exceptional", *reg, "--key", "cp3-quartic:degeneration:(2, (0), -2)"],
        ["cd", "save", *reg],
    ]
    calls = [argv + extra for argv in both for extra in ([], ["--json"])]
    calls += [["cd", "--json", "list", *reg]]

    leaves = {
        (): ["mukai", "chi", "pair", "restrict", "vdim", "twist", "reflect", "validate-flag",
             "double", "glue-check", "deform-dims", "constants"],
        ("cd",): ["seed", "closure", "degeneration", "mark-exceptional", "list", "load",
                  "save", "show"],
        ("schubert",): ["lines-quintic", "lines-octic-double", "integrate", "pieri", "ctop",
                        "euler", "four-lines"],
    }
    calls += [["--help"], ["-h"], ["cd", "--help"], ["schubert", "--help"]]
    calls += [[*group, leaf, "--help"] for group, names in leaves.items() for leaf in names]

    calls += [  # exit 64
        [], ["cd"], ["schubert"], ["cd", "--json"], ["no-such-command"], ["--bogus"],
        ["mukai"], ["mukai", *cy], ["chi", *cy], ["chi", *cy, *o_o1, "extra"],
        ["restrict", *inst], ["twist", *cy, "--bundle", "quintic-o.json", "--L", "abc"],
        ["twist", *cy, "--bundle", "quintic-o.json", "--L", "1", "--k", "x"],
        ["schubert", "integrate", "sigma1^x", "--n", "4"],
        ["schubert", "integrate", "sigma1^4"],
        ["schubert", "ctop", "--n", "x", "--k", "1"],
        ["schubert", "nope"],
        ["cd", "seed", *reg, *cy, "--kind", "bad"],
        ["cd", "list"],
        ["cd", "nope", *reg],
        ["double", "--flag"],
        ["mukai", "--bundle", "quintic-o.json"],
        ["mukai", "--manifold", "", "--bundle", "quintic-o.json"],
        ["vdim", "--bundle", "quintic-o.json"],
        ["glue-check", *inst],
        ["deform-dims", "--h12-plus", "0", "--h12-minus", "0"],
        ["cd", "list", "--registry", ""],
        ["cd", "seed", "--registry", "", *cy, "--kind", "line-bundle"],
    ]
    calls += [  # exit 1
        ["mukai", *cy, *inst],
        ["restrict", "--flag", "quintic.json", "--bundle", "quintic-o.json"],
        ["vdim", "--manifold", "cp3-quartic.json", *inst],
        ["validate-flag", "<tmp>/broken.json"],
        ["validate-flag", "<tmp>/broken.json", "--json"],
        ["restrict", "--flag", "<tmp>/bad-chi.json", *inst],
        ["double", "--flag", "<tmp>/bad-chi.json"],
        [*glue, "--matrix=<tmp>/scaled-matrix.json"],
        [*glue, "--matrix=<tmp>/wide-matrix.json"],
        ["constants", "unknown-name"],
        ["cd", "closure", *reg, "--parent", "quintic:skyscraper",
         "--parent2", "quintic:line-bundle"],
        ["cd", "show", *reg, "--key", "no-such-key"],
        ["deform-dims", *fl, "--h12-plus", "0", "--h12-minus", "0", "--h0", "-5"],
    ]
    calls += [  # exit 2
        ["restrict", "--flag", "<tmp>/malformed.json", *inst],
        ["mukai", "--manifold", "<tmp>/absent.json", *inst],
        ["mukai", "--manifold", "absent.json", *inst],
        ["mukai", *cy, "--bundle", "<tmp>/malformed.json"],
        [*glue, "--matrix", "<tmp>/absent-matrix.json"],
        ["glue-check", "--gluing", "<tmp>/malformed.json", *inst],
        ["cd", "list", "--registry", "<tmp>/absent-registry.json"],
        ["cd", "list", "--registry", "<tmp>/malformed.json"],
    ]
    return calls


def _write_inputs(tmp: Path) -> None:
    broken = flag_to_document(cp3_quartic_flag())
    broken["c2_values"] = [0]
    bad_chi = json.loads(builtin_path("cp3-quartic.json").read_text(encoding="utf-8"))
    bad_chi["c2_values"] = [7]
    files = {
        "broken.json": json.dumps(broken),
        "bad-chi.json": json.dumps(bad_chi),
        "malformed.json": '{"name": "cp3-quartic", "kind": "fano3",\n "rho": 1,\n',
        "scaled-matrix.json": "[[2]]\n",
        "wide-matrix.json": "[[1, 0], [0, 1]]\n",
    }
    for name, text in files.items():
        (tmp / name).write_text(text, encoding="utf-8")


def _replay(tmp: Path, argv: list[str]) -> dict:
    """One call of `main`; the temporary directory is written as <tmp>."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.replace("<tmp>", str(tmp)) for a in argv])
    stdout, stderr = (s.getvalue().replace(str(tmp), "<tmp>") for s in (out, err))
    return {"argv": argv, "code": code, "stdout": stdout, "stderr": stderr}


def _is_help(argv: list[str]) -> bool:
    return "--help" in argv or "-h" in argv


def _on_this_python(record: dict) -> dict:
    """The record with the bytes this Python's argparse prints."""
    return {**record, **record.get(PY313, {})} if NEW_HELP_LAYOUT else record


def _keep_other_layout(record: dict, previous: dict | None) -> dict:
    """A freshly run record, keeping the help bytes of the other argparse layout."""
    if previous is None or not _is_help(record["argv"]):
        return record
    if not NEW_HELP_LAYOUT:
        return {**record, PY313: previous[PY313]} if PY313 in previous else record
    changed = {k: v for k, v in record.items() if v != previous[k]}
    base = {k: previous[k] for k in record}
    return {**base, PY313: changed} if changed else base


def test_cli_matches_golden(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    _write_inputs(tmp_path)
    records = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert [r["argv"] for r in records] == _calls()
    mismatches = []
    for record in map(_on_this_python, records):
        got = _replay(tmp_path, record["argv"])
        for key in ("code", "stdout", "stderr"):
            if got[key] != record[key]:
                mismatches.append(f"{record['argv']}: {key} {got[key]!r} != {record[key]!r}")
    assert not mismatches, "\n".join(mismatches[:10])


if __name__ == "__main__":
    import os

    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(Path(tmp))
        records = [_replay(Path(tmp), argv) for argv in _calls()]
    previous = {}
    if FIXTURE.exists():
        previous = {tuple(r["argv"]): r for r in json.loads(FIXTURE.read_text(encoding="utf-8"))}
    records = [_keep_other_layout(r, previous.get(tuple(r["argv"]))) for r in records]
    FIXTURE.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {FIXTURE}", file=sys.stderr)
