"""Seeded fuzzing: random command lines and mutated documents never end in a traceback.

Every command line gives exit code 0, 1, 2 or 64; a failure prints one line
to stderr and nothing to stdout.  Every mutated document either loads or
raises `MukaiError`.  Each call and each load finishes within `DEADLINE_S`.
The streams are seeded, so a failure replays exactly.
"""

import json
import random
import time

from mukai import cli, documents, moduli
from mukai.errors import MukaiError

from conftest import quintic_ring

BIG = "9" * 1000
# The slowest legitimate call, `schubert integrate sigma1^124 --n 64`, takes
# about 25 ms, so 2 s leaves room for a slow host.
DEADLINE_S = 2.0
VALUES = {
    "document": [*documents.builtin_names(), "missing.json", "dir/missing.json", ""],
    "number": [
        "0", "1", "-1", "2", "3", "5", "7", "64", "65", "123", "1/2", "-3/4", "1/0", "1.5", "1e5",
        " 3", "abc", "", "0x10", "nan", BIG, "-" + BIG, "1" + BIG, "1/" + BIG, BIG + "/7",
    ],
    "coords": ["1", "1,0", "0,1", "1/2,1", "1,2,3", "1,", ",", "1.5", "x", "1/0", BIG, "1," + BIG],
    "expr": [
        "sigma1^4", "sigma2*sigma1,1", "sigma1", "sigma0^3", "sigma3,3", "sigma1^" + BIG,
        "sigma0^" + "9" * 40, "sigma2^" + BIG, "sigma", "sigma1^", "sigma1,2", "sigma" + BIG, "sigma1**2",
    ],
    "text": ["k", "chi_3", "quintic:line-bundle", "line-bundle", "skyscraper", "bogus", "open", ""],
}
# The kind of value each option takes; options not named here take "text".
KINDS = {
    "--manifold": "document", "--flag": "document", "--bundle": "document", "--bundle2": "document",
    "--gluing": "document", "path": "document", "--matrix": "document",
    "--h": "number", "--k": "number", "--n": "number", "--h12-plus": "number", "--h12-minus": "number",
    "--h0": "number", "--chi": "number", "--L": "coords", "expr": "expr",
}


def leaf_commands():
    """(command words, argument specs) of every subcommand."""
    for command in cli.COMMANDS:
        if command.commands:
            for sub in command.commands:
                yield (command.name, sub.name), command.args + sub.args
        else:
            yield (command.name,), command.args


LEAVES = list(leaf_commands())
OPTIONS = sorted({name for _, specs in LEAVES for name, _ in specs if name.startswith("-")} | {"--json"})


def random_argv(rng, files):
    words, specs = rng.choice(LEAVES)
    if rng.random() < 0.05:
        words = rng.choice([(), ("bogus",), words[:1], words + ("extra",)])
    pairs = []
    for name, options in specs:
        if rng.random() < 0.2:
            continue
        if "choices" in options and rng.random() < 0.7:
            value = rng.choice(options["choices"])
        elif name == "--registry" and rng.random() < 0.9:
            value = rng.choice(files["registry"])
        elif name == "--matrix" and rng.random() < 0.5:
            value = rng.choice(files["matrix"] + ["identity", "-identity"])
        else:
            pool = VALUES[KINDS.get(name, "text")] if rng.random() < 0.85 else rng.choice(list(VALUES.values()))
            value = rng.choice(pool)
        if options.get("action") == "store_true":
            pairs.append([name])
        elif name.startswith("-"):
            pairs.append([name, value])
        else:
            pairs.append([value])
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        pairs.append([rng.choice(OPTIONS + ["--help", "--bogus", "-x", "--"])])
    rng.shuffle(pairs)
    return [*words, *(token for pair in pairs for token in pair)]


def test_random_command_lines_exit_cleanly(tmp_path, monkeypatch, capsys):
    # Relative paths then resolve, and any file a command writes lands, under tmp_path.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "good.json").write_text("[[1]]")
    (tmp_path / "bad.json").write_text("[[1.5]")
    (tmp_path / "latin1.json").write_bytes(b"[[\xe9]]")
    files = {
        "registry": [str(tmp_path / f"registry{i}.json") for i in range(3)] + [str(tmp_path / "bad.json")],
        "matrix": [str(tmp_path / name) for name in ("good.json", "bad.json", "latin1.json")],
    }
    rng = random.Random(2024)
    codes = set()
    for _ in range(2000):
        argv = random_argv(rng, files)
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        codes.add(code)
        assert elapsed < DEADLINE_S, (argv, elapsed)
        assert code in (0, 1, 2, 64), argv
        if code and "--help" not in argv and not (argv[:1] == ["validate-flag"] and code == 1 and out):
            assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (argv, out, err)
    assert codes == {0, 1, 2, 64}


# --------------------------------------------------------------------------
# documents

JUNK = [
    None, True, False, 0, 1, -1, 2, 4, 24, -200, 1.5, 10**1000, 10**999, "1/2", "1/0", "-3", "x", "1e5",
    "", [], {}, [1], [[1]], [[[1]]], ["h"], {"a": 1},
]
KEYS = ["extra", "s_coords", "h1_TY", "h0_N", "first_obstruction_vanishes", "matrix", "section_class",
        "labels", "manifold", "kind", "entries", "parents", "value", "symbol"]


def mutate(rng, value):
    """A copy of a JSON value with one random change somewhere inside it."""
    if isinstance(value, dict) and value and rng.random() < 0.85:
        out = dict(value)
        key, roll = rng.choice(sorted(value)), rng.random()
        if roll < 0.15:
            del out[key]
        elif roll < 0.25:
            out[rng.choice(KEYS)] = rng.choice(JUNK)
        else:
            out[key] = mutate(rng, value[key])
        return out
    if isinstance(value, list) and value and rng.random() < 0.85:
        out = list(value)
        i, roll = rng.randrange(len(value)), rng.random()
        if roll < 0.15:
            del out[i]
        elif roll < 0.3:
            out.insert(i, value[i] if rng.random() < 0.5 else rng.choice(JUNK))
        else:
            out[i] = mutate(rng, value[i])
        return out
    return rng.choice(JUNK)


def read_builtin(name):
    return json.loads(documents.builtin_path(name).read_text(encoding="utf-8"))


def test_mutated_documents_load_or_raise_mukai_errors(tmp_path):
    registry = moduli.CDRegistry()
    line = moduli.cd_seed(registry, quintic_ring(), "line-bundle")
    registry.mark_exceptional(line.key)
    moduli.cd_seed(registry, quintic_ring(), "skyscraper")
    moduli.cd_closure(registry, registry.get(line.key), registry.get(line.key), (1,), "k")
    documents.save_registry(tmp_path / "registry.json", registry)

    manifolds = {name: read_builtin(name) for name in ("quintic.json", "cp3-quartic.json", "synthetic-rho2.json")}
    bundles = {name: read_builtin(name) for name in ("cp3-o1.json", "instanton1.json", "quintic-o.json", "quintic-o1.json")}
    loaded = {name: documents.load_manifold(documents.builtin_path(name)) for name in manifolds}
    targets = {"cp3-o1.json": "cp3-quartic.json", "instanton1.json": "cp3-quartic.json"}

    def load_bundle(doc, name):
        documents.bundle_from_document(doc, loaded[targets.get(name, "quintic.json")])

    def load_registry(doc, name):
        path = tmp_path / "mutant.json"
        path.write_text(json.dumps(doc))
        documents.load_registry(path)

    kinds = [
        (manifolds, lambda doc, name: documents.manifold_from_document(doc)),
        (manifolds, lambda doc, name: documents.flag_from_document(doc)),
        (bundles, load_bundle),
        ({"cp3-double.json": read_builtin("cp3-double.json")}, lambda doc, name: documents.gluing_from_document(doc)),
        ({"registry": json.loads((tmp_path / "registry.json").read_text())}, load_registry),
    ]
    rng = random.Random(2025)
    outcomes = {"loaded": 0, "refused": 0}
    for _ in range(2000):
        originals, load = rng.choice(kinds)
        name = rng.choice(sorted(originals))
        doc = originals[name]
        for _ in range(rng.randint(1, 3)):
            doc = mutate(rng, doc)
        start = time.perf_counter()
        try:
            load(doc, name)
        except MukaiError:
            outcomes["refused"] += 1
        else:
            outcomes["loaded"] += 1
        elapsed = time.perf_counter() - start
        assert elapsed < DEADLINE_S, (name, doc, elapsed)
    assert min(outcomes.values()) > 100, outcomes
