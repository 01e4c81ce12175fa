"""Seeded inputs, requests and exact-output checks of the four workloads.

Every workload draws its requests from a fixed pool that is built from
``POOL_SEED``; ``--seed`` only chooses which pool items a run sends and in
which order.  That is what lets every result be compared with a SHA-256
stored in ``golden.json`` whatever seed a run is given.  Pools are walked
in blocks (a seeded permutation per block), so every run sends the same
mix of sizes and its median latency does not depend on the seed.

A workload object offers:

* ``keys(seed)``: the endless request sequence, as pool keys;
* ``trace_keys(seed)``: the fixed request set of a traced run;
* ``prepare(key)``: builds the request's input (outside the timed region);
* ``call(request, split)``: the request itself, calls into ``mukai`` only;
  a request that runs for more than about 20 ms calls ``split()`` between
  its steps, so that the benchmark can time each step apart (see
  ``hostspeed.HostSpeed.split``);
* ``render(request, output)``: the canonical text whose SHA-256 is stored;
* ``check(key, request, output, golden)``: failure messages (none when correct);
* ``post_checks()``: identities checked once after the timed loop;
* ``bits(output)``: the largest numerator/denominator bit-length.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import traceback
from fractions import Fraction
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / "_work"

# Fixed for good: the pools, and so the stored checksums, derive from it.
POOL_SEED = 302101


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _int_bits(value: int) -> int:
    return abs(value).bit_length()


def max_bits(obj) -> int:
    """Largest numerator/denominator bit-length in a nested result."""
    if isinstance(obj, bool) or obj is None:
        return 0
    if isinstance(obj, int):
        return _int_bits(obj)
    if isinstance(obj, Fraction):
        return max(_int_bits(obj.numerator), _int_bits(obj.denominator))
    if isinstance(obj, str):
        match = re.fullmatch(r"-?(\d+)/(\d+)", obj)
        return max(_int_bits(int(match[1])), _int_bits(int(match[2]))) if match else 0
    if isinstance(obj, dict):
        return max((max_bits(v) for v in obj.values()), default=0)
    if isinstance(obj, (list, tuple)):
        return max((max_bits(v) for v in obj), default=0)
    raise TypeError(f"unexpected result type {type(obj).__name__}")


def _blocks(rng: random.Random, items):
    """Endless sequence of seeded permutations of ``items``."""
    items = list(items)
    while True:
        block = items[:]
        rng.shuffle(block)
        yield from block


def _symmetric_tensor(rng: random.Random, rho: int, low: int, high: int, swap01: bool = False):
    """Random fully symmetric rho^3 integer tensor.

    With ``swap01`` the tensor is also invariant under exchanging basis
    classes 0 and 1, so the swap is a lattice isometry of any Gram matrix
    built from it with a swap-invariant section class.
    """
    values = {}
    for i in range(rho):
        for j in range(i, rho):
            for k in range(j, rho):
                values[(i, j, k)] = rng.randint(low, high)

    def swapped(key):
        return tuple(sorted({0: 1, 1: 0}.get(x, x) for x in key))

    def value(i, j, k):
        key = tuple(sorted((i, j, k)))
        if swap01:
            key = min(key, swapped(key))
        return values[key]

    return [[[value(i, j, k) for k in range(rho)] for j in range(rho)] for i in range(rho)]


def _scalar(value: Fraction):
    """A document scalar: JSON integer when integral, "p/q" string otherwise."""
    return value.numerator if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def _no_split() -> None:
    pass


def common_identities(lib) -> list[str]:
    """Identities that hold without stored data, cheap enough for every run."""
    failures = []
    quintic = lib.documents.load_manifold(lib.documents.builtin_path("quintic.json"))
    o = lib.chern.ChernData(ring=quintic, rank=1, c1=(0,), c2=(0,), c3=0)
    o1 = lib.chern.ChernData(ring=quintic, rank=1, c1=(1,), c2=(0,), c3=0)
    if lib.pairings.euler_chi(o, o1) != 5:
        failures.append("identity chi(O, O(1)) = 5 on the quintic failed")
    if lib.schubert.top_chern_sym_dual_tautological(5, 5) != 2875:
        failures.append("identity ctop(5, 5) = 2875 failed")
    if lib.schubert.top_chern_sym_dual_tautological(4, 3) != 27:
        failures.append("identity ctop(4, 3) = 27 failed")
    return failures


# --------------------------------------------------------------------------
# lattice: full reports on a few reused rho = 8 rings


class Lattice:
    name = "lattice"
    RHO = 8
    RINGS = 4  # even index: Calabi-Yau (c1 = 0); odd index: quasi-Fano
    PAIRS = 2  # bundle pairs per ring
    TRACE_PAIRS = 2  # per ring in a traced run

    def __init__(self, lib):
        self.lib = lib
        self.rings = [self._ring(r) for r in range(self.RINGS)]
        self.pairs = {
            (r, p): self._pair(r, p) for r in range(self.RINGS) for p in range(self.PAIRS)
        }
        self.twist_checks: dict[int, tuple] = {}  # ring -> (key, chi) of its first request

    def _ring(self, r: int):
        rng = random.Random(POOL_SEED * 1000 + r)
        rho = self.RHO
        calabi_yau = r % 2 == 0
        triple = _symmetric_tensor(rng, rho, -2, 3)
        c1 = [0] * rho if calabi_yau else [rng.randint(1, 2) for _ in range(rho)]
        c2 = [rng.randint(-12, 48) for _ in range(rho)]
        h12 = rng.randint(0, 60)
        chi_top = 2 * (rho - h12) if calabi_yau else rng.randint(-60, 60)
        ring = self.lib.rings.ThreefoldRing(
            name=f"lattice-{r}",
            basis_labels=tuple(f"e{i}" for i in range(rho)),
            triple=triple,
            c1_coords=c1,
            c2_values=c2,
            chi_top=chi_top,
            h12=h12,
        )
        section = c1 if not calabi_yau else [rng.randint(0, 2) for _ in range(rho)]
        return ring, self.lib.flags.FlagDescriptor(ring=ring, s_coords=section)

    def _pair(self, r: int, p: int):
        rng = random.Random((POOL_SEED * 1000 + r) * 1000 + p)
        ring, _ = self.rings[r]
        rho = self.RHO

        def bundle(label):
            return self.lib.chern.ChernData(
                ring=ring,
                rank=rng.randint(1, 3),
                c1=[rng.randint(-2, 2) for _ in range(rho)],
                c2=[rng.randint(-6, 6) for _ in range(rho)],
                c3=rng.randint(-4, 4),
                labels=(label,),
            )

        line = [rng.randint(-1, 1) for _ in range(rho)]
        return bundle("E1"), bundle("E2"), line

    def keys(self, seed: int):
        rng = random.Random(seed)
        per_ring = [_blocks(random.Random(rng.random()), range(self.PAIRS)) for _ in self.rings]
        for r in _blocks(rng, range(self.RINGS)):
            yield f"{r}:{next(per_ring[r])}"

    def trace_keys(self, seed: int):
        keys = [f"{r}:{p}" for r in range(self.RINGS) for p in range(self.TRACE_PAIRS)]
        random.Random(seed).shuffle(keys)
        return keys

    def warm_keys(self):
        return [f"{r}:0" for r in range(self.RINGS)]

    def prepare(self, key: str):
        r, p = map(int, key.split(":"))
        e1, e2, line = self.pairs[(r, p)]
        return self.rings[r][1], e1, e2, line

    def call(self, request, split=_no_split):
        flag, e1, e2, line = request
        pairings, chern = self.lib.pairings, self.lib.chern
        chi = pairings.euler_chi_result(e1, e2)
        split()
        chi_parts = pairings.chi_split(e1, e2)
        split()
        m1, m2 = chern.mukai_vector(e1), chern.mukai_vector(e2)
        split()
        twisted = chern.twist_chern(e1, line)
        split()
        pairing = pairings.mukai_pairing_3fold(m1, m2)
        split()
        restricted = pairings.mukai_restrict(flag, e1)
        return {
            "chi": chi.value,
            "integrality_note": chi.integrality_note,
            "chi_split": chi_parts,
            "m1": _mukai(m1),
            "m2": _mukai(m2),
            "twist": (twisted.rank, twisted.c1, twisted.c2, twisted.c3),
            "pairing_3fold": pairing,
            "restrict": {
                "vector": _k3(restricted.vector),
                "delta": _graded(restricted.delta),
                "degree2_matches": restricted.degree2_matches,
                "degree4_matches": restricted.degree4_matches,
            },
        }

    def render(self, request, output) -> str:
        return json.dumps(_render(output, self.lib.rational.format_fraction), sort_keys=True)

    def check(self, key: str, request, output, golden) -> list[str]:
        failures = []
        if sha256(self.render(request, output)) != golden.get(key):
            failures.append("output checksum differs from golden.json")
        plus, minus = output["chi_split"]
        if plus + minus != output["chi"]:
            failures.append("chi_split does not sum back to chi")
        r = int(key.split(":")[0])
        if self.rings[r][0].is_calabi_yau and output["pairing_3fold"] != output["chi"]:
            failures.append("chi(E1, E2) != (m(E1), m(E2)) on a c1 = 0 ring")
        self.twist_checks.setdefault(r, (key, output["chi"]))
        return failures

    def post_checks(self) -> list[str]:
        """chi is unchanged when both bundles are twisted by the same line bundle."""
        failures = []
        chern = self.lib.chern
        for key, chi in self.twist_checks.values():
            _, e1, e2, line = self.prepare(key)
            twisted = self.lib.pairings.euler_chi(chern.twist_chern(e1, line), chern.twist_chern(e2, line))
            if twisted != chi:
                failures.append(f"{key}: chi changed under a simultaneous twist")
        return failures + common_identities(self.lib)

    def bits(self, output) -> int:
        return max_bits(output)


def _graded(x):
    return (x.a0, x.a2, x.a4, x.a6)


def _mukai(m):
    return {"graded": _graded(m.graded), "normalization": m.normalization}


def _k3(v):
    return (v.v0, v.v2, v.v4)


def _render(obj, format_fraction):
    if isinstance(obj, Fraction):
        return format_fraction(obj)
    if isinstance(obj, dict):
        return {k: _render(v, format_fraction) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_render(v, format_fraction) for v in obj]
    return obj


# --------------------------------------------------------------------------
# ingest: fresh small document sets, each ring built once and used once


class Ingest:
    name = "ingest"
    POOL = 64
    BLOCK = 16
    # Fixed share of invalid requests: 3 of every 16 (18.75 %).
    INVALID = {13: "chi-not-one", 14: "non-isometry", 15: "malformed-json"}
    TRACE_BLOCKS = 4
    # Document names have this fixed width, so parse-error columns do not
    # depend on the unique name a request carries.
    PLACEHOLDER = "@" * 16

    def __init__(self, lib):
        self.lib = lib
        self.pool = [self._documents(i) for i in range(self.POOL)]
        self.counter = 0

    def _documents(self, i: int) -> tuple[str, str, str]:
        rng = random.Random(POOL_SEED * 7919 + i)
        kind = self.INVALID.get(i % self.BLOCK, "valid")
        # The weights put p50 inside the rho = 1 cluster of latencies and p90
        # inside the rho = 3 one, not on an edge between two clusters.
        rho = rng.choices((1, 2, 3), weights=(12, 3, 5))[0]
        swap = rho >= 2 and rng.random() < 0.5
        triple = _symmetric_tensor(rng, rho, 0, 3, swap01=swap)
        c1 = [rng.randint(1, 3) for _ in range(rho)]
        if swap:
            c1[1] = c1[0]
        target = 24 + (rng.choice((-12, -6, 6, 24)) if kind == "chi-not-one" else 0)
        c2 = [Fraction(rng.randint(-4, 12)) for _ in range(rho - 1)]
        c2.append(Fraction(target - sum(a * b for a, b in zip(c1, c2)), c1[-1]))
        flag = {
            "name": self.PLACEHOLDER,
            "kind": "fano3",
            "rho": rho,
            "basis": [f"h{k}" for k in range(rho)],
            "triple": triple,
            "c1": c1,
            "c2_values": [_scalar(x) for x in c2],
            "chi_top": rng.randint(-40, 40),
            "h12": rng.randint(0, 30),
        }
        identity = [[int(a == b) for b in range(rho)] for a in range(rho)]
        if kind == "non-isometry":
            matrix = [[2 * x for x in row] for row in identity]
        else:
            choices = [identity, [[-x for x in row] for row in identity]]
            if swap:
                perm = [1, 0] + list(range(2, rho))
                choices.append([[int(perm[a] == b) for b in range(rho)] for a in range(rho)])
            matrix = rng.choice(choices)
        gluing = {"kind": "gluing", "flag_plus": flag, "flag_minus": flag, "matrix": matrix}
        bundle = {
            "manifold": self.PLACEHOLDER,
            "rank": rng.randint(1, 3),
            "c1": [rng.randint(-2, 2) for _ in range(rho)],
            "c2": [rng.choice((rng.randint(-4, 6), "1/2", "-3/2")) for _ in range(rho)],
            "c3": rng.randint(-3, 3),
            "labels": ["E"],
        }
        texts = [json.dumps(flag), json.dumps(bundle), json.dumps(gluing)]
        if kind == "malformed-json":
            which = rng.randrange(3)
            text = texts[which]
            texts[which] = text[: rng.randint(len(text) // 3, len(text) - 2)]
        return tuple(texts)

    def keys(self, seed: int):
        rng = random.Random(seed)
        slots = [
            _blocks(random.Random(rng.random()), range(s, self.POOL, self.BLOCK))
            for s in range(self.BLOCK)
        ]
        while True:
            for slot in slots:
                yield next(slot)

    def trace_keys(self, seed: int):
        keys = list(range(self.TRACE_BLOCKS * self.BLOCK))
        random.Random(seed).shuffle(keys)
        return keys

    def warm_keys(self):
        return list(range(self.BLOCK))

    def prepare(self, key: int):
        """The pool item's documents under a name no earlier request used."""
        self.counter += 1
        name = f"n{self.counter:015d}"
        return name, tuple(t.replace(self.PLACEHOLDER, name) for t in self.pool[key])

    def call(self, request, split=None) -> str:
        _, (flag_text, bundle_text, gluing_text) = request
        lib = self.lib
        documents, flags, moduli, pairings = lib.documents, lib.flags, lib.moduli, lib.pairings
        try:
            flag = documents.flag_from_document(parse_json(flag_text))
            bundle = documents.bundle_from_document(parse_json(bundle_text), flag)
            gluing = documents.gluing_from_document(parse_json(gluing_text))
            report = flags.validate_flag(flag)
            kernel = flags.obstruction_kernel(flag)
            joint = flags.joint_obstruction_kernel(gluing)
            vdim = moduli.vdim_flag(flag, bundle)
            restricted = pairings.mukai_restrict(flag, bundle)
            nonempty = moduli.mukai_nonempty(flag.k3, restricted.vector)
            chi = pairings.euler_chi_result(bundle, bundle)
        except (lib.errors.MukaiError, json.JSONDecodeError) as exc:
            return json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True)
        payload = {
            "valid": report.valid,
            "checks": [[c.name, c.passed, c.detail] for c in report.checks],
            "kernel": kernel,
            "joint_kernel": joint,
            "vdim_flag": vdim,
            "vector": restricted.vector,
            "delta": restricted.delta,
            "degree_matches": [restricted.degree2_matches, restricted.degree4_matches],
            "nonempty": [nonempty.nonempty, nonempty.square, nonempty.primitive, nonempty.note],
            "chi": chi.value,
            "integrality_note": chi.integrality_note,
        }
        return json.dumps(documents.jsonable(payload), sort_keys=True)

    def render(self, request, output: str) -> str:
        return output.replace(request[0], self.PLACEHOLDER)

    def check(self, key, request, output, golden) -> list[str]:
        if sha256(self.render(request, output)) != golden.get(str(key)):
            return ["output checksum differs from golden.json"]
        return []

    def post_checks(self) -> list[str]:
        return common_identities(self.lib)

    def bits(self, output: str) -> int:
        return max_bits(json.loads(output))


def parse_json(text: str):
    """Decode one document's JSON text (the documents layer's load step)."""
    return json.loads(text)


# --------------------------------------------------------------------------
# schubert: integer-only Grassmannian integrals


class Schubert:
    name = "schubert"
    N_VALUES = range(5, 33)

    def __init__(self, lib):
        self.lib = lib

    def keys(self, seed: int):
        yield from _blocks(random.Random(seed), self.N_VALUES)

    def trace_keys(self, seed: int):
        keys = list(self.N_VALUES)
        random.Random(seed).shuffle(keys)
        return keys

    def warm_keys(self):
        return list(self.N_VALUES)

    def prepare(self, key: int):
        return key

    def call(self, n: int, split=None):
        schubert = self.lib.schubert
        ctop = schubert.top_chern_sym_dual_tautological(n, 2 * n - 5)
        lines = schubert.integrate(schubert.sigma(n, 1) ** (2 * (n - 2)))
        return (n, ctop, lines)

    def render(self, request, output) -> str:
        return json.dumps(list(output))

    def check(self, key, request, output, golden) -> list[str]:
        failures = []
        if sha256(self.render(request, output)) != golden.get(str(key)):
            failures.append("output checksum differs from golden.json")
        if output[2] != catalan(key - 2):
            failures.append(f"integral of sigma1^{2 * (key - 2)} on G(2,{key}) is not Catalan({key - 2})")
        return failures

    def post_checks(self) -> list[str]:
        return common_identities(self.lib)

    def bits(self, output) -> int:
        return max_bits(output)


# --------------------------------------------------------------------------
# cli: one cold `python -m mukai` process per request


def cli_requests() -> list[tuple[str, list[str], int]]:
    """(id, argv, expected exit code): the README commands and the error paths."""
    readme = [
        ("lines-quintic", ["schubert", "lines-quintic"]),
        ("integrate", ["schubert", "integrate", "sigma1^4", "--n", "4"]),
        ("lines-octic", ["schubert", "lines-octic-double"]),
        ("chi", ["chi", "--manifold", "quintic.json", "--bundle", "quintic-o.json",
                 "--bundle2", "quintic-o1.json", "--split"]),
        ("restrict", ["restrict", "--flag", "cp3-quartic.json", "--bundle", "instanton1.json"]),
        ("vdim", ["vdim", "--flag", "cp3-quartic.json", "--bundle", "instanton1.json"]),
        ("validate-flag", ["validate-flag", "cp3-quartic.json"]),
        ("double", ["double", "--flag", "cp3-quartic.json"]),
        ("glue-check", ["glue-check", "--gluing", "cp3-double.json", "--bundle", "instanton1.json"]),
        ("deform-dims", ["deform-dims", "--flag", "cp3-quartic.json", "--h12-plus", "0",
                         "--h12-minus", "0"]),
        ("constants", ["constants", "quintic-lines"]),
    ]
    work = WORK.relative_to(ROOT).as_posix()
    glue = ["glue-check", "--gluing", "cp3-double.json", "--bundle", "instanton1.json"]
    requests = [(name, argv, 0) for name, argv in readme]
    requests += [(f"{name}.json", argv + ["--json"], 0) for name, argv in readme]
    requests += [
        ("glue-check-minus-identity", glue + ["--matrix=-identity"], 0),
        ("restrict-bad-chi-flag", ["restrict", "--flag", f"{work}/bad-chi.json",
                                   "--bundle", "instanton1.json"], 1),
        ("glue-check-non-isometry", glue + [f"--matrix={work}/scaled-matrix.json"], 1),
        ("restrict-malformed-flag", ["restrict", "--flag", f"{work}/malformed.json",
                                     "--bundle", "instanton1.json"], 2),
        ("integrate-bad-expression", ["schubert", "integrate", "sigma1^x", "--n", "4"], 64),
    ]
    return requests


def known_cli_defects() -> dict[str, tuple[list[str], int, str]]:
    """Requests that break the CLI contract today: id -> (argv, expected exit code, defect).

    They are not in the timed mix, where every request must succeed; each
    run sends each of them once, untimed, and its header says whether the
    defect is still there.  Once it is fixed, the request belongs in the mix.
    """
    work = WORK.relative_to(ROOT).as_posix()
    glue = ["glue-check", "--gluing", "cp3-double.json", "--bundle", "instanton1.json"]
    return {
        "glue-check-matrix-bad-json": (
            glue + [f"--matrix={work}/bad-matrix.json"], 2,
            "a --matrix file with bad JSON ends in a traceback and exit 1",
        ),
        "chi-missing-bundle": (
            ["chi", "--manifold", "quintic.json"], 64,
            "argparse usage errors print the usage synopsis after the one-line message",
        ),
    }

_STDERR_PREFIX = {1: "validation error: ", 2: "parse error: "}


def write_cli_documents() -> None:
    """Input files of the cli error paths, inside the benchmark's own directory."""
    WORK.mkdir(exist_ok=True)
    bad_chi = json.loads((ROOT / "src/mukai/data/cp3-quartic.json").read_text(encoding="utf-8"))
    bad_chi["c2_values"] = [7]
    files = {
        "bad-chi.json": json.dumps(bad_chi, indent=2) + "\n",
        "scaled-matrix.json": "[[2]]\n",
        "malformed.json": '{"name": "cp3-quartic", "kind": "fano3",\n "rho": 1,\n',
        "bad-matrix.json": "[[1,]]\n",
    }
    for name, text in files.items():
        (WORK / name).write_text(text, encoding="utf-8")


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Cli:
    name = "cli"

    def __init__(self, lib):
        self.lib = lib
        self.requests = {rid: (argv, code) for rid, argv, code in cli_requests()}
        self.defects = known_cli_defects()
        write_cli_documents()
        self.env = cli_env()

    def keys(self, seed: int):
        yield from _blocks(random.Random(seed), list(self.requests))

    def trace_keys(self, seed: int):
        keys = list(self.requests)
        random.Random(seed).shuffle(keys)
        return keys

    def warm_keys(self):
        return ["lines-quintic"]

    def prepare(self, key: str):
        return self.requests[key][0]

    def call(self, argv, split=None):
        proc = subprocess.run(
            [sys.executable, "-m", "mukai", *argv],
            cwd=ROOT,
            env=self.env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def trace_call(self, argv):
        """The same request run in-process through ``mukai.cli.main``."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.lib.cli.main(list(argv))
            except Exception:  # an uncaught error ends the real process with exit 1
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    def probe_known_defects(self) -> list[dict]:
        """Send each known-defect request once and report whether it still fails."""
        report = []
        for key, (argv, expected, defect) in self.defects.items():
            problems = self._check_contract(self.call(argv), expected, None)
            report.append({"request": key, "defect": defect, "still_fails": bool(problems),
                           "problems": problems})
        return report

    def render(self, request, output) -> str:
        return json.dumps(list(output[:2]))  # stderr can hold absolute paths

    def check(self, key, request, output, golden) -> list[str]:
        return self._check_contract(output, self.requests[key][1], golden.get(key))

    @staticmethod
    def _check_contract(output, expected: int, golden_stdout) -> list[str]:
        code, stdout, stderr = output
        failures = []
        if code != expected:
            failures.append(f"exit code {code}, expected {expected}")
        if expected == 0:
            if stdout != golden_stdout:
                failures.append("stdout differs from golden.json")
            if stderr:
                failures.append("unexpected stderr on success")
        else:
            if stdout:
                failures.append("stdout is not empty on failure")
            lines = stderr.splitlines()
            if len(lines) != 1 or not stderr.endswith("\n"):
                failures.append(f"stderr has {len(lines)} lines, expected one")
            elif not lines[0].startswith(_STDERR_PREFIX.get(expected, "")):
                failures.append("stderr does not start with the expected prefix")
        return failures

    def post_checks(self) -> list[str]:
        return common_identities(self.lib)

    def bits(self, output) -> int:
        return max((_int_bits(int(t)) for t in re.findall(r"\d+", output[1])), default=0)


WORKLOADS = {cls.name: cls for cls in (Lattice, Ingest, Schubert, Cli)}
