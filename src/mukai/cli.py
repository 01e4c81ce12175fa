"""Command-line interface: deterministic reports over JSON documents.

Every subcommand reads JSON documents (bundled ones may be referenced by
bare file name), computes with exact rationals and prints either aligned
text or, with --json, a sorted-key JSON object.  Exit codes are stable:
0 success, 1 domain validation failure, 2 document parse failure, 64
usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from collections import namedtuple
from pathlib import Path

from . import documents, flags, moduli, pairings, schubert
from .chern import k3_mukai_vector, mukai_vector, twist_chern
from .errors import DocumentError, LatticeValidationError, MukaiError, _quoted
from .flags import FlagDescriptor
from .rational import MAX_DIGITS, as_vector, identity_matrix

__all__ = ["main"]


class UsageError(Exception):
    """Bad command line; maps to exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")

    def _check_value(self, action, value):
        """Refuse a value outside `choices` in one wording on every Python.

        argparse 3.10-3.13.0 quotes the choices and newer releases (3.13.13)
        print them bare; this always quotes: `invalid choice: 'x' (choose from 'a', 'b')`.
        """
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            message = f"invalid choice: {value!r} (choose from {choices})"
            raise argparse.ArgumentError(action, message)


# --------------------------------------------------------------------------
# output


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    return str(value)


def _flatten(payload: dict, prefix: str = ""):
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _flatten(value, f"{name}.")
        elif isinstance(value, (list, tuple)) and value and all(isinstance(v, dict) for v in value):
            for i, item in enumerate(value):
                yield from _flatten(item, f"{name}[{i}].")
        else:
            yield name, _fmt(value)


def _report(payload, as_json: bool) -> str:
    """A result as deterministic text: aligned rows or sorted JSON.

    A bare value (such as a count) prints bare in text mode, for script
    use, and as {"value": ...} in JSON.
    """
    if as_json:
        document = payload if isinstance(payload, dict) else {"value": payload}
        return json.dumps(documents.jsonable(document), sort_keys=True) + "\n"
    if not isinstance(payload, dict):
        return _fmt(payload) + "\n"
    rows = list(_flatten(payload))
    width = max((len(k) for k, _ in rows), default=0)
    return "".join(f"{key.ljust(width)}  {value}\n" for key, value in rows)


# --------------------------------------------------------------------------
# argument helpers


def _document_path(name: str) -> Path:
    # os.path.exists is False for '' (Path('') is '.') and for a name too long,
    # where Path.exists raises before 3.12.
    if os.path.exists(name):
        return Path(name)
    if "/" not in name and "\\" not in name:
        return documents.builtin_path(name)
    raise DocumentError(f"cannot read {name}: no such file")


def _manifold(args):
    source = args.manifold or args.flag
    if source is None:
        raise UsageError("a --manifold or --flag document is required")
    return documents.load_manifold(_document_path(source))


def _flag(args) -> FlagDescriptor:
    if args.flag is None:
        raise UsageError("this command needs a --flag document")
    manifold = documents.load_manifold(_document_path(args.flag))
    if not isinstance(manifold, FlagDescriptor):
        raise LatticeValidationError(
            f"{args.flag}: expected a flag (fano3) document, got a Calabi-Yau ring"
        )
    return manifold


def _bundle(args, manifold, attr: str = "bundle"):
    return documents.load_bundle(_document_path(getattr(args, attr)), manifold)


def _bundles(args, manifold):
    return _bundle(args, manifold), _bundle(args, manifold, "bundle2")


def _gluing(args) -> flags.GluingDescriptor:
    if args.gluing:
        return documents.load_gluing(_document_path(args.gluing))
    return flags.build_double(_flag(args))


def _registry(args, missing_ok: bool = False) -> moduli.CDRegistry:
    if not args.registry:
        raise UsageError("cd commands need --registry <path>")
    return documents.load_registry(args.registry, missing_ok=missing_ok)


def _coords(text: str) -> tuple[Fraction, ...]:
    try:
        return as_vector(text.split(","))
    except (ValueError, ZeroDivisionError, TypeError):
        raise UsageError(f"cannot read coordinates from {text!r}; expected e.g. 1,0 or 1/2") from None


def _matrix(text: str, rank: int):
    if text == "identity":
        return identity_matrix(rank)
    if text == "-identity":
        return tuple(tuple(-x for x in row) for row in identity_matrix(rank))
    if not os.path.exists(text):
        raise DocumentError(f"cannot read matrix from {text!r}")
    return documents.load_matrix(text)


# ASCII digits only: `\d` would take any Unicode digit, which int() reads too.
_DIGITS = rf"([0-9]{{1,{MAX_DIGITS}}})"
_SIGMA_RE = re.compile(rf"^sigma{_DIGITS}(?:,{_DIGITS})?(?:\^{_DIGITS})?$")
# An integer --chi, read as `rational.parse_rational` reads one: a sign and ASCII digits.
_INTEGER = re.compile(r"[+-]?([0-9]+)")


def _schubert_expr(args) -> schubert.SchubertElement:
    """Parse products like sigma1^4 or sigma2*sigma1,1 into an element."""
    element = schubert.sigma(args.n, 0)
    for token in args.expr.split("*"):
        match = _SIGMA_RE.match(token.strip())
        if not match:
            raise UsageError(
                f"cannot parse {_quoted(token)}: expected sigmaA, sigmaA,B or sigmaA^P (e.g. sigma1^4)"
            )
        a = int(match.group(1))
        b = int(match.group(2) or 0)
        power = int(match.group(3) or 1)
        element = element * (schubert.sigma(args.n, a, b) ** power)
    return element


# --------------------------------------------------------------------------
# handlers: parsed arguments -> payload (a dict, or a bare count)


def _mukai(args) -> dict:
    manifold = _manifold(args)
    e = _bundle(args, manifold)
    vector = mukai_vector(e)
    return {
        "manifold": manifold.name,
        "rank": e.rank,
        "mukai_vector": vector.graded,
        "normalization": vector.normalization,
        "integral": vector.is_integral,
    }


def _chi(args) -> dict:
    e1, e2 = _bundles(args, _manifold(args))
    result = pairings.euler_chi_result(e1, e2)
    payload = {"chi": result.value}
    if args.split:
        payload["chi_plus"], payload["chi_minus"] = pairings.chi_split(e1, e2)
    if result.integrality_note:
        payload["integrality_note"] = result.integrality_note
    return payload


def _pair(args) -> dict:
    if args.flag:
        flag = _flag(args)
        u, v = (k3_mukai_vector(flag, e) for e in _bundles(args, flag))
        pairing = pairings.mukai_pairing_k3(flag.k3, u, v)
        return {"lattice": "k3", "u": u, "v": v, "pairing": pairing}
    u, v = (mukai_vector(e) for e in _bundles(args, _manifold(args)))
    return {
        "lattice": "threefold",
        "u": u.graded,
        "v": v.graded,
        "pairing": pairings.mukai_pairing_3fold(u, v),
    }


def _restrict(args) -> dict:
    flag = _flag(args)
    result = pairings.mukai_restrict(flag, _bundle(args, flag))
    return {
        "flag": flag.name,
        "vector": result.vector,
        "square": pairings.mukai_pairing_k3(flag.k3, result.vector, result.vector),
        "degree2_matches": result.degree2_matches,
        "degree4_matches": result.degree4_matches,
        "diagnostic": result.note,
    }


def _vdim(args) -> dict:
    if args.flag:
        flag = _flag(args)
        e = _bundle(args, flag)
        vector = k3_mukai_vector(flag, e)
        flag_dim = moduli.vdim_flag(flag, e)
        k3_dim = moduli.vdim_k3(flag.k3, vector)
        return {
            "flag": flag.name,
            "vector": vector,
            "vdim_flag": flag_dim,
            "vdim_k3": k3_dim,
            "doubling_identity": k3_dim == 2 * flag_dim,
        }
    manifold = _manifold(args)
    if isinstance(manifold, FlagDescriptor):
        raise LatticeValidationError("use --flag for flag documents")
    report = moduli.vdim_cy3(manifold, _bundle(args, manifold))
    payload = {"manifold": manifold.name, "vdim": report.value, "chi_self": report.chi_self}
    if report.note:
        payload["note"] = report.note
    return payload


def _twist(args) -> dict:
    manifold = _manifold(args)
    twisted = twist_chern(_bundle(args, manifold), _coords(args.L), args.k)
    return {
        "manifold": manifold.name,
        "k": args.k,
        "rank": twisted.rank,
        "c1": twisted.c1,
        "c2": twisted.c2,
        "c3": twisted.c3,
        "mukai_vector": mukai_vector(twisted).graded,
    }


def _reflect(args) -> dict:
    e1, e2 = _bundles(args, _manifold(args))
    m, mp = mukai_vector(e1).graded, mukai_vector(e2).graded
    if args.h is not None:
        mode, value = "h-declared", Fraction(args.h)
    else:
        mode, value = "chi", pairings.euler_chi_result(e1, e2).value
    reflected = pairings.spherical_reflect(m, mp, value)
    return {"mode": mode, "pairing_value": value, "reflected": reflected}


def _validate_flag(args) -> tuple[dict, int]:
    doc = documents._read_json(_document_path(args.path))
    flag = documents.flag_from_document(doc, where=str(args.path))
    report = flags.validate_flag(flag)
    checks = [c.as_dict() for c in report.checks]
    payload = {"flag": flag.name, "valid": report.valid, "gram": flag.k3.gram, "checks": checks}
    return payload, 0 if report.valid else 1


def _double(args) -> dict:
    flag = _flag(args)
    double = flags.build_double(flag)
    kernel = flags.joint_obstruction_kernel(double)
    return {
        "flag": flag.name,
        "section_class_d": double.section_class_d,
        "d_square": double.d_square(),
        "smooth_total_space": flags.smooth_total_space(double),
        "joint_kernel": kernel.as_dict(),
    }


def _glue_check(args) -> dict:
    gluing = _gluing(args)
    e_plus = _bundle(args, gluing.flag_plus)
    e_minus = _bundle(args, gluing.flag_minus, "bundle2" if args.bundle2 else "bundle")
    v_plus = k3_mukai_vector(gluing.flag_plus, e_plus)
    v_minus = k3_mukai_vector(gluing.flag_minus, e_minus)
    matrix = gluing.matrix
    if args.matrix is not None:
        matrix = _matrix(args.matrix, gluing.flag_plus.ring.rho)
    match = pairings.gluing_match(gluing.flag_plus.k3, matrix, v_plus, v_minus)
    return {"v_plus": v_plus, "v_minus": v_minus, "match": match}


def _deform_dims(args) -> dict:
    result = flags.deformation_dims(_gluing(args), args.h12_plus, args.h12_minus, args.h0)
    return {
        "dims": result.value,
        "case": result.case,
        "h0_sections": result.h0_sections,
        "note": result.note,
    }


def _constants(args) -> dict:
    def value(c):
        return c.value if c.value is not None else "open"

    if args.name:
        c = moduli.BUILTIN_CONSTANTS.get(args.name)
        return {"name": c.name, "value": value(c), "citation": c.citation, "note": c.note}
    return {
        "constants": [
            {"name": c.name, "value": value(c), "citation": c.citation}
            for c in moduli.BUILTIN_CONSTANTS
        ]
    }


def _entry(entry: moduli.CDEntry) -> dict:
    return {
        "key": entry.key,
        "value": entry.value if entry.value is not None else entry.symbol,
        "provenance": entry.provenance,
        "exceptional": entry.exceptional,
        "constraint": entry.constraint,
        "sign_note": entry.sign_note,
    }


def _saved_entry(args, registry, entry: moduli.CDEntry) -> dict:
    """Write the updated registry back, then report the entry that changed."""
    documents.save_registry(args.registry, registry)
    return _entry(entry)


def _cd_seed(args) -> dict:
    registry = _registry(args, missing_ok=True)
    manifold = documents.load_manifold(_document_path(args.manifold))
    ring = manifold.ring if isinstance(manifold, FlagDescriptor) else manifold
    entry = moduli.cd_seed(registry, ring, args.kind)
    return _saved_entry(args, registry, entry)


def _cd_closure(args) -> dict:
    registry = _registry(args)
    parents = registry.get(args.parent), registry.get(args.parent2)
    entry = moduli.cd_closure(registry, *parents, _coords(args.L), args.k)
    return _saved_entry(args, registry, entry)


def _cd_degeneration(args) -> dict:
    registry = _registry(args, missing_ok=True)
    flag = _flag(args)
    e = _bundle(args, flag)
    chi, integer = args.chi, _INTEGER.fullmatch(args.chi)
    if integer:
        # As `CDEntry` refuses it, but before int(), which refuses more than 4300 digits itself.
        if len(integer.group(1)) > MAX_DIGITS:
            raise LatticeValidationError(f"CD value has more than {MAX_DIGITS} digits")
        chi = int(chi)
    return _saved_entry(args, registry, moduli.cd_degeneration(registry, flag, e, chi))


def _cd_mark(args) -> dict:
    registry = _registry(args)
    return _saved_entry(args, registry, registry.mark_exceptional(args.key))


def _cd_list(args) -> dict:
    registry = _registry(args)
    entries = [
        {"key": e.key, "value": e.display_value, "provenance": e.provenance}
        for e in registry.entries()
    ]
    return {"registry": str(args.registry), "count": len(registry), "entries": entries}


def _cd_save(args) -> dict:
    registry = _registry(args)
    documents.save_registry(args.registry, registry)
    return {"registry": str(args.registry), "count": len(registry), "saved": True}


def _pieri(args) -> dict:
    element = schubert.pieri_mult(_schubert_expr(args), args.k)
    terms = {f"sigma({a},{b})": coeff for (a, b), coeff in sorted(element.terms.items())}
    return {"n": args.n, "terms": terms}


def _four_lines(args) -> dict:
    note = schubert.four_lines_count()
    return {**note.as_dict(), "consistent": note.consistent}


# --------------------------------------------------------------------------
# the command table


# One subcommand: its arguments in order, and a handler (args -> payload, or
# (payload, exit code)) or nested commands.
Command = namedtuple("Command", "name help args handler commands", defaults=((), None, ()))


def _arg(name: str, **options):
    return name, options


def _req(name: str, **options):
    return name, {"required": True, **options}


_EITHER = (_arg("--manifold"), _arg("--flag"))
_BUNDLE = _req("--bundle")
_BUNDLES = (_BUNDLE, _req("--bundle2"))
_REGISTRY = _req("--registry")
# Largest n the schubert commands accept.  At the cap the slowest request, `integrate
# sigma1^124`, takes 13-22 ms (Python 3.11, one core of a shared host), growing about as n^2.2
# to n^2.6; ctop(64, 123) is a Catalan sum and takes under 1 ms.
MAX_N = 64


class _AtMostMaxN(argparse.Action):
    """Store --n, refusing an n above MAX_N as a usage error (exit 64)."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value > MAX_N:
            message = f"G(2,n) is supported up to n = {MAX_N}, got {value}"
            raise argparse.ArgumentError(self, message)
        setattr(namespace, self.dest, value)


_N = _req("--n", type=int, action=_AtMostMaxN)

COMMANDS = (
    Command("mukai", "Mukai vector of a bundle document", (*_EITHER, _BUNDLE), _mukai),
    Command(
        "chi", "Euler form of two bundle documents",
        (*_EITHER, *_BUNDLES,
         _arg("--split", action="store_true", help="also report (chi+, chi-)")),
        _chi,
    ),
    Command("pair", "Mukai pairing of two bundles (threefold or K3)", (*_EITHER, *_BUNDLES), _pair),
    Command("restrict", "restrict a Mukai vector to the K3 member", (_req("--flag"), _BUNDLE),
            _restrict),
    Command("vdim", "virtual moduli dimension (flag or Calabi-Yau)", (*_EITHER, _BUNDLE), _vdim),
    Command(
        "twist", "twist a bundle by a power of a line bundle",
        (*_EITHER, _BUNDLE, _req("--L", help="line bundle coordinates, e.g. 1 or 1,0"),
         _arg("--k", type=int, default=1)),
        _twist,
    ),
    Command(
        "reflect", "lattice reflection of one Mukai vector through another",
        (*_EITHER, *_BUNDLES,
         _arg("--h", type=int, help="declared h value (otherwise chi is computed)")),
        _reflect,
    ),
    Command("validate-flag", "check quasi-Fano flag axioms", (_arg("path"),), _validate_flag),
    Command("double", "double a flag along its K3 member", (_req("--flag"),), _double),
    Command(
        "glue-check", "match restricted vectors across a gluing",
        (_arg("--gluing"), _arg("--flag"), _BUNDLE, _arg("--bundle2"),
         _arg("--matrix", help="'identity', '-identity' or a JSON matrix file")),
        _glue_check,
    ),
    Command(
        "deform-dims", "deformation count of a smoothed gluing",
        (_arg("--gluing"), _arg("--flag"), _req("--h12-plus", type=int),
         _req("--h12-minus", type=int), _arg("--h0", type=int)),
        _deform_dims,
    ),
    Command("cd", "Casson-Donaldson registry operations", commands=(
        Command(
            "seed", "insert a canonical seed value",
            (_REGISTRY, _req("--manifold"), _req("--kind", choices=("line-bundle", "skyscraper"))),
            _cd_seed,
        ),
        Command(
            "closure", "product rule for twisted exceptional pairs",
            (_REGISTRY, _req("--parent"), _req("--parent2"), _arg("--L", default="1"),
             _arg("--k", default="k")),
            _cd_closure,
        ),
        Command(
            "degeneration", "record |chi| of a flag moduli model",
            (_REGISTRY, _req("--flag"), _BUNDLE, _req("--chi", help="integer or symbolic name")),
            _cd_degeneration,
        ),
        Command("mark-exceptional", "assert exceptional realizations for a key",
                (_REGISTRY, _req("--key")), _cd_mark),
        Command("list", "list all entries", (_REGISTRY,), _cd_list),
        Command("load", "load and display a registry file", (_REGISTRY,), _cd_list),
        Command("save", "rewrite a registry file canonically", (_REGISTRY,), _cd_save),
        Command("show", "show one entry", (_REGISTRY, _req("--key")),
                lambda args: _entry(_registry(args).get(args.key))),
    )),
    Command("constants", "named literature constants with citations", (_arg("name", nargs="?"),),
            _constants),
    Command("schubert", "Schubert calculus on G(2,n)", commands=(
        Command("lines-quintic", "lines on the quintic threefold (2875)",
                handler=lambda args: schubert.top_chern_sym_dual_tautological(5, 5)),
        Command("lines-octic-double", "lines on the octic double solid (12)",
                handler=lambda args: schubert.lines_on_octic_double()),
        Command("integrate", "integrate a product of Schubert classes",
                (_arg("expr", help="e.g. sigma1^4 or sigma2*sigma1,1"), _N),
                lambda args: schubert.integrate(_schubert_expr(args))),
        Command("pieri", "multiply an expression by sigma_k",
                (_arg("expr"), _N, _req("--k", type=int)), _pieri),
        Command("ctop", "integrate c_top(Sym^k S*) over G(2,n)", (_N, _req("--k", type=int)),
                lambda args: schubert.top_chern_sym_dual_tautological(args.n, args.k)),
        Command("euler", "Euler characteristic of G(2,n)", (_N,),
                lambda args: schubert.euler_char_g2n(args.n)),
        Command("four-lines", "lines meeting four general lines, two ways", handler=_four_lines),
    )),
)


def _missing(parser: _Parser, metavar: str):
    """Handler of a parser called without its subcommand.

    Not `required=True` on the subparsers: argparse would then report a
    missing subcommand before unrecognized arguments (`mukai --bogus`).
    """

    def handler(args):
        raise UsageError(f"{parser.prog}: the following arguments are required: {metavar}")

    return handler


def _add_commands(parser: _Parser, commands, metavar: str, common: _Parser, wanted) -> None:
    """Add `commands` as subcommands of `parser`, recursing into nested ones.

    Only commands whose name is in `wanted` get their arguments and nested
    commands.  argparse enters a subparser only for an argv token equal to
    its name, so the others are registered by name and help text alone:
    all that `--help` and an invalid choice show.
    """
    parser.set_defaults(handler=_missing(parser, metavar))
    sub = parser.add_subparsers(metavar=metavar)
    for command in commands:
        if command.name not in wanted:
            sub.add_parser(command.name, help=command.help, add_help=False)
            continue
        p = sub.add_parser(command.name, parents=[common], help=command.help)
        for name, options in command.args:
            p.add_argument(name, **options)
        if command.commands:
            _add_commands(p, command.commands, f"<{command.name}-command>", common, wanted)
        else:
            p.set_defaults(handler=command.handler)


def build_parser(argv) -> _Parser:
    """The command-line parser, with arguments only for what `argv` can reach."""
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a sorted-key JSON object")
    parser = _Parser(prog="mukai", description=__doc__)
    _add_commands(parser, COMMANDS, "<command>", common, set(argv))
    return parser


def main(argv=None) -> int:
    """Dispatch a command line; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv).parse_args(argv)
        result = args.handler(args)
        payload, code = result if isinstance(result, tuple) else (result, 0)
        report = _report(payload, args.json)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 64
    except DocumentError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except MukaiError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # str() of an int past Python's int-to-str limit
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        print(f"validation error: a result has an integer of more than {limit} digits",
              file=sys.stderr)
        return 1
    sys.stdout.write(report)
    return code
