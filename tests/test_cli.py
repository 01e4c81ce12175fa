"""End-to-end command-line behavior: output shape, determinism, exit codes."""

import json
import os
import subprocess
import sys
from math import comb

import pytest

from mukai import cli
from mukai.cli import MAX_N, main
from mukai.documents import builtin_path, flag_to_document

from conftest import cp3_quartic_flag
from test_schubert import _catalan, reference_ctop


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# schubert commands print bare counts


def test_lines_quintic_stdout(capsys):
    code, out, _ = run(capsys, "schubert", "lines-quintic")
    assert code == 0
    assert out == "2875\n"


def test_lines_octic_double_stdout(capsys):
    code, out, _ = run(capsys, "schubert", "lines-octic-double")
    assert code == 0
    assert out == "12\n"


def test_integrate_expression(capsys):
    code, out, _ = run(capsys, "schubert", "integrate", "sigma1^4", "--n", "4")
    assert (code, out) == (0, "2\n")
    code, out, _ = run(capsys, "schubert", "integrate", "sigma2*sigma1,1", "--n", "4")
    assert (code, out) == (0, "0\n")
    code, out, _ = run(capsys, "schubert", "integrate", "sigma3,3", "--n", "5")
    assert (code, out) == (0, "1\n")


def test_schubert_pieri_terms(capsys):
    code, out, _ = run(capsys, "schubert", "pieri", "sigma1", "--n", "4", "--k", "1")
    assert code == 0
    assert "sigma(1,1)" in out and "sigma(2,0)" in out


def test_schubert_euler_and_ctop(capsys):
    code, out, _ = run(capsys, "schubert", "euler", "--n", "4")
    assert (code, out) == (0, "6\n")
    code, out, _ = run(capsys, "schubert", "ctop", "--n", "4", "--k", "3")
    assert (code, out) == (0, "27\n")


def test_schubert_four_lines(capsys):
    code, out, _ = run(capsys, "schubert", "four-lines")
    assert code == 0
    assert "total" in out and "2" in out


def test_bad_expression_is_usage_error(capsys):
    code, _, err = run(capsys, "schubert", "integrate", "sigma_bad", "--n", "4")
    assert code == 64
    assert "cannot parse" in err


@pytest.mark.parametrize(
    "argv, at_cap",
    [
        (["ctop", "--k", "123"], reference_ctop(64)),
        (["integrate", "sigma1^124"], _catalan(62)),
        (["pieri", "sigma1", "--k", "62"], None),
        (["euler"], comb(64, 2)),
    ],
    ids=["ctop", "integrate", "pieri", "euler"],
)
def test_schubert_n_is_capped(capsys, argv, at_cap):
    assert MAX_N == 64 and reference_ctop(5) == 2875
    code, out, err = run(capsys, "schubert", *argv, "--n", str(MAX_N))
    assert (code, err) == (0, "")
    if at_cap is not None:
        assert out == f"{at_cap}\n"
    code, out, err = run(capsys, "schubert", *argv, "--n", str(MAX_N + 1))
    assert (code, out) == (64, "")
    assert err == (
        f"mukai schubert {argv[0]}: argument --n: G(2,n) is supported up to n = 64, got 65\n"
    )


def test_a_refused_token_is_quoted_up_to_40_characters(capsys):
    _, _, err = run(capsys, "schubert", "integrate", "x" * 40, "--n", "5")
    assert err.startswith(f"cannot parse {'x' * 40!r}: expected")
    _, _, err = run(capsys, "schubert", "integrate", "x" * 41, "--n", "5")
    assert err.startswith(f"cannot parse {'x' * 40!r}... (41 characters): expected")


# --------------------------------------------------------------------------
# lattice commands against bundled documents


def test_mukai_text_output(capsys):
    code, out, _ = run(capsys, "mukai", "--manifold", "quintic.json", "--bundle", "quintic-o.json")
    assert code == 0
    assert "[1 | (0) | (25/12) | 0]" in out
    assert "cy3-full-todd" in out


def test_chi_with_split(capsys):
    code, out, _ = run(
        capsys,
        "chi",
        "--manifold",
        "quintic.json",
        "--bundle",
        "quintic-o.json",
        "--bundle2",
        "quintic-o1.json",
        "--split",
    )
    assert code == 0
    assert "chi        5" in out
    assert "chi_plus   0" in out
    assert "chi_minus  5" in out


def test_pair_threefold_and_k3(capsys):
    code, out, _ = run(
        capsys,
        "pair",
        "--manifold",
        "quintic.json",
        "--bundle",
        "quintic-o.json",
        "--bundle2",
        "quintic-o1.json",
    )
    assert code == 0
    assert "pairing  5" in out
    code, out, _ = run(
        capsys,
        "pair",
        "--flag",
        "cp3-quartic.json",
        "--bundle",
        "instanton1.json",
        "--bundle2",
        "instanton1.json",
    )
    assert code == 0
    assert "pairing  8" in out


def test_restrict_json_output(capsys):
    code, out, _ = run(
        capsys, "restrict", "--flag", "cp3-quartic.json", "--bundle", "instanton1.json", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["vector"] == {"v0": 2, "v2": [0], "v4": -2}
    assert payload["square"] == 8
    assert payload["degree2_matches"] is True


def test_vdim_flag_and_manifold(capsys):
    code, out, _ = run(capsys, "vdim", "--flag", "cp3-quartic.json", "--bundle", "instanton1.json")
    assert code == 0
    assert "vdim_flag          5" in out
    assert "vdim_k3            10" in out
    assert "doubling_identity  true" in out
    code, out, _ = run(capsys, "vdim", "--manifold", "quintic.json", "--bundle", "quintic-o.json")
    assert code == 0
    assert "vdim      0" in out


def test_vdim_notes_the_tangent_bundle_type(capsys, tmp_path):
    # (rank, c1, c2, c3) = (3, c1, c2, chi_top) of the quintic itself.
    bundle = tmp_path / "tangent.json"
    bundle.write_text('{"rank": 3, "c1": [0], "c2": [50], "c3": -200}', encoding="utf-8")
    argv = ["vdim", "--manifold", "quintic.json", "--bundle", str(bundle)]
    note = "tangent-bundle type: possibly obstructed/unobstructed deformations"
    assert run(capsys, *argv) == (
        0, f"manifold  quintic\nvdim      0\nchi_self  0\nnote      {note}\n", ""
    )
    assert run(capsys, *argv, "--json") == (
        0, f'{{"chi_self": 0, "manifold": "quintic", "note": "{note}", "vdim": 0}}\n', ""
    )


def test_twist_and_reflect(capsys):
    code, out, _ = run(
        capsys,
        "twist",
        "--manifold",
        "cp3-quartic.json",
        "--bundle",
        "instanton1.json",
        "--L",
        "1",
        "--k",
        "1",
    )
    assert code == 0
    assert "c1            (2)" in out
    assert "c2            (2)" in out
    code, out, _ = run(
        capsys,
        "reflect",
        "--manifold",
        "quintic.json",
        "--bundle",
        "quintic-o.json",
        "--bundle2",
        "quintic-o1.json",
    )
    assert code == 0
    assert "pairing_value  5" in out
    assert "[-6 | (-1) | (-15) | -35/12]" in out


def test_reflect_with_declared_h(capsys):
    code, out, _ = run(
        capsys,
        "reflect",
        "--manifold",
        "quintic.json",
        "--bundle",
        "quintic-o.json",
        "--bundle2",
        "quintic-o1.json",
        "--h",
        "-1",
    )
    assert code == 0
    assert "h-declared" in out
    assert "pairing_value  -1" in out


def test_validate_flag_exit_codes(capsys, tmp_path):
    code, out, _ = run(capsys, "validate-flag", "cp3-quartic.json")
    assert code == 0
    assert "valid             true" in out
    assert "gram              ((4))" in out
    path = tmp_path / "broken.json"
    doc = flag_to_document(cp3_quartic_flag())
    doc["c2_values"] = [0]
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "validate-flag", str(path))
    assert code == 1
    assert "chi(O_Y) = 0 != 1" in out


def test_double_and_deform_dims(capsys):
    code, out, _ = run(capsys, "double", "--flag", "cp3-quartic.json")
    assert code == 0
    assert "d_square                256" in out
    assert "smooth_total_space      false" in out
    assert "joint_kernel.dimension  1" in out
    code, out, _ = run(
        capsys,
        "deform-dims",
        "--flag",
        "cp3-quartic.json",
        "--h12-plus",
        "0",
        "--h12-minus",
        "0",
    )
    assert code == 0
    assert "dims         129" in out


@pytest.mark.parametrize(
    "plus, minus, message",
    [("-100", "0", "h12_plus must be a count >= 0"), ("0", "-1", "h12_minus must be a count >= 0")],
)
def test_deform_dims_refuses_a_negative_h12(capsys, plus, minus, message):
    argv = ["--flag", "cp3-quartic.json", "--h12-plus", plus, "--h12-minus", minus]
    assert run(capsys, "deform-dims", *argv) == (1, "", f"validation error: {message}\n")


@pytest.mark.parametrize("key, value", [("h12", -5), ("h1_TY", -3), ("h0_N", -7)])
def test_a_document_with_a_negative_count_is_one_validation_error(capsys, tmp_path, key, value):
    path = tmp_path / "flag.json"
    doc = json.loads(builtin_path("cp3-quartic.json").read_text(encoding="utf-8"))
    path.write_text(json.dumps({**doc, key: value}), encoding="utf-8")
    message = f"validation error: {path}.{key}: expected a count >= 0, got {value}\n"
    assert run(capsys, "validate-flag", str(path)) == (1, "", message)


def test_a_cy3_document_with_c1_nonzero_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "cy3.json"
    doc = json.loads(builtin_path("cp3-quartic.json").read_text(encoding="utf-8"))
    doc = {**{k: v for k, v in doc.items() if k not in ("s_coords", "h1_TY")}, "kind": "cy3"}
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["--manifold", str(path), "--bundle", "instanton1.json"]
    assert run(capsys, "vdim", *argv) == (2, "", f"parse error: {path}: a cy3 document must have c1 = 0\n")


def test_glue_check_paths(capsys):
    code, out, _ = run(
        capsys, "glue-check", "--gluing", "cp3-double.json", "--bundle", "instanton1.json"
    )
    assert code == 0
    assert "match    true" in out
    code, out, _ = run(
        capsys,
        "glue-check",
        "--flag",
        "cp3-quartic.json",
        "--bundle",
        "instanton1.json",
        "--matrix=-identity",
    )
    assert code == 0
    assert "match    true" in out  # (2,0,-2) is fixed by the sign flip


def test_constants_command(capsys):
    code, out, _ = run(capsys, "constants", "quintic-lines")
    assert code == 0
    assert "2875" in out and "Schubert" in out
    code, out, _ = run(capsys, "constants")
    assert code == 0
    assert "barth-nieto-quintic-nodes" in out
    code, _, err = run(capsys, "constants", "unknown-name")
    assert code == 1
    assert "no constant" in err


# --------------------------------------------------------------------------
# registry workflow


def test_cd_workflow(capsys, tmp_path):
    registry = str(tmp_path / "registry.json")
    code, out, _ = run(
        capsys, "cd", "seed", "--registry", registry, "--manifold", "quintic.json",
        "--kind", "line-bundle",
    )
    assert code == 0
    assert "quintic:line-bundle" in out
    code, out, _ = run(
        capsys, "cd", "seed", "--registry", registry, "--manifold", "quintic.json",
        "--kind", "skyscraper",
    )
    assert code == 0
    assert "-200" in out
    code, out, _ = run(
        capsys, "cd", "closure", "--registry", registry,
        "--parent", "quintic:line-bundle", "--parent2", "quintic:line-bundle",
        "--L", "1", "--k", "k",
    )
    assert code == 0
    assert "k > k0(" in out
    code, out, _ = run(
        capsys, "cd", "degeneration", "--registry", registry,
        "--flag", "cp3-quartic.json", "--bundle", "instanton1.json", "--chi", "6",
    )
    assert code == 0
    assert "degeneration" in out
    code, out, _ = run(capsys, "cd", "list", "--registry", registry)
    assert code == 0
    assert "count" in out and "4" in out
    key = "cp3-quartic:degeneration:(2, (0), -2)"
    code, out, _ = run(capsys, "cd", "mark-exceptional", "--registry", registry, "--key", key)
    assert code == 0
    assert "exceptional  true" in out
    code, out, _ = run(capsys, "cd", "show", "--registry", registry, "--key", key, "--json")
    assert code == 0
    assert json.loads(out)["exceptional"] is True
    code, _, err = run(capsys, "cd", "closure", "--registry", registry,
                       "--parent", "quintic:skyscraper", "--parent2", "quintic:line-bundle")
    assert code == 1
    assert "exceptional" in err


def test_a_string_exceptional_flag_cannot_license_a_closure(capsys, tmp_path):
    registry = tmp_path / "registry.json"
    entries = [
        {"key": key, "manifold": "quintic", "vector": "m(L)", "provenance": "line-bundle-rule",
         "value": 1, "exceptional": "false"}
        for key in ("a", "b")
    ]
    registry.write_text(json.dumps({"entries": entries}), encoding="utf-8")
    code, out, err = run(capsys, "cd", "closure", "--registry", str(registry),
                         "--parent", "a", "--parent2", "b", "--L", "1", "--k", "k")
    assert (code, out) == (2, "")
    assert err == f"parse error: {registry}.entries[0].exceptional: expected true or false\n"


# --------------------------------------------------------------------------
# determinism and error channels


def test_json_output_is_byte_identical(capsys):
    outputs = set()
    for _ in range(3):
        code, out, _ = run(
            capsys, "restrict", "--flag", "cp3-quartic.json", "--bundle", "instanton1.json",
            "--json",
        )
        assert code == 0
        outputs.add(out)
        json.loads(out)  # must stay valid JSON
    assert len(outputs) == 1


def test_parse_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    code, _, err = run(capsys, "mukai", "--manifold", str(bad), "--bundle", "instanton1.json")
    assert code == 2
    assert "parse error" in err
    code, _, err = run(
        capsys, "mukai", "--manifold", str(tmp_path / "absent.json"), "--bundle", "i.json"
    )
    assert code == 2


def test_document_that_is_not_utf8_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    code, out, err = run(capsys, "mukai", "--manifold", str(bad), "--bundle", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: {bad}: ") and err.count("\n") == 1 and err.endswith("\n")


def test_unusable_paths_are_one_error_line(capsys, tmp_path):
    long_name = "9" * 1000
    registry = str(tmp_path / "no-such-dir" / "registry.json")
    cases = [
        (["mukai", "--manifold", long_name, "--bundle", "x"], 2, "parse error: no bundled document named"),
        (["glue-check", "--flag", "cp3-quartic.json", "--bundle", "cp3-o1.json", "--matrix", long_name], 2,
         "parse error: cannot read matrix from"),
        (["cd", "seed", "--registry", registry, "--manifold", "quintic.json", "--kind", "skyscraper"], 2,
         f"parse error: cannot write {registry}: No such file or directory"),
        (["cd", "list", "--registry", str(tmp_path / long_name)], 2, "parse error: cannot read"),
        # An empty name is a name that matches nothing, not the current directory.
        (["cd", "seed", "--registry", registry, "--manifold", "", "--kind", "skyscraper"], 2,
         "parse error: no bundled document named ''; have ("),
        (["mukai", "--manifold", "quintic.json", "--bundle", ""], 2,
         "parse error: no bundled document named ''; have ("),
        (["chi", "--flag", "", "--bundle", "x", "--bundle2", "x"], 2,
         "parse error: no bundled document named ''; have ("),
        (["validate-flag", ""], 2, "parse error: no bundled document named ''; have ("),
        (["glue-check", "--flag", "cp3-quartic.json", "--bundle", "cp3-o1.json", "--matrix="], 2,
         "parse error: cannot read matrix from ''"),
        # Only the commands that take --manifold or --flag call an empty --manifold absent.
        (["mukai", "--manifold", "", "--bundle", "x"], 64, "a --manifold or --flag document is required"),
    ]
    for argv, expected, start in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (expected, ""), argv
        assert err.startswith(start) and err.count("\n") == 1, (argv, err)
    assert not (tmp_path / "no-such-dir").exists()


def test_validation_errors_exit_1(capsys):
    code, _, err = run(
        capsys, "mukai", "--manifold", "quintic.json", "--bundle", "instanton1.json"
    )
    assert code == 1
    assert "validation error" in err


@pytest.mark.parametrize("reference", [5, ["quintic"]])
def test_non_string_manifold_key_is_a_parse_error(capsys, tmp_path, reference):
    doc = json.loads(builtin_path("quintic-o.json").read_text(encoding="utf-8"))
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(dict(doc, manifold=reference)), encoding="utf-8")
    code, out, err = run(capsys, "mukai", "--manifold", "quintic.json", "--bundle", str(bundle))
    assert (code, out, err) == (2, "", f"parse error: {bundle}.manifold: expected a string\n")


def test_cli_import_loads_no_typing():
    # Start-up cost: `typing` alone takes a few ms to import; -S keeps site's imports out.
    probe = "import sys, mukai.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'typing'))"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=False,
                          env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def _huge_bundle(tmp_path):
    """A rank-1 bundle whose Mukai vector has denominators of about 4000 digits."""
    p, q = 10**999 + 7, 10**999 + 9
    path = tmp_path / "huge.json"
    document = {"manifold": "synthetic-rho2", "rank": 1, "c1": [f"1/{p}", f"1/{q}"],
                "c2": [0, 0], "c3": 0}
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("as_json", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("command", ["mukai", "twist"])
def test_a_result_too_long_to_print_is_one_error_line(capsys, tmp_path, command, as_json):
    argv = {
        "mukai": ["mukai", "--manifold", "synthetic-rho2.json", "--bundle", _huge_bundle(tmp_path)],
        "twist": ["twist", "--manifold", "quintic.json", "--bundle", "quintic-o.json",
                  "--L", "1", "--k", "7" * 4000],
    }[command]
    code, out, err = run(capsys, *argv, *as_json)
    assert (code, out) == (1, "")
    limit = sys.get_int_max_str_digits()
    assert err == f"validation error: a result has an integer of more than {limit} digits\n"


def test_any_other_value_error_still_raises(monkeypatch):
    def fail(payload, as_json):
        raise ValueError("not about integer digits")

    monkeypatch.setattr(cli, "_report", fail)
    with pytest.raises(ValueError, match="not about integer digits"):
        main(["schubert", "lines-quintic"])


@pytest.mark.parametrize("command", ["closure", "degeneration"])
def test_a_cd_value_past_1000_digits_is_refused_and_not_saved(capsys, tmp_path, command):
    registry = tmp_path / "registry.json"
    if command == "closure":
        entry = {"key": "a", "manifold": "quintic", "vector": "m(L)",
                 "provenance": "line-bundle-rule", "value": int("9" * 1000), "exceptional": True}
        registry.write_text(json.dumps({"entries": [entry]}), encoding="utf-8")
        before = registry.read_bytes()
        argv = ["--parent", "a", "--parent2", "a", "--k", "1"]
    else:
        argv = ["--flag", "cp3-quartic.json", "--bundle", "instanton1.json", "--chi", "8" * 1001]
    code, out, err = run(capsys, "cd", command, "--registry", str(registry), *argv)
    assert (code, out) == (1, "")
    assert err == "validation error: CD value has more than 1000 digits\n"
    if command == "closure":
        assert registry.read_bytes() == before
        assert run(capsys, "cd", "list", "--registry", str(registry))[0] == 0
    else:
        assert not registry.exists()


@pytest.mark.parametrize(
    "chi, message",
    [
        ("8" * 5000, "CD value has more than 1000 digits"),
        ("-" + "0" * 1001, "CD value has more than 1000 digits"),
        ("\u0666", "euler characteristic must be an integer or a symbolic name, got '\u0666'"),
        ("5_000", "euler characteristic must be an integer or a symbolic name, got '5_000'"),
        (" 6", "euler characteristic must be an integer or a symbolic name, got ' 6'"),
        ("6 ", "euler characteristic must be an integer or a symbolic name, got '6 '"),
        ("#" * 5000, f"euler characteristic must be an integer or a symbolic name, got {'#' * 40!r}... "
                     "(5000 characters)"),
    ],
    ids=["5000-digits", "1001-zeros", "arabic-indic-6", "underscore", "leading-space", "trailing-space",
         "5000-characters"],
)
def test_cd_degeneration_takes_a_sign_and_ascii_digits_as_an_integer(capsys, tmp_path, chi, message):
    registry = tmp_path / "registry.json"
    argv = ["--flag", "cp3-quartic.json", "--bundle", "instanton1.json", "--chi", chi]
    code, out, err = run(capsys, "cd", "degeneration", "--registry", str(registry), *argv)
    assert (code, out, err) == (1, "", f"validation error: {message}\n")
    assert not registry.exists()


@pytest.mark.parametrize("chi, value", [("+6", 6), ("-6", 6), ("0" * 1000, 0)])
def test_cd_degeneration_reads_a_signed_integer(capsys, tmp_path, chi, value):
    registry = str(tmp_path / "registry.json")
    argv = ["--flag", "cp3-quartic.json", "--bundle", "instanton1.json", "--chi", chi, "--json"]
    code, out, err = run(capsys, "cd", "degeneration", "--registry", registry, *argv)
    assert (code, err) == (0, "") and json.loads(out)["value"] == value


@pytest.mark.parametrize("length", [1000, 1001])
@pytest.mark.parametrize("command", ["degeneration", "closure"])
def test_registry_strings_are_bounded_at_1000_characters(capsys, tmp_path, command, length):
    # The symbol of `cd degeneration --chi` and the twist level of `cd closure --k`.
    registry = tmp_path / "registry.json"
    if command == "degeneration":
        text, what = "x" * length, "CD symbol"
        argv = ["--flag", "cp3-quartic.json", "--bundle", "instanton1.json", "--chi", text]
    else:
        run(capsys, "cd", "seed", "--registry", str(registry), "--manifold", "quintic.json", "--kind", "line-bundle")
        text, what = "k" * length, "twist level k"
        argv = ["--parent", "quintic:line-bundle", "--parent2", "quintic:line-bundle", "--L", "1", "--k", text]
    before = registry.read_bytes() if registry.exists() else None
    code, out, err = run(capsys, "cd", command, "--registry", str(registry), *argv)
    if length == 1000:
        assert (code, err) == (0, "") and text in registry.read_text(encoding="utf-8")
        return
    quoted = f"{text[:40]!r}... (1001 characters)"
    assert (code, out, err) == (1, "", f"validation error: {what} has more than 1000 characters, got {quoted}\n")
    assert (registry.read_bytes() if registry.exists() else None) == before


def test_the_registry_loader_refuses_a_symbol_past_the_bound(capsys, tmp_path):
    registry = tmp_path / "registry.json"
    entry = {"key": "a", "manifold": "quintic", "vector": "m(L)", "provenance": "degeneration",
             "value": None, "symbol": "s" * 1001}
    registry.write_text(json.dumps({"entries": [entry]}), encoding="utf-8")
    code, out, err = run(capsys, "cd", "list", "--registry", str(registry))
    quoted = f"{'s' * 40!r}... (1001 characters)"
    assert (code, out, err) == (1, "", f"validation error: CD symbol has more than 1000 characters, got {quoted}\n")


def test_usage_errors_exit_64(capsys):
    assert run(capsys, "no-such-command")[0] == 64
    assert run(capsys)[0] == 64
    assert run(capsys, "mukai")[0] == 64  # missing required --bundle
    assert run(capsys, "restrict", "--flag", "quintic.json", "--bundle", "quintic-o.json")[0] == 1


def test_usage_errors_print_one_line(capsys):
    for argv, first in (
        (["chi", "--manifold", "quintic.json"], "mukai chi: the following arguments are required"),
        (["schubert", "ctop", "--n", "x", "--k", "1"], "mukai schubert ctop: argument --n"),
        (["--bogus"], "mukai: unrecognized arguments: --bogus"),
        ([], "mukai: the following arguments are required: <command>"),
        (["cd"], "mukai cd: the following arguments are required: <cd-command>"),
        (["schubert", "--json"], "mukai schubert: the following arguments are required"),
        # Past 1000 digits a token is refused before int() sees it.
        (["schubert", "integrate", "sigma1^" + "9" * 5000, "--n", "5"], "cannot parse 'sigma1^9"),
        (["schubert", "integrate", "sigma" + "1" * 1001, "--n", "5"], "cannot parse 'sigma11"),
        # Only ASCII digits: int() would read these Arabic-Indic ones as 1 and 4.
        (["schubert", "integrate", "sigma\u0661^\u0664", "--n", "4"], "cannot parse 'sigma\u0661^\u0664'"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (64, ""), argv
        assert err.startswith(first) and err.count("\n") == 1 and err.endswith("\n"), err
        assert len(err.encode("utf-8")) < 200, argv


COMMAND_CHOICES = (
    "'mukai', 'chi', 'pair', 'restrict', 'vdim', 'twist', 'reflect', 'validate-flag', 'double', "
    "'glue-check', 'deform-dims', 'cd', 'constants', 'schubert'"
)
SCHUBERT_CHOICES = (
    "'lines-quintic', 'lines-octic-double', 'integrate', 'pieri', 'ctop', 'euler', 'four-lines'"
)


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ["nope"],
            f"mukai: argument <command>: invalid choice: 'nope' (choose from {COMMAND_CHOICES})\n",
        ),
        (
            ["schubert", "nope"],
            "mukai schubert: argument <schubert-command>: invalid choice: 'nope' "
            f"(choose from {SCHUBERT_CHOICES})\n",
        ),
        (
            ["cd", "seed", "--registry", "reg.json", "--manifold", "quintic.json", "--kind", "bad"],
            "mukai cd seed: argument --kind: invalid choice: 'bad' "
            "(choose from 'line-bundle', 'skyscraper')\n",
        ),
    ],
    ids=["command", "schubert-command", "cd-seed-kind"],
)
def test_an_invalid_choice_quotes_every_choice_on_every_python(capsys, argv, err):
    # Newer argparse releases (3.13.13) print the choices bare; the CLI keeps one wording.
    code, out, got = run(capsys, *argv)
    assert (code, out, got.encode("utf-8")) == (64, "", err.encode("utf-8"))


@pytest.mark.parametrize(
    "text", ["[[1,]]", "[[1.5]]", '{"a": 1}', "[1]", '[["1/0"]]', "", "[[1, 0], [0]]"]
)
def test_bad_matrix_file_is_a_parse_error(capsys, tmp_path, text):
    path = tmp_path / "matrix.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(
        capsys, "glue-check", "--gluing", "cp3-double.json", "--bundle", "instanton1.json",
        f"--matrix={path}",
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: {path}") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "change, code, first",
    [
        ({"matrix": [[1], []]}, 2, "parse error: "),
        ({"section_class": None, "matrix": [[1, 0]]}, 1, "validation error: gluing matrix size"),
    ],
    ids=["ragged", "wide-without-section-class"],
)
def test_a_bad_gluing_matrix_is_one_error_line(capsys, tmp_path, change, code, first):
    doc = json.loads(builtin_path("cp3-double.json").read_text(encoding="utf-8"))
    doc.update(change)
    doc = {key: value for key, value in doc.items() if value is not None}
    path = tmp_path / "gluing.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    got, out, err = run(capsys, "glue-check", "--gluing", str(path), "--bundle", "instanton1.json")
    assert (got, out) == (code, "")
    assert err.startswith(first) and err.count("\n") == 1 and err.endswith("\n"), err


def test_a_gluing_whose_flags_share_a_deeply_nested_key_is_checked(capsys, tmp_path):
    doc = json.loads(builtin_path("cp3-double.json").read_text(encoding="utf-8"))
    expected = run(capsys, "glue-check", "--gluing", "cp3-double.json", "--bundle", "instanton1.json")
    assert expected[0] == 0
    for side in ("flag_plus", "flag_minus"):
        doc[side]["extra"] = json.loads("[" * 600 + "]" * 600)
    path = tmp_path / "gluing.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(capsys, "glue-check", "--gluing", str(path), "--bundle", "instanton1.json") == expected


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "mukai", "schubert", "lines-quintic"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert proc.stdout == "2875\n"


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (
            ["chi", "--split"],
            "chi               61/12\n"
            "chi_plus          0\n"
            "chi_minus         61/12\n"
            "integrality_note  chi(structure-sheaf, hyperplane) = 61/12 is fractional on integral "
            "Chern data\n",
        ),
        (
            ["reflect"],
            "mode           chi\n"
            "pairing_value  61/12\n"
            "reflected      [-73/12 | (-1) | (-1481/96) | -71/24]\n",
        ),
    ],
    ids=["chi-split", "reflect"],
)
def test_fractional_chi_is_reported_on_stdout_only(tmp_path, argv, stdout):
    # With c2 = 51 the quintic's chi(O, O(1)) is 61/12: the note goes to
    # stdout, and no IntegralityWarning may reach stderr of a successful call.
    doc = json.loads(builtin_path("quintic.json").read_text(encoding="utf-8"))
    manifold = tmp_path / "quintic-c2-51.json"
    manifold.write_text(json.dumps(dict(doc, c2_values=[51])), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "mukai", argv[0], "--manifold", str(manifold),
         "--bundle", "quintic-o.json", "--bundle2", "quintic-o1.json", *argv[1:]],
        capture_output=True,
        text=True,
        check=False,
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", stdout)


def test_chi_prints_its_integrality_note(capsys, tmp_path):
    # A Calabi-Yau ring with H^3 = 1 and c2 = 0: chi(O, O(1)) = H^3/6 = 1/6.
    ring = {"name": "cube", "kind": "cy3", "rho": 1, "basis": ["h"], "triple": [[[1]]],
            "c1": [0], "c2_values": [0], "chi_top": 0, "h12": 1}
    for name, doc in [("cube.json", ring), ("o.json", {"rank": 1, "c1": [0], "c2": [0], "c3": 0}),
                      ("o1.json", {"rank": 1, "c1": [1], "c2": [0], "c3": 0})]:
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    argv = ["chi", "--manifold", str(tmp_path / "cube.json"),
            "--bundle", str(tmp_path / "o.json"), "--bundle2", str(tmp_path / "o1.json")]
    note = "chi(e1, e2) = 1/6 is fractional on integral Chern data"
    assert run(capsys, *argv) == (0, f"chi               1/6\nintegrality_note  {note}\n", "")
    assert run(capsys, *argv, "--json") == (
        0, f'{{"chi": "1/6", "integrality_note": "{note}"}}\n', ""
    )


@pytest.mark.parametrize("text", ["1e2", "0.5", " 3 "])
def test_decimal_string_in_a_document_is_a_parse_error(capsys, tmp_path, text):
    doc = json.loads(builtin_path("quintic-o.json").read_text(encoding="utf-8"))
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(dict(doc, c3=text)), encoding="utf-8")
    code, out, err = run(capsys, "mukai", "--manifold", "quintic.json", "--bundle", str(bundle))
    assert (code, out) == (2, "")
    assert err == f"parse error: {bundle}.c3: cannot read rational from {text!r}\n"


@pytest.mark.parametrize(
    "c3, reason",
    [
        ("7" * 4400, "invalid JSON: integer too long for the interpreter's int() digit limit"),
        ("7" * 1001, ".c3: integer has more than 1000 digits"),
    ],
    ids=["past-int-digit-limit", "past-digit-cap"],
)
def test_long_json_integer_in_a_document_is_a_parse_error(capsys, tmp_path, c3, reason):
    doc = json.loads(builtin_path("quintic-o.json").read_text(encoding="utf-8"))
    doc.pop("c3")
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(doc)[:-1] + f', "c3": {c3}}}', encoding="utf-8")
    code, out, err = run(capsys, "mukai", "--manifold", "quintic.json", "--bundle", str(bundle))
    assert (code, out) == (2, "")
    sep = "" if reason.startswith(".") else ": "
    assert err == f"parse error: {bundle}{sep}{reason}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["schubert", "ctop", "--n", "2", "--k", "2"],
        ["schubert", "ctop", "--n", "5", "--k", "600"],
        ["schubert", "integrate", "sigma1^1000000000", "--n", "5"],
        ["schubert", "integrate", "sigma0^1000000000", "--n", "5"],
    ],
    ids=["point-grassmannian", "rank-mismatch", "huge-power", "huge-power-of-the-unit"],
)
def test_degree_mismatches_print_zero(capsys, argv):
    assert run(capsys, *argv) == (0, "0\n", "")
