import hashlib
import json
import subprocess
import sys

import pytest

from polarlab import cli, gfcode, polarspace, projspace
from polarlab.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_REFUSED,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
    parse_config,
)
from polarlab.gf import field_of_order
from polarlab.projspace import ResourceError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_geometry_q42(capsys):
    code, out, _ = run(capsys, "geometry", "--family", "Q", "--n", "4",
                       "--q", "2")
    assert code == EXIT_OK
    assert "points: 15, lines: 15" in out


def test_geometry_hermitian_squares_q(capsys):
    code, out, _ = run(capsys, "geometry", "--family", "H", "--n", "5",
                       "--q", "2")
    assert code == EXIT_OK
    assert "points: 693" in out and "planes: 891" in out


def test_geometry_symplectic_beyond_pg3(capsys):
    code, out, _ = run(capsys, "geometry", "--family", "W", "--n", "5",
                       "--q", "3")
    assert code == EXIT_OK
    assert out == "points: 364, lines: 3640, planes: 1120\ngenerator dimension: 2\n"


def test_geometry_symplectic_even_n_is_a_usage_error(capsys):
    code, out, err = run(capsys, "geometry", "--family", "W", "--n", "4",
                         "--q", "3")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: symplectic space needs odd ambient dimension\n"


def test_geometry_bad_family(capsys):
    code, _, err = run(capsys, "geometry", "--family", "X", "--n", "4",
                       "--q", "2")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("args,with_out", [
    (("--family", "Q", "--n", "4", "--q", "2", "--k", "9"), True),
    (("--family", "Q", "--n", "4", "--q", "2", "--k", "9"), False),
    (("--family", "Q", "--n", "4", "--q", "2", "--k", "-1"), False),
    (("--family", "Qminus", "--n", "3", "--q", "2"), True),  # default k = 1
])
def test_geometry_bad_k_is_refused_before_output(capsys, tmp_path, args,
                                                 with_out):
    path = tmp_path / "geometry.json"
    out_args = ("--out", str(path)) if with_out else ()
    code, out, err = run(capsys, "geometry", *args, *out_args)
    assert code == EXIT_USAGE
    assert out == "" and "out of range" in err
    assert not path.exists()


@pytest.mark.parametrize("k_args", [("--k", "1"), ()])
def test_geometry_out_exports_the_requested_k(capsys, tmp_path, k_args):
    # Q+(5,2) has lines and planes: the summary of both levels must not
    # change which k is exported
    path = tmp_path / "geometry.json"
    code, out, _ = run(capsys, "geometry", "--family", "Qplus", "--n", "5",
                       "--q", "2", *k_args, "--out", str(path))
    assert code == EXIT_OK
    assert "lines: 105, planes: 30" in out
    assert json.loads(path.read_text())["geometry"]["k"] == 1
    want = gfcode.export_json(
        gfcode.geometry_payload(polarspace.get_space("Qplus", 5, 2), 1),
        str(tmp_path / "want.json"))
    assert f"sha256={want}" in out


def test_construct_two_reguli(capsys):
    code, out, _ = run(capsys, "construct", "two-reguli", "--q", "2")
    assert code == EXIT_OK
    assert "weight: 6 (predicted 6)" in out
    assert "verdict: PASS" in out


def test_construct_regulus_switch(capsys):
    code, out, _ = run(capsys, "construct", "regulus-switch", "--q", "4",
                       "--i", "2")
    assert code == EXIT_OK
    assert "weight: 336" in out and "PASS" in out


def test_construct_hermitian_cone_variant_alias(capsys):
    code, out, _ = run(capsys, "construct", "hermitian-pair", "--q", "2",
                       "--variant", "cone")
    assert code == EXIT_OK
    assert "weight: 24" in out


def test_construct_missing_required_flag(capsys):
    code, _, err = run(capsys, "construct", "regulus-switch", "--q", "4")
    assert code == EXIT_USAGE
    assert "--i is required" in err


@pytest.mark.parametrize("argv,flag", [
    (("two-reguli", "--q", "2", "--family", "H", "--n", "9"), "--family"),
    (("two-reguli", "--q", "2", "--n", "9"), "--n"),
    (("polar-pair", "--family", "Qplus", "--n", "2", "--q", "2", "--k", "3"),
     "--k"),
    (("regulus-switch", "--q", "4", "--i", "1", "--common-lines", "0"),
     "--common-lines"),
])
def test_construct_refuses_flags_it_does_not_take(capsys, tmp_path, argv, flag):
    out_path = tmp_path / "cw.json"
    code, out, err = run(capsys, "construct", *argv, "--out", str(out_path))
    assert code == EXIT_USAGE
    assert out == "" and not out_path.exists()
    assert err == f"polarlab construct {argv[0]}: takes no {flag}\n"


CONSTRUCT_USAGE = """\
usage: polarlab construct [-h] [--family FAMILY] [--n N] --q Q [--k K] [--i I]
                          [--alpha ALPHA] [--beta BETA] [--variant VARIANT]
                          [--flavor FLAVOR] [--common-lines COMMON_LINES]
                          [--orientation ORIENTATION] [--out OUT]
                          {complement-cone,complement-ovoid,disjoint-cones,hermitian-pair,polar-pair,regulus-combination,regulus-switch,two-pencils,two-reguli,wq-example}
"""


def test_construct_unknown_name(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, "construct", "bogus", "--q", "2")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == CONSTRUCT_USAGE + (
        "polarlab construct: error: argument name: invalid choice: 'bogus' "
        "(choose from 'complement-cone', 'complement-ovoid', 'disjoint-cones', "
        "'hermitian-pair', 'polar-pair', 'regulus-combination', "
        "'regulus-switch', 'two-pencils', 'two-reguli', 'wq-example')\n")


def test_construct_help_pinned(capsys, monkeypatch):
    # the construction names are read from the registry only when printed
    # or checked, and must print as a list of choices given at once would
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, "construct", "--help")
    assert code == EXIT_OK and err == ""
    assert out == CONSTRUCT_USAGE + """\

positional arguments:
  {complement-cone,complement-ovoid,disjoint-cones,hermitian-pair,polar-pair,regulus-combination,regulus-switch,two-pencils,two-reguli,wq-example}

options:
  -h, --help            show this help message and exit
  --family FAMILY
  --n N
  --q Q
  --k K
  --i I                 switch count
  --alpha ALPHA         nonzero symbol
  --beta BETA           nonzero symbol
  --variant VARIANT
  --flavor FLAVOR       removed-set flavor for complement-cone
  --common-lines COMMON_LINES
  --orientation ORIENTATION
  --out OUT             machine-readable output path
"""


# the modules that only `construct` needs
CONSTRUCTION_MODULES = ["polarlab.constructions", "polarlab.verify",
                        "polarlab.kleinmap"]


def _loaded_in_fresh_process(code: str, modules: list) -> list:
    """The modules among `modules` loaded after `code` runs in a fresh
    interpreter."""
    code += ("\nimport sys\n"
             f"print(*[m for m in {modules!r} if m in sys.modules])\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    return out.splitlines()[-1].split()


def test_cli_import_loads_no_construction_or_unused_stdlib_module():
    # numpy loads neither hashlib nor argparse; export and main import them
    modules = CONSTRUCTION_MODULES + ["hashlib", "argparse"]
    assert _loaded_in_fresh_process("import polarlab.cli", modules) == []


@pytest.mark.parametrize("argv", [
    ["scan", "--family", "Q", "--n", "4", "--q", "2"],
    ["geometry", "--family", "Q", "--n", "4", "--q", "2"],
    ["export", "alist", "--family", "Q", "--n", "4", "--q", "2", "--out"],
])
def test_commands_other_than_construct_load_no_construction_module(
        tmp_path, argv):
    if argv[-1] == "--out":
        argv = argv + [str(tmp_path / "code.alist")]
    code = f"from polarlab.cli import main\nassert main({argv!r}) == 0"
    assert _loaded_in_fresh_process(code, CONSTRUCTION_MODULES) == []


def test_construct_writes_codeword_json(capsys, tmp_path):
    out_path = tmp_path / "cw.json"
    code, out, _ = run(capsys, "construct", "two-pencils", "--q", "2",
                       "--out", str(out_path))
    assert code == EXIT_OK
    assert "sha256=" in out
    payload = json.loads(out_path.read_text())
    assert payload["schema"] == "polar-code-lab/v1"
    assert len(payload["codeword"]["support"]) == 8
    assert payload["meta"]["construction"] == "two-pencils"


# complements of the first elliptic and parabolic hyperplane sections, by
# the sha256 of their --out files
@pytest.mark.parametrize("argv,sha", [
    (["complement-ovoid", "--family", "Q", "--q", "16"],
     "7652a7994e2b413ec58463f863fc41b48de0070f89db96096fedb5417408388b"),
    (["complement-cone", "--family", "Qplus", "--n", "2", "--q", "8", "--k", "1",
      "--flavor", "parabolic"],
     "2352654975d1416640e35a87a07c265d605cce31b99abf163128ac54f7ff66e0"),
    (["complement-ovoid", "--family", "Q", "--q", "8"],
     "1ec8123c3535cb2696a00a112b2aff39ec6f6472293163e01be1f0f6b8829296"),
], ids=["Q-4-16", "Qplus-5-8", "Q-4-8"])
def test_hyperplane_section_complements_pinned(capsys, tmp_path, argv, sha):
    path = tmp_path / "cw.json"
    code, out, _ = run(capsys, "construct", *argv, "--out", str(path))
    assert code == EXIT_OK
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha
    assert f"sha256={sha}" in out


def test_parabolic_section_complement_over_budget_is_refused(capsys):
    # the section of Q+(5,16) is found among 1,118,481 hyperplanes a block
    # at a time; the supports of its 1,192,737 lines are then refused
    code, out, err = run(capsys, "construct", "complement-cone", "--family", "Qplus",
                         "--n", "2", "--q", "16", "--k", "1", "--flavor", "parabolic")
    assert code == EXIT_REFUSED
    assert out == ""
    assert err == ("refused: 1192737 singular 1-spaces of Qplus(5,16): supports needs "
                   "94287920 bytes, over the budget of 80000000\n")


def test_regulus_combination_over_budget_is_refused(capsys):
    # the adjacency of the 70,161 points of Q+(5,16), a 70,161-bit int per
    # point, is refused before it or the lines of PG(3,16) are formed
    code, out, err = run(capsys, "construct", "regulus-combination", "--q", "16",
                         "--common-lines", "0")
    assert code == EXIT_REFUSED
    assert out == ""
    assert err == ("refused: Qplus(5,16): adjacency needs 673891780 bytes, "
                   "over the budget of 80000000\n")


def test_scan_q42(capsys):
    code, out, _ = run(capsys, "scan", "--family", "Q", "--n", "4",
                       "--q", "2")
    assert code == EXIT_OK
    assert "mode: FULL" in out
    assert "min nonzero weight: 6" in out
    assert "max weight: 10" in out


def test_scan_window(capsys):
    code, out, _ = run(capsys, "scan", "--family", "Q", "--n", "4",
                       "--q", "2", "--window", "6", "6")
    assert code == EXIT_OK
    assert [ln for ln in out.splitlines() if ln.startswith("weight")] == [
        "weight 6: 10"]


def test_scan_window_keeps_the_extremes_of_the_code(capsys):
    code, out, _ = run(capsys, "scan", "--family", "Q", "--n", "4",
                       "--q", "2", "--window", "8", "10")
    assert code == EXIT_OK
    assert [ln for ln in out.splitlines() if ln.startswith("weight")] == [
        "weight 8: 15", "weight 10: 6"]
    assert "min nonzero weight: 6\n" in out  # d, below the window
    assert "max weight: 10\n" in out


def test_scan_window_keeps_the_bounds_of_a_partial_scan(capsys):
    code, out, _ = run(capsys, "scan", "--family", "Qplus", "--n", "7",
                       "--q", "2", "--k", "2", "--partial", "--window", "40",
                       "44")
    assert code == EXIT_OK
    assert "min nonzero weight <= 28 (upper bound on d)\n" in out
    assert "max weight >= 76 (lower bound)\n" in out


def test_scan_empty_window_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_incidence", lambda P, k: pytest.fail())
    code, out, err = run(capsys, "scan", "--family", "Q", "--n", "4",
                         "--q", "2", "--window", "10", "8")
    assert code == EXIT_USAGE
    assert out == ""
    assert "--window" in err


# codes of over 10^6 k-spaces, each refused by the byte budget of the
# k-space enumeration before it allocates
@pytest.mark.parametrize("family,n,q,k,refusal", [
    ("H", 7, 2, 1, "1519749 singular 1-spaces of H(7,4): point masks needs 2107727456"),
    ("H", 7, 2, 2, "3256605 singular 2-spaces of H(7,4): supports needs 138724862"),
    ("Qplus", 11, 2, 2,
     "7043355 singular 2-spaces of Qplus(11,2): supports needs 99845822"),
], ids=["H-7-2-k1", "H-7-2-k2", "Qplus-11-2-k2"])
def test_scan_over_budget_is_refused(capsys, family, n, q, k, refusal):
    code, out, err = run(capsys, "scan", "--family", family, "--n", str(n),
                         "--q", str(q), "--k", str(k))
    assert code == EXIT_REFUSED
    assert out == ""
    assert err == f"refused: {refusal} bytes, over the budget of 80000000\n"


def test_scan_partial_labels_bounds(capsys):
    code, out, _ = run(capsys, "scan", "--family", "Qplus", "--n", "7",
                       "--q", "2", "--k", "2", "--partial")
    assert code == EXIT_OK
    assert "mode: PARTIAL" in out
    assert "\nenumerated weight 28: 96\n" in out
    assert "\nweight " not in out
    assert "min nonzero weight <= 28 (upper bound on d)\n" in out
    assert "max weight >= 76 (lower bound)\n" in out
    assert "min nonzero weight:" not in out and "max weight:" not in out


def test_scan_refused_without_partial(capsys):
    code, _, err = run(capsys, "scan", "--family", "H", "--n", "5",
                       "--q", "2", "--k", "2")
    assert code == EXIT_REFUSED
    assert "refused" in err


def test_export_alist_header(capsys, tmp_path):
    path = tmp_path / "q42.alist"
    code, out, _ = run(capsys, "export", "alist", "--family", "Q", "--n",
                       "4", "--q", "2", "--out", str(path))
    assert code == EXIT_OK
    assert path.read_text().splitlines()[0] == "15 15"
    assert "sha256=" in out


def test_export_alist_of_a_nonbinary_code_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "q43.alist"
    code, out, err = run(capsys, "export", "alist", "--family", "Q", "--n", "4",
                         "--q", "3", "--out", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: alist export is defined for binary codes only\n"
    assert not path.exists()


def test_export_io_error(capsys):
    code, _, err = run(capsys, "export", "alist", "--family", "Q", "--n",
                       "4", "--q", "2", "--out", "/nonexistent/x.alist")
    assert code == EXIT_IO


def test_export_requires_out(capsys):
    code, _, err = run(capsys, "export", "alist", "--family", "Q", "--n",
                       "4", "--q", "2")
    assert code == EXIT_USAGE


def test_run_config_is_serializable():
    cfg = parse_config(["construct", "regulus-switch", "--q", "4", "--i",
                        "1"])
    data = json.loads(json.dumps(cfg.payload_fields(), sort_keys=True))
    assert "out" not in data
    assert data["construction"] == "regulus-switch"
    assert data["params"] == {"q": 4, "i": 1}


def test_same_config_same_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        run(capsys, "construct", "two-reguli", "--q", "2",
            "--out", str(path))
    assert a.read_bytes() == b.read_bytes()


def test_same_scan_same_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        run(capsys, "scan", "--family", "Q", "--n", "4", "--q", "2",
            "--out", str(path))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    ("geometry", "--family", "Qminus", "--n", "-1", "--q", "2"),
    ("geometry", "--family", "Qplus", "--n", "-1", "--q", "2"),
    ("construct", "polar-pair", "--family", "Qplus", "--n", "-1", "--q", "2"),
    ("construct", "regulus-combination", "--q", "2", "--common-lines", "0",
     "--alpha", "2"),
    ("construct", "complement-cone", "--family", "Qplus", "--n", "3", "--q", "2",
     "--k", "2", "--flavor", "bogus"),
    ("construct", "complement-cone", "--family", "Q", "--n", "3", "--q", "2",
     "--k", "1", "--flavor", "tangent"),
])
def test_bad_parameters_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_complement_cone_out_of_range_is_usage_error(capsys):
    code, out, err = run(capsys, "construct", "complement-cone", "--family", "Qplus",
                         "--n", "3", "--q", "2", "--k", "3")
    assert (code, out, err) == (EXIT_USAGE, "", "error: k=3 out of range for this family\n")


@pytest.mark.parametrize("n", ["0", "1"])
def test_polar_pair_zero_word_is_not_verified(capsys, n):
    code, out, _ = run(capsys, "construct", "polar-pair", "--family", "Qplus",
                       "--n", n, "--q", "2")
    assert code == EXIT_USAGE
    assert "PASS" not in out


def test_verdict_needs_weight_at_least_bound(capsys, monkeypatch):
    # the two-reguli word has weight 6; a bound above it must fail it
    monkeypatch.setattr(cli, "bound_min_weight_dual", lambda *args: 7)
    code, out, _ = run(capsys, "construct", "two-reguli", "--q", "2")
    assert code == EXIT_VERIFY
    assert "weight: 6 (predicted 6)" in out and "verdict: FAIL" in out


COMMON_LINES_WHY = ("distinct quadrics share only the lines of their "
                    "intersection, at most 2 of each ruling")


@pytest.mark.parametrize("argv,message", [
    (("geometry", "--family", "Q", "--n", "4", "--q", "1000000007"),
     "order 1000000007 exceeds desk-scale cap 65536"),
    *[(("construct", "regulus-combination", "--q", "3", "--common-lines", str(c)),
       f"common-lines count {c} outside 0..4: {COMMON_LINES_WHY}") for c in (-1, 5, 8)],
])
def test_hopeless_requests_are_usage_errors(capsys, argv, message):
    # refused before a divisor search over q and before the 10,530
    # quadrics of PG(3,3) are listed; 8 = 2(q+1) only a quadric shares with itself
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


def test_construct_search_without_outcome_fails(capsys):
    # the 280 hyperbolic quadrics of PG(3,2) share 0 to 3 lines pairwise
    code, out, err = run(capsys, "construct", "regulus-combination", "--q", "2",
                         "--common-lines", "4")
    assert code == EXIT_VERIFY
    assert out == "search outcome: no configuration found\n"
    assert err == ""


@pytest.mark.parametrize("error", [
    MemoryError("Unable to allocate 470. MiB for an array"),
    MemoryError(),
    ResourceError("theta(9,8) exceeds point cap"),
])
def test_resource_failures_are_refusals(capsys, monkeypatch, error):
    def refuse(*args):
        raise error

    monkeypatch.setattr(cli, "get_space", refuse)
    code, out, err = run(capsys, "geometry", "--family", "H", "--n", "5",
                         "--q", "3")
    assert code == EXIT_REFUSED
    assert out == ""
    assert err.startswith("refused: ") and err.count("\n") == 1


def test_geometry_over_budget_is_refused(capsys, monkeypatch):
    monkeypatch.setattr(cli, "get_space", lambda family, n, order:
                        polarspace.standard_polar_space(family, n, field_of_order(order)))
    monkeypatch.setattr(projspace, "BYTE_BUDGET", 8)
    code, out, err = run(capsys, "geometry", "--family", "Q", "--n", "4",
                         "--q", "2")
    assert code == EXIT_REFUSED
    assert out == ""
    assert err.startswith("refused: ") and err.count("\n") == 1
