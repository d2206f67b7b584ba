"""CLI: certificates, verification diffs, exit codes, output formats."""

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from importlib.metadata import EntryPoint
from itertools import product
from pathlib import Path

import pytest

import scidkit
from scidkit import cli, construct, linalg, scid, search
from scidkit.cli import canonical_dumps, main
from scidkit.construct import CONSTRUCTIONS
from scidkit.gf import FieldError, field_from_order

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_emits_canonical_json(capsys):
    code, out, _ = run_cli(capsys, "construct", "max", "--n", "3", "--k", "2", "--t", "1", "--q", "2")
    assert code == 0
    cert = json.loads(out)
    assert out.strip() == canonical_dumps(cert)
    assert cert["version"] == "1"
    assert cert["params"] == {"n": 3, "k": 2, "t": 1, "q": 2}
    assert cert["report"]["sum"] == 6
    assert cert["bounds"]["best"] == 6 and not cert["bounds"]["violation"]
    assert "V_1_2" in cert["trace"]["components"]
    assert cert["provenance"]["command"]


@pytest.mark.parametrize(
    "args",
    [
        ("construct", "max", "--n", "3", "--k", "2", "--t", "1", "--q", "2"),
        ("construct", "spectrum1", "--n", "3", "--k", "3", "--t", "2", "--q", "2", "--eps", "1"),
        ("construct", "spectrum2", "--n", "4", "--k", "3", "--t", "2", "--q", "2", "--eta", "3"),
        ("construct", "sunflower", "--n", "5", "--k", "3", "--t", "2", "--q", "2", "--eta", "3", "--eps", "1"),
    ],
)
def test_construct_check_passes(capsys, args):
    code, out, _ = run_cli(capsys, *args, "--check")
    assert code == 0
    assert json.loads(out)["report"]["is_scid"]


def test_construct_verify_roundtrip(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "construct", "spectrum2", "--n", "4", "--k", "3", "--t", "2", "--q", "2", "--eta", "3", "--eps", "1"
    )
    assert code == 0
    path = tmp_path / "cert.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    verdict = json.loads(out)
    assert verdict["ok"] is True and verdict["sum"] == 10


def test_verify_reads_stdin(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "construct", "max", "--n", "3", "--k", "2", "--t", "1", "--q", "2")
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, out, _ = run_cli(capsys, "verify", "-")
    assert code == 0 and json.loads(out)["ok"] is True


def test_tampered_member_fails_verification(capsys, tmp_path):
    _, out, _ = run_cli(capsys, "construct", "max", "--n", "3", "--k", "2", "--t", "1", "--q", "2")
    cert = json.loads(out)
    # a third member meeting the others in one common line: still a valid
    # family, but with a different report than the stored one
    cert["family"]["members"][2]["basis"] = [[1, 0, 0], [0, 1, 1]]
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(cert))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    diff = json.loads(out)
    assert diff["ok"] is False
    # the family no longer sums to what max promises at these parameters
    assert [m["path"] for m in diff["mismatches"]] == ["report", "params"]
    assert diff["mismatches"][0]["recomputed"]["sum"] == 4
    assert diff["mismatches"][1]["recomputed"] is None


def _verify_cert(capsys, monkeypatch, cert):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(cert)))
    code, out, _ = run_cli(capsys, "verify", "-")
    return code, json.loads(out)


def _set(cert, path, value):
    *head, last = path.split(".")
    for key in head:
        cert = cert[key]
    cert[last] = value


@pytest.mark.parametrize(
    "path,value,recomputed",
    [
        ("params.n", 99, {"n": 3, "k": 2, "t": 1, "q": 2}),
        ("params.q", 3, {"n": 3, "k": 2, "t": 1, "q": 2}),
        ("params.eps", 0, {"n": 3, "k": 2, "t": 1, "q": 2}),
        ("trace.parameters.k", 5, None),
        ("trace.parameters.eps", 0, None),
        ("trace.kind", "spectrum1", None),
        ("trace.kind", "cone", None),
    ],
)
def test_verify_checks_params_against_family_and_trace(capsys, monkeypatch, path, value, recomputed):
    _, out, _ = run_cli(capsys, "construct", "max", "--n", "3", "--k", "2", "--t", "1", "--q", "2")
    cert = json.loads(out)
    _set(cert, path, value)
    code, verdict = _verify_cert(capsys, monkeypatch, cert)
    assert code == 1 and verdict["ok"] is False
    assert [(m["path"], m["recomputed"]) for m in verdict["mismatches"]] == [("params", recomputed)]


def test_verify_checks_the_closed_form_of_a_consistent_rewrite(capsys, monkeypatch):
    """Another family, with its own report and bounds, breaks the sum that params promise."""
    args = ("construct", "spectrum2", "--n", "4", "--k", "3", "--t", "2", "--q", "2", "--eta", "3")
    _, out, _ = run_cli(capsys, *args, "--eps", "1")
    cert = json.loads(out)
    _, out, _ = run_cli(capsys, *args, "--eps", "0")
    other = json.loads(out)
    for key in ("family", "report", "bounds"):
        cert[key] = other[key]
    code, verdict = _verify_cert(capsys, monkeypatch, cert)
    assert code == 1
    assert [(m["path"], m["recomputed"]) for m in verdict["mismatches"]] == [("params", None)]
    cert["params"]["eps"] = cert["trace"]["parameters"]["eps"] = 0
    assert _verify_cert(capsys, monkeypatch, cert) == (0, {"ok": True, "sum": 11})


def test_verify_wants_integer_params(capsys, monkeypatch):
    args = ("construct", "spectrum1", "--n", "3", "--k", "3", "--t", "2", "--q", "2", "--eps", "1")
    _, out, _ = run_cli(capsys, *args)
    cert = json.loads(out)
    # true == 1 in Python, so only the type tells this apart from eps = 1
    cert["params"]["eps"] = cert["trace"]["parameters"]["eps"] = True
    code, verdict = _verify_cert(capsys, monkeypatch, cert)
    assert code == 1
    assert [(m["path"], m["recomputed"]) for m in verdict["mismatches"]] == [("params", None)]


def test_verify_leaves_the_trace_blocks_to_construct_check(capsys, monkeypatch):
    _, out, _ = run_cli(capsys, "construct", "max", "--n", "3", "--k", "2", "--t", "1", "--q", "2")
    cert = json.loads(out)
    blocks = cert["trace"]["components"]
    blocks["V_1_2"], blocks["U_1"] = blocks["U_1"], blocks["V_1_2"]
    assert _verify_cert(capsys, monkeypatch, cert) == (0, {"ok": True, "sum": 6})


def test_tampered_report_fails_verification(capsys, tmp_path):
    _, out, _ = run_cli(capsys, "construct", "max", "--n", "3", "--k", "2", "--t", "1", "--q", "2")
    cert = json.loads(out)
    cert["report"]["sum"] = 7
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(cert))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert any(m["path"] == "report" for m in json.loads(out)["mismatches"])


def test_non_canonical_basis_fails_verification(capsys, tmp_path):
    _, out, _ = run_cli(capsys, "construct", "max", "--n", "3", "--k", "2", "--t", "1", "--q", "2")
    cert = json.loads(out)
    member = cert["family"]["members"][0]
    member["basis"] = [member["basis"][1], member["basis"][0]]
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(cert))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert any(m["path"] == "family" for m in json.loads(out)["mismatches"])


def test_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"not json')
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2 and "unreadable" in err


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2 and out == "" and "unreadable" in err and "Traceback" not in err


def test_stored_values_nested_to_the_recursion_limit_never_escape(capsys, monkeypatch):
    """A stored report deep enough to load but not to print back exits 2, not with a traceback.

    How deep json nests depends on the interpreter: up to Python 3.11 it is
    bound by the recursion limit, from 3.12 by a limit of its own.  So the
    test first finds the deepest report that verify can load, then probes
    the depths just below and just above it.
    """
    _, out, _ = run_cli(capsys, "construct", "max", "--n", "3", "--k", "2", "--t", "1", "--q", "2")
    head = out.strip()[:-1].replace('"report":', '"stale":')

    def verify(depth):
        nested = "[" * depth + "]" * depth
        monkeypatch.setattr(sys, "stdin", io.StringIO(f'{head},"report":{nested}}}'))
        return run_cli(capsys, "verify", "-")

    loadable, unloadable = 1, 100_000
    while unloadable - loadable > 1:
        depth = (loadable + unloadable) // 2
        if "unreadable input" in verify(depth)[2]:
            unloadable = depth
        else:
            loadable = depth
    codes = set()
    for depth in range(loadable - 20, unloadable + 1):
        code, out, _ = verify(depth)
        assert (code, bool(out)) in {(1, True), (2, False)}, depth
        codes.add(code)
    assert codes == {1, 2}


def test_unrecognized_shape_exits_2(capsys, tmp_path):
    path = tmp_path / "odd.json"
    path.write_text('{"foo": 1}')
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2


def test_missing_keys_exit_2(capsys, tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"version": "1", "family": {"field": {"p": 2, "tower": []}}}))
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2 and "malformed" in err


def test_verify_bare_family(capsys, tmp_path):
    fam = {
        "field": {"p": 2, "tower": []},
        "ambient": 3,
        "members": [
            {"ambient": 3, "basis": [[1, 0, 0], [0, 1, 0]]},
            {"ambient": 3, "basis": [[1, 0, 0], [0, 0, 1]]},
            {"ambient": 3, "basis": [[0, 1, 0], [0, 0, 1]]},
        ],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(fam))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["report"]["sum"] == 6
    assert report["bounds"]["best"] == 6


def _f4_line_pair():
    return {
        "field": {"p": 2, "tower": [[1, 1, 1]]},
        "ambient": 2,
        "members": [{"ambient": 2, "basis": [[1, 2]]}, {"ambient": 2, "basis": [[0, 1]]}],
    }


@pytest.mark.parametrize(
    "slot,value",
    [
        (("field", "p"), 2.0),
        (("field", "tower", 0, 1), "1"),
        (("ambient",), 2.7),
        (("members", 0, "ambient"), "2"),
        (("members", 0, "basis", 0, 0), True),
        (("members", 1, "basis", 0, 1), 1.9),
    ],
    ids=["p", "modulus", "ambient", "member-ambient", "entry-bool", "entry-float"],
)
def test_verify_accepts_only_json_integers(capsys, monkeypatch, slot, value):
    family = _f4_line_pair()
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(family)))
    assert run_cli(capsys, "verify", "-")[0] == 0
    *path, last = slot
    target = family
    for key in path:
        target = target[key]
    target[last] = value
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(family)))
    code, out, err = run_cli(capsys, "verify", "-")
    assert (code, out) == (2, "") and "malformed input: expected an integer" in err


def test_verify_bare_family_not_scid_exits_1(capsys, tmp_path):
    fam = {
        "field": {"p": 2, "tower": []},
        "ambient": 4,
        "members": [
            {"ambient": 4, "basis": [[1, 0, 0, 0], [0, 1, 0, 0]]},
            {"ambient": 4, "basis": [[0, 1, 0, 0], [0, 0, 1, 0]]},
            {"ambient": 4, "basis": [[1, 0, 0, 0], [0, 0, 0, 1]]},
        ],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(fam))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert json.loads(out)["report"]["is_scid"] is False


def test_core_route_over_a_large_field_tests_pairs_by_rank(capsys, monkeypatch, tmp_path):
    """Over F_1000003 each image in V/C has about 10^12 points, so the rank route runs."""
    p = 1000003

    def e(i, c=1):
        return [c if j == i else 0 for j in range(8)]

    def plus(u, v):
        return [(x + y) % p for x, y in zip(u, v)]

    core = [1, 0, 0, 0, 0, 0, 0, p - 1]
    bases = [
        [core, e(1), e(2), e(3)],
        [core, e(4), e(5), e(6)],
        [core, plus(e(1), e(4)), plus(e(2), e(5, 123456)), plus(e(3), e(6))],
    ]
    family = {
        "field": {"p": p, "tower": []},
        "ambient": 8,
        "members": [{"ambient": 8, "basis": b} for b in bases],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    src = str(Path(scidkit.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from scidkit.cli import main; sys.exit(main())",
         "verify", str(path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=pythonpath), timeout=5,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)["report"]
    center = {"ambient": 8, "basis": [core]}
    assert report["pairwise_dims"] == [[4, 1, 1], [1, 4, 1], [1, 1, 4]]
    assert (report["is_scid"], report["t"], report["sum"]) == (True, 3, 8)
    assert report["sunflower_center"] == report["I"] == center
    assert report["S"]["basis"] == [core] + [e(i) for i in range(1, 7)]

    listed = []
    real = linalg.projective_points

    def counted(s):
        listed.append(s)
        return real(s)

    monkeypatch.setattr(linalg, "projective_points", counted)
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert (code, out, listed) == (0, proc.stdout, [])


def test_core_route_stays_linear_in_a_huge_ambient_space(tmp_path):
    """A 1-dim core in F_2^20000: a basis of the whole space would hold 4 * 10^8 entries."""
    d = 20000

    def e(*cols):
        return [int(j in cols) for j in range(d)]

    core = e(0, d - 1)
    family = {
        "field": {"p": 2, "tower": []},
        "ambient": d,
        "members": [{"ambient": d, "basis": [core, e(i)]} for i in (1, 2, 3)],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    src = str(Path(scidkit.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from scidkit.cli import main; sys.exit(main())",
         "verify", str(path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=pythonpath), timeout=5,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)["report"]
    assert report["pairwise_dims"] == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    assert (report["is_scid"], report["t"], report["sum"]) == (True, 1, 5)
    assert report["sunflower_center"] == report["I"] == {"ambient": d, "basis": [core]}


def test_precondition_violation_exits_2(capsys):
    code, _, err = run_cli(capsys, "construct", "max", "--n", "4", "--k", "2", "--t", "1", "--q", "2")
    assert code == 2
    assert "(n-1)(k-t) <= k" in err


@pytest.mark.parametrize(
    "args, message",
    [
        (("max", "--n", "3", "--k", "2", "--t", "1", "--q", "2", "--eps", "1", "--check"),
         "max takes no --eps"),
        (("spectrum1", "--n", "3", "--k", "3", "--t", "2", "--q", "2", "--eps", "1", "--eta", "5"),
         "spectrum1 takes no --eta"),
    ],
)
def test_construct_rejects_flags_the_kind_does_not_take(capsys, args, message):
    code, out, err = run_cli(capsys, "construct", *args)
    assert code == 2
    assert out == ""
    assert err == f"precondition violated: {message}\n"


def test_bad_field_order_exits_2(capsys):
    code, _, err = run_cli(capsys, "construct", "max", "--n", "3", "--k", "2", "--t", "1", "--q", "6")
    assert code == 2


def test_bounds_text(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "4", "--k", "2", "--t", "1")
    assert code == 0
    lines = dict(line.split(None, 1) for line in out.strip().splitlines())
    assert lines["general"] == "8" and lines["pair3"] == "-"
    assert lines["refined"] == "7" and lines["best"] == "7"
    assert lines["sharp"] == "unknown"


def test_bounds_json(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "3", "--k", "2", "--t", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["best"] == 6 and data["sharp"] == "yes"


def test_spectrum_json_contiguous(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--n", "4", "--k", "3", "--t", "2", "--q", "2", "--json")
    assert code == 0
    data = json.loads(out)
    sums = [e["sum"] for e in data["achieved"]]
    assert sums == [12, 11, 10, 9, 8, 7, 6]
    assert data["gaps"] == []
    assert data["best_bound"] == 12 and data["sharp"] == "yes"


def test_spectrum_small_case(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--n", "3", "--k", "2", "--t", "1", "--q", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert [e["sum"] for e in data["achieved"]] == [6, 5, 4]
    assert data["achieved"][0]["kind"] == "max"
    assert data["gaps"] == []


def test_spectrum_text_lists_conditions(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--n", "3", "--k", "2", "--t", "1", "--q", "2")
    assert code == 0
    assert "(n-1)(k-t) <= k" in out
    assert "sunflower" in out


def test_spectrum_self_check_mismatch_exits_1(capsys, monkeypatch):
    wrong = replace(CONSTRUCTIONS["spectrum1"], closed_form=lambda n, k, t, eps: n * k - eps + 1)
    monkeypatch.setitem(CONSTRUCTIONS, "spectrum1", wrong)
    code, out, err = run_cli(capsys, "spectrum", "--n", "3", "--k", "2", "--t", "1", "--q", "2")
    assert code == 1
    assert out == ""
    assert "spectrum1 eta=None eps=1 sum=5 closed form=6" in err


# sha256 of the text stdout of the spectrum runs below, recorded before the
# rows were printed from each kind's params
SPECTRUM_TEXT_DIGEST = "c7709acdf3f05082d21c103f090f8819b73c6601232b9e0da27f403cf6cb0b3c"


def run_spectrum(capsys, n, k, t, q):
    return run_cli(capsys, "spectrum", "--n", str(n), "--k", str(k), "--t", str(t), "--q", str(q))


def test_spectrum_text_keeps_its_bytes(capsys):
    digest = hashlib.sha256()
    for q, n, k in product((2, 3), range(2, 6), range(1, 5)):
        for t in range(1, k + 1):
            code, out, err = run_spectrum(capsys, n, k, t, q)
            assert (code, err) == (0, ""), (n, k, t, q)
            digest.update(out.encode())
    assert digest.hexdigest() == SPECTRUM_TEXT_DIGEST


def test_spectrum_leaves_out_sunflowers_over_too_large_fields(capsys):
    # F_(q^t) above gf.MAX_EXTENSION_ORDER = 1024 is refused by the field
    # layer, so the spectrum must not try those sunflowers
    for n, k, t, q in ((3, 5, 5, 8), (3, 6, 6, 4), (3, 11, 11, 2)):
        code, out, err = run_spectrum(capsys, n, k, t, q)
        assert (code, err) == (0, "")
        assert [row.split()[1] for row in out.splitlines()[2:]] == ["max"]
    sunflower = CONSTRUCTIONS["sunflower"]
    for q, t in ((8, 4), (2, 11)):
        assert sunflower.settings(3, t, t, q) == []
        with pytest.raises(FieldError, match="too large"):
            sunflower.build(3, t, t, field_from_order(q), eta=1, eps=0)
    # at order exactly 1024 they stay; only the settings are listed here
    assert sunflower.settings(3, 10, 10, 2) and sunflower.settings(3, 5, 5, 4)


def test_search_cli_exhaustive(capsys):
    code, out, _ = run_cli(capsys, "search", "--n", "3", "--k", "2", "--t", "1", "--q", "2", "--d", "4")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["best_sum"] == 6
    assert data["result"]["exhaustive"] is True
    assert data["matches_bound"] is True and data["violation"] is False


def test_search_cli_stats_go_to_stderr_only(capsys):
    args = ("search", "--n", "4", "--k", "2", "--t", "1", "--q", "2", "--d", "4")
    code, plain_out, plain_err = run_cli(capsys, *args)
    assert code == 0 and plain_err == ""
    code, out, err = run_cli(capsys, *args, "--stats")
    assert code == 0
    drop = lambda text: {k: v for k, v in json.loads(text).items() if k != "provenance"}
    assert drop(out) == drop(plain_out)
    line, = err.splitlines()
    stats = json.loads(line)
    assert line == canonical_dumps(stats)
    assert set(stats) == {
        "nodes_per_depth", "prunes", "candidates", "rank_tests", "intersect_calls",
        "point_entries", "elapsed_s",
    }
    assert sum(stats["nodes_per_depth"].values()) == json.loads(out)["result"]["explored"]
    assert set(stats["nodes_per_depth"]) == {"2", "3", "4"}
    assert set(stats["prunes"]) == {"bound", "optimism"}


def test_provenance_names_the_arguments_main_was_given(capsys):
    args = ["construct", "max", "--n", "3", "--k", "2", "--t", "1", "--q", "2"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    provenance = json.loads(out)["provenance"]
    assert provenance["command"] == "scidkit " + " ".join(args)
    assert provenance["scidkit_version"] == scidkit.__version__
    assert provenance["python_version"] == "%d.%d.%d" % sys.version_info[:3]


def test_search_cli_random_reproducible(capsys):
    args = ("search", "--n", "3", "--k", "2", "--t", "1", "--q", "2", "--d", "4", "--random", "--seed", "9", "--iters", "30")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["result"] == r2["result"]
    assert r1["result"]["exhaustive"] is False
    assert r1["provenance"]["seed"] == 9


def test_console_script_entry_point():
    """The declared ``scidkit`` console script resolves and works as a command.

    A checkout has no generated wrapper, so the ``[project.scripts]`` entry is
    resolved the way installers resolve it and called in a fresh process the
    way the generated wrapper calls it.  An installed ``scidkit`` on PATH is
    run as well.  The entry is read from the file's text, as ``tomllib`` is
    not in the standard library before Python 3.11.
    """
    section, values = None, []
    for line in PYPROJECT.read_text(encoding="utf-8").splitlines():
        key, _, rest = line.partition("=")
        if line.startswith("["):
            section = line.strip()
        elif section == "[project.scripts]" and key.strip() == "scidkit":
            values.append(rest.strip().strip('"'))
    assert len(values) == 1, values
    value = values[0]
    assert callable(EntryPoint("scidkit", value, "console_scripts").load())

    wrapper = (
        "import sys; from importlib.metadata import EntryPoint; "
        f"sys.exit(EntryPoint('scidkit', {value!r}, 'console_scripts').load()())"
    )
    src = str(Path(scidkit.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    commands = [([sys.executable, "-c", wrapper], dict(os.environ, PYTHONPATH=pythonpath))]
    installed = shutil.which("scidkit")
    if installed:
        commands.append(([installed], None))

    for command, env in commands:
        proc = subprocess.run(
            [*command, "bounds", "--n", "3", "--k", "2", "--t", "1", "--json"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["best"] == 6


def test_each_pair_is_intersected_once(capsys, monkeypatch):
    calls = []
    real = linalg.intersect

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    # construct no longer imports intersect; raising=False counts it again if it ever does
    for module in (linalg, scid, construct, search):
        monkeypatch.setattr(module, "intersect", counted, raising=False)
    # a sunflower's first pair gives its center, and the rest meet only there modulo it
    code, cert, _ = run_cli(
        capsys, "construct", "sunflower", "--n", "20", "--k", "4", "--t", "2", "--q", "2",
        "--eta", "17", "--check",
    )
    assert code == 0 and len(calls) == 1
    calls.clear()
    monkeypatch.setattr(sys, "stdin", io.StringIO(cert))
    code, out, _ = run_cli(capsys, "verify", "-")
    assert code == 0 and json.loads(out)["ok"] is True and len(calls) == 1
    # no common core: analyze intersects each of the 15 pairs, condition 1 none
    calls.clear()
    code, _, _ = run_cli(
        capsys, "construct", "max", "--n", "6", "--k", "5", "--t", "4", "--q", "2", "--check",
    )
    assert code == 0 and len(calls) == 15
    calls.clear()
    family, _ = construct.construct_max(6, 5, 4, field_from_order(2))
    construct.derive_max_components(family)
    assert len(calls) == 15  # the pairs; each U_i's span of V_ij already lies in member i
    # the random search rejects by rank; only analyze of a completed family intersects,
    # once for a sunflower and once per pair otherwise
    calls.clear()
    per_family = []
    real_analyze = search.analyze

    def wrapped(family):
        before = len(calls)
        report = real_analyze(family)
        per_family.append((len(calls) - before, report.sunflower_center is not None))
        return report

    monkeypatch.setattr(search, "analyze", wrapped)
    res = search.random_scid_search(3, 2, 1, field_from_order(3), 4, seed=5, iterations=10)
    assert res.explored == len(per_family)
    assert {sunflower for _, sunflower in per_family} == {True, False}
    assert all(made == (1 if sunflower else 3) for made, sunflower in per_family)
    assert len(calls) == sum(made for made, _ in per_family)


def test_sunflower_pairs_are_found_by_shared_points(capsys, monkeypatch):
    """No pair of a sunflower is rank-tested: meeting_pairs lists points instead."""
    meets, copies = [], []
    real_meet, real_copy = linalg.meet_dim, linalg.Echelon.copy

    def counted_meet(a, b):
        meets.append(1)
        return real_meet(a, b)

    def counted_copy(self):
        copies.append(1)
        return real_copy(self)

    for module in (linalg, scid, construct, search):
        monkeypatch.setattr(module, "meet_dim", counted_meet)
    monkeypatch.setattr(linalg.Echelon, "copy", counted_copy)
    # both the spread precondition of the lift and analyze's pairs in V/C list points
    code, cert, _ = run_cli(
        capsys, "construct", "sunflower", "--n", "20", "--k", "4", "--t", "2", "--q", "2",
        "--eta", "17", "--check",
    )
    assert code == 0 and (len(meets), len(copies)) == (0, 0)
    monkeypatch.setattr(sys, "stdin", io.StringIO(cert))
    code, out, _ = run_cli(capsys, "verify", "-")
    assert code == 0 and json.loads(out)["ok"] is True and len(copies) == 0


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def _without_provenance(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return text
    if isinstance(data, dict):
        data.pop("provenance", None)
    return data


def test_reused_parser_matches_fresh_processes(capsys, monkeypatch, tmp_path):
    """In-process calls on the one parser give what a fresh process gives for each."""
    monkeypatch.setenv("COLUMNS", "80")
    cert = tmp_path / "cert.json"
    commands = [
        ("construct", "sunflower", "--n", "5", "--k", "3", "--t", "2", "--q", "2",
         "--eta", "3", "--eps", "1", "--check"),
        ("verify", str(cert)),
        ("bounds", "--n", "4", "--k", "2", "--t", "1"),
        ("construct", "max", "--n", "3", "--k", "2", "--t", "1"),  # argparse error: no --q
        ("search", "--n", "3", "--k", "2", "--t", "1", "--q", "2", "--d", "4"),
        ("spectrum", "--n", "3", "--k", "2", "--t", "1", "--q", "2", "--json"),
        ("construct", "max", "--n", "3", "--k", "2", "--t", "1", "--q", "3", "--check"),
        ("search", "--n", "3", "--k", "2", "--t", "1", "--q", "3", "--d", "4", "--random",
         "--seed", "4", "--iters", "5"),
        ("bounds", "--n", "5", "--k", "3", "--t", "2", "--json"),
        ("verify", str(cert)),
    ]
    in_process = []
    for args in commands:
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        if args[0] == "construct" and code == 0 and not cert.exists():
            cert.write_text(out)
        in_process.append((code, _without_provenance(out), err))

    src = str(Path(scidkit.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    entry = "import sys; from scidkit.cli import main; sys.exit(main())"
    for args, got in zip(commands, in_process):
        proc = subprocess.run(
            [sys.executable, "-c", entry, *args], capture_output=True, text=True, env=env
        )
        assert got == (proc.returncode, _without_provenance(proc.stdout), proc.stderr), args
    assert [code for code, _, _ in in_process] == [0, 0, 0, 2, 0, 0, 0, 0, 0, 0]


@pytest.mark.parametrize(
    "kind, args, build",
    [
        # t: a (3, 3, 2) max family meets pairwise in 1, not the asked 2; its sum is 9 = n*k
        ("max", ("--n", "3", "--k", "3", "--t", "1"),
         lambda n, k, t, field: construct.construct_max(n, k, t + 1, field)),
        # k: a (6, 4, 2) sunflower with eta = 2 sums to 12, as (6, 3, 2) with eta = 1 does
        ("sunflower", ("--n", "6", "--k", "3", "--t", "2", "--eta", "1"),
         lambda n, k, t, field, eta, eps:
             construct.construct_sunflower(n, k + 1, t, field, eta + 1, eps)),
    ],
)
def test_construct_check_rejects_the_wrong_pattern(capsys, monkeypatch, kind, args, build):
    monkeypatch.setitem(CONSTRUCTIONS, kind, replace(CONSTRUCTIONS[kind], build=build))
    code, out, err = run_cli(capsys, "construct", kind, *args, "--q", "2", "--check")
    cert = json.loads(out)
    assert cert["report"]["is_scid"] and not cert["bounds"]["violation"]
    assert code == 1
    # the sum matches the closed form, so only the pattern check can fail
    assert err == f"check failed: sum={cert['report']['sum']}, expected={cert['report']['sum']}\n"
