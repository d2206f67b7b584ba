"""CLI: certificates, verification diffs, exit codes, output formats."""

import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import scidkit
from scidkit.cli import canonical_dumps, main
from scidkit.construct import CONSTRUCTIONS

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
    assert [m["path"] for m in diff["mismatches"]] == ["report"]
    assert diff["mismatches"][0]["recomputed"]["sum"] == 4


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
    assert set(stats) == {"nodes_per_depth", "prunes", "candidates", "intersect_calls", "elapsed_s"}
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
    run as well.
    """
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"]["scidkit"]
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
