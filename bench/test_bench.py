"""Self-tests of the benchmark harness: output checks, self-time arithmetic, tracing.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import pytest  # noqa: E402

import scidkit  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from scidkit.search import SearchResult  # noqa: E402

SMALL_SPEC = ("spectrum2", 5, 4, 3, 3, 3, 1)


def run_units(units, tracer=None):
    runner = workloads.Runner(workloads.load_golden(), tracer)
    for unit in units:
        unit(runner)
    return runner


def test_genuine_outputs_pass():
    units = [
        workloads._construct_chain(SMALL_SPEC, how, bad, 0.5)
        for how, bad in zip(sorted(workloads.TAMPERS), workloads.MALFORMED)
    ]
    units += [workloads._exhaustive_unit(*workloads.EXHAUSTIVE_WARMUP),
              workloads._spectrum_unit(4, 3, 2, 3), workloads._bounds_unit(6, 4, 1)]
    runner = run_units(units)
    assert runner.failures == []
    assert len(runner.records) == 4 * 4 + 3


@pytest.mark.parametrize("old, new", [
    ('"sum":18', '"sum":19'),  # the claimed sum
    ('"basis":[[1,', '"basis":[[0,'),  # a member, sum unchanged
])
def test_tampered_certificate_is_rejected(monkeypatch, old, new):
    real = workloads.cli_call

    def corrupt(argv, stdin=None):
        code, out, err = real(argv, stdin)
        return (code, out.replace(old, new, 1), err) if argv[0] == "construct" else (code, out, err)

    monkeypatch.setattr(workloads, "cli_call", corrupt)
    runner = run_units([workloads._construct_chain(SMALL_SPEC, "report.sum", "truncated", 0.0)])
    keys = [key for key, _ in runner.failures]
    assert keys and keys[0].startswith("construct spectrum2")


def test_wrong_search_answers_are_rejected(monkeypatch):
    real = scidkit.search.max_sum_bruteforce
    good = real(3, 2, 1, scidkit.field_from_order(2), 4)
    members = good.witness.members
    swapped = scidkit.SubspaceFamily.from_members(members[1:] + members[:1])
    answers = [
        SearchResult(good.best_sum + 1, good.witness, good.explored, True),
        SearchResult(good.best_sum, swapped, good.explored, True),  # valid, but not the stored witness
    ]
    monkeypatch.setattr(scidkit.search, "max_sum_bruteforce", lambda *a, **k: answers.pop(0))
    unit = workloads._exhaustive_unit(*workloads.EXHAUSTIVE_WARMUP)
    runner = run_units([unit, unit])
    assert [err.split()[0] for _, err in runner.failures] == ["best_sum", "output"]


def test_self_times_on_a_hand_built_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]
    names = ["a", "b", "c", "d"]
    parents = [-1, 0, 0, 2]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    assert tracing.self_times(names, parents, starts, ends) == [3.0, 3.0, 3.0, 1.0]


def test_traced_runs_repeat_their_call_counts(tmp_path):
    units = [
        workloads._construct_chain(("sunflower", 6, 3, 2, 3, 3, 1), "family.row_order", "ragged_row", 0.7),
        workloads._exhaustive_unit(*workloads.EXHAUSTIVE_WARMUP),
        workloads._spectrum_unit(3, 2, 1, 2),
    ]
    run_units(units)  # fill lazy field tables first, as the benchmark's warm-up does
    original = scidkit.search.intersect
    counts, selfs = [], []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer:
            assert scidkit.search.intersect is not original
            assert run_units(units, tracer).failures == []
        counts.append(tracer.calls())
        selfs.append(tracer.self_by_name())
    assert scidkit.search.intersect is original
    assert counts[0] == counts[1]
    for name in ("cli.main", "construct.construct_sunflower", "scid.analyze", "linalg.intersect",
                 "linalg.Echelon.insert", "search.max_sum_bruteforce", "gf.FieldSpec.mul"):
        assert counts[0][name] > 0, name
    assert all(v >= 0 for v in selfs[0].values())
    tracer.write(tmp_path / "spans")
    table, rows = tracing.read_spans(tmp_path / "spans")
    assert len(rows) == len(tracer.names) and rows[0][0] in table
