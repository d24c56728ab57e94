"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

Tiny passes of every workload must pass their output checks, traced and
untraced outputs must be equal, and the statistics must follow their rules.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from measure import (Call, Checker, Outcome, Speed, Tally, execute, failed_fraction, percentile,
                     run_pass, tail, tail_percentile)
from spans import Tracer

W = run.load_workloads()
NAMES = [w["name"] for w in run.BENCHMARK["workloads"]]


@pytest.fixture
def workdir(tmp_path):
    return tmp_path / "work"


@pytest.mark.parametrize("name", NAMES)
def test_tiny_pass_is_correct(name, workdir):
    calls = W.BUILDERS[name](7, workdir, "timed", tiny=True)
    outcomes = run_pass(calls, Checker(), Speed())
    bad = [(o.label, o.status, o.detail) for o in outcomes if o.failed]
    assert calls and not bad


@pytest.mark.parametrize("name", NAMES)
def test_traced_outputs_equal_untraced(name, workdir):
    checker = Checker()
    untraced = run_pass(W.BUILDERS[name](3, workdir, "timed", tiny=True), checker, Speed())
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(W.BUILDERS[name](3, workdir, "inprocess", tiny=True), checker, Speed())
    finally:
        tracer.uninstall()
    assert tracer.spans
    assert [o.status for o in untraced] == ["ok"] * len(untraced)
    assert [o.status for o in traced] == ["ok"] * len(traced)


def test_changed_output_counts_as_wrong():
    outputs = iter([1, 1, 2])
    call = Call("c", lambda: next(outputs), lambda out: None, lambda out: out, 1.0)
    statuses = [o.status for o in run_pass([call, call, call], Checker(), Speed())]
    assert statuses == ["ok", "ok", "wrong"]


def test_uninstall_restores_every_binding():
    import tstar.search
    before = tstar.search.enumerate_block
    tracer = Tracer()
    tracer.install()
    assert tstar.search.enumerate_block is not before
    assert tstar.search.enumerate_block is tstar.core.enumerate_block
    tracer.uninstall()
    assert tstar.search.enumerate_block is before


def test_self_time_excludes_children():
    import tstar
    tracer = Tracer()
    tracer.install()
    try:
        ground = tstar.GroundSet((5, 5))
        tstar.search.check_block_maximum(ground, (2, 2), 2)
    finally:
        tracer.uninstall()
    groups = [s.group for s in tracer.spans]
    assert groups[0] == "search.report"
    assert {"core.enumerate", "search.max_t_intersecting", "verify.is_full_t_star"} <= set(groups)
    root = tracer.spans[0]
    own = tracer.self_ns()
    total = sum(own.values())
    assert total == root.end - root.start
    assert own["search.report"] < root.end - root.start


def test_frontier_instance_times_out_as_a_failed_call():
    call = W._solve_space_call("block", (9,), (4,), 1, 56, frontier=True)
    call.limit_s = 0.05
    ms, status, out = execute(call)
    assert status == "timeout" and 40 <= ms < 1000
    outcome = Checker().judge(call, ms, status, out)
    assert outcome.failed and outcome.status == "timeout"
    tally = Tally()
    tally.add([outcome])
    assert tally.failed == 1 and not tally.incorrect


def test_frontier_list_marks_exactly_the_frontier_calls(workdir):
    calls = W.BUILDERS["solve_space"](5, workdir, "timed")
    marked = {c.label.split(" #")[0] for c in calls if c.expected_failure}
    assert marked == {W.instance_key(*inst) for inst in W.FRONTIER}
    assert sum(c.expected_failure for c in calls) == len(W.FRONTIER)


def test_timed_out_call_is_not_run_again():
    runs = []

    def slow():
        runs.append(1)
        time.sleep(2)

    call = Call("slow", slow, lambda out: None, lambda out: out, 0.05, expected_failure=True)
    checker = Checker()
    first, again = run_pass([call], checker, Speed())[0], run_pass([call], checker, Speed())[0]
    assert len(runs) == 1
    assert first.status == again.status == "timeout" and again.ms == first.ms
    assert again.reused and not first.reused


def test_pool_timeout_makes_run_incorrect():
    call = W._solve_space_call("block", (9,), (4,), 1, 56)
    call.limit_s = 0.05
    tally = Tally()
    tally.add(run_pass([call], Checker(), Speed()))
    assert tally.failed == 1 and tally.incorrect


def test_raising_solve_call_makes_run_incorrect():
    call = W._solve_space_call("block", (6,), (3,), 1, 10)
    call.run = lambda: 1 // 0
    tally = Tally()
    tally.add(run_pass([call], Checker(), Speed()))
    assert tally.failed == 1
    assert tally.incorrect and "ZeroDivisionError" in tally.incorrect[0]
    # an exception fails the run even where a timeout would be expected
    call.expected_failure = True
    tally = Tally()
    tally.add(run_pass([call], Checker(), Speed()))
    assert tally.incorrect


def test_cli_error_exit_makes_run_incorrect_unless_known_defect(workdir):
    calls = W.BUILDERS["cli"](1, workdir, "inprocess")
    refused = W.CliResult(2, "", "error: usage\n", ())
    bound = next(c for c in calls if c.label.startswith("bound block"))
    star_shift = next(c for c in calls if c.label.startswith("verify star-shift"))
    assert [c.expected_failure for c in calls].count(True) == W.CLI_ROUNDS
    tally = Tally()
    tally.add([Checker().judge(star_shift, 1.0, "ok", refused)])
    assert tally.failed == 1 and not tally.incorrect
    tally.add([Checker().judge(bound, 1.0, "ok", refused)])
    assert tally.failed == 2 and len(tally.incorrect) == 1


def test_cli_exception_in_process_makes_run_incorrect(workdir, monkeypatch):
    import tstar.cli
    calls = W.BUILDERS["cli"](1, workdir, "inprocess")
    monkeypatch.setattr(tstar.cli, "main", lambda argv: 1 // 0)
    tally = Tally()
    tally.add(run_pass(calls[:1], Checker(), Speed()))
    assert tally.incorrect and tally.incorrect[0].startswith("raised")


def test_wrong_answer_is_caught():
    call = W._solve_space_call("block", (6,), (3,), 1, 11)
    outcome = run_pass([call], Checker(), Speed())[0]
    assert outcome.status == "wrong" and "pinned answer 11" in outcome.detail


def test_error_exit_counts_as_failed_call(workdir):
    calls = W.BUILDERS["cli"](1, workdir, "inprocess")
    star_shift = next(c for c in calls if c.label.startswith("verify star-shift"))
    refused = W.CliResult(2, "", "error: element 0 not in [1, 10]\n", ())
    outcome = Checker().judge(star_shift, 1.0, "ok", refused)
    assert outcome.failed and outcome.status == "refused"
    held = W.CliResult(0, '{"holds": true}\n', "", ())
    assert Checker().judge(star_shift, 1.0, "ok", held).status == "ok"
    garbled = W.CliResult(0, "not json\n", "", ())
    assert Checker().judge(star_shift, 1.0, "ok", garbled).status == "wrong"


def test_output_that_breaks_its_check_is_wrong():
    call = Call("c", lambda: None, lambda out: out["missing"], lambda out: out, 1.0)
    outcome = run_pass([call], Checker(), Speed())[0]
    assert outcome.status == "wrong" and "TypeError" in outcome.detail


def test_tail_percentile_rule():
    assert tail_percentile(5) == 50.0
    assert tail_percentile(20) == 50.0
    assert tail_percentile(39) == 50.0
    assert tail_percentile(40) == 75.0
    assert tail_percentile(99) == 75.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(9999) == 99.0
    assert tail_percentile(10000) == 99.9


def test_tail_on_synthetic_samples():
    samples = list(range(1, 101))  # 100 calls per pass -> p90, ten beyond it
    value, q = tail(samples, 100)
    assert (value, q) == (90, 90.0)
    assert sum(1 for s in samples if s > value) == 10
    # three passes of the same 40 calls: p75 of all samples, as for one pass
    value, q = tail(list(range(1, 41)) * 3, 40)
    assert (value, q) == (30, 75.0)
    assert percentile([5, 1, 3], 50) == 3
    assert percentile(list(range(1, 1001)), 99) == 990


def test_failed_fraction_counts_every_kind_of_failure():
    outcomes = [Outcome("a", 1.0, status) for status in
                ("ok", "ok", "timeout", "raised", "refused", "wrong", "ok", "ok")]
    assert failed_fraction(outcomes) == (8, 4, 0.5)
    assert failed_fraction([Outcome("a", 1.0, "ok")]) == (1, 0, 0.0)


def test_checker_reuses_verdict_for_equal_outputs():
    seen = []
    call = Call("c", lambda: 3, lambda out: seen.append(out), lambda out: out, 1.0)
    checker = Checker()
    run_pass([call, call], checker, Speed())
    assert seen == [3]


def test_refuses_without_sources(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for path in run.HERE.iterdir():
        if path.is_file():
            (bare / "perfbench" / path.name).write_bytes(path.read_bytes())
    (bare / "BENCHMARK.json").write_bytes((run.ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
