"""Self-checks of the benchmark: traced counts repeat, self times add up, a
seed attempts and fails the same ops in every run, and the output checks
reject wrong answers.

    python3 -m pytest bench/test_bench.py
"""

import json

import numpy as np
import pytest

import run
import tracing
import workloads

COUNTS = (
    "reactive.iterations",
    "gaussian.interval_moments.calls",
    "network.sensor_rounds",
    "cli.sweep.points",
)
SINGLE_THREADED = ("simulate-channel", "solve-scalar", "solve-vector")


@pytest.fixture(scope="module")
def jamgame():
    return run.import_library()


def traced_pass(jamgame, name, seed, work):
    work.mkdir()
    session = run.open_session(jamgame, name, seed, work)
    return run.traced_run(session, 0.0)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_repeat_and_self_times_add_up(jamgame, tmp_path, name):
    first = traced_pass(jamgame, name, 11, tmp_path / "a")
    second = traced_pass(jamgame, name, 11, tmp_path / "b")
    assert first.tally.correct and second.tally.correct
    for metric in COUNTS:
        assert first.metrics[metric] == second.metrics[metric], metric
    counts = [m for m, (_, unit) in first.metrics.items() if unit == "count"]
    assert {m: first.metrics[m] for m in counts} == \
        {m: second.metrics[m] for m in counts}

    table = first.table
    ops = table.mask(tracing.OP_SPAN)
    assert np.count_nonzero(ops) == len(first.tally.latencies) // 2
    for op_row in np.flatnonzero(ops):
        under = table.op == table.op[op_row]
        total = table.self_time[under].sum()
        if name in SINGLE_THREADED:
            assert total == pytest.approx(table.duration[op_row], rel=1e-9)
        else:
            # pool spans run side by side, so their self times add up to
            # more than the wall time they share
            assert total >= table.duration[op_row] * (1 - 1e-9)


def test_metric_runs_attempt_and_fail_the_same_ops(jamgame, tmp_path):
    """A seed's op count and failures must not depend on the host's speed:
    seed 3 of solve-vector has a reactive op that does not converge."""
    runs = []
    for work in (tmp_path / "a", tmp_path / "b"):
        work.mkdir()
        session = run.open_session(jamgame, "solve-vector", 3, work)
        runs.append(run.metric_run(session, 0.0, lambda: 1.0).tally)
    assert run.rounds_for("solve-vector", 0.0) == 1
    assert len(runs[0].latencies) == len(runs[1].latencies) == 15
    assert runs[0].failed == runs[1].failed > 0
    assert runs[0].causes == runs[1].causes


def test_checks_reject_wrong_outputs(jamgame, tmp_path):
    session = run.open_session(jamgame, "solve-scalar", 3, tmp_path)
    op = session.workload.warmup
    out = tmp_path / "out"
    argv = list(op.command) + ["--config", session.paths[id(op)], "--out", str(out)]
    assert jamgame.cli.run(argv) == 0
    assert workloads.check_scalar(op, 0, out) == []
    record = json.loads((out / "result.json").read_text())
    record["outputs"]["value"] += 1e-6
    (out / "result.json").write_text(json.dumps(record))
    assert workloads.check_scalar(op, 0, out)

    outputs = {"value": 1.0, "analytic_value": 1.0, "std_err": 0.01}
    assert workloads._z_problem(outputs, "x") == []
    outputs["value"] += 6 * outputs["std_err"]
    assert workloads._z_problem(outputs, "x")


def test_tail_leaves_ten_ops_above():
    latencies = list(range(100))
    value, percentile = run.tail(latencies)
    assert sum(x > value for x in latencies) == run.TAIL_OPS
    assert percentile == pytest.approx(89.0)
