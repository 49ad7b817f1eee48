"""Tests for the config-driven command line front end."""

import copy
import csv
import enum
import functools
import io
import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jamgame import cli, largescale, network, proactive, reactive
from jamgame.cli import (
    _FIELDS,
    _REQUIRED,
    ConfigError,
    ResultRecord,
    emit_table,
    execute,
    parse_config,
    run,
)
from jamgame.gaussian import ScalarGaussian
from jamgame.proactive import ConvergenceError, GameCosts


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _base_reactive(**extra):
    raw = {
        "source": {"mean": 0.0, "variance": 1.0},
        "costs": {"c": 1.0, "d": 1.0},
        "solver": {"epsilon": 0.001},
    }
    raw.update(extra)
    return raw


TABLE_I_SWEEP = {
    "source": {"mean": 0.0, "variance": 1.0},
    "costs": {"c": 1.0, "d": 0.25},
    "kappa_bar": 0.25,
    "sweep": {
        "mode": "large_scale",
        "axes": [
            {"parameter": "costs.d", "grid": [0.25, 0.5, 0.75, 1.0]},
            {"parameter": "kappa_bar", "grid": [0.25, 0.5, 0.75]},
        ],
    },
}


def test_solve_large_scale_paper_instance(tmp_path):
    config = _write_config(tmp_path, "ls.json", {
        "source": {"mean": 0.0, "variance": 1.0},
        "costs": {"c": 1.0, "d": 0.25},
        "kappa_bar": 0.25,
    })
    out = tmp_path / "out"
    assert run(["solve", "large-scale", "--config", config, "--out", str(out)]) == 0
    record = json.loads((out / "result.json").read_text())
    assert record["outputs"]["threshold"] == pytest.approx(4.11, abs=0.01)
    assert record["outputs"]["phi_star"] == pytest.approx(0.76, abs=0.01)
    assert record["outputs"]["lambda_star"] == 0.0
    assert "phi_star_interval" not in record["outputs"]
    assert record["trace"] is None
    assert record["provenance"]["version"]

    # at this d both gates tie (case C4a): every phi in [0, 1 - c / threshold]
    # is optimal, and the outputs give that interval
    config = _write_config(tmp_path, "c4a.json", {
        "source": {"mean": 0.0, "variance": 1.0},
        "costs": {"c": 1.0, "d": 0.723606961762328242},
        "kappa_bar": 0.25,
    })
    out = tmp_path / "c4a"
    assert run(["solve", "large-scale", "--config", config, "--out", str(out)]) == 0
    outputs = json.loads((out / "result.json").read_text())["outputs"]
    assert outputs["case"] == "C4a"
    assert outputs["phi_star_interval"] == [
        0.0, pytest.approx(1.0 - 1.0 / outputs["threshold"], rel=1e-12)
    ]


def test_solve_large_scale_degenerate_jam_root(tmp_path):
    # d >= var: jamming never pays, so the jam gate stays shut at any c and
    # the capacity alone picks the case
    cases = ((1e-18, 1.0 - 1e-12, "C1"), (1e-18, 0.99999999, "C2"), (1e-8, 0.5, "C2"))
    for c, kappa_bar, case in cases:
        config = _write_config(tmp_path, "ls.json", {
            "source": {"mean": 0.0, "variance": 1.0},
            "costs": {"c": c, "d": 1.0},
            "kappa_bar": kappa_bar,
        })
        out = tmp_path / f"{case}-{kappa_bar}"
        code = run(["solve", "large-scale", "--config", config, "--out", str(out)])
        assert code == 0
        outputs = json.loads((out / "result.json").read_text())["outputs"]
        assert outputs["case"] == case
        assert outputs["phi_star"] == 0.0
        # C2 binds the capacity, so its probability is kappa_bar to rounding
        if case == "C2":
            assert outputs["transmit_prob"] == pytest.approx(kappa_bar, rel=1e-15)
        else:
            assert outputs["transmit_prob"] <= kappa_bar
        assert math.isfinite(outputs["value"])

    # a capacity so small that 1 - kappa_bar / 2 rounds to 1 still has a
    # finite capacity trigger, and the record is written
    config = _write_config(tmp_path, "ls.json", {
        "source": {"mean": 0.0, "variance": 1.0},
        "costs": {"c": 1.0, "d": 1.0},
        "kappa_bar": 1e-17,
    })
    out = tmp_path / "tiny-capacity"
    assert run(["solve", "large-scale", "--config", config, "--out", str(out)]) == 0
    outputs = json.loads((out / "result.json").read_text())["outputs"]
    assert outputs["case"] == "C2"
    assert math.isfinite(outputs["threshold"])
    assert outputs["transmit_prob"] == pytest.approx(1e-17, rel=1e-14)


def test_solve_proactive_huge_d_never_jams(tmp_path):
    config = _write_config(tmp_path, "p.json", {
        "source": {"mean": 0.0, "variance": 1.0},
        "costs": {"c": 1.0, "d": 50.0},
    })
    out = tmp_path / "out"
    assert run(["solve", "proactive", "--config", config, "--out", str(out)]) == 0
    outputs = json.loads((out / "result.json").read_text())["outputs"]
    assert outputs["case"] == "no_jam"
    assert outputs["phi_star"] == 0.0
    assert outputs["threshold"] == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("algorithm", ["pga_ccp", "gda"])
def test_solve_reactive_calls_the_module_level_solver(tmp_path, monkeypatch, algorithm):
    # the runner looks the solver up by its module name when it runs, so a
    # wrapper bound there, as a tracer binds one, sees the solve
    name = f"solve_{algorithm}"
    original, calls = getattr(cli, name), []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counting)
    raw = _base_reactive(solver={"algorithm": algorithm, "max_iters": 20})
    config = _write_config(tmp_path, "r.json", raw)
    code = run(["solve", "reactive", "--config", config, "--out", str(tmp_path / "out")])
    assert code in (0, 3)
    assert len(calls) == 1


def test_solve_reactive_writes_trace(tmp_path, monkeypatch):
    # a scalar source, and a 2-D one whose trace has a column per component
    vector = _base_reactive(
        source={"mean": [0.5, -0.25], "variance": [0.5, 1.5]}, seed=1,
        solver={"epsilon": 0.1, "mc_samples": 2000, "max_iters": 300},
    )
    for raw, symbol_columns in (
        (_base_reactive(), ["x_hat0", "x_hat1"]),
        (vector, ["x_hat0_0", "x_hat0_1", "x_hat1_0", "x_hat1_1"]),
    ):
        config = _write_config(tmp_path, "r.json", raw)
        out = tmp_path / f"out-{len(symbol_columns)}"
        assert run(["solve", "reactive", "--config", config, "--out", str(out)]) == 0
        record = json.loads((out / "result.json").read_text())
        outputs = record["outputs"]
        assert outputs["converged"] is True
        # the Monte Carlo certificate allows three standard errors
        assert outputs["fne_index"] <= (
            raw["solver"]["epsilon"] + 3.0 * outputs["fne_std_err"])
        assert record["trace"] == "trace.csv"
        rows = list(csv.reader((out / "trace.csv").open()))
        assert rows[0] == [
            "iteration", "fne_index", "objective", "alpha", "beta",
        ] + symbol_columns
        assert {len(row) for row in rows} == {5 + len(symbol_columns)}
        assert len(rows) - 1 == outputs["iterations"]
        assert int(rows[-1][0]) == outputs["iterations"]
        # the trace keeps full precision, so the last row ends at the
        # reported FNE
        assert float(rows[-1][1]) == outputs["fne_index"]
    # a sweep drops its points' reports, so it builds no trace row, and one
    # of its points run alone still writes one row per iteration; its table
    # has a row a point, each record its iterations, and "workers": 2 is
    # still accepted
    built, trace_row = [], reactive.TraceRow
    monkeypatch.setattr(
        reactive, "TraceRow", lambda *row: built.append(row) or trace_row(*row))
    sweep = dict(REACTIVE_SWEEP["sweep"], workers=2)
    config = _write_config(
        tmp_path, "s.json", dict(REACTIVE_SWEEP, mode="sweep", sweep=sweep))
    out = tmp_path / "sweep"
    assert run(["sweep", "--config", config, "--out", str(out)]) == 0
    assert built == [] and not (out / "trace.csv").exists()
    assert len((out / "table.csv").read_text().splitlines()) == 5
    records = json.loads((out / "result.json").read_text())["records"]
    assert len(records) == 4 and all("iterations" in r["outputs"] for r in records)
    point = records[-1]
    config = _write_config(tmp_path, "p.json", point["config"])
    out = tmp_path / "point"
    assert run(["solve", "reactive", "--config", config, "--out", str(out)]) == 0
    rows = list(csv.reader((out / "trace.csv").open()))
    assert len(rows) - 1 == len(built) == point["outputs"]["iterations"]


def test_nonconvergence_exit_code_still_writes_record(tmp_path):
    config = _write_config(tmp_path, "r.json", _base_reactive())
    out = tmp_path / "out"
    code = run([
        "solve", "reactive", "--config", config, "--out", str(out),
        "--set", "solver.epsilon=1e-12", "--set", "solver.max_iters=4",
    ])
    assert code == 3
    record = json.loads((out / "result.json").read_text())
    assert record["outputs"]["converged"] is False
    assert record["outputs"]["iterations"] == 4


def test_simulate_matches_analytic(tmp_path):
    config = _write_config(tmp_path, "s.json", {
        "source": {"mean": 0.0, "variance": 1.0},
        "costs": {"c": 1.0, "d": 1.0},
        "n": 5,
        "capacity": 2,
        "seed": 7,
        "simulate": {
            "trials": 50_000, "threshold": 1.3, "phi": 0.4,
            "x_hat0": 0.1, "x_hat1": -0.2,
        },
    })
    out = tmp_path / "out"
    assert run(["simulate", "--config", config, "--out", str(out)]) == 0
    outputs = json.loads((out / "result.json").read_text())["outputs"]
    gap = abs(outputs["value"] - outputs["analytic_value"])
    assert gap <= 4.0 * outputs["std_err"]
    assert outputs["trials"] == 50_000


def test_simulate_reactive_jammer_policy(tmp_path):
    # a channel-sensing jammer on one link and on a shared channel
    for n, capacity in ((1, 1), (5, 2)):
        config = _write_config(tmp_path, f"s{n}.json", {
            "source": {"mean": 0.0, "variance": 1.0},
            "costs": {"c": 1.0, "d": 1.0},
            "n": n,
            "capacity": capacity,
            "seed": 9,
            "simulate": {
                "trials": 50_000, "alpha": 0.1, "beta": 0.45,
                "x_hat0": 0.5, "x_hat1": -0.5,
            },
        })
        out = tmp_path / f"out{n}"
        assert run(["simulate", "--config", config, "--out", str(out)]) == 0
        outputs = json.loads((out / "result.json").read_text())["outputs"]
        gap = abs(outputs["value"] - outputs["analytic_value"])
        assert gap <= 4.0 * outputs["std_err"]


def test_sweep_reproduces_saddle_table(tmp_path):
    config = _write_config(tmp_path, "t.json", TABLE_I_SWEEP)
    out = tmp_path / "out"
    assert run(["sweep", "--config", config, "--out", str(out)]) == 0
    rows = list(csv.reader((out / "table.csv").open()))
    assert len(rows) == 13
    header = rows[0]
    assert header[:2] == ["costs.d", "kappa_bar"]
    at = {name: header.index(name) for name in
          ("threshold", "transmit_prob", "phi_star", "lambda_star")}
    expected = {
        (0.25, 0.25): (4.11, 0.04, 0.76, 0.0),
        (0.75, 0.25): (1.32, 0.25, 0.0, 0.32),
        (1.0, 0.5): (1.0, 0.32, 0.0, 0.0),
    }
    seen = {}
    for row in rows[1:]:
        key = (float(row[0]), float(row[1]))
        seen[key] = tuple(float(row[at[n]]) for n in
                          ("threshold", "transmit_prob", "phi_star", "lambda_star"))
    for key, values in expected.items():
        for got, want in zip(seen[key], values):
            assert got == pytest.approx(want, abs=0.01)
    text = (out / "result.json").read_text()
    record = json.loads(text)
    # the bytes json.dump streams, newline-terminated
    streamed = io.StringIO()
    json.dump(record, streamed, indent=2)
    assert text == streamed.getvalue() + "\n"
    assert record["outputs"]["points"] == 12
    assert record["outputs"]["non_converged"] == 0
    assert len(record["records"]) == 12
    assert record["table"] == "table.csv"
    # a 3 x 3 proactive c x d sweep at source mean -0.0: its records share
    # the source section and the provenance, and hold -0.0 and 0.0 side by
    # side, which the writer formats once a document
    signed = {"source": {"mean": -0.0, "variance": 1.0}, "costs": {"c": 1.0, "d": 1.0},
              "sweep": {"mode": "proactive", "axes": [
                  {"parameter": "costs.c", "grid": [0.5, 1.0, 2.0]},
                  {"parameter": "costs.d", "grid": [0.25, 0.75, 1.5]}]}}
    config = _write_config(tmp_path, "signed.json", signed)
    out = tmp_path / "signed"
    assert run(["sweep", "--config", config, "--out", str(out)]) == 0
    assert len((out / "table.csv").read_text().splitlines()) == 10
    text = (out / "result.json").read_text()
    record = json.loads(text)
    assert text == json.dumps(record, indent=2) + "\n"
    assert len(record["records"]) == 9
    signs = {(math.copysign(1, r["config"]["source"]["mean"]),
              math.copysign(1, r["outputs"]["x_hat0"]),
              math.copysign(1, r["outputs"]["value_std_err"]))
             for r in record["records"]}
    assert signs == {(-1.0, -1.0, 1.0)}


# simulate points that differ only in n and phi share their sensor draws;
# each variance is one such group
SIMULATE_SWEEP = {
    "source": {"mean": 0.2, "variance": 1.0},
    "costs": {"c": 0.8, "d": 1.2},
    "kappa_bar": 0.3,
    "seed": 11,
    "simulate": {"trials": 3000, "threshold": 1.2, "x_hat1": -0.4},
    "sweep": {
        "mode": "simulate",
        "axes": [
            {"parameter": "n", "grid": [1, 3, 8]},
            {"parameter": "simulate.phi", "grid": [0.1, 0.5]},
            {"parameter": "source.variance", "grid": [0.5, 2.0]},
        ],
    },
}


# best responses to one sensing jammer at one set of costs: the points,
# which differ only in n and capacity, share their rule and are one group
SENSING_SIMULATE_SWEEP = {
    "source": {"mean": -0.1, "variance": 1.5},
    "costs": {"c": 0.9, "d": 1.1},
    "kappa_bar": 0.3,
    "seed": 13,
    "simulate": {"trials": 3000, "alpha": 0.2, "beta": 0.7, "x_hat1": 0.5},
    "sweep": {
        "mode": "simulate",
        "axes": [{"parameter": "n", "grid": [1, 2, 5, 20]}],
    },
}


# best responses to jammers that differ in alpha: one group of points whose
# rules differ, which draws each sensor stream once for each alpha, 3 * 7
BEST_RESPONSE_SIMULATE_SWEEP = {
    "source": {"mean": 0.3, "variance": 0.8},
    "costs": {"c": 0.7, "d": 1.3},
    "kappa_bar": 0.4,
    "seed": 17,
    "simulate": {"trials": 3000, "alpha": 0.1, "beta": 0.6, "x_hat0": 0.2},
    "sweep": {
        "mode": "simulate",
        "axes": [
            {"parameter": "simulate.alpha", "grid": [0.1, 0.4, 0.9]},
            {"parameter": "n", "grid": [1, 3, 6]},
        ],
    },
}

# threshold rules across the threshold: one group, 2 * 6 stream draws
THRESHOLD_SIMULATE_SWEEP = {
    "source": {"mean": -0.2, "variance": 1.2},
    "costs": {"c": 1.0, "d": 0.9},
    "capacity": 1,
    "seed": 19,
    "simulate": {"trials": 3000, "threshold": 0.5, "phi": 0.3},
    "sweep": {
        "mode": "simulate",
        "axes": [
            {"parameter": "simulate.threshold", "grid": [0.5, 1.5]},
            {"parameter": "n", "grid": [2, 5]},
            {"parameter": "simulate.phi", "grid": [0.2, 0.6]},
        ],
    },
}

# sensor stream draws of each simulate sweep: max n + 1 for each distinct
# transmit rule of each source
_STREAM_DRAWS = ((SIMULATE_SWEEP, 2 * 9), (SENSING_SIMULATE_SWEEP, 21),
                 (BEST_RESPONSE_SIMULATE_SWEEP, 3 * 7),
                 (THRESHOLD_SIMULATE_SWEEP, 2 * 6))


# scalar reactive points: one group each
REACTIVE_SWEEP = {
    "source": {"mean": 0.1, "variance": 1.0},
    "costs": {"c": 1.0, "d": 1.0},
    "solver": {"epsilon": 1e-3},
    "seed": 5,
    "sweep": {
        "mode": "reactive",
        "axes": [
            {"parameter": "costs.d", "grid": [0.5, 1.5]},
            {"parameter": "source.variance", "grid": [0.5, 2.0]},
        ],
    },
}


# proactive points over c and d: one group, which solves the root of the
# indifference condition once for each d at which one of them jams; at c = 9
# only d = 0.1 jams
PROACTIVE_SWEEP = {
    "source": {"mean": 0.3, "variance": 2.0},
    "costs": {"c": 1.0, "d": 1.0},
    "sweep": {
        "mode": "proactive",
        "axes": [
            {"parameter": "costs.c", "grid": [0.2, 1.0, 4.0, 9.0]},
            {"parameter": "costs.d", "grid": [0.1, 0.6, 1.5]},
        ],
    },
}

# the same on a diagonal source, whose tail is Ruben's series
DIAGONAL_PROACTIVE_SWEEP = {
    "source": {"mean": [0.0, -0.5], "variance": [1.0, 2.5]},
    "costs": {"c": 1.0, "d": 1.0},
    "sweep": {
        "mode": "proactive",
        "axes": [
            {"parameter": "costs.d", "grid": [0.2, 1.0]},
            {"parameter": "costs.c", "grid": [0.5, 3.0, 8.0]},
        ],
    },
}

# every point of one variance is one group, across c
VARIANCE_SWEEP = {
    "source": {"mean": -0.2, "variance": 1.0},
    "costs": {"c": 1.0, "d": 0.3},
    "sweep": {
        "mode": "proactive",
        "axes": [
            {"parameter": "source.variance", "grid": [0.5, 2.0]},
            {"parameter": "costs.c", "grid": [0.25, 0.5, 1.0]},
        ],
    },
}

_JAM_CASES = {"interior_jam", "C3", "C4a", "C4b", "C4c"}


def _roots_needed(records) -> int:
    """Distinct (source, d) among the points whose saddle jams."""
    return len({
        (json.dumps(r.config["source"]), r.config["costs"]["d"])
        for r in records if r.outputs.get("case") in _JAM_CASES
    })


def _bits(records) -> list[str]:
    return [json.dumps(r.outputs) for r in records]


def _count_streams(monkeypatch) -> list:
    """The sensor and jammer streams (`network._stream`) opened from now on,
    by number."""
    open_stream = network._stream
    streams = []

    def drawn(seed, stream, start):
        streams.append(stream)
        return open_stream(seed, stream, start)

    monkeypatch.setattr(network, "_stream", drawn)
    return streams


def test_sweep_worker_count_does_not_change_results(tmp_path, monkeypatch):
    monkeypatch.setattr(network, "_CHUNK", 700)  # several chunks a point
    solve_root = proactive._threshold_root
    roots = []

    def counted(residual, scale):
        roots.append(scale)
        return solve_root(residual, scale)

    monkeypatch.setattr(proactive, "_threshold_root", counted)
    run_group = cli._run_group
    threads = []

    def recorded(group, provenance):
        threads.append(threading.get_ident())
        return run_group(group, provenance)

    monkeypatch.setattr(cli, "_run_group", recorded)
    streams = _count_streams(monkeypatch)
    closed_forms = (TABLE_I_SWEEP, PROACTIVE_SWEEP, DIAGONAL_PROACTIVE_SWEEP,
                    VARIANCE_SWEEP)
    simulates = {id(sweep): draws for sweep, draws in _STREAM_DRAWS}
    for sweep in (*(sweep for sweep, _ in _STREAM_DRAWS), REACTIVE_SWEEP,
                  *closed_forms):
        runs = []
        # the worker count is accepted and echoed, and changes nothing
        for workers in (1, 3, 8):
            raw = copy.deepcopy(sweep)
            raw["mode"] = "sweep"
            raw["sweep"]["workers"] = workers
            before = copy.deepcopy(raw)
            config = parse_config(raw)
            # parsing leaves the raw config as it was
            assert raw == before
            roots.clear()
            threads.clear()
            streams.clear()
            runs.append(execute(config).point_records)
            # every group runs on the thread that called execute
            assert threads and set(threads) == {threading.get_ident()}
            if sweep in closed_forms:
                # one root for each source and d that some point jams at
                assert len(roots) == _roots_needed(runs[-1]) > 0
            if id(sweep) in simulates:
                # each sensor stream once for each source and rule
                assert len(streams) == simulates[id(sweep)]
        a = runs[0]
        for b in runs[1:]:
            assert [r.outputs for r in a] == [r.outputs for r in b]
            assert _bits(a) == _bits(b)
        # and every point is its own run, bit for bit
        for record in a:
            alone = execute(parse_config(copy.deepcopy(record.config)))
            assert alone.record.outputs == record.outputs
            assert _bits([alone.record]) == _bits([record])
    # points group by source, trials and seed, whatever their rules and d
    for sweep, groups in ((SIMULATE_SWEEP, 2), (SENSING_SIMULATE_SWEEP, 1),
                          (BEST_RESPONSE_SIMULATE_SWEEP, 1),
                          (THRESHOLD_SIMULATE_SWEEP, 1), (TABLE_I_SWEEP, 1),
                          (PROACTIVE_SWEEP, 1), (DIAGONAL_PROACTIVE_SWEEP, 1),
                          (VARIANCE_SWEEP, 2)):
        points = parse_config(dict(copy.deepcopy(sweep), mode="sweep")).sweep_plan.points
        assert len({cli._group_key(point, {}) for point in points}) == groups
        # a section that no axis crosses is parsed once, and its points
        # share what it gives; a crossed one is parsed at every point
        crossed = {a["parameter"].split(".")[0] for a in sweep["sweep"]["axes"]}
        for name in ("source", "costs"):
            shared = {id(getattr(point, name)) for point in points}
            assert len(shared) == (len(points) if name in crossed else 1)

    # the root at d = 0.6 fails: each point at d = 0.6 that jams records
    # the error of its own run, and every other point records its saddle
    failure = "indifference root past r = 1.79769e+308"
    failed = [0.6]

    def failing(residual, scale):
        roots.append(scale)
        # the residual at 0 is E[S] - d, and E[S] is the scale
        if any(math.isclose(scale - residual(0.0), d) for d in failed):
            raise ConvergenceError(failure)
        return solve_root(residual, scale)

    monkeypatch.setattr(proactive, "_threshold_root", failing)
    raw = dict(copy.deepcopy(PROACTIVE_SWEEP), mode="sweep")
    roots.clear()
    records = execute(parse_config(raw)).point_records
    # one root for each d that some point jams at, the failing one too
    assert len(roots) == 3
    errors = [r for r in records if "error" in r.outputs]
    at_d = [r for r in records if r.config["costs"]["d"] == 0.6]
    assert errors == [r for r in at_d if "case" not in r.outputs]
    assert len(errors) == 3 and len(at_d) == 4
    for record in errors:
        assert record.outputs == {
            "converged": False, "error": f"ConvergenceError: {failure}"
        }
    for record in records:
        alone = execute(parse_config(copy.deepcopy(record.config)))
        assert _bits([alone.record]) == _bits([record])

    # 400 points whose root fails at d = 0.5, and, with no injected failure,
    # 9 points on N(0, 1e307) whose root at d = 1e-300 lies past the largest
    # float: each root is solved once, and a failed one fails only the
    # points at its d that jam, each with the record of its own run
    grid = [k / 10 for k in range(1, 21)]
    for source, axes, injected, d_failed, calls, failures in (
        ({"mean": 0.3, "variance": 2.0}, [grid, grid], [0.5], 0.5, 19, 20),
        ({"mean": 0.0, "variance": 1e307},
         [[1e-3, 1.0, 1e300], [1e-300, 1e306, 5e306]], [], 1e-300, 3, 3),
    ):
        failed[:] = injected
        raw = {"mode": "sweep", "source": source, "costs": {"c": 1.0, "d": 1.0},
               "sweep": {"mode": "proactive", "axes": [
                   {"parameter": p, "grid": g} for p, g in zip(("costs.c", "costs.d"), axes)
               ]}}
        roots.clear()
        records = execute(parse_config(raw)).point_records
        assert len(roots) == calls
        errors = [r for r in records if "error" in r.outputs]
        assert len(errors) == failures
        assert {r.config["costs"]["d"] for r in errors} == {d_failed}
        for record in errors:
            assert record.outputs == {
                "converged": False, "error": f"ConvergenceError: {failure}"
            }
            alone = execute(parse_config(copy.deepcopy(record.config)))
            assert _bits([alone.record]) == _bits([record])


def test_round_trip_reproduces_outputs():
    raw = _base_reactive(seed=3)
    raw["mode"] = "reactive"
    first = execute(parse_config(copy.deepcopy(raw)))
    echo = json.loads(json.dumps(first.record.to_json()))["config"]
    second = execute(parse_config(echo))
    assert first.record.outputs == second.record.outputs


def test_round_trip_sweep_point(tmp_path):
    raw = copy.deepcopy(TABLE_I_SWEEP)
    raw["mode"] = "sweep"
    sweep = execute(parse_config(raw))
    point = sweep.point_records[5]
    again = execute(parse_config(copy.deepcopy(point.config)))
    assert again.record.outputs == point.outputs
    # a Python caller's numpy grid values reach the echo as exact floats,
    # so both writers take every record
    raw = {"mode": "sweep", "source": {"mean": 0.0, "variance": 1.0},
           "costs": {"c": 1.0, "d": 0.5},
           "sweep": {"mode": "proactive", "axes": [
               {"parameter": "source.mean", "grid": [np.float64(-0.5), np.float64(0.25)]},
           ]}}
    sweep = execute(parse_config(raw))
    assert [type(r.config["source"]["mean"]) for r in sweep.point_records] == [float] * 2
    assert [r.config["source"]["mean"] for r in sweep.point_records] == [-0.5, 0.25]
    assert type(sweep.record.config["sweep"]["axes"][0]["grid"][0]) is float
    table = emit_table(sweep.point_records, sweep.parameters)
    assert table.splitlines()[1].startswith("-0.5,")
    records = [r.to_json() for r in sweep.point_records]
    assert cli._json_text(records) == json.dumps(records, indent=2)
    # so do numpy values in `source.mean` and `source.variance`, a scalar or
    # a list entry, of one point or of a sweep; an exact int or float stays
    # as given
    one = {"mode": "proactive", "costs": {"c": 1.0, "d": 0.5},
           "source": {"mean": np.float64(0.25), "variance": np.float64(2.0)}}
    vector = {"mode": "sweep", "costs": {"c": 1.0, "d": 0.5},
              "source": {"mean": [np.float64(-0.5), 1], "variance": [2.0, np.float64(0.5)]},
              "sweep": {"mode": "proactive", "axes": [
                  {"parameter": "costs.c", "grid": [0.5, 1.0]}]}}
    echoes = {"proactive": ([0.25, 2.0], [float, float]),
              "sweep": ([[-0.5, 1], [2.0, 0.5]], [[float, int], [float, float]])}
    for raw in (one, vector):
        result = execute(parse_config(raw))
        records = result.point_records or (result.record,)
        for record in records:
            source = record.config["source"]
            spelled = [source["mean"], source["variance"]]
            assert spelled == echoes[raw["mode"]][0]
            assert json.loads(json.dumps(spelled)) == spelled
            assert [[*map(type, v)] if type(v) is list else type(v)
                    for v in spelled] == echoes[raw["mode"]][1]
        payload = [r.to_json() for r in records]
        assert cli._json_text(payload) == json.dumps(payload, indent=2)
        assert len(emit_table(records, result.parameters).splitlines()) == len(records) + 1
    # an int subclass (an IntEnum) echoes as its int: a `source.mean` entry,
    # and a simulate sweep's base n and seed, in the sweep's own record and
    # in every point record, so the sweep writes the bytes of its all-int
    # twin, `json.dumps(..., indent=2)` of exact ints

    class Count(enum.IntEnum):
        ONE = 1
        TWO = 2
        SEVEN = 7

    listed = {"mode": "proactive", "costs": {"c": 1.0, "d": 0.5},
              "source": {"mean": [Count.ONE, 0.5], "variance": 1.0}}
    mean = execute(parse_config(listed)).record.config["source"]["mean"]
    assert mean == [1, 0.5] and [type(v) for v in mean] == [int, float]
    ints = {"mode": "sweep", "source": {"mean": 0.0, "variance": 1.0},
            "costs": {"c": 1.0, "d": 0.5}, "seed": 7, "n": 2, "capacity": 1,
            "simulate": {"trials": 100, "threshold": 1.0, "phi": 0.5},
            "sweep": {"mode": "simulate", "axes": [
                {"parameter": "simulate.phi", "grid": [0.25, 0.75]}]}}
    texts = []
    for name, raw in (("ints", ints), ("enums", ints | {"seed": Count.SEVEN, "n": Count.TWO})):
        result = execute(parse_config(raw))
        for record in (result.record, *result.point_records):
            assert [type(record.config[key]) for key in ("n", "seed")] == [int, int]
        (tmp_path / name).mkdir()
        cli._write_outputs(tmp_path / name, result)
        texts.append((tmp_path / name / "result.json").read_text())
        assert texts[-1] == json.dumps(json.loads(texts[-1]), indent=2) + "\n"
    assert texts[0] == texts[1]
    # a numpy float in a key that no axis crosses reaches the sweep's own
    # record as the float `_number` gives, as it reaches the points', so the
    # sweep writes the bytes of its all-float twin
    plain = {"mode": "sweep", "source": {"mean": 0.0, "variance": 2.0},
             "costs": {"c": 1.0, "d": 0.5},
             "sweep": {"mode": "proactive", "axes": [
                 {"parameter": "source.mean", "grid": [-0.5, 0.25]}]}}
    given = copy.deepcopy(plain)
    given["costs"]["c"], given["source"]["variance"] = np.float64(1.0), np.float64(2.0)
    texts = []
    for name, raw in (("plain", plain), ("given", given)):
        result = execute(parse_config(raw))
        assert [type(v) for v in result.record.config["costs"].values()] == [float] * 2
        (tmp_path / name).mkdir()
        cli._write_outputs(tmp_path / name, result)
        texts.append((tmp_path / name / "result.json").read_bytes())
    assert texts[0] == texts[1]
    # a sweep's own record echoes the config its first point parsed: a key
    # an axis crosses holds its first grid value, so a bad base value there
    # is neither echoed nor written, and a crossed seed is the provenance's,
    # so a bad base seed that a seed axis replaces is never read.  Replaying
    # that echo writes the same bytes
    garbage = {"source": {"mean": 0.0, "variance": 1.0},
               "costs": {"c": "garbage", "d": math.nan},
               "sweep": {"mode": "proactive", "axes": [
                   {"parameter": "costs.c", "grid": [0.5, 1.0]},
                   {"parameter": "costs.d", "grid": [0.25, 2.0]}]}}
    seeded = {"source": {"mean": 0.0, "variance": 1.0}, "costs": {"c": 1.0, "d": 0.5},
              "seed": -1, "n": 2, "capacity": 1,
              "simulate": {"trials": 100, "threshold": 1.0, "phi": 0.5},
              "sweep": {"mode": "simulate", "axes": [
                  {"parameter": "seed", "grid": [3, 5]},
                  {"parameter": "simulate.phi", "grid": [0.25, 0.75]}]}}
    crossed = [({"c": 0.5, "d": 0.25}, 0), ({"c": 1.0, "d": 0.5}, 3)]
    for name, base, (costs, seed) in zip("gs", (garbage, seeded), crossed):
        texts = []
        for i in range(2):
            config = _write_config(tmp_path, f"{name}{i}.json", base)
            out = tmp_path / f"{name}{i}"
            assert run(["sweep", "--config", config, "--out", str(out)]) == 0
            texts.append((out / "result.json").read_text())
            record = json.loads(texts[-1], parse_constant=pytest.fail)
            assert texts[-1] == json.dumps(record, indent=2) + "\n"
            base = record["config"]
        assert texts[0] == texts[1]
        assert base["costs"] == costs and base.get("seed", 0) == seed
        assert record["provenance"]["seed"] == seed
    assert base["simulate"]["phi"] == 0.25


def test_vector_reactive_solve():
    raw = {
        "mode": "reactive",
        "source": {"mean": 0.0, "variance": 1.0, "dimension": 3},
        "costs": {"c": 1.0, "d": 1.0},
        "solver": {"epsilon": 0.1, "mc_samples": 2000, "max_iters": 300},
        "seed": 1,
    }
    result = execute(parse_config(raw))
    outputs = result.record.outputs
    assert outputs["converged"] is True
    assert isinstance(outputs["x_hat0"], list) and len(outputs["x_hat0"]) == 3
    assert isinstance(outputs["x_hat1"], list) and len(outputs["x_hat1"]) == 3


def test_validation_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key 'costz'"):
        parse_config({
            "mode": "proactive",
            "source": {"mean": 0.0, "variance": 1.0},
            "costs": {"c": 1.0, "d": 1.0},
            "costz": {},
        })
    with pytest.raises(ConfigError, match="solver: unknown key 'step'"):
        parse_config(_base_reactive(
            mode="reactive", solver={"step": 0.1},
        ))
    with pytest.raises(ConfigError, match="source: unknown key 'sd'"):
        parse_config({
            "mode": "proactive",
            "source": {"mean": 0.0, "variance": 1.0, "sd": 1.0},
            "costs": {"c": 1.0, "d": 1.0},
        })


def test_validation_mode_requirements():
    base = {
        "source": {"mean": 0.0, "variance": 1.0},
        "costs": {"c": 1.0, "d": 1.0},
    }
    with pytest.raises(ConfigError, match="mode"):
        parse_config(dict(base))
    # an unhashable mode is named as any other value is
    with pytest.raises(ConfigError, match=r"^mode: must be one of \[.*\], got \[\]$"):
        parse_config(dict(base, mode=[]))
    with pytest.raises(ConfigError, match="kappa_bar: required"):
        parse_config(dict(base, mode="large_scale"))
    with pytest.raises(ConfigError, match="kappa_bar: not valid"):
        parse_config(dict(base, mode="reactive", kappa_bar=0.5))
    with pytest.raises(ConfigError, match="n: required"):
        parse_config(dict(base, mode="simulate",
                          simulate={"trials": 10, "threshold": 1.0, "phi": 0.1}))
    with pytest.raises(ConfigError, match="exactly one of capacity or kappa_bar"):
        parse_config(dict(base, mode="simulate", n=5, capacity=2, kappa_bar=0.4,
                          simulate={"trials": 10, "threshold": 1.0, "phi": 0.1}))
    with pytest.raises(ConfigError, match="choose one policy"):
        parse_config(dict(base, mode="simulate", n=5, capacity=2,
                          simulate={"trials": 10, "threshold": 1.0, "phi": 0.1,
                                    "alpha": 0.1, "beta": 0.2}))
    with pytest.raises(ConfigError, match="costs.d"):
        parse_config({
            "mode": "proactive",
            "source": {"mean": 0.0, "variance": 1.0},
            "costs": {"c": 1.0},
        })
    with pytest.raises(ConfigError, match="source: .*positive"):
        parse_config({
            "mode": "proactive",
            "source": {"mean": 0.0, "variance": -1.0},
            "costs": {"c": 1.0, "d": 1.0},
        })


def test_validation_sweep_grids():
    raw = copy.deepcopy(TABLE_I_SWEEP)
    raw["mode"] = "sweep"
    raw["sweep"]["axes"][0]["grid"] = []
    with pytest.raises(ConfigError, match="grid: must be a nonempty list"):
        parse_config(raw)
    raw = copy.deepcopy(TABLE_I_SWEEP)
    raw["mode"] = "sweep"
    raw["sweep"]["axes"][0]["grid"] = [0.5, 0.25]
    with pytest.raises(ConfigError, match="strictly increasing"):
        parse_config(raw)
    raw = copy.deepcopy(TABLE_I_SWEEP)
    raw["mode"] = "sweep"
    raw["sweep"]["mode"] = "sweep"
    with pytest.raises(ConfigError, match="sweep.mode"):
        parse_config(raw)
    raw = copy.deepcopy(TABLE_I_SWEEP)
    raw["mode"] = "sweep"
    raw["sweep"]["axes"][0]["parameter"] = "costs.missing"
    with pytest.raises(ConfigError, match="sweep point.*costs"):
        parse_config(raw)
    # a second axis on the same parameter would overwrite the first's values
    raw = copy.deepcopy(TABLE_I_SWEEP)
    raw["mode"] = "sweep"
    raw["sweep"]["axes"] = [
        {"parameter": "costs.d", "grid": [0.25, 0.5]},
        {"parameter": "costs.d", "grid": [0.75, 1.0]},
    ]
    with pytest.raises(ConfigError, match=r"^sweep\.axes\[1\]\.parameter: 'costs\.d' repeats"):
        parse_config(raw)


def test_cli_error_paths(tmp_path, capsys, monkeypatch):
    good = _write_config(tmp_path, "g.json", _base_reactive())
    assert run(["solve", "reactive", "--config", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert run(["solve", "reactive", "--config", str(bad)]) == 2
    clash = _write_config(tmp_path, "c.json", _base_reactive(mode="proactive"))
    assert run(["solve", "reactive", "--config", clash]) == 2
    assert run(["solve", "reactive", "--config", good, "--set", "oops"]) == 2
    assert run([]) == 2
    assert run(["--help"]) == 0
    # only the seed has a flag of its own; other fields go through --set
    capsys.readouterr()
    for flag in ("--epsilon", "--trials"):
        assert run(["solve", "reactive", "--config", good, flag, "1"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    # a file that is not UTF-8, a dimension whose 7 PiB mean numpy refuses
    # before it allocates and one whose byte count numpy cannot even hold,
    # JSON nested past the recursion limit in a file or a --set value, a top
    # level that is no object, and --set paths that name no field: no
    # record, and the message names the file, the field or the key
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"costs": {"c": 1.0, "d": 1.0}, "note": "\xff"}')
    huge, too_big = (_write_config(tmp_path, f"d{i}.json", _base_reactive(
        source={"mean": 0.0, "variance": 1.0, "dimension": dimension}))
        for i, dimension in enumerate((10**15, 2**62)))
    deep = tmp_path / "deep.json"
    deep.write_text('{"costs": {"c": 1.0, "d": 1.0}, "extra": '
                    + "[" * 100_000 + "]" * 100_000 + "}")
    listed = _write_config(tmp_path, "l.json", [1.0])
    for extra, message in (
        ([str(latin)], f"error: config: cannot read {latin}: "),
        ([huge], "error: source.dimension: 1000000000000000 is too large: "),
        ([too_big], "error: source.dimension: 4611686018427387904 is too large: "
                    "array is too big"),
        ([str(deep)], f"error: config: cannot parse {deep}: maximum recursion"),
        ([good, "--set", "extra=" + "[" * 100_000],
         "error: --set extra: maximum recursion"),
        ([listed], "error: config: top level must be an object"),
        ([good, "--set", "costs..c=1"],
         "error: 'costs..c': empty component in key path"),
        ([good, "--set", "costs.c.x=1"],
         "error: 'costs.c.x': 'c' is a value, cannot descend into it"),
    ):
        out = tmp_path / "out"
        assert run(["solve", "proactive", "--config", *extra, "--out", str(out)]) == 2
        assert not out.exists()
        assert message in capsys.readouterr().err
    # an --out that cannot be created, an existing file or a path under one:
    # exit 2 before the run, with no traceback
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    for out in (blocker, blocker / "sub"):
        assert run(["solve", "proactive", "--config", good, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out: cannot create {out}: "), err
        assert "Traceback" not in err
    assert blocker.read_text() == "kept"
    # an output that cannot be written, here a directory in its place:
    # result.json, a sweep's table.csv and a reactive solve's trace.csv
    # each exit 2 after the run, with no traceback
    sweep = _write_config(tmp_path, "sw.json", PROACTIVE_SWEEP)
    for name, argv in (
        ("result.json", ["solve", "proactive", "--config", good]),
        ("table.csv", ["sweep", "--config", sweep]),
        ("trace.csv", ["solve", "reactive", "--config", good]),
    ):
        out = tmp_path / f"taken-{name}"
        (out / name).mkdir(parents=True)
        assert run([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out: cannot write {out / name}: "), err
        assert "Traceback" not in err
    # a rejected value is echoed cut short, so the error line stays short and
    # still names the field: a 5 MB string, a list nested 400 deep (within
    # the parser's recursion limit under pytest), a 5 MB key
    long = "x" * 5_000_000
    for text, field in (
        ('{"mean": "' + long + '", "variance": 1.0}', "source.mean"),
        ('{"mean": ' + "[" * 400 + "]" * 400 + ', "variance": 1.0}', "source.mean"),
        ('{"mean": 0.0, "variance": 1.0, "' + long + '": 1}', "source"),
    ):
        path = tmp_path / "long.json"
        path.write_text('{"costs": {"c": 1.0, "d": 1.0}, "source": ' + text + "}")
        out = tmp_path / "out"
        assert run(["solve", "reactive", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ") and len(err.encode()) < 300, err[:400]
    # a sweep checks a value before it echoes it, so a source.mean nested
    # 800 deep exits 2 naming its point and field, with no traceback
    path = tmp_path / "deep-sweep.json"
    path.write_text('{"mode": "sweep", "costs": {"c": 1.0, "d": 1.0}, "source": '
                    '{"mean": ' + "[" * 800 + "]" * 800 + ', "variance": 1.0}, '
                    '"sweep": {"mode": "proactive", "axes": '
                    '[{"parameter": "costs.c", "grid": [1.0, 2.0]}]}}')
    out = tmp_path / "out"
    assert run(["sweep", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == ("error: sweep point ('costs.c'=1.0): source.mean: must be a "
                   "number, got [[[[...]]]]\n"), err[:400]
    # the console script's main exits with run's code
    failing = _write_config(tmp_path, "f.json", _RAISING_POINTS["gda-nan-iterate"][1])
    for argv, code in (
        (["solve", "proactive", "--config", good], 0),
        (["solve", "reactive", "--config", str(tmp_path / "nope.json")], 2),
        (["solve", "reactive", "--config", failing], 3),
    ):
        monkeypatch.setattr(sys, "argv", ["jamgame", *argv, "--out", str(tmp_path / "m")])
        with pytest.raises(SystemExit) as stop:
            cli.main()
        assert stop.value.code == code


def test_override_precedence(tmp_path):
    config = _write_config(tmp_path, "o.json", _base_reactive(seed=1))
    out1 = tmp_path / "o1"
    # a --set value that is not JSON is taken as the bare string
    assert run([
        "solve", "reactive", "--config", config, "--out", str(out1),
        "--set", "seed=2", "--set", "solver.pga_step_rule=inv_sqrt",
    ]) == 0
    echo = json.loads((out1 / "result.json").read_text())["config"]
    assert echo["seed"] == 2
    assert echo["solver"]["pga_step_rule"] == "inv_sqrt"
    out2 = tmp_path / "o2"
    assert run([
        "solve", "reactive", "--config", config, "--out", str(out2),
        "--set", "seed=2", "--seed", "5",
    ]) == 0
    record = json.loads((out2 / "result.json").read_text())
    assert record["config"]["seed"] == 5
    assert record["provenance"]["seed"] == 5


def test_runs_share_the_parser_but_no_override(tmp_path):
    # the parser is built once per process; a run's --set and --seed do not
    # reach the next run
    assert cli._build_parser() is cli._build_parser()
    config = _write_config(tmp_path, "p.json", {
        "source": {"mean": 0.0, "variance": 1.0},
        "costs": {"c": 1.0, "d": 0.5}, "seed": 4,
    })
    outs = [tmp_path / "set", tmp_path / "plain"]
    assert run(["solve", "proactive", "--config", config, "--out", str(outs[0]),
                "--set", "costs.c=0.25", "--seed", "9"]) == 0
    assert run(["solve", "proactive", "--config", config, "--out", str(outs[1])]) == 0
    echoes = [json.loads((out / "result.json").read_text())["config"] for out in outs]
    assert [(e["costs"]["c"], e["seed"]) for e in echoes] == [(0.25, 9), (1.0, 4)]
    args = cli._build_parser().parse_args(["sweep", "--config", config])
    assert args.overrides == [] and args.seed is None


def test_emit_table_formatting():
    record = ResultRecord(
        config={"costs": {"d": 0.25}},
        outputs={"threshold": 4.108344935632317, "value": 0.7926721024352383,
                 "converged": True, "iterations": 88},
        provenance={"library": "jamgame", "version": "0", "seed": 0},
    )
    text = emit_table([record], parameters=("costs.d",))
    lines = text.strip().split("\n")
    assert lines[0] == "costs.d,threshold,value,iterations,converged"
    assert lines[1] == "0.25,4.108,0.7927,88,true"
    empty = emit_table([])
    assert len(empty.strip().split("\n")) == 1
    assert empty.startswith("case,threshold")

    # columns of one type and of mixed types, lists, absent cells, a mixed
    # int and float grid, a cell csv must quote, and a float column that
    # formats each distinct value once (y: -0.0 beside 0.0, repeated values,
    # values equal to 4 digits): cell by cell as `_format_cell` writes it
    records = [
        ResultRecord(config={"n": n, "x": x, "y": y}, outputs=outputs, provenance={})
        for n, x, y, outputs in (
            (1, 0.5, -0.0, {"case": "C4a", "threshold": 1.5,
                            "phi_star_interval": [0.0, 0.25],
                            "x_hat0": [0.1, -2.0], "converged": True, "trials": 10}),
            (2, 1, 0.0, {"case": "a,b", "threshold": 2.0, "x_hat0": 0.3}),
            (3, 2.5, 1.234567, {"converged": False, "error": "ValueError: x"}),
            (4, 0.5, 1.234567, {"threshold": -0.0}),
            (5, 0.5, 1.234612, {"threshold": 0.0}),
            (6, 0.5, -0.0, {"threshold": 1.5}),
        )
    ]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    columns = ["case", "threshold", "phi_star_interval", "x_hat0", "trials", "converged"]
    writer.writerow(["n", "x", "y", *columns])
    for r in records:
        writer.writerow([cli._format_cell(v) for v in
                         (*r.config.values(), *map(r.outputs.get, columns))])
    table = emit_table(records, ("n", "x", "y"))
    assert table == buffer.getvalue()
    assert [row[2] for row in csv.reader(io.StringIO(table))] == [
        "y", "-0", "0", "1.235", "1.235", "1.235", "-0"
    ]
    # no column at all: one empty row a record, as csv writes it
    assert emit_table(records[2:3] * 2) == "converged\nfalse\nfalse\n"
    bare = ResultRecord(config={}, outputs={"other": 1.0}, provenance={})
    assert emit_table([bare, bare]) == "\n\n\n"


_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=2**63, max_value=2**200),
    st.integers(max_value=-(2**64)),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 5e-324, 2.2e-308, math.nan, math.inf, -math.inf]),
    st.text(),
    st.sampled_from(['say "hi"', "back\\slash", "\x00\t\n\x1f\x7f", "é ü 中 🎲", "\ud800"]),
)


@functools.cache
def _real_payloads() -> list:
    """`result.json` payloads of real runs: an error record, a C4a interval,
    vector symbols, a sweep's records and a trace name."""
    non_finite = _base_reactive(
        mode="sweep", costs={"c": 1e308, "d": 1e308}, solver={"max_iters": 30},
        sweep={"mode": "reactive", "axes": [
            {"parameter": "source.variance", "grid": [1.0, 1.7e308]}]},
    )
    c4a = {"mode": "large_scale", "source": {"mean": 0.0, "variance": 1.0},
           "costs": {"c": 1.0, "d": 0.723606961762328242}, "kappa_bar": 0.25}
    payloads = []
    for raw in (non_finite, c4a, _vector_proactive(mode="proactive"),
                dict(TABLE_I_SWEEP, mode="sweep"), _base_reactive(mode="reactive")):
        result = execute(parse_config(copy.deepcopy(raw)))
        payload = result.record.to_json()
        if result.report is not None:
            payload["trace"] = "trace.csv"
        if result.point_records is not None:
            payload["records"] = [r.to_json() for r in result.point_records]
        payloads.append(payload)
    return payloads


_MARKED = st.sampled_from(["%", "%s", "{}", "{0}", "%(x)s", "}{", "100%"])


@st.composite
def _same_layout_lists(draw):
    """A list of dicts of one key layout, as a sweep's records are, whose
    writer fills one template: at one path a leaf whose type varies across
    the items (float, int, None, str, list), a dict every item shares and an
    equal one that none shares, an empty dict, -0.0 and 0.0 at one path,
    keys and strings with % { and }, and, drawn, an item with an extra key,
    one with a missing key, one with a nested extra key and one with its
    keys in another order, where the template writes that path item by
    item."""
    keys = draw(st.lists(st.text("ab%{}", max_size=3), max_size=3, unique=True))
    shared = {"s%": draw(_JSON_LEAVES), "{t}": [0.5, draw(_MARKED)]}
    mixed = st.one_of(st.floats(), st.integers(), st.none(), _MARKED,
                      st.lists(_JSON_LEAVES, max_size=2))
    items = [
        {
            **{key: draw(_JSON_LEAVES) for key in keys},
            "mixed": draw(mixed), "shared": shared, "equal": dict(shared),
            "empty": {}, "zero": draw(st.sampled_from([0.0, -0.0])),
            "{%}": {"c": draw(st.floats()), "%d": draw(_MARKED)},
        }
        for _ in range(draw(st.integers(1, 5)))
    ]
    if draw(st.booleans()):
        draw(st.sampled_from(items))["extra"] = draw(_MARKED)
    if draw(st.booleans()):
        del draw(st.sampled_from(items))["zero"]
    if draw(st.booleans()):
        draw(st.sampled_from(items))["{%}"]["%e"] = None
    if draw(st.booleans()):  # the same keys in another order
        i = draw(st.integers(0, len(items) - 1))
        items[i] = dict(reversed(items[i].items()))
    return items


_JSON_TREES = st.recursive(
    st.one_of(_JSON_LEAVES, st.deferred(lambda: st.sampled_from(_real_payloads())),
              _same_layout_lists()),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.tuples(kids, kids),
        st.dictionaries(st.text(), kids, max_size=4),
    ),
    max_leaves=20,
)

_SHARED = {"s%": "{0}", "{t}": [0.5, "%s"]}


@settings(max_examples=300, deadline=None)
@given(_JSON_TREES)
@example([  # every form `_same_layout_lists` draws, in one template
    {"mixed": 1.5, "shared": _SHARED, "equal": dict(_SHARED), "empty": {},
     "zero": -0.0, "{%}": {"c": 0.1, "%d": "%(x)s"}},
    {"mixed": 2, "shared": _SHARED, "equal": dict(_SHARED), "empty": {},
     "zero": 0.0, "{%}": {"c": -0.0, "%d": "}{"}},
    {"mixed": None, "shared": _SHARED, "equal": dict(_SHARED), "empty": {},
     "zero": 0.0, "{%}": {"c": 0.1, "%d": "%"}},
    {"mixed": "%s {}", "shared": _SHARED, "equal": dict(_SHARED), "empty": {},
     "zero": -0.0, "{%}": {"c": math.nan, "%d": "{0}"}},
    {"mixed": [0.5, "%"], "shared": _SHARED, "equal": dict(_SHARED), "empty": {},
     "zero": 0.0, "{%}": {"c": math.inf, "%d": "100%"}},
])
@example([  # an extra key, a missing key and a nested extra key
    {"a%": 1.0, "{b}": {"c": 1}}, {"a%": 1.0, "{b}": {"c": 1}, "extra": "%s"},
    {"{b}": {"c": 2}}, {"a%": -0.0, "{b}": {"c": 3, "%e": None}},
])
@example([{"n": 1, "m": 0}, {"n": 1.0, "m": 0}, {"m": 0, "n": True}])  # equal, not one
def test_result_json_emitter_is_json_dumps(tree):
    assert cli._json_text(tree) == json.dumps(tree, indent=2)


def test_result_json_emitter_on_real_records():
    payloads = _real_payloads()
    outputs = [p["outputs"] for p in payloads]
    assert outputs[1]["phi_star_interval"][0] == 0.0
    assert len(outputs[2]["x_hat0"]) == 3
    assert payloads[3]["trace"] is None and payloads[4]["trace"] == "trace.csv"
    assert payloads[0]["records"][1]["outputs"]["error"].startswith("ValueError: ")
    for payload in payloads:
        assert cli._json_text(payload) == json.dumps(payload, indent=2)
    # the writer formats each distinct float of a column once and writes an
    # object a list's items share once; neither may show: one dict at two
    # depths, signed zeros, NaN, infinities and repeated floats, and a sweep
    # whose records share their uncrossed source and their provenance
    shared = {"x": 0.5, "zeros": [-0.0, 0.0]}
    floats = [-0.0, 0.0, 0.0, -0.0, math.nan, math.inf, -math.inf, -math.inf,
              math.nan, 1.5, float("1.5"), 1.5, -1.5, 0.1 + 0.2, 0.30000000000000004]
    sweep = payloads[3]
    first, second = sweep["records"][:2]
    assert first["config"]["source"] is second["config"]["source"]
    assert first["provenance"] is second["provenance"] is sweep["provenance"]
    for document in (
        {"a": shared, "b": {"c": shared, "d": [shared, [shared, {}]]}, "e": shared},
        floats, {"f": floats, "g": [floats, {"h": floats}], "i": -0.0}, sweep,
    ):
        assert cli._json_text(document) == json.dumps(document, indent=2)
    # a record's keys are strings; any other key is refused, not written,
    # and so is a leaf of any type a record may not hold, a numpy scalar too
    with pytest.raises(TypeError):
        cli._json_text({"outputs": {1: 2.0}})
    with pytest.raises(TypeError, match="^Object of type float64 is not JSON serializable$"):
        cli._json_text({"config": {"costs": {"c": np.float64(1.0)}}})


def test_result_record_rejects_non_finite():
    with pytest.raises(ValueError, match="not finite"):
        ResultRecord(
            config={}, outputs={"value": math.inf},
            provenance={"seed": 0},
        )
    # a record holds its leaf types exactly: a subclass of float, int or str
    # is refused as well, so the writers never meet one

    class Level(enum.IntEnum):
        HIGH = 1

    class Name(str):
        pass

    for value in (np.float64(1.0), Level.HIGH, Name("C1")):
        with pytest.raises(ValueError, match=r"^outputs\.value has unsupported type"):
            ResultRecord(config={}, outputs={"value": value}, provenance={})


def test_sweep_pays_once_for_what_its_points_share(monkeypatch):
    # each record is checked for finite outputs once, at its construction:
    # one top-level walk a point record and one for the summary
    walks = []
    check = cli._check_finite

    def counted(value, label):
        walks.append(label)
        return check(value, label)

    monkeypatch.setattr(cli, "_check_finite", counted)
    tops = []
    parse_top = cli._parse_top
    monkeypatch.setattr(cli, "_parse_top", lambda raw: tops.append(raw) or parse_top(raw))
    result = execute(parse_config(dict(copy.deepcopy(PROACTIVE_SWEEP), mode="sweep")))
    records = result.point_records
    assert len(records) == 12
    assert walks.count("outputs") == len(records) + 1
    # the records share their seed's provenance and the uncrossed source
    assert len({id(r.provenance) for r in (result.record, *records)}) == 1
    assert len({id(r.config["source"]) for r in records}) == 1
    # the top level is parsed for the sweep and once for its first point;
    # the other points set their axes' values in its echo, an axis that sets
    # a top-level key too
    assert len(tops) == 2
    tops.clear()
    # a group solves each distinct (c, d) saddle once, and each distinct
    # kappa_bar's l_lambda once
    saddles, l_lambdas = [], []
    saddle, solve_l_lambda = proactive._saddle, largescale.solve_l_lambda

    def counted_saddle(tail, trace, estimator, costs, roots):
        saddles.append(costs)
        return saddle(tail, trace, estimator, costs, roots)

    def counted_l_lambda(source, kappa_bar):
        l_lambdas.append(kappa_bar)
        return solve_l_lambda(source, kappa_bar)

    monkeypatch.setattr(proactive, "_saddle", counted_saddle)
    monkeypatch.setattr(largescale, "solve_l_lambda", counted_l_lambda)
    result = execute(parse_config(dict(copy.deepcopy(TABLE_I_SWEEP), mode="sweep")))
    assert len(tops) == 2
    grids = {a["parameter"]: a["grid"] for a in TABLE_I_SWEEP["sweep"]["axes"]}
    assert len(result.point_records) == len(grids["costs.d"]) * len(grids["kappa_bar"])
    assert sorted(c.d for c in saddles) == grids["costs.d"]
    assert sorted(l_lambdas) == grids["kappa_bar"]
    # a proactive grid that repeats each costs pair (an axis the mode does
    # not read) solves each distinct GameCosts once, and the points that
    # repeat one share its saddle
    saddles.clear()
    repeated = copy.deepcopy(PROACTIVE_SWEEP)
    repeated["sweep"]["axes"].append(
        {"parameter": "solver.epsilon", "grid": [1e-4, 1e-3, 1e-2]}
    )
    result = execute(parse_config(dict(repeated, mode="sweep")))
    records = result.point_records
    assert len(records) == 36
    assert sorted((c.c, c.d) for c in saddles) == sorted(
        {(r.config["costs"]["c"], r.config["costs"]["d"]) for r in records}
    )
    assert len(saddles) == 12
    assert [r.outputs for r in records[::3]] == [r.outputs for r in records[1::3]]
    # equal costs share one entry object
    source = ScalarGaussian(0.3, 2.0)
    first, again = proactive.solve_saddles(source, [GameCosts(1.0, 0.6), GameCosts(1.0, 0.6)])
    assert first is again


def _vector_proactive(**extra):
    raw = {
        "source": {"mean": [0.0, 0.0, 0.0], "variance": [1.0, 2.0, 0.5],
                   "dimension": 3},
        "costs": {"c": 1.0, "d": 0.05},
    }
    raw.update(extra)
    return raw


# a failed accuracy check of the vector saddle, as its tail integral reports it
_FAILURE = ("Imhof sin integral error estimate 1.674e-09 exceeds 1.571e-10 "
            "at r / trace = 10.4")


def _fail_at_d(monkeypatch, d):
    """Make the saddle of a point with costs.d == d raise ConvergenceError
    inside its group's batch call, which hands the point that failure and
    the group's other points their saddles."""
    saddle = proactive._saddle

    def failing(tail, trace, estimator, costs, roots):
        if costs.d == d:
            raise ConvergenceError(_FAILURE)
        return saddle(tail, trace, estimator, costs, roots)

    monkeypatch.setattr(proactive, "_saddle", failing)


def test_solver_failure_exits_3_with_record(tmp_path, capsys, monkeypatch):
    # a ConvergenceError from the saddle solve must not escape as a traceback
    _fail_at_d(monkeypatch, 0.05)
    config = _write_config(tmp_path, "p.json", _vector_proactive())
    out = tmp_path / "out"
    code = run(["solve", "proactive", "--config", config, "--out", str(out),
                "--seed", "1"])
    assert code == 3
    record = json.loads((out / "result.json").read_text())
    assert record["outputs"]["converged"] is False
    assert record["outputs"]["error"] == f"ConvergenceError: {_FAILURE}"
    assert record["config"]["costs"]["d"] == 0.05
    assert _FAILURE in capsys.readouterr().err


def test_sweep_point_failure_becomes_its_record(tmp_path, capsys, monkeypatch):
    # the failure above as one point of a vector sweep: that point records
    # the error, the other point still runs
    _fail_at_d(monkeypatch, 0.05)
    raw = _vector_proactive(mode="sweep", sweep={
        "mode": "proactive", "workers": 2,
        "axes": [{"parameter": "costs.d", "grid": [0.05, 0.5]}],
    })
    config = _write_config(tmp_path, "s.json", raw)
    out = tmp_path / "out"
    code = run(["sweep", "--config", config, "--out", str(out), "--seed", "1"])
    assert code == 3
    record = json.loads((out / "result.json").read_text())
    assert record["outputs"] == {"points": 2, "non_converged": 1}
    failed, solved = (r["outputs"] for r in record["records"])
    assert failed["converged"] is False
    assert failed["error"] == f"ConvergenceError: {_FAILURE}"
    assert solved["case"] == "interior_jam" and solved["value"] > 0.0
    rows = list(csv.reader((out / "table.csv").open()))
    assert [row[0] for row in rows] == ["costs.d", "0.05", "0.5"]
    header = rows[0]
    assert rows[1][header.index("converged")] == "false"
    assert rows[1][header.index("phi_star")] == ""
    assert rows[2][header.index("phi_star")] != ""
    assert _FAILURE in capsys.readouterr().err
    # a failure of the group's batch call itself is every point's record,
    # and each record is still written
    def failing(source, costs):
        raise ConvergenceError(_FAILURE)

    monkeypatch.setattr(cli, "solve_saddles", failing)
    out = tmp_path / "shared"
    code = run(["sweep", "--config", config, "--out", str(out), "--seed", "1"])
    assert code == 3
    record = json.loads((out / "result.json").read_text())
    assert record["outputs"] == {"points": 2, "non_converged": 2}
    assert [r["outputs"] for r in record["records"]] == [
        {"converged": False, "error": f"ConvergenceError: {_FAILURE}"}] * 2
    rows = list(csv.reader((out / "table.csv").open()))
    assert [row[0] for row in rows] == ["costs.d", "0.05", "0.5"]
    assert capsys.readouterr().err.count(_FAILURE) == 2


def test_sweep_non_finite_point_becomes_its_record(tmp_path, capsys):
    # at variance 1.7e308 the reactive value overflows to NaN: that point
    # records the failed finite check, and the point at variance 1 (which
    # converges on its own) keeps its record and row
    raw = _base_reactive(
        costs={"c": 1e308, "d": 1e308}, solver={"max_iters": 30}, sweep={
            "mode": "reactive",
            "axes": [{"parameter": "source.variance", "grid": [1.0, 1.7e308]}],
        },
    )
    config = _write_config(tmp_path, "nf.json", raw)
    out = tmp_path / "out"
    code = run(["sweep", "--config", config, "--out", str(out)])
    assert code == 3
    record = json.loads((out / "result.json").read_text())
    assert record["outputs"] == {"points": 2, "non_converged": 1}
    solved, failed = (r["outputs"] for r in record["records"])
    assert solved["converged"] is True and math.isfinite(solved["value"])
    assert failed == {"converged": False,
                      "error": "ValueError: outputs.value is not finite: nan"}
    rows = list(csv.reader((out / "table.csv").open()))
    assert [row[0] for row in rows] == ["source.variance", "1", "1.7e+308"]
    assert "outputs.value is not finite" in capsys.readouterr().err


# configs that parse but raise while they run: (command, config, exception)
_SIMULATE_OVERFLOW = {
    "source": {"mean": 0.0, "variance": 1.0}, "costs": {"c": 1.0, "d": 1.0},
    "n": 3, "capacity": 1,
    "simulate": {"trials": 1000, "threshold": 1.0, "phi": 0.2, "x_hat1": 1e200},
}
_RAISING_POINTS = {
    # the ascent overflows to NaN, and the policy rejects the iterate
    "gda-nan-iterate": (["solve", "reactive"], {
        "source": {"mean": 0.0, "variance": 1e300}, "costs": {"c": 1.0, "d": 1.0},
        "solver": {"algorithm": "gda", "gd_step": 1e10, "max_iters": 50},
    }, "ValueError"),
    # numpy refuses the 42 PiB sample set before it allocates
    "mc-samples-too-many": (["solve", "reactive"], {
        "source": {"mean": [0, 0, 0], "variance": [0.5, 1.5, 3.0]},
        "costs": {"c": 1.0, "d": 1.0}, "solver": {"mc_samples": 10**15},
    }, "MemoryError"),
    # the squared symbol deviation overflows
    "simulate-overflow": (["simulate"], _SIMULATE_OVERFLOW, "OverflowError"),
    # numpy refuses the 1.78 TiB of block partials before the first draw
    "simulate-trials-too-many": (["simulate"], dict(_SIMULATE_OVERFLOW, simulate={
        "trials": 10**15, "threshold": 1.0, "phi": 0.2,
    }), "MemoryError"),
}


@pytest.mark.parametrize(
    "command, raw, exception", _RAISING_POINTS.values(), ids=_RAISING_POINTS
)
def test_point_that_raises_exits_3_with_its_record(
    tmp_path, capsys, monkeypatch, command, raw, exception
):
    config = _write_config(tmp_path, "p.json", raw)
    out = tmp_path / "out"
    streams = _count_streams(monkeypatch)
    assert run([*command, "--config", config, "--out", str(out)]) == 3
    # each raises before it draws: a simulate point whose analytic cost
    # raises is never drawn, and one whose partials cannot be allocated
    # fails before its first draw
    assert streams == []
    outputs = json.loads((out / "result.json").read_text())["outputs"]
    assert outputs["converged"] is False
    assert outputs["error"].startswith(f"{exception}: ")
    assert f"error: {exception}: " in capsys.readouterr().err


# the points at c = 1e308 below overflow on purpose
@pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning",
)
def test_sweep_point_that_raises_keeps_the_others(tmp_path, monkeypatch):
    raw = dict(_SIMULATE_OVERFLOW, sweep={
        "mode": "simulate", "workers": 2,
        "axes": [{"parameter": "simulate.x_hat1", "grid": [0.5, 1e200]}],
    })
    config = _write_config(tmp_path, "s.json", raw)
    out = tmp_path / "out"
    streams = _count_streams(monkeypatch)
    assert run(["sweep", "--config", config, "--out", str(out)]) == 3
    # only the point at x_hat1 = 0.5 is priced, so only its n = 3 sensor
    # streams and its jammer stream are drawn
    assert len(streams) == 4
    record = json.loads((out / "result.json").read_text())
    assert record["outputs"] == {"points": 2, "non_converged": 1}
    solved, failed = (r["outputs"] for r in record["records"])
    assert math.isfinite(solved["value"]) and solved["x_hat1"] == 0.5
    assert failed["converged"] is False
    assert failed["error"].startswith("OverflowError: ")
    rows = list(csv.reader((out / "table.csv").open()))
    assert [row[0] for row in rows] == ["simulate.x_hat1", "0.5", "1e+200"]

    # inside one group of shared sensor draws: the points at c = 1e308
    # overflow to inf, and every point, failed or not, gets the record of
    # its own run; at 10**15 trials the group's block partials cannot be
    # allocated, so its draws raise, and so does each drawn point's own run,
    # while a point whose analytic cost raises is never drawn
    base = dict(_SIMULATE_OVERFLOW, seed=5, simulate={
        "trials": 1000, "threshold": 1.0, "phi": 0.2,
    })
    too_many = copy.deepcopy(base)
    too_many["simulate"]["trials"] = 10**15
    inf = "ValueError: outputs.value is not finite: inf"
    for raw, axes, errors in (
        (base, [("costs.c", [1.0, 1e308]), ("n", [2, 3])], [None, None, inf, inf]),
        (too_many, [("n", [2, 3])], ["MemoryError: "] * 2),
        (too_many, [("simulate.x_hat1", [0.5, 1e200])],
         ["MemoryError: ", "OverflowError: "]),
    ):
        raw = dict(raw, mode="sweep", sweep={"mode": "simulate", "axes": [
            {"parameter": p, "grid": g} for p, g in axes
        ]})
        records = execute(parse_config(raw)).point_records
        for record, error in zip(records, errors, strict=True):
            alone = execute(parse_config(copy.deepcopy(record.config)))
            assert alone.record.outputs == record.outputs
            if error is None:
                assert math.isfinite(record.outputs["value"])
            else:
                assert record.outputs["error"].startswith(error)


def test_solver_defaults_per_mode():
    proactive = parse_config(
        _vector_proactive(mode="proactive", costs={"c": 1.0, "d": 1.0}))
    # the exact vector saddle reads no solver field
    assert "solver" not in proactive.normalized
    reactive = parse_config(_base_reactive(mode="reactive"))
    assert reactive.solver.mc_samples == 10_000
    assert reactive.normalized["solver"]["mc_samples"] == 10_000
    # the echo replays the same run bit for bit
    first = execute(proactive)
    echo = json.loads(json.dumps(first.record.to_json()))["config"]
    assert "solver" not in echo
    second = execute(parse_config(echo))
    assert first.record.outputs == second.record.outputs
    assert first.record.outputs["value_std_err"] == 0.0
    assert 0.0 < first.record.outputs["transmit_prob"] < 1.0
    # an anisotropic 5-D source: its exact saddle's threshold and transmit
    # probability, frozen
    aniso = execute(parse_config(_vector_proactive(
        mode="proactive", costs={"c": 1.0, "d": 2.0},
        source={"mean": [0, 0, 0, 0, 0], "variance": [0.3, 0.7, 1.0, 1.6, 2.5]},
    ))).record.outputs
    assert aniso["threshold"] == pytest.approx(10.784819723979874, rel=1e-12, abs=0.0)
    assert aniso["transmit_prob"] == pytest.approx(
        0.13242498430630145, rel=1e-12, abs=0.0)
    assert aniso["value_std_err"] == 0.0


def test_source_dimension_from_list_lengths():
    def config(source, **extra):
        raw = {"mode": "proactive", "source": source,
               "costs": {"c": 1.0, "d": 1.0}, **extra}
        return parse_config(raw)

    parsed = config({"mean": [0, 0], "variance": [1, 2]},
                    solver={"mc_samples": 20_000})
    assert parsed.source.dim == 2
    assert parsed.source.variances.tolist() == [1.0, 2.0]
    assert parsed.normalized["source"]["dimension"] == 2
    # the echo, with the inferred dimension, replays the run bit for bit
    first = execute(parsed)
    echo = json.loads(json.dumps(first.record.to_json()))["config"]
    assert first.record.outputs == execute(parse_config(echo)).record.outputs
    # a number beside a list takes the list's length
    assert config({"mean": 0.5, "variance": [1, 2, 3]}).source.dim == 3
    with pytest.raises(ConfigError, match=r"^source\.variance: expected 2 entries, got 3$"):
        config({"mean": [0, 0], "variance": [1, 2, 3]})
    with pytest.raises(ConfigError, match=r"^source\.mean: expected 3 entries, got 2$"):
        config({"mean": [0, 0], "variance": 1, "dimension": 3})
    # a field's own message is not wrapped in a second prefix
    with pytest.raises(ConfigError, match=r"^source\.mean: must be a number, got 'a'$"):
        config({"mean": [0, "a"], "variance": [1, 2]})


def test_oversized_integers_exit_2(tmp_path, capsys):
    huge_c = _write_config(tmp_path, "c.json", _base_reactive(
        costs={"c": 10**400, "d": 1.0}))
    assert run(["solve", "reactive", "--config", huge_c,
                "--out", str(tmp_path / "o1")]) == 2
    assert "costs.c: must be finite" in capsys.readouterr().err
    sim = _write_config(tmp_path, "s.json", {
        "source": {"mean": 0.0, "variance": 1.0},
        "costs": {"c": 1.0, "d": 1.0},
        "n": 5, "capacity": 2,
        "simulate": {"trials": 100, "threshold": 1.0, "phi": 0.1},
    })
    assert run(["simulate", "--config", sim, "--out", str(tmp_path / "o2"),
                "--set", "n=100000000000000000000000"]) == 2
    assert "n: must fit in 64 bits" in capsys.readouterr().err
    # past Python's 4300-digit limit json.loads itself refuses the integer;
    # the message still names the file or the --set key
    digits = "9" * 5000
    huge_file = tmp_path / "huge.json"
    huge_file.write_text('{"costs": {"c": %s, "d": 1.0}}' % digits)
    assert run(["solve", "reactive", "--config", str(huge_file),
                "--out", str(tmp_path / "o3")]) == 2
    assert f"config: cannot parse {huge_file}: " in capsys.readouterr().err
    assert run(["simulate", "--config", sim, "--out", str(tmp_path / "o4"),
                "--set", f"n={digits}"]) == 2
    assert "error: --set n: " in capsys.readouterr().err
    # a seed of any size is valid: SeedSequence takes it
    assert parse_config(_base_reactive(mode="reactive", seed=10**30)).seed == 10**30


_NUMBER = st.one_of(st.integers(1, 20), st.floats(0.01, 20.0))
_UNIT = st.one_of(st.sampled_from([0, 1]), st.floats(0.0, 1.0))


@st.composite
def _valid_configs(draw):
    """Random valid configs of every mode but sweep."""
    mode = draw(st.sampled_from(["proactive", "reactive", "large_scale", "simulate"]))
    dim = 1 if mode in ("large_scale", "simulate") else draw(st.integers(1, 3))
    source = {"mean": draw(st.one_of(st.integers(-5, 5), st.floats(-5.0, 5.0))),
              "variance": draw(_NUMBER)}
    if dim > 1 or draw(st.booleans()):
        source["dimension"] = dim
    if dim > 1 and draw(st.booleans()):
        source["variance"] = draw(st.lists(_NUMBER, min_size=dim, max_size=dim))
        del source["dimension"]
    raw = {"mode": mode, "source": source,
           "costs": {"c": draw(_NUMBER), "d": draw(_NUMBER)}}
    if draw(st.booleans()):
        raw["seed"] = draw(st.integers(0, 2**64))
    solver = {
        "epsilon": st.one_of(st.just(0), st.floats(0.0, 1.0)),
        "max_iters": st.integers(1, 10_000),
        "pga_step": _NUMBER,
        "pga_step_rule": st.sampled_from(["constant", "inv_sqrt"]),
        "gd_step": _NUMBER,
        "mc_samples": st.integers(2, 10**6),
        "algorithm": st.sampled_from(["pga_ccp", "gda"]),
    }
    keys = draw(st.lists(st.sampled_from(sorted(solver)), unique=True))
    if keys or draw(st.booleans()):
        raw["solver"] = {key: draw(solver[key]) for key in keys}
    if mode == "large_scale":
        raw["kappa_bar"] = draw(st.floats(0.01, 0.99))
    if mode == "simulate":
        raw["n"] = n = draw(st.integers(1, 30))
        if draw(st.booleans()):
            raw["capacity"] = draw(st.integers(1, max(1, n - 1)))
        else:
            raw["kappa_bar"] = draw(st.floats(0.01, 0.99))
        simulate = {"trials": draw(st.integers(2, 10**6))}
        if n == 1 and draw(st.booleans()):
            simulate.update(alpha=draw(_UNIT), beta=draw(_UNIT))
        else:
            simulate.update(threshold=draw(st.one_of(st.just(0), _NUMBER)),
                            phi=draw(_UNIT))
        for key in ("x_hat0", "x_hat1"):
            if draw(st.booleans()):
                simulate[key] = draw(st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0)))
        raw["simulate"] = simulate
    return raw


@settings(max_examples=300, deadline=None)
@given(_valid_configs())
def test_normalized_echo_is_a_fixed_point(raw):
    first = parse_config(copy.deepcopy(raw)).normalized
    again = parse_config(json.loads(json.dumps(first))).normalized
    # compared as JSON text: key order and int/float spelling must hold too
    assert json.dumps(again) == json.dumps(first)
    assert first["mode"] == raw["mode"]


def test_echo_spells_number_fields_as_floats():
    echo = parse_config(_base_reactive(
        mode="reactive", solver={"epsilon": 1, "max_iters": 7})).normalized
    assert echo["solver"]["epsilon"] == 1.0
    assert isinstance(echo["solver"]["epsilon"], float)
    assert isinstance(echo["solver"]["max_iters"], int)


_DELETE = object()
_VALID = {
    "proactive": _base_reactive(mode="proactive"),
    "reactive": _base_reactive(mode="reactive"),
    "large_scale": _base_reactive(mode="large_scale", kappa_bar=0.5),
    "blind": {**_base_reactive(mode="simulate"), "n": 5, "capacity": 2,
              "simulate": {"trials": 10, "threshold": 1.0, "phi": 0.5}},
    "sensing": {**_base_reactive(mode="simulate"), "n": 1, "capacity": 1,
                "simulate": {"trials": 10, "alpha": 0.5, "beta": 0.5}},
    "sweep": {**copy.deepcopy(TABLE_I_SWEEP), "mode": "sweep"},
}

# (base, dotted path, bad value or _DELETE, table section, table key)
_BAD_INPUTS = [
    ("proactive", "mode", _DELETE, "", "mode"),
    ("proactive", "mode", "solve", "", "mode"),
    ("proactive", "source", _DELETE, "", "source"),
    ("proactive", "source", [0.0, 1.0], "", "source"),
    ("proactive", "costs", _DELETE, "", "costs"),
    ("proactive", "seed", -1, "", "seed"),
    ("proactive", "seed", 1.5, "", "seed"),
    ("proactive", "solver", "fast", "", "solver"),
    ("proactive", "kappa_bar", 0.5, "", "kappa_bar"),
    ("large_scale", "kappa_bar", _DELETE, "", "kappa_bar"),
    ("large_scale", "kappa_bar", 1.5, "", "kappa_bar"),
    ("large_scale", "kappa_bar", "half", "", "kappa_bar"),
    ("large_scale", "n", 5, "", "n"),
    ("blind", "n", _DELETE, "", "n"),
    ("blind", "n", 0, "", "n"),
    ("blind", "n", 2.0, "", "n"),
    ("blind", "n", 10**23, "", "n"),
    ("proactive", "capacity", 2, "", "capacity"),
    ("blind", "capacity", 9, "", "capacity"),
    ("blind", "capacity", "two", "", "capacity"),
    ("proactive", "simulate", {"trials": 10}, "", "simulate"),
    ("blind", "simulate", _DELETE, "", "simulate"),
    ("proactive", "sweep", {}, "", "sweep"),
    ("sweep", "sweep", _DELETE, "", "sweep"),
    ("proactive", "source.mean", _DELETE, "source", "mean"),
    ("proactive", "source.mean", "zero", "source", "mean"),
    ("proactive", "source.variance", _DELETE, "source", "variance"),
    ("proactive", "source.variance", -1.0, "source", "variance"),
    ("proactive", "source.variance", [1.0, -1.0], "source", "variance"),
    ("proactive", "source.dimension", 0, "source", "dimension"),
    ("proactive", "source.dimension", 2.0, "source", "dimension"),
    ("large_scale", "source.dimension", 2, "source", "dimension"),
    ("blind", "source.dimension", 2, "source", "dimension"),
    ("proactive", "costs.c", _DELETE, "costs", "c"),
    ("proactive", "costs.c", -1.0, "costs", "c"),
    ("proactive", "costs.c", 10**400, "costs", "c"),
    ("proactive", "costs.d", 0.0, "costs", "d"),
    ("proactive", "costs.d", None, "costs", "d"),
    ("proactive", "solver.epsilon", -0.1, "solver", "epsilon"),
    ("proactive", "solver.epsilon", "tiny", "solver", "epsilon"),
    ("proactive", "solver.max_iters", 0, "solver", "max_iters"),
    ("proactive", "solver.max_iters", 10.5, "solver", "max_iters"),
    ("proactive", "solver.pga_step", 0.0, "solver", "pga_step"),
    ("proactive", "solver.pga_step_rule", "linear", "solver", "pga_step_rule"),
    ("proactive", "solver.gd_step", -0.01, "solver", "gd_step"),
    ("proactive", "solver.mc_samples", 1, "solver", "mc_samples"),
    ("proactive", "solver.mc_samples", 2**64, "solver", "mc_samples"),
    ("proactive", "solver.algorithm", "newton", "solver", "algorithm"),
    # modes that never read the solver still range-check its fields
    ("large_scale", "solver.max_iters", 0, "solver", "max_iters"),
    ("blind", "solver.max_iters", 0, "solver", "max_iters"),
    ("blind", "simulate.trials", _DELETE, "simulate", "trials"),
    ("blind", "simulate.trials", 1, "simulate", "trials"),
    ("blind", "simulate.trials", True, "simulate", "trials"),
    ("blind", "simulate.threshold", -1.0, "simulate", "threshold"),
    ("blind", "simulate.threshold", _DELETE, "simulate", "threshold"),
    ("blind", "simulate.phi", 1.5, "simulate", "phi"),
    ("sensing", "simulate.alpha", 1.5, "simulate", "alpha"),
    ("sensing", "simulate.beta", -0.5, "simulate", "beta"),
    ("blind", "simulate.x_hat0", "mean", "simulate", "x_hat0"),
    ("blind", "simulate.x_hat1", [0.0], "simulate", "x_hat1"),
    ("sweep", "sweep.mode", _DELETE, "sweep", "mode"),
    ("sweep", "sweep.mode", "sweep", "sweep", "mode"),
    ("sweep", "sweep.mode", [], "sweep", "mode"),
    ("sweep", "sweep.mode", {}, "sweep", "mode"),
    ("sweep", "sweep.axes", _DELETE, "sweep", "axes"),
    ("sweep", "sweep.axes", [], "sweep", "axes"),
    ("sweep", "sweep.workers", 0, "sweep", "workers"),
    ("sweep", "sweep.workers", "all", "sweep", "workers"),
]
_BAD_AXES = [
    ({"grid": [0.5]}, "parameter"),
    ({"parameter": "", "grid": [0.5]}, "parameter"),
    ({"parameter": "kappa_bar", "grid": [0.5]}, "parameter"),
    ({"parameter": "costs.c"}, "grid"),
    ({"parameter": "costs.c", "grid": [1.0, "2"]}, "grid"),
    ({"parameter": "costs.c", "grid": [2.0, 1.0]}, "grid"),
]


def _bad_config(base, path, value):
    raw = copy.deepcopy(_VALID[base])
    *parents, last = path.split(".")
    node = raw
    for part in parents:
        node = node[part]
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    return raw


_EVERY_SOLVER_KEY = {
    "epsilon": 0.002, "max_iters": 7, "pga_step": 0.2, "pga_step_rule": "inv_sqrt",
    "gd_step": 0.02, "mc_samples": 3000, "algorithm": "gda",
}


@pytest.mark.parametrize("base, echoed", [
    ("proactive", None),
    ("reactive", list(_EVERY_SOLVER_KEY)),
    ("large_scale", None),
    ("blind", None),
    ("sensing", None),
])
def test_echo_holds_only_the_solver_fields_the_run_reads(base, echoed):
    raw = copy.deepcopy(_VALID[base])
    # every solver key is accepted as input, read by the run or not
    raw["solver"] = dict(_EVERY_SOLVER_KEY)
    echo = parse_config(raw).normalized
    assert parse_config(json.loads(json.dumps(echo))).normalized == echo
    if echoed is None:
        assert "solver" not in echo
    else:
        assert echo["solver"] == {key: _EVERY_SOLVER_KEY[key] for key in echoed}


@pytest.mark.parametrize(
    "base, path, value, section, key", _BAD_INPUTS,
    ids=[f"{b}-{p}-{'missing' if v is _DELETE else repr(v)[:12]}"
         for b, p, v, _, _ in _BAD_INPUTS],
)
def test_bad_input_names_its_field(base, path, value, section, key):
    with pytest.raises(ConfigError) as caught:
        parse_config(_bad_config(base, path, value))
    message = str(caught.value)
    assert section in message and key in message, message


@pytest.mark.parametrize("axis, key", _BAD_AXES)
def test_bad_sweep_axis_names_its_field(axis, key):
    raw = copy.deepcopy(_VALID["sweep"])
    raw["sweep"]["axes"].append(axis)
    with pytest.raises(ConfigError, match=rf"^sweep\.axes\[2\](\.{key}|: )") as caught:
        parse_config(raw)
    assert key in str(caught.value)


def test_bad_inputs_cover_every_table_row():
    rows = {(section, key) for section, keys in _FIELDS.items() for key in keys}
    covered = {(section, key) for *_, section, key in _BAD_INPUTS}
    covered |= {("sweep.axes", key) for _, key in _BAD_AXES}
    assert covered == rows


def _spelled(value) -> str:
    return f"{value:g}".replace("e-0", "e-") if isinstance(value, float) else str(value)


def test_readme_schema_states_every_key_and_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    schema = readme.split("## Config schema", 1)[1].split("\n## ", 1)[0]
    defaults = set()
    for section, rows in _FIELDS.items():
        for key, (_, default) in rows.items():
            assert f"`{key}`" in schema or f"`{section}.{key}`" in schema, key
            if default not in (None, _REQUIRED, {}):
                defaults.add(default)
    for default in defaults:
        assert _spelled(default) in schema, default
    for spelled in ("1e-5", "5000", "0.1", "0.01", "10000", "4"):
        assert spelled in {_spelled(d) for d in defaults}
