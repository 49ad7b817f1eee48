"""jamgame benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of simulate-channel, solve-scalar, solve-vector, sweep-grid.  A
single client drives `jamgame.cli.run(argv)` in process, one call per op,
on configs generated from the seed during set-up, and checks every output
off the clock.  The loop runs whole rounds of the workload (see
workloads.py), as many as take about S seconds of op time on the reference
host (`ROUND_SECONDS`); the count never depends on the clock, so a seed
always attempts the same ops.

--trace 0 reports the end-to-end metrics; --trace 1 runs the round in
passes, each op once untraced and once traced, and reports per-layer metrics
from the traced copies (see tracing.py and NOTES.md).  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  The exit code is 0 when
every output check passed and 1 when one failed.  `--workload all` runs every
workload in turn, each in a fresh process, and prints each one's report.

Configs and op outputs go to a temporary directory under .bench_work/ at the
checkout root, removed when the run ends; a traced run leaves its spans in
.bench_work/spans-NAME.npz.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"
WORKLOADS = ("simulate-channel", "solve-scalar", "solve-vector", "sweep-grid")
SETUP_RUNS = 5
TAIL_OPS = 10
FAILURE_CAUSES = ("exception", "exit2", "exit3", "exit_other", "check")
# Op time of one round on the reference host of NOTES.md (2-core x86-64
# virtual machine); `rounds_for` sizes a run from it.
ROUND_SECONDS = {
    "simulate-channel": 4.5,
    "solve-scalar": 3.5,
    "solve-vector": 3.0,
    "sweep-grid": 2.5,
}


def import_library():
    """Import jamgame from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "jamgame" / "__init__.py").is_file():
        sys.exit(f"error: {src}/jamgame not found; run from a jamgame checkout")
    sys.path.insert(0, str(src))
    import jamgame
    import jamgame.cli

    if Path(jamgame.__file__).resolve().parent != src / "jamgame":
        sys.exit(f"error: imported jamgame from {jamgame.__file__}, not {src}")
    return jamgame


@dataclass
class OpResult:
    latency: float
    causes: tuple[str, ...]
    problems: list[str]


@dataclass
class Session:
    """A workload's configs written to disk, and the means to run its ops."""

    jamgame: object
    workload: object
    check: object
    work: Path
    paths: dict = field(default_factory=dict)

    def write_configs(self) -> None:
        configs = self.work / "configs"
        configs.mkdir()
        for i, op in enumerate(self.workload.ops):
            path = configs / f"op{i}.json"
            path.write_text(json.dumps(op.config))
            self.paths[id(op)] = str(path)

    def run(self, op, tracer=None, op_id=-1) -> OpResult:
        out = self.work / "out"
        argv = list(op.command) + ["--config", self.paths[id(op)],
                                   "--out", str(out)]
        cli = self.jamgame.cli
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.run(argv)
            else:
                code = tracer.op(op_id, cli.run, argv)
        except Exception as exc:
            latency = time.perf_counter() - start
            shutil.rmtree(out, ignore_errors=True)
            return OpResult(latency, ("exception",),
                            [f"{type(exc).__name__}: {exc}"])
        latency = time.perf_counter() - start
        causes = [] if code == 0 else [
            {2: "exit2", 3: "exit3"}.get(code, "exit_other")]
        problems = []
        if code in (0, 3):
            try:
                problems = self.check(op, code, out)
            except (KeyError, TypeError, ValueError, OSError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if problems:
                causes.append("check")
        shutil.rmtree(out, ignore_errors=True)
        return OpResult(latency, tuple(causes), problems)


def open_session(jamgame, name: str, seed: int, work: Path) -> Session:
    """Set-up: generate and write the configs, then one untimed warm-up op.

    The warm-up op is one of the round's own ops; its outcome is judged when
    the round runs it, so it is not judged here.
    """
    session = Session(jamgame, workloads.GENERATORS[name](seed),
                      workloads.CHECKS[name], work)
    session.write_configs()
    session.run(session.workload.warmup)
    return session


def make_workdir(name: str, seed: int) -> Path:
    WORK_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{name}-s{seed}-", dir=WORK_ROOT))


def measure_setup(name: str, seed: int) -> float:
    """Wall time of a fresh process that imports jamgame, writes the configs
    and runs the warm-up op."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


# -- metric run ----------------------------------------------------------------

class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.causes = dict.fromkeys(FAILURE_CAUSES, 0)
        self.failed = 0
        self.problems: list[str] = []

    def add(self, result: OpResult, label: str) -> None:
        self.latencies.append(result.latency)
        for cause in result.causes:
            self.causes[cause] += 1
        self.failed += bool(result.causes)
        self.problems += [f"{label}: {p}" for p in result.problems]

    @property
    def correct(self) -> bool:
        return self.causes["check"] == 0


@dataclass
class Report:
    tally: Tally
    metrics: dict  # name -> (value, unit)
    lines: list[str]
    table: object = None  # tracing.SpanTable of a traced run


def rounds_for(name: str, seconds: float) -> int:
    """Whole rounds that take about `seconds` of op time on the reference
    host.  The count depends only on the workload and `seconds`, never on
    the clock, so a seed always attempts the same ops and a failing op
    fails the same number of times in every run."""
    return max(1, round(seconds / ROUND_SECONDS[name]))


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) of the highest order statistic with at least
    TAIL_OPS ops above it; the fastest op when there are too few ops."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - TAIL_OPS - 1, 0)
    return ordered[k], 100.0 * k / n if n > TAIL_OPS else 0.0


def metric_run(session: Session, seconds: float, setup_probe) -> Report:
    """`setup_probe()` times one fresh set-up process.  It runs SETUP_RUNS
    times, between rounds spread over the run, because a set-up lasts about
    a second and the host's speed drifts over seconds."""
    tally = Tally()
    ops = session.workload.ops
    rounds = rounds_for(session.workload.name, seconds)
    every = max(1, rounds // SETUP_RUNS)
    setup = []
    round_times = []
    for r in range(rounds):
        if r % every == 0 and len(setup) < SETUP_RUNS:
            setup.append(setup_probe())
        elapsed = 0.0
        for i, op in enumerate(ops):
            result = session.run(op)
            elapsed += result.latency
            tally.add(result, f"round {r} op {i} ({op.kind})")
        round_times.append(elapsed)
    while len(setup) < SETUP_RUNS:  # runs of fewer rounds than SETUP_RUNS
        setup.append(setup_probe())
    lat = tally.latencies
    tail_s, tail_pct = tail(lat)
    n = len(lat)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (n / sum(round_times), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail_s, "s"),
        "ok_op_frac": ((n - tally.failed) / n, "fraction"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    lines = [
        f"{len(round_times)} rounds of {len(ops)} ops, {n} ops, "
        f"measured op time {sum(round_times):.3f} s",
        "round times " + ", ".join(f"{t:.3f}" for t in round_times) + " s",
        "setup runs " + ", ".join(f"{t:.4f}" for t in setup) + " s",
        f"op_tail_s is the p{tail_pct:.2f} latency over {n} ops",
        f"failed_op_frac {tally.failed / n:.6f} fraction"
        f" ({tally.failed} of {n}: "
        + ", ".join(f"{k} {v}" for k, v in tally.causes.items()) + ")",
    ]
    return Report(tally, metrics, lines)


# -- traced run ----------------------------------------------------------------

def traced_run(session: Session, seconds: float) -> Report:
    tracer = tracing.Tracer(session.jamgame)
    tally = Tally()
    ops = session.workload.ops
    time_by_mode = {False: 0.0, True: 0.0}
    # each pass runs the round twice, once untraced and once traced
    passes = rounds_for(session.workload.name, seconds / 2)
    for p in range(passes):
        for i, op in enumerate(ops):
            op_id = p * len(ops) + i
            # alternate which copy runs first so neither always finds warm caches
            for traced in (False, True) if (i + p) % 2 == 0 else (True, False):
                if traced:
                    tracer.install()
                    try:
                        result = session.run(op, tracer, op_id)
                    finally:
                        tracer.uninstall()
                else:
                    result = session.run(op)
                time_by_mode[traced] += result.latency
                tally.add(result, f"pass {p} op {i} ({op.kind})")
    table = tracer.table()
    metrics = layer_metrics(table, tracer.events, passes, len(ops),
                            time_by_mode[False], time_by_mode[True])
    lines = [
        f"passes {passes} over {len(ops)} ops, each op untraced and traced; "
        f"{len(table.sid)} spans",
        "counts are per pass (the first pass); times are per pass, averaged",
        f"untraced op time {time_by_mode[False]:.3f} s, "
        f"traced {time_by_mode[True]:.3f} s",
    ]
    return Report(tally, metrics, lines, table)


def layer_metrics(table, events, passes, n_ops, untraced_s, traced_s) -> dict:
    first = table.op < n_ops

    def calls(*names):
        return int(np.count_nonzero(table.mask(*names) & first))

    def self_s(*names):
        return float(table.self_time[table.mask(*names)].sum()) / passes

    def payloads(kind, first_pass_only=True):
        return [e.payload for e in events if e.kind == kind
                and (not first_pass_only
                     or table.op[np.searchsorted(table.sid, e.sid)] < n_ops)]

    def ratio(num, den):
        return num / den if den else 0.0

    solves = payloads("solve")
    iterations = sum(p[0] for p in solves)
    all_iterations = sum(p[0] for p in payloads("solve", False))
    in_solve = table.within(*tracing.SOLVERS) & first
    model = table.mask(*(f"reactive.{c}.{m}" for c in tracing.MODEL_CLASSES
                         for m in tracing.MODEL_METHODS))
    parent_is_model = np.zeros_like(model)
    has_parent = table.parent >= 0
    parent_is_model[has_parent] = model[table.parent[has_parent]]
    outer_model = model & ~parent_is_model & in_solve
    transmit = table.mask("reactive.transmit_region") & in_solve

    rounds = sum(p[0] for p in payloads("rounds"))
    all_rounds = sum(p[0] for p in payloads("rounds", False))
    cost_time = float(table.duration[table.mask("network.estimate_cost")].sum())
    roots = payloads("mc_root")

    sweeps = [e for e in events if e.kind == "sweep"]
    sweep_capacity = sum(
        e.payload[1] * table.duration[np.searchsorted(table.sid, e.sid)]
        for e in sweeps)
    foreign = has_parent.copy()
    foreign[has_parent] = table.thread[has_parent] != table.thread[
        table.parent[has_parent]]
    pool_busy = float(table.duration[foreign].sum())

    s, count, frac = "s", "count", "fraction"
    return {
        "gaussian.interval_moments.calls": (calls("gaussian.interval_moments"), count),
        "gaussian.interval_moments.self_s": (self_s("gaussian.interval_moments"), s),
        "gaussian.philox_rng.calls": (calls("gaussian.philox_rng"), count),
        "gaussian.philox_rng.self_s": (self_s("gaussian.philox_rng"), s),
        "gaussian.sample.calls": (calls("gaussian.sample"), count),
        "gaussian.sample.self_s": (self_s("gaussian.sample"), s),
        "reactive.solve.calls": (len(solves), count),
        "reactive.solve.self_s": (self_s(*tracing.SOLVERS), s),
        "reactive.iterations": (iterations, count),
        "reactive.s_per_iter": (ratio(float(table.duration[
            table.mask(*tracing.SOLVERS)].sum()), all_iterations), s),
        "reactive.model_calls_per_iter": (
            ratio(int(np.count_nonzero(outer_model)), iterations), "calls/iter"),
        "reactive.transmit_region.calls_per_iter": (
            ratio(int(np.count_nonzero(transmit)), iterations), "calls/iter"),
        "reactive.converged_frac": (
            ratio(sum(bool(p[1]) for p in solves), len(solves)), frac),
        "network.estimate_cost.calls": (calls("network.estimate_cost"), count),
        "network.estimate_cost.self_s": (self_s("network.estimate_cost"), s),
        "network.sensor_rounds": (rounds, count),
        "network.sensor_rounds_per_s": (ratio(all_rounds, cost_time), "1/s"),
        "proactive.solve_saddle_vector.calls": (
            calls("proactive.solve_saddle_vector"), count),
        "proactive.solve_saddle_vector.self_s": (
            self_s("proactive.solve_saddle_vector"), s),
        "proactive.mc_root_accept_frac": (
            ratio(sum(bool(p[0]) for p in roots), len(roots)), frac),
        "proactive.solve_saddle.calls": (calls("proactive.solve_saddle"), count),
        "proactive.solve_saddle.self_s": (self_s("proactive.solve_saddle"), s),
        "largescale.classify_and_solve.calls": (
            calls("largescale.classify_and_solve"), count),
        "largescale.classify_and_solve.self_s": (
            self_s("largescale.classify_and_solve"), s),
        "cli.run.self_s": (self_s("cli.run"), s),
        "cli.parse_config.self_s": (self_s("cli.parse_config"), s),
        "cli.execute.self_s": (self_s("cli.execute"), s),
        "cli.emit_table.self_s": (self_s("cli.emit_table"), s),
        "cli.sweep.points": (sum(p[0] for p in payloads("sweep")), count),
        "cli.sweep.pool_busy_frac": (ratio(pool_busy, sweep_capacity), frac),
        "trace.overhead_frac": (1.0 - ratio(untraced_s, traced_s), frac),
    }


# -- entry points ----------------------------------------------------------------

def run_workload(args) -> int:
    jamgame = import_library()
    work = make_workdir(args.workload, args.seed)
    try:
        session = open_session(jamgame, args.workload, args.seed, work)
        if args.setup_only:
            return 0
        if args.trace:
            report = traced_run(session, args.seconds)
        else:
            report = metric_run(session, args.seconds, lambda: measure_setup(
                args.workload, args.seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if report.table is not None:
        np.savez_compressed(WORK_ROOT / f"spans-{args.workload}.npz",
                            spans=report.table.data,
                            names=np.array(report.table.names))
    tally = report.tally
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in report.lines:
        print(f"  {line}")
    for name, (value, unit) in report.metrics.items():
        print(f"  {name:42s} {value:>16.6g} {unit}")
    for problem in tally.problems[:20]:
        print(f"  CHECK FAILED {problem}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in report.metrics.items()},
    }))
    return 0 if tally.correct else 1


def run_all(args) -> int:
    """Every workload in a fresh process, one after the other; the exit code
    is the first non-zero one."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
                name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        code = subprocess.run(argv, cwd=ROOT).returncode
        status = status or code
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
