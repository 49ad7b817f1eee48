"""Configuration-driven command line: solve, simulate, and sweep experiments.

An experiment is described by one JSON object (schema in the README) and
launched with `jamgame solve proactive|reactive|large-scale`, `jamgame
simulate`, or `jamgame sweep`.  Validation is strict: unknown keys, missing
mode-required fields, and malformed grids are errors that name the offending
field and exit with code 2.  Each run writes a full-precision `result.json`
record; iterative solvers add a per-iteration `trace.csv` and sweeps add a
`table.csv` with one row per grid point, rounded for reading (the record
keeps full precision).  Non-convergence is reported through exit code 3 with
the record still written, so sweeps can continue past hard instances and
mark them.  A solver's failed accuracy check (`ConvergenceError`) also exits
3 with the record written and its message in the `error` output; inside a
sweep it becomes that point's record and the sweep goes on.

Sweep points run on a small thread pool; all files are written by the
collector in grid order, and every draw is seeded per point, so results do
not depend on the worker count.
"""

from __future__ import annotations

import argparse
import copy
import csv
import io
import itertools
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .gaussian import DiagonalGaussian, ScalarGaussian, tail_prob
from .largescale import classify_and_solve
from .network import NetworkConfig, RoundPolicies, estimate_cost, jn_analytic
from .proactive import MC_SAMPLES as PROACTIVE_MC_SAMPLES
from .proactive import (
    ConvergenceError,
    GameCosts,
    ReprSymbols,
    solve_saddle,
    solve_saddle_vector,
)
from .reactive import (
    FneReport,
    ReactivePolicy,
    SolverConfig,
    solve_gda,
    solve_pga_ccp,
    transmit_region,
)
from .reactive import objective as reactive_objective

_MODES = ("proactive", "reactive", "large_scale", "simulate", "sweep")
_ALGORITHMS = ("pga_ccp", "gda")

_TOP_KEYS = frozenset(
    ("mode", "source", "costs", "seed", "solver", "kappa_bar", "n",
     "capacity", "simulate", "sweep")
)
_SOURCE_KEYS = frozenset(("mean", "variance", "dimension"))
_COSTS_KEYS = frozenset(("c", "d"))
_SOLVER_KEYS = frozenset(
    ("epsilon", "max_iters", "pga_step", "pga_step_rule", "gd_step",
     "mc_samples", "algorithm")
)
_SIMULATE_KEYS = frozenset(
    ("trials", "threshold", "phi", "alpha", "beta", "x_hat0", "x_hat1")
)
_SWEEP_KEYS = frozenset(("mode", "axes", "workers"))
_AXIS_KEYS = frozenset(("parameter", "grid"))

# SolverConfig's defaults (its seed is the top-level key); the vector
# proactive saddle has its own default sample count
_SOLVER_DEFAULTS = {
    f.name: f.default for f in fields(SolverConfig) if f.name != "seed"
} | {"algorithm": _ALGORITHMS[0]}
_PROACTIVE_DEFAULTS = _SOLVER_DEFAULTS | {"mc_samples": PROACTIVE_MC_SAMPLES}

# fixed table column order; a table only shows the columns its records fill
_TABLE_COLUMNS = (
    "case", "threshold", "transmit_prob", "phi_star", "phi_star_interval",
    "lambda_star", "alpha", "beta", "x_hat0", "x_hat1", "value",
    "value_std_err", "std_err", "analytic_value", "trials", "fne_index",
    "fne_std_err", "iterations", "converged",
)


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


def _check_keys(obj: dict, allowed: frozenset, where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key {key!r}")


def _require_dict(raw: dict, key: str, where: str = "") -> dict:
    label = f"{where}.{key}" if where else key
    value = raw.get(key)
    if value is None:
        raise ConfigError(f"{label}: required section is missing")
    if not isinstance(value, dict):
        raise ConfigError(f"{label}: must be an object")
    return value


def _number(value, label: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{label}: must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{label}: must be finite, got {value!r}")
    return float(value)


def _integer(value, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{label}: must be an integer, got {value!r}")
    return value


def _vector(value, dimension: int, label: str) -> np.ndarray:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return np.full(dimension, _number(value, label))
    if isinstance(value, list):
        if len(value) != dimension:
            raise ConfigError(
                f"{label}: expected {dimension} entries, got {len(value)}"
            )
        return np.array([_number(v, label) for v in value])
    raise ConfigError(
        f"{label}: must be a number or a list of numbers, got {value!r}"
    )


@dataclass(frozen=True)
class SimulatePlan:
    """Resolved policy and trial budget for one simulation run."""

    trials: int
    threshold: float | None
    phi: float | None
    alpha: float | None
    beta: float | None
    x_hat0: float
    x_hat1: float


@dataclass(frozen=True, eq=False)
class SweepPlan:
    """Grid axes over a base experiment, run point by point."""

    mode: str
    axes: tuple[tuple[str, tuple[float, ...]], ...]
    workers: int
    points: tuple["ExperimentConfig", ...]


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Validated experiment with a normalized echo for exact re-execution."""

    mode: str
    source: ScalarGaussian | DiagonalGaussian
    costs: GameCosts
    solver: SolverConfig
    algorithm: str
    seed: int
    kappa_bar: float | None
    network: NetworkConfig | None
    simulate_plan: SimulatePlan | None
    sweep_plan: SweepPlan | None
    normalized: dict


@dataclass(frozen=True, eq=False)
class ResultRecord:
    """One run's outputs with the config echo and provenance for replay."""

    config: dict
    outputs: dict
    provenance: dict
    trace_path: str | None = None

    def __post_init__(self):
        _check_finite(self.outputs, "outputs")

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "outputs": self.outputs,
            "provenance": self.provenance,
            "trace": self.trace_path,
        }


def _check_finite(value, label: str) -> None:
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{label} is not finite: {value!r}")
        return
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _check_finite(item, f"{label}[{i}]")
        return
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, f"{label}.{key}")
        return
    raise ValueError(f"{label} has unsupported type {type(value).__name__}")


def _parse_source(raw: dict):
    section = _require_dict(raw, "source")
    _check_keys(section, _SOURCE_KEYS, "source")
    if "mean" not in section:
        raise ConfigError("source.mean: required field is missing")
    if "variance" not in section:
        raise ConfigError("source.variance: required field is missing")
    if "dimension" in section:
        dimension = _integer(section["dimension"], "source.dimension")
        if dimension < 1:
            raise ConfigError(f"source.dimension: must be >= 1, got {dimension}")
    else:
        # the first list value's length; `_vector` names a list of another
        dimension = 1
        for key in ("mean", "variance"):
            if isinstance(section[key], list):
                dimension = len(section[key])
                if dimension < 1:
                    raise ConfigError(f"source.{key}: must not be empty")
                break
    mean = _vector(section["mean"], dimension, "source.mean")
    variance = _vector(section["variance"], dimension, "source.variance")
    try:
        if dimension == 1:
            source = ScalarGaussian(float(mean[0]), float(variance[0]))
        else:
            source = DiagonalGaussian(mean, variance)
    except ValueError as exc:
        raise ConfigError(f"source: {exc}") from exc
    normalized = {
        "mean": section["mean"],
        "variance": section["variance"],
        "dimension": dimension,
    }
    return source, normalized


def _parse_costs(raw: dict) -> GameCosts:
    section = _require_dict(raw, "costs")
    _check_keys(section, _COSTS_KEYS, "costs")
    if "c" not in section:
        raise ConfigError("costs.c: required field is missing")
    if "d" not in section:
        raise ConfigError("costs.d: required field is missing")
    try:
        return GameCosts(
            _number(section["c"], "costs.c"), _number(section["d"], "costs.d")
        )
    except ValueError as exc:
        raise ConfigError(f"costs: {exc}") from exc


def _parse_solver(raw: dict, seed: int, mode: str) -> tuple[SolverConfig, str, dict]:
    section = raw.get("solver", {})
    if not isinstance(section, dict):
        raise ConfigError("solver: must be an object")
    _check_keys(section, _SOLVER_KEYS, "solver")
    filled = dict(_PROACTIVE_DEFAULTS if mode == "proactive" else _SOLVER_DEFAULTS)
    filled.update(section)
    algorithm = filled["algorithm"]
    if algorithm not in _ALGORITHMS:
        raise ConfigError(
            f"solver.algorithm: must be one of {list(_ALGORITHMS)}, "
            f"got {algorithm!r}"
        )
    try:
        solver = SolverConfig(
            epsilon=_number(filled["epsilon"], "solver.epsilon"),
            max_iters=_integer(filled["max_iters"], "solver.max_iters"),
            pga_step=_number(filled["pga_step"], "solver.pga_step"),
            pga_step_rule=filled["pga_step_rule"],
            gd_step=_number(filled["gd_step"], "solver.gd_step"),
            mc_samples=_integer(filled["mc_samples"], "solver.mc_samples"),
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc
    return solver, algorithm, filled


def _forbid(raw: dict, keys: tuple[str, ...], mode: str) -> None:
    for key in keys:
        if key in raw:
            raise ConfigError(f"{key}: not valid in {mode!r} mode")


def _parse_simulate(raw: dict, source_mean: float) -> tuple[SimulatePlan, dict]:
    section = _require_dict(raw, "simulate")
    _check_keys(section, _SIMULATE_KEYS, "simulate")
    if "trials" not in section:
        raise ConfigError("simulate.trials: required field is missing")
    trials = _integer(section["trials"], "simulate.trials")
    if trials < 2:
        raise ConfigError(f"simulate.trials: must be >= 2, got {trials}")
    blind = "threshold" in section or "phi" in section
    reactive = "alpha" in section or "beta" in section
    if blind == reactive:
        raise ConfigError(
            "simulate: choose one policy, either (threshold, phi) or "
            "(alpha, beta)"
        )
    threshold = phi = alpha = beta = None
    if blind:
        if "threshold" not in section or "phi" not in section:
            raise ConfigError(
                "simulate: threshold and phi are required together"
            )
        threshold = _number(section["threshold"], "simulate.threshold")
        phi = _number(section["phi"], "simulate.phi")
        if threshold < 0.0:
            raise ConfigError("simulate.threshold: must be nonnegative")
        if not 0.0 <= phi <= 1.0:
            raise ConfigError(f"simulate.phi: must lie in [0, 1], got {phi}")
    else:
        if "alpha" not in section or "beta" not in section:
            raise ConfigError("simulate: alpha and beta are required together")
        alpha = _number(section["alpha"], "simulate.alpha")
        beta = _number(section["beta"], "simulate.beta")
        for name, value in (("alpha", alpha), ("beta", beta)):
            if not 0.0 <= value <= 1.0:
                raise ConfigError(
                    f"simulate.{name}: must lie in [0, 1], got {value}"
                )
    x_hat0 = _number(section.get("x_hat0", source_mean), "simulate.x_hat0")
    x_hat1 = _number(section.get("x_hat1", source_mean), "simulate.x_hat1")
    plan = SimulatePlan(trials, threshold, phi, alpha, beta, x_hat0, x_hat1)
    normalized = {"trials": trials, "x_hat0": x_hat0, "x_hat1": x_hat1}
    if blind:
        normalized.update(threshold=threshold, phi=phi)
    else:
        normalized.update(alpha=alpha, beta=beta)
    return plan, normalized


def _set_path(raw: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    if any(not part for part in parts):
        raise ConfigError(f"{dotted!r}: empty component in key path")
    node = raw
    for part in parts[:-1]:
        child = node.setdefault(part, {})
        if not isinstance(child, dict):
            raise ConfigError(
                f"{dotted}: {part!r} is a value, cannot descend into it"
            )
        node = child
    node[parts[-1]] = value


def _get_path(config: dict, dotted: str):
    node = config
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _parse_sweep(raw: dict) -> tuple[SweepPlan, dict]:
    section = _require_dict(raw, "sweep")
    _check_keys(section, _SWEEP_KEYS, "sweep")
    mode = section.get("mode")
    if mode not in _MODES or mode == "sweep":
        raise ConfigError(
            "sweep.mode: must be one of ['proactive', 'reactive', "
            f"'large_scale', 'simulate'], got {mode!r}"
        )
    axes_raw = section.get("axes")
    if not isinstance(axes_raw, list) or not axes_raw:
        raise ConfigError("sweep.axes: must be a nonempty list")
    axes = []
    for i, axis in enumerate(axes_raw):
        label = f"sweep.axes[{i}]"
        if not isinstance(axis, dict):
            raise ConfigError(f"{label}: must be an object")
        _check_keys(axis, _AXIS_KEYS, label)
        parameter = axis.get("parameter")
        if not isinstance(parameter, str) or not parameter:
            raise ConfigError(f"{label}.parameter: must be a nonempty string")
        grid_raw = axis.get("grid")
        if not isinstance(grid_raw, list) or not grid_raw:
            raise ConfigError(f"{label}.grid: must be a nonempty list")
        for j, value in enumerate(grid_raw):
            _number(value, f"{label}.grid[{j}]")
        # keep the JSON types so integer fields can be swept too
        grid = tuple(grid_raw)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError(f"{label}.grid: must be strictly increasing")
        axes.append((parameter, grid))
    workers = _integer(section.get("workers", 4), "sweep.workers")
    if workers < 1:
        raise ConfigError(f"sweep.workers: must be >= 1, got {workers}")

    base = {k: copy.deepcopy(v) for k, v in raw.items() if k != "sweep"}
    base["mode"] = mode
    points = []
    for combo in itertools.product(*(grid for _, grid in axes)):
        point_raw = copy.deepcopy(base)
        for (parameter, _), value in zip(axes, combo):
            _set_path(point_raw, parameter, value)
        try:
            points.append(parse_config(point_raw))
        except ConfigError as exc:
            at = ", ".join(
                f"{p}={v}" for (p, _), v in zip(axes, combo)
            )
            raise ConfigError(f"sweep point ({at}): {exc}") from exc
    plan = SweepPlan(mode, tuple(axes), workers, tuple(points))
    normalized = {
        "mode": mode,
        "axes": [
            {"parameter": p, "grid": list(g)} for p, g in axes
        ],
        "workers": workers,
    }
    return plan, normalized


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict into a runnable experiment.

    Unknown keys anywhere are errors; every message names the offending
    field.  The returned `normalized` echo has all defaults filled in, so
    re-parsing it reproduces the run exactly.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be an object")
    _check_keys(raw, _TOP_KEYS, "config")
    mode = raw.get("mode")
    if mode not in _MODES:
        raise ConfigError(f"mode: must be one of {list(_MODES)}, got {mode!r}")

    source, source_norm = _parse_source(raw)
    costs = _parse_costs(raw)
    seed = _integer(raw.get("seed", 0), "seed")
    if seed < 0:
        raise ConfigError(f"seed: must be nonnegative, got {seed}")
    solver, algorithm, solver_norm = _parse_solver(raw, seed, mode)
    dimension = source_norm["dimension"]

    normalized = {
        "mode": mode,
        "source": source_norm,
        "costs": {"c": costs.c, "d": costs.d},
        "seed": seed,
        "solver": solver_norm,
    }

    kappa_bar = None
    network = None
    simulate_plan = None
    sweep_plan = None

    if mode in ("proactive", "reactive"):
        _forbid(raw, ("kappa_bar", "n", "capacity", "simulate", "sweep"), mode)
    elif mode == "large_scale":
        _forbid(raw, ("n", "capacity", "simulate", "sweep"), mode)
        if dimension != 1:
            raise ConfigError("source.dimension: large_scale mode is scalar")
        if "kappa_bar" not in raw:
            raise ConfigError("kappa_bar: required in large_scale mode")
        kappa_bar = _number(raw["kappa_bar"], "kappa_bar")
        if not 0.0 < kappa_bar < 1.0:
            raise ConfigError(
                f"kappa_bar: must lie in (0, 1), got {kappa_bar}"
            )
        normalized["kappa_bar"] = kappa_bar
    elif mode == "simulate":
        _forbid(raw, ("sweep",), mode)
        if dimension != 1:
            raise ConfigError("source.dimension: simulate mode is scalar")
        if "n" not in raw:
            raise ConfigError("n: required in simulate mode")
        n = _integer(raw["n"], "n")
        if ("capacity" in raw) == ("kappa_bar" in raw):
            raise ConfigError(
                "capacity: give exactly one of capacity or kappa_bar"
            )
        try:
            if "capacity" in raw:
                capacity = _integer(raw["capacity"], "capacity")
                network = NetworkConfig(n, capacity)
            else:
                kappa_bar = _number(raw["kappa_bar"], "kappa_bar")
                network = NetworkConfig.from_kappa(n, kappa_bar)
        except ValueError as exc:
            raise ConfigError(f"capacity: {exc}") from exc
        simulate_plan, simulate_norm = _parse_simulate(raw, source.mean)
        if simulate_plan.alpha is not None and n != 1:
            raise ConfigError(
                "simulate: the (alpha, beta) jammer requires n = 1"
            )
        normalized["n"] = n
        normalized["capacity"] = network.capacity
        normalized["simulate"] = simulate_norm
    else:  # sweep
        sweep_plan, sweep_norm = _parse_sweep(raw)
        normalized = {
            k: copy.deepcopy(v) for k, v in raw.items() if k != "sweep"
        }
        normalized["mode"] = "sweep"
        normalized["sweep"] = sweep_norm

    return ExperimentConfig(
        mode=mode,
        source=source,
        costs=costs,
        solver=solver,
        algorithm=algorithm,
        seed=seed,
        kappa_bar=kappa_bar,
        network=network,
        simulate_plan=simulate_plan,
        sweep_plan=sweep_plan,
        normalized=normalized,
    )


def _symbol_output(values: np.ndarray):
    flat = [float(v) for v in np.atleast_1d(values)]
    return flat[0] if len(flat) == 1 else flat


def _run_proactive(config: ExperimentConfig):
    if isinstance(config.source, ScalarGaussian):
        saddle = solve_saddle(config.source, config.costs)
        transmit_prob = 2.0 * tail_prob(
            config.source.centered(), math.sqrt(saddle.threshold)
        )
    else:
        saddle = solve_saddle_vector(
            config.source,
            config.costs,
            samples=config.solver.mc_samples,
            seed=config.seed,
        )
        transmit_prob = None
    outputs = {
        "case": saddle.case,
        "threshold": float(saddle.threshold),
        "phi_star": float(saddle.phi_star),
        "x_hat0": _symbol_output(saddle.estimator.x_hat0),
        "x_hat1": _symbol_output(saddle.estimator.x_hat1),
        "value": float(saddle.value),
        "value_std_err": float(saddle.value_std_err),
    }
    if transmit_prob is not None:
        outputs["transmit_prob"] = float(transmit_prob)
    return outputs, None


def _run_reactive(config: ExperimentConfig):
    solve = solve_pga_ccp if config.algorithm == "pga_ccp" else solve_gda
    report = solve(config.source, config.costs, config.solver)
    last = report.trace[-1]
    outputs = {
        "alpha": float(report.policy.alpha),
        "beta": float(report.policy.beta),
        "x_hat0": _symbol_output(report.symbols.x_hat0),
        "x_hat1": _symbol_output(report.symbols.x_hat1),
        "value": float(last.objective),
        "fne_index": float(report.fne_index),
        "fne_std_err": float(report.fne_std_err),
        "iterations": report.iterations,
        "converged": report.converged,
    }
    return outputs, report


def _run_large_scale(config: ExperimentConfig):
    saddle = classify_and_solve(config.source, config.costs, config.kappa_bar)
    outputs = {
        "case": saddle.case_id,
        "threshold": float(saddle.threshold),
        "transmit_prob": float(saddle.transmit_prob),
        "phi_star": float(saddle.phi_star),
        "lambda_star": float(saddle.lambda_star),
        "x_hat0": _symbol_output(saddle.estimator.x_hat0),
        "x_hat1": _symbol_output(saddle.estimator.x_hat1),
        "value": float(saddle.value),
    }
    if saddle.phi_star_interval is not None:
        outputs["phi_star_interval"] = [
            float(v) for v in saddle.phi_star_interval
        ]
    return outputs, None


def _run_simulate(config: ExperimentConfig):
    plan = config.simulate_plan
    symbols = ReprSymbols(plan.x_hat0, plan.x_hat1)
    if plan.threshold is not None:
        policies = RoundPolicies(
            symbols=symbols, threshold=plan.threshold, jam_phi=plan.phi
        )
        analytic = jn_analytic(
            config.source, config.costs, config.network, plan.threshold,
            symbols, plan.phi,
        )
    else:
        policy = ReactivePolicy(plan.alpha, plan.beta)
        region = transmit_region(symbols, policy, config.costs)
        policies = RoundPolicies(
            symbols=symbols, region=region, jam_reactive=policy
        )
        analytic = reactive_objective(
            config.source, config.costs, symbols, policy
        )
    estimate = estimate_cost(
        config.source, config.costs, config.network, policies,
        trials=plan.trials, seed=config.seed,
    )
    outputs = {
        "value": float(estimate.mean),
        "std_err": float(estimate.std_err),
        "trials": estimate.trials,
        "analytic_value": float(analytic),
        "x_hat0": plan.x_hat0,
        "x_hat1": plan.x_hat1,
    }
    return outputs, None


_POINT_RUNNERS = {
    "proactive": _run_proactive,
    "reactive": _run_reactive,
    "large_scale": _run_large_scale,
    "simulate": _run_simulate,
}


@dataclass(frozen=True, eq=False)
class ExecutionResult:
    """Everything `run` writes: the record, plus trace and table material."""

    record: ResultRecord
    report: FneReport | None = None
    point_records: tuple[ResultRecord, ...] | None = None
    parameters: tuple[str, ...] = ()

    @property
    def non_converged(self) -> int:
        return _non_converged(self.point_records or (self.record,))


def _non_converged(records) -> int:
    return sum(1 for r in records if r.outputs.get("converged") is False)


def _provenance(seed: int) -> dict:
    return {"library": "jamgame", "version": __version__, "seed": seed}


def _run_point(config: ExperimentConfig):
    """(outputs, report) of one non-sweep experiment."""
    try:
        return _POINT_RUNNERS[config.mode](config)
    except ConvergenceError as exc:
        # no answer to report: the record says why, and counts as not converged
        return {"converged": False, "error": f"{type(exc).__name__}: {exc}"}, None


def execute(config: ExperimentConfig) -> ExecutionResult:
    """Run a validated experiment and return its record(s)."""
    if config.mode == "sweep":
        return _execute_sweep(config)
    outputs, report = _run_point(config)
    record = ResultRecord(
        config=config.normalized,
        outputs=outputs,
        provenance=_provenance(config.seed),
    )
    return ExecutionResult(record=record, report=report)


def _execute_sweep(config: ExperimentConfig) -> ExecutionResult:
    plan = config.sweep_plan
    workers = min(plan.workers, len(plan.points))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_point, point) for point in plan.points]
        results = [future.result() for future in futures]
    point_records = tuple(
        ResultRecord(
            config=point.normalized,
            outputs=outputs,
            provenance=_provenance(point.seed),
        )
        for point, (outputs, _) in zip(plan.points, results)
    )
    summary = ResultRecord(
        config=config.normalized,
        outputs={
            "points": len(point_records),
            "non_converged": _non_converged(point_records),
        },
        provenance=_provenance(config.seed),
    )
    return ExecutionResult(
        record=summary,
        point_records=point_records,
        parameters=tuple(p for p, _ in plan.axes),
    )


def _format_cell(value, digits: int) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    if isinstance(value, (list, tuple)):
        return ";".join(_format_cell(v, digits) for v in value)
    return str(value)


def emit_table(
    records, parameters: tuple[str, ...] = (), digits: int = 4
) -> str:
    """Render records as a comma-separated table, one row per record.

    Parameter columns (dotted config paths) come first, then the output
    columns in a fixed order, restricted to the ones some record fills.
    Numbers are rounded to `digits` significant digits; the JSON record
    keeps full precision.  No records yields a header-only table.
    """
    records = list(records)
    if records:
        columns = [
            c for c in _TABLE_COLUMNS if any(c in r.outputs for r in records)
        ]
    else:
        columns = list(_TABLE_COLUMNS)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(parameters) + columns)
    for record in records:
        row = [
            _format_cell(_get_path(record.config, p), digits)
            for p in parameters
        ]
        row += [
            _format_cell(record.outputs.get(c), digits) for c in columns
        ]
        writer.writerow(row)
    return buffer.getvalue()


def _write_trace(path: Path, report: FneReport) -> None:
    dim = report.symbols.dim
    if dim == 1:
        sym_cols = ["x_hat0", "x_hat1"]
    else:
        sym_cols = [f"x_hat0_{i}" for i in range(dim)]
        sym_cols += [f"x_hat1_{i}" for i in range(dim)]
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["iteration", "fne_index", "objective", "alpha", "beta"]
            + sym_cols
        )
        for row in report.trace:
            cells = [
                row.iteration, repr(row.fne_index), repr(row.objective),
                repr(row.alpha), repr(row.beta),
            ]
            cells += [repr(float(v)) for v in np.atleast_1d(row.x_hat0)]
            cells += [repr(float(v)) for v in np.atleast_1d(row.x_hat1)]
            writer.writerow(cells)


def _write_outputs(out_dir: Path, result: ExecutionResult) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    record = result.record
    payload = record.to_json()
    if result.report is not None:
        trace_path = out_dir / "trace.csv"
        _write_trace(trace_path, result.report)
        if not trace_path.exists():
            raise RuntimeError(f"trace file {trace_path} was not written")
        record = replace(record, trace_path="trace.csv")
        payload = record.to_json()
    if result.point_records is not None:
        table = emit_table(result.point_records, result.parameters)
        (out_dir / "table.csv").write_text(table)
        payload["table"] = "table.csv"
        payload["records"] = [r.to_json() for r in result.point_records]
    with (out_dir / "result.json").open("w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be an object")
    return raw


def _parse_override(item: str) -> tuple[str, object]:
    key, sep, text = item.partition("=")
    if not sep or not key:
        raise ConfigError(f"--set expects key=value, got {item!r}")
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    return key, value


def _apply_cli(raw: dict, args: argparse.Namespace, requested_mode: str) -> None:
    file_mode = raw.get("mode")
    if file_mode is not None and file_mode != requested_mode:
        raise ConfigError(
            f"mode: config file says {file_mode!r} but the command line "
            f"requests {requested_mode!r}"
        )
    raw["mode"] = requested_mode
    for item in args.overrides:
        key, value = _parse_override(item)
        _set_path(raw, key, value)
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.epsilon is not None:
        _set_path(raw, "solver.epsilon", args.epsilon)
    if args.trials is not None:
        _set_path(raw, "simulate.trials", args.trials)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment JSON file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument(
        "--out", default=".", help="output directory (default: current)"
    )
    parser.add_argument(
        "--epsilon", type=float, help="override solver.epsilon"
    )
    parser.add_argument(
        "--trials", type=int, help="override simulate.trials"
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config field by dotted path (JSON value)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jamgame",
        description=(
            "Solve and simulate the remote-estimation jamming game from "
            "JSON experiment configs."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)
    solve = commands.add_parser(
        "solve", help="compute an equilibrium for one game variant"
    )
    solve.add_argument(
        "target",
        choices=["proactive", "reactive", "large-scale"],
        help="which game to solve",
    )
    _add_common_flags(solve)
    simulate = commands.add_parser(
        "simulate", help="Monte Carlo estimate of a fixed policy's cost"
    )
    _add_common_flags(simulate)
    sweep = commands.add_parser(
        "sweep", help="run a solver or simulation over a parameter grid"
    )
    _add_common_flags(sweep)
    return parser


def run(argv) -> int:
    """Parse arguments, run the experiment, write outputs, return exit code.

    0 on success, 2 on any validation problem, 3 when a solver failed to
    converge or to meet its accuracy check (the record is still written;
    on a failed check its `error` output holds the message).
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "solve":
        requested_mode = args.target.replace("-", "_")
    else:
        requested_mode = args.command
    try:
        raw = _load_config(args.config)
        _apply_cli(raw, args, requested_mode)
        config = parse_config(raw)
        result = execute(config)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_outputs(Path(args.out), result)
    for record in result.point_records or (result.record,):
        if "error" in record.outputs:
            print(f"error: {record.outputs['error']}", file=sys.stderr)
    return 3 if result.non_converged else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
