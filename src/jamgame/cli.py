"""Configuration-driven command line: solve, simulate, and sweep experiments.

An experiment is described by one JSON object (schema in the README) and
launched with `jamgame solve proactive|reactive|large-scale`, `jamgame
simulate`, or `jamgame sweep`.  Every config key is one row of `_FIELDS`,
which gives its section, its check and its default; `_MODE_KEYS` says which
top-level keys each mode requires or forbids, and the library's own objects
(`GameCosts`, `SolverConfig`, `NetworkConfig`, ...) check the ranges.
Validation is strict: unknown keys, missing mode-required fields, malformed
grids and a sweep axis that repeats another axis's parameter are errors that
name the offending field or file.  They and an `--out` directory that cannot
be created are the only ones that exit with code 2, before anything runs: a
run that starts always writes its record.  Each run writes a full-precision
`result.json` record; iterative solvers add a per-iteration
`trace.csv` and sweeps add a `table.csv` with one row per grid point,
rounded for reading (the record keeps full precision).  Non-convergence is
reported through exit code 3 with the record still written, so sweeps can
continue past hard instances and mark them.  A point that raises while it
runs (a failed accuracy check, an overflow, an allocation it cannot make,
an iterate the library rejects) or gives a non-finite output also exits 3,
with the record written and the exception under its `error` output; inside
a sweep it becomes that point's record and the sweep goes on.

Sweep points run on a small thread pool; all files are written by the
collector in grid order, and every draw is seeded per point, so results do
not depend on the worker count.  Simulate points of one sweep share its
seed, so points that differ only in n, capacity, jammer or costs share
their sensor draws: each such group is one pool task that draws each
sensor stream once.
"""

from __future__ import annotations

import argparse
import copy
import csv
import io
import itertools
import json
import math
import reprlib
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .gaussian import DiagonalGaussian, ScalarGaussian
from .largescale import CapacityFraction, classify_and_solve
from .network import (
    NetworkConfig,
    RoundPolicies,
    estimate_cost,
    estimate_costs,
    jn_analytic,
)
from .proactive import (
    ConvergenceError,
    GameCosts,
    ReprSymbols,
    solve_saddle,
)
from .reactive import (
    FneReport,
    ReactivePolicy,
    SolverConfig,
    solve_gda,
    solve_pga_ccp,
)

_ALGORITHMS = ("pga_ccp", "gda")

# fixed table column order; a table only shows the columns its records fill
_TABLE_COLUMNS = (
    "case", "threshold", "transmit_prob", "phi_star", "phi_star_interval",
    "lambda_star", "alpha", "beta", "x_hat0", "x_hat1", "value",
    "value_std_err", "std_err", "analytic_value", "trials", "fne_index",
    "fne_std_err", "iterations", "converged",
)
_TABLE_DIGITS = 4  # significant digits of a table's numbers

class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


_SHOWN = reprlib.Repr()
_SHOWN.maxlevel = 3
_SHOWN.maxstring = _SHOWN.maxother = 60
_SHOWN_CHARS = 100


def _shown(value) -> str:
    """A config value as an error message echoes it: its repr with long
    strings, long containers and deep nesting cut, at most _SHOWN_CHARS
    characters, so a message stays one short line."""
    text = _SHOWN.repr(value)
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS - 3] + "..."


def _pass(value, label: str):
    return value


def _number(value, label: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{label}: must be a number, got {_shown(value)}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{label}: must be finite, got {_shown(value)}")
    return number


def _integer(value, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{label}: must be an integer, got {_shown(value)}")
    if not -(2**63) <= value < 2**63:  # numpy and scipy take 64-bit integers
        raise ConfigError(f"{label}: must fit in 64 bits, got {_shown(value)}")
    return value


_REQUIRED = "required"
_CHECKS = {float: _number, int: _integer, str: _pass}

# One row per config key: section -> key -> (check, default).  A key with
# default None may be absent and is then left out of the echo.  The top
# level ("") passes each section's object through to that section's rows.
_FIELDS = {
    "": {
        "mode": (_pass, _REQUIRED),
        "source": (_pass, _REQUIRED),
        "costs": (_pass, _REQUIRED),
        "seed": (_pass, 0),
        "solver": (_pass, {}),
        "kappa_bar": (_number, None),
        "n": (_integer, None),
        "capacity": (_integer, None),
        "simulate": (_pass, None),
        "sweep": (_pass, None),
    },
    "source": {
        "mean": (_pass, _REQUIRED),
        "variance": (_pass, _REQUIRED),
        "dimension": (_integer, None),
    },
    "costs": {"c": (_number, _REQUIRED), "d": (_number, _REQUIRED)},
    # SolverConfig's fields and defaults; its seed is the top-level key
    "solver": {
        **{
            f.name: (_CHECKS[type(f.default)], f.default)
            for f in fields(SolverConfig)
            if f.name != "seed"
        },
        "algorithm": (_pass, "pga_ccp"),
    },
    "simulate": {
        "trials": (_integer, _REQUIRED),
        **{
            key: (_number, None)
            for key in ("threshold", "phi", "alpha", "beta", "x_hat0", "x_hat1")
        },
    },
    "sweep": {
        "mode": (_pass, _REQUIRED),
        "axes": (_pass, _REQUIRED),
        "workers": (_integer, 4),
    },
    "sweep.axes": {"parameter": (_pass, _REQUIRED), "grid": (_pass, _REQUIRED)},
}

# mode -> (top-level keys it requires, top-level keys it forbids)
_MODE_KEYS = {
    "proactive": ((), ("kappa_bar", "n", "capacity", "simulate", "sweep")),
    "reactive": ((), ("kappa_bar", "n", "capacity", "simulate", "sweep")),
    "large_scale": (("kappa_bar",), ("n", "capacity", "simulate", "sweep")),
    "simulate": (("n", "simulate"), ("sweep",)),
    "sweep": (("sweep",), ()),
}


def _read(section: str, obj, label: str | None = None) -> dict:
    """Check `obj` against the rows of `section` and return its echo.

    Unknown keys and missing required keys are errors; every present key
    passes its row's check (numbers become floats) and every absent one
    takes its default.  `label` names the section in messages.
    """
    label = section if label is None else label
    if not isinstance(obj, dict):
        raise ConfigError(f"{label or 'config'}: must be an object")
    rows = _FIELDS[section]
    for key in obj:
        if key not in rows:
            raise ConfigError(f"{label or 'config'}: unknown key {_shown(key)}")
    echo = {}
    for key, (check, default) in rows.items():
        where = f"{label}.{key}" if label else key
        if key in obj:
            echo[key] = check(obj[key], where)
        elif default is _REQUIRED:
            raise ConfigError(f"{where}: required field is missing")
        elif default is not None:
            echo[key] = default
    return echo


def _build(cls, label: str, *args, **kwargs):
    """`cls(*args, **kwargs)`, its range check's ValueError as a ConfigError."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


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
        f"{label}: must be a number or a list of numbers, got {_shown(value)}"
    )


@dataclass(frozen=True, eq=False)
class SweepPlan:
    """Grid axes over a base experiment, run point by point."""

    axes: tuple[tuple[str, tuple[float, ...]], ...]
    workers: int
    points: tuple["ExperimentConfig", ...]


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Validated experiment, and its echo for exact re-execution; a sweep
    holds only its plan, whose points hold their modes' objects."""

    mode: str
    seed: int
    normalized: dict
    source: ScalarGaussian | DiagonalGaussian | None = None
    costs: GameCosts | None = None
    solver: SolverConfig | None = None
    algorithm: str | None = None
    kappa_bar: CapacityFraction | None = None
    network: NetworkConfig | None = None
    trials: int | None = None
    policies: RoundPolicies | None = None
    sweep_plan: SweepPlan | None = None


@dataclass(frozen=True, eq=False)
class ResultRecord:
    """One run's outputs with the config echo and provenance for replay."""

    config: dict
    outputs: dict
    provenance: dict

    def __post_init__(self):
        _check_finite(self.outputs, "outputs")

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "outputs": self.outputs,
            "provenance": self.provenance,
            "trace": None,
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


def _parse_source(section) -> tuple[ScalarGaussian | DiagonalGaussian, dict]:
    echo = _read("source", section)
    if "dimension" in echo:
        dimension = echo["dimension"]
        if dimension < 1:
            raise ConfigError(f"source.dimension: must be >= 1, got {dimension}")
    else:
        # the first list value's length; `_vector` names a list of another
        lists = [v for v in (echo["mean"], echo["variance"]) if isinstance(v, list)]
        dimension = len(lists[0]) if lists else 1
    try:
        mean = _vector(echo["mean"], dimension, "source.mean")
        variance = _vector(echo["variance"], dimension, "source.variance")
    except MemoryError as exc:  # numpy refuses before it allocates
        raise ConfigError(f"source.dimension: {dimension} is too large: {exc}") from exc
    echo["dimension"] = dimension
    if dimension == 1:
        source = _build(ScalarGaussian, "source", float(mean[0]), float(variance[0]))
    else:
        source = _build(DiagonalGaussian, "source", mean, variance)
    return source, echo


def _parse_simulate(top: dict, source: ScalarGaussian):
    """(ExperimentConfig fields, echo) of simulate mode's network and policy."""
    n = top["n"]
    if ("capacity" in top) == ("kappa_bar" in top):
        raise ConfigError("capacity: give exactly one of capacity or kappa_bar")
    if "capacity" in top:
        network = _build(NetworkConfig, "capacity", n, top["capacity"])
    else:
        network = _build(NetworkConfig.from_kappa, "capacity", n, top["kappa_bar"])
    section = _read("simulate", top["simulate"])
    if section["trials"] < 2:
        raise ConfigError(f"simulate.trials: must be >= 2, got {section['trials']}")
    blind = "threshold" in section or "phi" in section
    if blind == ("alpha" in section or "beta" in section):
        raise ConfigError(
            "simulate: choose one policy, either (threshold, phi) or "
            "(alpha, beta)"
        )
    first, second = ("threshold", "phi") if blind else ("alpha", "beta")
    if first not in section or second not in section:
        raise ConfigError(f"simulate: {first} and {second} are required together")
    for key in ("x_hat0", "x_hat1"):  # last, in this order, given or not
        section[key] = section.pop(key, source.mean)
    symbols = ReprSymbols(section["x_hat0"], section["x_hat1"])
    if blind:
        phi = section["phi"]
        if not 0.0 <= phi <= 1.0:
            raise ConfigError(f"simulate.phi: must lie in [0, 1], got {phi}")
        jammer, threshold = ReactivePolicy(phi, phi), section["threshold"]
    else:
        jammer = _build(ReactivePolicy, "simulate", section["alpha"], section["beta"])
        threshold = None
    policies = _build(RoundPolicies, "simulate", symbols, jammer, threshold)
    parsed = {"network": network, "trials": section["trials"], "policies": policies}
    return parsed, {"n": n, "capacity": network.capacity, "simulate": section}


def _set_path(raw: dict, dotted: str, value) -> None:
    """Set `raw`'s entry at a dotted key path to `value`, copying each dict
    along the path (a missing one is a new dict), so the dicts `raw` shares
    with other configs stay as they are."""
    parts = dotted.split(".")
    if any(not part for part in parts):
        raise ConfigError(f"{_shown(dotted)}: empty component in key path")
    node = raw
    for part in parts[:-1]:
        child = node.get(part, {})
        if not isinstance(child, dict):
            raise ConfigError(
                f"{_shown(dotted)}: {_shown(part)} is a value, cannot descend into it"
            )
        node[part] = node = dict(child)
    node[parts[-1]] = value


def _get_path(config: dict, dotted: str):
    node = config
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _parse_sweep(raw: dict, top: dict, seed: int) -> ExperimentConfig:
    section = _read("sweep", top["sweep"])
    mode = section["mode"]
    if mode not in _POINT_RUNNERS:
        raise ConfigError(
            f"sweep.mode: must be one of {list(_POINT_RUNNERS)}, got {_shown(mode)}"
        )
    if not isinstance(section["axes"], list) or not section["axes"]:
        raise ConfigError("sweep.axes: must be a nonempty list")
    axes = {}
    for i, axis in enumerate(section["axes"]):
        label = f"sweep.axes[{i}]"
        axis = _read("sweep.axes", axis, label)
        parameter, grid = axis["parameter"], axis["grid"]
        if not isinstance(parameter, str) or not parameter:
            raise ConfigError(f"{label}.parameter: must be a nonempty string")
        if parameter in axes:
            raise ConfigError(
                f"{label}.parameter: {_shown(parameter)} repeats an earlier axis"
            )
        if not isinstance(grid, list) or not grid:
            raise ConfigError(f"{label}.grid: must be a nonempty list")
        for j, value in enumerate(grid):
            _number(value, f"{label}.grid[{j}]")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError(f"{label}.grid: must be strictly increasing")
        # keep the JSON types so integer fields can be swept too
        axes[parameter] = tuple(grid)
    if section["workers"] < 1:
        raise ConfigError(f"sweep.workers: must be >= 1, got {section['workers']}")

    base = {k: copy.deepcopy(v) for k, v in raw.items() if k != "sweep"}
    points = []
    for combo in itertools.product(*axes.values()):
        # the points share every dict that no axis path crosses
        point_raw = base | {"mode": mode}
        for parameter, value in zip(axes, combo):
            _set_path(point_raw, parameter, value)
        try:
            points.append(parse_config(point_raw))
        except ConfigError as exc:
            at = ", ".join(f"{_shown(p)}={_shown(v)}" for p, v in zip(axes, combo))
            raise ConfigError(f"sweep point ({at}): {exc}") from exc
    section["axes"] = [{"parameter": p, "grid": list(g)} for p, g in axes.items()]
    plan = SweepPlan(tuple(axes.items()), section["workers"], tuple(points))
    normalized = base | {"mode": "sweep", "sweep": section}
    return ExperimentConfig("sweep", seed, normalized, sweep_plan=plan)


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict into a runnable experiment.

    Unknown keys anywhere are errors; every message names the offending
    field.  The returned `normalized` echo holds every field the run reads,
    defaults filled in, so re-parsing it reproduces the run exactly.
    """
    top = _read("", raw)
    mode = top["mode"]
    if mode not in _MODE_KEYS:
        raise ConfigError(
            f"mode: must be one of {list(_MODE_KEYS)}, got {_shown(mode)}"
        )
    required, forbidden = _MODE_KEYS[mode]
    for key in forbidden:
        if key in raw:
            raise ConfigError(f"{key}: not valid in {mode!r} mode")
    for key in required:
        if key not in raw:
            raise ConfigError(f"{key}: required in {mode} mode")
    seed = top["seed"]
    # no 64-bit limit: SeedSequence takes integers of any size
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed: must be a nonnegative integer, got {_shown(seed)}")
    if mode == "sweep":
        return _parse_sweep(raw, top, seed)

    source, source_echo = _parse_source(top["source"])
    costs_echo = _read("costs", top["costs"])
    costs = _build(GameCosts, "costs", **costs_echo)
    solver_echo = _read("solver", top["solver"])
    knobs = dict(solver_echo)
    algorithm = knobs.pop("algorithm")
    if algorithm not in _ALGORITHMS:
        raise ConfigError(
            f"solver.algorithm: must be one of {list(_ALGORITHMS)}, "
            f"got {_shown(algorithm)}"
        )
    solver = _build(SolverConfig, "solver", **knobs, seed=seed)
    normalized = {
        "mode": mode,
        "source": source_echo,
        "costs": costs_echo,
        "seed": seed,
    }
    # only the solver fields the run reads; the others are accepted, so
    # older records replay
    if mode == "reactive":
        normalized["solver"] = solver_echo
    parsed = {}
    if mode in ("large_scale", "simulate") and source_echo["dimension"] != 1:
        raise ConfigError(f"source.dimension: {mode} mode is scalar")
    if mode == "large_scale":
        parsed["kappa_bar"] = _build(CapacityFraction, "kappa_bar", top["kappa_bar"])
        normalized["kappa_bar"] = top["kappa_bar"]
    elif mode == "simulate":
        parsed, echo = _parse_simulate(top, source)
        normalized |= echo
    return ExperimentConfig(
        mode, seed, normalized, source, costs, solver, algorithm, **parsed
    )


def _symbol_output(values: np.ndarray):
    flat = [float(v) for v in np.atleast_1d(values)]
    return flat[0] if len(flat) == 1 else flat


def _run_proactive(config: ExperimentConfig):
    saddle = solve_saddle(config.source, config.costs)
    outputs = {
        "case": saddle.case,
        "threshold": float(saddle.threshold),
        "phi_star": float(saddle.phi_star),
        "x_hat0": _symbol_output(saddle.estimator.x_hat0),
        "x_hat1": _symbol_output(saddle.estimator.x_hat1),
        "value": float(saddle.value),
        # every proactive saddle is exact; the key stays for older readers
        "value_std_err": 0.0,
        "transmit_prob": float(saddle.transmit_prob),
    }
    return outputs, None


def _run_reactive(config: ExperimentConfig):
    # looked up by module name when the run starts, so a wrapper bound to
    # that name sees the solve
    solve = solve_pga_ccp if config.algorithm == "pga_ccp" else solve_gda
    report = solve(config.source, config.costs, config.solver)
    outputs = {
        "alpha": float(report.policy.alpha),
        "beta": float(report.policy.beta),
        "x_hat0": _symbol_output(report.symbols.x_hat0),
        "x_hat1": _symbol_output(report.symbols.x_hat1),
        "value": float(report.objective),
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


def _run_simulate(config: ExperimentConfig, estimate=None):
    """`estimate` is the point's share of its sweep group's run
    (`_run_group`); without one the point draws its own."""
    policies = config.policies
    analytic = jn_analytic(config.source, config.costs, config.network, policies)
    if estimate is None:
        estimate = estimate_cost(
            config.source, config.costs, config.network, policies,
            trials=config.trials, seed=config.seed,
        )
    x_hat0, x_hat1 = policies.symbols.scalars()
    outputs = {
        "value": float(estimate.mean),
        "std_err": float(estimate.std_err),
        "trials": estimate.trials,
        "analytic_value": float(analytic),
        "x_hat0": x_hat0,
        "x_hat1": x_hat1,
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


def _non_converged(records) -> int:
    return sum(1 for r in records if r.outputs.get("converged") is False)


def _provenance(seed: int) -> dict:
    return {"library": "jamgame", "version": __version__, "seed": seed}


_FAILURES = (ConvergenceError, ArithmeticError, MemoryError, ValueError)


def _run_point(config: ExperimentConfig, *shared):
    """(outputs, report) of one non-sweep experiment, given what its group
    computed for it (`_run_group`).  A failed accuracy check, an overflow,
    an allocation numpy refuses, an iterate the library rejects or a
    non-finite output is no answer to report: the outputs say why, and
    count as not converged."""
    try:
        outputs, report = _POINT_RUNNERS[config.mode](config, *shared)
        _check_finite(outputs, "outputs")
    except _FAILURES as exc:
        return {"converged": False, "error": f"{type(exc).__name__}: {exc}"}, None
    return outputs, report


def _group_key(config: ExperimentConfig):
    """Simulate points with the same source, threshold rule (symbols and
    threshold), trials and seed draw the same sensor streams and make the
    same transmit decisions: they differ at most in n, capacity, jammer and
    costs, and share one key.  Every other point has a key of its own."""
    policies = config.policies
    if config.mode != "simulate" or policies.threshold is None:
        return id(config)
    return (
        config.source.mean, config.source.var, *policies.symbols.scalars(),
        policies.threshold, config.trials, config.seed,
    )


def _run_group(group: list[ExperimentConfig]) -> list:
    """(outputs, report) of each point of a group (`_group_key`).  A group
    of simulate points draws each sensor stream once (`estimate_costs`) and
    hands every point its estimate.  If that run raises, every point runs
    alone, so a failing point gets the record its own run gives and the
    others keep theirs."""
    if len(group) == 1:
        return [_run_point(group[0])]
    first = group[0]
    try:
        estimates = estimate_costs(
            first.source, [(p.costs, p.network, p.policies) for p in group],
            trials=first.trials, seed=first.seed,
        )
    except _FAILURES:
        return [_run_point(config) for config in group]
    return [_run_point(p, estimate) for p, estimate in zip(group, estimates)]


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
    groups = {}
    for i, point in enumerate(plan.points):
        groups.setdefault(_group_key(point), []).append(i)
    groups = list(groups.values())
    workers = min(plan.workers, len(groups))

    def run_slice(w: int) -> list:
        # worker w runs groups w, w + workers, ... in order
        return [_run_group([plan.points[i] for i in g]) for g in groups[w::workers]]

    results = [None] * len(plan.points)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for w, outcomes in enumerate(pool.map(run_slice, range(workers))):
            for group, outcome in zip(groups[w::workers], outcomes):
                for i, (outputs, _) in zip(group, outcome):
                    results[i] = outputs
    point_records = tuple(
        ResultRecord(
            config=point.normalized,
            outputs=outputs,
            provenance=_provenance(point.seed),
        )
        for point, outputs in zip(plan.points, results)
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


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{_TABLE_DIGITS}g}"
    if isinstance(value, (list, tuple)):
        return ";".join(_format_cell(v) for v in value)
    return str(value)


def emit_table(records, parameters: tuple[str, ...] = ()) -> str:
    """Render records as a comma-separated table, one row per record.

    Parameter columns (dotted config paths) come first, then the output
    columns in a fixed order, restricted to the ones some record fills.
    Numbers are rounded to `_TABLE_DIGITS` significant digits; the JSON record
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
        row = [_format_cell(_get_path(record.config, p)) for p in parameters]
        row += [_format_cell(record.outputs.get(c)) for c in columns]
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
    payload = result.record.to_json()
    if result.report is not None:
        _write_trace(out_dir / "trace.csv", result.report)
        payload["trace"] = "trace.csv"
    if result.point_records is not None:
        table = emit_table(result.point_records, result.parameters)
        (out_dir / "table.csv").write_text(table)
        payload["table"] = "table.csv"
        payload["records"] = [r.to_json() for r in result.point_records]
    with (out_dir / "result.json").open("w") as handle:
        # the bytes json.dump writes, encoded in one piece
        handle.write(json.dumps(payload, indent=2))
        handle.write("\n")


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer past Python's int-from-str digit limit, or nesting past
        # the recursion limit
        raise ConfigError(f"config: cannot parse {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be an object")
    return raw


def _parse_override(item: str) -> tuple[str, object]:
    key, sep, text = item.partition("=")
    if not sep or not key:
        raise ConfigError(f"--set expects key=value, got {_shown(item)}")
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    except (ValueError, RecursionError) as exc:  # as in `_load_config`
        raise ConfigError(f"--set {key}: {exc}") from exc
    return key, value


def _apply_cli(raw: dict, args: argparse.Namespace, requested_mode: str) -> None:
    file_mode = raw.get("mode")
    if file_mode is not None and file_mode != requested_mode:
        raise ConfigError(
            f"mode: config file says {_shown(file_mode)} but the command line "
            f"requests {requested_mode!r}"
        )
    raw["mode"] = requested_mode
    for item in args.overrides:
        key, value = _parse_override(item)
        _set_path(raw, key, value)
    if args.seed is not None:
        raw["seed"] = args.seed


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment JSON file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument(
        "--out", default=".", help="output directory (default: current)"
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

    0 on success; 2 on an invalid config (a `ConfigError`, whose message
    names the field or the file) or an `--out` directory that cannot be
    created, and then nothing runs and no record is written; 3 when a point
    did not converge, raised while running (a failed accuracy check, an
    overflow, an allocation it cannot make, an iterate the library rejects)
    or gave a non-finite output.  A run that starts always has its record
    written, with the exception under a failed point's `error`.
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: --out: cannot create {args.out}: {exc}", file=sys.stderr)
        return 2
    result = execute(config)
    _write_outputs(out_dir, result)
    records = result.point_records or (result.record,)
    for record in records:
        if "error" in record.outputs:
            print(f"error: {record.outputs['error']}", file=sys.stderr)
    return 3 if _non_converged(records) else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
