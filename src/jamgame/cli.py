"""Configuration-driven command line: solve, simulate, and sweep experiments.

An experiment is described by one JSON object (schema in the README) and
launched with `jamgame solve proactive|reactive|large-scale`, `jamgame
simulate`, or `jamgame sweep`.  Every config key is one row of `_FIELDS`,
which gives its section, its check and its default; every mode is one row of
`_MODES` (its top-level keys, parse, point run and group run), and the
library's own objects (`GameCosts`, `SolverConfig`, ...) check the ranges.
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
an iterate the library rejects) or gives an output a record may not hold
(a non-finite float, or a value not exactly of a JSON type) also exits 3,
with the record written and the exception under its `error` output; inside
a sweep it becomes that point's record and the sweep goes on.

Every point, a non-sweep run's too, runs in a group, one call of its mode's
batch run: the points of a sweep with the same source, trials and seed.
The batch run does its points' library work and decides what they share: a
simulate group prices each point (`jn_analytic`) before it draws, and draws
each sensor stream once per distinct transmit rule of the points it priced
(`estimate_costs`); a proactive or large-scale group solves each distinct
saddle once, the jammer's indifference root once per distinct d at which a
point jams (`solve_saddles`) and each distinct kappa_bar's l_lambda once
(`classify_and_solve_all`); and a reactive group solves each point alone.
It hands each point its result or the exception the point's own run
raises, so a root that fails fails only the points that need it.
Every point's record is the one its own run writes and checks once.  A
sweep runs its groups in grid order on the calling thread, and every draw
is seeded per point; `sweep.workers` is accepted and echoed, so older
configs still run, but nothing reads it.  A sweep parses its first point
as a config and checks each axis and each grid value once; every other
point is the first one's echoes with its values set, and builds only the
sections an axis crosses, so each range check still runs per point.  Its
records share the other sections and one provenance dict a seed.  A
point's record echoes its config with every default filled in; the
sweep's own record echoes the config its first point parsed, as given
(`_given`: a float or int subclass as its float or int) with each crossed
key at its first grid value, and that point's seed.
`result.json` is the text of `json.dumps(record, indent=2)`, written in
one pass; a list of records is written from one template, filled column
by column as `table.csv` is: an object every record shares is written
once, each distinct float of a column is formatted once, and a path where
the records' keys differ (an error record's outputs) is written record by
record.  Both format a leaf by its exact type alone: a record's outputs
are checked once (`_check_finite`) to hold only dict, list, tuple, str,
int, bool, None and finite float, tested by exact type, and its config
echo and provenance come from JSON and `_number`.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import reprlib
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .gaussian import DiagonalGaussian, ScalarGaussian, _count, _spectrum
from .largescale import classify_and_solve_all
from .network import NetworkConfig, RoundPolicies, estimate_costs, jn_analytic
from .proactive import (
    _FAILURES,
    GameCosts,
    ReprSymbols,
    _check_phi,
    _entry,
    _kappa,
    _raised,
    solve_saddles,
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
    return int(value)


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


def _one_of(value, choices, label: str) -> str:
    # a string first, so an unhashable value is named like any other
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(f"{label}: must be one of {[*choices]}, got {_shown(value)}")
    return value


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


def _vector(value, dimension: int, label: str) -> tuple[np.ndarray, object]:
    """(array, echo) of a number or a list of numbers, each one checked by
    `_number`; the echo is the checked value as given (`_given`)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        number = _number(value, label)
        try:  # numpy refuses a size it cannot allocate before it allocates
            array = np.full(dimension, number)
        except (MemoryError, ValueError) as exc:
            raise ConfigError(f"source.dimension: {dimension} is too large: {exc}") from exc
        return array, _given(value)
    if isinstance(value, list):
        if len(value) != dimension:
            raise ConfigError(
                f"{label}: expected {dimension} entries, got {len(value)}"
            )
        return np.array([_number(v, label) for v in value]), _given(value)
    raise ConfigError(
        f"{label}: must be a number or a list of numbers, got {_shown(value)}"
    )


@dataclass(frozen=True, eq=False)
class SweepPlan:
    """Grid axes over a base experiment, run point by point."""

    axes: tuple[tuple[str, tuple[float, ...]], ...]
    workers: int  # accepted for older configs; a sweep runs on one thread
    points: tuple["ExperimentConfig", ...]


@dataclass(eq=False, slots=True)
class ExperimentConfig:
    """Validated experiment, and its echo for exact re-execution; a sweep
    holds only its plan, whose points hold their modes' objects.  Read only,
    but not frozen: a sweep builds one a point."""

    mode: str
    seed: int
    normalized: dict
    source: ScalarGaussian | DiagonalGaussian | None = None
    costs: GameCosts | None = None
    solver: SolverConfig | None = None
    algorithm: str | None = None
    kappa_bar: float | None = None
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
    """Raise ValueError at the first value in `value` that a record may not
    hold, naming its path: a record holds exactly dict, list, tuple, str,
    int, bool, None and finite float, tested by exact type, so a subclass
    (a numpy scalar, an IntEnum, a str subclass) is refused too."""
    kind = type(value)
    if kind is dict:
        items, path = value.items(), "{}.{}"
    elif kind is list or kind is tuple:
        items, path = enumerate(value), "{}[{}]"
    elif kind not in _JSON_LEAVES:
        raise ValueError(f"{label} has unsupported type {kind.__name__}")
    elif kind is float and not math.isfinite(value):
        raise ValueError(f"{label} is not finite: {value!r}")
    else:
        return
    for key, item in items:
        kind = type(item)  # a leaf needs no path, a float only a finite one
        if kind not in _JSON_LEAVES or kind is float and not math.isfinite(item):
            _check_finite(item, path.format(label, key))


def _parse_source(echo: dict) -> tuple[ScalarGaussian | DiagonalGaussian, dict]:
    if "dimension" in echo:
        dimension = _build(_count, "source", "dimension", echo["dimension"], 1)
    else:
        # the first list value's length; `_vector` names a list of another
        lists = [v for v in (echo["mean"], echo["variance"]) if isinstance(v, list)]
        dimension = len(lists[0]) if lists else 1
    mean, mean_echo = _vector(echo["mean"], dimension, "source.mean")
    variance, var_echo = _vector(echo["variance"], dimension, "source.variance")
    echo = echo | {"mean": mean_echo, "variance": var_echo, "dimension": dimension}
    if dimension == 1:
        source = _build(ScalarGaussian, "source", float(mean[0]), float(variance[0]))
    else:
        source = _build(DiagonalGaussian, "source", mean, variance)
    return source, echo


def _check_scalar(mode: str, source) -> None:
    if not isinstance(source, ScalarGaussian):
        raise ConfigError(f"source.dimension: {mode} mode is scalar")


def _parse_large_scale(top: dict, echo_of, source, solver_echo: dict):
    _check_scalar("large_scale", source)
    kappa_bar = _build(_kappa, "kappa_bar", top["kappa_bar"])
    return {"kappa_bar": kappa_bar}, {"kappa_bar": top["kappa_bar"]}


def _parse_simulate(top: dict, echo_of, source, solver_echo: dict):
    """(ExperimentConfig fields, echo) of simulate mode's network and policy."""
    _check_scalar("simulate", source)
    n = top["n"]
    if ("capacity" in top) == ("kappa_bar" in top):
        raise ConfigError("capacity: give exactly one of capacity or kappa_bar")
    if "capacity" in top:
        network = _build(NetworkConfig, "capacity", n, top["capacity"])
    else:
        network = _build(NetworkConfig.from_kappa, "capacity", n, top["kappa_bar"])
    section = dict(echo_of("simulate"))
    _build(_count, "simulate", "trials", section["trials"], 2)
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
        _build(_check_phi, "simulate", phi, True)
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
    if "" in parts:
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


def _given(value):
    """A checked config value as it is echoed as given, the one rule for
    `source.mean`, `source.variance`, sweep grids and a sweep's own record:
    each dict and list copied, an exact int or float as given, and any
    other float or int (not a bool) as its float or int, as the numpy
    float or `IntEnum` of a Python caller, so the writers take it."""
    if isinstance(value, dict):
        return {key: _given(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_given(item) for item in value]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    return float(value) if isinstance(value, float) else int(value)


def _parse_sweep(raw: dict, top: dict) -> ExperimentConfig:
    """A sweep: its first point parsed as a config is, each other one built
    from the first one's echoes with its axes' checked values set."""
    section = _read("sweep", top["sweep"])
    mode = _one_of(section["mode"], _POINT_MODES, "sweep.mode")
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
        grid = tuple(_given(grid))  # an int stays one: integer fields sweep too
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError(f"{label}.grid: must be strictly increasing")
        axes[parameter] = grid
    _build(_count, "sweep", "workers", section["workers"], 1)
    if "seed" not in axes:  # else the base seed is never read
        _seed(top["seed"])

    first_raw = {k: v for k, v in raw.items() if k != "sweep"} | {"mode": mode}
    for parameter, grid in axes.items():
        _set_path(first_raw, parameter, grid[0])
    # each section's echo as `_read` gives it for the first point, the top
    # level's as ""; a later point's is that echo with its `values` set at
    # the keys its axes cross (`crossed`: section -> key -> axis, in row
    # order, so a point checks them as a config would)
    reads, parts, crossed = {}, {}, {}

    def echo_of(name: str) -> dict:
        if name not in reads:
            reads[name] = _read(name, reads[""][name])
        echo = dict(reads[name])
        for key, i in crossed.get(name, {}).items():
            echo[key] = _raised(values[i])
        return echo

    combo = next(zip(*axes.values()))
    try:
        reads[""] = _parse_top(first_raw)[0]
        points = [_point(mode, reads[""], echo_of, parts)]
        # each axis sets one key of a section the first point read, each grid
        # value checked once by its row; a crossed seed seeds the solver
        crossed, checked = {"solver": {}} if "seed" in axes else {}, []
        for i, (parameter, grid) in enumerate(axes.items()):
            name, _, key = parameter.rpartition(".")
            crossed.setdefault(name, {})[key] = i
            checked.append([_entry(_FIELDS[name][key][0], v, parameter) for v in grid])
        crossed = {name: {key: keys[key] for key in _FIELDS[name] if key in keys}
                   for name, keys in crossed.items()}
        shared = {name: part for name, part in parts.items() if name not in crossed}
        combos = zip(itertools.product(*axes.values()), itertools.product(*checked))
        for combo, values in itertools.islice(combos, 1, None):
            points.append(_point(mode, echo_of(""), echo_of, dict(shared)))
    except ConfigError as exc:
        at = ", ".join(f"{_shown(p)}={_shown(v)}" for p, v in zip(axes, combo))
        raise ConfigError(f"sweep point ({at}): {exc}") from exc
    section["axes"] = [{"parameter": p, "grid": list(g)} for p, g in axes.items()]
    plan = SweepPlan(tuple(axes.items()), section["workers"], tuple(points))
    normalized = _given(first_raw) | {"mode": "sweep", "sweep": section}
    return ExperimentConfig("sweep", points[0].seed, normalized, sweep_plan=plan)


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict into a runnable experiment.

    Unknown keys anywhere are errors; every message names the offending
    field.  The returned `normalized` echo holds every field the run reads,
    defaults filled in (a sweep's, its first point's config as given), so
    re-parsing it reproduces the run exactly.
    """
    top, mode = _parse_top(raw)
    if mode != "sweep":
        return _point(mode, top, lambda name: _read(name, top[name]), {})
    return _parse_sweep(raw, top)


def _parse_top(raw: dict) -> tuple[dict, str]:
    """(echo, mode) of a config's top level, its mode's keys checked."""
    top = _read("", raw)
    mode = _one_of(top["mode"], _MODES, "mode")
    for key in _MODES[mode].forbidden:
        if key in raw:
            raise ConfigError(f"{key}: not valid in {mode!r} mode")
    for key in _MODES[mode].required:
        if key not in raw:
            raise ConfigError(f"{key}: required in {mode} mode")
    return top, mode


def _seed(seed) -> int:
    # no 64-bit limit: SeedSequence takes integers of any size
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed: must be a nonnegative integer, got {_shown(seed)}")
    return int(seed)


def _point(mode: str, top: dict, echo_of, parts: dict) -> ExperimentConfig:
    """A point of `mode` from its top-level echo and its sections, checked
    in the order a config's are: a section that `parts` holds as (what it
    builds, its echo) is another point's, shared, and each other one is
    built from its echo `echo_of(name)` and added to `parts`."""
    seed = _seed(top["seed"])
    if "source" not in parts:
        parts["source"] = _parse_source(echo_of("source"))
    if "costs" not in parts:
        echo = echo_of("costs")
        parts["costs"] = _build(GameCosts, "costs", **echo), echo
    if "solver" not in parts:
        knobs = dict(echo := echo_of("solver"))
        algorithm = _one_of(knobs.pop("algorithm"), _ALGORITHMS, "solver.algorithm")
        solver = _build(SolverConfig, "solver", **knobs, seed=seed)
        parts["solver"] = (algorithm, solver), echo
    (source, source_echo), (costs, costs_echo) = parts["source"], parts["costs"]
    (algorithm, solver), solver_echo = parts["solver"]
    parsed, echo = _MODES[mode].parse(top, echo_of, source, solver_echo)
    normalized = {"mode": mode, "source": source_echo, "costs": costs_echo,
                  "seed": seed, **echo}
    return ExperimentConfig(
        mode, seed, normalized, source, costs, solver, algorithm, **parsed
    )


def _symbol_output(values: np.ndarray):
    flat = values.tolist()  # a `ReprSymbols` symbol is a 1-D float array
    return flat[0] if len(flat) == 1 else flat


def _run_proactive(config: ExperimentConfig, saddle):
    """(outputs, report) of a point from its share of its group's run."""
    return {
        "case": saddle.case,
        "threshold": float(saddle.threshold),
        "phi_star": float(saddle.phi_star),
        "x_hat0": _symbol_output(saddle.estimator.x_hat0),
        "x_hat1": _symbol_output(saddle.estimator.x_hat1),
        "value": float(saddle.value),
        # every proactive saddle is exact; the key stays for older readers
        "value_std_err": 0.0,
        "transmit_prob": float(saddle.transmit_prob),
    }, None


def _run_reactive(config: ExperimentConfig, report: FneReport):
    return {
        "alpha": float(report.policy.alpha),
        "beta": float(report.policy.beta),
        "x_hat0": _symbol_output(report.symbols.x_hat0),
        "x_hat1": _symbol_output(report.symbols.x_hat1),
        "value": float(report.objective),
        "fne_index": float(report.fne_index),
        "fne_std_err": float(report.fne_std_err),
        "iterations": report.iterations,
        "converged": report.converged,
    }, report


def _run_large_scale(config: ExperimentConfig, saddle):
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
        outputs["phi_star_interval"] = list(map(float, saddle.phi_star_interval))
    return outputs, None


def _run_simulate(config: ExperimentConfig, share):
    """Outputs of a point from its share of its group's run
    (`_simulate_group`): its estimate and the analytic cost priced first."""
    estimate, analytic = share
    x_hat0, x_hat1 = config.policies.symbols.scalars()
    return {
        "value": float(estimate.mean),
        "std_err": float(estimate.std_err),
        "trials": estimate.trials,
        "analytic_value": float(analytic),
        "x_hat0": x_hat0,
        "x_hat1": x_hat1,
    }, None


def _simulate_group(group: list[ExperimentConfig]) -> list:
    """Each point's (estimate, analytic cost), or its own run's exception:
    the points are priced (`jn_analytic`) before any draw, and only those
    priced are drawn (`estimate_costs`) or fail with the draws."""
    shares = [_entry(jn_analytic, p.source, p.costs, p.network, p.policies)
              for p in group]
    priced = [i for i, s in enumerate(shares) if not isinstance(s, BaseException)]
    points = [(group[i].costs, group[i].network, group[i].policies) for i in priced]
    first = group[0]
    try:
        estimates = estimate_costs(first.source, points, first.trials, first.seed)
    except _FAILURES as exc:  # block partials that cannot be allocated
        estimates = [exc] * len(priced)
    for i, estimate in zip(priced, estimates):
        shares[i] = (estimate if isinstance(estimate, BaseException)
                     else (estimate, shares[i]))
    return shares


class _Mode(NamedTuple):
    """One mode's rules.  Its group run does its points' library work, and
    looks the library up by module name when it starts, so a wrapper bound
    to that name sees the call; its point run formats a point's share."""

    required: tuple[str, ...]  # top-level keys
    forbidden: tuple[str, ...]
    # (top echo, a section's echo by name, source, solver echo)
    # -> (config fields, echo after seed)
    parse: Callable | None = None
    run: Callable | None = None  # (config, its share) -> (outputs, report)
    # a group's points (`_group_key`) -> a share each, result or exception
    group_run: Callable | None = None


_MODES = {
    "proactive": _Mode(
        (), ("kappa_bar", "n", "capacity", "simulate", "sweep"),
        lambda *_: ({}, {}), _run_proactive,
        lambda group: solve_saddles(group[0].source, [p.costs for p in group]),
    ),
    "reactive": _Mode(
        (), ("kappa_bar", "n", "capacity", "simulate", "sweep"),
        # only reactive runs read the solver fields; the others accept them,
        # so older records replay
        lambda top, echo_of, source, solver: ({}, {"solver": solver}), _run_reactive,
        lambda group: [
            _entry(solve_pga_ccp if p.algorithm == "pga_ccp" else solve_gda,
                   p.source, p.costs, p.solver)
            for p in group
        ],
    ),
    "large_scale": _Mode(
        ("kappa_bar",), ("n", "capacity", "simulate", "sweep"),
        _parse_large_scale, _run_large_scale,
        lambda group: classify_and_solve_all(
            group[0].source, [(p.costs, p.kappa_bar) for p in group]
        ),
    ),
    "simulate": _Mode(
        ("n", "simulate"), ("sweep",), _parse_simulate, _run_simulate,
        _simulate_group,
    ),
    # runs its points in their own modes (`_parse_sweep`, `execute`)
    "sweep": _Mode(("sweep",), ()),
}
# the modes a sweep's points take
_POINT_MODES = tuple(mode for mode, row in _MODES.items() if row.run is not None)


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


def _run_point(config: ExperimentConfig, provenance: dict, share):
    """(record, report) of one non-sweep experiment from its share of its
    group's run (`_run_group`).  A failure (`proactive._FAILURES`), the
    share's or the run's, or an output the record may not hold (which its
    own check finds) is no answer to report: the outputs say why, and count
    as not converged."""
    try:
        outputs, report = _MODES[config.mode].run(config, _raised(share))
        return ResultRecord(config.normalized, outputs, provenance), report
    except _FAILURES as exc:
        outputs = {"converged": False, "error": f"{type(exc).__name__}: {exc}"}
        return ResultRecord(config.normalized, outputs, provenance), None


def _group_key(config: ExperimentConfig, source_keys: dict):
    """The key of a point's group, whose points share one group run of their
    mode (`_Mode`): what that run takes as shared, the source's mean and
    spectrum as bytes (so -0.0 is not 0.0), made once a source object
    (`source_keys`, by id), the trials and the seed.  The run decides what
    else its points share."""
    source = config.source
    if id(source) not in source_keys:
        mean = np.asarray(source.mean, dtype=float).tobytes()
        source_keys[id(source)] = mean, _spectrum(source).tobytes()
    return *source_keys[id(source)], config.trials, config.seed


def _run_group(group: list[ExperimentConfig], provenance: dict) -> list:
    """(record, report) of each point of a group (`_group_key`), with the
    provenance dict of its seed from `provenance`, each from its share of
    its mode's group run, or from that run's own failure."""
    try:
        shares = _MODES[group[0].mode].group_run(group)
    except _FAILURES as exc:
        shares = [exc] * len(group)
    return [_run_point(p, provenance[p.seed], s) for p, s in zip(group, shares)]


def execute(config: ExperimentConfig) -> ExecutionResult:
    """Run a validated experiment and return its record(s): its one point,
    or a sweep's groups (`_group_key`) in grid order, on this thread."""
    plan = config.sweep_plan
    points = (config,) if plan is None else plan.points
    # the records of one seed share its provenance dict
    seeds = {config.seed, *(p.seed for p in points)}
    provenance = {seed: _provenance(seed) for seed in seeds}
    groups, source_keys = {}, {}
    for point in points:
        groups.setdefault(_group_key(point, source_keys), []).append(point)
    runs = {
        id(point): run for group in groups.values()
        for point, run in zip(group, _run_group(group, provenance))
    }
    if plan is None:
        return ExecutionResult(*runs[id(config)])
    point_records = tuple(runs[id(point)][0] for point in points)
    summary = ResultRecord(
        config=config.normalized,
        outputs={
            "points": len(point_records),
            "non_converged": _non_converged(point_records),
        },
        provenance=provenance[config.seed],
    )
    return ExecutionResult(
        record=summary,
        point_records=point_records,
        parameters=tuple(p for p, _ in plan.axes),
    )


# a cell's text by the exact type of its value, a record's leaf types
# (`_check_finite`); a list or tuple is its items' texts joined by ";"
_CELL_FORMATS = {
    type(None): lambda value: "",
    bool: lambda value: "true" if value else "false",
    int: str,
    float: f"{{:.{_TABLE_DIGITS}g}}".format,
    str: str,
}


def _format_cell(value) -> str:
    if type(value) is list or type(value) is tuple:
        return ";".join(map(_format_cell, value))
    return _CELL_FORMATS[type(value)](value)


def _column_texts(values: list, formats: dict, other) -> list[str]:
    """The texts of a column's values: with one format for the column when
    its values share a type of `formats`, else `other` each.  A float column
    formats each distinct value once."""
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    format = formats.get(kind, other)
    if kind is not float:
        return list(map(format, values))
    # a zero is formatted each time: -0.0 equals 0.0 but has its own text
    texts = {v: format(v) for v in set(values) if v}
    return [texts[v] if v else format(v) for v in values]


def emit_table(records, parameters: tuple[str, ...] = ()) -> str:
    """Render records as a comma-separated table, one row per record.

    Parameter columns (dotted config paths) come first, then the output
    columns in a fixed order, restricted to the ones some record fills.
    Numbers are rounded to `_TABLE_DIGITS` significant digits; the JSON record
    keeps full precision.  A cell is formatted by its value's exact type
    (`_CELL_FORMATS`, or a list or tuple of those).  No records yields a
    header-only table.
    """
    records = list(records)
    if records:
        filled = set().union(*(r.outputs for r in records))
        columns = [c for c in _TABLE_COLUMNS if c in filled]
    else:
        columns = list(_TABLE_COLUMNS)
    cells = []
    for parameter in parameters:  # a missing key or a value on the path: None
        column = [r.config for r in records]
        for part in parameter.split("."):
            column = [v.get(part) if isinstance(v, dict) else None for v in column]
        cells.append(column)
    cells += [[r.outputs.get(c) for r in records] for c in columns]
    cells = [_column_texts(column, _CELL_FORMATS, _format_cell) for column in cells]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(parameters) + columns)
    # a record with no cell is an empty row
    writer.writerows(zip(*cells) if cells else [()] * len(records))
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


_JSON_STRING = json.encoder.encode_basestring_ascii
_JSON_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    text = float.__repr__(value)
    return _JSON_FLOAT_WORDS.get(text, text)


# a leaf's text by its exact type, as the standard library's encoder writes it
_JSON_LEAVES = {
    str: _JSON_STRING,
    float: _json_float,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _json_text(value) -> str:
    """`json.dumps(value, indent=2)` of an acyclic tree whose keys are
    strings, as every key of a record is, in one pass: the standard library
    writes an indented document through a generator per container, in pure
    Python.  A list is written from one template filled column by column
    (`column`), which writes an object its items share once, such as the
    sections and the provenance a sweep's records share.  A leaf is written
    by its exact type (`_JSON_LEAVES`), one of the types a record may hold
    (`_check_finite`); any other type, a subclass of one too, raises
    TypeError."""

    def text(value, newline: str) -> str:
        if isinstance(value, dict):
            if not value:
                return "{}"
            inner, items = newline + "  ", []
            for name, item in value.items():
                leaf = _JSON_LEAVES.get(type(item))
                item = text(item, inner) if leaf is None else leaf(item)
                items.append(inner + _JSON_STRING(name) + ": " + item)
            return "{" + ",".join(items) + newline + "}"
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            inner = newline + "  "
            items = column(value, inner)
            return "[" + inner + ("," + inner).join(items) + newline + "]"
        leaf = _JSON_LEAVES.get(type(value))
        if leaf is None:
            raise TypeError(
                f"Object of type {type(value).__name__} is not JSON serializable"
            )
        return leaf(value)

    def column(values, newline: str) -> list[str]:
        """The texts of `values`, the items of one list, from one template:
        its texts between the holes at each path whose values differ
        (`layout`), each item's holes filled from the holes' columns."""
        parts, holes = [""], []
        layout(values, newline, parts, holes)
        columns = [[parts[0]] * len(values)]
        for hole, part in zip(holes, parts[1:]):
            columns += hole, [part] * len(values)
        return list(map("".join, zip(*columns)))

    def layout(values, newline: str, parts: list, holes: list) -> None:
        """Add to the template `parts` the text of a path whose values across
        the items are `values`: one object that every item shares is its
        text; dicts of one key layout are their keys' paths in turn; any
        other path is a hole, whose column of texts `holes` gets."""
        first = values[0]
        if values[-1] is first and set(map(id, values)) == {id(first)}:
            parts[-1] += text(first, newline)
        elif (type(first) is dict and first and set(map(type, values)) == {dict}
              and all(map(tuple(first).__eq__, map(tuple, values)))):
            inner, separator = newline + "  ", "{"
            for name in first:
                parts[-1] += separator + inner + _JSON_STRING(name) + ": "
                layout([value[name] for value in values], inner, parts, holes)
                separator = ","
            parts[-1] += newline + "}"
        else:
            holes.append(_column_texts(
                values, _JSON_LEAVES, lambda item: text(item, newline)
            ))
            parts.append("")

    return text(value, "\n")


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
        # the bytes of json.dumps(payload, indent=2) and a newline, in one
        # write; the records share their uncrossed sections and provenance,
        # whose text is made once
        handle.write(_json_text(payload) + "\n")


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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: `parse_args`
    leaves it as it was, so every `run` reads its own arguments only."""
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
    created, and then nothing runs and no record is written, or on an output
    file under `--out` that cannot be written after the run; 3 when a point
    did not converge, raised while running (a failed accuracy check, an
    overflow, an allocation it cannot make, an iterate the library rejects)
    or gave an output a record may not hold.  A run whose outputs can be
    written always has its record written, with the exception under a
    failed point's `error`.
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
    try:
        _write_outputs(out_dir, result)
    except OSError as exc:
        print(f"error: --out: cannot write {exc.filename or args.out}: {exc}",
              file=sys.stderr)
        return 2
    records = result.point_records or (result.record,)
    for record in records:
        if "error" in record.outputs:
            print(f"error: {record.outputs['error']}", file=sys.stderr)
    return 3 if _non_converged(records) else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
