"""Workload generators and off-clock output checks for the jamgame benchmark.

Each workload turns a seed into one *round* of ops.  The parameters that set
how much work an op does (variance, costs, dimension, sample count, grid
sizes) sit on a stratified design: every range is cut into equal cells and
each cell contributes its centre, so a round covers the whole range with the
same mix of easy and hard instances whatever the seed.  The seed draws the
rest: source means, representation symbols and jam policies of the
simulator, the order of vector variances, Monte Carlo op seeds, and the
order of the ops.  The benchmark repeats the round, so every op is timed
several times in a run.

An op is one `jamgame` CLI call on a generated config.  Its check reads the
files the CLI wrote and returns a list of problems (empty when the output is
correct).  Checks run off the clock.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import integrate

# |estimate - reference| <= Z_CHECK standard errors.  The two-sided normal
# tail beyond 5 is 5.7e-7, so a run with up to 1000 z checks raises a false
# alarm less than once per thousand runs.
Z_CHECK = 5.0

# Samples the benchmark draws to re-estimate a Monte Carlo saddle condition.
RECHECK_SAMPLES = 400_000
_RECHECK_CHUNK = 50_000

# README default for `solve proactive` vector sources; set explicitly because
# the CLI fills in 10000 when the field is absent.
PROACTIVE_MC_SAMPLES = 400_000

# Sweep workers: one per core, never more than the two this workload is
# specified for.
SWEEP_WORKERS = 2


@dataclass(frozen=True)
class Op:
    """One CLI call: its kind (which selects the check), subcommand and config."""

    kind: str
    command: tuple[str, ...]
    config: dict


@dataclass(frozen=True)
class Workload:
    """One round of ops, and the op of the round that warms up the process."""

    name: str
    ops: tuple[Op, ...]
    warmup: Op


def _rng(seed: int, key: int) -> np.random.Generator:
    seq = np.random.SeedSequence([seed, key])
    return np.random.Generator(np.random.Philox(seq))


def _centres(lo: float, hi: float, k: int) -> list[float]:
    """Centres of k equal cells of [lo, hi]."""
    width = (hi - lo) / k
    return [lo + width * (i + 0.5) for i in range(k)]


def _op_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _source(rng) -> dict:
    return {"mean": float(rng.uniform(-1.0, 1.0)),
            "variance": float(rng.uniform(0.5, 5.0))}


def _costs(rng) -> dict:
    return {"c": float(rng.uniform(0.5, 2.0)), "d": float(rng.uniform(0.3, 2.0))}


def _shuffled(rng, ops: list[Op]) -> tuple[Op, ...]:
    return tuple(ops[i] for i in rng.permutation(len(ops)))


# -- simulate-channel ---------------------------------------------------------

SIM_N = (1, 2, 5, 20)
SIM_TRIALS = (100_000, 300_000, 1_000_000)


def _symbols(rng, source: dict) -> tuple[float, float]:
    sd = math.sqrt(source["variance"])
    return (source["mean"] + sd * float(rng.uniform(-0.5, 0.5)),
            source["mean"] + sd * float(rng.uniform(-0.5, 0.5)))


def simulate_channel(seed: int) -> Workload:
    rng = _rng(seed, 1)
    ops = []
    for n in SIM_N:
        for trials in SIM_TRIALS:
            source = _source(rng)
            x0, x1 = _symbols(rng, source)
            config = {
                "source": source, "costs": _costs(rng), "seed": _op_seed(rng),
                "n": n,
                "capacity": 1 if n == 1 else int(rng.integers(1, n)),
                "simulate": {
                    "trials": trials,
                    "threshold": source["variance"] * float(rng.uniform(0.1, 3.0)),
                    "phi": float(rng.uniform(0.0, 0.9)),
                    "x_hat0": x0, "x_hat1": x1,
                },
            }
            ops.append(Op("blind", ("simulate",), config))
    for trials in SIM_TRIALS:
        source = _source(rng)
        x0, x1 = _symbols(rng, source)
        config = {
            "source": source, "costs": _costs(rng), "seed": _op_seed(rng),
            "n": 1, "capacity": 1,
            "simulate": {
                "trials": trials,
                "alpha": float(rng.uniform(0.0, 1.0)),
                "beta": float(rng.uniform(0.0, 1.0)),
                "x_hat0": x0, "x_hat1": x1,
            },
        }
        ops.append(Op("sensing", ("simulate",), config))
    warmup = next(op for op in ops if op.kind == "blind"
                  and op.config["simulate"]["trials"] == SIM_TRIALS[0])
    return Workload("simulate-channel", _shuffled(rng, ops), warmup)


def _z_problem(outputs: dict, label: str) -> list[str]:
    z = (outputs["value"] - outputs["analytic_value"]) / outputs["std_err"]
    if not abs(z) <= Z_CHECK:
        return [f"{label}: simulated value {outputs['value']!r} is {z:.2f} "
                f"standard errors from analytic {outputs['analytic_value']!r}"]
    return []


def check_simulate(op: Op, code, out: Path) -> list[str]:
    record = _record(out)
    if record is None:
        return ["result.json missing"]
    outputs = record["outputs"]
    problems = _z_problem(outputs, "simulate")
    if outputs["trials"] != op.config["simulate"]["trials"]:
        problems.append(f"trials {outputs['trials']} != requested")
    return problems


# -- solve-scalar -------------------------------------------------------------

EPSILONS = (1e-3, 1e-5)


def solve_scalar(seed: int) -> Workload:
    rng = _rng(seed, 2)
    ops = []
    # PGA-CCP: 4 variance x 3 c x 4 d cells, the two epsilons in a checkerboard
    for i, v in enumerate(_centres(0.5, 5.0, 4)):
        for j, c in enumerate(_centres(0.5, 2.0, 3)):
            for k, d in enumerate(_centres(0.3, 2.0, 4)):
                eps = EPSILONS[(i + j + k) % 2]
                ops.append(_scalar_op(rng, "pga_ccp", eps, v, c, d))
    # GDA minority: 4 variance x 2 d cells, c at the centre of its range
    (c,) = _centres(0.5, 2.0, 1)
    for i, v in enumerate(_centres(0.5, 5.0, 4)):
        for k, d in enumerate(_centres(0.3, 2.0, 2)):
            ops.append(_scalar_op(rng, "gda", EPSILONS[(i + k) % 2], v, c, d))
    warmup = next(op for op in ops if op.kind == "pga_ccp"
                  and op.config["solver"]["epsilon"] == EPSILONS[0])
    return Workload("solve-scalar", _shuffled(rng, ops), warmup)


def _scalar_op(rng, algorithm, epsilon, variance, c, d) -> Op:
    config = {
        "source": {"mean": float(rng.uniform(-1.0, 1.0)), "variance": float(variance)},
        "costs": {"c": float(c), "d": float(d)},
        "seed": _op_seed(rng),
        "solver": {"epsilon": epsilon, "algorithm": algorithm},
    }
    return Op(algorithm, ("solve", "reactive"), config)


def scalar_value_by_quad(config: dict, outputs: dict) -> tuple[float, float]:
    """E[min(f_t, f_nt)] at the returned point, by adaptive quadrature.

    f_t = beta (x - x1)^2 + c - d beta is the transmit branch and
    f_nt = alpha (x - x1)^2 + (1 - alpha)(x - x0)^2 - d alpha the silent
    one; the integrand is split where they cross.  Mass beyond 12 standard
    deviations is below 1e-30 and left out.
    """
    mean = config["source"]["mean"]
    sd = math.sqrt(config["source"]["variance"])
    c, d = config["costs"]["c"], config["costs"]["d"]
    a, b = outputs["alpha"], outputs["beta"]
    x0, x1 = outputs["x_hat0"], outputs["x_hat1"]
    norm = 1.0 / (sd * math.sqrt(2.0 * math.pi))

    def integrand(x):
        f_t = b * (x - x1) ** 2 + c - d * b
        f_nt = a * (x - x1) ** 2 + (1.0 - a) * (x - x0) ** 2 - d * a
        return min(f_t, f_nt) * norm * math.exp(-0.5 * ((x - mean) / sd) ** 2)

    # f_nt - f_t as a polynomial in x
    poly = [
        (a - b) + (1.0 - a),
        -2.0 * ((a - b) * x1 + (1.0 - a) * x0),
        (a - b) * x1 * x1 + (1.0 - a) * x0 * x0 - d * a - c + d * b,
    ]
    lo, hi = mean - 12.0 * sd, mean + 12.0 * sd
    roots = sorted(
        float(z.real) for z in np.roots(poly)
        if abs(z.imag) < 1e-12 and lo < z.real < hi
    )
    edges = [lo] + roots + [hi]
    total = err = 0.0
    for left, right in zip(edges, edges[1:]):
        value, abserr = integrate.quad(integrand, left, right, limit=200,
                                       epsabs=1e-13, epsrel=1e-12)
        total += value
        err += abserr
    return total, err


def check_scalar(op: Op, code, out: Path) -> list[str]:
    record = _record(out)
    if record is None:
        return ["result.json missing"]
    outputs = record["outputs"]
    problems = _converged_problems(code, outputs)
    eps = op.config["solver"]["epsilon"]
    if outputs["converged"] and not outputs["fne_index"] <= eps:
        problems.append(f"fne_index {outputs['fne_index']!r} > epsilon {eps}")
    if not (out / "trace.csv").exists():
        problems.append("trace.csv missing")
    quad, quad_err = scalar_value_by_quad(op.config, outputs)
    tol = 1e-8 * max(1.0, abs(quad)) + 10.0 * quad_err
    if not abs(outputs["value"] - quad) <= tol:
        problems.append(
            f"value {outputs['value']!r} differs from quadrature {quad!r} "
            f"by more than {tol:.3g}"
        )
    return problems


def _converged_problems(code, outputs: dict) -> list[str]:
    if outputs["converged"] != (code == 0):
        return [f"exit code {code} disagrees with converged={outputs['converged']}"]
    return []


# -- solve-vector -------------------------------------------------------------

VECTOR_DIM_CELLS = 5  # over dimensions 2 to 10
VECTOR_EPSILON = 0.05
# Converging Monte Carlo solves take under 20 iterations; some sample sets
# make PGA-CCP oscillate for good, and at the default 5000 iterations such
# an op would run for minutes.
VECTOR_MAX_ITERS = 30


def _latin(values: list[float], step: int) -> list[float]:
    """values in the order 0, step, 2 step, ... (mod len): with steps prime
    to the length, the lists zipped together pair every cell once."""
    return [values[(step * i) % len(values)] for i in range(len(values))]


def _vector_source(rng, dim: int) -> dict:
    """Anisotropic diagonal source: the variances spread evenly over
    [0.5, 5] in a seeded order, each mean in [-1, 1]."""
    variances = np.linspace(0.5, 5.0, dim)[rng.permutation(dim)]
    return {
        "mean": [float(v) for v in rng.uniform(-1.0, 1.0, dim)],
        "variance": [float(v) for v in variances],
        "dimension": dim,
    }


def solve_vector(seed: int) -> Workload:
    rng = _rng(seed, 3)
    k = VECTOR_DIM_CELLS
    dims = [int(v) for v in _centres(2.0, 11.0, k)]
    # two reactive ops per dimension cell, on a Latin design over 2k cells
    samples = _latin(_centres(10_000, 50_000, 2 * k), 3)
    cs, ds = _latin(_centres(0.5, 2.0, 2 * k), 7), _latin(_centres(0.3, 2.0, 2 * k), 9)
    reactive = [
        Op("reactive", ("solve", "reactive"), {
            "source": _vector_source(rng, dim), "costs": {"c": c, "d": d},
            "seed": _op_seed(rng),
            "solver": {"epsilon": VECTOR_EPSILON, "mc_samples": int(mc),
                       "max_iters": VECTOR_MAX_ITERS},
        })
        for dim, mc, c, d in zip(dims + dims, samples, cs, ds)
    ]
    cs, ds = _latin(_centres(0.5, 2.0, k), 2), _latin(_centres(0.3, 2.0, k), 3)
    proactive = [
        Op("proactive", ("solve", "proactive"), {
            "source": _vector_source(rng, dim), "costs": {"c": c, "d": d},
            "seed": _op_seed(rng),
            "solver": {"mc_samples": PROACTIVE_MC_SAMPLES},
        })
        for dim, c, d in zip(dims, cs, ds)
    ]
    warmup = reactive[0]
    reactive = _shuffled(rng, reactive)
    proactive = _shuffled(rng, proactive)
    # two reactive ops, then one proactive op
    ops = tuple(op for i, p in enumerate(proactive)
                for op in (reactive[2 * i], reactive[2 * i + 1], p))
    return Workload("solve-vector", ops, warmup)


def saddle_condition(config: dict, threshold: float, seed: int):
    """(E[S 1(S > threshold)] - d, its standard error) for S = ||X - mean||^2,
    estimated from the benchmark's own Philox stream in bounded chunks."""
    variances = np.asarray(config["source"]["variance"], dtype=float)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 7])))
    total = total_sq = 0.0
    for start in range(0, RECHECK_SAMPLES, _RECHECK_CHUNK):
        count = min(_RECHECK_CHUNK, RECHECK_SAMPLES - start)
        z = rng.standard_normal((count, variances.size))
        s = (z * z) @ variances
        vals = np.where(s > threshold, s, 0.0)
        total += float(vals.sum())
        total_sq += float(vals @ vals)
    n = RECHECK_SAMPLES
    mean = total / n
    var = (total_sq - n * mean * mean) / (n - 1)
    return mean - config["costs"]["d"], math.sqrt(max(var, 0.0) / n)


def check_vector(op: Op, code, out: Path) -> list[str]:
    record = _record(out)
    if record is None:
        return ["result.json missing"]
    outputs = record["outputs"]
    if op.kind == "reactive":
        problems = _converged_problems(code, outputs)
        bound = VECTOR_EPSILON + 3.0 * outputs["fne_std_err"]
        if outputs["converged"] and not outputs["fne_index"] <= bound:
            problems.append(f"fne_index {outputs['fne_index']!r} > {bound!r}")
        return problems
    # The solver accepts its root when its own sampled condition is within
    # 3 of its standard errors; an independent estimate then differs from 0
    # by both sampling errors plus that allowance.
    resid, se = saddle_condition(op.config, outputs["threshold"], op.config["seed"])
    se_solver = se * math.sqrt(RECHECK_SAMPLES / PROACTIVE_MC_SAMPLES)
    tol = Z_CHECK * math.hypot(se, se_solver) + 3.0 * se_solver
    if outputs["case"] == "no_jam":
        if not resid <= tol:
            return [f"no_jam but the condition at threshold c is {resid:.4g} > {tol:.3g}"]
        return []
    if not abs(resid) <= tol:
        return [f"saddle condition {resid:.4g} at the returned threshold "
                f"exceeds {tol:.3g}"]
    return []


# -- sweep-grid ---------------------------------------------------------------

SWEEP_N = (2, 5, 10, 20)
SWEEP_TRIALS = 100_000


def _sweep(mode: str, base: dict, axes: list[tuple[str, list]]) -> dict:
    config = dict(base)
    config["sweep"] = {
        "mode": mode,
        "workers": SWEEP_WORKERS,
        "axes": [{"parameter": p, "grid": g} for p, g in axes],
    }
    return config


def sweep_grid(seed: int) -> Workload:
    rng = _rng(seed, 4)
    source = _source(rng)
    simulate = _sweep("simulate", {
        "source": source, "costs": _costs(rng), "seed": _op_seed(rng),
        "kappa_bar": float(rng.uniform(0.1, 0.5)),
        "simulate": {"trials": SWEEP_TRIALS,
                     "threshold": source["variance"] * float(rng.uniform(0.25, 2.0))},
    }, [("n", list(SWEEP_N)), ("simulate.phi", _centres(0.0, 0.9, 3))])
    # one reactive sweep per c cell, the epsilons alternating; with the other
    # three sweeps that makes an odd count, so the median op is one sweep
    reactive = [_sweep("reactive", {
        "source": _source(rng), "costs": {"c": c, "d": 1.0},
        "seed": _op_seed(rng), "solver": {"epsilon": EPSILONS[i % 2]},
    }, [("costs.d", _centres(0.3, 2.0, 4)),
        ("source.variance", _centres(0.5, 5.0, 4))])
        for i, c in enumerate(_centres(0.5, 2.0, 4))]
    d_grid = [float(v) for v in np.linspace(
        rng.uniform(0.05, 0.25), rng.uniform(1.5, 2.5), 20)]
    large_scale = _sweep("large_scale", {
        "source": _source(rng), "costs": _costs(rng), "seed": _op_seed(rng),
        "kappa_bar": 0.5,
    }, [("costs.d", d_grid),
        ("kappa_bar", [float(v) for v in np.linspace(
            rng.uniform(0.02, 0.1), rng.uniform(0.8, 0.95), 20)])])
    proactive = _sweep("proactive", {
        "source": _source(rng), "costs": _costs(rng), "seed": _op_seed(rng),
    }, [("costs.d", d_grid),
        ("costs.c", [float(v) for v in np.linspace(
            rng.uniform(0.3, 0.6), rng.uniform(1.5, 2.5), 20)])])
    ops = [Op("sweep-" + c["sweep"]["mode"], ("sweep",), c)
           for c in [simulate, *reactive, large_scale, proactive]]
    warmup = next(op for op in ops if op.kind == "sweep-large_scale")
    return Workload("sweep-grid", _shuffled(rng, ops), warmup)


def check_sweep(op: Op, code, out: Path) -> list[str]:
    record = _record(out)
    if record is None:
        return ["result.json missing"]
    expected = math.prod(len(a["grid"]) for a in op.config["sweep"]["axes"])
    problems = []
    records = record.get("records", [])
    if record["outputs"]["points"] != expected or len(records) != expected:
        problems.append(
            f"{len(records)} point records for {expected} grid points"
        )
    table = (out / "table.csv").read_text().splitlines() \
        if (out / "table.csv").exists() else []
    if len(table) != expected + 1:
        problems.append(f"table.csv has {len(table) - 1} rows for {expected} points")
    if op.config["sweep"]["mode"] == "simulate":
        for i, point in enumerate(records):
            problems += _z_problem(point["outputs"], f"point {i}")
    return problems


# -- shared -------------------------------------------------------------------

def _record(out: Path) -> dict | None:
    path = out / "result.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


GENERATORS = {
    "simulate-channel": simulate_channel,
    "solve-scalar": solve_scalar,
    "solve-vector": solve_vector,
    "sweep-grid": sweep_grid,
}

CHECKS = {
    "simulate-channel": check_simulate,
    "solve-scalar": check_scalar,
    "solve-vector": check_vector,
    "sweep-grid": check_sweep,
}
