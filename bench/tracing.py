"""Span tracing of jamgame from outside the library.

`Tracer.install` replaces each traced public function with a recording
wrapper in every jamgame namespace that binds it (for example
`interval_moments` is bound in `gaussian`, `reactive`, `proactive`,
`largescale` and `network`), and wraps the model methods on their classes.
`Tracer.uninstall` puts the originals back, so untraced ops run the library
exactly as shipped.

A span records its id, name, parent span, op id, thread and start and end
times.  Spans live in memory in one flat buffer per thread and are turned
into a `SpanTable` when the run ends.  A span opened on a thread that has no
open span of its own (a sweep pool worker) takes as parent the innermost
open span of the thread that started the op.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
import time
from array import array
from dataclasses import dataclass

import numpy as np

# (defining module, public name) of every traced function
FUNCTIONS = (
    ("gaussian", "interval_moments"),
    ("gaussian", "philox_rng"),
    ("gaussian", "sample"),
    ("reactive", "transmit_region"),
    ("reactive", "solve_pga_ccp"),
    ("reactive", "solve_gda"),
    ("network", "estimate_cost"),
    ("proactive", "solve_saddle"),
    ("proactive", "solve_saddle_vector"),
    ("largescale", "classify_and_solve"),
    ("cli", "run"),
    ("cli", "parse_config"),
    ("cli", "execute"),
    ("cli", "emit_table"),
)
MODEL_CLASSES = ("ExactScalarModel", "McVectorModel")
MODEL_METHODS = (
    "objective", "dc_concave_part", "grad_xhat", "grad_phi", "ccp_g",
    "ccp_update", "fne_index",
)
SOLVERS = ("reactive.solve_pga_ccp", "reactive.solve_gda")
OP_SPAN = "bench.op"

# columns of a span row
SID, NAME, PARENT, OP, START, END = range(6)


class _ThreadBuffer:
    __slots__ = ("rows", "stack", "thread")

    def __init__(self, thread: int):
        self.rows = array("d")
        self.stack: list[int] = []
        self.thread = thread


@dataclass
class Event:
    """A counter observed at a span boundary: (kind, span id, payload)."""

    kind: str
    sid: int
    payload: tuple


class Tracer:
    """Records spans of `package`'s traced calls while installed."""

    def __init__(self, package):
        self.names: list[str] = []
        self.events: list[Event] = []
        self.op_id = -1
        self._ids = itertools.count()
        self._buffers: dict[int, _ThreadBuffer] = {}
        self._buffers_lock = threading.Lock()
        self._op_stack: list[int] = []
        self._op_span = self._wrap(OP_SPAN, _call)
        self._patches = self._plan_patches(package)

    # -- installation ------------------------------------------------------

    def _plan_patches(self, package):
        prefix = package.__name__ + "."
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is package or name.startswith(prefix)]
        patches = []
        for module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[prefix + module_name], attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original,
                                 self._observer(module_name, attr, original))
            for namespace in namespaces:
                for key, value in vars(namespace).items():
                    if value is original:
                        patches.append((namespace, key, original, wrapper))
        reactive = sys.modules[prefix + "reactive"]
        for class_name in MODEL_CLASSES:
            cls = getattr(reactive, class_name)
            for method in MODEL_METHODS:
                original = cls.__dict__[method]
                wrapper = self._wrap(f"reactive.{class_name}.{method}", original)
                patches.append((cls, method, original, wrapper))
        return patches

    def install(self) -> None:
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _buffer(self) -> _ThreadBuffer:
        ident = threading.get_ident()
        buf = self._buffers.get(ident)
        if buf is None:
            with self._buffers_lock:
                buf = _ThreadBuffer(len(self._buffers))
                self._buffers[ident] = buf
        return buf

    def _wrap(self, name: str, fn, observe=None):
        nid = self._name_id(name)
        ids = self._ids
        clock = time.perf_counter
        buffers = self._buffers
        get_ident = threading.get_ident
        tracer = self

        def traced(*args, **kwargs):
            buf = buffers.get(get_ident()) or tracer._buffer()
            stack = buf.stack
            sid = next(ids)
            if stack:
                parent = stack[-1]
            else:
                op_stack = tracer._op_stack
                parent = op_stack[-1] if op_stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if observe is not None:
                    observe(sid, args, kwargs, None, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                buf.rows.extend((sid, nid, parent, tracer.op_id, start, end))
            if observe is not None:
                observe(sid, args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def op(self, op_id: int, fn, *args):
        """Run fn(*args) as op `op_id` under a root span; return its result."""
        self.op_id = op_id
        self._op_stack = self._buffer().stack
        return self._op_span(fn, *args)

    # -- counters ----------------------------------------------------------

    def _observer(self, module_name: str, attr: str, original):
        events = self.events
        name = f"{module_name}.{attr}"
        if name in SOLVERS:
            def observe(sid, args, kwargs, result, exc):
                if result is not None:
                    events.append(Event("solve", sid,
                                        (result.iterations, result.converged)))
            return observe
        if name == "network.estimate_cost":
            signature = inspect.signature(original)

            def observe(sid, args, kwargs, result, exc):
                bound = signature.bind(*args, **kwargs)
                rounds = bound.arguments["trials"] * bound.arguments["config"].n
                events.append(Event("rounds", sid, (rounds,)))
            return observe
        if name == "proactive.solve_saddle_vector":
            def observe(sid, args, kwargs, result, exc):
                if _monte_carlo(args[0], kwargs.get("method", "auto")):
                    events.append(Event("mc_root", sid, (exc is None,)))
            return observe
        if name == "cli.execute":
            def observe(sid, args, kwargs, result, exc):
                plan = args[0].sweep_plan
                if plan is not None and result is not None:
                    events.append(Event(
                        "sweep", sid,
                        (len(plan.points), min(plan.workers, len(plan.points))),
                    ))
            return observe
        return None

    # -- results -----------------------------------------------------------

    def table(self) -> "SpanTable":
        blocks = []
        for buf in self._buffers.values():
            rows = np.frombuffer(buf.rows, dtype=float).reshape(-1, 6)
            thread = np.full((rows.shape[0], 1), float(buf.thread))
            blocks.append(np.hstack([rows, thread]))
        data = np.vstack(blocks) if blocks else np.empty((0, 7))
        data = data[np.argsort(data[:, SID], kind="stable")]
        return SpanTable(data, list(self.names))


def _call(fn, *args):
    return fn(*args)


def _monte_carlo(source, method: str) -> bool:
    variances = getattr(source, "variances", None)
    if variances is None:
        variances = getattr(source, "eigenvalues", None)
    if variances is None:
        return False
    return method == "mc" or not bool(np.all(variances == variances[0]))


class SpanTable:
    """Finished spans as arrays, with self time and ancestry derived."""

    def __init__(self, data: np.ndarray, names: list[str]):
        self.data = data
        self.names = names
        self.sid = data[:, SID].astype(np.int64)
        self.name = data[:, NAME].astype(np.int64)
        self.op = data[:, OP].astype(np.int64)
        self.thread = data[:, 6].astype(np.int64)
        self.start = data[:, START]
        self.end = data[:, END]
        self.duration = self.end - self.start
        parent = data[:, PARENT].astype(np.int64)
        has_parent = parent >= 0
        self.parent = np.full(len(parent), -1, dtype=np.int64)
        self.parent[has_parent] = np.searchsorted(self.sid, parent[has_parent])
        self.self_time = self._self_time()

    def _self_time(self) -> np.ndarray:
        """Duration minus the part of it that child spans cover.

        Children on the parent's own thread nest and never overlap, so their
        durations add up.  Children on other threads (sweep pool workers) run
        concurrently, so for their parents the union of child intervals is
        taken instead.
        """
        n = len(self.sid)
        child = np.flatnonzero(self.parent >= 0)
        covered = np.bincount(self.parent[child], weights=self.duration[child],
                              minlength=n)
        foreign = child[self.thread[child] != self.thread[self.parent[child]]]
        for p in np.unique(self.parent[foreign]):
            kids = child[self.parent[child] == p]
            covered[p] = _union_length(self.start[kids], self.end[kids])
        return self.duration - covered

    def mask(self, *names: str) -> np.ndarray:
        """Spans named in `names`."""
        ids = [i for i, n in enumerate(self.names) if n in names]
        return np.isin(self.name, np.array(ids, dtype=np.int64))

    def within(self, *names: str) -> np.ndarray:
        """Spans that have an ancestor named in `names` (or are one)."""
        flag = self.mask(*names)
        anc = self.parent.copy()
        while True:
            live = anc >= 0
            if not live.any():
                return flag
            flag[live] |= flag[anc[live]]
            anc[live] = self.parent[anc[live]]


def _union_length(start: np.ndarray, end: np.ndarray) -> float:
    order = np.argsort(start)
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in zip(start[order], end[order]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
