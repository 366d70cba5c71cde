"""Spans recorded around pinchopt's public functions, and the arithmetic
that turns them into per-layer metrics.

A :class:`Recorder` rebinds each target function, in every ``pinchopt``
module whose namespace holds it, to a wrapper that records one span per
call: process id, span id, parent span id, layer (the module), function
name, start, end, and a per-function measurement taken from the call's
arguments or result.  Spans stay in memory.  Given a
:class:`hostspeed.SpeedLog`, the recorder also records each call's process
CPU time and times the reference kernel after outermost calls, at most every
``hostspeed.GAP_S`` seconds.  Pool
workers forked while the wrappers are bound record into their own copy and
pickle it to a file in ``spill_dir`` when they exit; :meth:`Recorder.drain`
merges those files.
"""
from __future__ import annotations

import functools
import math
import multiprocessing.util
import os
import pickle
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Callable, NamedTuple

from hostspeed import SpeedLog

# (layer, function) pairs the traced run wraps.  Layers are pinchopt's modules.
TRACE_TARGETS = (
    ("channel", "phases_and_distances"),
    ("channel", "pinching_gain"),
    ("channel", "pinching_gains_batch"),
    ("channel", "conventional_effective_gain"),
    ("noma", "optimal_alpha2"),
    ("noma", "rate_report"),
    ("noma", "check_feasibility"),
    ("placement", "bisection_solve"),
    ("placement", "fine_tune"),
    ("placement", "evaluate_placement"),
    ("oracle", "exhaustive_placement"),
    ("oracle", "batch_solution_metrics"),
    ("sim", "evaluate_scheme"),
    ("sim", "sample_scenario"),
    ("sim", "write_table"),
    ("cli", "main"),
    ("cli", "load_config"),
)

# The untraced run wraps only the two solvers, to time each solve and keep
# its result for the output checks.
SOLVER_TARGETS = (
    ("placement", "bisection_solve"),
    ("oracle", "exhaustive_placement"),
)


_FAILED = object()


class Span(NamedTuple):
    pid: int
    sid: int
    parent: int  # -1 for a root span of its process
    layer: str
    name: str
    start: float
    end: float
    measure: Any  # per-function value, see MEASURES; None if the call raised
    cpu: float = 0.0  # process CPU seconds of the call, with a speed log only


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _fine_tune_key(args: tuple, kwargs: dict) -> tuple:
    """Everything ``fine_tune`` reads: geometry, layout, users, tolerances.

    Transmit and noise power are left out because the layout does not depend
    on them, so one scenario at two power levels repeats the same input.
    """
    p = _arg(args, kwargs, 0, "params")
    layout = _arg(args, kwargs, 1, "layout")
    users = _arg(args, kwargs, 2, "users")
    cfg = _arg(args, kwargs, 3, "cfg")
    return (
        p.fc, p.n_eff, p.h, p.side_d, p.n_antennas, p.delta_min,
        layout.xs, layout.feed_x,
        tuple((u.x, u.y) for u in users),
        cfg.delta1, cfg.delta2,
        cfg.resolved_fine_step(p), cfg.resolved_max_shifts(p),
    )


def _solver_payload(args: tuple, kwargs: dict, result) -> tuple:
    """(params, users, qos, solution), which the output checks need."""
    return (
        _arg(args, kwargs, 0, "params"),
        _arg(args, kwargs, 1, "users"),
        _arg(args, kwargs, 2, "qos"),
        result,
    )


# Measurement recorded on each span, by function: f(args, kwargs, result).
MEASURES: dict[tuple[str, str], Callable[[tuple, dict, Any], Any]] = {
    ("channel", "phases_and_distances"): lambda a, k, r: int(r[0].size),
    ("channel", "pinching_gains_batch"): lambda a, k, r: int(r.size),
    ("placement", "fine_tune"): lambda a, k, r: _fine_tune_key(a, k),
    ("placement", "evaluate_placement"): lambda a, k, r: bool(r[2].overall),
    ("placement", "bisection_solve"): _solver_payload,
    ("oracle", "exhaustive_placement"): _solver_payload,
    ("oracle", "batch_solution_metrics"): lambda a, k, r: (
        int(r[1].size), int(r[1].sum())
    ),
    ("sim", "write_table"): lambda a, k, r: os.path.getsize(_arg(a, k, 1, "path")),
}


def pinchopt_modules() -> list:
    """Every loaded module of the pinchopt package, the package included."""
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "pinchopt" or name.startswith("pinchopt."))
    ]


class Recorder:
    """Records spans around ``targets`` while installed."""

    def __init__(self, targets, spill_dir: Path, keep: bool = False,
                 speed: SpeedLog | None = None) -> None:
        self.targets = tuple(targets)
        self.spill_dir = Path(spill_dir)
        self.speed = speed
        self.spans: list[Span] = []
        # with ``keep``, drained spans are also collected in ``kept``
        self.keep = keep
        self.kept: list[Span] = []
        self._stack: list[int] = []
        self._next_sid = 0
        self._pid = os.getpid()
        self._originals: list[Callable] = []
        self._rebound: list[tuple[Any, str, Callable]] = []

    def install(self) -> None:
        modules = pinchopt_modules()
        for layer, name in self.targets:
            home = sys.modules[f"pinchopt.{layer}"]
            original = getattr(home, name)
            self._originals.append(original)
            wrapper = self._wrap(layer, name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._rebound.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def missed_bindings(self) -> list[str]:
        """Module attributes that still hold an unwrapped target."""
        originals = {id(f) for f in self._originals}
        return [
            f"{module.__name__}.{attr}"
            for module in pinchopt_modules()
            for attr, value in vars(module).items()
            if id(value) in originals
        ]

    def drain(self) -> list[Span]:
        """Return and forget every span recorded so far, workers' included.

        Workers' kernel samples join ``speed``.
        """
        spans, self.spans = self.spans, []
        for path in sorted(self.spill_dir.glob("spans-*.pkl")):
            with open(path, "rb") as fh:
                worker_spans, worker_samples = pickle.load(fh)
            spans.extend(worker_spans)
            if self.speed is not None:
                self.speed.samples.extend(worker_samples)
            path.unlink()
        if self.keep:
            self.kept.extend(spans)
        return spans

    def _enter_worker(self) -> None:
        # first wrapped call in a forked worker: drop the parent's spans and
        # call stack, and spill this process's spans when it exits
        self._pid = os.getpid()
        self.spans = []
        self._stack = []
        if self.speed is not None:
            self.speed.reset()
        multiprocessing.util.Finalize(None, self._spill, exitpriority=10)

    def _spill(self) -> None:
        fd, _ = tempfile.mkstemp(prefix="spans-", suffix=".pkl", dir=self.spill_dir)
        with open(fd, "wb") as fh:
            samples = self.speed.samples if self.speed is not None else []
            pickle.dump((self.spans, samples), fh, protocol=pickle.HIGHEST_PROTOCOL)

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        measure = MEASURES.get((layer, name))
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != rec._pid:
                rec._enter_worker()
            sid = rec._next_sid
            rec._next_sid += 1
            parent = rec._stack[-1] if rec._stack else -1
            rec._stack.append(sid)
            result = _FAILED
            timed_cpu = rec.speed is not None
            cpu = process_time() if timed_cpu else 0.0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                if timed_cpu:
                    cpu = process_time() - cpu
                rec._stack.pop()
                value = None
                if measure is not None and result is not _FAILED:
                    value = measure(args, kwargs, result)
                rec.spans.append(
                    Span(rec._pid, sid, parent, layer, name, start, end, value, cpu)
                )
                if rec.speed is not None and not rec._stack:
                    rec.speed.maybe_sample()

        return wrapper


# --- metric arithmetic -----------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[tuple[int, int], float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault((s.pid, s.parent), []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = children.get((s.pid, s.sid), ())
        clipped = [
            (max(a, s.start), min(b, s.end)) for a, b in kids if b > s.start and a < s.end
        ]
        out[(s.pid, s.sid)] = (s.end - s.start) - union_length(clipped)
    return out


def busy_time(spans) -> float:
    """Time covered by ``spans``, summed over processes.

    Nested spans of one process count once; spans of different processes
    (pool workers) run side by side and add up.
    """
    by_pid: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        by_pid.setdefault(s.pid, []).append((s.start, s.end))
    return sum(union_length(iv) for iv in by_pid.values())


class TooFewSamples(ValueError):
    """A percentile was asked for with fewer than ten samples beyond it."""


MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile, refused unless ten samples lie beyond it."""
    n = len(samples)
    rank = math.ceil(q / 100.0 * n)
    if n == 0 or n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {max(n - rank, 0)} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return sorted(samples)[max(rank, 1) - 1]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times from the spans of one traced run."""
    by_fn: dict[tuple[str, str], list[Span]] = {}
    for s in spans:
        by_fn.setdefault((s.layer, s.name), []).append(s)
    own = self_times(spans)

    def fn(layer, name):
        return by_fn.get((layer, name), [])

    def calls(layer, name):
        return len(fn(layer, name))

    def measured(layer, name):
        return [s.measure for s in fn(layer, name) if s.measure is not None]

    def busy(layer, name):
        return math.fsum(s.end - s.start for s in fn(layer, name))

    def self_s(layer, name):
        return math.fsum(own[(s.pid, s.sid)] for s in fn(layer, name))

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    m["placement.fine_tune.calls"] = calls("placement", "fine_tune")
    m["placement.fine_tune.busy_s"] = busy("placement", "fine_tune")
    m["placement.fine_tune.self_s"] = self_s("placement", "fine_tune")
    keys = measured("placement", "fine_tune")
    m["placement.fine_tune.repeat_ratio"] = ratio(len(keys) - len(set(keys)), len(keys))
    solves = fn("placement", "bisection_solve")
    m["placement.iterations"] = sum(
        v[3].iterations for v in measured("placement", "bisection_solve")
    )
    m["placement.bisection_solve.calls"] = len(solves)
    m["placement.bisection_solve.self_s"] = self_s("placement", "bisection_solve")
    m["placement.evaluate_placement.calls"] = calls("placement", "evaluate_placement")
    m["placement.evaluate_placement.self_s"] = self_s("placement", "evaluate_placement")
    solve_ids = {(s.pid, s.sid) for s in solves}
    iterates = [
        s.measure for s in fn("placement", "evaluate_placement")
        if (s.pid, s.parent) in solve_ids and s.measure is not None
    ]
    m["placement.feasible_iterate_ratio"] = ratio(sum(iterates), len(iterates))

    m["channel.phases_and_distances.calls"] = calls("channel", "phases_and_distances")
    m["channel.phases_and_distances.elements"] = sum(
        measured("channel", "phases_and_distances")
    )
    m["channel.phases_and_distances.busy_s"] = busy("channel", "phases_and_distances")
    for name in ("pinching_gain", "conventional_effective_gain"):
        m[f"channel.{name}.calls"] = calls("channel", name)
        m[f"channel.{name}.busy_s"] = busy("channel", name)
    m["channel.pinching_gains_batch.calls"] = calls("channel", "pinching_gains_batch")
    m["channel.pinching_gains_batch.rows"] = sum(
        measured("channel", "pinching_gains_batch")
    )
    m["channel.pinching_gains_batch.busy_s"] = busy("channel", "pinching_gains_batch")

    m["oracle.exhaustive_placement.calls"] = calls("oracle", "exhaustive_placement")
    m["oracle.exhaustive_placement.busy_s"] = busy("oracle", "exhaustive_placement")
    m["oracle.exhaustive_placement.self_s"] = self_s("oracle", "exhaustive_placement")
    batches = measured("oracle", "batch_solution_metrics")
    rows = sum(v[0] for v in batches)
    m["oracle.batch_solution_metrics.calls"] = calls("oracle", "batch_solution_metrics")
    m["oracle.batch_solution_metrics.rows"] = rows
    m["oracle.batch_solution_metrics.busy_s"] = busy("oracle", "batch_solution_metrics")
    m["oracle.feasible_row_ratio"] = ratio(sum(v[1] for v in batches), rows)

    for name in ("optimal_alpha2", "rate_report", "check_feasibility"):
        m[f"noma.{name}.calls"] = calls("noma", name)
    m["noma.busy_s"] = busy_time([s for s in spans if s.layer == "noma"])

    for name in ("evaluate_scheme", "sample_scenario", "write_table"):
        m[f"sim.{name}.calls"] = calls("sim", name)
        m[f"sim.{name}.busy_s"] = busy("sim", name)
    m["sim.write_table.bytes"] = sum(measured("sim", "write_table"))
    m["cli.main.busy_s"] = busy("cli", "main")
    m["cli.load_config.busy_s"] = busy("cli", "load_config")
    return m
