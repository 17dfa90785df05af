"""In-memory spans around the program's public calls, and self-time accounting.

:func:`instrument` wraps the public entry point of every layer (the table
in :func:`_targets`) for the duration of a ``with`` block, recording one span
per call into a :class:`SpanRecorder`; leaving the block restores the
originals.  Nothing inside the program changes: a wrapper sees only the
arguments and return value (or exception) of the call it wraps, plus the
public attributes the object exposes afterwards (``IlpScheduler.last_status``,
``OptimizeResult.mip_node_count``, ``FlowConfig`` fault rates).

A span's *self time* is its duration minus the part of its interval its
child spans cover; self times of all spans of a job tile the job's root
span, so whatever a traced pass spends outside every span shows up as the
unaccounted remainder of the per-layer table.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One timed call: name, interval, parent index and counters."""

    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any thread; each thread keeps its own open stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record ``name`` around the block; nested spans become children."""
        stack = self._stack()
        record = Span(name=name, start=time.perf_counter(), parent=stack[-1] if stack else None)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()


def self_times(spans: List[Span]) -> List[float]:
    """Per-span duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(span.duration - covered)
    return result


def self_time_by_name(spans: List[Span]) -> Dict[str, float]:
    """Total self time per span name."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def counts_by_name(spans: List[Span]) -> Dict[str, float]:
    """Sum of every ``span name/counter`` pair across spans."""
    totals: Dict[str, float] = {}
    for span in spans:
        for key, value in span.counts.items():
            label = f"{span.name}/{key}"
            totals[label] = totals.get(label, 0.0) + value
    return totals


def dump(spans: List[Span], path: Path) -> None:
    """Write spans (with their self times) as a JSON list, in recording order."""
    rows = [
        {
            "name": span.name,
            "start_s": span.start,
            "duration_s": span.duration,
            "self_s": own,
            "parent": span.parent,
            "counts": span.counts,
        }
        for span, own in zip(spans, self_times(spans))
    ]
    path.write_text(json.dumps(rows))


# ------------------------------------------------------------ instrumentation


def _is_capped(status: Any) -> bool:
    # FEASIBLE is a time-limit incumbent (HiGHS code 1 with a usable x);
    # TIME_LIMIT is a limit hit without one.
    return getattr(status, "value", status) in ("feasible", "time_limit")


def _fault_mode(config: Any) -> str:
    faulted = getattr(config, "fault_rate", 0.0) or getattr(config, "channel_fault_rate", 0.0)
    return "faulted" if faulted else "fault_free"


def _targets() -> List[Tuple[Any, str, Any, Optional[Callable]]]:
    """``(owner, attribute, span name, after-hook)`` for every wrapped call.

    The span name may be a function of the call's arguments.
    The after-hook receives ``(span, args, result)`` and may add counters;
    ``result`` is ``None`` when the call raised.
    Imported lazily: the program is importable only once the caller has
    put its sources on ``sys.path``.
    """
    from repro.archsyn.router import HeuristicSynthesizer
    from repro.batch.cache import ResultCache
    from repro.batch.engine import BatchSynthesisEngine
    from repro.ilp import model as ilp_model
    from repro.ilp.backends import branch_and_bound, highs, portfolio
    from repro.scheduling.ilp_scheduler import IlpScheduler
    from repro.scheduling.list_scheduler import ListScheduler
    from repro.simulation import montecarlo, simulator
    from repro.synthesis import pipeline

    def ilp_schedule_done(span: Span, args: tuple, result: Any) -> None:
        status = args[0].last_status  # set before a failed solve raises
        span.counts["solves"] = 1
        span.counts["optimal"] = int(getattr(status, "value", "") == "optimal")
        span.counts["capped"] = int(_is_capped(status))

    def milp_done(span: Span, args: tuple, result: Any) -> None:
        span.counts["nodes"] = int(getattr(result, "mip_node_count", 0) or 0)

    def archsyn_done(span: Span, args: tuple, result: Any) -> None:
        if result is not None:
            span.counts["grid_growth"] = result.grid.shape[0] - args[0].config.grid_rows

    def mc_done(span: Span, args: tuple, result: Any) -> None:
        if result is not None:
            span.counts["trials"] = result.trial_count

    def cache_get_done(span: Span, args: tuple, result: Any) -> None:
        span.counts["hit" if result is not None else "miss"] = 1

    stages = [
        (type(stage), "run", f"synthesis.stage.{stage.name}", None)
        for stage in pipeline.STAGES_BY_NAME.values()
    ]
    return [
        (pipeline.SynthesisPipeline, "run", "synthesis.pipeline", None),
        *stages,
        (pipeline, "build_physical_design", "physical.build", None),
        (ListScheduler, "schedule", "scheduling.list", None),
        (IlpScheduler, "schedule", "scheduling.ilp", ilp_schedule_done),
        (ilp_model.Model, "solve", "ilp.solve", None),
        (portfolio.PortfolioBackend, "solve", "ilp.backend", None),
        (highs.HighsBackend, "solve", "ilp.backend", None),
        (branch_and_bound.BranchAndBoundBackend, "solve", "ilp.backend", None),
        (highs, "milp", "ilp.native", milp_done),
        (HeuristicSynthesizer, "synthesize", "archsyn.synth", archsyn_done),
        (simulator.ChipSimulator, "run", "simulation.replay", None),
        (montecarlo.MonteCarloEngine, "run", _mc_span_name, mc_done),
        (montecarlo.ReplayPlan, "__init__", "simulation.plan", None),
        (BatchSynthesisEngine, "run", "batch.run", None),
        (ResultCache, "get", "cache.get", cache_get_done),
        (ResultCache, "put", "cache.put", None),
    ]


def _mc_span_name(args: tuple) -> str:
    """Monte-Carlo spans are split by whether the engine injects faults."""
    return f"simulation.mc.{_fault_mode(args[0].config)}"


def _wrap(recorder: SpanRecorder, func: Callable, name: Any, after: Optional[Callable]) -> Callable:
    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with recorder.span(name(args) if callable(name) else name) as record:
            result = None
            try:
                result = func(*args, **kwargs)
            except Exception:
                record.counts["errors"] = 1
                raise
            finally:
                if after is not None:
                    after(record, args, result)
            return result

    return wrapper


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every layer entry point for the duration of the block."""
    saved = []
    try:
        for owner, attribute, name, after in _targets():
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            if original is None:  # scipy absent: the HiGHS backend has no milp
                continue
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(recorder, original, name, after))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


@contextlib.contextmanager
def status_probe(statuses: List[str]) -> Iterator[List[str]]:
    """Collect ``IlpScheduler.last_status`` of every exact solve (untraced runs).

    The one wrapper untraced runs keep: a status read after each solve,
    so ``uncapped_share`` needs no trace.  Its cost is one Python call per
    solve, against solves of 10 ms and more.
    """
    from repro.scheduling.ilp_scheduler import IlpScheduler

    original = IlpScheduler.__dict__["schedule"]

    @functools.wraps(original)
    def schedule(self: Any, *args: Any, **kwargs: Any) -> Any:
        try:
            return original(self, *args, **kwargs)
        finally:
            statuses.append(getattr(self.last_status, "value", "error"))

    IlpScheduler.schedule = schedule
    try:
        yield statuses
    finally:
        IlpScheduler.schedule = original
