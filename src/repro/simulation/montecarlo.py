"""Seeded Monte-Carlo verification of a synthesized schedule.

The deterministic flow emits a single makespan, but a fabricated biochip
sees stochastic operation durations and valve/device/channel failures.
This module replays a :class:`~repro.scheduling.schedule.Schedule` many
times under three perturbation families and reports a *distribution*
instead of one number:

* **Duration jitter** — each operation's duration is inflated by a draw
  from a configurable distribution (``uniform`` or ``normal`` spread).
  Jitter is inflation-only by construction, so a jittered trial can never
  finish before the deterministic schedule; with jitter disabled the
  replay reproduces the deterministic makespan *exactly*, for any seed.
* **Device faults** — with probability ``fault_rate`` the device executing
  an operation faults.  Recovery first retries on the same device (each
  failed attempt burns one full duration), then migrates the operation to
  a compatible spare (plus one transport time); the faulted device stays
  blocked until the migrated operation completes — a repair window that
  keeps every trial's resource-release times pointwise at or above the
  fault-free trial's, so an injected-failure trial can never report a
  makespan below the fault-free one.  A fault with no working spare is
  *unrecovered*: the operation still completes (best effort, one extra
  duration), but the trial's recovery rate drops below 1.
* **Channel faults** — with probability ``channel_fault_rate`` the routing
  channel carrying a fluid transport faults and the droplet is rerouted,
  adding one transport time to the affected precedence edge.  Reroutes
  always succeed and are counted separately from device-fault recovery.
* **Contamination washes** — with ``wash_time > 0``, a wash is inserted
  between consecutive operations on one device unless the later operation
  directly consumes the earlier one's product (a direct graph successor
  needs no wash: the fluid itself moves on).

Determinism: every trial derives two independent :class:`random.Random`
streams — one for jitter, one for faults — via
:func:`repro.keys.derive_seed`, which is SHA-256 based and therefore
identical in every process regardless of ``PYTHONHASHSEED``.  The same
seed yields the same trial sequence bit-for-bit, and enabling faults
leaves the jitter draws untouched (separate streams), which is what makes
the fault-vs-fault-free monotonicity property testable.

Performance architecture (three stacked layers, all bit-identical):

* A :class:`ReplayPlan` is compiled once per engine and lowers the replay
  to integer-indexed arrays — topological entry order, CSR predecessor
  indices with precomputed transport minima, static wash predicates,
  device-index maps, and per-entry spare candidate lists — so no trial
  ever calls ``graph.predecessors()``, hashes a string key, or sorts.
* One masked kernel advances all trials of a block entry by entry as
  numpy vector operations across the trial axis, with a per-trial draw
  cursor.  Every trial reads the plan's static bindings, edge minima and
  wash predicates; device faults are sparse exceptions to them: retries
  and migrations run on the faulted rows' indices only, and an edge out
  of a migrated entry is redone on the migrated rows only.
  The random draws still come from the per-trial SHA-derived
  ``random.Random`` streams — reproduced bit-for-bit across the trial
  axis by :mod:`repro.simulation.mtstream`, and generated on demand: the
  fault stream only as far as the trials' cursors reach — and
  ``round``/``np.rint`` agree on float64 (both round half to even), so
  every reported value is bit-identical to the scalar engine.
* ``workers > 1`` shards trial index ranges across a process pool.
  Per-trial streams are derived from the trial *index*, so any shard
  boundary reproduces the exact same draws and the merged report is
  byte-identical for every worker count.

Aggregation is streaming: each shard returns sorted makespans plus
counter sums (a :class:`TrialAggregate`), so a 100k-trial run never holds
100k :class:`TrialResult` objects; per-trial detail is retained only up
to :data:`TRIAL_DETAIL_LIMIT` trials.  Set ``REPRO_MC_SCALAR=1`` to force
the original scalar engine — the differential reference the test suite
pins the fast kernel against, mirroring ``REPRO_BB_SCALAR``.
"""

from __future__ import annotations

import math
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.devices.device import DeviceLibrary
from repro.graph.sequencing_graph import SequencingGraph
from repro.keys import derive_seed
from repro.obs import metrics as obs_metrics
from repro.obs.trace import (
    SpanContext,
    TraceRecorder,
    current_context,
    install_recorder,
    recorder,
    span as obs_span,
    tracing_enabled,
    uninstall_recorder,
)
from repro.scheduling.schedule import Schedule
from repro.simulation.mtstream import MersenneStream, derive_seed_block

#: Hard cap on the violation diagnostics kept per report, so a
#: pathological configuration cannot balloon artifact payloads.  When the
#: cap truncates, the report's last entry is a ``"... +N more"`` marker.
MAX_DIAGNOSTICS = 32

#: Environment variable forcing the scalar reference engine (mirrors
#: ``REPRO_BB_SCALAR`` on the branch-and-bound kernels).
_SCALAR_ENV = "REPRO_MC_SCALAR"

#: Per-trial :class:`TrialResult` detail is kept only for runs at or
#: below this many trials; larger runs report aggregates only.
TRIAL_DETAIL_LIMIT = 2048

#: Trials per vectorized block — bounds the ``(entries x block)``
#: matrices a batched pass materializes.
VECTOR_BLOCK_TRIALS = 4096

#: Minimum trials worth paying one worker process for; requests for more
#: workers than ``trials // MIN_TRIALS_PER_SHARD`` are quietly clamped.
MIN_TRIALS_PER_SHARD = 64


@dataclass(frozen=True)
class MonteCarloConfig:
    """Knobs of one Monte-Carlo verification run.

    Mirrors the ``verify_*`` slice of
    :class:`~repro.synthesis.config.FlowConfig` (see
    :meth:`from_flow_config`) so the stage's cache key and the engine's
    behavior are driven by the same values.  ``workers`` is runtime
    advice: it shards trials across processes without changing a single
    reported value, so it deliberately sits outside the stage cache key.
    Out-of-range values raise :class:`ValueError` at construction, which is
    also how ``FlowConfig`` validates its ``verify_*`` fields.
    """

    trials: int = 32
    seed: int = 0
    jitter: str = "none"
    jitter_spread: float = 0.1
    fault_rate: float = 0.0
    channel_fault_rate: float = 0.0
    max_retries: int = 1
    wash_time: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("verify trials must be at least 1")
        if self.jitter not in ("none", "uniform", "normal"):
            raise ValueError(
                f"verify jitter must be 'none', 'uniform' or 'normal', "
                f"got {self.jitter!r}"
            )
        if self.jitter_spread < 0:
            raise ValueError("verify jitter_spread must be non-negative")
        for name in ("fault_rate", "channel_fault_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"verify {name} must be in [0, 1], got {rate!r}")
        if self.max_retries < 0:
            raise ValueError("verify max_retries must be non-negative")
        if self.wash_time < 0:
            raise ValueError("verify wash_time must be non-negative")
        if self.workers < 1:
            raise ValueError("verify workers must be at least 1")

    @classmethod
    def from_flow_config(cls, config: Any) -> "MonteCarloConfig":
        """Build the engine config from a ``FlowConfig``'s verify fields."""
        return cls(
            trials=config.verify_trials,
            seed=config.verify_seed,
            jitter=config.verify_jitter,
            jitter_spread=config.verify_jitter_spread,
            fault_rate=config.verify_fault_rate,
            channel_fault_rate=config.verify_channel_fault_rate,
            max_retries=config.verify_max_retries,
            wash_time=config.verify_wash_time,
            workers=config.verify_workers,
        )


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one stochastic replay."""

    trial: int
    makespan: int
    faults_injected: int
    faults_recovered: int
    retries: int
    migrations: int
    reroutes: int
    washes: int

    @property
    def recovered(self) -> bool:
        """True when every injected device fault was recovered."""
        return self.faults_recovered == self.faults_injected


@dataclass
class TrialAggregate:
    """Streaming summary of many trials: sorted makespans + counter sums.

    This is what shards ship back to the coordinator and what the report
    computes its statistics from, so the full per-trial object list never
    has to exist for large runs.  ``sorted_makespans`` is ascending.
    """

    count: int = 0
    sorted_makespans: List[int] = field(default_factory=list)
    makespan_sum: int = 0
    faults_injected: int = 0
    faults_recovered: int = 0
    retries: int = 0
    migrations: int = 0
    reroutes: int = 0
    washes: int = 0

    @classmethod
    def from_trials(cls, trials: List[TrialResult]) -> "TrialAggregate":
        """Aggregate a trial list in one pass (one sort, one scan)."""
        return cls(
            count=len(trials),
            sorted_makespans=sorted(t.makespan for t in trials),
            makespan_sum=sum(t.makespan for t in trials),
            faults_injected=sum(t.faults_injected for t in trials),
            faults_recovered=sum(t.faults_recovered for t in trials),
            retries=sum(t.retries for t in trials),
            migrations=sum(t.migrations for t in trials),
            reroutes=sum(t.reroutes for t in trials),
            washes=sum(t.washes for t in trials),
        )

    @classmethod
    def merged(cls, parts: List["TrialAggregate"]) -> "TrialAggregate":
        """Merge shard aggregates; the result is shard-order independent."""
        spans: List[int] = []
        for part in parts:
            spans.extend(part.sorted_makespans)
        spans.sort()
        return cls(
            count=sum(p.count for p in parts),
            sorted_makespans=spans,
            makespan_sum=sum(p.makespan_sum for p in parts),
            faults_injected=sum(p.faults_injected for p in parts),
            faults_recovered=sum(p.faults_recovered for p in parts),
            retries=sum(p.retries for p in parts),
            migrations=sum(p.migrations for p in parts),
            reroutes=sum(p.reroutes for p in parts),
            washes=sum(p.washes for p in parts),
        )


@dataclass
class VerificationReport:
    """Aggregate of all trials: the distribution the stage reports.

    Percentiles use the nearest-rank method (``sorted[ceil(q/100*n)-1]``),
    which guarantees ``p50 <= p95 <= p99`` and that every reported value
    is an actually-observed makespan.  Statistics are served from a
    :class:`TrialAggregate` computed once (the makespans are sorted a
    single time, at aggregation), not by re-sorting ``trials`` per call.
    ``trials`` carries per-trial detail only for runs at or below
    :data:`TRIAL_DETAIL_LIMIT`; use :attr:`trial_count` for the number of
    trials actually executed.
    """

    trials: List[TrialResult]
    deterministic_makespan: int
    violations: List[str] = field(default_factory=list)
    aggregate: Optional[TrialAggregate] = None

    def __post_init__(self) -> None:
        if self.aggregate is None:
            self.aggregate = TrialAggregate.from_trials(self.trials)

    @property
    def trial_count(self) -> int:
        """Number of trials executed (== ``len(trials)`` unless elided)."""
        return self.aggregate.count

    def _percentile(self, q: int) -> int:
        spans = self.aggregate.sorted_makespans
        rank = max(1, -(-(q * len(spans)) // 100))
        return spans[min(rank, len(spans)) - 1]

    @property
    def makespan_p50(self) -> int:
        """Median trial makespan (nearest rank)."""
        return self._percentile(50)

    @property
    def makespan_p95(self) -> int:
        """95th-percentile trial makespan (nearest rank)."""
        return self._percentile(95)

    @property
    def makespan_p99(self) -> int:
        """99th-percentile trial makespan (nearest rank)."""
        return self._percentile(99)

    @property
    def makespan_mean(self) -> float:
        """Mean trial makespan."""
        return self.aggregate.makespan_sum / self.aggregate.count

    @property
    def makespan_max(self) -> int:
        """Worst observed trial makespan."""
        return self.aggregate.sorted_makespans[-1]

    @property
    def faults_injected(self) -> int:
        """Device faults injected across all trials."""
        return self.aggregate.faults_injected

    @property
    def faults_recovered(self) -> int:
        """Device faults recovered (retry or migration) across all trials."""
        return self.aggregate.faults_recovered

    @property
    def recovery_rate(self) -> float:
        """Recovered / injected device faults (1.0 when none injected)."""
        injected = self.faults_injected
        return 1.0 if injected == 0 else self.faults_recovered / injected

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable summary for batch/service payloads."""
        agg = self.aggregate
        return {
            "trials": agg.count,
            "deterministic_makespan": self.deterministic_makespan,
            "makespan_p50": self.makespan_p50,
            "makespan_p95": self.makespan_p95,
            "makespan_p99": self.makespan_p99,
            "makespan_mean": round(self.makespan_mean, 3),
            "makespan_max": self.makespan_max,
            "faults_injected": agg.faults_injected,
            "faults_recovered": agg.faults_recovered,
            "recovery_rate": round(self.recovery_rate, 6),
            "reroutes": agg.reroutes,
            "retries": agg.retries,
            "migrations": agg.migrations,
            "washes": agg.washes,
            "violations": list(self.violations),
        }


class ReplayPlan:
    """The replay lowered to integer-indexed arrays, built once per engine.

    Compiling the plan hoists everything that does not depend on the
    trial's random draws out of the per-trial loop:

    * device-bound entries in processing order, with their scheduled
      starts, durations and device indices as flat arrays;
    * a CSR predecessor structure (``pred_indptr``/``pred_pos``) listing,
      for each entry, the *earlier* device-bound parents in sorted-op-id
      order — exactly the parents (and the draw order) the scalar replay
      visits — plus each edge's static precedence minimum under the
      scheduled bindings, which every trial without a migration keeps;
    * static wash predicates (under the scheduled bindings the device
      occupancy sequence is schedule-determined, so "previous occupant is
      not a direct predecessor" is a compile-time fact per entry), plus
      the ``wash_skip`` lookup for trials whose migrations changed it;
    * per-entry spare candidate lists (compatible devices minus the
      scheduled one, sorted by id so ``argmin``'s first-minimum pick
      reproduces the scalar ``min`` tie-break);
    * the static makespan floor contributed by entries without a device.
    """

    __slots__ = (
        "num_entries",
        "num_devices",
        "transport_time",
        "static_floor",
        "total_pred_edges",
        "starts",
        "device",
        "spares_np",
        "wash_static",
        "wash_skip",
        "entry_op_ids",
        "device_ids",
        "durations_np",
        "pred_indptr",
        "pred_pos",
        "pred_min",
        "jitter_positions",
    )

    def __init__(self, schedule: Schedule, library: DeviceLibrary) -> None:
        graph: SequencingGraph = schedule.graph
        entries = schedule.entries()
        device_entries = [e for e in entries if e.device_id is not None]
        self.num_entries = len(device_entries)
        self.transport_time = schedule.transport_time
        self.static_floor = max(
            (e.end for e in entries if e.device_id is None), default=0
        )

        device_ids = sorted(device.device_id for device in library)
        for entry in device_entries:
            if entry.device_id not in device_ids:
                device_ids.append(entry.device_id)  # defensive: out-of-library binding
        index_of = {device_id: i for i, device_id in enumerate(device_ids)}
        self.device_ids = device_ids
        self.num_devices = len(device_ids)

        pos = {e.op_id: i for i, e in enumerate(device_entries)}
        self.entry_op_ids = [e.op_id for e in device_entries]
        self.starts = [e.start for e in device_entries]
        self.device = [index_of[e.device_id] for e in device_entries]

        pred_sets: List[FrozenSet[int]] = []
        spares_np: List[np.ndarray] = []
        flat_pos: List[int] = []
        flat_min: List[int] = []
        indptr: List[int] = [0]
        for i, entry in enumerate(device_entries):
            parent_ids = graph.predecessors(entry.op_id)
            # The scalar replay visits parents in sorted-op-id order and
            # skips any not yet processed (or not device-bound) — i.e.
            # exactly the device entries with a smaller position.
            visited = [
                pos[p] for p in sorted(parent_ids) if p in pos and pos[p] < i
            ]
            pred_sets.append(frozenset(pos[p] for p in parent_ids if p in pos))
            for p in visited:
                flat_pos.append(p)
                flat_min.append(
                    0
                    if device_entries[p].device_id == entry.device_id
                    else self.transport_time
                )
            indptr.append(len(flat_pos))
            op = graph.operation(entry.op_id)
            spares = sorted(
                device.device_id
                for device in library.devices_for(op.kind)
                if device.device_id != entry.device_id
            )
            spares_np.append(
                np.asarray([index_of[d] for d in spares], dtype=np.int64)
            )
        self.spares_np = spares_np
        self.total_pred_edges = len(flat_pos)

        # Static wash predicates: replay the fault-free occupancy sequence.
        wash_static: List[bool] = []
        last_on: Dict[int, int] = {}
        for i, entry in enumerate(device_entries):
            d = self.device[i]
            prev = last_on.get(d)
            wash_static.append(prev is not None and prev not in pred_sets[i])
            last_on[d] = i
        self.wash_static = wash_static

        # Dynamic wash lookup: ``wash_skip[e][p]`` is True when a wash is
        # NOT needed after entry ``p`` runs on the device (direct graph
        # predecessor, or the ``num_entries`` "nothing ran yet" sentinel).
        wash_skip = np.zeros((self.num_entries, self.num_entries + 1), dtype=bool)
        for i in range(self.num_entries):
            for p in pred_sets[i]:
                wash_skip[i, p] = True
            wash_skip[i, self.num_entries] = True
        self.wash_skip = wash_skip

        self.durations_np = np.asarray(
            [e.duration for e in device_entries], dtype=np.int64
        )
        self.pred_indptr = indptr
        self.pred_pos = flat_pos
        self.pred_min = flat_min
        self.jitter_positions = np.nonzero(self.durations_np > 0)[0]


@dataclass
class _ShardOutcome:
    """What one trial-range replay ships back to the coordinator."""

    aggregate: TrialAggregate
    detail: List[TrialResult]
    notes: List[str]
    notes_total: int
    #: Fault-stream draws the masked kernel materialised, and the
    #: worst-case width times trials it would have drawn upfront (both 0
    #: without faults and on the scalar reference).  Trace attributes
    #: only: never in the report.
    fault_draws: int = 0
    fault_draw_bound: int = 0
    #: Serialized spans recorded inside the shard worker (empty unless the
    #: coordinator was tracing); absorbed into the parent recorder.
    spans: List[Dict[str, Any]] = field(default_factory=list)


def _shard_bounds(trials: int, workers: int) -> List[Tuple[int, int]]:
    """Split ``range(trials)`` into at most ``workers`` contiguous shards."""
    shards = min(max(1, workers), max(1, trials // MIN_TRIALS_PER_SHARD))
    if shards <= 1:
        return [(0, trials)]
    base, extra = divmod(trials, shards)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for s in range(shards):
        hi = lo + base + (1 if s < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _replay_shard(
    schedule: Schedule,
    library: DeviceLibrary,
    config: MonteCarloConfig,
    lo: int,
    hi: int,
    trace: Optional[str] = None,
) -> _ShardOutcome:
    """Process-pool entry point: replay one trial index range.

    ``trace`` is the coordinator's serialized span context; when present the
    shard records a ``verify:shard`` span into a child recorder and ships
    the serialized spans back inside the outcome, so a sharded run's
    timeline nests under the coordinator's verify span.
    """
    if trace is None:
        return MonteCarloEngine(schedule, library, config)._run_range(lo, hi)
    child = TraceRecorder(parent=SpanContext.deserialize(trace))
    token = install_recorder(child)
    try:
        with obs_span("verify:shard", category="verify", lo=lo, hi=hi):
            outcome = MonteCarloEngine(schedule, library, config)._run_range(
                lo, hi
            )
    finally:
        uninstall_recorder(token)
    outcome.spans = child.serialized_spans()
    return outcome


class MonteCarloEngine:
    """Replays one schedule ``config.trials`` times under perturbations.

    The replay is a right-shift retiming over the deterministic processing
    order (``Schedule.entries()``: sorted by start time, then operation
    id): each operation starts at the latest of its scheduled start, its
    parents' perturbed finish times plus the precedence minimum (zero on
    the same device, one transport time otherwise, plus any reroute
    delay), and its device's availability (plus any wash).  Because every
    lower bound includes the scheduled start and every perturbation only
    adds time, the zero-perturbation replay reproduces the deterministic
    schedule exactly and perturbed replays are pointwise monotone.

    Two interchangeable executions produce byte-identical reports: the
    plan-compiled masked kernel, batched across the trial axis, and the
    original scalar reference (forced with ``REPRO_MC_SCALAR=1``).
    ``config.workers`` shards the trial range across processes without
    changing any reported value.
    """

    def __init__(
        self,
        schedule: Schedule,
        library: DeviceLibrary,
        config: Optional[MonteCarloConfig] = None,
    ) -> None:
        self.schedule = schedule
        self.library = library
        self.config = config or MonteCarloConfig()
        self.graph: SequencingGraph = schedule.graph
        self._plan: Optional[ReplayPlan] = None

    # ------------------------------------------------------------------ API
    def run(self) -> VerificationReport:
        """Run all trials (sharded if configured) and aggregate a report."""
        cfg = self.config
        bounds = _shard_bounds(cfg.trials, cfg.workers)
        with obs_span(
            "verify:mc", category="verify", trials=cfg.trials, shards=len(bounds)
        ) as mc_span:
            # Phase split: compiling the replay plan vs. replaying trials.
            # The plan is lazy and shard-local, so timing it here is only
            # meaningful (and only paid for) when a recorder is active; the
            # scalar reference engine never builds a plan at all.
            compile_s = 0.0
            if tracing_enabled() and os.environ.get(_SCALAR_ENV) != "1":
                compile_start = time.perf_counter()
                self.plan()
                compile_s = time.perf_counter() - compile_start
            replay_start = time.perf_counter()
            if len(bounds) <= 1:
                outcomes = [self._run_range(0, cfg.trials)]
            else:
                ctx = current_context()
                trace_wire = ctx.serialize() if ctx is not None else None
                with ProcessPoolExecutor(max_workers=len(bounds)) as pool:
                    futures = [
                        pool.submit(
                            _replay_shard,
                            self.schedule,
                            self.library,
                            cfg,
                            lo,
                            hi,
                            trace_wire,
                        )
                        for lo, hi in bounds
                    ]
                    outcomes = [f.result() for f in futures]
            replay_s = time.perf_counter() - replay_start
            rec = recorder()
            if rec is not None:
                for outcome in outcomes:
                    rec.absorb(outcome.spans)
            obs_metrics.mc_trials_counter().inc(cfg.trials)
            mc_span.set(
                plan_compile_s=round(compile_s, 6),
                replay_s=round(replay_s, 6),
                trials_per_s=round(cfg.trials / replay_s, 3) if replay_s else 0.0,
                fault_draws=sum(o.fault_draws for o in outcomes),
                fault_draw_bound=sum(o.fault_draw_bound for o in outcomes),
            )

        aggregate = TrialAggregate.merged([o.aggregate for o in outcomes])
        detail: List[TrialResult] = []
        if cfg.trials <= TRIAL_DETAIL_LIMIT:
            for outcome in outcomes:
                detail.extend(outcome.detail)

        violations: List[str] = []
        notes_total = 0
        for outcome in outcomes:
            notes_total += outcome.notes_total
            for note in outcome.notes:
                if len(violations) >= MAX_DIAGNOSTICS:
                    break
                violations.append(note)
        if notes_total > MAX_DIAGNOSTICS:
            violations.append(f"... +{notes_total - MAX_DIAGNOSTICS} more")

        return VerificationReport(
            trials=detail,
            deterministic_makespan=self.schedule.makespan,
            violations=violations,
            aggregate=aggregate,
        )

    # ------------------------------------------------------------- dispatch
    def plan(self) -> ReplayPlan:
        """The compiled replay plan (built lazily, reused across shards)."""
        if self._plan is None:
            self._plan = ReplayPlan(self.schedule, self.library)
        return self._plan

    def _run_range(self, lo: int, hi: int) -> _ShardOutcome:
        """Replay trials ``[lo, hi)`` with the masked kernel (or the reference)."""
        keep_detail = self.config.trials <= TRIAL_DETAIL_LIMIT
        if os.environ.get(_SCALAR_ENV) == "1":
            return self._run_range_reference(lo, hi, keep_detail)
        return self._run_range_masked(lo, hi, keep_detail)

    @staticmethod
    def _collect(
        trials: List[TrialResult],
        notes_per_trial: List[List[str]],
        keep_detail: bool,
    ) -> _ShardOutcome:
        """Fold per-trial results into a shard outcome (capped notes)."""
        notes: List[str] = []
        notes_total = 0
        for trial_notes in notes_per_trial:
            notes_total += len(trial_notes)
            if len(notes) < MAX_DIAGNOSTICS:
                notes.extend(trial_notes[: MAX_DIAGNOSTICS - len(notes)])
        return _ShardOutcome(
            aggregate=TrialAggregate.from_trials(trials),
            detail=trials if keep_detail else [],
            notes=notes,
            notes_total=notes_total,
        )

    # --------------------------------------------------- scalar (reference)
    def _run_range_reference(
        self, lo: int, hi: int, keep_detail: bool
    ) -> _ShardOutcome:
        """The original per-trial dict-based engine (``REPRO_MC_SCALAR=1``)."""
        trials: List[TrialResult] = []
        notes_per_trial: List[List[str]] = []
        for index in range(lo, hi):
            trial, notes = self._run_trial(index)
            trials.append(trial)
            notes_per_trial.append(notes)
        return self._collect(trials, notes_per_trial, keep_detail)

    # ------------------------------------------------------- draw matrices
    def _jitter_draw_count(self, plan: ReplayPlan) -> int:
        """Uniform draws the jitter stream consumes per trial."""
        jittered = int(plan.jitter_positions.size)
        if self.config.jitter == "none" or jittered == 0:
            return 0
        if self.config.jitter == "uniform":
            return jittered
        return 2 * ((jittered + 1) // 2)  # gauss consumes uniforms in pairs

    @staticmethod
    def _gauss_values(
        uniforms: np.ndarray, count: int, sigma: float
    ) -> np.ndarray:
        """``Random.gauss(0.0, sigma)`` sequences from raw uniform draws.

        Replicates CPython's polar pair generation (including the cached
        second value) with ``math`` scalar calls — numpy's vectorized
        trig may differ by an ulp, which would break bit-equality with
        the scalar engine after rounding.
        """
        batch = uniforms.shape[0]
        out = np.empty((batch, count), dtype=np.float64)
        pairs = (count + 1) // 2
        cos, sin, log, sqrt = math.cos, math.sin, math.log, math.sqrt
        two_pi = 2.0 * math.pi
        for t in range(batch):
            row = uniforms[t]
            vals = out[t]
            for p in range(pairs):
                x2pi = row[2 * p] * two_pi
                g2rad = sqrt(-2.0 * log(1.0 - row[2 * p + 1]))
                vals[2 * p] = cos(x2pi) * g2rad * sigma
                odd = 2 * p + 1
                if odd < count:
                    vals[odd] = sin(x2pi) * g2rad * sigma
        return out

    def _duration_matrix(
        self, plan: ReplayPlan, block: int, uniforms: Optional[np.ndarray]
    ) -> np.ndarray:
        """Jittered ``(entries x block)`` durations from the jitter draws.

        ``uniforms`` holds each trial's first jitter-stream draws,
        draw-major (``None`` when jitter is off, which returns a read-only
        broadcast of the nominal durations).  Bit-identical to the scalar
        ``_jittered``: inflation factors applied in float64 and
        half-to-even rounding (``np.rint`` == ``round``), floored at the
        nominal duration.
        """
        cfg = self.config
        nominal = plan.durations_np[:, None]
        if uniforms is None:
            return np.broadcast_to(nominal, (plan.num_entries, block))
        jittered = int(plan.jitter_positions.size)
        if cfg.jitter == "uniform":
            factors = 1.0 + cfg.jitter_spread * uniforms[:jittered]
        else:
            factors = 1.0 + np.abs(
                self._gauss_values(uniforms.T, jittered, cfg.jitter_spread).T
            )
        base = nominal[plan.jitter_positions]
        inflated = np.rint(base.astype(np.float64) * factors).astype(np.int64)
        np.maximum(inflated, base, out=inflated)
        durations = np.broadcast_to(nominal, (plan.num_entries, block)).copy()
        durations[plan.jitter_positions] = inflated
        return durations

    def _fault_draw_width(self, plan: ReplayPlan) -> int:
        """Upper bound on fault-stream draws any single trial can consume.

        The fault stream's *capacity*, not an allocation: the kernel
        generates draws on demand and never past this bound.
        """
        cfg = self.config
        width = 0
        if cfg.channel_fault_rate > 0:
            width += plan.total_pred_edges
        if cfg.fault_rate > 0:
            width += plan.num_entries * (2 + cfg.max_retries)
        return width

    # ------------------------------------------------------- masked kernel
    def _run_range_masked(
        self, lo: int, hi: int, keep_detail: bool
    ) -> _ShardOutcome:
        """Batched replay: the static plan across the trial axis.

        Each entry's update is the same arithmetic for every trial, just
        gated by that trial's draws.  The kernel walks entries once per
        block, keeping entry-major state (finish times, device
        availability) and a per-trial cursor into the block's fault
        stream, so draw *consumption* — and therefore every value —
        matches the scalar engine trial for trial.  The stream is a
        draw-major :class:`~repro.simulation.mtstream.MersenneStream`
        extended before each entry to the furthest cursor plus the most
        draws the entry can consume, so only draws some trial can read are
        generated.

        Every trial reads the plan's static bindings, edge minima and wash
        predicates; device faults are sparse exceptions to them.  One
        full-width draw per entry finds the faulted rows, and retries and
        migrations run on those row indices only.  A migration records its
        ``(rows, spares)`` in ``moved``, and an edge out of that entry
        redoes only those rows.  With washes, a migration also changes
        which entry last ran on a device, so ``last`` (last occupant per
        device and trial) is kept exactly when both are on.
        """
        cfg = self.config
        plan = self.plan()
        num_entries = plan.num_entries
        transport = plan.transport_time
        fault_rate = cfg.fault_rate
        channel_rate = cfg.channel_fault_rate
        wash_time = cfg.wash_time
        width = self._fault_draw_width(plan)
        track_last = wash_time > 0 and fault_rate > 0
        indptr, pred_pos, pred_min = plan.pred_indptr, plan.pred_pos, plan.pred_min

        detail: List[TrialResult] = []
        makespan_parts: List[np.ndarray] = []
        totals = [0, 0, 0, 0, 0, 0]  # faults, recovered, retries, mig, rer, wash
        notes: List[str] = []
        notes_total = 0

        jitter_draws = self._jitter_draw_count(plan)
        entry_draws = [
            (indptr[e + 1] - indptr[e] if channel_rate > 0 else 0)
            + (2 + cfg.max_retries if fault_rate > 0 else 0)
            for e in range(num_entries)
        ]
        drawn = 0

        for block_lo in range(lo, hi, VECTOR_BLOCK_TRIALS):
            block_hi = min(block_lo + VECTOR_BLOCK_TRIALS, hi)
            block = block_hi - block_lo
            rows = np.arange(block)
            # One seeding pass covers both stream families (see
            # MersenneStream.fused); each then generates only what it reads.
            seed_blocks: List[np.ndarray] = []
            capacities: List[int] = []
            for prefix, draws in (("jitter-", jitter_draws), ("fault-", width)):
                if draws:
                    seed_blocks.append(
                        derive_seed_block(cfg.seed, prefix, block_lo, block_hi)
                    )
                    capacities.append(draws)
            streams = MersenneStream.fused(seed_blocks, capacities)
            jitter_uniforms: Optional[np.ndarray] = None
            if jitter_draws:
                jitter = streams.pop(0)
                jitter.ensure(jitter_draws)
                jitter_uniforms = jitter.draws[:jitter_draws]
            durations = self._duration_matrix(plan, block, jitter_uniforms)
            if width:
                faults = streams[0]
                fault_draws = faults.draws
                cursor = np.zeros(block, dtype=np.intp)

            finish = np.empty((num_entries, block), dtype=np.int64)
            avail = np.zeros((plan.num_devices, block), dtype=np.int64)
            ready = np.empty(block, dtype=np.int64)
            if track_last:
                last = np.full((plan.num_devices, block), num_entries, np.int64)
            # entry -> (rows that migrated it, the spare each row ran it on)
            moved: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
            cnt_faults = np.zeros(block, dtype=np.int64)
            cnt_recovered = np.zeros(block, dtype=np.int64)
            cnt_retries = np.zeros(block, dtype=np.int64)
            cnt_migrations = np.zeros(block, dtype=np.int64)
            cnt_reroutes = np.zeros(block, dtype=np.int64)
            cnt_washes = np.zeros(block, dtype=np.int64)
            block_notes: List[Tuple[int, int, int, int]] = []

            for e in range(num_entries):
                if width:
                    # Every draw this entry can consume, past the furthest
                    # cursor; the stream clamps at its capacity.
                    faults.ensure(int(cursor.max()) + entry_draws[e])
                dev = plan.device[e]
                dur_e = durations[e]
                ready.fill(plan.starts[e])
                for k in range(indptr[e], indptr[e + 1]):
                    p = pred_pos[k]
                    # A channel draw per edge whose two devices differ —
                    # not per non-zero minimum: at transport_time 0 every
                    # minimum is 0, yet cross edges still draw.
                    drew = channel_rate > 0 and plan.device[p] != dev
                    minimum = pred_min[k]
                    if drew:
                        hit = fault_draws[cursor, rows] < channel_rate
                        cursor += 1
                        cnt_reroutes += hit
                        minimum = minimum + np.where(hit, transport, 0)
                    arrive = finish[p] + minimum
                    if p in moved:
                        # Rows that ran ``p`` on a spare: redo their edge
                        # (a spare never equals p's scheduled device, so
                        # a same-device edge always turns cross).
                        m_rows, m_devs = moved[p]
                        m_cross = m_devs != dev
                        m_min = np.where(m_cross, transport, 0)
                        if channel_rate > 0:
                            # Take back the static draw; re-read the same
                            # position only where the real edge is cross.
                            if drew:
                                cursor[m_rows] -= 1
                                cnt_reroutes[m_rows] -= hit[m_rows]
                            m_hit = m_cross & (
                                fault_draws[cursor[m_rows], m_rows] < channel_rate
                            )
                            cursor[m_rows] += m_cross
                            cnt_reroutes[m_rows] += m_hit
                            m_min += np.where(m_hit, transport, 0)
                        arrive[m_rows] = finish[p, m_rows] + m_min
                    np.maximum(ready, arrive, out=ready)

                entry_avail = avail[dev]
                if wash_time > 0:
                    if track_last:
                        need = ~plan.wash_skip[e][last[dev]]
                    else:
                        need = plan.wash_static[e]
                    if track_last or need:
                        entry_avail = entry_avail + np.where(need, wash_time, 0)
                        cnt_washes += need
                        over = np.nonzero(need & (entry_avail > plan.starts[e]))[0]
                        notes_total += int(over.size)
                        for t in over[:MAX_DIAGNOSTICS]:
                            block_notes.append(
                                (block_lo + int(t), e, 0, int(entry_avail[t]))
                            )
                end = np.maximum(ready, entry_avail)
                end += dur_e

                if fault_rate > 0:
                    live = np.flatnonzero(fault_draws[cursor, rows] < fault_rate)
                    cursor += 1
                    cnt_faults[live] += 1
                    for _ in range(cfg.max_retries):
                        if not live.size:
                            break
                        end[live] += dur_e[live]  # the failed attempt
                        cnt_retries[live] += 1
                        ok = fault_draws[cursor[live], live] >= fault_rate
                        cursor[live] += 1
                        cnt_recovered[live[ok]] += 1
                        live = live[~ok]
                    candidates = plan.spares_np[e]
                    if live.size and candidates.size:
                        spares = candidates[
                            np.argmin(avail[candidates[:, None], live], axis=0)
                        ]
                        cnt_migrations[live] += 1
                        migrated = np.maximum(
                            end[live] + transport, avail[spares, live]
                        )
                        migrated += dur_e[live]
                        bad = fault_draws[cursor[live], live] < fault_rate
                        cursor[live] += 1
                        cnt_recovered[live[~bad]] += 1
                        migrated += np.where(bad, dur_e[live], 0)
                        notes_total += int(np.count_nonzero(bad))
                        for t, spare in zip(
                            live[bad][:MAX_DIAGNOSTICS], spares[bad]
                        ):
                            block_notes.append(
                                (block_lo + int(t), e, 1, int(spare))
                            )
                        end[live] = migrated
                        moved[e] = (live, spares)
                    elif live.size:
                        end[live] += dur_e[live]  # best effort, in place
                        notes_total += int(live.size)
                        for t in live[:MAX_DIAGNOSTICS]:
                            block_notes.append((block_lo + int(t), e, 1, -1))

                finish[e] = end
                # end >= entry_avail >= the device's availability, so a
                # straight assignment preserves the max semantics; on a
                # migrated row it is also the scheduled device's repair
                # window, and (end >= the spare's availability) the
                # spare's new availability.
                avail[dev] = end
                if e not in moved:
                    if track_last:
                        last[dev] = e
                    continue
                m_rows, m_devs = moved[e]
                avail[m_devs, m_rows] = end[m_rows]
                if track_last:
                    kept = last[dev, m_rows]
                    last[dev] = e
                    last[dev, m_rows] = kept
                    last[m_devs, m_rows] = e

            if num_entries:
                makespans = finish.max(axis=0)
                if plan.static_floor:
                    np.maximum(makespans, plan.static_floor, out=makespans)
            else:
                makespans = np.full(block, plan.static_floor, dtype=np.int64)
            makespan_parts.append(makespans)
            if width:
                drawn += faults.filled * block
            for i, counts in enumerate(
                (cnt_faults, cnt_recovered, cnt_retries,
                 cnt_migrations, cnt_reroutes, cnt_washes)
            ):
                totals[i] += int(counts.sum())

            block_notes.sort()
            for trial_index, e, kind, payload in block_notes:
                if len(notes) >= MAX_DIAGNOSTICS:
                    break
                device_name = plan.device_ids[plan.device[e]]
                op_name = plan.entry_op_ids[e]
                if kind == 0:
                    notes.append(
                        f"trial {trial_index}: wash on {device_name!r} pushes "
                        f"{op_name!r} past its scheduled start "
                        f"({plan.starts[e]} -> {payload})"
                    )
                elif payload >= 0:
                    notes.append(
                        f"trial {trial_index}: fault on {device_name!r} for "
                        f"{op_name!r} unrecovered (spare "
                        f"{plan.device_ids[payload]!r} faulted too)"
                    )
                else:
                    notes.append(
                        f"trial {trial_index}: fault on {device_name!r} for "
                        f"{op_name!r} unrecovered (no compatible spare)"
                    )

            if keep_detail:
                detail.extend(
                    TrialResult(
                        trial=block_lo + t,
                        makespan=int(makespans[t]),
                        faults_injected=int(cnt_faults[t]),
                        faults_recovered=int(cnt_recovered[t]),
                        retries=int(cnt_retries[t]),
                        migrations=int(cnt_migrations[t]),
                        reroutes=int(cnt_reroutes[t]),
                        washes=int(cnt_washes[t]),
                    )
                    for t in range(block)
                )

        all_makespans = (
            np.concatenate(makespan_parts)
            if makespan_parts
            else np.empty(0, dtype=np.int64)
        )
        aggregate = TrialAggregate(
            count=hi - lo,
            sorted_makespans=np.sort(all_makespans).tolist(),
            makespan_sum=int(all_makespans.sum()),
            faults_injected=totals[0],
            faults_recovered=totals[1],
            retries=totals[2],
            migrations=totals[3],
            reroutes=totals[4],
            washes=totals[5],
        )
        return _ShardOutcome(
            aggregate=aggregate,
            detail=detail,
            notes=notes,
            notes_total=notes_total,
            fault_draws=drawn,
            fault_draw_bound=width * (hi - lo),
        )

    # ---------------------------------------------------------------- trial
    def _jittered(self, rng: random.Random, duration: int) -> int:
        """Inflate ``duration`` by one draw (identity when jitter is off)."""
        cfg = self.config
        if cfg.jitter == "none" or duration == 0:
            return duration
        if cfg.jitter == "uniform":
            factor = 1.0 + cfg.jitter_spread * rng.random()
        else:  # "normal" — folded so inflation-only
            factor = 1.0 + abs(rng.gauss(0.0, cfg.jitter_spread))
        return max(duration, int(round(duration * factor)))

    def _run_trial(self, index: int) -> Tuple[TrialResult, List[str]]:
        """One stochastic replay; returns the trial and its diagnostics.

        This is the scalar reference implementation the fast paths are
        differentially tested against — keep it boring and readable.
        """
        cfg = self.config
        jitter_rng = random.Random(derive_seed(cfg.seed, f"jitter-{index}"))
        fault_rng = random.Random(derive_seed(cfg.seed, f"fault-{index}"))
        transport = self.schedule.transport_time

        finish: Dict[str, int] = {}
        bound: Dict[str, str] = {}
        device_avail: Dict[str, int] = {}
        device_last_op: Dict[str, Optional[str]] = {}
        notes: List[str] = []
        faults = recovered = retries = migrations = reroutes = washes = 0

        for entry in self.schedule.entries():
            if entry.device_id is None:
                finish[entry.op_id] = entry.end
                continue
            op = self.graph.operation(entry.op_id)
            duration = self._jittered(jitter_rng, entry.duration)

            # Precedence lower bound over device-bound parents, with
            # channel-fault reroutes adding one transport per faulted edge.
            ready = entry.start
            for parent_id in sorted(self.graph.predecessors(entry.op_id)):
                if parent_id not in finish or parent_id not in bound:
                    continue
                same = bound[parent_id] == entry.device_id
                minimum = 0 if same else transport
                if (
                    not same
                    and cfg.channel_fault_rate > 0
                    and fault_rng.random() < cfg.channel_fault_rate
                ):
                    minimum += transport
                    reroutes += 1
                ready = max(ready, finish[parent_id] + minimum)

            # Device availability, plus a wash when the previous occupant
            # is not a direct predecessor (contamination model).
            device_id = entry.device_id
            avail = device_avail.get(device_id, 0)
            prev_op = device_last_op.get(device_id)
            if (
                cfg.wash_time > 0
                and prev_op is not None
                and prev_op not in self.graph.predecessors(entry.op_id)
            ):
                avail += cfg.wash_time
                washes += 1
                if avail > entry.start:
                    notes.append(
                        f"trial {index}: wash on {device_id!r} pushes "
                        f"{entry.op_id!r} past its scheduled start "
                        f"({entry.start} -> {avail})"
                    )
            start = max(ready, avail)

            # Fault injection: retry on the faulted device, then migrate.
            end = start + duration
            if cfg.fault_rate > 0 and fault_rng.random() < cfg.fault_rate:
                faults += 1
                ok = False
                for _ in range(cfg.max_retries):
                    end += duration  # the failed attempt burned a duration
                    retries += 1
                    if fault_rng.random() >= cfg.fault_rate:
                        ok = True
                        break
                if ok:
                    recovered += 1
                else:
                    spare = self._pick_spare(op.kind, device_id, device_avail)
                    if spare is not None:
                        migrations += 1
                        end = max(end + transport, device_avail.get(spare, 0))
                        end += duration
                        if fault_rng.random() >= cfg.fault_rate:
                            recovered += 1
                        else:
                            end += duration  # spare faulted too: best effort
                            notes.append(
                                f"trial {index}: fault on {device_id!r} for "
                                f"{entry.op_id!r} unrecovered (spare "
                                f"{spare!r} faulted too)"
                            )
                        # Repair window: the faulted device stays blocked
                        # until the migrated operation completes, keeping
                        # release times monotone versus the fault-free run.
                        device_avail[device_id] = max(
                            device_avail.get(device_id, 0), end
                        )
                        device_id = spare
                    else:
                        end += duration  # best-effort completion in place
                        notes.append(
                            f"trial {index}: fault on {device_id!r} for "
                            f"{entry.op_id!r} unrecovered (no compatible spare)"
                        )

            finish[entry.op_id] = end
            bound[entry.op_id] = device_id
            device_avail[device_id] = max(device_avail.get(device_id, 0), end)
            device_last_op[device_id] = entry.op_id

        makespan = max(finish.values(), default=0)
        trial = TrialResult(
            trial=index,
            makespan=makespan,
            faults_injected=faults,
            faults_recovered=recovered,
            retries=retries,
            migrations=migrations,
            reroutes=reroutes,
            washes=washes,
        )
        return trial, notes

    def _pick_spare(
        self,
        kind: Any,
        faulted_device: str,
        device_avail: Dict[str, int],
    ) -> Optional[str]:
        """Least-loaded compatible device other than the faulted one."""
        candidates = [
            device.device_id
            for device in self.library.devices_for(kind)
            if device.device_id != faulted_device
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda d: (device_avail.get(d, 0), d))
