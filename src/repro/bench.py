"""In-run performance gates: the ``repro bench`` subcommand.

Performance of the synthesis flow — job latency, throughput, chip quality
and the per-layer breakdown — is measured by ``perfbench/`` with repeated
samples (see ``perfbench/README.md``).  ``repro bench`` keeps only the two
checks that compare against a baseline measured in the same run, so their
gates hold on any machine:

* a verify-throughput probe: trials/s of the masked Monte-Carlo kernel,
  fault-free and with faults, on a solver-free PCR schedule, each
  against the scalar reference engine (``REPRO_MC_SCALAR=1``)
  measured in the same run — with a byte-identity check between the fast
  and scalar reports, so throughput can never be bought with a changed
  number,
* an instrumentation-overhead probe: the golden trio run cold and
  solver-free through the batch engine, timed in aggregated samples with
  and without an installed trace recorder (modes interleaved, best-of per
  side — load spikes never survive a minimum), recording each assay's
  span summaries and the aggregate overhead percentage the flight
  recorder costs.

The subcommand takes no arguments, prints both probe records and every
gate failure as one JSON line, and exits 1 when any gate fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.batch.cache import ResultCache
from repro.batch.engine import BatchSynthesisEngine
from repro.batch.jobs import BatchJob
from repro.graph.library import assay_by_name
from repro.synthesis.config import FlowConfig

#: The assays of the overhead probe: exactly the golden trio.
DEFAULT_ASSAYS = ("RA30", "IVD", "PCR")

#: Trial counts of the Monte-Carlo verify-throughput probe: the masked
#: kernel is timed over 4096 fault-free uniform-jitter trials and over
#: 1024 fault-injected trials, each against the
#: scalar reference engine (``REPRO_MC_SCALAR=1``) measured in the same
#: run — a relative quantity, robust to runner speed.
VERIFY_PROBE_FAULT_FREE_TRIALS = 4096
VERIFY_PROBE_FAULT_TRIALS = 1024

#: Speedup floors :func:`run_bench` enforces on the verify-throughput probe.
VERIFY_PROBE_FAULT_FREE_FLOOR = 10.0
VERIFY_PROBE_FAULT_FLOOR = 3.0

#: Ceiling :func:`run_bench` enforces on the instrumentation-overhead
#: probe's aggregate ``overhead_pct``: the flight recorder must cost the
#: golden trio less than this, measured traced-vs-untraced in the same
#: run with the two modes interleaved (best-of per side, so a load spike
#: on a shared runner cannot masquerade as tracing overhead).
OBS_PROBE_OVERHEAD_CEILING_PCT = 3.0

#: Spans every traced run of the overhead probe must record.
OBS_PROBE_STAGE_SPANS = frozenset({"stage:schedule", "stage:archsyn", "stage:physical"})

#: Timed samples per side (traced / untraced) of the overhead probe, and
#: how many times each sample runs the whole assay list back to back.
#: One sample is big enough (tens of milliseconds) that timer jitter is
#: negligible against it, and taking the *minimum* over samples discards
#: load spikes entirely — the instrumentation cost is an additive term
#: present even in the fastest sample, so the minimum never hides it.
OBS_PROBE_SAMPLES = 5
OBS_PROBE_REPS = 5

#: Measurement attempts of the overhead probe.  The true cost is well
#: under 1%, far below the scheduler noise of a busy runner, so a
#: reading above the ceiling is re-measured rather than trusted: noise
#: does not reproduce, a genuine regression (the ceiling sits at ~8x
#: the measured span cost) fails every attempt.
OBS_PROBE_ATTEMPTS = 5


def run_verify_probe() -> Dict[str, Any]:
    """Verify-throughput probe: fast vs scalar Monte-Carlo replay.

    Times the :class:`~repro.simulation.montecarlo.MonteCarloEngine`
    directly (no synthesis pipeline around it) on a solver-free PCR
    schedule, twice per configuration: once with the default masked kernel
    and once with the scalar reference forced via ``REPRO_MC_SCALAR=1``.
    Two configurations cover the kernel's static-binding and fault cases —
    4096 fault-free uniform-jitter trials and 1024 fault-injected trials.
    Each row records trials/s for both engines and their ratio; because
    the baseline is measured in the same run on the same machine, the
    speedup is meaningful on any runner.  ``ok``
    additionally demands that each fast report's ``as_dict()`` payload is
    byte-identical to the scalar engine's — the probe must never buy
    throughput with a changed number.
    """
    import os

    from repro.devices.device import default_device_library
    from repro.graph.library import build_pcr
    from repro.scheduling.list_scheduler import ListScheduler, ListSchedulerConfig
    from repro.simulation.montecarlo import MonteCarloConfig, MonteCarloEngine

    start = time.perf_counter()

    def _one_run(schedule, library, config, scalar: bool):
        saved = os.environ.pop("REPRO_MC_SCALAR", None)
        if scalar:
            os.environ["REPRO_MC_SCALAR"] = "1"
        try:
            engine = MonteCarloEngine(schedule, library, config)
            t0 = time.perf_counter()
            report = engine.run()
            return report, time.perf_counter() - t0
        finally:
            os.environ.pop("REPRO_MC_SCALAR", None)
            if saved is not None:
                os.environ["REPRO_MC_SCALAR"] = saved

    def _timed_pair(schedule, library, config):
        # Two untimed warmups per engine (first-touch page faults, lazy
        # imports, allocator arenas — the fast kernel takes a few runs
        # to plateau), then three timed rounds with the engines
        # *interleaved* — fast, scalar, fast, scalar, ... — so a load
        # spike on a shared runner lands on both sides of the ratio
        # instead of skewing whichever engine happened to be running.
        # Best-of-three per side: the probe is a ratio, not a soak.
        for _ in range(2):
            _one_run(schedule, library, config, scalar=False)
            _one_run(schedule, library, config, scalar=True)
        fast_best: Optional[float] = None
        scalar_best: Optional[float] = None
        fast_report = scalar_report = None
        for _ in range(3):
            fast_report, elapsed = _one_run(schedule, library, config, scalar=False)
            fast_best = elapsed if fast_best is None else min(fast_best, elapsed)
            scalar_report, elapsed = _one_run(schedule, library, config, scalar=True)
            scalar_best = (
                elapsed if scalar_best is None else min(scalar_best, elapsed)
            )
        return fast_report, fast_best, scalar_report, scalar_best

    try:
        library = default_device_library(num_mixers=2)
        schedule = ListScheduler(
            library, ListSchedulerConfig(transport_time=10)
        ).schedule(build_pcr())
        probes = {
            "fault_free": MonteCarloConfig(
                trials=VERIFY_PROBE_FAULT_FREE_TRIALS,
                seed=11,
                jitter="uniform",
                jitter_spread=0.2,
                wash_time=12,
            ),
            "fault": MonteCarloConfig(
                trials=VERIFY_PROBE_FAULT_TRIALS,
                seed=11,
                jitter="uniform",
                jitter_spread=0.2,
                fault_rate=0.3,
                channel_fault_rate=0.1,
                wash_time=12,
            ),
        }
        record: Dict[str, Any] = {
            "deterministic_makespan": schedule.makespan,
        }
        ok = True
        error: Optional[str] = None
        for name, config in probes.items():
            fast_report, fast_s, scalar_report, scalar_s = _timed_pair(
                schedule, library, config
            )
            identical = fast_report.as_dict() == scalar_report.as_dict()
            record[name] = {
                "trials": config.trials,
                "trials_per_s": round(config.trials / fast_s, 1),
                "scalar_trials_per_s": round(config.trials / scalar_s, 1),
                "speedup": round(scalar_s / fast_s, 2),
                "report_identical": identical,
                "makespan_p50": fast_report.makespan_p50,
                "makespan_p99": fast_report.makespan_p99,
                "recovery_rate": round(fast_report.recovery_rate, 6),
            }
            if not identical:
                ok = False
                error = f"{name}: fast and scalar reports differ"
            elif fast_report.makespan_p50 < schedule.makespan:
                ok = False
                error = f"{name}: sampled median below the deterministic makespan"
    except Exception as exc:  # noqa: BLE001 - a probe reports, never raises
        return {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "wall_time_s": round(time.perf_counter() - start, 4),
        }
    record["ok"] = ok
    record["error"] = error
    record["wall_time_s"] = round(time.perf_counter() - start, 4)
    return record


def run_obs_probe(assays: Sequence[str] = DEFAULT_ASSAYS) -> Dict[str, Any]:
    """Instrumentation-overhead probe: the golden trio traced vs untraced.

    Runs ``assays`` (by default the golden trio RA30 / IVD / PCR at their
    paper defaults) cold through the batch engine in
    aggregated timed samples — one sample runs the whole assay list
    :data:`OBS_PROBE_REPS` times back to back — once per sample under an
    installed :class:`~repro.obs.TraceRecorder` (every span the flight
    recorder emits on this path is live: batch, stage, cache-tier) and
    once without (the zero-cost-when-disabled path).  The runs are
    *solver-free* (``ilp_operation_limit = 0``): the ILP inner loop
    carries no instrumentation at all, so including a ~1 s HiGHS solve
    would only add ±% wall-time noise around an unchanged additive cost —
    the solver-free pipeline is the instrumented surface itself, which
    makes this the *conservative* measurement (the same absolute span
    cost divided by the smallest wall time it can be hidden in).

    :data:`OBS_PROBE_SAMPLES` samples per side, modes interleaved in
    alternating order so drift lands on both sides, best-of per side:
    a load spike never survives a minimum, while the instrumentation
    cost — an additive term present even in the fastest sample — always
    does.  The record embeds each assay's per-stage span summaries (the
    same summaries ``--json`` outputs carry) and the aggregate
    ``overhead_pct`` over the two minima — the number :func:`run_bench`
    requires below :data:`OBS_PROBE_OVERHEAD_CEILING_PCT`.  A reading
    above the ceiling is re-measured (up to :data:`OBS_PROBE_ATTEMPTS`
    attempts, every reading kept in ``attempt_overheads_pct``): the true
    cost sits ~8x below the ceiling, so an over-ceiling reading on a
    busy runner is scheduler noise, which does not reproduce — while a
    genuine regression fails every attempt.  ``ok`` demands identical
    makespans between the two modes: instrumentation must never change a
    result, only observe it.
    """
    from repro.obs import TraceRecorder, install_recorder
    from repro.obs.trace import uninstall_recorder

    start = time.perf_counter()

    def _config(assay: str) -> FlowConfig:
        # Paper defaults at the golden-regression time limits, solver-free.
        config = FlowConfig.paper_defaults_for(assay)
        config.ilp_time_limit_s = config.archsyn_time_limit_s = 20.0
        config.ilp_operation_limit = 0
        return config

    def _one_run(assay: str):
        job = BatchJob(assay, assay_by_name(assay), _config(assay))
        engine = BatchSynthesisEngine(max_workers=1, cache=ResultCache())
        outcome = engine.run([job]).outcomes[0]
        makespan = outcome.metrics().execution_time if outcome.ok else None
        return outcome.ok, makespan

    def _sample(traced: bool):
        token = install_recorder(TraceRecorder()) if traced else None
        makespans: Dict[str, Any] = {}
        all_ok = True
        t0 = time.perf_counter()
        try:
            for _ in range(OBS_PROBE_REPS):
                for assay in assays:
                    run_ok, makespan = _one_run(assay)
                    all_ok = all_ok and run_ok
                    makespans[assay] = makespan
        finally:
            if token is not None:
                uninstall_recorder(token)
        return time.perf_counter() - t0, makespans, all_ok

    record: Dict[str, Any] = {
        "samples": OBS_PROBE_SAMPLES,
        "reps": OBS_PROBE_REPS,
        "solver_free": True,
        "assays": {},
    }
    ok = True
    error: Optional[str] = None
    try:
        # One dedicated traced run per assay collects the span summaries
        # (and doubles as warmup: imports, allocator arenas).
        for assay in assays:
            rec = TraceRecorder()
            token = install_recorder(rec)
            try:
                run_ok, makespan = _one_run(assay)
            finally:
                uninstall_recorder(token)
            ok = ok and run_ok
            record["assays"][assay] = {
                "makespan": makespan,
                "spans": rec.stage_summaries(),
            }
        _sample(traced=False)  # untraced warmup
        attempts: List[Any] = []
        for _ in range(OBS_PROBE_ATTEMPTS):
            traced_best: Optional[float] = None
            untraced_best: Optional[float] = None
            traced_makespans: Dict[str, Any] = {}
            untraced_makespans: Dict[str, Any] = {}
            for index in range(OBS_PROBE_SAMPLES):
                # Alternate which mode goes first so slow machine drift
                # lands on both sides of the ratio instead of one.
                order = (True, False) if index % 2 == 0 else (False, True)
                for traced in order:
                    elapsed, makespans, all_ok = _sample(traced)
                    ok = ok and all_ok
                    if traced:
                        traced_makespans = makespans
                        traced_best = (
                            elapsed
                            if traced_best is None
                            else min(traced_best, elapsed)
                        )
                    else:
                        untraced_makespans = makespans
                        untraced_best = (
                            elapsed
                            if untraced_best is None
                            else min(untraced_best, elapsed)
                        )
            overhead = (
                round((traced_best / untraced_best - 1.0) * 100.0, 2)
                if traced_best and untraced_best
                else None
            )
            attempts.append(overhead)
            if overhead is not None and overhead < OBS_PROBE_OVERHEAD_CEILING_PCT:
                break
        if traced_makespans != untraced_makespans:
            ok = False
            error = (
                f"traced makespans {traced_makespans} != "
                f"untraced {untraced_makespans}"
            )
        record["traced_best_s"] = round(traced_best or 0.0, 4)
        record["untraced_best_s"] = round(untraced_best or 0.0, 4)
        record["overhead_pct"] = attempts[-1]
        record["attempt_overheads_pct"] = attempts
        record["overhead_ceiling_pct"] = OBS_PROBE_OVERHEAD_CEILING_PCT
    except Exception as exc:  # noqa: BLE001 - a probe reports, never raises
        return {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "wall_time_s": round(time.perf_counter() - start, 4),
        }
    if ok and error is None and not all(
        row["spans"] for row in record["assays"].values()
    ):
        ok = False
        error = "a traced run produced no span summaries"
    record["ok"] = ok
    record["error"] = error
    record["wall_time_s"] = round(time.perf_counter() - start, 4)
    return record


def gate_failures(verify: Dict[str, Any], obs: Dict[str, Any]) -> List[str]:
    """Every gate the two probe records miss, as readable messages."""
    failures: List[str] = []
    if not verify.get("ok"):
        failures.append(f"verify probe: {verify.get('error')}")
    else:
        floors = (
            ("fault_free", VERIFY_PROBE_FAULT_FREE_FLOOR),
            ("fault", VERIFY_PROBE_FAULT_FLOOR),
        )
        for name, floor in floors:
            row = verify[name]
            if row["report_identical"] is not True:
                failures.append(f"verify {name}: reports not byte-identical")
            if row["speedup"] < floor:
                failures.append(
                    f"verify {name}: speedup {row['speedup']}x under the {floor}x floor"
                )
    # ``ok`` already demands identical traced/untraced makespans.
    if not obs.get("ok"):
        failures.append(f"obs probe: {obs.get('error')}")
    else:
        overhead = obs["overhead_pct"]
        if overhead is None or overhead >= OBS_PROBE_OVERHEAD_CEILING_PCT:
            failures.append(
                f"obs: overhead {overhead}% not under the "
                f"{OBS_PROBE_OVERHEAD_CEILING_PCT}% ceiling"
            )
        for assay, row in obs["assays"].items():
            missing = OBS_PROBE_STAGE_SPANS - {span["name"] for span in row["spans"]}
            if missing:
                failures.append(f"obs {assay}: no {sorted(missing)} spans")
    return failures


def run_bench(argv: List[str]) -> int:
    """The ``repro bench`` subcommand; returns a process exit code."""
    argparse.ArgumentParser(
        prog="repro bench",
        description="Run the verify-throughput and instrumentation-overhead "
        "probes and exit 1 if either misses its gate.  Performance is "
        "measured by perfbench/.",
    ).parse_args(argv)
    verify = run_verify_probe()
    obs = run_obs_probe()
    failures = gate_failures(verify, obs)
    print(json.dumps(
        {"verify_probe": verify, "obs_probe": obs, "failures": failures},
        sort_keys=True,
    ))
    for failure in failures:
        print(f"bench gate failed: {failure}", file=sys.stderr)
    return 1 if failures else 0
