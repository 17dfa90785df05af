"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exact_corpus --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics over whole passes, with no
wrapper in place except a status read after each exact solve.  ``--trace 1`` runs an
untraced phase and then a traced phase of whole passes, and reports the
per-layer metrics, ``trace.overhead`` and a per-layer self-time table.
Human-readable tables go first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--record`` merges every outcome of the run into ``reference.json``
instead of checking against it (goldens are still asserted).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

Metric = Tuple[float, str]

#: Job verdicts from best to worst (see ``checks.OutputCheck.observe``).
VERDICT_ORDER = ("ok", "router_failure", "mismatch")


def _prepare_imports() -> None:
    """Put the benchmark package and the program's sources on ``sys.path``."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}")
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _phase(workload: Any, seconds: float, first_index: int, tracer: Any) -> Dict[str, Any]:
    """Whole passes until ``seconds`` have elapsed (at least one).

    Only whole passes run, so every pass-level count is exact and every
    run weighs the same job mix.
    """
    from perfbench.spans import instrument

    workload.tracer = tracer
    records: List[Any] = []
    passes = 0
    scrape = getattr(workload, "scrape_delta", None)
    if scrape is not None:
        scrape()
    with instrument(tracer) if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        deadline = start + seconds
        while passes == 0 or time.perf_counter() < deadline:
            records += workload.run_jobs(workload.jobs(first_index + passes))
            passes += 1
        wall = time.perf_counter() - start
    workload.tracer = None
    return {
        "records": records,
        "wall": wall,
        "passes": passes,
        "scraped": scrape() if scrape is not None else {},
    }


def end_to_end(workload: Any, records: List[Any], wall: float, setup: List[float], rss: float) -> Tuple[Dict[str, Metric], Dict[str, Any]]:
    """The end-to-end metrics of an untraced run, plus their context."""
    from perfbench import stats

    # A corpus repeats its inputs pass after pass: every input counts once,
    # with its median latency and its worst verdict.  A stream never
    # repeats one, so there every job is its own input.
    groups: Dict[Any, List[Any]] = {}
    for record in records:
        groups.setdefault(record.instance if workload.per_instance else id(record), []).append(record)
    latencies = [stats.median([r.latency_s for r in group]) for group in groups.values()]
    tail_value, tail_pct, beyond = stats.tail(latencies, workload.tail_pct)
    verdicts = [max((r.verdict for r in group), key=VERDICT_ORDER.index) for group in groups.values()]
    uncapped = [all(r.uncapped for r in group) for group in groups.values()]
    chips = [group[0] for group in groups.values() if group[0].makespan is not None]
    # A corpus's throughput is that of one pass of per-input medians, so
    # every input counts once however many passes ran; a stream uses the
    # wall clock.
    jobs_per_s = len(groups) / sum(latencies) if workload.per_instance else len(records) / wall
    metrics = {
        "jobs_per_s": (jobs_per_s, "1/s"),
        "job_p50_s": (stats.median(latencies), "s"),
        "job_tail_s": (tail_value, "s"),
        "job_geomean_s": (stats.geomean(latencies), "s"),
        "ok_share": (verdicts.count("ok") / len(groups), "ratio"),
        "uncapped_share": (sum(uncapped) / len(groups), "ratio"),
        "makespan_geomean_s": (stats.geomean([c.makespan for c in chips]), "s"),
        "valves_geomean": (stats.shifted_geomean([c.valves for c in chips]), "count"),
        "setup_s": (stats.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    context = {
        "latency_samples": len(latencies),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "setup_runs_s": [round(s, 4) for s in setup],
        "peak_rss_of": workload.rss_of,
    }
    return metrics, context


def layer_metrics(untraced: Dict[str, Any], traced: Dict[str, Any], tracer: Any) -> Tuple[Dict[str, Metric], List[Tuple[str, float, float]]]:
    """Per-layer metrics of the traced phase, per pass, and the self-time table."""
    from perfbench import spans as sp

    all_spans = tracer.spans
    own = sp.self_time_by_name(all_spans)
    counts = sp.counts_by_name(all_spans)
    inclusive: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for span in all_spans:
        inclusive[span.name] = inclusive.get(span.name, 0.0) + span.duration
        calls[span.name] = calls.get(span.name, 0) + 1
    passes = traced["passes"]

    def per(value: float) -> float:
        return value / passes

    # Plan compilation happens inside the Monte-Carlo span of its mode.
    self_list = sp.self_times(all_spans)
    plan_by_mode = {"fault_free": 0.0, "faulted": 0.0}
    for index, span in enumerate(all_spans):
        if span.name == "simulation.plan" and span.parent is not None:
            mode = all_spans[span.parent].name.rsplit(".", 1)[-1]
            plan_by_mode[mode] = plan_by_mode.get(mode, 0.0) + self_list[index]

    solves = counts.get("scheduling.ilp/solves", 0.0)
    hits = counts.get("cache.get/hit", 0.0)
    misses = counts.get("cache.get/miss", 0.0)
    mc_time = sum(inclusive.get(f"simulation.mc.{m}", 0.0) for m in plan_by_mode)
    trials = sum(counts.get(f"simulation.mc.{m}/trials", 0.0) for m in plan_by_mode)
    metrics: Dict[str, Metric] = {
        "ilp.native_s": (per(own.get("ilp.native", 0.0)), "s/pass"),
        "ilp.lowering_s": (per(own.get("ilp.backend", 0.0) + own.get("ilp.solve", 0.0)), "s/pass"),
        "ilp.nodes": (per(counts.get("ilp.native/nodes", 0.0)), "1/pass"),
        "ilp.solves": (per(calls.get("ilp.solve", 0)), "1/pass"),
        "ilp.capped": (per(counts.get("scheduling.ilp/capped", 0.0)), "1/pass"),
        "ilp.proven_optimal_share": (
            counts.get("scheduling.ilp/optimal", 0.0) / solves if solves else 0.0, "ratio"
        ),
        "scheduling.ilp_build_s": (per(own.get("scheduling.ilp", 0.0)), "s/pass"),
        "scheduling.list_s": (per(own.get("scheduling.list", 0.0)), "s/pass"),
        "archsyn.synth_s": (per(own.get("archsyn.synth", 0.0)), "s/pass"),
        "archsyn.grid_growth": (per(counts.get("archsyn.synth/grid_growth", 0.0)), "1/pass"),
        "archsyn.failures": (per(counts.get("archsyn.synth/errors", 0.0)), "1/pass"),
        "physical.build_s": (per(own.get("physical.build", 0.0)), "s/pass"),
        "simulation.replay_s": (per(own.get("simulation.replay", 0.0)), "s/pass"),
        "simulation.trials_per_s": (trials / mc_time if mc_time else 0.0, "1/s"),
    }
    for mode in ("fault_free", "faulted"):
        metrics[f"simulation.plan_s.{mode}"] = (per(plan_by_mode.get(mode, 0.0)), "s/pass")
        metrics[f"simulation.run_s.{mode}"] = (per(own.get(f"simulation.mc.{mode}", 0.0)), "s/pass")
        metrics[f"simulation.trials.{mode}"] = (per(counts.get(f"simulation.mc.{mode}/trials", 0.0)), "1/pass")
    for stage in ("schedule", "archsyn", "physical", "verify"):
        metrics[f"synthesis.stage.{stage}_s"] = (per(inclusive.get(f"synthesis.stage.{stage}", 0.0)), "s/pass")
    metrics["synthesis.pipeline_self_s"] = (per(own.get("synthesis.pipeline", 0.0)), "s/pass")
    metrics["batch.self_s"] = (per(own.get("batch.run", 0.0)), "s/pass")
    metrics["cache.get_s"] = (per(own.get("cache.get", 0.0)), "s/pass")
    metrics["cache.put_s"] = (per(own.get("cache.put", 0.0)), "s/pass")

    scraped = traced["scraped"]
    if scraped:  # the service's caches live in its processes: read /metrics
        hits = sum(v for k, v in scraped.items() if k.startswith("server:repro_cache_hits_total"))
        misses = sum(v for k, v in scraped.items() if k.startswith("server:repro_cache_misses_total"))
    metrics["cache.hits"] = (per(hits), "1/pass")
    metrics["cache.misses"] = (per(misses), "1/pass")
    metrics["cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")

    records = traced["records"]
    timed = [r.timings for r in records if r.timings]

    def mean(key: str) -> float:
        return sum(t[key] for t in timed) / len(timed) if timed else 0.0

    def scraped_sum(prefix: str, *events: str) -> float:
        return per(sum(v for k, v in scraped.items() if k.startswith(prefix) and any(f'"{e}"' in k for e in events)))

    from perfbench.workloads import POLL_INTERVAL_S

    metrics.update(
        {
            "service.submit_s": (mean("submit_s"), "s"),
            "service.polls_per_job": (mean("polls"), "1/job"),
            "service.poll_interval_s": (POLL_INTERVAL_S if timed else 0.0, "s"),
            "service.queue_wait_s": (mean("queue_wait_s"), "s"),
            "service.run_s": (mean("run_s"), "s"),
            "service.overhead_s": (mean("overhead_s"), "s"),
            "service.claims": (per(sum(v for k, v in scraped.items() if k.startswith("server:repro_claims_total"))), "1/pass"),
            "daemon.gets": (scraped_sum("daemon:", "gets"), "1/pass"),
            "daemon.puts": (scraped_sum("daemon:", "puts"), "1/pass"),
            "daemon.claims": (scraped_sum("daemon:", "claims_granted", "claims_present", "claims_denied"), "1/pass"),
        }
    )

    untraced_rate = len(untraced["records"]) / untraced["wall"]
    traced_rate = len(records) / traced["wall"]
    job_total = inclusive.get("job", 0.0)
    metrics["trace.overhead"] = ((untraced_rate - traced_rate) / untraced_rate, "ratio")
    metrics["trace.unaccounted_share"] = (own.get("job", 0.0) / job_total if job_total else 0.0, "ratio")

    table = sorted(
        ((name, per(value), value / job_total if job_total else 0.0) for name, value in own.items()),
        key=lambda row: -row[1],
    )
    return metrics, table


def _format_metrics(title: str, metrics: Dict[str, Metric]) -> str:
    lines = [title]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<34} {value:>14.6g} {unit}")
    return "\n".join(lines)


def _format_table(table: List[Tuple[str, float, float]]) -> str:
    lines = ["per-layer self time of the traced phase (job = time inside a job no layer span covers)",
             f"  {'span':<32} {'self s/pass':>12} {'share of job time':>18}"]
    for name, per_pass, share in table:
        lines.append(f"  {name:<32} {per_pass:>12.6f} {share:>18.2%}")
    return "\n".join(lines)


def run(args: argparse.Namespace) -> Dict[str, Any]:
    """Set up, measure and check one workload; returns the result object."""
    from perfbench.checks import OutputCheck, record
    from perfbench.spans import SpanRecorder, status_probe
    from perfbench.workloads import WORKLOADS

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    check = OutputCheck(references={} if args.record else None)
    workload = WORKLOADS[args.workload](args.seed, ROOT, workdir, check)
    try:
        setup_times: List[float] = []
        for repeat in range(SETUP_REPEATS if args.trace == 0 else 1):
            if repeat:
                workload.teardown()
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        with status_probe(workload.statuses):
            if args.trace == 0:
                measured = _phase(workload, args.seconds, 0, None)
                records, wall = measured["records"], measured["wall"]
                phases = None
            else:
                untraced = _phase(workload, args.seconds / 2, 0, None)
                tracer = SpanRecorder()
                traced = _phase(workload, args.seconds / 2, untraced["passes"], tracer)
                records = untraced["records"] + traced["records"]
                phases = (untraced, traced, tracer)
        rss = workload.peak_rss_mb()
        workload.check_deferred()
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  jobs {len(records)}")
    summary = check.summary()
    for name, message in summary["router_failures"].items():
        print(f"  router failure (counts against ok_share): {name}: {message[:100]}")
    for line in summary["mismatches"]:
        print(f"  MISMATCH: {line}")
    print(f"  output check: {summary['recorded_checks']} against recorded references, "
          f"{summary['unrecorded_checks']} unrecorded, {workload.deferred_checks} re-checked after "
          f"the phase (validators / recompute); {len(summary['mismatches'])} mismatches")
    if phases is None:
        metrics, context = end_to_end(workload, records, wall, setup_times, rss)
        print(_format_metrics("end-to-end metrics (untraced)", metrics))
        print(f"  job_tail_s is p{context['tail_percentile']:g} of {context['latency_samples']} "
              f"samples ({context['tail_samples_beyond']} beyond); peak_rss_mb is the "
              f"{context['peak_rss_of']}; setup runs {context['setup_runs_s']}")
        if args.workload == "service_mixed":
            from perfbench.workloads import POLL_INTERVAL_S

            print(f"  latencies are submit->done on the client's clock, polled every {POLL_INTERVAL_S} s")
    else:
        untraced, traced, tracer = phases
        metrics, table = layer_metrics(untraced, traced, tracer)
        _, context = end_to_end(workload, records, untraced["wall"] + traced["wall"], setup_times, rss)
        metrics["job_tail.percentile"] = (context["tail_percentile"], "pct")
        metrics["job_tail.samples"] = (context["latency_samples"], "count")
        print(f"  phases: untraced {untraced['passes']} pass(es) in {untraced['wall']:.3f} s, "
              f"traced {traced['passes']} pass(es) in {traced['wall']:.3f} s")
        print(_format_metrics("per-layer metrics (traced phase)", metrics))
        print(_format_table(table))
        if args.spans_out is not None:
            from perfbench.spans import dump

            dump(tracer.spans, args.spans_out)
    if args.record:
        added = record(check.first_seen)
        print(f"  recorded {added} new or changed reference(s)")
    return {
        "correct": check.correct,
        "attempted": len(records),
        "failed": len(summary["mismatches"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def build_parser() -> argparse.ArgumentParser:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="merge this run's outcomes into reference.json")
    parser.add_argument("--spans-out", type=Path, default=None,
                        help="with --trace 1, write the traced phase's spans to this JSON file")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    # SIGTERM unwinds like an exception, so the servers a run started stop too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _prepare_imports()
    args = build_parser().parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
