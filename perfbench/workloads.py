"""The four workloads: set-up, one pass of jobs, and tear-down.

Every workload is a closed loop driven from this one process.  The
in-process workloads run one job at a time; ``service_mixed`` keeps two
single-job submissions in flight (the machine's core count).  A *pass* is
one sweep over the workload's inputs (for the streaming workloads, one
batch of the job mix); passes are what traced phases repeat, so that every
counter of a traced run is an exact per-pass figure.
"""

from __future__ import annotations

import contextlib
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ContextManager, Dict, List, Optional, Tuple

from perfbench import checks, corpus
from perfbench.spans import SpanRecorder

#: Client poll interval of ``service_mixed`` (the stock client polls at 0.1 s).
POLL_INTERVAL_S = 0.002


@dataclass
class JobRecord:
    """What the benchmark saw of one job."""

    instance: str
    latency_s: float
    verdict: str  # "ok" | "router_failure" | "mismatch" (see OutputCheck)
    makespan: Optional[int] = None
    valves: Optional[int] = None
    uncapped: bool = True
    timings: Dict[str, float] = field(default_factory=dict)


def _import_in_fresh_interpreter(root: Path, modules: str) -> None:
    """Start an interpreter that imports the workload's modules (set-up cost)."""
    subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, 'src'); import {modules}"],
        cwd=root,
        check=True,
    )


class Workload:
    """Base: subclasses set the class attributes and implement the hooks."""

    name = ""
    #: Tail percentile reported; the highest with ten samples beyond it at
    #: the workload's minimum sample count, fixed so it cannot flip between
    #: runs.
    tail_pct = 50.0
    #: Latency statistics over per-input medians (corpora repeat inputs)
    #: instead of over every job (streams never repeat one).
    per_instance = False
    #: What ``peak_rss_mb`` measures.
    rss_of = "benchmark process"
    modules = "repro.batch.jobs, repro.synthesis.pipeline, repro.ilp.backends.highs"

    def __init__(self, seed: int, root: Path, workdir: Path, check: checks.OutputCheck) -> None:
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.check = check
        #: ``IlpScheduler.last_status`` values, appended by ``status_probe``.
        self.statuses: List[str] = []
        #: Set by ``run.py`` for traced phases; ``None`` runs untraced.
        self.tracer: Optional[SpanRecorder] = None
        #: ``(record, job, observed)`` of jobs whose check runs after the
        #: measured phase (see :meth:`check_deferred`).
        self.deferred: List[Tuple[JobRecord, Dict[str, Any], Any]] = []
        self.deferred_checks = 0

    def setup(self) -> None:
        """Process start + imports (timed in a child) and input generation."""
        _import_in_fresh_interpreter(self.root, self.modules)

    def teardown(self) -> None:
        """Release what :meth:`setup` started."""

    def jobs(self, index: int) -> List[Dict[str, Any]]:
        """The job entries of pass ``index``."""
        raise NotImplementedError

    def run_jobs(self, jobs: List[Dict[str, Any]]) -> List[JobRecord]:
        """Run ``jobs`` in a closed loop, one at a time."""
        return [self._job_span(job) for job in jobs]

    def _job_span(self, job: Dict[str, Any]) -> JobRecord:
        with _maybe_span(self.tracer, "job"):
            return self.run_job(job)

    def run_job(self, job: Dict[str, Any]) -> JobRecord:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        from perfbench.stats import self_peak_rss_mb

        return self_peak_rss_mb()

    def check_deferred(self) -> None:
        """Run the checks kept out of the measured phase (untimed, untraced).

        A job whose problem :meth:`deferred_problem` finds becomes a
        mismatch, so it counts against ``ok_share`` and in ``failed``.
        """
        for record, job, observed in self.deferred:
            self.deferred_checks += 1
            problem = self.deferred_problem(job, observed)
            if problem is not None:
                record.verdict = self.check.mismatch(corpus.reference_key(job), problem)
        self.deferred.clear()

    def deferred_problem(self, job: Dict[str, Any], observed: Any) -> Optional[str]:
        """What is wrong with a deferred job's output, or ``None``."""
        raise NotImplementedError

    # ------------------------------------------------------------ helpers
    def _outcome(self, job: Dict[str, Any], outcome: Dict[str, Any]) -> str:
        return self.check.observe(corpus.reference_key(job), outcome)


class _InProcess(Workload):
    """Cold synthesis jobs through ``synthesize`` (no cache anywhere)."""

    per_instance = True

    def setup(self) -> None:
        from repro.batch.jobs import job_from_spec
        from repro.synthesis.flow import synthesize

        super().setup()
        self.validated = set()
        self.entries = self.inputs()
        self.built = {
            entry["id"]: job_from_spec(corpus.manifest_entry(entry), index=i)
            for i, entry in enumerate(self.entries)
        }
        warm = job_from_spec(corpus.manifest_entry(corpus.warmup_job(self.name)))
        synthesize(warm.graph, warm.config)

    def inputs(self) -> List[Dict[str, Any]]:
        """The workload's corpus for its seed."""
        raise NotImplementedError

    def jobs(self, index: int) -> List[Dict[str, Any]]:
        return self.entries

    def run_job(self, job: Dict[str, Any]) -> JobRecord:
        from repro.synthesis.flow import synthesize

        built = self.built[job["id"]]
        before = len(self.statuses)
        start = time.perf_counter()
        try:
            result = synthesize(built.graph, built.config)
        except Exception as exc:  # noqa: BLE001 - a failed job is an outcome
            latency = time.perf_counter() - start
            verdict = self._outcome(job, {"error": f"{type(exc).__name__}: {exc}"})
            return JobRecord(job["id"], latency, verdict, uncapped=self._uncapped(before))
        latency = time.perf_counter() - start
        digest = checks.digest_of_result(result)
        verdict = self._outcome(job, {"chip": digest})
        record = JobRecord(
            job["id"], latency, verdict, digest["makespan"], digest["valves"], self._uncapped(before)
        )
        key = corpus.reference_key(job)
        if key not in self.check.references and key not in self.validated:
            # No recorded reference (a held-out seed): the first chip of the
            # input must also pass the program's own validators.
            self.validated.add(key)
            self.deferred.append((record, job, result))
        return record

    def deferred_problem(self, job: Dict[str, Any], result: Any) -> Optional[str]:
        problems = checks.chip_problems(result)
        return "; ".join(problems[:3]) if problems else None

    def _uncapped(self, before: int) -> bool:
        return all(status == "optimal" for status in self.statuses[before:])


class ExactCorpus(_InProcess):
    """Cold exact-path (ILP) jobs, serial, no cache reuse."""

    name = "exact_corpus"
    tail_pct = 70.0  # 35 inputs: 10.5 beyond p70

    def inputs(self) -> List[Dict[str, Any]]:
        return corpus.exact_corpus(self.seed)


class HeuristicLarge(_InProcess):
    """Cold list-scheduler + heuristic-router jobs up to 400 operations."""

    name = "heuristic_large"
    tail_pct = 75.0  # 40 inputs: 10 beyond p75

    def inputs(self) -> List[Dict[str, Any]]:
        return corpus.heuristic_corpus(self.seed)


class VerifySweep(Workload):
    """Monte-Carlo verification jobs over schedules warmed into the cache."""

    name = "verify_sweep"
    # A pass is 12 job classes of very different cost, one job each, so a
    # percentile at a multiple of 1/12 (p50 aside) reads the slowest job of
    # one class.  p80 falls inside a class: at 5 or 6 passes per run it is
    # the highest percentile with ten samples beyond it.
    tail_pct = 80.0
    modules = Workload.modules + ", repro.batch.engine, repro.simulation.montecarlo"

    def setup(self) -> None:
        from repro.batch.engine import BatchSynthesisEngine
        from repro.batch.jobs import job_from_spec

        super().setup()
        self.job_from_spec = job_from_spec
        self.engine = BatchSynthesisEngine()
        base = corpus.verify_base_jobs()
        report = self.engine.run([job_from_spec(corpus.manifest_entry(e)) for e in base])
        for entry, outcome in zip(base, report.outcomes):
            if outcome.error:
                raise RuntimeError(f"verify_sweep warm-up: {entry['id']} failed: {outcome.error}")
            self._outcome(entry, {"chip": checks.digest_of_result(outcome.result)})
        # One small replay per assay and mode, so first-call costs of the
        # kernels are set-up, not the first measured job.
        warm = []
        for entry in corpus.verify_pass(self.seed, 0):
            if entry["config"]["verify_trials"] == corpus.VERIFY_TRIALS[0]:
                config = dict(entry["config"], verify_trials=64, verify_seed=0)
                warm.append(job_from_spec(corpus.manifest_entry(dict(entry, config=config))))
        self.engine.run(warm)

    def jobs(self, index: int) -> List[Dict[str, Any]]:
        return corpus.verify_pass(self.seed, index)

    def run_job(self, job: Dict[str, Any]) -> JobRecord:
        built = self.job_from_spec(corpus.manifest_entry(job))
        start = time.perf_counter()
        report = self.engine.run([built])
        latency = time.perf_counter() - start
        outcome = report.outcomes[0]
        if outcome.error:
            verdict = self._outcome(job, {"error": outcome.error})
            return JobRecord(job["id"], latency, verdict)
        verification = outcome.result.verification.as_dict()
        observed = {
            "chip": checks.digest_of_result(outcome.result),
            "report": checks.report_hash(verification),
        }
        verdict = self._outcome(job, observed)
        if verdict == "ok" and not self._plausible(verification, built.config):
            verdict = self.check.mismatch(job["id"], f"implausible report {verification}")
        chip = observed["chip"]
        return JobRecord(job["id"], latency, verdict, chip["makespan"], chip["valves"])

    @staticmethod
    def _plausible(report: Dict[str, Any], config: Any) -> bool:
        """Invariants every report satisfies, recorded or not."""
        ordered = (
            report["deterministic_makespan"]
            <= report["makespan_p50"]
            <= report["makespan_p95"]
            <= report["makespan_p99"]
            <= report["makespan_max"]
        )
        fault_free = config.verify_fault_rate == 0 and config.verify_channel_fault_rate == 0
        # Unrecovered faults are reported as violations; without faults
        # there must be none, and nothing to recover from.
        clean = not report["violations"] and report["faults_injected"] == report["reroutes"] == 0
        return ordered and report["trials"] == config.verify_trials and (clean or not fault_free)

    def check_deferred(self) -> None:
        """Re-run one seeded job's Monte-Carlo directly; its report must match."""
        from repro.simulation.montecarlo import MonteCarloConfig, MonteCarloEngine

        self.deferred_checks += 1
        entry = next(e for e in self.jobs(1) if e["config"]["verify_fault_rate"] > 0)
        built = self.job_from_spec(corpus.manifest_entry(entry))
        via_engine = self.engine.run([built]).outcomes[0].result
        direct = MonteCarloEngine(
            via_engine.schedule, via_engine.library, MonteCarloConfig.from_flow_config(built.config)
        ).run()
        if checks.report_hash(direct.as_dict()) != checks.report_hash(via_engine.verification.as_dict()):
            self.check.mismatch(entry["id"], "report differs from a direct MonteCarloEngine run")


class ServiceMixed(Workload):
    """``POST /jobs`` -> done against one replica and one cache daemon."""

    name = "service_mixed"
    tail_pct = 95.0  # >= 400 jobs per run
    rss_of = "repro serve process"
    modules = "repro.cli, repro.service.server, repro.service.cachedaemon"
    in_flight = 2

    def setup(self) -> None:
        from repro.service.client import ServiceClient

        from perfbench.service import ServicePair

        self.pair = ServicePair(self.root, self.workdir, workers=self.in_flight)
        self.pair.start()
        self.client = ServiceClient(port=self.pair.server_port)
        for entry in corpus.service_warm_jobs():
            self.run_job(entry)
        self._scrape_base = self._scrape()

    def teardown(self) -> None:
        pair = getattr(self, "pair", None)
        if pair is not None:
            self._final_rss = self.peak_rss_mb()
            pair.stop()
            self.pair = None

    def jobs(self, index: int) -> List[Dict[str, Any]]:
        return corpus.service_pass(self.seed, index)

    def peak_rss_mb(self) -> float:
        from perfbench.stats import pid_peak_rss_mb

        if getattr(self, "pair", None) is None:
            return self._final_rss
        return pid_peak_rss_mb(self.pair.server_pid) or 0.0

    def run_jobs(self, jobs: List[Dict[str, Any]]) -> List[JobRecord]:
        """Run ``jobs`` with :attr:`in_flight` client slots, each a closed loop."""
        lock = threading.Lock()
        pending = iter(jobs)
        records: List[JobRecord] = []
        failures: List[BaseException] = []

        def client_loop() -> None:
            try:
                while True:
                    with lock:
                        job = next(pending, None)
                    if job is None:
                        return
                    record = self._job_span(job)
                    with lock:
                        records.append(record)
            except BaseException as exc:  # surfaced below, after the join
                failures.append(exc)

        threads = [threading.Thread(target=client_loop) for _ in range(self.in_flight)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]
        return records

    def run_job(self, job: Dict[str, Any]) -> JobRecord:
        tracer = self.tracer
        entry = corpus.manifest_entry(job)
        start = time.perf_counter()
        with _maybe_span(tracer, "service.submit"):
            job_id = self.client.submit({"jobs": [entry]})
        submitted = time.perf_counter()
        polls = 0
        while True:
            polls += 1
            with _maybe_span(tracer, "service.poll"):
                status = self.client.status(job_id)
            if status["status"] in ("done", "failed"):
                break
            with _maybe_span(tracer, "service.poll_wait"):
                time.sleep(POLL_INTERVAL_S)
        latency = time.perf_counter() - start
        timings = {
            "submit_s": submitted - start,
            "polls": polls,
            "queue_wait_s": status["started_at"] - status["submitted_at"],
            "run_s": status["finished_at"] - status["started_at"],
            "overhead_s": latency - (status["finished_at"] - status["submitted_at"]),
        }
        if status["status"] == "failed":
            verdict = self._outcome(job, {"error": f"service: {status.get('error')}"})
            return JobRecord(job["id"], latency, verdict, timings=timings)
        with _maybe_span(tracer, "service.result"):
            payload = self.client.result(job_id)["jobs"][0]
        if payload["error"]:
            verdict = self._outcome(job, {"error": payload["error"]})
            return JobRecord(job["id"], latency, verdict, timings=timings)
        digest = checks.digest_of_payload(payload["metrics"])
        fresh = job.get("kind") == "fresh"
        verdict = "ok" if fresh else self._outcome(job, {"chip": digest})
        ilp_ran = any(
            s["stage"] == "schedule" and s["action"] == "ran" and s["backend"] for s in payload["stages"]
        )
        record = JobRecord(
            job["id"], latency, verdict, digest["makespan"], digest["valves"],
            uncapped=not ilp_ran, timings=timings,
        )
        if fresh:
            self.deferred.append((record, job, digest))  # list.append is atomic
        return record

    def deferred_problem(self, job: Dict[str, Any], digest: Dict[str, Any]) -> Optional[str]:
        """A fresh job has no recorded reference: recompute it in-process."""
        from repro.batch.jobs import job_from_spec
        from repro.synthesis.flow import synthesize

        built = job_from_spec(corpus.manifest_entry(job))
        try:
            local = checks.digest_of_result(synthesize(built.graph, built.config))
        except Exception as exc:  # noqa: BLE001 - the service returned a chip
            return f"service returned a chip, in-process run failed: {type(exc).__name__}: {exc}"
        return None if local == digest else f"service {digest} != in-process {local}"

    def _scrape(self) -> Dict[str, float]:
        server = self.pair.metrics("server")
        daemon = self.pair.metrics("daemon")
        scraped = {}
        for name, value in server.items():
            if name.startswith(("repro_cache_hits_total", "repro_cache_misses_total", "repro_claims_total")):
                scraped[f"server:{name}"] = value
        for name, value in daemon.items():
            if name.startswith("repro_cachedaemon_events_total"):
                scraped[f"daemon:{name}"] = value
        return scraped

    def scrape_delta(self) -> Dict[str, float]:
        """Server/daemon counters accumulated since the last call."""
        now = self._scrape()
        delta = {k: v - self._scrape_base.get(k, 0.0) for k, v in now.items()}
        self._scrape_base = now
        return delta


def _maybe_span(tracer: Optional[SpanRecorder], name: str) -> ContextManager:
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


WORKLOADS = {cls.name: cls for cls in (ExactCorpus, HeuristicLarge, VerifySweep, ServiceMixed)}

