"""Small-size tests of the benchmark: generators, output check, span accounting."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, corpus, spans, stats  # noqa: E402
from perfbench.run import end_to_end, layer_metrics  # noqa: E402
from perfbench.workloads import JobRecord, WORKLOADS  # noqa: E402


def _bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------------ generators


def test_corpora_are_a_function_of_the_seed():
    assert corpus.exact_corpus(3) == corpus.exact_corpus(3)
    assert corpus.heuristic_corpus(3) == corpus.heuristic_corpus(3)
    assert corpus.service_pass(3, 2) == corpus.service_pass(3, 2)
    assert corpus.exact_corpus(3) != corpus.exact_corpus(4)


def test_only_the_seeded_part_changes_with_the_seed():
    a, b = corpus.exact_corpus(1), corpus.exact_corpus(2)
    pinned = 2 + len(corpus.EXACT_STRATA) * corpus.EXACT_PINNED_PER_STRATUM
    assert a[:pinned] == b[:pinned]
    seeded_a = {e["id"] for e in a[pinned:]}
    assert len(seeded_a) == len(corpus.EXACT_SEEDED_OPS)
    assert seeded_a.isdisjoint(e["id"] for e in b[pinned:])


def test_exact_corpus_covers_every_stratum_under_the_cap():
    jobs = corpus.exact_corpus(5)
    assert [j["id"] for j in jobs[:2]] == ["PCR", "IVD"]
    strata = {(j["num_operations"], j["config"]["num_mixers"]) for j in jobs[2:]}
    assert strata == set(corpus.EXACT_STRATA)
    assert all(j["config"]["scheduler"] == "ilp" for j in jobs)
    assert all(j["config"]["ilp_time_limit_s"] == corpus.ILP_CAP_S for j in jobs)
    assert len({j["id"] for j in jobs}) == len(jobs)


def test_heuristic_corpus_keeps_the_known_router_failures():
    jobs = corpus.heuristic_corpus(5)
    ids = {j["id"] for j in jobs}
    for ops, seed in corpus.KNOWN_ROUTER_FAILURES:
        assert f"ra{ops}-s{seed}-m4" in ids
    assert max(j.get("num_operations", 0) for j in jobs) == 400
    assert all(j["config"]["scheduler"] == "list" for j in jobs)


def test_verify_passes_fix_pass_zero_and_vary_later_seeds():
    zero_a, zero_b = corpus.verify_pass(1, 0), corpus.verify_pass(2, 0)
    assert zero_a == zero_b
    assert {j["config"]["verify_seed"] for j in zero_a} == {corpus.VERIFY_REFERENCE_SEED}
    later = corpus.verify_pass(1, 1) + corpus.verify_pass(1, 2)
    assert len({j["config"]["verify_seed"] for j in later}) == len(later)
    faulted = [j for j in zero_a if j["config"]["verify_fault_rate"] > 0]
    assert len(faulted) * 2 == len(zero_a)


def test_service_pass_mix_and_manifest_entries():
    jobs = corpus.service_pass(7, 3)
    kinds = [j["kind"] for j in jobs]
    for kind, count in corpus.SERVICE_MIX.items():
        assert kinds.count(kind) == count
    pitches = [j["config"]["pitch"] for j in jobs if j["kind"] == "pitch"]
    assert len(set(pitches)) == len(pitches)
    for job in jobs:
        entry = corpus.manifest_entry(job)
        assert not set(corpus.BENCH_KEYS) & set(entry)
        if job["kind"] == "pitch":
            assert corpus.reference_key(job) == corpus.SERVICE_SWEPT


def test_generated_entries_load_through_the_manifest_loader():
    from repro.batch.jobs import job_from_spec

    small = [j for j in corpus.exact_corpus(9) if j.get("num_operations", 99) <= 8]
    for entry in small[:3] + corpus.service_pass(9, 0)[:2]:
        job = job_from_spec(corpus.manifest_entry(entry))
        assert job.job_id == entry["id"]


# ---------------------------------------------------------------- output check


CHIP = {"chip": checks.chip_digest(400, 10, 8, "4x4")}


def test_output_check_against_references():
    check = checks.OutputCheck(
        {"a": CHIP, "b": {"error": "SynthesisError: no grid"}, "PCR": {"chip": checks.chip_digest(330, 16, 10, "4x4")}}
    )
    assert check.observe("a", CHIP) == "ok"
    assert check.observe("a", {"chip": dict(CHIP["chip"], valves=11)}) == "mismatch"
    assert check.observe("a", {"error": "RuntimeError: boom"}) == "mismatch"
    assert check.observe("b", {"error": "SynthesisError: no grid"}) == "router_failure"
    assert check.observe("b", CHIP) == "ok" and check.improved == ["b"]
    assert not check.correct and len(check.mismatches) == 2


def test_output_check_unrecorded_inputs_must_repeat():
    check = checks.OutputCheck({})
    assert check.observe("x", CHIP) == "ok"
    assert check.observe("x", CHIP) == "ok"
    assert check.observe("x", {"chip": dict(CHIP["chip"], makespan=401)}) == "mismatch"
    assert check.observe("y", {"error": "SynthesisError: no grid"}) == "router_failure"
    assert check.observe("y", CHIP) == "mismatch"
    assert check.observe("z", {"error": "SolverLimitError: capped"}) == "mismatch"


def test_output_check_asserts_goldens_and_report_bytes():
    check = checks.OutputCheck({})
    assert check.observe("RA30", {"chip": checks.chip_digest(651, 37, 23, "5x5")}) == "mismatch"
    report = {"trials": 8, "makespan_p50": 340}
    recorded = checks.OutputCheck({"v": {"chip": CHIP["chip"], "report": checks.report_hash(report)}})
    assert recorded.observe("v", {"chip": CHIP["chip"], "report": checks.report_hash(report)}) == "ok"
    changed = dict(report, makespan_p50=341)
    assert recorded.observe("v", {"chip": CHIP["chip"], "report": checks.report_hash(changed)}) == "mismatch"


def test_chip_problems_accepts_a_chip_and_flags_a_broken_schedule():
    from repro.graph.library import assay_by_name
    from repro.synthesis.config import FlowConfig, SchedulerEngine
    from repro.synthesis.flow import synthesize

    result = synthesize(assay_by_name("PCR"), FlowConfig(scheduler=SchedulerEngine.LIST))
    assert checks.chip_problems(result) == []
    last = max(result.schedule.entries(), key=lambda e: e.end)
    result.schedule.assign(last.op_id, last.device_id, 0, last.end - last.start)
    assert checks.chip_problems(result)


def test_deferred_problems_turn_a_job_into_a_mismatch(tmp_path):
    class Stub(WORKLOADS["exact_corpus"]):
        def deferred_problem(self, job, observed):
            return None if observed == "good" else "bad chip"

    workload = Stub(1, ROOT, tmp_path, checks.OutputCheck({}))
    good, bad = JobRecord("g", 0.1, "ok"), JobRecord("b", 0.1, "ok")
    workload.deferred = [(good, {"id": "g"}, "good"), (bad, {"id": "b"}, "bad")]
    workload.check_deferred()
    assert (good.verdict, bad.verdict) == ("ok", "mismatch")
    assert workload.check.mismatches == ["b: bad chip"] and workload.deferred_checks == 2


def test_recorded_reference_file_is_consistent_with_the_goldens():
    references = checks.load_references()
    for name, makespan in checks.GOLDEN_MAKESPANS.items():
        assert references[name]["chip"]["makespan"] == makespan


# ------------------------------------------------------------ span accounting


def test_self_time_subtracts_the_union_of_children():
    tree = [
        spans.Span("job", 0.0, 10.0),
        spans.Span("a", 1.0, 4.0, parent=0),
        spans.Span("b", 3.0, 6.0, parent=0),  # overlaps a (other thread)
        spans.Span("c", 1.5, 2.0, parent=1),
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.5, 3.0, 0.5])
    assert spans.self_time_by_name(tree)["job"] == pytest.approx(5.0)


def test_recorder_nests_per_thread():
    recorder = spans.SpanRecorder()
    with recorder.span("outer"):
        with recorder.span("inner") as inner:
            inner.counts["n"] = 2
    assert [s.parent for s in recorder.spans] == [None, 0]
    assert spans.counts_by_name(recorder.spans) == {"inner/n": 2}


def test_instrument_wraps_layers_and_restores_them():
    from repro.graph.library import assay_by_name
    from repro.scheduling.list_scheduler import ListScheduler
    from repro.synthesis.config import FlowConfig, SchedulerEngine
    from repro.synthesis.flow import synthesize

    original = ListScheduler.__dict__["schedule"]
    recorder = spans.SpanRecorder()
    config = FlowConfig(scheduler=SchedulerEngine.LIST)
    with spans.instrument(recorder):
        with recorder.span("job"):
            synthesize(assay_by_name("PCR"), config)
    assert ListScheduler.__dict__["schedule"] is original
    names = {s.name for s in recorder.spans}
    assert {"synthesis.pipeline", "scheduling.list", "archsyn.synth", "physical.build"} <= names
    assert "ilp.solve" not in names
    own = spans.self_time_by_name(recorder.spans)
    assert sum(own.values()) == pytest.approx(recorder.spans[0].duration, abs=1e-6)


def test_metric_names_match_the_benchmark_file():
    bench = _bench()
    recorder = spans.SpanRecorder()
    with recorder.span("job"):
        time.sleep(0.001)
    record = JobRecord("x", 0.01, "ok", 330, 16)
    phase = {"records": [record] * 20, "wall": 1.0, "passes": 1, "scraped": {}}
    layers, _ = layer_metrics(phase, phase, recorder)
    layers["job_tail.percentile"] = layers["job_tail.samples"] = (0, "")
    assert list(layers) == [m["name"] for m in bench["per_layer"]]
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert all(units[name] == unit for name, (_, unit) in layers.items() if unit)
    e2e, _ = end_to_end(WORKLOADS["exact_corpus"], [record] * 20, 1.0, [1.0, 2.0, 3.0], 100.0)
    assert [(n, u) for n, (_, u) in e2e.items()] == [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)


# ----------------------------------------------------------------------- stats


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile(32) == 65
    assert stats.tail_percentile(1000) == 99
    assert stats.tail_percentile(5) == 50
    value, pct, beyond = stats.tail(list(range(1, 101)), 99)
    assert (pct, value, beyond) == (90, 90, 10)


def test_quartile_spread_is_relative_to_the_median():
    assert stats.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)
    assert stats.quartile_spread([2.0, 2.0, 2.0]) == 0.0


def test_shifted_geomean_admits_zero_valves():
    assert stats.shifted_geomean([0, 3]) == pytest.approx(1.0)
    assert stats.geomean([2, 8]) == pytest.approx(4.0)


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
