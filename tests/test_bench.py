"""Tests of the ``repro bench`` gates.

The probes themselves time real work, so they stay out of this suite: the
gate tests replace each probe with a canned record and check the exit
status, and the overhead probe's makespan check runs against a fake engine.
"""

from __future__ import annotations

import json

import pytest

from repro import bench
from repro.cli import main


def passing_verify_record():
    row = {"report_identical": True, "speedup": 12.0}
    return {"ok": True, "error": None, "fault_free": dict(row),
            "fault": dict(row, speedup=3.5)}


def passing_obs_record():
    spans = [{"name": name} for name in sorted(bench.OBS_PROBE_STAGE_SPANS)]
    return {
        "ok": True,
        "error": None,
        "overhead_pct": 1.5,
        "assays": {assay: {"makespan": 1, "spans": list(spans)}
                   for assay in bench.DEFAULT_ASSAYS},
    }


def _slow_fault_free(verify, obs):
    verify["fault_free"]["speedup"] = bench.VERIFY_PROBE_FAULT_FREE_FLOOR - 0.1


def _slow_fault(verify, obs):
    verify["fault"]["speedup"] = bench.VERIFY_PROBE_FAULT_FLOOR - 0.1


def _changed_report(verify, obs):
    verify["fault"]["report_identical"] = False


def _verify_failed(verify, obs):
    verify.clear()
    verify.update(ok=False, error="RuntimeError: boom")


def _over_ceiling(verify, obs):
    obs["overhead_pct"] = bench.OBS_PROBE_OVERHEAD_CEILING_PCT


def _missing_stage_span(verify, obs):
    obs["assays"]["IVD"]["spans"] = [{"name": "stage:schedule"}]


def _makespans_diverged(verify, obs):
    obs.update(ok=False, error="traced makespans {'RA30': 651} != untraced")


class TestGates:
    @pytest.fixture
    def run(self, monkeypatch, capsys):
        def _run(breakage=None):
            verify, obs = passing_verify_record(), passing_obs_record()
            if breakage is not None:
                breakage(verify, obs)
            monkeypatch.setattr(bench, "run_verify_probe", lambda: verify)
            monkeypatch.setattr(bench, "run_obs_probe", lambda: obs)
            exit_code = main(["bench"])
            captured = capsys.readouterr()
            return exit_code, json.loads(captured.out), captured.err

        return _run

    def test_passing_probes_exit_zero(self, run):
        exit_code, payload, err = run()
        assert exit_code == 0
        assert payload["failures"] == [] and err == ""
        assert payload["verify_probe"]["ok"] and payload["obs_probe"]["ok"]

    @pytest.mark.parametrize("breakage", [
        _slow_fault_free, _slow_fault, _changed_report, _verify_failed,
        _over_ceiling, _missing_stage_span, _makespans_diverged,
    ])
    def test_a_reading_past_its_gate_exits_one(self, run, breakage):
        exit_code, payload, err = run(breakage)
        assert exit_code == 1
        assert len(payload["failures"]) == 1
        assert "bench gate failed" in err

    def test_bench_takes_no_options(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--out", "BENCH.json"])
        assert excinfo.value.code == 2


class TestObsProbe:
    def test_probe_is_not_ok_when_makespans_diverge(self, monkeypatch):
        """Instrumentation changing a result must fail the probe."""
        from types import SimpleNamespace

        from repro.obs.trace import recorder

        def fake_run(self, jobs):
            # Traced runs (a recorder is installed while the engine runs)
            # "see" a different makespan — exactly the defect the probe
            # exists to catch.
            makespan = 651 if recorder() is not None else 650
            outcome = SimpleNamespace(
                ok=True,
                error=None,
                metrics=lambda: SimpleNamespace(execution_time=makespan),
            )
            return SimpleNamespace(outcomes=[outcome])

        monkeypatch.setattr(bench.BatchSynthesisEngine, "run", fake_run)
        record = bench.run_obs_probe(["RA30"])
        assert record["ok"] is False
        assert "651" in record["error"]
