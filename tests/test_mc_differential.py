"""Differential tests: the masked Monte-Carlo kernel vs the scalar engine.

The masked kernel in :mod:`repro.simulation.montecarlo`, batched across
the trial axis, and the trial-sharding layer replaced per-trial Python
replay loops; the scalar reference survives behind ``REPRO_MC_SCALAR=1``
(mirroring ``REPRO_BB_SCALAR``) precisely so this suite can pin them
against each other.  Three levels are covered:

* **stream level** — :mod:`repro.simulation.mtstream` reproduces
  CPython's Mersenne Twister bit-for-bit: the post-seeding state equals
  ``random.Random(seed).getstate()``, and the generated doubles equal
  ``Random.random()`` across the twist boundaries (one prefix twist,
  one full twist, several twists), also when the on-demand stream is
  extended in uneven steps;
* **engine level** — hypothesis-generated configurations (jitter mode and
  spread, wash, fault and channel-fault rates, retry budgets, seeds)
  produce byte-identical ``VerificationReport.as_dict()`` payloads and
  identical per-trial detail from the masked kernel and the scalar
  engine, with and without device faults (the kernel's static-binding
  case).  Explicit examples pin channel-only faults on a zero-transport
  schedule, where a cross-device edge draws although its minimum is 0.
  The kernel is also pinned on RA100, whose trials read far past the
  first 227-word chunk, so the on-demand stream really extends, and at
  realistic rates over hundreds of trials, where a device fault is a
  sparse exception: migrated and unmigrated rows mix in one block, and
  a single-detector library sends some faulted rows down the no-spare
  branch;
* **sharding level** — the report is invariant under the worker count,
  both in-process (``MonteCarloConfig(workers=...)``) and through the
  ``repro simulate --workers N --json`` subcommand in a fresh process.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.devices.device import default_device_library
from repro.graph.library import assay_by_name
from repro.keys import derive_seed
from repro.obs.trace import TraceRecorder, install_recorder, uninstall_recorder
from repro.scheduling.list_scheduler import ListScheduler, ListSchedulerConfig
from repro.simulation import MonteCarloConfig, MonteCarloEngine
from repro.simulation import montecarlo, mtstream

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def _run(schedule, library, config, *, scalar=False):
    """One engine run with the requested kernel family."""
    if scalar:
        os.environ[montecarlo._SCALAR_ENV] = "1"
    else:
        os.environ.pop(montecarlo._SCALAR_ENV, None)
    try:
        return MonteCarloEngine(schedule, library, config).run()
    finally:
        os.environ.pop(montecarlo._SCALAR_ENV, None)


@pytest.fixture(scope="module")
def pcr_zero_transport():
    """PCR's list schedule with ``transport_time=0``: every edge minimum is 0."""
    library = default_device_library(num_mixers=2)
    scheduler = ListScheduler(library, ListSchedulerConfig(transport_time=0))
    return scheduler.schedule(assay_by_name("PCR"))


@pytest.fixture(scope="module")
def ra100():
    """RA100's list schedule on four mixers: 100 device entries, 95 edges."""
    library = default_device_library(num_mixers=4)
    scheduler = ListScheduler(library, ListSchedulerConfig(transport_time=10))
    return scheduler.schedule(assay_by_name("RA100")), library


def _uniforms(seeds, draws):
    """The first ``draws`` doubles of every seed's stream, trial-major."""
    stream = mtstream.MersenneStream(np.asarray(seeds, dtype=np.uint64), draws)
    stream.ensure(draws)
    return stream.draws[:draws].T


def _detail(report):
    """The full per-trial tuple sequence (stronger than ``as_dict``)."""
    return [
        (t.trial, t.makespan, t.faults_injected, t.faults_recovered,
         t.retries, t.migrations, t.reroutes, t.washes, t.recovered)
        for t in report.trials
    ]


# ------------------------------------------------------------- mtstream


class TestMersenneStream:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=1 << 32, max_value=(1 << 63) - 1))
    def test_state_matches_cpython_getstate(self, seed):
        state = mtstream.state_block(np.array([seed], dtype=np.uint64))[0]
        ref = random.Random(seed).getstate()[1][:624]
        assert tuple(int(v) for v in state) == tuple(ref)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=1 << 32, max_value=(1 << 63) - 1),
        # 113/114 straddle the prefix-twist boundary (2 * draws ≤ 227);
        # 312 consumes exactly one full twist; 700 needs three.
        draws=st.sampled_from([1, 2, 113, 114, 312, 313, 700]),
    )
    def test_doubles_match_cpython_across_twist_boundaries(self, seed, draws):
        block = _uniforms([seed], draws)
        rng = random.Random(seed)
        assert block[0].tolist() == [rng.random() for _ in range(draws)]

    def test_small_seeds_fall_back_to_cpython(self):
        # Seeds below 2**32 use a one-word key in CPython; the stream
        # routes them through random.Random per trial.
        seeds = np.array([0, 1, 12345, (1 << 32) - 1, 1 << 32], dtype=np.uint64)
        block = _uniforms(seeds, 5)
        for t, seed in enumerate(seeds):
            rng = random.Random(int(seed))
            assert block[t].tolist() == [rng.random() for _ in range(5)]

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=1 << 32, max_value=(1 << 63) - 1),
        # 113/114 straddle the first 227-word chunk, where a double pairs
        # words from two chunks; 312/313 sit on the 624-word twist; 700
        # needs a second twist.
        capacity=st.sampled_from([1, 113, 114, 312, 313, 700]),
        steps=st.lists(st.integers(min_value=0, max_value=240), max_size=6),
    )
    def test_on_demand_stream_matches_cpython_in_uneven_steps(
        self, seed, capacity, steps
    ):
        stream = mtstream.MersenneStream(
            np.array([seed, seed ^ 1], dtype=np.uint64), capacity
        )
        target = 0
        for step in steps + [capacity]:
            target += step
            stream.ensure(target)
            assert stream.filled == min(target, capacity)
        assert stream.draws.shape == (capacity + 1, 2)
        for column, s in enumerate((seed, seed ^ 1)):
            rng = random.Random(s)
            assert stream.draws[:capacity, column].tolist() == [
                rng.random() for _ in range(capacity)
            ]
        assert stream.draws[capacity].tolist() == [0.0, 0.0]  # the sentinel

    def test_on_demand_stream_small_seeds_fall_back_to_cpython(self):
        seeds = np.array([0, 12345, (1 << 32) - 1, 1 << 32, 1 << 62], dtype=np.uint64)
        stream = mtstream.MersenneStream(seeds, 313)
        for target in (3, 114, 200, 313):
            stream.ensure(target)
        for column, seed in enumerate(seeds):
            rng = random.Random(int(seed))
            assert stream.draws[:313, column].tolist() == [
                rng.random() for _ in range(313)
            ]

    def test_fused_families_equal_separately_seeded_streams(self):
        jitter = np.array([1 << 40, 7, (1 << 50) + 3], dtype=np.uint64)
        faults = np.array([(1 << 33) + 9, 1 << 61], dtype=np.uint64)
        fused = mtstream.MersenneStream.fused([jitter, faults], [5, 400])
        for stream, seeds, capacity in zip(fused, (jitter, faults), (5, 400)):
            stream.ensure(capacity // 3)
            stream.ensure(capacity)
            alone = _uniforms(seeds, capacity)
            assert stream.draws[:capacity].T.tolist() == alone.tolist()

    @settings(max_examples=15, deadline=None)
    @given(
        root=st.integers(min_value=0, max_value=(1 << 40)),
        lo=st.integers(min_value=0, max_value=500),
        span=st.integers(min_value=0, max_value=64),
    )
    def test_derived_seed_block_matches_scalar_derivation(self, root, lo, span):
        block = mtstream.derive_seed_block(root, "jitter-", lo, lo + span)
        assert block.tolist() == [
            derive_seed(root, f"jitter-{i}") for i in range(lo, lo + span)
        ]

    def test_stream_block_equals_the_scalar_engines_streams(self):
        block = _uniforms(mtstream.derive_seed_block(11, "fault-", 3, 20), 9)
        for t, i in enumerate(range(3, 20)):
            rng = random.Random(derive_seed(11, f"fault-{i}"))
            assert block[t].tolist() == [rng.random() for _ in range(9)]


# ---------------------------------------------- masked kernel vs scalar


class TestVectorizedScalarDifferential:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        jitter=st.sampled_from(["none", "uniform", "normal"]),
        spread=st.floats(min_value=0.0, max_value=0.5),
        wash_time=st.integers(min_value=0, max_value=20),
    )
    def test_fault_free_path_is_byte_identical(
        self, pcr_schedule, seed, jitter, spread, wash_time
    ):
        library = default_device_library(num_mixers=2)
        config = MonteCarloConfig(
            trials=16, seed=seed, jitter=jitter, jitter_spread=spread,
            wash_time=wash_time,
        )
        fast = _run(pcr_schedule, library, config)
        ref = _run(pcr_schedule, library, config, scalar=True)
        assert fast.as_dict() == ref.as_dict()
        assert _detail(fast) == _detail(ref)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        jitter=st.sampled_from(["none", "uniform", "normal"]),
        fault_rate=st.floats(min_value=0.0, max_value=1.0),
        channel_rate=st.floats(min_value=0.0, max_value=1.0),
        max_retries=st.integers(min_value=0, max_value=3),
        wash_time=st.integers(min_value=0, max_value=15),
        zero_transport=st.booleans(),
    )
    # Channel faults only, at transport_time 0: bindings are static and
    # every edge minimum is 0, yet each cross-device edge still draws.
    @example(seed=3, jitter="none", fault_rate=0.0, channel_rate=0.5,
             max_retries=1, wash_time=0, zero_transport=True)
    @example(seed=8, jitter="uniform", fault_rate=0.0, channel_rate=0.9,
             max_retries=1, wash_time=6, zero_transport=True)
    def test_masked_fault_kernel_is_byte_identical(
        self, pcr_schedule, pcr_zero_transport, seed, jitter, fault_rate,
        channel_rate, max_retries, wash_time, zero_transport,
    ):
        schedule = pcr_zero_transport if zero_transport else pcr_schedule
        library = default_device_library(num_mixers=2)
        config = MonteCarloConfig(
            trials=12, seed=seed, jitter=jitter, jitter_spread=0.2,
            fault_rate=fault_rate, channel_fault_rate=channel_rate,
            max_retries=max_retries, wash_time=wash_time,
        )
        fast = _run(schedule, library, config)
        ref = _run(schedule, library, config, scalar=True)
        assert fast.as_dict() == ref.as_dict()
        assert _detail(fast) == _detail(ref)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        jitter=st.sampled_from(["none", "uniform", "normal"]),
        fault_rate=st.floats(min_value=0.0, max_value=1.0),
        channel_rate=st.floats(min_value=0.0, max_value=1.0),
        max_retries=st.integers(min_value=0, max_value=3),
        wash_time=st.integers(min_value=1, max_value=15),
    )
    # No device faults: fault-free, then channel faults only.
    @example(seed=2, jitter="normal", fault_rate=0.0, channel_rate=0.0,
             max_retries=1, wash_time=5)
    @example(seed=6, jitter="uniform", fault_rate=0.0, channel_rate=0.3,
             max_retries=1, wash_time=9)
    def test_masked_kernel_extending_its_stream_is_byte_identical(
        self, ra100, seed, jitter, fault_rate, channel_rate, max_retries,
        wash_time,
    ):
        # RA100's worst-case fault stream is up to 595 draws wide, so the
        # kernel extends the stream many times per block.
        schedule, library = ra100
        config = MonteCarloConfig(
            trials=8, seed=seed, jitter=jitter, jitter_spread=0.2,
            fault_rate=fault_rate, channel_fault_rate=channel_rate,
            max_retries=max_retries, wash_time=wash_time,
        )
        fast = _run(schedule, library, config)
        ref = _run(schedule, library, config, scalar=True)
        assert fast.as_dict() == ref.as_dict()
        assert _detail(fast) == _detail(ref)

    def test_block_boundary_straddling_run_is_byte_identical(self, pcr_schedule):
        # More trials than one vector block forces the blocked path.
        library = default_device_library(num_mixers=2)
        config = MonteCarloConfig(
            trials=montecarlo.VECTOR_BLOCK_TRIALS + 7, seed=5,
            jitter="uniform", jitter_spread=0.1,
        )
        fast = _run(pcr_schedule, library, config)
        ref = _run(pcr_schedule, library, config, scalar=True)
        assert fast.as_dict() == ref.as_dict()

    def test_diagnostics_cap_appends_a_truncation_marker(self, pcr_schedule):
        # Saturating fault rates with washes produce far more diagnostics
        # than MAX_DIAGNOSTICS; the report must say how many were dropped
        # instead of truncating silently.
        library = default_device_library(num_mixers=2)
        config = MonteCarloConfig(
            trials=64, seed=3, fault_rate=1.0, channel_fault_rate=0.5,
            max_retries=1, wash_time=10,
        )
        fast = _run(pcr_schedule, library, config)
        ref = _run(pcr_schedule, library, config, scalar=True)
        assert fast.as_dict() == ref.as_dict()
        assert len(fast.violations) == montecarlo.MAX_DIAGNOSTICS + 1
        marker = fast.violations[-1]
        assert marker.startswith("... +") and marker.endswith(" more")
        dropped = int(marker[len("... +"):-len(" more")])
        assert dropped > 0


class TestSparseFaultExceptions:
    """Realistic fault rates, where a fault is an exception in its block.

    The kernel replays every trial on the static plan and redoes only the
    faulted rows, so the cases that matter are blocks where migrated and
    unmigrated rows of one entry mix, and where an edge out of a migrated
    entry is redone on a few rows only.
    """

    @pytest.mark.parametrize("max_retries", [0, 1])
    def test_sparse_migrations_on_ra100_are_byte_identical(
        self, ra100, max_retries
    ):
        schedule, library = ra100
        config = MonteCarloConfig(
            trials=600, seed=31, jitter="uniform", jitter_spread=0.2,
            fault_rate=0.05, channel_fault_rate=0.02,
            max_retries=max_retries, wash_time=6,
        )
        fast = _run(schedule, library, config)
        ref = _run(schedule, library, config, scalar=True)
        migrated = [t.migrations > 0 for t in fast.trials]
        assert 0 < sum(migrated) < config.trials
        if max_retries:
            assert 0 < fast.aggregate.migrations < config.trials
        assert fast.as_dict() == ref.as_dict()
        assert _detail(fast) == _detail(ref)

    def test_entries_without_a_spare_are_byte_identical(self):
        # One detector: a faulted detection has no spare and completes in
        # place, on a subset of rows, while faulted mixes still migrate.
        library = default_device_library(num_mixers=4, num_detectors=1)
        scheduler = ListScheduler(library, ListSchedulerConfig(transport_time=10))
        schedule = scheduler.schedule(assay_by_name("CPA"))
        config = MonteCarloConfig(
            trials=600, seed=12, jitter="uniform", jitter_spread=0.2,
            fault_rate=0.05, channel_fault_rate=0.02, max_retries=0,
            wash_time=6,
        )
        fast = _run(schedule, library, config)
        ref = _run(schedule, library, config, scalar=True)
        assert any("no compatible spare" in v for v in fast.violations)
        assert 0 < fast.aggregate.migrations
        assert 0 < fast.recovery_rate < 1
        assert fast.as_dict() == ref.as_dict()
        assert _detail(fast) == _detail(ref)


# ------------------------------------------------------ worker invariance


class TestWorkerInvariance:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        workers=st.sampled_from([2, 3, 4]),
    )
    def test_sharded_report_is_byte_identical_in_process(
        self, pcr_schedule, seed, workers
    ):
        library = default_device_library(num_mixers=2)
        base = MonteCarloConfig(
            trials=256, seed=seed, jitter="uniform", jitter_spread=0.2,
            fault_rate=0.3, channel_fault_rate=0.1, wash_time=8,
        )
        serial = _run(pcr_schedule, library, base)
        sharded = _run(pcr_schedule, library, replace(base, workers=workers))
        assert serial.as_dict() == sharded.as_dict()
        assert _detail(serial) == _detail(sharded)

    def test_sharded_fault_kernel_on_ra100_is_invariant(self, ra100):
        schedule, library = ra100
        base = MonteCarloConfig(
            trials=192, seed=23, jitter="uniform", jitter_spread=0.2,
            fault_rate=0.3, channel_fault_rate=0.1, max_retries=3,
            wash_time=8,
        )
        serial = _run(schedule, library, base)
        sharded = _run(schedule, library, replace(base, workers=3))
        assert serial.as_dict() == sharded.as_dict()
        assert _detail(serial) == _detail(sharded)

    def test_sharded_scalar_engine_is_also_invariant(self, pcr_schedule):
        # Sharding and the scalar escape hatch compose: the shards
        # themselves replay with the reference engine.
        library = default_device_library(num_mixers=2)
        base = MonteCarloConfig(
            trials=192, seed=17, jitter="normal", jitter_spread=0.15,
            fault_rate=0.4, wash_time=5,
        )
        serial = _run(pcr_schedule, library, base, scalar=True)
        sharded = _run(
            pcr_schedule, library, replace(base, workers=4), scalar=True
        )
        assert serial.as_dict() == sharded.as_dict()

    def test_worker_counts_beyond_the_trial_budget_are_clamped(self, pcr_schedule):
        library = default_device_library(num_mixers=2)
        base = MonteCarloConfig(trials=8, seed=1, jitter="uniform")
        serial = _run(pcr_schedule, library, base)
        greedy = _run(pcr_schedule, library, replace(base, workers=64))
        assert serial.as_dict() == greedy.as_dict()

    def test_cli_simulate_report_is_worker_invariant(self, tmp_path):
        # The full subcommand in a fresh interpreter: the JSON report must
        # be byte-identical between a serial and a 4-way sharded run.
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        env.pop(montecarlo._SCALAR_ENV, None)
        payloads = {}
        for workers in (1, 4):
            out = tmp_path / f"report-{workers}.json"
            subprocess.run(
                [sys.executable, "-m", "repro", "simulate", "--assay", "PCR",
                 "--scheduler", "list", "--trials", "96", "--seed", "9",
                 "--jitter", "uniform", "--jitter-spread", "0.2",
                 "--fault-rate", "0.3", "--channel-fault-rate", "0.1",
                 "--wash-time", "8", "--workers", str(workers),
                 "--json", str(out)],
                capture_output=True, text=True, env=env, check=True,
            )
            payloads[workers] = json.loads(out.read_text())
        assert payloads[1]["trials"] == 96
        assert payloads[1] == payloads[4]


# ----------------------------------------------------------- trace fields


class TestFaultDrawTrace:
    def _traced(self, schedule, library, config):
        rec = TraceRecorder()
        token = install_recorder(rec)
        try:
            report = _run(schedule, library, config)
        finally:
            uninstall_recorder(token)
        (mc,) = [s for s in rec.spans() if s.name == "verify:mc"]
        return report, mc.attributes

    def test_verify_span_reports_materialised_and_worst_case_draws(self, ra100):
        schedule, library = ra100
        config = MonteCarloConfig(
            trials=128, seed=4, jitter="uniform",
            fault_rate=0.02, channel_fault_rate=0.02,
        )
        report, attrs = self._traced(schedule, library, config)
        engine = MonteCarloEngine(schedule, library, config)
        width = engine._fault_draw_width(engine.plan())
        assert attrs["fault_draw_bound"] == width * 128
        # Trials read past the first chunk, yet well short of the bound.
        assert 113 * 128 < attrs["fault_draws"] < attrs["fault_draw_bound"]
        # Trace attributes never reach the report.
        assert "fault_draws" not in report.as_dict()
        assert report.as_dict() == _run(schedule, library, config).as_dict()

    def test_fault_free_runs_draw_no_fault_stream(self, pcr_schedule):
        library = default_device_library(num_mixers=2)
        config = MonteCarloConfig(trials=16, seed=1, jitter="uniform")
        _, attrs = self._traced(pcr_schedule, library, config)
        assert attrs["fault_draws"] == attrs["fault_draw_bound"] == 0
