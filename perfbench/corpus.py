"""The benchmark's inputs: job specs generated from the workload seed.

Every input is a batch-manifest job entry (``{"assay": ...}`` or
``{"generator": "random_assay", ...}`` plus ``"id"`` and ``"config"``), so
the in-process workloads and the HTTP workload build identical jobs through
the program's own manifest loader.  Nothing here imports the program.

Each corpus is a *pinned* part plus a *seeded* part drawn by the same code:
the pinned part is the draw for :data:`PINNED_SEED` and holds most of the
inputs, so run-to-run spread stays inside the metrics' bounds even though
per-instance cost varies 100x; the seeded part is what a held-out seed
changes, so later claims can be checked on inputs nobody tuned against.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Tuple

#: Seed of the pinned part of every corpus (never passed on the command line).
PINNED_SEED = 2017

#: Solver cap of every exact-path job (the golden pins use the same cap).
ILP_CAP_S = 20.0

#: The exact scheduler forced, under the stated cap.
EXACT_CONFIG = {"scheduler": "ilp", "ilp_time_limit_s": ILP_CAP_S}

#: Random-assay strata of ``exact_corpus``: operations x mixers.
EXACT_STRATA = tuple((ops, mixers) for ops in (8, 9, 10) for mixers in (2, 3))
EXACT_PINNED_PER_STRATUM = 5
#: The seeded part: one draw per operation count, mixers drawn too.
EXACT_SEEDED_OPS = (8, 9, 10)

#: Sizes of the pinned ``heuristic_large`` draw (4 mixers, list scheduler):
#: dense up to 250 operations, so the median and the tail fall where many
#: inputs lie (a sparse ladder lets them jump between neighbours), plus one
#: draw at each size where the router starts to fail.
HEURISTIC_PINNED_SIZES = (50, 75, 100, 125, 150, 175, 200, 225, 250) * 3 + (300, 350, 400)
#: The seeded part: one draw at each of these sizes.  They stop where the
#: router still succeeds today, so a run's failed share (and with it the
#: pass time) does not swing with the seed; the failing sizes are pinned.
HEURISTIC_SEEDED_SIZES = (100, 175, 250)
HEURISTIC_CONFIG = {"scheduler": "list", "num_mixers": 4}

#: Inputs on which the heuristic router fails at the seed commit ("transport
#: path passes through device node" / "no channel segment can cache"); kept
#: in so the failures stay visible in the failed share.
KNOWN_ROUTER_FAILURES = ((300, 1), (400, 0), (400, 1))

#: Assays whose schedules ``verify_sweep`` warms into the cache.
VERIFY_ASSAYS = ("PCR", "RA30", "RA100")
VERIFY_TRIALS = (4096, 16384)
VERIFY_MODES = {
    "fault_free": {"verify_fault_rate": 0.0, "verify_channel_fault_rate": 0.0},
    "faulted": {"verify_fault_rate": 0.02, "verify_channel_fault_rate": 0.02},
}
#: ``verify_seed`` of every pass-0 job: fixed, so its reports have a
#: recorded byte-identical reference whatever the run seed.
VERIFY_REFERENCE_SEED = 1

#: ``service_mixed``: repeated jobs (cache reads after warm-up), the assay
#: whose pitch is swept, and the size range of fresh generator jobs (above
#: the exact scheduler's operation limit, so they run the list scheduler).
SERVICE_REPEATS = ("RA30", "RA70", "CPA")
SERVICE_SWEPT = "RA30"
SERVICE_FRESH_OPS = (16, 24)
SERVICE_FRESH_MIXERS = 3
#: Jobs of each kind per pass; a pass is long enough (~0.5 s) that the two
#: client slots rarely idle at its end.
SERVICE_MIX = {"repeat": 16, "pitch": 12, "fresh": 12}


#: Keys of a corpus entry that are the benchmark's, not the manifest's.
BENCH_KEYS = ("kind", "ref")


def manifest_entry(job: Dict[str, Any]) -> Dict[str, Any]:
    """The batch-manifest job entry of a corpus entry."""
    return {k: v for k, v in job.items() if k not in BENCH_KEYS}


def reference_key(job: Dict[str, Any]) -> str:
    """The key the job's expected digest is recorded under."""
    return job.get("ref", job["id"])


def derive(seed: int, label: str) -> int:
    """A 31-bit seed derived from ``(seed, label)``, stable across processes."""
    digest = hashlib.sha256(f"perfbench/{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def assay_job(name: str, config: Dict[str, Any]) -> Dict[str, Any]:
    """A paper-assay job (the loader starts from the paper's per-assay config)."""
    return {"id": name, "assay": name, "config": dict(config)}


def random_job(ops: int, gen_seed: int, config: Dict[str, Any]) -> Dict[str, Any]:
    """A ``random_assay`` generator job, named by size, seed and mixer count."""
    return {
        "id": f"ra{ops}-s{gen_seed}-m{config.get('num_mixers', 2)}",
        "generator": "random_assay",
        "num_operations": ops,
        "seed": gen_seed,
        "config": dict(config),
    }


def _exact_job(seed: int, ops: int, mixers: int, k: int) -> Dict[str, Any]:
    gen_seed = derive(seed, f"exact/{ops}/{mixers}/{k}")
    return random_job(ops, gen_seed, dict(EXACT_CONFIG, num_mixers=mixers))


def exact_corpus(seed: int) -> List[Dict[str, Any]]:
    """PCR, IVD (2 detectors) and random assays at 8-10 ops x {2, 3} mixers."""
    pinned = [
        _exact_job(PINNED_SEED, ops, mixers, k)
        for ops, mixers in EXACT_STRATA
        for k in range(EXACT_PINNED_PER_STRATUM)
    ]
    seeded = [
        _exact_job(seed, ops, 2 + derive(seed, f"exact/{ops}/mixers") % 2, 0)
        for ops in EXACT_SEEDED_OPS
    ]
    return [assay_job("PCR", EXACT_CONFIG), assay_job("IVD", EXACT_CONFIG)] + pinned + seeded


def _heuristic_draw(seed: int, sizes: Tuple[int, ...]) -> List[Dict[str, Any]]:
    jobs = []
    for index, ops in enumerate(sizes):
        k = sizes[:index].count(ops)  # the k-th draw of this size
        jobs.append(random_job(ops, derive(seed, f"heuristic/{ops}/{k}"), HEURISTIC_CONFIG))
    return jobs


def heuristic_corpus(seed: int) -> List[Dict[str, Any]]:
    """RA30, RA70, RA100, CPA, the known router failures and a draw to 400 ops."""
    paper = [assay_job(name, {"scheduler": "list"}) for name in ("RA30", "RA70", "RA100", "CPA")]
    failing = [random_job(ops, s, HEURISTIC_CONFIG) for ops, s in KNOWN_ROUTER_FAILURES]
    return (
        paper
        + failing
        + _heuristic_draw(PINNED_SEED, HEURISTIC_PINNED_SIZES)
        + _heuristic_draw(seed, HEURISTIC_SEEDED_SIZES)
    )


def warmup_job(workload: str) -> Dict[str, Any]:
    """A small job of the workload's kind, run in set-up and never measured.

    It moves one-time costs of the first synthesis in a process (lazy
    imports and first-call set-up inside the program) out of the first
    measured job.
    """
    if workload == "exact_corpus":
        return random_job(6, PINNED_SEED, dict(EXACT_CONFIG, num_mixers=2))
    return random_job(30, PINNED_SEED, HEURISTIC_CONFIG)


def verify_base_jobs() -> List[Dict[str, Any]]:
    """The three-stage jobs whose artifacts ``verify_sweep`` warms up."""
    return [
        assay_job(name, EXACT_CONFIG if name == "PCR" else {}) for name in VERIFY_ASSAYS
    ]


def verify_pass(seed: int, index: int) -> List[Dict[str, Any]]:
    """Pass ``index`` of ``verify_sweep``: every assay x mode x trial count.

    Pass 0 uses :data:`VERIFY_REFERENCE_SEED` (its reports are recorded);
    later passes draw a fresh ``verify_seed`` per job, so every job misses
    the verify stage's cache while its upstream stages are cache hits.
    """
    jobs = []
    for base in verify_base_jobs():
        for mode, rates in VERIFY_MODES.items():
            for trials in VERIFY_TRIALS:
                label = f"verify/{index}/{base['id']}/{mode}/{trials}"
                vseed = VERIFY_REFERENCE_SEED if index == 0 else derive(seed, label)
                config = dict(
                    base["config"],
                    verify=True,
                    verify_trials=trials,
                    verify_seed=vseed,
                    verify_jitter="uniform",
                    **rates,
                )
                jobs.append(
                    {
                        "id": f"{base['id']}-{mode}-{trials}-v{vseed}",
                        "assay": base["assay"],
                        "config": config,
                    }
                )
    return jobs


def service_warm_jobs() -> List[Dict[str, Any]]:
    """Jobs submitted during set-up so repeats and pitch points hit the cache."""
    return [assay_job(name, {}) for name in SERVICE_REPEATS]


def service_pass(seed: int, index: int) -> List[Dict[str, Any]]:
    """Pass ``index`` of ``service_mixed``: repeats, pitch points, fresh jobs.

    Entries carry a ``"kind"`` tag for the client; it is stripped before
    submission.  Pitch values are distinct per job, so each point misses
    the physical stage while its schedule and architecture replay.
    """
    jobs: List[Dict[str, Any]] = []
    for i in range(SERVICE_MIX["repeat"]):
        name = SERVICE_REPEATS[(index * SERVICE_MIX["repeat"] + i) % len(SERVICE_REPEATS)]
        jobs.append(dict(assay_job(name, {}), kind="repeat"))
    for i in range(SERVICE_MIX["pitch"]):
        pitch = 4.0 + derive(seed, f"pitch/{index}/{i}") % 400000 / 100000.0
        job = assay_job(SERVICE_SWEPT, {"pitch": pitch})
        # Pitch moves only the layout, so the digest is the swept assay's.
        job.update(id=f"{SERVICE_SWEPT}-pitch{pitch:.5f}", ref=SERVICE_SWEPT)
        jobs.append(dict(job, kind="pitch"))
    lo, hi = SERVICE_FRESH_OPS
    for i in range(SERVICE_MIX["fresh"]):
        gen_seed = derive(seed, f"fresh/{index}/{i}")
        ops = lo + gen_seed % (hi - lo + 1)
        job = random_job(ops, gen_seed, {"num_mixers": SERVICE_FRESH_MIXERS})
        jobs.append(dict(job, kind="fresh"))
    # Interleave the kinds so both in-flight slots see the whole mix.
    order = sorted(range(len(jobs)), key=lambda j: derive(seed, f"order/{index}/{j}"))
    return [jobs[j] for j in order]
