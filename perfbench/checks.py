"""Output check: structural digests against recorded references and goldens.

A job's *digest* is what the paper's evaluation reads off a chip: makespan
(bioassay completion time), valve count, channel count and grid size.
``reference.json`` records the digest (or the fact that the job fails) for
every input the benchmark has been recorded on; a Monte-Carlo job also
records a hash of its report, which must match byte for byte.

Inputs without a recorded reference (a held-out seed) are checked without
one: every repetition of one input must give the digest of its first, and
the workloads check that first chip against the program's own validators
(:func:`chip_problems`) or recompute it in-process.  The paper's goldens are
asserted wherever their assay runs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Paper-config makespans pinned since the seed commit.
GOLDEN_MAKESPANS = {"RA30": 650, "IVD": 280, "PCR": 330}

#: Error type the heuristic router raises when no grid fits; a known
#: limitation, reported in the failed share rather than as a wrong output.
ROUTER_FAILURE = "SynthesisError"


def chip_digest(makespan: int, valves: int, channels: int, grid: str) -> Dict[str, Any]:
    """The structural digest of one synthesized chip."""
    return {"makespan": int(makespan), "valves": int(valves), "channels": int(channels), "grid": grid}


def digest_of_result(result: Any) -> Dict[str, Any]:
    """Digest of an in-process ``SynthesisResult``."""
    rows, cols = result.architecture.grid.shape
    return chip_digest(
        result.schedule.makespan,
        result.architecture.num_valves,
        result.architecture.num_edges,
        f"{rows}x{cols}",
    )


def digest_of_payload(metrics: Dict[str, Any]) -> Dict[str, Any]:
    """Digest of a job's ``metrics`` block in a batch/service JSON payload."""
    return chip_digest(metrics["tE"], metrics["nv"], metrics["ne"], metrics["G"])


def chip_problems(result: Any) -> List[str]:
    """Violations the program's own validators find in a ``SynthesisResult``.

    Needs no reference: the schedule's hard constraints, the architecture's
    routing rules, a conflict-free ``ChipSimulator`` replay that ends at the
    schedule's makespan, and the compacted layout's geometry.
    """
    from repro.simulation.simulator import ChipSimulator

    replay = ChipSimulator(result.schedule, result.architecture).run()
    problems = result.schedule.validate() + result.architecture.validate() + list(replay.problems)
    if replay.makespan != result.schedule.makespan:
        problems.append(f"replay ends at {replay.makespan}, schedule at {result.schedule.makespan}")
    return problems + result.physical.compact_layout.validate()


def report_hash(report: Dict[str, Any]) -> str:
    """Hash of a Monte-Carlo report's canonical JSON (byte identity)."""
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:20]


def load_references(path: Path = REFERENCE_PATH) -> Dict[str, Dict[str, Any]]:
    """The recorded outcomes, keyed by input id (empty if none recorded)."""
    if not path.exists():
        return {}
    return json.loads(path.read_text())["inputs"]


class OutputCheck:
    """Classifies every job outcome against references, goldens and repeats.

    ``observe`` returns ``"ok"`` (a chip, as expected), ``"router_failure"``
    (the job failed where failure is recorded or where the router gave up
    on an unrecorded input) or ``"mismatch"`` (a wrong or unexpected
    outcome: the only kind that makes the run incorrect).
    """

    def __init__(self, references: Optional[Dict[str, Dict[str, Any]]] = None) -> None:
        self.references = load_references() if references is None else references
        self.first_seen: Dict[str, Dict[str, Any]] = {}
        self.mismatches: List[str] = []
        self.router_failures: Dict[str, str] = {}
        self.improved: List[str] = []
        self.recorded = 0
        self.unrecorded = 0

    def observe(self, key: str, outcome: Dict[str, Any]) -> str:
        """Check one outcome: ``{"chip": digest, "report"?: hash}`` or ``{"error": msg}``."""
        recorded = self.references.get(key)
        if recorded is not None:
            self.recorded += 1
            expected = recorded
        else:
            self.unrecorded += 1
            expected = self.first_seen.setdefault(key, outcome)
        if "error" in outcome:
            known = recorded is not None or outcome["error"].startswith(ROUTER_FAILURE)
            if "error" in expected and known:
                self.router_failures[key] = outcome["error"]
                return "router_failure"
            return self.mismatch(key, f"failed: {outcome['error']}")
        if "error" in expected:
            if recorded is None:
                return self.mismatch(key, "a chip where an earlier repetition failed")
            # A recorded failure that now yields a chip is a fix, not a fault.
            if key not in self.improved:
                self.improved.append(key)
            return "ok"
        golden = GOLDEN_MAKESPANS.get(key)
        if golden is not None and outcome["chip"]["makespan"] != golden:
            return self.mismatch(key, f"makespan {outcome['chip']['makespan']} != golden {golden}")
        for field in ("chip", "report"):
            if field in expected and outcome.get(field) != expected[field]:
                return self.mismatch(key, f"{field} {outcome.get(field)} != {expected[field]}")
        return "ok"

    def mismatch(self, key: str, detail: str) -> str:
        """Record a wrong outcome of ``key``; the run becomes incorrect."""
        self.mismatches.append(f"{key}: {detail}")
        return "mismatch"

    @property
    def correct(self) -> bool:
        """True when no outcome contradicted its reference, golden or repeat."""
        return not self.mismatches

    def summary(self) -> Dict[str, Any]:
        """What was checked, for the human-readable part of the output."""
        return {
            "recorded_checks": self.recorded,
            "unrecorded_checks": self.unrecorded,
            "mismatches": list(self.mismatches),
            "router_failures": dict(sorted(self.router_failures.items())),
            "improved": list(self.improved),
        }


def record(outcomes: Dict[str, Dict[str, Any]], path: Path = REFERENCE_PATH) -> int:
    """Merge observed outcomes into the reference file; returns the count added."""
    references = load_references(path)
    added = 0
    for key, outcome in outcomes.items():
        entry = {"error": outcome["error"]} if "error" in outcome else {
            k: outcome[k] for k in ("chip", "report") if k in outcome
        }
        if references.get(key) != entry:
            added += 1
        references[key] = entry
    payload = {
        "about": "Recorded outcome of every benchmark input: perfbench/checks.py",
        "inputs": dict(sorted(references.items())),
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=False) + "\n")
    return added
