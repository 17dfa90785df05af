"""Repository hygiene guards.

Commit bf6cf9d accidentally tracked seven compiled ``__pycache__/*.pyc``
binaries; they were removed and a root ``.gitignore`` added.  These tests
keep the repo clean: they fail the suite (and therefore CI) if compiled
bytecode ever becomes tracked again or the ignore rules are dropped.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _tracked_files():
    try:
        proc = subprocess.run(
            ["git", "ls-files"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        pytest.skip("git unavailable")
    if proc.returncode != 0:  # pragma: no cover - e.g. exported tarball
        pytest.skip("not a git checkout")
    return proc.stdout.splitlines()


def test_no_compiled_bytecode_is_tracked():
    offenders = [
        path
        for path in _tracked_files()
        if path.endswith((".pyc", ".pyo")) or "__pycache__" in path
    ]
    assert not offenders, f"compiled bytecode tracked in git: {offenders}"


def test_gitignore_keeps_bytecode_and_local_artifacts_out():
    gitignore = REPO_ROOT / ".gitignore"
    assert gitignore.exists(), "root .gitignore is missing"
    rules = gitignore.read_text()
    for rule in ("__pycache__/", "*.py[cod]", ".pytest_cache/"):
        assert rule in rules, f".gitignore lost the {rule!r} rule"
