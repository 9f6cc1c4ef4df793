"""Meta-tests: the real tree passes its own invariant checker.

These are the teeth of the analysis pass: the fixtures prove the checkers
*can* catch each violation class, and these prove the shipped engine code
*does not contain any*.
"""

from __future__ import annotations

import ast
import re
import subprocess
from pathlib import Path

import pytest

from tools.analysis.engine import ALL_CHECKERS, ENGINE_CODES, check_paths
from tools.analysis.interproc import INTERPROC_CHECKERS

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_repro_is_violation_free():
    report = check_paths([str(REPO_ROOT / "src" / "repro")],
                         root=str(REPO_ROOT))
    assert report.files_checked > 40
    rendered = "\n".join(v.render() for v in report.violations)
    assert report.ok, f"invariant violations in src/repro:\n{rendered}"


def test_every_suppression_in_the_tree_is_justified():
    report = check_paths([str(REPO_ROOT / "src" / "repro")],
                         root=str(REPO_ROOT))
    for sup in report.suppressed:
        assert sup.justification, f"{sup.path}:{sup.line} lacks a why"


def test_checker_codes_are_unique_across_the_pass():
    seen: dict[str, str] = {}
    for code in ENGINE_CODES:
        seen[code] = "engine"
    for cls in (*ALL_CHECKERS, *INTERPROC_CHECKERS):
        for code in cls.codes:
            assert code not in seen, f"{code} declared by both " \
                f"{seen[code]} and {cls.name}"
            seen[code] = cls.name


def test_no_hand_rolled_timer_generation_in_the_core():
    # A cancellable timer is a repro.sim.Timer; the flag + counter +
    # captured-generation protocol it replaced must not come back.
    for path in sorted((REPO_ROOT / "src" / "repro" / "core").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(getattr(node, "ctx", None), ast.Store):
                name = getattr(node, "attr", None) or getattr(node, "id", "")
                assert not re.fullmatch(r"\w*_gens?", name), \
                    f"{path.name}:{node.lineno} assigns {name}: use Timer"


def _git_ls_files(pattern: str) -> list[str] | None:
    try:
        proc = subprocess.run(
            ["git", "ls-files", pattern],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return [line for line in proc.stdout.splitlines() if line]


def test_no_bytecode_is_tracked_in_git():
    tracked = _git_ls_files("*.pyc")
    if tracked is None:
        pytest.skip("git not available")
    assert tracked == [], f"compiled bytecode committed: {tracked}"
    caches = _git_ls_files("**/__pycache__/**")
    if caches:
        raise AssertionError(f"__pycache__ contents committed: {caches}")
