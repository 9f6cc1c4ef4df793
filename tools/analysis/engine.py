"""The analysis engine: file walking, suppression comments, reporting.

Run the whole pass with ``python -m tools.analysis [paths…]`` (defaults to
``src/repro``), or call :func:`check_source` / :func:`check_paths` from
tests.  Exit status is non-zero when any unsuppressed violation exists.

Suppression
-----------
A finding is suppressed by a trailing comment **on the flagged line**::

    with open(path, "w") as fh:  # nm: allow[NM401] -- export runs after run()

The justification after ``--`` is mandatory; a bare ``# nm: allow[NM401]``
is itself a violation (**NM001**) so suppressions stay auditable.  Files
that fail to parse report **NM000**.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from tools.analysis.base import Checker, FileContext, Violation
from tools.analysis.blocking import BlockingChecker, EmitGateChecker
from tools.analysis.counters import CounterChecker
from tools.analysis.determinism import DeterminismChecker
from tools.analysis.lifecycle import LifecycleChecker

ALL_CHECKERS: tuple[type[Checker], ...] = (
    DeterminismChecker,
    CounterChecker,
    LifecycleChecker,
    BlockingChecker,
    EmitGateChecker,
)

#: Engine-level codes (not tied to one checker).
ENGINE_CODES = {
    "NM000": "file does not parse",
    "NM001": "suppression comment without a justification",
}

_SUPPRESS_RE = re.compile(
    r"#\s*nm:\s*allow\[(?P<codes>[A-Z0-9, ]+)\]\s*(?:--\s*(?P<why>.*\S))?"
)

#: First-lines marker letting a fixture impersonate a tree location.
_VPATH_RE = re.compile(r"^#\s*nm-path:\s*(?P<path>\S+)\s*$", re.MULTILINE)


@dataclass
class Suppression:
    line: int
    codes: tuple[str, ...]
    justification: str


@dataclass
class Report:
    """Outcome of one analysis run."""

    violations: list[Violation] = field(default_factory=list)
    suppressed: list[Violation] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def merge(self, other: Report) -> None:
        self.violations.extend(other.violations)
        self.suppressed.extend(other.suppressed)
        self.files_checked += other.files_checked


def _parse_suppressions(source: str, path: str) -> tuple[dict[int, Suppression], list[Violation]]:
    """Per-line suppressions plus violations for malformed ones."""
    out: dict[int, Suppression] = {}
    bad: list[Violation] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _SUPPRESS_RE.search(tok.string)
            if m is None:
                continue
            codes = tuple(c.strip() for c in m.group("codes").split(",") if c.strip())
            why = (m.group("why") or "").strip()
            line = tok.start[0]
            if not why:
                bad.append(Violation(
                    path=path, line=line, col=tok.start[1], code="NM001",
                    message="suppression without a justification: write "
                            "`# nm: allow[CODE] -- why this is safe`",
                    checker="engine",
                ))
                continue
            out[line] = Suppression(line=line, codes=codes, justification=why)
    except tokenize.TokenizeError:
        pass  # the parse error is reported as NM000 by check_source
    return out, bad


def virtual_path(source: str, fallback: str) -> str:
    """The tree location this module claims (``# nm-path:``) or ``fallback``."""
    m = _VPATH_RE.search(source[:2048])
    if m:
        return m.group("path")
    return fallback


def check_source(
    source: str,
    path: str,
    checkers: Sequence[type[Checker]] = ALL_CHECKERS,
    real_path: str = "",
) -> Report:
    """Analyze one module's source; ``path`` is the virtual repo path."""
    report = Report(files_checked=1)
    display = real_path or path
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        report.violations.append(Violation(
            path=display, line=exc.lineno or 1, col=(exc.offset or 1) - 1,
            code="NM000", message=f"file does not parse: {exc.msg}",
            checker="engine",
        ))
        return report
    suppressions, bad = _parse_suppressions(source, display)
    report.violations.extend(bad)
    ctx = FileContext(path=path, source=source, tree=tree, real_path=real_path)
    for cls in checkers:
        if not cls.applies_to(path):
            continue
        for violation in cls(ctx).run():
            sup = suppressions.get(violation.line)
            if sup is not None and violation.code in sup.codes:
                report.suppressed.append(Violation(
                    path=violation.path, line=violation.line,
                    col=violation.col, code=violation.code,
                    message=violation.message, checker=violation.checker,
                    suppressed=True, justification=sup.justification,
                ))
            else:
                report.violations.append(violation)
    return report


def check_file(
    filename: str,
    root: str = ".",
    checkers: Sequence[type[Checker]] = ALL_CHECKERS,
) -> Report:
    """Analyze one file; its virtual path is derived from ``root``."""
    with open(filename, encoding="utf-8") as fh:
        source = fh.read()
    rel = os.path.relpath(os.path.abspath(filename), os.path.abspath(root))
    rel = rel.replace(os.sep, "/")
    if rel.startswith("src/"):
        rel = rel[len("src/"):]
    return check_source(source, virtual_path(source, rel), checkers,
                        real_path=filename)


def iter_python_files(paths: Iterable[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames
                                     if d != "__pycache__"
                                     and not d.startswith("."))
                out.extend(os.path.join(dirpath, f)
                           for f in sorted(filenames) if f.endswith(".py"))
        else:
            out.append(path)
    return out


def check_paths(
    paths: Sequence[str],
    root: str = ".",
    checkers: Sequence[type[Checker]] = ALL_CHECKERS,
) -> Report:
    """Analyze every ``.py`` file under ``paths``."""
    report = Report()
    for filename in iter_python_files(paths):
        report.merge(check_file(filename, root=root, checkers=checkers))
    return report


def describe_checkers(checkers: Sequence[type[Checker]] | None = None) -> str:
    """Human-readable catalogue of checkers, codes, and scopes.

    Covers the per-file checkers AND the interprocedural (NM5xx) rules —
    imported lazily, because the interprocedural modules import this one.
    """
    if checkers is None:
        from tools.analysis.interproc import INTERPROC_CHECKERS

        checkers = (*ALL_CHECKERS, *INTERPROC_CHECKERS)
    lines = []
    for cls in checkers:
        scope = ", ".join(cls.scope) if cls.scope else "whole tree"
        lines.append(f"{cls.name}  (scope: {scope})")
        for code, desc in sorted(cls.codes.items()):
            lines.append(f"  {code}  {desc}")
    lines.append("engine")
    for code, desc in sorted(ENGINE_CODES.items()):
        lines.append(f"  {code}  {desc}")
    return "\n".join(lines)
