"""Driver for the interprocedural (NM5xx) pass.

Unlike the per-file checkers, these rules need the whole project in view
— a symbol table and call graph built by :mod:`tools.analysis.callgraph`
— so they run as a separate pass over a :class:`Project` rather than a
:class:`FileContext`.  ``python -m tools.analysis --interprocedural``
adds this pass to the per-file one; tests call :func:`check_project`
directly so fixture directories can exercise one rule without the
per-file codes contaminating the result.

Suppression works exactly as in the per-file pass: a trailing
``# nm: allow[NM5xx] -- why`` on the flagged line.  Malformed
suppressions are NOT re-reported here (the per-file pass already emits
NM001 for them).
"""

from __future__ import annotations

from collections.abc import Sequence

from tools.analysis.base import Violation
from tools.analysis.callgraph import Project, build_project
from tools.analysis.engine import Report
from tools.analysis.escape import WriteOwnerEscapeRule
from tools.analysis.framekinds import FrameKindRule
from tools.analysis.statsbalance import StatsBalanceRule

INTERPROC_CHECKERS = (
    WriteOwnerEscapeRule,
    FrameKindRule,
    StatsBalanceRule,
)


def check_project(
    paths: Sequence[str],
    root: str = ".",
    checkers: Sequence[type] = INTERPROC_CHECKERS,
) -> Report:
    """Run the interprocedural rules over every ``.py`` file in ``paths``."""
    project = build_project(list(paths), root=root)
    return run_rules(project, checkers)


def run_rules(
    project: Project,
    checkers: Sequence[type] = INTERPROC_CHECKERS,
) -> Report:
    report = Report(files_checked=len(project.modules))
    by_report_path = {mod.report_path: mod for mod in project.modules.values()}
    for cls in checkers:
        rule = cls(project)
        for violation in rule.run():
            mod = by_report_path.get(violation.path)
            sup = mod.suppressions.get(violation.line) if mod else None
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
