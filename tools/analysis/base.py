"""Shared machinery for the engine-invariant checkers.

A checker is an :class:`ast.NodeVisitor` that walks one parsed module and
reports :class:`Violation` records.  Checkers are *scoped*: each declares
which repo-relative module paths it applies to (the determinism rules bind
the scheduling core, not the wall-clock benchmarks), and the engine skips
files outside a checker's scope.

Paths are always **virtual repo-relative POSIX paths** such as
``repro/core/window.py`` — the ``src/`` prefix is stripped, so scope rules
and fixtures speak the same language.  A fixture file can impersonate any
location in the tree with a ``# nm-path: repro/core/strategies/evil.py``
comment in its first lines (see ``tests/analysis/fixtures/``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Violation:
    """One finding: a place in the tree that breaks an engine invariant."""

    path: str
    line: int
    col: int
    code: str
    message: str
    checker: str = ""
    suppressed: bool = False
    justification: str = ""

    def render(self) -> str:
        tail = f"  [suppressed: {self.justification}]" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}{tail}"


@dataclass
class FileContext:
    """Everything a checker may consult about the module under analysis."""

    path: str                       # virtual repo-relative POSIX path
    source: str
    tree: ast.Module
    real_path: str = ""             # on-disk path (for reporting)

    @property
    def report_path(self) -> str:
        return self.real_path or self.path


class Checker(ast.NodeVisitor):
    """Base class: subclass, set ``name``/``codes``, visit, ``report()``.

    ``scope`` is a tuple of virtual-path prefixes the checker applies to;
    an empty tuple means the whole tree.  ``codes`` maps each code the
    checker may emit to a one-line description (used by ``--list`` and the
    docs test).
    """

    name: str = ""
    codes: dict[str, str] = {}
    scope: tuple[str, ...] = ()

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.violations: list[Violation] = []

    @classmethod
    def applies_to(cls, path: str) -> bool:
        if not cls.scope:
            return True
        return any(path.startswith(prefix) for prefix in cls.scope)

    def report(self, node: ast.AST, code: str, message: str) -> None:
        if code not in self.codes:
            raise ValueError(f"{self.name} emitted undeclared code {code}")
        self.violations.append(Violation(
            path=self.ctx.report_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
            checker=self.name,
        ))

    def run(self) -> list[Violation]:
        self.visit(self.ctx.tree)
        return self.violations


def attr_chain_root(node: ast.expr) -> ast.expr:
    """The leftmost expression of an attribute chain (``a`` in ``a.b.c``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def is_self_access(node: ast.Attribute) -> bool:
    """True for ``self.X`` / ``cls.X`` (direct, not ``self.other.X``)."""
    return isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")


def _flatten_target(target: ast.expr) -> list[ast.expr]:
    if isinstance(target, ast.Tuple | ast.List):
        out: list[ast.expr] = []
        for elt in target.elts:
            out.extend(_flatten_target(elt))
        return out
    if isinstance(target, ast.Starred):
        return _flatten_target(target.value)
    return [target]


class WriteChecker(Checker):
    """A checker that sees every attribute an assignment-like statement
    writes (``=``, ``+=``, annotated, ``del``; tuple targets flattened)."""

    def check_write(self, stmt: ast.stmt, target: ast.Attribute) -> None:
        raise NotImplementedError

    def _visit_write(self, node: ast.Assign | ast.AugAssign | ast.AnnAssign
                     | ast.Delete) -> None:
        targets = (node.targets if isinstance(node, ast.Assign | ast.Delete)
                   else [node.target])
        for target in (t for top in targets for t in _flatten_target(top)):
            if isinstance(target, ast.Attribute):
                self.check_write(node, target)
        self.generic_visit(node)

    visit_Assign = visit_AugAssign = visit_AnnAssign = visit_Delete = \
        _visit_write
