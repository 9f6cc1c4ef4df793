"""NM501: write-owner escape (interprocedural).

The per-file NM302 matches *assignments to attributes*:
``win._by_dest[d] = q`` never matches, because the assignment target is a
subscript; ``d = win._by_dest; d.pop(k)`` never matches, because the
mutation happens through a local alias; and ``helper(win._common)`` never
matches if ``helper`` lives in another module and does the ``append``
there.  NM501 closes all three holes: an owned field (a
``lifecycle.WRITE_OWNERS`` row, the table NM302 reads) may not be
*container-mutated* outside its owner module, whether directly, through an
alias, or through a helper chain (resolved via the project call graph's
mutation summaries).  ``self``-access is exempt, exactly as in NM302.
"""

from __future__ import annotations

import ast

from tools.analysis.base import Violation, is_self_access
from tools.analysis.callgraph import (
    MUTATING_METHODS,
    FunctionInfo,
    ModuleInfo,
    Project,
    arg_to_param,
)
from tools.analysis.lifecycle import foreign_owner


class WriteOwnerEscapeRule:
    """Container mutation of another layer's owned field (see module doc)."""

    name = "escape"
    codes = {
        "NM501": "owned field container-mutated outside its owner module "
                 "(directly, via an alias, or via a helper chain)",
    }
    scope = ("repro/",)

    def __init__(self, project: Project) -> None:
        self.project = project
        self.violations: list[Violation] = []

    def run(self) -> list[Violation]:
        summaries = self.project.mutation_summaries()
        for info in self.project.all_functions():
            mod = self.project.modules[info.module]
            if mod.path.startswith(self.scope):
                self._check_function(mod, info, summaries)
        return self.violations

    def _check_function(
        self,
        mod: ModuleInfo,
        info: FunctionInfo,
        summaries: dict[int, frozenset[int]],
    ) -> None:
        #: local name -> (field, owner) for ``x = other.owned_field``.
        tainted: dict[str, tuple[str, str]] = {}

        def taint_of(expr: ast.expr) -> tuple[str, str] | None:
            if isinstance(expr, ast.Attribute) and not is_self_access(expr):
                owner = foreign_owner(mod.path, expr.attr)
                return None if owner is None else (expr.attr, owner)
            if isinstance(expr, ast.Name):
                return tainted.get(expr.id)
            return None

        # ast.walk is breadth-first; taint tracking needs source order.
        nodes = sorted(
            ast.walk(info.node),
            key=lambda n: (getattr(n, "lineno", 0),
                           getattr(n, "col_offset", 0)),
        )
        for node in nodes:
            # Alias creation / invalidation.
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                source = taint_of(node.value)
                if source is not None and not isinstance(node.value, ast.Name):
                    tainted[name] = source
                elif isinstance(node.value, ast.Name) \
                        and node.value.id in tainted:
                    tainted[name] = tainted[node.value.id]
                elif name in tainted:
                    del tainted[name]
            # Direct or aliased mutating method call.
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATING_METHODS:
                hit = taint_of(node.func.value)
                if hit is not None:
                    field, owner = hit
                    self._report(mod, node, field, owner,
                                 f".{node.func.attr}() mutation")
            # Subscript store / delete / augassign through field or alias.
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = node.targets if not isinstance(node, ast.AugAssign) \
                    else [node.target]
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        hit = taint_of(target.value)
                        if hit is not None:
                            field, owner = hit
                            self._report(mod, target, field, owner,
                                         "subscript store")
            # Helper chain: owned field (or alias) passed to a mutator.
            if isinstance(node, ast.Call):
                callees = self.project.resolve_callable(mod, info.cls,
                                                        node.func)
                if not callees:
                    continue
                for i, arg in enumerate(node.args):
                    hit = taint_of(arg)
                    if hit is None:
                        continue
                    for callee in callees:
                        pos = arg_to_param(callee, node, i)
                        if pos is None:
                            continue
                        if pos in summaries.get(id(callee.node), ()):
                            field, owner = hit
                            self._report(
                                mod, node, field, owner,
                                f"helper chain via "
                                f"{callee.module}:{callee.qualname}()")
                            break

    def _report(self, mod: ModuleInfo, node: ast.AST, field: str,
                owner: str, how: str) -> None:
        self.violations.append(Violation(
            path=mod.report_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code="NM501",
            message=f"{how} of {field!r}, owned by {owner}; mutate it "
                    "through the owner's API (aliasing does not transfer "
                    "ownership)",
            checker=self.name,
        ))

