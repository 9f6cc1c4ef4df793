"""Project-wide symbol table and call graph for the NM5xx pass.

The per-file checkers (NM1xx–NM4xx) see one module at a time, which an
alias or a helper function silently defeats: ``d = win._by_dest`` followed
by ``d.pop(k)`` is invisible to a write-owner rule that only matches
attribute targets.  This module builds the whole-project view NM501 needs:

* a **symbol table** per module: module-level functions and classes with
  their methods;
* a **call graph**: best-effort resolution of ``name(...)``,
  ``self.meth(...)`` and ``obj.meth(...)`` call sites to project
  functions;
* **mutation summaries**: for every function, the set of positional
  parameters it mutates *as containers* (``append``/``pop``/subscript
  stores/…), propagated through calls to a fixpoint — this is what lets
  NM501 follow an owned container through a helper chain.

Known approximations (also documented in docs/STATIC_ANALYSIS.md):

* ``self.meth()`` resolves to the enclosing class first, then to *any*
  project method of that name; ``obj.meth()`` resolves by name across all
  classes.  Over-approximating receivers can only widen a summary, which
  errs towards reporting — and the repo's method names are distinctive
  enough that this is precise in practice.
* Aliases are tracked per function for plain local names only
  (``x = obj.field``); tuple unpacking, comprehension targets and
  attribute-to-attribute copies are not followed.
* Dynamic dispatch through values stored in containers and ``getattr``
  are invisible, as in any static pass.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field

from tools.analysis.engine import (
    Suppression,
    _parse_suppressions,
    iter_python_files,
    virtual_path,
)

#: Method names that mutate a list/set/dict/deque receiver in place.
MUTATING_METHODS = frozenset({
    "append", "extend", "add", "update", "insert", "remove", "discard",
    "pop", "popitem", "popleft", "appendleft", "clear", "setdefault",
    "sort", "reverse",
})


@dataclass
class FunctionInfo:
    """One function or method in the analyzed project."""

    module: str                                 # virtual repo path
    name: str                                   # bare name
    cls: str | None                             # enclosing class, if a method
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: tuple[str, ...] = ()                # positional params, incl. self

    @property
    def qualname(self) -> str:
        return f"{self.cls}.{self.name}" if self.cls else self.name

    @property
    def is_method(self) -> bool:
        return self.cls is not None and bool(self.params) \
            and self.params[0] in ("self", "cls")


@dataclass
class ModuleInfo:
    """Symbol table for one module."""

    path: str                                   # virtual repo path
    real_path: str                              # on-disk path (reporting)
    tree: ast.Module
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, dict[str, FunctionInfo]] = field(default_factory=dict)
    #: line -> justified suppression on that line.
    suppressions: dict[int, Suppression] = field(default_factory=dict)

    @property
    def report_path(self) -> str:
        return self.real_path or self.path


class Project:
    """Every analyzed module plus the cross-module resolution indices."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions_by_name: dict[str, list[FunctionInfo]] = {}
        self.methods_by_name: dict[str, list[FunctionInfo]] = {}
        self.class_methods: dict[str, dict[str, FunctionInfo]] = {}
        self._summaries: dict[int, frozenset[int]] | None = None

    # -- construction -------------------------------------------------------
    def add_module(self, mod: ModuleInfo) -> None:
        self.modules[mod.path] = mod
        for info in mod.functions.values():
            self.functions_by_name.setdefault(info.name, []).append(info)
        for cls, methods in mod.classes.items():
            merged = self.class_methods.setdefault(cls, {})
            for name, info in methods.items():
                merged.setdefault(name, info)
                self.methods_by_name.setdefault(name, []).append(info)

    def all_functions(self) -> list[FunctionInfo]:
        out: list[FunctionInfo] = []
        for mod in self.modules.values():
            out.extend(mod.functions.values())
            for methods in mod.classes.values():
                out.extend(methods.values())
        return out

    # -- call resolution ----------------------------------------------------
    def resolve_callable(
        self,
        module: ModuleInfo,
        cls: str | None,
        func: ast.expr,
    ) -> list[FunctionInfo]:
        """Project functions a callable expression may refer to.

        Empty list means "unknown" (builtin, stdlib, or too dynamic); the
        rules treat unknown callees conservatively per-rule.
        """
        if isinstance(func, ast.Name):
            local = module.functions.get(func.id)
            if local is not None:
                return [local]
            return list(self.functions_by_name.get(func.id, []))
        if isinstance(func, ast.Attribute):
            if (isinstance(func.value, ast.Name)
                    and func.value.id in ("self", "cls") and cls is not None):
                own = self.class_methods.get(cls, {}).get(func.attr)
                if own is not None:
                    return [own]
            return list(self.methods_by_name.get(func.attr, []))
        return []

    # -- mutation summaries --------------------------------------------------
    def mutation_summaries(self) -> dict[int, frozenset[int]]:
        """``id(info.node) -> positional params mutated as containers``.

        Computed once to a fixpoint over the call graph, so a helper that
        forwards its argument to a second helper that mutates it is still
        summarized as mutating.
        """
        if self._summaries is None:
            self._summaries = _compute_summaries(self)
        return self._summaries


def arg_to_param(
    callee: FunctionInfo, call: ast.Call, arg_index: int
) -> int | None:
    """Map positional argument ``arg_index`` of ``call`` to a callee param.

    A bound call (``obj.meth(x)``) skips the callee's ``self``/``cls``.
    """
    offset = 1 if (isinstance(call.func, ast.Attribute)
                   and callee.is_method) else 0
    pos = arg_index + offset
    if pos < len(callee.params):
        return pos
    return None


# -- project building ---------------------------------------------------------

def _collect_module(path: str, real_path: str, source: str) -> ModuleInfo:
    tree = ast.parse(source, filename=real_path or path)
    mod = ModuleInfo(path=path, real_path=real_path, tree=tree)
    suppressions, _bad = _parse_suppressions(source, mod.report_path)
    mod.suppressions = suppressions
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            mod.functions[node.name] = FunctionInfo(
                module=path, name=node.name, cls=None, node=node,
                params=_positional_params(node))
        elif isinstance(node, ast.ClassDef):
            mod.classes[node.name] = {
                item.name: FunctionInfo(
                    module=path, name=item.name, cls=node.name, node=item,
                    params=_positional_params(item))
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return mod


def _positional_params(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> tuple[str, ...]:
    args = node.args
    return tuple(a.arg for a in (*args.posonlyargs, *args.args))


def build_project(paths: list[str], root: str = ".") -> Project:
    """Parse every ``.py`` file under ``paths`` into a :class:`Project`.

    Files that fail to parse are skipped here — the per-file pass reports
    them as NM000, and a module that does not parse cannot contribute
    symbols anyway.
    """
    project = Project()
    for filename in iter_python_files(paths):
        try:
            with open(filename, encoding="utf-8") as fh:
                source = fh.read()
        except OSError:
            continue
        rel = os.path.relpath(os.path.abspath(filename), os.path.abspath(root))
        rel = rel.replace(os.sep, "/")
        if rel.startswith("src/"):
            rel = rel[len("src/"):]
        try:
            mod = _collect_module(virtual_path(source, rel), filename, source)
        except SyntaxError:
            continue
        project.add_module(mod)
    return project


# -- mutation summaries --------------------------------------------------------

def _direct_mutations_and_forwards(
    info: FunctionInfo,
) -> tuple[set[int], list[tuple[ast.Call, int, int]]]:
    """Params directly container-mutated, plus (call, arg_idx, param_idx)
    triples where a param is forwarded as a plain positional argument."""
    params = {name: i for i, name in enumerate(info.params)}
    # Plain local aliases of params (``q = pending``) count as the param.
    aliases: dict[str, int] = {}

    def param_of(expr: ast.expr) -> int | None:
        if isinstance(expr, ast.Name):
            if expr.id in params:
                return params[expr.id]
            return aliases.get(expr.id)
        return None

    mutated: set[int] = set()
    forwards: list[tuple[ast.Call, int, int]] = []
    for node in ast.walk(info.node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            src = param_of(node.value)
            name = node.targets[0].id
            if src is not None and name not in params:
                aliases[name] = src
            elif name in aliases and src is None:
                del aliases[name]
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATING_METHODS:
                idx = param_of(node.func.value)
                if idx is not None:
                    mutated.add(idx)
        if isinstance(node, ast.Call):
            for i, arg in enumerate(node.args):
                idx = param_of(arg)
                if idx is not None:
                    forwards.append((node, i, idx))
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target] if isinstance(node, ast.AugAssign) \
                else node.targets
            for target in targets:
                if isinstance(target, ast.Subscript):
                    idx = param_of(target.value)
                    if idx is not None:
                        mutated.add(idx)
    return mutated, forwards


def _compute_summaries(project: Project) -> dict[int, frozenset[int]]:
    infos = project.all_functions()
    direct: dict[int, set[int]] = {}
    forwards: dict[int, list[tuple[ast.Call, int, int]]] = {}
    for info in infos:
        d, f = _direct_mutations_and_forwards(info)
        direct[id(info.node)] = d
        forwards[id(info.node)] = f
    # Fixpoint: a forwarded param is mutated if any resolvable callee
    # mutates the receiving position.
    changed = True
    while changed:
        changed = False
        for info in infos:
            mod = project.modules[info.module]
            mine = direct[id(info.node)]
            for call, arg_idx, param_idx in forwards[id(info.node)]:
                if param_idx in mine:
                    continue
                for callee in project.resolve_callable(mod, info.cls,
                                                       call.func):
                    target = arg_to_param(callee, call, arg_idx)
                    if target is not None and \
                            target in direct.get(id(callee.node), ()):
                        mine.add(param_idx)
                        changed = True
                        break
    return {key: frozenset(val) for key, val in direct.items()}
