"""The project class graph the handler-effect analysis walks.

A handler's footprint includes every ``self._method()`` it reaches, and
those methods may live on a base class in another module, so
:mod:`repro.verify.effects` needs the class hierarchy across files:

* every file parsed once, keyed by its *repro-relative* path
  (``algorithms/awc.py``);
* per module, its classes (simple base names and methods) and the names
  its ``from ... import`` statements bring in;
* import resolution repro-relative: ``from .base import
  SingleVariableAgent`` inside ``algorithms/awc.py`` resolves to the class
  in ``algorithms/base.py`` when that file is part of the graph;
* a subclass closure, so the analysis can ask for every class that is
  (transitively) a :class:`~repro.runtime.agent.SimulatedAgent` without
  hard-coding the algorithm modules.

The graph is deliberately name-based and best-effort: unresolvable imports
(stdlib, third-party, files outside the graph) resolve to ``None``, which
the analysis treats as "unknown".
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


def scope_of_path(path: str) -> Optional[str]:
    """The repro-relative path of *path*, or None outside the package."""
    parts = Path(path).parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            remainder = parts[index + 1:]
            if remainder:
                return "/".join(remainder)
    return None


@dataclass
class ClassInfo:
    """One class definition."""

    name: str
    module: "ModuleInfo"
    #: Base class simple names (``SingleVariableAgent``; dotted bases keep
    #: only the final attribute).
    bases: Tuple[str, ...] = ()
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)

    def __repr__(self) -> str:
        return f"ClassInfo({self.module.scope}::{self.name})"


@dataclass
class ModuleInfo:
    """One parsed file: its scope, imported names and classes."""

    scope: str
    #: local name -> (source module repro-scope or dotted name, original name)
    import_names: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)

    def __repr__(self) -> str:
        return f"ModuleInfo({self.scope})"


class ProjectGraph:
    """Classes and import edges over a set of ``repro`` files."""

    def __init__(self) -> None:
        #: repro-relative scope -> module
        self.modules: Dict[str, ModuleInfo] = {}

    @classmethod
    def build(cls, paths: Iterable[str]) -> "ProjectGraph":
        """Parse every file in *paths* into one graph; unreadable files and
        files outside the ``repro`` package are skipped."""
        graph = cls()
        for path in paths:
            scope = scope_of_path(path)
            if scope is None:
                continue
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
            except OSError:
                continue
            graph.add_source(path, source, scope)
        return graph

    @classmethod
    def build_from_sources(
        cls, sources: Sequence[Tuple[str, str, str]]
    ) -> "ProjectGraph":
        """Build from in-memory ``(path, source, scope)`` triples."""
        graph = cls()
        for path, source, scope in sources:
            graph.add_source(path, source, scope)
        return graph

    def add_source(self, path: str, source: str, scope: str) -> None:
        """Parse and index one file; a syntax error or an already-taken
        *scope* leaves the graph unchanged."""
        if scope in self.modules:
            return
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            return
        module = ModuleInfo(scope=scope)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                target = _resolve_import_module(scope, node)
                if target is None:
                    continue
                for item in node.names:
                    module.import_names[item.asname or item.name] = (
                        target,
                        item.name,
                    )
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                module.classes[node.name] = _index_class(module, node)
        self.modules[scope] = module

    def resolve_class(
        self, module: ModuleInfo, name: str
    ) -> Optional[ClassInfo]:
        """The ClassInfo a bare *name* refers to inside *module*: a local
        definition, or a from-import from another module of the graph."""
        local = module.classes.get(name)
        if local is not None:
            return local
        origin = module.import_names.get(name)
        if origin is None:
            return None
        target = self.modules.get(origin[0])
        if target is None:
            return None
        return target.classes.get(origin[1])

    def all_classes(self) -> List[ClassInfo]:
        out: List[ClassInfo] = []
        for module in self.modules.values():
            out.extend(module.classes.values())
        return out

    def subclasses_of(self, base_name: str) -> Set[str]:
        """Names of classes that (transitively, by simple base name) derive
        from *base_name* — ``base_name`` itself included."""
        derived: Set[str] = {base_name}
        changed = True
        classes = self.all_classes()
        while changed:
            changed = False
            for info in classes:
                if info.name in derived:
                    continue
                if any(base in derived for base in info.bases):
                    derived.add(info.name)
                    changed = True
        return derived


def _resolve_import_module(
    scope: str, node: ast.ImportFrom
) -> Optional[str]:
    """The repro-relative scope (``runtime/random_source.py``) a
    ``from ... import`` in the module at *scope* pulls from, or its
    absolute dotted name."""
    if node.level == 0:
        dotted = node.module or ""
        if dotted.startswith("repro."):
            return dotted[len("repro."):].replace(".", "/") + ".py"
        return dotted or None
    # Relative import: walk up from this module's package.
    package = scope.split("/")[:-1]
    ups = node.level - 1
    if ups > len(package):
        return node.module
    base = package[: len(package) - ups] if ups else package
    parts = base + (node.module.split(".") if node.module else [])
    if not parts:
        return None
    return "/".join(parts) + ".py"


def _index_class(module: ModuleInfo, node: ast.ClassDef) -> ClassInfo:
    bases = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            bases.append(base.id)
        elif isinstance(base, ast.Attribute):
            bases.append(base.attr)
    info = ClassInfo(name=node.name, module=module, bases=tuple(bases))
    for item in node.body:
        if isinstance(item, ast.FunctionDef):
            info.methods[item.name] = item
    return info
