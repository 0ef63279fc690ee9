"""The project symbol/import graph shared by the whole-program analyses.

A file-local rule sees one ``ast.Module`` and nothing else. Agent code
reaching around the message protocol (rule A1) and the handler-effect
table the interleaving verifier prunes with
(:mod:`repro.lint.effects`) need the class hierarchy across files, so
the analyzer keeps one shared picture of the whole tree:

* every file parsed **once** (the engine reuses these ASTs instead of
  re-parsing per rule — this cache is what keeps a full-tree run under the
  10-second budget);
* a symbol table per module: top-level functions, classes and methods;
* import resolution repro-relative: ``from ..core.assignment import
  AgentView`` inside ``algorithms/awc.py`` resolves to the class object in
  ``core/assignment.py`` when that file is part of the run;
* a subclass closure, so a rule can ask "every class that is (transitively)
  a :class:`~repro.runtime.agent.SimulatedAgent`" without hard-coding the
  algorithm modules.

The graph is deliberately name-based and best-effort: unresolvable imports
(stdlib, third-party, files outside the run) resolve to ``None`` and rules
must treat that as "unknown", never as "safe" or "unsafe" on its own.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: The scope-pinning control comment (``module=<relpath>`` after the tool
#: marker), re-parsed here with a cheap regex — the suppression parser
#: tokenizes fully; the graph only needs the scope.
_MODULE_PRAGMA = re.compile(r"#\s*repro-lint:\s*module=(?P<path>\S+)")


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
class FunctionInfo:
    """One function or method definition."""

    name: str
    qualname: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    module: "ModuleInfo"
    #: Enclosing class name for methods, None for module-level functions.
    class_name: Optional[str] = None

    def __repr__(self) -> str:
        return f"FunctionInfo({self.module.scope or self.module.path}::{self.qualname})"


@dataclass
class ClassInfo:
    """One class definition."""

    name: str
    node: ast.ClassDef
    module: "ModuleInfo"
    #: Base class simple names (``SingleVariableAgent``; dotted bases keep
    #: only the final attribute).
    bases: Tuple[str, ...] = ()
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)

    def __repr__(self) -> str:
        return f"ClassInfo({self.module.scope or self.module.path}::{self.name})"


@dataclass
class ModuleInfo:
    """One parsed file: AST, scope, imports, and top-level symbols."""

    path: str
    scope: Optional[str]
    tree: ast.Module
    source: str
    lines: List[str]
    #: local alias -> imported module dotted name (``import x.y as z``)
    import_modules: Dict[str, str] = field(default_factory=dict)
    #: local name -> (source module repro-scope or dotted name, original name)
    import_names: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)

    def __repr__(self) -> str:
        return f"ModuleInfo({self.scope or self.path})"


class ProjectGraph:
    """Symbols and import edges over every file of one lint run."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        #: repro-relative scope -> module (files outside the package or with
        #: colliding pragma scopes keep only path-keyed entries).
        self.by_scope: Dict[str, ModuleInfo] = {}
        self._analysis_cache: Dict[str, object] = {}

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(cls, paths: Iterable[str]) -> "ProjectGraph":
        """Parse every file in *paths* into one graph; unreadable or
        unparseable files are skipped (the engine reports those itself)."""
        graph = cls()
        for path in paths:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
            except OSError:
                continue
            graph.add_source(path, source)
        return graph

    @classmethod
    def build_from_sources(
        cls, sources: Sequence[Tuple[str, str, Optional[str]]]
    ) -> "ProjectGraph":
        """Build from in-memory ``(path, source, scope)`` triples."""
        graph = cls()
        for path, source, scope in sources:
            graph.add_source(path, source, scope=scope)
        return graph

    def add_source(
        self, path: str, source: str, scope: Optional[str] = None
    ) -> Optional[ModuleInfo]:
        """Parse and index one file; returns its ModuleInfo (None on
        syntax errors)."""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            return None
        if scope is None:
            pragma = _MODULE_PRAGMA.search(source)
            scope = pragma.group("path") if pragma else scope_of_path(path)
        module = ModuleInfo(
            path=path,
            scope=scope,
            tree=tree,
            source=source,
            lines=source.splitlines(),
        )
        self._index_imports(module)
        self._index_symbols(module)
        self.modules[path] = module
        if scope is not None and scope not in self.by_scope:
            self.by_scope[scope] = module
        return module

    # -- indexing --------------------------------------------------------------

    def _index_imports(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    module.import_modules[item.asname or item.name] = item.name
            elif isinstance(node, ast.ImportFrom):
                target = self._resolve_import_module(module, node)
                if target is None:
                    continue
                for item in node.names:
                    module.import_names[item.asname or item.name] = (
                        target,
                        item.name,
                    )

    @staticmethod
    def _resolve_import_module(
        module: ModuleInfo, node: ast.ImportFrom
    ) -> Optional[str]:
        """The repro-relative scope (``runtime/random_source.py``) a
        ``from ... import`` pulls from, or its absolute dotted name."""
        if node.level == 0:
            dotted = node.module or ""
            if dotted.startswith("repro."):
                return dotted[len("repro."):].replace(".", "/") + ".py"
            return dotted or None
        # Relative import: walk up from this module's package.
        if module.scope is None:
            return node.module
        package = module.scope.split("/")[:-1]
        ups = node.level - 1
        if ups > len(package):
            return node.module
        base = package[: len(package) - ups] if ups else package
        parts = base + (node.module.split(".") if node.module else [])
        if not parts:
            return None
        return "/".join(parts) + ".py"

    def _index_symbols(self, module: ModuleInfo) -> None:
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    name=node.name,
                    qualname=node.name,
                    node=node,
                    module=module,
                )
                module.functions[node.name] = info
            elif isinstance(node, ast.ClassDef):
                module.classes[node.name] = self._index_class(module, node)

    def _index_class(self, module: ModuleInfo, node: ast.ClassDef) -> ClassInfo:
        bases = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                bases.append(base.id)
            elif isinstance(base, ast.Attribute):
                bases.append(base.attr)
        info = ClassInfo(
            name=node.name,
            node=node,
            module=module,
            bases=tuple(bases),
        )
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[item.name] = FunctionInfo(
                    name=item.name,
                    qualname=f"{node.name}.{item.name}",
                    node=item,
                    module=module,
                    class_name=node.name,
                )
        return info

    # -- queries ---------------------------------------------------------------

    def module_at(self, path: str) -> Optional[ModuleInfo]:
        return self.modules.get(path)

    def resolve_class(
        self, module: ModuleInfo, name: str
    ) -> Optional[ClassInfo]:
        """The ClassInfo a bare *name* refers to inside *module*: a local
        definition, or a from-import into another module of the run."""
        local = module.classes.get(name)
        if local is not None:
            return local
        origin = module.import_names.get(name)
        if origin is None:
            return None
        target = self.by_scope.get(origin[0])
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

    # -- shared analysis cache --------------------------------------------------

    def cached(self, key: str, compute: "object") -> object:
        """Memoise *compute()* under *key* for the lifetime of the graph.

        Rules share one graph per run; expensive whole-program analyses
        (handler effects, shared-state aliases, allocation sites) are
        computed once and reused by every rule and every file.
        """
        if key not in self._analysis_cache:
            self._analysis_cache[key] = compute()  # type: ignore[operator]
        return self._analysis_cache[key]

