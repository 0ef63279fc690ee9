"""Hot-path designation: which functions the allocation rules police.

The H rules (H1-H4, :mod:`repro.lint.rules_alloc`) only make sense on code
that runs *per message* or *per consultation* — flagging a one-time setup
allocation would be noise. This module decides what counts as hot:

* **Roots** come from two places. Built-in policy: every ``step``/
  ``initialize`` handler on a (transitive) :class:`SimulatedAgent`
  subclass, and every public method of a (transitive) ``NogoodStore``
  subclass — the batch consultation entry points (``violated_*_batch``)
  and ``for_value`` included. Committed policy: a ``hotpaths.toml`` next
  to the tree (seeded from ``repro solve --profile`` cumtime output) adds
  whole modules and individual ``scope::Qualified.name`` entries. An
  item that names no module or function is reported (rule X0, see
  :func:`unresolved_items`), never dropped silently.
* **Closure**: the hot set is the transitive closure of those roots over
  :class:`~repro.lint.graph.ProjectGraph` call edges — bare-name calls
  resolved through imports, ``self.method()`` calls resolved through the
  class and its (name-resolvable) bases. A helper only called from a hot
  handler is as hot as the handler.

Dunder methods are never hot: ``__init__`` runs once per object, and the
rules are about steady-state dispatch, not construction. The whole
analysis is memoised on the graph, so every H rule and every file of a run
shares one computation.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .graph import ClassInfo, FunctionInfo, ProjectGraph

try:  # Python 3.11+
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - exercised on 3.10 CI only
    tomllib = None  # type: ignore[assignment]

#: File name of the committed hot-path policy, searched upward from the
#: linted file (repo root in practice).
CONFIG_FILENAME = "hotpaths.toml"


@dataclass(frozen=True)
class HotConfig:
    """The hot-root policy; the built-in default matches the repo layout."""

    #: Classes whose subclass closure contributes handler-method roots.
    agent_classes: Tuple[str, ...] = ("SimulatedAgent",)
    #: The simulator-protocol handlers on those classes.
    agent_methods: Tuple[str, ...] = ("step", "initialize")
    #: Classes whose subclass closure contributes *every* public method
    #: (the store consultation surface: for_value, violated_*_batch, ...).
    store_classes: Tuple[str, ...] = ("NogoodStore",)
    #: Repro-relative modules whose every function/method is hot.
    modules: Tuple[str, ...] = ()
    #: Individual profile-observed roots, as ``scope::Qualified.name``.
    entries: Tuple[str, ...] = ()

    def token(self) -> str:
        """A stable cache key for this policy."""
        return repr(
            (
                self.agent_classes,
                self.agent_methods,
                self.store_classes,
                self.modules,
                self.entries,
            )
        )


DEFAULT_CONFIG = HotConfig()

#: Parsed-config cache keyed by resolved toml path ("" = no file found).
_config_cache: Dict[str, HotConfig] = {}


def find_config_file(start: Path) -> Optional[Path]:
    """The nearest ``hotpaths.toml`` at or above *start* (file or dir)."""
    current = start if start.is_absolute() else Path.cwd() / start
    if current.suffix:  # a file path (possibly not existing yet)
        current = current.parent
    for candidate in (current, *current.parents):
        config = candidate / CONFIG_FILENAME
        try:
            if config.is_file():
                return config
        except OSError:  # pragma: no cover - unreadable directory
            continue
    return None


def load_hot_config(start: Path) -> HotConfig:
    """The policy governing files under *start* (built-in + toml merge)."""
    config_path = find_config_file(start)
    key = str(config_path) if config_path is not None else ""
    cached = _config_cache.get(key)
    if cached is not None:
        return cached
    if config_path is None:
        config = DEFAULT_CONFIG
    else:
        config = parse_hot_config(config_path.read_text(encoding="utf-8"))
    _config_cache[key] = config
    return config


def parse_hot_config(text: str) -> HotConfig:
    """Merge a ``hotpaths.toml`` text over the built-in default policy.

    Recognised keys, all under ``[hot]`` and all optional:
    ``agent_classes``, ``agent_methods``, ``store_classes``, ``modules``,
    ``entries`` — each an array of strings. Unknown keys are ignored so a
    newer toml keeps working with an older checker.
    """
    data = _load_toml(text).get("hot", {})

    def strings(key: str, default: Tuple[str, ...]) -> Tuple[str, ...]:
        value = data.get(key)
        if not isinstance(value, list):
            return default
        return tuple(str(item) for item in value)

    return HotConfig(
        agent_classes=strings("agent_classes", DEFAULT_CONFIG.agent_classes),
        agent_methods=strings("agent_methods", DEFAULT_CONFIG.agent_methods),
        store_classes=strings("store_classes", DEFAULT_CONFIG.store_classes),
        modules=strings("modules", DEFAULT_CONFIG.modules),
        entries=strings("entries", DEFAULT_CONFIG.entries),
    )


def _load_toml(text: str) -> Dict[str, object]:
    if tomllib is not None:
        try:
            return tomllib.loads(text)
        except tomllib.TOMLDecodeError:
            return {}
    return _parse_toml_subset(text)


_SECTION = re.compile(r"^\[(?P<name>[A-Za-z0-9_.-]+)\]\s*$")
_KEY = re.compile(r"^(?P<key>[A-Za-z0-9_-]+)\s*=\s*(?P<rest>.*)$")
_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"')


def _parse_toml_subset(text: str) -> Dict[str, object]:
    """Minimal TOML reader for Python 3.10 (no :mod:`tomllib`).

    Supports exactly what :func:`parse_hot_config` needs — ``[section]``
    headers, ``key = [...]`` string arrays (single- or multi-line), and
    ``#`` comments. Anything else is skipped.
    """
    result: Dict[str, object] = {}
    section: Dict[str, object] = result
    pending_key: Optional[str] = None
    pending: List[str] = []
    in_array = False
    for raw in text.splitlines():
        line = raw.strip()
        if in_array:
            pending.extend(match.group(1) for match in _STRING.finditer(line))
            if "]" in line.split("#", 1)[0]:
                section[pending_key or ""] = list(pending)
                pending_key, pending, in_array = None, [], False
            continue
        if not line or line.startswith("#"):
            continue
        header = _SECTION.match(line)
        if header is not None:
            table: Dict[str, object] = {}
            result[header.group("name")] = table
            section = table
            continue
        assignment = _KEY.match(line)
        if assignment is None:
            continue
        rest = assignment.group("rest").strip()
        if not rest.startswith("["):
            continue  # only arrays are part of the subset
        values = [match.group(1) for match in _STRING.finditer(rest)]
        if "]" in rest.split("#", 1)[0]:
            section[assignment.group("key")] = values
        else:
            pending_key = assignment.group("key")
            pending = values
            in_array = True
    return result


@dataclass
class HotSet:
    """The resolved hot functions of one graph under one policy."""

    #: ``id(ast node)`` of each hot function/method definition.
    node_ids: Set[int] = field(default_factory=set)
    #: Human-readable labels, ``scope::Qualified.name``, for reporting.
    labels: Dict[int, str] = field(default_factory=dict)
    #: Labels of the roots (pre-closure), for explain/debug output.
    roots: Set[str] = field(default_factory=set)

    def is_hot(self, node: ast.AST) -> bool:
        return id(node) in self.node_ids

    def label(self, node: ast.AST) -> str:
        return self.labels.get(id(node), "<unknown>")

    def __len__(self) -> int:
        return len(self.node_ids)


def hot_set_for(graph: ProjectGraph, path: str) -> HotSet:
    """The memoised hot set of *graph* under the policy governing *path*."""
    config = load_hot_config(Path(path))
    key = f"hotpaths::{config.token()}"
    return graph.cached(  # type: ignore[return-value]
        key, lambda: compute_hot_set(graph, config)
    )


def compute_hot_set(
    graph: ProjectGraph, config: HotConfig = DEFAULT_CONFIG
) -> HotSet:
    """Roots per *config*, then transitive closure over call edges."""
    hot = HotSet()
    worklist: List[FunctionInfo] = []

    def add(info: FunctionInfo, root: bool = False) -> None:
        if info.name.startswith("__"):
            return  # dunders are construction/representation, not dispatch
        if id(info.node) in hot.node_ids:
            return
        hot.node_ids.add(id(info.node))
        label = f"{info.module.scope or info.module.path}::{info.qualname}"
        hot.labels[id(info.node)] = label
        if root:
            hot.roots.add(label)
        worklist.append(info)

    agent_names: Set[str] = set()
    for base in config.agent_classes:
        agent_names |= graph.subclasses_of(base)
    store_names: Set[str] = set()
    for base in config.store_classes:
        store_names |= graph.subclasses_of(base)
    for cls in graph.all_classes():
        if cls.name in agent_names:
            for method_name in config.agent_methods:
                method = cls.methods.get(method_name)
                if method is not None:
                    add(method, root=True)
        if cls.name in store_names:
            for method in cls.methods.values():
                add(method, root=True)
    for module in graph.modules.values():
        if module.scope in config.modules:
            for function in module.functions.values():
                add(function, root=True)
            for cls in module.classes.values():
                for method in cls.methods.values():
                    add(method, root=True)
    for entry in config.entries:
        info = _resolve_entry(graph, entry)
        if info is not None:
            add(info, root=True)

    while worklist:
        caller = worklist.pop()
        for callee in _callees(graph, caller):
            add(callee)
    return hot


def _resolve_entry(
    graph: ProjectGraph, entry: str
) -> Optional[FunctionInfo]:
    """``scope::Qualified.name`` → FunctionInfo, or None if absent."""
    scope, _, qualname = entry.partition("::")
    module = graph.module_by_scope(scope)
    if module is None or not qualname:
        return None
    if "." in qualname:
        class_name, _, method_name = qualname.partition(".")
        cls = module.classes.get(class_name)
        if cls is None:
            return None
        return cls.methods.get(method_name)
    return module.functions.get(qualname)


def _callees(
    graph: ProjectGraph, caller: FunctionInfo
) -> Iterator[FunctionInfo]:
    """Call edges out of *caller* that resolve inside the graph."""
    module = caller.module
    own_class = (
        module.classes.get(caller.class_name)
        if caller.class_name is not None
        else None
    )
    for node in ast.walk(caller.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            resolved = graph.resolve_function(module, func.id)
            if resolved is not None:
                yield resolved
        elif isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id == "self":
                if own_class is not None:
                    method = _method_on(graph, own_class, func.attr)
                    if method is not None:
                        yield method
            elif isinstance(base, ast.Name):
                # module-alias call: `helpers.f()` where `import x as helpers`
                dotted = module.import_modules.get(base.id)
                if dotted is not None and dotted.startswith("repro."):
                    scope = dotted[len("repro."):].replace(".", "/") + ".py"
                    target = graph.module_by_scope(scope)
                    if target is not None:
                        resolved = target.functions.get(func.attr)
                        if resolved is not None:
                            yield resolved


def _method_on(
    graph: ProjectGraph,
    cls: ClassInfo,
    name: str,
    _seen: Optional[Set[int]] = None,
) -> Optional[FunctionInfo]:
    """Method lookup through *cls* and its name-resolvable base chain."""
    seen = _seen if _seen is not None else set()
    if id(cls) in seen:
        return None
    seen.add(id(cls))
    method = cls.methods.get(name)
    if method is not None:
        return method
    for base_name in cls.bases:
        base = graph.resolve_class(cls.module, base_name)
        if base is None:
            continue
        found = _method_on(graph, base, name, seen)
        if found is not None:
            return found
    return None


def unresolved_items(
    graph: ProjectGraph, config: HotConfig, package_root: Path
) -> List[str]:
    """The ``modules`` and ``entries`` items of *config* that name nothing.

    An item resolves against *graph* when its module is part of the run,
    else against the module's file under *package_root*, so linting part
    of the tree still catches a stale item.
    """
    missing: List[str] = []
    for scope in config.modules:
        if graph.module_by_scope(scope) is None and not (
            package_root / scope
        ).is_file():
            missing.append(scope)
    for entry in config.entries:
        scope = entry.partition("::")[0]
        source = graph
        if graph.module_by_scope(scope) is None:
            path = package_root / scope
            if not path.is_file():
                missing.append(entry)
                continue
            source = ProjectGraph.build_from_sources(
                [(str(path), path.read_text(encoding="utf-8"), scope)]
            )
        if _resolve_entry(source, entry) is None:
            missing.append(entry)
    return missing


def hot_modules_of(config: HotConfig) -> Tuple[str, ...]:
    """The whole-module hot scopes (exported for docs/explain output)."""
    return config.modules


def describe_hot_set(hot: HotSet) -> str:
    """A deterministic multi-line summary (used by tests and debugging)."""
    lines = [f"{len(hot)} hot function(s), {len(hot.roots)} root(s)"]
    lines.extend(sorted(hot.labels.values()))
    return "\n".join(lines)


__all__ = [
    "CONFIG_FILENAME",
    "HotConfig",
    "HotSet",
    "DEFAULT_CONFIG",
    "compute_hot_set",
    "describe_hot_set",
    "find_config_file",
    "hot_set_for",
    "load_hot_config",
    "parse_hot_config",
    "unresolved_items",
]
