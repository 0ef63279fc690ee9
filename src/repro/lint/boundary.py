"""Cross-agent aliasing: mutable state every agent of a builder shares.

The simulators let agents reach the same mutable object, and nothing in a
trial's counts shows it. :func:`shared_agent_state` is an alias fixpoint
over agent builders: a mutable object passed loop-invariantly into more
than one :class:`~repro.runtime.agent.SimulatedAgent` constructor, stored
as agent state, and mutated by agent code is reachable from two agents at
once — they are coupled through state no message carries. Rule S3
(:mod:`repro.lint.rules_dist`) reports each such (builder, class,
attribute) triple. The result is memoised per graph (``graph.cached``).

Like the rest of the lint layer the analysis is name-based and
conservative in one direction only: an alias is reported when the
builder's loop and the constructor's ``self.attr = param`` are visible;
values of unknown provenance are assumed private.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .dataflow import _bind_arguments, iter_functions
from .effects import (
    AGENT_BASE,
    MUTATING_METHODS,
    READ_ONLY_METHODS,
    READ_ONLY_PREFIXES,
    _resolve_method,
)
from .graph import ClassInfo, FunctionInfo, ModuleInfo, ProjectGraph

@dataclass(frozen=True)
class SharedMutable:
    """A mutable object aliased by every agent a builder loop creates."""

    path: str
    scope: Optional[str]
    line: int
    builder: str
    class_name: str
    attr: str
    param: str
    argument: str
    node: ast.Call
    #: ``Class.method -> self.attr.mutator`` descriptions, sorted.
    mutations: Tuple[str, ...]


def _agent_classes(graph: ProjectGraph) -> Set[str]:
    return graph.cached(  # type: ignore[return-value]
        "simulated-agent-closure",
        lambda: graph.subclasses_of(AGENT_BASE),
    )


def _loop_bound_names(loop: ast.AST) -> Set[str]:
    """Names rebound on every iteration of *loop* (target + body stores)."""
    bound: Set[str] = set()
    targets: List[ast.expr] = []
    if isinstance(loop, (ast.For, ast.AsyncFor)):
        targets.append(loop.target)
    elif isinstance(loop, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        targets.extend(gen.target for gen in loop.generators)
    for target in targets:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                bound.add(node.id)
    for node in ast.walk(loop):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
    return bound


def _init_param_attrs(
    graph: ProjectGraph, cls: ClassInfo, _depth: int = 0
) -> Dict[str, str]:
    """param name -> stored ``self.<attr>`` for *cls*'s constructor.

    Follows ``super().__init__(...)`` positionally (depth-limited) so
    state stored by a base constructor is attributed to the derived
    class's parameters too.
    """
    if _depth > 3:
        return {}
    init = _resolve_method(graph, cls.module, cls, "__init__")
    if init is None:
        return {}
    node = init.node
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return {}
    params = [name for name in init.params if name not in ("self", "cls")]
    mapping: Dict[str, str] = {}
    for statement in ast.walk(node):
        if (
            isinstance(statement, ast.Assign)
            and isinstance(statement.value, ast.Name)
            and statement.value.id in params
        ):
            for target in statement.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    mapping[statement.value.id] = target.attr
        elif isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Call
        ):
            call = statement.value
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "__init__"
                and isinstance(call.func.value, ast.Call)
                and isinstance(call.func.value.func, ast.Name)
                and call.func.value.func.id == "super"
            ):
                for base_name in cls.bases:
                    base = graph.resolve_class(cls.module, base_name)
                    if base is None:
                        continue
                    base_map = _init_param_attrs(graph, base, _depth + 1)
                    base_init = _resolve_method(
                        graph, base.module, base, "__init__"
                    )
                    if base_init is None:
                        continue
                    base_params = [
                        name
                        for name in base_init.params
                        if name not in ("self", "cls")
                    ]
                    for index, argument in enumerate(call.args):
                        if (
                            isinstance(argument, ast.Name)
                            and argument.id in params
                            and index < len(base_params)
                        ):
                            attr = base_map.get(base_params[index])
                            if attr is not None:
                                mapping.setdefault(argument.id, attr)
                    for keyword in call.keywords:
                        if (
                            keyword.arg is not None
                            and isinstance(keyword.value, ast.Name)
                            and keyword.value.id in params
                        ):
                            attr = base_map.get(keyword.arg)
                            if attr is not None:
                                mapping.setdefault(keyword.value.id, attr)
                    break
    return mapping


def _attr_mutations(
    graph: ProjectGraph, cls: ClassInfo, attr: str
) -> List[str]:
    """``Class.method -> mutation`` descriptions of writes to ``self.attr``.

    A method call on the attribute counts as a write unless it is in the
    read-only vocabulary — same conservative stance as the effect
    analysis: shared state is only cleared when it provably stays clean.
    """
    mutations: Set[str] = set()
    classes: List[ClassInfo] = [cls]
    visited = {cls.name}
    while classes:
        current = classes.pop()
        for method in current.methods.values():
            node = method.node
            for inner in ast.walk(node):
                if isinstance(inner, ast.Call) and isinstance(
                    inner.func, ast.Attribute
                ):
                    receiver = inner.func.value
                    if (
                        isinstance(receiver, ast.Attribute)
                        and isinstance(receiver.value, ast.Name)
                        and receiver.value.id == "self"
                        and receiver.attr == attr
                    ):
                        name = inner.func.attr
                        if name in MUTATING_METHODS or not (
                            name in READ_ONLY_METHODS
                            or name.startswith(READ_ONLY_PREFIXES)
                        ):
                            mutations.add(
                                f"{current.name}.{method.name} -> "
                                f"self.{attr}.{name}(...)"
                            )
                elif isinstance(inner, (ast.Assign, ast.AugAssign)):
                    targets = (
                        inner.targets
                        if isinstance(inner, ast.Assign)
                        else [inner.target]
                    )
                    for target in targets:
                        base: Optional[ast.expr] = None
                        if isinstance(target, ast.Subscript):
                            base = target.value
                        elif isinstance(target, ast.Attribute):
                            base = target.value
                        if (
                            base is not None
                            and isinstance(base, ast.Attribute)
                            and isinstance(base.value, ast.Name)
                            and base.value.id == "self"
                            and base.attr == attr
                        ):
                            mutations.add(
                                f"{current.name}.{method.name} -> "
                                f"self.{attr} store"
                            )
        for base_name in current.bases:
            base_cls = graph.resolve_class(current.module, base_name)
            if base_cls is not None and base_cls.name not in visited:
                visited.add(base_cls.name)
                classes.append(base_cls)
    return sorted(mutations)


def shared_agent_state(graph: ProjectGraph) -> List[SharedMutable]:
    """Mutable objects aliased across agents by builder loops (memoised)."""

    def compute() -> List[SharedMutable]:
        agent_classes = _agent_classes(graph)
        found: List[SharedMutable] = []
        for path in sorted(graph.modules):
            module = graph.modules[path]
            for function in iter_functions(module):
                node = function.node
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                for loop in ast.walk(node):
                    if not isinstance(
                        loop,
                        (ast.For, ast.AsyncFor, ast.ListComp, ast.SetComp),
                    ):
                        continue
                    bound = _loop_bound_names(loop)
                    for call in ast.walk(loop):
                        if not (
                            isinstance(call, ast.Call)
                            and isinstance(call.func, ast.Name)
                            and call.func.id in agent_classes
                        ):
                            continue
                        ctor = graph.resolve_class(module, call.func.id)
                        if ctor is None:
                            continue
                        found.extend(
                            _shared_from_call(
                                graph,
                                module,
                                function,
                                loop,
                                bound,
                                call,
                                ctor,
                            )
                        )
        return found

    return graph.cached("shared-agent-state", compute)  # type: ignore[return-value]


def _shared_from_call(
    graph: ProjectGraph,
    module: ModuleInfo,
    function: FunctionInfo,
    loop: ast.AST,
    bound: Set[str],
    call: ast.Call,
    ctor: ClassInfo,
) -> Iterator[SharedMutable]:
    param_attrs = _init_param_attrs(graph, ctor)
    for param, argument in _bind_arguments(call, ctor):
        shared_name: Optional[str] = None
        if isinstance(argument, ast.Name) and argument.id not in bound:
            shared_name = argument.id
        elif (
            isinstance(argument, ast.Attribute)
            and isinstance(argument.value, ast.Name)
            and argument.value.id == "self"
        ):
            shared_name = f"self.{argument.attr}"
        if shared_name is None:
            continue
        attr = param_attrs.get(param)
        if attr is None:
            continue
        mutations = _attr_mutations(graph, ctor, attr)
        if not mutations:
            continue
        yield SharedMutable(
            path=module.path,
            scope=module.scope,
            line=call.lineno,
            builder=function.qualname,
            class_name=ctor.name,
            attr=attr,
            param=param,
            argument=shared_name,
            node=call,
            mutations=tuple(mutations),
        )


__all__ = ["SharedMutable", "shared_agent_state"]
