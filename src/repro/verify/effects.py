"""Handler-effect analysis: read/write footprints and commutativity.

The asynchronous model only guarantees per-channel FIFO delivery —
messages from *distinct* senders may reach an agent in either order, and
the random-delay networks and the verifier's scheduled network exercise
exactly that freedom. Whether a reordering can
change a trial's outcome is a property of the *handlers*: two handler
invocations commute iff their state footprints do not conflict (neither
writes what the other reads or writes).

This module computes, for every message handler in the
:class:`~repro.runtime.agent.SimulatedAgent` closure, the set of agent
attributes it reads and writes — the *effect footprint* — and derives the
commutativity matrix over handler pairs. A *handler* is the body of an
``isinstance(message, SomeMessage)`` dispatch branch plus everything it
reaches through ``self._method()`` calls within the class (bases included,
resolved name-based through the
:class:`~repro.verify.graph.ProjectGraph`).

Its consumer is the DPOR schedule explorer (:mod:`repro.verify`), which
uses the matrix to prune equivalent delivery orders — deliveries to the
same agent whose handlers commute need only be explored in one order.

The analysis is deliberately conservative: an attribute method it cannot
classify as read-only counts as a write, so "commutes" is only reported
when it provably holds on the footprint level.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .graph import ClassInfo, ProjectGraph

#: Attribute methods that only consult state (no footprint write). The
#: counted store queries, the view accessors, and generic container reads.
READ_ONLY_METHODS = frozenset(
    {
        # store consultation (every counted check, single and batch)
        "is_violated", "violated", "is_consistent", "violated_higher",
        "count_violated", "count_violated_higher", "count_violated_lower",
        "violated_batch", "count_violated_batch", "violated_higher_batch",
        "count_violated_higher_batch", "count_violated_lower_batch",
        "charge_violated_batch", "for_value", "nogoods",
        "priority_key_of", "is_higher", "outranking",
        # AgentView accessors
        "knows", "value_of", "priority_of", "highest_priority", "items",
        "as_assignment", "variables",
        # problem/structure accessors (immutable per trial)
        "owner_of", "variables_of", "domain_of", "neighbors_of",
        "relevant_nogoods", "local_nogoods", "is_solution",
        # learning policy queries
        "should_record", "make_nogood",
        # generic containers / misc
        "get", "keys", "values", "copy", "count", "index", "issubset",
        "issuperset", "isdisjoint", "union", "intersection", "difference",
    }
)

#: Method-name prefixes assumed read-only when the name is unknown.
READ_ONLY_PREFIXES = ("is_", "has_", "count_", "sorted_")

#: The base class whose subclass closure defines "agent code".
AGENT_BASE = "SimulatedAgent"

#: Message classes are recognized by this suffix (the repo convention:
#: OkMessage, NogoodMessage, ...). Name-based like the rest of the graph.
MESSAGE_SUFFIX = "Message"


@dataclass(frozen=True)
class HandlerEffect:
    """The effect footprint of one (agent class, message type) handler."""

    class_name: str
    message_type: str
    reads: FrozenSet[str]
    writes: FrozenSet[str]

    def conflicts_with(self, other: "HandlerEffect") -> FrozenSet[str]:
        """The attributes on which this handler conflicts with *other*.

        Standard footprint conflict: a write on one side meeting a read or
        write on the other. Empty means the two invocations commute.
        """
        return (self.writes & (other.reads | other.writes)) | (
            other.writes & self.reads
        )

    def commutes_with(self, other: "HandlerEffect") -> bool:
        return not self.conflicts_with(other)


#: (class name) -> {message type -> HandlerEffect}
EffectTable = Dict[str, Dict[str, HandlerEffect]]

#: (class name, message type A, message type B) -> commutes?
CommutativityMatrix = Dict[Tuple[str, str, str], bool]


def handler_effects(graph: ProjectGraph) -> EffectTable:
    """The effect table for every agent class in *graph*."""
    agent_classes = graph.subclasses_of(AGENT_BASE)
    table: EffectTable = {}
    for module in graph.modules.values():
        for cls in module.classes.values():
            if cls.name not in agent_classes or cls.name == AGENT_BASE:
                continue
            handlers = _class_handler_effects(graph, cls)
            if handlers:
                table[cls.name] = handlers
    return table


def commutativity_matrix(effects: EffectTable) -> CommutativityMatrix:
    """Pairwise commutativity over each class's handlers.

    Symmetric by construction; the diagonal ``(cls, M, M)`` covers two
    deliveries of the *same* message type from distinct senders, which the
    transport may also reorder.
    """
    matrix: CommutativityMatrix = {}
    for class_name, handlers in effects.items():
        types = sorted(handlers)
        for type_a in types:
            for type_b in types:
                matrix[(class_name, type_a, type_b)] = handlers[
                    type_a
                ].commutes_with(handlers[type_b])
    return matrix


def format_matrix(effects: EffectTable) -> str:
    """A human-readable rendering of footprints and the matrix."""
    matrix = commutativity_matrix(effects)
    out: List[str] = []
    for class_name in sorted(effects):
        handlers = effects[class_name]
        out.append(f"{class_name}:")
        for message_type in sorted(handlers):
            effect = handlers[message_type]
            out.append(
                f"  {message_type}: reads={sorted(effect.reads)} "
                f"writes={sorted(effect.writes)}"
            )
        types = sorted(handlers)
        for index, type_a in enumerate(types):
            for type_b in types[index:]:
                commutes = matrix[(class_name, type_a, type_b)]
                if not commutes:
                    conflict = handlers[type_a].conflicts_with(
                        handlers[type_b]
                    )
                    out.append(
                        f"  {type_a} × {type_b}: CONFLICT on "
                        f"{sorted(conflict)}"
                    )
                else:
                    out.append(f"  {type_a} × {type_b}: commute")
    return "\n".join(out)


# -- extraction ---------------------------------------------------------------


def _class_handler_effects(
    graph: ProjectGraph, cls: ClassInfo
) -> Dict[str, HandlerEffect]:
    handlers: Dict[str, HandlerEffect] = {}
    for method in cls.methods.values():
        for branch in _dispatch_branches(method):
            footprint = _Footprint()
            _collect_statements(branch.body, footprint)
            _expand_self_calls(graph, cls, footprint)
            for message_type in branch.message_types:
                merged = handlers.get(message_type)
                effect = HandlerEffect(
                    class_name=cls.name,
                    message_type=message_type,
                    reads=frozenset(footprint.reads),
                    writes=frozenset(footprint.writes),
                )
                if merged is not None:
                    effect = HandlerEffect(
                        class_name=cls.name,
                        message_type=message_type,
                        reads=merged.reads | effect.reads,
                        writes=merged.writes | effect.writes,
                    )
                handlers[message_type] = effect
    return handlers


@dataclass(frozen=True)
class _DispatchBranch:
    message_types: Tuple[str, ...]
    body: Tuple[ast.stmt, ...]


def _dispatch_branches(method: ast.FunctionDef) -> Iterator[_DispatchBranch]:
    """``isinstance(x, SomeMessage)`` branches anywhere in *method*."""
    for inner in ast.walk(method):
        if not isinstance(inner, ast.If):
            continue
        types = _isinstance_message_types(inner.test)
        if types:
            yield _DispatchBranch(
                message_types=types,
                body=tuple(inner.body),
            )


def _isinstance_message_types(test: ast.expr) -> Tuple[str, ...]:
    """Message class names if *test* is ``isinstance(_, <message types>)``."""
    if not (
        isinstance(test, ast.Call)
        and isinstance(test.func, ast.Name)
        and test.func.id == "isinstance"
        and len(test.args) == 2
    ):
        return ()
    spec = test.args[1]
    candidates = spec.elts if isinstance(spec, ast.Tuple) else [spec]
    names: List[str] = []
    for candidate in candidates:
        name: Optional[str] = None
        if isinstance(candidate, ast.Name):
            name = candidate.id
        elif isinstance(candidate, ast.Attribute):
            name = candidate.attr
        if name is not None and name.endswith(MESSAGE_SUFFIX):
            names.append(name)
    return tuple(names)


class _Footprint:
    """Mutable read/write attribute sets plus pending self-calls."""

    def __init__(self) -> None:
        self.reads: Set[str] = set()
        self.writes: Set[str] = set()
        self.self_calls: Set[str] = set()


def _collect_statements(
    statements: Sequence[ast.stmt], footprint: _Footprint
) -> None:
    for statement in statements:
        _collect_node(statement, footprint)


def _collect_node(node: ast.AST, footprint: _Footprint) -> None:
    # First pass: calls. A `self._method(...)` consumes its func attribute
    # (the method name is not agent *state*), so it is excluded from the
    # read set in the second pass.
    consumed: Set[int] = set()
    for inner in ast.walk(node):
        if isinstance(inner, ast.Call):
            func_node = _collect_call(inner, footprint)
            if func_node is not None:
                consumed.add(id(func_node))
    for inner in ast.walk(node):
        if isinstance(inner, ast.Attribute):
            if id(inner) in consumed:
                continue
            attr = _self_attribute(inner)
            if attr is None:
                continue
            if isinstance(inner.ctx, (ast.Store, ast.Del)):
                footprint.writes.add(attr)
            else:
                footprint.reads.add(attr)
        elif isinstance(inner, ast.Subscript):
            # self.attr[key] = ... / del self.attr[key] mutate the container.
            attr = _self_attribute(inner.value)
            if attr is not None and isinstance(
                inner.ctx, (ast.Store, ast.Del)
            ):
                footprint.writes.add(attr)


def _collect_call(call: ast.Call, footprint: _Footprint) -> Optional[ast.AST]:
    """Classify one call; returns the consumed ``self._method`` func node."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    receiver = func.value
    # self._method(...): record for transitive expansion.
    if isinstance(receiver, ast.Name) and receiver.id == "self":
        footprint.self_calls.add(func.attr)
        return func
    attr = _self_attribute(receiver)
    if attr is None:
        # One level deeper: self.attr[key].method(...) — treat a mutator on
        # an element as a write to the container attribute.
        if isinstance(receiver, ast.Subscript):
            attr = _self_attribute(receiver.value)
        if attr is None:
            return None
    footprint.reads.add(attr)
    if func.attr in READ_ONLY_METHODS or func.attr.startswith(
        READ_ONLY_PREFIXES
    ):
        return None
    # Unknown or known-mutating method on agent state: conservatively a
    # write. "Commutes" must only ever be claimed when it provably holds.
    footprint.writes.add(attr)
    return None


def _self_attribute(node: ast.expr) -> Optional[str]:
    """``attr`` if *node* is exactly ``self.attr``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _expand_self_calls(
    graph: ProjectGraph, cls: ClassInfo, footprint: _Footprint
) -> None:
    """Fold the footprints of transitively reached self-methods in."""
    visited: Set[str] = set()
    queue = sorted(footprint.self_calls)
    while queue:
        name = queue.pop()
        if name in visited:
            continue
        visited.add(name)
        method = _resolve_method(graph, cls, name)
        if method is None:
            continue
        local = _Footprint()
        _collect_statements(method.body, local)
        footprint.reads |= local.reads
        footprint.writes |= local.writes
        queue.extend(
            call for call in sorted(local.self_calls) if call not in visited
        )


def _resolve_method(
    graph: ProjectGraph, cls: ClassInfo, name: str, depth: int = 0
) -> Optional[ast.FunctionDef]:
    """*name* in *cls* or (name-based, graph-visible) base classes."""
    local = cls.methods.get(name)
    if local is not None:
        return local
    if depth >= 5:
        return None
    for base_name in cls.bases:
        base = graph.resolve_class(cls.module, base_name)
        if base is None:
            continue
        found = _resolve_method(graph, base, name, depth=depth + 1)
        if found is not None:
            return found
    return None
