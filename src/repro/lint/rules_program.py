"""The whole-program rules: P2, A1 and R1.

These are checks a single AST cannot express: each one consults the
:class:`~repro.lint.graph.ProjectGraph` (and P2 the
:mod:`~repro.lint.dataflow` event streams):

=====  ======================================================================
P2     Mutation after send. A payload handed to ``send``/``post``/
       ``heappush`` is shared structure from that line on; mutating it
       afterwards rewrites a message already in flight: the transports
       queue the object itself until delivery. The second half flags
       *shallow* freezes: a ``frozen=True`` payload dataclass with a
       mutable-container field is the same bug one level down.
A1     Agent/transport separation. Agents interact with the world only
       through returned ``Outgoing`` pairs (see
       :class:`~repro.runtime.agent.SimulatedAgent`); any reference to a
       transport, mailbox, network, or inbox from agent code breaks the
       cost accounting and the read-phase discipline the simulators
       guarantee.
R1     View-counter bypass. Neighbor state lives in an
       :class:`~repro.core.assignment.AgentView`, whose ``update`` guards
       every write with ``priority_version``, the counter on which the
       store rebuilds its set of variables outranking the owner. Reaching
       around the API — touching the view's private dicts or
       item-assigning into it — records unstable neighbor state without
       bumping that counter, so a reordered delivery can leave the store
       classifying nogoods by a stale set.
=====  ======================================================================
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence, Set, Tuple

from .dataflow import collect_events, iter_functions
from .findings import Finding
from .graph import ClassInfo, ProjectGraph
from .rules import SIMULATED_DIRS, Rule, _in_dirs

#: Identifier fragments that mark transport-layer objects (A1).
TRANSPORT_FRAGMENTS = ("transport", "mailbox", "network", "inbox", "socket")

#: Self-attributes treated as holding an AgentView (R1, name-based).
VIEW_ATTR_FRAGMENT = "view"

#: Annotation heads that denote mutable containers (P2's shallow-freeze
#: half). ``Optional``/``Union`` are looked through.
MUTABLE_ANNOTATIONS = frozenset(
    {"list", "dict", "set", "List", "Dict", "Set", "DefaultDict",
     "defaultdict", "deque", "Deque", "bytearray", "Counter", "OrderedDict",
     "MutableMapping", "MutableSequence", "MutableSet"}
)

_WRAPPER_ANNOTATIONS = frozenset({"Optional", "Union", "Final", "ClassVar"})


class MutationAfterSendRule(Rule):
    """P2 — payloads are immutable from the send onward, all the way down."""

    id = "P2"
    title = "no mutation after send"

    def applies(self, scope: Optional[str]) -> bool:
        return _in_dirs(scope, SIMULATED_DIRS)

    def check(
        self,
        tree: ast.Module,
        path: str,
        scope: Optional[str],
        lines: Sequence[str],
        graph: ProjectGraph,
    ) -> Iterator[Finding]:
        module = graph.module_at(path)
        if module is None:
            return
        escape_hint = (
            "a sent object is shared with the transport; copy before "
            "sending (copy-on-send) or rebuild the payload instead of "
            "mutating it — the transport queues the object itself and "
            "delivers whatever it holds at delivery time"
        )
        for function in iter_functions(module):
            node = function.node
            assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            events = collect_events(node)
            for mutation, send in events.mutations_after_send():
                yield self._finding(
                    mutation.node, path, lines,
                    f"'{mutation.name}' is mutated ({mutation.verb}) after "
                    f"being sent on line {send.line} — the in-flight copy "
                    "changes underneath the transport",
                    escape_hint,
                )
        # The shallow-freeze half is scoped to where payloads actually
        # cross a transport (messages, reports, deliveries). Frozen
        # instance descriptors under problems/ are built once per trial
        # and never travel mid-run, so a Dict field there is fine.
        if _in_dirs(scope, ("runtime/", "algorithms/")):
            for cls in module.classes.values():
                yield from self._check_shallow_freeze(cls, path, lines)

    def _check_shallow_freeze(
        self, cls: ClassInfo, path: str, lines: Sequence[str]
    ) -> Iterator[Finding]:
        if not (cls.is_dataclass and cls.frozen):
            return
        for name, annotation in cls.fields.items():
            head = _annotation_head(annotation)
            if head in MUTABLE_ANNOTATIONS:
                yield self._finding(
                    annotation, path, lines,
                    f"frozen dataclass {cls.name} has a mutable-container "
                    f"field '{name}: {ast.unparse(annotation)}' — frozen is "
                    "shallow, so the container can still be mutated after "
                    "the instance is sent",
                    "freeze the collection too: a Tuple[...] (of pairs for "
                    "mappings) or frozenset keeps the payload immutable "
                    "all the way down",
                )


def _annotation_head(annotation: ast.expr) -> Optional[str]:
    """The head identifier of an annotation, looking through
    Optional/Union/Final wrappers: ``Optional[Dict[int, str]]`` → Dict."""
    node: ast.expr = annotation
    for _ in range(6):
        if isinstance(node, ast.Subscript):
            head = _simple_name(node.value)
            if head in _WRAPPER_ANNOTATIONS:
                inner = node.slice
                elements = (
                    list(inner.elts)
                    if isinstance(inner, ast.Tuple)
                    else [inner]
                )
                for element in elements:
                    nested = _annotation_head(element)
                    if nested in MUTABLE_ANNOTATIONS:
                        return nested
                return None
            node = node.value
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            # String annotation: cheap textual head check.
            text = node.value.strip()
            for candidate in MUTABLE_ANNOTATIONS:
                if text.startswith(candidate + "[") or text == candidate:
                    return candidate
            return None
        return _simple_name(node)
    return None


def _simple_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class AgentTransportRule(Rule):
    """A1 — agent code never references the transport layer."""

    id = "A1"
    title = "agent/transport separation"

    def applies(self, scope: Optional[str]) -> bool:
        return _in_dirs(scope, ("algorithms/",))

    def check(
        self,
        tree: ast.Module,
        path: str,
        scope: Optional[str],
        lines: Sequence[str],
        graph: ProjectGraph,
    ) -> Iterator[Finding]:
        module = graph.module_at(path)
        if module is None:
            return
        agent_classes: Set[str] = graph.cached(  # type: ignore[assignment]
            "simulated-agent-closure",
            lambda: graph.subclasses_of("SimulatedAgent"),
        )
        hint = (
            "agents communicate only through returned Outgoing pairs; the "
            "simulator owns delivery, timing, and the read phase — move "
            "transport interaction into the runtime layer"
        )
        for cls in module.classes.values():
            if cls.name not in agent_classes:
                continue
            for method in cls.methods.values():
                node = method.node
                for inner in ast.walk(node):
                    identifier: Optional[str] = None
                    if isinstance(inner, ast.Name):
                        identifier = inner.id
                    elif isinstance(inner, ast.Attribute):
                        identifier = inner.attr
                    elif isinstance(inner, ast.arg):
                        identifier = inner.arg
                    if identifier is None:
                        continue
                    lowered = identifier.lower()
                    if any(
                        fragment in lowered
                        for fragment in TRANSPORT_FRAGMENTS
                    ):
                        yield self._finding(
                            inner, path, lines,
                            f"agent method {cls.name}.{method.name} "
                            f"references transport-layer object "
                            f"'{identifier}' — agents must not touch the "
                            "delivery machinery (mailbox reads happen only "
                            "in the simulator's read phase)",
                            hint,
                        )


class ViewCounterBypassRule(Rule):
    """R1 — neighbor state goes through AgentView's counter-guarded API."""

    id = "R1"
    title = "view-counter bypass"

    def applies(self, scope: Optional[str]) -> bool:
        return _in_dirs(scope, ("algorithms/",))

    def check(
        self,
        tree: ast.Module,
        path: str,
        scope: Optional[str],
        lines: Sequence[str],
        graph: ProjectGraph,
    ) -> Iterator[Finding]:
        module = graph.module_at(path)
        if module is None:
            return
        agent_classes: Set[str] = graph.cached(  # type: ignore[assignment]
            "simulated-agent-closure",
            lambda: graph.subclasses_of("SimulatedAgent"),
        )
        hint = (
            "go through AgentView.update/forget — they bump "
            "priority_version, on which the store rebuilds its set of "
            "variables outranking the owner; raw writes leave that set "
            "stale after a reordered delivery"
        )
        for cls in module.classes.values():
            if cls.name not in agent_classes:
                continue
            for method in cls.methods.values():
                for node in ast.walk(method.node):
                    finding = self._check_node(
                        node, cls, method.name, path, lines, hint
                    )
                    if finding is not None:
                        yield finding

    def _check_node(
        self,
        node: ast.AST,
        cls: ClassInfo,
        method_name: str,
        path: str,
        lines: Sequence[str],
        hint: str,
    ) -> Optional[Finding]:
        # self.<view>.<_private> in any context: internals are off-limits.
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            view_attr = _view_attribute(node.value)
            if view_attr is not None:
                return self._finding(
                    node, path, lines,
                    f"{cls.name}.{method_name} reaches into the view's "
                    f"internals ('{view_attr}.{node.attr}') — neighbor "
                    "state read or written without the view-counter guard",
                    hint,
                )
        # self.<view>[...] = ... (or del): item writes bypass update().
        if isinstance(node, ast.Subscript) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            view_attr = _view_attribute(node.value)
            if view_attr is not None:
                return self._finding(
                    node, path, lines,
                    f"{cls.name}.{method_name} item-assigns into "
                    f"'{view_attr}' — the write skips AgentView.update's "
                    "change detection and counter bump",
                    hint,
                )
        return None


def _view_attribute(node: ast.expr) -> Optional[str]:
    """``attr`` if *node* is ``self.<attr>`` and attr names a view."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and VIEW_ATTR_FRAGMENT in node.attr.lower()
    ):
        return node.attr
    return None


PROGRAM_RULES: Tuple[Rule, ...] = (
    MutationAfterSendRule(),
    AgentTransportRule(),
    ViewCounterBypassRule(),
)
