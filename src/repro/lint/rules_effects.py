"""The interleaving rules: R1, R2, R3.

Built on the handler-effect analysis (:mod:`repro.lint.effects`): each rule
statically flags a hazard class that only bites when the transport exercises
its reordering freedom — exactly the bugs the DPOR explorer
(:mod:`repro.verify`) hunts dynamically. Static and dynamic layer share the
footprints, so a rule violation here predicts a schedule divergence there.

=====  ======================================================================
R1     View-counter bypass. Neighbor state lives in an
       :class:`~repro.core.assignment.AgentView`, whose ``update`` guards
       every write with the priority counter that the store's priority-key
       cache invalidates on. Reaching around the API — touching the view's
       private internals or item-assigning into it — records unstable
       neighbor state without bumping that counter, so a reordered
       delivery can leave the store reading a stale cache.
R2     Non-commuting handlers under reordering. The transport guarantees
       FIFO per channel only: messages from distinct senders arrive in
       either order. Handlers that merely *absorb* (update the view,
       record a nogood) tolerate that; a handler that **commits decision
       state** (``value``/``priority``/``phase``) inside the per-message
       dispatch while conflicting with another handler's footprint makes
       the outcome depend on delivery order. The fix is the repo's staged
       pattern: absorb every message first, decide once afterwards.
R3     Store mutation on a consultation path. Methods named like queries
       (``is_*``, ``count_*``, ``_check*``, ``_evaluate*``, ...) are
       called from contexts that assume them effect-free on the nogood
       store — including the explorer's commutativity reasoning and the
       check-counting contract. A ``store.add`` reachable from such a
       path is a read-only lie: it desynchronizes check accounting and
       invalidates the commutativity matrix built from the footprints.
=====  ======================================================================
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from .effects import (
    HandlerEffect,
    handler_effects,
    method_footprint,
)
from .findings import Finding
from .graph import ClassInfo, ModuleInfo, ProjectGraph
from .rules import Rule, _in_dirs

#: Self-attributes treated as holding an AgentView (name-based).
VIEW_ATTR_FRAGMENT = "view"

#: Method-name prefixes that promise a read-only consultation (R3).
CONSULTATION_PREFIXES = (
    "is_", "count_", "_is_", "_count_", "_check", "_consistent",
    "_evaluate", "_weighted", "_weight", "_least", "_first_consistent",
)

#: Store-holding attributes (name-based, like the A1 transport fragments).
STORE_ATTR_FRAGMENT = "store"


def _agent_classes(graph: ProjectGraph) -> Set[str]:
    return graph.cached(  # type: ignore[return-value]
        "simulated-agent-closure",
        lambda: graph.subclasses_of("SimulatedAgent"),
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
        agent_classes = _agent_classes(graph)
        hint = (
            "go through AgentView.update/forget — they bump the priority "
            "counter that the store's priority-key cache invalidates on; "
            "raw writes leave the cache serving stale keys after a "
            "reordered delivery"
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


class NonCommutingHandlersRule(Rule):
    """R2 — decision-committing handlers must commute under reordering."""

    id = "R2"
    title = "non-commuting handlers under reordering"

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
        table = handler_effects(graph)
        hint = (
            "absorb messages first and decide once after the loop (the "
            "state_changed pattern): a handler that writes value/priority "
            "per message commits to half-absorbed state, and the transport "
            "only guarantees FIFO per sender channel"
        )
        for cls in module.classes.values():
            handlers = table.get(cls.name)
            if not handlers or cls.module.path != path:
                continue
            types = sorted(handlers)
            for index, type_a in enumerate(types):
                for type_b in types[index:]:
                    yield from self._check_pair(
                        handlers[type_a], handlers[type_b], cls, path,
                        lines, hint,
                    )

    def _check_pair(
        self,
        effect_a: HandlerEffect,
        effect_b: HandlerEffect,
        cls: ClassInfo,
        path: str,
        lines: Sequence[str],
        hint: str,
    ) -> Iterator[Finding]:
        conflict = effect_a.conflicts_with(effect_b)
        if not conflict:
            return
        deciders: List[HandlerEffect] = [
            effect
            for effect in dict.fromkeys((effect_a, effect_b))
            if effect.decision_writes
        ]
        if not deciders:
            return
        anchor = deciders[0]
        node = _line_anchor(anchor.line)
        pair = (
            f"{effect_a.message_type} and {effect_b.message_type}"
            if effect_a.message_type != effect_b.message_type
            else f"two {effect_a.message_type} deliveries"
        )
        yield self._finding(
            node, path, lines,
            f"{cls.name}: handlers for {pair} do not commute (conflict on "
            f"{sorted(conflict)}) and the {anchor.message_type} handler "
            f"writes decision state {sorted(anchor.decision_writes)} "
            "inside the per-message dispatch — delivery order from "
            "distinct senders changes the outcome",
            hint,
        )


class ConsultationMutationRule(Rule):
    """R3 — consultation-named methods never mutate the nogood store."""

    id = "R3"
    title = "store mutation on consultation path"

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
        agent_classes = _agent_classes(graph)
        hint = (
            "move the mutation out of the query path (record nogoods in "
            "the handler that received them): callers, the check-counting "
            "contract, and the commutativity matrix all assume "
            "consultation methods leave the store untouched"
        )
        for cls in module.classes.values():
            if cls.name not in agent_classes:
                continue
            for method in cls.methods.values():
                if not method.name.startswith(CONSULTATION_PREFIXES):
                    continue
                footprint = method_footprint(
                    graph, module, cls, method.name
                )
                if footprint is None:
                    continue
                _reads, writes, visited = footprint
                mutated = sorted(
                    attr
                    for attr in writes
                    if STORE_ATTR_FRAGMENT in attr.lower()
                )
                if mutated:
                    yield self._finding(
                        method.node, path, lines,
                        f"{cls.name}.{method.name} is consultation-named "
                        f"but (transitively, via {sorted(visited)}) "
                        f"mutates store state {mutated}",
                        hint,
                    )


def _line_anchor(line: int) -> ast.AST:
    """A minimal AST node carrying just a position (for effect findings,
    whose anchor is a dispatch branch located during analysis)."""
    node = ast.Pass()
    node.lineno = line
    node.col_offset = 0
    return node


EFFECT_RULES: Tuple[Rule, ...] = (
    ViewCounterBypassRule(),
    NonCommutingHandlersRule(),
    ConsultationMutationRule(),
)
