"""The whole-program rule A1.

A check a single AST cannot express: it consults the
:class:`~repro.lint.graph.ProjectGraph` for the closure of
``SimulatedAgent`` subclasses:

=====  ======================================================================
A1     Agent/transport separation. Agents interact with the world only
       through returned ``Outgoing`` pairs (see
       :class:`~repro.runtime.agent.SimulatedAgent`); any reference to a
       transport, mailbox, network, or inbox from agent code breaks the
       cost accounting and the read-phase discipline the simulators
       guarantee.
=====  ======================================================================
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence, Set, Tuple

from .findings import Finding
from .graph import ProjectGraph
from .rules import Rule, _in_dirs

#: Identifier fragments that mark transport-layer objects (A1).
TRANSPORT_FRAGMENTS = ("transport", "mailbox", "network", "inbox", "socket")


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


PROGRAM_RULES: Tuple[Rule, ...] = (AgentTransportRule(),)
