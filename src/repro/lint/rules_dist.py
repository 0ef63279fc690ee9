"""The handler-discipline rule: S2.

The simulator forgives one thing no reported count shows: a handler may
block. S2 checks that agent code only computes and returns messages:

=====  ======================================================================
S2     Non-blocking handlers. Agent code reachable from message-handler
       dispatch must not block: ``sleep``, console input, file or socket
       I/O stall the simulator loop, seen only in wall time. Waiting is
       expressed by returning and acting on the next delivery.
=====  ======================================================================

S2 reuses the dispatch-discovery machinery of :mod:`repro.lint.effects`.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from .effects import AGENT_BASE, _resolve_method
from .findings import Finding
from .graph import ClassInfo, ModuleInfo, ProjectGraph
from .rules import Rule, _in_dirs

#: Blocking call heads by module-ish receiver: ``time.sleep`` etc.
_BLOCKING_ATTR_CALLS = {
    "sleep": ("time",),
    "system": ("os",),
    "run": ("subprocess",),
    "Popen": ("subprocess",),
    "check_call": ("subprocess",),
    "check_output": ("subprocess",),
    "urlopen": ("request", "urllib"),
    "get": ("requests",),
    "post": ("requests",),
}

#: Blocking method names regardless of receiver: socket/file primitives.
_BLOCKING_METHODS = frozenset(
    {"recv", "recv_into", "accept", "connect", "sendall", "makefile",
     "read_text", "write_text", "read_bytes", "write_bytes", "readline"}
)

#: Blocking bare-name calls.
_BLOCKING_NAMES = frozenset({"input", "open", "sleep", "create_connection"})


class BlockingHandlerRule(Rule):
    """S2 — no blocking calls reachable from message-handler dispatch."""

    id = "S2"
    title = "non-blocking handlers"

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
            lambda: graph.subclasses_of(AGENT_BASE),
        )
        hint = (
            "a handler that blocks stalls the simulator loop and every "
            "agent of the cycle; return instead and act when the next "
            "delivery arrives"
        )
        for cls in module.classes.values():
            if cls.name not in agent_classes or cls.name == AGENT_BASE:
                continue
            for method_name in self._reachable_methods(graph, module, cls):
                method = _resolve_method(graph, module, cls, method_name)
                if method is None or method.module is not module:
                    continue
                for call in ast.walk(method.node):
                    if not isinstance(call, ast.Call):
                        continue
                    label = self._blocking_label(call)
                    if label is not None:
                        yield self._finding(
                            call, path, lines,
                            f"blocking call '{label}' is reachable from "
                            f"message-handler dispatch "
                            f"({cls.name}.{method_name}) — one slow agent "
                            "stalls every agent of the cycle",
                            hint,
                        )

    @staticmethod
    def _reachable_methods(
        graph: ProjectGraph, module: ModuleInfo, cls: ClassInfo
    ) -> List[str]:
        """Methods transitively reachable from the dispatch entrypoints."""
        queue = ["initialize", "step"]
        visited: Set[str] = set()
        while queue:
            name = queue.pop()
            if name in visited:
                continue
            visited.add(name)
            method = _resolve_method(graph, module, cls, name)
            if method is None:
                continue
            for inner in ast.walk(method.node):
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and isinstance(inner.func.value, ast.Name)
                    and inner.func.value.id == "self"
                ):
                    queue.append(inner.func.attr)
        return sorted(visited)

    @staticmethod
    def _blocking_label(call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in _BLOCKING_NAMES:
                return func.id
            return None
        if isinstance(func, ast.Attribute):
            receivers = _BLOCKING_ATTR_CALLS.get(func.attr)
            if receivers is not None:
                receiver = func.value
                if (
                    isinstance(receiver, ast.Name)
                    and receiver.id in receivers
                ):
                    return f"{receiver.id}.{func.attr}"
                return None
            if func.attr in _BLOCKING_METHODS:
                return ast.unparse(func)
        return None


DIST_RULES: Tuple[Rule, ...] = (BlockingHandlerRule(),)
