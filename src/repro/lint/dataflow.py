"""A lightweight flow-sensitive dataflow layer over the project graph.

Per function, every transport-style send, every mutation of a local name,
and every rebinding, each tagged with its line and enclosing loops. Rule
P2's escape analysis is a simple ordering query over these streams ("was
this name mutated after being handed to a send?"). The module also holds
the function walk the whole-program rules share.

All of it is deliberately approximate. The contract with the rules: err on
the side of **not** reporting (a finding must be explainable to the author
from the quoted line), and let per-line ``disable=`` pragmas cover the
residue.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple, Union

from .graph import ClassInfo, FunctionInfo, ModuleInfo

#: Attribute-call names treated as handing a payload to a transport.
SEND_ATTRS = frozenset({"send", "post", "put", "put_nowait", "heappush"})

#: Methods that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem", "clear",
        "update", "add", "discard", "setdefault", "sort", "reverse",
        "appendleft", "extendleft",
    }
)

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def iter_functions(module: ModuleInfo) -> Iterator[FunctionInfo]:
    """Every function of *module*: module functions, methods, and (one
    level of) functions nested in either."""

    def nested(
        outer: FunctionInfo, cls: Optional[ClassInfo]
    ) -> Iterator[FunctionInfo]:
        outer_node = outer.node
        assert isinstance(outer_node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for statement in ast.walk(outer_node):
            if statement is outer_node or not isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            inner = FunctionInfo(
                name=statement.name,
                qualname=f"{outer.qualname}.{statement.name}",
                node=statement,
                module=module,
                class_name=cls.name if cls else None,
            )
            yield inner

    for function in module.functions.values():
        yield function
        yield from nested(function, None)
    for cls in module.classes.values():
        for method in cls.methods.values():
            yield method
            yield from nested(method, cls)


# =============================================================================
# Send / mutation event streams (P2)
# =============================================================================


@dataclass(frozen=True)
class SendEvent:
    """A payload handed to a transport-style call."""

    line: int
    names: Tuple[str, ...]
    loops: Tuple[int, ...]
    node: ast.Call = field(compare=False, hash=False, default=None)  # type: ignore[assignment]


@dataclass(frozen=True)
class MutationEvent:
    """An in-place mutation of a local name."""

    line: int
    name: str
    verb: str
    loops: Tuple[int, ...]
    node: ast.AST = field(compare=False, hash=False, default=None)  # type: ignore[assignment]


@dataclass(frozen=True)
class RebindEvent:
    """A name rebound to a fresh object (severs prior aliasing)."""

    line: int
    name: str
    loops: Tuple[int, ...]


@dataclass
class FunctionEvents:
    """The three event streams of one function body."""

    sends: List[SendEvent] = field(default_factory=list)
    mutations: List[MutationEvent] = field(default_factory=list)
    rebinds: List[RebindEvent] = field(default_factory=list)

    def mutations_after_send(self) -> List[Tuple[MutationEvent, SendEvent]]:
        """Every (mutation, earlier-send) pair where a sent name is mutated
        afterwards — sequentially later, or anywhere in a loop both share
        (the next iteration delivers the mutation "after" the send) —
        without an intervening rebinding of the name."""
        flagged: List[Tuple[MutationEvent, SendEvent]] = []
        for mutation in self.mutations:
            for send in self.sends:
                if mutation.name not in send.names:
                    continue
                if self._sequentially_after(mutation, send) or (
                    self._same_loop(mutation, send)
                ):
                    flagged.append((mutation, send))
                    break
        return flagged

    def _sequentially_after(
        self, mutation: MutationEvent, send: SendEvent
    ) -> bool:
        if mutation.line <= send.line:
            return False
        return not any(
            rebind.name == mutation.name
            and send.line < rebind.line <= mutation.line
            for rebind in self.rebinds
        )

    def _same_loop(self, mutation: MutationEvent, send: SendEvent) -> bool:
        shared = set(mutation.loops) & set(send.loops)
        if not shared:
            return False
        # A rebinding inside the shared loop gives each iteration a fresh
        # object, so the next-iteration aliasing argument no longer holds.
        return not any(
            rebind.name == mutation.name and set(rebind.loops) & shared
            for rebind in self.rebinds
        )


def collect_events(function: _FunctionNode) -> FunctionEvents:
    """Extract the send/mutation/rebind streams of one function body."""
    events = FunctionEvents()

    def names_in_payload(expr: ast.expr) -> Iterator[str]:
        if isinstance(expr, ast.Name):
            yield expr.id
        elif isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for item in expr.elts:
                yield from names_in_payload(item)
        elif isinstance(expr, ast.Starred):
            yield from names_in_payload(expr.value)

    def visit(node: ast.AST, loops: Tuple[int, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
            node is not function
        ):
            return  # nested functions get their own analysis
        if isinstance(node, (ast.For, ast.AsyncFor)):
            for name in names_in_payload(node.target):
                events.rebinds.append(
                    RebindEvent(node.lineno, name, loops + (id(node),))
                )
            for child in ast.iter_child_nodes(node):
                visit(child, loops + (id(node),))
            return
        if isinstance(node, ast.While):
            for child in ast.iter_child_nodes(node):
                visit(child, loops + (id(node),))
            return
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    events.rebinds.append(
                        RebindEvent(node.lineno, target.id, loops)
                    )
                elif isinstance(target, ast.Attribute) and isinstance(
                    target.value, ast.Name
                ):
                    events.mutations.append(
                        MutationEvent(
                            node.lineno,
                            target.value.id,
                            f"assignment to .{target.attr}",
                            loops,
                            node,
                        )
                    )
                elif isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    events.mutations.append(
                        MutationEvent(
                            node.lineno,
                            target.value.id,
                            "item assignment",
                            loops,
                            node,
                        )
                    )
        elif isinstance(node, ast.AugAssign):
            target = node.target
            if isinstance(target, ast.Attribute) and isinstance(
                target.value, ast.Name
            ):
                events.mutations.append(
                    MutationEvent(
                        node.lineno,
                        target.value.id,
                        f"augmented assignment to .{target.attr}",
                        loops,
                        node,
                    )
                )
            elif isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                events.mutations.append(
                    MutationEvent(
                        node.lineno, target.value.id, "item update", loops, node
                    )
                )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(
                    target, (ast.Attribute, ast.Subscript)
                ) and isinstance(target.value, ast.Name):
                    events.mutations.append(
                        MutationEvent(
                            node.lineno,
                            target.value.id,
                            "deletion",
                            loops,
                            node,
                        )
                    )
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr in SEND_ATTRS:
                    payload: List[str] = []
                    for argument in node.args:
                        payload.extend(names_in_payload(argument))
                    events.sends.append(
                        SendEvent(
                            node.lineno, tuple(payload), loops, node
                        )
                    )
                elif func.attr in MUTATOR_METHODS and isinstance(
                    func.value, ast.Name
                ):
                    events.mutations.append(
                        MutationEvent(
                            node.lineno,
                            func.value.id,
                            f".{func.attr}() call",
                            loops,
                            node,
                        )
                    )
            elif isinstance(func, ast.Name):
                if func.id == "heappush":
                    payload = []
                    for argument in node.args:
                        payload.extend(names_in_payload(argument))
                    events.sends.append(
                        SendEvent(node.lineno, tuple(payload), loops, node)
                    )
                elif (
                    func.id == "setattr"
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                ):
                    events.mutations.append(
                        MutationEvent(
                            node.lineno,
                            node.args[0].id,
                            "setattr",
                            loops,
                            node,
                        )
                    )
        for child in ast.iter_child_nodes(node):
            visit(child, loops)

    for statement in function.body:
        visit(statement, ())
    return events
