"""Agent views: what one agent currently believes about other variables.

Section 2.2 of the paper: "when an agent receives the latest information
from another agent, it updates an *agent_view*, a list of 3-tuples (agent's
id, variable's id, variable's value)". With one variable per agent the agent
id and variable id coincide; we key the view by variable id and also track
the variable's last known *priority*, which AWC needs for the higher/lower
nogood classification.

The module also provides small helpers over plain assignment dictionaries
(``{variable: value}``), which is the representation used for global
solution checking and for the centralized solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from .variables import Value, VariableId


@dataclass(frozen=True)
class ViewEntry:
    """The last known state of one remote variable."""

    value: Value
    priority: int = 0


class AgentView:
    """A mutable map from remote variable id to its last known state.

    Only ever updated from received ``ok?`` messages, so it reflects possibly
    stale information — that staleness is inherent to asynchronous search and
    exactly what nogoods are expressed against.
    """

    __slots__ = ("_entries", "priority_version")

    def __init__(self) -> None:
        self._entries: Dict[VariableId, ViewEntry] = {}
        #: Bumped whenever some variable's *priority* (not value) changes.
        #: Consumers that derive priority-dependent data (the nogood store's
        #: cached set of variables outranking its owner) use this to
        #: invalidate cheaply: priorities change on backtracks only, far
        #: more rarely than values. An unknown variable reads as priority 0,
        #: so joining or leaving the view at priority 0 bumps nothing, and
        #: such data must not depend on view membership at priority 0.
        self.priority_version = 0

    def update(self, variable: VariableId, value: Value, priority: int) -> bool:
        """Record the latest ``(value, priority)`` for *variable*.

        Returns True if this changed the view (new variable, new value, or
        new priority).
        """
        entry = ViewEntry(value, priority)
        previous = self._entries.get(variable)
        if previous == entry:
            return False
        # An unknown variable reads as priority 0, so only a transition to
        # or from a non-zero priority is a priority change.
        old_priority = previous.priority if previous is not None else 0
        if old_priority != priority:
            self.priority_version += 1
        self._entries[variable] = entry
        return True

    def forget(self, variable: VariableId) -> None:
        """Drop *variable* from the view (ABT uses this when backtracking)."""
        previous = self._entries.pop(variable, None)
        if previous is not None and previous.priority != 0:
            self.priority_version += 1

    def knows(self, variable: VariableId) -> bool:
        """True if the view holds a value for *variable*."""
        return variable in self._entries

    def value_of(self, variable: VariableId) -> Optional[Value]:
        """The last known value of *variable*, or None if unknown."""
        entry = self._entries.get(variable)
        return entry.value if entry is not None else None

    def priority_of(self, variable: VariableId) -> int:
        """The last known priority of *variable* (0 if unknown).

        Zero is the correct default: every priority starts at zero and a
        variable we have never heard from cannot have raised it as far as we
        know.
        """
        entry = self._entries.get(variable)
        return entry.priority if entry is not None else 0

    def entry(self, variable: VariableId) -> Optional[ViewEntry]:
        """The full entry for *variable*, or None."""
        return self._entries.get(variable)

    def items(self) -> Iterator[Tuple[VariableId, Value]]:
        """Iterate ``(variable, value)`` pairs in view insertion order."""
        return ((var, entry.value) for var, entry in self._entries.items())

    def as_assignment(self) -> Dict[VariableId, Value]:
        """The view as a plain ``{variable: value}`` dictionary (a copy)."""
        return {var: entry.value for var, entry in self._entries.items()}

    def variables(self) -> Tuple[VariableId, ...]:
        """The variables currently in the view, in ascending id order."""
        return tuple(sorted(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[VariableId]:
        return iter(self._entries)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"x{var}={entry.value!r}@{entry.priority}"
            for var, entry in sorted(self._entries.items())
        )
        return f"AgentView({inner})"


def merge_assignments(
    *assignments: Dict[VariableId, Value],
) -> Dict[VariableId, Value]:
    """Merge assignment dicts left to right (later dicts win on conflicts)."""
    merged: Dict[VariableId, Value] = {}
    for assignment in assignments:
        merged.update(assignment)
    return merged
