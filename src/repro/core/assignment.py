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

from typing import Dict, Iterator, Optional, Tuple

from .variables import Value, VariableId


class AgentView:
    """A mutable map from remote variable id to its last known state.

    Only ever updated from received ``ok?`` messages, so it reflects possibly
    stale information — that staleness is inherent to asynchronous search and
    exactly what nogoods are expressed against.

    The state is kept in two plain dicts: ``_values`` maps every known
    variable to its value, and ``_priorities`` holds the *non-zero*
    priorities only (its keys are a subset of ``_values``'s). An update
    allocates nothing, and the nogood store's counted scan reads
    ``_values`` directly (package-internal; algorithm code goes through
    the methods, which keep ``priority_version`` in step).
    """

    __slots__ = ("_values", "_priorities", "priority_version")

    def __init__(self) -> None:
        self._values: Dict[VariableId, Value] = {}
        self._priorities: Dict[VariableId, int] = {}
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
        values = self._values
        priorities = self._priorities
        # An unknown variable reads as priority 0, so only a transition to
        # or from a non-zero priority is a priority change.
        if priorities.get(variable, 0) != priority:
            self.priority_version += 1
            if priority:
                priorities[variable] = priority
            else:
                del priorities[variable]
        elif values.get(variable, _MISSING) == value:
            return False
        values[variable] = value
        return True

    def forget(self, variable: VariableId) -> None:
        """Drop *variable* from the view (ABT uses this when backtracking)."""
        self._values.pop(variable, None)
        if self._priorities.pop(variable, 0):
            self.priority_version += 1

    def knows(self, variable: VariableId) -> bool:
        """True if the view holds a value for *variable*."""
        return variable in self._values

    def value_of(self, variable: VariableId) -> Optional[Value]:
        """The last known value of *variable*, or None if unknown."""
        return self._values.get(variable)

    def priority_of(self, variable: VariableId) -> int:
        """The last known priority of *variable* (0 if unknown).

        Zero is the correct default: every priority starts at zero and a
        variable we have never heard from cannot have raised it as far as we
        know.
        """
        return self._priorities.get(variable, 0)

    def highest_priority(self) -> int:
        """The highest priority recorded at a non-zero value, else 0.

        AWC raises its own priority above this at a deadend; only the
        variables at a non-zero priority are read.
        """
        return max(self._priorities.values(), default=0)

    def items(self) -> Iterator[Tuple[VariableId, Value]]:
        """Iterate ``(variable, value)`` pairs in view insertion order."""
        return iter(self._values.items())

    def as_assignment(self) -> Dict[VariableId, Value]:
        """The view as a plain ``{variable: value}`` dictionary (a copy)."""
        return dict(self._values)

    def variables(self) -> Tuple[VariableId, ...]:
        """The variables currently in the view, in ascending id order."""
        return tuple(sorted(self._values))

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[VariableId]:
        return iter(self._values)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"x{var}={value!r}@{self.priority_of(var)}"
            for var, value in sorted(self._values.items())
        )
        return f"AgentView({inner})"


#: Reads as "no value" in the update test: None is a legal value.
_MISSING = object()


def merge_assignments(
    *assignments: Dict[VariableId, Value],
) -> Dict[VariableId, Value]:
    """Merge assignment dicts left to right (later dicts win on conflicts)."""
    merged: Dict[VariableId, Value] = {}
    for assignment in assignments:
        merged.update(assignment)
    return merged
