"""Nogoods: the constraint representation used throughout the library.

Following Section 2.1 of the paper, a *nogood* is a set of variable-value
pairs stating that this combination is prohibited. All constraints — the
problem's initial constraints and the nogoods learned during search — use
this single representation, which is what makes nogood learning compose so
cleanly with the rest of the algorithm: a learned nogood is just a new
constraint.

A :class:`Nogood` is immutable and hashable. Hashability is load-bearing:

* the AWC completeness rule compares a freshly generated nogood with the
  previously generated one ("if the new nogood is the same ... do nothing");
* recipients must detect duplicates before recording;
* Table 4's redundant-generation accounting needs a global set of all
  nogoods ever generated.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

from .exceptions import ModelError
from .variables import Value, VariableId

#: One element of a nogood.
Pair = Tuple[VariableId, Value]


class Nogood:
    """An immutable set of ``(variable, value)`` pairs that is prohibited.

    The empty nogood is allowed and meaningful: deriving it proves the
    problem has no solution (see :class:`~repro.core.exceptions.UnsolvableError`).
    """

    __slots__ = ("_pairs", "_by_var", "_variables", "_hash")

    def __init__(self, pairs: Iterable[Pair]) -> None:
        by_var: Dict[VariableId, Value] = {}
        for variable, value in pairs:
            if variable in by_var and by_var[variable] != value:
                raise ModelError(
                    f"nogood mentions variable {variable} with conflicting "
                    f"values {by_var[variable]!r} and {value!r}"
                )
            by_var[variable] = value
        self._by_var = by_var
        self._pairs: FrozenSet[Pair] = frozenset(by_var.items())
        self._variables: FrozenSet[VariableId] = frozenset(by_var)
        self._hash = hash(self._pairs)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def of(cls, *pairs: Pair) -> "Nogood":
        """Build a nogood from pair arguments: ``Nogood.of((1, 0), (2, 1))``."""
        return cls(pairs)

    @classmethod
    def from_assignment(cls, assignment: Dict[VariableId, Value]) -> "Nogood":
        """Build a nogood prohibiting exactly *assignment*."""
        return cls(assignment.items())

    # -- queries ---------------------------------------------------------

    @property
    def pairs(self) -> FrozenSet[Pair]:
        """The frozen set of ``(variable, value)`` pairs."""
        return self._pairs

    @property
    def variables(self) -> FrozenSet[VariableId]:
        """The variables this nogood mentions.

        Precomputed at construction: consultation paths read this on every
        priority-key computation, and rebuilding the frozenset there was
        measurable per-message garbage.
        """
        return self._variables

    def value_of(self, variable: VariableId) -> Optional[Value]:
        """The value this nogood binds *variable* to, or None if absent."""
        return self._by_var.get(variable)

    def mentions(self, variable: VariableId) -> bool:
        """True if *variable* appears in this nogood."""
        return variable in self._by_var

    def without(self, variable: VariableId) -> "Nogood":
        """A copy of this nogood with *variable*'s pair removed (if present)."""
        if variable not in self._by_var:
            return self
        return Nogood(
            (var, val) for var, val in self._by_var.items() if var != variable
        )

    def restricted_to(self, variables: Iterable[VariableId]) -> "Nogood":
        """The projection of this nogood onto *variables*."""
        keep = set(variables)
        return Nogood(
            (var, val) for var, val in self._by_var.items() if var in keep
        )

    def prohibits(self, assignment: Dict[VariableId, Value]) -> bool:
        """True if *assignment* (a total or partial map) violates this nogood.

        A nogood is violated exactly when **every** one of its pairs is
        matched by the assignment. Unassigned variables mean the nogood is
        (not yet) violated. The empty nogood is violated by everything.
        """
        for variable, value in self._by_var.items():
            if assignment.get(variable, _MISSING) != value:
                return False
        return True

    def is_subset_of(self, other: "Nogood") -> bool:
        """True if every pair of this nogood also appears in *other*."""
        return self._pairs <= other._pairs

    # -- protocol --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_var)

    def __iter__(self) -> Iterator[Pair]:
        return iter(self._pairs)

    def __contains__(self, pair: Pair) -> bool:
        return pair in self._pairs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Nogood):
            return NotImplemented
        return self._pairs == other._pairs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(
            f"(x{var}={val!r})" for var, val in sorted(self._by_var.items())
        )
        return f"Nogood[{inner}]"


#: Sentinel distinct from every legal value (values must be hashable; None is
#: a legal value, so we need a private object).
_MISSING = object()


def union_nogoods(nogoods: Iterable[Nogood]) -> Nogood:
    """The union of several nogoods as a single nogood.

    Raises :class:`~repro.core.exceptions.ModelError` if two inputs bind the
    same variable to different values. The resolvent rule only ever unions
    nogoods that are all violated under one agent view, so their shared
    variables necessarily agree; a conflict here indicates a caller bug.
    """
    pairs = []
    for nogood in nogoods:
        pairs.extend(nogood.pairs)
    return Nogood(pairs)
