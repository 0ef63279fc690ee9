"""Variables and domains.

A variable is identified by a plain non-negative ``int``; ids double as the
alphabetical tie-break order required by the AWC priority rules (see
:mod:`repro.core.priorities`), and the nogood store enumerates the ids below
its owner's. A :class:`Domain` is an immutable, ordered collection of
hashable values. Ordering matters for reproducibility: agents iterate
domains in a fixed order, so two runs with the same seeds make identical
choices.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Tuple

from .exceptions import ModelError

#: Variables are plain non-negative integer ids.
VariableId = int

#: Values only need to be hashable (ints for colors, bools encoded as 0/1).
Value = Hashable


class Domain:
    """An immutable, ordered set of candidate values for one variable.

    Duplicates are rejected rather than silently collapsed — a duplicated
    value in a domain definition is almost always a modelling bug, and the
    algorithms' violation counts would silently skew if we kept both.
    """

    __slots__ = ("_values", "_value_set")

    def __init__(self, values: Iterable[Value]) -> None:
        ordered: Tuple[Value, ...] = tuple(values)
        if not ordered:
            raise ModelError("a domain must contain at least one value")
        unique = set(ordered)
        if len(unique) != len(ordered):
            raise ModelError(f"domain contains duplicate values: {ordered!r}")
        self._values = ordered
        self._value_set = frozenset(unique)

    @property
    def values(self) -> Tuple[Value, ...]:
        """The domain values, in definition order."""
        return self._values

    def __iter__(self) -> Iterator[Value]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Value) -> bool:
        return value in self._value_set

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Domain):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        return f"Domain({list(self._values)!r})"


def integer_domain(size: int) -> Domain:
    """Return the domain ``{0, 1, ..., size - 1}``.

    This is the common case: colors in graph coloring (size 3) and booleans
    in SAT encodings (size 2, with 0 = false and 1 = true).
    """
    if size <= 0:
        raise ModelError(f"domain size must be positive, got {size}")
    return Domain(range(size))


#: The boolean domain used by SAT encodings: 0 = false, 1 = true.
BOOLEAN_DOMAIN = integer_domain(2)
