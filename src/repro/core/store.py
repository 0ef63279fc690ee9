"""Per-agent nogood storage with the paper's cost accounting built in.

The paper's computational cost measure is the *nogood check*: every test of
"is this nogood violated under the current view?" counts as one check, and
``maxcck`` sums, over cycles, the per-cycle maximum of this count across
agents. To make that measure impossible to get wrong, every violation test
goes through :meth:`NogoodStore.is_violated`, which bumps a shared
:class:`CheckCounter` that the metrics layer samples once per cycle.

The store indexes nogoods by the value they bind the *owner's* variable to.
In the one-variable-per-agent setting every nogood relevant to agent *i*
mentions ``x_i`` (initial constraints do by construction; learned nogoods are
only sent to agents whose variable they mention), so testing a candidate
value ``d`` touches only the bucket for ``d``. Nogoods that do not mention
the owner (possible in multi-variable extensions) land in an unconditional
bucket consulted for every candidate.

:class:`NogoodStore` is the product store. :class:`LinearNogoodStore`
drops the per-value index; it is the unindexed ablation baseline and the
oracle the parity tests compare :class:`NogoodStore` against.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    Iterable,
    Iterator,
    List,
    NoReturn,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .assignment import AgentView
from .nogood import Nogood
from .priorities import OrderKey, nogood_priority_key
from .variables import Value, VariableId


class CheckCounter:
    """A monotonically increasing count of nogood checks.

    One counter is shared between an agent's store and the metrics
    collector; the collector snapshots ``total`` at cycle boundaries and
    works with deltas.
    """

    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def bump(self, amount: int = 1) -> None:
        """Record *amount* nogood checks."""
        self.total += amount

    def __repr__(self) -> str:
        return f"CheckCounter(total={self.total})"


class ReadOnlyBucket(List[Nogood]):
    """A list whose public mutators are disabled.

    :meth:`NogoodStore.for_value` hands out its internal per-value buckets
    directly on the hot path (copying them would cost O(bucket) per
    candidate-value scan). Making the buckets read-only guarantees a caller
    cannot corrupt the store's index through the returned reference; the
    store itself mutates buckets via ``list.append`` (the only sanctioned
    escape hatch). Iteration and indexing remain plain C-speed list
    operations.
    """

    __slots__ = ()

    def _refuse(self, *args: object, **kwargs: object) -> "NoReturn":
        raise TypeError(
            "NogoodStore buckets are read-only; add nogoods via "
            "NogoodStore.add()"
        )

    append = extend = insert = remove = pop = clear = _refuse
    sort = reverse = __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse


class NogoodStore:
    """All nogoods relevant to one agent, indexed by the owner's value.

    The store deduplicates: :meth:`add` returns False for a nogood already
    present, and subsumed duplicates are *not* removed (the paper's
    algorithms do not prune subsumed nogoods; their cost shows up in
    ``maxcck`` exactly as it should).
    """

    __slots__ = (
        "own_variable",
        "counter",
        "_by_value",
        "_unconditional",
        "_all",
        "_insertion",
        "_combined_cache",
        "_above_for",
        "_above",
        "key_cache_hits",
        "key_cache_misses",
        "_initial_count",
    )

    def __init__(
        self,
        own_variable: VariableId,
        counter: Optional[CheckCounter] = None,
        initial: Iterable[Nogood] = (),
    ) -> None:
        self.own_variable = own_variable
        self.counter = counter if counter is not None else CheckCounter()
        self._by_value: Dict[Value, ReadOnlyBucket] = {}
        self._unconditional: ReadOnlyBucket = ReadOnlyBucket()
        self._all: Set[Nogood] = set()
        #: Every nogood in add() order — the canonical store order used by
        #: :meth:`nogoods` (and by store rebinding, which must replay adds
        #: in the original order to keep buckets bit-identical).
        self._insertion: ReadOnlyBucket = ReadOnlyBucket()
        #: value -> bucket+unconditional merged list, rebuilt lazily after
        #: adds. Without this, every candidate scan in the presence of
        #: unconditional nogoods allocated a fresh O(bucket) list.
        self._combined_cache: Dict[Value, ReadOnlyBucket] = {}
        # The owner plus the variables outranking it (see outranking),
        # and the (view, priority version, own priority) it was built for.
        self._above_for: Tuple[object, int, int] = (None, -1, -1)
        self._above: Set[VariableId] = set()
        #: Reuse counters of that set, one lookup per classified
        #: consultation (observational; the traced benchmark reports them).
        self.key_cache_hits = 0
        self.key_cache_misses = 0
        for nogood in initial:
            self.add(nogood)
        #: How many of the stored nogoods are *initial* (the problem's own
        #: constraints); every later add is a learned nogood.
        self._initial_count = len(self._all)

    # -- content management ------------------------------------------------

    def add(self, nogood: Nogood) -> bool:
        """Record *nogood*; returns False if it was already present."""
        if nogood in self._all:
            return False
        self._all.add(nogood)
        list.append(self._insertion, nogood)
        own_value = nogood.value_of(self.own_variable)
        if nogood.mentions(self.own_variable):
            bucket = self._by_value.setdefault(own_value, ReadOnlyBucket())
            list.append(bucket, nogood)
            if self._unconditional:
                self._combined_cache.pop(own_value, None)
        else:
            list.append(self._unconditional, nogood)
            self._combined_cache.clear()
        return True

    def learned_count(self) -> int:
        """How many learned (non-initial) nogoods are stored."""
        return len(self._all) - self._initial_count

    def __contains__(self, nogood: Nogood) -> bool:
        return nogood in self._all

    def __len__(self) -> int:
        return len(self._all)

    def nogoods(self) -> Iterator[Nogood]:
        """All stored nogoods, in insertion order."""
        return iter(self._insertion)

    def for_value(self, value: Value) -> List[Nogood]:
        """The nogoods that could be violated when the owner takes *value*.

        This is the bucket binding the owner to *value* plus the
        unconditional bucket. Both the common path and the merged path
        return a :class:`ReadOnlyBucket` (attempted mutation raises instead
        of corrupting the index); the merged list is cached per value and
        invalidated by :meth:`add`, so repeated candidate scans allocate
        nothing.
        """
        bucket = self._by_value.get(value, _EMPTY)
        if not self._unconditional:
            return bucket
        combined = self._combined_cache.get(value)
        if combined is None:
            combined = ReadOnlyBucket(bucket)
            list.extend(combined, self._unconditional)
            self._combined_cache[value] = combined
        return combined

    # -- evaluation (cost-counted) ----------------------------------------

    def is_violated(
        self, nogood: Nogood, view: AgentView, own_value: Value
    ) -> bool:
        """Test *nogood* against *view* with the owner set to *own_value*.

        Counts exactly one nogood check. A nogood is violated when every one
        of its pairs is matched — by *own_value* for the owner's variable and
        by the view for others. Variables the view does not know cannot match,
        so a nogood over unknown variables is never violated (the agent will
        have requested those values; until they arrive the nogood is inert).
        """
        return self._scan((nogood,), view, own_value) == 1

    def _scan(
        self,
        nogoods: Sequence[Nogood],
        view: AgentView,
        own_value: Value,
        above: Optional[AbstractSet[VariableId]] = None,
        higher: bool = True,
        found: Optional[List[Nogood]] = None,
        first: bool = False,
    ) -> int:
        """How many of *nogoods* are violated; the one counted scan.

        With *above* (see :meth:`outranking`) only the higher nogoods are
        tested, or only the lower ones when *higher* is False; the others
        are skipped without a check. Every tested nogood costs one check,
        added to the counter once per scan. Violated nogoods are appended
        to *found* in scan order. *first* stops at the first violation.
        """
        # Package-internal reads of the view's value dict and the nogoods'
        # sets: this loop is where the checks happen, and a property or
        # method call per nogood or pair cost more than the checks
        # themselves. The sentinel stands for "unknown": None is a value.
        value_of = view._values.get
        missing = _MISSING
        own_variable = self.own_variable
        checks = 0
        count = 0
        for nogood in nogoods:
            if above is not None and (nogood._variables <= above) != higher:
                continue
            checks += 1
            for variable, value in nogood._pairs:
                if variable == own_variable:
                    if value != own_value:
                        break
                elif value_of(variable, missing) != value:
                    break
            else:
                count += 1
                if found is not None:
                    found.append(nogood)
                if first:
                    break
        self.counter.total += checks
        return count

    # -- priority classification (not cost-counted) ------------------------

    def outranking(
        self, view: AgentView, own_priority: int
    ) -> AbstractSet[VariableId]:
        """The owner plus every variable that outranks it under *view*.

        A nogood is higher exactly when its variables are a subset of this
        set. The set is the store's own, refilled in place: callers read it
        and must not mutate it or keep it across a priority change.

        An unknown variable reads as priority 0, and joining the view at
        priority 0 does not bump ``view.priority_version``, so the set never
        depends on view membership at priority 0: at own priority 0 it is
        every id below the owner's plus the view's variables at a positive
        priority (variable ids are non-negative); above 0 only view
        variables at a positive priority can outrank the owner. Either way
        only the view's non-zero priorities are read. One slot suffices,
        since priorities change on backtracks only: the set is rebuilt when
        the view object, its priority version or the owner's priority
        changes.
        """
        key = (view, view.priority_version, own_priority)
        if key == self._above_for:
            self.key_cache_hits += 1
            return self._above
        self.key_cache_misses += 1
        own = self.own_variable
        # Refilled in place: a fresh set per rebuild was most of the
        # store's transient allocation per message.
        above = self._above
        above.clear()
        if own_priority == 0:
            above.update(range(own))
        above.add(own)
        for variable, priority in view._priorities.items():
            if priority > own_priority or (
                priority == own_priority and variable < own
            ):
                above.add(variable)
        self._above_for = key
        return above

    def priority_key_of(self, nogood: Nogood, view: AgentView) -> OrderKey:
        """The nogood's priority key under the priorities recorded in *view*.

        Defined by the paper as the lowest-ranked variable in the nogood
        other than the owner's. Unknown variables contribute priority 0.
        Only resolvent selection needs the key itself; the scans classify
        by :meth:`is_higher`'s variable set instead.
        """
        own_variable = self.own_variable
        priority_of = view.priority_of
        return nogood_priority_key(
            (priority_of(variable), variable)
            for variable in nogood.variables
            if variable != own_variable
        )

    def is_higher(
        self, nogood: Nogood, view: AgentView, own_priority: int
    ) -> bool:
        """True if *nogood* ranks higher than the owner's variable.

        Equal to ``priority_key_of(nogood, view) > order_key(own_priority,
        owner)``, tested as one subset check against the cached set of
        variables that outrank the owner.
        """
        return nogood.variables <= self.outranking(view, own_priority)

    # -- composite queries used by the algorithms ---------------------------

    def violated(self, view: AgentView, own_value: Value) -> List[Nogood]:
        """All stored nogoods violated with the owner at *own_value*."""
        found: List[Nogood] = []
        self._scan(self.for_value(own_value), view, own_value, found=found)
        return found

    def is_consistent(self, view: AgentView, own_value: Value) -> bool:
        """True when no stored nogood is violated with the owner at *own_value*.

        Short-circuits on the first violation (and stops counting checks
        there), matching ABT's classical consistency scan.
        """
        return not self._scan(
            self.for_value(own_value), view, own_value, first=True
        )

    def violated_higher(
        self, view: AgentView, own_value: Value, own_priority: int
    ) -> List[Nogood]:
        """The higher nogoods violated with the owner at *own_value*.

        Each violation test on a higher nogood costs one check; lower
        nogoods are filtered out by priority without a violation test (and
        without a check), matching the paper's rule that an agent "only
        performs this test for a nogood whose priority is higher".
        """
        found: List[Nogood] = []
        above = self.outranking(view, own_priority)
        self._scan(
            self.for_value(own_value), view, own_value, above, found=found
        )
        return found

    def count_violated_higher(
        self, view: AgentView, own_value: Value, own_priority: int
    ) -> int:
        """How many higher nogoods are violated with the owner at *own_value*.

        Exactly :meth:`violated_higher` without materialising the list —
        same scan, same per-higher-nogood check counting — for the callers that only test the result's truthiness.
        """
        above = self.outranking(view, own_priority)
        return self._scan(self.for_value(own_value), view, own_value, above)

    def count_violated_lower(
        self, view: AgentView, own_value: Value, own_priority: int
    ) -> int:
        """How many lower nogoods are violated with the owner at *own_value*."""
        above = self.outranking(view, own_priority)
        return self._scan(
            self.for_value(own_value), view, own_value, above, False
        )

    def count_violated(self, view: AgentView, own_value: Value) -> int:
        """How many stored nogoods are violated with the owner at *own_value*."""
        return self._scan(self.for_value(own_value), view, own_value)

    # -- batch entry points (one pass over a candidate-value list) ----------

    def violated_batch(
        self, view: AgentView, values: Sequence[Value]
    ) -> List[List[Nogood]]:
        """:meth:`violated` for every candidate value, in order."""
        return [self.violated(view, value) for value in values]

    def count_violated_batch(
        self, view: AgentView, values: Sequence[Value]
    ) -> List[int]:
        """:meth:`count_violated` for every candidate value, in order."""
        return [
            self._scan(self.for_value(value), view, value) for value in values
        ]

    def violated_higher_batch(
        self, view: AgentView, values: Sequence[Value], own_priority: int
    ) -> List[List[Nogood]]:
        """:meth:`violated_higher` for every candidate value, in order."""
        return [
            self.violated_higher(view, value, own_priority)
            for value in values
        ]

    def count_violated_higher_batch(
        self, view: AgentView, values: Sequence[Value], own_priority: int
    ) -> List[int]:
        """:meth:`count_violated_higher` for every candidate value, in order.

        A flat int list for the callers that only ask "is any higher
        nogood violated at this value?"; the outranking set is looked up
        once for the whole batch.
        """
        above = self.outranking(view, own_priority)
        return [
            self._scan(self.for_value(value), view, value, above)
            for value in values
        ]

    def count_violated_lower_batch(
        self, view: AgentView, values: Sequence[Value], own_priority: int
    ) -> List[int]:
        """:meth:`count_violated_lower` for every candidate value, in order."""
        above = self.outranking(view, own_priority)
        return [
            self._scan(self.for_value(value), view, value, above, False)
            for value in values
        ]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(x{self.own_variable}, "
            f"{len(self._all)} nogoods, {self.counter.total} checks)"
        )


_EMPTY: ReadOnlyBucket = ReadOnlyBucket()
_MISSING = object()


class LinearNogoodStore(NogoodStore):
    """A store without the per-value index, for the ablation benchmark.

    Every candidate-value test scans all stored nogoods. Functionally
    identical to :class:`NogoodStore` (nogoods binding the owner to a
    different value simply fail their violation test), but each such failed
    test costs a check — this is what the per-value index saves, and
    ``benchmarks/bench_ablation_store.py`` measures the difference.
    """

    __slots__ = ()

    def for_value(self, value: Value) -> List[Nogood]:  # noqa: ARG002
        return self._insertion

