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
    TYPE_CHECKING,
    AbstractSet,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    NoReturn,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .assignment import AgentView
from .exceptions import ModelError
from .nogood import Nogood
from .priorities import OrderKey, nogood_priority_key
from .variables import Value, VariableId

if TYPE_CHECKING:  # retention imports core at runtime, not vice versa
    from ..retention.interner import NogoodInterner
    from ..retention.policy import RetentionPolicy


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
        "_retention",
        "_on_use",
        "_interner",
        "_pinned",
        "_slot_pins",
        "_slot_pin_counts",
        "_learned_count",
        "evictions",
    )

    def __init__(
        self,
        own_variable: VariableId,
        counter: Optional[CheckCounter] = None,
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
        # Retention state (see repro.retention). With no policy attached
        # the store behaves exactly as before the subsystem existed:
        # every add is kept forever and the hot path pays one flag test.
        self._retention: Optional["RetentionPolicy"] = None
        #: The policy's ``on_use``, for use-tracking policies only.
        self._on_use: Optional[Callable[[Nogood], object]] = None
        self._interner: Optional["NogoodInterner"] = None
        #: Permanently pinned nogoods (the problem's initial constraints):
        #: they define soundness and are never evictable.
        self._pinned: Set[Nogood] = set()
        #: slot -> the nogood that slot currently protects. AWC/ABT pin
        #: the latest deadend resolvent per announcing agent here — the
        #: completeness rule ("same nogood as before → do nothing") is
        #: only sound while the recorded copy survives at the recipients.
        self._slot_pins: Dict[Hashable, Nogood] = {}
        #: nogood -> how many slots currently protect it (several agents
        #: may have announced the same structural nogood).
        self._slot_pin_counts: Dict[Nogood, int] = {}
        #: Learned (non-initial) nogoods currently stored; the quantity
        #: retention budgets bound.
        self._learned_count = 0
        #: How many nogoods have been evicted over this store's lifetime.
        self.evictions = 0

    # -- content management ------------------------------------------------

    def add(
        self,
        nogood: Nogood,
        *,
        pinned: bool = False,
        slot: Optional[Hashable] = None,
    ) -> bool:
        """Record *nogood*; returns False if it was already present.

        ``pinned`` marks the nogood permanently unevictable (used for the
        problem's initial constraints). ``slot`` additionally takes the
        rotating pin of that slot (see :meth:`pin_slot`) — applied before
        the retention policy runs, so a mandatory nogood can never be
        evicted in the same add that records it.
        """
        if self._interner is not None:
            nogood = self._interner.intern(nogood)
        if nogood in self._all:
            if slot is not None:
                self.pin_slot(slot, nogood)
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
        if pinned:
            self._pinned.add(nogood)
        else:
            self._learned_count += 1
        if slot is not None:
            self.pin_slot(slot, nogood)
        if self._retention is not None:
            victims = self._retention.on_add(self, nogood, not pinned)
            for victim in victims:
                self.remove(victim)
        return True

    def remove(self, nogood: Nogood) -> bool:
        """Evict *nogood* from the store; returns False if it was absent.

        Raises :class:`~repro.core.exceptions.ModelError` for a pinned
        nogood — initial constraints and mandatory deadend resolvents
        must never leave the store (the completeness caveat), so even a
        buggy retention policy cannot drop them.

        Every derived structure is kept consistent: the per-value index,
        the insertion order and the ``for_value`` combined-list cache all
        forget the nogood (a stale cached batch would otherwise keep
        serving the evicted nogood).
        """
        if nogood not in self._all:
            return False
        if nogood in self._pinned or nogood in self._slot_pin_counts:
            raise ModelError(
                f"refusing to evict pinned nogood {nogood!r}: pinned "
                "nogoods are completeness-critical (initial constraints "
                "and mandatory deadend resolvents)"
            )
        self._all.discard(nogood)
        list.remove(self._insertion, nogood)
        if nogood.mentions(self.own_variable):
            own_value = nogood.value_of(self.own_variable)
            bucket = self._by_value.get(own_value)
            if bucket is not None:
                list.remove(bucket, nogood)
                if not bucket:
                    del self._by_value[own_value]
            self._combined_cache.pop(own_value, None)
        else:
            list.remove(self._unconditional, nogood)
            self._combined_cache.clear()
        self._learned_count -= 1
        self.evictions += 1
        if self._retention is not None:
            self._retention.on_remove(nogood)
        return True

    # -- retention plumbing -------------------------------------------------

    @property
    def retention(self) -> Optional["RetentionPolicy"]:
        """The attached retention policy (None = keep everything)."""
        return self._retention

    def set_retention(self, policy: Optional["RetentionPolicy"]) -> None:
        """Attach *policy* (per-store instance; None detaches)."""
        self._retention = policy
        self._on_use = (
            policy.on_use if policy is not None and policy.tracks_use else None
        )

    @property
    def interner(self) -> Optional["NogoodInterner"]:
        """The shared cross-agent interner, if one was adopted."""
        return self._interner

    def adopt_interner(self, interner: "NogoodInterner") -> None:
        """Intern future adds through *interner*; register current contents.

        Existing stored references are left in place (they stay
        structurally equal to the canonical instances), but registering
        them means every *other* agent that later records an equal
        nogood shares this store's object.
        """
        self._interner = interner
        for nogood in self._insertion:
            interner.intern(nogood)

    def pin_slot(self, slot: Hashable, nogood: Nogood) -> None:
        """Protect *nogood* from eviction until *slot* pins another one.

        One slot per announcing agent keeps the pin population bounded by
        the neighborhood size while guaranteeing the *latest* mandatory
        deadend resolvent from each peer survives. A nogood not in the
        store is ignored (e.g. one the recording policy dropped).
        """
        if nogood not in self._all:
            return
        previous = self._slot_pins.get(slot)
        if previous == nogood:
            return
        if previous is not None:
            count = self._slot_pin_counts[previous] - 1
            if count:
                self._slot_pin_counts[previous] = count
            else:
                del self._slot_pin_counts[previous]
        self._slot_pins[slot] = nogood
        self._slot_pin_counts[nogood] = (
            self._slot_pin_counts.get(nogood, 0) + 1
        )

    def is_pinned(self, nogood: Nogood) -> bool:
        """True when *nogood* is protected from eviction."""
        return nogood in self._pinned or nogood in self._slot_pin_counts

    def is_permanently_pinned(self, nogood: Nogood) -> bool:
        """True when *nogood* was added with ``pinned=True`` (initial)."""
        return nogood in self._pinned

    def slot_pins(self) -> Iterator[Tuple[Hashable, Nogood]]:
        """The rotating pins, in slot-establishment order."""
        return iter(self._slot_pins.items())

    def learned_count(self) -> int:
        """How many learned (non-initial) nogoods are currently stored."""
        return self._learned_count

    def evictable_nogoods(self) -> List[Nogood]:
        """The learned, unpinned nogoods, in insertion order.

        This is the candidate set retention policies choose victims
        from; its deterministic order makes tie-breaks reproducible.
        """
        pinned = self._pinned
        slot_pinned = self._slot_pin_counts
        return [
            nogood
            for nogood in self._insertion
            if nogood not in pinned and nogood not in slot_pinned
        ]

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
        to *found* and, for use-tracking retention policies, touched in
        scan order. *first* stops at the first violation.
        """
        # Package-internal reads of the view's value dict and the nogoods'
        # sets: this loop is where the checks happen, and a property or
        # method call per nogood or pair cost more than the checks
        # themselves. The sentinel stands for "unknown": None is a value.
        value_of = view._values.get
        missing = _MISSING
        own_variable = self.own_variable
        touch = self._on_use
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
                if touch is not None:
                    touch(nogood)
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
        same scan, same per-higher-nogood check counting, same retention
        touches — for the callers that only test the result's truthiness.
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

