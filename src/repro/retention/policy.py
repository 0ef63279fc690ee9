"""Retention policies: bounded nogood knowledge bases.

The paper's stores keep every learned nogood forever, which is exactly
right for one-shot trials and exactly wrong for a long-running service:
memory grows without bound and every candidate-value scan pays for
history that stopped mattering long ago. Following "Efficient Knowledge
Base Management in DCSP" (see PAPERS.md), a :class:`RetentionPolicy`
bounds the *learned* population of a store while the completeness-
critical nogoods — the problem's initial constraints and the mandatory
deadend resolvents (see :meth:`~repro.core.store.NogoodStore.pin_slot`)
— are pinned and never evicted.

Four policies, selected by spec string (:func:`retention_policy`):

* ``keep-all`` — the paper's behaviour; records everything forever.
* ``lru:CAP`` — least-recently-*violated* eviction down to ``CAP``
  learned nogoods per store. "Use" is a violation observed by a counted
  query — the store reports those through :meth:`RetentionPolicy.on_use`
  in scan order, which the dict store and the linear oracle share, so
  eviction decisions do not depend on the store's index.
* ``decay:CAP[:HALF_LIFE]`` — exponential activity decay à la
  MiniSat/Chaff clause activities: every use adds 1 to a nogood's
  activity, and activities halve every ``HALF_LIFE`` store events;
  eviction removes the lowest-activity learned nogoods down to ``CAP``.
* ``subsume`` — relevance pruning without a size cap: whenever a newly
  learned nogood is a subset of an already stored learned nogood, the
  superset is evicted (the subset prohibits strictly more assignments,
  so the superset can never fire without it).

Every policy is deterministic: decisions depend only on the add/use
event stream, with ``(recency, insertion order)`` tie-breaks — no RNG,
no wall clock, per the repro-lint rules.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from ..core.exceptions import ModelError
from ..core.nogood import Nogood

if TYPE_CHECKING:
    from ..core.store import NogoodStore


class RetentionPolicy(ABC):
    """Decides which learned nogoods a store keeps.

    A policy instance is **per store** (it holds per-nogood recency or
    activity state); use a factory — e.g. :func:`retention_policy` — to
    stamp one out per agent. The store drives the policy through three
    hooks:

    * :meth:`on_add` — after a nogood enters the store; returns the
      nogoods to evict *now* (the store removes them and reports each
      removal back through :meth:`on_remove`);
    * :meth:`on_use` — a violation of the nogood was observed by a
      counted query (only called when :attr:`tracks_use` is True, so
      keep-all pays nothing on the hot path);
    * :meth:`on_remove` — the nogood left the store, for any reason.

    Policies must never select a pinned nogood for eviction — iterate
    :meth:`~repro.core.store.NogoodStore.evictable_nogoods`, which
    excludes them. The store's :meth:`~repro.core.store.NogoodStore.remove`
    additionally refuses pinned nogoods outright, so the completeness
    caveat holds even against a buggy policy.
    """

    #: Label used in soak/bench tables.
    name: str = "?"

    #: True when the policy enforces a size cap on learned nogoods.
    bounded: bool = False

    #: True when the policy needs :meth:`on_use` notifications; stores
    #: skip the notification machinery entirely when this is False.
    tracks_use: bool = False

    @abstractmethod
    def on_add(
        self, store: "NogoodStore", nogood: Nogood, learned: bool
    ) -> Sequence[Nogood]:
        """React to *nogood* entering *store*; return nogoods to evict."""

    def on_use(self, nogood: Nogood) -> None:
        """A counted query observed *nogood* violated."""
        del nogood

    def on_remove(self, nogood: Nogood) -> None:
        """*nogood* left the store (evicted by this or any other cause)."""
        del nogood

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


_NO_EVICTIONS: Tuple[Nogood, ...] = ()


class KeepAllPolicy(RetentionPolicy):
    """The paper's behaviour: every recorded nogood is kept forever.

    Also the store default (a store with no policy attached behaves
    identically), so ``keep-all`` runs are bit-identical to runs predating
    the retention subsystem.
    """

    name = "keep-all"

    def on_add(
        self, store: "NogoodStore", nogood: Nogood, learned: bool
    ) -> Sequence[Nogood]:
        del store, nogood, learned
        return _NO_EVICTIONS


class LruPolicy(RetentionPolicy):
    """Evict the least-recently-violated learned nogood over ``cap``.

    Recency is a logical event counter bumped on every add and every
    observed violation; a nogood that never fires keeps its add-time
    stamp and is evicted first. Ties (possible only for never-used
    nogoods added in one batch, which cannot happen — stamps are unique)
    fall back to the stamp order itself.
    """

    bounded = True
    tracks_use = True

    def __init__(self, cap: int) -> None:
        if cap < 1:
            raise ModelError(f"lru cap must be at least 1, got {cap}")
        self.cap = cap
        self.name = f"lru:{cap}"
        self._clock = 0
        self._stamp: Dict[Nogood, int] = {}

    def on_add(
        self, store: "NogoodStore", nogood: Nogood, learned: bool
    ) -> Sequence[Nogood]:
        self._clock += 1
        if learned:
            self._stamp[nogood] = self._clock
        return select_over_cap(
            store, self.cap, lambda victim: self._stamp.get(victim, 0)
        )

    def on_use(self, nogood: Nogood) -> None:
        self._clock += 1
        if nogood in self._stamp:
            self._stamp[nogood] = self._clock

    def on_remove(self, nogood: Nogood) -> None:
        self._stamp.pop(nogood, None)


class ActivityDecayPolicy(RetentionPolicy):
    """Evict the lowest-activity learned nogood over ``cap``.

    Chaff-style bump-and-decay: an observed violation adds one unit of
    activity, and all activities decay by half every ``half_life`` store
    events. Implemented with a growing per-event increment instead of
    rescaling every stored activity (the standard VSIDS trick), with a
    global renormalization when the increment approaches float overflow.
    """

    bounded = True
    tracks_use = True

    #: Renormalize when the bump increment exceeds this.
    _RESCALE_LIMIT = 1e100

    def __init__(self, cap: int, half_life: int = 64) -> None:
        if cap < 1:
            raise ModelError(f"decay cap must be at least 1, got {cap}")
        if half_life < 1:
            raise ModelError(
                f"decay half-life must be at least 1, got {half_life}"
            )
        self.cap = cap
        self.half_life = half_life
        self.name = f"decay:{cap}:{half_life}"
        #: Per-event multiplicative growth of the bump: 2^(1/half_life),
        #: so activities *relatively* halve every half_life events.
        self._growth = 2.0 ** (1.0 / half_life)
        self._increment = 1.0
        self._order = 0
        #: nogood -> (activity, insertion index); the index breaks exact
        #: activity ties deterministically (older evicts first).
        self._activity: Dict[Nogood, Tuple[float, int]] = {}

    def _tick(self) -> None:
        self._increment *= self._growth
        if self._increment > self._RESCALE_LIMIT:
            scale = 1.0 / self._increment
            self._activity = {
                nogood: (activity * scale, order)
                for nogood, (activity, order) in self._activity.items()
            }
            self._increment = 1.0

    def on_add(
        self, store: "NogoodStore", nogood: Nogood, learned: bool
    ) -> Sequence[Nogood]:
        self._tick()
        if learned:
            self._order += 1
            self._activity[nogood] = (self._increment, self._order)
        return select_over_cap(
            store,
            self.cap,
            lambda victim: self._activity.get(victim, (0.0, 0)),
        )

    def on_use(self, nogood: Nogood) -> None:
        self._tick()
        entry = self._activity.get(nogood)
        if entry is not None:
            self._activity[nogood] = (entry[0] + self._increment, entry[1])

    def on_remove(self, nogood: Nogood) -> None:
        self._activity.pop(nogood, None)


class SubsumptionPrunePolicy(RetentionPolicy):
    """Evict learned nogoods that a newly learned nogood subsumes.

    If ``new ⊆ old`` (as pair sets), every assignment violating ``old``
    also violates ``new``, so ``old`` can never change a consultation
    outcome once ``new`` is stored — it only costs checks. Unbounded
    (no cap), so this is a *relevance* policy, not a budget policy; the
    soak harness reports it alongside the bounded ones to show how much
    of the memory curve pure redundancy elimination recovers.
    """

    name = "subsume"

    def on_add(
        self, store: "NogoodStore", nogood: Nogood, learned: bool
    ) -> Sequence[Nogood]:
        if not learned:
            return _NO_EVICTIONS
        return [
            old
            for old in store.evictable_nogoods()
            if old is not nogood
            and old != nogood
            and nogood.is_subset_of(old)
        ]


def select_over_cap(
    store: "NogoodStore",
    cap: int,
    score: "object",
) -> List[Nogood]:
    """The lowest-scoring evictable nogoods beyond *cap* learned ones.

    The excess is measured against the store's full learned count (pinned
    learned nogoods included — they occupy budget but cannot be chosen),
    so a bounded policy keeps ``learned_count <= max(cap, pinned)``.
    """
    excess = store.learned_count() - cap
    if excess <= 0:
        return []
    candidates = sorted(store.evictable_nogoods(), key=score)  # type: ignore[arg-type]
    return candidates[:excess]
