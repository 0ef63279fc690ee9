"""Nogood retention: bounded knowledge bases for long-running workloads.

The paper's stores record forever; this package adds the production
dimension — *forgetting* — as first-class policy objects wired into the
nogood store, plus the cross-agent interner that collapses structurally
identical nogoods to one shared instance.

Specs (accepted by :func:`retention_factory`, ``--retention``, and
``repro soak --policy``)::

    keep-all            the paper's behaviour (store default)
    lru                 LRU eviction at the default cap
    lru:100             LRU eviction, at most 100 learned nogoods/store
    decay:100           activity decay, cap 100, default half-life
    decay:100:32        activity decay, cap 100, half-life 32 events
    subsume             subsumption pruning (relevance, not budget)

See :mod:`repro.retention.policy` for the policy semantics and the
completeness caveat (pinned nogoods are never evicted).
"""

from __future__ import annotations

from typing import Callable, List

from ..core.exceptions import ModelError
from .interner import NogoodInterner
from .policy import (
    ActivityDecayPolicy,
    KeepAllPolicy,
    LruPolicy,
    RetentionPolicy,
    SubsumptionPrunePolicy,
    select_over_cap,
)

#: The base policy names (cap/half-life arguments attach with ``:``).
RETENTION_POLICIES = ("keep-all", "lru", "decay", "subsume")

#: Cap applied when ``lru`` / ``decay`` are given without one.
DEFAULT_CAP = 256

#: Half-life (in store events) applied when ``decay`` omits one.
DEFAULT_HALF_LIFE = 64

#: Builds one fresh policy instance per store (policies hold per-nogood
#: recency/activity state, so they must never be shared between stores).
PolicyFactory = Callable[[], RetentionPolicy]


def _int_arg(spec: str, part: str, what: str) -> int:
    try:
        return int(part)
    except ValueError:
        raise ModelError(
            f"retention spec {spec!r}: {what} must be an integer, "
            f"got {part!r}"
        ) from None


def retention_policy(spec: str) -> RetentionPolicy:
    """Build one policy instance from *spec* (see the module docstring)."""
    name, _, rest = spec.partition(":")
    args: List[str] = rest.split(":") if rest else []
    if name == "keep-all":
        if args:
            raise ModelError(
                f"retention spec {spec!r}: keep-all takes no arguments"
            )
        return KeepAllPolicy()
    if name == "lru":
        if len(args) > 1:
            raise ModelError(
                f"retention spec {spec!r}: lru takes at most one "
                "argument (the cap)"
            )
        cap = _int_arg(spec, args[0], "cap") if args else DEFAULT_CAP
        return LruPolicy(cap)
    if name == "decay":
        if len(args) > 2:
            raise ModelError(
                f"retention spec {spec!r}: decay takes at most two "
                "arguments (cap, half-life)"
            )
        cap = _int_arg(spec, args[0], "cap") if args else DEFAULT_CAP
        half_life = (
            _int_arg(spec, args[1], "half-life")
            if len(args) > 1
            else DEFAULT_HALF_LIFE
        )
        return ActivityDecayPolicy(cap, half_life)
    if name == "subsume":
        if args:
            raise ModelError(
                f"retention spec {spec!r}: subsume takes no arguments"
            )
        return SubsumptionPrunePolicy()
    raise ModelError(
        f"unknown retention policy {spec!r}; expected one of "
        f"{RETENTION_POLICIES} (with optional ':cap[:half-life]' "
        "arguments)"
    )


def retention_factory(spec: str) -> PolicyFactory:
    """A per-store factory for *spec*; validates the spec eagerly."""
    retention_policy(spec)  # raise on a bad spec now, not per agent

    def build() -> RetentionPolicy:
        return retention_policy(spec)

    return build


def spec_with_budget(name: str, budget: int) -> str:
    """Attach *budget* as the cap of a bounded policy's base *name*.

    Unbounded policies (``keep-all``, ``subsume``) ignore the budget; a
    spec that already carries arguments is kept as-is.
    """
    if ":" in name:
        return name
    if name in ("lru", "decay"):
        return f"{name}:{budget}"
    return name


__all__ = [
    "ActivityDecayPolicy",
    "DEFAULT_CAP",
    "DEFAULT_HALF_LIFE",
    "KeepAllPolicy",
    "LruPolicy",
    "NogoodInterner",
    "PolicyFactory",
    "RETENTION_POLICIES",
    "RetentionPolicy",
    "SubsumptionPrunePolicy",
    "retention_factory",
    "retention_policy",
    "select_over_cap",
    "spec_with_budget",
]
