"""The interleaving verifier: ``repro verify``.

The static half (:mod:`repro.verify.effects`, over the class graph of
:mod:`repro.verify.graph`) predicts which message handlers commute; the
dynamic half *tests* those predictions by driving the
:class:`~repro.runtime.simulator.SynchronousSimulator` through
systematically chosen delivery orders on a pinned corpus of small
instances.

* :mod:`repro.verify.corpus` — the pinned n≤8 coloring instances and the
  algorithms run on them;
* :mod:`repro.verify.explorer` — the DPOR-style schedule explorer: a DFS
  over scheduling decisions recorded by
  :class:`~repro.runtime.network.ScheduledNetwork`, pruning reorderings
  the static commutativity matrix proves equivalent;
* :mod:`repro.verify.invariants` — what must hold on *every* explored
  interleaving: outcome agreement, no lost nogoods, no quiescent
  failure, termination-detector agreement, and bit-identical replay on the
  synchronous network.

See DESIGN.md ("Interleaving verification") for the equivalence-class
argument and the soundness caveats of the pruning.
"""

from .corpus import PINNED_CORPUS, CorpusEntry, corpus_by_name
from .explorer import (
    EntryReport,
    ExplorationReport,
    ScheduleRun,
    explore_corpus,
    explore_entry,
    repo_commutativity_matrix,
)
from .invariants import check_determinism, check_run

__all__ = [
    "PINNED_CORPUS",
    "CorpusEntry",
    "EntryReport",
    "ExplorationReport",
    "ScheduleRun",
    "check_determinism",
    "check_run",
    "corpus_by_name",
    "explore_corpus",
    "explore_entry",
    "repo_commutativity_matrix",
]
