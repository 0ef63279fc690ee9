"""Per-layer spans for the traced run, recorded from the benchmark's side.

The traced run wraps public functions of each ``repro`` layer for the
length of one trial set. Per span it counts calls and sums their time and
the time of the spans they contain; a span's self time is the difference.
A call inside a span of the same name, such as a batch consultation
calling the single-value one, folds into the outer call.

Wrappers exist only inside :meth:`Tracer.installed`, which restores every
attribute on exit. A target that no longer resolves, such as a module a
later change folds away, marks its span absent: the metrics read from the
span are left out instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from typing import Any, Callable, Dict, Iterator, List, Sequence, Set, Tuple

from repro import AlgorithmSpec, RunResult

_CONSULTATIONS = (
    "violated",
    "is_consistent",
    "violated_higher",
    "count_violated_higher",
    "count_violated_lower",
    "count_violated",
    "violated_batch",
    "count_violated_batch",
    "violated_higher_batch",
    "count_violated_higher_batch",
    "count_violated_lower_batch",
)

#: (span, module, attribute path) of every wrapped function.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("algorithms.step", "repro.algorithms.awc", "AwcAgent.step"),
    ("algorithms.step", "repro.algorithms.breakout", "BreakoutAgent.step"),
    *(
        ("store.consult", "repro.core.store", f"NogoodStore.{name}")
        for name in _CONSULTATIONS
    ),
    ("store.add", "repro.core.store", "NogoodStore.add"),
    (
        "learning.make",
        "repro.learning.resolvent",
        "ResolventLearning.make_nogood",
    ),
    ("learning.make", "repro.learning.mcs", "McsLearning.make_nogood"),
    ("learning.make", "repro.learning.none", "NoLearning.make_nogood"),
    ("runtime.send", "repro.runtime.network", "SynchronousNetwork.send"),
    ("runtime.deliver", "repro.runtime.network", "SynchronousNetwork.deliver"),
    # Detection is the detector plus the n-entry assignment built for it.
    (
        "runtime.detect",
        "repro.runtime.termination",
        "IncrementalSolutionDetector.is_solution",
    ),
    ("runtime.detect", "repro.runtime.simulator", "collect_assignment"),
    (
        "runtime.end_cycle",
        "repro.runtime.metrics",
        "MetricsCollector.end_cycle",
    ),
)

#: Per-layer metric -> (span, statistic), for the metrics read off spans.
SPAN_METRICS: Dict[str, Tuple[str, str]] = {
    "algorithms.build_s": ("algorithms.build", "total_s"),
    "algorithms.step_calls": ("algorithms.step", "calls"),
    "algorithms.step_self_s": ("algorithms.step", "self_s"),
    "store.consult_calls": ("store.consult", "calls"),
    "store.consult_s": ("store.consult", "total_s"),
    "store.add_calls": ("store.add", "calls"),
    "store.add_s": ("store.add", "total_s"),
    "learning.make_calls": ("learning.make", "calls"),
    "learning.make_s": ("learning.make", "total_s"),
    "runtime.send_s": ("runtime.send", "total_s"),
    "runtime.deliver_s": ("runtime.deliver", "total_s"),
    "runtime.detect_s": ("runtime.detect", "total_s"),
    "runtime.end_cycle_s": ("runtime.end_cycle", "total_s"),
}

_INHERITED = object()


def resolve(module: str, path: str) -> Tuple[Any, str, Callable[..., Any]]:
    """The owner, attribute name and current value of one target."""
    owner: Any = importlib.import_module(module)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name, getattr(owner, name)


class Tracer:
    """The spans and the agents of one traced trial set."""

    def __init__(
        self, targets: Sequence[Tuple[str, str, str]] = TARGETS
    ) -> None:
        self.targets = targets
        #: span -> [calls, total ns, ns spent in the spans it contains]
        self.spans: Dict[str, List[int]] = {}
        self.absent: Set[str] = set()
        self.agents: List[Any] = []
        self.nogood_sizes: List[int] = []
        self._stack: List[List[Any]] = []

    def wrap(self, span: str, function: Callable[..., Any]) -> Callable[..., Any]:
        """*function*, timed as *span*; learning spans keep nogood sizes."""
        totals = self.spans.setdefault(span, [0, 0, 0])
        stack = self._stack
        sizes = self.nogood_sizes if span == "learning.make" else None
        clock = time.perf_counter_ns

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if stack and stack[-1][0] == span:
                return function(*args, **kwargs)
            frame = [span, 0]
            stack.append(frame)
            started = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if sizes is not None and result is not None:
                sizes.append(len(result))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target that resolves; restore them all on exit."""
        found: Dict[str, List[Tuple[Any, str, Callable[..., Any]]]] = {}
        for span, module, path in self.targets:
            try:
                found.setdefault(span, []).append(resolve(module, path))
            except (ImportError, AttributeError):
                self.absent.add(span)
        patches: List[Tuple[Any, str, Any]] = []
        try:
            for span, resolved in found.items():
                if span in self.absent:
                    continue
                for owner, name, function in resolved:
                    own = vars(owner).get(name, _INHERITED)
                    patches.append((owner, name, own))
                    setattr(owner, name, self.wrap(span, function))
            yield self
        finally:
            for owner, name, own in reversed(patches):
                if own is _INHERITED:
                    delattr(owner, name)
                else:
                    setattr(owner, name, own)

    def capture(self, spec: AlgorithmSpec) -> AlgorithmSpec:
        """*spec*, its build timed as ``algorithms.build``, agents kept."""
        timed = self.wrap("algorithms.build", spec.build)
        agents = self.agents

        def build(*args: Any) -> Sequence[Any]:
            built = timed(*args)
            agents.extend(built)
            return built

        return AlgorithmSpec(name=spec.name, build=build)

    def metrics(self, results: Sequence[RunResult]) -> Dict[str, float]:
        """Per-layer metrics of the traced set; absent spans' left out."""
        values: Dict[str, float] = {}
        for metric, (span, statistic) in SPAN_METRICS.items():
            if span in self.absent or span not in self.spans:
                continue
            calls, total_ns, child_ns = self.spans[span]
            values[metric] = {
                "calls": calls,
                "total_s": total_ns / 1e9,
                "self_s": (total_ns - child_ns) / 1e9,
            }[statistic]
        if "learning.make_calls" in values:
            values["learning.nogood_size_mean"] = (
                statistics.fmean(self.nogood_sizes)
                if self.nogood_sizes
                else 0.0
            )
        values.update(self._store_metrics())
        generated = sum(result.generated_nogoods for result in results)
        redundant = sum(result.redundant_generations for result in results)
        values["learning.generated"] = generated
        values["learning.redundant_ratio"] = (
            redundant / generated if generated else 0.0
        )
        values["runtime.cycles"] = sum(result.cycles for result in results)
        values["runtime.messages"] = sum(
            result.messages_sent for result in results
        )
        return values

    def _store_metrics(self) -> Dict[str, float]:
        """Counters the captured agents' stores keep anyway."""
        values: Dict[str, float] = {}
        agents = self.agents
        try:
            values["store.checks"] = sum(
                agent.check_counter.total for agent in agents
            )
            values["store.learned_max"] = max(
                (agent.store.learned_count() for agent in agents), default=0
            )
        except AttributeError:
            self.absent.add("store.counters")
        try:
            hits = sum(agent.store.key_cache_hits for agent in agents)
            lookups = hits + sum(
                agent.store.key_cache_misses for agent in agents
            )
        except AttributeError:
            self.absent.add("store.key_cache")
        else:
            values["store.key_cache_lookups"] = lookups
            values["store.key_cache_hit_ratio"] = (
                hits / lookups if lookups else 0.0
            )
        return values
