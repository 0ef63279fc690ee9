"""Runtime substrate: messages, networks, metrics, and the cycle simulator.

The paper's experiments run on a simulator of a synchronous distributed
system; this package is that simulator, factored so the same agents run
unchanged on delayed/asynchronous network models.
"""

from .agent import SimulatedAgent
from .messages import (
    ImproveMessage,
    Message,
    NogoodMessage,
    OkMessage,
    OkRoundMessage,
    Outgoing,
    RequestValueMessage,
)
from .metrics import MetricsCollector
from .network import (
    FixedDelayNetwork,
    LossyNetwork,
    Network,
    RandomDelayNetwork,
    ScheduledNetwork,
    SynchronousNetwork,
)
from .random_source import derive_rng, derive_seed
from .simulator import DEFAULT_MAX_CYCLES, RunResult, SynchronousSimulator
from .termination import (
    GlobalSolutionDetector,
    IncrementalSolutionDetector,
    collect_assignment,
)
from .trace import MessageEvent, TraceRecorder, ValueChangeEvent

__all__ = [
    "DEFAULT_MAX_CYCLES",
    "FixedDelayNetwork",
    "GlobalSolutionDetector",
    "IncrementalSolutionDetector",
    "LossyNetwork",
    "MessageEvent",
    "ImproveMessage",
    "Message",
    "MetricsCollector",
    "Network",
    "NogoodMessage",
    "OkMessage",
    "OkRoundMessage",
    "Outgoing",
    "RandomDelayNetwork",
    "RequestValueMessage",
    "RunResult",
    "ScheduledNetwork",
    "SimulatedAgent",
    "SynchronousNetwork",
    "SynchronousSimulator",
    "TraceRecorder",
    "ValueChangeEvent",
    "collect_assignment",
    "derive_rng",
    "derive_seed",
]
