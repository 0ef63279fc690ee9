"""Core model: variables, domains, nogoods, agent views, priorities, problems.

This package defines the vocabulary shared by every other part of the
library. Import the common names directly from here::

    from repro.core import CSP, DisCSP, Domain, Nogood, NogoodStore
"""

from .assignment import AgentView, merge_assignments
from .exceptions import (
    GenerationError,
    ModelError,
    ReproError,
    SimulationError,
    SolverError,
    UnsolvableError,
)
from .nogood import Nogood, Pair, union_nogoods
from .priorities import (
    TOP_KEY,
    OrderKey,
    nogood_priority_key,
    order_key,
    outranks,
)
from .problem import CSP, AgentId, DisCSP, random_assignment
from .store import CheckCounter, LinearNogoodStore, NogoodStore
from .variables import (
    BOOLEAN_DOMAIN,
    Domain,
    Value,
    VariableId,
    integer_domain,
)

__all__ = [
    "AgentId",
    "AgentView",
    "BOOLEAN_DOMAIN",
    "CSP",
    "CheckCounter",
    "DisCSP",
    "Domain",
    "GenerationError",
    "LinearNogoodStore",
    "ModelError",
    "Nogood",
    "NogoodStore",
    "OrderKey",
    "Pair",
    "ReproError",
    "SimulationError",
    "SolverError",
    "TOP_KEY",
    "UnsolvableError",
    "Value",
    "VariableId",
    "integer_domain",
    "merge_assignments",
    "nogood_priority_key",
    "order_key",
    "outranks",
    "random_assignment",
    "union_nogoods",
]
