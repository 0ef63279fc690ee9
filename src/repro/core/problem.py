"""Problem models: centralized CSPs and distributed CSPs.

A :class:`CSP` is the classical object — variables with finite domains plus
a set of nogoods. A :class:`DisCSP` wraps a CSP with an ownership map from
variables to agents (Section 2.1 of the paper: "a distributed CSP is a CSP
where variables and nogoods are distributed among multiple agents"). Each
agent's local problem consists of its own variables and *all nogoods
relevant to them*, including inter-agent nogoods — exactly the paper's
assumption — so the local view is derived, not stored separately.

The distribution of a DisCSP is part of the problem statement, not a solving
strategy: the paper is explicit that a distributed CSP must not be confused
with solving a CSP in a distributed manner.
"""

from __future__ import annotations

import random
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
        Tuple,
)

from .exceptions import ModelError
from .nogood import Nogood
from .variables import Domain, Value, VariableId

#: Agents are plain integer ids, like variables.
AgentId = int


class CSP:
    """A constraint satisfaction problem over nogood constraints."""

    __slots__ = ("_domains", "_variables", "_nogoods", "_by_variable")

    def __init__(
        self,
        domains: Mapping[VariableId, Domain],
        nogoods: Iterable[Nogood],
    ) -> None:
        if not domains:
            raise ModelError("a CSP needs at least one variable")
        self._domains: Dict[VariableId, Domain] = dict(domains)
        self._variables: Tuple[VariableId, ...] = tuple(sorted(self._domains))
        if self._variables[0] < 0:
            raise ModelError(
                f"variable ids must be non-negative, got {self._variables[0]}"
            )
        self._nogoods: Tuple[Nogood, ...] = tuple(nogoods)
        self._by_variable: Dict[VariableId, List[Nogood]] = {
            variable: [] for variable in self._variables
        }
        for nogood in self._nogoods:
            for variable in nogood.variables:
                if variable not in self._domains:
                    raise ModelError(
                        f"nogood {nogood!r} mentions undeclared variable "
                        f"{variable}"
                    )
                if nogood.value_of(variable) not in self._domains[variable]:
                    raise ModelError(
                        f"nogood {nogood!r} binds x{variable} to a value "
                        f"outside its domain"
                    )
                self._by_variable[variable].append(nogood)

    # -- structure ---------------------------------------------------------

    @property
    def variables(self) -> Tuple[VariableId, ...]:
        """All variable ids, ascending."""
        return self._variables

    @property
    def nogoods(self) -> Tuple[Nogood, ...]:
        """All constraints, in definition order."""
        return self._nogoods

    def domain_of(self, variable: VariableId) -> Domain:
        """The domain of *variable*."""
        try:
            return self._domains[variable]
        except KeyError:
            raise ModelError(f"unknown variable {variable}") from None

    def relevant_nogoods(self, variable: VariableId) -> Tuple[Nogood, ...]:
        """The nogoods mentioning *variable*, in definition order."""
        if variable not in self._by_variable:
            raise ModelError(f"unknown variable {variable}")
        return tuple(self._by_variable[variable])

    def neighbors_of(self, variable: VariableId) -> FrozenSet[VariableId]:
        """Variables sharing at least one nogood with *variable*."""
        linked = set()
        for nogood in self._by_variable[variable]:
            linked.update(nogood.variables)
        linked.discard(variable)
        return frozenset(linked)

    # -- semantics ---------------------------------------------------------

    def is_complete(self, assignment: Mapping[VariableId, Value]) -> bool:
        """True if *assignment* assigns every variable an in-domain value."""
        for variable in self._variables:
            if variable not in assignment:
                return False
            if assignment[variable] not in self._domains[variable]:
                return False
        return True

    def violated_nogoods(
        self, assignment: Mapping[VariableId, Value]
    ) -> List[Nogood]:
        """The nogoods violated by *assignment* (which may be partial)."""
        plain = dict(assignment)
        return [nogood for nogood in self._nogoods if nogood.prohibits(plain)]

    def is_solution(self, assignment: Mapping[VariableId, Value]) -> bool:
        """True if *assignment* is complete, in-domain, and violates nothing."""
        if not self.is_complete(assignment):
            return False
        plain = dict(assignment)
        return not any(nogood.prohibits(plain) for nogood in self._nogoods)

    def __repr__(self) -> str:
        return (
            f"CSP({len(self._variables)} variables, "
            f"{len(self._nogoods)} nogoods)"
        )


class DisCSP:
    """A CSP whose variables (and their relevant nogoods) belong to agents.

    The common case — one variable per agent, agent id equal to variable
    id — is built with :meth:`one_variable_per_agent`. The general
    constructor accepts any ownership map and supports the multi-variable
    extension of Section 5.
    """

    __slots__ = ("_csp", "_owner", "_agents", "_variables_of")

    def __init__(
        self,
        csp: CSP,
        owner: Mapping[VariableId, AgentId],
    ) -> None:
        missing = set(csp.variables) - set(owner)
        if missing:
            raise ModelError(f"variables without an owner: {sorted(missing)}")
        extra = set(owner) - set(csp.variables)
        if extra:
            raise ModelError(
                f"ownership map mentions unknown variables: {sorted(extra)}"
            )
        self._csp = csp
        self._owner: Dict[VariableId, AgentId] = dict(owner)
        variables_of: Dict[AgentId, List[VariableId]] = {}
        for variable in csp.variables:
            variables_of.setdefault(self._owner[variable], []).append(variable)
        self._variables_of: Dict[AgentId, Tuple[VariableId, ...]] = {
            agent: tuple(variables)
            for agent, variables in variables_of.items()
        }
        self._agents: Tuple[AgentId, ...] = tuple(sorted(self._variables_of))

    @classmethod
    def one_variable_per_agent(
        cls,
        domains: Mapping[VariableId, Domain],
        nogoods: Iterable[Nogood],
    ) -> "DisCSP":
        """Build the paper's standard setting: agent *i* owns variable *i*."""
        csp = CSP(domains, nogoods)
        return cls(csp, {variable: variable for variable in csp.variables})

    @classmethod
    def from_csp(
        cls, csp: CSP, owner: Optional[Mapping[VariableId, AgentId]] = None
    ) -> "DisCSP":
        """Distribute an existing CSP (default: one variable per agent)."""
        if owner is None:
            owner = {variable: variable for variable in csp.variables}
        return cls(csp, owner)

    # -- structure -----------------------------------------------------------

    @property
    def csp(self) -> CSP:
        """The underlying global CSP."""
        return self._csp

    @property
    def agents(self) -> Tuple[AgentId, ...]:
        """All agent ids, ascending."""
        return self._agents

    @property
    def variables(self) -> Tuple[VariableId, ...]:
        """All variable ids, ascending."""
        return self._csp.variables

    def owner_of(self, variable: VariableId) -> AgentId:
        """The agent that owns *variable*."""
        try:
            return self._owner[variable]
        except KeyError:
            raise ModelError(f"unknown variable {variable}") from None

    def variables_of(self, agent: AgentId) -> Tuple[VariableId, ...]:
        """The variables owned by *agent*."""
        try:
            return self._variables_of[agent]
        except KeyError:
            raise ModelError(f"unknown agent {agent}") from None

    def relevant_nogoods(self, variable: VariableId) -> Tuple[Nogood, ...]:
        """The nogoods mentioning *variable*, in definition order.

        The variable→constraint adjacency of the global CSP, exposed on the
        distributed problem so observers (e.g. the incremental solution
        detector) can re-evaluate only the constraints a value change can
        affect.
        """
        return self._csp.relevant_nogoods(variable)

    def local_nogoods(self, agent: AgentId) -> Tuple[Nogood, ...]:
        """All nogoods relevant to *agent*: those mentioning its variables.

        Inter-agent nogoods appear in the local set of every endpoint agent,
        per the paper's assumption that each local problem "includes all
        nogoods that are relevant to variables in P_i". Nogoods touching
        several of the agent's own variables are reported once.
        """
        seen = set()
        ordered: List[Nogood] = []
        for variable in self.variables_of(agent):
            for nogood in self._csp.relevant_nogoods(variable):
                if nogood not in seen:
                    seen.add(nogood)
                    ordered.append(nogood)
        return tuple(ordered)

    def neighbors_of(self, agent: AgentId) -> FrozenSet[AgentId]:
        """Agents sharing at least one nogood with *agent*."""
        linked = set()
        for nogood in self.local_nogoods(agent):
            for variable in nogood.variables:
                linked.add(self._owner[variable])
        linked.discard(agent)
        return frozenset(linked)

    def is_one_variable_per_agent(self) -> bool:
        """True if every agent owns exactly one variable."""
        return all(
            len(variables) == 1 for variables in self._variables_of.values()
        )

    # -- semantics -----------------------------------------------------------

    def is_solution(self, assignment: Mapping[VariableId, Value]) -> bool:
        """True if *assignment* solves the global CSP."""
        return self._csp.is_solution(assignment)

    def violated_nogoods(
        self, assignment: Mapping[VariableId, Value]
    ) -> List[Nogood]:
        """The globally violated nogoods under *assignment*."""
        return self._csp.violated_nogoods(assignment)

    def __repr__(self) -> str:
        return (
            f"DisCSP({len(self._agents)} agents, "
            f"{len(self.variables)} variables, "
            f"{len(self._csp.nogoods)} nogoods)"
        )


def random_assignment(
    problem: CSP, rng: "random.Random"
) -> Dict[VariableId, Value]:
    """Draw a uniform random complete assignment for *problem* using *rng*."""
    return {
        variable: rng.choice(problem.domain_of(variable).values)
        for variable in problem.variables
    }
