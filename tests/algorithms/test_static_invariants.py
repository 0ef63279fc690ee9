"""Static invariants of agent code the dynamic suites cannot see.

Two properties of ``src/repro/algorithms`` leave no trace in a trajectory,
so the parity suites and the pinned fingerprints pass when they break:

* **M1 — every consistency check is counted.** ``maxcck`` (Section 4's
  cost measure) is the sum of the checks each agent's store counts. A call
  to ``Nogood.prohibits()``, or a counted-check method on something that
  is not a store, tests a nogood without bumping the counter, and the
  search still takes the same path, so only the reported cost drops.
* **A1 — agents never touch the transport.** Agents interact with the
  world only through returned ``Outgoing`` pairs. A dormant reference to a
  transport, mailbox, network, inbox or socket never runs under the
  synchronous simulator, but breaks the read-phase discipline the
  simulator's cost accounting rests on as soon as something supplies one.

Each check runs on the shipped tree, and on a seeded defect of its kind
(an exact ``old`` -> ``new`` edit of real agent code, applied in memory)
to show the check still sees the shape it exists for.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import textwrap
from pathlib import Path
from typing import List, Set, Tuple, Type

import pytest

import repro.algorithms
from repro.runtime.agent import SimulatedAgent

ALGORITHMS = Path(repro.algorithms.__file__).parent

#: Store methods that perform counted consistency checks.
COUNTED_CHECKS = frozenset(
    {"is_violated", "violated_higher", "count_violated",
     "count_violated_higher", "count_violated_lower", "violated",
     "is_consistent", "violated_batch", "count_violated_batch",
     "violated_higher_batch", "count_violated_higher_batch",
     "count_violated_lower_batch"}
)

#: Identifier fragments that mark transport-layer objects.
TRANSPORT_FRAGMENTS = ("transport", "mailbox", "network", "inbox", "socket")

#: ABT tests a value with an uncounted ``prohibits`` loop.
UNCOUNTED_ABT_CHECK = (
    "        return self.store.is_consistent(self.view, value)\n",
    "        assignment = self.view.as_assignment()\n"
    "        assignment[self.variable] = value\n"
    "        return not any(\n"
    "            nogood.prohibits(assignment)\n"
    "            for nogood in self.store.for_value(value)\n"
    "        )\n",
)

#: AWC sends through a transport when one is attached.
AWC_READS_TRANSPORT = (
    "    def _broadcast_ok(self, recipients: Sequence[AgentId]) "
    "-> List[Outgoing]:\n"
    "        message = self._ok_message()\n",
    "    def _broadcast_ok(self, recipients: Sequence[AgentId]) "
    "-> List[Outgoing]:\n"
    "        message = self._ok_message()\n"
    '        transport = getattr(self, "transport", None)\n'
    "        if transport is not None:\n"
    "            for recipient in recipients:\n"
    "                transport.send(self.id, recipient, message)\n"
    "            return []\n",
)


def _is_store(receiver: ast.expr) -> bool:
    if isinstance(receiver, ast.Name):
        name = receiver.id
    elif isinstance(receiver, ast.Attribute):
        name = receiver.attr
    else:
        return False
    return name == "store" or name.endswith("_store")


def uncounted_checks(source: str) -> List[str]:
    """Calls in *source* that test a nogood without counting the check."""
    flagged = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        ):
            continue
        method = node.func.attr
        if method == "prohibits" or (
            method in COUNTED_CHECKS and not _is_store(node.func.value)
        ):
            flagged.append(f"line {node.lineno}: {ast.unparse(node)}")
    return flagged


def transport_references(tree: ast.AST) -> List[str]:
    """Names, attributes and arguments in *tree* that name the transport."""
    flagged = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            identifier = node.id
        elif isinstance(node, ast.Attribute):
            identifier = node.attr
        elif isinstance(node, ast.arg):
            identifier = node.arg
        else:
            continue
        if any(part in identifier.lower() for part in TRANSPORT_FRAGMENTS):
            flagged.append(f"line {node.lineno}: {identifier}")
    return flagged


def agent_classes() -> List[Type[SimulatedAgent]]:
    """Every ``SimulatedAgent`` subclass the ``repro.algorithms`` modules
    define, found at runtime after importing all of them."""
    for module in pkgutil.iter_modules(repro.algorithms.__path__):
        importlib.import_module(f"repro.algorithms.{module.name}")
    found: Set[Type[SimulatedAgent]] = set()
    pending = [SimulatedAgent]
    while pending:
        for subclass in pending.pop().__subclasses__():
            if subclass not in found:
                found.add(subclass)
                pending.append(subclass)
    return sorted(
        (cls for cls in found if cls.__module__.startswith("repro.")),
        key=lambda cls: cls.__qualname__,
    )


def edited(path: Path, edit: Tuple[str, str]) -> str:
    """*path*'s source with one ``old`` -> ``new`` edit applied."""
    old, new = edit
    source = path.read_text(encoding="utf-8")
    assert source.count(old) == 1, f"edit anchor must occur once in {path.name}"
    return source.replace(old, new)


class TestCountedChecks:
    @pytest.mark.parametrize(
        "path", sorted(ALGORITHMS.glob("*.py")), ids=lambda path: path.name
    )
    def test_agent_code_counts_every_check(self, path):
        assert uncounted_checks(path.read_text(encoding="utf-8")) == []

    def test_flags_an_uncounted_prohibits_loop(self):
        source = edited(ALGORITHMS / "abt.py", UNCOUNTED_ABT_CHECK)
        assert uncounted_checks(source) == [
            f"line {line}: nogood.prohibits(assignment)"
            for line, text in enumerate(source.splitlines(), start=1)
            if "nogood.prohibits(assignment)" in text
        ]

    def test_flags_counted_methods_off_the_store(self):
        assert uncounted_checks("self.view.is_violated(nogood)\n") == [
            "line 1: self.view.is_violated(nogood)"
        ]
        assert uncounted_checks(
            "self.store.is_violated(view)\nhandler.local_store.violated(v)\n"
        ) == []


class TestTransportSeparation:
    def test_closure_reaches_every_agent_family(self):
        names = {cls.__name__ for cls in agent_classes()}
        assert {
            "AwcAgent", "AbtAgent", "BreakoutAgent", "MultiVariableAwcAgent"
        } <= names

    def test_agents_never_reference_the_transport(self):
        for cls in agent_classes():
            source = textwrap.dedent(inspect.getsource(cls))
            assert transport_references(ast.parse(source)) == [], cls

    def test_flags_a_dormant_transport_reference(self):
        tree = ast.parse(edited(ALGORITHMS / "awc.py", AWC_READS_TRANSPORT))
        [awc] = [
            node
            for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "AwcAgent"
        ]
        assert [
            reference.split(": ")[1]
            for reference in transport_references(awc)
        ] == ["transport", "transport", "transport"]
