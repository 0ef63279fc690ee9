"""The handler-effect analysis: footprints and the commutativity matrix."""

from repro.verify.effects import (
    commutativity_matrix,
    format_matrix,
    handler_effects,
)
from repro.verify.graph import ProjectGraph

PROBE = '''\
class ProbeAgent(SimulatedAgent):
    def step(self, messages):
        for message in messages:
            if isinstance(message, OkMessage):
                self.view.update(message.variable, message.value)
                self._absorb(message)
            if isinstance(message, NogoodMessage):
                self.store.add(message.nogood)
            if isinstance(message, RequestValueMessage):
                self.replies = self.replies + 1
            if isinstance(message, QueryMessage):
                self.last_check = self.store.is_violated(self.view)
        return []

    def _absorb(self, message):
        self.seen.add(message.sender)
'''


def probe_table():
    graph = ProjectGraph.build_from_sources(
        [("probe.py", PROBE, "algorithms/probe.py")]
    )
    return handler_effects(graph)


class TestFootprints:
    def test_mutating_attribute_calls_are_writes(self):
        effect = probe_table()["ProbeAgent"]["NogoodMessage"]
        assert effect.reads == {"store"}
        assert effect.writes == {"store"}

    def test_self_calls_expand_transitively(self):
        effect = probe_table()["ProbeAgent"]["OkMessage"]
        assert "seen" in effect.writes  # via self._absorb
        assert "view" in effect.writes  # update() mutates

    def test_read_only_methods_do_not_write(self):
        effect = probe_table()["ProbeAgent"]["QueryMessage"]
        assert effect.reads == {"store", "view"}
        assert effect.writes == {"last_check"}

    def test_plain_assignment_reads_and_writes(self):
        effect = probe_table()["ProbeAgent"]["RequestValueMessage"]
        assert effect.reads == {"replies"}
        assert effect.writes == {"replies"}


class TestMatrix:
    def test_disjoint_footprints_commute(self):
        matrix = commutativity_matrix(probe_table())
        key = ("ProbeAgent", "NogoodMessage", "RequestValueMessage")
        assert matrix[key] is True

    def test_write_read_overlap_conflicts(self):
        matrix = commutativity_matrix(probe_table())
        # NogoodMessage writes 'store'; QueryMessage reads it.
        key = ("ProbeAgent", "NogoodMessage", "QueryMessage")
        assert matrix[key] is False

    def test_diagonal_covers_same_type_reordering(self):
        matrix = commutativity_matrix(probe_table())
        assert matrix[("ProbeAgent", "OkMessage", "OkMessage")] is False

    def test_symmetric(self):
        matrix = commutativity_matrix(probe_table())
        for (cls, type_a, type_b), commutes in matrix.items():
            assert matrix[(cls, type_b, type_a)] == commutes

    def test_format_names_conflicts(self):
        rendered = format_matrix(probe_table())
        assert "ProbeAgent:" in rendered
        assert "CONFLICT on ['store']" in rendered
        assert "commute" in rendered


class TestRepoTable:
    def test_every_repo_agent_family_is_modelled(self):
        from repro.verify.explorer import _repo_source_paths

        table = handler_effects(ProjectGraph.build(_repo_source_paths()))
        for family in (
            "AwcAgent",
            "AbtAgent",
            "BreakoutAgent",
            "MultiVariableAwcAgent",
        ):
            assert family in table, family
