"""Agent views: values and priorities learned from ok? messages."""

import random

import pytest

from repro.core.assignment import AgentView, merge_assignments


class TestAgentView:
    def test_starts_empty(self):
        view = AgentView()
        assert len(view) == 0
        assert not view.knows(1)
        assert view.value_of(1) is None

    def test_update_and_read(self):
        view = AgentView()
        assert view.update(1, "red", 2)
        assert view.knows(1)
        assert view.value_of(1) == "red"
        assert view.priority_of(1) == 2
        assert list(view.items()) == [(1, "red")]

    def test_update_reports_change(self):
        view = AgentView()
        assert view.update(1, 0, 0) is True
        assert view.update(1, 0, 0) is False  # identical: no change
        assert view.update(1, 1, 0) is True  # value changed
        assert view.update(1, 1, 3) is True  # priority changed

    def test_unknown_priority_defaults_to_zero(self):
        assert AgentView().priority_of(42) == 0

    def test_forget(self):
        view = AgentView()
        view.update(1, 0, 0)
        view.forget(1)
        assert not view.knows(1)
        view.forget(1)  # idempotent

    def test_as_assignment_is_a_copy(self):
        view = AgentView()
        view.update(1, 0, 0)
        snapshot = view.as_assignment()
        assert snapshot == {1: 0}
        snapshot[1] = 9
        assert view.value_of(1) == 0

    def test_variables_sorted(self):
        view = AgentView()
        view.update(5, 0, 0)
        view.update(2, 0, 0)
        assert view.variables() == (2, 5)

    def test_iteration(self):
        view = AgentView()
        view.update(3, 0, 0)
        assert list(view) == [3]

    def test_highest_priority(self):
        view = AgentView()
        assert view.highest_priority() == 0
        view.update(1, 0, 0)
        assert view.highest_priority() == 0
        view.update(2, 0, 4)
        view.update(3, 0, 2)
        assert view.highest_priority() == 4
        view.update(2, 0, 0)
        assert view.highest_priority() == 2


class TestAgainstReferenceModel:
    """Random update/forget sequences against a plain reference dict.

    The reference keeps ``{variable: (value, priority)}``; an update
    changes the view iff that pair differs, and ``priority_version``
    bumps iff the priority changes, an unknown variable reading as 0.
    ``None`` is among the values: it is a legal value, not "unknown".
    """

    @pytest.mark.parametrize("seed", range(20))
    def test_random_operations(self, seed):
        rng = random.Random(seed)
        view = AgentView()
        reference = {}
        version = 0
        for _ in range(300):
            variable = rng.randrange(6)
            old_value, old_priority = reference.get(variable, (None, 0))
            if rng.random() < 0.15:
                view.forget(variable)
                if old_priority != 0:
                    version += 1
                reference.pop(variable, None)
            else:
                value = rng.choice([None, 0, 1, "a"])
                priority = rng.choice([0, 0, 1, 2, 5])
                expected = reference.get(variable) != (value, priority)
                assert view.update(variable, value, priority) is expected
                if old_priority != priority:
                    version += 1
                reference[variable] = (value, priority)
            assert view.priority_version == version
            assert len(view) == len(reference)
            assert list(view) == list(reference)
            assert list(view.items()) == [
                (var, value) for var, (value, _) in reference.items()
            ]
            assert view.as_assignment() == {
                var: value for var, (value, _) in reference.items()
            }
            assert view.variables() == tuple(sorted(reference))
            assert view.highest_priority() == max(
                (priority for _, priority in reference.values()), default=0
            )
            for probe in range(7):
                assert view.knows(probe) is (probe in reference)
                value, priority = reference.get(probe, (None, 0))
                assert view.value_of(probe) == value
                assert view.priority_of(probe) == priority


class TestMergeAssignments:
    def test_later_wins(self):
        assert merge_assignments({1: 0, 2: 0}, {2: 1}) == {1: 0, 2: 1}

    def test_empty(self):
        assert merge_assignments() == {}
