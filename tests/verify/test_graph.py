"""The class graph underneath the handler-effect analysis."""

from repro.verify.graph import ProjectGraph, scope_of_path


def graph_of(*sources):
    """Build a graph from (path, source, scope) triples."""
    return ProjectGraph.build_from_sources(list(sources))


class TestProjectGraph:
    def test_classes_and_methods_are_indexed_by_scope(self):
        graph = graph_of(
            (
                "src/repro/algorithms/toy.py",
                "def build(seed):\n    return seed\n\n"
                "class ToyAgent:\n    def step(self):\n        return []\n",
                "algorithms/toy.py",
            )
        )
        module = graph.modules["algorithms/toy.py"]
        assert module.scope == "algorithms/toy.py"
        assert list(module.classes) == ["ToyAgent"]
        assert "step" in module.classes["ToyAgent"].methods

    def test_resolves_imports_between_repro_modules(self):
        graph = graph_of(
            (
                "src/repro/runtime/helper.py",
                "class Derived:\n    pass\n",
                "runtime/helper.py",
            ),
            (
                "src/repro/algorithms/user.py",
                "from ..runtime.helper import Derived\n\n"
                "def build(seed):\n    return Derived()\n",
                "algorithms/user.py",
            ),
        )
        user = graph.modules["algorithms/user.py"]
        resolved = graph.resolve_class(user, "Derived")
        assert resolved is not None
        assert resolved.module.scope == "runtime/helper.py"

    def test_subclass_closure_is_transitive(self):
        graph = graph_of(
            (
                "src/repro/algorithms/hier.py",
                "class SimulatedAgent:\n    pass\n\n"
                "class Base(SimulatedAgent):\n    pass\n\n"
                "class Leaf(Base):\n    pass\n\n"
                "class Other:\n    pass\n",
                "algorithms/hier.py",
            )
        )
        closure = graph.subclasses_of("SimulatedAgent")
        assert {"SimulatedAgent", "Base", "Leaf"} <= closure
        assert "Other" not in closure

    def test_scope_is_relative_to_the_package(self):
        assert scope_of_path("src/repro/algorithms/awc.py") == (
            "algorithms/awc.py"
        )
        assert scope_of_path("tests/verify/test_graph.py") is None
