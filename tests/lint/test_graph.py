"""The shared project graph underneath the rules."""

from repro.lint.graph import ProjectGraph


def graph_of(*sources):
    """Build a graph from (path, source, scope) triples."""
    return ProjectGraph.build_from_sources(list(sources))


class TestProjectGraph:
    def test_modules_functions_and_classes_are_indexed(self):
        graph = graph_of(
            (
                "src/repro/algorithms/toy.py",
                "def build(seed):\n    return seed\n\n"
                "class ToyAgent:\n    def step(self):\n        return []\n",
                "algorithms/toy.py",
            )
        )
        module = graph.module_at("src/repro/algorithms/toy.py")
        assert module is not None
        assert module.scope == "algorithms/toy.py"
        assert "build" in module.functions
        assert "ToyAgent" in module.classes
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
        user = graph.module_at("src/repro/algorithms/user.py")
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

    def test_cached_computes_once_per_graph(self):
        graph = graph_of(("a.py", "x = 1\n", None))
        calls = []
        first = graph.cached("probe", lambda: calls.append(1) or "value")
        second = graph.cached("probe", lambda: calls.append(1) or "other")
        assert first == second == "value"
        assert len(calls) == 1

