"""The API-docs generator tool."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "gen_api_docs.py"


@pytest.fixture(scope="module")
def tool_module():
    spec = importlib.util.spec_from_file_location("gen_api_docs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGenerator:
    def test_first_paragraph_extraction(self, tool_module):
        class Documented:
            """First line.

            Second paragraph.
            """

        assert tool_module.first_paragraph(Documented) == "First line."
        assert tool_module.first_paragraph(object()) != None  # noqa: E711

    def test_describe_classifies(self, tool_module):
        def a_function(x):
            """Does things."""

        line = tool_module.describe("a_function", a_function)
        assert "(function)" in line
        assert "Does things." in line
        assert "(x)" in line

    def test_generated_file_is_current(self, tool_module):
        """docs/api.md must match what the tool would generate now.

        Guards against editing the generated file by hand or forgetting to
        regenerate after changing a public API.
        """
        target = TOOL.parent.parent / "docs" / "api.md"
        before = target.read_text()
        try:
            tool_module.main()
            assert target.read_text() == before, (
                "docs/api.md is stale; run python tools/gen_api_docs.py"
            )
        finally:
            target.write_text(before)
