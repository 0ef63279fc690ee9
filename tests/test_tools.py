"""The API-docs generator tool and the ``repro bench`` smoke run."""

import importlib.util
import sys
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


def run_bench(tmp_path, *arguments):
    """Run ``repro.cli bench`` in a subprocess; returns the CompletedProcess."""
    import os
    import subprocess

    env = dict(os.environ)
    src = str(TOOL.parent.parent / "src")
    env["PYTHONPATH"] = (
        f"{src}{os.pathsep}{env['PYTHONPATH']}"
        if env.get("PYTHONPATH")
        else src
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "bench", *arguments],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
        cwd=tmp_path,
    )


class TestBenchSmoke:
    def test_bench_smoke_runs_and_verifies_identity(self, tmp_path):
        import json

        out = tmp_path / "bench.json"
        result = run_bench(tmp_path, "--jobs", "2", "--output", str(out))
        assert result.returncode == 0, result.stdout + result.stderr
        report = json.loads(out.read_text())
        assert report["results_identical"] is True
        assert report["speedup"] > 0
        assert report["sequential"]["totals"]["trials"] == (
            report["parallel"]["totals"]["trials"]
        )
        assert len(report["sequential"]["cells"]) == len(report["grid"])
