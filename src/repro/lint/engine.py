"""Walking files, applying rules, suppressions and the baseline.

Scoping: a rule like M1 only applies under ``algorithms/`` — the engine
computes every file's *repro-relative* path (the part after ``src/repro/``)
and hands it to the rules. Files outside the package (tests, tools) get no
scope, so no directory-scoped rule runs there; a
``# repro-lint: module=<relpath>`` pragma can pin a scope explicitly, which
is how the fixture files under ``tests/lint/fixtures/`` exercise
directory-scoped rules.

The baseline file holds fingerprints (rule + path + offending source text,
line-number free) of findings that are *known and deliberately deferred*;
everything else fails the run. An empty or absent baseline means the tree
must be clean.
"""

from __future__ import annotations

import ast
import dataclasses
import fnmatch
import os
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set

from .catalogue import ALL_RULES, KNOWN_RULE_IDS
from .findings import Finding
from .graph import ProjectGraph
from .rules import Rule
from .suppressions import parse_suppressions

#: Path patterns skipped by default: lint-rule fixtures contain deliberate
#: violations (their tests lint them explicitly, one file at a time).
DEFAULT_EXCLUDES = ("*fixtures*",)

#: Default baseline filename, looked up in the current directory.
BASELINE_FILENAME = "repro-lint.baseline"


def scope_of(path: str) -> Optional[str]:
    """The repro-relative path of *path*, or None when outside the package.

    ``src/repro/algorithms/awc.py`` → ``algorithms/awc.py``;
    ``tests/lint/test_rules.py`` → None.
    """
    parts = Path(path).parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            remainder = parts[index + 1:]
            if remainder:
                return "/".join(remainder)
    return None


def lint_source(
    source: str,
    path: str,
    scope: Optional[str] = None,
    rules: Sequence[Rule] = ALL_RULES,
    graph: Optional[ProjectGraph] = None,
) -> List[Finding]:
    """Lint one file's text; *scope* overrides the path-derived scope.

    When no *graph* is given a single-file graph is built on the fly, so
    the whole-program rules still run (seeing only this file) — that is
    what the fixture tests exercise. :func:`lint_paths` builds one shared
    graph over every file of the run instead.
    """
    suppressions = parse_suppressions(source, KNOWN_RULE_IDS)
    if scope is None:
        scope = suppressions.module_override or scope_of(path)
    if graph is None:
        graph = ProjectGraph.build_from_sources([(path, source, scope)])
    module = graph.module_at(path)
    if module is not None:
        tree = module.tree
    else:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            return [
                Finding(
                    path=path,
                    line=error.lineno or 1,
                    column=(error.offset or 0) or 1,
                    rule="X0",
                    message=f"file does not parse: {error.msg}",
                    hint="repro-lint needs valid Python to check invariants",
                    source="",
                    anchor=scope or path.replace(os.sep, "/"),
                )
            ]
    lines = source.splitlines()
    findings: List[Finding] = []
    for rule in rules:
        if not rule.applies(scope):
            continue
        for finding in rule.check(tree, path, scope, lines, graph):
            if not suppressions.is_suppressed(finding.line, finding.rule):
                findings.append(finding)
    for bad in suppressions.bad:
        source_line = (
            lines[bad.line - 1].strip() if 0 < bad.line <= len(lines) else ""
        )
        findings.append(
            Finding(
                path=path,
                line=bad.line,
                column=bad.column + 1,
                rule="X0",
                message=bad.message,
                hint=(
                    "every suppression must say why the invariant holds "
                    "anyway; X0 itself cannot be disabled"
                ),
                source=source_line,
            )
        )
    anchor = scope if scope is not None else path.replace(os.sep, "/")
    findings = [
        dataclasses.replace(finding, anchor=anchor) for finding in findings
    ]
    findings.sort()
    return findings


def lint_file(
    path: str,
    rules: Sequence[Rule] = ALL_RULES,
    graph: Optional[ProjectGraph] = None,
) -> List[Finding]:
    """Lint one file on disk (against *graph* when part of a larger run)."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return lint_source(source, path, rules=rules, graph=graph)


def iter_python_files(
    paths: Iterable[str], excludes: Sequence[str] = DEFAULT_EXCLUDES
) -> List[str]:
    """Expand *paths* (files or directories) into sorted .py files."""
    selected: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                selected.append(path)
            continue
        for root, dirs, files in os.walk(path):
            dirs.sort()
            dirs[:] = [d for d in dirs if not d.startswith((".", "__pycache__"))]
            for name in sorted(files):
                if name.endswith(".py"):
                    selected.append(os.path.join(root, name))
    normalized = []
    for path in selected:
        display = path.replace(os.sep, "/")
        if any(fnmatch.fnmatch(display, pattern) for pattern in excludes):
            continue
        normalized.append(path)
    return normalized


def lint_paths(
    paths: Iterable[str],
    baseline: Optional[Set[str]] = None,
    excludes: Sequence[str] = DEFAULT_EXCLUDES,
    rules: Sequence[Rule] = ALL_RULES,
) -> List[Finding]:
    """Lint every Python file under *paths*, minus baselined findings.

    Builds the :class:`~repro.lint.graph.ProjectGraph` **once** over every
    selected file and shares it across all rules and files — each file is
    parsed a single time, and whole-program analyses (the agent subclass
    closure) are memoised on the graph. This sharing is what keeps a
    full-tree run inside the bench budget (see ``BENCH_lint.json``).
    """
    findings: List[Finding] = []
    files = iter_python_files(paths, excludes)
    graph = ProjectGraph.build(files)
    for path in files:
        findings.extend(lint_file(path, rules=rules, graph=graph))
    if baseline:
        findings = [
            finding
            for finding in findings
            if _baseline_key(finding) not in baseline
        ]
    return findings


def _baseline_key(finding: Finding) -> str:
    # The engine stamps every finding with a scope anchor (repro-relative
    # path, or the pragma-declared module), so the baseline is stable
    # whether the tree is linted as `src/` or `src/repro/` or from another
    # working directory — and across file renames that keep the scope.
    if finding.anchor:
        return finding.fingerprint
    scope = scope_of(finding.path)
    anchor = scope if scope is not None else finding.path.replace(os.sep, "/")
    return f"{finding.rule}\t{anchor}\t{finding.source}"


#: Public name — ``--check-baseline-shrink`` compares these fingerprints
#: against the committed baseline to refuse any growth.
baseline_key = _baseline_key


def load_baseline(path: str) -> Set[str]:
    """Read a baseline file into a set of fingerprints (absent file: empty)."""
    entries: Set[str] = set()
    if not os.path.exists(path):
        return entries
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            entries.add(line)
    return entries


def format_baseline(findings: Sequence[Finding]) -> str:
    """Render *findings* as baseline file content."""
    header = (
        "# repro-lint baseline — findings deliberately deferred.\n"
        "# One line per finding: RULE<TAB>path<TAB>offending source text.\n"
        "# Regenerate with: python -m repro.lint <paths> --write-baseline\n"
        "# An empty baseline means the tree must be clean. Remove lines as\n"
        "# the code they point at gets fixed.\n"
    )
    body = "\n".join(
        sorted({_baseline_key(finding) for finding in findings})
    )
    return header + (body + "\n" if body else "")
