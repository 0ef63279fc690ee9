"""The rule catalogue: what each check protects and how it decides.

Every rule is a class with an ``id``, a scope predicate (:meth:`applies`)
over the file's *repro-relative* path (``algorithms/awc.py``), and a
:meth:`check` that yields :class:`~repro.lint.findings.Finding` objects.
The rules encode repo-specific knowledge on purpose — this is not a
general-purpose linter, it is the paper's invariants made executable:

=====  ======================================================================
M1     Metric accounting: agent code must not call uncounted consistency
       predicates (``Nogood.prohibits``) or ``is_violated`` on anything
       but a store. Every check must bump the ``CheckCounter`` that feeds
       ``maxcck`` (Section 4's cost measure).
X0     Malformed control comments (a ``disable=`` without justification is
       itself a finding — suppressions document why an invariant holds).
=====  ======================================================================
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Tuple

from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .graph import ProjectGraph

#: Methods on a store object that perform *counted* consistency checks.
COUNTED_CHECKS = frozenset(
    {"is_violated", "violated_higher", "count_violated",
     "count_violated_higher", "count_violated_lower", "violated",
     "is_consistent", "violated_batch", "count_violated_batch",
     "violated_higher_batch", "count_violated_higher_batch",
     "count_violated_lower_batch"}
)


def _in_dirs(scope: Optional[str], dirs: Sequence[str]) -> bool:
    return scope is not None and scope.startswith(tuple(dirs))


class Rule:
    """Base class: subclasses set ``id``/``title`` and implement check()."""

    id = "?"
    title = "?"

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def applies(self, scope: Optional[str]) -> bool:
        """Whether this rule runs for a file at *scope* (repro-relative)."""
        raise NotImplementedError

    def check(
        self, tree: ast.Module, path: str, scope: Optional[str],
        lines: Sequence[str], graph: "ProjectGraph",
    ) -> Iterator[Finding]:
        """Yield findings for one file. File-local rules ignore *graph*;
        the whole-program rule A1 consults it."""
        raise NotImplementedError

    def _finding(
        self, node: ast.AST, path: str, lines: Sequence[str],
        message: str, hint: str,
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0)
        source = (
            lines[line - 1].strip() if 0 < line <= len(lines) else ""
        )
        return Finding(
            path=path, line=line, column=column + 1, rule=self.id,
            message=message, hint=hint, source=source,
        )


class UncountedCheckRule(Rule):
    """M1 — consistency checks in agent code must be counted."""

    id = "M1"
    title = "counted nogood checks only"

    def applies(self, scope: Optional[str]) -> bool:
        return _in_dirs(scope, ("algorithms/",))

    def check(
        self, tree: ast.Module, path: str, scope: Optional[str],
        lines: Sequence[str], graph: "ProjectGraph",
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr == "prohibits":
                yield self._finding(
                    node, path, lines,
                    "Nogood.prohibits() is an *uncounted* consistency "
                    "predicate — a check that bypasses the CheckCounter "
                    "silently understates maxcck",
                    "route the test through the agent's store "
                    "(store.is_violated / violated_higher / "
                    "count_violated*), which bumps the shared CheckCounter",
                )
            elif func.attr in COUNTED_CHECKS and not self._is_store(
                func.value
            ):
                yield self._finding(
                    node, path, lines,
                    f"{func.attr}() called on "
                    f"'{ast.unparse(func.value)}', which is not a store — "
                    "only NogoodStore methods bump the CheckCounter that "
                    "feeds maxcck",
                    "call the method on the agent's store (self.store or a "
                    "handler's .store)",
                )

    @staticmethod
    def _is_store(receiver: ast.expr) -> bool:
        if isinstance(receiver, ast.Name):
            return receiver.id == "store" or receiver.id.endswith("_store")
        if isinstance(receiver, ast.Attribute):
            return receiver.attr == "store" or receiver.attr.endswith(
                "_store"
            )
        return False


#: The file-local rules. The full registry (these plus the whole-program
#: rules) is assembled in :mod:`repro.lint.catalogue`.
BASE_RULES: Tuple[Rule, ...] = (UncountedCheckRule(),)
