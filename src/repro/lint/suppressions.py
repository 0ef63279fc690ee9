"""Parsing of ``# repro-lint:`` control comments.

Two forms are recognised:

* ``# repro-lint: disable=M1 -- justification text`` — suppress the named
  rule(s) on this line (or, when the comment stands alone on its line, on
  the next code line). The justification after ``--`` is **mandatory**: a
  suppression is a claim that the invariant holds for a reason the checker
  cannot see, and that reason must be written down. A disable without one
  is itself reported (rule X0).
* ``# repro-lint: module=<relpath>`` — pretend the file lives at
  *relpath* inside ``src/repro/`` for scoping purposes. Used by test
  fixtures that must exercise directory-scoped rules from ``tests/``.

Comments are read with :mod:`tokenize`, so strings containing the marker
text do not trigger it.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

_DISABLE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<rules>[A-Z0-9,\s]+?)"
    r"(?:\s*--\s*(?P<why>.*\S))?\s*$"
)
_MODULE = re.compile(r"#\s*repro-lint:\s*module=(?P<path>\S+)\s*$")


@dataclass(frozen=True)
class BadSuppression:
    """A malformed disable comment (no justification / unknown rule)."""

    line: int
    column: int
    message: str


@dataclass
class SuppressionMap:
    """Per-line rule suppressions plus any malformed control comments."""

    #: line number -> set of rule ids disabled on that line
    by_line: Dict[int, Set[str]]
    bad: List[BadSuppression]
    #: scope override from a ``module=`` pragma, if any
    module_override: Optional[str] = None

    def is_suppressed(self, line: int, rule: str) -> bool:
        return rule in self.by_line.get(line, _EMPTY)


_EMPTY: Set[str] = set()


def parse_suppressions(
    source: str, known_rules: Set[str]
) -> SuppressionMap:
    """Extract the suppression map of *source*.

    A disable comment trailing a code line applies to that line; a disable
    comment alone on its line applies to the next line that holds code
    (so multi-line statements can be annotated above their first line).
    """
    by_line: Dict[int, Set[str]] = {}
    bad: List[BadSuppression] = []
    module_override: Optional[str] = None
    #: (line, rules) comments waiting for the next code line
    pending: List[Tuple[int, Set[str]]] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return SuppressionMap(by_line, bad, module_override)

    #: lines that contain at least one non-comment, non-blank token
    code_lines: Set[int] = set()
    comments: List[Tuple[int, int, str]] = []
    for token in tokens:
        if token.type == tokenize.COMMENT:
            comments.append((token.start[0], token.start[1], token.string))
        elif token.type not in (
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENDMARKER,
            tokenize.ENCODING,
        ):
            code_lines.add(token.start[0])

    sorted_code_lines = sorted(code_lines)

    def next_code_line(after: int) -> Optional[int]:
        for line in sorted_code_lines:
            if line > after:
                return line
        return None

    for line, column, text in comments:
        module_match = _MODULE.search(text)
        if module_match:
            module_override = module_match.group("path")
            continue
        if "repro-lint" not in text:
            continue
        match = _DISABLE.search(text)
        if not match:
            bad.append(
                BadSuppression(
                    line,
                    column,
                    "unrecognised repro-lint comment "
                    "(expected 'disable=<RULE> -- <justification>' "
                    "or 'module=<path>')",
                )
            )
            continue
        rules = {part.strip() for part in match.group("rules").split(",")}
        rules.discard("")
        why = match.group("why")
        if not why:
            bad.append(
                BadSuppression(
                    line,
                    column,
                    f"disable={','.join(sorted(rules))} has no justification; "
                    "write '# repro-lint: disable=<RULE> -- <why it is safe>'",
                )
            )
            continue
        unknown = rules - known_rules
        if unknown:
            bad.append(
                BadSuppression(
                    line,
                    column,
                    f"disable names unknown rule(s) {sorted(unknown)}; "
                    f"known rules: {sorted(known_rules)}",
                )
            )
            rules &= known_rules
        if not rules:
            continue
        if line in code_lines:
            target: Optional[int] = line
        else:
            target = next_code_line(line)
        if target is not None:
            by_line.setdefault(target, set()).update(rules)
    return SuppressionMap(by_line, bad, module_override)
