"""The assembled rule registry: file-local rules plus whole-program rules.

Lives in its own module so :mod:`repro.lint.rules_program` can import the
:class:`~repro.lint.rules.Rule` base without a cycle. Everything that needs
"all rules" (the engine, the CLI, suppression validation) imports from
here.
"""

from __future__ import annotations

from typing import Set, Tuple

from .rules import BASE_RULES, Rule
from .rules_program import PROGRAM_RULES

ALL_RULES: Tuple[Rule, ...] = BASE_RULES + PROGRAM_RULES

#: Rule ids accepted in disable= comments (X0 itself cannot be disabled:
#: a malformed suppression must be fixed, not suppressed).
KNOWN_RULE_IDS: Set[str] = {rule.id for rule in ALL_RULES}


def rule_by_id(rule_id: str) -> Rule:
    for rule in ALL_RULES:
        if rule.id == rule_id:
            return rule
    raise KeyError(rule_id)
