"""Three-valued results for membership style tests.

Finite precision means some questions cannot be settled either way, so
tests that could be starved return an explicit INDETERMINATE instead of
guessing.  INDETERMINATE is distinct from NO: it never certifies and
never refutes.
"""

from __future__ import annotations

import enum


class Verdict(enum.Enum):
    YES = "yes"
    NO = "no"
    INDETERMINATE = "indeterminate"

    def __and__(self, other: "Verdict") -> "Verdict":
        """Combine componentwise: NO dominates, then INDETERMINATE."""
        if Verdict.NO in (self, other):
            return Verdict.NO
        if Verdict.INDETERMINATE in (self, other):
            return Verdict.INDETERMINATE
        return Verdict.YES

    def __str__(self) -> str:
        return self.value
