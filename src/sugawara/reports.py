"""Structured pass/fail reports for the verification batteries.

A report is a list of cases, each carrying its identifying keys, a
status (pass or fail) and, on failure, the offending difference element
for offline inspection.  Timing is kept on the in-memory object but
never serialized, so emitted JSON is reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .pbw import Element


@dataclass
class Case:
    key: Dict[str, object]
    status: str  # "pass" | "fail"
    diff: Optional[Element] = None

    def to_obj(self) -> dict:
        obj = dict(self.key)
        obj["status"] = self.status
        if self.diff is not None:
            obj["diff"] = self.diff
        return obj


@dataclass
class Report:
    check: str
    pyramid: str
    cases: List[Case] = field(default_factory=list)
    seed: Optional[int] = None
    elapsed: float = 0  # wall seconds, never serialized

    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.cases)

    def failures(self) -> List[Case]:
        return [c for c in self.cases if c.status == "fail"]

    def add(self, key: Dict[str, object], diff: Optional[Element] = None):
        """Record a case that passes exactly when ``diff`` is zero or None."""
        ok = diff is None or diff.is_zero()
        self.cases.append(Case(key, "pass" if ok else "fail", None if ok else diff))

    def to_obj(self) -> dict:
        return {
            "check": self.check,
            "pyramid": self.pyramid,
            "cases": [c.to_obj() for c in self.cases],
            "seed": self.seed,
        }
