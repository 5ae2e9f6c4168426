"""Structured pass/fail reports for the verification batteries.

A report is a list of cases.  Each case is the dict that its JSON form
is: the identifying keys, then ``status`` (pass or fail) and, on
failure, ``diff``, the offending difference element (or int shortfall)
for offline inspection.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from .pbw import Element


class Report:
    __slots__ = ("check", "pyramid", "cases", "seed")

    def __init__(self, check: str, pyramid: str, seed: Optional[int] = None):
        self.check = check
        self.pyramid = pyramid
        self.cases: List[dict] = []  # a fresh list: no two reports share it
        self.seed = seed

    def passed(self) -> bool:
        return all(c["status"] != "fail" for c in self.cases)

    def add(self, key: Dict[str, object], diff: Union[Element, int, None] = None):
        """Record a case that passes exactly when ``diff`` is zero or None:
        a difference element, or an int shortfall such as a missing rank."""
        case = dict(key)
        if not diff:
            case["status"] = "pass"
        else:
            case["status"] = "fail"
            case["diff"] = diff
        self.cases.append(case)

    def to_obj(self) -> dict:
        """The JSON form; a report with no case is marked ``"status":
        "empty"``, since it checked nothing."""
        obj = {
            "check": self.check,
            "pyramid": self.pyramid,
            "cases": self.cases,
            "seed": self.seed,
        }
        if not self.cases:
            obj["status"] = "empty"
        return obj
