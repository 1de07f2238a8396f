"""Structured pass/fail reports for exact operator checks."""

from __future__ import annotations

import json
from collections.abc import Iterable

from .linalg import Matrix
from .record import Record


class ConsistencyError(ValueError):
    """An operator of a validated instance cannot be built consistently:
    the split apparatus, psi or a module structure."""


class CheckResult(Record):
    """One named exact check.

    The witness `residual` (left side minus right side, or an offending
    matrix) and `note`, where the check failed, are kept only on failure.
    """

    __slots__ = _fields = ("check_id", "anchor", "passed", "residual", "note")
    _defaults = {"residual": None, "note": ""}

    def to_record(self) -> dict:
        record = {
            "check_id": self.check_id,
            "anchor": self.anchor,
            "pass": self.passed,
        }
        if self.residual is not None:
            record["residual"] = self.residual.to_strings()
        return record


class VerificationReport:
    """Check results in the order recorded, written out by check id.

    `select`, if given, holds check-id prefixes: `run` then evaluates only
    the rows whose id equals one of them or begins with one followed by '.'.
    """

    def __init__(self, select: Iterable[str] | None = None):
        self.entries: list[CheckResult] = []
        self.select = None if select is None else tuple(select)

    def add(self, result: CheckResult) -> None:
        self.entries.append(result)

    def selects(self, check_id: str) -> bool:
        """Whether the check `check_id` is selected."""
        return self.select is None or any(
            check_id == p or check_id.startswith(p + ".") for p in self.select)

    def reaches(self, prefix: str) -> bool:
        """Whether some check whose id begins with `prefix.` may be selected."""
        return self.selects(prefix) or any(p.startswith(prefix + ".") for p in self.select)

    def run(self, rows: Iterable[tuple]) -> None:
        """Record each selected row (check_id, anchor, items) of a table;
        `items()` is called only for a selected row."""
        for check_id, anchor, items in rows:
            if self.selects(check_id):
                self.record(check_id, anchor, items())

    def record(self, check_id: str, anchor: str, items, note: str = "") -> None:
        """Record one check from its items, taken in order.

        A Matrix item is a residual that passes when zero; an (ok, witness)
        pair passes by its flag.  `items` is one Matrix or an iterable of
        items.  The first failing item ends the check and is its witness,
        and `note` is kept with it.
        """
        for item in (items,) if isinstance(items, Matrix) else items:
            ok, witness = (item.is_zero(), item) if isinstance(item, Matrix) else item
            if not ok:
                self.add(CheckResult(check_id, anchor, False, witness, note))
                return
        self.add(CheckResult(check_id, anchor, True, None, ""))  # all by position: short path

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def failures(self) -> list[CheckResult]:
        return [e for e in self.entries if not e.passed]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def to_json_lines(self) -> str:
        """One JSON record per check, ordered by check id."""
        return "\n".join(json.dumps(e.to_record(), sort_keys=True)
                         for e in sorted(self.entries, key=lambda e: e.check_id))
