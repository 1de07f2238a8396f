"""Structured pass/fail reports for exact operator checks."""

from __future__ import annotations

import json
from collections.abc import Iterable

from .linalg import Matrix
from .record import Record, setfield


class ConsistencyError(ValueError):
    """An operator of a validated instance cannot be built consistently:
    the split apparatus, psi or a module structure."""


class CheckResult(Record):
    """One named exact check.

    The witness `residual` (left side minus right side, or an offending
    matrix) and `note`, where the check failed, are kept only on failure.
    """

    __slots__ = _fields = ("check_id", "anchor", "passed", "residual", "note")

    def __init__(self, check_id: str, anchor: str, passed: bool,
                 residual: Matrix | None = None, note: str = ""):
        setfield(self, "check_id", check_id)
        setfield(self, "anchor", anchor)
        setfield(self, "passed", passed)
        setfield(self, "residual", residual)
        setfield(self, "note", note)

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
    """Ordered collection of check results, deterministic by check id."""

    def __init__(self, entries: Iterable[CheckResult] = ()):
        self.entries: list[CheckResult] = list(entries)

    def add(self, result: CheckResult) -> None:
        self.entries.append(result)

    def check(self, check_id: str, anchor: str, residual: Matrix) -> None:
        """Record an exact zero test of `residual` under `check_id`."""
        ok = residual.is_zero()
        self.add(CheckResult(check_id, anchor, ok, None if ok else residual))

    def record(self, check_id: str, anchor: str, ok: bool, witness=None, note=""):
        if ok:
            witness, note = None, ""
        self.add(CheckResult(check_id, anchor, ok, witness, note))

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

    def subset(self, check_ids: Iterable[str]) -> "VerificationReport":
        """Entries whose check_id equals or starts with one of the names."""
        names = list(check_ids)
        return VerificationReport(
            e
            for e in self.entries
            if any(e.check_id == n or e.check_id.startswith(n + ".") for n in names)
        )

    def sorted(self) -> "VerificationReport":
        return VerificationReport(sorted(self.entries, key=lambda e: e.check_id))

    def to_json_lines(self) -> str:
        """One JSON record per check, ordered by check id."""
        return "\n".join(
            json.dumps(e.to_record(), sort_keys=True) for e in self.sorted()
        )
