"""Verification reports: deterministic records with exact value strings.

Every quantity is serialized exactly; rationals are always "num/den"
strings and never floats.  A report with any FAIL record makes the batch
driver exit nonzero.

Each Record is a validated tuple: an immutable NamedTuple of its five
string fields, whose constructor refuses an unknown status (NamedTuple's
_make and _replace build without that check; the package calls neither).
Like any tuple, a Record equals the plain tuple of the same five strings.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple

PASS = "PASS"
FAIL = "FAIL"
PREDICTION = "PREDICTION"
SKIP = "SKIP"

_STATUSES = (PASS, FAIL, PREDICTION, SKIP)


def fmt_rational(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


# a NamedTuple class may not define __new__, so Record validates in a subclass
class _RecordFields(NamedTuple):
    case: str
    quantity: str
    path: str
    value: str
    status: str


class Record(_RecordFields):
    """One check's outcome: an immutable tuple of its five fields whose
    status must be one of PASS, FAIL, PREDICTION and SKIP."""

    __slots__ = ()

    def __new__(cls, case: str, quantity: str, path: str, value: str, status: str):
        if status not in _STATUSES:
            raise ValueError(f"unknown status {status}")
        return tuple.__new__(cls, (case, quantity, path, value, status))


class VerificationReport:
    def __init__(self, records=()):
        self.records: list[Record] = list(records)

    def add(self, case: str, quantity: str, path: str, value: str, status: str):
        self.records.append(Record(case, quantity, path, value, status))

    def check(self, case: str, quantity: str, path: str, lhs, rhs, render=str):
        """Record PASS/FAIL for lhs == rhs, showing both sides on failure."""
        if lhs == rhs:
            self.add(case, quantity, path, render(lhs), PASS)
        else:
            self.add(case, quantity, path, f"{render(lhs)} != {render(rhs)}", FAIL)

    def extend(self, other: "VerificationReport"):
        self.records.extend(other.records)
        return self

    @property
    def failures(self) -> list[Record]:
        return [r for r in self.records if r.status == FAIL]

    @property
    def ok(self) -> bool:
        return not self.failures

    def counts(self) -> dict[str, int]:
        out = {s: 0 for s in _STATUSES}
        for r in self.records:
            out[r.status] += 1
        return out

    def to_json(self) -> str:
        lines = [
            json.dumps(
                {"case": r.case, "quantity": r.quantity, "path": r.path,
                 "value": r.value, "status": r.status},
                sort_keys=True,
            )
            for r in self.records
        ]
        lines.append(json.dumps({"summary": self.counts()}, sort_keys=True))
        return "\n".join(lines) + "\n"

    def to_tsv(self) -> str:
        lines = ["case\tquantity\tpath\tvalue\tstatus"]
        for r in self.records:
            lines.append(f"{r.case}\t{r.quantity}\t{r.path}\t{r.value}\t{r.status}")
        c = self.counts()
        lines.append(f"# summary\tPASS={c[PASS]}\tFAIL={c[FAIL]}\tPREDICTION={c[PREDICTION]}\tSKIP={c[SKIP]}")
        return "\n".join(lines) + "\n"
