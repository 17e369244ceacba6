"""The report envelope.

Every command emits one RunReport: a status, a payload, and a diagnostics
list, stamped with a schema version.  Rationals travel as "num/den" strings
throughout — floats never appear in any payload.  Each payload shape is
read back by a `from_json` beside its writer's `as_json` on the owning
class (NewtonPolygon, TateBreaks, BreakSchedule, ...), so the JSON surface
round-trips through external tooling; this module imports nothing from
ramtower.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

SCHEMA_VERSION = 1

STATUS_OK = "ok"
STATUS_FAIL = "fail"
STATUS_PRECISION = "precision-error"


@dataclass
class RunReport:
    status: str
    payload: dict
    diagnostics: list = field(default_factory=list)

    def __post_init__(self):
        if self.status not in (STATUS_OK, STATUS_FAIL, STATUS_PRECISION):
            raise ValueError(f"unknown status {self.status!r}")

    @property
    def exit_code(self) -> int:
        return {STATUS_OK: 0, STATUS_FAIL: 1, STATUS_PRECISION: 2}[self.status]

    def as_json(self):
        return {
            "schema": SCHEMA_VERSION,
            "status": self.status,
            "payload": self.payload,
            "diagnostics": list(self.diagnostics),
        }

    def dumps(self) -> str:
        return json.dumps(self.as_json(), indent=2)


def read_report(text: str) -> RunReport:
    obj = json.loads(text)
    if obj.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {obj.get('schema')!r}")
    return RunReport(obj["status"], obj["payload"], list(obj["diagnostics"]))
