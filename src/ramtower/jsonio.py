"""The report envelope.

Every command emits one RunReport: a status, a payload, and a diagnostics
list, stamped with a schema version.  Rationals travel as "num/den" strings
throughout — floats never appear in any payload.  Each payload shape is
written by an `as_json` on the owning class (NewtonPolygon, TateBreaks,
BreakSchedule, ...); this module imports nothing from ramtower but the
record base.

`RunReport.dumps` writes the report with its own recursive writer, which is
byte-identical to `json.dumps(report.as_json(), indent=2)`.  It exists
because the stdlib's C encoder ignores `indent` before Python 3.13: json
then runs an indented dump through its pure-Python encoder, which made
writing the report the largest single cost of the towers benchmark on
Python 3.11.7.  The writer joins each level once, escapes strings with the
C helper json itself uses, and handles str-keyed dicts, lists, tuples, str,
int, bool and None: the values a payload carries.  Anything else, a float
or a non-str key included, raises TypeError; a value gets json's message,
"Object of type X is not JSON serializable".
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _encode_str

from .record import Record

SCHEMA_VERSION = 1

STATUS_OK = "ok"
STATUS_FAIL = "fail"
STATUS_PRECISION = "precision-error"


class RunReport(Record):
    __slots__ = ("status", "payload", "diagnostics")

    def __init__(self, status: str, payload: dict, diagnostics: list | None = None):
        if status not in (STATUS_OK, STATUS_FAIL, STATUS_PRECISION):
            raise ValueError(f"unknown status {status!r}")
        self._store(status, payload, [] if diagnostics is None else diagnostics)

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
        return _write(self.as_json(), "")


def _write(v, pad: str) -> str:
    """`json.dumps(v, indent=2)` for a value nested at indent `pad`."""
    t = type(v)
    if t is str:
        return _encode_str(v)
    if t is int:
        return repr(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    inner = pad + "  "
    if t is list or t is tuple:
        if not v:
            return "[]"
        items = [_write(x, inner) for x in v]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if t is dict:
        if not v:
            return "{}"
        # _encode_str raises TypeError for a key that is not a str
        items = [_encode_str(k) + ": " + _write(x, inner) for k, x in v.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
