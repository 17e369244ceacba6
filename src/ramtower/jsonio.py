"""Report envelope and JSON readers.

Every command emits one RunReport: a status, a payload, and a diagnostics
list, stamped with a schema version.  Rationals travel as "num/den" strings
throughout — floats never appear in any payload.  For each emitted shape
there is a reader here (or on the owning class) that reconstructs an equal
value, so the JSON surface can round-trip through external tooling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .polygon import parse_rat, polygon_from_json
from .tate import HypothesisReport, TateBreaks
from .towers import BreakSchedule, TorsionTrace, TowerParams

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


# readers for payload shapes whose writers live on the dataclasses


def tower_params_from_json(obj) -> TowerParams:
    return TowerParams(**{k: int(obj[k]) for k in ("p", "q", "g", "d", "N", "c")})


def _interval_from_json(row):
    lo = parse_rat(row["from"])
    hi = None if row["to"] is None else parse_rat(row["to"])
    return ((lo, hi), int(row["order"]))


def schedule_from_json(obj) -> BreakSchedule:
    return BreakSchedule(
        params=tower_params_from_json(obj["params"]),
        n=int(obj["n"]),
        lower=tuple(parse_rat(b) for b in obj["lower"]),
        upper=tuple(parse_rat(w) for w in obj["upper"]),
        lower_table=tuple(_interval_from_json(r) for r in obj["lower_table"]),
        upper_table=tuple(_interval_from_json(r) for r in obj["upper_table"]),
        diagnostics=tuple(obj["diagnostics"]),
    )


def torsion_trace_from_json(obj) -> TorsionTrace:
    return TorsionTrace(
        q=int(obj["q"]),
        g=int(obj["g"]),
        a_vals=tuple(parse_rat(v) for v in obj["a_vals"]),
        branch=obj["branch"],
        valuations=tuple(parse_rat(v) for v in obj["valuations"]),
        m=None if obj["m"] is None else int(obj["m"]),
        snapshots=tuple(polygon_from_json(s) for s in obj["polygons"]),
    )


def tate_breaks_from_json(obj) -> TateBreaks:
    hyp = obj["hypothesis"]
    witness = hyp.get("witness")
    return TateBreaks(
        breaks=tuple(parse_rat(b) for b in obj["breaks"]),
        polygon=polygon_from_json(obj["polygon"]),
        points=tuple((int(i), int(v)) for i, v in obj["points"]),
        hypothesis=HypothesisReport(
            ok=bool(hyp["ok"]),
            witness=None if witness is None else tuple(witness),
            p_power_degree=bool(hyp["p_power_degree"]),
            degree_log=hyp["degree_log"],
        ),
    )
