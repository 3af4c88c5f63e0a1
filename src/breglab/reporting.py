"""Deterministic JSON and CSV emission for report objects.

Every rendered document embeds the package version and the resolved run
configuration.  Floats are serialized with their shortest round-trip
representation, so identical reports always produce identical bytes.  A
non-finite float is written as the string "inf", "-inf" or "nan", the token
CSV gives it, so a JSON document stays strict JSON; rendering refuses any
other non-finite value instead of writing a non-standard token.

Only the standard library is imported here, so writing a report loads no
module that the command did not run.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import sys

from . import __version__ as VERSION


def record(report) -> dict:
    """Flatten a report dataclass (or plain dict) into JSON-friendly builtins."""
    items = report if isinstance(report, dict) else dataclasses.asdict(report)
    return {key: _plain(val) for key, val in items.items()}


def _plain(v):
    if dataclasses.is_dataclass(v) and not isinstance(v, type):
        return record(v)
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, float):
        return v if math.isfinite(v) else str(float(v))
    if hasattr(v, "item"):
        return _plain(v.item())
    return str(v)


def rows_for(report) -> list[dict]:
    """CSV rows for a report: one row, except grid reports expand per point."""
    # a grid report exists only once risk_lab is loaded, so look it up there
    risk_lab = sys.modules.get(f"{__package__}.risk_lab")
    if risk_lab is not None and isinstance(report, risk_lab.LehmannGridReport):
        base = record(report)
        grid = base.pop("grid")
        means = base.pop("means")
        ses = base.pop("ses")
        argmin = base.pop("argmin_index")
        base.pop("theta_index")
        rows = []
        for i, (gv, mv, sv) in enumerate(zip(grid, means, ses)):
            row = dict(base)
            row.update(grid_theta=gv, mean_loss=mv, se_loss=sv, is_argmin=(i == argmin))
            rows.append(row)
        return rows
    return [record(report)]


def _json(v) -> str:
    """Compact, key-sorted, strict JSON: a non-finite float raises rather than write Infinity or NaN."""
    return json.dumps(v, sort_keys=True, separators=(",", ":"), allow_nan=False)


def render_json(reports, config=None) -> str:
    payload = {
        "version": VERSION,
        "config": config or {},
        "reports": [record(r) for r in reports],
    }
    return _json(payload) + "\n"


def render_csv(reports, config=None) -> str:
    rows = [row for r in reports for row in rows_for(r)]
    buf = io.StringIO()
    header = {"version": VERSION, "config": config or {}}
    buf.write("# " + _json(header) + "\n")
    if rows:
        fields = list(rows[0])
        for row in rows[1:]:
            for key in row:
                if key not in fields:
                    fields.append(key)
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _cell(row.get(k)) for k in fields})
    return buf.getvalue()


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, (list, tuple)):
        return json.dumps(v, separators=(",", ":"))
    return v


# Execution-environment settings that do not affect computed values.  They are
# stripped from the embedded config so the same run is byte-identical no matter
# how many workers executed it or where the file landed.
_ENVIRONMENT_KEYS = ("workers", "out")


def render(reports, fmt: str, config=None) -> str:
    cfg = {k: v for k, v in (config or {}).items() if k not in _ENVIRONMENT_KEYS}
    if fmt == "json":
        return render_json(reports, cfg)
    if fmt == "csv":
        return render_csv(reports, cfg)
    raise ValueError(f"unknown format {fmt!r}")
