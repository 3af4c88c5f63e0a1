"""Deterministic JSON and CSV emission for report objects.

Every rendered document embeds the package version and the resolved run
configuration.  Floats are serialized with their shortest round-trip
representation, so identical reports always produce identical bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json

from . import __version__ as VERSION
from .risk_lab import LehmannGridReport


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
        return v
    if hasattr(v, "item"):
        return v.item()
    return str(v)


def rows_for(report) -> list[dict]:
    """CSV rows for a report: one row, except grid reports expand per point."""
    if isinstance(report, LehmannGridReport):
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


def render_json(reports, config=None) -> str:
    payload = {
        "version": VERSION,
        "config": config or {},
        "reports": [record(r) for r in reports],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def render_csv(reports, config=None) -> str:
    rows = [row for r in reports for row in rows_for(r)]
    buf = io.StringIO()
    header = {"version": VERSION, "config": config or {}}
    buf.write("# " + json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
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
