"""Trace persistence: JSON and CSV export/import.

Lets application profiles be captured once and re-analysed offline,
matching the paper's workflow of collecting NSys traces on the
cluster and post-processing them separately.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Union

from .store import Trace
from .events import TraceEvent

__all__ = ["to_json", "from_json", "to_csv", "from_csv"]

_CSV_FIELDS = [
    "kind",
    "name",
    "start",
    "end",
    "stream",
    "nbytes",
    "copy_kind",
    "correlation_id",
    "thread",
]


def to_json(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` to ``path`` as a JSON document."""
    doc = {
        "name": trace.name,
        "events": [e.to_dict() for e in trace],
    }
    Path(path).write_text(json.dumps(doc, indent=1))


def from_json(path: Union[str, Path]) -> Trace:
    """Load a trace previously written by :func:`to_json`."""
    doc = json.loads(Path(path).read_text())
    trace = Trace(name=doc.get("name", ""))
    for item in doc.get("events", []):
        trace.append(TraceEvent.from_dict(item))
    return trace


def to_csv(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` to ``path`` as CSV (meta column JSON-encoded)."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS + ["meta"])
        writer.writeheader()
        for e in trace:
            row = e.to_dict()
            row["meta"] = json.dumps(row["meta"])
            writer.writerow(row)


def from_csv(path: Union[str, Path]) -> Trace:
    """Load a trace previously written by :func:`to_csv`."""
    trace = Trace(name=Path(path).stem)
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            data = dict(row)
            data["meta"] = json.loads(data.get("meta") or "{}")
            data["stream"] = int(data["stream"]) if data["stream"] else None
            data["copy_kind"] = data["copy_kind"] or None
            trace.append(TraceEvent.from_dict(data))
    return trace
