"""Trace exporters: Chrome/Perfetto ``trace_event`` JSON and flat CSV.

The JSON output loads directly in https://ui.perfetto.dev (or
``chrome://tracing``): each span becomes one complete event (``"ph":
"X"``) on a track derived from its tags — reactors, SSDs and the CAM
control plane get separate rows.  The CSV output is a flat span table
that round-trips through :func:`load_trace_csv` back into spans a
:class:`~repro.obs.analyzer.TraceAnalyzer` can consume, so breakdowns
can be recomputed offline without re-running the simulation.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, Iterable, List

from repro.obs.tracer import Span

#: trace_event track (tid) bases; pid is always 1 (one simulated host)
_TID_CONTROL = 0
_TID_REACTOR_BASE = 100
_TID_SSD_BASE = 200

CSV_COLUMNS = ("span_id", "parent_id", "name", "begin", "end", "tags")


def _json_default(value):
    """Coerce non-JSON-native tag values instead of corrupting exports.

    Span tags routinely carry numpy scalars (``lba=np.int64(...)`` on
    every ``nvme_io`` span when the batch LBAs arrive as an ndarray),
    which ``json.dumps`` rejects outright.  Numpy scalars unwrap via
    ``.item()``; sets/tuples/other containers become lists; anything
    else degrades to its ``str()`` so an exotic tag can never take the
    whole trace export down.
    """
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    if isinstance(value, (set, frozenset, tuple)):
        return sorted(value) if isinstance(value, (set, frozenset)) \
            else list(value)
    return str(value)


def _dump_tags(tags: Dict[str, object]) -> str:
    return json.dumps(tags, sort_keys=True, default=_json_default)


def _spans(source) -> List[Span]:
    if hasattr(source, "spans"):
        source = source.spans()
    return [span for span in source if span.closed]


def _tid(span: Span) -> int:
    if "reactor" in span.tags:
        return _TID_REACTOR_BASE + int(span.tags["reactor"])
    if "ssd" in span.tags:
        return _TID_SSD_BASE + int(span.tags["ssd"])
    return _TID_CONTROL


def to_trace_events(source) -> List[Dict[str, object]]:
    """Spans -> Chrome ``trace_event`` dicts (``ph: X``, microseconds).

    Thread-name metadata events (``ph: M``) label each track so the
    Perfetto UI shows "reactor 3" / "ssd 0" instead of raw tids.
    """
    spans = _spans(source)
    events: List[Dict[str, object]] = []
    tids: Dict[int, str] = {}
    for span in spans:
        tid = _tid(span)
        if tid not in tids:
            if tid >= _TID_SSD_BASE:
                tids[tid] = f"ssd {tid - _TID_SSD_BASE}"
            elif tid >= _TID_REACTOR_BASE:
                tids[tid] = f"reactor {tid - _TID_REACTOR_BASE}"
            else:
                tids[tid] = "control plane"
        args = dict(span.tags)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": span.begin * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": tid,
                "args": args,
            }
        )
    for tid, label in sorted(tids.items()):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0.0,
                "pid": 1,
                "tid": tid,
                "args": {"name": label},
            }
        )
    events.extend(_flow_events(spans))
    return events


def _flow_events(spans: List[Span]) -> List[Dict[str, object]]:
    """Flow (``ph: s``/``f``) events for causal fan-in links.

    A span tagged ``links=[trace_id, ...]`` (a coalesced ``batch``
    serving a request, a hedged remote read) flow-links back to each
    originating ``request`` root span, so the Perfetto UI draws arrows
    from the request track into the shared span — the fan-out the
    parent edges cannot express.
    """
    roots: Dict[int, Span] = {}
    for span in spans:
        if span.name == "request" and "trace_id" in span.tags:
            roots[int(span.tags["trace_id"])] = span
    events: List[Dict[str, object]] = []
    started = set()
    for span in spans:
        links = span.tags.get("links")
        if not links:
            continue
        for raw in links:
            trace_id = int(raw)
            root = roots.get(trace_id)
            if root is None:
                continue  # request root evicted; flow unresolvable
            if trace_id not in started:
                started.add(trace_id)
                events.append(
                    {
                        "name": "request_flow",
                        "cat": "flow",
                        "ph": "s",
                        "id": trace_id,
                        "ts": root.begin * 1e6,
                        "pid": 1,
                        "tid": _tid(root),
                        "args": {"trace_id": trace_id},
                    }
                )
            events.append(
                {
                    "name": "request_flow",
                    "cat": "flow",
                    "ph": "f",
                    "bp": "e",
                    "id": trace_id,
                    "ts": span.begin * 1e6,
                    "pid": 1,
                    "tid": _tid(span),
                    "args": {"trace_id": trace_id,
                             "span_id": span.span_id},
                }
            )
    return events


def export_perfetto_json(source, path) -> int:
    """Write a Perfetto-loadable JSON trace; returns the event count.

    ``otherData`` records the source tracer's ring-buffer eviction count
    so a partial trace is flagged inside the artifact itself.
    """
    events = to_trace_events(source)
    dropped = int(getattr(source, "dropped_spans", 0) or 0)
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "dropped_spans": dropped,
            "complete": dropped == 0,
        },
    }
    Path(path).write_text(
        json.dumps(payload, indent=1, sort_keys=True,
                   default=_json_default)
    )
    return len(events)


def export_trace_csv(source, path) -> int:
    """Write the flat span table; returns the span count."""
    spans = _spans(source)
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for span in spans:
            writer.writerow(
                [
                    span.span_id,
                    "" if span.parent_id is None else span.parent_id,
                    span.name,
                    repr(float(span.begin)),
                    repr(float(span.end)),
                    _dump_tags(span.tags),
                ]
            )
    return len(spans)


def load_trace_csv(path) -> List[Span]:
    """Read a CSV written by :func:`export_trace_csv` back into spans."""
    spans: List[Span] = []
    with Path(path).open(newline="") as handle:
        reader = csv.DictReader(handle)
        missing = set(CSV_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"trace CSV missing columns: {sorted(missing)}")
        for row in reader:
            span = Span(
                int(row["span_id"]),
                row["name"],
                float(row["begin"]),
                parent_id=(
                    int(row["parent_id"]) if row["parent_id"] else None
                ),
                tags=json.loads(row["tags"]) if row["tags"] else {},
            )
            span.end = float(row["end"])
            spans.append(span)
    return spans
