"""Chrome-trace (Perfetto / ``chrome://tracing``) exporter.

Turns a JSONL trace's records into the Trace Event Format's
``traceEvents`` list: matched ``cell.block.start``/``end`` pairs become
complete ("X") events laid out on greedily allocated lanes — so block
scheduling across workers renders as a timeline — the sweep span frames
them, and queue-depth gauges ride along as counter ("C") tracks.  Lanes
are a *visual* reconstruction (the driver doesn't know which worker ran
a block; it only knows the concurrency), which is exactly what judging
scheduling quality needs.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

__all__ = ["to_chrome"]

_US = 1e6


def _label(data: Mapping[str, object]) -> str:
    kind = data.get("kind", "block")
    if kind == "chunk":
        distances = data.get("distances") or []
        k = data.get("k")
        return f"chunk k={k} D={','.join(str(d) for d in distances)}"
    if kind == "pack":
        blocks = data.get("blocks") or []
        name = f"pack x{len(blocks)}"
    else:
        name = f"D={data.get('distance')} k={data.get('k')} b{data.get('block')}"
    if data.get("speculative"):
        name += " (spec)"
    return name


def to_chrome(records: Sequence[Mapping[str, object]]) -> Dict[str, object]:
    """Export trace records as a Trace Event Format object."""
    if not records:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    t0 = min(
        float(r["ts"]) for r in records if isinstance(r.get("ts"), (int, float))
    )

    def us(ts: object) -> float:
        return (float(ts) - t0) * _US

    events: List[Dict[str, object]] = []
    # Pair block spans by ticket; starts without an end (a crashed or
    # truncated trace) are dropped rather than invented.
    open_blocks: Dict[object, Mapping[str, object]] = {}
    spans: List[Dict[str, object]] = []
    for record in records:
        name = record.get("name")
        data = record.get("data")
        if not isinstance(data, Mapping):
            continue
        pid = record.get("pid", 0)
        if name == "cell.block.start":
            open_blocks[data.get("ticket")] = record
        elif name == "cell.block.end":
            start = open_blocks.pop(data.get("ticket"), None)
            if start is None:
                continue
            begin = us(start["ts"])
            spans.append({
                "name": _label(dict(start.get("data", {}), **data)),
                "ph": "X",
                "ts": begin,
                "dur": max(0.0, us(record["ts"]) - begin),
                "pid": pid,
                "cat": str(data.get("kind", "block")),
                "args": {k: v for k, v in data.items() if k != "ticket"},
            })
        elif name == "sweep.start":
            open_blocks[("sweep", record.get("pid"))] = record
        elif name == "sweep.end":
            start = open_blocks.pop(("sweep", record.get("pid")), None)
            if start is None:
                continue
            begin = us(start["ts"])
            events.append({
                "name": f"sweep {data.get('algorithm', '?')}",
                "ph": "X",
                "ts": begin,
                "dur": max(0.0, us(record["ts"]) - begin),
                "pid": pid,
                "tid": 0,
                "cat": "sweep",
                "args": dict(data),
            })
        elif record.get("type") == "gauge" and name == "executor.queue_depth":
            events.append({
                "name": "queue depth",
                "ph": "C",
                "ts": us(record["ts"]),
                "pid": pid,
                "args": {"pending": data.get("value", 0)},
            })

    # Greedy lane allocation: each span takes the first lane free at its
    # start time; lane count therefore equals the observed concurrency.
    spans.sort(key=lambda span: (span["ts"], span["dur"]))
    lanes: List[float] = []
    for span in spans:
        start = float(span["ts"])
        end = start + float(span["dur"])
        for lane, free_at in enumerate(lanes):
            if free_at <= start:
                lanes[lane] = end
                span["tid"] = lane + 1
                break
        else:
            lanes.append(end)
            span["tid"] = len(lanes)
        events.append(span)

    events.sort(key=lambda event: float(event["ts"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}
