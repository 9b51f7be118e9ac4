"""In-memory span recording around calls into the program's public functions.

The traced run wraps selected functions and methods of the program from the
benchmark's own files; nothing under ``src/`` changes.  Each call into a
wrapped function records one span: a name (the layer key), its start and
end on ``perf_counter_ns``, the span that was open when it started (its
parent) and a request id.  Per key the recorder keeps exact totals:

- ``calls``  -- spans recorded;
- ``busy``   -- time inside the key, counting nested spans of the same key
  once (the outermost span's duration);
- ``self``   -- span duration minus the time its child spans cover.

Full span records are kept up to a cap and written out when the run ends;
the totals are always exact.  The recorder assumes one thread calls the
wrapped functions, which holds for every process the benchmark traces (the
desktop session, the daemon's event loop, the fleet driver and each fleet
worker).

Wrappers must be installed before any machine, daemon or fleet worker
exists: the program binds some methods once at construction time (netlink
fast handlers, benchmark rigs), and a wrapper installed later would never
see those calls.  ``install`` also rebinds every ``from module import name``
copy of a wrapped module-level function found in already imported
``repro`` modules, so call sites that imported the function by name are
traced too.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_now_ns = time.perf_counter_ns

#: Full span records retained per process; totals stay exact past it.
SPAN_CAP = 200_000


class SpanRecorder:
    """Span stack, per-key totals and a capped span log for one process."""

    def __init__(self, span_cap: int = SPAN_CAP) -> None:
        self.span_cap = span_cap
        self.reset()

    def reset(self) -> None:
        #: Open spans: [span_id, child_ns].
        self.stack: List[list] = []
        #: key -> [calls, busy_ns, self_ns]
        self.totals: Dict[str, List[int]] = {}
        #: key -> depth of open spans with that key (busy counts depth 0).
        self.depth: Dict[str, int] = {}
        #: Exact counts read off wrapped calls' results (see ``count_result``).
        self.counts: Dict[str, int] = {}
        #: (span_id, key, start_ns, end_ns, parent_id, request_id)
        self.spans: List[Tuple[int, str, int, int, int, Any]] = []
        self.spans_dropped = 0
        #: Summed duration of spans with no parent: the covered host time.
        self.top_ns = 0
        self.next_id = 1
        self.started_ns = _now_ns()
        self.started_cpu = time.process_time()

    def summary(self) -> Dict[str, Any]:
        """Totals as plain JSON data (what a worker process flushes)."""
        return {
            "totals": {key: list(value) for key, value in self.totals.items()},
            "counts": dict(self.counts),
            "top_ns": self.top_ns,
            "wall_ns": _now_ns() - self.started_ns,
            "cpu_s": time.process_time() - self.started_cpu,
            "spans_recorded": len(self.spans),
            "spans_dropped": self.spans_dropped,
        }

    def write_spans(self, path: str) -> None:
        """Write the retained span log, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


#: The recorder of this process; fleet workers inherit it over fork and
#: reset it when they start (see ``layers.install``).
RECORDER = SpanRecorder()


def traced(key: str, fn: Callable, request_id: Optional[Callable] = None,
           count_result: Optional[str] = None) -> Callable:
    """Wrap *fn* so every call records a span named *key*.

    *request_id* maps the call's arguments to the span's request id.
    *count_result* names a counter that accumulates the call's integer
    result (or, for a bool result, the number of true results).
    """
    rec = RECORDER

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = rec.stack
        span_id = rec.next_id
        rec.next_id = span_id + 1
        depth = rec.depth
        level = depth.get(key, 0)
        depth[key] = level + 1
        frame = [span_id, 0]
        stack.append(frame)
        start = _now_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _now_ns()
            stack.pop()
            depth[key] = level
            duration = end - start
            totals = rec.totals.get(key)
            if totals is None:
                totals = rec.totals[key] = [0, 0, 0]
            totals[0] += 1
            if level == 0:
                totals[1] += duration
            totals[2] += duration - frame[1]
            if stack:
                parent = stack[-1]
                parent[1] += duration
                parent_id = parent[0]
            else:
                rec.top_ns += duration
                parent_id = 0
            if len(rec.spans) < rec.span_cap:
                rid = request_id(*args, **kwargs) if request_id is not None else None
                rec.spans.append((span_id, key, start, end, parent_id, rid))
            else:
                rec.spans_dropped += 1
        if count_result is not None and result:
            rec.counts[count_result] = rec.counts.get(count_result, 0) + int(result)
        return result

    return wrapper


def wrap_methods(cls: type, names: Iterable[str], key: str, **options: Any) -> None:
    """Replace each method *names* of *cls* with a traced wrapper."""
    for name in names:
        original = cls.__dict__[name]
        setattr(cls, name, traced(key, original, **options))


def wrap_function(module_name: str, name: str, key: str, **options: Any) -> None:
    """Replace a module-level function and every by-name import of it."""
    module = sys.modules[module_name]
    original = getattr(module, name)
    wrapped = traced(key, original, **options)
    for other_name, other in list(sys.modules.items()):
        if other is None or not (other_name == "repro" or other_name.startswith("repro.")):
            continue
        if getattr(other, name, None) is original:
            setattr(other, name, wrapped)


def layer_totals(summaries: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-process summaries (the driver plus any worker processes)."""
    merged: Dict[str, Any] = {"totals": {}, "counts": {}, "top_ns": 0, "cpu_s": 0.0,
                              "spans_recorded": 0, "spans_dropped": 0}
    for summary in summaries:
        for key, (calls, busy, self_ns) in summary["totals"].items():
            into = merged["totals"].setdefault(key, [0, 0, 0])
            into[0] += calls
            into[1] += busy
            into[2] += self_ns
        for key, value in summary["counts"].items():
            merged["counts"][key] = merged["counts"].get(key, 0) + value
        merged["top_ns"] += summary["top_ns"]
        merged["cpu_s"] += summary["cpu_s"]
        merged["spans_recorded"] += summary["spans_recorded"]
        merged["spans_dropped"] += summary["spans_dropped"]
    return merged


def flush_summary(path: str) -> None:
    """Write this process's totals to *path* atomically."""
    partial = f"{path}.{os.getpid()}.part"
    with open(partial, "w", encoding="utf-8") as handle:
        json.dump(RECORDER.summary(), handle)
    os.replace(partial, path)
