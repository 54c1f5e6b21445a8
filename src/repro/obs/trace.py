"""Content-keyed structured tracing across backends, workers, and serving.

A :class:`Tracer` records spans — timed intervals with parent links —
as plain dicts, so buffers can be pickled across process boundaries
and piggybacked on worker replies.  Spans optionally carry the
content-addressed **op key** of the work they measure (see
:mod:`repro.core.program`): the same logical op then correlates across
backends, repeated fits, and serving versions, regardless of which
process or worker executed it.

Design points:

* **No-op fast path.**  Instrumentation sites call the module-level
  :func:`span` / :func:`event` helpers, which read one module global and
  branch.  With tracing disabled (the default) the cost is a dict lookup
  and an ``is None`` test — no allocation, no locking.
* **Cross-process clocks.**  Span start timestamps come from
  ``time.time()`` (wall clock, comparable across processes on one
  machine); durations come from ``time.perf_counter()`` deltas taken in
  the recording process.  Chrome's trace viewer lines workers up on the
  shared wall clock.
* **Bounded buffers.**  A tracer holds at most ``max_spans`` records and
  counts drops beyond that; workers :meth:`~Tracer.drain` their buffer
  into each reply, the parent :meth:`~Tracer.absorb`\\ s them with
  per-span worker attribution.

Span records are dicts with keys ``id``, ``parent`` (both strings,
globally unique via the recording pid), ``name``, ``cat``, ``key`` (op
content key or ``""``), ``ts``/``dur`` (microseconds), ``pid``,
``proc`` (process name), ``tid``, ``args``, and ``kind`` (``"span"`` or
``"event"``); absorbed records gain ``worker``.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence


def _proc_name() -> str:
    try:
        return multiprocessing.current_process().name
    except Exception:  # pragma: no cover - defensive
        return "process"


class _NullSpan:
    """The disabled-tracing stand-in: a reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context manager recording one span into its tracer on exit."""

    __slots__ = ("_tracer", "_rec", "_t0")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        cat: str,
        key: Optional[str],
        args: Optional[Dict[str, Any]],
    ):
        self._tracer = tracer
        self._rec = {
            "name": name,
            "cat": cat,
            "key": key or "",
            "args": args or {},
        }
        self._t0 = 0.0

    def __enter__(self) -> "_SpanHandle":
        tracer = self._tracer
        stack = tracer._stack()
        rec = self._rec
        rec["id"] = tracer._new_id()
        rec["parent"] = stack[-1] if stack else None
        rec["ts"] = time.time() * 1e6
        rec["pid"] = os.getpid()
        rec["proc"] = _proc_name()
        rec["tid"] = threading.get_ident()
        rec["kind"] = "span"
        stack.append(rec["id"])
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        rec = self._rec
        rec["dur"] = (time.perf_counter() - self._t0) * 1e6
        stack = self._tracer._stack()
        if stack and stack[-1] == rec["id"]:
            stack.pop()
        self._tracer._append(rec)
        return False


class Tracer:
    """A bounded, thread-safe span buffer with parent/child nesting.

    One tracer serves a whole run; nesting is tracked per thread via a
    thread-local span stack, so concurrent backends produce well-nested
    traces per ``(pid, tid)`` lane.
    """

    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.dropped = 0
        self._lock = threading.Lock()
        self._spans: List[Dict[str, Any]] = []
        self._seq = itertools.count(1)
        self._pid = os.getpid()
        self._tls = threading.local()

    # -- recording -----------------------------------------------------
    def span(
        self,
        name: str,
        *,
        cat: str = "op",
        key: Optional[str] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> _SpanHandle:
        """A context manager timing one interval under ``name``."""
        return _SpanHandle(self, name, cat, key, args)

    def event(
        self,
        name: str,
        *,
        cat: str = "event",
        key: Optional[str] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record an instant event (e.g. ``worker_restart``)."""
        stack = self._stack()
        self._append(
            {
                "name": name,
                "cat": cat,
                "key": key or "",
                "args": args or {},
                "id": self._new_id(),
                "parent": stack[-1] if stack else None,
                "ts": time.time() * 1e6,
                "dur": 0.0,
                "pid": os.getpid(),
                "proc": _proc_name(),
                "tid": threading.get_ident(),
                "kind": "event",
            }
        )

    def record(
        self,
        name: str,
        *,
        seconds: float,
        cat: str = "op",
        key: Optional[str] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record an already-measured interval ending now.

        The hot-loop alternative to :meth:`span` for code that already
        times itself (shard interpreters): one clock read, no context
        manager.
        """
        stack = self._stack()
        self._append(
            {
                "name": name,
                "cat": cat,
                "key": key or "",
                "args": args or {},
                "id": self._new_id(),
                "parent": stack[-1] if stack else None,
                "ts": time.time() * 1e6 - seconds * 1e6,
                "dur": seconds * 1e6,
                "pid": os.getpid(),
                "proc": _proc_name(),
                "tid": threading.get_ident(),
                "kind": "span",
            }
        )

    def _new_id(self) -> str:
        return f"{self._pid}-{next(self._seq)}"

    def _stack(self) -> List[str]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _append(self, rec: Dict[str, Any]) -> None:
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
            else:
                self._spans.append(rec)

    # -- transport -----------------------------------------------------
    def drain(self) -> List[Dict[str, Any]]:
        """Return and clear the buffered records (worker reply payload)."""
        with self._lock:
            out, self._spans = self._spans, []
            return out

    def absorb(
        self,
        records: Optional[Iterable[Dict[str, Any]]],
        *,
        worker: Optional[str] = None,
    ) -> None:
        """Merge records drained from another process into this buffer.

        ``worker`` attributes every absorbed span to the worker lane it
        came from; records that already carry a worker tag keep it.
        """
        if not records:
            return
        with self._lock:
            for rec in records:
                if len(self._spans) >= self.max_spans:
                    self.dropped += 1
                    continue
                if worker is not None and "worker" not in rec:
                    rec = dict(rec)
                    rec["worker"] = worker
                self._spans.append(rec)

    # -- inspection ----------------------------------------------------
    @property
    def spans(self) -> List[Dict[str, Any]]:
        """A snapshot of every buffered record (spans and events)."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def aggregate(self) -> List[Dict[str, Any]]:
        return aggregate(self.spans)

    def aggregate_table(self) -> List[str]:
        return aggregate_table(self.spans)

    def chrome_trace(self) -> Dict[str, Any]:
        return chrome_trace(self.spans)

    def export_chrome_trace(self, path: str) -> str:
        return export_chrome_trace(self.spans, path)


# ----------------------------------------------------------------------
# Module-level active tracer (the instrumentation entry points)
# ----------------------------------------------------------------------

_active: Optional[Tracer] = None


def enable(tracer: Optional[Tracer] = None) -> Tracer:
    """Install ``tracer`` (or a fresh one) as the active tracer."""
    global _active
    _active = tracer if tracer is not None else Tracer()
    return _active


def disable() -> Optional[Tracer]:
    """Deactivate tracing; returns the tracer that was active, if any."""
    global _active
    tracer, _active = _active, None
    return tracer


def active() -> Optional[Tracer]:
    """The active tracer, or ``None`` when tracing is disabled."""
    return _active


def enabled() -> bool:
    return _active is not None


def span(
    name: str,
    *,
    cat: str = "op",
    key: Optional[str] = None,
    args: Optional[Dict[str, Any]] = None,
):
    """A span on the active tracer, or a shared no-op when disabled."""
    tracer = _active
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, cat=cat, key=key, args=args)


def event(
    name: str,
    *,
    cat: str = "event",
    key: Optional[str] = None,
    args: Optional[Dict[str, Any]] = None,
) -> None:
    """An instant event on the active tracer; no-op when disabled."""
    tracer = _active
    if tracer is not None:
        tracer.event(name, cat=cat, key=key, args=args)


def absorb(records: Optional[Iterable[Dict[str, Any]]]) -> None:
    """Absorb worker-drained records into the active tracer, if any."""
    tracer = _active
    if tracer is not None:
        tracer.absorb(records)


def instrument(
    name: str,
    fn: Callable[..., Any],
    *,
    cat: str = "op",
    key: Optional[str] = None,
    node_id: Optional[int] = None,
) -> Callable[..., Any]:
    """Wrap ``fn`` so each call runs under a span when tracing is active.

    The disabled path costs one global read and a branch per call — safe
    to leave on hot per-partition code paths permanently.
    """
    span_args = {"node_id": node_id} if node_id is not None else None

    def traced(*args: Any, **kwargs: Any) -> Any:
        tracer = _active
        if tracer is None:
            return fn(*args, **kwargs)
        with tracer.span(name, cat=cat, key=key, args=span_args):
            return fn(*args, **kwargs)

    return traced


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


def chrome_trace(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Render span records as a Chrome ``trace_event`` document.

    The result loads in ``chrome://tracing`` and Perfetto: spans become
    ``"ph": "X"`` complete events, instants become ``"ph": "i"``, and
    per-pid metadata events name each worker lane.
    """
    events: List[Dict[str, Any]] = []
    proc_names: Dict[int, str] = {}
    for rec in records:
        pid = rec.get("pid", 0)
        proc_names.setdefault(pid, rec.get("proc", f"pid {pid}"))
        args = dict(rec.get("args") or {})
        if rec.get("key"):
            args["key"] = rec["key"]
        if rec.get("worker"):
            args["worker"] = rec["worker"]
        ev = {
            "name": rec.get("name", "?"),
            "cat": rec.get("cat", "op"),
            "ts": rec.get("ts", 0.0),
            "pid": pid,
            "tid": rec.get("tid", 0),
            "args": args,
        }
        if rec.get("kind") == "event":
            ev["ph"] = "i"
            ev["s"] = "p"
        else:
            ev["ph"] = "X"
            ev["dur"] = rec.get("dur", 0.0)
        events.append(ev)
    for pid, name in proc_names.items():
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def export_chrome_trace(records: Sequence[Dict[str, Any]], path: str) -> str:
    """Write :func:`chrome_trace` JSON to ``path``; returns ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(records), fh)
    return path


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def aggregate(records: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Per-op totals grouped by content key (falling back to span name).

    Returns rows sorted by total seconds descending, each with ``name``,
    ``key``, ``count``, ``seconds``, and the set of process/worker lanes
    the op ran in (``procs``).
    """
    rows: Dict[str, Dict[str, Any]] = {}
    for rec in records:
        if rec.get("kind") == "event":
            continue
        group = rec.get("key") or rec.get("name", "?")
        row = rows.get(group)
        if row is None:
            row = rows[group] = {
                "name": rec.get("name", "?"),
                "key": rec.get("key", ""),
                "count": 0,
                "seconds": 0.0,
                "procs": set(),
            }
        row["count"] += 1
        row["seconds"] += rec.get("dur", 0.0) / 1e6
        row["procs"].add(rec.get("worker") or rec.get("proc", "?"))
    return sorted(rows.values(), key=lambda r: -r["seconds"])


def aggregate_table(records: Sequence[Dict[str, Any]]) -> List[str]:
    """The :func:`aggregate` rows formatted as fixed-width text lines."""
    rows = aggregate(records)
    lines = [f"{'op':<34} {'key':<14} {'count':>6} {'seconds':>9}  procs"]
    for row in rows:
        key = row["key"][:12] if row["key"] else "-"
        procs = ",".join(sorted(row["procs"]))
        lines.append(
            f"{row['name'][:34]:<34} {key:<14} {row['count']:>6} "
            f"{row['seconds']:>9.4f}  {procs}"
        )
    return lines


def node_seconds(
    records: Sequence[Dict[str, Any]],
    cats: Sequence[str] = ("op",),
) -> Dict[int, float]:
    """Total observed seconds per plan node id, from span ``args``.

    Only spans whose category is in ``cats`` contribute (worker-side op
    spans measure exclusive compute; parent-side ``fit`` spans are
    inclusive of nested waves and would double-count).
    """
    out: Dict[int, float] = {}
    for rec in records:
        if rec.get("kind") == "event" or rec.get("cat") not in cats:
            continue
        nid = (rec.get("args") or {}).get("node_id")
        if nid is None:
            continue
        out[nid] = out.get(nid, 0.0) + rec.get("dur", 0.0) / 1e6
    return out
