"""Measurement plumbing shared by every observatory workload.

Nothing here imports ``repro`` at module load: ``run.py`` pins the BLAS
thread count and starts the set-up clock before the library (and numpy)
come in, and spawn-started actor workers re-import this file too.

- :func:`summarize` — n / median / quartiles of a sample list, the shape
  every timing is reported in.
- :class:`Recorder` — the benchmark-side span recorder of the traced run:
  spans (name, start, end, parent id, one trace id per fit or request)
  kept in memory, self time = span minus children, Chrome trace export.
  :data:`NULL` is the disabled recorder the untraced run uses.
- :class:`Samples` — named sample lists plus attempted/failed operation
  counts for one run.
- :func:`open_loop` — paced single-thread load generator; latency is
  timed from each request's *due* time to its Future's done-callback and
  the generator's own lateness is returned beside it.
- environment capture, peak RSS (parent + live children), child-process
  and ``/dev/shm`` leak checks.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import subprocess
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def summarize(values: Sequence[float]) -> Dict[str, float]:
    """``n``, ``median``, ``q1``, ``q3`` of ``values`` (n >= 1)."""
    values = [float(v) for v in values]
    n = len(values)
    if n == 0:
        raise ValueError("summarize() needs at least one sample")
    if n == 1:
        return {"n": 1, "median": values[0], "q1": values[0],
                "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": n, "median": statistics.median(values), "q1": q1, "q3": q3}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(q / 100.0 * len(ordered) + 0.5)) - 1))
    return ordered[rank]


class Samples:
    """What one run measured: named sample lists and operation counts.

    ``add`` appends one observation of a metric; ``set`` records a
    counter the program exposes (read once, not sampled).  ``attempted``
    / ``failed`` count operations for the run's ``failed_share``; every
    ``fail`` carries a reason that is printed with the results.
    """

    #: names a traced round must not feed: end-to-end numbers are
    #: measured with tracing off
    UNTRACED_ONLY = ("e2e.", "step.", "latency_", "round_s")

    def __init__(self) -> None:
        self.values: Dict[str, List[float]] = {}
        #: True while a traced round runs (see UNTRACED_ONLY)
        self.tracing = False
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.notes: List[str] = []

    def add(self, name: str, value: float) -> None:
        self.extend(name, (value,))

    def extend(self, name: str, values: Iterable[float]) -> None:
        if self.tracing and name.startswith(self.UNTRACED_ONLY):
            return
        self.values.setdefault(name, []).extend(float(v) for v in values)

    def set(self, name: str, value: float) -> None:
        self.values[name] = [float(value)]

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str, n: int = 1) -> None:
        self.failed += n
        if len(self.failures) < 20:
            self.failures.append(reason)

    def median(self, name: str, default: float = 0.0) -> float:
        vals = self.values.get(name)
        return statistics.median(vals) if vals else default


# ----------------------------------------------------------------------
# Span recorder (the traced run)
# ----------------------------------------------------------------------

class Recorder:
    """In-memory span recorder driven from the benchmark's own files.

    Spans nest per thread (the innermost open span is the parent);
    ``trace`` tags every span opened under it with one id per fit or
    request.  Nothing is written until :meth:`export_chrome_trace`.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_trace = 0

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_trace(self) -> int:
        with self._lock:
            self._next_trace += 1
            return self._next_trace

    @contextmanager
    def span(self, name: str, trace: Optional[int] = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        rec = {"name": name, "parent": parent["id"] if parent else None,
               "trace": trace if trace is not None
               else (parent["trace"] if parent else None),
               "tid": threading.get_ident(), "start": time.perf_counter(),
               "end": None}
        with self._lock:
            rec["id"] = len(self.spans)
            self.spans.append(rec)
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def self_seconds(self) -> Dict[str, List[float]]:
        """Per span name, each closed span's duration minus its children."""
        child_total: Dict[int, float] = {}
        for rec in self.spans:
            if rec["end"] is not None and rec["parent"] is not None:
                child_total[rec["parent"]] = (
                    child_total.get(rec["parent"], 0.0)
                    + rec["end"] - rec["start"])
        out: Dict[str, List[float]] = {}
        for rec in self.spans:
            if rec["end"] is None:
                continue
            own = rec["end"] - rec["start"] - child_total.get(rec["id"], 0.0)
            out.setdefault(rec["name"], []).append(max(own, 0.0))
        return out

    def durations(self, name: str) -> List[float]:
        return [rec["end"] - rec["start"] for rec in self.spans
                if rec["name"] == name and rec["end"] is not None]

    def export_chrome_trace(self, path: str,
                            extra: Sequence[Dict[str, Any]] = ()) -> str:
        """Write the spans (plus ``extra`` pre-built events) as a Chrome
        ``trace_event`` JSON file."""
        events = list(extra)
        pid = os.getpid()
        for rec in self.spans:
            if rec["end"] is None:
                continue
            events.append({
                "name": rec["name"], "ph": "X", "cat": "observatory",
                "pid": pid, "tid": rec["tid"],
                "ts": rec["start"] * 1e6,
                "dur": (rec["end"] - rec["start"]) * 1e6,
                "args": {"id": rec["id"], "parent": rec["parent"],
                         "trace": rec["trace"]}})
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
        return path


class _NullRecorder:
    """The untraced run's recorder: every span is a no-op."""

    enabled = False
    spans: List[Dict[str, Any]] = []

    @contextmanager
    def span(self, name: str, trace: Optional[int] = None):
        yield None

    def new_trace(self) -> int:
        return 0


NULL = _NullRecorder()


# ----------------------------------------------------------------------
# Timing helpers
# ----------------------------------------------------------------------

def quiesce() -> None:
    """Collect garbage and freeze the survivors before a timed window."""
    gc.collect()
    gc.freeze()


def timed(fn: Callable[[], Any]):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def per_call_us(fn: Callable[[Any], Any], inputs: Sequence[Any],
                repeats: int = 3) -> float:
    """Median over ``repeats`` loops of the mean microseconds per call."""
    means = []
    for _ in range(repeats):
        start = time.perf_counter()
        for x in inputs:
            fn(x)
        means.append((time.perf_counter() - start) / len(inputs) * 1e6)
    return statistics.median(means)


# ----------------------------------------------------------------------
# Open-loop load generator
# ----------------------------------------------------------------------

#: how much of each inter-request gap the generator spins, not sleeps
SPIN_S = 0.0002


def open_loop(submit: Callable[[Any], Any], items: Sequence[Any],
              rate: float, on_request: Optional[Callable] = None,
              timeout: float = 60.0):
    """Send ``items`` at ``rate`` per second from this thread.

    Request *i* is due at ``t0 + i / rate`` regardless of how the system
    is doing (independent users).  Returns ``(futures, latency_s,
    late_s, sent_end, done_at)``: latency from due time to the Future's
    done-callback (None when ``submit`` raised — the exception is kept in
    ``futures[i]``), the generator's lateness per request, and the clock
    at the last send and at the last completion.
    """
    n = len(items)
    futures: List[Any] = [None] * n
    latency: List[Optional[float]] = [None] * n
    late = [0.0] * n
    remaining = [n]
    lock = threading.Lock()
    all_done = threading.Event()
    done_at = [0.0]

    def finish_one() -> None:
        with lock:
            remaining[0] -= 1
            if remaining[0] == 0:
                done_at[0] = time.perf_counter()
                all_done.set()

    def callback_for(i: int, due: float):
        def done(_fut) -> None:
            now = time.perf_counter()
            latency[i] = now - due
            if on_request is not None:
                on_request(i, due, now)
            finish_one()
        return done

    clock = time.perf_counter
    t0 = clock() + 0.02
    for i in range(n):
        due = t0 + i / rate
        # sleep() hands the interpreter lock to the server's threads; only
        # the last SPIN_S are spun (sleep alone wakes ~0.2 ms late).  A
        # longer spin would hold the lock and add whole switch intervals
        # to every queued request's latency.
        now = clock()
        while now < due:
            if due - now > SPIN_S:
                time.sleep(due - now - SPIN_S)
            now = clock()
        late[i] = now - due
        try:
            fut = submit(items[i])
        except Exception as exc:  # refused / shed: a failed request
            futures[i] = exc
            finish_one()
            continue
        futures[i] = fut
        fut.add_done_callback(callback_for(i, due))
    sent_end = clock()
    if not all_done.wait(timeout):
        done_at[0] = clock()
    return futures, latency, late, sent_end, done_at[0]


# ----------------------------------------------------------------------
# Environment, memory, leaks
# ----------------------------------------------------------------------

def env_info(repo_root: str) -> Dict[str, Any]:
    import numpy
    import scipy

    info: Dict[str, Any] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "blas_threads": os.environ.get("OMP_NUM_THREADS"),
    }
    try:
        info["git_sha"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=repo_root, check=True,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        info["git_sha"] = None  # the driver's checkout is not a git repo
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _vm_hwm_kb(pid: Any) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live children, in MB."""
    import multiprocessing

    total = _vm_hwm_kb("self")
    for child in multiprocessing.active_children():
        total += _vm_hwm_kb(child.pid)
    if total == 0:  # no /proc: fall back to rusage of this process
        import resource

        total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return total / 1024.0


def shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def leaked_children(grace: float = 5.0) -> List[str]:
    """Names of child processes still alive after ``grace`` seconds."""
    import multiprocessing

    deadline = time.perf_counter() + grace
    while True:
        alive = multiprocessing.active_children()
        if not alive or time.perf_counter() > deadline:
            return [f"{p.name}[{p.pid}]" for p in alive]
        time.sleep(0.05)
