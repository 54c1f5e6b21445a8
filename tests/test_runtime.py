"""Unit tests for the actor runtime internals.

End-to-end actor coverage lives in tests/test_backends.py
(TestActorBackend) and tests/test_failure_modes.py
(TestActorFaultTolerance).  These tests pin the in-process pieces — the
shard-state cache, the shared liveness walk, the zero-copy transport,
and chunk planning — without spawning worker processes, plus the "one
pool" guarantees: nothing under ``src/repro`` imports a second
process-pool manager, and the one there is leaks neither processes nor
shared-memory segments across a worker kill and a shutdown, and keeps
the resource tracker quiet.
"""

import ast
import multiprocessing
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core import interp
from repro.core import program as prog
from repro.core.backends import ActorBackend
from repro.core.backends.actors import _plan_chunks
from repro.core.pipeline import Pipeline
from repro.core.program import UnshippableFlow
from repro.dataset import Context
from repro.nodes.numeric import Normalizer, StandardScaler
from repro.runtime import transport
from repro.runtime.worker import ShardStateCache, shard_key


def _op(slot, kind, parents=(), key=""):
    return prog.Op(slot, slot, kind, None, tuple(parents), f"op{slot}", key)


def _chain(keys):
    """source -> transform -> ... with the given per-slot content keys."""
    ops = [_op(0, prog.SOURCE, key=keys[0])]
    for slot in range(1, len(keys)):
        ops.append(_op(slot, prog.TRANSFORM, (slot - 1,), key=keys[slot]))
    return ops


class TestShardStateCache:
    def test_miss_then_hit_counts(self):
        cache = ShardStateCache()
        key = ("k", 0, 2)
        assert key not in cache
        cache.put(key, [[1], [2]])
        assert key in cache
        assert cache.get(key) == [[1], [2]]
        assert cache.misses == 1
        assert cache.hits == 1

    def test_budget_evicts_least_recently_used(self):
        row = np.zeros(128)  # 1 KiB per row
        cache = ShardStateCache(budget_bytes=3 * row.nbytes)
        for name in ("a", "b", "c"):
            cache.put((name, 0, 1), [[row]])
        cache.get(("a", 0, 1))  # refresh "a": "b" is now the LRU entry
        cache.put(("d", 0, 1), [[row]])
        assert ("b", 0, 1) not in cache
        assert ("a", 0, 1) in cache
        assert cache.drain_evicted() == [("b", 0, 1)]
        assert cache.drain_evicted() == []

    def test_replacing_an_entry_does_not_double_charge(self):
        row = np.zeros(128)
        cache = ShardStateCache(budget_bytes=2 * row.nbytes)
        cache.put(("a", 0, 1), [[row]])
        cache.put(("a", 0, 1), [[row]])
        cache.put(("b", 0, 1), [[row]])
        assert ("a", 0, 1) in cache
        assert ("b", 0, 1) in cache
        assert cache.drain_evicted() == []

    def test_an_oversized_entry_still_resides(self):
        cache = ShardStateCache(budget_bytes=8)
        cache.put(("big", 0, 1), [[np.zeros(64)]])
        assert ("big", 0, 1) in cache  # never evicts the sole entry


def live_slots(ops, targets, is_cached):
    """``interp.liveness`` under the shard-cache policy, as slot sets."""

    def probe(op, _row):
        return shard_key(op, (0, 1)) is not None and is_cached(op.key), None

    todo, _ = interp.liveness(ops, targets, 1, probe)
    needed = {slot for slot, rows in enumerate(todo) if rows is not None}
    compute = {slot for slot, rows in enumerate(todo) if rows}
    return needed, compute


class TestLiveSlots:
    def test_cold_cache_computes_everything(self):
        ops = _chain(["s", "t1", "t2"])
        needed, compute = live_slots(ops, [2], lambda key: False)
        assert needed == {0, 1, 2}
        assert compute == {0, 1, 2}

    def test_cached_prefix_prunes_its_parents(self):
        ops = _chain(["s", "t1", "t2"])
        needed, compute = live_slots(ops, [2], lambda key: key == "t1")
        assert compute == {2}
        assert needed == {1, 2}  # the source behind the cached op drops out

    def test_gather_is_never_served_from_cache(self):
        ops = _chain(["s", "t1"])
        ops.append(_op(2, prog.GATHER, (1,), key="gkey"))
        needed, compute = live_slots(ops, [2], lambda key: True)
        assert 2 in compute

    def test_unkeyed_ops_are_never_cache_candidates(self):
        ops = _chain(["", ""])
        needed, compute = live_slots(ops, [1], lambda key: True)
        assert compute == {0, 1}

    def test_unreachable_slots_are_skipped(self):
        ops = _chain(["s", "t1", "t2"])
        needed, compute = live_slots(ops, [1], lambda key: False)
        assert 2 not in needed
        assert compute == {0, 1}


class TestTransport:
    def test_small_payloads_ride_the_pipe_inline(self):
        obj = {"rows": [np.arange(4), "text"]}
        res = transport.pack(obj)
        assert res.payload[0] == "inline"
        assert res.mapped_bytes == 0
        assert res.shipped_bytes > 0
        out, segments = transport.unpack(res.payload)
        assert segments == []
        np.testing.assert_array_equal(out["rows"][0], np.arange(4))
        res.release()  # no segment: must be a no-op

    def test_large_arrays_go_through_shared_memory(self):
        if transport.shared_memory is None:
            pytest.skip("multiprocessing.shared_memory unavailable")
        arrays = [np.arange(32768, dtype=np.float64), np.ones(16384)]
        res = transport.pack(arrays, shm_threshold=1024)
        if res.payload[0] != "shm":  # no usable /dev/shm on this host
            pytest.skip("shared memory segment creation unavailable")
        assert res.mapped_bytes == sum(a.nbytes for a in arrays)
        out, segments = transport.unpack(res.payload)
        assert len(segments) == 1
        np.testing.assert_array_equal(out[0], arrays[0])
        np.testing.assert_array_equal(out[1], arrays[1])
        res.release()
        res.release()  # idempotent
        del out
        for segment in segments:
            segment.close()

    def test_threshold_keeps_large_payloads_inline(self):
        arrays = [np.arange(32768, dtype=np.float64)]
        res = transport.pack(arrays, shm_threshold=1 << 30)
        assert res.payload[0] == "inline"
        assert res.shipped_bytes >= arrays[0].nbytes
        out, segments = transport.unpack(res.payload)
        np.testing.assert_array_equal(out[0], arrays[0])
        assert segments == []


class _FakeDataset:
    def __init__(self, num_partitions):
        self.num_partitions = num_partitions


class TestPlanChunks:
    def test_chunks_cover_partitions_contiguously(self):
        sources = {1: _FakeDataset(10), 2: _FakeDataset(10)}
        chunks, num_partitions = _plan_chunks(sources, 4)
        assert num_partitions == 10
        assert chunks[0][0] == 0
        assert chunks[-1][1] == 10
        for (_, stop), (start, _) in zip(chunks, chunks[1:]):
            assert stop == start

    def test_more_workers_than_partitions_collapses(self):
        chunks, _ = _plan_chunks({1: _FakeDataset(2)}, 8)
        assert chunks == [(0, 1), (1, 2)]

    def test_disagreeing_partition_counts_are_unshippable(self):
        sources = {1: _FakeDataset(4), 2: _FakeDataset(5)}
        with pytest.raises(UnshippableFlow):
            _plan_chunks(sources, 2)


def _foreign_pool_uses(tree: ast.AST):
    """Line numbers naming ``ProcessPoolExecutor`` or ``multiprocessing.Pool``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {alias.name for alias in node.names}
            if module.startswith("concurrent") and "ProcessPoolExecutor" in names:
                yield node.lineno
            if module.startswith("multiprocessing") and "Pool" in names:
                yield node.lineno
        elif isinstance(node, ast.Attribute):
            if node.attr in ("ProcessPoolExecutor", "Pool"):
                yield node.lineno


def _shm_fit(backend, seed):
    """One small fit whose source partitions ship over shared memory
    (with ``shm_threshold=1024``); returns its training report."""
    rng = np.random.default_rng(seed)
    ctx = Context()
    data = ctx.parallelize([rng.normal(size=64) for _ in range(64)], 4)
    pipe = Pipeline.identity().and_then(Normalizer())
    pipe = pipe.and_then(StandardScaler(), data)
    return pipe.fit(level="none", backend=backend).training_report


#: a real script file: spawned workers re-import ``__main__``
_SHM_FIT_SCRIPT = """
import numpy as np

from repro.core.backends import ActorBackend
from repro.core.pipeline import Pipeline
from repro.dataset import Context
from repro.nodes.numeric import Normalizer, StandardScaler

if __name__ == "__main__":
    rng = np.random.default_rng(0)
    data = Context().parallelize([rng.normal(size=64) for _ in range(64)], 4)
    pipe = Pipeline.identity().and_then(Normalizer()).and_then(StandardScaler(), data)
    with ActorBackend(
        workers=2, task_timeout=120.0, reuse_pool=False, shm_threshold=1024
    ) as backend:
        fitted = pipe.fit(level="none", backend=backend)
    print("mapped", fitted.training_report.bytes_mapped)
"""


class TestOnePool:
    def test_no_second_process_pool_manager_under_src(self):
        """``runtime.pool.ActorPool`` is the only process-pool manager:
        no module may bring in ``concurrent.futures.ProcessPoolExecutor``
        or ``multiprocessing.Pool`` beside it."""
        root = pathlib.Path(repro.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for lineno in _foreign_pool_uses(tree):
                offenders.append(f"{path.relative_to(root)}:{lineno}")
        assert offenders == []

    def test_kill_then_shutdown_leaks_no_process_and_no_shm(self):
        """Fit over shared memory, SIGKILL a worker, refit through the
        respawn, shut down: every process the pool started is gone and
        ``/dev/shm`` is back to what it held before."""
        if not os.access("/dev/shm", os.R_OK | os.W_OK | os.X_OK):
            pytest.skip("/dev/shm unusable on this host")
        shm_before = set(os.listdir("/dev/shm"))
        children_before = {p.pid for p in multiprocessing.active_children()}
        backend = ActorBackend(
            workers=2, task_timeout=120.0, reuse_pool=False, shm_threshold=1024
        )
        try:
            cold = _shm_fit(backend, seed=0)
            if cold.bytes_mapped == 0:
                pytest.skip("shared memory segment creation unavailable")
            victim = backend._private_pool.actors[0].proc
            victim.kill()
            victim.join(timeout=10.0)
            assert not victim.is_alive()
            # Different data: the dead worker's message ships a fresh
            # segment that is in flight when the death is discovered.
            recovered = _shm_fit(backend, seed=1)
            assert recovered.worker_restarts >= 1
            assert recovered.bytes_mapped > 0
        finally:
            backend.close()
        survivors = {p.pid for p in multiprocessing.active_children()}
        assert survivors - children_before == set()
        assert set(os.listdir("/dev/shm")) - shm_before == set()

    def test_shm_fit_leaves_the_resource_tracker_quiet(self, tmp_path):
        """A shared-memory fit in a fresh interpreter: the resource
        tracker, which spawned workers share with their parent, reports
        no ``KeyError`` for a segment both sides tracked, and
        ``/dev/shm`` keeps nothing.  The tracker is its own process, so
        only a separate interpreter's stderr shows what it printed."""
        if not os.access("/dev/shm", os.R_OK | os.W_OK | os.X_OK):
            pytest.skip("/dev/shm unusable on this host")
        script = tmp_path / "shm_fit.py"
        script.write_text(_SHM_FIT_SCRIPT)
        src = str(pathlib.Path(repro.__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        shm_before = set(os.listdir("/dev/shm"))
        proc = subprocess.run(
            [sys.executable, str(script)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        if "mapped 0" in proc.stdout:
            pytest.skip("shared memory segment creation unavailable")
        assert "KeyError" not in proc.stderr
        assert set(os.listdir("/dev/shm")) - shm_before == set()

    def test_worker_exit_closes_segments_quietly(self, capfd):
        """Workers that cached rows viewing shared-memory segments exit
        without ``SharedMemory.__del__`` printing ``BufferError: cannot
        close exported pointers exist`` (two ships: one parked segment
        alone happened to be freed in a harmless order)."""
        if not os.access("/dev/shm", os.R_OK | os.W_OK | os.X_OK):
            pytest.skip("/dev/shm unusable on this host")
        backend = ActorBackend(
            workers=2, task_timeout=120.0, reuse_pool=False, shm_threshold=1024
        )
        try:
            mapped = [_shm_fit(backend, seed).bytes_mapped for seed in (0, 1)]
        finally:
            backend.close()
        if not all(mapped):
            pytest.skip("shared memory segment creation unavailable")
        assert "BufferError" not in capfd.readouterr().err
