"""Unit tests for the actor runtime internals.

End-to-end actor coverage lives in tests/test_backends.py
(TestActorBackend) and tests/test_failure_modes.py
(TestActorFaultTolerance).  These tests pin the in-process pieces — the
worker's shard-state cache and the parent's mirror of it, the shared
liveness walk, the zero-copy transport, and chunk planning — without
spawning worker processes, plus the "one pool" guarantees: nothing
under ``src/repro`` imports a second process-pool manager, and the one
there is leaks neither processes nor shared-memory segments across a
worker kill and a shutdown, and keeps the resource tracker quiet.  The
"one cache" guarantees: no module but ``dataset/cache.py`` keeps an LRU,
and none but ``dataset/sizing.py`` estimates byte sizes.
"""

import ast
import multiprocessing
import os
import pathlib
import pickle
import subprocess
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.core import interp
from repro.core import program as prog
from repro.core.backends import ActorBackend
from repro.core.backends.actors import _plan_chunks
from repro.core.pipeline import Pipeline
from repro.core.program import UnshippableFlow
from repro.dataset import CacheManager, Context, LRUPolicy, estimate_size
from repro.nodes.numeric import Normalizer, StandardScaler
from repro.nodes.text import NGramsFeaturizer, SparseFeatureVectorizer, TermFrequency
from repro.runtime import transport, worker
from repro.runtime.pool import ActorPool
from repro.runtime.worker import DEFAULT_STATE_BUDGET, shard_key


def _op(slot, kind, parents=(), key=""):
    return prog.Op(slot, slot, kind, None, tuple(parents), f"op{slot}", key)


def _chain(keys):
    """source -> transform -> ... with the given per-slot content keys."""
    ops = [_op(0, prog.SOURCE, key=keys[0])]
    for slot in range(1, len(keys)):
        ops.append(_op(slot, prog.TRANSFORM, (slot - 1,), key=keys[slot]))
    return ops


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


def _flow(prefix, *operators):
    """source -> operators..., keyed ``prefix-0``, ``prefix-1``, ...;
    node ids are slots, so the source is node 0."""
    ops = [_op(0, prog.SOURCE, key=f"{prefix}-0")]
    for slot, operator in enumerate(operators, start=1):
        label = type(operator).__name__
        key = f"{prefix}-{slot}"
        ops.append(
            prog.Op(slot, slot, prog.TRANSFORM, operator, (slot - 1,), label, key)
        )
    return ops


def _token_rows(count, seed):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(300)]
    return [[str(w) for w in rng.choice(words, size=40)] for _ in range(count)]


def _term_rows(count, terms, seed):
    """``{term: weight}`` rows of ``terms`` distinct vocabulary terms each."""
    rng = np.random.default_rng(seed)
    picks = (rng.choice(1000, size=terms, replace=False) for _ in range(count))
    return [{f"t{j}": 1.0 for j in pick} for pick in picks]


class TestWorkerCache:
    """The worker keeps shard state in a ``CacheManager`` and charges each
    entry by the one byte rule, ``estimate_size``."""

    @pytest.mark.parametrize(
        "rows, operators",
        [
            (_token_rows(40, 0), (NGramsFeaturizer(1, 2), TermFrequency())),
            (
                _term_rows(40, 75, 0),
                (SparseFeatureVectorizer({f"t{j}": j for j in range(1000)}),),
            ),
        ],
        ids=["ngram-dicts", "csr-75-nonzero"],
    )
    def test_entries_are_charged_by_the_one_rule(self, rows, operators):
        ops = _flow("f", *operators)
        last = len(ops) - 1
        blob = pickle.dumps((ops, [("out", last)], None))
        parts = [rows[:20], rows[20:]]
        cache = CacheManager(DEFAULT_STATE_BUDGET, LRUPolicy())
        result, _ = worker._run_task(blob, (0, 2), {0: parts}, cache, {}, 1)
        assert set(cache.entries) == {(op.key, 0, 2) for op in ops}
        for entry in cache.entries.values():
            assert entry.size == estimate_size(entry.value)
        out = cache.entries[(ops[last].key, 0, 2)]
        assert out.value is result["rows"]["out"]
        # A row without ``nbytes`` is several hundred bytes, not 64.
        assert out.size > 8 * 64 * len(rows)

    def test_an_entry_over_budget_is_neither_admitted_nor_reported(self):
        ops = _flow("f", TermFrequency())
        blob = pickle.dumps((ops, [("out", 1)], None))
        parts = [_token_rows(10, 1)]
        cache = CacheManager(64, LRUPolicy())
        result, _ = worker._run_task(blob, (0, 1), {0: parts}, cache, {}, 1)
        assert result["rows"]["out"] == [[TermFrequency().apply(r) for r in parts[0]]]
        assert list(cache.entries) == []


class TestShardStateCache:
    """The worker's shard-state cache as ``actor_main`` builds it: a
    ``CacheManager`` under LRU, keyed ``(op key, start, stop)``."""

    def test_miss_then_hit_counts(self):
        ops = _flow("k", TermFrequency())
        blob = pickle.dumps((ops, [("out", 1)], None))
        parts = [_token_rows(4, 0)]
        cache = CacheManager(DEFAULT_STATE_BUDGET, LRUPolicy())
        key = ("k-1", 0, 1)
        assert not cache.contains(key)
        first, _ = worker._run_task(blob, (0, 1), {0: parts}, cache, {}, 1)
        assert cache.contains(key)
        assert (cache.misses, cache.hits) == (2, 0)  # the op and its source
        second, _ = worker._run_task(blob, (0, 1), {}, cache, {}, 2)
        assert second == first
        assert (cache.misses, cache.hits) == (2, 1)

    def test_budget_evicts_least_recently_used(self):
        parts = [[np.zeros(128)]]  # 1 KiB per row
        cache = CacheManager(3 * estimate_size(parts), LRUPolicy())

        def run(name, sources):
            blob = pickle.dumps((_flow(name), [("out", 0)], None))
            worker._run_task(blob, (0, 1), sources, cache, {}, 1)

        for name in ("a", "b", "c"):
            run(name, {0: parts})
        run("a", {})  # a hit refreshes "a": "b" is now the LRU entry
        run("d", {0: parts})
        assert list(cache.entries) == [("c-0", 0, 1), ("a-0", 0, 1), ("d-0", 0, 1)]
        assert cache.evictions == 1

    def test_replacing_an_entry_does_not_double_charge(self):
        parts = [[np.zeros(128)]]
        size = estimate_size(parts)
        cache = CacheManager(2 * size, LRUPolicy())
        cache.put(("a", 0, 1), parts, estimate_size(parts))
        cache.put(("a", 0, 1), parts, estimate_size(parts))
        cache.put(("b", 0, 1), parts, estimate_size(parts))
        assert list(cache.entries) == [("a", 0, 1), ("b", 0, 1)]
        assert cache.used == 2 * size
        assert cache.evictions == 0


class TestReportedMirror:
    """The parent's mirror is the worker's report: after a run that
    evicts an earlier key, the next builder ships that source again and
    the worker never lacks a source it was not sent."""

    @pytest.fixture
    def served(self):
        """``worker._serve`` in a thread over a pipe, driven through the
        pool's real send/finish path; yields ``(run, expected)``."""
        rows = _token_rows(20, 2)
        parts = [rows[:10], rows[10:]]
        expected = [[TermFrequency().apply(row) for row in part] for part in parts]
        # Room for one flow's source and transform entries, not two.
        budget = 1.5 * (estimate_size(parts) + estimate_size(expected))
        parent, child = multiprocessing.Pipe()
        cache = CacheManager(budget, LRUPolicy())
        thread = threading.Thread(target=worker._serve, args=(child, cache, []))
        thread.start()
        pool = ActorPool.__new__(ActorPool)
        pool.workers, pool.task_timeout, pool.max_restarts = 1, 60.0, 0
        pool.counters = {"hits": 0, "misses": 0, "shipped_bytes": 0, "mapped_bytes": 0}
        pool._counters_lock = threading.Lock()
        actor = SimpleNamespace(conn=parent, holds=set(), inflight=None)
        data = Context().parallelize(rows, 2)

        def run(prefix):
            program = prog.OpProgram(_flow(prefix, TermFrequency()))
            _task, builders, _key = ActorBackend()._run_builders(
                pool, program, {0: data}, [("out", 1)], None
            )
            msg = builders[0][1](actor)
            shipped, _segments = transport.unpack(msg.payload[4])
            pool._send(actor, lambda _actor: msg)
            result, meta = pool._finish(actor, pool._recv(actor))
            assert actor.holds == set(meta["held"])
            return shipped, result["rows"]["out"], actor.holds

        yield run, expected
        parent.send(("shutdown",))
        thread.join(timeout=10.0)
        parent.close()
        assert not thread.is_alive()

    def test_an_evicted_source_ships_again(self, served):
        run, expected = served
        shipped, out, held = run("a")
        assert list(shipped) == [0]
        assert held == {("a-0", 0, 2), ("a-1", 0, 2)}
        shipped, out, held = run("a")
        assert shipped == {}  # held: nothing to ship
        assert out == expected
        # A second flow of the same size evicts the first one's entries.
        shipped, out, held = run("b")
        assert held == {("b-0", 0, 2), ("b-1", 0, 2)}
        shipped, out, held = run("a")  # no MissingShardState
        assert list(shipped) == [0]
        assert out == expected


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


def _imports_ordered_dict(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "collections":
            if any(alias.name == "OrderedDict" for alias in node.names):
                return True
        if isinstance(node, ast.Attribute) and node.attr == "OrderedDict":
            return True
    return False


def _byte_estimators(tree: ast.AST):
    """Functions that size objects: named ``*nbytes*``/``estimate*size*``,
    calling ``getsizeof``, or reading ``nbytes`` with a fallback
    (``getattr(row, "nbytes", 64)``)."""
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = func.name.lower()
        sized = "nbytes" in name or ("estimate" in name and "size" in name)
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            called = getattr(callee, "attr", getattr(callee, "id", ""))
            if called == "getsizeof":
                sized = True
            if called == "getattr" and len(node.args) == 3:
                attr = node.args[1]
                sized |= isinstance(attr, ast.Constant) and attr.value == "nbytes"
        if sized:
            yield func.lineno


class TestOneCache:
    """One byte-budgeted cache class and one byte rule: the actor worker's
    shard state is a ``CacheManager`` sized by ``estimate_size``, like
    every other cache; no second LRU or size estimator may come back."""

    def _modules(self):
        root = pathlib.Path(repro.__file__).parent
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            yield rel, ast.parse(path.read_text(), filename=str(path))

    def test_only_the_cache_manager_keeps_an_lru(self):
        offenders = [
            rel
            for rel, tree in self._modules()
            if rel != "dataset/cache.py" and _imports_ordered_dict(tree)
        ]
        assert offenders == []

    def test_only_sizing_estimates_bytes(self):
        offenders = [
            f"{rel}:{lineno}"
            for rel, tree in self._modules()
            if rel != "dataset/sizing.py"
            for lineno in _byte_estimators(tree)
        ]
        assert offenders == []


#: the state-machine steps of a statistics fit
_DRIVER_STEPS = {
    "init_state",
    "update_from_stats",
    "converged",
    "finalize",
    "fit_from_stats",
}


def _driver_step_calls(tree: ast.AST):
    """``(function name, line)`` of every call to a state-machine step,
    named by the innermost enclosing function."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "attr", getattr(func, "id", ""))
                if name in _DRIVER_STEPS:
                    yield inner, child.lineno
            yield from walk(child, inner)

    yield from walk(tree, "")


class TestOneStatsDriver:
    def test_only_the_driver_steps_a_statistics_fit(self):
        """``core.operators.fit_by_rounds`` is the one state machine of
        shardable fits: no backend, worker or estimator under ``src/repro``
        calls ``init_state``, ``update_from_stats``, ``converged``,
        ``finalize`` or ``fit_from_stats`` itself."""
        root = pathlib.Path(repro.__file__).parent
        offenders, driver = [], []
        for path in sorted(root.rglob("*.py")):
            rel = str(path.relative_to(root))
            tree = ast.parse(path.read_text(), filename=rel)
            for scope, lineno in _driver_step_calls(tree):
                if (rel, scope) == ("core/operators.py", "fit_by_rounds"):
                    driver.append(lineno)
                else:
                    offenders.append(f"{rel}:{lineno} in {scope or '<module>'}")
        assert offenders == []
        assert len(driver) == 5  # the guard sees the driver's own calls


class TestRecomputations:
    def test_an_actor_fit_that_evaluates_nothing_in_the_parent_recomputes_nothing(
        self, monkeypatch
    ):
        """Text features collected from the workers into L-BFGS under a
        tight LRU budget: the fit re-reads the collected rows every pass,
        the parent evaluates no op, and the report's recomputations are 0
        (reads of sources and of stored rows are no computation)."""
        from repro.core.optimizer import Optimizer, passes_for_level
        from repro.nodes.learning.linear import LBFGSSolver
        from repro.nodes.text import CommonSparseFeatures, LowerCase, Tokenizer
        from repro.workloads import amazon_reviews

        wl = amazon_reviews(200, 20, vocab_size=300, seed=0)
        ctx = Context()
        data = wl.train_data(ctx)
        pipe = (
            Pipeline.identity()
            .and_then(LowerCase())
            .and_then(Tokenizer())
            .and_then(TermFrequency(lambda c: 1.0))
            .and_then(CommonSparseFeatures(100), data)
            .and_then(LBFGSSolver(max_iter=10), data, wl.train_label_vectors(ctx))
        )
        passes = passes_for_level(
            "full", sample_sizes=(20, 40), mem_budget_bytes=5e4, cache_strategy="lru"
        )
        plan = Optimizer(passes).optimize(pipe)
        evaluated = []
        transform, gather = interp.CHUNK

        def recording(operator, column):
            evaluated.append(type(operator).__name__)
            return transform(operator, column)

        monkeypatch.setattr(interp, "CHUNK", interp.Grain(recording, gather))
        with ActorBackend(workers=2, task_timeout=300.0, reuse_pool=False) as backend:
            report = plan.execute(backend=backend).training_report
        assert "LBFGSSolver" in report.process_gathered
        assert evaluated == []
        assert report.recomputations == 0
