import ast
import contextvars
import os
import pathlib
import random
import sys
import threading
import time

import numpy as np
import pytest

import moekgc.autodiff as ad
import moekgc.parallel as parallel
from moekgc.parallel import ordered_map


@pytest.fixture
def workers(monkeypatch):
    """Set the map's worker count."""
    def set_to(n):
        monkeypatch.setattr(parallel, "workers", lambda: n)
    return set_to


class Blocks:
    """A block function that records which blocks ran, on which thread,
    and how many are running right now."""

    def __init__(self, fail=None, slow=(), delay=0.2, fail_after=0.0):
        self.fail, self.slow, self.delay = fail or {}, set(slow), delay
        self.fail_after = fail_after
        self.lock = threading.Lock()
        self.running = 0
        self.started, self.finished, self.threads = set(), set(), set()
        self.recording = {}  # block -> whether the tape recorded as it ended

    def __call__(self, i):
        with self.lock:
            self.running += 1
            self.started.add(i)
            self.threads.add(threading.current_thread().name)
        try:
            if i in self.slow:
                time.sleep(self.delay)
            if i in self.fail:
                time.sleep(self.fail_after)
                raise self.fail[i]
            return i * i, ad._RECORDING
        finally:
            with self.lock:
                self.running -= 1
                self.finished.add(i)
                self.recording[i] = ad._RECORDING


@pytest.mark.parametrize("n_workers", [1, 2, 3])
@pytest.mark.parametrize("n_items", [0, 1, 2, 5, 9])
def test_ordered_map_yields_every_result_in_order(workers, n_workers, n_items):
    workers(n_workers)
    fn = Blocks(slow=[0, 3], delay=0.02)  # a slow first block must not reorder
    got = ordered_map(fn, range(n_items))
    assert type(got) is list
    assert [r for r, _ in got] == [i * i for i in range(n_items)]
    assert fn.running == 0
    # the pool runs a block only when a group has more than one
    assert any(t.startswith("moekgc-block") for t in fn.threads) == (min(n_workers, n_items) > 1)


def test_ordered_map_runs_blocks_untaped_and_restores_recording(workers):
    workers(2)
    assert ad._RECORDING
    got = ordered_map(Blocks(), range(4))
    assert [recording for _, recording in got] == [False] * 4
    assert ad._RECORDING and ad.tape_size() == 0


@pytest.mark.parametrize("n_workers", [2, 3])
def test_the_caller_runs_every_w_th_item_and_the_pool_the_rest(workers, n_workers):
    workers(n_workers)
    got = ordered_map(lambda i: (i, threading.current_thread().name), range(7))
    assert [i for i, _ in got] == list(range(7))
    assert all((name == threading.current_thread().name) == (i % n_workers == 0)
               for i, name in got)


@pytest.mark.parametrize("n_workers, slow", [(2, 0), (2, 2), (3, 0), (3, 3)])
def test_while_a_caller_item_runs_long_the_pool_runs_every_pool_item(workers, n_workers, slow):
    # every pool item is submitted when the map starts: while the calling
    # thread runs its item `slow`, the pool runs all of its own, but no
    # later item of the calling thread starts
    workers(n_workers)
    n = slow + 4 * n_workers
    want = {i for i in range(n) if i <= slow or i % n_workers}
    started, lock = set(), threading.Lock()

    def fn(i):
        with lock:
            started.add(i)
        if i == slow:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                with lock:
                    if want <= started:
                        break
                time.sleep(0.005)
            with lock:
                return set(started)
        return None

    got = ordered_map(fn, range(n))
    assert got[slow] == want
    assert started == set(range(n))


def test_blocks_see_the_callers_context(workers):
    workers(2)
    var = contextvars.ContextVar("probe", default="unset")
    var.set("caller")
    got = ordered_map(lambda i: (var.get(), threading.current_thread().name), range(2))
    assert [v for v, _ in got] == ["caller", "caller"]
    assert got[1][1].startswith("moekgc-block")


@pytest.mark.parametrize("failing", [0, 1])
def test_a_failing_block_is_re_raised_after_every_started_block_ends(workers, failing):
    # four workers: block `failing` raises once all four first blocks are
    # under way, and the other three run on; the map waits for them before
    # it re-raises that very exception, and starts no block after it
    workers(4)
    boom = ad.FiniteError("injected")
    fn = Blocks(fail={failing: boom}, slow=[b for b in range(4) if b != failing],
                delay=0.3, fail_after=0.05)
    with pytest.raises(ad.FiniteError) as info:
        ordered_map(fn, range(8))
    assert info.value is boom
    assert fn.running == 0 and fn.finished == {0, 1, 2, 3}
    assert fn.started == {0, 1, 2, 3}
    # the map waited under no_grad: no block saw the tape recording
    assert not any(fn.recording.values()) and ad._RECORDING


def test_the_first_failure_in_block_order_wins(workers):
    workers(3)
    first, second = ValueError("block 1"), ValueError("block 2")
    fn = Blocks(fail={1: first, 2: second}, slow=[1])  # block 2 fails first in time
    with pytest.raises(ValueError) as info:
        ordered_map(fn, range(3))
    assert info.value is first and fn.running == 0


def test_a_map_with_one_block_or_one_worker_starts_no_thread(monkeypatch, workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was built")

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", no_pool)
    workers(4)
    assert [r for r, _ in ordered_map(Blocks(), [3])] == [9]
    workers(1)
    assert [r for r, _ in ordered_map(Blocks(), range(5))] == [0, 1, 4, 9, 16]


@pytest.mark.parametrize("env, pinned", [
    ({}, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, True),
    ({"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": " 1 "}, True),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "2"}, False),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, False),
    ({"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "0"}, False),
    ({"OMP_NUM_THREADS": ""}, False),
])
def test_fan_out_needs_blas_pinned_to_one_thread(monkeypatch, env, pinned):
    for var in parallel.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(parallel, "cores", lambda: 2)
    assert parallel.blas_pinned() is pinned
    assert parallel.workers() == (2 if pinned else 1)


def test_cores_are_the_affinity_set_else_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert parallel.cores() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert parallel.cores() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert parallel.cores() == 1


def block_threads():
    return [t for t in threading.enumerate() if t.name.startswith("moekgc-block")]


def test_no_pool_thread_outlives_a_map(workers):
    # each map that fans out owns its pool: a forked child or the next
    # caller inherits no thread, also from a map that raised
    workers(3)
    assert [r for r, _ in ordered_map(Blocks(), range(7))] == [i * i for i in range(7)]
    assert block_threads() == []
    with pytest.raises(ValueError):
        ordered_map(Blocks(fail={2: ValueError("block 2")}, slow=[1]), range(7))
    assert block_threads() == []


@pytest.mark.parametrize("n_workers", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 5, 16, 17, 100])
def test_spans_are_blocks_of_block_rows_on_any_worker_count(workers, n_workers, n):
    # every worker runs blocks of one size: the cut does not read the count
    workers(1)
    alone = parallel.spans(n, 5)
    workers(n_workers)
    got = parallel.spans(n, 5)
    assert got == alone
    assert got[0][0] == 0 and got[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(got, got[1:]))
    assert all(b - a == 5 for a, b in got[:-1]) and 0 < got[-1][1] - got[-1][0] <= 5


def test_spans_on_one_worker_are_equal_blocks(workers):
    workers(1)
    assert parallel.spans(12, 5) == [(0, 5), (5, 10), (10, 12)]


needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                    reason="CPU affinity is Linux-only")


@pytest.fixture
def all_cpus():
    """Put the calling thread on every CPU it may use, whatever an earlier
    test left; its CPU set is restored afterwards.  Returns that set."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, range(os.cpu_count()))
    yield os.sched_getaffinity(0)
    os.sched_setaffinity(0, saved)


@needs_affinity
def test_a_map_pins_each_thread_to_one_cpu_and_restores_the_caller(workers, all_cpus):
    workers(2)
    before = all_cpus
    cpus = sorted(before)
    seen = ordered_map(lambda i: (os.sched_getaffinity(0), threading.current_thread().name),
                       range(4))
    # per group: the calling thread on the first CPU, the pool on the next
    assert [s for s, _ in seen] == [{cpus[0]}, {cpus[1 % len(cpus)]}] * 2
    assert seen[1][1].startswith("moekgc-block")
    assert os.sched_getaffinity(0) == before


@needs_affinity
def test_the_callers_cpus_come_back_after_a_return_or_a_failure(workers, all_cpus):
    workers(2)
    before = all_cpus
    assert [r for r, _ in ordered_map(Blocks(), range(4))] == [0, 1, 4, 9]
    assert os.sched_getaffinity(0) == before
    with pytest.raises(ValueError):
        ordered_map(Blocks(fail={1: ValueError("block 1")}), range(4))
    assert os.sched_getaffinity(0) == before
    with pytest.raises(ValueError):
        ordered_map(Blocks(fail={2: ValueError("block 2")}), range(4))
    assert os.sched_getaffinity(0) == before


def test_a_map_fans_out_unpinned_where_affinity_is_missing(monkeypatch, workers):
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    workers(2)
    fn = Blocks()
    assert [r for r, _ in ordered_map(fn, range(5))] == [i * i for i in range(5)]
    assert any(t.startswith("moekgc-block") for t in fn.threads)


@needs_affinity
def test_a_cpu_that_cannot_be_taken_is_skipped(monkeypatch, workers):
    def refuse(tid, cpus):
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    workers(2)
    assert [r for r, _ in ordered_map(Blocks(), range(5))] == [i * i for i in range(5)]


@pytest.fixture
def fast_switches():
    """Hand the GIL over every 10 us while the test runs: more interleavings."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


def _outcome(call):
    """call()'s result, else the ValueError it raised."""
    try:
        return call()
    except ValueError as exc:
        return exc


@needs_affinity
def test_ordered_map_matches_the_plain_loop_on_random_maps(workers, all_cpus, fast_switches):
    # random worker counts, failing items and timings: the map returns what
    # the plain loop returns or raises the very exception the loop raises,
    # no item starts once an earlier one has failed but on a thread that was
    # already past the check, and the map leaves no thread, no tape switched
    # off and no pin
    rng = random.Random(1515)
    for _ in range(60):
        n_workers, n = rng.randint(2, 4), rng.randint(0, 14)
        workers(n_workers)
        fails = {i: ValueError(f"item {i}") for i in range(n) if rng.random() < 0.15}
        delays = [rng.choice([0.0, 0.0, 0.001, 0.003]) for _ in range(n)]
        events, lock = [], threading.Lock()

        def fn(i):
            with lock:
                events.append(("start", i))
            time.sleep(delays[i])
            if i in fails:
                with lock:
                    events.append(("fail", i))
                raise fails[i]
            return i * i

        want = _outcome(lambda: [fn(i) for i in range(n)])
        events.clear()
        got = _outcome(lambda: ordered_map(fn, range(n)))
        assert got == want if isinstance(want, list) else got is want
        failed = [k for k, (kind, _) in enumerate(events) if kind == "fail"]
        if failed:
            first = events[failed[0]][1]
            late = [i for kind, i in events[failed[0]:] if kind == "start" and i > first]
            assert len(late) < n_workers
        assert block_threads() == []
        assert ad._RECORDING and os.sched_getaffinity(0) == all_cpus


# ------------------------------------------------------ maps inside maps


@pytest.mark.parametrize("n_workers", [2, 3])
def test_a_map_opened_while_another_fans_out_runs_inline(monkeypatch, workers, n_workers):
    # every item of the outer map, on the calling thread or on the pool,
    # opens a map of its own: its items run on the thread that opened it,
    # and the outer map's pool is the only one ever built
    workers(n_workers)
    pools = []

    class Counted(parallel.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", Counted)

    def inner(i):
        return threading.current_thread().name

    def outer(i):
        return threading.current_thread().name, ordered_map(inner, range(5))

    got = ordered_map(outer, range(2 * n_workers))
    assert len(pools) == 1
    assert any(here.startswith("moekgc-block") for here, _ in got)
    assert all(ran == [here] * 5 for here, ran in got)
    # once the outer map is done, a map fans out again
    assert any(t.startswith("moekgc-block") for t in ordered_map(inner, range(4)))
    assert len(pools) == 2 and block_threads() == []


def test_workers_reads_one_while_a_map_fans_out(monkeypatch):
    monkeypatch.setattr(parallel, "cores", lambda: 2)
    for var in parallel.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    got = ordered_map(lambda i: parallel.workers(), range(4))
    assert got == [1] * 4
    assert parallel.workers() == 2


def test_parallel_imports_nothing_from_the_package():
    # autodiff runs its dense layers on the map: an import back would be a cycle
    tree = ast.parse(pathlib.Path(parallel.__file__).read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert imports and not [n for n in imports if n.level or (n.module or "").startswith("moekgc")]


@pytest.mark.parametrize("n_workers", [1, 2, 3, 8])
@pytest.mark.parametrize("n", [2, 7, 12, 13, 17, 100, 10_632])
@pytest.mark.parametrize("least", [2, 3, 5])
def test_group_gives_each_worker_one_span_of_at_least_least(workers, n_workers, n, least):
    workers(n_workers)
    got = parallel.group(n, least)
    assert got[0][0] == 0 and got[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(got, got[1:]))
    sizes = [b - a for a, b in got]
    # equal spans, the longer ones first, each at least `least` long, one
    # per worker at most, on as many workers as can take one
    assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1
    assert len(got) <= n_workers
    assert len(got) == 1 or sizes[-1] >= least
    assert len(got) == min(n_workers, max(1, n // least))
    if n < 2 * least:
        assert got == [(0, n)]


# ------------------------------------------- dense layers on the block map

# (x without its rows, w, b; None in b stands for the rows): the
# projection, the expert bank, the heads, and a bias with a row per row
SPLIT_SHAPES = {"2d": ((5,), (5, 8), (8,)),
                "bank": ((5,), (3, 5, 8), (3, 1, 8)),
                "head": ((3, 5), (3, 5, 8), (3, 1, 8)),
                "row_bias": ((5,), (3, 5, 8), (3, None, 8))}


def affine_run(shapes, n, relu, const_x):
    """An affine over n rows and its backward under a fixed upstream
    gradient: the output and each operand's gradient, as bytes."""
    x_shape, w_shape, b_shape = shapes
    x_shape = x_shape[:-1] + (n,) + x_shape[-1:]
    b_shape = tuple(n if d is None else d for d in b_shape)
    rng = np.random.default_rng(16)
    x, w, b = (rng.normal(size=s).astype(np.float32) for s in (x_shape, w_shape, b_shape))
    # a zero row of x meets zero bias entries: pre-activations exactly at 0
    x[..., 0, :] = 0.0
    b[..., ::2] = 0.0
    ad.reset_tape()
    ops = [ad.Tensor(x) if const_x else ad.parameter(x), ad.parameter(w), ad.parameter(b)]
    out = ad.affine(*ops, relu=relu)
    upstream = rng.normal(size=out.shape).astype(np.float32)
    ad.backward((out * ad.Tensor(upstream)).sum())
    ad.reset_tape()
    return [out.data.tobytes()] + [None if op.grad is None else op.grad.tobytes() for op in ops]


@pytest.mark.parametrize("n", [12, 13, 17])
@pytest.mark.parametrize("const_x", [False, True])
@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("kind", sorted(SPLIT_SHAPES))
def test_split_affine_equals_the_inline_layer_bitwise(monkeypatch, workers, kind, relu,
                                                      const_x, n):
    # the inline run, then every pass cut into one span per worker: the
    # output, dX, dW and db keep their bytes, and the pool ran blocks
    workers(1)
    want = affine_run(SPLIT_SHAPES[kind], n, relu, const_x)
    assert (want[1] is None) == const_x
    monkeypatch.setattr(ad, "_BLOCK_WORK", 1)
    threads, cuts = set(), []
    group, matmul_into = parallel.group, ad._matmul_into

    def noting_group(n, least):
        cuts.append(group(n, least))
        return cuts[-1]

    def noting_matmul(a, b, dest):
        threads.add(threading.current_thread().name)
        return matmul_into(a, b, dest)

    monkeypatch.setattr(parallel, "group", noting_group)
    monkeypatch.setattr(ad, "_matmul_into", noting_matmul)
    for n_workers in (2, 3):
        workers(n_workers)
        cuts.clear()
        threads.clear()
        assert affine_run(SPLIT_SHAPES[kind], n, relu, const_x) == want
        # the rows of the forward and the backward, and the dW columns
        assert len(cuts) == 2
        assert all(len(spans) == n_workers for spans in cuts)
        assert any(t.startswith("moekgc-block") for t in threads)
        assert block_threads() == [] and ad._RECORDING


def test_a_desk_sized_layer_stays_on_the_calling_thread(monkeypatch, workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was built")

    workers(2)
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", no_pool)
    affine_run(SPLIT_SHAPES["bank"], 48, relu=True, const_x=False)
    # with a lower bound the same layer splits: the gate above is real
    monkeypatch.setattr(ad, "_BLOCK_WORK", 48 // 3 * 5 * 8)
    with pytest.raises(AssertionError, match="thread pool"):
        affine_run(SPLIT_SHAPES["bank"], 48, relu=True, const_x=False)


@needs_affinity
@pytest.mark.parametrize("relu", [False, True])
def test_a_non_finite_pool_block_raises_and_records_nothing(monkeypatch, workers, all_cpus,
                                                            relu):
    # 12 rows on two workers: the calling thread takes rows 0-5 and the pool
    # rows 6-11; only row 10 overflows, to -inf, which relu would clamp to 0
    workers(2)
    monkeypatch.setattr(ad, "_BLOCK_WORK", 1)
    assert parallel.group(12, 2) == [(0, 6), (6, 12)]
    failed_on = []
    check_finite = ad._check_finite

    def noting(arr, op):
        try:
            check_finite(arr, op)
        except ad.FiniteError:
            failed_on.append(threading.current_thread().name)
            raise

    monkeypatch.setattr(ad, "_check_finite", noting)
    x = np.ones((12, 2), dtype=np.float32)
    x[10] = 3.0e38
    ops = (ad.parameter(x), ad.parameter(np.full((2, 3), -2.0, dtype=np.float32)),
           ad.parameter(np.zeros(3, dtype=np.float32)))
    with np.errstate(over="ignore"), pytest.raises(ad.FiniteError, match="affine"):
        ad.affine(*ops, relu=relu)
    assert len(failed_on) == 1 and failed_on[0].startswith("moekgc-block")
    assert ad.tape_size() == 0 and ad._RECORDING
    assert os.sched_getaffinity(0) == all_cpus and block_threads() == []


def test_split_affine_on_more_workers_than_cores_with_fast_switches(monkeypatch, workers,
                                                                    fast_switches):
    # eight workers, the interpreter switching threads every 10 us: blocks
    # write disjoint rows and columns of shared arrays, and a lost or
    # misplaced write would change the bytes.  Each block of 300 rows or 8
    # columns does over 1e6 multiply-adds per matrix, as a production block
    # does: below that OpenBLAS's small-matrix kernels sum in an order that
    # depends on a block's row count
    workers(1)
    shapes = ((64,), (3, 64, 64), (3, 1, 64))
    want = affine_run(shapes, 2400, relu=True, const_x=False)
    monkeypatch.setattr(ad, "_BLOCK_WORK", 1)
    workers(8)
    assert len(parallel.group(2400, 2)) == len(parallel.group(64, 2)) == 8
    for _ in range(20):
        assert affine_run(shapes, 2400, relu=True, const_x=False) == want
    assert block_threads() == []
