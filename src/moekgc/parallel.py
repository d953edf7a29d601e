"""An ordered block map that spreads independent blocks over the CPU cores.

Evaluation maps its embedding and ranking blocks over it, every dense
layer of training (``ad.affine``) its row and column blocks, and Adam
(``trainer.Adam``) the element spans of its update.

``ordered_map(fn, items)`` returns ``[fn(item) for item in items]``.
With w workers, the calling thread runs item i itself when i % w is 0, in
its turn, and a pool of w - 1 threads runs the others, each on whichever
pool thread is free; every pool item is submitted when the map starts.
Every item is the same call whichever thread runs it, so the results are
those of the plain loop, bit for bit.

``spans(n, block)`` cuts n rows into such items: the calling thread's
spans have `block` rows and the pool's POOL_SHARE of that.  The pool runs
out of work first, so a map takes as long as the caller's own spans take
on its own core, not as long as the slowest of w cores takes.  On a shared
host, where each core's speed changes from one moment to the next, that
keeps one call's time close to the next.  On a 2-vCPU Xeon KVM guest, over
100 alternating calls of a 15k-entity evaluate (two sets), the quartile
range of the host-paced rate read 144-151 queries/s with equal spans,
87-97 with POOL_SHARE 0.5 and 39-46 on one thread, at medians of 813-854,
651-652 and 432-442 queries/s.

``group(n, least)`` cuts n rows into one such group, one span per worker,
for work that is one call, such as one matrix product: training's dense
layers and Adam's update.  It uses fewer workers where a span would be
shorter than `least`.

A map runs inline, starting no thread, when it has one item, when the
process may use one CPU, or when BLAS is not pinned to one thread: numpy's
GEMMs would then already spread over the cores, and more threads would
only contend for them.  The worker count is the number of CPUs the process
may run on (``os.sched_getaffinity``, else ``os.cpu_count``).

While a map fans out, the calling thread and each pool thread are pinned
to one CPU each, in turn over the caller's CPU set, and the caller's set is
restored when the map ends.  Left to itself, the scheduler would at times
keep both threads on one CPU of the guest above for a second or more: they
hand the GIL to each other, each hand-off is a wake-up, and the woken
thread goes where its waker runs.  In that state one CPU read 100% busy and
the other idle, and an evaluate call ran slower than on one thread
(0.48-0.65 s against 0.29-0.32), in 2 of 5 fresh processes.  Pinned, 12 of
12 calls kept both CPUs busy (0.25-0.36 s).

Each map that fans out starts its own pool and shuts it down when done,
so no thread outlives a map and a forked child inherits none; against a
pool kept for the life of the process, an eval-medium ``evaluate`` took
the same time (medians 0.337 and 0.335 s over 15 alternating calls each).

One map fans out at a time.  A map opened while another fans out runs its
items inline and starts no thread, whichever thread opens it: the
caller's, between or inside its own items, or a pool thread, inside one
of the pool's.  So an evaluation block that runs a dense layer runs it
whole on its own thread, and no pool or CPU pin nests in another.

A map that fans out holds every context given to ``hold_while_open``
until it returns.  autodiff gives its ``no_grad``: the tape is
module-global, so no block, on any thread, records.  Once an item raises,
no later item starts; the map waits for the running ones and re-raises
the first failure in item order.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor

# the variables numpy's BLAS libraries read their thread count from
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# a pool thread's span, as a share of the calling thread's (above)
POOL_SHARE = 0.5

# held by the one map that fans out (above)
_FANNING = threading.Lock()
# the contexts every map that fans out holds (hold_while_open)
_HELD = []


def hold_while_open(context):
    """Have every map that fans out enter context() until it returns."""
    _HELD.append(context)


def cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def blas_pinned() -> bool:
    """True when the BLAS thread variables that are set all say 1, and at
    least one is set."""
    values = [os.environ.get(v) for v in BLAS_THREAD_VARS]
    return any(values) and all(v is None or v.strip() == "1" for v in values)


def workers() -> int:
    """Threads a map may run blocks on, the calling thread included: 1
    while another map fans out."""
    if _FANNING.locked():
        return 1
    return cores() if blas_pinned() else 1


def spans(n, block):
    """Cut range(n) into (start, stop) spans for ordered_map.  Each group
    of workers() spans opens with `block` items for the calling thread and
    goes on with POOL_SHARE of that for each pool thread."""
    w = workers()
    sizes = itertools.cycle([block] + [max(1, round(block * POOL_SHARE))] * (w - 1))
    out, b0 = [], 0
    while b0 < n:
        b1 = min(b0 + next(sizes), n)
        out.append((b0, b1))
        b0 = b1
    return out


def group(n, least):
    """Cut range(n) into one group of spans for ordered_map: the calling
    thread's span, then POOL_SHARE of it for each pool thread, on as many
    workers as leave every span at least `least` long.  The calling
    thread's span takes the rows left over.  One span (0, n) when not even
    two workers can."""
    if n * POOL_SHARE < least * (1 + POOL_SHARE):
        # most dense layers: found without workers(), which reads the
        # environment and the CPU set
        return [(0, n)]
    w = workers()
    while w > 1:
        pool = int(n * POOL_SHARE / (1 + (w - 1) * POOL_SHARE))
        if pool >= least:
            break
        w -= 1
    else:
        return [(0, n)]
    own = n - (w - 1) * pool
    return [(0, own)] + [(own + i * pool, own + (i + 1) * pool) for i in range(w - 1)]


def ordered_map(fn, items):
    """[fn(item) for item in items], on every worker (above)."""
    items = list(items)
    w = min(workers(), len(items)) if len(items) > 1 else 1
    if w <= 1 or not _FANNING.acquire(blocking=False):
        return [fn(item) for item in items]
    try:
        return _fan_out(fn, items, w)
    finally:
        _FANNING.release()


def _fan_out(fn, items, w):
    """ordered_map on w workers, the calling thread included."""
    lock, failed = threading.Lock(), [len(items)]  # the lowest failed item

    def run(i):
        if i > failed[0]:
            return None  # an earlier item failed: the map raises its failure
        try:
            return fn(items[i])
        except BaseException:
            with lock:
                failed[0] = min(failed[0], i)
            raise

    with contextlib.ExitStack() as held, _one_cpu_each() as pin, \
            ThreadPoolExecutor(w - 1, thread_name_prefix="moekgc-block",
                               initializer=pin) as pool:
        for context in _HELD:
            held.enter_context(context())
        # in the caller's context (numpy's errstate included)
        pending = {i: pool.submit(contextvars.copy_context().run, run, i)
                   for i in range(len(items)) if i % w}
        try:
            return [pending[i].result() if i % w else run(i) for i in range(len(items))]
        finally:
            # after a failure no queued item starts; leaving the pool waits
            # for the running ones
            for future in pending.values():
                future.cancel()


@contextlib.contextmanager
def _one_cpu_each():
    """Pin the calling thread to the first CPU of its set, and yield a
    function that pins the thread calling it to the next CPU, in turn.
    The caller's set is restored on exit, from whichever thread exits."""
    if not hasattr(os, "sched_setaffinity"):  # not on Linux
        yield lambda: None
        return
    caller = threading.get_native_id()
    saved = os.sched_getaffinity(caller)
    cpus = sorted(saved)
    turn = itertools.count(1)

    def pin():
        _pin(0, cpus[next(turn) % len(cpus)])

    _pin(caller, cpus[0])
    try:
        yield pin
    finally:
        _pin(caller, *saved)


def _pin(tid, *cpus):
    try:
        os.sched_setaffinity(tid, cpus)
    except OSError:  # a CPU taken away meanwhile: placement, not results
        pass
