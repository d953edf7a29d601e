"""Reverse-mode automatic differentiation over numpy arrays.

A dynamic tape: every operation appends one node in construction order, and
``backward`` walks the tape in reverse so each node's backward rule runs
exactly once.  A node keeps only the arrays, shapes and flags its own rule
reads, never its operand tensors: an interior operand (the output of an
earlier node) is named by that node's key, a number no other output ever
gets, and a leaf (a parameter or an input) is the tensor itself.  A forward
buffer that no rule reads is freed as soon as the forward code drops it.
``backward`` consumes the tape: it pops each node before running its rule,
so the rest of the forward buffers are freed as it goes, and the tape is
empty when it returns.  The tape is module-global; ``reset_tape`` drops a
graph that is not differentiated.

Values are float32 by default.  The sum accumulates in float64 before casting
back.  ``using_dtype(np.float64)`` switches the default dtype,
which gradient-checking tests use to keep the finite-difference oracle out of
float32 noise.

Every dense layer (``affine``) large enough to pay for a hand-off runs its
forward and backward in blocks that ``parallel.ordered_map`` spreads over
the cores; the blocks give the bytes of one unsplit product.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from collections.abc import Mapping
from typing import Sequence

import numpy as np

from . import parallel

_DTYPE = np.float32
_TAPE: list["_Node"] = []
_RECORDING = True
# the key of each recorded output: increasing, and never reused, as the id()
# of a freed tensor may be
_KEYS = itertools.count()


class FiniteError(ArithmeticError):
    """An operation produced a NaN or Inf value."""


@contextlib.contextmanager
def using_dtype(dtype):
    """Temporarily change the dtype new tensors are created with."""
    global _DTYPE
    prev = _DTYPE
    _DTYPE = np.dtype(dtype).type
    try:
        yield
    finally:
        _DTYPE = prev


def default_dtype() -> np.dtype:
    """The dtype new tensors and parameter stores are created with."""
    return np.dtype(_DTYPE)


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (pure forward values)."""
    global _RECORDING
    prev = _RECORDING
    _RECORDING = False
    try:
        yield
    finally:
        _RECORDING = prev


# the tape is module-global: no block of a map that fans out may record
parallel.hold_while_open(no_grad)


def reset_tape():
    _TAPE.clear()


def tape_size() -> int:
    return len(_TAPE)


class _Node:
    """One recorded op: its output's key; per parent, None when no gradient
    flows to it, else (its key, or the leaf tensor itself, and its dtype);
    and grad_fn, which holds whatever arrays the rule reads."""

    __slots__ = ("key", "parents", "grad_fn")

    def __init__(self, key, parents, grad_fn):
        self.key = key
        self.parents = parents
        self.grad_fn = grad_fn


class Tensor:
    """A numpy array plus an accumulated gradient of the same shape."""

    __slots__ = ("data", "grad", "requires_grad", "_key")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_DTYPE)
        self.grad = None
        self.requires_grad = requires_grad
        self._key = None  # a leaf: no node produced it

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; every op lives at module level
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)


def parameter(data) -> Tensor:
    """Wrap an array as a trainable leaf."""
    return Tensor(data, requires_grad=True)


def ensure_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class StoreError(ValueError):
    """A parameter was rebound to an array its store cannot hold."""


class _StoreParam(Tensor):
    """A ParamStore's parameter: store elements lo .. hi - 1, whose view of
    the parameter buffer is view; backward writes into grads.home(self)."""

    __slots__ = ("grads", "name", "lo", "hi", "view")


class _GradBuffer:
    """The gradient buffer a store and its parameters share, pointing back
    to neither: flat, laid out like the parameter buffer, which the first
    home allocates, and views, the parameters' views of it."""

    def __init__(self, size, dtype):
        self.size, self.dtype, self.flat, self.views = size, dtype, None, {}

    def home(self, p):
        """p's view of the buffer."""
        if self.flat is None:
            # np.zeros, not zeros_like: calloc'd, so no pass writes the zeros
            self.flat = np.zeros(self.size, dtype=self.dtype)
        if p.name not in self.views:
            self.views[p.name] = self.flat[p.lo:p.hi].reshape(p.view.shape)
        return self.views[p.name]


def _write_back(what, array, home):
    """home, a parameter's view of a store buffer, with array written into it."""
    if np.shape(array) != home.shape:
        raise StoreError(f"{what} was rebound to shape {np.shape(array)}, "
                         f"its block is {home.shape}")
    home[...] = array
    return home


class ParamStore(Mapping):
    """Named parameter tensors whose data are views into one flat buffer.

    The parameters, ``blocks``, sit in the buffer in the order given.  A
    bank is a run of consecutive blocks of one shape, such as the k
    experts' copies of one weight; ``bank`` serves it as one (k, ...)
    tensor whose data is a view of the buffer, so stacking the members
    copies nothing.  ``repoint`` moves every view to a new buffer of the
    same layout: the optimizer writes each update into a fresh buffer and
    re-points the store at it.  A parameter's ``.grad`` is its view of
    ``grad_flat``, a gradient buffer of the same layout, valid until
    ``zero_grad`` drops it.  A parameter or gradient rebound from outside
    (``p.data = array``, ``p.grad = array``) is written back, cast to the
    store's dtype, by ``sync``; a rebound array of another shape raises
    StoreError there.
    """

    def __init__(self, shapes: dict, banks: dict = None):
        """A zero parameter per name -> shape, in buffer order, of the
        default dtype; banks maps a key to member names."""
        ends = list(itertools.accumulate((math.prod(s) for s in shapes.values()), initial=0))
        self.flat, self._params = np.zeros(ends[-1], dtype=_DTYPE), {}
        for (name, shape), lo, hi in zip(shapes.items(), ends, ends[1:]):
            p = self._params[name] = _StoreParam(self.flat[lo:hi].reshape(shape),
                                                 requires_grad=True)
            p.name, p.lo, p.hi, p.view = name, lo, hi, p.data
        self.blocks = tuple(self._params.values())
        self.zero_grad()
        self._banks = {}
        for key, names in (banks or {}).items():
            members = tuple(self._params[n] for n in names)
            shape = members[0].view.shape
            if any(b.view.shape != shape or b.lo != a.hi for a, b in zip(members, members[1:])):
                raise StoreError(f"bank {key} is not a run of equal-shape blocks")
            # a (c,) bias serves as a (1, c) row, to broadcast over rows
            shape = (len(members),) + (shape if len(shape) > 1 else (1,) + shape)
            self._banks[key] = (members[0].lo, members[-1].hi, shape, members)

    def __getitem__(self, name) -> Tensor:
        return self._params[name]

    def __iter__(self):
        return iter(self._params)

    def __len__(self):
        return len(self._params)

    def views(self, flat) -> dict:
        """name -> the parameter's view into flat, a buffer of the store's length."""
        return {p.name: flat[p.lo:p.hi].reshape(p.view.shape) for p in self.blocks}

    def repoint(self, flat):
        """Make flat, a buffer of the store's length, the store's buffer."""
        self.flat = flat
        for p in self.blocks:
            p.view = p.data = flat[p.lo:p.hi].reshape(p.view.shape)

    @property
    def grad_flat(self):
        """The gradient buffer, laid out like flat, or None until a gradient."""
        return self._grads.flat

    def zero_grad(self):
        """Drop every parameter's gradient and the gradient buffer: the
        parameters share a new _GradBuffer, which allocates at a gradient."""
        self._grads = _GradBuffer(len(self.flat), self.flat.dtype)
        for p in self.blocks:
            p.grad, p.grads = None, self._grads

    def sync(self):
        """Write every parameter and gradient rebound from outside back into
        its buffer."""
        for p in self.blocks:
            if p.data is not p.view:
                p.data = _write_back(f"parameter {p.name}", p.data, p.view)
            if p.grad is not None and p.grad is not (home := self._grads.home(p)):
                p.grad = _write_back(f"gradient of {p.name}", p.grad, home)

    def bank(self, key) -> Tensor:
        """The bank's members as one (k, ...) tensor on the buffer: one tape
        node, no copy and no finite check, whose backward hands each member
        its slice of the gradient."""
        lo, hi, shape, members = self._banks[key]
        split = (len(members),) + members[0].data.shape

        def grad_fn(g):
            return tuple(g.reshape(split))

        return _wrap(self.flat[lo:hi].reshape(shape), members, grad_fn)


def _check_finite(arr, op: str):
    if not np.isfinite(arr).all():
        raise FiniteError(f"{op} produced a non-finite value")


def record(out_data, parents: Sequence[Tensor], grad_fn, op: str) -> Tensor:
    """out_data as the result of op on parents, after one finite check.

    The node goes on the tape when recording and a parent needs a gradient;
    grad_fn maps the output's gradient to one gradient, or None, per parent.
    A parent that grad_fn holds lives as long as the node, so the library's
    ops hold only the arrays, shapes and flags their rules read.
    Fused ops defined in other modules record themselves through here.
    """
    _check_finite(out_data, op)
    return _wrap(out_data, parents, grad_fn)


def _wrap(out_data, parents: Sequence[Tensor], grad_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out._key = None
    out.requires_grad = _RECORDING and any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._key = key = next(_KEYS)
        # each parent as _Node names it
        refs = tuple([(p if p._key is None else p._key, p.data.dtype) if p.requires_grad
                      else None for p in parents])
        _TAPE.append(_Node(key, refs, grad_fn))
    return out


def _accumulate(t: Tensor, g):
    if t.grad is not None:
        t.grad += g
    elif isinstance(t, _StoreParam):
        t.grad = t.grads.home(t)
        t.grad[...] = g
    else:
        t.grad = np.array(g, dtype=t.data.dtype, copy=True)


def backward(loss: Tensor):
    """Propagate d(loss)/d(x) into .grad of every reachable leaf.

    Leaves are the tensors no tape node produced (parameters, inputs);
    interior tensors keep .grad None.  .grad accumulates across calls until
    zeroed, so two forward and backward passes add their gradients.  A
    ParamStore parameter's .grad is its view of the store's grad_flat.

    The call consumes the tape: every node on it is popped before its rule
    runs, so the arrays the rule read are freed as the walk goes, and the
    tape is empty afterwards, also when a rule raises.  So a graph is
    differentiated once: a second call on the same loss, or a call on a
    loss whose tape was reset, raises ValueError.
    """
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")
    if not loss.requires_grad:
        raise ValueError("loss does not depend on any trainable tensor")
    key = loss if loss._key is None else loss._key
    # the keys on the tape are consecutive: a walk or a reset empties it
    if key is not loss and not (_TAPE and _TAPE[0].key <= key <= _TAPE[-1].key):
        raise ValueError("the loss's graph is no longer on the tape: backward has run "
                         "over it, or the tape was reset")
    # per-pass gradients live in a scratch map so earlier passes can't leak in
    flow = {key: np.ones_like(loss.data)}
    try:
        # reverse construction order is a valid topological order
        while _TAPE:
            node = _TAPE.pop()
            # no node processed later reads this output, so its gradient is done
            g = flow.pop(node.key, None)
            if g is None:
                continue
            for ref, grad in zip(node.parents, node.grad_fn(g)):
                if ref is None or grad is None:
                    continue
                key, dtype = ref
                held = flow.get(key)
                # out of place: grad may alias another entry or a node's data
                flow[key] = np.asarray(grad, dtype=dtype) if held is None else held + grad
    finally:
        _TAPE.clear()
    for key, g in flow.items():
        # what is left keyed by number flowed into an output of a reset tape
        if isinstance(key, Tensor):
            _accumulate(key, g)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum-reduce a broadcast gradient back to the original shape."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _operands(a: Tensor, b: Tensor):
    """The data a binary rule keeps: a's only for b's gradient, b's only
    for a's, None where that gradient is not taken."""
    return (a.data if b.requires_grad else None), (b.data if a.requires_grad else None)


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data + b.data
    a_shape, b_shape = a.data.shape, b.data.shape

    def grad_fn(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return record(out, (a, b), grad_fn, "add")


def sub(a, b) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data - b.data
    a_shape, b_shape = a.data.shape, b.data.shape

    def grad_fn(g):
        return _unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)

    return record(out, (a, b), grad_fn, "sub")


def mul(a, b) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data * b.data
    # each side is kept for the other's gradient; a constant's is not taken
    a_data, b_data = _operands(a, b)
    a_shape, b_shape = a.data.shape, b.data.shape

    def grad_fn(g):
        return (
            _unbroadcast(g * b_data, a_shape) if b_data is not None else None,
            _unbroadcast(g * a_data, b_shape) if a_data is not None else None,
        )

    return record(out, (a, b), grad_fn, "mul")


def neg(a) -> Tensor:
    a = ensure_tensor(a)
    return record(-a.data, (a,), lambda g: (-g,), "neg")


def logsigmoid(a) -> Tensor:
    """log(sigmoid(x)) computed stably; safe for large negative x."""
    a = ensure_tensor(a)
    x = a.data
    out = -np.logaddexp(np.zeros_like(x), -x)

    def grad_fn(g):
        # sigmoid(-x); the clip keeps exp in range, where sigmoid saturates anyway
        return (g * (1.0 / (1.0 + np.exp(np.clip(x, -60.0, 60.0)))),)

    return record(out, (a,), grad_fn, "logsigmoid")


# ---------------------------------------------------------------------------
# reductions (float64 accumulation, cast back to the working dtype)


def tensor_sum(a, axis=None, keepdims=False) -> Tensor:
    a = ensure_tensor(a)
    out = np.sum(a.data, axis=axis, keepdims=keepdims, dtype=np.float64)
    out = np.asarray(out, dtype=a.data.dtype)
    shape, dtype = a.data.shape, a.data.dtype

    def grad_fn(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).astype(dtype),)

    return record(out, (a,), grad_fn, "sum")


# ---------------------------------------------------------------------------
# structural ops


def matmul(a, b) -> Tensor:
    """Matrix product of 2-d or 3-d operands.

    A 3-d operand is a stack of matrices; a 2-d operand meets every matrix
    of the other's stack, and its gradient sums over the stack.
    """
    a, b = ensure_tensor(a), ensure_tensor(b)
    if a.ndim not in (2, 3) or b.ndim not in (2, 3):
        raise ValueError(f"matmul expects 2-d or 3-d operands, got {a.shape} @ {b.shape}")
    out = a.data @ b.data
    a_data, b_data = _operands(a, b)
    a_shape, b_shape = a.data.shape, b.data.shape

    def grad_fn(g):
        return (_unbroadcast(g @ np.swapaxes(b_data, -1, -2), a_shape)
                if b_data is not None else None,
                _unbroadcast(np.swapaxes(a_data, -1, -2) @ g, b_shape)
                if a_data is not None else None)

    return record(out, (a, b), grad_fn, "matmul")


# multiply-adds per matrix that each block of a split dense layer does at
# least.  Below three times this, a layer runs whole on the calling thread:
# a map that fans out costs about 0.25 ms to start and stop its thread, on
# a par with a pool block of this size (2-vCPU Xeon, one BLAS thread), and
# a desk layer is microseconds.  The bound also keeps every block out of
# OpenBLAS's small-matrix kernels (M*N*K up to 1e6), which sum a long K
# axis in another order than the blocked kernels of the whole product, and
# at 2 rows or columns, away from numpy's matrix-vector path
_BLOCK_WORK = 1 << 23


def _spans(n, width):
    """One group of spans of range(n) for the block map (parallel.group),
    where each index costs `width` multiply-adds per matrix."""
    return parallel.group(n, max(2, -(-_BLOCK_WORK // max(width, 1))))


def _run(fn, spans):
    """fn(span) for every span, on the block map."""
    parallel.ordered_map(fn, spans)


def _matmul_into(a, b, dest):
    """dest = a @ b, summed down to dest's shape as _unbroadcast sums it.
    The one other case affine's stack rule leaves, two (k, ., .) stacks
    into a 2-d dest, goes one product at a time, added in stack order as
    the sum over the stack adds them, so that no stack of products is held:
    a pool thread keeps a malloc arena as large as the largest block it ran."""
    if max(a.ndim, b.ndim) == dest.ndim:
        np.matmul(a, b, out=dest)
    else:
        np.matmul(a[0], b[0], out=dest)
        for i in range(1, len(a)):
            dest += a[i] @ b[i]


def affine(x, w, b, relu: bool = False) -> Tensor:
    """One dense layer as one tape node: x @ w + b, then max(., 0) if relu.

    x and w are as in matmul, but two 3-d stacks must be of one length; b
    broadcasts onto the product without widening it, so a (k, 1, c) bias
    serves a (k, n, c) stack.  The bias is added and the relu clamped in
    place, and one finite check runs on the pre-activation: a finite bias
    keeps a non-finite product non-finite, and relu of a finite array is
    finite.  The backward is the chain rule of matmul, add and relu in their
    float32 operations; the relu mask is read back from the output, which is
    > 0 exactly where the pre-activation is.  The node keeps x only for w's
    gradient, w only for x's, and the output only under relu.

    A layer with work for more than one worker (_spans) runs on the block
    map instead.  The forward and the backward's relu mask and x gradient
    are cut into spans of output rows, and the w gradient x^T @ g into
    spans of its columns: each block is then the whole product's rows or
    columns, summed over the same axis in the same order, so the bytes are
    those of the whole layer on any number of workers.  A cut along the
    summed rows of x^T @ g would change them.  The bias gradient is one sum
    on the calling thread.  Blocks call only numpy and this module's
    private helpers.  The whole layer is the oracle the split one is tested
    against.
    """
    x, w, b = ensure_tensor(x), ensure_tensor(w), ensure_tensor(b)
    if x.ndim not in (2, 3) or w.ndim not in (2, 3):
        raise ValueError(f"affine expects 2-d or 3-d operands, got {x.shape} @ {w.shape}")
    if x.ndim == w.ndim == 3 and len(x.data) != len(w.data):
        raise ValueError(f"affine expects stacks of one length, got {x.shape} @ {w.shape}")
    n, f, h = x.shape[-2], x.shape[-1], w.shape[-1]
    rows = _spans(n, f * h)
    if len(rows) == 1:
        out = x.data @ w.data
    else:
        out = np.empty(np.broadcast_shapes(x.shape[:-2], w.shape[:-2]) + (n, h),
                       dtype=np.result_type(x.data, w.data))
    if np.broadcast_shapes(out.shape, b.shape) != out.shape:
        raise ValueError(f"bias of shape {b.shape} does not fit the product {out.shape}")

    def finish(part, bias):
        part += bias
        _check_finite(part, "affine")
        if relu:
            np.maximum(part, 0.0, out=part)  # subgradient 0 at exactly 0

    # what the backward reads; a constant operand's gradient is not taken
    x_data, w_data = _operands(x, w)
    x_shape, w_shape, b_shape = x.data.shape, w.data.shape, b.data.shape
    b_grad = b.requires_grad
    active = out if relu else None

    def grad_fn(g):
        if active is not None:
            g = g * (active > 0.0)
        return (_unbroadcast(g @ np.swapaxes(w_data, -1, -2), x_shape)
                if w_data is not None else None,
                _unbroadcast(np.swapaxes(x_data, -1, -2) @ g, w_shape)
                if x_data is not None else None,
                _unbroadcast(g, b_shape) if b_grad else None)

    if len(rows) == 1:
        finish(out, b.data)
        return _wrap(out, (x, w, b), grad_fn)
    # a bias with a row per output row is cut with them
    cut_bias = b.ndim > 1 and b.shape[-2] > 1

    def forward(span):
        r = np.s_[..., span[0]:span[1], :]
        np.matmul(x.data[r], w.data, out=out[r])
        finish(out[r], b.data[r] if cut_bias else b.data)

    _run(forward, rows)

    def split_grad_fn(g):
        g_out = np.empty_like(g) if relu else g
        g_x = w_t = None
        if w_data is not None:
            g_x = np.empty(x_shape, np.result_type(g, w_data))
            w_t = np.swapaxes(w_data, -1, -2)

        def by_rows(span):
            r = np.s_[..., span[0]:span[1], :]
            if active is not None:
                np.multiply(g[r], active[r] > 0.0, out=g_out[r])
            if g_x is not None:
                _matmul_into(g_out[r], w_t, g_x[r])

        if relu or g_x is not None:
            _run(by_rows, rows)
        g_w = None
        if x_data is not None:
            g_w = np.empty(w_shape, np.result_type(x_data, g))
            x_t = np.swapaxes(x_data, -1, -2)

            def by_cols(span):
                c = np.s_[..., span[0]:span[1]]
                _matmul_into(x_t, g_out[c], g_w[c])

            _run(by_cols, _spans(h, f * n))
        return g_x, g_w, _unbroadcast(g_out, b_shape) if b_grad else None

    return _wrap(out, (x, w, b), split_grad_fn)


def stack(tensors) -> Tensor:
    """Stack equal-shape tensors along a new leading axis."""
    tensors = tuple(ensure_tensor(t) for t in tensors)
    shapes = {t.shape for t in tensors}
    if len(shapes) != 1:
        raise ValueError(f"stack expects equal shapes, got {sorted(shapes)}")
    out = np.array([t.data for t in tensors])

    def grad_fn(g):
        return tuple(g)

    return record(out, tensors, grad_fn, "stack")


def weighted_sum(w, parts) -> Tensor:
    """Sum over s of w[:, s] * parts[s], in the order of s.

    parts is (n, rows, ...); w is (rows, n), or (1, n) to weight every row
    alike.  Returns a (rows, ...) tensor.
    """
    w, parts = ensure_tensor(w), ensure_tensor(parts)
    n = parts.shape[0]
    if w.ndim != 2 or w.shape[1] != n or w.shape[0] not in (1, parts.shape[1]):
        raise ValueError(f"weighted_sum cannot weight {parts.shape} parts by {w.shape}")
    # (n, rows or 1, 1, ...): column s of w broadcast over one part
    cols = w.data.T.reshape(w.shape[::-1] + (1,) * (parts.ndim - 2))
    out = cols[0] * parts.data[0]
    for s in range(1, n):
        out += cols[s] * parts.data[s]

    # the parts only for the weights' gradient, the weights only for the parts'
    w_rows = w.shape[0]
    w_cols = cols if parts.requires_grad else None
    parts_data = parts.data if w.requires_grad else None

    def grad_fn(g):
        g_w = None
        if parts_data is not None:
            g_w = (g * parts_data).reshape(n, parts_data.shape[1], -1).sum(axis=2).T
            g_w = g_w.sum(axis=0, keepdims=True) if w_rows == 1 else g_w
        return g_w, w_cols * g if w_cols is not None else None

    return record(out, (w, parts), grad_fn, "weighted_sum")


def softmax(a, axis=-1) -> Tensor:
    a = ensure_tensor(a)
    shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / np.sum(e, axis=axis, keepdims=True)

    def grad_fn(g):
        inner = np.sum(g * s, axis=axis, keepdims=True)
        return (s * (g - inner),)

    return record(s, (a,), grad_fn, "softmax")


# gradient elements (indices x row width) from which gather_rows scatters by
# levels; below it, one flat np.add.at is faster (a desk gather of 128 rows
# of 16: 0.02 ms flat, 0.06 ms by levels, 2-vCPU Xeon)
_LEVEL_ELEMENTS = 1 << 16
# rows a level must have to be added by fancy index; the later uses of the
# rows used more often than that go to the flat scatter
_LEVEL_ROWS = 64
# rows per fancy-index add: a level is added in pieces of this many rows,
# so that its temporaries stay near 1 MB
_PIECE_ROWS = 1024


def _scatter_rows(idx, g, shape, dtype):
    """The zero table of shape and dtype with row g[i] added to row idx[i]
    for every i, each row's additions in index order, as a row-wise
    np.add.at makes them.

    A large scatter goes by levels: level r holds the r-th use of every row
    used more than r times, so a level's rows are unique and one fancy-index
    add adds it.  Levels are added in order, each from a table that holds
    the sums of the levels before, which is the same float additions in the
    same order, from the same +0.0 start (so signed zeros agree too).  It
    builds no (n * width) index, and a level costs a few fancy-index passes
    over its rows, _PIECE_ROWS at a time.  The uses past the last level of
    _LEVEL_ROWS rows or more, and every use in a small scatter, go to one
    flat np.add.at over a row-major index of their elements, still in index
    order.
    """
    buf = np.zeros(shape, dtype=dtype)  # C order: a view below
    rest = idx
    width = math.prod(shape[1:])
    if idx.size * width >= _LEVEL_ELEMENTS:
        order = np.argsort(idx, kind="stable")
        rows = idx[order]
        new = np.empty(len(rows), dtype=bool)
        new[:1] = True
        np.not_equal(rows[1:], rows[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        # each sorted use's rank among the uses of its row, then the uses
        # grouped by rank: level by level, rows ascending within a level
        use = np.arange(len(rows)) - np.repeat(starts, np.diff(starts, append=len(rows)))
        by_level = np.argsort(use, kind="stable")
        lo = 0
        for size in np.bincount(use).tolist():
            if size < _LEVEL_ROWS:
                break
            for c0 in range(lo, lo + size, _PIECE_ROWS):
                part = by_level[c0:min(c0 + _PIECE_ROWS, lo + size)]
                if lo:
                    buf[rows[part]] += g[order[part]]
                else:
                    # 0.0 + x, written as x + 0.0 without reading the zero rows
                    first = g[order[part]]
                    first += 0.0
                    buf[rows[part]] = first
            lo += size
        # the positions in g left, by level: each row's uses still in order
        left = order[by_level[lo:]]
        rest, g = idx[left], g[left]
    if rest.size:
        flat = rest.reshape(-1, 1) * width + np.arange(width)
        np.add.at(buf.reshape(-1), flat.reshape(-1), g.reshape(-1))
    return buf


def gather_rows(table, indices) -> Tensor:
    """Select rows by integer index; the gradient scatter-adds back.

    Repeated indices are fine, their gradients sum, in index order
    (_scatter_rows).
    """
    table = ensure_tensor(table)
    idx = np.asarray(indices, dtype=np.int64)
    out = table.data[idx]

    shape, dtype = table.data.shape, table.data.dtype

    def grad_fn(g):
        return (_scatter_rows(idx, g, shape, dtype),)

    return record(out, (table,), grad_fn, "gather_rows")


def place_rows(parts, present) -> Tensor:
    """Stack parts into one (S, n, ...) tensor that is zero but where a
    source is present: present is an (S, n) boolean mask, and part s holds
    the rows of slice s where present[s] is true, in order."""
    parts = tuple(ensure_tensor(p) for p in parts)
    present = np.asarray(present, dtype=bool)
    if present.ndim != 2 or present.shape[0] != len(parts):
        raise ValueError(f"place_rows needs one mask row per part, got {present.shape} "
                         f"for {len(parts)} parts")
    counts = present.sum(axis=1)
    tails = {p.shape[1:] for p in parts}
    if len(tails) != 1 or any(p.shape[0] != n for p, n in zip(parts, counts)):
        raise ValueError(f"parts of shapes {[p.shape for p in parts]} do not fit rows "
                         f"{counts.tolist()} of the mask")
    out = np.zeros(present.shape + tails.pop(),
                   dtype=np.result_type(*(p.data.dtype for p in parts)))
    for s, p in enumerate(parts):
        out[s, present[s]] = p.data

    wanted = [p.requires_grad for p in parts]

    def grad_fn(g):
        return tuple(g[s, present[s]] if want else None for s, want in enumerate(wanted))

    return record(out, parts, grad_fn, "place_rows")


# ---------------------------------------------------------------------------
# mutual information


def mi_matrix(dists, present, eps: float) -> Tensor:
    """Batch mutual information between every pair of S distribution sets.

    dists is (S, B, c): row r of set a is a probability vector over c bins.
    present is an (S, B) 0/1 mask of the rows each set has.  For a pair
    (a, b) the joint table is the mean of outer(x_a, x_b) over the rows both
    have, its marginals are its row and column sums, and

        MI = max(0, sum over J >= eps of J (log J' - log px' - log py'))

    with ' marking a value clamped below at eps.  Returns the symmetric
    (S, S) matrix with a zero diagonal; a pair sharing no row reads 0.  All
    pairs come out of one (S·c, B) @ (B, S·c) product, in float64.
    """
    dists = ensure_tensor(dists)
    if dists.ndim != 3:
        raise ValueError(f"mi_matrix expects (sources, batch, bins) dists, got {dists.shape}")
    s, b, c = dists.shape
    keep = np.asarray(present, dtype=np.float64)
    if keep.shape != (s, b):
        raise ValueError(f"present has shape {keep.shape}, expected {(s, b)}")
    # absent rows zeroed: the product then sums each pair over shared rows only
    z = (dists.data * keep[:, :, None]).transpose(0, 2, 1).reshape(s * c, b)  # float64
    ia, ib = np.nonzero(np.less.outer(np.arange(s), np.arange(s)))  # the pairs a < b
    count = np.maximum((keep @ keep.T)[ia, ib], 1.0)[:, None, None]
    joint = (z @ z.T).reshape(s, c, s, c)[ia, :, ib] / count  # (pairs, c, c)
    px = joint.sum(axis=2, keepdims=True)
    py = joint.sum(axis=1, keepdims=True)
    mask = joint >= eps
    log_ratio = (np.log(np.maximum(joint, eps)) - np.log(np.maximum(px, eps))
                 - np.log(np.maximum(py, eps)))
    raw = np.where(mask, joint * log_ratio, 0.0).sum(axis=(1, 2))
    dtype = dists.data.dtype
    out = np.zeros((s, s), dtype=dtype)
    out[ia, ib] = out[ib, ia] = np.maximum(raw, 0.0)

    def grad_fn(g):
        # dMI/dJ = M (log J'/(px' py') + [J > eps]) - A [px > eps]/px' - C [py > eps]/py'
        # with M the eps mask and A, C the row and column sums of M J:
        # log(J / (px py)) - 1 where nothing is masked or clamped.  Zero
        # where the outer clamp binds
        held = np.where(mask, joint, 0.0)
        d_joint = (np.where(mask, log_ratio + (joint > eps), 0.0)
                   - held.sum(axis=2, keepdims=True) * (px > eps) / np.maximum(px, eps)
                   - held.sum(axis=1, keepdims=True) * (py > eps) / np.maximum(py, eps))
        coef = np.where(raw > 0.0, g[ia, ib] + g[ib, ia], 0.0)[:, None, None] / count
        blocks = np.zeros((s, s, c, c))
        blocks[ia, ib] = coef * d_joint
        g_prod = blocks.transpose(0, 2, 1, 3).reshape(s * c, s * c)
        g_z = (g_prod + g_prod.T) @ z
        g_dists = g_z.reshape(s, c, b).transpose(0, 2, 1) * keep[:, :, None]
        return (g_dists.astype(dtype),)

    return record(out, (dists,), grad_fn, "mi_matrix")
