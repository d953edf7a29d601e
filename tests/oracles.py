"""Independent reference implementations the tests check production code against.

Gradients come from central finite differences, ranks from an explicit sort.
The exceptions to an independent route are the slow paths that fused code
replaced and must match bit for bit: ``composite_score_batch`` (the scorer
as a chain of autodiff's primitive ops), ``composite_place_rows`` (the
sources tensor of fuse as per-source scatters and a stack),
``PerBlockAdam`` (the optimizer updating one parameter block at a time),
``flat_scatter_rows`` (the gradient of a row gather as one np.add.at over
an index of every element), ``concatenated_score`` (the direct scorer with
a temporary per operation) and ``copy_mean_rank`` (the tie rank from a copy
of the allowed scores).

The primitive tape ops those composite oracles chain (``square``, ``sqrt``,
``cos``, ``sin``, ``slice_cols``, ``relu`` and friends) live here too: the
library runs only their fused forms, ``ad.affine`` and ``score_batch``.
Each records one node through ``ad.record``.
"""

import math

import numpy as np

from moekgc import autodiff as ad


def finite_difference_grads(loss_fn, params, step=1e-3):
    """Central-difference gradient of loss_fn for each array in params.

    loss_fn takes no arguments and must recompute the loss from the current
    contents of the param buffers; entries are perturbed in place.
    """
    grads = []
    for p in params:
        g = np.zeros(p.shape, dtype=np.float64)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss_fn()
            flat[i] = orig - step
            lo = loss_fn()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def relative_block_error(analytic, numeric) -> float:
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    denom = max(np.linalg.norm(n), 1e-12)
    return float(np.linalg.norm(a - n) / denom)


def rank_by_sort(scores, true_index, allowed) -> float:
    """Rank of true_index among allowed candidates, ties get the block's mean rank.

    scores: 1-d array over all candidates, higher is better.  allowed must
    contain true_index.  Sorts an explicit score list rather than counting.
    """
    scores = np.asarray(scores)
    allowed = np.asarray(allowed)
    target = scores[true_index]
    pool = np.sort(scores[allowed])[::-1]
    positions = np.nonzero(pool == target)[0] + 1  # 1-based
    if positions.size == 0:
        raise ValueError("true candidate missing from the allowed pool")
    return float(positions.mean())


def concatenated_score(head, theta, tail, norm="l2"):
    """-|| rotate(head, theta) - tail || as scoring.score computed it with a
    fresh array per operation and the two rotated halves concatenated."""
    head = np.asarray(head, dtype=np.float64)
    half = head.shape[-1] // 2
    re, im = head[..., :half], head[..., half:]
    c, s = np.cos(theta, dtype=np.float64), np.sin(theta, dtype=np.float64)
    diff = np.concatenate([re * c - im * s, re * s + im * c], axis=-1) - np.asarray(
        tail, dtype=np.float64)
    mags_sq = diff[..., :half] * diff[..., :half] + diff[..., half:] * diff[..., half:]
    if norm == "l2":
        return -np.sqrt(mags_sq.sum(axis=-1))
    return -np.sqrt(mags_sq).sum(axis=-1)


def copy_mean_rank(scores, gold, allowed) -> float:
    """The mean tie rank from a copy of the allowed scores, as
    trainer._mean_rank took it before it counted over the mask."""
    s = scores[gold]
    pool = scores[allowed]
    better = int(np.sum(pool > s))
    tied = int(np.sum(pool == s))
    return better + (tied + 1) / 2.0


def scanned_answers(triples, fixed, relation, tails) -> list:
    """Sorted known answers of each query by a scan over a set of triples:
    the tails of (fixed, relation) where tails is true, else the heads of
    (relation, fixed)."""
    known = set(map(tuple, np.asarray(triples).tolist()))
    out = []
    for f, r, side in zip(fixed, relation, tails):
        if side:
            out.append(sorted({t for h, rr, t in known if (h, rr) == (f, r)}))
        else:
            out.append(sorted({h for h, rr, t in known if (rr, t) == (r, f)}))
    return out


def binary_entropy(p, base_e=True):
    p = min(max(p, 1e-7), 1.0 - 1e-7)
    h = -p * np.log(p) - (1.0 - p) * np.log(1.0 - p)
    return float(h if base_e else h / np.log(2.0))


_MASK64 = (1 << 64) - 1


def splitmix64(z: int) -> int:
    """The splitmix64 finalizer on one Python int, masked to 64 bits."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def keyed_hash(*parts) -> int:
    """Fold key parts left to right: h = parts[0], then h = mix((h + gamma) ^ part)."""
    h = parts[0]
    for part in parts[1:]:
        h = splitmix64(((h + 0x9E3779B97F4A7C15) & _MASK64) ^ part)
    return h


def keyed_negatives(positives, rows, n, known, n_entities, seed, epoch, max_retries):
    """The keyed negative draw one slot and one attempt at a time.

    known is a Python set of (h, r, t) tuples.  Returns a list of (h, r, t)
    tuples ordered by positive, then slot, or None where a slot exhausts
    max_retries.  Also returns how many attempts each slot took.
    """
    out, attempts = [], []
    for (h, r, t), row in zip(positives, rows):
        for slot in range(n):
            base = keyed_hash(seed, epoch, row, slot)
            pick = "head" if base >> 63 == 0 else "tail"
            got = None
            for attempt in range(max_retries):
                e = ((keyed_hash(base, attempt) >> 32) * n_entities) >> 32
                cand = (e, r, t) if pick == "head" else (h, r, e)
                if cand not in known:
                    got = cand
                    break
            out.append(got)
            attempts.append(attempt + 1)
    return out, attempts


# ---------------------------------------------------------------------------
# primitive tape ops, float32 in and out as in autodiff


def sigmoid(a):
    a = ad.ensure_tensor(a)
    # clip keeps exp in range; sigmoid saturates there anyway
    s = 1.0 / (1.0 + np.exp(-np.clip(a.data, -60.0, 60.0)))
    return ad.record(s, (a,), lambda g: (g * s * (1.0 - s),), "sigmoid")


def square(a):
    a = ad.ensure_tensor(a)
    return ad.record(a.data * a.data, (a,), lambda g: (g * 2.0 * a.data,), "square")


def sqrt(a):
    a = ad.ensure_tensor(a)
    if np.any(a.data < 0):
        raise ValueError("sqrt requires non-negative input")
    out = np.sqrt(a.data)

    def grad_fn(g):
        # subgradient 0 at x == 0, same convention as relu
        safe = np.where(out > 0, out, 1.0)
        return (np.where(out > 0, g * 0.5 / safe, 0.0),)

    return ad.record(out, (a,), grad_fn, "sqrt")


def cos(a):
    a = ad.ensure_tensor(a)
    return ad.record(np.cos(a.data), (a,), lambda g: (-g * np.sin(a.data),), "cos")


def sin(a):
    a = ad.ensure_tensor(a)
    return ad.record(np.sin(a.data), (a,), lambda g: (g * np.cos(a.data),), "sin")


def relu(a):
    return clamp_min(a, 0.0)


def clamp_min(a, floor):
    a = ad.ensure_tensor(a)
    mask = a.data > floor  # subgradient 0 at exactly the floor
    return ad.record(np.maximum(a.data, floor), (a,), lambda g: (g * mask,), "clamp_min")


def tensor_mean(a, axis=None, keepdims=False):
    """Mean accumulated in float64, cast back to the working dtype."""
    a = ad.ensure_tensor(a)
    out = np.asarray(np.mean(a.data, axis=axis, keepdims=keepdims, dtype=np.float64),
                     dtype=a.data.dtype)
    count = a.data.size if axis is None else a.data.shape[axis]

    def grad_fn(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / count, a.data.shape).astype(a.data.dtype),)

    return ad.record(out, (a,), grad_fn, "mean")


def slice_cols(a, start, stop):
    a = ad.ensure_tensor(a)
    if a.ndim != 2:
        raise ValueError("slice_cols expects a 2-d tensor")

    def grad_fn(g):
        buf = np.zeros_like(a.data)
        buf[:, start:stop] = g
        return (buf,)

    return ad.record(a.data[:, start:stop].copy(), (a,), grad_fn, "slice_cols")


# ---------------------------------------------------------------------------
# composite oracles of fused code


def composite_score_batch(heads, phases, tails, norm="l2"):
    """Rotation scores as a chain of primitive tape ops: the slices of each
    side into real and imaginary halves, cos and sin of the phases, the
    rotated difference, its squares, and the l2 or l1 sum and sqrt."""
    d = heads.shape[1]
    half = d // 2
    hr = slice_cols(heads, 0, half)
    hi = slice_cols(heads, half, d)
    tr = slice_cols(tails, 0, half)
    ti = slice_cols(tails, half, d)
    c = cos(phases)
    s = sin(phases)
    dr = (hr * c - hi * s) - tr
    di = (hr * s + hi * c) - ti
    mags_sq = square(dr) + square(di)
    if norm == "l2":
        dist = sqrt(mags_sq.sum(axis=1, keepdims=True))
    else:
        dist = sqrt(mags_sq).sum(axis=1, keepdims=True)
    return -dist


def composite_place_rows(parts, present):
    """The sources tensor as fuse once built it: source 0 as it is, each
    other part scattered into a zero block by a tape op of its own (a
    constant zero block when it has no rows), then one stack."""
    n = present.shape[1]
    blocks = [parts[0]]
    for part, mask in zip(parts[1:], present[1:]):
        rows = np.flatnonzero(mask)
        if rows.size == 0:
            blocks.append(ad.Tensor(np.zeros((n,) + part.shape[1:])))
            continue
        out = np.zeros((n,) + part.shape[1:], dtype=part.data.dtype)
        out[rows] = part.data
        blocks.append(ad.record(out, (part,), lambda g, rows=rows: (g[rows],), "scatter_rows"))
    return ad.stack(blocks)


def flat_scatter_rows(idx, g, shape, dtype):
    """The zero table of shape and dtype with row g[i] added to row idx[i]
    for every i, as gather_rows' backward once made it: one np.add.at over
    an (n * width) index of every element, in index order."""
    width = math.prod(shape[1:])
    flat = np.asarray(idx, dtype=np.int64).reshape(-1, 1) * width + np.arange(width)
    buf = np.zeros(shape, dtype=dtype)
    np.add.at(buf.reshape(-1), flat.reshape(-1), np.asarray(g).reshape(-1))
    return buf


class PerBlockAdam:
    """Adam as one update per parameter block: the whole block at once when
    it fits one chunk, else chunk by chunk with its moments in place.

    params maps name -> tensor; each step rebinds a block's data to a new
    array.  Blocks without a gradient are skipped.  The moments are kept in
    each block's dtype: an update widens them to float64, reads the float64
    moments it computes, and stores them rounded back.
    """

    def __init__(self, params, learning_rate, chunk, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr, self.chunk = params, float(learning_rate), chunk
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in params.items()}

    def step(self):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            if p.data.size <= self.chunk:
                self.m[name], self.v[name], p.data = self._update(
                    self.m[name], self.v[name], p.grad, p.data, c1, c2)
                continue
            m, v = self.m[name].reshape(-1), self.v[name].reshape(-1)
            g, x = p.grad.reshape(-1), p.data.reshape(-1)
            out = np.empty_like(x)
            for lo in range(0, x.size, self.chunk):
                part = slice(lo, lo + self.chunk)
                m[part], v[part], out[part] = self._update(m[part], v[part], g[part], x[part],
                                                           c1, c2)
            p.data = out.reshape(p.data.shape)

    def _update(self, m, v, grad, x, c1, c2):
        g = np.asarray(grad, dtype=np.float64)
        m = self.beta1 * m.astype(np.float64) + (1.0 - self.beta1) * g
        v = self.beta2 * v.astype(np.float64) + (1.0 - self.beta2) * (g * g)
        update = self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
        return (m.astype(x.dtype), v.astype(x.dtype),
                (x.astype(np.float64) - update).astype(x.dtype))
