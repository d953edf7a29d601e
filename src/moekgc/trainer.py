"""Training loop, ranking evaluation, and binary checkpoints.

The loop draws entropy-weighted negatives per positive, fuses every entity
touched by the batch once, scores positives and negatives with the rotation
model, and applies one fused Adam step over the parameter store.
Randomness is keyed so that (seed, epoch) fixes the shuffle and (seed,
epoch, triple index) fixes the negatives for one positive, which makes runs
bit-reproducible.

Evaluation ranks the gold entity against every candidate with mean ranks
for ties: rank = better + (tied + 1) / 2, counting the gold itself in the
tied block.  Filtered mode drops known-true competitors before ranking.
With the l2 norm a GEMM per block of queries settles the candidates that
are surely better or worse than the gold and only the rest are scored
directly; the ranks are those of scoring every candidate directly.  The
embedding blocks and these ranking blocks run on every core through
``parallel.ordered_map``.  Each ranking block filters its rows and returns
the better and tied counts of its queries.  Once the map has returned
every block's counts, the calling thread turns them into ranks and sums
them in query order, so a report is the same on any number of cores.

Checkpoints are a fixed binary layout: magic, format version (<I), header
length (<Q), a canonical JSON header (sorted keys, compact separators),
then the parameter blocks and any Adam moment blocks in sorted name order
as little-endian float32, each block's shape and CRC32 recorded in the
header.  Saving, loading, and saving again yields identical bytes.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
import typing
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import FiniteError
from .config import ConfigError, check_finite
from .files import atomic_write
from .fusion import FusionModel, ModelConfig, param_shapes, store_size
from .kgdata import DataError, KnowledgeGraph, build_filter_index
from .parallel import group, ordered_map, spans
from .sampling import NegativeSamplingConfig, batch_loss, corrupt, derived_rng, negative_weights
from .scoring import l2_error_bound, rotate, score, score_batch, score_candidates

CHECKPOINT_MAGIC = b"MKGC"
CHECKPOINT_VERSION = 1


class TrainingError(Exception):
    """Training hit a non-finite value; the message names where."""


class CheckpointError(Exception):
    """Unreadable or corrupt checkpoint file."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint format version does not match this code."""


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 1024
    max_epochs: int = 1000
    eval_every: int = 25
    patience: int = 10
    seed: int = 0
    mi_ref_batch: int = 256

    def validate(self):
        check_finite(self)
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 0:
            raise ConfigError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.mi_ref_batch < 1:
            raise ConfigError(f"mi_ref_batch must be >= 1, got {self.mi_ref_batch}")
        if not 0 <= self.seed < 2 ** 63:
            raise ConfigError(f"seed must be in [0, 2**63), got {self.seed}")


# elements per Adam update chunk: a chunk's three float64 scratch rows
# (512 kB each) stay in a core's L2 cache over the twenty-odd operations
# of the update.  Chunks this long also keep the GIL hand-offs between the
# block map's threads rare.  The update of a 4.8M-element medium store took
# 54.0 ms on one thread and 44.7 ms on two, against 59.1 and 72.7 ms with
# chunks of 8192 (the middle of three runs' medians of 25 steps, 2-vCPU
# Xeon, one BLAS thread)
_ADAM_CHUNK = 65_536
# Adam's decay rates of the two moments and the epsilon of its denominator
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction over a ParamStore; epsilon added outside the
    sqrt, with the module constants BETA1, BETA2 and EPS.

    The moments are two buffers of the store's dtype and layout, with a
    named view per block in m and v; the gradients are the store's
    gradient buffer, of the same layout.  A step cuts each maximal run of
    consecutive blocks that have a gradient into parallel.group spans,
    each one slice of every buffer.  First every span's gradient is
    checked for non-finite values on the block map: a non-finite gradient
    raises TrainingError naming the first such block in store order, and
    leaves the parameters, the moments and the step count as they were.
    Then the spans are updated on the block map, _ADAM_CHUNK elements at a
    time: the gradient and both stored moments are cast to float64 and put
    through the per-block update's elementwise operations.  The parameter
    update reads the float64 moments just computed; they are then stored
    rounded to the store's dtype, and the next step starts from the stored
    values.  So the result is that update's bit for bit on any number of
    workers, and the stored moments with the parameters and t are the whole
    state: a step after load_state of a saved checkpoint is the step the
    saved optimizer takes.  Blocks without a gradient keep their values and
    moments.  The new parameters go into a fresh buffer that the store is
    then re-pointed at.
    """

    def __init__(self, params: ad.ParamStore, learning_rate: float):
        self.params = params
        self.lr = float(learning_rate)
        self.t = 0
        # moments in the store's dtype: a float32 checkpoint holds them exactly
        self._m = np.zeros_like(self.params.flat)
        self._v = np.zeros_like(self.params.flat)
        self.m, self.v = self.params.views(self._m), self.params.views(self._v)

    def step(self):
        store = self.params
        runs = []  # per run of blocks with a gradient, the spans of its elements
        for has_grad, run in itertools.groupby(store.blocks, key=lambda p: p.grad is not None):
            if has_grad:
                run = tuple(run)
                lo = run[0].lo
                runs.append([(lo + a, lo + z) for a, z in group(run[-1].hi - lo, _ADAM_CHUNK)])
        grad = store.grad_flat

        def finite(span):
            return all(np.isfinite(grad[c0:min(c0 + _ADAM_CHUNK, span[1])]).all()
                       for c0 in range(*span, _ADAM_CHUNK))

        if not all(all(ordered_map(finite, spans)) for spans in runs):
            bad = next(p.name for p in store.blocks
                       if p.grad is not None and not np.isfinite(p.grad).all())
            raise TrainingError(f"non-finite gradient in block {bad}")
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        x = store.flat
        out = np.empty_like(x)
        done = 0
        for spans in runs:
            lo = spans[0][0]
            out[done:lo] = x[done:lo]  # the blocks without a gradient
            ordered_map(lambda span: self._update(*span, grad, x, out, c1, c2), spans)
            done = spans[-1][1]
        out[done:] = x[done:]
        store.repoint(out)

    def _update(self, lo, hi, grad, x, out, c1, c2):
        """One step on the store elements lo .. hi - 1, chunk by chunk: the
        moments in place, the parameters of x into out, in x's dtype."""
        scratch = np.empty((3, min(_ADAM_CHUNK, hi - lo)))  # float64, sized to small spans
        for c0 in range(lo, hi, _ADAM_CHUNK):
            part = slice(c0, min(c0 + _ADAM_CHUNK, hi))
            # each operand is cast into its row on its own: a ufunc that
            # casts its inputs itself runs them through a slower buffered loop
            g, m, v = scratch[:, :part.stop - c0]
            g[...] = grad[part]
            # m = BETA1 m + (1 - BETA1) g; v's row holds the product
            m[...] = self._m[part]
            m *= BETA1
            np.multiply(g, 1.0 - BETA1, out=v)
            m += v
            self._m[part] = m
            # v = BETA2 v + (1 - BETA2) (g g)
            g *= g
            g *= 1.0 - BETA2
            v[...] = self._v[part]
            v *= BETA2
            v += g
            self._v[part] = v
            # x - lr (m / c1) / (sqrt(v / c2) + EPS), from the float64 moments
            m /= c1
            m *= self.lr
            v /= c2
            np.sqrt(v, out=v)
            v += EPS
            m /= v
            g[...] = x[part]
            g -= m
            out[part] = g

    def zero_grad(self):
        """Drop the gradients and the store's gradient buffer."""
        self.params.zero_grad()

    def load_state(self, state: dict):
        """Take adam_step and every block's moments (adam_m, adam_v) from
        state as load_checkpoint returns it, copied into the moment buffers:
        a checkpoint's float32 moments exactly, so the next step is the one
        the saved optimizer would take.  A state without them raises
        CheckpointError."""
        if state.get("adam_step") is None:
            raise CheckpointError("the checkpoint holds no optimizer state")
        self.t = int(state["adam_step"])
        for name in self.params:
            self.m[name][...] = state["adam_m"][name]
            self.v[name][...] = state["adam_v"][name]


# ---------------------------------------------------------------- evaluation

def mi_context_ids(kg: KnowledgeGraph, n: int) -> np.ndarray:
    """First n distinct entity ids in training-file order (heads, then tails,
    row by row).  Fixing this context makes evaluation deterministic."""
    if n < 1:
        raise ConfigError(f"mi_ref_batch must be >= 1, got {n}")
    seen, out = set(), []
    for h, _, t in kg.train:
        for e in (int(h), int(t)):
            if e not in seen:
                seen.add(e)
                out.append(e)
                if len(out) == n:
                    return np.asarray(out, dtype=np.int64)
    return np.asarray(out, dtype=np.int64)


def _mean_rank(better: int, tied: int) -> float:
    # ties share the mean of the positions they span; the gold entity is
    # part of its own tied block, so a clean win gives better + 1
    return better + (tied + 1) / 2.0


def _tie_counts(rows, gold, offsets, known):
    """(better, tied) per row of a block of query rows: the allowed
    candidates of row i that score above and equal to rows[i, gold[i]].

    known and offsets filter the block as FilterIndex.answers gives them:
    row i drops known[offsets[i]:offsets[i + 1]], the gold excepted, so
    offsets runs from the block's first query to one past its last.  With
    known None (raw mode) every candidate is allowed.  A NaN is never
    better and never tied, not even the gold's own.
    """
    at_gold = (np.arange(len(rows)), gold)
    s = rows[at_gold][:, None]
    better, tied = rows > s, rows == s
    if known is not None:
        allowed = np.ones(rows.shape, dtype=bool)
        allowed[np.repeat(at_gold[0], np.diff(offsets)), known[offsets[0]:offsets[-1]]] = False
        allowed[at_gold] = True
        better &= allowed
        tied &= allowed
    return np.count_nonzero(better, axis=1), np.count_nonzero(tied, axis=1)


# elements (queries x n_entities) per ranking block, on every thread of
# the block map.  A running block holds at most two float64 arrays of that
# size, and returns two ints per query, its tie counts: at 15k entities a
# block is 32 queries, and the map submits every pool block when it
# starts: the counts held until it returns are 16 bytes a query.  A desk
# graph's split is one block, ranked without a thread
_RANK_BLOCK = 32 * 15_000


def _direct_rows(emb, theta, fixed, relation, gold, tail, norm, offsets, known):
    """The tie counts (better, tied) of every query, from rows of the direct
    scorer: query i ranks gold[i] among the tails of (fixed[i], relation[i])
    where tail[i] is true, else among the heads of (relation[i], fixed[i]),
    filtered by offsets and known as in _tie_counts.  The blocks of queries
    run on the calling thread."""
    step = max(1, _RANK_BLOCK // emb.shape[0])
    counts = []
    for a in range(0, len(gold), step):
        blk = slice(a, a + step)
        rows = np.stack([
            score_candidates(emb, theta[r], emb[f], "tail" if is_tail else "head", norm)
            for f, r, is_tail in zip(fixed[blk].tolist(), relation[blk].tolist(),
                                     tail[blk].tolist())])
        counts.append(_tie_counts(rows, gold[blk], offsets[a:a + step + 1], known))
    better, tied = zip(*counts)
    return np.concatenate(better), np.concatenate(tied)


def _l2_rows(emb, theta, fixed, relation, gold, tail, offsets, known):
    """_direct_rows for the l2 norm, ranked exactly but scored mostly by GEMM.

    It takes the same arguments and returns the same counts.
    Squared distances ||q||^2 + ||c||^2 - 2 q.c come from one matrix
    product per block of queries.  Each query has one error bound E,
    l2_error_bound at the largest candidate norm, which is no smaller than
    any candidate's own bound.  A candidate nearer than the distance g of
    gold[i] by more than 2E gets +inf, one farther by more than 2E gets
    -inf, and the band in between, the gold included, is scored by the
    direct scorer.  _tie_counts counts such a row as it counts the full
    direct scores.  The blocks, the counting included, run through
    parallel.ordered_map, each computed alone, so the counts are the same
    on any number of cores.
    """
    n_ent, d = emb.shape
    cand_sq = np.einsum("ij,ij->i", emb, emb)
    max_norm = np.sqrt(cand_sq.max())

    def block(span):
        blk = slice(*span)
        # a head query turns its tail back by -theta: rotation is an isometry
        phase = theta[relation[blk]]
        phase[~tail[blk]] *= -1.0
        q = rotate(emb[fixed[blk]], phase)
        q_sq = np.einsum("ij,ij->i", q, q)
        # (||q||^2 + ||c||^2) - 2 q.c, rounded in that order
        dist = np.add(q_sq[:, None], cand_sq)
        prod = np.matmul(q, emb.T)
        prod *= 2.0
        dist -= prod
        del prod  # each full-width array goes once used: blocks run side by side
        at_gold = (np.arange(len(q)), gold[blk])
        margin = 2.0 * l2_error_bound(np.sqrt(q_sq), max_norm, d)
        nearer = dist < (dist[at_gold] - margin)[:, None]
        band = dist > (dist[at_gold] + margin)[:, None]
        del dist
        band |= nearer
        np.logical_not(band, out=band)
        band[at_gold] = True
        # +inf where nearer, else -inf: +-0.5 * inf, several times faster
        # than np.where on a mask this size
        rows = np.subtract(nearer, 0.5)
        rows *= np.inf
        # the band as (head, relation, tail) rows, at most n_ent rows per call
        # so that a wide band costs no more memory than a full direct row
        qi, ci = np.divmod(np.flatnonzero(band), n_ent)
        qs = qi + span[0]
        heads = np.where(tail[qs], fixed[qs], ci)
        tails = np.where(tail[qs], ci, fixed[qs])
        for c in range(0, len(qs), n_ent):
            part = slice(c, c + n_ent)
            rows[qi[part], ci[part]] = score(emb[heads[part]], theta[relation[qs[part]]],
                                             emb[tails[part]])
        return _tie_counts(rows, gold[blk], offsets[span[0]:span[1] + 1], known)

    better, tied = zip(*ordered_map(block, spans(len(gold), max(1, _RANK_BLOCK // n_ent))))
    return np.concatenate(better), np.concatenate(tied)


def evaluate(model: FusionModel, kg: KnowledgeGraph, split: str = "test",
             mode: str = "filtered", mi_ref_batch: int = 256,
             filter_index=None) -> dict:
    """Both-side link prediction metrics over one split.

    Every triple contributes a tail query (rank the true tail against all
    entities) and a head query.  Returns a flat report with exactly the keys
    mrr, hits1, hits3, hits10, mode, split, queries.
    """
    if mode not in ("filtered", "raw"):
        raise ConfigError(f"mode must be filtered or raw, got {mode!r}")
    triples = kg.split(split)
    if len(triples) == 0:
        raise DataError(f"split {split!r} has no triples to evaluate")
    # per triple the tail query (fixed head, gold tail), then the head query
    fixed = triples[:, [0, 2]].ravel()
    gold = triples[:, [2, 0]].ravel()
    relation = np.repeat(triples[:, 1], 2)
    tail = np.tile([True, False], len(triples))
    offsets, known = np.zeros(len(gold) + 1, dtype=np.int64), None  # raw: no filter
    if mode == "filtered":
        if filter_index is None:
            filter_index = build_filter_index(kg)
        offsets, known = filter_index.answers(fixed, relation, tail)

    emb = model.all_joint_embeddings(mi_context_ids(kg, mi_ref_batch))
    theta = np.asarray(model.relation_phases.data, dtype=np.float64)
    if model.cfg.norm == "l2":
        better, tied = _l2_rows(emb, theta, fixed, relation, gold, tail, offsets, known)
    else:
        better, tied = _direct_rows(emb, theta, fixed, relation, gold, tail, model.cfg.norm,
                                    offsets, known)

    rr_sum = 0.0
    hits = {1: 0, 3: 0, 10: 0}
    for b, t in zip(better.tolist(), tied.tolist()):
        rank = _mean_rank(b, t)
        rr_sum += 1.0 / rank
        for k in hits:
            hits[k] += 1 if rank <= k else 0
    queries = len(gold)
    return {
        "mrr": rr_sum / queries,
        "hits1": hits[1] / queries,
        "hits3": hits[3] / queries,
        "hits10": hits[10] / queries,
        "mode": mode,
        "split": split,
        "queries": queries,
    }


# ---------------------------------------------------------------- checkpoint

# the model settings a checkpoint header records, each with its type
_CONFIG_TYPES = typing.get_type_hints(ModelConfig)


def _canonical_header(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _check_header(path, header):
    """Raise CheckpointError unless header holds every field load reads, each
    of the JSON type load reads it as: a config value of its ModelConfig
    field's type (a bool is no int), modalities a list of strings, a block
    shape a list of non-negative ints, and adam_step null or a non-negative
    int.  Which blocks there are, and their shapes, load checks later."""
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    for key in ("blocks", "config", "counts", "modality_dims"):
        if not isinstance(header.get(key), dict):
            raise CheckpointError(f"{path}: header field {key!r} is missing or not an object")

    def count(value):
        return isinstance(value, int) and not isinstance(value, bool) and value >= 0

    blocks, config, counts = header["blocks"], header["config"], header["counts"]
    for name, meta in blocks.items():
        if not (isinstance(meta, dict) and isinstance(meta.get("shape"), list)
                and all(count(n) for n in meta["shape"]) and isinstance(meta.get("crc32"), int)):
            raise CheckpointError(f"{path}: header field blocks.{name} is malformed: it needs "
                                  f"a shape of non-negative ints and an int crc32, got {meta!r}")
    lacking = [f"config.{k}" for k in _CONFIG_TYPES if k not in config]
    lacking += [f"counts.{k}" for k in ("entities", "relations") if not count(counts.get(k))]
    if lacking:
        raise CheckpointError(f"{path}: header lacks {', '.join(lacking)}")
    for key, kind in _CONFIG_TYPES.items():
        value = config[key]
        if (not isinstance(value, kind) or isinstance(value, bool) != (kind is bool)
                or (kind is list and not all(isinstance(m, str) for m in value))):
            raise CheckpointError(f"{path}: header field config.{key} is not of type "
                                  f"{'list of str' if kind is list else kind.__name__}: {value!r}")
    lacking = [f"modality_dims.{m} (a non-negative int)" for m in config["modalities"]
               if not count(header["modality_dims"].get(m))]
    if lacking:
        raise CheckpointError(f"{path}: header lacks {', '.join(lacking)}")
    step = header.get("adam_step")
    if step is not None and not count(step):
        raise CheckpointError(f"{path}: header field adam_step is neither null "
                              f"nor a non-negative int: {step!r}")


def save_checkpoint(path, model: FusionModel, optimizer: Adam = None, extra: dict = None):
    """Write the model, and with optimizer Adam's step count and moments,
    atomically.  Each block is checksummed and written from its own <f4
    array: a float32 store's blocks and its optimizer's moments are views
    of their buffers, so no block is copied."""
    blocks = {name: np.ascontiguousarray(p.data, dtype="<f4") for name, p in model.params.items()}
    if optimizer is not None:
        for name in model.params:
            blocks[f"adam.m.{name}"] = np.ascontiguousarray(optimizer.m[name], dtype="<f4")
            blocks[f"adam.v.{name}"] = np.ascontiguousarray(optimizer.v[name], dtype="<f4")
    cfg = model.cfg
    header = {
        "blocks": {name: {"shape": list(a.shape), "crc32": zlib.crc32(a)}
                   for name, a in blocks.items()},
        "config": {key: getattr(cfg, key) for key in _CONFIG_TYPES},
        "counts": {"entities": model.n_entities, "relations": model.n_relations},
        "modality_dims": {m: model.tables[m].dim for m in cfg.modalities},
        "adam_step": optimizer.t if optimizer is not None else None,
        "extra": extra or {},
    }
    hdr = _canonical_header(header)
    with atomic_write(path) as (f,):
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<Q", len(hdr)))
        f.write(hdr)
        for name in sorted(blocks):
            f.write(blocks[name])


def load_checkpoint(path, tables: dict, kg: KnowledgeGraph = None):
    """Rebuild the model (and any saved optimizer state) from a checkpoint.

    tables must provide a feature table for every modality in the header,
    with matching dimensions.  Passing kg cross-checks entity and relation
    counts.  Returns (model, state): state holds the raw header and
    adam_step, the step count or None; with a step count, adam_m and
    adam_v map each parameter name to its moment block, a read-only <f4
    view of the file's bytes, which state keeps alive.  Adam.load_state
    takes state as it is.
    """
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise CheckpointError(f"{path}: cannot read checkpoint ({e.strerror})") from None
    if data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    if len(data) < 16:
        raise CheckpointError(f"{path}: truncated before the header")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version}, this code reads version {CHECKPOINT_VERSION}"
        )
    (hdr_len,) = struct.unpack_from("<Q", data, 8)
    hdr_start = 16
    try:
        header = json.loads(data[hdr_start:hdr_start + hdr_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        # a flipped bit in the header region lands here, not in a CRC check
        raise CheckpointError(f"{path}: malformed header ({e})")
    _check_header(path, header)
    offset = hdr_start + hdr_len

    arrays = {}
    payload = memoryview(data)  # blocks are read in place, not sliced into copies
    for name in sorted(header["blocks"]):
        meta = header["blocks"][name]
        shape = tuple(meta["shape"])
        nbytes = math.prod(shape) * 4  # a Python int: a huge shape reads as truncated
        raw = payload[offset:offset + nbytes]
        if len(raw) != nbytes:
            raise CheckpointError(f"{path}: block {name} is truncated")
        if zlib.crc32(raw) != meta["crc32"]:
            raise CheckpointError(f"{path}: block {name} failed its CRC check")
        arrays[name] = np.frombuffer(raw, dtype="<f4").reshape(shape)
        offset += nbytes
    if len(data) > offset:
        raise CheckpointError(f"{path}: {len(data) - offset} stray bytes after the last block")

    cfg = ModelConfig(**{key: header["config"][key] for key in _CONFIG_TYPES})
    try:
        cfg.validate()  # the file's own values; a mismatch with tables or kg stays a ConfigError
    except ConfigError as e:
        raise CheckpointError(f"{path}: header config is invalid: {e}") from None
    counts = header["counts"]
    if kg is not None:
        if kg.n_entities != counts["entities"] or kg.n_relations != counts["relations"]:
            raise ConfigError(
                f"checkpoint was trained on {counts['entities']} entities / "
                f"{counts['relations']} relations, graph has {kg.n_entities} / {kg.n_relations}"
            )
    for m in cfg.modalities:
        if m not in tables:
            raise ConfigError(f"checkpoint needs modality {m!r} but no table was given")
        want = header["modality_dims"][m]
        if tables[m].dim != want:
            raise ConfigError(
                f"modality {m!r} dimension mismatch: checkpoint has {want}, "
                f"table has {tables[m].dim}"
            )
    # the header's integers size the model, so the blocks read above bear
    # them out before anything is allocated: the shape map is walked lazily,
    # and a header that asks for more or larger blocks than the file holds
    # fails at the first block the file lacks or holds in another shape
    step = header.get("adam_step")
    stray = set(arrays)  # the blocks the walk below does not name
    for name, want in param_shapes(cfg, counts["entities"], counts["relations"],
                                   header["modality_dims"]):
        for block in (name,) if step is None else (name, f"adam.m.{name}", f"adam.v.{name}"):
            if block not in arrays:
                why = "" if block == name else f"header field adam_step is {step} but "
                raise CheckpointError(f"{path}: {why}block {block} is missing")
            got = arrays[block].shape
            if got != want:
                raise CheckpointError(f"{path}: block {block} has shape {list(got)}, but the "
                                      f"header's config and counts give {list(want)}")
            stray.discard(block)
    if stray:
        raise CheckpointError(f"{path}: header names blocks the config and adam_step "
                              f"do not: {', '.join(sorted(stray))}")

    # every block is written below, so the model is laid out with no initial draw
    model = FusionModel._unfilled(cfg, counts["entities"], counts["relations"], tables)
    for name, p in model.params.items():
        p.data[...] = arrays[name]  # into the store

    state = {"header": header, "adam_step": step}
    if step is not None:
        state["adam_m"] = {n: arrays[f"adam.m.{n}"] for n in model.params}
        state["adam_v"] = {n: arrays[f"adam.v.{n}"] for n in model.params}
    return model, state


# ---------------------------------------------------------------- training

# store-sized buffers a training step holds, each in the store's dtype: the
# parameters, their gradient, the update's new parameters and Adam's moments
_STEP_BUFFERS = 5
# bytes per negative and embedding coordinate a training step holds: six
# float32 rows at most, what score_batch keeps and its backward's gradients
# (22.8 measured under tracemalloc at d=64 and 128)
_STEP_ROW_BYTES = 24


def check_memory(model_cfg: ModelConfig, kg: KnowledgeGraph, tables: dict, positives: int,
                 negatives_per_positive: int, buffers: int = _STEP_BUFFERS,
                 row_bytes: int = _STEP_ROW_BYTES):
    """Raise ConfigError, before any of it is allocated, when a config asks
    for more than the host's physical memory: buffers arrays the size of
    the parameter store model_cfg lays out for kg and tables (validated
    against them), a training step's by default; or the int64 (head,
    relation, tail) negatives that sampling.corrupt draws for positives
    positives with row_bytes per negative and coordinate of the rows scored
    from them, a training step's by default.  A host whose physical memory
    cannot be read (os.sysconf is Unix-only) sets no bound."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        physical = math.inf
    dims = {m: tables[m].dim for m in model_cfg.modalities}
    store = (store_size(model_cfg, kg.n_entities, kg.n_relations, dims)
             * ad.default_dtype().itemsize)
    n_neg = positives * negatives_per_positive
    drawn = n_neg * 3 * np.dtype(np.int64).itemsize
    rows = n_neg * model_cfg.embedding_dim * row_bytes
    for nbytes, what, why in (
            (buffers * store,
             f"model.embedding_dim {model_cfg.embedding_dim}, model.experts "
             f"{model_cfg.experts} and model.mi_bins {model_cfg.mi_bins} on "
             f"{kg.n_entities} entities need",
             f"{buffers} x the parameter store's {store / 2 ** 30:.1f} GiB"),
            (drawn + rows, f"sampling.negatives_per_positive {negatives_per_positive} needs",
             f"the int64 negatives of {positives} positives, {drawn / 2 ** 30:.1f} GiB, and "
             f"their rows of model.embedding_dim {model_cfg.embedding_dim}, "
             f"{rows / 2 ** 30:.1f} GiB")):
        if nbytes > physical:
            raise ConfigError(f"{what} {nbytes / 2 ** 30:.1f} GiB ({why}), more than the "
                              f"{physical / 2 ** 30:.1f} GiB of physical memory")


@dataclass
class TrainResult:
    model: FusionModel
    history: list = field(default_factory=list)
    best_valid_mrr: float = None
    stopped_epoch: int = 0


def train(kg: KnowledgeGraph, tables: dict, model_cfg: ModelConfig,
          train_cfg: TrainConfig, sampling_cfg: NegativeSamplingConfig,
          log_fn=None) -> TrainResult:
    """Run the full loop and return the model at its best validation point.

    The shuffle for epoch e is keyed by (seed, e); the negatives for the
    positive at original row i are keyed by (seed, e, i).  Early stopping
    triggers after patience evaluations without a validation MRR gain; if
    the valid split is empty, evaluation is skipped and the loop runs to
    max_epochs.
    """
    model_cfg.validate(tables)
    train_cfg.validate()
    sampling_cfg.validate()
    if len(kg.train) == 0:
        raise DataError("the train split has no triples")
    check_memory(model_cfg, kg, tables, min(train_cfg.batch_size, len(kg.train)),
                 sampling_cfg.negatives_per_positive)
    model = FusionModel(model_cfg, kg.n_entities, kg.n_relations, tables, seed=train_cfg.seed)
    opt = Adam(model.params, train_cfg.learning_rate)
    fi = build_filter_index(kg)
    n_train = len(kg.train)
    n_neg = sampling_cfg.negatives_per_positive

    history = []
    best_mrr = None
    best_params = None
    evals_since_best = 0
    stopped = 0

    for epoch in range(train_cfg.max_epochs):
        stopped = epoch + 1
        perm = derived_rng(train_cfg.seed, epoch).permutation(n_train)
        batch_losses = []
        for batch_no, b0 in enumerate(range(0, n_train, train_cfg.batch_size)):
            rows = perm[b0:b0 + train_cfg.batch_size]
            positives = kg.train[rows]
            negatives = corrupt(positives, n_neg, fi, kg.n_entities, train_cfg.seed, epoch, rows=rows)
            try:
                loss_value = _batch_step(model, opt, positives, negatives, sampling_cfg)
            except (FiniteError, TrainingError) as e:
                raise TrainingError(
                    f"non-finite value at epoch {epoch} batch {batch_no}: {e}"
                ) from e
            if not math.isfinite(loss_value):
                raise TrainingError(f"loss is not finite at epoch {epoch} batch {batch_no}")
            batch_losses.append(loss_value)

        record = {"epoch": epoch, "loss": float(np.mean(batch_losses))}
        if (epoch + 1) % train_cfg.eval_every == 0 and len(kg.valid) > 0:
            try:
                report = evaluate(model, kg, "valid", "filtered",
                                  train_cfg.mi_ref_batch, filter_index=fi)
            except FiniteError as e:
                raise TrainingError(f"non-finite value in validation at epoch {epoch}: {e}") from e
            record["valid_mrr"] = report["mrr"]
            if best_mrr is None or report["mrr"] > best_mrr:
                best_mrr = report["mrr"]
                best_params = model.params.flat.copy()
                evals_since_best = 0
            else:
                evals_since_best += 1
        history.append(record)
        if log_fn is not None:
            log_fn(record)
        if evals_since_best >= train_cfg.patience:
            break

    if best_params is not None:
        model.params.flat[...] = best_params
    return TrainResult(model=model, history=history, best_valid_mrr=best_mrr,
                       stopped_epoch=stopped)


def _batch_step(model: FusionModel, opt: Adam, positives, negatives,
                sampling_cfg: NegativeSamplingConfig) -> float:
    """Forward, backward, and one Adam step for one batch; returns the loss.

    positives and negatives are (n, 3) arrays of (head, relation, tail).
    Every entity they touch is fused once, in sorted id order.
    """
    ends = np.concatenate([positives[:, [0, 2]], negatives[:, [0, 2]]])
    uniq, inverse = np.unique(ends, return_inverse=True)
    pos_of = inverse.reshape(ends.shape)
    n_pos = len(positives)

    ad.reset_tape()
    joint, _ = model.fuse(uniq)

    pos_scores = score_batch(
        ad.gather_rows(joint, pos_of[:n_pos, 0]),
        ad.gather_rows(model.relation_phases, positives[:, 1]),
        ad.gather_rows(joint, pos_of[:n_pos, 1]),
        model.cfg.norm,
    )
    neg_scores = score_batch(
        ad.gather_rows(joint, pos_of[n_pos:, 0]),
        ad.gather_rows(model.relation_phases, negatives[:, 1]),
        ad.gather_rows(joint, pos_of[n_pos:, 1]),
        model.cfg.norm,
    )
    weights = negative_weights(neg_scores.data, sampling_cfg)
    loss = batch_loss(pos_scores, neg_scores, weights, sampling_cfg)
    # no backward rule reads these: free them before backward allocates
    del joint, pos_scores, neg_scores
    ad.backward(loss)  # consumes the tape, freeing the rest as it goes
    opt.step()  # raises TrainingError on a non-finite gradient
    opt.zero_grad()
    return loss.item()
