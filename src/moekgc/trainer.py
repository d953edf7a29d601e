"""Training loop, ranking evaluation, and binary checkpoints.

The loop draws entropy-weighted negatives per positive, fuses every entity
touched by the batch once, scores positives and negatives with the rotation
model, and applies Adam per parameter block.  Randomness is keyed so that
(seed, epoch) fixes the shuffle and (seed, epoch, triple index) fixes the
negatives for one positive, which makes runs bit-reproducible.

Evaluation ranks the gold entity against every candidate with mean ranks
for ties: rank = better + (tied + 1) / 2, counting the gold itself in the
tied block.  Filtered mode drops known-true competitors before ranking.

Checkpoints are a fixed binary layout: magic, format version, a canonical
JSON header (sorted keys, compact separators), then the parameter blocks in
sorted name order as little-endian float32 with a CRC32 per block recorded
in the header.  Saving, loading, and saving again yields identical bytes.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import FiniteError
from .config import ConfigError
from .fusion import FusionModel, ModelConfig
from .kgdata import KnowledgeGraph, build_filter_index
from .sampling import NegativeSamplingConfig, batch_loss, corrupt, derived_rng, negative_weights
from .scoring import score_batch, score_candidates

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


class Adam:
    """Per-block Adam with bias correction; epsilon added outside the sqrt."""

    def __init__(self, params: dict, learning_rate: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = float(learning_rate)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        # moments kept in float64 regardless of the parameter dtype
        self.m = {n: np.zeros(p.data.shape, dtype=np.float64) for n, p in params.items()}
        self.v = {n: np.zeros(p.data.shape, dtype=np.float64) for n, p in params.items()}

    def step(self):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = np.asarray(p.grad, dtype=np.float64)
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * (g * g)
            update = self.lr * (self.m[name] / c1) / (np.sqrt(self.v[name] / c2) + self.eps)
            p.data = (p.data.astype(np.float64) - update).astype(p.data.dtype)

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def state_dict(self) -> dict:
        return {"step": self.t, "m": self.m, "v": self.v}

    def load_state(self, state: dict):
        self.t = int(state["step"])
        for name in self.params:
            if name in state["m"]:
                self.m[name] = np.asarray(state["m"][name], dtype=np.float64)
                self.v[name] = np.asarray(state["v"][name], dtype=np.float64)


# ---------------------------------------------------------------- evaluation

def mi_context_ids(kg: KnowledgeGraph, n: int) -> np.ndarray:
    """First n distinct entity ids in training-file order (heads, then tails,
    row by row).  Fixing this context makes evaluation deterministic."""
    seen, out = set(), []
    for h, _, t in kg.train:
        for e in (int(h), int(t)):
            if e not in seen:
                seen.add(e)
                out.append(e)
                if len(out) == n:
                    return np.asarray(out, dtype=np.int64)
    return np.asarray(out, dtype=np.int64)


def _mean_rank(scores: np.ndarray, gold: int, allowed: np.ndarray) -> float:
    # ties share the mean of the positions they span; the gold entity is
    # part of its own tied block, so a clean win gives better + 1
    s = scores[gold]
    pool = scores[allowed]
    better = int(np.sum(pool > s))
    tied = int(np.sum(pool == s))
    return better + (tied + 1) / 2.0


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
        raise ValueError(f"split {split!r} has no triples to evaluate")
    if filter_index is None:
        filter_index = build_filter_index(kg)

    emb = model.all_joint_embeddings(mi_context_ids(kg, mi_ref_batch))
    theta = np.asarray(model.relation_phases.data, dtype=np.float64)
    norm = model.cfg.norm
    n_ent = emb.shape[0]

    rr_sum = 0.0
    hits = {1: 0, 3: 0, 10: 0}
    queries = 0
    for h, r, t in triples:
        h, r, t = int(h), int(r), int(t)
        for side in ("tail", "head"):
            if side == "tail":
                scores = score_candidates(emb, theta[r], emb[h], "tail", norm)
                gold, known = t, filter_index.true_tails(h, r)
            else:
                scores = score_candidates(emb, theta[r], emb[t], "head", norm)
                gold, known = h, filter_index.true_heads(r, t)
            allowed = np.ones(n_ent, dtype=bool)
            if mode == "filtered" and known:
                allowed[np.fromiter(known, dtype=np.int64)] = False
                allowed[gold] = True
            rank = _mean_rank(scores, gold, allowed)
            rr_sum += 1.0 / rank
            for k in hits:
                hits[k] += 1 if rank <= k else 0
            queries += 1
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

# the model settings a checkpoint header records
_CONFIG_KEYS = tuple(f.name for f in fields(ModelConfig))


def _canonical_header(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _check_header(path, header):
    """Raise CheckpointError unless header holds every field load reads."""
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    for key in ("blocks", "config", "counts", "modality_dims"):
        if not isinstance(header.get(key), dict):
            raise CheckpointError(f"{path}: header field {key!r} is missing or not an object")
    for name, meta in header["blocks"].items():
        if not (isinstance(meta, dict) and isinstance(meta.get("shape"), list)
                and isinstance(meta.get("crc32"), int)):
            raise CheckpointError(f"{path}: header entry of block {name} is malformed")
    config, counts = header["config"], header["counts"]
    lacking = [f"config.{k}" for k in _CONFIG_KEYS if k != "modalities" and k not in config]
    lacking += [f"counts.{k}" for k in ("entities", "relations") if not isinstance(counts.get(k), int)]
    if not isinstance(config.get("modalities"), list):
        lacking.append("config.modalities (a list)")
    else:
        lacking += [f"modality_dims.{m}" for m in config["modalities"]
                    if m not in header["modality_dims"]]
    if lacking:
        raise CheckpointError(f"{path}: header lacks {', '.join(lacking)}")


def save_checkpoint(path, model: FusionModel, optimizer: Adam = None, extra: dict = None):
    blocks = {name: np.ascontiguousarray(p.data, dtype="<f4") for name, p in model.params.items()}
    if optimizer is not None:
        for name in model.params:
            blocks[f"adam.m.{name}"] = np.ascontiguousarray(optimizer.m[name], dtype="<f4")
            blocks[f"adam.v.{name}"] = np.ascontiguousarray(optimizer.v[name], dtype="<f4")
    ordered = sorted(blocks)
    table = {}
    payload = bytearray()
    for name in ordered:
        raw = blocks[name].tobytes(order="C")
        table[name] = {"shape": list(blocks[name].shape), "crc32": zlib.crc32(raw)}
        payload.extend(raw)
    cfg = model.cfg
    header = {
        "blocks": table,
        "config": {key: getattr(cfg, key) for key in _CONFIG_KEYS},
        "counts": {"entities": model.n_entities, "relations": model.n_relations},
        "modality_dims": {m: model.tables[m].dim for m in cfg.modalities},
        "adam_step": optimizer.t if optimizer is not None else None,
        "extra": extra or {},
    }
    hdr = _canonical_header(header)
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<Q", len(hdr)))
        f.write(hdr)
        f.write(bytes(payload))


def load_checkpoint(path, tables: dict, kg: KnowledgeGraph = None):
    """Rebuild the model (and any saved optimizer state) from a checkpoint.

    tables must provide a feature table for every modality in the header,
    with matching dimensions.  Passing kg cross-checks entity and relation
    counts.  Returns (model, state) where state carries the adam moments,
    the step counter, and the raw header.
    """
    with open(path, "rb") as f:
        data = f.read()
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
    for name in sorted(header["blocks"]):
        meta = header["blocks"][name]
        shape = tuple(meta["shape"])
        nbytes = int(np.prod(shape, dtype=np.int64)) * 4
        raw = data[offset:offset + nbytes]
        if len(raw) != nbytes:
            raise CheckpointError(f"{path}: block {name} is truncated")
        if zlib.crc32(raw) != meta["crc32"]:
            raise CheckpointError(f"{path}: block {name} failed its CRC check")
        arrays[name] = np.frombuffer(raw, dtype="<f4").reshape(shape)
        offset += nbytes

    cfg = ModelConfig(**{key: header["config"][key] for key in _CONFIG_KEYS})
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

    model = FusionModel(cfg, counts["entities"], counts["relations"], tables, seed=0)
    missing = set(model.params) - set(arrays)
    if missing:
        raise CheckpointError(f"{path}: missing parameter blocks {sorted(missing)}")
    for name, p in model.params.items():
        if tuple(arrays[name].shape) != tuple(p.data.shape):
            raise CheckpointError(
                f"{path}: block {name} has shape {arrays[name].shape}, "
                f"expected {p.data.shape}"
            )
        p.data = arrays[name].astype(p.data.dtype)

    state = {"header": header, "adam_step": header.get("adam_step")}
    if state["adam_step"] is not None:
        state["adam_m"] = {n: arrays[f"adam.m.{n}"].astype(np.float64) for n in model.params}
        state["adam_v"] = {n: arrays[f"adam.v.{n}"].astype(np.float64) for n in model.params}
    return model, state


# ---------------------------------------------------------------- training

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
    model_cfg.validate()
    train_cfg.validate()
    sampling_cfg.validate()
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
            negatives = []
            for orig in rows:
                h, r, t = (int(x) for x in kg.train[orig])
                rng = derived_rng(train_cfg.seed, epoch, int(orig))
                negatives.extend(corrupt((h, r, t), n_neg, rng, fi, kg.n_entities,
                                         max_retries=sampling_cfg.max_retries))
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
            report = evaluate(model, kg, "valid", "filtered",
                              train_cfg.mi_ref_batch, filter_index=fi)
            record["valid_mrr"] = report["mrr"]
            if best_mrr is None or report["mrr"] > best_mrr:
                best_mrr = report["mrr"]
                best_params = {n: p.data.copy() for n, p in model.params.items()}
                evals_since_best = 0
            else:
                evals_since_best += 1
        history.append(record)
        if log_fn is not None:
            log_fn(record)
        if evals_since_best >= train_cfg.patience:
            break

    if best_params is not None:
        for name, p in model.params.items():
            p.data = best_params[name]
    return TrainResult(model=model, history=history, best_valid_mrr=best_mrr,
                       stopped_epoch=stopped)


def _batch_step(model: FusionModel, opt: Adam, positives, negatives,
                sampling_cfg: NegativeSamplingConfig) -> float:
    """Forward, backward, and one Adam step for one batch; returns the loss."""
    touched = set()
    for h, _, t in positives:
        touched.add(int(h))
        touched.add(int(t))
    for s in negatives:
        touched.add(s.head)
        touched.add(s.tail)
    uniq = np.asarray(sorted(touched), dtype=np.int64)
    pos_of = {e: i for i, e in enumerate(uniq)}

    ad.reset_tape()
    joint, _ = model.fuse(uniq)

    ph = np.asarray([pos_of[int(h)] for h, _, _ in positives])
    pt = np.asarray([pos_of[int(t)] for _, _, t in positives])
    pr = np.asarray([int(r) for _, r, _ in positives])
    pos_scores = score_batch(
        ad.gather_rows(joint, ph),
        ad.gather_rows(model.relation_phases, pr),
        ad.gather_rows(joint, pt),
        model.cfg.norm,
    )
    nh = np.asarray([pos_of[s.head] for s in negatives])
    nt = np.asarray([pos_of[s.tail] for s in negatives])
    nr = np.asarray([s.relation for s in negatives])
    neg_scores = score_batch(
        ad.gather_rows(joint, nh),
        ad.gather_rows(model.relation_phases, nr),
        ad.gather_rows(joint, nt),
        model.cfg.norm,
    )
    weights = negative_weights(neg_scores.data, sampling_cfg)
    loss = batch_loss(pos_scores, neg_scores, weights, sampling_cfg)
    ad.backward(loss)
    for name, p in model.params.items():
        if p.grad is not None and not np.all(np.isfinite(p.grad)):
            raise TrainingError(f"non-finite gradient in block {name}")
    value = loss.item()
    opt.step()
    opt.zero_grad()
    ad.reset_tape()
    return value
