"""Entity embedding fusion guided by estimated mutual information.

Each entity's joint embedding is assembled from its available sources: the
learnable structural table plus a projected vector per feature modality.
Every feature modality runs a two-layer projection into embedding space and
then a bank of independent expert networks; expert views are averaged with
weights from a softmax over negative mutual-information row sums, so views
carrying information the others already have are downweighted.  The same
weighting fuses the per-modality vectors (structure included) into the final
joint embedding.

Mutual information is estimated once per batch and level by one kernel,
``ad.mi_matrix``: it takes the level's stacked distributions (the k expert
views of a modality, or the sources of the batch) and a presence mask, and
returns the whole symmetric MI matrix.  A pair's joint table is the mean of
outer products of the paired softmax vectors over the rows both members
have; marginals are its row and column sums.  Every dense layer is one
``ad.affine`` node, and the expert bank, the distribution heads and the
weighted sums each run as one batched op.  The parameters live in one
``ad.ParamStore`` that keeps each bank's members side by side, so a bank's
stacked (k, ...) weights are a view of the store, not a copy.  Fusion
weights are treated as constants by default:
the heads, the MI kernel and the weights then run under ``ad.no_grad`` and
put nothing on the tape.  ``grad_through_weights`` runs the same calls on
the tape.

At evaluation the MI is pinned to ``mi_state``, the cache one no-grad
``fuse`` call over a reference batch returns, so every entity's row
depends on that entity alone: ``all_joint_embeddings`` fuses in blocks that
``parallel.ordered_map`` spreads over the cores, each block through
``_fuse``, the body of ``fuse`` that a profiler wrapping ``fuse`` from one
thread does not see.  A block writes its rows into the output in place, so
the map's results are not read.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ConfigError
from .kgdata import STRUCTURE_MODALITY, ModalityFeatureTable
from .parallel import ordered_map, spans

# joint-table entries below this threshold contribute nothing to the estimate
MI_EPS = 1e-12
# softmax logit of an absent source: exp underflows to exactly 0
ABSENT_LOGIT = -1e30
# entities per fuse call of the calling thread in all_joint_embeddings (a
# pool thread's calls take parallel.POOL_SHARE of that): at d=256 each
# float32 intermediate of a block (projection, expert hiddens and views) is
# 1 MB, in a core's cache, where one call over 15k entities walks 15 MB
# arrays and holds over a hundred MB of them at once.  A pool thread keeps
# its own malloc arena as large as the biggest block it ran, so this size
# also bounds what fanning out adds to peak memory
_EMBED_BLOCK = 1024
# initial values drawn per call when a parameter block is filled
_INIT_CHUNK = 1 << 16


@dataclass
class ModelConfig:
    embedding_dim: int = 256
    experts: int = 3
    mi_bins: int = 16
    modalities: list = field(default_factory=list)
    norm: str = "l2"
    grad_through_weights: bool = False
    intra_weighting: str = "mi"  # mi | uniform (uniform is the ablation)
    inter_weighting: str = "mi"

    def validate(self, tables=None):
        """Check the settings; with tables, also that each modality has one."""
        if self.embedding_dim <= 0 or self.embedding_dim % 2 != 0:
            raise ConfigError(f"embedding_dim must be positive and even, got {self.embedding_dim}")
        if self.experts < 1:
            raise ConfigError(f"experts must be >= 1, got {self.experts}")
        if self.mi_bins < 2:
            raise ConfigError(f"mi_bins must be >= 2, got {self.mi_bins}")
        if self.norm not in ("l2", "l1"):
            raise ConfigError(f"norm must be l2 or l1, got {self.norm!r}")
        for knob in (self.intra_weighting, self.inter_weighting):
            if knob not in ("mi", "uniform"):
                raise ConfigError(f"weighting must be mi or uniform, got {knob!r}")
        if STRUCTURE_MODALITY in self.modalities:
            raise ConfigError(f"{STRUCTURE_MODALITY!r} is implicit and cannot be listed")
        if len(set(self.modalities)) != len(self.modalities):
            raise ConfigError("duplicate modality in modalities list")
        if len(self.modalities) > 62:
            # a presence mask over the sources is coded as one int64
            raise ConfigError(f"at most 62 modalities, got {len(self.modalities)}")
        if tables is not None:
            for m in self.modalities:
                if m not in tables:
                    raise ConfigError(f"modality {m!r} has no loaded feature table")


# ---------------------------------------------------------------------------
# mutual information over projected distributions


def mutual_information(pairs) -> float:
    """MI estimate from a batch of paired probability vectors.

    pairs: sequence of (x, y) with x, y probability vectors of equal length.
    The joint is the batch mean of outer(x, y); terms whose joint mass falls
    below MI_EPS contribute zero.  Never negative.
    """
    xs = np.stack([np.asarray(x, dtype=np.float64) for x, _ in pairs])
    ys = np.stack([np.asarray(y, dtype=np.float64) for _, y in pairs])
    joint = xs.T @ ys / len(pairs)
    px = joint.sum(axis=1, keepdims=True)
    py = joint.sum(axis=0, keepdims=True)
    mask = joint >= MI_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.log(joint) - np.log(px) - np.log(py)
    return float(max(np.sum(joint[mask] * ratio[mask]), 0.0))


def batch_mutual_information(x: Tensor, y: Tensor) -> Tensor:
    """Differentiable MI between two (batch, bins) distribution tensors: the
    one-pair case of ``ad.mi_matrix``."""
    if x.shape != y.shape or x.ndim != 2:
        raise ValueError(f"expected matching (batch, bins) shapes, got {x.shape} and {y.shape}")
    pair = ad.mi_matrix(ad.stack([x, y]), np.ones((2, x.shape[0])), MI_EPS)
    # symmetric with a zero diagonal: half the sum is the pair's entry, exactly
    return pair.sum() * 0.5


# ---------------------------------------------------------------------------
# complementarity weighting


def weights_from_row_sums(row_sums) -> np.ndarray:
    """Softmax over negated MI row sums: sharing more information means a
    smaller weight."""
    z = -np.asarray(row_sums, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def complementarity_weights(mi_matrix: np.ndarray) -> np.ndarray:
    """Weights from a symmetric MI matrix; the diagonal is ignored."""
    m = np.asarray(mi_matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got {m.shape}")
    return weights_from_row_sums(m.sum(axis=1) - np.diag(m))


def intra_modality_fuse(views, mi_matrix):
    """Weighted average of expert views; returns (fused, weights)."""
    views = [np.asarray(v, dtype=np.float64) for v in views]
    w = complementarity_weights(mi_matrix)
    if len(w) != len(views):
        raise ValueError("mi matrix size does not match the number of vectors")
    fused = sum(wi * vi for wi, vi in zip(w, views))
    return fused, w


def inter_modality_fuse(modality_embeddings: dict, mi_matrix):
    """Fuse per-modality vectors for one entity; returns (joint, weights map).

    modality_embeddings holds only the modalities present for the entity;
    mi_matrix rows follow its iteration order.
    """
    joint, w = intra_modality_fuse(list(modality_embeddings.values()), mi_matrix)
    return joint, dict(zip(modality_embeddings, w))


def _mi_weights(mi_matrix: Tensor, present) -> Tensor:
    """Complementarity weights on the tape, one softmax per row of present.

    mi_matrix is a symmetric (n, n) tensor with a zero diagonal; present is a
    0/1 array of shape (rows, n) marking the sources each row has.  A present
    source's logit is minus its MI summed over the other present sources; an
    absent source gets logit -1e30 and so weight exactly 0.  A zero matrix
    gives uniform weights over the present sources.
    """
    present = ad.Tensor(present)
    logits = ad.Tensor(ABSENT_LOGIT * (1.0 - present.data)) - present * (present @ mi_matrix)
    return ad.softmax(logits, axis=-1)


def _level_mi(weighting: str, pinned, dists, present) -> Tensor:
    """One level's (n, n) MI tensor for present, an (n, rows) mask.

    Zero under uniform weighting or with fewer than two sources; else the
    pinned matrix when there is one; else the kernel over dists(), which is
    called only then.
    """
    n = len(present)
    if weighting == "uniform" or n < 2:
        return ad.Tensor(np.zeros((n, n)))
    if pinned is not None:
        return ad.Tensor(pinned)
    return ad.mi_matrix(dists(), present, MI_EPS)


def _inter_weights(has: np.ndarray, w: np.ndarray) -> dict:
    """Inter weights per presence mask, from has (n_src, B) and w (B, n_src).

    Every position with the same sources has the same weights, so each mask
    keeps those of its first position, keyed by its present source indices.
    A mask is coded as one integer, source 0 the most significant bit, so
    the keys come in the order of the masks sorted as rows.
    """
    codes = np.left_shift(1, np.arange(len(has) - 1, -1, -1)) @ has
    _, first = np.unique(codes, return_index=True)
    return {tuple(np.flatnonzero(has[:, p]).tolist()): np.array(w[p, has[:, p]], dtype=np.float64)
            for p in first}


# ---------------------------------------------------------------------------
# the model


def _row_lookup(table: ModalityFeatureTable, n_entities: int) -> np.ndarray:
    """(n_entities,) feature row per entity id, -1 where the table has none."""
    ids = np.fromiter(table.rows.keys(), dtype=np.int64, count=len(table.rows))
    rows = np.fromiter(table.rows.values(), dtype=np.int64, count=len(table.rows))
    if ids.size and (ids.min() < 0 or ids.max() >= n_entities):
        raise ConfigError(f"modality {table.modality!r} has features for an entity "
                          f"outside [0, {n_entities})")
    lookup = np.full(n_entities, -1, dtype=np.int64)
    lookup[ids] = rows
    return lookup


def param_shapes(cfg: ModelConfig, n_entities: int, n_relations: int, modality_dims: dict):
    """Every parameter block's (name, shape), yielded lazily in the order
    its initial values are drawn."""
    d, k, c = cfg.embedding_dim, cfg.experts, cfg.mi_bins
    yield "entities", (n_entities, d)
    yield "rel_phases", (n_relations, d // 2)
    for m in cfg.modalities:
        yield from ((f"proj.{m}.w1", (modality_dims[m], d)), (f"proj.{m}.b1", (d,)),
                    (f"proj.{m}.w2", (d, d)), (f"proj.{m}.b2", (d,)))
        for i in range(k):
            yield from ((f"expert.{m}.{i}.w1", (d, d)), (f"expert.{m}.{i}.b1", (d,)),
                        (f"expert.{m}.{i}.w2", (d, d)), (f"expert.{m}.{i}.b2", (d,)),
                        (f"view_dist.{m}.{i}.w", (d, c)), (f"view_dist.{m}.{i}.b", (c,)))
        yield from ((f"modal_dist.{m}.w", (d, c)), (f"modal_dist.{m}.b", (c,)))
    yield from ((f"modal_dist.{STRUCTURE_MODALITY}.w", (d, c)),
                (f"modal_dist.{STRUCTURE_MODALITY}.b", (c,)))


def store_size(cfg: ModelConfig, n_entities: int, n_relations: int, modality_dims: dict) -> int:
    """The parameter store's element count, the sum of param_shapes' sizes,
    in closed form: it sizes a config before any block is named."""
    d, k, c = cfg.embedding_dim, cfg.experts, cfg.mi_bins
    head = d * c + c  # a distribution head
    expert = 2 * d * d + 2 * d + head  # two dense layers and a view head
    # per modality a projection, its experts and its head; structure's head
    return (n_entities * d + n_relations * (d // 2) + head
            + sum(modality_dims[m] * d + d * d + 2 * d + k * expert + head
                  for m in cfg.modalities))


class FusionModel:
    """All learnable blocks: structural table, relation phases, per-modality
    projection, expert bank, and distribution heads for the MI estimates."""

    def __init__(self, cfg: ModelConfig, n_entities: int, n_relations: int,
                 tables: dict, seed: int = 0):
        self._lay_out(cfg, n_entities, n_relations, tables)
        self._draw(seed)

    @classmethod
    def _unfilled(cls, cfg: ModelConfig, n_entities: int, n_relations: int,
                  tables: dict) -> "FusionModel":
        """A model whose parameters are all zero, for a caller that writes
        every block (a checkpoint load); no initial values are drawn."""
        model = cls.__new__(cls)
        model._lay_out(cfg, n_entities, n_relations, tables)
        return model

    def _lay_out(self, cfg, n_entities, n_relations, tables):
        cfg.validate(tables)
        self.cfg = cfg
        self.n_entities = n_entities
        self.n_relations = n_relations
        self.tables = {m: tables[m] for m in cfg.modalities}
        # structure first, then feature modalities in config order
        self.source_order = [STRUCTURE_MODALITY] + list(cfg.modalities)
        # entity id -> row in the modality's feature table, -1 where absent
        self.feature_rows = {m: _row_lookup(self.tables[m], n_entities) for m in cfg.modalities}
        self.params = self._zero_store()

    # -- parameters

    def _param_shapes(self):
        return param_shapes(self.cfg, self.n_entities, self.n_relations,
                            {m: t.dim for m, t in self.tables.items()})

    def _zero_store(self) -> ad.ParamStore:
        shapes, k = dict(self._param_shapes()), self.cfg.experts
        # the store holds each bank's members side by side, role by role; the
        # distribution heads come last, so that the blocks which train by
        # default form one run for Adam
        roles = ("w1", "b1", "w2", "b2")
        order, banks = ["entities", "rel_phases"], {}
        for m in self.cfg.modalities:
            order += [f"proj.{m}.{r}" for r in roles]
            banks.update({f"expert.{m}.*.{r}": [f"expert.{m}.{i}.{r}" for i in range(k)]
                          for r in roles})
        for m in self.cfg.modalities:
            banks.update({f"view_dist.{m}.*.{r}": [f"view_dist.{m}.{i}.{r}" for i in range(k)]
                          for r in ("w", "b")})
        banks.update({f"modal_dist.*.{r}": [f"modal_dist.{s}.{r}" for s in self.source_order]
                      for r in ("w", "b")})
        order += [n for names in banks.values() for n in names]
        return ad.ParamStore({n: shapes[n] for n in order}, banks)

    def _draw(self, seed: int):
        """Fill the store with its seeded initial values, in pieces, each
        value as one draw over the whole block would give it, so that no
        float64 copy of the entity table is ever held."""
        rng = np.random.Generator(np.random.PCG64(seed))
        for name, shape in self._param_shapes():
            if name == "rel_phases":
                low, high = 0.0, 2.0 * math.pi  # then pi - x: uniform (-pi, pi]
            else:
                fan_in, fan_out = (shape[0], shape[1]) if len(shape) == 2 else (1, shape[0])
                high = math.sqrt(6.0 / (fan_in + fan_out))
                low = -high
            out = self.params[name].data.reshape(-1)
            for lo in range(0, out.size, _INIT_CHUNK):
                draw = rng.uniform(low, high, size=min(_INIT_CHUNK, out.size - lo))
                out[lo:lo + _INIT_CHUNK] = math.pi - draw if name == "rel_phases" else draw

    @property
    def relation_phases(self) -> Tensor:
        return self.params["rel_phases"]

    # -- forward pieces

    def _project(self, m: str, feats: Tensor) -> Tensor:
        p = self.params
        hidden = ad.affine(feats, p[f"proj.{m}.w1"], p[f"proj.{m}.b1"], relu=True)
        return ad.affine(hidden, p[f"proj.{m}.w2"], p[f"proj.{m}.b2"])

    def _experts(self, m: str, v: Tensor) -> Tensor:
        """The modality's k expert views of v (n, d) as one (k, n, d) tensor."""
        bank = self.params.bank
        hidden = ad.affine(v, bank(f"expert.{m}.*.w1"), bank(f"expert.{m}.*.b1"), relu=True)
        return ad.affine(hidden, bank(f"expert.{m}.*.w2"), bank(f"expert.{m}.*.b2"))

    def _dists(self, heads: str, x: Tensor) -> Tensor:
        """Distributions of x (n, rows, d) over mi_bins: slice s through the
        s-th head of the heads bank."""
        bank = self.params.bank
        logits = ad.affine(x, bank(f"{heads}.*.w"), bank(f"{heads}.*.b"))
        return ad.softmax(logits, axis=-1)

    # -- fusion

    def fuse(self, entity_ids, mi: dict = None):
        """Joint embeddings for a batch of entity indices.

        Returns (joint (B, d) tensor, cache): the numpy MI matrices
        (mi_intra, mi_inter) and weights the call used.  With mi None the MI
        comes from this batch itself (the training path); passing the cache
        of an earlier call pins the weights to constants from its matrices,
        which evaluation and the frozen-weight gradient check rely on.
        """
        return self._fuse(entity_ids, mi)

    def _fuse(self, entity_ids, mi: dict = None):
        """fuse itself, for callers on any thread: a profiler that wraps
        fuse sees only the calls made through it."""
        entity_ids = np.asarray(entity_ids, dtype=np.int64)
        if entity_ids.ndim != 1 or entity_ids.size == 0:
            raise ValueError("fuse expects a non-empty 1-d array of entity indices")
        if entity_ids.min() < 0 or entity_ids.max() >= self.n_entities:
            raise ValueError(f"entity indices must lie in [0, {self.n_entities})")
        k, d = self.cfg.experts, self.cfg.embedding_dim
        self.params.sync()
        # the weights, and the heads and MI they come from, need a tape only
        # when gradients flow through them
        weighing = contextlib.nullcontext if self.cfg.grad_through_weights else ad.no_grad

        # (n_src, B): each position's row in each source, -1 where absent
        feat_rows = np.stack([entity_ids] + [self.feature_rows[m][entity_ids]
                                             for m in self.cfg.modalities])
        has = feat_rows >= 0

        # each source's rows, in batch order, where it is present
        placed = [ad.gather_rows(self.params["entities"], entity_ids)]
        mi_intra_np: dict = {}
        intra_w_np: dict = {}
        for s, m in enumerate(self.cfg.modalities, start=1):
            rows = np.flatnonzero(has[s])
            if rows.size == 0:
                mi_intra_np[m] = np.zeros((k, k))
                intra_w_np[m] = np.full(k, 1.0 / k)
                placed.append(ad.Tensor(np.zeros((0, d))))
                continue
            views = self._experts(m, self._project(
                m, ad.Tensor(self.tables[m].features[feat_rows[s, rows]])))
            with weighing():
                mat = _level_mi(
                    self.cfg.intra_weighting, None if mi is None else mi["mi_intra"][m],
                    lambda: self._dists(f"view_dist.{m}", views),
                    np.ones((k, rows.size)))
                w = _mi_weights(mat, np.ones((1, k)))
            mi_intra_np[m] = np.array(mat.data, dtype=np.float64)
            intra_w_np[m] = np.array(w.data[0], dtype=np.float64)
            placed.append(ad.weighted_sum(w, views))
            # off the tape nothing else holds them: free before the next bank
            del views

        # (n_src, B, d), zero where a source is absent
        sources = ad.place_rows(placed, has)
        del placed  # copied into sources
        with weighing():
            mat = _level_mi(
                self.cfg.inter_weighting, None if mi is None else mi["mi_inter"],
                lambda: self._dists("modal_dist", sources),
                has)
            w = _mi_weights(mat, has.T)
        joint = ad.weighted_sum(w, sources)

        cache = {
            "mi_intra": mi_intra_np,
            "mi_inter": np.array(mat.data, dtype=np.float64),
            "intra_weights": intra_w_np,
            "inter_weights": _inter_weights(has, w.data),
        }
        return joint, cache

    def mi_state(self, context_ids) -> dict:
        """The cache of a no-grad fuse call over a context entity set: its MI
        matrices, estimated from that batch, pin later fuse calls (mi=)."""
        with ad.no_grad():
            _, cache = self.fuse(np.asarray(context_ids))
        return cache

    def all_joint_embeddings(self, context_ids) -> np.ndarray:
        """Joint embeddings for every entity, MI estimated over context_ids.

        Under the pinned MI state each row depends only on its own entity,
        so fusing in blocks of at most _EMBED_BLOCK rows (parallel.spans)
        gives the rows of one fuse call over every entity, bit for bit, on
        whichever cores parallel.ordered_map runs the blocks.
        """
        mi = self.mi_state(context_ids)
        out = np.empty((self.n_entities, self.cfg.embedding_dim), dtype=np.float64)

        def embed(span):
            b0, b1 = span
            out[b0:b1] = self._fuse(np.arange(b0, b1), mi)[0].data

        with ad.no_grad():
            ordered_map(embed, spans(self.n_entities, _EMBED_BLOCK))
        return out
