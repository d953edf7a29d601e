"""Entity embedding fusion guided by estimated mutual information.

Each entity's joint embedding is assembled from its available sources: the
learnable structural table plus a projected vector per feature modality.
Every feature modality runs a two-layer projection into embedding space and
then a bank of independent expert networks; expert views are averaged with
weights from a softmax over negative mutual-information row sums, so views
carrying information the others already have are downweighted.  The same
weighting fuses the per-modality vectors (structure included) into the final
joint embedding.

Mutual information between two projected distributions is estimated once per
batch: the joint table is the batch mean of outer products of the paired
softmax vectors, marginals are its row and column sums.  Fusion weights are
treated as constants by default (no gradient flows through the estimates
into the weights); ``grad_through_weights`` switches that on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ConfigError
from .kgdata import STRUCTURE_MODALITY, ModalityFeatureTable

# joint-table entries below this threshold contribute nothing to the estimate
MI_EPS = 1e-12


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

    def validate(self):
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
    """Differentiable MI between two (batch, bins) distribution tensors."""
    if x.shape != y.shape or x.ndim != 2:
        raise ValueError(f"expected matching (batch, bins) shapes, got {x.shape} and {y.shape}")
    n = x.shape[0]
    joint = ad.transpose(x) @ y * (1.0 / n)
    px = joint.sum(axis=1, keepdims=True)
    py = joint.sum(axis=0, keepdims=True)
    mask = ad.Tensor((joint.data >= MI_EPS).astype(joint.data.dtype))
    log_ratio = (
        ad.clamp_min(joint, MI_EPS).log()
        - ad.clamp_min(px, MI_EPS).log()
        - ad.clamp_min(py, MI_EPS).log()
    )
    return ad.clamp_min((mask * joint * log_ratio).sum(), 0.0)


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


def _pair_mi_weights(pair_mi: dict, members) -> Tensor:
    """Complementarity weights on the tape: softmax over negated MI row sums
    among members, with pair_mi mapping (a, b), a < b, to an MI tensor."""
    neg_rows = []
    for a in members:
        total = ad.Tensor(0.0)
        for b in members:
            if b != a:
                total = total + pair_mi[(min(a, b), max(a, b))]
        neg_rows.append(-total)
    return ad.softmax(ad.stack_scalars(neg_rows))


# ---------------------------------------------------------------------------
# the model


@dataclass
class MIState:
    """Batch-level MI estimates reused across entities (and at evaluation)."""

    intra: dict  # modality -> (experts, experts) float array
    inter: np.ndarray  # (n_sources, n_sources), order = model.source_order


class FusionModel:
    """All learnable blocks: structural table, relation phases, per-modality
    projection, expert bank, and distribution heads for the MI estimates."""

    def __init__(self, cfg: ModelConfig, n_entities: int, n_relations: int,
                 tables: dict, seed: int = 0):
        cfg.validate()
        for m in cfg.modalities:
            if m not in tables:
                raise ConfigError(f"modality {m!r} has no loaded feature table")
        self.cfg = cfg
        self.n_entities = n_entities
        self.n_relations = n_relations
        self.tables = {m: tables[m] for m in cfg.modalities}
        # structure first, then feature modalities in config order
        self.source_order = [STRUCTURE_MODALITY] + list(cfg.modalities)
        self.params: dict = {}
        self._init_params(seed)

    # -- parameters

    def _add(self, name: str, rng, shape, phases: bool = False):
        if phases:
            # uniform (-pi, pi]
            data = math.pi - rng.uniform(0.0, 2.0 * math.pi, size=shape)
        else:
            fan_in, fan_out = (shape[0], shape[1]) if len(shape) == 2 else (1, shape[0])
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            data = rng.uniform(-limit, limit, size=shape)
        self.params[name] = ad.parameter(data)

    def _init_params(self, seed: int):
        d, k, c = self.cfg.embedding_dim, self.cfg.experts, self.cfg.mi_bins
        rng = np.random.Generator(np.random.PCG64(seed))
        self._add("entities", rng, (self.n_entities, d))
        self._add("rel_phases", rng, (self.n_relations, d // 2), phases=True)
        for m in self.cfg.modalities:
            dim_m = self.tables[m].dim
            self._add(f"proj.{m}.w1", rng, (dim_m, d))
            self._add(f"proj.{m}.b1", rng, (d,))
            self._add(f"proj.{m}.w2", rng, (d, d))
            self._add(f"proj.{m}.b2", rng, (d,))
            for i in range(k):
                self._add(f"expert.{m}.{i}.w1", rng, (d, d))
                self._add(f"expert.{m}.{i}.b1", rng, (d,))
                self._add(f"expert.{m}.{i}.w2", rng, (d, d))
                self._add(f"expert.{m}.{i}.b2", rng, (d,))
                self._add(f"view_dist.{m}.{i}.w", rng, (d, c))
                self._add(f"view_dist.{m}.{i}.b", rng, (c,))
            self._add(f"modal_dist.{m}.w", rng, (d, c))
            self._add(f"modal_dist.{m}.b", rng, (c,))
        self._add(f"modal_dist.{STRUCTURE_MODALITY}.w", rng, (d, c))
        self._add(f"modal_dist.{STRUCTURE_MODALITY}.b", rng, (c,))

    def parameters(self) -> dict:
        return self.params

    @property
    def relation_phases(self) -> Tensor:
        return self.params["rel_phases"]

    # -- forward pieces

    def _project(self, m: str, feats: Tensor) -> Tensor:
        p = self.params
        hidden = ad.relu(feats @ p[f"proj.{m}.w1"] + p[f"proj.{m}.b1"])
        return hidden @ p[f"proj.{m}.w2"] + p[f"proj.{m}.b2"]

    def _expert(self, m: str, i: int, v: Tensor) -> Tensor:
        p = self.params
        hidden = ad.relu(v @ p[f"expert.{m}.{i}.w1"] + p[f"expert.{m}.{i}.b1"])
        return hidden @ p[f"expert.{m}.{i}.w2"] + p[f"expert.{m}.{i}.b2"]

    def _view_dist(self, m: str, i: int, v: Tensor) -> Tensor:
        p = self.params
        return ad.softmax(v @ p[f"view_dist.{m}.{i}.w"] + p[f"view_dist.{m}.{i}.b"], axis=-1)

    def _modal_dist(self, m: str, v: Tensor) -> Tensor:
        p = self.params
        return ad.softmax(v @ p[f"modal_dist.{m}.w"] + p[f"modal_dist.{m}.b"], axis=-1)

    def _maybe_stop(self, w: Tensor) -> Tensor:
        return w if self.cfg.grad_through_weights else w.detach()

    def _uniform(self, n: int) -> Tensor:
        return ad.Tensor(np.full(n, 1.0 / n))

    # -- fusion

    def fuse(self, entity_ids, mi: MIState = None):
        """Joint embeddings for a batch of entity indices.

        When mi is None the MI estimates come from this batch itself (the
        training path); passing a precomputed MIState pins the fusion weights
        to constants, which evaluation and the frozen-weight gradient check
        rely on.  Returns (joint (B, d) tensor, cache dict with the numpy MI
        matrices and weights actually used).
        """
        entity_ids = np.asarray(entity_ids, dtype=np.int64)
        if entity_ids.ndim != 1 or entity_ids.size == 0:
            raise ValueError("fuse expects a non-empty 1-d array of entity indices")
        B = entity_ids.size
        k = self.cfg.experts
        estimate = mi is None

        # positions in the batch covered by each source; structure covers all
        rows: dict = {STRUCTURE_MODALITY: np.arange(B)}
        row_of: dict = {STRUCTURE_MODALITY: {p: p for p in range(B)}}
        for m in self.cfg.modalities:
            table = self.tables[m]
            pos = [p for p, e in enumerate(entity_ids) if table.has(int(e))]
            rows[m] = np.asarray(pos, dtype=np.int64)
            row_of[m] = {p: j for j, p in enumerate(pos)}

        fused_by_source: dict = {STRUCTURE_MODALITY: ad.gather_rows(self.params["entities"], entity_ids)}
        mi_intra_np: dict = {}
        intra_w_np: dict = {}

        for m in self.cfg.modalities:
            if rows[m].size == 0:
                mi_intra_np[m] = np.zeros((k, k))
                intra_w_np[m] = np.full(k, 1.0 / k)
                continue
            feats = np.stack([self.tables[m].row(int(entity_ids[p])) for p in rows[m]])
            v = self._project(m, ad.Tensor(feats))
            views = [self._expert(m, i, v) for i in range(k)]

            if self.cfg.intra_weighting == "uniform" or k == 1:
                # no MI needed when every view gets the same weight
                w = self._uniform(k)
                mi_intra_np[m] = np.zeros((k, k))
            elif estimate:
                dists = [self._view_dist(m, i, views[i]) for i in range(k)]
                pair = {}
                for i in range(k):
                    for j in range(i + 1, k):
                        pair[(i, j)] = batch_mutual_information(dists[i], dists[j])
                w = self._maybe_stop(_pair_mi_weights(pair, range(k)))
                mat = np.zeros((k, k))
                for (i, j), t in pair.items():
                    mat[i, j] = mat[j, i] = float(t.data)
                mi_intra_np[m] = mat
            else:
                mat = np.asarray(mi.intra[m], dtype=np.float64)
                mi_intra_np[m] = mat
                w = ad.Tensor(complementarity_weights(mat))

            intra_w_np[m] = np.asarray(w.data, dtype=np.float64).copy()
            fused = ad.element(w, 0) * views[0]
            for i in range(1, k):
                fused = fused + ad.element(w, i) * views[i]
            fused_by_source[m] = fused

        # distributions over the fused per-source vectors, for the inter MI
        n_src = len(self.source_order)
        if estimate:
            inter_mat = np.zeros((n_src, n_src))
            inter_pair: dict = {}
            modal_dists: dict = {}
            for m in self.source_order:
                if rows[m].size > 0 and m in fused_by_source:
                    modal_dists[m] = self._modal_dist(m, fused_by_source[m])
            for a in range(n_src):
                for b in range(a + 1, n_src):
                    ma, mb = self.source_order[a], self.source_order[b]
                    if ma not in modal_dists or mb not in modal_dists:
                        inter_pair[(a, b)] = ad.Tensor(0.0)
                        continue
                    shared = [p for p in range(B) if p in row_of[ma] and p in row_of[mb]]
                    if not shared:
                        inter_pair[(a, b)] = ad.Tensor(0.0)
                        continue
                    xa = ad.gather_rows(modal_dists[ma], [row_of[ma][p] for p in shared])
                    xb = ad.gather_rows(modal_dists[mb], [row_of[mb][p] for p in shared])
                    inter_pair[(a, b)] = batch_mutual_information(xa, xb)
                    inter_mat[a, b] = inter_mat[b, a] = float(inter_pair[(a, b)].data)
        else:
            inter_mat = np.asarray(mi.inter, dtype=np.float64)
            inter_pair = None

        # group batch positions by which sources they actually have
        groups: dict = {}
        for p in range(B):
            mask = tuple(a for a, m in enumerate(self.source_order) if p in row_of[m])
            groups.setdefault(mask, []).append(p)

        inter_w_np: dict = {}
        joint = None
        for mask, positions in groups.items():
            if self.cfg.inter_weighting == "uniform":
                w = self._uniform(len(mask))
            elif estimate:
                w = self._maybe_stop(_pair_mi_weights(inter_pair, mask))
            else:
                sub = inter_mat[np.ix_(mask, mask)]
                w = ad.Tensor(complementarity_weights(sub))
            inter_w_np[mask] = np.asarray(w.data, dtype=np.float64).copy()

            part = None
            for k_i, a in enumerate(mask):
                m = self.source_order[a]
                sel = ad.gather_rows(fused_by_source[m], [row_of[m][p] for p in positions])
                term = ad.element(w, k_i) * sel
                part = term if part is None else part + term
            placed = ad.scatter_rows(part, positions, B)
            joint = placed if joint is None else joint + placed

        cache = {
            "mi_intra": mi_intra_np,
            "mi_inter": inter_mat,
            "intra_weights": intra_w_np,
            "inter_weights": inter_w_np,
            "source_order": list(self.source_order),
        }
        return joint, cache

    def mi_state(self, context_ids) -> MIState:
        """Estimate the batch MI matrices over a context entity set."""
        with ad.no_grad():
            _, cache = self.fuse(np.asarray(context_ids))
        return MIState(intra=cache["mi_intra"], inter=cache["mi_inter"])

    def all_joint_embeddings(self, context_ids) -> np.ndarray:
        """Joint embeddings for every entity, MI estimated over context_ids."""
        mi = self.mi_state(context_ids)
        with ad.no_grad():
            joint, _ = self.fuse(np.arange(self.n_entities), mi)
        return np.asarray(joint.data, dtype=np.float64)
