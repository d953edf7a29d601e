"""Knowledge graph and modality feature loading.

Triple files are UTF-8 text, one ``head<TAB>relation<TAB>tail`` per line.
Modality feature files are ``entity_id<TAB>f1,f2,...,fd``.  Entity and
relation vocabularies are assigned by first appearance scanning train, then
valid, then test, so index assignment is reproducible from the files alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

# the learnable embedding table is addressed under this modality id
STRUCTURE_MODALITY = "structure"


class DataError(Exception):
    """Raised for missing, malformed, or inconsistent input data."""


@dataclass
class KnowledgeGraph:
    entities: list
    relations: list
    entity_index: dict
    relation_index: dict
    train: np.ndarray  # (n, 3) int64 rows of (head, relation, tail)
    valid: np.ndarray
    test: np.ndarray

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    def split(self, name: str) -> np.ndarray:
        try:
            return {"train": self.train, "valid": self.valid, "test": self.test}[name]
        except KeyError:
            raise DataError(f"unknown split {name!r}, expected train/valid/test")


@dataclass
class ModalityFeatureTable:
    modality: str
    dim: int
    features: np.ndarray  # (covered, dim) float32
    rows: dict  # entity index -> row in features
    coverage: float
    present: np.ndarray = field(default=None)  # sorted entity indices

    def has(self, entity: int) -> bool:
        return entity in self.rows

    def row(self, entity: int) -> np.ndarray:
        return self.features[self.rows[entity]]


class FilterIndex:
    """All known-true triples over every split.

    Membership runs on sorted int64 keys (h*R + r)*E + t, with E and R one
    past the largest entity and relation id indexed; the per-side sets back
    filtered evaluation.
    """

    def __init__(self, triples: np.ndarray):
        triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        if triples.min(initial=0) < 0:
            raise DataError("triple ids must be non-negative")
        self._n_ent = int(triples[:, [0, 2]].max(initial=-1)) + 1
        self._n_rel = int(triples[:, 1].max(initial=-1)) + 1
        if self._n_ent * self._n_ent * self._n_rel > np.iinfo(np.int64).max:
            raise DataError(
                f"{self._n_ent} entities and {self._n_rel} relations overflow int64 triple keys"
            )
        # the int64 maximum closes the sorted keys: no key or in-range probe
        # reaches it, so every searchsorted position is a valid index
        self._keys = np.append(np.unique(self._key(*triples.T)), np.iinfo(np.int64).max)
        tails: dict = {}
        heads: dict = {}
        for h, r, t in triples.tolist():
            tails.setdefault((h, r), set()).add(t)
            heads.setdefault((r, t), set()).add(h)
        self._tails = {k: frozenset(v) for k, v in tails.items()}
        self._heads = {k: frozenset(v) for k, v in heads.items()}

    def _key(self, h, r, t):
        return (h * self._n_rel + r) * self._n_ent + t

    def true_tails(self, head: int, relation: int) -> frozenset:
        return self._tails.get((head, relation), frozenset())

    def true_heads(self, relation: int, tail: int) -> frozenset:
        return self._heads.get((relation, tail), frozenset())

    def contains(self, head, relation, tail):
        """Whether each (head, relation, tail) is known true.

        Takes scalars (returns a bool) or broadcastable arrays (returns a
        bool array).  An id outside the indexed range is never a member.
        """
        h, r, t = (np.asarray(x, dtype=np.int64) for x in (head, relation, tail))
        # as uint64 a negative id is huge, so unsigned comparisons bound ids
        # from both sides
        inside = ((np.maximum(h.view(np.uint64), t.view(np.uint64)) < self._n_ent)
                  & (r.view(np.uint64) < self._n_rel))
        # ids outside the range are zeroed so that no key overflows or aliases
        key = self._key(h * inside, r * inside, t * inside)
        hit = inside & (self._keys[np.searchsorted(self._keys, key)] == key)
        return bool(hit) if hit.ndim == 0 else hit


def _read_triple_lines(path):
    if path is None:
        # a split may simply not exist; loaders treat it as empty
        return []
    if not os.path.exists(path):
        raise DataError(f"triple file not found: {path}")
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3 or any(p == "" for p in parts):
                raise DataError(f"{path}:{lineno}: malformed triple line {line!r}")
            out.append((lineno, parts[0], parts[1], parts[2]))
    return out


def build_filter_index(kg: KnowledgeGraph) -> FilterIndex:
    return FilterIndex(np.concatenate([kg.train, kg.valid, kg.test], axis=0))


def load_graph(train_path, valid_path, test_path, allow_unseen: bool = False) -> KnowledgeGraph:
    """Load the three splits and assign vocab indices by first appearance.

    valid_path and test_path may be None for graphs without those splits.
    No valid or test triple may also be a train triple.  Unless allow_unseen
    is set, every entity and relation in valid/test must also appear in train.
    """
    raw = {
        "train": _read_triple_lines(train_path),
        "valid": _read_triple_lines(valid_path),
        "test": _read_triple_lines(test_path),
    }
    paths = {"train": train_path, "valid": valid_path, "test": test_path}

    entity_index: dict = {}
    relation_index: dict = {}
    entities: list = []
    relations: list = []

    def intern(name, index, names):
        idx = index.get(name)
        if idx is None:
            idx = len(names)
            index[name] = idx
            names.append(name)
        return idx

    splits = {}
    in_train = set()
    for split in ("train", "valid", "test"):
        seen = set()
        rows = np.empty((len(raw[split]), 3), dtype=np.int64)
        for i, (lineno, h, r, t) in enumerate(raw[split]):
            key = (h, r, t)
            if key in seen:
                raise DataError(f"{paths[split]}:{lineno}: duplicate triple {key!r}")
            if key in in_train:
                # a held-out triple seen in training leaks the answer
                raise DataError(f"{paths[split]}:{lineno}: {split} triple {key!r} is also in train")
            seen.add(key)
            rows[i, 0] = intern(h, entity_index, entities)
            rows[i, 1] = intern(r, relation_index, relations)
            rows[i, 2] = intern(t, entity_index, entities)
        splits[split] = rows
        if split == "train":
            in_train = seen

    if not allow_unseen:
        train_ents = {h for _, h, _, t in raw["train"]} | {t for _, h, _, t in raw["train"]}
        train_rels = {r for _, _, r, _ in raw["train"]}
        unseen_e = sorted(
            {x for split in ("valid", "test") for _, h, r, t in raw[split] for x in (h, t)} - train_ents
        )
        unseen_r = sorted(
            {r for split in ("valid", "test") for _, _, r, _ in raw[split]} - train_rels
        )
        if unseen_e or unseen_r:
            raise DataError(
                "valid/test references unseen train vocabulary: "
                f"entities {unseen_e[:10]}, relations {unseen_r[:10]} "
                "(pass allow_unseen to permit)"
            )

    return KnowledgeGraph(
        entities=entities,
        relations=relations,
        entity_index=entity_index,
        relation_index=relation_index,
        train=splits["train"],
        valid=splits["valid"],
        test=splits["test"],
    )


def load_modality(path, modality: str, kg: KnowledgeGraph) -> ModalityFeatureTable:
    """Load per-entity feature vectors for one modality.

    Entities without a line stay absent; they are never zero-filled.  All
    lines must agree on the feature dimension.
    """
    if modality == STRUCTURE_MODALITY:
        raise DataError(f"modality id {STRUCTURE_MODALITY!r} is reserved")
    if not os.path.exists(path):
        raise DataError(f"modality file not found: {path}")

    vectors = []
    rows: dict = {}
    unknown = []
    dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected entity_id<TAB>values")
            name, blob = parts
            idx = kg.entity_index.get(name)
            if idx is None:
                unknown.append(name)
                continue
            try:
                vec = np.array([float(v) for v in blob.split(",")], dtype=np.float32)
            except ValueError:
                raise DataError(f"{path}:{lineno}: unparseable feature values")
            if vec.size == 0 or not np.all(np.isfinite(vec)):
                raise DataError(f"{path}:{lineno}: empty or non-finite feature vector")
            if dim is None:
                dim = int(vec.size)
            elif vec.size != dim:
                raise DataError(
                    f"{path}:{lineno}: feature dim {vec.size} != {dim} seen earlier"
                )
            if idx in rows:
                raise DataError(f"{path}:{lineno}: duplicate features for entity {name!r}")
            rows[idx] = len(vectors)
            vectors.append(vec)

    if unknown:
        raise DataError(
            f"{path}: features for entities outside the graph vocabulary: {sorted(set(unknown))[:10]}"
        )
    if dim is None:
        raise DataError(f"{path}: no feature rows found")

    features = np.stack(vectors).astype(np.float32)
    return ModalityFeatureTable(
        modality=modality,
        dim=dim,
        features=features,
        rows=rows,
        coverage=len(rows) / kg.n_entities,
        present=np.array(sorted(rows), dtype=np.int64),
    )


def dump_vocab(kg: KnowledgeGraph, out_dir: str):
    """Write index<TAB>name sidecar files for entities and relations."""
    os.makedirs(out_dir, exist_ok=True)
    for fname, names in (("entities.tsv", kg.entities), ("relations.tsv", kg.relations)):
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
            for i, name in enumerate(names):
                fh.write(f"{i}\t{name}\n")
    return os.path.join(out_dir, "entities.tsv"), os.path.join(out_dir, "relations.tsv")
