"""Knowledge graph and modality feature loading.

Triple files are UTF-8 text, one ``head<TAB>relation<TAB>tail`` per line.
Modality feature files are ``entity_id<TAB>f1,f2,...,fd``.  Entity and
relation vocabularies are assigned by first appearance scanning train, then
valid, then test, so index assignment is reproducible from the files alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .files import atomic_write

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


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct keys in increasing order, np.unique's result from one
    sort and a mask: numpy 2.4's np.unique takes over ten times as long on
    8400 int64 keys."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


class FilterIndex:
    """All known-true triples over every split, as two sorted int64 key arrays.

    Tail keys are (h*R + r)*E + t and head keys (r*E + t)*E + h, with E and R
    one past the largest entity and relation id indexed.  The tails of one
    (h, r) pair are the contiguous run of tail keys in [(h*R + r)*E,
    (h*R + r + 1)*E), the heads of one (r, t) pair likewise a run of head
    keys, so every lookup is a pair of binary searches.
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
        h, r, t = triples.T
        tail_keys = _sorted_unique(self._tail_key(h, r, t))
        self._head_keys = _sorted_unique(self._head_key(h, r, t))
        # the int64 maximum closes the tail keys: no key or in-range probe
        # reaches it, so every searchsorted position in contains is an index
        self._tail_keys = np.append(tail_keys, np.iinfo(np.int64).max)
        # the answer each key names, tail keys then head keys, so that the
        # answers of one run are one slice
        self._ids = np.concatenate([tail_keys, self._head_keys]) % max(self._n_ent, 1)

    def _tail_key(self, h, r, t):
        return (h * self._n_rel + r) * self._n_ent + t

    def _head_key(self, h, r, t):
        return (r * self._n_ent + t) * self._n_ent + h

    def _inside(self, ent, rel):
        """Whether entity ids ent and relation ids rel are in range.  As
        uint64 a negative id is huge, so unsigned comparisons bound ids from
        both sides."""
        return (ent.view(np.uint64) < self._n_ent) & (rel.view(np.uint64) < self._n_rel)

    def answers(self, fixed, relation, tails):
        """Known answers of many queries in one call, as (offsets, ids).

        Query i asks for the tails of (fixed[i], relation[i]) where tails[i]
        is true, else for the heads of (relation[i], fixed[i]); the three
        arguments broadcast against each other.  Its answers are
        ids[offsets[i]:offsets[i + 1]] in increasing order; a query with an
        id outside the indexed range has none.
        """
        f, r, side = (np.ravel(x) for x in np.broadcast_arrays(
            np.asarray(fixed, dtype=np.int64), np.asarray(relation, dtype=np.int64),
            np.asarray(tails, dtype=bool)))
        inside = self._inside(f, r)
        # ids outside the range are zeroed so that no key overflows or aliases
        f, r = f * inside, r * inside
        first = np.where(side, self._tail_key(f, r, 0), self._head_key(0, r, f))
        # run bounds as positions in _ids, where head keys follow tail keys
        lo, hi = np.empty_like(first), np.empty_like(first)
        for keys, sel, shift in ((self._tail_keys, side, 0),
                                 (self._head_keys, ~side, len(self._tail_keys) - 1)):
            lo[sel] = np.searchsorted(keys, first[sel]) + shift
            hi[sel] = np.searchsorted(keys, first[sel] + self._n_ent) + shift
        counts = np.where(inside, hi - lo, 0)
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        at = np.arange(offsets[-1]) + np.repeat(lo - offsets[:-1], counts)
        return offsets, self._ids[at]

    def true_tails(self, head: int, relation: int) -> frozenset:
        return frozenset(self.answers(head, relation, True)[1].tolist())

    def true_heads(self, relation: int, tail: int) -> frozenset:
        return frozenset(self.answers(tail, relation, False)[1].tolist())

    def contains(self, head, relation, tail):
        """Whether each (head, relation, tail) is known true.

        Takes scalars (returns a bool) or broadcastable arrays (returns a
        bool array).  An id outside the indexed range is never a member.
        """
        h, r, t = (np.asarray(x, dtype=np.int64) for x in (head, relation, tail))
        inside = self._inside(np.maximum(h.view(np.uint64), t.view(np.uint64)), r)
        # ids outside the range are zeroed so that no key overflows or aliases
        key = self._tail_key(h * inside, r * inside, t * inside)
        hit = inside & (self._tail_keys[np.searchsorted(self._tail_keys, key)] == key)
        return bool(hit) if hit.ndim == 0 else hit


def _lines(path, what: str):
    """(line number, text) of each non-empty line of a UTF-8 text file; a
    DataError naming the file when it is missing, unreadable or not UTF-8."""
    if not os.path.exists(path):
        raise DataError(f"{what} file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n").rstrip("\r")
                if line:
                    yield lineno, line
    except UnicodeDecodeError:
        raise DataError(f"{path}: {what} file is not UTF-8 text") from None
    except OSError as e:
        raise DataError(f"{path}: cannot read {what} file ({e.strerror})") from None


def _read_triple_lines(path):
    if path is None:
        # a split may simply not exist; loaders treat it as empty
        return []
    out = []
    for lineno, line in _lines(path, "triple"):
        parts = line.split("\t")
        if len(parts) != 3 or any(p == "" for p in parts):
            raise DataError(f"{path}:{lineno}: malformed triple line {line!r}")
        out.append((lineno, parts[0], parts[1], parts[2]))
    return out


def build_filter_index(kg: KnowledgeGraph) -> FilterIndex:
    return FilterIndex(np.concatenate([kg.train, kg.valid, kg.test], axis=0))


def load_graph(train_path, valid_path, test_path, allow_unseen: bool = False) -> KnowledgeGraph:
    """Load the three splits and assign vocab indices by first appearance.

    valid_path and test_path may be None for graphs without those splits,
    and those splits may be empty; the train split must hold a triple.  No
    valid or test triple may also be a train triple.  Unless allow_unseen is
    set, every entity and relation in valid/test must also appear in train.
    """
    raw = {
        "train": _read_triple_lines(train_path),
        "valid": _read_triple_lines(valid_path),
        "test": _read_triple_lines(test_path),
    }
    if not raw["train"]:
        raise DataError(f"{train_path}: the train split has no triples")
    paths = {"train": train_path, "valid": valid_path, "test": test_path}

    # an id is the index's length when a name first appears; a dict keeps
    # insertion order, so list(index) is the vocabulary by id
    entity_index: dict = {}
    relation_index: dict = {}
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
            rows[i, 0] = entity_index.setdefault(h, len(entity_index))
            rows[i, 1] = relation_index.setdefault(r, len(relation_index))
            rows[i, 2] = entity_index.setdefault(t, len(entity_index))
        splits[split] = rows
        if split == "train":
            in_train = seen
            n_train_entities, n_train_relations = len(entity_index), len(relation_index)

    entities, relations = list(entity_index), list(relation_index)
    if not allow_unseen:
        # the names indexed after train are the ones train never saw
        unseen_e = sorted(entities[n_train_entities:])
        unseen_r = sorted(relations[n_train_relations:])
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
    lines must agree on the feature dimension.  Values are parsed by numpy's
    C reader; a file it does not take as it stands is parsed again line by
    line, which accepts what Python's float() accepts and names the first
    faulty line.
    """
    if modality == STRUCTURE_MODALITY:
        raise DataError(f"modality id {STRUCTURE_MODALITY!r} is reserved")
    features, rows = _parse_chunked(path, kg) or _parse_per_line(path, kg)
    return ModalityFeatureTable(
        modality=modality,
        dim=features.shape[1],
        features=features,
        rows=rows,
        coverage=len(rows) / kg.n_entities,
    )


# feature lines per np.loadtxt call: a chunk's float64 result (1 MB at 128
# values) and its line strings stay small next to the float32 table, where
# one call over a medium file would hold a float64 copy of all of it
_PARSE_CHUNK = 1024


def _parse_chunked(path, kg: KnowledgeGraph):
    """(features, rows) of a feature file by np.loadtxt over chunks of
    _PARSE_CHUNK lines, or None when anything is off: a read error, a wrong
    tab count, an unknown, duplicate or empty entry, no rows, a character
    outside plain decimal notation, a value the reader rejects, a changed
    dimension or a non-finite value.  The caller
    then runs the per-line parser, which reports the first fault exactly."""
    index = kg.entity_index
    rows: dict = {}
    blobs, chunks = [], []
    try:
        for _, line in _lines(path, "modality"):
            name, _, blob = line.partition("\t")
            idx = index.get(name)
            # a second tab fails the character check in _parse_values
            if not blob or idx is None or idx in rows:
                return None
            rows[idx] = len(rows)
            blobs.append(blob)
            if len(blobs) == _PARSE_CHUNK:
                chunks.append(_parse_values(blobs))
                blobs = []
        if blobs:
            chunks.append(_parse_values(blobs))
    except (DataError, ValueError):
        return None
    if not chunks or len({c.shape[1] for c in chunks}) != 1:
        return None
    return np.concatenate(chunks) if len(chunks) > 1 else chunks[0], rows


# the characters of plain decimal notation, on which np.loadtxt and float()
# agree by construction: both strip the spaces and hand the same ASCII text
# to CPython's string-to-double.  Outside it they part: float() takes '1_0'
# and Unicode digits, np.loadtxt strips control characters such as '\x1c'
# that float() rejects.  Letters other than the exponent's are left out, so
# 'nan' and 'inf' go to the per-line parser, which rejects them.
_PLAIN_DECIMAL = b"0123456789+-.eE ,"


def _parse_values(blobs) -> np.ndarray:
    """The float32 rows of comma-separated value lists, each value rounded
    from its float64 parse as float() gives it; ValueError when a list holds
    a character outside plain decimal notation, the reader rejects a value
    or skips a line, or a value is not finite in float32."""
    text = "".join(blobs)
    if not text.isascii() or text.encode("ascii").translate(None, _PLAIN_DECIMAL):
        raise ValueError("a character outside plain decimal notation")
    values = np.loadtxt(blobs, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    if values.shape[0] != len(blobs):
        raise ValueError("the reader skipped a line")
    with np.errstate(over="ignore"):
        values = values.astype(np.float32)
    if not np.isfinite(values).all():
        raise ValueError("a non-finite value")
    return values


def _parse_per_line(path, kg: KnowledgeGraph):
    """(features, rows) of a feature file, one float() per value; the
    DataError of its first faulty line, by file and line number."""
    vectors = []
    rows: dict = {}
    unknown = []
    dim = None
    for lineno, line in _lines(path, "modality"):
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
    return np.stack(vectors).astype(np.float32), rows


def dump_vocab(kg: KnowledgeGraph, out_dir: str):
    """Write index<TAB>name sidecar files for entities and relations.

    Both files are written before either replaces what was there, so a
    failed dump leaves neither changed (files.atomic_write has the one
    exception)."""
    os.makedirs(out_dir, exist_ok=True)
    paths = os.path.join(out_dir, "entities.tsv"), os.path.join(out_dir, "relations.tsv")
    with atomic_write(*paths, mode="w", encoding="utf-8") as handles:
        for fh, names in zip(handles, (kg.entities, kg.relations)):
            for i, name in enumerate(names):
                fh.write(f"{i}\t{name}\n")
    return paths
