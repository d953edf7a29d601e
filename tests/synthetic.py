"""Synthetic graphs with planted structure for training-level tests.

Two families:

ring_graph: entities sit on a ring and every relation advances it by a
fixed number of steps, so each relation is exactly a rotation.  A small
fraction of tails is jittered by one step to act as label noise.

clustered_graph: entities are (cluster, slot) pairs.  Relation 0 points
every entity at its cluster's hub (slot 0); the remaining relations permute
the slot within the cluster.  Two feature modalities carry the same scaled
cluster one-hot, contaminated by a fraction of a random wrong cluster's
one-hot (identical in both tables, so the modalities are redundant with
each other), plus small per-table noise.  The hub relation is nearly free
for the features, which is what lets the fused model beat structure-only
when the train split is sparse; the contamination leaks spurious cluster
similarity into slot-level ranking, and because it lives inside the signal
subspace a projection cannot strip it, only down-weighting the modality
helps.
"""

import numpy as np

from moekgc.kgdata import KnowledgeGraph, ModalityFeatureTable


def _kg_from_triples(triples, n_entities, n_relations, rng,
                     train_frac=0.8, valid_frac=0.1) -> KnowledgeGraph:
    triples = np.asarray(triples, dtype=np.int64)
    order = rng.permutation(len(triples))
    n_train = int(round(train_frac * len(triples)))
    n_valid = int(round(valid_frac * len(triples)))
    ents = [f"e{i}" for i in range(n_entities)]
    rels = [f"r{i}" for i in range(n_relations)]
    return KnowledgeGraph(
        entities=ents, relations=rels,
        entity_index={n: i for i, n in enumerate(ents)},
        relation_index={n: i for i, n in enumerate(rels)},
        train=triples[order[:n_train]],
        valid=triples[order[n_train:n_train + n_valid]],
        test=triples[order[n_train + n_valid:]],
    )


def ring_graph(n_entities=50, steps=(1, 7, 18), seed=0,
               flip_fraction=0.05, train_frac=0.8) -> KnowledgeGraph:
    """Ring of entities; relation r moves steps[r] positions clockwise.

    flip_fraction of the tails are shifted one extra step either way.
    """
    rng = np.random.default_rng(seed)
    triples = []
    for r, k in enumerate(steps):
        for e in range(n_entities):
            t = (e + k) % n_entities
            if rng.uniform() < flip_fraction:
                t = (t + rng.choice([-1, 1])) % n_entities
            triples.append((e, r, t))
    return _kg_from_triples(triples, n_entities, len(steps), rng,
                            train_frac=train_frac, valid_frac=0.1)


def clustered_graph(n_clusters=10, n_slots=10, seed=0, train_frac=0.35,
                    feature_noise=0.02, slot_steps=(1, 3), feature_scale=16.0,
                    distract=0.5):
    """Hub-and-slots cluster graph plus two redundant cluster modalities.

    Relation 0 maps every entity to its cluster hub; relations 1.. advance
    the slot by slot_steps[j].  Hub queries only need the coarse cluster
    location (the features hand it over), slot queries need per-entity
    structure.  Both feature tables share base + wrong-cluster
    contamination and differ by fresh noise.  Returns (kg, tables) with
    modalities "attr" and "attr_dup".
    """
    rng = np.random.default_rng(seed)
    ent = lambda c, s: c * n_slots + s
    triples = []
    for c in range(n_clusters):
        for s in range(n_slots):
            triples.append((ent(c, s), 0, ent(c, 0)))
    for j, step in enumerate(slot_steps):
        for c in range(n_clusters):
            for s in range(n_slots):
                triples.append((ent(c, s), 1 + j, ent(c, (s + step) % n_slots)))
    n = n_clusters * n_slots
    kg = _kg_from_triples(triples, n, 1 + len(slot_steps), rng,
                          train_frac=train_frac, valid_frac=0.2)

    base = np.zeros((n, n_clusters), dtype=np.float32)
    for c in range(n_clusters):
        for s in range(n_slots):
            e = ent(c, s)
            base[e, c] = feature_scale
            # contamination stays inside the one-hot subspace on purpose
            w = int(rng.integers(0, n_clusters - 1))
            w = w if w < c else w + 1
            base[e, w] = distract * feature_scale

    def table(name):
        feats = base + rng.normal(0.0, feature_noise * feature_scale,
                                  size=base.shape).astype(np.float32)
        return ModalityFeatureTable(
            modality=name, dim=n_clusters, features=feats.astype(np.float32),
            rows={e: e for e in range(n)}, coverage=1.0,
        )

    return kg, {"attr": table("attr"), "attr_dup": table("attr_dup")}
