"""Seeded input generator for the benchmark workloads.

Writes triple TSVs, feature TSVs and a YAML config into one directory; the
program under test only ever sees these files.  The config names the data
files by bare file name, so the loader runs with the directory as its
working directory and the bytes written depend on the seed alone.

    python3 perfbench/gen.py --workload train-desk --seed 3 --out /tmp/x

Two graph families:

* desk: the clustered hub-and-slot graph of acceptance criterion c09
  (100 entities, 3 relations, two redundant fully covered cluster
  modalities), with the c09 "full" model and training settings.
* medium: a power-law graph over MEDIUM_ENTITIES entities and
  MEDIUM_RELATIONS relations.  A cover pass puts every entity and relation
  into train, so every feature row is in the vocabulary and valid/test
  never reference unseen names.  Two feature modalities (128 and 96 dims
  at 80% and 90% coverage) give fusion four coverage groups.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

import numpy as np
import yaml

WORKLOADS = ("train-desk", "train-medium", "eval-medium")

MEDIUM_ENTITIES = 15000
MEDIUM_RELATIONS = 200
MEDIUM_TRAIN = 8192  # one epoch is 8 steps of 1024 positives
MEDIUM_VALID = 64
MEDIUM_TEST = 160  # 320 ranking queries
MEDIUM_MODALITIES = (("img", 128, 0.8), ("txt", 96, 0.9))
MEDIUM_CLUSTERS = 64

# the eval-medium checkpoint comes from four steps over the first train triples
FIT_TRIPLES = 4096

CONFIG_NAME = "config.yaml"
CHECKPOINT_NAME = "checkpoint.mkgc"
FIT_REPORT_NAME = "fit.json"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@contextlib.contextmanager
def working_dir(path):
    prev = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(prev)


def clustered_graph(seed, n_clusters=10, n_slots=10, train_frac=0.35,
                    feature_noise=0.02, slot_steps=(1, 3), feature_scale=16.0,
                    distract=0.5):
    """The c09 clustered graph: split triple arrays plus two feature tables.

    Relation 0 points every entity at its cluster hub, relations 1.. advance
    the slot within the cluster.  Both tables hold the same scaled cluster
    one-hot with wrong-cluster contamination, plus fresh per-table noise.
    Returns ({split: (n, 3) int array}, {modality: (n, dim) float32}).
    """
    rng = np.random.default_rng(seed)
    triples = []
    for c in range(n_clusters):
        for s in range(n_slots):
            triples.append((c * n_slots + s, 0, c * n_slots))
    for j, step in enumerate(slot_steps):
        for c in range(n_clusters):
            for s in range(n_slots):
                triples.append((c * n_slots + s, 1 + j, c * n_slots + (s + step) % n_slots))
    triples = np.asarray(triples, dtype=np.int64)
    order = rng.permutation(len(triples))
    n_train = int(round(train_frac * len(triples)))
    n_valid = int(round(0.2 * len(triples)))
    splits = {
        "train": triples[order[:n_train]],
        "valid": triples[order[n_train:n_train + n_valid]],
        "test": triples[order[n_train + n_valid:]],
    }

    n = n_clusters * n_slots
    base = np.zeros((n, n_clusters), dtype=np.float32)
    for c in range(n_clusters):
        for s in range(n_slots):
            e = c * n_slots + s
            base[e, c] = feature_scale
            w = int(rng.integers(0, n_clusters - 1))
            w = w if w < c else w + 1
            base[e, w] = distract * feature_scale
    tables = {}
    for name in ("attr", "attr_dup"):
        noise = rng.normal(0.0, feature_noise * feature_scale, size=base.shape)
        tables[name] = (base + noise.astype(np.float32)).astype(np.float32)
    return splits, tables


def power_law_graph(seed, n_entities=MEDIUM_ENTITIES, n_relations=MEDIUM_RELATIONS,
                    n_train=MEDIUM_TRAIN, n_valid=MEDIUM_VALID, n_test=MEDIUM_TEST):
    """Triples whose endpoints and relations follow Zipf-like popularity.

    Returns {split: (n, 3) int array} and the entity cluster labels that
    seed the feature tables.
    """
    rng = np.random.default_rng([seed, 1])
    # cover pass: pair up a random permutation so every entity is in train
    perm = rng.permutation(n_entities)
    heads, tails = perm[0::2], perm[1::2]
    if len(tails) < len(heads):
        tails = np.append(tails, perm[0])
    cover_rel = np.arange(len(heads)) % n_relations
    cover = np.stack([heads, cover_rel, tails], axis=1)
    if len(cover) > n_train:
        raise ValueError(f"n_train={n_train} cannot cover {n_entities} entities")

    ent_w = 1.0 / (np.arange(n_entities) + 10.0) ** 0.8
    ent_p = np.empty(n_entities)
    ent_p[rng.permutation(n_entities)] = ent_w / ent_w.sum()
    rel_w = 1.0 / (np.arange(n_relations) + 1.0) ** 0.9
    rel_p = rel_w / rel_w.sum()

    seen = {tuple(t) for t in cover.tolist()}
    extra = []
    need = n_train - len(cover) + n_valid + n_test
    while len(extra) < need:
        m = 2 * (need - len(extra))
        hs = rng.choice(n_entities, size=m, p=ent_p)
        rs = rng.choice(n_relations, size=m, p=rel_p)
        ts = rng.choice(n_entities, size=m, p=ent_p)
        for t in zip(hs.tolist(), rs.tolist(), ts.tolist()):
            if t[0] != t[2] and t not in seen:
                seen.add(t)
                extra.append(t)
                if len(extra) == need:
                    break
    extra = np.asarray(extra, dtype=np.int64)
    train = np.concatenate([cover, extra[:n_train - len(cover)]])
    train = train[rng.permutation(len(train))]
    rest = extra[n_train - len(cover):]
    splits = {"train": train, "valid": rest[:n_valid], "test": rest[n_valid:]}
    clusters = rng.integers(0, MEDIUM_CLUSTERS, size=n_entities)
    return splits, clusters


def medium_tables(seed, clusters):
    """Feature matrices keyed by modality, with the covered entity ids.

    Features are a per-cluster centre plus noise, so the modalities carry
    shared, partly redundant signal.  Returns {modality: (ids, (n, dim))}.
    """
    rng = np.random.default_rng([seed, 2])
    n = len(clusters)
    out = {}
    for name, dim, coverage in MEDIUM_MODALITIES:
        centres = rng.normal(0.0, 1.0, size=(MEDIUM_CLUSTERS, dim))
        ids = np.sort(rng.permutation(n)[:int(round(coverage * n))])
        feats = centres[clusters[ids]] + rng.normal(0.0, 0.5, size=(len(ids), dim))
        out[name] = (ids, feats.astype(np.float32))
    return out


def _write_triples(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"e{h}\tr{r}\te{t}\n" for h, r, t in rows.tolist())


def _write_features(path, ids, feats):
    # 9 significant digits round-trip float32 exactly
    with open(path, "w", encoding="utf-8") as fh:
        for e, row in zip(ids.tolist(), feats.tolist()):
            fh.write(f"e{e}\t" + ",".join(f"{v:.9g}" for v in row) + "\n")


def _config(workload, seed, modalities):
    data = {"train": "train.tsv", "valid": "valid.tsv", "test": "test.tsv",
            "modalities": {m: f"{m}.tsv" for m in modalities}}
    if workload == "train-desk":
        # c09 builds this graph in memory, so valid/test entities missing
        # from train still have vocabulary rows and features
        data["allow_unseen"] = True
        model = {"embedding_dim": 16, "experts": 3, "mi_bins": 8}
        training = {"learning_rate": 0.1, "batch_size": 16, "max_epochs": 250,
                    "eval_every": 25, "patience": 10, "mi_ref_batch": 64}
        sampling = {"negatives_per_positive": 8}
    else:
        model = {"embedding_dim": 256, "experts": 3, "mi_bins": 16}
        training = {"learning_rate": 0.001, "batch_size": 1024, "max_epochs": 1,
                    "eval_every": 25, "patience": 10, "mi_ref_batch": 256}
        sampling = {"negatives_per_positive": 16}
    model["modalities"] = list(modalities)
    training["seed"] = seed
    # base2 makes the default delta2=0.8 reachable, so the hard class is used
    sampling.update({"margin": 6.0, "log_base": "base2"})
    return {"data": data, "model": model, "training": training, "sampling": sampling}


def generate(workload: str, seed: int, out_dir: str) -> str:
    """Write the inputs of one workload; returns the config file path."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    os.makedirs(out_dir, exist_ok=True)
    if workload == "train-desk":
        splits, feats = clustered_graph(seed)
        n = len(next(iter(feats.values())))
        tables = {m: (np.arange(n), f) for m, f in feats.items()}
    else:
        splits, clusters = power_law_graph(seed)
        tables = medium_tables(seed, clusters)
    for name, rows in splits.items():
        _write_triples(os.path.join(out_dir, f"{name}.tsv"), rows)
    for m, (ids, f) in tables.items():
        _write_features(os.path.join(out_dir, f"{m}.tsv"), ids, f)
    path = os.path.join(out_dir, CONFIG_NAME)
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(_config(workload, seed, list(tables)), fh, sort_keys=True)
    if workload == "eval-medium":
        fit_checkpoint(out_dir)
    return path


def fit_checkpoint(out_dir):
    """Train one epoch over the first FIT_TRIPLES train triples, save the
    checkpoint, and write the timing and loss history of that train() call.

    A briefly trained model spreads its scores more like a fitted one than
    the initial parameters do.  The call goes through the same public
    entry points the benchmark times, with tracing off.
    """
    if os.path.join(ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "src"))
    from moekgc import cli, trainer
    from pace import Pace

    with working_dir(out_dir):
        cfg = cli.load_config(CONFIG_NAME)
        kg, tables = cli.load_data(cfg)
    model_cfg, train_cfg, sampling_cfg = cli.section_configs(cfg)
    head = dataclasses.replace(kg, train=kg.train[:FIT_TRIPLES])
    with Pace() as pace:
        result, busy = pace.call(
            lambda: trainer.train(head, tables, model_cfg, train_cfg, sampling_cfg))
    trainer.save_checkpoint(os.path.join(out_dir, CHECKPOINT_NAME), result.model)
    report = {"positives": len(head.train) * len(result.history),
              "train_s": pace.scale(busy), "busy_s": busy,
              "steps": len(result.history) * -(-len(head.train) // train_cfg.batch_size),
              "history": result.history}
    with open(os.path.join(out_dir, FIT_REPORT_NAME), "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    print(generate(args.workload, args.seed, args.out))


if __name__ == "__main__":
    main()
