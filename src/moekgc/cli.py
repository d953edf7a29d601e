"""Command line front end.

Subcommands: train, eval, predict, sample-stats, vocab-dump.  Settings come
from a YAML file with sections data / model / training / sampling; every
scalar key is also exposed as a --section-key flag (underscores become
dashes) that overrides the file.  Unknown sections or keys are rejected.

Exit codes: 0 ok, 2 bad configuration, 3 bad input data, 4 checkpoint
format version mismatch, 1 anything else that failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np
import yaml

from .config import ConfigError
from .fusion import FusionModel, ModelConfig
from .kgdata import (
    DataError,
    build_filter_index,
    dump_vocab,
    load_graph,
    load_modality,
)
from .sampling import (
    NegativeSamplingConfig,
    SamplingError,
    annotate,
    corrupt,
    derived_rng,
    sample_stats,
)
from .scoring import score, score_candidates
from .trainer import (
    CheckpointError,
    CheckpointVersionError,
    TrainConfig,
    TrainingError,
    _mean_rank,
    evaluate,
    load_checkpoint,
    mi_context_ids,
    save_checkpoint,
    train,
)

RUNS_ENV = "MOEKGC_RUNS"

_MAPPING = object()  # sentinel: file-only mapping key, no flag generated


def _bool(text) -> bool:
    if isinstance(text, bool):
        return text
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _str_list(text) -> list:
    if isinstance(text, list):
        return [str(x) for x in text]
    return [part for part in str(text).split(",") if part]


# section -> key -> (converter, default); converters also normalize YAML values
SCHEMA = {
    "data": {
        "train": (str, None),
        "valid": (str, None),
        "test": (str, None),
        "allow_unseen": (_bool, False),
        "modalities": (_MAPPING, {}),  # modality name -> feature file path
    },
    "model": {
        "embedding_dim": (int, 256),
        "experts": (int, 3),
        "mi_bins": (int, 16),
        "modalities": (_str_list, []),
        "norm": (str, "l2"),
        "grad_through_weights": (_bool, False),
        "intra_weighting": (str, "mi"),
        "inter_weighting": (str, "mi"),
    },
    "training": {
        "learning_rate": (float, 1e-4),
        "batch_size": (int, 1024),
        "max_epochs": (int, 1000),
        "eval_every": (int, 25),
        "patience": (int, 10),
        "seed": (int, 0),
        "mi_ref_batch": (int, 256),
    },
    "sampling": {
        "negatives_per_positive": (int, 16),
        "margin": (float, 6.0),
        "delta1": (float, 0.2),
        "delta2": (float, 0.8),
        "lambda_easy": (float, 0.5),
        "lambda_ambiguous": (float, 1.5),
        "lambda_hard": (float, 1.2),
        "log_base": (str, "natural"),
        "max_retries": (int, 200),
    },
}


def default_config() -> dict:
    return {
        section: {key: (dict(default) if isinstance(default, dict) else default)
                  for key, (_, default) in body.items()}
        for section, body in SCHEMA.items()
    }


def load_config(path) -> dict:
    """Read the YAML file onto the defaults, rejecting unknown keys."""
    cfg = default_config()
    if path is None:
        return cfg
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh) or {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping of sections")
    for section, body in raw.items():
        if section not in SCHEMA:
            raise ConfigError(f"{path}: unknown section {section!r}")
        if body is None:
            continue
        if not isinstance(body, dict):
            raise ConfigError(f"{path}: section {section!r} must be a mapping")
        for key, value in body.items():
            if key not in SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key {section}.{key}")
            conv, _ = SCHEMA[section][key]
            if conv is _MAPPING:
                if not isinstance(value, dict) or not all(
                        isinstance(k, str) and isinstance(v, str) for k, v in value.items()):
                    raise ConfigError(f"{path}: {section}.{key} must map names to file paths")
                cfg[section][key] = dict(value)
            elif value is None:
                cfg[section][key] = None
            else:
                try:
                    cfg[section][key] = conv(value)
                except (TypeError, ValueError, argparse.ArgumentTypeError) as e:
                    raise ConfigError(f"{path}: bad value for {section}.{key}: {e}")
    return cfg


def add_override_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", default=None, help="YAML config file")
    for section, body in SCHEMA.items():
        for key, (conv, default) in body.items():
            if conv is _MAPPING:
                continue
            flag = f"--{section}-{key}".replace("_", "-")
            parser.add_argument(flag, dest=f"{section}__{key}", type=str,
                                default=None, metavar="V",
                                help=f"override {section}.{key} (default {default})")


def apply_overrides(cfg: dict, args: argparse.Namespace):
    for section, body in SCHEMA.items():
        for key, (conv, _) in body.items():
            if conv is _MAPPING:
                continue
            value = getattr(args, f"{section}__{key}", None)
            if value is None:
                continue
            try:
                cfg[section][key] = conv(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError) as e:
                raise ConfigError(f"bad value for --{section}-{key}: {e}")


def section_configs(cfg: dict):
    model_cfg = ModelConfig(**cfg["model"])
    train_cfg = TrainConfig(**cfg["training"])
    sampling_cfg = NegativeSamplingConfig(**cfg["sampling"])
    return model_cfg, train_cfg, sampling_cfg


def load_data(cfg: dict):
    d = cfg["data"]
    if d["train"] is None:
        raise ConfigError("data.train is required")
    kg = load_graph(d["train"], d["valid"], d["test"], allow_unseen=d["allow_unseen"])
    tables = {name: load_modality(path, name, kg) for name, path in d["modalities"].items()}
    return kg, tables


def make_run_dir(seed: int) -> str:
    root = os.environ.get(RUNS_ENV, "runs")
    base = os.path.join(root, f"{time.strftime('%Y%m%d-%H%M%S')}-{seed}")
    path, n = base, 1
    while os.path.exists(path):
        path = f"{base}-{n}"
        n += 1
    os.makedirs(path)
    return path


# ---------------------------------------------------------------- commands

def cmd_train(cfg, args) -> int:
    kg, tables = load_data(cfg)
    model_cfg, train_cfg, sampling_cfg = section_configs(cfg)
    run_dir = make_run_dir(train_cfg.seed)
    # echo the fully resolved settings before any work happens
    with open(os.path.join(run_dir, "config.yaml"), "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True)
    print(f"run directory: {run_dir}")

    log_path = os.path.join(run_dir, "train_log.jsonl")
    with open(log_path, "w", encoding="utf-8") as log_fh:
        def log(record):
            log_fh.write(json.dumps(record, sort_keys=True) + "\n")
            line = f"epoch {record['epoch']:>5d}  loss {record['loss']:.6f}"
            if "valid_mrr" in record:
                line += f"  valid_mrr {record['valid_mrr']:.4f}"
            print(line)

        result = train(kg, tables, model_cfg, train_cfg, sampling_cfg, log_fn=log)

    ckpt = os.path.join(run_dir, "checkpoint.mkgc")
    save_checkpoint(ckpt, result.model)
    with open(os.path.join(run_dir, "history.json"), "w", encoding="utf-8") as fh:
        json.dump(result.history, fh, sort_keys=True)
    summary = {"epochs": result.stopped_epoch, "checkpoint": ckpt}
    if result.best_valid_mrr is not None:
        summary["best_valid_mrr"] = result.best_valid_mrr
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_eval(cfg, args) -> int:
    kg, tables = load_data(cfg)
    model, _ = load_checkpoint(args.checkpoint, tables, kg)
    report = evaluate(model, kg, split=args.split, mode=args.mode,
                      mi_ref_batch=cfg["training"]["mi_ref_batch"])
    print(json.dumps(report, sort_keys=True))
    return 0


def cmd_predict(cfg, args) -> int:
    if (args.head is None) == (args.tail is None):
        raise ConfigError("give exactly one of --head or --tail")
    if args.top < 1:
        raise ConfigError(f"--top must be >= 1, got {args.top}")
    kg, tables = load_data(cfg)
    model, _ = load_checkpoint(args.checkpoint, tables, kg)

    def entity_id(name):
        if name not in kg.entity_index:
            raise DataError(f"unknown entity {name!r}")
        return kg.entity_index[name]

    if args.relation not in kg.relation_index:
        raise DataError(f"unknown relation {args.relation!r}")
    r = kg.relation_index[args.relation]

    emb = model.all_joint_embeddings(mi_context_ids(kg, cfg["training"]["mi_ref_batch"]))
    theta = np.asarray(model.relation_phases.data, dtype=np.float64)
    fi = build_filter_index(kg)

    if args.head is not None:
        fixed, side = entity_id(args.head), "tail"
        known = fi.true_tails(fixed, r)
    else:
        fixed, side = entity_id(args.tail), "head"
        known = fi.true_heads(r, fixed)
    scores = score_candidates(emb, theta[r], emb[fixed], side, model.cfg.norm)

    keep = np.ones(kg.n_entities, dtype=bool)
    if args.mode == "filtered" and known:
        # hide answers that are already in the graph
        keep[np.fromiter(known, dtype=np.int64)] = False
    kept_ids = np.flatnonzero(keep)
    for e in kept_ids[np.argsort(-scores[kept_ids], kind="stable")[:args.top]]:
        print(f"{_mean_rank(scores, e, keep):g},{kg.entities[e]},{scores[e]:.6f}")
    return 0


def cmd_sample_stats(cfg, args) -> int:
    if args.positives < 1:
        raise ConfigError(f"--positives must be >= 1, got {args.positives}")
    kg, tables = load_data(cfg)
    model_cfg, train_cfg, sampling_cfg = section_configs(cfg)
    sampling_cfg.validate()
    if args.checkpoint is not None:
        model, _ = load_checkpoint(args.checkpoint, tables, kg)
    else:
        model_cfg.validate()
        model = FusionModel(model_cfg, kg.n_entities, kg.n_relations, tables,
                            seed=train_cfg.seed)

    emb = model.all_joint_embeddings(mi_context_ids(kg, train_cfg.mi_ref_batch))
    theta = np.asarray(model.relation_phases.data, dtype=np.float64)
    fi = build_filter_index(kg)

    n_pos = min(args.positives, len(kg.train))
    if n_pos == 0:
        raise DataError("no training triples to sample from")
    negatives = []
    for i in range(n_pos):
        h, r, t = (int(x) for x in kg.train[i])
        rng = derived_rng(train_cfg.seed, 0, i)
        negatives.extend(corrupt((h, r, t), sampling_cfg.negatives_per_positive,
                                 rng, fi, kg.n_entities,
                                 max_retries=sampling_cfg.max_retries))
    heads, rels, tails = np.asarray([s.triple for s in negatives], dtype=np.int64).T
    scores = score(emb[heads], theta[rels], emb[tails], model.cfg.norm)
    annotate(negatives, scores, sampling_cfg)
    stats = sample_stats(negatives)
    stats.update({
        "positives": n_pos,
        "delta1": sampling_cfg.delta1,
        "delta2": sampling_cfg.delta2,
        "log_base": sampling_cfg.log_base,
        "margin": sampling_cfg.margin,
    })
    print(json.dumps(stats, sort_keys=True))
    return 0


def cmd_vocab_dump(cfg, args) -> int:
    kg, _ = load_data(cfg)
    ents, rels = dump_vocab(kg, args.out)
    print(ents)
    print(rels)
    return 0


# ---------------------------------------------------------------- entry

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moekgc",
        description="train and query a multimodal knowledge graph completion model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a model and write a run directory")
    add_override_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="link prediction metrics for a checkpoint")
    add_override_flags(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", default="test", choices=["train", "valid", "test"])
    p_eval.add_argument("--mode", default="filtered", choices=["filtered", "raw"])
    p_eval.set_defaults(func=cmd_eval)

    p_pred = sub.add_parser("predict", help="rank completion candidates for a query")
    add_override_flags(p_pred)
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.add_argument("--relation", required=True, help="relation name")
    p_pred.add_argument("--head", default=None, help="head entity name, predicts tails")
    p_pred.add_argument("--tail", default=None, help="tail entity name, predicts heads")
    p_pred.add_argument("--top", type=int, default=10)
    p_pred.add_argument("--mode", default="filtered", choices=["filtered", "raw"])
    p_pred.set_defaults(func=cmd_predict)

    p_stats = sub.add_parser("sample-stats", help="difficulty class counts for drawn negatives")
    add_override_flags(p_stats)
    p_stats.add_argument("--checkpoint", default=None)
    p_stats.add_argument("--positives", type=int, default=256)
    p_stats.set_defaults(func=cmd_sample_stats)

    p_vocab = sub.add_parser("vocab-dump", help="write entity and relation index files")
    add_override_flags(p_vocab)
    p_vocab.add_argument("--out", default=".")
    p_vocab.set_defaults(func=cmd_vocab_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        apply_overrides(cfg, args)
        return args.func(cfg, args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except CheckpointVersionError as e:
        print(f"checkpoint version error: {e}", file=sys.stderr)
        return 4
    except (CheckpointError, SamplingError, TrainingError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
