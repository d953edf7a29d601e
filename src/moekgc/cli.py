"""Command line front end.

Subcommands: train, eval, predict, sample-stats, vocab-dump.  Settings come
from a YAML file with sections data / model / training / sampling; every
scalar key is also exposed as a --section-key flag (underscores become
dashes) that overrides the file.  Unknown sections or keys are rejected.

Exit codes: 0 ok, 2 bad configuration or output location, 3 bad input data,
4 checkpoint format version mismatch, 1 anything else that failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import typing
import warnings
from dataclasses import MISSING, fields

import numpy as np
import yaml

from .autodiff import FiniteError
from .config import ConfigError
from .files import atomic_write
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
    UnreachableHardClassWarning,
    corrupt,
    sample_stats,
)
from .scoring import score, score_candidates
from .trainer import (
    CheckpointError,
    CheckpointVersionError,
    TrainConfig,
    TrainingError,
    _mean_rank,
    _tie_counts,
    check_memory,
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


def _int(value) -> int:
    # YAML hands over bools and floats, which int() would silently truncate
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        # rejected here for every command, not only those that validate
        raise ValueError(f"expected a finite number, got {value}")
    return value


def _str_list(text) -> list:
    if isinstance(text, list):
        return [str(x) for x in text]
    return [part for part in str(text).split(",") if part]


# converters by config field annotation; they also normalize YAML values
_CONVERTERS = {int: _int, float: _float, bool: _bool, str: str, list: _str_list}


def _section_schema(cls) -> dict:
    """key -> (converter, default) for each field of a config dataclass."""
    hints = typing.get_type_hints(cls)
    return {f.name: (_CONVERTERS[hints[f.name]], f.default if f.default_factory is MISSING
                     else f.default_factory())
            for f in fields(cls)}


# section -> key -> (converter, default); the model, training and sampling
# keys are the fields of their config dataclasses
SCHEMA = {
    "data": {
        "train": (str, None),
        "valid": (str, None),
        "test": (str, None),
        "allow_unseen": (_bool, False),
        "modalities": (_MAPPING, {}),  # modality name -> feature file path
    },
    "model": _section_schema(ModelConfig),
    "training": _section_schema(TrainConfig),
    "sampling": _section_schema(NegativeSamplingConfig),
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
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        raw = yaml.safe_load(text) or {}
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: cannot read the config file ({e})") from None
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        # a reader error has no mark, only a position in the text
        line = mark.line + 1 if mark else text.count("\n", 0, getattr(e, "position", 0)) + 1
        problem = getattr(e, "problem", None) or getattr(e, "reason", None) or type(e).__name__
        raise ConfigError(f"{path}:{line}: not valid YAML ({problem})") from None
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
            conv, default = SCHEMA[section][key]
            if value is None and default is not None:
                raise ConfigError(f"{path}: {section}.{key} has no value; "
                                  f"leave the key out for its default {default!r}")
            if conv is _MAPPING:
                if not isinstance(value, dict) or not all(
                        isinstance(k, str) and isinstance(v, str) for k, v in value.items()):
                    raise ConfigError(f"{path}: {section}.{key} must map names to file paths")
                cfg[section][key] = dict(value)
                continue
            try:
                cfg[section][key] = None if value is None else conv(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError) as e:
                raise ConfigError(f"{path}: bad value for {section}.{key}: {e}")
    return cfg


def _flag(section: str, key: str) -> str:
    return f"--{section}-{key}".replace("_", "-")


def add_override_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", default=None, help="YAML config file")
    for section, body in SCHEMA.items():
        for key, (conv, default) in body.items():
            if conv is _MAPPING:
                continue
            parser.add_argument(_flag(section, key), dest=f"{section}__{key}", type=str,
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
                raise ConfigError(f"bad value for {_flag(section, key)}: {e}")


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


def _unwritable(e: OSError, path) -> ConfigError:
    """An output location the OS refused, as a config error naming it."""
    return ConfigError(f"{e.filename2 or e.filename or path}: cannot write output there "
                       f"({e.strerror})")


def make_run_dir(seed: int) -> str:
    root = os.environ.get(RUNS_ENV, "runs")
    base = os.path.join(root, f"{time.strftime('%Y%m%d-%H%M%S')}-{seed}")
    path, n = base, 1
    while os.path.exists(path):
        path = f"{base}-{n}"
        n += 1
    try:
        os.makedirs(path)
    except OSError as e:
        raise _unwritable(e, path) from None
    return path


# ---------------------------------------------------------------- commands

def cmd_train(cfg, args) -> int:
    kg, tables = load_data(cfg)
    model_cfg, train_cfg, sampling_cfg = section_configs(cfg)
    # a rejected setting must not leave a run directory behind
    model_cfg.validate(tables)
    train_cfg.validate()
    with warnings.catch_warnings():
        # train validates again, and its warning is the run's one
        warnings.simplefilter("ignore", UnreachableHardClassWarning)
        sampling_cfg.validate()
    check_memory(model_cfg, kg, tables, min(train_cfg.batch_size, len(kg.train)),
                 sampling_cfg.negatives_per_positive)
    run_dir = make_run_dir(train_cfg.seed)
    # echo the fully resolved settings before any work happens
    with atomic_write(os.path.join(run_dir, "config.yaml"), mode="w", encoding="utf-8") as (fh,):
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
    with atomic_write(os.path.join(run_dir, "history.json"), mode="w", encoding="utf-8") as (fh,):
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

    if args.head is not None:
        fixed, side = entity_id(args.head), "tail"
    else:
        fixed, side = entity_id(args.tail), "head"
    scores = score_candidates(emb, theta[r], emb[fixed], side, model.cfg.norm)

    keep = np.ones(kg.n_entities, dtype=bool)
    offsets, known = np.zeros(2, dtype=np.int64), None  # raw: no filter
    if args.mode == "filtered":
        # hide answers that are already in the graph
        offsets, known = build_filter_index(kg).answers(fixed, r, side == "tail")
        keep[known] = False
    kept_ids = np.flatnonzero(keep)
    for e in kept_ids[np.argsort(-scores[kept_ids], kind="stable")[:args.top]].tolist():
        # the rank evaluate gives e as a gold entity, against the same filter
        (better,), (tied,) = _tie_counts(scores[None], [e], offsets, known)
        print(f"{_mean_rank(int(better), int(tied)):g},{kg.entities[e]},{scores[e]:.6f}")
    return 0


def cmd_sample_stats(cfg, args) -> int:
    if args.positives < 1:
        raise ConfigError(f"--positives must be >= 1, got {args.positives}")
    kg, tables = load_data(cfg)
    model_cfg, train_cfg, sampling_cfg = section_configs(cfg)
    train_cfg.validate()
    sampling_cfg.validate()
    n_pos = min(args.positives, len(kg.train))
    if args.checkpoint is not None:
        model, _ = load_checkpoint(args.checkpoint, tables, kg)
        model_cfg = model.cfg
    model_cfg.validate(tables)
    # one store, unless loaded, and the negatives of n_pos positives
    check_memory(model_cfg, kg, tables, n_pos, sampling_cfg.negatives_per_positive, buffers=1)
    if args.checkpoint is None:
        model = FusionModel(model_cfg, kg.n_entities, kg.n_relations, tables,
                            seed=train_cfg.seed)

    emb = model.all_joint_embeddings(mi_context_ids(kg, train_cfg.mi_ref_batch))
    theta = np.asarray(model.relation_phases.data, dtype=np.float64)
    fi = build_filter_index(kg)

    # rows 0..n_pos-1 at epoch 0: the negatives training draws for them first
    negatives = corrupt(kg.train[:n_pos], sampling_cfg.negatives_per_positive, fi,
                        kg.n_entities, train_cfg.seed, epoch=0)
    heads, rels, tails = negatives.T
    scores = score(emb[heads], theta[rels], emb[tails], model.cfg.norm)
    stats = sample_stats(scores, sampling_cfg)
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
    try:
        ents, rels = dump_vocab(kg, args.out)
    except OSError as e:
        raise _unwritable(e, args.out) from None
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
    except (CheckpointError, FiniteError, SamplingError, TrainingError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
