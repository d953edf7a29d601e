"""End-to-end tests for the command line, driven through main() in process."""

import dataclasses
import errno
import json
import os
import random
import subprocess
import sys
import threading
import typing
import warnings
import zlib

import numpy as np
import pytest
import yaml

import moekgc.autodiff as ad
import moekgc.cli as cli
import moekgc.files as files
from moekgc.cli import build_parser, load_config, load_data, main
from moekgc.config import ConfigError
from moekgc.fusion import FusionModel, ModelConfig
from moekgc.sampling import NegativeSamplingConfig, UnreachableHardClassWarning
from moekgc.scoring import score_candidates
from moekgc.trainer import TrainConfig, _mean_rank, _tie_counts, mi_context_ids, save_checkpoint

import fanout


def run_train(cfg_path):
    code = main(["train", "--config", cfg_path])
    assert code == 0
    return code


def latest_run(tmp_path):
    runs = sorted((tmp_path / "runs").iterdir())
    assert runs
    return runs[-1]


# ---------------------------------------------------------------- config

def test_unknown_key_and_section_are_rejected(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("model:\n  embeddin_dim: 8\n")
    assert main(["train", "--config", str(bad)]) == 2
    bad.write_text("modle:\n  embedding_dim: 8\n")
    assert main(["train", "--config", str(bad)]) == 2
    # the retry budget is a constant of corrupt, not a setting
    bad.write_text("sampling:\n  max_retries: 5\n")
    assert main(["train", "--config", str(bad)]) == 2
    with pytest.raises(SystemExit) as exit_info:
        main(["train", "--config", str(bad), "--sampling-max-retries", "5"])
    assert exit_info.value.code == 2


def test_missing_config_file_is_a_config_error(tmp_path):
    assert main(["train", "--config", str(tmp_path / "nope.yaml")]) == 2


def test_missing_train_path_is_a_config_error():
    assert main(["train"]) == 2


def test_missing_data_file_is_a_data_error(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump({"data": {"train": str(tmp_path / "absent.tsv")}}))
    assert main(["train", "--config", str(cfg)]) == 3


@pytest.mark.parametrize("split", ["valid", "test"])
def test_held_out_triple_in_train_is_a_data_error(workspace, split, capsys):
    tmp_path, cfg_path = workspace
    (tmp_path / f"{split}.tsv").write_text("c\tlinks\td\n")  # line 3 of conftest.TRAIN
    assert main(["train", "--config", cfg_path]) == 3
    err = capsys.readouterr().err
    assert f"{split}.tsv:1: {split} triple ('c', 'links', 'd') is also in train" in err


def test_bad_flag_value_is_a_config_error(workspace):
    _, cfg_path = workspace
    assert main(["train", "--config", cfg_path, "--training-seed", "abc"]) == 2


@pytest.mark.parametrize("section, key, value", [
    ("training", "batch_size", 16.7),
    ("model", "embedding_dim", 64.9),
    ("training", "seed", True),
    ("sampling", "margin", False),
])
def test_yaml_values_that_would_truncate_are_config_errors(workspace, capsys, section, key, value):
    tmp_path, cfg_path = workspace
    cfg = yaml.safe_load((tmp_path / "config.yaml").read_text())
    cfg[section][key] = value
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(cfg))
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        load_config(str(bad))
    assert main(["train", "--config", str(bad)]) == 2
    assert not (tmp_path / "runs").exists()


def test_integral_yaml_float_is_accepted(workspace):
    tmp_path, cfg_path = workspace
    cfg = yaml.safe_load((tmp_path / "config.yaml").read_text())
    cfg["training"]["batch_size"] = 16.0
    good = tmp_path / "good.yaml"
    good.write_text(yaml.safe_dump(cfg))
    assert load_config(str(good))["training"]["batch_size"] == 16


def test_bad_flag_error_names_the_flag(workspace, capsys):
    _, cfg_path = workspace
    assert main(["train", "--config", cfg_path, "--training-batch-size", "16.7"]) == 2
    assert "--training-batch-size" in capsys.readouterr().err


def test_defaults_fill_unset_keys(workspace):
    _, cfg_path = workspace
    cfg = load_config(cfg_path)
    assert cfg["model"]["norm"] == "l2"
    assert cfg["training"]["patience"] == 5
    assert cfg["sampling"]["lambda_hard"] == 1.2
    assert cfg["data"]["allow_unseen"] is False


@pytest.mark.parametrize("section, cls", [("model", ModelConfig), ("training", TrainConfig),
                                          ("sampling", NegativeSamplingConfig)])
def test_config_sections_are_the_config_dataclasses(section, cls):
    # one definition per key: the YAML section, its flags and its defaults
    # come from the dataclass fields
    assert load_config(None)[section] == dataclasses.asdict(cls())
    flags = vars(build_parser().parse_args(["train"]))
    assert {f"{section}__{f.name}" for f in dataclasses.fields(cls)} <= set(flags)


def with_values(tmp_path, **sections):
    """The workspace config with some keys replaced, as a new file."""
    cfg = yaml.safe_load((tmp_path / "config.yaml").read_text())
    for section, body in sections.items():
        cfg[section] = {**(cfg.get(section) or {}), **body}
    path = tmp_path / "changed.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


@pytest.mark.parametrize("section, key", [("model", "experts"), ("model", "modalities"),
                                          ("training", "learning_rate"), ("training", "seed"),
                                          ("sampling", "margin"), ("sampling", "log_base"),
                                          ("data", "allow_unseen"), ("data", "modalities")])
def test_a_key_left_empty_is_a_config_error_naming_it(workspace, capsys, section, key):
    tmp_path, _ = workspace
    path = with_values(tmp_path, **{section: {key: None}})
    with pytest.raises(ConfigError, match=f"{section}.{key} has no value"):
        load_config(path)
    assert main(["train", "--config", path]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_an_empty_key_whose_default_is_none_is_accepted(workspace, capsys):
    tmp_path, _ = workspace
    path = with_values(tmp_path, data={"test": None})
    assert load_config(path)["data"]["test"] is None
    assert main(["train", "--config", path]) == 0


@pytest.mark.parametrize("text, line", [("model:\n  experts: [1, 2\n", 3),
                                        ("model:\n  experts: 2\n   mi_bins: 4\n", 3),
                                        ("training:\n  seed: \"1\n", 3),
                                        ("data:\n  train: a\x00b\n", 2)],
                         ids=["parser", "scanner", "unclosed-quote", "reader"])
def test_malformed_yaml_is_a_config_error_naming_the_line(tmp_path, capsys, text, line):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    with pytest.raises(ConfigError, match=f"{bad}:{line}: not valid YAML"):
        load_config(str(bad))
    assert main(["train", "--config", str(bad)]) == 2


def test_a_config_that_is_not_utf8_or_a_directory_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"model:\n  norm: l\xc32\n")
    with pytest.raises(ConfigError, match="cannot read the config file"):
        load_config(str(bad))
    assert main(["train", "--config", str(bad)]) == 2
    assert main(["train", "--config", str(tmp_path)]) == 2


@pytest.mark.parametrize("name", ["train.tsv", "valid.tsv", "img.tsv"])
def test_a_data_file_that_is_not_utf8_is_a_data_error_naming_it(workspace, capsys, name):
    tmp_path, cfg_path = workspace
    path = tmp_path / name
    path.write_bytes(path.read_bytes() + b"e\xc3\tlinks\ta\n")
    assert main(["train", "--config", cfg_path]) == 3
    err = capsys.readouterr().err
    assert f"{path}: " in err and "is not UTF-8 text" in err


@pytest.mark.parametrize("key", ["train", "test", "img"])
def test_a_data_path_that_is_a_directory_is_a_data_error(workspace, capsys, key):
    tmp_path, _ = workspace
    data = {"modalities": {"img": str(tmp_path)}} if key == "img" else {key: str(tmp_path)}
    assert main(["vocab-dump", "--config", with_values(tmp_path, data=data),
                 "--out", str(tmp_path / "vocab")]) == 3
    assert f"{tmp_path}: cannot read" in capsys.readouterr().err


# ---------------------------------------------------------------- train

def test_train_writes_run_artifacts(workspace, capsys):
    tmp_path, cfg_path = workspace
    run_train(cfg_path)
    run = latest_run(tmp_path)
    assert (run / "checkpoint.mkgc").exists()
    assert (run / "history.json").exists()
    assert (run / "train_log.jsonl").exists()
    echoed = yaml.safe_load((run / "config.yaml").read_text())
    assert echoed["model"]["embedding_dim"] == 8
    assert echoed["training"]["seed"] == 1
    # run dir is named stamp-seed under the env root
    assert run.name.endswith("-1")
    history = json.loads((run / "history.json").read_text())
    assert [h["epoch"] for h in history] == [0, 1, 2]
    log_lines = (run / "train_log.jsonl").read_text().splitlines()
    assert len(log_lines) == 3
    assert json.loads(log_lines[0])["epoch"] == 0
    out = capsys.readouterr().out
    assert "run directory:" in out
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["epochs"] == 3 and "best_valid_mrr" in summary


def test_two_runs_get_distinct_directories(workspace):
    tmp_path, cfg_path = workspace
    run_train(cfg_path)
    run_train(cfg_path)
    assert len(list((tmp_path / "runs").iterdir())) == 2


def test_flag_overrides_win_over_the_file(workspace):
    tmp_path, cfg_path = workspace
    assert main(["train", "--config", cfg_path, "--training-max-epochs", "0",
                 "--training-seed", "7"]) == 0
    run = latest_run(tmp_path)
    assert run.name.endswith("-7")
    assert json.loads((run / "history.json").read_text()) == []
    echoed = yaml.safe_load((run / "config.yaml").read_text())
    assert echoed["training"]["max_epochs"] == 0


# ---------------------------------------------------------------- eval

def test_eval_prints_exactly_the_report_keys(workspace, capsys):
    tmp_path, cfg_path = workspace
    run_train(cfg_path)
    ckpt = str(latest_run(tmp_path) / "checkpoint.mkgc")
    capsys.readouterr()
    assert main(["eval", "--config", cfg_path, "--checkpoint", ckpt,
                 "--split", "test", "--mode", "filtered"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"mrr", "hits1", "hits3", "hits10", "mode", "split", "queries"}
    assert report["split"] == "test" and report["mode"] == "filtered"
    assert report["queries"] == 2


def test_eval_output_is_byte_identical_across_calls(workspace, capsys):
    tmp_path, cfg_path = workspace
    run_train(cfg_path)
    ckpt = str(latest_run(tmp_path) / "checkpoint.mkgc")
    capsys.readouterr()
    main(["eval", "--config", cfg_path, "--checkpoint", ckpt])
    first = capsys.readouterr().out
    main(["eval", "--config", cfg_path, "--checkpoint", ckpt])
    second = capsys.readouterr().out
    assert first == second


def test_eval_version_mismatch_exits_4(workspace, capsys):
    tmp_path, cfg_path = workspace
    run_train(cfg_path)
    ckpt = latest_run(tmp_path) / "checkpoint.mkgc"
    blob = bytearray(ckpt.read_bytes())
    blob[4:8] = (42).to_bytes(4, "little")
    ckpt.write_bytes(bytes(blob))
    assert main(["eval", "--config", cfg_path, "--checkpoint", str(ckpt)]) == 4


def trained_checkpoint_with_header(workspace, edit):
    """The checkpoint of a fresh run, with edit applied to its JSON header."""
    tmp_path, cfg_path = workspace
    run_train(cfg_path)
    ckpt = latest_run(tmp_path) / "checkpoint.mkgc"
    blob = ckpt.read_bytes()
    n = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:16 + n])
    edit(header)
    hdr = json.dumps(header).encode("utf-8")
    ckpt.write_bytes(blob[:8] + len(hdr).to_bytes(8, "little") + hdr + blob[16 + n:])
    return str(ckpt)


def test_eval_header_without_config_exits_1(workspace, capsys):
    ckpt = trained_checkpoint_with_header(workspace, lambda h: h.pop("config"))
    capsys.readouterr()
    assert main(["eval", "--config", workspace[1], "--checkpoint", ckpt]) == 1
    assert "config" in capsys.readouterr().err


def test_eval_header_with_a_mistyped_field_exits_1(workspace, capsys):
    ckpt = trained_checkpoint_with_header(workspace, lambda h: h["config"].update(experts="2"))
    capsys.readouterr()
    assert main(["eval", "--config", workspace[1], "--checkpoint", ckpt]) == 1
    assert "header field config.experts is not of type int" in capsys.readouterr().err


@pytest.mark.parametrize("edit, block", [({"experts": 10 ** 5}, "expert.img.2.w1"),
                                         ({"mi_bins": 10 ** 12}, "view_dist.img.0.w")],
                         ids=["experts", "mi_bins"])
def test_eval_of_a_header_the_blocks_do_not_bear_out_exits_1(workspace, capsys, edit, block):
    # the model such a header describes would not fit in memory
    ckpt = trained_checkpoint_with_header(workspace, lambda h: h["config"].update(edit))
    capsys.readouterr()
    assert main(["eval", "--config", workspace[1], "--checkpoint", ckpt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and f"block {block} " in line


def test_eval_of_a_header_with_an_invalid_config_value_exits_1(workspace, capsys):
    # a config error, but the file's, so it names the file and exits 1, not 2
    ckpt = trained_checkpoint_with_header(workspace, lambda h: h["config"].update(norm="l3"))
    capsys.readouterr()
    assert main(["eval", "--config", workspace[1], "--checkpoint", ckpt]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == f"error: {ckpt}: header config is invalid: norm must be l2 or l1, got 'l3'"


def add_stray_block(header):
    header["blocks"]["zzz.stray"] = {"shape": [2], "crc32": zlib.crc32(bytes(8))}


@pytest.mark.parametrize("edit, why", [
    (lambda h: None, "8 stray bytes after the last block"),
    (add_stray_block, "header names blocks the config and adam_step do not: zzz.stray"),
], ids=["trailing-bytes", "stray-block"])
def test_eval_of_a_checkpoint_with_stray_bytes_exits_1(workspace, capsys, edit, why):
    # eight zero bytes after the last block: stray, or the stray block's own
    ckpt = trained_checkpoint_with_header(workspace, edit)
    with open(ckpt, "ab") as fh:
        fh.write(bytes(8))
    capsys.readouterr()
    assert main(["eval", "--config", workspace[1], "--checkpoint", ckpt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line == f"error: {ckpt}: {why}"


@pytest.mark.parametrize("where, why", [("absent.mkgc", "No such file or directory"),
                                        (".", "Is a directory")], ids=["missing", "directory"])
def test_eval_of_an_unreadable_checkpoint_exits_1_naming_it(workspace, capsys, where, why):
    tmp_path, cfg_path = workspace
    ckpt = str(tmp_path / where)
    assert main(["eval", "--config", cfg_path, "--checkpoint", ckpt]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    [line] = captured.err.splitlines()
    assert line == f"error: {ckpt}: cannot read checkpoint ({why})"


def test_eval_of_an_empty_split_is_a_data_error(workspace, capsys):
    tmp_path, cfg_path = workspace
    run_train(cfg_path)
    ckpt = str(latest_run(tmp_path) / "checkpoint.mkgc")
    (tmp_path / "test.tsv").write_text("")
    capsys.readouterr()
    assert main(["eval", "--config", cfg_path, "--checkpoint", ckpt, "--split", "test"]) == 3
    assert "split 'test' has no triples to evaluate" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "\n\r\n\n"], ids=["empty", "blank-lines"])
def test_an_empty_train_split_is_a_data_error_for_every_command(workspace, capsys, text):
    # train would fit a 0-entity model to a NaN loss and sample-stats would
    # fail in fuse; each exits 3 naming the file, and no run directory appears
    tmp_path, cfg_path = workspace
    run_train(cfg_path)
    ckpt = str(latest_run(tmp_path) / "checkpoint.mkgc")
    runs = sorted((tmp_path / "runs").iterdir())
    train = tmp_path / "train.tsv"
    train.write_text(text)
    for command, *flags in (["train"], ["eval", "--checkpoint", ckpt], ["sample-stats"]):
        capsys.readouterr()
        assert main([command, "--config", cfg_path] + flags) == 3, command
        assert f"{train}: the train split has no triples" in capsys.readouterr().err
    assert sorted((tmp_path / "runs").iterdir()) == runs


def test_eval_of_an_overflowing_checkpoint_exits_1(workspace, capsys):
    tmp_path, cfg_path = workspace
    kg, tables = load_data(load_config(cfg_path))
    model = FusionModel(ModelConfig(embedding_dim=8, experts=2, mi_bins=4, modalities=["img"]),
                        kg.n_entities, kg.n_relations, tables, seed=0)
    model.params["proj.img.w1"].data[...] = 3e38  # finite, but its products are not
    ckpt = str(tmp_path / "huge.mkgc")
    save_checkpoint(ckpt, model)
    with np.errstate(over="ignore"):
        assert main(["eval", "--config", cfg_path, "--checkpoint", ckpt]) == 1
    assert "affine produced a non-finite value" in capsys.readouterr().err


def test_eval_that_overflows_in_a_pool_block_exits_1(workspace, capsys, monkeypatch):
    # the MI context is a and b, so only c's embedding block overflows: with
    # two workers, blocks of two entities on the calling thread and one on
    # the pool, c's block runs on the pool
    tmp_path, cfg_path = workspace
    with open(cfg_path) as fh:
        cfg = yaml.safe_load(fh)
    cfg["training"]["mi_ref_batch"] = 2
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    (tmp_path / "img.tsv").write_text("a\t0.1,0.2,0.9\nb\t0.8,0.1,0.1\nc\t3e30,3e30,3e30\n")
    kg, tables = load_data(load_config(cfg_path))
    assert [kg.entity_index[e] for e in "abcd"] == [0, 1, 2, 3]
    model = FusionModel(ModelConfig(embedding_dim=8, experts=2, mi_bins=4, modalities=["img"]),
                        kg.n_entities, kg.n_relations, tables, seed=0)
    model.params["proj.img.w1"].data[...] = 1e9  # finite products for a and b
    ckpt = str(tmp_path / "huge.mkgc")
    save_checkpoint(ckpt, model)
    failed_on = []
    check_finite = ad._check_finite

    def noting(arr, op):
        try:
            check_finite(arr, op)
        except ad.FiniteError:
            failed_on.append(threading.current_thread().name)
            raise

    monkeypatch.setattr(ad, "_check_finite", noting)
    # a block that warned instead of taking the caller's errstate would
    # raise the warning here and end in another exit code
    with fanout.blocks(2, kg.n_entities, embed_rows=2), np.errstate(over="ignore"), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["eval", "--config", cfg_path, "--checkpoint", ckpt]) == 1
    assert "affine produced a non-finite value" in capsys.readouterr().err
    assert len(failed_on) == 1 and failed_on[0].startswith("moekgc-block")


# ---------------------------------------------------------------- predict

def tied_checkpoint(tmp_path, cfg_path):
    """Structure-only checkpoint on the workspace graph whose tail scores
    for (a, links, ?) are a: 0, then b, c, d tied at -1."""
    kg, _ = load_data(load_config(cfg_path))
    model = FusionModel(ModelConfig(embedding_dim=4, experts=2, mi_bins=4),
                        kg.n_entities, kg.n_relations, {}, seed=0)
    rows = {"a": [1, 0, 0, 0], "b": [2, 0, 0, 0], "c": [0, 0, 0, 0], "d": [1, 1, 0, 0]}
    model.params["entities"].data = np.array(
        [rows[name] for name in kg.entities], dtype=np.float32)
    model.params["rel_phases"].data = np.zeros_like(model.params["rel_phases"].data)
    path = str(tmp_path / "tied.mkgc")
    save_checkpoint(path, model)
    return kg, model, path


@pytest.mark.parametrize("mode,want", [("raw", [("a", 1.0), ("b", 3.0), ("c", 3.0), ("d", 3.0)]),
                                       ("filtered", [("a", 1.0), ("d", 2.0)])])
def test_predict_ranks_are_the_evaluator_mean_ranks_on_ties(workspace, capsys, mode, want):
    tmp_path, cfg_path = workspace
    kg, model, ckpt = tied_checkpoint(tmp_path, cfg_path)
    capsys.readouterr()
    assert main(["predict", "--config", cfg_path, "--checkpoint", ckpt, "--relation", "links",
                 "--head", "a", "--mode", mode, "--top", "4"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()]
    assert [(name, float(rank)) for rank, name, _ in rows] == want
    # the same ranks the evaluator's counting routine gives with the printed filter
    emb = model.all_joint_embeddings(mi_context_ids(kg, 8))  # the workspace mi_ref_batch
    scores = score_candidates(emb, np.zeros(2), emb[kg.entity_index["a"]], "tail")
    known = np.array(sorted([kg.entity_index["b"], kg.entity_index["c"]]))
    ranks = []
    for _, name, _ in rows:
        (better,), (tied,) = _tie_counts(scores[None], [kg.entity_index[name]], [0, len(known)],
                                         known if mode == "filtered" else None)
        ranks.append(_mean_rank(int(better), int(tied)))
    assert [float(rank) for rank, _, _ in rows] == ranks


@pytest.mark.parametrize("top", ["0", "-1"])
def test_predict_rejects_top_below_one(workspace, capsys, top):
    tmp_path, cfg_path = workspace
    _, _, ckpt = tied_checkpoint(tmp_path, cfg_path)
    capsys.readouterr()
    assert main(["predict", "--config", cfg_path, "--checkpoint", ckpt, "--relation", "links",
                 "--head", "a", "--mode", "raw", "--top", top]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("value", ["0", "-5"])
def test_eval_and_predict_reject_an_mi_ref_batch_below_one(workspace, capsys, value):
    tmp_path, cfg_path = workspace
    _, _, ckpt = tied_checkpoint(tmp_path, cfg_path)
    for command, *flags in (["eval"], ["predict", "--relation", "links", "--head", "a"]):
        capsys.readouterr()
        # --flag=-5: argparse would read a separate "-5" as a flag
        assert main([command, "--config", cfg_path, "--checkpoint", ckpt,
                     f"--training-mi-ref-batch={value}"] + flags) == 2, command
        captured = capsys.readouterr()
        assert f"mi_ref_batch must be >= 1, got {value}" in captured.err
        assert captured.out == ""


def test_raw_predict_builds_no_filter_index(workspace, capsys, monkeypatch):
    tmp_path, cfg_path = workspace
    _, _, ckpt = tied_checkpoint(tmp_path, cfg_path)
    argv = ["predict", "--config", cfg_path, "--checkpoint", ckpt, "--relation", "links",
            "--head", "a", "--top", "4"]
    capsys.readouterr()
    assert main(argv + ["--mode", "raw"]) == 0
    want = capsys.readouterr().out

    def refuse(kg):
        raise AssertionError("the filter index was built")

    monkeypatch.setattr(cli, "build_filter_index", refuse)
    assert main(argv + ["--mode", "raw"]) == 0
    assert capsys.readouterr().out == want
    with pytest.raises(AssertionError, match="the filter index was built"):
        main(argv + ["--mode", "filtered"])


def test_predict_lists_ranked_candidates(workspace, capsys):
    tmp_path, cfg_path = workspace
    run_train(cfg_path)
    ckpt = str(latest_run(tmp_path) / "checkpoint.mkgc")
    capsys.readouterr()
    assert main(["predict", "--config", cfg_path, "--checkpoint", ckpt,
                 "--relation", "links", "--head", "a", "--mode", "raw",
                 "--top", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    names = set()
    last_rank, last_score = 0.0, float("inf")
    for line in lines:
        rank, name, score = line.split(",")
        assert float(rank) >= last_rank
        assert float(score) <= last_score
        last_rank, last_score = float(rank), float(score)
        names.add(name)
    assert names <= {"a", "b", "c", "d"}


def test_predict_filtered_hides_known_answers(workspace, capsys):
    tmp_path, cfg_path = workspace
    run_train(cfg_path)
    ckpt = str(latest_run(tmp_path) / "checkpoint.mkgc")
    capsys.readouterr()
    # (a, links, b) is in train and (a, links, c) in valid, so filtered
    # tail prediction for (a, links, ?) must hide both
    assert main(["predict", "--config", cfg_path, "--checkpoint", ckpt,
                 "--relation", "links", "--head", "a", "--top", "10"]) == 0
    names = [line.split(",")[1] for line in capsys.readouterr().out.strip().splitlines()]
    assert sorted(names) == ["a", "d"]


def test_predict_argument_errors(workspace):
    tmp_path, cfg_path = workspace
    run_train(cfg_path)
    ckpt = str(latest_run(tmp_path) / "checkpoint.mkgc")
    assert main(["predict", "--config", cfg_path, "--checkpoint", ckpt,
                 "--relation", "links", "--head", "a", "--tail", "b"]) == 2
    assert main(["predict", "--config", cfg_path, "--checkpoint", ckpt,
                 "--relation", "links"]) == 2
    assert main(["predict", "--config", cfg_path, "--checkpoint", ckpt,
                 "--relation", "links", "--head", "zz"]) == 3
    assert main(["predict", "--config", cfg_path, "--checkpoint", ckpt,
                 "--relation", "zz", "--head", "a"]) == 3


# ---------------------------------------------------------------- stats

def test_sample_stats_reports_class_counts(workspace, capsys):
    tmp_path, cfg_path = workspace
    assert main(["sample-stats", "--config", cfg_path, "--positives", "4"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["total"] == 4 * 2  # positives times negatives_per_positive
    assert stats["easy"] + stats["ambiguous"] + stats["hard"] == stats["total"]
    assert stats["delta1"] == 0.2 and stats["delta2"] == 0.8
    assert stats["log_base"] == "base2"
    assert 0.0 <= stats["mean_entropy"] <= 1.0


@pytest.mark.parametrize("positives", ["0", "-5"])
def test_sample_stats_rejects_positives_below_one(workspace, capsys, positives):
    _, cfg_path = workspace
    assert main(["sample-stats", "--config", cfg_path, "--positives", positives]) == 2
    assert capsys.readouterr().out == ""


def test_sample_stats_warns_when_hard_class_unreachable(workspace, capsys):
    tmp_path, cfg_path = workspace
    with pytest.warns(UnreachableHardClassWarning):
        assert main(["sample-stats", "--config", cfg_path, "--positives", "2",
                     "--sampling-log-base", "natural"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["hard"] == 0


@pytest.mark.parametrize("command", ["train", "sample-stats"])
def test_a_run_warns_once_about_the_unreachable_hard_class(workspace, capsys, command):
    # delta2 0.8 under the natural log, the sampling defaults
    _, cfg_path = workspace
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", cfg_path, "--sampling-log-base", "natural"]) == 0
    assert [w.category for w in caught].count(UnreachableHardClassWarning) == 1


_FLOAT_KEYS = [(section, f.name) for section, cls in (("training", TrainConfig),
                                                      ("sampling", NegativeSamplingConfig))
               for f in dataclasses.fields(cls) if typing.get_type_hints(cls)[f.name] is float]


def test_the_float_keys_are_the_ones_a_nan_slipped_through():
    assert {"learning_rate", "margin", "lambda_hard", "lambda_easy"} <= {k for _, k in _FLOAT_KEYS}


@pytest.mark.parametrize("section, key", _FLOAT_KEYS)
def test_a_non_finite_float_key_is_a_config_error(workspace, capsys, section, key):
    tmp_path, cfg_path = workspace
    cls = {"training": TrainConfig, "sampling": NegativeSamplingConfig}[section]
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            cls(**{key: value}).validate()
        with pytest.raises(ConfigError, match=f"{section}.{key}: expected a finite number"):
            load_config(with_values(tmp_path, **{section: {key: value}}))
        for command in ("train", "sample-stats"):
            flag = f"--{section}-{key}".replace("_", "-")
            # --flag=-inf: argparse would read a separate "-inf" as a flag
            assert main([command, "--config", cfg_path, f"{flag}={value}"]) == 2
            assert f"bad value for {flag}: expected a finite number" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", ["train", "sample-stats"])
@pytest.mark.parametrize("seed", ["-1", str(2 ** 63)])
def test_seed_outside_the_key_range_is_a_config_error(workspace, capsys, command, seed):
    _, cfg_path = workspace
    assert main([command, "--config", cfg_path, "--training-seed", seed]) == 2
    assert "seed must be in [0, 2**63)" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--training-seed", "-1"],
    ["--model-embedding-dim", "5"],
    ["--model-modalities", "img,sound"],
    ["--sampling-negatives-per-positive", "0"],
    ["--sampling-lambda-hard=-2.0"],
], ids=["seed", "model", "modality-without-table", "sampling", "negative-loss-weight"])
def test_rejected_train_settings_create_no_run_directory(workspace, capsys, flags):
    tmp_path, cfg_path = workspace
    assert main(["train", "--config", cfg_path] + flags) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


# main in a child whose address space is capped at 3 GiB, so that an
# allocation a config should have been refused fails at once, and not in
# this process
_CAPPED_MAIN = """
import resource, sys
cap, hard = 3 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]
if hard != resource.RLIM_INFINITY:
    cap = min(cap, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
from moekgc.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("setting", ["model.mi_bins", "model.experts", "model.embedding_dim",
                                     "sampling.negatives_per_positive"])
def test_a_config_larger_than_memory_is_a_config_error_before_any_allocation(workspace,
                                                                             setting):
    # at 10**9 each of these asks for over 100 GiB, a store, an Adam step's
    # buffers or a batch's negatives; 10**12 exceeds any host's memory
    tmp_path, cfg_path = workspace
    flag = "--" + setting.replace(".", "-").replace("_", "-")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    for command in ("train", "sample-stats"):
        done = subprocess.run(
            [sys.executable, "-c", _CAPPED_MAIN, command, "--config", cfg_path, flag,
             str(10 ** 12)], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 2, (command, done.stderr)
        (line,) = done.stderr.splitlines()
        assert line.startswith("config error: ") and f"{setting} {10 ** 12}" in line, line
        assert "GiB of physical memory" in line, line
    assert not (tmp_path / "runs").exists()


def test_negatives_whose_scored_rows_exceed_memory_are_a_config_error(workspace, capsys,
                                                                        monkeypatch):
    # a host with room for twice the int64 negatives of the six train
    # triples: they fit, and so do the tiny model's store-sized buffers, but
    # the rows of embedding_dim 8 that a step or sample-stats scores from
    # them do not
    tmp_path, cfg_path = workspace
    n_neg = 100_000
    physical = 2 * 6 * n_neg * 3 * 8
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": physical}.get)
    for command in ("train", "sample-stats"):
        flags = [command, "--config", cfg_path, "--sampling-negatives-per-positive", str(n_neg)]
        assert main(flags) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: sampling.negatives_per_positive {n_neg} needs "), line
        assert "the int64 negatives of 6 positives" in line, line
        assert "their rows of model.embedding_dim 8" in line, line
        assert line.endswith("GiB of physical memory"), line
    assert not (tmp_path / "runs").exists()


def test_sample_stats_draws_the_epoch_zero_training_negatives(workspace, capsys, monkeypatch):
    import moekgc.cli as cli
    import moekgc.trainer as trainer

    _, cfg_path = workspace
    drawn = {"train": {}, "stats": []}
    real = trainer.corrupt

    def record_train(positives, n, fi, n_entities, seed, epoch, rows, **kw):
        out = real(positives, n, fi, n_entities, seed, epoch, rows=rows, **kw)
        if epoch == 0:
            for row, negs in zip(rows.tolist(), out.reshape(len(rows), n, 3)):
                drawn["train"][row] = negs
        return out

    def record_stats(*args, **kw):
        out = real(*args, **kw)
        drawn["stats"].append(out)
        return out

    # batch size 2 puts the rows in several shuffled batches
    monkeypatch.setattr(trainer, "corrupt", record_train)
    assert main(["train", "--config", cfg_path, "--training-batch-size", "2"]) == 0
    monkeypatch.setattr(cli, "corrupt", record_stats)
    assert main(["sample-stats", "--config", cfg_path, "--positives", "5"]) == 0
    capsys.readouterr()
    (stats_negs,) = drawn["stats"]
    assert stats_negs.shape == (5 * 2, 3)
    np.testing.assert_array_equal(stats_negs.reshape(5, 2, 3),
                                  np.stack([drawn["train"][i] for i in range(5)]))


# ---------------------------------------------------------------- vocab

def test_vocab_dump_round_trips_names(workspace, capsys, tmp_path):
    _, cfg_path = workspace
    out = tmp_path / "vocab"
    assert main(["vocab-dump", "--config", cfg_path, "--out", str(out)]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert printed == [str(out / "entities.tsv"), str(out / "relations.tsv")]
    ents = dict(line.split("\t") for line in (out / "entities.tsv").read_text().splitlines())
    assert ents["0"] == "a" and len(ents) == 4
    rels = dict(line.split("\t") for line in (out / "relations.tsv").read_text().splitlines())
    assert set(rels.values()) == {"links", "near"}


def vocab_snapshot(out):
    """Each entry of out: a file's bytes, or a directory's entries."""
    return {p.name: p.read_bytes() if p.is_file() else sorted(p.iterdir()) for p in out.iterdir()}


@pytest.mark.parametrize("earlier", [None, "0\tearlier\n"], ids=["absent", "present"])
def test_a_vocab_dump_that_fails_changes_neither_file(workspace, capsys, tmp_path, earlier):
    # both files are written in full, then the dump fails before either is
    # renamed: one target is a directory, or the second fsync fails.  The
    # three failures run in turn, each into its own directory
    _, cfg_path = workspace
    names = ("entities.tsv", "relations.tsv")
    for failure in names + ("fsync",):
        out = tmp_path / f"vocab-{failure}"
        out.mkdir()
        for name in names:
            if name == failure:
                (out / name).mkdir()
            elif earlier is not None:
                (out / name).write_text(earlier)
        before = vocab_snapshot(out)
        fsync, calls = files.os.fsync, []

        def second_fsync_fails(fd):
            calls.append(fd)
            if len(calls) == 2:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            fsync(fd)

        capsys.readouterr()
        with pytest.MonkeyPatch.context() as mp:
            if failure == "fsync":
                mp.setattr(files.os, "fsync", second_fsync_fails)
            assert main(["vocab-dump", "--config", cfg_path, "--out", str(out)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        named = out if failure == "fsync" else out / failure
        assert line.startswith(f"config error: {named}: "), failure
        # the same bytes or absence, an empty directory, no temporary file
        assert vocab_snapshot(out) == before, failure
        assert len(calls) == (2 if failure == "fsync" else 0)


@pytest.mark.parametrize("command, reason", [("vocab-dump", "File exists"),
                                             ("train", "Not a directory")])
def test_an_output_location_that_is_a_regular_file_is_a_config_error(workspace, capsys,
                                                                      monkeypatch, command,
                                                                      reason):
    # a regular file where a directory must go, not permissions: a test run
    # as root may write anywhere
    tmp_path, cfg_path = workspace
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    flags = ["--out", str(taken)]
    if command == "train":
        monkeypatch.setenv("MOEKGC_RUNS", str(taken))
        flags = []
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main([command, "--config", cfg_path] + flags) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"config error: {taken}") and reason in line
    assert taken.read_text() == "a file\n"
    assert sorted(tmp_path.rglob("*")) == before


# ---------------------------------------------------------------- malformed input

_FUZZ_TOKENS = (b"\t", b"nan", b"1e400", b"\x00", b"\xc3", b"\n", b",", b"-", b"#", b":")


def mutate(rng, data: bytes) -> bytes:
    """One byte-level mutation of data."""
    at = rng.randrange(len(data) + 1)
    kind = rng.choice(["truncate", "flip", "insert", "delete", "duplicate", "empty", "tabs"])
    if kind == "truncate":
        return data[:at]
    if kind == "flip" and data:
        i = min(at, len(data) - 1)
        return data[:i] + bytes([data[i] ^ (1 << rng.randrange(8))]) + data[i + 1:]
    if kind == "insert":
        return data[:at] + rng.choice(_FUZZ_TOKENS) + data[at:]
    if kind == "delete":
        return data[:at] + data[at + 1:]
    if kind == "duplicate":
        return data + data[at:]
    if kind == "tabs":
        return data[:at] + b"\t\t" + data[at:]
    return b""


def test_malformed_inputs_end_in_an_exit_code_not_a_traceback(workspace, capsys):
    tmp_path, cfg_path = workspace
    run_train(cfg_path)
    ckpt = tmp_path / "model.mkgc"
    ckpt.write_bytes((latest_run(tmp_path) / "checkpoint.mkgc").read_bytes())
    targets = [tmp_path / name for name in ("train.tsv", "valid.tsv", "test.tsv", "img.tsv",
                                            "config.yaml")] + [ckpt]
    originals = {path: path.read_bytes() for path in targets}
    commands = [["train"], ["eval", "--checkpoint", str(ckpt)],
                ["predict", "--checkpoint", str(ckpt), "--relation", "links", "--head", "a"],
                ["sample-stats", "--positives", "3"]]
    rng = random.Random(7)
    codes = []
    for trial in range(300):
        for path, data in originals.items():
            path.write_bytes(data)
        target = rng.choice(targets)
        target.write_bytes(mutate(rng, originals[target]))
        argv = rng.choice(commands) + ["--config", cfg_path]
        try:
            with np.errstate(all="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                codes.append(main(argv))
        except Exception as e:
            pytest.fail(f"trial {trial}: {argv[0]} with {target.name} mutated raised {e!r}")
        assert codes[-1] in (0, 1, 2, 3, 4), (trial, argv[0], target.name)
        capsys.readouterr()
    # the mutations reach every kind of error, and some leave a usable input
    assert set(codes) >= {0, 1, 2, 3}
