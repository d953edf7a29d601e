"""End-to-end tests for the command line, driven through main() in process."""

import json
import os

import numpy as np
import pytest
import yaml

from moekgc.cli import load_config, load_data, main
from moekgc.config import ConfigError
from moekgc.fusion import FusionModel, ModelConfig
from moekgc.sampling import UnreachableHardClassWarning
from moekgc.scoring import score_candidates
from moekgc.trainer import _mean_rank, mi_context_ids, save_checkpoint

TRAIN = """a\tlinks\tb
b\tlinks\tc
c\tlinks\td
d\tlinks\ta
a\tnear\tc
b\tnear\td
"""
VALID = "a\tlinks\tc\n"
TEST = "b\tlinks\ta\n"
IMG = """a\t0.1,0.2,0.9
b\t0.8,0.1,0.1
c\t0.2,0.7,0.3
"""


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    (tmp_path / "train.tsv").write_text(TRAIN)
    (tmp_path / "valid.tsv").write_text(VALID)
    (tmp_path / "test.tsv").write_text(TEST)
    (tmp_path / "img.tsv").write_text(IMG)
    cfg = {
        "data": {
            "train": str(tmp_path / "train.tsv"),
            "valid": str(tmp_path / "valid.tsv"),
            "test": str(tmp_path / "test.tsv"),
            "modalities": {"img": str(tmp_path / "img.tsv")},
        },
        "model": {"embedding_dim": 8, "experts": 2, "mi_bins": 4, "modalities": ["img"]},
        "training": {"learning_rate": 0.01, "batch_size": 8, "max_epochs": 3,
                     "eval_every": 2, "patience": 5, "seed": 1, "mi_ref_batch": 8},
        "sampling": {"negatives_per_positive": 2, "margin": 2.0, "log_base": "base2"},
    }
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    monkeypatch.setenv("MOEKGC_RUNS", str(tmp_path / "runs"))
    return tmp_path, str(cfg_path)


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
    (tmp_path / f"{split}.tsv").write_text("c\tlinks\td\n")  # line 3 of TRAIN
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


def test_eval_header_without_config_exits_1(workspace, capsys):
    tmp_path, cfg_path = workspace
    run_train(cfg_path)
    ckpt = latest_run(tmp_path) / "checkpoint.mkgc"
    blob = ckpt.read_bytes()
    n = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:16 + n])
    del header["config"]
    hdr = json.dumps(header).encode("utf-8")
    ckpt.write_bytes(blob[:8] + len(hdr).to_bytes(8, "little") + hdr + blob[16 + n:])
    capsys.readouterr()
    assert main(["eval", "--config", cfg_path, "--checkpoint", str(ckpt)]) == 1
    assert "config" in capsys.readouterr().err


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
    # the same ranks trainer._mean_rank gives with the printed filter
    emb = model.all_joint_embeddings(mi_context_ids(kg, 8))  # the workspace mi_ref_batch
    scores = score_candidates(emb, np.zeros(2), emb[kg.entity_index["a"]], "tail")
    keep = np.ones(kg.n_entities, dtype=bool)
    if mode == "filtered":
        keep[[kg.entity_index["b"], kg.entity_index["c"]]] = False
    assert [float(rank) for rank, _, _ in rows] == [
        _mean_rank(scores, kg.entity_index[name], keep) for _, name, _ in rows]


@pytest.mark.parametrize("top", ["0", "-1"])
def test_predict_rejects_top_below_one(workspace, capsys, top):
    tmp_path, cfg_path = workspace
    _, _, ckpt = tied_checkpoint(tmp_path, cfg_path)
    capsys.readouterr()
    assert main(["predict", "--config", cfg_path, "--checkpoint", ckpt, "--relation", "links",
                 "--head", "a", "--mode", "raw", "--top", top]) == 2
    assert capsys.readouterr().out == ""


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
], ids=["seed", "model", "modality-without-table", "sampling"])
def test_rejected_train_settings_create_no_run_directory(workspace, capsys, flags):
    tmp_path, cfg_path = workspace
    assert main(["train", "--config", cfg_path] + flags) == 2
    assert "config error" in capsys.readouterr().err
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
