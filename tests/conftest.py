"""Shared fixtures: the small CLI workspace several test modules drive."""

import pytest
import yaml

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
