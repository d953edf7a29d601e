"""The input generator is a pure function of workload and seed."""

import os
import warnings

import numpy as np

import gen
from moekgc import cli


def _files(path):
    return {name: open(os.path.join(path, name), "rb").read() for name in sorted(os.listdir(path))}


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for workload in ("train-desk", "train-medium"):
        a, b = tmp_path / f"{workload}-a", tmp_path / f"{workload}-b"
        gen.generate(workload, 7, str(a))
        gen.generate(workload, 7, str(b))
        assert _files(a) == _files(b)
        c = tmp_path / f"{workload}-c"
        gen.generate(workload, 8, str(c))
        assert _files(c)["train.tsv"] != _files(a)["train.tsv"]


def test_medium_inputs_load_with_features_only_for_train_entities(tmp_path):
    gen.generate("train-medium", 3, str(tmp_path))
    with gen.working_dir(str(tmp_path)), warnings.catch_warnings():
        # base2 entropy: the default delta2 is reachable, nothing warns
        warnings.simplefilter("error")
        cfg = cli.load_config(gen.CONFIG_NAME)
        kg, tables = cli.load_data(cfg)
        cli.section_configs(cfg)[2].validate()
    assert kg.n_entities == gen.MEDIUM_ENTITIES
    assert kg.n_relations == gen.MEDIUM_RELATIONS
    assert len(kg.train) == gen.MEDIUM_TRAIN and len(kg.test) == gen.MEDIUM_TEST
    in_train = set(kg.train[:, 0].tolist()) | set(kg.train[:, 2].tolist())
    for name, dim, coverage in gen.MEDIUM_MODALITIES:
        assert tables[name].dim == dim
        assert abs(tables[name].coverage - coverage) < 1e-3
        assert set(tables[name].rows) <= in_train
    # four coverage groups: both, img only, txt only, neither
    img, txt = set(tables["img"].rows), set(tables["txt"].rows)
    everyone = set(range(kg.n_entities))
    assert all(group for group in (img & txt, img - txt, txt - img, everyone - img - txt))


def test_desk_graph_is_the_c09_clustered_graph(tmp_path):
    splits, tables = gen.clustered_graph(0)
    assert sum(len(s) for s in splits.values()) == 300
    assert len(splits["train"]) == 105
    assert set(tables) == {"attr", "attr_dup"}
    assert all(t.shape == (100, 10) and t.dtype == np.float32 for t in tables.values())
