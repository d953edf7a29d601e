"""Tests for the optimizer, the ranking evaluator, checkpoints, and train()."""

import json
import math
import struct

import numpy as np
import pytest

import moekgc.autodiff as ad
from moekgc.config import ConfigError
from moekgc.fusion import FusionModel, ModelConfig
from moekgc.kgdata import KnowledgeGraph, ModalityFeatureTable, build_filter_index
from moekgc.sampling import NegativeSamplingConfig
from moekgc.scoring import score
from moekgc.trainer import (
    Adam,
    CheckpointError,
    CheckpointVersionError,
    TrainConfig,
    TrainingError,
    evaluate,
    load_checkpoint,
    mi_context_ids,
    save_checkpoint,
    train,
)

from oracles import rank_by_sort

EMPTY = np.zeros((0, 3), dtype=np.int64)


def make_kg(train, valid=None, test=None, n_entities=None, n_relations=None):
    train = np.asarray(train, dtype=np.int64).reshape(-1, 3)
    valid = EMPTY if valid is None else np.asarray(valid, dtype=np.int64).reshape(-1, 3)
    test = EMPTY if test is None else np.asarray(test, dtype=np.int64).reshape(-1, 3)
    stacked = np.concatenate([train, valid, test], axis=0)
    ne = n_entities if n_entities is not None else int(stacked[:, [0, 2]].max()) + 1
    nr = n_relations if n_relations is not None else int(stacked[:, 1].max()) + 1
    ents = [f"e{i}" for i in range(ne)]
    rels = [f"r{i}" for i in range(nr)]
    return KnowledgeGraph(
        entities=ents, relations=rels,
        entity_index={n: i for i, n in enumerate(ents)},
        relation_index={n: i for i, n in enumerate(rels)},
        train=train, valid=valid, test=test,
    )


def structure_model(kg, dim=8, seed=0, **cfg_kw):
    cfg = ModelConfig(embedding_dim=dim, experts=2, mi_bins=4, modalities=[], **cfg_kw)
    return FusionModel(cfg, kg.n_entities, kg.n_relations, {}, seed=seed)


def sampling_cfg(**kw):
    kw.setdefault("log_base", "base2")  # keep validate() quiet in tests
    return NegativeSamplingConfig(**kw)


# ---------------------------------------------------------------- adam

def test_adam_drives_a_quadratic_to_zero():
    x = ad.parameter(np.array([1.0], dtype=np.float32))
    opt = Adam({"x": x}, learning_rate=0.1)
    for _ in range(100):
        ad.reset_tape()
        loss = x.square().sum()
        ad.backward(loss)
        opt.step()
        opt.zero_grad()
    assert abs(float(x.data[0])) < 0.05


def test_adam_matches_a_hand_stepped_reference():
    # feed a fixed gradient sequence and compare against the textbook update
    rng = np.random.default_rng(5)
    shape = (3, 2)
    start = rng.normal(size=shape)
    grads = [rng.normal(size=shape) for _ in range(12)]

    with ad.using_dtype(np.float64):
        p = ad.parameter(start.copy())
    opt = Adam({"w": p}, learning_rate=0.01, beta1=0.9, beta2=0.999, eps=1e-8)

    x = start.copy()
    m = np.zeros(shape)
    v = np.zeros(shape)
    for t, g in enumerate(grads, start=1):
        p.grad = g.copy()
        opt.step()
        opt.zero_grad()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9 ** t)
        vhat = v / (1 - 0.999 ** t)
        x = x - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
    np.testing.assert_allclose(p.data, x, rtol=0, atol=1e-12)


def test_adam_skips_blocks_without_gradients():
    a = ad.parameter(np.ones(2, dtype=np.float32))
    b = ad.parameter(np.ones(2, dtype=np.float32))
    opt = Adam({"a": a, "b": b}, learning_rate=0.5)
    a.grad = np.ones(2)
    opt.step()
    assert not np.array_equal(a.data, np.ones(2))
    np.testing.assert_array_equal(b.data, np.ones(2))


# ---------------------------------------------------------------- context

def test_mi_context_ids_follow_file_order():
    kg = make_kg([(3, 0, 1), (1, 0, 2), (0, 0, 3)], n_entities=5)
    np.testing.assert_array_equal(mi_context_ids(kg, 3), [3, 1, 2])
    np.testing.assert_array_equal(mi_context_ids(kg, 100), [3, 1, 2, 0])


# ---------------------------------------------------------------- evaluate

def random_graph_and_model(rng, n_entities, n_relations=3, n_triples=12, dim=6):
    triples = np.stack([
        rng.integers(0, n_entities, size=n_triples),
        rng.integers(0, n_relations, size=n_triples),
        rng.integers(0, n_entities, size=n_triples),
    ], axis=1).astype(np.int64)
    triples = np.unique(triples, axis=0)
    cut = max(1, len(triples) // 3)
    kg = make_kg(triples[cut:], valid=triples[:1], test=triples[:cut],
                 n_entities=n_entities, n_relations=n_relations)
    model = structure_model(kg, dim=dim, seed=int(rng.integers(10_000)))
    return kg, model


def oracle_report(model, kg, split, mode):
    # second route to the metrics: score every candidate one pair at a time
    # with the float64 scorer, rank with the sort-based oracle
    fi = build_filter_index(kg)
    emb = np.asarray(model.params["entities"].data, dtype=np.float64)
    theta = np.asarray(model.params["rel_phases"].data, dtype=np.float64)
    rr, hits1, hits3, hits10, q = 0.0, 0, 0, 0, 0
    for h, r, t in kg.split(split):
        h, r, t = int(h), int(r), int(t)
        for side in ("tail", "head"):
            scores = np.empty(kg.n_entities)
            for e in range(kg.n_entities):
                if side == "tail":
                    scores[e] = score(emb[h], theta[r], emb[e], model.cfg.norm)
                else:
                    scores[e] = score(emb[e], theta[r], emb[t], model.cfg.norm)
            gold = t if side == "tail" else h
            known = fi.true_tails(h, r) if side == "tail" else fi.true_heads(r, t)
            allowed = np.ones(kg.n_entities, dtype=bool)
            if mode == "filtered":
                for e in known:
                    allowed[e] = False
                allowed[gold] = True
            rank = rank_by_sort(scores, gold, allowed)
            rr += 1.0 / rank
            hits1 += rank <= 1
            hits3 += rank <= 3
            hits10 += rank <= 10
            q += 1
    return {"mrr": rr / q, "hits1": hits1 / q, "hits3": hits3 / q,
            "hits10": hits10 / q, "queries": q}


@pytest.mark.parametrize("mode", ["filtered", "raw"])
def test_evaluate_matches_sort_oracle_on_random_graphs(mode):
    rng = np.random.default_rng(42)
    for _ in range(8):
        kg, model = random_graph_and_model(rng, n_entities=int(rng.integers(4, 15)))
        got = evaluate(model, kg, "test", mode, mi_ref_batch=16)
        want = oracle_report(model, kg, "test", mode)
        for key in ("mrr", "hits1", "hits3", "hits10"):
            assert got[key] == pytest.approx(want[key], abs=1e-12), key
        assert got["queries"] == want["queries"]


def test_evaluate_report_has_exactly_the_contract_keys():
    kg = make_kg([(0, 0, 1)], test=[(0, 0, 1)], n_entities=3)
    rep = evaluate(structure_model(kg), kg, "test", "raw")
    assert set(rep) == {"mrr", "hits1", "hits3", "hits10", "mode", "split", "queries"}
    assert rep["mode"] == "raw" and rep["split"] == "test" and rep["queries"] == 2


def test_evaluate_tied_duplicate_embeddings_share_mean_rank():
    # zero phases make the score a plain negative distance, so with e0 == e1
    # the gold sits in a two-way tie at the top of both queries: rank 1.5
    kg = make_kg([(0, 0, 1)], test=[(0, 0, 1)], n_entities=3)
    model = structure_model(kg, dim=4)
    shared = np.array([2.0, 0.0, 0.0, 0.0], dtype=np.float32)
    far = np.array([9.0, 0.0, 0.0, 0.0], dtype=np.float32)
    model.params["entities"].data = np.stack([shared, shared, far])
    model.params["rel_phases"].data = np.zeros_like(model.params["rel_phases"].data)
    rep = evaluate(model, kg, "test", "raw")
    assert rep["mrr"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert rep["hits1"] == 0.0
    assert rep["hits3"] == 1.0


def test_evaluate_constant_scorer_gives_expected_mean_rank():
    # identical embeddings tie every candidate: rank (E + 1) / 2 everywhere
    e = 7
    kg = make_kg([(0, 0, 1)], test=[(0, 0, 1), (2, 0, 3)], n_entities=e)
    model = structure_model(kg, dim=4)
    model.params["entities"].data = np.tile(
        np.array([1.0, 0.5, -0.25, 2.0], dtype=np.float32), (e, 1))
    rep = evaluate(model, kg, "test", "raw")
    assert rep["mrr"] == pytest.approx(2.0 / (e + 1), abs=1e-12)
    assert rep["hits10"] == 1.0  # rank 4 <= 10


def test_filtered_ranks_are_never_worse_than_raw():
    rng = np.random.default_rng(7)
    for _ in range(6):
        kg, model = random_graph_and_model(rng, n_entities=10, n_triples=25)
        filt = evaluate(model, kg, "test", "filtered", mi_ref_batch=8)
        raw = evaluate(model, kg, "test", "raw", mi_ref_batch=8)
        assert filt["mrr"] >= raw["mrr"] - 1e-12


def test_evaluate_rejects_bad_mode_and_empty_split():
    kg = make_kg([(0, 0, 1)], n_entities=3)
    model = structure_model(kg)
    with pytest.raises(ConfigError):
        evaluate(model, kg, "train", "both")
    with pytest.raises(ValueError):
        evaluate(model, kg, "valid", "raw")


# ---------------------------------------------------------------- train

def test_zero_epochs_leaves_the_model_at_initialization():
    kg = make_kg([(0, 0, 1), (1, 0, 2)], n_entities=4)
    result = train(kg, {}, ModelConfig(embedding_dim=8, experts=2, mi_bins=4, modalities=[]),
                   TrainConfig(max_epochs=0, seed=3), sampling_cfg())
    fresh = structure_model(kg, dim=8, seed=3)
    assert result.history == []
    assert result.stopped_epoch == 0
    assert result.best_valid_mrr is None
    for name, p in fresh.params.items():
        np.testing.assert_array_equal(result.model.params[name].data, p.data)


def test_loss_decreases_on_a_tiny_graph():
    kg = make_kg([(0, 0, 1), (1, 0, 2), (2, 0, 0)], n_entities=3)
    result = train(
        kg, {}, ModelConfig(embedding_dim=8, experts=2, mi_bins=4, modalities=[]),
        TrainConfig(learning_rate=0.05, batch_size=4, max_epochs=120, eval_every=1000, seed=0),
        sampling_cfg(negatives_per_positive=4, margin=2.0),
    )
    losses = [h["loss"] for h in result.history]
    assert len(losses) == 120
    first = float(np.mean(losses[:15]))
    last = float(np.mean(losses[-15:]))
    assert last < 0.6 * first
    assert all(math.isfinite(v) for v in losses)


def test_training_is_deterministic_per_seed(tmp_path):
    kg = make_kg([(0, 0, 1), (1, 1, 2), (2, 0, 3), (3, 1, 0)],
                 valid=[(0, 1, 1)], n_entities=4)
    mc = ModelConfig(embedding_dim=6, experts=2, mi_bins=4, modalities=[])
    tc = TrainConfig(learning_rate=0.02, batch_size=2, max_epochs=10, eval_every=5, seed=11)
    sc = sampling_cfg(negatives_per_positive=3, margin=2.0)
    a = train(kg, {}, mc, tc, sc)
    b = train(kg, {}, mc, tc, sc)
    assert a.history == b.history  # bitwise equal floats
    for name in a.model.params:
        np.testing.assert_array_equal(a.model.params[name].data, b.model.params[name].data)
    save_checkpoint(tmp_path / "a.ckpt", a.model)
    save_checkpoint(tmp_path / "b.ckpt", b.model)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    c = train(kg, {}, mc, TrainConfig(learning_rate=0.02, batch_size=2, max_epochs=10,
                                      eval_every=5, seed=12), sc)
    assert c.history != a.history


def test_early_stopping_uses_patience():
    # frozen learning makes validation flat, so patience should cut the run
    kg = make_kg([(0, 0, 1), (1, 0, 2)], valid=[(0, 0, 2)], n_entities=3)
    result = train(
        kg, {}, ModelConfig(embedding_dim=4, experts=2, mi_bins=4, modalities=[]),
        TrainConfig(learning_rate=1e-12, batch_size=4, max_epochs=500,
                    eval_every=1, patience=3, seed=0),
        sampling_cfg(negatives_per_positive=2),
    )
    # eval 1 sets the best; 3 more without improvement stop the loop
    assert result.stopped_epoch <= 10
    assert result.best_valid_mrr is not None


def test_train_config_validation():
    for bad in (
        dict(learning_rate=0.0),
        dict(batch_size=0),
        dict(max_epochs=-1),
        dict(eval_every=0),
        dict(patience=0),
        dict(mi_ref_batch=0),
    ):
        with pytest.raises(ConfigError):
            TrainConfig(**bad).validate()


# ---------------------------------------------------------------- checkpoint

def fitted_model_and_opt(tmp_path, with_modality=False):
    rng = np.random.default_rng(0)
    kg = make_kg([(0, 0, 1), (1, 1, 2), (2, 0, 3)], n_entities=4)
    tables = {}
    modalities = []
    if with_modality:
        feats = rng.normal(size=(3, 5)).astype(np.float32)
        tables["img"] = ModalityFeatureTable(
            modality="img", dim=5, features=feats,
            rows={0: 0, 1: 1, 3: 2}, coverage=0.75,
            present=np.array([0, 1, 3]))
        modalities = ["img"]
    cfg = ModelConfig(embedding_dim=6, experts=2, mi_bins=4, modalities=modalities)
    model = FusionModel(cfg, kg.n_entities, kg.n_relations, tables, seed=4)
    opt = Adam(model.params, learning_rate=0.01)
    # take a couple of real steps so moments are nonzero
    for _ in range(3):
        ad.reset_tape()
        joint, _ = model.fuse(np.array([0, 1, 2, 3]))
        loss = joint.square().sum()
        ad.backward(loss)
        opt.step()
        opt.zero_grad()
    ad.reset_tape()
    return kg, tables, model, opt


def test_checkpoint_round_trip_restores_parameters(tmp_path):
    kg, tables, model, opt = fitted_model_and_opt(tmp_path, with_modality=True)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, opt, extra={"note": "round trip"})
    loaded, state = load_checkpoint(path, tables, kg)
    for name, p in model.params.items():
        np.testing.assert_array_equal(loaded.params[name].data, p.data)
    assert state["adam_step"] == opt.t
    assert state["header"]["extra"]["note"] == "round trip"
    # moments survive the float32 narrowing within its precision
    for name in model.params:
        np.testing.assert_allclose(state["adam_m"][name], opt.m[name], rtol=1e-6, atol=1e-9)


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    kg, tables, model, opt = fitted_model_and_opt(tmp_path, with_modality=True)
    p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
    save_checkpoint(p1, model, opt)
    loaded, state = load_checkpoint(p1, tables, kg)
    opt2 = Adam(loaded.params, learning_rate=0.01)
    opt2.load_state({"step": state["adam_step"], "m": state["adam_m"], "v": state["adam_v"]})
    save_checkpoint(p2, loaded, opt2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_without_optimizer_loads_with_no_adam_state(tmp_path):
    kg, tables, model, _ = fitted_model_and_opt(tmp_path)
    path = tmp_path / "bare.ckpt"
    save_checkpoint(path, model)
    _, state = load_checkpoint(path, tables, kg)
    assert state["adam_step"] is None
    assert "adam_m" not in state


def test_corrupt_block_fails_crc(tmp_path):
    kg, tables, model, _ = fitted_model_and_opt(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF  # inside the last parameter block
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="CRC"):
        load_checkpoint(path, tables, kg)


def test_corrupt_header_is_a_checkpoint_error(tmp_path):
    # a flipped byte in the json header region must not leak a decode error
    kg, tables, model, _ = fitted_model_and_opt(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    blob = bytearray(path.read_bytes())
    blob[20] ^= 0xFF  # a few bytes into the header json
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="header"):
        load_checkpoint(path, tables, kg)


def test_truncated_preamble_is_a_checkpoint_error(tmp_path):
    path = tmp_path / "stub.ckpt"
    path.write_bytes(b"MKGC\x01")
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path, {}, None)


def test_version_mismatch_is_its_own_error(tmp_path):
    kg, tables, model, _ = fitted_model_and_opt(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointVersionError, match="99"):
        load_checkpoint(path, tables, kg)


def test_bad_magic_is_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path, {})


def rewrite_header(path, edit):
    """Apply edit to the JSON header of the checkpoint at path, in place."""
    blob = path.read_bytes()
    (n,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16:16 + n])
    edit(header)
    hdr = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<Q", len(hdr)) + hdr + blob[16 + n:])


@pytest.mark.parametrize("key", ["blocks", "config", "counts", "modality_dims"])
def test_header_missing_or_mistyped_field_is_a_checkpoint_error(tmp_path, key):
    kg, tables, model, _ = fitted_model_and_opt(tmp_path, with_modality=True)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    rewrite_header(path, lambda h: h.pop(key))
    with pytest.raises(CheckpointError, match=key):
        load_checkpoint(path, tables, kg)
    save_checkpoint(path, model)
    rewrite_header(path, lambda h: h.update({key: []}))
    with pytest.raises(CheckpointError, match=key):
        load_checkpoint(path, tables, kg)


@pytest.mark.parametrize("section,key", [("config", "norm"), ("config", "modalities"),
                                         ("counts", "entities"), ("modality_dims", "img")])
def test_header_missing_nested_field_is_a_checkpoint_error(tmp_path, section, key):
    kg, tables, model, _ = fitted_model_and_opt(tmp_path, with_modality=True)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    rewrite_header(path, lambda h: h[section].pop(key))
    with pytest.raises(CheckpointError, match=f"{section}.{key}"):
        load_checkpoint(path, tables, kg)


def test_modality_dim_mismatch_names_both_dims(tmp_path):
    kg, tables, model, _ = fitted_model_and_opt(tmp_path, with_modality=True)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    wrong = ModalityFeatureTable(
        modality="img", dim=9,
        features=np.zeros((3, 9), dtype=np.float32),
        rows={0: 0, 1: 1, 3: 2}, coverage=0.75, present=np.array([0, 1, 3]))
    with pytest.raises(ConfigError, match=r"5.*9|9.*5"):
        load_checkpoint(path, {"img": wrong}, kg)
    with pytest.raises(ConfigError, match="img"):
        load_checkpoint(path, {}, kg)


def test_entity_count_mismatch_is_rejected(tmp_path):
    kg, tables, model, _ = fitted_model_and_opt(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    other = make_kg([(0, 0, 1)], n_entities=9, n_relations=2)
    with pytest.raises(ConfigError, match="entities"):
        load_checkpoint(path, {}, other)


def test_loaded_model_evaluates_identically(tmp_path):
    kg, tables, model, _ = fitted_model_and_opt(tmp_path, with_modality=True)
    kg = make_kg(kg.train, valid=None, test=[(0, 0, 1)], n_entities=4, n_relations=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    loaded, _ = load_checkpoint(path, tables, kg)
    a = evaluate(model, kg, "test", "filtered", mi_ref_batch=4)
    b = evaluate(loaded, kg, "test", "filtered", mi_ref_batch=4)
    assert a == b
