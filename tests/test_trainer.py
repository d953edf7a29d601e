"""Tests for the optimizer, the ranking evaluator, checkpoints, and train()."""

import dataclasses
import json
import math
import os
import re
import stat
import struct
import sys
import threading
import time
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest

import moekgc.autodiff as ad
import moekgc.files as files
import moekgc.fusion as fusion
import moekgc.parallel as parallel
import moekgc.scoring as scoring
import moekgc.trainer as trainer
from moekgc.cli import apply_overrides, build_parser, load_config, load_data, main, section_configs
from moekgc.config import ConfigError
from moekgc.files import atomic_write
from moekgc.fusion import FusionModel, ModelConfig
from moekgc.kgdata import DataError, KnowledgeGraph, ModalityFeatureTable, build_filter_index
from moekgc.sampling import NegativeSamplingConfig, corrupt
from moekgc.scoring import score, score_candidates
from moekgc.trainer import (
    Adam,
    CheckpointError,
    CheckpointVersionError,
    TrainConfig,
    TrainingError,
    _mean_rank,
    _tie_counts,
    evaluate,
    load_checkpoint,
    mi_context_ids,
    save_checkpoint,
    train,
)

import fanout
from oracles import PerBlockAdam, add_grad, copy_mean_rank, rank_by_sort, square
from synthetic import clustered_graph

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

def store_of(arrays):
    """A ParamStore of the default dtype holding each name -> array, in order."""
    store = ad.ParamStore({n: np.shape(a) for n, a in arrays.items()})
    for n, a in arrays.items():
        store[n].data[...] = a
    return store


def test_adam_drives_a_quadratic_to_zero():
    store = store_of({"x": np.array([1.0])})
    x = store["x"]
    opt = Adam(store, learning_rate=0.1)
    for _ in range(100):
        ad.reset_tape()
        loss = square(x).sum()
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
        store = store_of({"w": start})
    p = store["w"]
    opt = Adam(store, learning_rate=0.01)

    x = start.copy()
    m = np.zeros(shape)
    v = np.zeros(shape)
    for t, g in enumerate(grads, start=1):
        add_grad(p, g)
        opt.step()
        opt.zero_grad()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9 ** t)
        vhat = v / (1 - 0.999 ** t)
        x = x - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
    np.testing.assert_allclose(p.data, x, rtol=0, atol=1e-12)


def test_adam_skips_blocks_without_gradients():
    store = store_of({"a": np.ones(2), "b": np.ones(2)})
    a, b = store["a"], store["b"]
    opt = Adam(store, learning_rate=0.5)
    add_grad(a, np.ones(2))
    opt.step()
    assert not np.array_equal(a.data, np.ones(2))
    np.testing.assert_array_equal(b.data, np.ones(2))


def test_blocked_adam_matches_the_whole_block_update_bitwise():
    rng = np.random.default_rng(9)
    chunk = trainer._ADAM_CHUNK
    # several chunks and a short last one, exactly one chunk, and one small block
    shapes = {"big": (3, chunk + 5), "one_chunk": (chunk,), "small": (4, 3)}
    params = store_of({n: rng.normal(size=s) for n, s in shapes.items()})
    opt = Adam(params, learning_rate=0.01)
    # the unblocked update: whole-block float64 expressions, in this order,
    # from the float32 moments, which keep the float64 ones rounded
    want = {n: p.data.copy() for n, p in params.items()}
    m = {n: np.zeros(s, dtype=np.float32) for n, s in shapes.items()}
    v = {n: np.zeros(s, dtype=np.float32) for n, s in shapes.items()}
    for t in range(1, 6):
        c1, c2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
        for n, p in params.items():
            add_grad(p, rng.normal(size=shapes[n]).astype(np.float32))
            g = p.grad.astype(np.float64)
            mt = 0.9 * m[n].astype(np.float64) + (1.0 - 0.9) * g
            vt = 0.999 * v[n].astype(np.float64) + (1.0 - 0.999) * (g * g)
            update = 0.01 * (mt / c1) / (np.sqrt(vt / c2) + 1e-8)
            want[n] = (want[n].astype(np.float64) - update).astype(np.float32)
            m[n], v[n] = mt.astype(np.float32), vt.astype(np.float32)
        opt.step()
        opt.zero_grad()
    for n, p in params.items():
        assert p.data.dtype == np.float32 and p.data.tobytes() == want[n].tobytes(), n
        assert opt.m[n].dtype == opt.v[n].dtype == np.float32, n
        assert opt.m[n].tobytes() == m[n].tobytes() and opt.v[n].tobytes() == v[n].tobytes(), n


def test_adam_load_state_keeps_its_own_moments():
    # moments of a chunked block are updated in place: never the caller's arrays
    store = store_of({"w": np.zeros(trainer._ADAM_CHUNK + 1)})
    w = store["w"]
    m0, v0 = np.zeros(w.shape), np.zeros(w.shape)
    opt = Adam(store, learning_rate=0.1)
    opt.load_state({"adam_step": 0, "adam_m": {"w": m0}, "adam_v": {"w": v0}})
    add_grad(w, np.ones(w.shape, dtype=np.float32))
    opt.step()
    assert not m0.any() and not v0.any()
    assert opt.m["w"].all() and opt.v["w"].all()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adam_names_the_first_non_finite_gradient_and_leaves_the_parameters(bad):
    chunk = trainer._ADAM_CHUNK
    # one chunk joins "b" with the start of "c"; the end of "c" is a later chunk
    sizes = (("a", chunk - 3), ("skip", 4), ("b", 7), ("c", 2 * chunk))
    params = store_of({n: np.full(size, 0.5) for n, size in sizes})
    opt = Adam(params, learning_rate=0.1)
    for n in ("a", "b", "c"):
        add_grad(params[n], np.ones(params[n].shape, dtype=np.float32))
    opt.step()  # moments and step count away from their start
    params["b"].grad[5] = bad
    params["c"].grad[-1] = bad

    def state():
        return opt.params.flat.tobytes(), opt._m.tobytes(), opt._v.tobytes(), opt.t

    before = state()
    with pytest.raises(TrainingError, match=r"^non-finite gradient in block b$"):
        opt.step()
    # nothing moved: not the parameters, the step count, nor the moments of
    # "a", whose chunks come before the bad one
    assert state() == before and opt.t == 1
    params["b"].grad[5] = 1.0
    with pytest.raises(TrainingError, match=r"^non-finite gradient in block c$"):
        opt.step()
    assert state() == before


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_adam_on_the_block_map_matches_the_per_block_oracle_bitwise(workers, monkeypatch):
    # the update split over the block map (fanout.blocks: chunks of 64
    # elements) gives the per-block oracle's bytes, the pool running spans
    threads = set()
    update = Adam._update

    def noting_update(self, *args):
        threads.add(threading.current_thread().name)
        return update(self, *args)

    monkeypatch.setattr(Adam, "_update", noting_update)
    # spans write disjoint parts of the moments and the new buffer: switch
    # threads often, so that an update lost between them would show
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    rng = np.random.default_rng(23)
    try:
        run_adam_on_the_block_map(workers, rng)
    finally:
        sys.setswitchinterval(switch)
    assert any(t.startswith("moekgc-block") for t in threads) == (workers > 1)


def run_adam_on_the_block_map(workers, rng):
    """Adam and PerBlockAdam side by side over four steps, bytes compared
    after each."""
    with fanout.blocks(workers, 1):
        chunk = trainer._ADAM_CHUNK
        # one run of blocks that straddle chunks and spans, a block without
        # a gradient, then a second, short run
        shapes = {"big": (7, 5 * chunk + 3), "odd": (3 * chunk - 1,), "small": (5, 3),
                  "never": (chunk + 1,), "tail": (2, chunk + 7)}
        start = {n: rng.normal(size=s) for n, s in shapes.items()}
        fused = store_of(start)
        blockwise = {n: ad.parameter(a) for n, a in start.items()}
        opt = Adam(fused, learning_rate=0.01)
        oracle = PerBlockAdam(blockwise, learning_rate=0.01, chunk=chunk)
        for t in range(4):
            fused.zero_grad()
            for n, shape in shapes.items():
                if n != "never":
                    g = rng.normal(size=shape).astype(np.float32)
                    add_grad(fused[n], g)
                    blockwise[n].grad = g.copy()
            opt.step()
            oracle.step()
            for n in shapes:
                assert fused[n].data.tobytes() == blockwise[n].data.tobytes(), (t, n)
                assert opt.m[n].tobytes() == oracle.m[n].tobytes(), (t, n)
                assert opt.v[n].tobytes() == oracle.v[n].tobytes(), (t, n)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_adam_matches_the_per_block_oracle_bitwise(dtype):
    chunk = trainer._ADAM_CHUNK
    # blocks below, at and above one chunk, laid out so that chunks straddle
    # blocks; "never" has no gradient, "gap" loses it for step 3 only, and
    # "small" gets float64 gradients whatever the store's dtype, cast into
    # the store's gradient buffer as backward casts them
    shapes = {"small": (5, 3), "at": (chunk,), "above": (2, chunk + 7), "never": (4,),
              "gap": (chunk // 2 + 3,), "tail": (3, 11)}
    rng = np.random.default_rng(21)
    start = {n: rng.normal(size=s) for n, s in shapes.items()}
    with ad.using_dtype(dtype):
        fused = store_of(start)
        blockwise = {n: ad.parameter(a) for n, a in start.items()}
    opt = Adam(fused, learning_rate=0.01)
    oracle = PerBlockAdam(blockwise, learning_rate=0.01, chunk=chunk)
    for t in range(6):
        fused.zero_grad()
        for n, shape in shapes.items():
            g = None
            if n != "never" and not (n == "gap" and t == 2):
                g = rng.normal(size=shape)
                g = g if n == "small" else g.astype(dtype)
                add_grad(fused[n], g)
            blockwise[n].grad = None if g is None else g.astype(dtype)
        opt.step()
        oracle.step()
        small = fused["small"].grad
        assert small.dtype == dtype and np.shares_memory(small, fused.grad_flat)
        for n in shapes:
            assert fused[n].data.dtype == dtype
            assert fused[n].data.tobytes() == blockwise[n].data.tobytes(), (t, n)
            assert opt.m[n].tobytes() == oracle.m[n].tobytes(), (t, n)
            assert opt.v[n].tobytes() == oracle.v[n].tobytes(), (t, n)
    np.testing.assert_array_equal(fused["never"].data, start["never"].astype(dtype))


def assert_on_the_store(model):
    """Every parameter and bank view of model is a view of its store's buffer,
    and each bank reads as the stack of its members."""
    store = model.params
    for name, p in store.items():
        assert np.shares_memory(p.data, store.flat), name
    for key, (_, _, shape, members) in store._banks.items():
        bank = store.bank(key).data
        assert np.shares_memory(bank, store.flat), key
        np.testing.assert_array_equal(bank, np.stack([p.data for p in members]).reshape(shape))


def test_parameters_stay_views_of_the_store(tmp_path):
    kg, tables, model, opt = fitted_model_and_opt(tmp_path, with_modality=True)
    assert_on_the_store(FusionModel(model.cfg, kg.n_entities, kg.n_relations, tables, seed=4))
    assert_on_the_store(model)  # after Adam steps
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, opt)
    loaded, _ = load_checkpoint(path, tables, kg)
    assert_on_the_store(loaded)
    for name, p in model.params.items():
        np.testing.assert_array_equal(loaded.params[name].data, p.data)


def test_train_restores_the_best_parameters_into_the_store(monkeypatch):
    kg, tables = clustered_graph(seed=0)
    mcfg = ModelConfig(embedding_dim=8, experts=2, mi_bins=4, modalities=["attr"])
    tcfg = TrainConfig(learning_rate=0.05, batch_size=64, max_epochs=4, eval_every=1,
                       patience=10, seed=3)
    mrrs = iter([0.5, 0.9, 0.4, 0.3])  # best after epoch 1
    snapshots = []
    real_evaluate = trainer.evaluate

    def scripted(model, *args, **kwargs):
        snapshots.append(model.params.flat.copy())
        return dict(real_evaluate(model, *args, **kwargs), mrr=next(mrrs))

    monkeypatch.setattr(trainer, "evaluate", scripted)
    result = train(kg, {"attr": tables["attr"]}, mcfg, tcfg,
                   sampling_cfg(negatives_per_positive=2))
    assert result.best_valid_mrr == 0.9
    assert_on_the_store(result.model)
    assert result.model.params.flat.tobytes() == snapshots[1].tobytes()


def test_in_place_writes_reach_fuse_and_adam_and_rebinding_raises():
    # values go into the store's buffer in place, which the banks, fuse and
    # Adam read; rebinding a parameter or its gradient raises where it is done
    kg, tables = clustered_graph(seed=0)
    cfg = ModelConfig(embedding_dim=8, experts=2, mi_bins=4, modalities=["attr"])
    model, twin = (FusionModel(cfg, kg.n_entities, kg.n_relations, tables, seed=s)
                   for s in (1, 2))
    store, ids = model.params, np.arange(12)
    before, _ = model.fuse(ids)
    rng = np.random.default_rng(2)
    for name in ("proj.attr.w1", "expert.attr.1.b2"):  # a plain block, a bank member
        store[name].data[...] = rng.normal(size=store[name].shape)
    np.testing.assert_array_equal(store.bank("expert.attr.*.b2").data[1, 0],
                                  store["expert.attr.1.b2"].data)
    twin.params.flat[...] = store.flat
    got, _ = model.fuse(ids)
    want, _ = twin.fuse(ids)
    assert got.data.tobytes() == want.data.tobytes() != before.data.tobytes()
    assert_on_the_store(model)

    opt = Adam(store, learning_rate=0.1)
    entities = store["entities"]
    entities.data[...] = 0.25
    add_grad(entities, np.ones(entities.shape))
    opt.step()
    # a first step moves each element by lr * g / (|g| + EPS), from the values written
    np.testing.assert_allclose(entities.data, 0.15, rtol=1e-6)
    assert_on_the_store(model)

    flat, grad_flat = store.flat.tobytes(), store.grad_flat.tobytes()
    # the type, not the text: Python 3.10 and 3.11 word the error differently
    with pytest.raises(AttributeError):
        entities.data = np.zeros(entities.shape, dtype=np.float32)
    with pytest.raises(AttributeError):
        entities.grad = np.zeros(entities.shape, dtype=np.float32)
    with pytest.raises(AttributeError):
        store["rel_phases"].grad = np.ones(store["rel_phases"].shape, dtype=np.float32)
    assert store.flat.tobytes() == flat and store.grad_flat.tobytes() == grad_flat
    assert store["rel_phases"].grad is None
    assert_on_the_store(model)


def test_store_gradients_are_views_of_one_buffer_that_adam_zero_grad_drops():
    # backward writes every store parameter's gradient into its block of
    # the store's gradient buffer, which Adam steps over and zero_grad frees
    kg, tables = clustered_graph(seed=0)
    cfg = ModelConfig(embedding_dim=16, experts=3, mi_bins=8, modalities=["attr", "attr_dup"])
    model = FusionModel(cfg, kg.n_entities, kg.n_relations, tables, seed=0)
    store, opt = model.params, Adam(model.params, 0.1)
    triples = kg.train[:16]
    ad.reset_tape()
    joint, _ = model.fuse(np.arange(kg.n_entities))
    scores = scoring.score_batch(ad.gather_rows(joint, triples[:, 0]),
                                 ad.gather_rows(model.relation_phases, triples[:, 1]),
                                 ad.gather_rows(joint, triples[:, 2]), cfg.norm)
    ad.backward(scores.sum())
    homes = store.views(store.grad_flat)
    with_grad = [name for name, p in store.items() if p.grad is not None]
    assert {"entities", "rel_phases", "expert.attr.2.w1"} <= set(with_grad)
    for name in with_grad:
        g = store[name].grad
        assert g.dtype == np.float32 and g.shape == homes[name].shape, name
        assert g.ctypes.data == homes[name].ctypes.data, name
    opt.zero_grad()
    assert store.grad_flat is None and all(p.grad is None for p in store.values())


def test_desk_step_tape_is_short_and_released_before_adam(monkeypatch):
    # the c09 full model at B=16, 8 negatives: fused layers and scorer, one
    # node per expert bank and one placement of the sources keep fuse plus
    # scoring and loss to 41 nodes
    kg, tables = clustered_graph(seed=0)
    cfg = ModelConfig(embedding_dim=16, experts=3, mi_bins=8, modalities=["attr", "attr_dup"])
    model = FusionModel(cfg, kg.n_entities, kg.n_relations, tables, seed=0)
    samp = sampling_cfg(negatives_per_positive=8, margin=6.0)
    rows = np.arange(16)
    positives = kg.train[rows]
    negatives = corrupt(positives, 8, build_filter_index(kg), kg.n_entities, 0, rows=rows)
    seen = {}
    backward, step = ad.backward, Adam.step

    def counting_backward(loss):
        seen["backward"] = ad.tape_size()
        backward(loss)

    def counting_step(opt):
        seen["adam"] = ad.tape_size()
        step(opt)

    monkeypatch.setattr(ad, "backward", counting_backward)
    monkeypatch.setattr(Adam, "step", counting_step)
    trainer._batch_step(model, Adam(model.params, 0.1), positives, negatives, samp)
    assert 0 < seen["backward"] <= 41
    assert seen["adam"] == 0


def test_desk_step_frees_the_fusion_buffers_before_backward(monkeypatch):
    # no backward rule reads the expert views, the stacked sources or the
    # weighted sums (intra and joint): they are gone when backward starts,
    # and backward leaves the tape empty
    kg, tables = clustered_graph(seed=0)
    cfg = ModelConfig(embedding_dim=16, experts=3, mi_bins=8, modalities=["attr", "attr_dup"])
    model = FusionModel(cfg, kg.n_entities, kg.n_relations, tables, seed=0)
    samp = sampling_cfg(negatives_per_positive=8, margin=6.0)
    rows = np.arange(16)
    positives = kg.train[rows]
    negatives = corrupt(positives, 8, build_filter_index(kg), kg.n_entities, 0, rows=rows)
    made = {"views": [], "sources": [], "weighted": []}
    experts, place_rows, weighted_sum, backward = (
        FusionModel._experts, ad.place_rows, ad.weighted_sum, ad.backward)

    def noting(kind, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            made[kind].append(weakref.ref(out.data))
            return out
        return wrapped

    alive = {}

    def checking_backward(loss):
        alive.update({kind: sum(ref() is not None for ref in refs) for kind, refs in made.items()})
        backward(loss)
        alive["tape"] = ad.tape_size()

    monkeypatch.setattr(FusionModel, "_experts", noting("views", experts))
    monkeypatch.setattr(ad, "place_rows", noting("sources", place_rows))
    monkeypatch.setattr(ad, "weighted_sum", noting("weighted", weighted_sum))
    monkeypatch.setattr(ad, "backward", checking_backward)
    trainer._batch_step(model, Adam(model.params, 0.1), positives, negatives, samp)
    assert [len(made[k]) for k in ("views", "sources", "weighted")] == [2, 1, 3]
    assert alive == {"views": 0, "sources": 0, "weighted": 0, "tape": 0}


def test_desk_training_with_split_layers_equals_one_thread(tmp_path, monkeypatch):
    # the c09 full model trained and evaluated with every fast path cut into
    # several blocks, levels and pieces (fanout.blocks), on 1, 2 and 3
    # workers, against a run with every threshold raised (fanout.plain):
    # the same history, checkpoint bytes and filtered test report, the pool
    # running blocks, and 41 tape nodes in every step, all consumed
    kg, tables = clustered_graph(seed=0)
    cfg = ModelConfig(embedding_dim=16, experts=3, mi_bins=8, modalities=["attr", "attr_dup"])
    tc = TrainConfig(learning_rate=0.1, batch_size=16, max_epochs=4, eval_every=2, seed=0,
                     mi_ref_batch=64)
    samp = sampling_cfg(negatives_per_positive=8, margin=6.0)
    nodes, threads, scatters, score_blocks = [], set(), [], []
    backward, matmul_into = ad.backward, ad._matmul_into
    scatter_rows, row_blocks = ad._scatter_rows, scoring._row_blocks

    def counting_backward(loss):
        before = ad.tape_size()
        backward(loss)
        nodes.append((before, ad.tape_size()))

    def noting_matmul(a, b, dest):
        threads.add(threading.current_thread().name)
        return matmul_into(a, b, dest)

    def noting_scatter(idx, g, shape, dtype):
        # by levels, and how many rows its first level adds
        scatters.append((idx.size * math.prod(shape[1:]) >= ad._LEVEL_ELEMENTS,
                         len(np.unique(idx))))
        return scatter_rows(idx, g, shape, dtype)

    def noting_row_blocks(*arrays):
        out = row_blocks(*arrays)
        score_blocks.append(len(out))
        return out

    monkeypatch.setattr(ad, "backward", counting_backward)
    monkeypatch.setattr(ad, "_matmul_into", noting_matmul)
    monkeypatch.setattr(ad, "_scatter_rows", noting_scatter)
    monkeypatch.setattr(scoring, "_row_blocks", noting_row_blocks)
    runs = []
    for w in (None, 1, 2, 3):
        for seen in (nodes, scatters, score_blocks):
            seen.clear()
        threads.clear()
        with fanout.plain() if w is None else fanout.blocks(w, kg.n_entities):
            result = train(kg, tables, cfg, tc, samp)
            report = evaluate(result.model, kg, "test", "filtered", tc.mi_ref_batch)
            levels = ad._LEVEL_ROWS, ad._PIECE_ROWS
        save_checkpoint(tmp_path / f"{w}.mkgc", result.model)
        runs.append((result.history, (tmp_path / f"{w}.mkgc").read_bytes(), report))
        assert nodes and set(nodes) == {(41, 0)}
        assert any(t.startswith("moekgc-block") for t in threads) == ((w or 0) > 1)
        if w is None:
            assert not any(by_levels for by_levels, _ in scatters) and set(score_blocks) == {1}
        else:
            # a level added by fancy index in several pieces, and a scorer
            # pass over several row blocks
            assert any(by_levels and rows > max(levels) for by_levels, rows in scatters)
            assert max(score_blocks) > 1
    assert len(runs[0][0]) == tc.max_epochs and all(run == runs[0] for run in runs[1:])


# ---------------------------------------------------------------- context

def test_mi_context_ids_follow_file_order():
    kg = make_kg([(3, 0, 1), (1, 0, 2), (0, 0, 3)], n_entities=5)
    np.testing.assert_array_equal(mi_context_ids(kg, 3), [3, 1, 2])
    np.testing.assert_array_equal(mi_context_ids(kg, 100), [3, 1, 2, 0])


@pytest.mark.parametrize("n", [0, -5])
def test_an_mi_context_below_one_entity_is_a_config_error(n):
    # it would silently become every train entity
    kg = make_kg([(3, 0, 1), (1, 0, 2), (0, 0, 3)], n_entities=5, test=[(3, 0, 2)])
    with pytest.raises(ConfigError, match=f"mi_ref_batch must be >= 1, got {n}"):
        mi_context_ids(kg, n)
    with pytest.raises(ConfigError, match="mi_ref_batch"):
        evaluate(structure_model(kg), kg, "test", "raw", mi_ref_batch=n)


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
    model.params["entities"].data[...] = np.stack([shared, shared, far])
    model.params["rel_phases"].data[...] = 0.0
    rep = evaluate(model, kg, "test", "raw")
    assert rep["mrr"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert rep["hits1"] == 0.0
    assert rep["hits3"] == 1.0


def test_evaluate_constant_scorer_gives_expected_mean_rank():
    # identical embeddings tie every candidate: rank (E + 1) / 2 everywhere
    e = 7
    kg = make_kg([(0, 0, 1)], test=[(0, 0, 1), (2, 0, 3)], n_entities=e)
    model = structure_model(kg, dim=4)
    model.params["entities"].data[...] = np.array([1.0, 0.5, -0.25, 2.0], dtype=np.float32)
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


def near_tie_graph(norm, dtype, scale):
    """40 entities in near-tied groups and 40 test triples.

    Entity 1 duplicates entity 0, entities 2 and 3 sit one ulp above and
    below it in every coordinate, entity 4 is zero, 5-9 repeat one row; the
    rest are random.  Relation 0 has zero phases, so a head and its own
    candidates tie exactly there.
    """
    rng = np.random.default_rng(11)
    n, dim = 40, 8
    emb = (rng.normal(size=(n, dim)) * scale).astype(dtype)
    emb[1] = emb[0]
    emb[2] = np.nextafter(emb[0], dtype(np.inf))
    emb[3] = np.nextafter(emb[0], dtype(-np.inf))
    emb[4] = 0.0
    emb[5:10] = emb[5]
    triples = [(int(rng.integers(n)), int(rng.integers(3)), int(rng.integers(n)))
               for _ in range(40)]
    test = triples[:33] + [(0, 0, 0), (1, 0, 1), (2, 0, 2), (3, 0, 3), (4, 0, 4),
                           (5, 0, 9), (6, 0, 10)]
    train = triples[33:] + [(0, 0, 1), (2, 0, 3), (5, 1, 6), (7, 1, 5), (4, 2, 0)]
    kg = make_kg(train, test=test, n_entities=n, n_relations=3)
    with ad.using_dtype(dtype):
        model = structure_model(kg, dim=dim, seed=5, norm=norm)
    model.params["rel_phases"].data[0] = 0.0
    model.params["entities"].data[...] = emb
    return kg, model


def record_rank_calls(monkeypatch):
    """Capture (better, tied, rank) of every _mean_rank call, each of which
    must run on the main thread."""
    calls = []

    def recording(better, tied):
        assert threading.current_thread() is threading.main_thread()
        rank = _mean_rank(better, tied)
        calls.append((better, tied, rank))
        return rank

    monkeypatch.setattr(trainer, "_mean_rank", recording)
    return calls


def direct_queries(model, kg, mode):
    """(gold, allowed, direct rank) per query in evaluate's order, scored over
    every candidate by score_candidates and ranked from a copy of the
    allowed scores."""
    fi = build_filter_index(kg)
    emb = model.all_joint_embeddings(mi_context_ids(kg, 256))
    theta = np.asarray(model.relation_phases.data, dtype=np.float64)
    out = []
    for h, r, t in kg.test.tolist():
        for side, fixed, gold, known in (("tail", h, t, fi.true_tails(h, r)),
                                         ("head", t, h, fi.true_heads(r, t))):
            scores = score_candidates(emb, theta[r], emb[fixed], side, model.cfg.norm)
            allowed = np.ones(kg.n_entities, dtype=bool)
            if mode == "filtered":
                allowed[list(known)] = False
                allowed[gold] = True
            out.append((gold, allowed, copy_mean_rank(scores, gold, allowed)))
    return out


@pytest.mark.parametrize("scale", [1.0, 1e6, 1e-6])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("norm", ["l2", "l1"])
@pytest.mark.parametrize("mode", ["filtered", "raw"])
def test_evaluate_ranks_equal_direct_ranks_on_near_ties(monkeypatch, mode, norm, dtype, scale):
    # the l2 path ranks from GEMM distances plus an exactly rescored band;
    # every per-query rank must equal the full direct scorer's, in one block
    # and in small blocks run inline or on the pool.  The l1 path scores on
    # the calling thread alone: perfbench's single-threaded tracer wraps
    # score_candidates
    kg, model = near_tie_graph(norm, dtype, scale)
    want = direct_queries(model, kg, mode)
    calls = record_rank_calls(monkeypatch)

    def on_the_main_thread(*args):
        assert threading.current_thread() is threading.main_thread()
        return score_candidates(*args)

    monkeypatch.setattr(trainer, "score_candidates", on_the_main_thread)
    for setting in fanout.settings(kg.n_entities):
        calls.clear()
        with setting:
            evaluate(model, kg, "test", mode)
        assert [c[2] for c in calls] == [w[2] for w in want]
    # the fixture does tie: some gold shares its score with another candidate
    assert any(rank % 1 for rank in (w[2] for w in want))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["filtered", "raw"])
def test_evaluate_ranks_equal_direct_ranks_on_spread_norms(monkeypatch, mode, dtype):
    # the near-tie rows stay, the others span eight orders of magnitude in
    # norm: one bound per query, at the largest norm, leaves a wide band
    kg, model = near_tie_graph("l2", dtype, 1.0)
    emb = model.params["entities"].data
    emb[10:] *= (10.0 ** np.random.default_rng(23).uniform(-4, 4, (len(emb) - 10, 1)))
    want = direct_queries(model, kg, mode)
    calls = record_rank_calls(monkeypatch)
    for setting in fanout.settings(kg.n_entities):
        calls.clear()
        with setting:
            evaluate(model, kg, "test", mode)
        assert [c[2] for c in calls] == [w[2] for w in want]
    assert any(rank % 1 for rank in (w[2] for w in want))


def test_raw_evaluation_builds_no_filter_index(monkeypatch):
    def refuse(kg):
        raise AssertionError("a filter index was built")

    monkeypatch.setattr(trainer, "build_filter_index", refuse)
    for norm in ("l2", "l1"):
        kg, model = near_tie_graph(norm, np.float32, 1.0)
        assert evaluate(model, kg, "test", "raw")["queries"] == 2 * len(kg.test)
    with pytest.raises(AssertionError, match="filter index"):
        evaluate(model, kg, "test", "filtered")


def test_mean_rank_counts_equal_the_copied_pool():
    # blocks of 1 to 6 rows, each row ranked against the copied pool: ties,
    # NaN scores (never better, never tied), +-inf, rows where every
    # candidate but the gold is filtered, and raw rows, where the gold stays
    # in with every other candidate.  The block's answers sit behind those
    # of earlier queries, as a later block's do in evaluate
    rng = np.random.default_rng(31)
    filtered_but_the_gold = 0
    for trial in range(300):
        q, n = int(rng.integers(1, 7)), int(rng.integers(1, 12))
        rows = rng.integers(-3, 3, (q, n)).astype(np.float64)
        rows[rng.random((q, n)) < 0.2] = np.nan
        rows[rng.random((q, n)) < 0.1] = -np.inf
        rows[rng.random((q, n)) < 0.1] = np.inf
        gold = rng.integers(n, size=q)
        answers = [np.flatnonzero(rng.random(n) < rng.choice([0.0, 0.5, 1.0])) for _ in range(q)]
        earlier = rng.integers(n, size=int(rng.integers(0, 4)))
        known = np.concatenate([earlier, *answers])
        offsets = len(earlier) + np.cumsum([0] + [len(a) for a in answers])
        raw = trial % 3 == 0
        better, tied = _tie_counts(rows, gold, offsets, None if raw else known)
        for i in range(q):
            allowed = np.ones(n, dtype=bool)
            if not raw:
                allowed[answers[i]] = False
                allowed[gold[i]] = True
                filtered_but_the_gold += n > 1 and allowed.sum() == 1
            got = _mean_rank(int(better[i]), int(tied[i]))
            assert got == copy_mean_rank(rows[i], gold[i], allowed) and type(got) is float
    assert filtered_but_the_gold


def test_evaluate_calls_mean_rank_once_per_query_in_order(monkeypatch):
    # perfbench reads every rank through trainer._mean_rank: one call per
    # query on the calling thread, tail then head per triple, each the full
    # filtered rank of the gold entity its ranking block counted
    kg, model = near_tie_graph("l2", np.float32, 1.0)
    want = direct_queries(model, kg, "filtered")
    calls = record_rank_calls(monkeypatch)
    blocks = []
    tie_counts = trainer._tie_counts

    def noting(rows, gold, offsets, known):
        blocks.append((offsets.copy(), known, gold.copy()))
        return tie_counts(rows, gold, offsets, known)

    monkeypatch.setattr(trainer, "_tie_counts", noting)
    for setting in fanout.settings(kg.n_entities):
        calls.clear()
        blocks.clear()
        with setting:
            report = evaluate(model, kg, "test", "filtered")
        assert len(calls) == report["queries"] == 2 * len(kg.test)
        # every query's own triple is a known answer, so a block's first
        # offset puts it in query order, whichever thread counted it
        ranked = []
        for offsets, known, gold in sorted(blocks, key=lambda b: b[0][0]):
            for i, g in enumerate(gold.tolist()):
                allowed = np.ones(kg.n_entities, dtype=bool)
                allowed[known[offsets[i]:offsets[i + 1]]] = False
                allowed[g] = True
                ranked.append((g, allowed))
        assert [g for g, _ in ranked] == [g for h, _, t in kg.test.tolist() for g in (t, h)]
        for (gold, allowed), (_, _, rank), (w_gold, w_allowed, w_rank) in zip(ranked, calls, want):
            np.testing.assert_array_equal(allowed, w_allowed)
            assert (gold, rank) == (w_gold, w_rank)


def modality_graph():
    """The near-tie graph's triples with an image modality on 30 of its 40
    entities, and a model that fuses it."""
    kg, _ = near_tie_graph("l2", np.float32, 1.0)
    rng = np.random.default_rng(41)
    ids = np.sort(rng.choice(kg.n_entities, 30, replace=False))
    feats = rng.normal(size=(30, 5)).astype(np.float32)
    img = ModalityFeatureTable(modality="img", dim=5, features=feats,
                               rows={int(e): i for i, e in enumerate(ids)}, coverage=0.75)
    cfg = ModelConfig(embedding_dim=8, experts=3, mi_bins=4, modalities=["img"])
    return kg, FusionModel(cfg, kg.n_entities, kg.n_relations, {"img": img}, seed=2)


def test_threaded_evaluation_equals_the_serial_run(monkeypatch):
    # the same small blocks, run inline and on the pool: the embeddings, the
    # report and every _mean_rank call must match bit for bit
    kg, model = modality_graph()
    context = mi_context_ids(kg, 16)
    calls = record_rank_calls(monkeypatch)
    threads, counted_on = set(), set()
    fuse, tie_counts = FusionModel._fuse, trainer._tie_counts

    def noting(self, *args):
        threads.add(threading.current_thread().name)
        return fuse(self, *args)

    def counting(*args):
        counted_on.add(threading.current_thread().name)
        return tie_counts(*args)

    monkeypatch.setattr(FusionModel, "_fuse", noting)
    monkeypatch.setattr(trainer, "_tie_counts", counting)
    runs = []
    for w in fanout.SETTINGS:
        calls.clear()
        with fanout.blocks(w, kg.n_entities):
            emb = model.all_joint_embeddings(context)
            report = evaluate(model, kg, "test", "filtered", mi_ref_batch=16)
        runs.append((emb, report, list(calls)))
    (emb1, report1, calls1), (emb2, report2, calls2) = runs
    assert any(t.startswith("moekgc-block") for t in threads)
    assert any(t.startswith("moekgc-block") for t in counted_on)
    assert emb1.tobytes() == emb2.tobytes()
    assert report1 == report2
    assert len(calls1) == 2 * len(kg.test)
    assert calls1 == calls2


def test_many_workers_with_fast_thread_switches_match_the_serial_run():
    # more workers than cores, the interpreter switching threads every
    # microsecond: blocks write disjoint rows of one embedding array, and a
    # lost or misplaced write would change the bytes or the report
    kg, model = modality_graph()
    context = mi_context_ids(kg, 16)
    runs = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for w in (1, 8):
            with fanout.blocks(w, kg.n_entities, embed_rows=3, rank_queries=2):
                runs.append((model.all_joint_embeddings(context).tobytes(),
                             evaluate(model, kg, "test", "filtered", mi_ref_batch=16)))
    finally:
        sys.setswitchinterval(interval)
    assert runs[0] == runs[1]


def running_fuse(monkeypatch, fail_at):
    """Patch FusionModel._fuse to count the blocks in flight and to raise a
    FiniteError in the block that starts at entity fail_at."""
    state = {"running": 0, "started": [], "lock": threading.Lock()}
    fuse = FusionModel._fuse

    def counting(self, entity_ids, mi=None):
        with state["lock"]:
            state["running"] += 1
            state["started"].append(int(entity_ids[0]))
        try:
            if mi is not None:
                # every block is under way before one fails, and the others
                # outlast it
                time.sleep(0.05)
                if entity_ids[0] == fail_at:
                    raise ad.FiniteError("injected")
                time.sleep(0.1)
            return fuse(self, entity_ids, mi)
        finally:
            with state["lock"]:
                state["running"] -= 1

    monkeypatch.setattr(FusionModel, "_fuse", counting)
    return state


@pytest.mark.parametrize("failing", [0, 1])
def test_a_failing_block_leaves_evaluation_clean(monkeypatch, failing):
    # 40 entities in blocks of 14 on the calling thread and 7 on the pool,
    # on two workers: blocks 1 and 2 start together.  Whichever of them
    # raises, evaluate raises that FiniteError only after the other has
    # ended, no later block starts, nothing is left on the tape, and
    # recording is back on
    kg, model = modality_graph()
    state = running_fuse(monkeypatch, fail_at=14 * failing)
    with fanout.blocks(2, kg.n_entities, embed_rows=14):
        with pytest.raises(ad.FiniteError, match="injected"):
            evaluate(model, kg, "test", "filtered", mi_ref_batch=16)
    assert state["running"] == 0
    assert sorted(state["started"][1:]) == [0, 14]  # after the MI context's fuse
    assert ad.tape_size() == 0 and ad._RECORDING


def test_a_failing_ranking_block_leaves_evaluation_clean(monkeypatch):
    kg, model = modality_graph()
    rotate = trainer.rotate

    def failing_on_the_pool(emb, phase):
        if threading.current_thread() is not threading.main_thread():
            raise ad.FiniteError("injected in a ranking block")
        return rotate(emb, phase)

    monkeypatch.setattr(trainer, "rotate", failing_on_the_pool)
    with fanout.blocks(2, kg.n_entities):
        with pytest.raises(ad.FiniteError, match="ranking block"):
            evaluate(model, kg, "test", "filtered", mi_ref_batch=16)
    assert ad.tape_size() == 0 and ad._RECORDING


def test_a_failing_rank_loop_closes_the_block_map(monkeypatch):
    # evaluate's own loop raises between the counts of two ranking blocks:
    # the loop runs once the map has returned, so no pool thread and no CPU
    # pin outlives the call, even while the traceback keeps its frame
    kg, model = modality_graph()
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    mean_rank = trainer._mean_rank
    ranked = []

    def failing_at_the_third(better, tied):
        assert threading.current_thread() is threading.main_thread()
        if len(ranked) == 2:
            raise ad.FiniteError("injected in the rank loop")
        ranked.append(better)
        return mean_rank(better, tied)

    monkeypatch.setattr(trainer, "_mean_rank", failing_at_the_third)
    with fanout.blocks(2, kg.n_entities, rank_queries=2):
        with pytest.raises(ad.FiniteError, match="rank loop") as info:
            evaluate(model, kg, "test", "filtered", mi_ref_batch=16)
        assert info.traceback  # the frames are still held here
        assert [t for t in threading.enumerate() if t.name.startswith("moekgc-block")] == []
        if affinity is not None:
            assert os.sched_getaffinity(0) == affinity


@pytest.fixture
def no_pool(monkeypatch):
    """Make building a thread pool raise, on two cores with BLAS pinned."""
    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was built")

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", refuse)
    monkeypatch.setattr(parallel, "cores", lambda: 2)
    for var in parallel.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    return monkeypatch


def test_desk_evaluation_starts_no_thread(no_pool):
    # the c09 desk graph is one embedding block and one ranking block
    kg, tables = clustered_graph(seed=0)
    cfg = ModelConfig(embedding_dim=16, experts=3, mi_bins=8, modalities=sorted(tables))
    model = FusionModel(cfg, kg.n_entities, kg.n_relations, tables, seed=0)
    evaluate(model, kg, "test", "filtered", mi_ref_batch=64)
    evaluate(model, kg, "valid", "raw", mi_ref_batch=64)
    # in smaller blocks the same graph fans out: the gate above is real
    no_pool.setattr(fusion, "_EMBED_BLOCK", 16)
    with pytest.raises(AssertionError, match="thread pool"):
        evaluate(model, kg, "test", "filtered", mi_ref_batch=64)


@pytest.mark.parametrize("env", [
    {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None},
    {"OPENBLAS_NUM_THREADS": "2"},
    {"OMP_NUM_THREADS": "4"},
    {"MKL_NUM_THREADS": "0"},
])
def test_evaluation_with_blas_not_pinned_starts_no_thread(no_pool, env):
    for var, value in env.items():
        if value is None:
            no_pool.delenv(var)
        else:
            no_pool.setenv(var, value)
    kg, model = modality_graph()
    no_pool.setattr(fusion, "_EMBED_BLOCK", 4)
    no_pool.setattr(trainer, "_RANK_BLOCK", 7 * kg.n_entities)
    evaluate(model, kg, "test", "filtered", mi_ref_batch=16)


def test_evaluate_rejects_bad_mode_and_empty_split():
    kg = make_kg([(0, 0, 1)], n_entities=3)
    model = structure_model(kg)
    with pytest.raises(ConfigError):
        evaluate(model, kg, "train", "both")
    with pytest.raises(DataError, match="split 'valid' has no triples"):
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


def test_train_on_a_graph_with_no_train_triples_is_a_data_error():
    # it would return a history with a NaN loss
    kg = make_kg([], test=[(0, 0, 1)], n_entities=3, n_relations=1)
    with pytest.raises(DataError, match="the train split has no triples"):
        train(kg, {}, ModelConfig(embedding_dim=8, experts=2, mi_bins=4, modalities=[]),
              TrainConfig(max_epochs=1, seed=3), sampling_cfg())


@pytest.mark.parametrize("over", ["step", "negatives", "rows"])
def test_train_refuses_a_config_larger_than_physical_memory_before_any_model(monkeypatch,
                                                                             over):
    # a host with physical memory for the step's parameter-sized buffers to
    # the byte, or one byte less; the int64 negatives of a batch of two fit,
    # or not; or they fit in half of it, and the rows of embedding_dim 8
    # that a step scores from them, eight times as large, do not
    kg = make_kg([(0, 0, 1), (1, 0, 2)], n_entities=3)
    cfg = ModelConfig(embedding_dim=8, experts=2, mi_bins=4, modalities=[])
    step = trainer._STEP_BUFFERS * 4 * fusion.store_size(cfg, kg.n_entities, kg.n_relations, {})
    physical, n_neg = {"step": (step - 1, 1),
                       "negatives": (step, step // (2 * 3 * 8) + 1),
                       "rows": (step, step // (2 * 3 * 8) // 2)}[over]
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": physical}.get)

    def refuse(*args, **kw):
        raise AssertionError("a model was built")

    monkeypatch.setattr(trainer, "FusionModel", refuse)
    setting = ("model.embedding_dim 8" if over == "step"
               else f"sampling.negatives_per_positive {n_neg}")
    with pytest.raises(ConfigError, match=rf"^{setting}\b.*, more than the .* physical memory$"):
        train(kg, {}, cfg, TrainConfig(batch_size=2, max_epochs=1),
              sampling_cfg(negatives_per_positive=n_neg))


def test_train_of_a_modality_without_a_table_is_a_config_error():
    # the memory check reads each modality's dimension from its table
    kg = make_kg([(0, 0, 1), (1, 0, 2)], n_entities=3)
    with pytest.raises(ConfigError, match="modality 'img' has no loaded feature table"):
        train(kg, {}, ModelConfig(embedding_dim=8, experts=2, mi_bins=4, modalities=["img"]),
              TrainConfig(max_epochs=1), sampling_cfg())


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
        dict(seed=-1),
        dict(seed=2 ** 63),
    ):
        with pytest.raises(ConfigError):
            TrainConfig(**bad).validate()
    TrainConfig(seed=2 ** 63 - 1).validate()


def test_row_negatives_do_not_depend_on_batch_size(monkeypatch):
    rng = np.random.default_rng(4)
    kg = make_kg(np.unique(np.stack([rng.integers(0, 40, 150), rng.integers(0, 3, 150),
                                     rng.integers(0, 40, 150)], axis=1), axis=0))
    real = trainer.corrupt
    mc = ModelConfig(embedding_dim=4, experts=2, mi_bins=4, modalities=[])
    sc = sampling_cfg(negatives_per_positive=3)
    seen = {}
    for size in (1, 7, 64):
        drawn = seen[size] = {}

        def record(positives, n, fi, n_entities, seed, epoch, rows, **kw):
            out = real(positives, n, fi, n_entities, seed, epoch, rows=rows, **kw)
            np.testing.assert_array_equal(positives, kg.train[rows])
            for row, negs in zip(rows.tolist(), out.reshape(len(rows), n, 3).tolist()):
                drawn[epoch, row] = negs
            return out

        monkeypatch.setattr(trainer, "corrupt", record)
        train(kg, {}, mc, TrainConfig(learning_rate=0.01, batch_size=size, max_epochs=2,
                                      eval_every=5, seed=6), sc)
        assert len(drawn) == 2 * len(kg.train)
    assert seen[1] == seen[7] == seen[64]
    # and the epochs differ
    assert [seen[1][0, i] for i in range(len(kg.train))] != \
        [seen[1][1, i] for i in range(len(kg.train))]


# ---------------------------------------------------------------- faults in train

def train_workspace(cfg_path, *flags):
    """train on the CLI workspace through the library, with the flags' settings."""
    cfg = load_config(cfg_path)
    apply_overrides(cfg, build_parser().parse_args(["train", *flags]))
    return train(*load_data(cfg), *section_configs(cfg))


def assert_train_fails(cfg_path, capsys, message, *flags):
    """train raises TrainingError with message, and `moekgc train` exits 1 with it."""
    with pytest.raises(TrainingError, match=message):
        train_workspace(cfg_path, *flags)
    capsys.readouterr()
    assert main(["train", "--config", cfg_path, *flags]) == 1
    assert re.search(message, capsys.readouterr().err)


def test_train_stops_on_a_non_finite_loss(workspace, capsys, monkeypatch):
    # every op checks its output, so only a fault hands train a NaN loss
    monkeypatch.setattr(trainer, "_batch_step", lambda *args: float("nan"))
    assert_train_fails(workspace[1], capsys, "loss is not finite at epoch 0 batch 0")


def test_train_stops_on_a_non_finite_gradient(workspace, capsys, monkeypatch):
    real = trainer.score_batch

    def poisoned(*args):
        # the scores unchanged, but an infinite gradient flows back through them
        out = real(*args)
        return ad.record(out.data, (out,), lambda g: (np.full_like(g, np.inf),), "poison")

    monkeypatch.setattr(trainer, "score_batch", poisoned)
    with np.errstate(all="ignore"):
        assert_train_fails(workspace[1], capsys,
                           r"non-finite value at epoch 0 batch 0: non-finite gradient in block \w+")


def test_train_stops_on_an_overflow_in_validation(workspace, capsys):
    # one step at this rate leaves finite parameters whose products overflow
    with np.errstate(all="ignore"):
        assert_train_fails(workspace[1], capsys,
                           "non-finite value in validation at epoch 0: affine produced",
                           "--training-learning-rate", "1e38", "--training-eval-every", "1")


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
            rows={0: 0, 1: 1, 3: 2}, coverage=0.75)
        modalities = ["img"]
    cfg = ModelConfig(embedding_dim=6, experts=2, mi_bins=4, modalities=modalities)
    model = FusionModel(cfg, kg.n_entities, kg.n_relations, tables, seed=4)
    opt = Adam(model.params, learning_rate=0.01)
    # take a couple of real steps so moments are nonzero
    for _ in range(3):
        ad.reset_tape()
        joint, _ = model.fuse(np.array([0, 1, 2, 3]))
        loss = square(joint).sum()
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
    # the moments are kept in the store's float32, so the file holds them exactly
    for name in model.params:
        np.testing.assert_array_equal(state["adam_m"][name], opt.m[name])
        np.testing.assert_array_equal(state["adam_v"][name], opt.v[name])


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    kg, tables, model, opt = fitted_model_and_opt(tmp_path, with_modality=True)
    p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
    save_checkpoint(p1, model, opt)
    loaded, state = load_checkpoint(p1, tables, kg)
    opt2 = Adam(loaded.params, learning_rate=0.01)
    opt2.load_state(state)  # as load_checkpoint returns it
    assert opt2.t == opt.t
    # the moments come back in the store's dtype, the optimizer's own bytes
    for mine, restored in ((opt._m, opt2._m), (opt._v, opt2._v)):
        assert restored.dtype == loaded.params.flat.dtype == np.float32
        assert restored.tobytes() == mine.tobytes()
    save_checkpoint(p2, loaded, opt2)
    assert p1.read_bytes() == p2.read_bytes()


def test_a_step_after_restoring_a_checkpoint_is_the_saved_optimizers_step(tmp_path):
    # a resume by hand: save after k steps, load, restore Adam, and take one
    # more step on both copies with the same gradient
    kg, tables, model, opt = fitted_model_and_opt(tmp_path, with_modality=True)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, opt)
    loaded, state = load_checkpoint(path, tables, kg)
    opt2 = Adam(loaded.params, learning_rate=0.01)
    opt2.load_state(state)
    for m, o in ((model, opt), (loaded, opt2)):
        ad.reset_tape()
        joint, _ = m.fuse(np.array([0, 1, 2, 3]))
        ad.backward(square(joint).sum())
        o.step()
        o.zero_grad()
    ad.reset_tape()
    assert opt2.t == opt.t == 4
    assert loaded.params.flat.tobytes() == model.params.flat.tobytes()
    assert opt2._m.tobytes() == opt._m.tobytes() and opt2._v.tobytes() == opt._v.tobytes()


@pytest.mark.parametrize("with_adam", [False, True], ids=["params", "params-and-adam"])
def test_saved_checkpoint_is_the_version_1_layout_byte_for_byte(tmp_path, with_adam):
    # the layout built here from the format's description, not by the
    # reader: a writer and reader that drifted together would fail this
    kg, tables, model, opt = fitted_model_and_opt(tmp_path, with_modality=True)
    arrays = {name: p.data for name, p in model.params.items()}
    if with_adam:
        arrays.update({f"adam.m.{name}": opt.m[name] for name in model.params})
        arrays.update({f"adam.v.{name}": opt.v[name] for name in model.params})
    raw = {name: np.asarray(a, dtype="<f4").tobytes() for name, a in arrays.items()}
    header = {
        "adam_step": opt.t if with_adam else None,
        "blocks": {name: {"crc32": zlib.crc32(raw[name]), "shape": list(a.shape)}
                   for name, a in arrays.items()},
        "config": dataclasses.asdict(model.cfg),
        "counts": {"entities": kg.n_entities, "relations": kg.n_relations},
        "extra": {"note": "layout"},
        "modality_dims": {"img": tables["img"].dim},
    }
    hdr = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    want = b"".join([b"MKGC", struct.pack("<I", 1), struct.pack("<Q", len(hdr)), hdr]
                    + [raw[name] for name in sorted(raw)])
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, opt if with_adam else None, extra={"note": "layout"})
    assert path.read_bytes() == want


def test_saving_a_float32_model_copies_no_parameter_block(tmp_path):
    # the blocks are written and checksummed from the store and Adam's
    # moments themselves: a file of a 2 MB entity table and its two moments
    # is written with well under one block's copy
    kg = make_kg([(0, 0, 1)], n_entities=32_768)
    cfg = ModelConfig(embedding_dim=16, experts=2, mi_bins=4)
    model = FusionModel(cfg, kg.n_entities, kg.n_relations, {}, seed=0)
    opt = Adam(model.params, learning_rate=0.01)
    assert model.params.flat.dtype == opt._m.dtype == opt._v.dtype == np.float32
    entities = model.params["entities"].data.nbytes
    assert peak_bytes(lambda: save_checkpoint(tmp_path / "model.ckpt", model, opt)) < entities // 8


def test_checkpoint_load_draws_no_initial_values(tmp_path, monkeypatch):
    kg, tables, model, opt = fitted_model_and_opt(tmp_path, with_modality=True)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, opt)

    def refuse(self, seed):
        raise AssertionError("a checkpoint load drew initial values")

    monkeypatch.setattr(FusionModel, "_draw", refuse)
    loaded, _ = load_checkpoint(path, tables, kg)
    assert loaded.params.flat.tobytes() == model.params.flat.tobytes()
    assert [b.name for b in loaded.params.blocks] == [b.name for b in model.params.blocks]


def test_interrupted_write_keeps_the_earlier_file_and_no_temp(tmp_path, monkeypatch):
    kg, tables, model, opt = fitted_model_and_opt(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, opt)
    before = path.read_bytes()
    with pytest.raises(RuntimeError):
        with atomic_write(path) as (fh,):
            fh.write(before[:10])
            raise RuntimeError("interrupted mid-write")
    assert path.read_bytes() == before

    def failing_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, model)  # no optimizer: different bytes
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


@pytest.mark.skipif(os.name != "posix", reason="only POSIX opens a directory to fsync it")
def test_atomic_write_fsyncs_each_directory_after_the_renames(tmp_path, monkeypatch):
    sub = tmp_path / "sub"
    sub.mkdir()
    paths = [tmp_path / "a.json", sub / "b.json", tmp_path / "c.json"]
    events = []
    fsync, replace = files.os.fsync, files.os.replace

    def noting_fsync(fd):
        st = os.fstat(fd)
        events.append(("fsync", (st.st_dev, st.st_ino) if stat.S_ISDIR(st.st_mode) else None))
        fsync(fd)

    def noting_replace(src, dst):
        replace(src, dst)
        events.append(("replace", os.fspath(dst)))

    monkeypatch.setattr(files.os, "fsync", noting_fsync)
    monkeypatch.setattr(files.os, "replace", noting_replace)
    with atomic_write(*paths, mode="w") as handles:
        for fh in handles:
            fh.write("{}")
    last = max(i for i, (kind, _) in enumerate(events) if kind == "replace")
    assert [kind for kind, _ in events[:last + 1]] == ["fsync"] * 3 + ["replace"] * 3
    assert all(d is None for _, d in events[:3])
    dirs = {(st.st_dev, st.st_ino) for st in (os.stat(tmp_path), os.stat(sub))}
    assert sorted(d for _, d in events[last + 1:]) == sorted(dirs)
    assert [p.read_text() for p in paths] == ["{}"] * 3


def test_checkpoint_without_optimizer_loads_with_no_adam_state(tmp_path):
    kg, tables, model, _ = fitted_model_and_opt(tmp_path)
    path = tmp_path / "bare.ckpt"
    save_checkpoint(path, model)
    _, state = load_checkpoint(path, tables, kg)
    assert state["adam_step"] is None
    assert "adam_m" not in state


def test_adam_load_state_of_a_checkpoint_without_optimizer_state_is_a_checkpoint_error(tmp_path):
    # cmd_train writes such files: their state has adam_step None
    kg, tables, model, opt = fitted_model_and_opt(tmp_path)
    path = tmp_path / "bare.ckpt"
    save_checkpoint(path, model)
    _, state = load_checkpoint(path, tables, kg)
    before = opt.t, opt._m.tobytes(), opt._v.tobytes()
    with pytest.raises(CheckpointError, match="no optimizer state"):
        opt.load_state(state)
    assert (opt.t, opt._m.tobytes(), opt._v.tobytes()) == before


def test_checkpoint_with_bytes_after_the_last_block_is_a_checkpoint_error(tmp_path):
    kg, tables, model, opt = fitted_model_and_opt(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, opt)
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(CheckpointError, match="8 stray bytes after the last block") as error:
        load_checkpoint(path, tables, kg)
    assert str(error.value).startswith(f"{path}: ")


@pytest.mark.parametrize("with_adam", [False, True], ids=["params", "params-and-adam"])
def test_checkpoint_header_naming_a_block_the_config_does_not_is_a_checkpoint_error(
        tmp_path, with_adam):
    # the stray block is in the file, after the others, with its CRC right
    kg, tables, model, opt = fitted_model_and_opt(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, opt if with_adam else None)
    stray = np.arange(2, dtype="<f4")
    rewrite_header(path, lambda h: h["blocks"].update(
        {"zzz.stray": {"shape": [2], "crc32": zlib.crc32(stray)}}))
    path.write_bytes(path.read_bytes() + stray.tobytes())
    with pytest.raises(CheckpointError, match=r"header names blocks .*: zzz\.stray$") as error:
        load_checkpoint(path, tables, kg)
    assert str(error.value).startswith(f"{path}: ")


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


def set_config(**values):
    return lambda h: h["config"].update(values)


def set_shape(shape):
    return lambda h: h["blocks"]["entities"].update(shape=shape)


@pytest.mark.parametrize("field,edit", [
    ("config.experts", set_config(experts="2")),
    ("config.experts", set_config(experts=True)),  # a bool is no int
    ("config.embedding_dim", set_config(embedding_dim=4.0)),
    ("config.mi_bins", set_config(mi_bins=2.5)),
    ("config.norm", set_config(norm=2)),
    ("config.grad_through_weights", set_config(grad_through_weights=0)),
    ("config.modalities", set_config(modalities="img")),
    ("config.modalities", set_config(modalities=["img", 3])),
    ("blocks.entities", set_shape(["x"])),
    ("blocks.entities", set_shape([2, None])),
    ("blocks.entities", set_shape([-4, -6])),
    ("block entities is truncated", set_shape([2 ** 64, 6])),
    ("counts.entities", lambda h: h["counts"].update(entities=False)),
    ("modality_dims.img", lambda h: h["modality_dims"].update(img="5")),
    ("adam_step", lambda h: h.update(adam_step="3")),
    ("adam_step", lambda h: h.update(adam_step=-1)),
    ("adam_step is 3 but block adam.m.", lambda h: h.update(adam_step=3)),
    # of the right type but invalid: the file's surplus blocks do not hide these
    ("config is invalid: norm must be l2 or l1", set_config(norm="l3")),
    ("config is invalid: experts must be >= 1", set_config(experts=0)),
    ("config is invalid: duplicate modality", set_config(modalities=["img", "img"])),
], ids=["experts-str", "experts-bool", "embedding_dim-float", "mi_bins-float", "norm-int",
        "grad_through_weights-int", "modalities-str", "modalities-int-item", "shape-str",
        "shape-null", "shape-negative", "shape-huge", "entities-bool", "modality_dims-str",
        "adam_step-str", "adam_step-negative", "adam_step-without-moments", "norm-invalid",
        "experts-zero", "modalities-duplicate"])
def test_header_field_of_the_wrong_type_is_a_checkpoint_error_naming_it(tmp_path, field, edit):
    # the block CRCs stay intact: only the JSON header is edited
    kg, tables, model, _ = fitted_model_and_opt(tmp_path, with_modality=True)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    rewrite_header(path, edit)
    with pytest.raises(CheckpointError, match=re.escape(field)) as error:
        load_checkpoint(path, tables, kg)
    assert str(error.value).startswith(f"{path}: ")


def peak_bytes(call):
    """The tracemalloc peak while call() runs, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("block, edit", [
    ("entities", lambda h: h["counts"].update(entities=2 ** 40)),
    ("rel_phases", lambda h: h["counts"].update(relations=2 ** 40)),
    ("entities", set_config(embedding_dim=8)),
    ("expert.img.2.w1", set_config(experts=10 ** 5)),
    ("expert.img.2.w1", set_config(experts=2 ** 40)),
    ("view_dist.img.0.w", set_config(mi_bins=10 ** 12)),
    # the same bytes in another shape: the block's CRC still holds
    ("adam.v.proj.img.w1", lambda h: h["blocks"]["adam.v.proj.img.w1"].update(shape=[6, 5])),
], ids=["entities", "relations", "embedding_dim", "experts-1e5", "experts-2e40", "mi_bins-1e12",
        "moment-shape"])
def test_header_counts_the_blocks_do_not_bear_out_are_a_checkpoint_error(tmp_path, block, edit):
    # with no graph to cross-check, the header's integers alone would size
    # the model: 2**40 entities ran out of memory laying it out.  The blocks
    # are checked against them before anything is allocated, so a rejected
    # load peaks below a load of the unedited file
    kg, tables, model, opt = fitted_model_and_opt(tmp_path, with_modality=True)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, opt)
    whole = peak_bytes(lambda: load_checkpoint(path, tables))
    rewrite_header(path, edit)
    named = rf"block {re.escape(block)} (has shape|is missing)"

    def rejected():
        with pytest.raises(CheckpointError, match=named):
            load_checkpoint(path, tables)

    assert peak_bytes(rejected) < whole


def test_modality_dim_mismatch_names_both_dims(tmp_path):
    kg, tables, model, _ = fitted_model_and_opt(tmp_path, with_modality=True)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    wrong = ModalityFeatureTable(
        modality="img", dim=9,
        features=np.zeros((3, 9), dtype=np.float32),
        rows={0: 0, 1: 1, 3: 2}, coverage=0.75)
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
