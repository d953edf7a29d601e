import math

import numpy as np
import pytest

from moekgc import autodiff as ad
from moekgc import fusion
from moekgc.config import ConfigError
from moekgc.fusion import (
    FusionModel,
    ModelConfig,
    batch_mutual_information,
    complementarity_weights,
    inter_modality_fuse,
    intra_modality_fuse,
    mutual_information,
    weights_from_row_sums,
)
from moekgc.kgdata import ModalityFeatureTable
import fanout
from oracles import square
from synthetic import clustered_graph


@pytest.fixture(autouse=True)
def fresh_tape():
    ad.reset_tape()
    yield
    ad.reset_tape()


def make_table(name, n_entities, dim, rng, covered=None):
    covered = list(range(n_entities)) if covered is None else list(covered)
    feats = rng.uniform(-1, 1, (len(covered), dim)).astype(np.float32)
    return ModalityFeatureTable(
        modality=name,
        dim=dim,
        features=feats,
        rows={e: i for i, e in enumerate(covered)},
        coverage=len(covered) / n_entities,
    )


def small_model(rng=None, n_entities=6, d=4, k=2, bins=4, modalities=("img", "txt"),
                covered=None, seed=0, **cfg_kw):
    rng = rng or np.random.default_rng(9)
    tables = {}
    for j, m in enumerate(modalities):
        ids = None if covered is None else covered[j]
        tables[m] = make_table(m, n_entities, dim=3 + 2 * j, rng=rng, covered=ids)
    cfg = ModelConfig(embedding_dim=d, experts=k, mi_bins=bins,
                      modalities=list(modalities), **cfg_kw)
    return FusionModel(cfg, n_entities, n_relations=2, tables=tables, seed=seed)


# ---------------------------------------------------------------------------
# mutual information estimator


def test_mi_one_hot_uniform_is_log_bins():
    pairs = [(np.eye(4)[i], np.eye(4)[i]) for i in range(4)]
    assert mutual_information(pairs) == pytest.approx(math.log(4.0), abs=1e-6)


def test_mi_constant_distribution_is_zero():
    x = np.array([0.7, 0.1, 0.2])
    pairs = [(x, x)] * 5
    assert mutual_information(pairs) == pytest.approx(0.0, abs=1e-9)


def test_mi_single_pair_is_zero():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.dirichlet(np.ones(6))
        y = rng.dirichlet(np.ones(6))
        assert mutual_information([(x, y)]) == pytest.approx(0.0, abs=1e-9)


def test_mi_symmetric_and_non_negative():
    rng = np.random.default_rng(1)
    for _ in range(30):
        pairs = [(rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5))) for _ in range(8)]
        fwd = mutual_information(pairs)
        rev = mutual_information([(y, x) for x, y in pairs])
        assert fwd >= 0.0
        assert fwd == pytest.approx(rev, abs=1e-9)


def test_batch_mi_matches_pair_api():
    rng = np.random.default_rng(2)
    X = rng.dirichlet(np.ones(5), size=16)
    Y = rng.dirichlet(np.ones(5), size=16)
    with ad.using_dtype(np.float64):
        got = batch_mutual_information(ad.Tensor(X), ad.Tensor(Y))
    want = mutual_information(list(zip(X, Y)))
    assert float(got.data) == pytest.approx(want, abs=1e-9)


def test_batch_mi_one_hot_uniform():
    with ad.using_dtype(np.float64):
        eye = ad.Tensor(np.eye(4))
        got = float(batch_mutual_information(eye, eye).data)
    assert got == pytest.approx(math.log(4.0), abs=1e-6)


# ---------------------------------------------------------------------------
# complementarity weights and the fuse ops


def test_weights_from_row_sums_closed_forms():
    np.testing.assert_allclose(
        weights_from_row_sums([0.0, math.log(2), math.log(2)]),
        [0.5, 0.25, 0.25],
        atol=1e-6,
    )
    np.testing.assert_allclose(
        weights_from_row_sums([0.0, math.log(3)]), [0.75, 0.25], atol=1e-6
    )


def test_equal_row_sums_give_uniform_weights():
    np.testing.assert_allclose(weights_from_row_sums([1.3] * 4), np.full(4, 0.25), atol=1e-9)


def test_weight_strictly_decreases_as_row_sum_grows():
    base = np.array([0.4, 0.7, 0.1])
    w0 = weights_from_row_sums(base)
    for bump in (0.01, 0.1, 1.0):
        higher = base.copy()
        higher[1] += bump
        assert weights_from_row_sums(higher)[1] < w0[1]


def test_complementarity_weights_from_matrix():
    # only sources 1 and 2 share information: off-diagonal row sums (0, ln2, ln2)
    m = np.zeros((3, 3))
    m[1, 2] = m[2, 1] = math.log(2)
    np.testing.assert_allclose(complementarity_weights(m), [0.5, 0.25, 0.25], atol=1e-6)


def test_two_source_weights_always_half():
    # a symmetric 2x2 has equal off-diagonal row sums by construction
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.uniform(0, 2)
        m = np.array([[0.0, v], [v, 0.0]])
        np.testing.assert_allclose(complementarity_weights(m), [0.5, 0.5], atol=1e-12)


def test_intra_fuse_equal_mi_is_plain_mean():
    rng = np.random.default_rng(4)
    views = [rng.uniform(-1, 1, 6) for _ in range(3)]
    m = np.full((3, 3), 0.37)
    fused, w = intra_modality_fuse(views, m)
    np.testing.assert_allclose(w, np.full(3, 1 / 3), atol=1e-9)
    np.testing.assert_allclose(fused, np.mean(views, axis=0), atol=1e-6)


def test_intra_fuse_single_view_weight_one():
    fused, w = intra_modality_fuse([np.array([1.0, 2.0])], np.zeros((1, 1)))
    np.testing.assert_allclose(w, [1.0])
    np.testing.assert_allclose(fused, [1.0, 2.0])


def test_inter_fuse_hand_computed():
    vecs = {
        "structure": np.array([1.0, 0.0, 0.0, 0.0]),
        "img": np.array([0.0, 1.0, 0.0, 0.0]),
        "txt": np.array([0.0, 0.0, 1.0, 0.0]),
    }
    m = np.zeros((3, 3))
    m[1, 2] = m[2, 1] = math.log(2)  # img and txt are redundant with each other
    joint, w = inter_modality_fuse(vecs, m)
    np.testing.assert_allclose([w["structure"], w["img"], w["txt"]], [0.5, 0.25, 0.25], atol=1e-6)
    np.testing.assert_allclose(joint, [0.5, 0.25, 0.25, 0.0], atol=1e-6)


# ---------------------------------------------------------------------------
# model-level fusion


def test_structure_only_joint_is_the_table():
    model = small_model(modalities=())
    ids = np.array([0, 3, 5])
    joint, cache = model.fuse(ids)
    np.testing.assert_array_equal(joint.data, model.params["entities"].data[ids])
    np.testing.assert_allclose(cache["inter_weights"][(0,)], [1.0])


def test_single_modality_batch_of_one_splits_evenly():
    # a one-entity batch makes every MI estimate exactly zero, so the two
    # sources (structure, img) each get weight one half
    model = small_model(modalities=("img",), k=1, n_entities=4)
    joint, cache = model.fuse(np.array([2]))
    np.testing.assert_allclose(cache["inter_weights"][(0, 1)], [0.5, 0.5], atol=1e-9)

    p = {k: np.asarray(v.data, np.float64) for k, v in model.params.items()}
    f = model.tables["img"].features[model.tables["img"].rows[2]].astype(np.float64)
    v = np.maximum(f @ p["proj.img.w1"] + p["proj.img.b1"], 0) @ p["proj.img.w2"] + p["proj.img.b2"]
    view = np.maximum(v @ p["expert.img.0.w1"] + p["expert.img.0.b1"], 0) @ p["expert.img.0.w2"] + p["expert.img.0.b2"]
    want = 0.5 * p["entities"][2] + 0.5 * view
    np.testing.assert_allclose(joint.data[0], want, atol=1e-5)


def test_entity_missing_every_modality_falls_back_to_structure():
    model = small_model(modalities=("img", "txt"), covered=[[0, 1, 2], [0, 2]], n_entities=5)
    ids = np.array([0, 4])  # entity 4 has no features at all
    joint, cache = model.fuse(ids)
    np.testing.assert_array_equal(joint.data[1], model.params["entities"].data[4])
    np.testing.assert_allclose(cache["inter_weights"][(0,)], [1.0])


def test_absent_modality_renormalizes_over_present():
    model = small_model(modalities=("img", "txt"), covered=[[0, 1, 2, 3], [0, 1]], n_entities=5)
    _, cache = model.fuse(np.array([0, 1, 2, 3]))
    w_full = cache["inter_weights"][(0, 1, 2)]
    w_partial = cache["inter_weights"][(0, 1)]
    assert w_full.shape == (3,)
    assert w_partial.shape == (2,)
    assert w_partial.sum() == pytest.approx(1.0, abs=1e-9)


def test_model_weights_agree_with_numpy_weight_function():
    model = small_model()
    _, cache = model.fuse(np.arange(6))
    for m in ("img", "txt"):
        np.testing.assert_allclose(
            cache["intra_weights"][m],
            complementarity_weights(cache["mi_intra"][m]),
            atol=1e-5,
        )
    mask = (0, 1, 2)
    np.testing.assert_allclose(
        cache["inter_weights"][mask],
        complementarity_weights(cache["mi_inter"]),
        atol=1e-5,
    )


def reference_joint(model, entity_ids):
    """Independent numpy re-computation of the fused joint embeddings."""
    cfg = model.cfg
    p = {k: np.asarray(v.data, np.float64) for k, v in model.params.items()}
    ids = [int(e) for e in entity_ids]
    B = len(ids)

    def mlp(x, pre):
        h = np.maximum(x @ p[pre + ".w1"] + p[pre + ".b1"], 0.0)
        return h @ p[pre + ".w2"] + p[pre + ".b2"]

    def softmax_rows(z):
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)

    def mi(X, Y):
        joint = np.zeros((X.shape[1], Y.shape[1]))
        for a, b in zip(X, Y):
            joint += np.outer(a, b)
        joint /= len(X)
        px, py = joint.sum(axis=1), joint.sum(axis=0)
        total = 0.0
        for i in range(joint.shape[0]):
            for j in range(joint.shape[1]):
                if joint[i, j] >= 1e-12:
                    total += joint[i, j] * math.log(joint[i, j] / (px[i] * py[j]))
        return max(total, 0.0)

    def weights(sums):
        e = np.exp(-np.asarray(sums, dtype=np.float64))
        return e / e.sum()

    sources = ["structure"] + list(cfg.modalities)
    covered = {"structure": ids}
    fused = {"structure": p["entities"][ids]}
    for m in cfg.modalities:
        table = model.tables[m]
        have = [e for e in ids if e in table.rows]
        covered[m] = have
        if not have:
            continue
        feats = np.stack([table.features[table.rows[e]].astype(np.float64) for e in have])
        v = mlp(feats, f"proj.{m}")
        views = [mlp(v, f"expert.{m}.{i}") for i in range(cfg.experts)]
        if cfg.experts == 1 or cfg.intra_weighting == "uniform":
            w = np.full(cfg.experts, 1.0 / cfg.experts)
        else:
            dists = [softmax_rows(views[i] @ p[f"view_dist.{m}.{i}.w"] + p[f"view_dist.{m}.{i}.b"])
                     for i in range(cfg.experts)]
            mimat = np.zeros((cfg.experts, cfg.experts))
            for i in range(cfg.experts):
                for j in range(cfg.experts):
                    if i != j:
                        mimat[i, j] = mi(dists[min(i, j)], dists[max(i, j)])
            w = weights(mimat.sum(axis=1))
        fused[m] = sum(w[i] * views[i] for i in range(cfg.experts))

    dists = {}
    for m in sources:
        if m in fused:
            dists[m] = softmax_rows(fused[m] @ p[f"modal_dist.{m}.w"] + p[f"modal_dist.{m}.b"])
    inter = np.zeros((len(sources), len(sources)))
    for a in range(len(sources)):
        for b in range(a + 1, len(sources)):
            ma, mb = sources[a], sources[b]
            if ma not in dists or mb not in dists:
                continue
            shared = [e for e in ids if e in covered[ma] and e in covered[mb]]
            if not shared:
                continue
            ra = [covered[ma].index(e) for e in shared]
            rb = [covered[mb].index(e) for e in shared]
            inter[a, b] = inter[b, a] = mi(dists[ma][ra], dists[mb][rb])

    out = np.zeros((B, model.cfg.embedding_dim))
    for pos, e in enumerate(ids):
        present = [a for a, m in enumerate(sources) if e in covered[m]]
        if cfg.inter_weighting == "uniform":
            w = np.full(len(present), 1.0 / len(present))
        else:
            sums = [sum(inter[a, b] for b in present if b != a) for a in present]
            w = weights(sums)
        row = np.zeros(model.cfg.embedding_dim)
        for wi, a in zip(w, present):
            m = sources[a]
            row += wi * fused[m][covered[m].index(e)]
        out[pos] = row
    return out


_PARTIAL = [[0, 1, 2, 4], [1, 2, 3]]


@pytest.mark.parametrize("covered, ids, cfg_kw", [
    pytest.param(None, None, {}, id="None"),
    pytest.param(_PARTIAL, None, {}, id="covered1"),
    pytest.param(_PARTIAL, None, {"k": 3}, id="three-experts"),
    pytest.param(_PARTIAL, None, {"k": 3, "intra_weighting": "uniform"}, id="intra-uniform"),
    pytest.param(_PARTIAL, None, {"inter_weighting": "uniform"}, id="inter-uniform"),
    pytest.param(_PARTIAL, None, {"k": 1}, id="one-expert"),
    # txt covers neither entity 0 nor 4
    pytest.param(_PARTIAL, [0, 4], {}, id="modality-absent-from-batch"),
    pytest.param(_PARTIAL, [1, 4, 1, 3, 4, 0], {"k": 3}, id="repeated-ids-partial"),
])
def test_joint_matches_independent_reference(covered, ids, cfg_kw):
    with ad.using_dtype(np.float64):
        model = small_model(covered=covered, n_entities=5, seed=3, **cfg_kw)
        ids = np.arange(5) if ids is None else np.array(ids)
        joint, _ = model.fuse(ids)
        want = reference_joint(model, ids)
    np.testing.assert_allclose(joint.data, want, atol=1e-9)


def test_uniform_inter_weighting_estimates_no_source_mi(monkeypatch):
    calls = []
    real = ad.mi_matrix

    def counting(dists, present, eps):
        calls.append(dists.shape)
        return real(dists, present, eps)

    monkeypatch.setattr(ad, "mi_matrix", counting)
    # one all-pairs kernel call per modality's expert bank, then one over sources
    _, cache = small_model(n_entities=6, k=3).fuse(np.arange(6))
    assert calls == [(3, 6, 4), (3, 6, 4), (3, 6, 4)]
    assert np.any(cache["mi_inter"] != 0)
    calls.clear()
    _, cache = small_model(n_entities=6, k=3, inter_weighting="uniform").fuse(np.arange(6))
    assert len(calls) == 2
    np.testing.assert_array_equal(cache["mi_inter"], np.zeros((3, 3)))


def test_mi_matrix_entries_match_the_pair_oracle_on_shared_rows():
    rng = np.random.default_rng(6)
    dists = rng.dirichlet(np.ones(5), size=(4, 10))
    present = rng.random((4, 10)) < 0.7
    present[3] = ~present[0]  # sources 0 and 3 share no row
    with ad.using_dtype(np.float64):
        got = ad.mi_matrix(ad.Tensor(dists), present, fusion.MI_EPS).data
    np.testing.assert_array_equal(got, got.T)
    for a in range(4):
        for b in range(4):
            shared = present[a] & present[b]
            if a == b or not shared.any():
                assert got[a, b] == 0.0
                continue
            want = mutual_information(list(zip(dists[a][shared], dists[b][shared])))
            assert got[a, b] == pytest.approx(want, abs=1e-9), (a, b)
    assert got[0, 3] == 0.0 and np.all(got[np.triu_indices(3, 1)] > 0)


def test_pinned_and_estimated_weights_are_bit_identical():
    model = small_model(covered=_PARTIAL, n_entities=5, k=3, seed=7)
    ids = np.array([1, 4, 1, 3, 4, 0, 2])
    fresh, est = model.fuse(ids)
    ad.reset_tape()
    pinned, pin = model.fuse(ids, model.mi_state(ids))
    for m in model.cfg.modalities:
        np.testing.assert_array_equal(est["intra_weights"][m], pin["intra_weights"][m])
    assert est["inter_weights"].keys() == pin["inter_weights"].keys()
    for mask, w in est["inter_weights"].items():
        np.testing.assert_array_equal(w, pin["inter_weights"][mask])
    np.testing.assert_array_equal(fresh.data, pinned.data)


def row_unique_inter_weights(has, w):
    """Inter weights grouped by sorting the presence-mask rows themselves."""
    masks, first = np.unique(has.T, axis=0, return_index=True)
    return {tuple(np.flatnonzero(mask).tolist()): np.array(w[p, mask], dtype=np.float64)
            for mask, p in zip(masks, first)}


@pytest.mark.parametrize("n_src,batch", [(1, 5), (2, 1), (3, 1), (3, 40), (5, 200)])
def test_inter_weight_groups_match_the_row_unique_grouping(n_src, batch):
    rng = np.random.default_rng(n_src * 1000 + batch)
    for density in (1.0, 0.7, 0.3):  # 1.0: every source present everywhere
        has = rng.random((n_src, batch)) < density
        has[0] = True  # the structure is always present
        w = rng.random((batch, n_src)).astype(np.float32)
        got = fusion._inter_weights(has, w)
        want = row_unique_inter_weights(has, w)
        assert list(got) == list(want)
        for key in want:
            assert got[key].dtype == np.float64
            np.testing.assert_array_equal(got[key], want[key])


def test_default_fuse_puts_no_head_or_mi_node_on_the_tape():
    # the c09 desk configuration: three experts over two modalities
    kg, tables = clustered_graph(seed=0)
    cfg = ModelConfig(embedding_dim=16, experts=3, mi_bins=8, modalities=["attr", "attr_dup"])
    model = FusionModel(cfg, kg.n_entities, kg.n_relations, tables, seed=0)
    heads = {id(p) for name, p in model.params.items() if "_dist." in name}
    assert len(heads) == 2 * (2 * 3 + 2) + 2
    _, cache = model.fuse(np.arange(16))
    assert np.any(cache["mi_inter"] != 0)
    assert 0 < ad.tape_size()
    for node in ad._TAPE:
        assert "mi_matrix" not in node.grad_fn.__qualname__
        assert not heads & {id(p) for p in node.parents}


def test_feature_rows_outside_the_entity_range_are_rejected():
    rng = np.random.default_rng(0)
    tables = {"img": make_table("img", 4, 3, rng, covered=[0, 4])}
    with pytest.raises(ConfigError, match="outside"):
        FusionModel(ModelConfig(embedding_dim=4, modalities=["img"]), 4, 2, tables)
    model = small_model(n_entities=4)
    for bad in ([4], [-1, 0]):
        with pytest.raises(ValueError, match="entity indices"):
            model.fuse(bad)


def test_duplicate_entities_in_reference_ids():
    # repeated ids in the MI context must not break the batch estimate
    with ad.using_dtype(np.float64):
        model = small_model(n_entities=5, seed=5)
        ids = np.array([1, 1, 3])
        joint, _ = model.fuse(ids)
        want = reference_joint(model, ids)
    np.testing.assert_allclose(joint.data, want, atol=1e-9)


def test_batch_order_does_not_change_rows():
    model = small_model(n_entities=6)
    a, _ = model.fuse(np.array([1, 2, 4]))
    ad.reset_tape()
    b, _ = model.fuse(np.array([4, 1, 2]))
    np.testing.assert_allclose(a.data[[0, 1, 2]], b.data[[1, 2, 0]], atol=1e-5)


def test_pinned_mi_state_reproduces_fresh_estimates():
    model = small_model(n_entities=6)
    ids = np.arange(6)
    fresh, _ = model.fuse(ids)
    state = model.mi_state(ids)
    ad.reset_tape()
    pinned, _ = model.fuse(ids, state)
    np.testing.assert_allclose(fresh.data, pinned.data, atol=1e-5)


def test_entity_joint_embedding_single():
    # under a pinned MI state an entity's embedding does not depend on the
    # rest of the batch
    model = small_model(n_entities=6)
    state = model.mi_state(np.arange(6))
    with ad.no_grad():
        one, _ = model.fuse([3], state)
        batch, _ = model.fuse(np.array([2, 3]), state)
    np.testing.assert_allclose(one.data[0], batch.data[1], atol=1e-6)


def test_all_joint_embeddings_in_blocks_match_one_fuse_call():
    # two full blocks and a remainder; txt stops inside the first block, so
    # later blocks run without it, and the last entity has no features
    n = 2 * fusion._EMBED_BLOCK + 37
    rng = np.random.default_rng(3)
    img = np.flatnonzero(rng.random(n - 1) < 0.7)
    txt = np.flatnonzero(rng.random(fusion._EMBED_BLOCK - 5) < 0.5)
    model = small_model(rng, n_entities=n, k=3, covered=[img, txt], seed=4)
    context = rng.choice(n, 64, replace=False)
    with ad.no_grad():
        oracle, _ = model.fuse(np.arange(n), model.mi_state(context))
    want = np.asarray(oracle.data, dtype=np.float64)
    # the blocks run inline, then two at a time on the pool
    for workers in fanout.SETTINGS:
        with fanout.blocks(workers, n, embed_rows=fusion._EMBED_BLOCK):
            got = model.all_joint_embeddings(context)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_stop_gradient_keeps_distribution_heads_frozen():
    model = small_model(n_entities=6)
    joint, _ = model.fuse(np.arange(6))
    ad.backward(square(joint).sum())
    assert model.params["view_dist.img.0.w"].grad is None
    assert model.params["modal_dist.structure.w"].grad is None
    assert model.params["entities"].grad is not None


def test_grad_through_weights_reaches_distribution_heads():
    # three experts, so the view row sums differ and the softmax is not flat
    model = small_model(n_entities=6, k=3, grad_through_weights=True)
    joint, _ = model.fuse(np.arange(6))
    ad.backward(square(joint).sum())
    g = model.params["view_dist.img.0.w"].grad
    assert g is not None and np.any(g != 0)
    g_modal = model.params["modal_dist.structure.w"].grad
    assert g_modal is not None and np.any(g_modal != 0)


def test_two_expert_intra_weights_are_constant_half():
    # with two views both row sums equal the single pairwise MI, so the
    # weights cannot move; a K=2 bank always averages its views evenly
    model = small_model(n_entities=6, k=2)
    _, cache = model.fuse(np.arange(6))
    np.testing.assert_allclose(cache["intra_weights"]["img"], [0.5, 0.5], atol=1e-7)


def test_expert_views_differ():
    model = small_model(n_entities=4, modalities=("img",), k=2)
    feats = ad.Tensor(model.tables["img"].features)
    v = model._project("img", feats)
    views = model._experts("img", v)
    assert views.shape == (2, 4, 4)
    assert not np.allclose(views.data[0], views.data[1])


def test_same_seed_same_params_different_seed_differs():
    m1 = small_model(seed=11)
    m2 = small_model(seed=11)
    m3 = small_model(seed=12)
    for name in m1.params:
        np.testing.assert_array_equal(m1.params[name].data, m2.params[name].data)
    assert any(not np.array_equal(m1.params[n].data, m3.params[n].data) for n in m1.params)


def test_initial_values_do_not_depend_on_the_draw_chunk(monkeypatch):
    # pieces that split rows and blocks give the values of one draw per block
    monkeypatch.setattr(fusion, "_INIT_CHUNK", 1 << 30)
    whole = small_model(seed=11, k=3)
    monkeypatch.setattr(fusion, "_INIT_CHUNK", 7)
    pieces = small_model(seed=11, k=3)
    assert whole.params.flat.tobytes() == pieces.params.flat.tobytes()


def test_store_size_is_the_sum_of_the_block_sizes():
    # the closed form that sizes a config before any block is named
    rng = np.random.default_rng(31)
    for _ in range(50):
        cfg = ModelConfig(embedding_dim=2 * int(rng.integers(1, 9)),
                          experts=int(rng.integers(1, 5)), mi_bins=int(rng.integers(2, 9)),
                          modalities=[f"m{i}" for i in range(int(rng.integers(0, 4)))])
        dims = {m: int(rng.integers(1, 20)) for m in cfg.modalities}
        n_ent, n_rel = int(rng.integers(1, 50)), int(rng.integers(1, 10))
        want = sum(math.prod(s) for _, s in fusion.param_shapes(cfg, n_ent, n_rel, dims))
        assert fusion.store_size(cfg, n_ent, n_rel, dims) == want, (cfg, dims, n_ent, n_rel)


def test_config_validation_errors():
    rng = np.random.default_rng(0)
    tables = {"img": make_table("img", 4, 3, rng)}
    with pytest.raises(ConfigError, match="even"):
        FusionModel(ModelConfig(embedding_dim=5, modalities=["img"]), 4, 2, tables)
    with pytest.raises(ConfigError, match="experts"):
        FusionModel(ModelConfig(embedding_dim=4, experts=0, modalities=["img"]), 4, 2, tables)
    with pytest.raises(ConfigError, match="norm"):
        FusionModel(ModelConfig(embedding_dim=4, norm="l3", modalities=["img"]), 4, 2, tables)
    with pytest.raises(ConfigError, match="feature table"):
        FusionModel(ModelConfig(embedding_dim=4, modalities=["sound"]), 4, 2, tables)
    with pytest.raises(ConfigError, match="implicit"):
        FusionModel(ModelConfig(embedding_dim=4, modalities=["structure"]), 4, 2, tables)
    with pytest.raises(ConfigError, match="duplicate"):
        FusionModel(ModelConfig(embedding_dim=4, modalities=["img", "img"]), 4, 2, tables)
    with pytest.raises(ConfigError, match="weighting"):
        FusionModel(ModelConfig(embedding_dim=4, modalities=["img"], intra_weighting="magic"), 4, 2, tables)


def test_uniform_ablations_change_weights():
    base = small_model(n_entities=6, seed=2)
    flat = small_model(n_entities=6, seed=2, intra_weighting="uniform", inter_weighting="uniform")
    _, cache = flat.fuse(np.arange(6))
    np.testing.assert_allclose(cache["intra_weights"]["img"], [0.5, 0.5])
    np.testing.assert_allclose(cache["inter_weights"][(0, 1, 2)], np.full(3, 1 / 3))
    _, base_cache = base.fuse(np.arange(6))
    assert base_cache["inter_weights"][(0, 1, 2)].shape == (3,)
