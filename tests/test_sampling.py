"""Tests for corruption, entropy classes, and the weighted loss."""

import math

import numpy as np
import pytest

import moekgc.autodiff as ad
from moekgc.config import ConfigError
from moekgc.kgdata import FilterIndex
from moekgc.sampling import (
    AMBIGUOUS,
    EASY,
    HARD,
    NegativeSamplingConfig,
    SamplingError,
    UnreachableHardClassWarning,
    annotate,
    batch_loss,
    binary_entropy,
    classify,
    corrupt,
    derived_rng,
    loss,
    max_entropy,
    negative_weights,
    sample_stats,
)

from oracles import binary_entropy as oracle_entropy
from oracles import finite_difference_grads, relative_block_error


def make_filter(triples):
    arr = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    return FilterIndex(arr)


def default_cfg(**kw):
    cfg = NegativeSamplingConfig(**kw)
    return cfg


# ---------------------------------------------------------------- corrupt

def test_corrupt_is_deterministic_for_a_seed():
    fi = make_filter([(0, 0, 1), (1, 0, 2)])
    a = corrupt((0, 0, 1), 12, derived_rng(7, 0, 3), fi, n_entities=20)
    b = corrupt((0, 0, 1), 12, derived_rng(7, 0, 3), fi, n_entities=20)
    assert [s.triple for s in a] == [s.triple for s in b]
    assert [s.corrupted_side for s in a] == [s.corrupted_side for s in b]


def test_corrupt_never_emits_a_known_true_triple():
    rng = np.random.default_rng(3)
    triples = [(int(h), int(r), int(t)) for h, r, t in rng.integers(0, 12, size=(60, 3))]
    fi = make_filter(triples)
    for pos in triples[:10]:
        for s in corrupt(pos, 50, derived_rng(1, *pos), fi, n_entities=12):
            assert not fi.contains(*s.triple)


def test_corrupt_respects_forced_side():
    fi = make_filter([(0, 0, 1)])
    negs = corrupt((0, 0, 1), 30, derived_rng(5), fi, n_entities=10, side="tail")
    assert all(s.corrupted_side == "tail" for s in negs)
    assert all(s.head == 0 and s.relation == 0 for s in negs)


def test_corrupt_uses_both_sides_when_free():
    fi = make_filter([(0, 0, 1)])
    negs = corrupt((0, 0, 1), 200, derived_rng(11), fi, n_entities=10)
    sides = {s.corrupted_side for s in negs}
    assert sides == {"head", "tail"}


def test_corrupt_two_entity_graph_finds_the_only_candidate():
    # corrupting the tail of (0, r, 1) can only yield (0, r, 0)
    fi = make_filter([(0, 0, 1)])
    negs = corrupt((0, 0, 1), 5, derived_rng(2), fi, n_entities=2, side="tail")
    assert all(s.triple == (0, 0, 0) for s in negs)


def test_corrupt_raises_when_every_candidate_is_true():
    # all four (h, 0, t) combos are known true, so no tail corruption exists
    fi = make_filter([(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)])
    with pytest.raises(SamplingError, match=r"\(0, 0, 1\)"):
        corrupt((0, 0, 1), 1, derived_rng(0), fi, n_entities=2, side="tail")


def test_corrupt_rejects_zero_count_and_bad_side():
    fi = make_filter([(0, 0, 1)])
    with pytest.raises(ValueError):
        corrupt((0, 0, 1), 0, derived_rng(0), fi, n_entities=4)
    with pytest.raises(ValueError):
        corrupt((0, 0, 1), 1, derived_rng(0), fi, n_entities=4, side="left")


# ---------------------------------------------------------------- entropy

def test_entropy_peak_is_ln_two():
    assert binary_entropy(0.5) == pytest.approx(math.log(2.0), abs=1e-12)
    assert binary_entropy(0.5, "base2") == pytest.approx(1.0, abs=1e-12)


def test_entropy_confident_probability():
    # h(0.99) = -0.99 ln 0.99 - 0.01 ln 0.01
    want = -0.99 * math.log(0.99) - 0.01 * math.log(0.01)
    assert binary_entropy(0.99) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.0560, abs=1e-4)


def test_entropy_is_clamped_at_the_edges():
    for p in (0.0, 1.0, -0.5, 2.0):
        h = binary_entropy(p)
        assert math.isfinite(h)
        assert 0.0 < h < 1e-5


def test_entropy_matches_oracle_on_a_grid():
    for p in np.linspace(0.001, 0.999, 97):
        assert binary_entropy(float(p)) == pytest.approx(oracle_entropy(float(p)), abs=1e-12)
        assert binary_entropy(float(p), "base2") == pytest.approx(
            oracle_entropy(float(p)) / math.log(2.0), abs=1e-12)


def test_entropy_symmetry():
    for p in (0.1, 0.25, 0.43):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


# ---------------------------------------------------------------- classes

def test_classification_boundaries_are_closed_on_the_left():
    cfg = default_cfg(log_base="base2")
    assert classify(cfg.delta1, cfg) == (AMBIGUOUS, cfg.lambda_ambiguous)
    assert classify(cfg.delta2, cfg) == (HARD, cfg.lambda_hard)
    assert classify(cfg.delta1 - 1e-9, cfg) == (EASY, cfg.lambda_easy)
    assert classify(cfg.delta2 - 1e-9, cfg) == (AMBIGUOUS, cfg.lambda_ambiguous)


def test_hard_class_unreachable_under_natural_log_defaults():
    # delta2 = 0.8 > ln 2, so no probability reaches the hard class
    cfg = default_cfg()
    rng = np.random.default_rng(0)
    for p in rng.uniform(0.0, 1.0, size=5000):
        d, _ = classify(binary_entropy(float(p)), cfg)
        assert d != HARD


def test_hard_class_reachable_with_base2():
    cfg = default_cfg(log_base="base2")
    assert classify(binary_entropy(0.5, "base2"), cfg)[0] == HARD


def test_unreachable_hard_class_warns():
    import warnings

    with pytest.warns(UnreachableHardClassWarning):
        default_cfg().validate()
    # reachable thresholds stay silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        default_cfg(log_base="base2").validate()
        default_cfg(delta2=0.6).validate()


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        default_cfg(negatives_per_positive=0).validate()
    with pytest.raises(ConfigError):
        default_cfg(delta1=0.8, delta2=0.2).validate()
    with pytest.raises(ConfigError):
        default_cfg(delta1=0.0).validate()
    with pytest.raises(ConfigError):
        default_cfg(lambda_easy=1.5, lambda_ambiguous=1.5).validate()
    with pytest.raises(ConfigError):
        default_cfg(log_base="ln").validate()
    # lambda_hard below lambda_ambiguous is allowed (the shipped defaults do it)
    default_cfg(log_base="base2").validate()


def test_max_entropy_values():
    assert max_entropy("natural") == pytest.approx(math.log(2.0))
    assert max_entropy("base2") == 1.0


# ---------------------------------------------------------------- annotate

def test_annotate_fills_probability_entropy_and_class():
    cfg = default_cfg(margin=2.0)
    fi = make_filter([(0, 0, 1)])
    negs = corrupt((0, 0, 1), 3, derived_rng(4), fi, n_entities=30)
    annotate(negs, [-3.0, -0.2, -20.0], cfg)
    # p = sigmoid(margin + score), computed independently
    for s, sc in zip(negs, (-3.0, -0.2, -20.0)):
        want_p = 1.0 / (1.0 + math.exp(-(2.0 + sc)))
        assert s.probability == pytest.approx(want_p, rel=1e-9)
        assert s.entropy == pytest.approx(oracle_entropy(want_p), rel=1e-9)
    assert negs[0].difficulty == AMBIGUOUS      # p = sigmoid(-1), h ~ 0.58
    assert negs[1].difficulty == AMBIGUOUS      # p = sigmoid(1.8), h ~ 0.41
    assert negs[2].difficulty == EASY           # p ~ 1.5e-8, h ~ 0
    assert negs[2].weight == cfg.lambda_easy


def test_annotate_length_mismatch():
    cfg = default_cfg()
    fi = make_filter([(0, 0, 1)])
    negs = corrupt((0, 0, 1), 2, derived_rng(4), fi, n_entities=5)
    with pytest.raises(ValueError):
        annotate(negs, [1.0], cfg)


def test_negative_weights_match_scalar_path():
    cfg = default_cfg(margin=6.0, log_base="base2")
    rng = np.random.default_rng(9)
    scores = rng.uniform(-15.0, 2.0, size=300)
    w = negative_weights(scores, cfg)
    for sc, wi in zip(scores, w):
        p = 1.0 / (1.0 + math.exp(-(6.0 + sc)))
        _, want = classify(binary_entropy(p, "base2"), cfg)
        assert wi == want


@pytest.mark.parametrize("log_base", ["natural", "base2"])
def test_annotate_weights_equal_negative_weights_at_the_boundaries(log_base):
    scores = np.linspace(-20.0, 5.0, 2001)
    fi = make_filter([(0, 0, 1)])
    negs = corrupt((0, 0, 1), len(scores), derived_rng(3), fi, n_entities=40)
    annotate(negs, scores, default_cfg(margin=1.5, log_base=log_base))
    # thresholds taken from entropies the grid produces, so some scores sit
    # exactly on delta1 and delta2
    seen = sorted({s.entropy for s in negs})
    cfg = default_cfg(margin=1.5, log_base=log_base,
                      delta1=seen[len(seen) // 4], delta2=seen[3 * len(seen) // 4])
    annotate(negs, scores, cfg)
    assert [s.weight for s in negs] == negative_weights(scores, cfg).tolist()
    assert [classify(s.entropy, cfg) for s in negs] == [(s.difficulty, s.weight) for s in negs]
    assert {s.difficulty for s in negs if s.entropy == cfg.delta1} == {AMBIGUOUS}
    assert {s.difficulty for s in negs if s.entropy == cfg.delta2} == {HARD}
    assert {s.difficulty for s in negs} == {EASY, AMBIGUOUS, HARD}


def test_sample_stats_counts_match_manual_recount():
    cfg = default_cfg(log_base="base2", margin=0.0)
    fi = make_filter([(0, 0, 1)])
    negs = corrupt((0, 0, 1), 64, derived_rng(13), fi, n_entities=50)
    rng = np.random.default_rng(1)
    scores = rng.uniform(-12.0, 3.0, size=64)
    annotate(negs, scores, cfg)
    stats = sample_stats(negs)
    want = {EASY: 0, AMBIGUOUS: 0, HARD: 0}
    for s in negs:
        want[s.difficulty] += 1
    assert stats["easy"] == want[EASY]
    assert stats["ambiguous"] == want[AMBIGUOUS]
    assert stats["hard"] == want[HARD]
    assert stats["total"] == 64
    assert stats["mean_entropy"] == pytest.approx(np.mean([s.entropy for s in negs]))


def test_sample_stats_requires_annotation():
    fi = make_filter([(0, 0, 1)])
    negs = corrupt((0, 0, 1), 2, derived_rng(4), fi, n_entities=5)
    with pytest.raises(ValueError):
        sample_stats(negs)


# ---------------------------------------------------------------- loss

def test_loss_hand_computed_example():
    # S+ = -1, negatives {-3, -0.2}, margin 2: both negatives have entropy
    # in [0.2, 0.8) so both get the ambiguous weight 1.5
    #   L = -log s(1) - 1.5 log s(1) - 1.5 log s(-1.8)
    want = -math.log(1 / (1 + math.exp(-1.0))) * (1.0 + 1.5) \
        - 1.5 * math.log(1 / (1 + math.exp(1.8)))
    assert want == pytest.approx(3.7126206, abs=1e-6)
    cfg = default_cfg(margin=2.0)
    with ad.using_dtype(np.float64):
        pos = ad.Tensor(np.array([[-1.0]]))
        negs = ad.Tensor(np.array([[-3.0], [-0.2]]))
        got = loss(pos, negs, cfg).item()
    assert got == pytest.approx(want, abs=1e-9)


def test_loss_reduces_to_plain_sigmoid_loss():
    # all weights 1 and margin 0 must equal the unweighted rotate loss
    cfg = default_cfg(margin=0.0, lambda_easy=1.0 - 1e-12, lambda_ambiguous=1.0, lambda_hard=1.0)
    rng = np.random.default_rng(17)
    with ad.using_dtype(np.float64):
        for _ in range(25):
            sp = float(rng.uniform(-8, 0))
            sn = rng.uniform(-8, 0, size=(6, 1))
            got = loss(ad.Tensor(np.array([[sp]])), ad.Tensor(sn), cfg).item()
            want = -math.log(1 / (1 + math.exp(-sp)))
            for v in sn.ravel():
                want -= math.log(1 / (1 + math.exp(v)))
            assert got == pytest.approx(want, rel=1e-9)


def test_batch_loss_is_mean_of_single_losses():
    cfg = default_cfg(margin=4.0)
    rng = np.random.default_rng(23)
    b, n = 5, 3
    sp = rng.uniform(-6, 0, size=(b, 1))
    sn = rng.uniform(-6, 0, size=(b * n, 1))
    with ad.using_dtype(np.float64):
        w = negative_weights(sn, cfg)
        got = batch_loss(ad.Tensor(sp), ad.Tensor(sn), w, cfg).item()
        singles = []
        for i in range(b):
            block = sn[i * n:(i + 1) * n]
            li = loss(ad.Tensor(sp[i:i + 1]), ad.Tensor(block), cfg).item()
            singles.append(li)
    assert got == pytest.approx(float(np.mean(singles)), rel=1e-9)


def test_doubling_weights_doubles_the_negative_term():
    cfg1 = default_cfg(margin=3.0, lambda_easy=0.5, lambda_ambiguous=1.5, lambda_hard=1.2)
    cfg2 = default_cfg(margin=3.0, lambda_easy=1.0, lambda_ambiguous=3.0, lambda_hard=2.4)
    sp = np.array([[-2.0]])
    sn = np.array([[-7.0], [-2.5], [-0.1]])
    with ad.using_dtype(np.float64):
        l1 = loss(ad.Tensor(sp), ad.Tensor(sn), cfg1).item()
        l2 = loss(ad.Tensor(sp), ad.Tensor(sn), cfg2).item()
        pos_term = -math.log(1 / (1 + math.exp(-(3.0 - 2.0))))
    assert l2 - pos_term == pytest.approx(2.0 * (l1 - pos_term), rel=1e-9)


def test_loss_gradient_matches_finite_differences():
    cfg = default_cfg(margin=2.0)
    rng = np.random.default_rng(31)
    sp0 = rng.uniform(-5, 0, size=(1, 1))
    sn0 = rng.uniform(-5, 0, size=(4, 1))
    with ad.using_dtype(np.float64):
        pos = ad.parameter(sp0.copy())
        neg = ad.parameter(sn0.copy())
        # freeze the weights so finite differences see the same constants
        w = negative_weights(sn0, cfg)
        out = batch_loss(pos, neg, w, cfg)
        ad.backward(out)

        def loss_fn():
            return batch_loss(pos, neg, w, cfg).item()

        fd_pos, fd_neg = finite_difference_grads(loss_fn, [pos.data, neg.data], step=1e-5)
    assert relative_block_error(pos.grad, fd_pos) < 1e-6
    assert relative_block_error(neg.grad, fd_neg) < 1e-6


def test_loss_rejects_bad_positive_shape():
    cfg = default_cfg()
    with pytest.raises(ValueError):
        loss(ad.Tensor(np.array([-1.0])), ad.Tensor(np.array([[-2.0]])), cfg)


def test_derived_rng_streams_are_stable_and_distinct():
    a = derived_rng(3, 1, 4).integers(0, 1000, size=8)
    b = derived_rng(3, 1, 4).integers(0, 1000, size=8)
    c = derived_rng(3, 1, 5).integers(0, 1000, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
