"""Negative sampling with entropy-weighted difficulty classes.

Negatives are drawn by corrupting one side of a positive triple with a
uniformly sampled entity, rejecting corruptions that land on a known-true
triple.  Each negative's score maps to a probability p = sigmoid(score +
margin); the binary entropy of p sorts negatives into easy, ambiguous, and
hard classes, and each class contributes to the loss with its own constant
multiplier.  No gradient flows through the class assignment.

Entropy uses the natural logarithm by default, so the maximum reachable
entropy is ln 2 (about 0.693).  A hard threshold above that maximum makes
the hard class unreachable; validation warns when that happens.  The base-2
switch rescales entropy to [0, 1].
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ConfigError

P_CLAMP = 1e-7  # probabilities are clamped to [P_CLAMP, 1 - P_CLAMP]

EASY, AMBIGUOUS, HARD = "easy", "ambiguous", "hard"
CLASSES = (EASY, AMBIGUOUS, HARD)


class SamplingError(Exception):
    """Could not draw a valid negative within the retry budget."""


class UnreachableHardClassWarning(UserWarning):
    """delta2 exceeds the maximum entropy the chosen log base can produce."""


def max_entropy(log_base: str) -> float:
    return math.log(2.0) if log_base == "natural" else 1.0


@dataclass
class NegativeSamplingConfig:
    negatives_per_positive: int = 16
    margin: float = 6.0
    delta1: float = 0.2
    delta2: float = 0.8
    lambda_easy: float = 0.5
    lambda_ambiguous: float = 1.5
    lambda_hard: float = 1.2
    log_base: str = "natural"  # natural | base2
    max_retries: int = 200

    def validate(self):
        if self.negatives_per_positive < 1:
            raise ConfigError(f"negatives_per_positive must be >= 1, got {self.negatives_per_positive}")
        if not (0.0 < self.delta1 < self.delta2):
            raise ConfigError(f"need 0 < delta1 < delta2, got {self.delta1}, {self.delta2}")
        if self.lambda_easy >= self.lambda_ambiguous:
            raise ConfigError(
                f"lambda_easy must be < lambda_ambiguous, got {self.lambda_easy} >= {self.lambda_ambiguous}"
            )
        if self.log_base not in ("natural", "base2"):
            raise ConfigError(f"log_base must be natural or base2, got {self.log_base!r}")
        if self.max_retries < 1:
            raise ConfigError("max_retries must be >= 1")
        if self.delta2 > max_entropy(self.log_base):
            warnings.warn(
                f"delta2={self.delta2} exceeds the maximum entropy "
                f"{max_entropy(self.log_base):.4f} under {self.log_base} log; "
                "the hard class is unreachable",
                UnreachableHardClassWarning,
                stacklevel=2,
            )


@dataclass
class NegativeSample:
    head: int
    relation: int
    tail: int
    corrupted_side: str  # head | tail
    score: float = None
    probability: float = None
    entropy: float = None
    difficulty: str = None
    weight: float = None

    @property
    def triple(self):
        return (self.head, self.relation, self.tail)


def derived_rng(*key) -> np.random.Generator:
    """Deterministic generator derived from a tuple of integers."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def corrupt(positive, n: int, rng: np.random.Generator, filter_index, n_entities: int,
            side: str = None, max_retries: int = 200) -> list:
    """Draw n corrupted triples for one positive, never a known-true triple.

    The corrupted side is chosen uniformly per negative unless side pins it.
    Raises SamplingError when a draw cannot escape the filter within
    max_retries attempts.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    h, r, t = (int(x) for x in positive)
    out = []
    for _ in range(n):
        pick = side if side is not None else ("head" if rng.integers(2) == 0 else "tail")
        if pick not in ("head", "tail"):
            raise ValueError(f"side must be head or tail, got {pick!r}")
        for _ in range(max_retries):
            e = int(rng.integers(n_entities))
            cand = (e, r, t) if pick == "head" else (h, r, e)
            if not filter_index.contains(*cand):
                out.append(NegativeSample(cand[0], cand[1], cand[2], corrupted_side=pick))
                break
        else:
            raise SamplingError(
                f"no valid {pick} corruption for positive ({h}, {r}, {t}) "
                f"after {max_retries} attempts"
            )
    return out


def binary_entropy(p, log_base: str = "natural"):
    """Entropy of a Bernoulli(p), clamped away from 0 and 1; elementwise over
    arrays, a float for a scalar p."""
    p = np.clip(np.asarray(p, dtype=np.float64), P_CLAMP, 1.0 - P_CLAMP)
    h = -p * np.log(p) - (1.0 - p) * np.log(1.0 - p)
    if log_base == "base2":
        h = h / math.log(2.0)
    return float(h) if h.ndim == 0 else h


def _class_index(entropy, cfg: NegativeSamplingConfig) -> np.ndarray:
    """Index into CLASSES per entropy value; boundaries are closed on the
    left, and the hard test wins should delta2 <= delta1."""
    h = np.asarray(entropy, dtype=np.float64)
    return np.where(h >= cfg.delta2, 2, np.where(h < cfg.delta1, 0, 1))


def _lambdas(cfg: NegativeSamplingConfig) -> np.ndarray:
    return np.array([cfg.lambda_easy, cfg.lambda_ambiguous, cfg.lambda_hard], dtype=np.float64)


def _probabilities(scores, cfg: NegativeSamplingConfig):
    """Flat float64 scores and p = sigmoid(score + margin)."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    return scores, 1.0 / (1.0 + np.exp(-np.clip(scores + cfg.margin, -60.0, 60.0)))


def classify(entropy: float, cfg: NegativeSamplingConfig):
    """Difficulty class and loss weight for one entropy value.

    Boundaries are closed on the left: entropy == delta1 is ambiguous,
    entropy == delta2 is hard.
    """
    i = int(_class_index(entropy, cfg))
    return CLASSES[i], float(_lambdas(cfg)[i])


def annotate(samples: list, scores, cfg: NegativeSamplingConfig) -> list:
    """Fill score, probability, entropy, class, and weight on each sample."""
    scores, p = _probabilities(scores, cfg)
    if scores.size != len(samples):
        raise ValueError(f"{len(samples)} samples but {scores.size} scores")
    h = binary_entropy(p, cfg.log_base)
    cls = _class_index(h, cfg)
    w = _lambdas(cfg)[cls]
    for s, sc, pi, hi, ci, wi in zip(samples, scores.tolist(), p.tolist(), h.tolist(),
                                     cls.tolist(), w.tolist()):
        s.score, s.probability, s.entropy = sc, pi, hi
        s.difficulty, s.weight = CLASSES[ci], wi
    return samples


def negative_weights(scores, cfg: NegativeSamplingConfig) -> np.ndarray:
    """Loss weights for a flat array of negative scores (no gradient path)."""
    _, p = _probabilities(scores, cfg)
    return _lambdas(cfg)[_class_index(binary_entropy(p, cfg.log_base), cfg)]


def batch_loss(pos_scores: Tensor, neg_scores: Tensor, neg_weights, cfg: NegativeSamplingConfig) -> Tensor:
    """Mean over positives of -log s(margin + S+) - sum_i w_i log s(-(margin + S-)).

    neg_weights are constants; gradients flow only through the scores.
    """
    n_pos = pos_scores.shape[0]
    w = ad.Tensor(np.asarray(neg_weights, dtype=np.float64).reshape(neg_scores.shape))
    pos_term = -(ad.logsigmoid(pos_scores + cfg.margin).sum())
    neg_term = -((w * ad.logsigmoid(-(neg_scores + cfg.margin))).sum())
    return (pos_term + neg_term) * (1.0 / n_pos)


def loss(positive_score: Tensor, negative_scores: Tensor, cfg: NegativeSamplingConfig) -> Tensor:
    """Loss for one positive and its negatives; weights derived internally
    from the negative score values (treated as constants)."""
    if positive_score.ndim != 2 or positive_score.shape[0] != 1:
        raise ValueError(f"positive_score must be (1, 1), got shape {positive_score.shape}")
    w = negative_weights(negative_scores.data, cfg)
    return batch_loss(positive_score, negative_scores, w, cfg)


def sample_stats(samples: list) -> dict:
    """Class counts and mean entropy over annotated samples."""
    counts = {c: 0 for c in CLASSES}
    total_h = 0.0
    for s in samples:
        if s.difficulty is None:
            raise ValueError("samples must be annotated first")
        counts[s.difficulty] += 1
        total_h += s.entropy
    return {
        "total": len(samples),
        "easy": counts[EASY],
        "ambiguous": counts[AMBIGUOUS],
        "hard": counts[HARD],
        "mean_entropy": total_h / len(samples) if samples else 0.0,
    }
