"""Negative sampling with entropy-weighted difficulty classes.

Negatives are drawn by corrupting one side of a positive triple with a
uniformly sampled entity, rejecting corruptions that land on a known-true
triple.  Draws are keyed hashes of (seed, epoch, train row, slot, attempt),
computed for a whole batch at once.  Each negative's score maps to a
probability p = sigmoid(score + margin); the binary entropy of p sorts
negatives into easy, ambiguous, and hard classes, and each class contributes
to the loss with its own constant multiplier.  No gradient flows through the
class assignment.

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
from .config import ConfigError, check_finite

P_CLAMP = 1e-7  # probabilities are clamped to [P_CLAMP, 1 - P_CLAMP]
MAX_RETRIES = 200  # draws per negative slot before corrupt gives up

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

    def validate(self):
        check_finite(self)
        if self.negatives_per_positive < 1:
            raise ConfigError(f"negatives_per_positive must be >= 1, got {self.negatives_per_positive}")
        if not (0.0 < self.delta1 < self.delta2):
            raise ConfigError(f"need 0 < delta1 < delta2, got {self.delta1}, {self.delta2}")
        for name in ("lambda_easy", "lambda_ambiguous", "lambda_hard"):
            # a negative weight rewards a high score on its class of negatives
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.lambda_easy >= self.lambda_ambiguous:
            raise ConfigError(
                f"lambda_easy must be < lambda_ambiguous, got {self.lambda_easy} >= {self.lambda_ambiguous}"
            )
        if self.log_base not in ("natural", "base2"):
            raise ConfigError(f"log_base must be natural or base2, got {self.log_base!r}")
        if self.delta2 > max_entropy(self.log_base):
            warnings.warn(
                f"delta2={self.delta2} exceeds the maximum entropy "
                f"{max_entropy(self.log_base):.4f} under {self.log_base} log; "
                "the hard class is unreachable",
                UnreachableHardClassWarning,
                stacklevel=2,
            )


def derived_rng(*key) -> np.random.Generator:
    """Deterministic generator derived from a tuple of integers."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


# splitmix64 constants (Steele, Lea and Flood, "Fast splittable pseudorandom
# number generators", OOPSLA 2014)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_S27, _S30, _S31, _S32, _S63 = (np.uint64(k) for k in (27, 30, 31, 32, 63))


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer on a uint64 array (arithmetic wraps mod 2**64)."""
    z = (z ^ (z >> _S30)) * _MUL1
    z = (z ^ (z >> _S27)) * _MUL2
    return z ^ (z >> _S31)


def _chain(h: np.ndarray, part) -> np.ndarray:
    """Fold one key part into the uint64 hashes h: mix((h + gamma) ^ part)."""
    return _mix((h + _GAMMA) ^ np.asarray(part, dtype=np.uint64))


def corrupt(positives, n: int, filter_index, n_entities: int, seed: int, epoch: int = 0,
            rows=None) -> np.ndarray:
    """Draw n corrupted triples per positive, never a known-true triple.

    positives is an (n_pos, 3) array of (head, relation, tail) and rows their
    train row numbers (0..n_pos-1 when omitted).  Returns an (n_pos * n, 3)
    int64 array ordered by positive, then by negative slot.

    Each draw is keyed, not streamed: the hash of (seed, epoch, row, slot)
    picks the corrupted side, and the hash of that and the attempt number
    picks the entity by multiply-shift (Lemire, TOMACS 2019).  So (seed,
    epoch, row) fixes a row's negatives whatever else is in its batch.  A
    draw that hits filter_index is redrawn with the next attempt number;
    SamplingError when MAX_RETRIES attempts all hit.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0 <= seed < 2 ** 63 or not 0 <= epoch < 2 ** 63:
        raise ValueError(f"seed and epoch must be in [0, 2**63), got {seed}, {epoch}")
    if not 0 < n_entities <= 2 ** 32:
        raise ValueError(f"n_entities must be in [1, 2**32], got {n_entities}")
    positives = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
    rows = np.arange(len(positives)) if rows is None else np.asarray(rows, dtype=np.int64)
    if rows.shape != (len(positives),):
        raise ValueError(f"need one row number per positive, got {rows.shape} for {len(positives)}")

    row_hash = _chain(_chain(np.full(1, seed, dtype=np.uint64), epoch), rows)
    base = _chain(row_hash[:, None], np.arange(n)).reshape(-1)
    column = np.where(base >> _S63 == 0, 0, 2)
    out = np.repeat(positives, n, axis=0)
    cell = out.reshape(-1)  # a view: writing a cell writes out
    cell_of = np.arange(len(out)) * 3 + column
    todo = np.arange(len(out))
    for attempt in range(MAX_RETRIES):
        x = _chain(base[todo], attempt)
        cell[cell_of[todo]] = ((x >> _S32) * np.uint64(n_entities)) >> _S32
        todo = todo[filter_index.contains(*out[todo].T)]
        if len(todo) == 0:
            return out
    i = todo[0]
    h, r, t = positives[i // n].tolist()
    raise SamplingError(
        f"no valid {'head' if column[i] == 0 else 'tail'} corruption for positive "
        f"({h}, {r}, {t}) after {MAX_RETRIES} attempts"
    )


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


def _classify_scores(scores, cfg: NegativeSamplingConfig):
    """Entropy and class index (into CLASSES) of each negative score, through
    p = sigmoid(score + margin): the one place negatives are classified."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    h = binary_entropy(1.0 / (1.0 + np.exp(-np.clip(s + cfg.margin, -60.0, 60.0))), cfg.log_base)
    return h, _class_index(h, cfg)


def _lambdas(cfg: NegativeSamplingConfig) -> np.ndarray:
    return np.array([cfg.lambda_easy, cfg.lambda_ambiguous, cfg.lambda_hard], dtype=np.float64)


def classify(entropy: float, cfg: NegativeSamplingConfig):
    """Difficulty class and loss weight for one entropy value.

    Boundaries are closed on the left: entropy == delta1 is ambiguous,
    entropy == delta2 is hard.
    """
    i = int(_class_index(entropy, cfg))
    return CLASSES[i], float(_lambdas(cfg)[i])


def negative_weights(scores, cfg: NegativeSamplingConfig) -> np.ndarray:
    """Loss weights for a flat array of negative scores (no gradient path)."""
    return _lambdas(cfg)[_classify_scores(scores, cfg)[1]]


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


def sample_stats(scores, cfg: NegativeSamplingConfig) -> dict:
    """Class counts and mean entropy over a flat array of negative scores."""
    h, cls = _classify_scores(scores, cfg)
    counts = np.bincount(cls, minlength=len(CLASSES)).tolist()
    return {"total": int(h.size), **dict(zip(CLASSES, counts)),
            "mean_entropy": float(h.mean()) if h.size else 0.0}
