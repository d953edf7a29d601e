"""Force the block map's fan-out on a small graph.

``blocks(workers, n_entities)`` sets the block map's worker count, cuts the
embedding and ranking blocks small, so that a graph of a few dozen
entities runs several groups of blocks, and lowers the size at which a
dense layer splits (``ad._BLOCK_WORK``) to nothing, so that every layer of
two rows or more splits: on the pool in training and in evaluation's MI
context, inline inside evaluation's own blocks.  It also cuts Adam's chunks
(``trainer._ADAM_CHUNK``) to 64 elements, so that a desk model's update
splits too; sends every ``gather_rows`` scatter by levels, in pieces of a
few rows, with levels of one row left to the flat scatter; and runs
``score_batch`` in blocks of a few rows.  With workers=1 the same blocks
run inline on the calling thread: the serial run a threaded one must equal.

``plain()`` raises every one of those thresholds instead, so that each path
takes its one-block branch on the calling thread.
"""

import contextlib

import pytest

import moekgc.autodiff as ad
import moekgc.fusion as fusion
import moekgc.parallel as parallel
import moekgc.scoring as scoring
import moekgc.trainer as trainer

# worker counts every fan-out test runs under: the serial run, then the pool
SETTINGS = (1, 2)


@contextlib.contextmanager
def blocks(workers, n_entities, embed_rows=4, rank_queries=7):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parallel, "workers", lambda: workers)
        mp.setattr(fusion, "_EMBED_BLOCK", embed_rows)
        mp.setattr(trainer, "_RANK_BLOCK", rank_queries * n_entities)
        mp.setattr(ad, "_BLOCK_WORK", 1)
        mp.setattr(trainer, "_ADAM_CHUNK", 64)
        mp.setattr(ad, "_LEVEL_ELEMENTS", 1)
        mp.setattr(ad, "_LEVEL_ROWS", 2)
        mp.setattr(ad, "_PIECE_ROWS", 3)
        mp.setattr(scoring, "_SCORE_ROWS", 5)
        yield


@contextlib.contextmanager
def plain():
    big = 1 << 62
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parallel, "workers", lambda: 1)
        for module, name in ((fusion, "_EMBED_BLOCK"), (trainer, "_RANK_BLOCK"),
                             (ad, "_BLOCK_WORK"), (trainer, "_ADAM_CHUNK"),
                             (ad, "_LEVEL_ELEMENTS"), (scoring, "_SCORE_ROWS")):
            mp.setattr(module, name, big)
        yield


def settings(n_entities):
    """The default blocks, then small blocks under each of SETTINGS."""
    return (contextlib.nullcontext(),) + tuple(blocks(w, n_entities) for w in SETTINGS)
