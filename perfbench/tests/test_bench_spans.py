"""Span recording, wrapper restore, self time and per-layer arithmetic."""

import json
import os
import types

import pytest

import gen
import layers
from spans import Span, Tracer, ancestor, descendants, self_times


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span("root", 0, 100, None),
        Span("a", 10, 40, 0),
        Span("a1", 15, 25, 1),
        Span("a2", 20, 35, 1),   # overlaps a1: the union 15..35 is covered
        Span("b", 50, 90, 0),
        Span("b1", 80, 120, 4),  # spills past b: only 80..90 counts
    ]
    assert self_times(spans) == [30, 10, 10, 15, 30, 40]
    # without overlap or spill, self times sum to the root's duration
    tidy = [Span("root", 0, 100, None), Span("a", 10, 40, 0), Span("a1", 15, 25, 1),
            Span("b", 50, 90, 0)]
    assert sum(self_times(tidy)) == 100
    assert ancestor(spans, 2, "root") == 0 and ancestor(spans, 2, "b") is None
    assert descendants(spans, 1) == [2, 3]


def test_wrappers_nest_count_and_restore():
    mod = types.SimpleNamespace()

    class Box:
        def inner(self, x):
            return mod.leaf(x) + 1

    mod.leaf = lambda x: x * 2
    leaf, inner = mod.leaf, Box.inner
    ticks = iter(range(0, 1000, 5))
    with Tracer(clock=lambda: next(ticks)) as tr:
        tr.wrap(Box, "inner", "box.inner", note=lambda args, kwargs, result: result)
        tr.wrap(mod, "leaf", "mod.leaf")
        tr.tally(mod, "leaf", "leaf.calls")
        with tr.span("root"):
            assert Box().inner(3) == 7
            assert Box().inner(4) == 9
    assert mod.leaf is leaf and Box.__dict__["inner"] is inner
    assert [s.name for s in tr.spans] == ["root", "box.inner", "mod.leaf", "box.inner", "mod.leaf"]
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0, 3]
    assert [s.n for s in tr.spans] == [None, 7, None, 9, None]
    assert tr.counts["leaf.calls"] == 2
    assert all(s.end > s.start for s in tr.spans)


def test_wrapping_an_inherited_method_restores_the_lookup():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    with Tracer() as tr:
        tr.wrap(Child, "f", "child.f")
        assert Child().f() == 1
    assert "f" not in Child.__dict__ and Child().f() == 1


def test_a_missing_wrap_point_is_noted_not_fatal():
    mod = types.SimpleNamespace(__name__="mod")
    with Tracer() as tr:
        tr.wrap(mod, "gone", "mod.gone")
        tr.tally(mod, "gone_too", "calls")
    assert tr.missing == ["mod.gone", "mod.gone_too"]


def test_close_out_of_order_raises():
    tr = Tracer()
    outer = tr.open("outer")
    tr.open("inner")
    with pytest.raises(RuntimeError):
        tr.close(outer)


def test_per_layer_reads_steps_batches_and_queries():
    # one train() of two batches, then one evaluate() of two queries
    clock = iter(range(0, 10**9, 1_000_000))  # each clock read adds 1 ms
    tr = Tracer(clock=lambda: next(clock))
    with tr.span("bench.pass"):
        with tr.span("trainer.train"):
            for _ in range(2):
                for _ in range(3):
                    i = tr.open("sampling.corrupt")
                    tr.close(i)
                    tr.sizes[i] = 4
                with tr.span("trainer.step"):
                    i = tr.open("autodiff.backward")
                    tr.sizes[i] = 300
                    tr.close(i)
                    with tr.span("trainer.adam"):
                        pass
        i = tr.open("trainer.evaluate")
        for _ in range(2):
            j = tr.open("scoring.score_candidates")
            tr.close(j)
            tr.sizes[j] = 100
        tr.close(i)
        tr.sizes[i] = 2
    tr.counts["filter.contains"] = 30
    tr.counts["filter.lookups"] = 2
    got = layers.per_layer(tr, 0)
    assert got["autodiff.backward_ms"] == 1.0
    assert got["autodiff.tape_nodes"] == 300
    assert got["trainer.adam_ms"] == 1.0
    assert got["sampling.corrupt_ms"] == 3.0
    assert got["sampling.filter_probes_per_negative"] == 30 / 24
    assert got["scoring.candidates_scored"] == 100
    assert got["kgdata.filter_lookups_per_query"] == 1.0
    assert got["fusion.fuse_ms"] == 0.0  # a layer that never ran reports 0
    # step self time: each step span lasts 5 ms with 2 ms in children, and
    # the train span keeps the 9 one-ms gaps between its children and ends
    assert got["trainer.step_self_ms"] == (2 * 3 + 9) / 2
    # evaluate: 5 ms span, 2 ms in scoring, 2 queries
    assert got["trainer.rank_ms"] == 1.5
    # every per-layer metric BENCHMARK.json lists, bar the two-pass overhead
    with open(os.path.join(gen.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(got) == {m["name"] for m in spec["per_layer"]} - {"trace.overhead_frac"}


def test_pace_discounts_its_own_ticks_and_restores_the_handler():
    import signal
    import time

    from pace import PERIOD, Pace

    before = signal.getsignal(signal.SIGALRM)
    with Pace() as pace:
        _, busy = pace.call(lambda: time.sleep(6 * PERIOD))
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(pace.samples) >= 3 and pace.spent > 0
    # the ticks interrupt the sleep; their time is not the call's
    assert 5.5 * PERIOD < busy < 6 * PERIOD + 0.05
    assert pace.scale(busy) > 0
    assert Pace().scale(1.5) == 1.5  # no ticks: seconds stay as measured
