"""Where the benchmark's spans go, and the per-layer metrics read from them.

``install`` wraps the public functions of each moekgc layer at the name
their callers look up: trainer.py imports ``corrupt``, ``score_batch`` and
friends into its own namespace, so those are patched on ``moekgc.trainer``;
``ad.backward`` and ``fusion.batch_mutual_information`` are looked up on
their modules; methods are patched on their classes.  Nothing under src/
changes.

``per_layer`` turns the spans of one traced pass into the metrics listed
in BENCHMARK.json.  Per-step values are medians over training steps;
per-query values are means over ranking queries, whose tail and head
sides differ in cost; a layer that did not run reports 0.  Times are raw
span durations, not paced.
"""

from __future__ import annotations

import statistics

from spans import Tracer, ancestor, children, descendants, self_times


def install(tracer: Tracer):
    import moekgc.autodiff as ad
    import moekgc.cli as cli
    import moekgc.fusion as fusion
    import moekgc.kgdata as kgdata
    import moekgc.trainer as trainer

    def entity_count(args, kwargs, result):
        return len(args[1])

    def tape_size(args, kwargs):
        return ad.tape_size()

    def candidate_count(args, kwargs, result):
        return len(args[0])

    def negative_count(args, kwargs, result):
        return len(result)

    def query_count(args, kwargs, result):
        return result["queries"]

    t = tracer
    t.wrap(cli, "load_config", "cli.load_config")
    t.wrap(cli, "load_data", "cli.load_data")
    t.wrap(cli, "load_graph", "kgdata.load_graph")
    t.wrap(cli, "load_modality", "kgdata.load_modality")
    t.wrap(trainer, "load_checkpoint", "trainer.checkpoint_load")
    t.wrap(trainer, "train", "trainer.train")
    t.wrap(trainer, "_batch_step", "trainer.step")
    t.wrap(trainer, "evaluate", "trainer.evaluate", note=query_count)
    t.wrap(trainer, "build_filter_index", "kgdata.build_filter_index")
    t.wrap(trainer, "corrupt", "sampling.corrupt", note=negative_count)
    t.wrap(trainer, "negative_weights", "sampling.negative_weights")
    t.wrap(trainer, "batch_loss", "sampling.batch_loss")
    t.wrap(trainer, "score_batch", "scoring.score_batch")
    t.wrap(trainer, "score_candidates", "scoring.score_candidates", note=candidate_count)
    t.wrap(trainer.Adam, "step", "trainer.adam")
    t.wrap(ad, "backward", "autodiff.backward", enter=tape_size)
    t.wrap(fusion.FusionModel, "__init__", "fusion.init")
    t.wrap(fusion.FusionModel, "fuse", "fusion.fuse", note=entity_count)
    t.wrap(fusion.FusionModel, "all_joint_embeddings", "fusion.embed_all")
    t.wrap(fusion, "batch_mutual_information", "fusion.mi")
    t.tally(kgdata.FilterIndex, "contains", "filter.contains")
    t.tally(kgdata.FilterIndex, "true_tails", "filter.lookups")
    t.tally(kgdata.FilterIndex, "true_heads", "filter.lookups")


MS, S = 1e-6, 1e-9  # nanoseconds to milliseconds / seconds


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def per_layer(tracer: Tracer, root: int) -> dict:
    """Per-layer values from the spans under root, keyed by metric name.

    trace.overhead_frac is left to the caller, which holds both passes.
    """
    spans = tracer.spans
    inside = [root] + descendants(spans, root)
    own = self_times(spans)
    kids = children(spans)

    def named(name):
        return [i for i in inside if spans[i].name == name]

    steps = named("trainer.step")
    per_step: dict = {i: {} for i in steps}
    for i in inside:
        step = ancestor(spans, i, "trainer.step")
        if step is not None:
            per_step[step].setdefault(spans[i].name, []).append(i)

    def step_ms(*names, use="time"):
        vals = []
        for bucket in per_step.values():
            hits = [i for n in names for i in bucket.get(n, [])]
            if use == "time":
                vals.append(sum(spans[i].duration for i in hits) * MS)
            elif use == "count":
                vals.append(len(hits))
            else:
                vals.append(sum(spans[i].n for i in hits))
        return _median(vals)

    # negatives are drawn in train() itself, ahead of the step they feed
    corrupt_ms, negatives = [], 0
    for tr in named("trainer.train"):
        acc = 0
        for k in kids[tr]:
            if spans[k].name == "sampling.corrupt":
                acc += spans[k].duration
                negatives += spans[k].n
            elif spans[k].name == "trainer.step":
                corrupt_ms.append(acc * MS)
                acc = 0

    evals = named("trainer.evaluate")
    queries = sum(spans[i].n for i in evals)
    candidates = named("scoring.score_candidates")
    load_data = named("cli.load_data")
    train_self = sum(own[i] for i in named("trainer.train") + steps)

    return {
        "autodiff.backward_ms": step_ms("autodiff.backward"),
        "autodiff.tape_nodes": step_ms("autodiff.backward", use="n"),
        "fusion.fuse_ms": step_ms("fusion.fuse"),
        "fusion.mi_ms": step_ms("fusion.mi"),
        "fusion.mi_calls": step_ms("fusion.mi", use="count"),
        "fusion.fused_entities": step_ms("fusion.fuse", use="n"),
        "fusion.embed_all_ms": _median([spans[i].duration * MS for i in named("fusion.embed_all")]),
        "scoring.score_batch_ms": step_ms("scoring.score_batch"),
        # tail and head queries cost different amounts: a mean, not a median
        "scoring.score_candidates_ms":
            sum(spans[i].duration for i in candidates) * MS / len(candidates) if candidates else 0.0,
        "scoring.candidates_scored": _median([spans[i].n for i in candidates]),
        "sampling.corrupt_ms": _median(corrupt_ms),
        "sampling.filter_probes_per_negative":
            tracer.counts["filter.contains"] / negatives if negatives else 0.0,
        "sampling.loss_ms": step_ms("sampling.negative_weights", "sampling.batch_loss"),
        "kgdata.load_graph_s": _median([spans[i].duration * S for i in named("kgdata.load_graph")]),
        "kgdata.load_modality_s": _median([
            sum(spans[k].duration for k in kids[i] if spans[k].name == "kgdata.load_modality") * S
            for i in load_data]),
        "kgdata.build_filter_index_s":
            _median([spans[i].duration * S for i in named("kgdata.build_filter_index")]),
        "kgdata.filter_lookups_per_query":
            tracer.counts["filter.lookups"] / queries if queries else 0.0,
        "trainer.adam_ms": step_ms("trainer.adam"),
        "trainer.step_self_ms": train_self * MS / len(steps) if steps else 0.0,
        "trainer.rank_ms": sum(own[i] for i in evals) * MS / queries if queries else 0.0,
        "trainer.checkpoint_load_s":
            _median([spans[i].duration * S for i in named("trainer.checkpoint_load")]),
        "cli.load_data_s": _median([spans[i].duration * S for i in load_data]),
        # the root's own time is what no layer span accounts for
        "trace.unattributed_frac": own[root] / spans[root].duration,
    }

