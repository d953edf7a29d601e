"""moekgc benchmark: training and ranking throughput at desk and medium scale.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from src/.
Each run generates its inputs from --seed in a fresh process (gen.py), then
times the public entry points in this process, one caller in a closed loop:

* set-up: ``cli.load_config`` + ``cli.load_data`` (+ ``trainer.load_checkpoint``
  on eval-medium), repeated, median reported as setup_s;
* training: ``trainer.train`` (train-* workloads; eval-medium reports the
  train() call that wrote its checkpoint);
* ranking: ``trainer.evaluate(..., mode="filtered")`` on the test split.

The workload's main call (train on train-*, evaluate on eval-medium) is
repeated while another call still fits in --seconds; it runs at least once.
Times are paced: wall time less the host-speed gauge's own ticks, scaled
to the gauge's reference speed (pace.py); raw times go to the record.
Outputs are checked: finite losses, the eval-report key contract, and
per-query ranks against a brute-force oracle.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same pass
untraced and then traced (spans from layers.py), checks that both give
bit-identical results, and prints the per-layer metrics plus the tracing
overhead.  The last stdout line is one JSON object; the lines above it
name each metric with its unit.  Spans and a full record go to
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback

# BLAS threads are pinned before numpy loads; one thread keeps GEMM timings
# from stalling on a core another process holds, and the pin also fixes the
# GEMM summation order, which final_loss depends on bit for bit
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import gen  # noqa: E402
import layers  # noqa: E402
from checks import captured_ranks, check_report, compare_ranks, known_answers, oracle_ranks  # noqa: E402
from pace import Pace  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = gen.ROOT
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# a desk set-up takes milliseconds: enough calls for the gauge to tick
SETUP_REPS = {"train-desk": 101, "train-medium": 3, "eval-medium": 3}
# evaluate calls per pass; eval-medium repeats while the budget allows.
# A desk call takes milliseconds, so many calls make a steady figure.
EVAL_CALLS = {"train-desk": 400, "train-medium": 1}
# train-medium ranks part of the test split: the epoch is its main cost
MEDIUM_EVAL_TRIPLES = 96
ORACLE_TRIPLES = 8

# printed with their unit but not bounded: final_loss and test_mrr vary
# across seeds by more than any bound could allow, and failures are carried
# by the result's attempted/failed counts
REPORTED = ({"name": "final_loss", "unit": "loss", "better": "lower"},
            {"name": "test_mrr", "unit": "mrr", "better": "higher"},
            {"name": "ops_failed_frac", "unit": "frac", "better": "lower"})


class Run:
    """One workload pass over generated inputs; tallies operations."""

    def __init__(self, workload: str, work: str, seconds: float):
        from moekgc import cli, trainer

        self.cli, self.trainer = cli, trainer
        self.workload, self.work, self.seconds = workload, work, seconds
        self.attempted = 0
        self.failures: list = []
        self.fit = None
        self.evaluated = None  # (kg, model, train config) of the last pass
        if workload == "eval-medium":
            with open(os.path.join(work, gen.FIT_REPORT_NAME), encoding="utf-8") as fh:
                self.fit = json.load(fh)
            self.attempted += self.fit["steps"]
            self._check_losses(self.fit["history"])

    def _setup(self):
        cli, trainer = self.cli, self.trainer
        with gen.working_dir(self.work):
            cfg = cli.load_config(gen.CONFIG_NAME)
            kg, tables = cli.load_data(cfg)
            model = None
            if self.workload == "eval-medium":
                model, _ = trainer.load_checkpoint(gen.CHECKPOINT_NAME, tables, kg)
        return cfg, kg, tables, model

    def _check_losses(self, history):
        bad = [r["epoch"] for r in history if not math.isfinite(r["loss"])]
        self.failures += [f"epoch {e}: loss is not finite" for e in bad]

    def _timed(self, fn, reps=None):
        """Call fn reps times, or while another call fits in the budget (at
        least once) when reps is None.  Returns the last result and the
        seconds of each call, paced (see pace.py) and raw."""
        busy, result = [], None
        with Pace() as pace:
            while True:
                result = None  # let the previous call's output go first
                result, seconds = pace.call(fn)
                busy.append(seconds)
                if len(busy) == reps or (reps is None and sum(busy) + busy[-1] > self.seconds):
                    break
        return result, {"paced": [pace.scale(b) for b in busy], "busy": busy,
                        "gauge_ticks": len(pace.samples)}

    def measure(self) -> dict:
        """Set-up, training and ranking with every figure of the pass."""
        trainer = self.trainer
        (cfg, kg, tables, model), timing = self._timed(self._setup, SETUP_REPS[self.workload])
        model_cfg, train_cfg, sampling_cfg = self.cli.section_configs(cfg)
        out = {"setup_s": statistics.median(timing["paced"]), "setup_timing": timing}

        if self.workload == "eval-medium":
            out["train_pos_per_s"] = self.fit["positives"] / self.fit["train_s"]
            out["train_pos_per_busy_s"] = self.fit["positives"] / self.fit["busy_s"]
            history = self.fit["history"]
        else:
            result, timing = self._timed(
                lambda: trainer.train(kg, tables, model_cfg, train_cfg, sampling_cfg))
            model, history = result.model, result.history
            calls = len(timing["busy"])
            steps_per_epoch = -(-len(kg.train) // train_cfg.batch_size)
            self.attempted += calls * len(history) * steps_per_epoch
            positives = calls * len(kg.train) * len(history)
            out["train_pos_per_s"] = positives / sum(timing["paced"])
            out["train_pos_per_busy_s"] = positives / sum(timing["busy"])
            out["train_timing"] = timing
        self._check_losses(history)
        out["final_loss"] = history[-1]["loss"]
        out["history"] = history

        eval_kg = kg
        if self.workload == "train-medium":
            eval_kg = dataclasses.replace(kg, test=kg.test[:MEDIUM_EVAL_TRIPLES])
        report, timing = self._timed(
            lambda: trainer.evaluate(model, eval_kg, "test", "filtered",
                                     mi_ref_batch=train_cfg.mi_ref_batch),
            EVAL_CALLS.get(self.workload))
        queries = len(timing["busy"]) * report["queries"]
        self.attempted += queries
        self.failures += check_report(report, "test", "filtered", 2 * len(eval_kg.test))
        out["eval_queries_per_s"] = queries / sum(timing["paced"])
        out["eval_queries_per_busy_s"] = queries / sum(timing["busy"])
        out["eval_timing"] = timing
        out["report"] = report
        out["test_mrr"] = report["mrr"]
        self.evaluated = (kg, model, train_cfg)
        return out

    def check_oracle(self):
        """Per-query filtered ranks and MRR on a fixed subset vs the oracle."""
        trainer = self.trainer
        from moekgc.scoring import score_candidates

        kg, model, train_cfg = self.evaluated
        # both sides filter by the triples of this cut-down graph
        head = dataclasses.replace(kg, test=kg.test[:ORACLE_TRIPLES])
        with captured_ranks(trainer) as got:
            report = trainer.evaluate(model, head, "test", "filtered",
                                      mi_ref_batch=train_cfg.mi_ref_batch)
        emb = model.all_joint_embeddings(trainer.mi_context_ids(head, train_cfg.mi_ref_batch))
        theta = model.relation_phases.data.astype("float64")
        want = oracle_ranks(score_candidates, emb, theta, model.cfg.norm, head.test,
                            known_answers(head))
        if got is None:
            print("perfbench: no trainer._mean_rank; ranks compared through the report only",
                  file=sys.stderr)
        self.attempted += len(want)
        self.failures += compare_ranks(got, want, report)


def traced_pass(run: Run) -> tuple:
    tracer = Tracer()
    with tracer:
        layers.install(tracer)
        with tracer.span("bench.pass"):
            figures = run.measure()
    return figures, layers.per_layer(tracer, 0), tracer


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip() for line in _lines("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_active": _openblas_threads(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def _lines(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError:
        return []


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    paths = {line.split()[-1] for line in _lines("/proc/self/maps") if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def metric_block(values: dict, table) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table}


def print_metrics(workload: str, values: dict, table):
    for m in table:
        print(f"{workload} {m['name']} = {values[m['name']]!r} {m['unit']} ({m['better']} is better)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="moekgc training and ranking benchmark")
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "moekgc", "__init__.py")):
        print(f"perfbench: no moekgc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import moekgc

    if not os.path.abspath(moekgc.__file__).startswith(SRC + os.sep):
        print(f"perfbench: moekgc imported from {moekgc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # the metric names, units and directions are those BENCHMARK.json lists
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    tag = f"{args.workload}-seed{args.seed}"
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(OUT, exist_ok=True)
    run = None
    try:
        subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "gen.py"),
                        "--workload", args.workload, "--seed", str(args.seed), "--out", work],
                       check=True, stdout=subprocess.DEVNULL, timeout=150)
        run = Run(args.workload, work, args.seconds)
        figures = run.measure()
        record = {"env": environment(), "workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "untraced": figures}
        if args.trace:
            traced, values, tracer = traced_pass(run)
            rate = "eval_queries_per_s" if args.workload == "eval-medium" else "train_pos_per_s"
            values["trace.overhead_frac"] = 1.0 - traced[rate] / figures[rate]
            if traced["history"] != figures["history"]:
                run.failures.append("traced and untraced loss histories differ")
            if traced["report"] != figures["report"]:
                run.failures.append("traced and untraced eval reports differ")
            record["traced"], record["per_layer"] = traced, values
            record["unwrapped"] = tracer.missing
            for name in tracer.missing:
                print(f"perfbench: {name} not found; its layer reads 0", file=sys.stderr)
            tracer.dump(os.path.join(OUT, f"{tag}.spans.jsonl"))
        run.check_oracle()
    except Exception:
        # the program raised: report the run as failed, with no metrics
        traceback.print_exc()
        attempted = max(run.attempted if run else 0, 1)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    figures["ops_failed_frac"] = len(run.failures) / run.attempted
    record["failures"] = run.failures
    with open(os.path.join(OUT, f"{tag}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for failure in run.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print("env " + json.dumps(record["env"], sort_keys=True))
    print_metrics(args.workload, figures, spec["end_to_end"] + list(REPORTED))
    if args.trace:
        print_metrics(args.workload, values, spec["per_layer"])
        metrics = metric_block(values, spec["per_layer"])
    else:
        metrics = metric_block(figures, spec["end_to_end"])
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
