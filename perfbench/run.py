#!/usr/bin/env python3
"""ttn benchmark: one seeded workload per run, end-to-end or layer by layer.

    python3 perfbench/run.py --workload topics-k40 --seed 1 --seconds 20 --trace 0

Run from the repository root. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer metrics. End-to-end times are normalized by a reference kernel
timed through the same run (calibrate.py); the measured values are printed
above the JSON line. See perfbench/README.md for every metric's definition.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS and ttn worker threads before numpy loads. One thread keeps runs
# steady on a shared machine and is no larger than nproc anywhere.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "TTN_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

from calibrate import REF_NOMINAL_S, normalizer, reference  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("topics-k40", "net-train", "retrieval-20k")
SETUP_REPEATS = 3
OUT_DIR = ".bench_out"


def _load_program():
    """Import ttn from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "ttn", "__init__.py")):
        sys.exit(f"error: no ttn sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import ttn

    if os.path.dirname(os.path.abspath(ttn.__file__)) != os.path.join(SRC, "ttn"):
        sys.exit(f"error: imported ttn from {ttn.__file__}, not from {SRC}")


def _stages(workload, seed, workdir):
    """The workload's subject stage at full size, the other two small, subject last."""
    from stages import LdaSize, LdaStage, NetSize, NetStage, RetrievalSize, RetrievalStage

    lda_size = {"full": LdaSize(train_docs=400, chains=2, sweeps=30, heldout_docs=100, purity_floor=0.6),
                "small": LdaSize(train_docs=80, chains=5, sweeps=12, heldout_docs=50, purity_floor=0.5)}
    net_size = {"full": NetSize(docs_per_topic=200, heldout_per_topic=20, iters_per_round=3,
                                embeds=250, svm_rounds=(1, 3, 5, 7, 9), map_floor=0.9),
                "small": NetSize(docs_per_topic=20, heldout_per_topic=10, iters_per_round=1,
                                 embeds=50, svm_rounds=tuple(range(10)), map_floor=0.6)}
    ret_size = {"full": RetrievalSize(entries=20_000, queries=100, write_rounds=(1, 3, 6, 8), write_repeats=1),
                "small": RetrievalSize(entries=1_000, queries=150, write_rounds=tuple(range(10)), write_repeats=2)}
    subject = {"topics-k40": "lda", "net-train": "net", "retrieval-20k": "retrieval"}[workload]

    def size(name, table):
        return table["full" if name == subject else "small"]

    stages = [LdaStage(size("lda", lda_size), seed, workdir),
              NetStage(size("net", net_size), seed, workdir),
              RetrievalStage(size("retrieval", ret_size), seed, workdir)]
    return sorted(stages, key=lambda s: s.name == subject)


def _empty(workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)


def _setup(workload, seed, workdir):
    stages = _stages(workload, seed, workdir)
    for stage in stages:
        stage.setup()
    return stages


def _run_pass(stages, seconds, rec, tracer=None):
    """Round r of every stage before round r + 1 of any; then extra rounds of the
    subject (the last stage) until `seconds` have passed; then the checks.
    The reference kernel runs before each stage's share of a round and at the
    round's end, so its samples spread over the pass as the operations do.
    With a tracer, even rounds run traced and odd rounds untraced."""
    from stages import ROUNDS, OpFailed

    # Objects alive now leave the collector's view, so collections in the
    # timed phase scan only what the timed operations allocate.
    gc.collect()
    gc.freeze()
    deadline = time.perf_counter() + seconds
    active = list(stages)
    r = 0
    while active and (r < ROUNDS or (stages[-1] in active and time.perf_counter() < deadline)):
        uninstall = tracer.install() if tracer is not None and r % 2 == 0 else None
        rec.tracer = tracer if uninstall else None
        try:
            for stage in [s for s in active if r < ROUNDS or s is stages[-1]]:
                rec.calibrate()
                try:
                    stage.round(rec, r) if r < ROUNDS else stage.extra(rec, r - ROUNDS)
                except OpFailed:
                    active.remove(stage)  # counted by the recorder; the other stages go on
        finally:
            if uninstall:
                uninstall()
            rec.tracer = None
        rec.calibrate()
        r += 1
    for stage in stages:
        stage.check(rec)


def _end_to_end(rec, setup_seconds, setup_scale, normalized=True):
    queries = rec.seconds("query", normalized)
    # deciles with linear interpolation between order statistics
    deciles = statistics.quantiles(queries, n=10, method="inclusive") if len(queries) > 1 else [0.0] * 9
    return {
        "setup_s": (statistics.median(setup_seconds) * (setup_scale if normalized else 1.0), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": (1.0 - rec.failed / rec.attempted, "ratio"),
        "lda_train_tokens_per_s": (rec.rate("lda_train", normalized), "1/s"),
        "lda_infer_docs_per_s": (rec.rate("lda_infer", normalized), "1/s"),
        "net_train_images_per_s": (rec.rate("net_train", normalized), "1/s"),
        "embed_images_per_s": (rec.rate("embed", normalized), "1/s"),
        "svm_eval_s": (rec.mean_seconds("svm_eval", normalized), "s"),
        "query_p50_ms": (deciles[4] * 1e3, "ms"),
        "query_p90_ms": (deciles[8] * 1e3, "ms"),
        "index_write_s": (rec.mean_seconds("index_write", normalized), "s"),
        "index_load_s": (rec.mean_seconds("index_load", normalized), "s"),
    }


def _timed_setups(workload, seed, workdir):
    """SETUP_REPEATS set-ups with the reference kernel run before the first and
    after each: the last set-up's stages, the measured seconds of each, and
    the reference samples."""
    refs, seconds = [reference()], []
    for _ in range(SETUP_REPEATS):
        _empty(workdir)  # removing the last set-up's files is not part of a set-up
        t0 = time.perf_counter()
        stages = _setup(workload, seed, workdir)
        seconds.append(time.perf_counter() - t0)
        refs.append(reference())
    return stages, seconds, refs


def _environment(workload, seed, seconds, digest):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "inputs_sha256": digest,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS", "TTN_THREADS")},
        "dtype": "float64",
        "git_commit": _git_commit(),
    }


def _git_commit():
    """HEAD of the checkout read from .git without running git; 'unknown' outside a repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def _trace_run(workload, seed, seconds, workdir, trace_path):
    """Per-layer metrics from one traced set-up and one timed pass whose even
    rounds are traced; then the nn per-layer probe."""
    from nnprobe import probe
    from stages import Recorder
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    _empty(workdir)
    uninstall = tracer.install()
    try:
        stages = _setup(workload, seed, workdir)
    finally:
        uninstall()
    rec = Recorder()
    _run_pass(stages, seconds, rec, tracer)
    tracer.write_jsonl(trace_path)
    metrics = layer_metrics(tracer.spans)
    metrics.update(probe(k=3, seed=seed))
    metrics["bench.trace_overhead_pct"] = (_overhead_pct(rec), "%")
    metrics["bench.spans"] = (len(tracer.spans), "count")
    return stages, rec, metrics


def _overhead_pct(rec):
    """Extra time per work unit of traced operations over untraced ones of the
    same kind in the same pass, weighted by each kind's total work units."""
    base = extra = 0.0
    for ops in rec.ops.values():
        per_unit = {}
        for traced in (True, False):
            chosen = [(s, u) for s, u, t in ops if t == traced]
            if chosen:
                per_unit[traced] = sum(s for s, _ in chosen) / sum(u for _, u in chosen)
        if len(per_unit) == 2:
            units = sum(u for _, u, _ in ops)
            base += units * per_unit[False]
            extra += units * (per_unit[True] - per_unit[False])
    return 100.0 * extra / base if base else 0.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _load_program()
    from stages import Recorder, input_digest

    out = os.path.abspath(OUT_DIR)
    workdir = os.path.join(out, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.trace:
            trace_path = os.path.join(out, f"trace-{args.workload}-{args.seed}.jsonl")
            stages, rec, metrics = _trace_run(args.workload, args.seed, args.seconds, workdir, trace_path)
        else:
            stages, setups, setup_refs = _timed_setups(args.workload, args.seed, workdir)
            rec = Recorder()
            _run_pass(stages, args.seconds, rec)
            # The few samples around the set-ups alone scatter more than the
            # set-up times do; pooled with the timed phase's they track the
            # run's speed.
            setup_scale = normalizer(setup_refs + rec.refs)
            metrics = _end_to_end(rec, setups, setup_scale)
            measured = _end_to_end(rec, setups, setup_scale, normalized=False)
        digest = input_digest(stages)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in rec.errors:
        print(f"error: {err}", file=sys.stderr)
    print("env " + json.dumps(_environment(args.workload, args.seed, args.seconds, digest), sort_keys=True))
    if not args.trace:
        print(f"reference kernel: mean {statistics.fmean(rec.refs) * 1e3:.2f} ms over {len(rec.refs)} runs, "
              f"nominal {REF_NOMINAL_S * 1e3:.2f} ms; measured values before normalization:")
        for name, (value, unit) in sorted(measured.items()):
            print(f"measured {name} {value:.6g} {unit}")
    result = {}
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} {value:.6g} {unit}")
        result[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": rec.failed == 0, "attempted": rec.attempted, "failed": rec.failed,
                      "metrics": result}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
