"""The benchmark's stages (perfbench/stages.py) run against the program.

The benchmark drives ttn through its public API: it builds IndexEntry lists,
reads `index.entries` and the fields of each entry, trains, saves and loads
models and checkpoints. This test plays every stage at a tiny size, the way
perfbench/run.py does (set-up, ten rounds, then the checks), so that an API
change which would break the benchmark fails here first. Model quality is
not under test: the floors are zero and the benchmark keeps its own.
"""

from __future__ import annotations

import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def stages(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)  # stages.py imports calibrate from its own directory
    return importlib.import_module("stages")


def test_benchmark_stages_run_and_check_clean(stages, tmp_path):
    workdir = str(tmp_path)
    played = [
        stages.LdaStage(
            stages.LdaSize(train_docs=80, chains=1, sweeps=4, heldout_docs=20, purity_floor=0.0), 1, workdir
        ),
        stages.NetStage(
            stages.NetSize(docs_per_topic=10, heldout_per_topic=2, iters_per_round=1, embeds=10,
                           svm_rounds=(9,), map_floor=0.0),
            1, workdir,
        ),
        stages.RetrievalStage(
            stages.RetrievalSize(entries=200, queries=20, write_rounds=(1, 6), write_repeats=1), 1, workdir
        ),
    ]
    rec = stages.Recorder()
    for stage in played:
        stage.setup()
    for r in range(stages.ROUNDS):
        for stage in played:
            stage.round(rec, r)  # a failing operation raises OpFailed with its cause
    checks_before = rec.attempted
    for stage in played:
        stage.check(rec)
    assert rec.failed == 0, rec.errors
    # every stage reached its checks: lda 2, net 6, retrieval 1 round trip + 4 rankings
    assert rec.attempted - checks_before == 13
    assert len(played[2].loaded.entries) == 200
