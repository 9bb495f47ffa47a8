"""Shared fixtures: a planted synthetic dataset and a full pipeline run.

The pipeline fixture is session-scoped because it trains a real (small) net;
acceptance and CLI tests reuse its artifacts instead of retraining.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from ttn import corpus as corpus_mod
from ttn import lda as lda_mod
from ttn import nn, retrieval, synth, textnet
from ttn.fileio import decode_image

SYNTH_CFG = synth.SynthConfig(
    n_topics=3,
    docs_per_topic=200,
    tokens_per_doc=30,
    words_per_topic=30,
    images_per_doc=1,
    held_out_per_topic=20,
    image_size=40,
    seed=7,
)

LDA_HYPER = lda_mod.LdaHyperparams(
    k=3, alpha=0.1, beta_prior=0.01, n_iters=120, infer_iters=40, seed=11
)

SGD_CFG = nn.SgdConfig(base_lr=0.001, batch_size=64, max_iters=2000)
AUG_CFG = textnet.AugmentConfig(crop_size=32, mirror_prob=0.5, seed=5)
NET_SEED = 5


@dataclass
class PipelineRun:
    """Everything one end-to-end run produced, plus wall times per stage."""

    data_dir: str
    manifest: dict
    docs: list
    vocab: corpus_mod.Vocabulary
    bows: list
    model: lda_mod.LdaModel
    model_bytes: bytes
    checkpoint: textnet.Checkpoint
    checkpoint_bytes: bytes
    history: list
    heldout_thetas: dict  # image path -> predicted topic distribution
    heldout_labels: dict  # image path -> planted topic id
    index: retrieval.RetrievalIndex
    text_rankings: dict  # query word -> [(item_id, divergence)]
    timings: dict


def _run_pipeline(data_dir: str) -> PipelineRun:
    timings = {}
    t0 = time.perf_counter()
    manifest = synth.write_dataset(SYNTH_CFG, data_dir)
    timings["synth"] = time.perf_counter() - t0

    docs = corpus_mod.load_corpus(manifest["corpus"])
    t0 = time.perf_counter()
    vocab = corpus_mod.build_vocabulary(docs, min_df=5, max_df_ratio=0.5)
    bows = [corpus_mod.doc_to_bow(doc, vocab) for doc in docs]
    model = lda_mod.train(bows, LDA_HYPER, vocab.words)
    timings["lda"] = time.perf_counter() - t0

    model_path = os.path.join(data_dir, "model.lda")
    lda_mod.save_model(model, model_path)
    with open(model_path, "rb") as fh:
        model_bytes = fh.read()

    t0 = time.perf_counter()
    pairs = textnet.make_pairs(docs, model, data_dir)
    spec = nn.tiny_topic_net(model.k, in_shape=(3, AUG_CFG.crop_size, AUG_CFG.crop_size))
    checkpoint, history = textnet.train(pairs, spec, SGD_CFG, AUG_CFG, seed=NET_SEED)
    timings["net"] = time.perf_counter() - t0

    ckpt_path = os.path.join(data_dir, "final.ckpt")
    textnet.save_checkpoint(checkpoint, ckpt_path)
    with open(ckpt_path, "rb") as fh:
        checkpoint_bytes = fh.read()

    t0 = time.perf_counter()
    heldout_thetas = {}
    heldout_labels = {}
    entries = []
    for item in sorted(manifest["held_out"], key=lambda e: e["path"]):
        rel, topic = item["path"], item["topic"]
        image = decode_image(os.path.join(data_dir, rel))
        theta = textnet.predict_topics(checkpoint, image)
        heldout_thetas[rel] = theta
        heldout_labels[rel] = topic
        entries.append(retrieval.IndexEntry(item_id=rel, modality="image", embedding=theta))
    index = retrieval.build_index(entries)

    text_rankings = {}
    for item in manifest["queries"]:
        theta = retrieval.embed_text(item["word"], model.word_index, model)
        text_rankings[item["word"]] = retrieval.query(index, theta, "image", top_n=len(entries))
    timings["retrieval"] = time.perf_counter() - t0

    return PipelineRun(
        data_dir=data_dir,
        manifest=manifest,
        docs=docs,
        vocab=vocab,
        bows=bows,
        model=model,
        model_bytes=model_bytes,
        checkpoint=checkpoint,
        checkpoint_bytes=checkpoint_bytes,
        history=history,
        heldout_thetas=heldout_thetas,
        heldout_labels=heldout_labels,
        index=index,
        text_rankings=text_rankings,
        timings=timings,
    )


@pytest.fixture(scope="session")
def synth_dataset(tmp_path_factory):
    """A small planted dataset on disk (separate from the pipeline run's copy)."""
    out = tmp_path_factory.mktemp("synthdata")
    cfg = synth.SynthConfig(
        n_topics=2,
        docs_per_topic=15,
        tokens_per_doc=20,
        words_per_topic=12,
        held_out_per_topic=2,
        seed=3,
    )
    manifest = synth.write_dataset(cfg, str(out))
    return cfg, manifest


@pytest.fixture(scope="session")
def pipeline_run(tmp_path_factory):
    """First full pipeline run; the workhorse for end-to-end assertions."""
    return _run_pipeline(str(tmp_path_factory.mktemp("pipeline_a")))


@pytest.fixture(scope="session")
def pipeline_rerun(tmp_path_factory):
    """Second, independent run with identical seeds, for determinism checks."""
    return _run_pipeline(str(tmp_path_factory.mktemp("pipeline_b")))


def map_of_rankings(rankings, relevant_fn):
    """Mean AP over ranked lists, where relevant_fn(query, item_id) marks hits."""
    aps = []
    for querykey, ranked in rankings.items():
        hits = 0
        precisions = []
        for rank, (item_id, _) in enumerate(ranked, start=1):
            if relevant_fn(querykey, item_id):
                hits += 1
                precisions.append(hits / rank)
        if precisions:
            aps.append(float(np.mean(precisions)))
        else:
            aps.append(0.0)
    return float(np.mean(aps))
