"""Acceptance checks for the full pipeline, one test per criterion.

Each test prints a single machine-greppable verdict line of the form

    acceptance NN: PASS <details>

before asserting, so a full run (pytest -s tests/test_acceptance.py) yields
one line per criterion. Numeric tolerances are pinned in the assertions.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from gradcheck import gradient_check
from ttn import corpus, evaluate, lda, nn, retrieval, synth
from ttn.cli import main as cli_main


def _verdict(number, ok, detail):
    print(f"acceptance {number:02d}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"acceptance {number:02d}: {detail}"


# ------------------------------------------------------------------ 1: vocabulary filter


def test_acceptance_01_vocabulary_filter_bounds():
    t0 = time.perf_counter()
    word_pool = [
        w
        for block in synth.topic_vocabularies(synth.SynthConfig(n_topics=8, words_per_topic=101))
        for w in block
    ]
    n_docs = 1000
    min_df, max_df_ratio = 20, 0.5
    max_df = int(n_docs * max_df_ratio)
    # spread document frequencies across 1..600 and pin the four boundary values
    df_targets = [min_df - 1, min_df, max_df, max_df + 1]
    df_targets += [1 + (37 * i) % 600 for i in range(len(word_pool) - len(df_targets))]

    rng = np.random.default_rng(42)
    doc_words = [[] for _ in range(n_docs)]
    for word, df in zip(word_pool, df_targets):
        for d in rng.choice(n_docs, size=df, replace=False):
            doc_words[d].append(word)
    docs = [
        corpus.RawDocument(f"doc{i:04d}", " ".join(words)) for i, words in enumerate(doc_words)
    ]

    vocab = corpus.build_vocabulary(docs, min_df=min_df, max_df_ratio=max_df_ratio)
    retained = set(vocab.words)

    recounted = Counter()
    for doc in docs:
        for word in set(corpus.normalize(corpus.tokenize(doc.text))):
            recounted[word] += 1

    mismatches = [
        w for w in recounted if (min_df <= recounted[w] <= max_df) != (w in retained)
    ]
    elapsed = time.perf_counter() - t0

    boundary_ok = (
        word_pool[0] not in retained  # df 19
        and word_pool[1] in retained  # df 20
        and word_pool[2] in retained  # df 500
        and word_pool[3] not in retained  # df 501
    )
    ok = not mismatches and boundary_ok and retained and elapsed < 5.0
    _verdict(
        1,
        ok,
        f"df bounds [{min_df}, {max_df}] exact for all {len(recounted)} words, "
        f"{len(retained)} retained, boundary df 19/20/500/501 correct, {elapsed:.2f}s < 5s",
    )


# ------------------------------------------------------------------ 2-3: planted LDA + perplexity

WORDS8 = ("bbb", "ccc", "fff", "kkk", "mmm", "nnn", "ppp", "rrr")


@pytest.fixture(scope="module")
def planted_lda():
    """20 docs, 20 tokens each, two disjoint 4-word topic blocks."""
    bows = []
    for i in range(20):
        base = 4 * (i % 2)
        bows.append(corpus.BowDocument(f"d{i:02d}", {base + j: 5 for j in range(4)}))
    hyper = lda.LdaHyperparams(
        k=2, alpha=0.1, beta_prior=0.01, n_iters=200, seed=1
    )
    t0 = time.perf_counter()
    model = lda.train(bows, hyper, WORDS8)
    elapsed = time.perf_counter() - t0
    return bows, model, elapsed


def test_acceptance_02_lda_planted_topic_recovery(planted_lda):
    bows, model, elapsed = planted_lda
    block_mass = np.stack([model.phi[:, :4].sum(axis=1), model.phi[:, 4:].sum(axis=1)], axis=1)
    purity = block_mass.max(axis=1).min()  # worst topic's majority-block mass
    topic_of_block = block_mass.argmax(axis=0)  # block -> topic with most of its mass

    hits = sum(
        1
        for i, bow in enumerate(bows)
        if np.argmax(model.doc_thetas[bow.doc_id]) == topic_of_block[i % 2]
    )
    theta_acc = hits / len(bows)

    ok = (
        purity >= 0.9
        and theta_acc >= 0.9
        and topic_of_block[0] != topic_of_block[1]
        and elapsed < 10.0
    )
    _verdict(
        2,
        ok,
        f"topic-word purity {purity:.4f} >= 0.9, theta argmax accuracy "
        f"{theta_acc:.2f} >= 0.9, train {elapsed:.2f}s < 10s",
    )


def test_acceptance_03_perplexity_oracle(planted_lda):
    bows, model, _ = planted_lda
    vocab_size = len(WORDS8)
    uniform = lda.LdaModel(
        vocab_size=vocab_size,
        k=3,
        phi=np.full((3, vocab_size), 1.0 / vocab_size),
        hyper=replace(model.hyper, k=3),
        doc_thetas={},
        words=WORDS8,
    )
    pp_uniform = lda.perplexity(bows, uniform)
    pp_trained = lda.perplexity(bows, model)
    rel_err = abs(pp_uniform - vocab_size) / vocab_size

    ok = rel_err < 1e-9 and pp_trained < pp_uniform
    _verdict(
        3,
        ok,
        f"uniform-phi perplexity {pp_uniform:.12g} == V={vocab_size} "
        f"(rel err {rel_err:.1e} < 1e-9), trained {pp_trained:.3f} < uniform",
    )


# ------------------------------------------------------------------ 4: gradient check


def test_acceptance_04_gradient_check_all_layers():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    cases = {
        "conv": nn.NetSpec(in_shape=(2, 5, 5), layers=(nn.Conv2d(3, 3, 1, 1), nn.Flatten())),
        "conv_strided": nn.NetSpec(in_shape=(2, 6, 6), layers=(nn.Conv2d(2, 3, 2, 1), nn.Flatten())),
        "relu": nn.NetSpec(in_shape=(1, 1, 6), layers=(nn.Flatten(), nn.Dense(5), nn.Relu(), nn.Dense(4))),
        "maxpool": nn.NetSpec(in_shape=(2, 4, 4), layers=(nn.Conv2d(2, 3, 1, 1), nn.MaxPool2d(2), nn.Flatten())),
        "maxpool_overlap": nn.NetSpec(in_shape=(1, 5, 5), layers=(nn.Conv2d(2, 3, 1, 1), nn.MaxPool2d(3, 2), nn.Flatten())),
        "dense": nn.NetSpec(in_shape=(1, 1, 4), layers=(nn.Flatten(), nn.Dense(3))),
        "composed_tiny": nn.tiny_topic_net(4, in_shape=(3, 32, 32)),
    }
    worst = {}
    for label, spec in cases.items():
        params = nn.init_params(spec, seed=7)
        batch = rng.standard_normal((2, *spec.in_shape))
        targets = rng.uniform(0.05, 0.95, size=(2, spec.out_dim))
        worst[label] = gradient_check(
            spec, params, batch, targets, epsilon=1e-5, max_checks_per_tensor=40
        )
    elapsed = time.perf_counter() - t0

    worst_label = max(worst, key=worst.get)
    ok = all(err < 1e-4 for err in worst.values()) and elapsed < 60.0
    _verdict(
        4,
        ok,
        f"max rel grad error {worst[worst_label]:.2e} ({worst_label}) < 1e-4 "
        f"across {len(cases)} nets, {elapsed:.1f}s < 60s",
    )


# ------------------------------------------------------------------ 5: optimizer schedule


def test_acceptance_05_optimizer_schedule_pins():
    cfg = nn.SgdConfig()
    checks = [
        cfg.base_lr == 0.001,
        cfg.momentum == 0.9,
        cfg.batch_size == 64,
        cfg.lr_decay == 0.1,
        cfg.lr_step == 50_000,
        nn.learning_rate(cfg, 0) == 0.001,
        nn.learning_rate(cfg, 50_000) == 1e-4,
        nn.learning_rate(cfg, 100_000) == pytest.approx(1e-5, rel=1e-12),
        nn.learning_rate(cfg, 49_999) == 0.001,
    ]
    ok = all(checks)
    _verdict(
        5,
        ok,
        "lr(0)=0.001, lr(50000)=1e-4, lr(100000)=1e-5 (within 1 ulp), "
        "momentum 0.9, batch 64",
    )


# ------------------------------------------------------------------ 6: end-to-end pipeline


def test_acceptance_06_end_to_end_self_supervision(pipeline_run):
    run = pipeline_run
    n_pairs = sum(len(d.image_paths) for d in run.docs)

    losses = [loss for _, _, loss in run.history]
    initial = losses[0]
    final = float(np.mean(losses[-10:]))
    loss_ok = final < 0.5 * initial

    # topic indices learned by the model are an arbitrary permutation of the
    # planted ones; recover the mapping by majority vote over training docs
    votes = {}
    for doc_id, planted in run.manifest["doc_labels"].items():
        top = int(np.argmax(run.model.doc_thetas[doc_id]))
        votes.setdefault(planted, Counter())[top] += 1
    topic_of_planted = {p: c.most_common(1)[0][0] for p, c in votes.items()}

    hits = sum(
        1
        for path, theta in run.heldout_thetas.items()
        if int(np.argmax(theta)) == topic_of_planted[run.heldout_labels[path]]
    )
    heldout_acc = hits / len(run.heldout_thetas)

    query_topic = {q["word"]: q["topic"] for q in run.manifest["queries"]}
    retrieval_map = evaluate.mean_ap(
        evaluate.average_precision(
            [-divergence for _, divergence in ranked],
            [run.heldout_labels[item_id] == query_topic[word] for item_id, _ in ranked],
        )
        for word, ranked in run.text_rankings.items()
    )

    elapsed = sum(run.timings.values())
    ok = (
        n_pairs == 600
        and len(run.text_rankings) == 30
        and loss_ok
        and heldout_acc >= 0.9
        and retrieval_map >= 0.9
        and elapsed < 600.0
    )
    _verdict(
        6,
        ok,
        f"{n_pairs} pairs, loss {initial:.3f} -> {final:.3f} (< 0.5x), "
        f"held-out argmax accuracy {heldout_acc:.3f} >= 0.9, text-query MAP "
        f"{retrieval_map:.3f} >= 0.9 over {len(run.text_rankings)} queries, "
        f"{elapsed:.0f}s < 600s",
    )


# ------------------------------------------------------------------ 7: KL axioms + self-retrieval


def test_acceptance_07_kl_axioms_and_self_retrieval():
    rng = np.random.default_rng(123)
    min_kl = np.inf
    max_self = 0.0
    for i in range(1000):
        dim = 2 + i % 15
        p = rng.dirichlet(np.ones(dim))
        q = rng.dirichlet(np.ones(dim))
        max_self = max(max_self, abs(retrieval.kl_divergence(p, p)))
        min_kl = min(min_kl, retrieval.kl_divergence(p, q))

    entries = [
        retrieval.IndexEntry(item_id=f"e{i:03d}", modality="image", embedding=rng.dirichlet(np.ones(6)))
        for i in range(50)
    ]
    index = retrieval.build_index(entries)
    rank1_hits = sum(
        1
        for entry in entries
        if retrieval.query(index, entry.embedding, "image", top_n=1)[0][0] == entry.item_id
    )

    ok = max_self == 0.0 and min_kl >= 0.0 and rank1_hits == len(entries)
    _verdict(
        7,
        ok,
        f"kl(p,p)=0 exactly and kl(p,q)>=0 (min {min_kl:.3e}) over 1000 simplex "
        f"pairs, self-retrieval rank-1 for {rank1_hits}/{len(entries)} entries",
    )


# ------------------------------------------------------------------ 8: AP oracle


def _loop_ap(scores, relevance):
    """Independent brute force: precision at each relevant rank, explicit loop."""
    order = np.argsort(-np.asarray(scores), kind="stable")
    hits = 0
    total = 0.0
    for rank, idx in enumerate(order, start=1):
        if relevance[idx]:
            hits += 1
            total += hits / rank
    return total / hits


def test_acceptance_08_average_precision_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        scores = rng.standard_normal(n)
        if rng.random() < 0.5:
            scores = np.round(scores, 1)  # force tied scores
        relevance = rng.random(n) < 0.3
        if not relevance.any():
            relevance[int(rng.integers(n))] = True
        got = evaluate.average_precision(scores, relevance)
        expected = _loop_ap(scores, relevance)
        worst = max(worst, abs(got - expected))
    ok = worst <= 1e-12
    _verdict(8, ok, f"max |AP - brute force| = {worst:.2e} <= 1e-12 over 1000 rankings")


# ------------------------------------------------------------------ 9: SVM separability


def _blob(rng, center, n, sigma=0.5):
    return rng.normal(0.0, sigma, size=(n, len(center))) + np.asarray(center, dtype=float)


def test_acceptance_09_svm_separability():
    rng = np.random.default_rng(11)

    # two separable classes
    two = [
        evaluate.LabeledFeature(f"p{i}", vec, frozenset({"pos"}))
        for i, vec in enumerate(_blob(rng, [3.0] * 5, 30))
    ] + [
        evaluate.LabeledFeature(f"n{i}", vec, frozenset({"neg"}))
        for i, vec in enumerate(_blob(rng, [-3.0] * 5, 30))
    ]
    svm = evaluate.svm_train(two, "pos", lam=1e-3, epochs=30, seed=0)
    correct = sum(
        1
        for item in two
        if (evaluate.svm_decision(svm, item.feature) > 0) == ("pos" in item.labels)
    )
    train_acc = correct / len(two)

    # four separable classes, held-out evaluation
    centers = {
        "a": [4, 4, 0, 0, 0, 0, 0, 0],
        "b": [-4, 4, 0, 0, 0, 0, 0, 0],
        "c": [0, 0, 4, -4, 0, 0, 0, 0],
        "d": [0, 0, 0, 0, -4, -4, 0, 0],
    }
    train_data, val_data = [], []
    for cls, center in centers.items():
        for i, vec in enumerate(_blob(rng, center, 60)):
            item = evaluate.LabeledFeature(f"{cls}{i:02d}", vec, frozenset({cls}))
            (train_data if i < 40 else val_data).append(item)
    svms = evaluate.train_one_vs_rest(train_data, sorted(centers), lam=1e-3, epochs=20, seed=0)
    _, map_value = evaluate.classification_map(svms, val_data)

    ok = train_acc == 1.0 and map_value >= 0.95
    _verdict(
        9,
        ok,
        f"2-class training accuracy {train_acc:.0%}, 4-class one-vs-rest held-out "
        f"mAP {map_value:.3f} >= 0.95",
    )


# ------------------------------------------------------------------ 10: determinism


def test_acceptance_10_determinism(pipeline_run, pipeline_rerun):
    a, b = pipeline_run, pipeline_rerun
    model_same = a.model_bytes == b.model_bytes
    ckpt_same = a.checkpoint_bytes == b.checkpoint_bytes
    rankings_same = a.text_rankings == b.text_rankings
    thetas_same = set(a.heldout_thetas) == set(b.heldout_thetas) and all(
        np.array_equal(a.heldout_thetas[key], b.heldout_thetas[key])
        for key in a.heldout_thetas
    )
    ok = model_same and ckpt_same and rankings_same and thetas_same
    _verdict(
        10,
        ok,
        f"two seeded runs: model bytes identical={model_same}, checkpoint bytes "
        f"identical={ckpt_same}, rankings identical={rankings_same}, held-out "
        f"embeddings identical={thetas_same}",
    )


# ------------------------------------------------------------------ 11: topic-count sweep


def test_acceptance_11_topic_sweep_selects_planted_k(pipeline_run, capsys):
    code = cli_main([
        "eval", "sweep", pipeline_run.manifest["corpus"],
        "--ks", "2,3,5,8",
        "--labels", os.path.join(pipeline_run.data_dir, "labels.csv"),
        "--alpha", "0.1", "--iters", "80",
        "--infer-iters", "40", "--seed", "0", "--min-df", "5",
    ])
    lines = capsys.readouterr().out.splitlines()
    scores = dict(line.split(",") for line in lines[1:])
    best_k = scores.pop("best_k", None)
    ok = code == 0 and best_k == "3" and float(scores["3"]) > float(scores["2"])
    _verdict(
        11,
        ok,
        f"eval sweep over K in (2,3,5,8) chose K={best_k} with purities "
        + ", ".join(f"K={k}: {float(v):.3f}" for k, v in sorted(scores.items())),
    )
