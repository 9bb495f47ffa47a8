#!/usr/bin/env python3
"""Run the whole text-to-image pipeline on a generated planted dataset.

Generates a corpus of topic-coded documents with paired color/shape-coded
images, trains the topic model and the image network, builds a cross-modal
index, and reports held-out retrieval quality. It also scores fc7 features of
the trained net and of its seeded initialization with linear SVMs on the
held-out images. Every stage goes through the command-line interface, so this
doubles as an executable smoke test.

    python3 scripts/run_synthetic_pipeline.py --workdir /tmp/ttn-demo
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ttn.cli import main as ttn  # noqa: E402
from ttn.evaluate import average_precision, load_labels, mean_ap  # noqa: E402


def run(argv, label):
    t0 = time.perf_counter()
    code = ttn(argv)
    if code != 0:
        raise SystemExit(f"stage {label!r} failed with exit code {code}")
    print(f"[{label}] ok ({time.perf_counter() - t0:.1f}s)")


def svm_map(ckpt, data, heldout_corpus, work, label):
    """mAP of one-vs-rest SVMs trained on the corpus images' fc7 features and
    scored on the held-out images'."""
    train_feats = os.path.join(work, f"{label}_train.bin")
    val_feats = os.path.join(work, f"{label}_heldout.bin")
    report = os.path.join(work, f"{label}_svm.csv")
    run(["net", "features", ckpt, os.path.join(data, "corpus.jsonl"), "--layer", "fc7",
         "-o", train_feats], f"{label} features")
    run(["net", "features", ckpt, heldout_corpus, "--image-root", data, "--layer", "fc7",
         "-o", val_feats], f"{label} held-out features")
    run(["eval", "svm", "--features", train_feats, "--labels", os.path.join(data, "image_labels.csv"),
         "--val-features", val_feats, "--lambda", "1e-4", "-o", report], f"{label} svm")
    with open(report, encoding="utf-8") as fh:
        rows = dict(line.rstrip("\n").split(",") for line in fh)
    return float(rows["mAP"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workdir", required=True, help="directory for data and artifacts")
    ap.add_argument("--topics", type=int, default=3)
    ap.add_argument("--docs-per-topic", type=int, default=200)
    ap.add_argument("--lda-iters", type=int, default=120)
    ap.add_argument("--net-iters", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    work = os.path.abspath(args.workdir)
    data = os.path.join(work, "data")
    model = os.path.join(work, "model.lda")
    netdir = os.path.join(work, "net")
    initdir = os.path.join(work, "net_init")
    index = os.path.join(work, "index.bin")
    heldout_corpus = os.path.join(work, "heldout.jsonl")

    run(["synth", "-o", data, "--topics", str(args.topics),
         "--docs-per-topic", str(args.docs_per_topic), "--seed", str(args.seed)], "synth")
    run(["vocab", "build", os.path.join(data, "corpus.jsonl"),
         "-o", os.path.join(work, "vocab.json"), "--min-df", "5"], "vocab")
    run(["lda", "train", os.path.join(data, "corpus.jsonl"), os.path.join(work, "vocab.json"),
         "-o", model, "-k", str(args.topics), "--alpha", "0.1",
         "--iters", str(args.lda_iters), "--seed", str(args.seed)], "lda train")
    run(["lda", "topics", model, "--top-n", "5"], "lda topics")
    run(["net", "train", os.path.join(data, "corpus.jsonl"), model, "-o", netdir,
         "--iters", str(args.net_iters), "--seed", str(args.seed)], "net train")
    run(["net", "train", os.path.join(data, "corpus.jsonl"), model, "-o", initdir,
         "--iters", "0", "--seed", str(args.seed)], "net init")
    labels = load_labels(os.path.join(data, "image_labels.csv"))
    heldout_topic = {path: int(topic) for path, (topic,) in labels.items() if path.startswith("heldout/")}
    # each held-out image as a one-image document, for `index build` and `net features`
    with open(heldout_corpus, "w", encoding="utf-8") as fh:
        for path in sorted(heldout_topic):
            fh.write(json.dumps({"id": path, "text": "", "images": [path]}) + "\n")
    run(["index", "build", heldout_corpus, "-o", index, "--modality", "image",
         "--ckpt", os.path.join(netdir, "final.ckpt"), "--image-root", data], "index build")

    # score text -> image retrieval against the planted topics
    with open(os.path.join(data, "queries.json"), encoding="utf-8") as fh:
        queries = json.load(fh)
    trained_map = svm_map(os.path.join(netdir, "final.ckpt"), data, heldout_corpus, work, "trained")
    random_map = svm_map(os.path.join(initdir, "final.ckpt"), data, heldout_corpus, work, "init")

    aps = []
    for item in queries:
        out = os.path.join(work, "q.tsv")
        run(["query", index, "--text", item["word"], "--lda", model,
             "--top-n", str(len(heldout_topic)), "-o", out], f"query {item['word']}")
        with open(out, encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split("\t") for line in fh][1:]
        aps.append(average_precision([-float(dv) for _, _, dv in rows],
                                     [heldout_topic[item_id] == item["topic"] for _, item_id, _ in rows]))

    print(f"\ntext->image retrieval over {len(aps)} planted queries: "
          f"MAP = {mean_ap(aps):.3f}")
    print(f"held-out fc7 SVM mAP: trained = {trained_map:.3f}, random init = {random_map:.3f}")


if __name__ == "__main__":
    main()
