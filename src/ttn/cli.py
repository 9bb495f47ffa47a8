"""Command-line interface.

Subcommands mirror the pipeline stages: synth, vocab build, lda train/topics/
infer, net train/embed/features, index build, query, and eval svm/map/sweep.
Every output file is written atomically and every run is fully determined by
its flags, input files, and seeds.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict

import numpy as np

from . import corpus as corpus_mod
from . import evaluate as evaluate_mod
from . import lda as lda_mod
from . import nn
from . import retrieval
from . import synth
from . import textnet
from .errors import DataError, EmptyDocument, NumericError, TtnError
from .fileio import atomic_write, decode_image, parse_json, read_text

log = logging.getLogger("ttn")


def _image_root(args):
    """--image-root, defaulting to the directory holding the corpus file."""
    return args.image_root or os.path.dirname(os.path.abspath(args.corpus))


def _format_vector(vec):
    return " ".join(f"{v:.10g}" for v in vec)


def _write_text(path, text):
    with atomic_write(path, "w") as fh:
        fh.write(text)


def _emit(path, text):
    if path:
        _write_text(path, text)
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------- synth


def cmd_synth(args):
    cfg = synth.SynthConfig(
        n_topics=args.topics,
        docs_per_topic=args.docs_per_topic,
        tokens_per_doc=args.tokens_per_doc,
        words_per_topic=args.words_per_topic,
        images_per_doc=args.images_per_doc,
        held_out_per_topic=args.held_out_per_topic,
        image_size=args.image_size,
        seed=args.seed,
    )
    manifest = synth.write_dataset(cfg, args.out)
    log.info(
        "wrote %d docs, %d held-out images under %s",
        len(manifest["doc_labels"]),
        len(manifest["held_out"]),
        args.out,
    )
    return 0


# --------------------------------------------------------------------------- vocab


def cmd_vocab_build(args):
    docs = corpus_mod.load_corpus(args.corpus)
    vocab = corpus_mod.build_vocabulary(docs, min_df=args.min_df, max_df_ratio=args.max_df_ratio)
    vocab.save(args.out)
    log.info("retained %d of the corpus words into %s", len(vocab), args.out)
    return 0


# --------------------------------------------------------------------------- lda


def _corpus_to_bows(docs, vocab):
    """Bag-of-words per doc; docs with no in-vocabulary token are dropped loudly."""
    bows = []
    for doc in docs:
        bow = corpus_mod.doc_to_bow(doc, vocab)
        if not bow.counts:
            log.warning("doc %s: no in-vocabulary tokens, dropped", doc.doc_id)
            continue
        bows.append(bow)
    if not bows:
        raise EmptyDocument("every document is empty after vocabulary filtering")
    return bows


def _hyper_from(args):
    return lda_mod.LdaHyperparams(
        k=args.k,
        alpha=args.alpha,
        beta_prior=args.beta,
        n_iters=args.iters,
        infer_iters=args.infer_iters,
        seed=args.seed,
    )


def cmd_lda_train(args):
    hyper = _hyper_from(args)
    docs = corpus_mod.load_corpus(args.corpus)
    vocab = corpus_mod.Vocabulary.load(args.vocab)
    bows = _corpus_to_bows(docs, vocab)
    model = lda_mod.train(bows, hyper, vocab.words)
    lda_mod.save_model(model, args.out)
    log.info("trained k=%d on %d docs -> %s", model.k, len(bows), args.out)
    return 0


def cmd_lda_topics(args):
    model = lda_mod.load_model(args.model)
    lines = []
    for topic in range(model.k):
        pairs = lda_mod.top_words(model, topic, min(args.top_n, model.vocab_size))
        rendered = ", ".join(f"{w} ({p:.4f})" for w, p in pairs)
        lines.append(f"topic {topic}: {rendered}")
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_lda_infer(args):
    model = lda_mod.load_model(args.model)
    theta = retrieval.embed_text(args.text, model.word_index, model)
    _emit(None, _format_vector(theta) + "\n")
    return 0


# --------------------------------------------------------------------------- net


def _resolve_spec(spec_arg, k, crop_size):
    if spec_arg == "tiny":
        return nn.tiny_topic_net(k, in_shape=(3, crop_size, crop_size))
    return nn.NetSpec.from_dict(parse_json(read_text(spec_arg), spec_arg))


def cmd_net_train(args):
    os.makedirs(args.out, exist_ok=True)
    image_root = _image_root(args)
    sgd_cfg = nn.SgdConfig(
        base_lr=args.base_lr,
        lr_decay=args.lr_decay,
        lr_step=args.lr_step,
        momentum=args.momentum,
        batch_size=args.batch_size,
        max_iters=args.iters,
    )
    aug_cfg = textnet.AugmentConfig(crop_size=args.crop_size, mirror_prob=args.mirror_prob, seed=args.seed)
    if not os.path.isdir(image_root):
        raise DataError(f"image root does not exist: {image_root}")
    docs = corpus_mod.load_corpus(args.corpus)
    model = lda_mod.load_model(args.model)
    spec = _resolve_spec(args.spec, model.k, aug_cfg.crop_size)

    effective = {
        "corpus": args.corpus,
        "model": args.model,
        "out_dir": args.out,
        "image_root": image_root,
        "spec": args.spec,
        "sgd": asdict(sgd_cfg),
        "augment": asdict(aug_cfg),
        "seed": args.seed,
        "checkpoint_every": args.checkpoint_every,
    }
    with atomic_write(os.path.join(args.out, "effective_config.json"), "w") as fh:
        json.dump(effective, fh, sort_keys=True, indent=1)
        fh.write("\n")

    pairs = textnet.make_pairs(docs, model, image_root)
    log.info("training on %d pairs for %d iterations", len(pairs), sgd_cfg.max_iters)
    checkpoint, history = textnet.train(
        pairs,
        spec,
        sgd_cfg,
        aug_cfg,
        args.seed,
        checkpoint_every=args.checkpoint_every or None,
        checkpoint_dir=args.out,
        lda_model_hash=model.content_hash(),
    )
    textnet.save_checkpoint(checkpoint, os.path.join(args.out, "final.ckpt"))
    with atomic_write(os.path.join(args.out, "loss.csv"), "w") as fh:
        fh.write("iter,lr,loss\n")
        for iteration, lr, loss in history:
            fh.write(f"{iteration},{lr:.10g},{loss:.10g}\n")
    log.info("wrote %s", os.path.join(args.out, "final.ckpt"))
    return 0


def cmd_net_embed(args):
    checkpoint = textnet.load_checkpoint(args.ckpt)
    image = decode_image(args.image)
    if args.layer:
        vec = textnet.extract_features(checkpoint, image, args.layer)
    else:
        vec = textnet.predict_topics(checkpoint, image)
    _emit(None, _format_vector(vec) + "\n")
    return 0


def cmd_net_features(args):
    checkpoint = textnet.load_checkpoint(args.ckpt)
    image_root = _image_root(args)
    docs = corpus_mod.load_corpus(args.corpus)
    items = []
    for doc in sorted(docs, key=lambda d: d.doc_id):
        for rel in doc.image_paths:
            image = decode_image(os.path.join(image_root, rel))
            items.append((rel, textnet.extract_features(checkpoint, image, args.layer)))
    if not items:
        raise DataError("corpus references no images")
    evaluate_mod.save_features(items, args.out, layer=args.layer)
    log.info("wrote %d feature vectors to %s", len(items), args.out)
    return 0


# --------------------------------------------------------------------------- index / query


def _required(value, flag, use):
    if value is None:
        raise DataError(f"{use} needs {flag}")
    return value


def cmd_index_build(args):
    use = f"--modality {args.modality}"
    model = checkpoint = None
    if args.modality in ("text", "both"):
        model = lda_mod.load_model(_required(args.lda, "--lda", use))
    if args.modality in ("image", "both"):
        checkpoint = textnet.load_checkpoint(_required(args.ckpt, "--ckpt", use))
    if model is not None and checkpoint is not None:
        if checkpoint.lda_model_hash not in ("", model.content_hash()):
            raise DataError(f"checkpoint {args.ckpt} was trained against a different topic model than {args.lda}")
    docs = sorted(corpus_mod.load_corpus(args.corpus), key=lambda d: d.doc_id)
    entries = []
    if model is not None:
        for doc in docs:
            theta = lda_mod.doc_theta(model, doc)
            if theta is None:
                log.warning("doc %s: no in-vocabulary token, not indexed", doc.doc_id)
                continue
            entries.append(
                retrieval.IndexEntry(
                    item_id=doc.doc_id, modality="text", embedding=theta, payload_ref=doc.doc_id
                )
            )
    if checkpoint is not None:
        image_root = _image_root(args)
        for doc in docs:
            for rel in doc.image_paths:
                embedding = retrieval.embed_image(decode_image(os.path.join(image_root, rel)), checkpoint)
                entries.append(
                    retrieval.IndexEntry(
                        item_id=rel, modality="image", embedding=embedding, payload_ref=doc.doc_id
                    )
                )
    index = retrieval.build_index(entries, epsilon=args.epsilon)
    retrieval.save_index(index, args.out)
    log.info("indexed %d entries -> %s", len(index.ids), args.out)
    return 0


def cmd_query(args):
    index = retrieval.load_index(args.index)
    if (args.text is None) == (args.image is None):
        raise DataError("provide exactly one of --text or --image")
    if args.text is not None:
        model = lda_mod.load_model(_required(args.lda, "--lda", "--text"))
        embedding = retrieval.embed_text(args.text, model.word_index, model)
        target = args.modality or "image"
    else:
        checkpoint = textnet.load_checkpoint(_required(args.ckpt, "--ckpt", "--image"))
        embedding = retrieval.embed_image(decode_image(args.image), checkpoint)
        target = args.modality or "text"
    results = retrieval.query(
        index, embedding, target, top_n=args.top_n, symmetric=args.symmetric
    )
    _emit(args.out, retrieval.format_results(results))
    return 0


# --------------------------------------------------------------------------- eval


def _labeled_features(features_path, labels_path):
    features = evaluate_mod.load_features(features_path)
    labels = evaluate_mod.load_labels(labels_path)
    data = []
    for item_id, vec in features:
        if item_id not in labels:
            raise DataError(f"item {item_id!r} has features but no label")
        data.append(evaluate_mod.LabeledFeature(item_id=item_id, feature=vec, labels=labels[item_id]))
    return data


def cmd_eval_svm(args):
    if args.val_labels is not None:
        _required(args.val_features, "--val-features", "--val-labels")
    train_data = _labeled_features(args.features, args.labels)
    class_ids = sorted({c for d in train_data for c in d.labels})
    lam, svms = args.lam, None
    if args.val_features:
        eval_data = _labeled_features(args.val_features, args.val_labels or args.labels)
        if lam is None:
            lam, svms = evaluate_mod.select_lambda(train_data, eval_data, class_ids, epochs=args.epochs,
                                                   seed=args.seed)
    else:
        eval_data = train_data
        if lam is None:
            lam = evaluate_mod.DEFAULT_LAMBDA
    if svms is None:
        svms = evaluate_mod.train_one_vs_rest(train_data, class_ids, lam=lam, epochs=args.epochs, seed=args.seed)
    aps, map_value = evaluate_mod.classification_map(svms, eval_data)
    lines = ["class_id,ap"]
    lines += [f"{c},{aps[c]:.6f}" for c in class_ids]
    lines.append(f"mAP,{map_value:.6f}")
    lines.append(f"lambda,{lam:.6g}")
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_eval_map(args):
    per_query = evaluate_mod.load_scores(args.scores)
    lines = ["query_id,ap"]
    aps = []
    for query_id, (scores, relevance) in per_query.items():
        ap = evaluate_mod.average_precision(
            np.asarray(scores), np.asarray(relevance), interpolated=args.interpolated
        )
        aps.append(ap)
        lines.append(f"{query_id},{ap:.6f}")
    lines.append(f"mAP,{evaluate_mod.mean_ap(aps):.6f}")
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


def _stride_split(items, val_fraction):
    stride = max(2, round(1.0 / val_fraction))
    train, val = [], []
    for i, item in enumerate(items):
        (val if i % stride == 0 else train).append(item)
    return train, val


def cmd_eval_sweep(args):
    if not 0 < args.val_fraction <= 0.5:  # NaN fails this too
        raise DataError(f"--val-fraction must be in (0, 0.5], got {args.val_fraction}")
    hyper = lda_mod.LdaHyperparams(
        k=2,  # placeholder; topic_sweep re-instantiates per candidate
        alpha=args.alpha,
        beta_prior=args.beta,
        n_iters=args.iters,
        infer_iters=args.infer_iters,
        seed=args.seed,
    )
    docs = corpus_mod.load_corpus(args.corpus)
    vocab = corpus_mod.build_vocabulary(docs, min_df=args.min_df, max_df_ratio=args.max_df_ratio)
    labels = {}
    for item_id, classes in evaluate_mod.load_labels(args.labels).items():
        if len(classes) != 1:
            raise DataError(f"{args.labels}: item {item_id!r} has {len(classes)} classes; the sweep needs one")
        (labels[item_id],) = classes

    docs = sorted(docs, key=lambda d: d.doc_id)
    train_docs, val_docs = _stride_split(docs, args.val_fraction)
    train_bows = _corpus_to_bows(train_docs, vocab)
    val_bows = _corpus_to_bows(val_docs, vocab)
    for bow in val_bows:
        if bow.doc_id not in labels:
            raise DataError(f"validation doc {bow.doc_id!r} missing from labels")

    candidate_ks = [int(k) for k in args.ks.split(",") if k.strip()]
    val_labels = [labels[bow.doc_id] for bow in val_bows]
    best_k, scores = evaluate_mod.topic_sweep(train_bows, val_bows, val_labels, vocab.words, candidate_ks, hyper)
    lines = ["k,score"]
    lines += [f"{k},{scores[k]:.6f}" for k in sorted(scores)]
    lines.append(f"best_k,{best_k}")
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


# --------------------------------------------------------------------------- parser


def build_parser():
    infer_iters_help = (f"cap on fold-in iterations; fold-in stops sooner once an iteration moves "
                        f"no entry of its responsibilities by more than {lda_mod._FOLD_IN_TOL:g}")
    parser = argparse.ArgumentParser(
        prog="ttn",
        description="Topic-supervised visual features at desk scale: train an LDA "
        "topic model over paired text, regress images onto its topic space, and "
        "retrieve or evaluate across modalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted synthetic multi-modal dataset")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.add_argument("--topics", type=int, default=3)
    p.add_argument("--docs-per-topic", type=int, default=200)
    p.add_argument("--tokens-per-doc", type=int, default=30)
    p.add_argument("--words-per-topic", type=int, default=30)
    p.add_argument("--images-per-doc", type=int, default=1)
    p.add_argument("--held-out-per-topic", type=int, default=20)
    p.add_argument("--image-size", type=int, default=40)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_synth)

    vocab = sub.add_parser("vocab", help="vocabulary commands").add_subparsers(
        dest="subcommand", required=True
    )
    p = vocab.add_parser("build", help="build a document-frequency-filtered vocabulary")
    p.add_argument("corpus", help="JSONL corpus file")
    p.add_argument("-o", "--out", required=True, help="output vocabulary JSON")
    p.add_argument("--min-df", type=int, default=20, help="minimum document frequency")
    p.add_argument("--max-df-ratio", type=float, default=0.5, help="maximum df as a fraction of docs")
    p.set_defaults(func=cmd_vocab_build)

    lda_cmds = sub.add_parser("lda", help="topic model commands").add_subparsers(
        dest="subcommand", required=True
    )
    p = lda_cmds.add_parser("train", help="train an LDA topic model by collapsed Gibbs sampling")
    p.add_argument("corpus")
    p.add_argument("vocab")
    p.add_argument("-o", "--out", required=True, help="output model file")
    p.add_argument("-k", type=int, default=40, help="number of topics")
    p.add_argument("-a", "--alpha", type=float, default=None, help="doc-topic prior (default 50/k)")
    p.add_argument("-b", "--beta", type=float, default=0.01, help="topic-word prior")
    p.add_argument("--iters", type=int, default=200, help="Gibbs sweeps")
    p.add_argument("--infer-iters", type=int, default=50, help=infer_iters_help)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_lda_train)

    p = lda_cmds.add_parser("topics", help="print the top words of every topic")
    p.add_argument("model")
    p.add_argument("--top-n", type=int, default=10)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_lda_topics)

    p = lda_cmds.add_parser("infer", help="print the topic distribution of a text snippet")
    p.add_argument("model")
    p.add_argument("--text", required=True)
    p.set_defaults(func=cmd_lda_infer)

    net = sub.add_parser("net", help="image network commands").add_subparsers(
        dest="subcommand", required=True
    )
    p = net.add_parser("train", help="train the topic-regression net on image/theta pairs")
    p.add_argument("corpus")
    p.add_argument("model", help="trained LDA model file")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.add_argument("--spec", default="tiny", help='"tiny" or a JSON spec file')
    p.add_argument("--image-root", default=None, help="directory image paths resolve against (default: the corpus's)")
    p.add_argument("--iters", type=int, default=nn.SgdConfig.max_iters, help="training iterations")
    p.add_argument("--seed", type=int, default=0, help="seeds initialization and augmentation")
    p.add_argument("--batch-size", type=int, default=nn.SgdConfig.batch_size)
    p.add_argument("--base-lr", type=float, default=nn.SgdConfig.base_lr)
    p.add_argument("--lr-decay", type=float, default=nn.SgdConfig.lr_decay)
    p.add_argument("--lr-step", type=int, default=nn.SgdConfig.lr_step)
    p.add_argument("--momentum", type=float, default=nn.SgdConfig.momentum)
    p.add_argument("--crop-size", type=int, default=32)
    p.add_argument("--mirror-prob", type=float, default=textnet.AugmentConfig.mirror_prob)
    p.add_argument("--checkpoint-every", type=int, default=0, help="iterations between checkpoints (0: none)")
    p.set_defaults(func=cmd_net_train)

    p = net.add_parser("embed", help="print an image's topic distribution or layer features")
    p.add_argument("ckpt")
    p.add_argument("--image", required=True)
    p.add_argument("--layer", default=None, help="named layer for raw features (default: topic output)")
    p.set_defaults(func=cmd_net_embed)

    p = net.add_parser("features", help="extract layer features for every corpus image")
    p.add_argument("ckpt")
    p.add_argument("corpus")
    p.add_argument("--layer", required=True)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--image-root", default=None)
    p.set_defaults(func=cmd_net_features)

    index = sub.add_parser("index", help="retrieval index commands").add_subparsers(
        dest="subcommand", required=True
    )
    p = index.add_parser("build", help="embed corpus entries into a retrieval index")
    p.add_argument("corpus")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--modality", choices=("text", "image", "both"), default="both")
    p.add_argument("--lda", default=None, help="LDA model (needed for text entries)")
    p.add_argument("--ckpt", default=None, help="net checkpoint (needed for image entries)")
    p.add_argument("--image-root", default=None)
    p.add_argument("--epsilon", type=float, default=1e-10)
    p.set_defaults(func=cmd_index_build)

    p = sub.add_parser("query", help="rank index entries against a text or image query")
    p.add_argument("index")
    p.add_argument("--text", default=None)
    p.add_argument("--image", default=None)
    p.add_argument("--lda", default=None, help="LDA model (for --text)")
    p.add_argument("--ckpt", default=None, help="net checkpoint (for --image)")
    p.add_argument("--modality", choices=("text", "image"), default=None, help="target modality (default: the other one)")
    p.add_argument("--top-n", type=int, default=10)
    p.add_argument("--symmetric", action="store_true", help="use symmetric KL")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_query)

    ev = sub.add_parser("eval", help="evaluation commands").add_subparsers(
        dest="subcommand", required=True
    )
    p = ev.add_parser("svm", help="one-vs-rest linear SVM classification report")
    p.add_argument("--features", required=True, help="feature container file")
    p.add_argument("--labels", required=True, help="CSV item_id,class_id[,class_id...]")
    p.add_argument("--val-features", default=None)
    p.add_argument("--val-labels", default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="fixed regularizer (default: grid-select on val, else 1e-3)")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_eval_svm)

    p = ev.add_parser("map", help="mean average precision of scored rankings")
    p.add_argument("--scores", required=True, help="CSV query_id,item_id,score,relevant")
    p.add_argument("--interpolated", action="store_true", help="11-point interpolated AP")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_eval_map)

    p = ev.add_parser("sweep", help="select the topic count on validation data")
    p.add_argument("corpus")
    p.add_argument("--ks", required=True, help="comma-separated candidate topic counts")
    p.add_argument("--labels", required=True, help="CSV doc_id,class_id with planted classes")
    p.add_argument("--val-fraction", type=float, default=0.25)
    p.add_argument("--min-df", type=int, default=2)
    p.add_argument("--max-df-ratio", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=0.01)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--infer-iters", type=int, default=30, help=infer_iters_help)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_eval_sweep)

    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except (TtnError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
