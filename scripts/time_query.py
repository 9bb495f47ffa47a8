#!/usr/bin/env python3
"""Time cross-modal queries against a K=40 retrieval index, embed and rank apart.

Builds a seeded index of N entries (half text, half image, Dirichlet(0.1)
rows), a 40-topic LDA model over synthetic documents and an untrained
tiny_topic_net(40), on one BLAS thread. Prints the time it takes to build
both modalities' log tables (which the first query of each modality pays),
then the p50 and p90 of the embed time and of the rank time for each query
kind: a word, a 30-token document and an image, each ranked by forward and by
symmetric KL.

    python3 scripts/time_query.py --entries 20000 --queries 30
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads OpenBLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ttn import corpus, lda, nn, retrieval, synth, textnet  # noqa: E402

K = 40
TOP_N = 10


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--entries", type=int, default=20000, help="index rows, half per modality")
    ap.add_argument("--queries", type=int, default=30, help="timed queries per kind and mode")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.entries < 2 or args.queries < 1:
        ap.error("--entries must be >= 2 and --queries >= 1")

    docs, _ = synth.make_documents(synth.SynthConfig(docs_per_topic=100, seed=args.seed))
    vocab = corpus.build_vocabulary(docs, min_df=2, max_df_ratio=0.5)
    bows = [corpus.doc_to_bow(d, vocab) for d in docs]
    model = lda.train(bows, lda.LdaHyperparams(k=K, n_iters=2, seed=args.seed), vocab.words)
    spec = nn.tiny_topic_net(K)
    ckpt = textnet.Checkpoint(spec=spec, params=nn.init_params(spec, args.seed), iteration=0,
                              sgd=nn.SgdConfig(), seed=args.seed)
    rng = np.random.default_rng((args.seed, 1))
    modalities = ["text"] * (args.entries // 2) + ["image"] * (args.entries - args.entries // 2)
    rows = rng.dirichlet(np.full(K, 0.1), size=args.entries)
    entries = [retrieval.IndexEntry(f"{m[0]}{i:06d}", m, row) for i, (m, row) in enumerate(zip(modalities, rows))]
    index = retrieval.build_index(entries)

    build = sum(timed(index.log_table, modality)[1] for modality in retrieval.MODALITIES)

    inputs = {
        "word": lambda: vocab.words[int(rng.integers(len(vocab)))],
        "doc": lambda: docs[int(rng.integers(len(docs)))].text,
        "image": lambda: synth.render_image(int(rng.integers(3)), rng, 40),
    }
    print(f"K={K} index of {args.entries} entries, top {TOP_N}, one BLAS thread, {args.queries} queries per row")
    print(f"table_build_ms {build * 1e3:.3f}")
    print(f"{'kind':<6} {'mode':<10} {'embed_p50':>9} {'embed_p90':>9} {'rank_p50':>9} {'rank_p90':>9}")
    for kind, make in inputs.items():
        for symmetric in (False, True):
            embed_s, rank_s = [], []
            for _ in range(args.queries):
                value = make()
                if kind == "image":
                    emb, seconds = timed(retrieval.embed_image, value, ckpt)
                    target = "text"
                else:
                    emb, seconds = timed(retrieval.embed_text, value, vocab, model)
                    target = "image"
                embed_s.append(seconds)
                rank_s.append(timed(retrieval.query, index, emb, target, top_n=TOP_N, symmetric=symmetric)[1])
            ms = [np.percentile(s, q) * 1e3 for s in (embed_s, rank_s) for q in (50, 90)]
            mode = "symmetric" if symmetric else "forward"
            print(f"{kind:<6} {mode:<10} " + " ".join(f"{v:9.3f}" for v in ms))


if __name__ == "__main__":
    main()
