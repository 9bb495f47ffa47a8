#!/usr/bin/env python3
"""Time the collapsed Gibbs sweep and fold-in on mixed-topic documents.

Builds a seeded corpus shaped like the benchmark's topics-k40 workload
(documents of 30 tokens drawing 1-3 of 11 planted topics), runs one chain
each at K=3 and K=40 on one BLAS thread, and prints ns per token-sweep and
the share of draws that keep their topic, for sweeps 1-5 and for the settled
sweeps (11 onwards). Then it folds held-out documents into a K=40 model and
prints the mean fold-in time per document, the median and maximum number of
iterations after which fold-in stopped, and how many documents ran to the
infer_iters cap instead.

    python3 scripts/time_lda.py --docs 400 --sweeps 30
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads OpenBLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ttn import corpus, lda, synth  # noqa: E402

PLANTED = 11
EARLY = 5  # sweeps 1-5: counts still dense, most draws move
SETTLED = 10  # sweeps after the first SETTLED count as settled


def mixed_documents(rng, n_docs, prefix, tokens=30):
    vocabularies = synth.topic_vocabularies(synth.SynthConfig(n_topics=PLANTED))
    docs = []
    for i in range(n_docs):
        topics = rng.choice(PLANTED, size=int(rng.integers(1, 4)), replace=False)
        counts = rng.multinomial(tokens, np.sort(rng.dirichlet(np.ones(len(topics))))[::-1])
        words = [w for t, c in zip(topics, counts) for w in rng.choice(vocabularies[t], size=c)]
        rng.shuffle(words)
        docs.append(corpus.RawDocument(doc_id=f"{prefix}{i:05d}", text=" ".join(words)))
    return docs


def time_chain(bows, k, vocab_size, sweeps, seed):
    """Per-sweep seconds and share of tokens whose topic the sweep kept."""
    rng = np.random.default_rng(seed)
    state = lda.gibbs_init(bows, k, vocab_size, rng)
    total = sum(len(t) for t in state.doc_tokens)
    alpha, beta = 50.0 / k, 0.01
    seconds, kept = [], []
    for _ in range(sweeps):
        uniforms = rng.random(total).tolist()
        before = [list(zs) for zs in state.z]
        t0 = time.perf_counter()
        lda.gibbs_sweep(state, alpha, beta, uniforms)
        seconds.append(time.perf_counter() - t0)
        kept.append(sum(a == b for zs0, zs in zip(before, state.z) for a, b in zip(zs0, zs)) / total)
    return seconds, kept, total


def fold_in_stop(lik, n, alpha, max_iters):
    """The number of iterations after which fold_in stops, or None if
    max_iters cuts it short: the least j at which a cap of j + 1 returns what
    a cap of j does. fold_in(..., j) returns the j-th iterate unless it
    stopped earlier, so the iterates are read from fold_in itself."""
    gamma = lda.fold_in(lik, n, alpha, 0)
    for j in range(max_iters + 1):
        new = lda.fold_in(lik, n, alpha, j + 1)
        if np.array_equal(new, gamma):
            return j
        gamma = new
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--docs", type=int, default=400, help="training documents")
    ap.add_argument("--sweeps", type=int, default=30, help="sweeps per chain")
    ap.add_argument("--heldout", type=int, default=100, help="documents folded in")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.docs < 1 or args.heldout < 1 or args.sweeps <= SETTLED:
        ap.error(f"--docs and --heldout must be >= 1 and --sweeps > {SETTLED}")

    rng = np.random.default_rng(args.seed)
    docs = mixed_documents(rng, args.docs, "d")
    heldout = mixed_documents(rng, args.heldout, "h")
    vocab = corpus.build_vocabulary(docs, min_df=2, max_df_ratio=0.5)
    bows = [corpus.doc_to_bow(d, vocab) for d in docs]

    print(f"{args.docs} docs, V={len(vocab)}, {args.sweeps} sweeps per chain, one BLAS thread")
    print(f"{'k':>3} {'sweeps':>7} {'ns_per_token_sweep':>19} {'kept_share':>11}")
    for k in (3, 40):
        seconds, kept, total = time_chain(bows, k, len(vocab), args.sweeps, args.seed)
        for label, lo, hi in ((f"1-{EARLY}", 0, EARLY), (f"{SETTLED + 1}-{args.sweeps}", SETTLED, args.sweeps)):
            ns = statistics.median(seconds[lo:hi]) / total * 1e9
            print(f"{k:>3} {label:>7} {ns:19.0f} {statistics.mean(kept[lo:hi]):11.3f}")

    hyper = lda.LdaHyperparams(k=40, n_iters=args.sweeps, seed=args.seed)
    model = lda.train(bows, hyper, vocab.words)
    held_bows = [b for b in (corpus.doc_to_bow(d, vocab) for d in heldout) if b.counts]
    t0 = time.perf_counter()
    for bow in held_bows:
        lda.infer(bow, model)
    per_doc = (time.perf_counter() - t0) / len(held_bows)
    stops = []
    for bow in held_bows:
        word_ids = sorted(bow.counts)
        n = np.array([[bow.counts[w]] for w in word_ids], dtype=np.float64)
        stops.append(fold_in_stop(model.phi[:, word_ids].T, n, hyper.effective_alpha, hyper.infer_iters))
    stopped = [j for j in stops if j is not None]
    spread = f"median {statistics.median(stopped):g}, max {max(stopped)}" if stopped else "median -, max -"
    print(f"fold_in k=40, {len(held_bows)} held-out docs, infer_iters {hyper.infer_iters}: "
          f"{per_doc * 1e6:.0f} us/doc; stopped {len(stopped)} ({spread} iterations), cap {len(stops) - len(stopped)}")


if __name__ == "__main__":
    main()
