"""The three benchmark stages: topic modelling, net training, cross-modal retrieval.

Every stage generates its inputs from the workload seed in setup(), runs its
timed operations through a Recorder, and checks the outputs in check(),
outside the timed region. A stage runs at one of two sizes: "full" when it is
the workload's subject, "small" when it rides along so that every workload
reports every end-to-end metric.

The timed work of each stage is cut into ROUNDS equal rounds, and the runner
plays round r of every stage before round r + 1 of any. Each metric's
samples are therefore spread over the whole timed phase instead of one
window of it: on a shared machine whose speed drifts over seconds, this is
what keeps the run-to-run spread small.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

import numpy as np

from ttn import corpus, evaluate, fileio, lda, nn, retrieval, synth, textnet

import calibrate

ROUNDS = 10
N_PLANTED = 11  # topic vocabularies synth can plant (one letter each)
CROP = 32
TOP_N = 10


class OpFailed(Exception):
    """A timed operation raised; the stage stops and the failure is counted."""


class Recorder:
    """Duration and work units of every timed operation, plus failed operations and checks.

    The runner calls calibrate() a few times in every round; durations are
    reported normalized by the reference kernel's mean time over the pass
    (see calibrate.py).

    While `tracer` is set, each operation runs as a root span of it and is
    recorded as traced; the runner sets it on alternate rounds of a traced run.
    """

    def __init__(self):
        self.tracer = None
        self.refs = []  # reference kernel seconds
        self.ops = {}  # kind -> [(measured seconds, units, traced)]
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def calibrate(self):
        self.refs.append(calibrate.reference())

    def timed(self, kind, fn, *args, units=1, **kwargs):
        self.attempted += 1
        tracer = self.tracer
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                result = tracer.op(kind, fn, *args, **kwargs)
            else:
                result = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - any failure is counted, then the stage stops
            self.failed += 1
            self.errors.append(f"{kind}: {exc!r}")
            raise OpFailed(kind) from exc
        self.ops.setdefault(kind, []).append((time.perf_counter() - t0, units, tracer is not None))
        return result

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check {name} failed: {detail}")

    def scale(self):
        """REF_NOMINAL_S over the reference kernel's mean time in the pass."""
        return calibrate.normalizer(self.refs)

    def seconds(self, kind, normalized=True):
        scale = self.scale() if normalized else 1.0
        return [s * scale for s, _, _ in self.ops.get(kind, ())]

    def mean_seconds(self, kind, normalized=True):
        samples = self.seconds(kind, normalized)
        return sum(samples) / len(samples) if samples else 0.0

    def rate(self, kind, normalized=True):
        """Work units per second over all ops of one kind: total units / total time."""
        total = sum(self.seconds(kind, normalized))
        return sum(op[1] for op in self.ops.get(kind, ())) / total if total else 0.0


def mixed_documents(seed, stream, n_docs, prefix, tokens=30):
    """Documents drawing 1-3 planted topics each, with their dominant topic.

    Mixing weights are a sorted Dirichlet draw, so the first topic chosen
    holds the most tokens in expectation; the dominant topic is the one
    holding the most tokens (lowest index on a tie).
    """
    vocabularies = synth.topic_vocabularies(synth.SynthConfig(n_topics=N_PLANTED))
    rng = np.random.default_rng((seed, stream))
    docs, dominant = [], {}
    for i in range(n_docs):
        n_topics = int(rng.integers(1, 4))
        topics = rng.choice(N_PLANTED, size=n_topics, replace=False)
        weights = np.sort(rng.dirichlet(np.ones(n_topics)))[::-1]
        counts = rng.multinomial(tokens, weights)
        words = [w for t, c in zip(topics, counts) for w in rng.choice(vocabularies[t], size=c)]
        rng.shuffle(words)
        doc_id = f"{prefix}{i:05d}"
        docs.append(corpus.RawDocument(doc_id=doc_id, text=" ".join(words)))
        dominant[doc_id] = int(topics[int(np.argmax(counts))])
    return docs, dominant


def _digest(h, *chunks):
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else str(chunk).encode("utf-8"))


def _share(items, r):
    """Round r's slice of items when they are dealt out over ROUNDS rounds."""
    return items[r::ROUNDS]


@dataclass(frozen=True)
class LdaSize:
    train_docs: int
    chains: int  # trained at evenly spaced rounds, each from a fresh random start
    sweeps: int  # per chain
    heldout_docs: int
    purity_floor: float


class LdaStage:
    """lda.train at the paper's K=40 on mixed-topic documents, then fold-in of held-out docs."""

    name = "lda"
    K = 40
    # The sampler's n_dk and n_kw are dense in the first sweeps and settle by
    # sweep 10 or so, so at full size (30 sweeps per chain) most of the timed
    # sweeps run in the sparse regime the program's 200-sweep default spends
    # its time in. The small size trades chain length for more chains, so
    # that its few seconds of samples spread over the run.

    def __init__(self, size, seed, workdir):
        self.size, self.seed, self.workdir = size, seed, workdir

    def setup(self):
        docs, _ = mixed_documents(self.seed, 1, self.size.train_docs, "d")
        self.heldout, self.dominant = mixed_documents(self.seed, 2, self.size.heldout_docs, "h")
        path = os.path.join(self.workdir, "lda_corpus.jsonl")
        corpus.save_corpus(docs, path)
        self.docs = corpus.load_corpus(path)
        self.vocab = corpus.build_vocabulary(self.docs, min_df=2, max_df_ratio=0.5)
        self.bows = [corpus.doc_to_bow(d, self.vocab) for d in self.docs]
        self.heldout_bows = [corpus.doc_to_bow(d, self.vocab) for d in self.heldout]
        self.tokens = sum(b.n_tokens() for b in self.bows)

    def digest(self, h):
        for doc in self.docs + self.heldout:
            _digest(h, doc.doc_id, doc.text)

    def round(self, rec, r):
        """On chain rounds, train a chain from scratch and save/load it; fold in
        round r's held-out docs with the first chain, so that every held-out doc
        is scored by one model."""
        if r % (ROUNDS // self.size.chains) == 0:
            hyper = lda.LdaHyperparams(k=self.K, n_iters=self.size.sweeps, seed=self.seed * ROUNDS + r)
            model = rec.timed("lda_train", lda.train, self.bows, hyper, self.vocab.words,
                              units=self.tokens * hyper.n_iters)
            path = os.path.join(self.workdir, "model.lda")
            rec.timed("lda_save", lda.save_model, model, path)
            loaded = rec.timed("lda_load", lda.load_model, path)
            if r == 0:
                self.model, self.thetas = loaded, {}
        self._infer(rec, _share(range(len(self.heldout_bows)), r))

    def extra(self, rec, r):
        self._infer(rec, _share(range(len(self.heldout_bows)), r % ROUNDS))

    def _infer(self, rec, indices):
        for i in indices:
            self.thetas[i] = rec.timed("lda_infer", lda.infer, self.heldout_bows[i], self.model, seed=i)

    def check(self, rec):
        if len(getattr(self, "thetas", ())) < len(self.heldout_bows):
            return  # a failed op stopped the stage; it is already counted
        thetas = [self.thetas[i] for i in range(len(self.heldout_bows))]
        valid = all(np.all(np.isfinite(t)) and abs(t.sum() - 1.0) < 1e-9 for t in thetas)
        rec.check("lda_theta_simplex", valid, "a folded-in theta is not a distribution")
        assignments = [int(np.argmax(t)) for t in thetas]
        labels = [self.dominant[d.doc_id] for d in self.heldout]
        purity = evaluate.cluster_purity(assignments, labels)
        rec.check("lda_purity", purity >= self.size.purity_floor,
                  f"argmax-theta purity {purity:.3f} < {self.size.purity_floor}")


@dataclass(frozen=True)
class NetSize:
    docs_per_topic: int
    heldout_per_topic: int
    iters_per_round: int
    embeds: int  # corpus images embedded with predict_topics, dealt over the rounds
    svm_rounds: tuple  # rounds that run the fc7 SVM evaluation
    map_floor: float


class NetStage:
    """The walkthrough dataset: textnet.train, 10-crop embedding, fc7 SVM evaluation."""

    name = "net"
    K = 3
    BATCH = 64
    LDA_SWEEPS = 20

    def __init__(self, size, seed, workdir):
        self.size, self.seed, self.workdir = size, seed, workdir

    def setup(self):
        cfg = synth.SynthConfig(docs_per_topic=self.size.docs_per_topic,
                                held_out_per_topic=self.size.heldout_per_topic, seed=self.seed)
        self.root = os.path.join(self.workdir, "net_data")
        self.manifest = synth.write_dataset(cfg, self.root)
        self.docs = corpus.load_corpus(self.manifest["corpus"])
        vocab = corpus.build_vocabulary(self.docs, min_df=2)
        bows = [corpus.doc_to_bow(d, vocab) for d in self.docs]
        hyper = lda.LdaHyperparams(k=self.K, alpha=0.1, n_iters=self.LDA_SWEEPS, seed=self.seed)
        self.model = lda.train(bows, hyper, vocab.words)
        self.spec = nn.tiny_topic_net(self.K)
        # warm-up: one forward pass at the training batch shape
        nn.forward(self.spec, nn.init_params(self.spec, self.seed),
                   np.zeros((self.BATCH,) + self.spec.in_shape))

    def digest(self, h):
        for rel in sorted(self.manifest["image_labels"]):
            with open(os.path.join(self.root, rel), "rb") as fh:
                _digest(h, rel, fh.read())
        for doc in self.docs:
            _digest(h, doc.doc_id, doc.text)

    def round(self, rec, r):
        """Train the next iters_per_round iterations (resuming from the last checkpoint,
        which replays exactly the single long run), save and load the checkpoint,
        embed round r's images, and evaluate fc7 features by SVM on some rounds."""
        if r == 0:
            self.pairs = rec.timed("make_pairs", textnet.make_pairs, self.docs, self.model, self.root)
            self.ckpt, self.history, self.embeddings = None, [], {}
        sgd = nn.SgdConfig(batch_size=self.BATCH, max_iters=(r + 1) * self.size.iters_per_round)
        aug = textnet.AugmentConfig(crop_size=CROP, seed=self.seed)
        self.trained, history = rec.timed(
            "net_train", textnet.train, self.pairs, self.spec, sgd, aug, self.seed, start=self.ckpt,
            lda_model_hash=self.model.content_hash(), units=self.size.iters_per_round * self.BATCH)
        self.history += history
        path = os.path.join(self.workdir, "net.ckpt")
        rec.timed("ckpt_save", textnet.save_checkpoint, self.trained, path)
        self.ckpt = rec.timed("ckpt_load", textnet.load_checkpoint, path)
        self._embed(rec, r)
        if r in self.size.svm_rounds:
            self.map = rec.timed("svm_eval", self._svm_eval)

    def extra(self, rec, r):
        self._embed(rec, r % ROUNDS)

    def _embed(self, rec, r):
        for i in _share(range(self.size.embeds), r):
            image = self.pairs[i % len(self.pairs)].image
            self.embeddings[i] = rec.timed("embed", textnet.predict_topics, self.ckpt, image)

    def _svm_eval(self):
        labels = self.manifest["image_labels"]
        train_paths = [rel for d in sorted(self.docs, key=lambda d: d.doc_id) for rel in d.image_paths]
        train = [(rel, pair.image) for rel, pair in zip(train_paths, self.pairs)]
        heldout = [(h["path"], fileio.decode_image(os.path.join(self.root, h["path"])))
                   for h in self.manifest["held_out"]]

        def features(items):
            return [evaluate.LabeledFeature(rel, textnet.extract_features(self.ckpt, image, "fc7"),
                                            {labels[rel]}) for rel, image in items]

        svms = evaluate.train_one_vs_rest(features(train), {labels[rel] for rel, _ in train})
        return evaluate.classification_map(svms, features(heldout))[1]

    def check(self, rec):
        if not hasattr(self, "map") or len(self.embeddings) < self.size.embeds:
            return  # a failed op stopped the stage; it is already counted
        n_images = sum(len(d.image_paths) for d in self.docs)
        rec.check("net_pairs_complete", len(self.pairs) == n_images,
                  f"{len(self.pairs)} pairs from {n_images} images")
        losses = np.array([loss for _, _, loss in self.history])
        tenth = max(1, len(losses) // 10)
        rec.check("net_loss_finite", bool(np.all(np.isfinite(losses))), "non-finite loss")
        rec.check("net_loss_falls", losses[:tenth].mean() > losses[-tenth:].mean(),
                  f"first tenth {losses[:tenth].mean():.4f} <= last tenth {losses[-tenth:].mean():.4f}")
        rec.check("net_checkpoint_roundtrip", nn.params_equal(self.ckpt.params, self.trained.params),
                  "loaded parameters differ from the saved ones")
        valid = all(np.all(np.isfinite(e)) and abs(e.sum() - 1.0) < 1e-9 for e in self.embeddings.values())
        rec.check("net_embed_simplex", valid, "an image embedding is not a distribution")
        rec.check("net_svm_map", self.map >= self.size.map_floor,
                  f"held-out mAP {self.map:.3f} < {self.size.map_floor}")


@dataclass(frozen=True)
class RetrievalSize:
    entries: int
    queries: int  # dealt over the rounds
    write_rounds: tuple  # rounds that rebuild, save and reload the index
    write_repeats: int  # rebuild/save/reload cycles in each of those rounds


class RetrievalStage:
    """retrieval.query over a K=40 index of sparse embeddings, plus index save and load."""

    name = "retrieval"
    K = 40
    QUERY_POOL = 200
    EXTRA_QUERIES = 10  # per extra round once the planned queries are done
    CHECK_EVERY = 5  # every fifth query of the pool is re-ranked by brute force

    def __init__(self, size, seed, workdir):
        self.size, self.seed, self.workdir = size, seed, workdir

    def setup(self):
        # Prerequisite models; their quality is not under test here.
        docs, _ = mixed_documents(self.seed, 3, 200, "r")
        self.vocab = corpus.build_vocabulary(docs, min_df=2, max_df_ratio=0.5)
        bows = [corpus.doc_to_bow(d, self.vocab) for d in docs]
        self.model = lda.train(bows, lda.LdaHyperparams(k=self.K, n_iters=2, seed=self.seed), self.vocab.words)
        spec = nn.tiny_topic_net(self.K)
        self.ckpt = textnet.Checkpoint(spec=spec, params=nn.init_params(spec, self.seed), iteration=0,
                                       sgd=nn.SgdConfig(), seed=self.seed)
        rng = np.random.default_rng((self.seed, 4))
        half = self.size.entries // 2
        self.matrix = rng.dirichlet(np.full(self.K, 0.1), size=2 * half)
        self.entries = [retrieval.IndexEntry(item_id=f"{m[0]}{i:06d}", modality=m, embedding=row)
                        for m, block in (("text", self.matrix[:half]), ("image", self.matrix[half:]))
                        for i, row in enumerate(block)]
        self.index = retrieval.build_index(self.entries)
        self.queries = self._make_queries(rng)
        for q in self.queries[:3]:  # warm-up: one query of each kind
            self._query(q)

    def _make_queries(self, rng):
        """Queries cycle word, image, doc, image: half text (one planted word or a
        30-token doc), half image. Every third query ranks by symmetric KL; 3 is
        prime to the cycle of 4, so symmetric queries cover every kind. A third
        puts the 90th percentile inside the slowest group of queries (symmetric
        image queries at 1k entries, all symmetric ones at 20k) at both index
        sizes; with a tenth or a fifth it falls on the edge between two groups
        at one of them and jumps between them from run to run."""
        texts, _ = mixed_documents(self.seed, 5, self.QUERY_POOL // 4, "q")
        words = list(self.vocab.words)
        queries = []
        for i in range(self.QUERY_POOL):
            symmetric = i % 3 == 2
            if i % 2 == 1:
                queries.append(("image", synth.render_image(int(rng.integers(0, 3)), rng, 40), symmetric))
            elif i % 4 == 0:
                queries.append(("word", words[int(rng.integers(0, len(words)))], symmetric))
            else:
                queries.append(("doc", texts[i // 4].text, symmetric))
        return queries

    def digest(self, h):
        _digest(h, self.matrix.tobytes())
        for kind, value, symmetric in self.queries:
            _digest(h, kind, symmetric, value.tobytes() if kind == "image" else value)

    def _query(self, q):
        kind, value, symmetric = q
        if kind == "image":
            emb, target = retrieval.embed_image(value, self.ckpt), "text"
        else:
            emb, target = retrieval.embed_text(value, self.vocab, self.model), "image"
        return emb, target, retrieval.query(self.index, emb, target, top_n=TOP_N, symmetric=symmetric)

    def round(self, rec, r):
        if r == 0:
            self.sampled = []
        if r in self.size.write_rounds:
            path = os.path.join(self.workdir, "index.jsonl")
            for _ in range(self.size.write_repeats):
                rec.timed("index_write", self._write, path)
                self.loaded = rec.timed("index_load", retrieval.load_index, path)
        self._run_queries(rec, range(r * self.size.queries // ROUNDS, (r + 1) * self.size.queries // ROUNDS))

    def extra(self, rec, r):
        start = self.size.queries + r * self.EXTRA_QUERIES
        self._run_queries(rec, range(start, start + self.EXTRA_QUERIES))

    def _run_queries(self, rec, numbers):
        for i in numbers:
            emb, target, result = rec.timed("query", self._query, self.queries[i % self.QUERY_POOL])
            if i % self.CHECK_EVERY == self.CHECK_EVERY - 1 and i < self.QUERY_POOL:
                self.sampled.append((emb, target, self.queries[i][2], result))

    def _write(self, path):
        retrieval.save_index(retrieval.build_index(self.entries), path)

    def check(self, rec):
        if hasattr(self, "loaded"):
            same = (len(self.loaded.entries) == len(self.entries) and all(
                a.item_id == b.item_id and a.modality == b.modality and np.array_equal(a.embedding, b.embedding)
                for a, b in zip(self.loaded.entries, self.entries)))
            rec.check("index_roundtrip", same and self.loaded.epsilon == self.index.epsilon,
                      "save/load changed ids, modalities or embedding bits")
        for emb, target, symmetric, result in getattr(self, "sampled", ()):
            ok, detail = _ranking_matches(self.index, self.matrix, emb, target, symmetric, result)
            rec.check("query_ranking", ok, detail)


def _reference_divergences(matrix, q, epsilon, symmetric):
    """Brute-force KL (or Jeffreys) of q against every row, smoothed as retrieval does."""
    k = matrix.shape[1]
    ps = (np.asarray(q, dtype=np.float64) + epsilon) / (1.0 + k * epsilon)
    qs = (matrix + epsilon) / (1.0 + k * epsilon)
    forward = np.maximum(0.0, (ps * np.log(ps / qs)).sum(axis=1))
    if not symmetric:
        return forward
    return forward + np.maximum(0.0, (qs * np.log(qs / ps)).sum(axis=1))


def _ranking_matches(index, matrix, emb, target, symmetric, result, rel_tol=1e-12):
    """The returned list must be a valid top-n under the reference divergences:
    the same divergence values, ascending, and nothing better left out. Entries
    whose divergences differ only by last-ulp roundoff may swap."""
    rows = [i for i, e in enumerate(index.entries) if e.modality == target]
    ids = [index.entries[i].item_id for i in rows]
    ref = _reference_divergences(matrix[rows], emb, index.epsilon, symmetric)
    by_id = dict(zip(ids, ref))
    cutoff = float(np.sort(ref)[min(TOP_N, len(ids)) - 1])

    def tol(x):
        return rel_tol * max(1.0, abs(x))

    if len(result) != min(TOP_N, len(ids)):
        return False, f"returned {len(result)} results"
    for item_id, d in result:
        if item_id not in by_id or abs(by_id[item_id] - d) > tol(d):
            return False, f"{item_id}: divergence {d!r} vs reference {by_id.get(item_id)!r}"
    got = [by_id[item_id] for item_id, _ in result]
    if any(b < a - tol(a) for a, b in zip(got, got[1:])):
        return False, "results not in ascending divergence order"
    if got[-1] > cutoff + tol(cutoff):
        return False, f"a better candidate was left out ({got[-1]!r} > {cutoff!r})"
    return True, ""


def input_digest(stages):
    h = hashlib.sha256()
    for stage in stages:
        _digest(h, stage.name)
        stage.digest(h)
    return h.hexdigest()
