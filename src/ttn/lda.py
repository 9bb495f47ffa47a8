"""Latent Dirichlet Allocation via collapsed Gibbs sampling.

The sampler keeps the usual three count tables and resamples one token
assignment at a time:

    p(z = k | rest) is proportional to
        (n_dk + alpha) * (n_kw + beta) / (n_k + V * beta)

Documents are processed in sorted doc_id order and all randomness comes from
one seeded PCG64 generator (numpy's default_rng), so a fixed seed gives a
bit-reproducible model. Point estimates of phi and theta are taken from the
final sample of the chain (Griffiths & Steyvers, PNAS 2004).

Fold-in (the topics of an unseen document, phi frozen) draws nothing: it
iterates the expected version of the same conditional, (n_dk + alpha) *
phi_kw, until it stops moving (CVB0; see fold_in).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import corpus as corpus_mod
from .errors import CorruptFile, DataError, EmptyDocument
from .fileio import MAGIC_LDA, finite_non_negative, is_number, read_tensor_file, string_list, write_tensor_file

# How far a row of phi or of the stored thetas may sum from 1. Rows the
# sampler writes are off by a few ulps; a damaged or hand-made row is not.
ROW_SUM_TOLERANCE = 1e-6

# fold_in stops once an iteration moves no entry of gamma by more than this.
# On the K=40 held-out documents of tests/test_lda.py, theta then lies within
# 9e-15 of a 2000-iteration run's.
_FOLD_IN_TOL = 1e-13


@dataclass(frozen=True)
class LdaHyperparams:
    """Sampler configuration.

    alpha defaults to 50 / k and beta_prior to 0.01, the usual heuristic
    priors, and both must be positive and finite. infer_iters caps the
    iterations of fold-in inference for unseen documents (fold_in), which
    stops earlier once an iteration moves gamma by at most _FOLD_IN_TOL.
    """

    k: int = 40
    alpha: float | None = None
    beta_prior: float = 0.01
    n_iters: int = 200
    infer_iters: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.alpha is not None and not 0 < self.alpha < math.inf:  # NaN fails too
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0 < self.beta_prior < math.inf:
            raise ValueError(f"beta_prior must be positive and finite, got {self.beta_prior}")
        if self.n_iters < 0:
            raise ValueError(f"n_iters must be >= 0, got {self.n_iters}")
        if self.infer_iters < 1:
            raise ValueError(f"infer_iters must be >= 1, got {self.infer_iters}")

    @property
    def effective_alpha(self):
        return 50.0 / self.k if self.alpha is None else self.alpha


@dataclass
class GibbsState:
    """Token-level sampler state with incrementally maintained count tables.

    Topic-word counts are word-major and sparse: n_wk[w] maps each topic
    holding word w to its (positive) count. n_dk, n_wk and n_k must always
    be the marginal counts of z.
    """

    doc_ids: tuple
    doc_tokens: list  # per doc: word id of every token occurrence
    z: list  # per doc: topic assignment of every token occurrence
    n_dk: list  # [doc][topic] counts
    n_wk: list  # [word] {topic: count}, positive counts only
    n_k: list  # [topic] counts
    k: int
    vocab_size: int

    def dense_n_kw(self):
        """The topic-word counts as a (k, vocab_size) float array."""
        n_kw = np.zeros((self.k, self.vocab_size))
        for w, row in enumerate(self.n_wk):
            for topic, count in row.items():
                n_kw[topic, w] = count
        return n_kw


@dataclass
class LdaModel:
    """A trained topic model: smoothed phi plus per-training-doc thetas."""

    vocab_size: int
    k: int
    phi: np.ndarray  # (k, vocab_size), rows on the simplex
    hyper: LdaHyperparams
    doc_thetas: dict  # doc_id -> (k,) theta
    words: tuple

    @cached_property
    def word_index(self):
        return {w: i for i, w in enumerate(self.words)}

    def word_list_hash(self):
        return hashlib.sha256("\n".join(self.words).encode("utf-8")).hexdigest()

    def content_hash(self):
        """Stable digest of the model's identity (k, words, phi bytes)."""
        h = hashlib.sha256()
        h.update(f"k={self.k};v={self.vocab_size};".encode())
        h.update(self.word_list_hash().encode())
        h.update(np.ascontiguousarray(self.phi, dtype="<f8").tobytes())
        return h.hexdigest()


def _expand_bow(bow):
    """Token stream for a bag of words: word ids ascending, repeated by count.

    The fixed expansion order is part of the determinism contract.
    """
    tokens = []
    for word_id in sorted(bow.counts):
        tokens.extend([word_id] * bow.counts[word_id])
    return tokens


def gibbs_init(corpus, k, vocab_size, rng):
    """Build a GibbsState with uniformly random initial assignments."""
    docs = sorted(corpus, key=lambda b: b.doc_id)
    doc_tokens = []
    for bow in docs:
        tokens = _expand_bow(bow)
        if not tokens:
            raise EmptyDocument(f"doc {bow.doc_id!r} has no in-vocabulary tokens")
        if any(w < 0 or w >= vocab_size for w in tokens):
            raise ValueError(f"doc {bow.doc_id!r} has word ids outside [0, {vocab_size})")
        doc_tokens.append(tokens)

    total = sum(len(t) for t in doc_tokens)
    draws = (rng.random(total) * k).astype(np.int64).tolist()
    state = GibbsState(
        doc_ids=tuple(b.doc_id for b in docs),
        doc_tokens=doc_tokens,
        z=[],
        n_dk=[[0] * k for _ in docs],
        n_wk=[{} for _ in range(vocab_size)],
        n_k=[0] * k,
        k=k,
        vocab_size=vocab_size,
    )
    pos = 0
    for d, tokens in enumerate(doc_tokens):
        zs = draws[pos : pos + len(tokens)]
        pos += len(tokens)
        state.z.append(zs)
        row = state.n_dk[d]
        for w, topic in zip(tokens, zs):
            row[topic] += 1
            state.n_wk[w][topic] = state.n_wk[w].get(topic, 0) + 1
            state.n_k[topic] += 1
    return state


def gibbs_sweep(state, alpha, beta, uniforms):
    """One full sweep: resample every token assignment once, in corpus order.

    uniforms must hold one U[0,1) draw per token; consuming pre-drawn numbers
    keeps the PRNG stream identical regardless of how the inner loop is
    implemented.

    The conditional (n_dk + alpha) (n_kw + beta) / (n_k + V beta) is drawn
    exactly as qc[k] * (n_kw + beta) with qc[k] = (alpha + n_dk) / (n_k + V beta),
    split into two buckets: the word bucket sum_{k: n_kw > 0} qc[k] n_kw over
    the word's sparse counts, and the smoothing bucket beta * sum_k qc[k],
    whose sum is kept running. qc is rebuilt once per document. Only a draw
    that lands in the smoothing bucket scans all k topics.

    A token is drawn against the counts with itself taken out, but n_dk and
    n_k change only when it moves, and a stay (about 90% of draws at k=40
    once a chain settles, 97% at k=3) writes neither. A word held by the
    token's topic alone is drawn with no scan and no write unless the draw
    leaves its bucket; a word held by several topics lowers its count in
    the old topic for the scan and gets it back on a stay. The draw is the
    one that removing the token, drawing and adding it back would make, bit
    for bit:
    - the old topic's entry is q_dec = (alpha + n_dk - 1) / (n_k - 1 + V beta)
      with count n_kw - 1, and the word's dict keeps its order, so both
      buckets add the same products in the same order;
    - a stay leaves the running sum at (q_sum + (q_dec - q_old)) +
      (q_old - q_dec), the two roundings of a removal and a re-add;
    - a word whose count in the old topic is 1 keeps that entry at count 0
      during the draw, where it adds nothing and is never chosen, as if
      deleted; a stay moves it to the end of the word's dict, as a delete
      and re-insert would, since dict order is the scan order of later
      draws.
    A word bucket's scan adds the same products as its total, so it always
    stops inside the bucket. A uniform that a rounding step carries past
    the smoothing bucket's running total takes topic k - 1, the last one,
    which always has weight there.
    """
    v_beta = state.vocab_size * beta
    n_wk = state.n_wk
    n_k = state.n_k
    pos = 0
    for d, tokens in enumerate(state.doc_tokens):
        nd = state.n_dk[d]
        zs = state.z[d]
        qc = [(alpha + c) / (n + v_beta) for c, n in zip(nd, n_k)]
        q_sum = sum(qc)
        for i, w in enumerate(tokens):
            old = zs[i]
            nw = n_wk[w]
            c = nw[old]
            u = uniforms[pos]
            pos += 1
            q_old = qc[old]
            q_dec = (alpha + (nd[old] - 1)) / ((n_k[old] - 1) + v_beta)
            qc[old] = q_dec
            s = q_sum + (q_dec - q_old)
            if len(nw) == 1:
                w_sum = q_dec * (c - 1)
                r = u * (w_sum + beta * s)
                if r < w_sum:
                    qc[old] = q_old
                    q_sum = s + (q_old - q_dec)
                    continue
                nw[old] = c - 1
            else:
                nw[old] = c - 1  # put back below unless the token moves
                w_sum = 0.0
                for t, n in nw.items():
                    w_sum += qc[t] * n
                r = u * (w_sum + beta * s)
            if r < w_sum:
                acc = 0.0
                for new, n in nw.items():
                    acc += qc[new] * n
                    if r < acc:
                        break
            else:
                r = (r - w_sum) / beta
                acc = 0.0
                for new, q in enumerate(qc):
                    acc += q
                    if r < acc:
                        break

            if new == old:
                qc[old] = q_old
                q_sum = s + (q_old - q_dec)
                if c == 1:
                    del nw[old]
                nw[old] = c
                continue
            if c == 1:
                del nw[old]
            zs[i] = new
            nd[old] -= 1
            n_k[old] -= 1
            nd[new] += 1
            n_k[new] += 1
            nw[new] = nw.get(new, 0) + 1
            q = (alpha + nd[new]) / (n_k[new] + v_beta)
            q_sum = s + (q - qc[new])
            qc[new] = q


def log_joint(state, alpha, beta):
    """log p(w, z) of a sampler state, in closed form (Griffiths & Steyvers,
    PNAS 2004):

        k [lgamma(V beta) - V lgamma(beta)]
          + sum_k [sum_w lgamma(n_kw + beta) - lgamma(n_k + V beta)]
        + D [lgamma(k alpha) - k lgamma(alpha)]
          + sum_d [sum_k lgamma(n_dk + alpha) - lgamma(n_d + k alpha)]

    A zero count's lgamma(beta) or lgamma(alpha) cancels against the
    constant terms, so only nonzero counts are visited.
    """
    lgamma = math.lgamma
    k, v_beta, k_alpha = state.k, state.vocab_size * beta, state.k * alpha
    lg_alpha, lg_beta = lgamma(alpha), lgamma(beta)
    total = k * lgamma(v_beta) + len(state.doc_ids) * lgamma(k_alpha)
    total -= sum(lgamma(n + v_beta) for n in state.n_k)
    total += sum(lgamma(c + beta) - lg_beta for row in state.n_wk for c in row.values())
    for row, tokens in zip(state.n_dk, state.doc_tokens):
        total += sum(lgamma(c + alpha) - lg_alpha for c in row if c) - lgamma(len(tokens) + k_alpha)
    return total


def _smoothed_rows(counts, prior):
    counts = np.asarray(counts, dtype=np.float64)
    smoothed = counts + prior
    return smoothed / smoothed.sum(axis=1, keepdims=True)


def train(corpus, hyper, words):
    """Run collapsed Gibbs sampling and return the point-estimate model.

    corpus is a list of BowDocument whose word ids index into words, the
    lexicographic word list the bags were built against.
    """
    if not corpus:
        raise ValueError("corpus must be nonempty")
    words = tuple(words)
    vocab_size = len(words)
    if vocab_size == 0:
        raise ValueError("words must be nonempty")
    alpha = hyper.effective_alpha
    beta = hyper.beta_prior

    rng = np.random.default_rng(hyper.seed)
    state = gibbs_init(corpus, hyper.k, vocab_size, rng)
    total_tokens = sum(len(t) for t in state.doc_tokens)

    for _ in range(hyper.n_iters):
        gibbs_sweep(state, alpha, beta, rng.random(total_tokens).tolist())

    phi = _smoothed_rows(state.dense_n_kw(), beta)
    thetas = _smoothed_rows(state.n_dk, alpha)
    return LdaModel(
        vocab_size=vocab_size,
        k=hyper.k,
        phi=phi,
        hyper=hyper,
        doc_thetas={doc_id: thetas[d].copy() for d, doc_id in enumerate(state.doc_ids)},
        words=words,
    )


def fold_in(lik, n, alpha, max_iters):
    """Topic responsibilities of one document's distinct words, phi frozen.

    Zero-order collapsed variational Bayes (CVB0; Asuncion, Welling, Smyth &
    Teh, UAI 2009): the Gibbs conditional (n_dk + alpha) * phi_kw taken in
    expectation. lik is (W, k), row w holding phi[:, w] for the document's
    w-th distinct word, and n is (W, 1), that word's count. Starting from
    gamma_w proportional to lik_w, every word is updated at once,

        gamma_wk proportional to (max(N_k - gamma_wk, 0) + alpha) * lik_wk,
        N_k = sum_w n_w gamma_wk,

    until an iteration moves no entry of gamma by more than _FOLD_IN_TOL,
    whose iterate is returned, or for max_iters iterations. Only elementwise
    operations and reductions run (no BLAS call), so the bits do not depend
    on the BLAS thread count. Returns gamma, (W, k) with rows on the simplex.
    """
    # Each row is scaled to a maximum of 1, so an updated row sums to at
    # least alpha. A word that no topic emits (an all-zero column of a
    # loaded phi) gets a flat likelihood: it follows the other words.
    top = lik.max(axis=1, keepdims=True)
    lik = np.divide(lik, top, out=np.ones_like(lik), where=top > 0)
    gamma = lik / lik.sum(axis=1, keepdims=True)
    step = np.empty_like(gamma)
    for _ in range(max_iters):
        new = (gamma * n).sum(axis=0) - gamma
        np.maximum(new, 0.0, out=new)
        new += alpha
        new *= lik
        new /= new.sum(axis=1, keepdims=True)
        np.subtract(new, gamma, out=step)  # |step| <= tol without an abs() pass
        if step.max() <= _FOLD_IN_TOL and step.min() >= -_FOLD_IN_TOL:
            return new
        gamma = new
    return gamma


def infer(bow, model, seed=0):
    """Fold-in inference: the topic distribution of an unseen document.

    Runs fold_in, capped at hyper.infer_iters iterations, and returns
    (N + alpha) / (n + k alpha), N_k = sum_w n_w gamma_wk, the smoothed
    theta of the Gibbs point estimate with expected counts in place of
    sampled ones (sums to 1). The result is deterministic: seed is accepted
    and ignored, because perfbench/stages.py still passes it.
    """
    if not bow.counts:
        raise EmptyDocument(f"doc {bow.doc_id!r} has no in-vocabulary tokens")
    word_ids = sorted(bow.counts)
    n = np.array([bow.counts[w] for w in word_ids], dtype=np.float64)[:, None]
    alpha = model.hyper.effective_alpha
    gamma = fold_in(model.phi[:, word_ids].T, n, alpha, model.hyper.infer_iters)
    return ((gamma * n).sum(axis=0) + alpha) / (n.sum() + model.k * alpha)


def perplexity(corpus, model):
    """Corpus perplexity exp(-mean log p(w|d)) with theta from fold-in inference.

    p(w|d) = sum_k theta_dk * phi_kw. Lower is better; a uniform-phi model
    scores exactly vocab_size.
    """
    if not corpus:
        raise ValueError("corpus must be nonempty")
    total_log = 0.0
    total_tokens = 0
    for bow in sorted(corpus, key=lambda b: b.doc_id):
        theta = infer(bow, model)
        word_ids = np.fromiter(sorted(bow.counts), dtype=np.int64)
        counts = np.asarray([bow.counts[w] for w in sorted(bow.counts)], dtype=np.float64)
        p_w = theta @ model.phi[:, word_ids]
        total_log += float(np.log(p_w) @ counts)
        total_tokens += int(counts.sum())
    return float(np.exp(-total_log / total_tokens))


def top_words(model, topic, n):
    """The n most probable words of a topic, ties broken lexicographically."""
    if not 0 <= topic < model.k:
        raise IndexError(f"topic {topic} outside [0, {model.k})")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    row = model.phi[topic]
    order = sorted(range(model.vocab_size), key=lambda w: (-row[w], model.words[w]))
    return [(model.words[w], float(row[w])) for w in order[:n]]


def doc_theta(model, doc):
    """Topic distribution of a corpus document: the stored training theta, else
    fold-in inference over its text. None when the document has neither a
    stored theta nor an in-vocabulary token."""
    theta = model.doc_thetas.get(doc.doc_id)
    if theta is not None:
        return theta
    counts = corpus_mod.text_to_counts(doc.text, model.word_index)
    if not counts:
        return None
    return infer(corpus_mod.BowDocument(doc_id=doc.doc_id, counts=counts), model)


def _distribution_rows_error(name, rows):
    """Why rows is not a stack of distributions, or None if it is."""
    if not finite_non_negative(rows):
        return f"{name} rows must be finite and non-negative"
    if rows.size and np.abs(rows.sum(axis=1) - 1.0).max() > ROW_SUM_TOLERANCE:
        return f"{name} rows must sum to 1 within {ROW_SUM_TOLERANCE}"
    return None


def save_model(model, path):
    """Serialize a model as a tensor container: phi (k, V), then thetas
    (n_docs, k) in the header's sorted doc_ids order. Rows that load_model
    would refuse (not finite, negative, or not summing to 1) raise DataError."""
    doc_ids = sorted(model.doc_thetas)
    thetas = np.array([model.doc_thetas[d] for d in doc_ids], dtype=np.float64).reshape(len(doc_ids), model.k)
    error = _distribution_rows_error("phi", np.asarray(model.phi)) or _distribution_rows_error("theta", thetas)
    if error:
        raise DataError(f"refusing to save the model: {error}")
    header = {
        "hyper": asdict(model.hyper),
        "words": list(model.words),
        "word_list_hash": model.word_list_hash(),
        "doc_ids": doc_ids,
    }
    write_tensor_file(path, MAGIC_LDA, header, [model.phi, thetas])


def load_model(path):
    header, arrays = read_tensor_file(path, MAGIC_LDA)
    words = tuple(string_list(header, "words"))
    doc_ids = string_list(header, "doc_ids")
    try:
        hyper = LdaHyperparams(**header["hyper"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptFile(f"{path}: invalid model header: {exc}")
    if any(type(getattr(hyper, name)) is not int for name in ("k", "n_iters", "infer_iters", "seed")):
        raise CorruptFile(f"{path}: model header k, n_iters, infer_iters and seed must be integers")
    # An int past the float range would fail only once folding in converts it.
    priors = [hyper.beta_prior] if hyper.alpha is None else [hyper.alpha, hyper.beta_prior]
    if not all(map(is_number, priors)):
        raise CorruptFile(f"{path}: model header alpha (or null) and beta_prior must be finite numbers")
    if len(arrays) != 2 or arrays[0].ndim != 2 or arrays[0].shape[1] != len(words) or not arrays[0].size:
        raise CorruptFile(f"{path}: phi is not a nonempty (k, V) matrix over the header word list")
    phi, thetas = arrays
    k = phi.shape[0]
    if hyper.k != k:
        raise CorruptFile(f"{path}: model header k={hyper.k} but phi has {k} rows")
    if thetas.shape != (len(doc_ids), k) or len(set(doc_ids)) != len(doc_ids):
        raise CorruptFile(f"{path}: thetas do not match the header doc ids")
    error = _distribution_rows_error("phi", phi) or _distribution_rows_error("theta", thetas)
    if error:
        raise CorruptFile(f"{path}: {error}")
    model = LdaModel(
        vocab_size=len(words),
        k=k,
        phi=phi,
        hyper=hyper,
        doc_thetas=dict(zip(doc_ids, thetas)),
        words=words,
    )
    if header.get("word_list_hash") != model.word_list_hash():
        raise CorruptFile(f"{path}: word list hash mismatch")
    return model
