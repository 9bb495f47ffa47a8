"""Collapsed Gibbs LDA: planted recovery, invariants, oracles, file format."""

from __future__ import annotations

import collections
import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttn import lda as L
from ttn.corpus import BowDocument, RawDocument
from ttn.errors import CorruptFile, DataError, EmptyDocument, FormatVersionMismatch
from ttn.fileio import MAGIC_LDA, read_tensor_file, write_tensor_file

WORDS8 = tuple("abcdefgh"[i] * 3 for i in range(8))  # aaa, bbb, ...


def _planted_corpus(n_docs=20, tokens_per_doc=20, seed=0):
    """Two disjoint word blocks; even docs draw from 0..3, odd docs from 4..7."""
    rng = np.random.default_rng(seed)
    bows = []
    for d in range(n_docs):
        base = 0 if d % 2 == 0 else 4
        ids, counts = np.unique(
            rng.integers(base, base + 4, size=tokens_per_doc), return_counts=True
        )
        bows.append(BowDocument(f"doc{d:03d}", {int(i): int(c) for i, c in zip(ids, counts)}))
    return bows


@pytest.fixture(scope="module")
def planted_model():
    bows = _planted_corpus()
    hyper = L.LdaHyperparams(k=2, alpha=0.1, beta_prior=0.01, n_iters=200, seed=1)
    return bows, L.train(bows, hyper, WORDS8)


# ------------------------------------------------------------------ hyperparams

def test_hyperparam_defaults():
    hyper = L.LdaHyperparams()
    assert hyper.k == 40
    assert hyper.effective_alpha == pytest.approx(50.0 / 40.0)
    assert hyper.beta_prior == 0.01
    assert hyper.n_iters == 200


def test_hyperparam_alpha_tracks_k():
    assert L.LdaHyperparams(k=10).effective_alpha == pytest.approx(5.0)
    assert L.LdaHyperparams(k=10, alpha=0.5).effective_alpha == 0.5


def test_hyperparam_validation():
    with pytest.raises(ValueError):
        L.LdaHyperparams(k=0)
    with pytest.raises(ValueError):
        L.LdaHyperparams(alpha=0.0)
    with pytest.raises(ValueError):
        L.LdaHyperparams(beta_prior=-1.0)
    with pytest.raises(ValueError):
        L.LdaHyperparams(n_iters=-1)


@pytest.mark.parametrize("field", ["alpha", "beta_prior"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_hyperparam_priors_must_be_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        L.LdaHyperparams(**{field: value})


# -------------------------------------------------------------------- sampler

def _recounted(state):
    """A GibbsState's n_dk, n_wk and n_k, rebuilt from its assignments z."""
    n_dk = [[0] * state.k for _ in state.doc_ids]
    n_wk = [{} for _ in range(state.vocab_size)]
    n_k = [0] * state.k
    for d, (tokens, zs) in enumerate(zip(state.doc_tokens, state.z)):
        for w, topic in zip(tokens, zs):
            n_dk[d][topic] += 1
            n_wk[w][topic] = n_wk[w].get(topic, 0) + 1
            n_k[topic] += 1
    return n_dk, n_wk, n_k


def _counts_consistent(state):
    return _recounted(state) == (state.n_dk, state.n_wk, state.n_k)


def test_gibbs_init_counts_consistent():
    bows = _planted_corpus(n_docs=6)
    state = L.gibbs_init(bows, k=3, vocab_size=8, rng=np.random.default_rng(0))
    assert _counts_consistent(state)
    assert sum(state.n_k) == sum(len(t) for t in state.doc_tokens)


def test_gibbs_sweep_preserves_counts():
    bows = _planted_corpus(n_docs=6)
    rng = np.random.default_rng(0)
    state = L.gibbs_init(bows, k=3, vocab_size=8, rng=rng)
    total = sum(len(t) for t in state.doc_tokens)
    for _ in range(5):
        L.gibbs_sweep(state, alpha=0.5, beta=0.01, uniforms=rng.random(total).tolist())
        assert _counts_consistent(state)


def test_gibbs_init_rejects_empty_doc():
    with pytest.raises(EmptyDocument):
        L.gibbs_init([BowDocument("d", {})], k=2, vocab_size=8, rng=np.random.default_rng(0))


def test_docs_processed_in_sorted_id_order():
    bows = _planted_corpus(n_docs=4)
    state_fwd = L.gibbs_init(bows, k=2, vocab_size=8, rng=np.random.default_rng(9))
    state_rev = L.gibbs_init(bows[::-1], k=2, vocab_size=8, rng=np.random.default_rng(9))
    assert state_fwd.doc_ids == state_rev.doc_ids
    assert state_fwd.z == state_rev.z  # input order must not matter


# ------------------------------------------------- exact draws and log-joint

GRID = 4096  # uniforms stepped over this many evenly spaced points


def _dense_reference_sweep(state, alpha, beta, uniforms):
    """The textbook sampler, kept as the reference: the full conditional over
    every topic for every token, scanned in topic order."""
    k, v_beta, n_k = state.k, state.vocab_size * beta, state.n_k
    pos = 0
    for d, tokens in enumerate(state.doc_tokens):
        nd, zs = state.n_dk[d], state.z[d]
        for i, w in enumerate(tokens):
            old, nw = zs[i], state.n_wk[w]
            nd[old] -= 1
            n_k[old] -= 1
            nw[old] -= 1
            if not nw[old]:
                del nw[old]
            probs = [(nd[t] + alpha) * (nw.get(t, 0) + beta) / (n_k[t] + v_beta) for t in range(k)]
            r = uniforms[pos] * sum(probs)
            pos += 1
            new, acc = k - 1, 0.0
            for t, p in enumerate(probs):
                acc += p
                if r < acc:
                    new = t
                    break
            zs[i] = new
            nd[new] += 1
            n_k[new] += 1
            nw[new] = nw.get(new, 0) + 1


def _remove_then_draw_sweep(state, alpha, beta, uniforms):
    """The two-bucket sampler as it was before draws stopped writing the
    count tables on a stay, kept as the reference: every token is removed
    from the counts, drawn, and added back."""
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
            nd[old] -= 1
            n_k[old] -= 1
            c = nw[old] - 1
            if c:
                nw[old] = c
            else:
                del nw[old]
            q = (alpha + nd[old]) / (n_k[old] + v_beta)
            q_sum += q - qc[old]
            qc[old] = q

            w_sum = 0.0
            for t, c in nw.items():
                w_sum += qc[t] * c
            r = uniforms[pos] * (w_sum + beta * q_sum)
            pos += 1
            # If rounding carries r past a bucket's scanned total, its scan
            # ends on its last topic, which has weight in that bucket.
            if r < w_sum:
                acc = 0.0
                for new, c in nw.items():
                    acc += qc[new] * c
                    if r < acc:
                        break
            else:
                r = (r - w_sum) / beta
                acc = 0.0
                for new, q in enumerate(qc):
                    acc += q
                    if r < acc:
                        break

            zs[i] = new
            nd[new] += 1
            n_k[new] += 1
            nw[new] = nw.get(new, 0) + 1
            q = (alpha + nd[new]) / (n_k[new] + v_beta)
            q_sum += q - qc[new]
            qc[new] = q


def _ordered_state(state):
    """Everything a later sweep reads, dict order included (_counts_consistent
    compares dicts with ==, which ignores order)."""
    return state.z, state.n_dk, state.n_k, [list(row.items()) for row in state.n_wk]


def _recording_uniforms(uniforms, totals):
    """uniforms as floats that append to totals the weight each draw scales
    them by, so a rounding difference shows even where no draw flips."""

    class Uniform(float):
        def __mul__(self, total):
            totals.append(total)
            return float(self) * total

    return [Uniform(u) for u in uniforms]


@pytest.mark.parametrize("k", [1, 3, 40])
@pytest.mark.parametrize("alpha, beta", [(0.1, 0.01), (0.1, 0.5), (1.25, 0.01), (1.25, 0.5)])
def test_gibbs_sweep_matches_remove_then_draw_reference(k, alpha, beta):
    """Bit for bit, sweep by sweep, and every seventh uniform at the top of
    [0, 1), where a bucket's running sum can fall a rounding step short:
    the same assignments, counts and dict order, and every draw's total
    weight equal to the last bit. Each document ends on a word seen once in
    the corpus, so its count is 1 wherever it sits and its draw's total is
    beta times the running sum left by the document's other tokens."""
    rng = np.random.default_rng(k)
    bows = []
    for d in range(12):
        words, counts = np.unique(rng.integers(0, 24, 14), return_counts=True)
        bows.append(BowDocument(f"d{d:02d}", {**dict(zip(words.tolist(), counts.tolist())), 24 + d: 1}))
    state = L.gibbs_init(bows, k=k, vocab_size=36, rng=rng)
    reference = copy.deepcopy(state)
    total = sum(len(t) for t in state.doc_tokens)
    for _ in range(10):
        uniforms = rng.random(total)
        uniforms[::7] = np.nextafter(1.0, 0.0)
        totals, reference_totals = [], []
        L.gibbs_sweep(state, alpha, beta, _recording_uniforms(uniforms, totals))
        _remove_then_draw_sweep(reference, alpha, beta, _recording_uniforms(uniforms, reference_totals))
        assert _ordered_state(state) == _ordered_state(reference)
        assert len(totals) == total and totals == reference_totals


def _grid_shares(draw, k):
    hits = np.zeros(k)
    for j in range(GRID):
        hits[draw((j + 0.5) / GRID)] += 1
    return hits / GRID


def _swept_state(first_doc, k, alpha, beta):
    """A state three sweeps past its random start whose first sorted
    document is first_doc, and uniforms for one more sweep."""
    bows = [BowDocument("a-first", first_doc)] + _planted_corpus(n_docs=6, tokens_per_doc=12)
    rng = np.random.default_rng(3)
    state = L.gibbs_init(bows, k=k, vocab_size=8, rng=rng)
    total = sum(len(t) for t in state.doc_tokens)
    for _ in range(3):
        L.gibbs_sweep(state, alpha, beta, rng.random(total).tolist())
    return state, rng.random(total).tolist()


def _first_token_draw(state, alpha, beta, rest):
    def draw(u):
        trial = copy.deepcopy(state)
        L.gibbs_sweep(trial, alpha, beta, [u] + rest[1:])
        assert _counts_consistent(trial)
        return trial.z[0][0]
    return draw


@pytest.mark.parametrize(
    "first_doc, beta",
    [({2: 1}, 0.01), ({2: 1}, 0.5), ({2: 2, 5: 1, 6: 1}, 0.3)],
    ids=["one-token", "one-token-heavy-smoothing", "four-tokens"],
)
def test_gibbs_draw_matches_dense_conditional(first_doc, beta):
    k, alpha = 5, 0.4
    state, rest = _swept_state(first_doc, k, alpha, beta)
    w, old = state.doc_tokens[0][0], state.z[0][0]
    n_dk, n_k = list(state.n_dk[0]), list(state.n_k)
    n_kw = [state.n_wk[w].get(t, 0) for t in range(k)]
    for counts in (n_dk, n_k, n_kw):
        counts[old] -= 1
    dense = np.array([(n_dk[t] + alpha) * (n_kw[t] + beta) / (n_k[t] + 8 * beta) for t in range(k)])
    shares = _grid_shares(_first_token_draw(state, alpha, beta, rest), k)
    np.testing.assert_allclose(shares, dense / dense.sum(), rtol=0, atol=2 / GRID)


def test_bucket_edges_never_draw_zero_weight_topic():
    """Uniforms at the top of the range, where a running sum may fall a
    rounding step short of the total, must still land on a topic."""
    state, rest = _swept_state({2: 1}, 5, 0.4, 0.01)
    draw = _first_token_draw(state, 0.4, 0.01, rest)
    for u in (1.0, np.nextafter(1.0, 0.0), 0.0):
        assert 0 <= draw(u) < 5


def test_log_joint_matches_dense_formula():
    k, alpha, beta = 3, 0.3, 0.05
    state, _ = _swept_state({2: 2, 5: 1}, k, alpha, beta)
    n_kw = state.dense_n_kw()
    n_dk = np.array(state.n_dk, dtype=np.float64)
    v, n_docs = state.vocab_size, len(state.doc_ids)
    lg = np.vectorize(math.lgamma)
    expected = (
        k * (math.lgamma(v * beta) - v * math.lgamma(beta))
        + float(lg(n_kw + beta).sum() - lg(n_kw.sum(axis=1) + v * beta).sum())
        + n_docs * (math.lgamma(k * alpha) - k * math.lgamma(alpha))
        + float(lg(n_dk + alpha).sum() - lg(n_dk.sum(axis=1) + k * alpha).sum())
    )
    assert L.log_joint(state, alpha, beta) == pytest.approx(expected, rel=1e-12)


def test_sparse_sweep_settles_with_dense_reference():
    """Both samplers climb from the random start and settle at the same
    log-joint. Settled means differ by 13-22 nats between seeds, so the
    8-seed means carry a standard error of about 6 nats; they must agree
    within 10 nats (under 1.5% of the settled value, about -695)."""
    bows = _planted_corpus()
    k, alpha, beta, sweeps, settle = 4, 0.1, 0.01, 100, 20
    settled = {}
    for name, sweep in (("sparse", L.gibbs_sweep), ("dense", _dense_reference_sweep)):
        means = []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            state = L.gibbs_init(bows, k=k, vocab_size=8, rng=rng)
            start = L.log_joint(state, alpha, beta)
            trace = []
            for _ in range(sweeps):
                sweep(state, alpha, beta, rng.random(400).tolist())
                trace.append(L.log_joint(state, alpha, beta))
            means.append(float(np.mean(trace[settle:])))
            assert means[-1] > start + 500, (name, seed)
        settled[name] = float(np.mean(means))
    assert abs(settled["sparse"] - settled["dense"]) < 10, settled


# ------------------------------------------------------------------- recovery

def test_planted_topics_recovered(planted_model):
    bows, model = planted_model
    # Each inferred topic's top words must come from a single planted block.
    tops = [{w for w, _ in L.top_words(model, t, 4)} for t in range(2)]
    blocks = [set(WORDS8[:4]), set(WORDS8[4:])]
    assert (tops[0] in blocks) and (tops[1] in blocks) and tops[0] != tops[1]


def test_planted_thetas_separate_docs(planted_model):
    bows, model = planted_model
    argmaxes = {d: int(np.argmax(model.doc_thetas[f"doc{d:03d}"])) for d in range(20)}
    evens = {argmaxes[d] for d in range(0, 20, 2)}
    odds = {argmaxes[d] for d in range(1, 20, 2)}
    assert len(evens) == 1 and len(odds) == 1 and evens != odds
    for theta in model.doc_thetas.values():
        assert theta.max() >= 0.9


def test_single_doc_high_alpha_theta_near_uniform():
    bow = BowDocument("solo", {0: 2, 5: 2})
    hyper = L.LdaHyperparams(k=2, alpha=50.0, n_iters=20, seed=0)
    model = L.train([bow], hyper, WORDS8)
    theta = model.doc_thetas["solo"]
    # theta = (n_dk + 50) / (4 + 100), n_dk <= 4, so both entries sit near 0.5.
    assert np.all(np.abs(theta - 0.5) <= 4.0 / 104.0 + 1e-12)


# ---------------------------------------------------------------------- infer

def test_infer_matches_planted_topic(planted_model):
    bows, model = planted_model
    block0_topic = int(np.argmax(model.phi[:, 0]))  # topic owning word "aaa"
    theta = L.infer(BowDocument("q", {0: 3, 1: 2}), model)
    assert int(np.argmax(theta)) == block0_topic
    assert theta.sum() == pytest.approx(1.0)


def test_infer_deterministic(planted_model):
    _, model = planted_model
    bow = BowDocument("q", {2: 1, 6: 2})
    a = L.infer(bow, model)
    b = L.infer(bow, model)
    assert np.array_equal(a, b)


def test_infer_single_word_follows_phi(planted_model):
    _, model = planted_model
    for word_id in (0, 7):
        theta = L.infer(BowDocument("q", {word_id: 1}), model)
        assert int(np.argmax(theta)) == int(np.argmax(model.phi[:, word_id]))


def test_infer_rejects_empty():
    hyper = L.LdaHyperparams(k=2, n_iters=2, seed=0)
    model = L.train(_planted_corpus(4), hyper, WORDS8)
    with pytest.raises(EmptyDocument):
        L.infer(BowDocument("q", {}), model)


def test_infer_ignores_seed(planted_model):
    _, model = planted_model
    bow = BowDocument("q", {0: 2, 3: 1, 6: 1})
    expected = L.infer(bow, model).tobytes()
    assert all(L.infer(bow, model, seed=seed).tobytes() == expected for seed in (0, 1, 7, 2**40))


FOLD_IN_COUNTS = {0: 3, 1: 1, 2: 2, 4: 1, 6: 3, 7: 2}


def _random_phi(seed, k=5):
    return np.random.default_rng(seed).dirichlet(np.ones(8), size=k)


def _fold_in_theta(phi, counts, alpha, max_iters=1000):
    word_ids = sorted(counts)
    n = np.array([[counts[w]] for w in word_ids], dtype=np.float64)
    gamma = L.fold_in(phi[:, word_ids].T, n, alpha, max_iters)
    return gamma, n, ((gamma * n).sum(axis=0) + alpha) / (n.sum() + phi.shape[0] * alpha)


@pytest.mark.parametrize("alpha", [0.1, 1.25])
@pytest.mark.parametrize("phi_seed", [100, 101, 102])
def test_fold_in_satisfies_its_update(alpha, phi_seed):
    phi = _random_phi(phi_seed)
    gamma, n, theta = _fold_in_theta(phi, FOLD_IN_COUNTS, alpha)
    expected = (np.maximum((gamma * n).sum(axis=0) - gamma, 0.0) + alpha) * phi[:, sorted(FOLD_IN_COUNTS)].T
    expected /= expected.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(gamma, expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gamma.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert theta.sum() == pytest.approx(1.0, abs=1e-12)


def test_topic_that_emits_no_document_word_gets_only_the_prior():
    k, alpha = 5, 0.5
    phi = _random_phi(7, k)
    phi[2, sorted(FOLD_IN_COUNTS)] = 0.0
    phi[2, [3, 5]] = 0.5
    hyper = L.LdaHyperparams(k=k, alpha=alpha, n_iters=1, seed=0)
    five = L.LdaModel(vocab_size=8, k=k, phi=phi, hyper=hyper, doc_thetas={}, words=WORDS8)
    theta = L.infer(BowDocument("q", FOLD_IN_COUNTS), five)
    n = sum(FOLD_IN_COUNTS.values())
    assert theta[2] == alpha / (n + k * alpha)
    assert np.all(np.delete(theta, 2) > alpha / (n + k * alpha))


def test_word_no_topic_emits_folds_in_to_a_distribution(tmp_path):
    """A loaded phi may hold an all-zero column; such a word carries no
    evidence, so alone it gives the uniform theta and beside other words
    it leaves their argmax in place."""
    phi = _random_phi(8, 4)
    phi[:, 5] = 0.0
    phi /= phi.sum(axis=1, keepdims=True)
    hyper = L.LdaHyperparams(k=4, alpha=0.5, n_iters=1, seed=0)
    path = str(tmp_path / "zero-column.lda")
    L.save_model(L.LdaModel(vocab_size=8, k=4, phi=phi, hyper=hyper, doc_thetas={}, words=WORDS8), path)
    model = L.load_model(path)
    alone = L.infer(BowDocument("q", {5: 2}), model)
    np.testing.assert_allclose(alone, 0.25, rtol=0, atol=1e-15)
    mixed = L.infer(BowDocument("q", {0: 4, 5: 1}), model)
    assert np.all(np.isfinite(mixed)) and mixed.sum() == pytest.approx(1.0, abs=1e-12)
    assert int(np.argmax(mixed)) == int(np.argmax(L.infer(BowDocument("q", {0: 4}), model)))


def _gibbs_fold_in_mean(phi, counts, alpha, chains=10, sweeps=220, burn_in=20, seed=0):
    """Reference: theta averaged over the post-burn-in sweeps of plain
    Gibbs fold-in chains, each token drawn from the dense conditional."""
    rng = np.random.default_rng(seed)
    k = phi.shape[0]
    tokens = [w for w in sorted(counts) for _ in range(counts[w])]
    total = np.zeros(k)
    for _ in range(chains):
        z = rng.integers(k, size=len(tokens))
        nd = np.bincount(z, minlength=k).astype(np.float64)
        for sweep in range(sweeps):
            for i, w in enumerate(tokens):
                nd[z[i]] -= 1
                cum = np.cumsum((nd + alpha) * phi[:, w])
                z[i] = np.searchsorted(cum, rng.random() * cum[-1], side="right")
                nd[z[i]] += 1
            if sweep >= burn_in:
                total += nd
    mean_counts = total / (chains * (sweeps - burn_in))
    return (mean_counts + alpha) / (len(tokens) + k * alpha)


# KL(Gibbs mean || CVB0) measured over phi seeds 100-102 and reference seeds
# 0-3: 2e-5 to 1.2e-3 nats at alpha 1.25, where the references of seeds 0
# and 1 differ from each other by 2e-5 to 7e-5; 3e-3 to 7.6e-2 at alpha 0.1,
# where a 12-token document's posterior is far from the factored form CVB0
# assumes. A single iteration from the phi start scores 0.14-0.19 at alpha
# 0.1, the uniform theta 0.25-0.54.
@pytest.mark.parametrize("alpha, bound", [(0.1, 0.1), (1.25, 2e-3)])
@pytest.mark.parametrize("phi_seed", [100, 101, 102])
def test_fold_in_agrees_with_gibbs_reference(alpha, bound, phi_seed):
    phi = _random_phi(phi_seed)
    _, _, theta = _fold_in_theta(phi, FOLD_IN_COUNTS, alpha, max_iters=50)
    reference = _gibbs_fold_in_mean(phi, FOLD_IN_COUNTS, alpha)
    assert float(np.sum(reference * np.log(reference / theta))) < bound


def _mixed_topic_bows(seed, n_docs, prefix, n_planted=20, step=8, width=12, tokens=30):
    """Documents drawing 1-3 of n_planted topics each; topic t emits words
    [step t, step t + width), so neighbouring topics share width - step words."""
    rng = np.random.default_rng(seed)
    bows = []
    for i in range(n_docs):
        topics = rng.choice(n_planted, size=int(rng.integers(1, 4)), replace=False)
        counts = rng.multinomial(tokens, rng.dirichlet(np.ones(len(topics))))
        words = [w for t, c in zip(topics, counts) for w in rng.integers(t * step, t * step + width, size=c)]
        ids, cs = np.unique(words, return_counts=True)
        bows.append(BowDocument(f"{prefix}{i:03d}", dict(zip(ids.tolist(), cs.tolist()))))
    return bows, n_planted * step + width - step


def _fold_in_reference(lik, n, alpha, max_iters, tol=L._FOLD_IN_TOL):
    """fold_in's rule as a plain loop: the CVB0 update until no entry of gamma
    moves by more than tol, or max_iters times. Also says which ending it
    met: "tolerance" or "cap". With tol 0 it stops only at an exact fixed
    point, where every further iteration gives the same gamma."""
    top = lik.max(axis=1, keepdims=True)
    lik = np.divide(lik, top, out=np.ones_like(lik), where=top > 0)
    gamma = lik / lik.sum(axis=1, keepdims=True)
    for _ in range(max_iters):
        new = (gamma * n).sum(axis=0) - gamma
        np.maximum(new, 0.0, out=new)
        new += alpha
        new *= lik
        new /= new.sum(axis=1, keepdims=True)
        if np.abs(new - gamma).max() <= tol:
            return new, "tolerance"
        gamma = new
    return gamma, "cap"


@pytest.fixture(scope="module")
def mixed_k40_model():
    bows, vocab_size = _mixed_topic_bows(1, 100, "d")
    words = tuple(f"w{i:03d}" for i in range(vocab_size))
    return L.train(bows, L.LdaHyperparams(k=40, n_iters=10, seed=1), words)


def _heldout_cases(model):
    """(bow, lik, n) for 60 held-out documents of the mixed_k40_model corpus."""
    heldout, _ = _mixed_topic_bows(101, 60, "h")
    for bow in heldout:
        word_ids = sorted(bow.counts)
        yield bow, model.phi[:, word_ids].T, np.array([[bow.counts[w]] for w in word_ids], dtype=np.float64)


@pytest.mark.parametrize("max_iters", [49, 50])
def test_fold_in_equals_reference_loop(mixed_k40_model, max_iters):
    """Held-out documents folded into a K=40 model: gamma is bit-identical
    to the reference loop's, and both endings occur: the tolerance and the
    cap."""
    alpha = mixed_k40_model.hyper.effective_alpha
    endings = collections.Counter()
    for bow, lik, n in _heldout_cases(mixed_k40_model):
        expected, ending = _fold_in_reference(lik, n, alpha, max_iters)
        assert L.fold_in(lik, n, alpha, max_iters).tobytes() == expected.tobytes(), (bow.doc_id, ending)
        endings[ending] += 1
    assert set(endings) == {"tolerance", "cap"}, endings


# Measured: 59 of the 60 documents stop on the tolerance, and their thetas
# are within 9.0e-15 of the 2000-iteration runs'.
def test_fold_in_theta_close_to_long_run(mixed_k40_model):
    """Every held-out document whose fold-in stops on the tolerance within
    infer_iters gets a theta within 2e-14 of a 2000-iteration run's."""
    alpha = mixed_k40_model.hyper.effective_alpha
    stopped = 0
    for bow, lik, n in _heldout_cases(mixed_k40_model):
        if _fold_in_reference(lik, n, alpha, mixed_k40_model.hyper.infer_iters)[1] != "tolerance":
            continue
        stopped += 1
        limit, _ = _fold_in_reference(lik, n, alpha, 2000, tol=0.0)
        expected = ((limit * n).sum(axis=0) + alpha) / (n.sum() + mixed_k40_model.k * alpha)
        np.testing.assert_allclose(L.infer(bow, mixed_k40_model), expected, rtol=0, atol=2e-14, err_msg=bow.doc_id)
    assert stopped >= 50


# ----------------------------------------------------------------- perplexity

def _uniform_model(k, vocab_size, words):
    phi = np.full((k, vocab_size), 1.0 / vocab_size)
    hyper = L.LdaHyperparams(k=k, alpha=1.0, n_iters=1, infer_iters=2, seed=0)
    return L.LdaModel(
        vocab_size=vocab_size, k=k, phi=phi, hyper=hyper, doc_thetas={}, words=words
    )


def test_perplexity_uniform_phi_equals_vocab_size():
    bows = _planted_corpus(n_docs=8)
    for k in (1, 2, 5):
        model = _uniform_model(k, 8, WORDS8)
        assert L.perplexity(bows, model) == pytest.approx(8.0, rel=1e-9)


def test_perplexity_k1_matches_unigram_oracle():
    bows = _planted_corpus(n_docs=10, seed=3)
    hyper = L.LdaHyperparams(k=1, alpha=1.0, n_iters=3, seed=0)
    model = L.train(bows, hyper, WORDS8)

    counts = np.zeros(8)
    for bow in bows:
        for w, c in bow.counts.items():
            counts[w] += c
    unigram = (counts + hyper.beta_prior) / (counts.sum() + 8 * hyper.beta_prior)
    log_lik = sum(
        c * math.log(unigram[w]) for bow in bows for w, c in bow.counts.items()
    )
    expected = math.exp(-log_lik / counts.sum())
    assert L.perplexity(bows, model) == pytest.approx(expected, rel=1e-12)


def test_trained_model_beats_uniform(planted_model):
    bows, model = planted_model
    uniform = _uniform_model(2, 8, WORDS8)
    assert L.perplexity(bows, model) < L.perplexity(bows, uniform)


# ------------------------------------------------------------------ top_words

def test_top_words_breaks_ties_lexicographically():
    phi = np.array([[0.25, 0.25, 0.25, 0.25]])
    hyper = L.LdaHyperparams(k=1, n_iters=1, seed=0)
    model = L.LdaModel(
        vocab_size=4, k=1, phi=phi, hyper=hyper, doc_thetas={}, words=("dd", "cc", "bb", "aa")
    )
    assert [w for w, _ in L.top_words(model, 0, 3)] == ["aa", "bb", "cc"]


def test_top_words_bad_topic(planted_model):
    _, model = planted_model
    with pytest.raises(IndexError):
        L.top_words(model, 2, 3)


# --------------------------------------------------------------- file format

def test_model_roundtrip(tmp_path, planted_model):
    _, model = planted_model
    path = tmp_path / "model.lda"
    L.save_model(model, str(path))
    loaded = L.load_model(str(path))
    assert loaded.k == model.k and loaded.vocab_size == model.vocab_size
    assert loaded.words == model.words
    assert loaded.hyper == model.hyper
    assert np.array_equal(loaded.phi, model.phi)
    assert set(loaded.doc_thetas) == set(model.doc_thetas)
    for doc_id, theta in model.doc_thetas.items():
        assert np.array_equal(loaded.doc_thetas[doc_id], theta)
    assert loaded.content_hash() == model.content_hash()


def test_model_roundtrip_without_docs(tmp_path, planted_model):
    _, model = planted_model
    bare = L.LdaModel(
        vocab_size=model.vocab_size, k=model.k, phi=model.phi, hyper=model.hyper,
        doc_thetas={}, words=model.words,
    )
    path = str(tmp_path / "bare.lda")
    L.save_model(bare, path)
    loaded = L.load_model(path)
    assert loaded.doc_thetas == {}
    assert loaded.phi.tobytes() == model.phi.tobytes()
    assert loaded.content_hash() == model.content_hash()


def test_word_index_cached_after_load(tmp_path, planted_model):
    _, model = planted_model
    path = str(tmp_path / "model.lda")
    L.save_model(model, path)
    loaded = L.load_model(path)
    index = loaded.word_index
    assert loaded.word_index is index
    assert index == {w: i for i, w in enumerate(loaded.words)}


@pytest.mark.parametrize(
    "tensor, value, message",
    [
        (0, math.nan, "finite and non-negative"),
        (0, -0.25, "finite and non-negative"),
        (0, math.inf, "finite and non-negative"),
        (0, 0.5, "sum to 1"),
        (1, math.nan, "finite and non-negative"),
        (1, 0.0, "sum to 1"),
    ],
    ids=["phi-nan", "phi-negative", "phi-inf", "phi-sum", "theta-nan", "theta-sum"],
)
def test_model_rows_must_be_distributions(tmp_path, planted_model, tensor, value, message):
    _, model = planted_model
    path = str(tmp_path / "model.lda")
    L.save_model(model, path)
    header, arrays = read_tensor_file(path, MAGIC_LDA)
    del header["shapes"]
    arrays[tensor][0, 0] = value
    write_tensor_file(path, MAGIC_LDA, header, arrays)
    with pytest.raises(CorruptFile, match=message):
        L.load_model(path)
    bad = L.LdaModel(
        vocab_size=model.vocab_size, k=model.k, phi=arrays[0], hyper=model.hyper,
        doc_thetas=dict(zip(header["doc_ids"], arrays[1])), words=model.words,
    )
    with pytest.raises(DataError, match=message):
        L.save_model(bad, str(tmp_path / "refused.lda"))
    assert not (tmp_path / "refused.lda").exists()


def test_doc_theta_stored_inferred_or_none(planted_model):
    _, model = planted_model
    stored = RawDocument(doc_id="doc000", text="ignored for a stored doc")
    assert L.doc_theta(model, stored) is model.doc_thetas["doc000"]
    unseen = RawDocument(doc_id="new", text="aaa bbb aaa")
    bow = BowDocument("new", {0: 2, 1: 1})
    assert L.doc_theta(model, unseen).tobytes() == L.infer(bow, model).tobytes()
    assert L.doc_theta(model, RawDocument(doc_id="oov", text="zzz qqq")) is None


def test_model_file_magic(tmp_path, planted_model):
    _, model = planted_model
    path = tmp_path / "model.lda"
    L.save_model(model, str(path))
    raw = bytearray(path.read_bytes())
    raw[:8] = b"WRONGMG\x00"
    bad = tmp_path / "bad.lda"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatVersionMismatch):
        L.load_model(str(bad))


def test_model_file_truncation(tmp_path, planted_model):
    _, model = planted_model
    path = tmp_path / "model.lda"
    L.save_model(model, str(path))
    raw = path.read_bytes()
    cut = tmp_path / "cut.lda"
    cut.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(CorruptFile):
        L.load_model(str(cut))


def test_model_file_trailing_garbage(tmp_path, planted_model):
    _, model = planted_model
    path = tmp_path / "model.lda"
    L.save_model(model, str(path))
    fat = tmp_path / "fat.lda"
    fat.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(CorruptFile):
        L.load_model(str(fat))


# --------------------------------------------------------------- determinism

def test_training_bit_reproducible():
    bows = _planted_corpus(n_docs=8)
    hyper = L.LdaHyperparams(k=3, alpha=0.2, n_iters=30, seed=42)
    a = L.train(bows, hyper, WORDS8)
    b = L.train(bows, hyper, WORDS8)
    assert a.phi.tobytes() == b.phi.tobytes()
    for doc_id in a.doc_thetas:
        assert a.doc_thetas[doc_id].tobytes() == b.doc_thetas[doc_id].tobytes()


def test_training_seed_changes_model():
    bows = _planted_corpus(n_docs=8)
    h1 = L.LdaHyperparams(k=3, alpha=0.2, n_iters=10, seed=1)
    h2 = L.LdaHyperparams(k=3, alpha=0.2, n_iters=10, seed=2)
    assert not np.array_equal(L.train(bows, h1, WORDS8).phi, L.train(bows, h2, WORDS8).phi)


# ----------------------------------------------------------------- invariants

@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.dictionaries(
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=1, max_value=4),
            min_size=1,
            max_size=5,
        ),
        min_size=1,
        max_size=6,
    ),
    st.integers(min_value=1, max_value=4),
)
def test_model_outputs_on_simplex(count_dicts, k):
    bows = [BowDocument(f"d{i:02d}", counts) for i, counts in enumerate(count_dicts)]
    hyper = L.LdaHyperparams(k=k, alpha=0.5, n_iters=5, seed=0)
    model = L.train(bows, hyper, WORDS8)
    assert model.phi.shape == (k, 8)
    assert np.all(model.phi > 0)
    np.testing.assert_allclose(model.phi.sum(axis=1), 1.0, rtol=1e-12)
    for theta in model.doc_thetas.values():
        assert theta.shape == (k,)
        assert np.all(theta > 0)
        assert theta.sum() == pytest.approx(1.0)
