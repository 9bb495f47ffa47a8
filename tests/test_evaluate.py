"""Downstream evaluation: Pegasos SVM, average precision, purity, sweep."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttn import evaluate as E
from ttn import lda as lda_mod
from ttn.corpus import BowDocument
from ttn.errors import CorruptFile, DataError, DimensionMismatch, NoRelevant, SingleClassData


def _cluster_data(n_per=20, gap=4.0, seed=0, dim=3):
    """Two linearly separable blobs labeled "pos" / "neg"."""
    rng = np.random.default_rng(seed)
    data = []
    for i in range(n_per):
        data.append(
            E.LabeledFeature(f"p{i:03d}", rng.normal(gap, 0.5, dim), frozenset(["pos"]))
        )
        data.append(
            E.LabeledFeature(f"n{i:03d}", rng.normal(-gap, 0.5, dim), frozenset(["neg"]))
        )
    return data


# ----------------------------------------------------------------------- svm

def test_svm_separable_data_perfect_train_accuracy():
    data = _cluster_data()
    svm = E.svm_train(data, "pos", lam=1e-3, epochs=30, seed=1)
    for d in data:
        decision = E.svm_decision(svm, d.feature)
        assert (decision > 0) == ("pos" in d.labels)


def test_svm_single_class_raises():
    data = [E.LabeledFeature(f"x{i}", np.ones(2) * i, frozenset(["same"])) for i in range(4)]
    with pytest.raises(SingleClassData):
        E.svm_train(data, "same")
    with pytest.raises(SingleClassData):
        E.svm_train(data, "absent")


@pytest.mark.parametrize("lam", [0.0, -1e-3, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"])
def test_svm_rejects_lambda_not_finite_and_positive(lam):
    with pytest.raises(ValueError, match="lam must be finite and positive"):
        E.svm_train(_cluster_data(), "pos", lam=lam)


@pytest.mark.parametrize("epochs", [0, -3])
def test_svm_rejects_epochs_below_one(epochs):
    with pytest.raises(ValueError, match="epochs must be >= 1"):
        E.svm_train(_cluster_data(), "pos", epochs=epochs)


def test_svm_objective_decreases():
    # Pegasos needs T on the order of 1/lam steps, so use a lam the epoch
    # budget can actually converge under before asserting a small objective.
    data = _cluster_data(seed=3)
    svm = E.svm_train(data, "pos", lam=0.05, epochs=25, seed=0)
    history = svm.objective_history
    assert len(history) == 26  # initial value plus one per epoch
    assert history[-1] < history[0]
    assert history[-1] < 0.1  # separable data: hinge mass nearly vanishes


def test_svm_decision_hand_value():
    svm = E.LinearSvm(
        weight=np.array([1.0, 0.0]), bias=0.5, lam=1e-3, epochs=0, seed=0, objective_history=[]
    )
    # Input [2, 0] normalizes to [1, 0]; decision = 1 + 0.5.
    assert E.svm_decision(svm, np.array([2.0, 0.0])) == pytest.approx(1.5)
    assert E.svm_decision(svm, np.array([0.0, 3.0])) == pytest.approx(0.5)


def test_svm_decision_scale_invariant_in_feature():
    data = _cluster_data(seed=5)
    svm = E.svm_train(data, "pos", lam=1e-3, epochs=10, seed=0)
    x = data[0].feature
    assert E.svm_decision(svm, x) == pytest.approx(E.svm_decision(svm, 7.5 * x), rel=1e-12)


def test_svm_decision_dim_check():
    svm = E.LinearSvm(
        weight=np.zeros(3), bias=0.0, lam=1e-3, epochs=0, seed=0, objective_history=[]
    )
    with pytest.raises(DimensionMismatch):
        E.svm_decision(svm, np.zeros(4))


def test_svm_deterministic():
    data = _cluster_data(seed=6)
    a = E.svm_train(data, "pos", lam=1e-2, epochs=5, seed=9)
    b = E.svm_train(data, "pos", lam=1e-2, epochs=5, seed=9)
    assert np.array_equal(a.weight, b.weight) and a.bias == b.bias


def test_train_one_vs_rest_and_map():
    data = _cluster_data(seed=7)
    svms = E.train_one_vs_rest(data, ["pos", "neg"], lam=1e-3, epochs=30, seed=0)
    assert set(svms) == {"pos", "neg"}
    aps, map_value = E.classification_map(svms, data)
    assert aps["pos"] == pytest.approx(1.0)
    assert aps["neg"] == pytest.approx(1.0)
    assert map_value == pytest.approx(1.0)


def test_select_lambda_returns_grid_member():
    train = _cluster_data(seed=8)
    val = _cluster_data(seed=9)
    lam, svms = E.select_lambda(train, val, ["pos", "neg"], epochs=5, seed=0)
    assert lam in E.LAMBDA_GRID
    # the SVMs trained for the chosen lambda, so callers need not retrain them
    again = E.train_one_vs_rest(train, ["pos", "neg"], lam=lam, epochs=5, seed=0)
    for c in ("pos", "neg"):
        assert svms[c].weight.tobytes() == again[c].weight.tobytes()
        assert svms[c].bias == again[c].bias


# ----------------------------------------------------------- average precision

def test_ap_perfect_ranking():
    assert E.average_precision(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0


def test_ap_hand_five_sixths():
    # Relevant at ranks 1 and 3: AP = (1/1 + 2/3) / 2 = 5/6.
    ap = E.average_precision(np.array([0.9, 0.8, 0.7]), np.array([1, 0, 1]))
    assert ap == pytest.approx(5.0 / 6.0, rel=1e-12)


def test_ap_single_relevant_at_rank_two():
    ap = E.average_precision(np.array([0.9, 0.8]), np.array([0, 1]))
    assert ap == pytest.approx(0.5)


def test_ap_interpolated_hand_value():
    # Same ranking as the 5/6 case; 11-point: six levels at 1.0, five at 2/3.
    ap = E.average_precision(
        np.array([0.9, 0.8, 0.7]), np.array([1, 0, 1]), interpolated=True
    )
    assert ap == pytest.approx(28.0 / 33.0, rel=1e-12)


def test_ap_ties_keep_input_order():
    assert E.average_precision(np.array([0.5, 0.5]), np.array([0, 1])) == pytest.approx(0.5)
    assert E.average_precision(np.array([0.5, 0.5]), np.array([1, 0])) == pytest.approx(1.0)


def test_ap_no_relevant_raises():
    with pytest.raises(NoRelevant):
        E.average_precision(np.array([0.5, 0.4]), np.array([0, 0]))


def test_ap_shape_check():
    with pytest.raises(DimensionMismatch):
        E.average_precision(np.array([0.5]), np.array([1, 0]))


def _brute_force_ap(scores, relevance):
    """Independent oracle: explicit precision-at-k loop over the sorted list."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    total = 0.0
    for rank, i in enumerate(order, start=1):
        if relevance[i]:
            hits += 1
            total += hits / rank
    return total / sum(relevance)


@settings(max_examples=300)
@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=1), st.booleans()), min_size=1, max_size=40
    )
)
def test_ap_matches_brute_force_oracle(pairs):
    scores = np.array([round(s, 3) for s, _ in pairs])  # rounding forces ties
    relevance = np.array([r for _, r in pairs])
    if not relevance.any():
        return
    assert E.average_precision(scores, relevance) == pytest.approx(
        _brute_force_ap(scores.tolist(), relevance.tolist()), rel=1e-12
    )


@given(
    st.lists(st.tuples(st.floats(min_value=0.01, max_value=1), st.booleans()), min_size=2, max_size=25)
)
@example([(0.9999999999999999, False), (1.0, True)])
def test_ap_invariant_under_monotone_transform(pairs):
    scores = np.array([s for s, _ in pairs])
    relevance = np.array([r for _, r in pairs])
    if not relevance.any():
        return
    base = E.average_precision(scores, relevance)
    # Scaling by a power of two is exact in float64, so it keeps every
    # strict order and every tie; log(s)*3+7 merges neighbouring scores.
    scaled = E.average_precision(scores * 2.0**3, relevance)
    assert base == pytest.approx(scaled, rel=1e-12)


def test_mean_ap():
    assert E.mean_ap([1.0, 0.5, 0.0]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        E.mean_ap([])


# --------------------------------------------------------------------- purity

def test_cluster_purity_hand_values():
    assert E.cluster_purity([0, 0, 1, 1], ["a", "a", "b", "b"]) == 1.0
    assert E.cluster_purity([0, 1, 0, 1], ["a", "a", "b", "b"]) == 0.5
    # Majority vote: cluster 0 holds {a, a, b} -> 2 of 3 correct.
    assert E.cluster_purity([0, 0, 0, 1], ["a", "a", "b", "b"]) == pytest.approx(0.75)


def test_cluster_purity_validates():
    with pytest.raises(ValueError):
        E.cluster_purity([], [])
    with pytest.raises(ValueError):
        E.cluster_purity([0, 1], ["a"])


# ---------------------------------------------------------------------- sweep

def _block_bows(n, n_blocks, rng, prefix="d"):
    """Docs of 12 tokens drawn from one of n_blocks disjoint 3-word blocks,
    taken in turn; each doc's label is its block."""
    bows, labels = [], []
    for i in range(n):
        block = i % n_blocks
        words = rng.integers(block * 3, block * 3 + 3, size=12)
        ids, counts = np.unique(words, return_counts=True)
        bows.append(BowDocument(f"{prefix}{i:03d}", {int(a): int(b) for a, b in zip(ids, counts)}))
        labels.append(block)
    return bows, labels


def test_topic_sweep_selects_best_scoring_k(monkeypatch):
    rng = np.random.default_rng(0)
    train_bows, _ = _block_bows(20, 2, rng)
    val_bows, val_labels = _block_bows(10, 2, rng, prefix="v")
    hyper = lda_mod.LdaHyperparams(k=2, alpha=0.5, n_iters=20, seed=0)
    seen = []
    real_train = lda_mod.train

    def recording_train(bows, hyper, words):
        model = real_train(bows, hyper, words)
        seen.append((hyper.k, model.k))
        return model

    monkeypatch.setattr(lda_mod, "train", recording_train)
    best_k, scores = E.topic_sweep(train_bows, val_bows, val_labels, tuple("abcdef"), [4, 1, 2], hyper)
    assert scores == {1: 0.5, 2: 1.0, 4: 1.0}  # two blocks: k=2 and k=4 tie
    assert best_k == 2  # strict-improvement rule: ties go to the smaller k
    assert seen == [(1, 1), (2, 2), (4, 4)]  # ascending, model k matches candidate


def test_topic_sweep_recovers_planted_block_count():
    # Three word blocks; labels follow the block of each doc's tokens.
    rng = np.random.default_rng(0)
    train_bows, _ = _block_bows(45, 3, rng)
    val_bows, val_labels = _block_bows(15, 3, rng, prefix="v")
    hyper = lda_mod.LdaHyperparams(k=2, alpha=0.1, n_iters=60, seed=1)
    best_k, scores = E.topic_sweep(train_bows, val_bows, val_labels, tuple("abcdefghi"), [2, 3, 5], hyper)
    assert best_k == 3
    assert scores[3] > scores[2]  # two topics cannot separate three blocks


# ---------------------------------------------------------------------- files

def test_features_roundtrip(tmp_path):
    items = [("a", np.array([1.0, 2.0])), ("b", np.array([3.0, 4.0]))]
    path = tmp_path / "feats.bin"
    E.save_features(items, str(path), layer="fc7")
    loaded = E.load_features(str(path))
    assert [i for i, _ in loaded] == ["a", "b"]
    for (_, got), (_, want) in zip(loaded, items):
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "items",
    [
        [("a", 0.5), ("b", 0.2)],
        [("a", np.ones((2, 2))), ("b", np.ones((2, 2)))],
        [("a", np.ones(2)), ("b", np.ones(3))],
        [],
    ],
    ids=["0-d", "2-d", "ragged", "empty"],
)
def test_save_features_refuses_what_load_features_would(tmp_path, items):
    path = tmp_path / "feats.bin"
    with pytest.raises(DataError):
        E.save_features(items, str(path))
    assert not path.exists()


def test_features_truncation(tmp_path):
    path = tmp_path / "feats.bin"
    E.save_features([("a", np.arange(4.0))], str(path))
    cut = tmp_path / "cut.bin"
    cut.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CorruptFile):
        E.load_features(str(cut))


def test_labels_roundtrip(tmp_path):
    labels = {"x": frozenset(["1"]), "y": frozenset(["0", "2"])}
    path = tmp_path / "labels.csv"
    path.write_text("x,1\ny,0,2\n", encoding="utf-8")
    assert E.load_labels(str(path)) == labels


def test_labels_reject_classless_row(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("item1,\n", encoding="utf-8")
    with pytest.raises(CorruptFile):
        E.load_labels(str(path))
