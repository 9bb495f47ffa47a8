"""Downstream evaluation: linear SVMs, average precision, topic-count sweeps.

The classifier is a Pegasos-style primal SVM (stochastic subgradient descent
on the L2-regularized hinge loss with step size 1/(lambda * t)), trained
one-vs-rest per class. Features are L2-normalized before training and
scoring. Rankings are scored with non-interpolated average precision; the
11-point interpolated variant sits behind a flag for comparability with the
older detection-benchmark protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import lda as lda_mod
from .errors import (
    CorruptFile,
    DataError,
    DimensionMismatch,
    DuplicateId,
    NoRelevant,
    SingleClassData,
)
from .fileio import MAGIC_FEATURES, read_csv, read_tensor_file, string_list, write_tensor_file

LAMBDA_GRID = (1e-4, 1e-3, 1e-2)
DEFAULT_LAMBDA = 1e-3


@dataclass(frozen=True)
class LabeledFeature:
    item_id: str
    feature: np.ndarray
    labels: frozenset  # class ids; multi-label items carry several

    def __post_init__(self):
        object.__setattr__(self, "feature", np.asarray(self.feature, dtype=np.float64))
        object.__setattr__(self, "labels", frozenset(self.labels))


@dataclass
class LinearSvm:
    weight: np.ndarray
    bias: float
    lam: float
    epochs: int
    seed: int
    objective_history: list  # epoch-end regularized objective values


def l2_normalize(vectors):
    """Row-wise L2 normalization; zero rows are left as zeros."""
    vectors = np.asarray(vectors, dtype=np.float64)
    norms = np.linalg.norm(vectors, axis=-1, keepdims=True)
    return np.where(norms > 0, vectors / np.where(norms > 0, norms, 1.0), vectors)


def _objective(w, b, x, y, lam):
    margins = 1.0 - y * (x @ w + b)
    return 0.5 * lam * float(w @ w) + float(np.maximum(margins, 0.0).mean())


def svm_train(data, class_id, lam=DEFAULT_LAMBDA, epochs=20, seed=0):
    """One-vs-rest Pegasos SVM for `class_id` over LabeledFeature data.

    Features are L2-normalized internally. The bias rides along without
    regularization. Raises SingleClassData when every item lands on the same
    side of the one-vs-rest split.
    """
    if not data:
        raise ValueError("data must be nonempty")
    if not 0 < lam < math.inf:  # NaN fails this too
        raise ValueError(f"lam must be finite and positive, got {lam}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    x = l2_normalize(np.stack([d.feature for d in data]))
    y = np.asarray([1.0 if class_id in d.labels else -1.0 for d in data])
    if len(set(y.tolist())) < 2:
        raise SingleClassData(f"all items are on one side of class {class_id!r}")

    rng = np.random.default_rng(seed)
    n, dim = x.shape
    w = np.zeros(dim)
    b = 0.0
    t = 0
    history = [_objective(w, b, x, y, lam)]
    for _ in range(epochs):
        order = rng.permutation(n)
        for i in order:
            t += 1
            eta = 1.0 / (lam * t)
            margin = y[i] * (x[i] @ w + b)
            w *= 1.0 - eta * lam
            if margin < 1.0:
                w += eta * y[i] * x[i]
                b += eta * y[i]
        history.append(_objective(w, b, x, y, lam))
    return LinearSvm(weight=w, bias=b, lam=lam, epochs=epochs, seed=seed, objective_history=history)


def svm_decision(svm, feature):
    """Signed decision value w . x + b for an (internally normalized) feature."""
    x = l2_normalize(np.asarray(feature, dtype=np.float64))
    if x.shape != svm.weight.shape:
        raise DimensionMismatch(f"feature dim {x.shape} != weight dim {svm.weight.shape}")
    return float(svm.weight @ x + svm.bias)


def average_precision(scores, relevance, interpolated=False):
    """Average precision of a scored ranking.

    Items are sorted by score descending with a stable sort, so tied scores
    keep their input order. Non-interpolated AP (the default) averages
    precision at each relevant rank; interpolated=True computes the 11-point
    variant used by the older detection benchmarks.
    """
    scores = np.asarray(scores, dtype=np.float64)
    relevance = np.asarray(relevance)
    if scores.shape != relevance.shape or scores.ndim != 1:
        raise DimensionMismatch(f"scores {scores.shape} vs relevance {relevance.shape}")
    n_relevant = int(np.count_nonzero(relevance))
    if n_relevant == 0:
        raise NoRelevant("ranking contains no relevant item")
    order = np.argsort(-scores, kind="stable")
    rel_sorted = relevance[order].astype(bool)
    hits = np.cumsum(rel_sorted)
    ranks = np.arange(1, len(scores) + 1)
    precision = hits / ranks
    recall = hits / n_relevant
    if not interpolated:
        return float(precision[rel_sorted].sum() / n_relevant)
    levels = np.linspace(0.0, 1.0, 11)
    interp = []
    for r in levels:
        mask = recall >= r - 1e-12
        interp.append(float(precision[mask].max()) if mask.any() else 0.0)
    return float(np.mean(interp))


def mean_ap(aps):
    """Arithmetic mean of per-query or per-class AP values."""
    aps = list(aps)
    if not aps:
        raise ValueError("aps must be nonempty")
    return float(np.mean(aps))


def cluster_purity(assignments, labels):
    """Purity of a clustering: majority-label mass over all clusters.

    assignments and labels are parallel sequences; each cluster votes for its
    most common label and purity is the fraction of items matching their
    cluster's vote.
    """
    if len(assignments) != len(labels) or not assignments:
        raise ValueError("assignments and labels must be nonempty and parallel")
    votes = {}
    for a, lab in zip(assignments, labels):
        votes.setdefault(a, {}).setdefault(lab, 0)
        votes[a][lab] += 1
    correct = sum(max(counts.values()) for counts in votes.values())
    return correct / len(assignments)


def topic_sweep(train_bows, val_bows, val_labels, words, candidate_ks, hyper):
    """Model selection over topic counts.

    For each k (ascending) an LDA is trained on train_bows with `hyper`
    re-instantiated at that k. Its score is the cluster purity of the argmax
    topic of each validation bag's fold-in against val_labels, which runs
    parallel to val_bows. Returns (best_k, scores dict). Ties go to the
    smaller k because candidates are visited ascending and only a strictly
    better score displaces the incumbent.
    """
    candidate_ks = sorted(set(candidate_ks))
    if not candidate_ks:
        raise ValueError("candidate_ks must be nonempty")
    scores = {}
    best_k = None
    best_score = -np.inf
    for k in candidate_ks:
        model = lda_mod.train(train_bows, replace(hyper, k=k), words)
        assignments = [int(np.argmax(lda_mod.infer(bow, model))) for bow in val_bows]
        score = cluster_purity(assignments, val_labels)
        scores[k] = score
        if score > best_score:
            best_score = score
            best_k = k
    return best_k, scores


def train_one_vs_rest(data, class_ids, lam=DEFAULT_LAMBDA, epochs=20, seed=0):
    """One SVM per class, trained on the same data with per-class seeds."""
    return {c: svm_train(data, c, lam=lam, epochs=epochs, seed=seed + i) for i, c in enumerate(sorted(class_ids))}


def classification_map(svms, data):
    """Per-class AP of decision-ranked data plus the mean: (aps, mAP)."""
    aps = {}
    for class_id, svm in sorted(svms.items()):
        scores = [svm_decision(svm, d.feature) for d in data]
        relevance = [class_id in d.labels for d in data]
        aps[class_id] = average_precision(np.asarray(scores), np.asarray(relevance))
    return aps, mean_ap(aps.values())


def select_lambda(train_data, val_data, class_ids, lambdas=LAMBDA_GRID, epochs=20, seed=0):
    """(lambda, its one-vs-rest SVMs) for the lambda with the best
    validation mAP (ties to the smaller)."""
    best = None
    for lam in sorted(lambdas):
        svms = train_one_vs_rest(train_data, class_ids, lam=lam, epochs=epochs, seed=seed)
        _, val_map = classification_map(svms, val_data)
        if best is None or val_map > best[2]:
            best = (lam, svms, val_map)
    return best[:2]


def save_features(items, path, layer=""):
    """Write (item_id, vector) pairs into the shared tensor container. An
    empty list, or vectors that are not all 1-D of one length, which
    load_features would refuse, raise DataError before anything is written."""
    ids = [item_id for item_id, _ in items]
    vectors = [np.asarray(v, dtype=np.float64) for _, v in items]
    shapes = sorted({v.shape for v in vectors})
    if len(shapes) != 1 or len(shapes[0]) != 1:
        raise DataError(f"features must be a nonempty list of 1-D vectors of one length, got shapes {shapes}")
    write_tensor_file(path, MAGIC_FEATURES, {"item_ids": ids, "layer": layer}, [np.stack(vectors)])


def load_features(path):
    header, arrays = read_tensor_file(path, MAGIC_FEATURES)
    ids = string_list(header, "item_ids")
    if len(arrays) != 1 or arrays[0].ndim != 2 or len(ids) != arrays[0].shape[0]:
        raise CorruptFile(f"{path}: malformed feature file")
    return list(zip(ids, arrays[0]))


def load_labels(path):
    """Read a label CSV: item_id,class_id[,class_id...] per row, one row per item."""
    labels = {}
    for line_num, row in read_csv(path):
        if not row or not row[0].strip():
            continue
        item_id = row[0].strip()
        classes = [c.strip() for c in row[1:] if c.strip()]
        if not classes:
            raise CorruptFile(f"{path}: item {item_id!r} has no class")
        if item_id in labels:
            raise DuplicateId(f"{path}:{line_num}: item {item_id!r} is labeled on an earlier line too")
        labels[item_id] = frozenset(classes)
    if not labels:
        raise CorruptFile(f"{path}: no labels found")
    return labels


def load_scores(path):
    """Read a score CSV (header query_id,item_id,score,relevant) into
    {query_id: (scores, relevance flags)}, queries in file order."""
    rows = read_csv(path)
    if not rows or [h.strip() for h in rows[0][1][:4]] != ["query_id", "item_id", "score", "relevant"]:
        raise DataError("scores file must start with header query_id,item_id,score,relevant")
    per_query = {}
    for line_num, row in rows[1:]:
        if not row:
            continue
        try:
            query_id, score, relevant = row[0], float(row[2]), int(row[3]) != 0
            if math.isnan(score):
                raise ValueError("a NaN score has no rank")
        except (IndexError, ValueError):
            raise DataError(
                f"{path}:{line_num}: expected query_id,item_id,score,relevant"
                f" with a numeric score and a 0/1 relevant, got {row!r}"
            )
        scores, relevance = per_query.setdefault(query_id, ([], []))
        scores.append(score)
        relevance.append(relevant)
    if not per_query:
        raise DataError("scores file holds no rows")
    return per_query
