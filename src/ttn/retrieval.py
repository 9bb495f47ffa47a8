"""Cross-modal retrieval in the shared topic space.

Text and images both embed to topic distributions, so one KL-divergence scan
ranks either modality against a query from the other. Divergences use
symmetric additive smoothing, p~ = (p + eps) / (1 + k * eps), to keep zero
coordinates finite without changing the ranking of well-separated entries.

A query runs in two passes. A matrix-vector product over a cached table of
log q~ (8 * N * (k + 1) bytes per index, built by the first query of each
modality) gives every row an approximate divergence; the exact per-row scan
then scores only the rows that approximation cannot rule out, so results are
bit-identical to kl_divergence and symmetric_kl.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import corpus as corpus_mod
from . import lda as lda_mod
from . import textnet
from .errors import (
    CorruptFile,
    DataError,
    DimensionMismatch,
    DuplicateId,
    EmptyDocument,
    EmptyModality,
)
from .fileio import MAGIC_INDEX, finite_non_negative, read_tensor_file, string_list, write_tensor_file

MODALITIES = ("text", "image")


def _smooth(p, epsilon):
    p = np.asarray(p, dtype=np.float64)
    return (p + epsilon) / (1.0 + p.size * epsilon)


def kl_divergence(p, q, epsilon=1e-10):
    """D(p~ || q~) with both arguments smoothed identically.

    Zero for identical inputs, positive otherwise (Gibbs' inequality), and
    finite for any pair of nonnegative vectors when epsilon > 0. At epsilon 0
    a term with p = 0 counts 0, and one with p > 0 against q = 0 makes the
    divergence inf.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise DimensionMismatch(f"distributions differ in shape: {p.shape} vs {q.shape}")
    ps = _smooth(p, epsilon)
    qs = _smooth(q, epsilon)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = ps * np.log(ps / qs)
    # 0 * log(0 / q) is 0 by convention (NaN in floating point); zero
    # coordinates outlive the smoothing only at epsilon 0
    terms[ps == 0] = 0.0
    # roundoff can land a hair below zero for near-identical inputs
    return max(0.0, float(np.sum(terms)))


def symmetric_kl(p, q, epsilon=1e-10):
    """Jeffreys form: D(p || q) + D(q || p)."""
    return kl_divergence(p, q, epsilon) + kl_divergence(q, p, epsilon)


@dataclass(frozen=True)
class IndexEntry:
    item_id: str
    modality: str  # "text" or "image"
    embedding: np.ndarray  # (k,) topic distribution
    payload_ref: str = ""

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ValueError(f"modality must be one of {MODALITIES}, got {self.modality!r}")
        object.__setattr__(self, "embedding", np.asarray(self.embedding, dtype=np.float64))


@dataclass(frozen=True)
class RetrievalIndex:
    """A validated index held as columns: row i is item ids[i] of
    modalities[i], with embedding matrix[i] and payload_refs[i]. rows maps
    each modality to its row numbers and item ids, which is what a query
    scans."""

    ids: tuple
    modalities: tuple
    payload_refs: tuple
    epsilon: float
    matrix: np.ndarray
    rows: dict  # modality -> (row numbers, item ids)

    @cached_property
    def entries(self):
        """The rows as IndexEntry objects (embeddings are views of matrix),
        built on first access; queries, save and load never read them."""
        return tuple(map(IndexEntry, self.ids, self.modalities, self.matrix, self.payload_refs))

    @cached_property
    def _tables(self):
        """modality -> _LogTable, each built by that modality's first query.
        matrix is read-only, so a table never goes stale."""
        return {}

    def log_table(self, modality):
        """The prefilter's table of the modality's rows, built on first use."""
        table = self._tables.get(modality)
        if table is None:
            table = self._tables[modality] = _log_table(self.matrix, self.rows[modality][0], self.epsilon)
        return table


def build_index(entries, epsilon=1e-10):
    """Validate entries (unique ids, one shared 1-D shape, finite non-negative
    embeddings) into an index. epsilon must be finite and non-negative, as
    load_index requires."""
    if not 0 <= epsilon < math.inf:  # NaN fails this too
        raise DataError(f"epsilon must be finite and non-negative, got {epsilon}")
    entries = tuple(entries)
    if not entries:
        raise ValueError("entries must be nonempty")
    dim = entries[0].embedding.shape
    if len(dim) != 1:
        raise DimensionMismatch(f"entry {entries[0].item_id!r} has shape {dim}, expected a (k,) embedding")
    for entry in entries:
        if entry.embedding.shape != dim:
            raise DimensionMismatch(
                f"entry {entry.item_id!r} has dim {entry.embedding.shape}, expected {dim}"
            )
    matrix = np.array([e.embedding for e in entries])
    if not finite_non_negative(matrix):
        raise DataError("index embeddings must be finite and non-negative")
    ids = tuple(e.item_id for e in entries)
    modalities = tuple(e.modality for e in entries)
    payload_refs = tuple(e.payload_ref for e in entries)
    return _index(ids, modalities, payload_refs, epsilon, matrix)


def _index(ids, modalities, payload_refs, epsilon, matrix):
    """The index over columns whose lengths, modalities and values the caller
    has checked; raises DuplicateId if an item id repeats."""
    if len(set(ids)) < len(ids):
        duplicate = next(item_id for item_id, n in Counter(ids).items() if n > 1)
        raise DuplicateId(f"duplicate item id {duplicate!r}")
    rows = {}
    for modality in MODALITIES:
        numbers = [n for n, m in enumerate(modalities) if m == modality]
        rows[modality] = (np.array(numbers, dtype=np.intp), [ids[n] for n in numbers])
    matrix.flags.writeable = False  # the cached log tables are computed from it
    return RetrievalIndex(
        ids=ids, modalities=modalities, payload_refs=payload_refs, epsilon=epsilon, matrix=matrix, rows=rows
    )


# Rows ranked per pass. Two (rows, k) buffers per pass stay small enough to be
# reused from the heap; at 10k rows every pass paid for fresh pages.
_BLOCK_ROWS = 1024


def _divergences(p, matrix, numbers, epsilon, symmetric):
    """kl_divergence (or symmetric_kl) of p against matrix[numbers], bit for
    bit: the same smoothing and elementwise terms, each row summed on its own."""
    ps = _smooth(p, epsilon)
    p_zeros = np.flatnonzero(ps == 0)  # empty unless epsilon is 0
    d = np.empty(len(numbers))
    for start in range(0, len(numbers), _BLOCK_ROWS):
        qs = matrix[numbers[start:start + _BLOCK_ROWS]]  # a fresh C-ordered copy
        qs += epsilon
        qs /= 1.0 + p.size * epsilon
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = ps / qs
            np.log(terms, out=terms)
            terms *= ps
            terms[:, p_zeros] = 0.0  # 0 * log(0 / q) = 0, as in kl_divergence
            block = terms.sum(axis=1)
            # where(x > 0, x, 0) is max(0.0, x): NaN and -0.0 clamp to 0.0 as there
            block = np.where(block > 0.0, block, 0.0)
            if symmetric:
                np.divide(qs, ps, out=terms)
                np.log(terms, out=terms)
                terms *= qs
                if epsilon == 0:  # the only case that leaves a zero in qs
                    terms[qs == 0] = 0.0
                reverse = terms.sum(axis=1)
                block += np.where(reverse > 0.0, reverse, 0.0)
        d[start:start + len(block)] = block
    return d


@dataclass(frozen=True)
class _LogTable:
    """What the prefilter reads of one modality's rows q~ (smoothed)."""

    logs: np.ndarray  # (rows, k) log q~
    h: np.ndarray  # (rows,) sum of q~ log q~ per row
    max_abs_log: float  # largest |log q~|, inf when a zero survives smoothing
    max_row_sum: float  # largest sum of q~ over a row


def _log_table(matrix, numbers, epsilon):
    """The _LogTable of matrix[numbers], built in place block by block so no
    transient outgrows one block. q~ is smoothed as in _divergences."""
    k = matrix.shape[1]
    logs = np.empty((len(numbers), k))
    h = np.empty(len(numbers))
    scratch = np.empty((min(_BLOCK_ROWS, len(numbers)), k))
    max_abs_log = max_row_sum = 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, len(numbers), _BLOCK_ROWS):
            block = numbers[start:start + _BLOCK_ROWS]
            # the indices are valid; mode "raise" would copy through a buffer
            qs = np.take(matrix, block, axis=0, out=scratch[:len(block)], mode="clip")
            qs += epsilon
            qs /= 1.0 + k * epsilon
            max_row_sum = max(max_row_sum, float(qs.sum(axis=1).max()))
            log_qs = np.log(qs, out=logs[start:start + len(block)])
            max_abs_log = max(max_abs_log, -float(log_qs.min()), float(log_qs.max()))
            h[start:start + len(block)] = np.einsum("ij,ij->i", qs, log_qs)
    return _LogTable(logs, h, max_abs_log, max_row_sum)


# delta = _MARGIN * (k + 6) * scale * (1 + T) in _candidates: 2**20 times the
# rounding bound derived there.
_MARGIN = 2.0 ** -32


def _candidates(index, p, modality, n, symmetric):
    """Positions in index.rows[modality] of every row whose exact divergence
    from p can be among the n smallest, or None when only the full scan is
    safe (a non-finite approximation or margin).

    The approximation is a_i = max(0, p~.log p~ - log Q~_i.p~), plus, when
    symmetric, max(0, h_i - Q~_i.log p~) with h_i = sum q~ log q~; Q~_i.log p~
    is the affine (Q_i.log p~ + eps * sum log p~) / (1 + k * eps), so the raw
    matrix serves and no second table is needed.

    Rounding bound. Take u = 2**-53, T = max|log p~| + max|log q~| (so
    |log(p~/q~)| <= T) and S = sum p~. The exact path's terms
    p~ * log(p~ / q~) carry the quotient's u (an absolute u after the log),
    the log's 4 ulp (numpy's float64 log is within 4) and the product's u,
    and its k-term row sum adds k * u * sum|term|: at most
    S * u * (2 + (k + 6) * T) from the real divergence. The approximation
    rounds log q~ (4 ulp), sums k products in the matrix-vector product in
    any order and with or without FMA (k * u * S * T), forms p~.log p~ the
    same way and subtracts once: at most S * u * (k + 6) * T. So the two
    differ by at most 2 * (k + 6) * u * S * (1 + T); the reverse terms obey
    the same bound with S replaced by the largest row sum of Q~, and the
    clamp at 0 only brings values closer. delta is 2**20 times that bound.
    Every row with e_i <= e_(n) then has a_i <= e_i + delta <= a_(n) + 2 * delta,
    since the n rows with the smallest a all have e <= a_(n) + delta.
    """
    table = index.log_table(modality)
    epsilon, k = index.epsilon, p.size
    ps = _smooth(p, epsilon)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_ps = np.log(ps)
        approx = table.logs @ ps
        np.subtract(ps @ log_ps, approx, out=approx)
        np.maximum(approx, 0.0, out=approx)  # maximum keeps a NaN, for the check below
        scale = ps.sum()
        if symmetric:
            numbers = index.rows[modality][0]
            span = index.matrix[numbers[0]:numbers[-1] + 1]  # the modality's rows and any between
            cross = (span @ log_ps)[numbers - numbers[0]]
            cross += epsilon * log_ps.sum()
            cross /= 1.0 + k * epsilon
            np.subtract(table.h, cross, out=cross)
            approx += np.maximum(cross, 0.0, out=cross)
            scale += table.max_row_sum
        delta = _MARGIN * (k + 6) * scale * (1.0 + float(np.abs(log_ps).max()) + table.max_abs_log)
        if not (approx.max() < math.inf and delta < math.inf):
            return None
        return np.flatnonzero(approx <= np.partition(approx, n - 1)[n - 1] + 2.0 * delta)


def query(index, query_embedding, target_modality, top_n=10, symmetric=False):
    """Rank entries of target_modality by divergence from the query, ascending.

    Returns [(item_id, divergence)], ties broken by item_id so insertion
    order never leaks into results. top_n is clamped to the available count.

    Two passes: _candidates picks the rows that can make the top n from the
    modality's cached log table (built on its first query), and _divergences
    scores only those, exactly. Each row is summed on its own, so every
    divergence has the bits kl_divergence (or symmetric_kl) gives it. When
    top_n covers every row, or the approximation or its margin is not finite
    (epsilon 0 with zero coordinates, values large enough to overflow), every
    row is scored.
    """
    if target_modality not in MODALITIES:
        raise ValueError(f"target_modality must be one of {MODALITIES}")
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    numbers, ids = index.rows[target_modality]
    if not ids:
        raise EmptyModality(f"index holds no {target_modality!r} entries")
    p = np.asarray(query_embedding, dtype=np.float64)
    if p.ndim != 1 or p.shape != index.matrix.shape[1:]:
        raise DimensionMismatch(
            f"query has shape {p.shape}, index entries {index.matrix.shape[1:]}"
        )
    if not finite_non_negative(p):
        raise DataError("query embedding must be finite and non-negative")
    n = min(top_n, len(ids))
    picked = _candidates(index, p, target_modality, n, symmetric) if n < len(ids) else None
    if picked is None:
        picked = np.arange(len(ids))
    d = _divergences(p, index.matrix, numbers[picked], index.epsilon, symmetric)
    # every row at or below the n-th smallest divergence, so ties at the edge
    # are settled by item_id below
    keep = np.flatnonzero(d <= np.partition(d, n - 1)[n - 1])
    scored = sorted((float(d[i]), ids[picked[i]]) for i in keep)
    return [(item_id, dv) for dv, item_id in scored[:n]]


def embed_text(text, vocab, model):
    """Topic distribution of a text snippet via LDA fold-in inference.

    vocab is a Vocabulary or a word -> id mapping. A snippet with no
    in-vocabulary token raises EmptyDocument.
    """
    word_index = vocab.index if isinstance(vocab, corpus_mod.Vocabulary) else vocab
    counts = corpus_mod.text_to_counts(text, word_index)
    if not counts:
        raise EmptyDocument(f"query text has no in-vocabulary token: {text!r}")
    bow = corpus_mod.BowDocument(doc_id="query", counts=counts)
    return lda_mod.infer(bow, model)


def embed_image(image, checkpoint):
    """Topic distribution of an image via the trained net (crop-averaged)."""
    return textnet.predict_topics(checkpoint, image)


def save_index(index, path):
    """Tensor container: ids, modalities and payload refs in the header, the
    (N, k) embedding matrix as the one tensor."""
    header = {
        "epsilon": index.epsilon,
        "ids": index.ids,
        "modalities": index.modalities,
        "payload_refs": index.payload_refs,
    }
    write_tensor_file(path, MAGIC_INDEX, header, [index.matrix])


def load_index(path):
    header, arrays = read_tensor_file(path, MAGIC_INDEX)
    ids = tuple(string_list(header, "ids"))
    modalities = tuple(string_list(header, "modalities"))
    payload_refs = tuple(string_list(header, "payload_refs"))
    try:
        epsilon = float(header["epsilon"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptFile(f"{path}: invalid index header: {exc}")
    if epsilon < 0:
        raise CorruptFile(f"{path}: negative epsilon {epsilon}")
    if not set(modalities) <= set(MODALITIES):
        raise CorruptFile(f"{path}: unknown modality in {sorted(set(modalities))}")
    if len(arrays) != 1 or arrays[0].ndim != 2:
        raise CorruptFile(f"{path}: an index holds exactly one (N, k) embedding matrix")
    matrix = arrays[0]
    if not 0 < matrix.shape[0] == len(ids) == len(modalities) == len(payload_refs):
        raise CorruptFile(f"{path}: header lists do not match the {matrix.shape[0]} embedding rows")
    if not finite_non_negative(matrix):
        raise CorruptFile(f"{path}: index embeddings must be finite and non-negative")
    return _index(ids, modalities, payload_refs, epsilon, matrix)


def format_results(results):
    """Query results as TSV: rank, item id, divergence."""
    lines = ["rank\tid\tdivergence"]
    for rank, (item_id, divergence) in enumerate(results, start=1):
        lines.append(f"{rank}\t{item_id}\t{divergence:.12g}")
    return "\n".join(lines) + "\n"
