"""Shared-space retrieval: KL properties, index behavior, nearest neighbors."""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttn import lda as lda_mod
from ttn import nn, retrieval, textnet
from ttn.corpus import BowDocument, Vocabulary
from ttn.errors import (
    CorruptFile,
    DataError,
    DimensionMismatch,
    DuplicateId,
    EmptyDocument,
    EmptyModality,
)
from ttn.fileio import MAGIC_INDEX, write_tensor_file

simplex_pair = st.integers(min_value=2, max_value=6).flatmap(
    lambda k: st.tuples(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=k, max_size=k),
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=k, max_size=k),
    )
)


def _norm(v):
    v = np.asarray(v, dtype=np.float64)
    return v / v.sum()


# ------------------------------------------------------------------------ KL

def test_kl_hand_value():
    p = np.array([1.0, 0.0])
    q = np.array([0.5, 0.5])
    assert retrieval.kl_divergence(p, q) == pytest.approx(math.log(2), abs=1e-7)


def test_kl_self_is_zero():
    p = np.array([0.2, 0.3, 0.5])
    assert retrieval.kl_divergence(p, p) == 0.0


def test_kl_finite_with_zeros_either_side():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    assert math.isfinite(retrieval.kl_divergence(a, b))
    assert math.isfinite(retrieval.kl_divergence(b, a))


def test_kl_zero_epsilon_uses_zero_log_zero():
    # 0 * log(0 / q) counts 0, and p > 0 against q = 0 is infinitely far
    p = np.array([1.0, 0.0])
    assert retrieval.kl_divergence(p, np.array([0.9, 0.1]), epsilon=0.0) == math.log(1 / 0.9)
    assert retrieval.kl_divergence(p, np.array([0.1, 0.9]), epsilon=0.0) == math.log(10)
    assert retrieval.kl_divergence(np.array([0.5, 0.5]), p, epsilon=0.0) == math.inf
    assert retrieval.symmetric_kl(p, np.array([0.1, 0.9]), epsilon=0.0) == math.inf


def test_query_zero_epsilon_ranks_by_divergence():
    index = retrieval.build_index(_two_dim_entries((0.1, 0.9)), epsilon=0.0)
    assert retrieval.query(index, [1.0, 0.0], "image") == [
        ("exact", math.log(1 / 0.9)), ("other", math.log(10))
    ]
    assert retrieval.query(index, [1.0, 0.0], "image", symmetric=True) == [("exact", math.inf), ("other", math.inf)]
    assert retrieval.query(index, [0.9, 0.1], "image", symmetric=True)[0] == ("exact", 0.0)


def test_kl_is_asymmetric():
    p = np.array([0.9, 0.1])
    q = np.array([0.5, 0.5])
    assert retrieval.kl_divergence(p, q) != pytest.approx(retrieval.kl_divergence(q, p))


def test_kl_shape_check():
    with pytest.raises(DimensionMismatch):
        retrieval.kl_divergence(np.array([0.5, 0.5]), np.array([0.3, 0.3, 0.4]))
    with pytest.raises(DimensionMismatch):
        retrieval.kl_divergence(np.ones((2, 2)) / 4, np.ones((2, 2)) / 4)


@settings(max_examples=200)
@given(simplex_pair)
def test_kl_nonnegative_and_zero_only_at_equality(pq):
    p, q = _norm(pq[0]), _norm(pq[1])
    d = retrieval.kl_divergence(p, q)
    assert d >= 0.0
    if np.array_equal(p, q):
        assert d == 0.0


@given(simplex_pair)
def test_symmetric_kl_is_symmetric_sum(pq):
    p, q = _norm(pq[0]), _norm(pq[1])
    ab = retrieval.kl_divergence(p, q) + retrieval.kl_divergence(q, p)
    assert retrieval.symmetric_kl(p, q) == pytest.approx(ab, rel=1e-12)
    assert retrieval.symmetric_kl(p, q) == pytest.approx(retrieval.symmetric_kl(q, p), rel=1e-12)


# --------------------------------------------------------------------- index

def _entries():
    return [
        retrieval.IndexEntry("img_a", "image", np.array([0.8, 0.1, 0.1])),
        retrieval.IndexEntry("img_b", "image", np.array([0.1, 0.8, 0.1])),
        retrieval.IndexEntry("img_c", "image", np.array([0.1, 0.1, 0.8])),
        retrieval.IndexEntry("doc_x", "text", np.array([0.7, 0.2, 0.1])),
        retrieval.IndexEntry("doc_y", "text", np.array([0.2, 0.1, 0.7])),
    ]


def test_query_ranks_by_divergence():
    index = retrieval.build_index(_entries())
    ranked = retrieval.query(index, np.array([0.75, 0.15, 0.10]), "image", top_n=3)
    assert [item_id for item_id, _ in ranked] == ["img_a", "img_b", "img_c"]
    divs = [d for _, d in ranked]
    assert divs == sorted(divs)
    assert all(d >= 0 for d in divs)


def test_query_filters_target_modality():
    index = retrieval.build_index(_entries())
    ranked = retrieval.query(index, np.array([0.7, 0.2, 0.1]), "text", top_n=10)
    assert [item_id for item_id, _ in ranked] == ["doc_x", "doc_y"]


def test_query_breaks_ties_by_item_id():
    entries = [
        retrieval.IndexEntry("zz", "image", np.array([0.5, 0.5])),
        retrieval.IndexEntry("aa", "image", np.array([0.5, 0.5])),
        retrieval.IndexEntry("mm", "image", np.array([0.5, 0.5])),
    ]
    index = retrieval.build_index(entries)
    ranked = retrieval.query(index, np.array([0.6, 0.4]), "image", top_n=3)
    assert [item_id for item_id, _ in ranked] == ["aa", "mm", "zz"]


def test_query_insertion_order_irrelevant():
    forward = retrieval.build_index(_entries())
    backward = retrieval.build_index(list(reversed(_entries())))
    q = np.array([0.4, 0.35, 0.25])
    assert retrieval.query(forward, q, "image", top_n=5) == retrieval.query(
        backward, q, "image", top_n=5
    )


def test_query_top_n_clamped():
    index = retrieval.build_index(_entries())
    assert len(retrieval.query(index, np.array([1 / 3] * 3), "image", top_n=50)) == 3


def test_query_missing_modality():
    index = retrieval.build_index(_entries()[:3])  # images only
    with pytest.raises(EmptyModality):
        retrieval.query(index, np.array([1 / 3] * 3), "text")


def test_query_symmetric_flag_changes_scores():
    index = retrieval.build_index(_entries())
    q = np.array([0.85, 0.10, 0.05])
    plain = dict(retrieval.query(index, q, "image", top_n=3))
    sym = dict(retrieval.query(index, q, "image", top_n=3))
    sym2 = dict(retrieval.query(index, q, "image", top_n=3, symmetric=True))
    assert plain == sym
    assert any(sym2[i] != plain[i] for i in plain)


def test_query_direction_is_query_relative_to_entry():
    # D(query || entry) penalizes entries that lack mass where the query has it.
    peaked = np.array([0.98, 0.01, 0.01])
    spread = np.array([1 / 3, 1 / 3, 1 / 3])
    index = retrieval.build_index(
        [
            retrieval.IndexEntry("peaked", "image", peaked),
            retrieval.IndexEntry("spread", "image", spread),
        ]
    )
    ranked = retrieval.query(index, peaked, "image", top_n=2)
    assert ranked[0][0] == "peaked"
    expected = retrieval.kl_divergence(peaked, spread)
    assert dict(ranked)["spread"] == pytest.approx(expected, rel=1e-12)


def _reference_query(entries, query_embedding, target, top_n, symmetric, epsilon):
    """The ranking spelled out: one kl_divergence/symmetric_kl per entry."""
    divergence = retrieval.symmetric_kl if symmetric else retrieval.kl_divergence
    scored = sorted(
        (divergence(query_embedding, e.embedding, epsilon), e.item_id)
        for e in entries if e.modality == target
    )
    return [(item_id, d) for d, item_id in scored[:top_n]]


# Coordinates come from a small pool so that zeros, repeated rows (tied
# divergences) and exact matches (divergence 0) are common.
coordinate = st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.5, 1.0, 1e-12, 0.3333333333333333])
random_index = st.integers(min_value=1, max_value=5).flatmap(
    lambda k: st.tuples(
        st.lists(st.lists(coordinate, min_size=k, max_size=k), min_size=1, max_size=4),  # row pool
        st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from(retrieval.MODALITIES)), min_size=1, max_size=24
        ),
        st.permutations(range(24)),  # item ids, so id order differs from insertion order
        st.lists(coordinate, min_size=k, max_size=k),  # the query
    )
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    random_index,
    st.sampled_from(retrieval.MODALITIES),
    st.integers(min_value=1, max_value=30),
    st.booleans(),
    st.sampled_from([1e-10, 1e-6, 0.05]),
)
def test_query_equals_per_entry_reference(drawn, target, top_n, symmetric, epsilon):
    pool, picks, names, q = drawn
    entries = [
        retrieval.IndexEntry(f"id{names[i]:02d}", modality, pool[row % len(pool)])
        for i, (row, modality) in enumerate(picks)
    ]
    index = retrieval.build_index(entries, epsilon=epsilon)
    if not any(e.modality == target for e in entries):
        with pytest.raises(EmptyModality):
            retrieval.query(index, q, target, top_n=top_n, symmetric=symmetric)
        return
    got = retrieval.query(index, q, target, top_n=top_n, symmetric=symmetric)
    assert got == _reference_query(entries, q, target, top_n, symmetric, epsilon)
    with pytest.raises(DimensionMismatch):
        retrieval.query(index, q + [0.5], target, symmetric=symmetric)
    with pytest.raises(DimensionMismatch):
        retrieval.query(index, [q], target, symmetric=symmetric)


@pytest.mark.parametrize("symmetric", [False, True])
def test_query_full_ranking_bit_identical_across_blocks(symmetric):
    # 2500 candidates of K=40 span several row blocks; the whole ranking,
    # divergences included, must match the per-entry reference exactly.
    rng = np.random.default_rng(11)
    rows = rng.dirichlet(np.full(40, 0.1), size=3000)
    entries = [
        retrieval.IndexEntry(f"e{(i * 7919) % 3000:04d}", "image" if i % 6 else "text", row)
        for i, row in enumerate(rows)
    ]
    index = retrieval.build_index(entries)
    q = rng.dirichlet(np.full(40, 0.1))
    got = retrieval.query(index, q, "image", top_n=5000, symmetric=symmetric)
    assert len(got) == 2500
    assert got == _reference_query(entries, q, "image", 5000, symmetric, index.epsilon)


# ------------------------------------------------------------- prefilter
# query scores exactly only the rows a cached-table approximation cannot rule
# out; each case below must still equal the per-entry reference bit for bit.

@pytest.mark.parametrize("symmetric", [False, True])
def test_query_near_ties_equal_reference(symmetric):
    # Permutations of one row are equally far from a uniform query, so their
    # exact divergences differ only by roundoff: a prefilter without a
    # rounding margin drops some of the true top 5.
    rng = np.random.default_rng(21)
    row = rng.dirichlet(np.full(40, 0.3))
    entries = [
        retrieval.IndexEntry(f"p{i:03d}", "image", rng.permutation(row)) for i in range(300)
    ]
    index = retrieval.build_index(entries)
    q = np.full(40, 1 / 40)
    assert retrieval._candidates(index, q, "image", 5, symmetric) is not None
    got = retrieval.query(index, q, "image", top_n=5, symmetric=symmetric)
    assert got == _reference_query(entries, q, "image", 5, symmetric, index.epsilon)


@pytest.mark.parametrize("symmetric", [False, True])
def test_query_small_top_n_over_many_rows(symmetric):
    rng = np.random.default_rng(12)
    rows = rng.dirichlet(np.full(40, 0.1), size=3000)
    entries = [
        retrieval.IndexEntry(f"e{(i * 7919) % 3000:04d}", "image" if i % 6 else "text", row)
        for i, row in enumerate(rows)
    ]
    index = retrieval.build_index(entries)
    for concentration in (0.1, 1.0, 10.0):
        q = rng.dirichlet(np.full(40, concentration))
        for target in retrieval.MODALITIES:
            picked = retrieval._candidates(index, q, target, 5, symmetric)
            assert picked is not None and len(picked) < 100
            got = retrieval.query(index, q, target, top_n=5, symmetric=symmetric)
            assert got == _reference_query(entries, q, target, 5, symmetric, index.epsilon)


@pytest.mark.parametrize("symmetric", [False, True])
def test_query_zero_epsilon_with_zeros_scans_every_row(symmetric):
    rng = np.random.default_rng(13)
    rows = rng.dirichlet(np.full(8, 0.5), size=60)
    rows[rng.random(rows.shape) < 0.2] = 0.0
    entries = [retrieval.IndexEntry(f"z{i:02d}", "image", row) for i, row in enumerate(rows)]
    index = retrieval.build_index(entries, epsilon=0.0)
    for q in (rows[3], np.full(8, 1 / 8)):
        assert retrieval._candidates(index, q, "image", 4, symmetric) is None
        with np.errstate(divide="ignore", invalid="ignore"):
            want = _reference_query(entries, q, "image", 4, symmetric, 0.0)
        assert retrieval.query(index, q, "image", top_n=4, symmetric=symmetric) == want


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("scale", [1e300, 1e307])
def test_query_huge_values_equal_reference(scale, symmetric):
    # At 1e307 sums of 40 coordinates overflow, so the full scan runs.
    rng = np.random.default_rng(14)
    rows = (0.5 + 0.5 * rng.random((50, 40))) * scale
    entries = [retrieval.IndexEntry(f"h{i:02d}", "text", row) for i, row in enumerate(rows)]
    index = retrieval.build_index(entries)
    q = (0.5 + 0.5 * rng.random(40)) * scale
    if scale > 1e306:
        assert retrieval._candidates(index, q, "text", 3, symmetric) is None
    with np.errstate(over="ignore", invalid="ignore"):
        want = _reference_query(entries, q, "text", 3, symmetric, index.epsilon)
        assert retrieval.query(index, q, "text", top_n=3, symmetric=symmetric) == want


def test_log_tables_are_lazy_and_matrix_read_only(tmp_path):
    index = retrieval.build_index(_entries())
    path = str(tmp_path / "index.bin")
    retrieval.save_index(index, path)
    loaded = retrieval.load_index(path)
    for got in (index, loaded):
        assert "_tables" not in vars(got)
        with pytest.raises(ValueError, match="read-only"):
            got.matrix[0, 0] = 0.5
        retrieval.query(got, np.array([0.5, 0.3, 0.2]), "image", top_n=1)
        assert set(got._tables) == {"image"}


def test_build_index_rejects_duplicates_and_mixed_dims():
    with pytest.raises(DuplicateId):
        retrieval.build_index(
            [
                retrieval.IndexEntry("a", "image", np.array([0.5, 0.5])),
                retrieval.IndexEntry("a", "text", np.array([0.5, 0.5])),
            ]
        )
    with pytest.raises(DimensionMismatch):
        retrieval.build_index(
            [
                retrieval.IndexEntry("a", "image", np.array([0.5, 0.5])),
                retrieval.IndexEntry("b", "image", np.array([0.3, 0.3, 0.4])),
            ]
        )
    with pytest.raises(ValueError):
        retrieval.build_index([])


def test_build_index_rejects_scalar_embeddings():
    # save_index would write a 1-D matrix that load_index refuses
    for embedding in (0.5, [[0.5, 0.5]]):
        with pytest.raises(DimensionMismatch, match="expected a \\(k,\\) embedding"):
            retrieval.build_index([retrieval.IndexEntry("a", "image", np.array(embedding))])


# Rows that are not probabilities; each used to rank at divergence 0.0.
INVALID_ROWS = pytest.mark.parametrize(
    "bad", [[-5.0, 0.5], [math.nan, 1.0], [math.inf, 0.0]], ids=["negative", "nan", "inf"]
)


def _two_dim_entries(bad_row=(0.5, 0.5)):
    return [
        retrieval.IndexEntry("exact", "image", np.array([0.9, 0.1])),
        retrieval.IndexEntry("other", "image", np.array(bad_row)),
    ]


@INVALID_ROWS
def test_build_index_rejects_values_outside_probabilities(bad):
    with pytest.raises(DataError, match="finite and non-negative"):
        retrieval.build_index(_two_dim_entries(bad))


@INVALID_ROWS
def test_load_index_rejects_values_outside_probabilities(tmp_path, bad):
    path = str(tmp_path / "index.bin")
    header = {
        "epsilon": 1e-10, "ids": ["exact", "other"], "modalities": ["image", "image"], "payload_refs": ["", ""],
    }
    write_tensor_file(path, MAGIC_INDEX, header, [np.array([[0.9, 0.1], bad])])
    with pytest.raises(CorruptFile, match="finite and non-negative"):
        retrieval.load_index(path)


@INVALID_ROWS
def test_query_rejects_embedding_outside_probabilities(bad):
    index = retrieval.build_index(_two_dim_entries())
    with pytest.raises(DataError, match="finite and non-negative"):
        retrieval.query(index, np.array(bad), "image")


def test_index_entry_validates_modality():
    with pytest.raises(ValueError):
        retrieval.IndexEntry("a", "audio", np.array([1.0]))


# ---------------------------------------------------------------- embeddings

WORDS = ("alpha", "bravo", "charlie", "delta")


@pytest.fixture(scope="module")
def tiny_model():
    bows = [
        BowDocument("d0", {0: 5, 1: 5}),
        BowDocument("d1", {2: 5, 3: 5}),
        BowDocument("d2", {0: 4, 1: 6}),
        BowDocument("d3", {2: 6, 3: 4}),
    ]
    hyper = lda_mod.LdaHyperparams(k=2, alpha=0.1, n_iters=80, seed=2)
    return lda_mod.train(bows, hyper, WORDS)


def test_embed_text_deterministic_and_on_simplex(tiny_model):
    theta = retrieval.embed_text("alpha bravo alpha", tiny_model.word_index, tiny_model)
    again = retrieval.embed_text("alpha bravo alpha", tiny_model.word_index, tiny_model)
    assert np.array_equal(theta, again)
    assert theta.sum() == pytest.approx(1.0)
    assert theta.shape == (2,)


def test_embed_text_finds_planted_topic(tiny_model):
    a = retrieval.embed_text("alpha bravo", tiny_model.word_index, tiny_model)
    b = retrieval.embed_text("charlie delta", tiny_model.word_index, tiny_model)
    assert int(np.argmax(a)) != int(np.argmax(b))
    assert a.max() > 0.8 and b.max() > 0.8


def test_embed_text_rejects_oov(tiny_model):
    with pytest.raises(EmptyDocument):
        retrieval.embed_text("zzz qqq", tiny_model.word_index, tiny_model)


def test_embed_text_accepts_vocab_like_objects(tiny_model):
    text = "alpha charlie"
    via_dict = retrieval.embed_text(text, {w: i for i, w in enumerate(WORDS)}, tiny_model)
    vocab = Vocabulary(words=WORDS, doc_freq=(1,) * len(WORDS), min_df=1, max_df_ratio=1.0, n_docs=1)
    via_vocab = retrieval.embed_text(text, vocab, tiny_model)
    assert np.array_equal(via_dict, via_vocab)


def test_embed_image_matches_predict_topics():
    spec = nn.NetSpec(
        in_shape=(3, 8, 8), layers=(nn.Conv2d(2, 3, pad=1), nn.Relu(), nn.Flatten(), nn.Dense(3))
    )
    checkpoint = textnet.Checkpoint(
        spec=spec, params=nn.init_params(spec, seed=4), iteration=0, sgd=nn.SgdConfig()
    )
    image = np.random.default_rng(5).integers(0, 256, size=(3, 10, 10), dtype=np.uint8)
    np.testing.assert_array_equal(
        retrieval.embed_image(image, checkpoint),
        textnet.predict_topics(checkpoint, image),
    )


# --------------------------------------------------------------------- files

def test_index_roundtrip_preserves_rankings(tmp_path):
    index = retrieval.build_index(_entries(), epsilon=1e-8)
    path = tmp_path / "index.bin"
    retrieval.save_index(index, str(path))
    loaded = retrieval.load_index(str(path))
    assert loaded.epsilon == index.epsilon
    q = np.array([0.3, 0.4, 0.3])
    for modality in ("image", "text"):
        assert retrieval.query(loaded, q, modality, top_n=5) == retrieval.query(
            index, q, modality, top_n=5
        )
    entry = {e.item_id: e for e in loaded.entries}
    assert entry["img_a"].payload_ref == ""


def test_index_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    entries = [
        retrieval.IndexEntry(f"id{i}", ("text", "image")[i % 2], rng.dirichlet(np.ones(4)), payload_ref=f"ref/{i}")
        for i in range(5)
    ]
    index = retrieval.build_index(entries, epsilon=3e-7)
    path = str(tmp_path / "index.bin")
    retrieval.save_index(index, path)
    loaded = retrieval.load_index(path)
    assert loaded.epsilon == index.epsilon
    assert len(loaded.entries) == len(entries)
    for got, want in zip(loaded.entries, entries):
        assert (got.item_id, got.modality, got.payload_ref) == (want.item_id, want.modality, want.payload_ref)
        assert got.embedding.tobytes() == want.embedding.tobytes()


# Ids and payload refs of any text, non-ASCII included; refs are often empty.
index_columns = st.integers(min_value=1, max_value=4).flatmap(
    lambda k: st.tuples(
        st.lists(
            st.tuples(
                st.text(max_size=6),
                st.sampled_from(retrieval.MODALITIES),
                st.one_of(st.just(""), st.text(max_size=6)),
                st.lists(coordinate, min_size=k, max_size=k),
            ),
            min_size=1, max_size=12, unique_by=lambda row: row[0],
        ),
        st.lists(coordinate, min_size=k, max_size=k),  # the query
    )
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(index_columns, st.sampled_from([0.0, 1e-10, 0.05]), st.booleans())
def test_columnar_index_roundtrip(drawn, epsilon, symmetric):
    rows, q = drawn
    entries = [retrieval.IndexEntry(i, m, e, payload_ref=ref) for i, m, ref, e in rows]
    index = retrieval.build_index(entries, epsilon=epsilon)
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "index.bin")
        retrieval.save_index(index, path)
        loaded = retrieval.load_index(path)
    assert loaded.epsilon == epsilon
    for got in (index, loaded):
        assert got.ids == tuple(e.item_id for e in entries)
        assert got.modalities == tuple(e.modality for e in entries)
        assert got.payload_refs == tuple(e.payload_ref for e in entries)
    assert loaded.matrix.tobytes() == index.matrix.tobytes()
    assert len(loaded.entries) == len(entries)
    for got, want in zip(loaded.entries, entries):
        assert (got.item_id, got.modality, got.payload_ref) == (want.item_id, want.modality, want.payload_ref)
        assert got.embedding.tobytes() == want.embedding.tobytes()
    for target in retrieval.MODALITIES:
        if target not in index.modalities:
            with pytest.raises(EmptyModality):
                retrieval.query(loaded, q, target)
            continue
        # with epsilon 0 a zero coordinate divides by zero; both sides get the same bits
        with np.errstate(divide="ignore", invalid="ignore"):
            assert retrieval.query(loaded, q, target, top_n=5, symmetric=symmetric) == retrieval.query(
                index, q, target, top_n=5, symmetric=symmetric
            )


@pytest.mark.parametrize("epsilon", [-1.0, -1e-300, math.nan, math.inf])
def test_build_index_refuses_epsilon_load_index_refuses(epsilon):
    with pytest.raises(DataError, match="epsilon must be finite and non-negative"):
        retrieval.build_index(_entries(), epsilon=epsilon)


def test_zero_epsilon_index_roundtrips(tmp_path):
    path = str(tmp_path / "index.bin")
    retrieval.save_index(retrieval.build_index(_entries(), epsilon=0.0), path)
    assert retrieval.load_index(path).epsilon == 0.0


def test_format_results_exact():
    results = [("imgs/a.ppm", 0.5), ("imgs/b.ppm", 0.0625)]
    text = retrieval.format_results(results)
    assert text == "rank\tid\tdivergence\n1\timgs/a.ppm\t0.5\n2\timgs/b.ppm\t0.0625\n"
