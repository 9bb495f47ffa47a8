"""Text pipeline: tokenizer, stemmer, vocabulary filtering, corpus files."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttn import corpus as C
from ttn import synth
from ttn.errors import CorruptFile, DuplicateId, EmptyVocabulary


# ----------------------------------------------------------------- tokenize

def test_tokenize_hand_examples():
    assert C.tokenize("The cats, sat!") == ["the", "cats", "sat"]
    assert C.tokenize("A1 b2c 42") == []  # single letters and digits drop out
    assert C.tokenize("don't stop-me now") == ["don", "stop", "me", "now"]
    assert C.tokenize("") == []
    assert C.tokenize("ALL CAPS") == ["all", "caps"]


def test_tokenize_splits_on_any_nonletter():
    assert C.tokenize("a1b2cd3") == ["cd"]
    assert C.tokenize("x__yy__z") == ["yy"]


@given(st.text())
def test_tokenize_output_is_lowercase_letters_min_two(text):
    for token in C.tokenize(text):
        assert len(token) >= 2
        assert token.islower()
        assert token.isalpha()


# --------------------------------------------------------------------- stem

@pytest.mark.parametrize(
    "word,expected",
    [
        ("cats", "cat"),
        ("classes", "class"),
        ("boxes", "box"),
        ("churches", "church"),
        ("bushes", "bush"),
        ("ponies", "pony"),
        ("running", "run"),
        ("runs", "run"),
        ("jumped", "jump"),
        ("hopped", "hop"),
        ("falling", "fall"),   # ll kept: l never undoubled
        ("passed", "pass"),    # ss kept
        ("buzzed", "buzz"),    # zz kept
        ("agreed", "agre"),    # bare suffix strip; conflates with "agrees" -> "agree" closely enough
        ("sing", "sing"),      # remainder too short to strip -ing
        ("red", "red"),        # remainder too short to strip -ed
        ("this", "thi"),       # stopwords never reach the stemmer in the pipeline
        ("bus", "bus"),
        ("house", "house"),
        ("aaases", "aaa"),     # "-ses" exposes "-s": stemmed to a fixed point
        ("speeded", "spe"),    # "-ed" exposes "-ed"
    ],
)
def test_stem_hand_examples(word, expected):
    assert C.stem(word) == expected


@given(st.from_regex(r"[a-z]{2,12}", fullmatch=True))
@example("aaases")
@example("speeded")
def test_stem_idempotent_on_common_shapes(word):
    once = C.stem(word)
    assert C.stem(once) == once


def test_normalize_drops_stopwords_and_short_stems():
    tokens = C.tokenize("The cats sat on the mats")
    assert C.normalize(tokens) == ["cat", "sat", "mat"]


def test_normalize_drops_stems_that_become_stopwords():
    # A token may stem INTO a stopword; it must still be dropped.
    assert "the" in C.DEFAULT_STOPWORDS
    assert C.normalize(["thes"]) == []


@given(st.lists(st.from_regex(r"[a-z]{2,10}", fullmatch=True), max_size=30))
@example(["aaases"])
@example(["speeded"])
def test_normalize_idempotent(tokens):
    once = C.normalize(tokens)
    assert C.normalize(once) == once


def test_planted_words_are_one_pass_fixed_points():
    # Every word synth can plant, for any topic count, is left alone by a
    # single pass of the rules, so stemming to a fixed point normalizes the
    # synthetic corpora (and the benchmark's, drawn from the same lists)
    # exactly as one pass did.
    cfg = synth.SynthConfig(n_topics=11, words_per_topic=11**3)
    words = [w for vocabulary in synth.topic_vocabularies(cfg) for w in vocabulary]
    assert len(set(words)) == 11 * 11**3
    assert [C._strip_suffixes(w) for w in words] == words
    assert C.normalize(words) == words


# --------------------------------------------------------------- vocabulary

def _docs(texts):
    return [C.RawDocument(doc_id=f"d{i:02d}", text=t, image_paths=()) for i, t in enumerate(texts)]


def test_build_vocabulary_df_window():
    # "common" in all 4 docs, "pair" in 2, "rare" in 1.
    docs = _docs(
        [
            "common pair zebra",
            "common pair",
            "common rare",
            "common",
        ]
    )
    vocab = C.build_vocabulary(docs, min_df=2, max_df_ratio=0.6)
    # max_df = floor(0.6 * 4) = 2, so "common" (df 4) is too frequent, "rare"/"zebra" (df 1) too rare.
    assert vocab.words == ("pair",)
    assert vocab.doc_freq == (2,)
    assert vocab.n_docs == 4


def test_build_vocabulary_counts_each_doc_once():
    docs = _docs(["echo echo echo", "echo", "blank filler words here"])
    vocab = C.build_vocabulary(docs, min_df=2, max_df_ratio=1.0)
    assert vocab.words == ("echo",)
    assert vocab.doc_freq == (2,)  # df counts documents, not occurrences


def test_build_vocabulary_sorted_and_indexed():
    docs = _docs(["zebra apple zebra apple", "apple zebra"])
    vocab = C.build_vocabulary(docs, min_df=1, max_df_ratio=1.0)
    assert vocab.words == tuple(sorted(vocab.words))
    for i, word in enumerate(vocab.words):
        assert vocab.word_id(word) == i


def test_build_vocabulary_empty_raises():
    docs = _docs(["unique tokens", "other words"])
    with pytest.raises(EmptyVocabulary):
        C.build_vocabulary(docs, min_df=5, max_df_ratio=1.0)


def test_build_vocabulary_duplicate_doc_id():
    docs = [
        C.RawDocument(doc_id="same", text="alpha beta", image_paths=()),
        C.RawDocument(doc_id="same", text="gamma delta", image_paths=()),
    ]
    with pytest.raises(DuplicateId):
        C.build_vocabulary(docs, min_df=1, max_df_ratio=1.0)


@given(
    st.lists(
        st.lists(st.sampled_from(["kit", "fox", "owl", "elk", "bat", "cod"]), min_size=1, max_size=8),
        min_size=1,
        max_size=12,
    ),
    st.integers(min_value=1, max_value=4),
)
def test_build_vocabulary_df_recount_matches(token_lists, min_df):
    docs = _docs([" ".join(tokens) for tokens in token_lists])
    try:
        vocab = C.build_vocabulary(docs, min_df=min_df, max_df_ratio=1.0)
    except EmptyVocabulary:
        return
    max_df = math.floor(1.0 * len(docs) + 1e-9)
    for word, df in zip(vocab.words, vocab.doc_freq):
        recount = sum(1 for tl in token_lists if word in set(C.normalize(tl)))
        assert recount == df
        assert min_df <= df <= max_df


def test_doc_to_bow_counts():
    vocab = C.build_vocabulary(_docs(["cat dog cat", "dog bird"]), min_df=1, max_df_ratio=1.0)
    bow = C.doc_to_bow(C.RawDocument("x", "cats cat dog zzzzq", ()), vocab)
    by_word = {vocab.words[i]: n for i, n in bow.counts.items()}
    assert by_word == {"cat": 2, "dog": 1}  # OOV token ignored


def test_text_to_counts_accepts_plain_dict_index():
    index = {"cat": 0, "dog": 1}
    assert C.text_to_counts("cat cat dog horse", index) == {0: 2, 1: 1}


@given(st.lists(st.sampled_from(["kit", "fox", "owl"]), min_size=1, max_size=20))
def test_bow_total_matches_kept_tokens(tokens):
    docs = _docs([" ".join(tokens), "kit fox owl"])
    vocab = C.build_vocabulary(docs, min_df=1, max_df_ratio=1.0)
    bow = C.doc_to_bow(docs[0], vocab)
    assert bow.n_tokens() == len(C.normalize(tokens))


# ------------------------------------------------------------ corpus files

def test_corpus_roundtrip(tmp_path):
    docs = [
        C.RawDocument("a", "first document text", ("img/a.ppm",)),
        C.RawDocument("b", "second one", ("img/b1.ppm", "img/b2.ppm")),
        C.RawDocument("c", "no images here", ()),
    ]
    path = tmp_path / "corpus.jsonl"
    C.save_corpus(docs, str(path))
    assert C.load_corpus(str(path)) == docs


def test_corpus_requires_fields(tmp_path):
    path = tmp_path / "bad.jsonl"
    for line in [
        '{"id": "a"}',
        '{"id": null, "text": null, "images": "a.ppm"}',
        '{"id": 7, "text": "cat"}',
        '{"id": "a", "text": ["cat"]}',
        '{"id": "a", "text": "cat", "images": "a.ppm"}',
        '{"id": "a", "text": "cat", "images": [1]}',
        '{"id": "a", "text": "cat", "images": null}',
        '["a", "cat"]',
    ]:
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(CorruptFile):
            C.load_corpus(str(path))


def test_corpus_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dup.jsonl"
    line = json.dumps({"id": "a", "text": "x y", "images": []})
    path.write_text(line + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(DuplicateId):
        C.load_corpus(str(path))


def test_corpus_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json at all\n", encoding="utf-8")
    with pytest.raises(CorruptFile):
        C.load_corpus(str(path))


def test_vocabulary_roundtrip(tmp_path):
    docs = _docs(["cat dog", "dog bird", "cat bird"])
    vocab = C.build_vocabulary(docs, min_df=1, max_df_ratio=1.0)
    path = tmp_path / "vocab.json"
    vocab.save(str(path))
    assert C.Vocabulary.load(str(path)) == vocab


def test_vocabulary_load_rejects_garbage(tmp_path):
    path = tmp_path / "vocab.json"
    good = {"words": ["ab", "cd"], "doc_freq": [2, 3], "min_df": 1, "max_df_ratio": 0.5, "n_docs": 4}
    path.write_text(json.dumps(good), encoding="utf-8")
    assert C.Vocabulary.load(str(path)).words == ("ab", "cd")
    bad = [
        [1, 2, 3],
        {**good, "words": "ab", "doc_freq": [1, 1], "min_df": "x", "n_docs": True},
        {**good, "words": "ab", "doc_freq": [1, 1]},
        {**good, "words": ["ab", 3]},
        {**good, "doc_freq": [2, 3.0]},
        {**good, "doc_freq": [2, True]},
        {**good, "doc_freq": "23"},
        {**good, "min_df": "1"},
        {**good, "min_df": 1.0},
        {**good, "n_docs": True},
        {**good, "max_df_ratio": "0.5"},
        {**good, "max_df_ratio": False},
        {**good, "doc_freq": [2]},
        {k: v for k, v in good.items() if k != "n_docs"},
    ]
    for obj in bad:
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(CorruptFile):
            C.Vocabulary.load(str(path))


def test_vocabulary_load_rejects_out_of_domain_values(tmp_path):
    path = tmp_path / "vocab.json"
    good = {"words": ["ab", "cd"], "doc_freq": [0, 3], "min_df": 1, "max_df_ratio": 1, "n_docs": 4}
    path.write_text(json.dumps(good), encoding="utf-8")
    assert C.Vocabulary.load(str(path)).doc_freq == (0, 3)
    bad = [
        {"words": ["ab"], "doc_freq": [-3], "min_df": -1, "max_df_ratio": math.nan, "n_docs": 0},
        {**good, "doc_freq": [2, -1]},
        {**good, "min_df": 0},
        {**good, "n_docs": 0},
        {**good, "max_df_ratio": math.nan},
        {**good, "max_df_ratio": 0},
        {**good, "max_df_ratio": -0.5},
        {**good, "max_df_ratio": 1.5},
    ]
    for obj in bad:
        path.write_text(json.dumps(obj), encoding="utf-8")  # NaN is written as the NaN that json.loads accepts
        with pytest.raises(CorruptFile, match="invalid vocabulary file"):
            C.Vocabulary.load(str(path))


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_pipeline_deterministic(seed):
    # Same text in, same tokens out, independent of any ambient state.
    text = f"Seeded text number {seed} with cats running and jumped fences"
    assert C.normalize(C.tokenize(text)) == C.normalize(C.tokenize(text))
