"""Planted dataset generator: vocabulary stability, structure, determinism."""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from ttn import synth
from ttn.corpus import load_corpus, normalize, tokenize
from ttn.fileio import decode_image, read_ppm


def test_topic_vocabularies_disjoint_and_pipeline_stable():
    vocabs = synth.topic_vocabularies(synth.SynthConfig(n_topics=4, words_per_topic=25))
    assert len(vocabs) == 4
    seen = set()
    for words in vocabs:
        assert len(words) == 25
        for word in words:
            # Each planted word must survive tokenize+normalize unchanged,
            # otherwise corpus statistics would drift from the plan.
            assert normalize(tokenize(word)) == [word]
        block = set(words)
        assert not (block & seen)
        seen |= block


def test_documents_follow_topic_blocks(synth_dataset):
    cfg, manifest = synth_dataset
    vocabs = [set(v) for v in manifest["topic_vocabularies"]]
    docs = load_corpus(manifest["corpus"])
    assert len(docs) == cfg.n_topics * cfg.docs_per_topic
    for doc in docs:
        topic = manifest["doc_labels"][doc.doc_id]
        tokens = doc.text.split()
        assert len(tokens) == cfg.tokens_per_doc
        assert set(tokens) <= vocabs[topic]


def test_images_exist_and_are_well_formed(synth_dataset):
    cfg, manifest = synth_dataset
    docs = load_corpus(manifest["corpus"])
    for doc in docs:
        assert len(doc.image_paths) == cfg.images_per_doc
        for rel in doc.image_paths:
            image = read_ppm(os.path.join(manifest["out_dir"], rel))
            assert image.shape == (3, cfg.image_size, cfg.image_size)
            assert image.dtype == np.uint8  # values 0-255


def test_image_color_channel_tracks_topic(synth_dataset):
    cfg, manifest = synth_dataset
    docs = load_corpus(manifest["corpus"])
    for doc in docs[:10]:
        topic = manifest["doc_labels"][doc.doc_id]
        image = read_ppm(os.path.join(manifest["out_dir"], doc.image_paths[0]))
        assert int(np.argmax(image.mean(axis=(1, 2)))) == topic % 3


def test_held_out_images_separate_from_corpus(synth_dataset):
    cfg, manifest = synth_dataset
    held = manifest["held_out"]
    assert len(held) == cfg.n_topics * cfg.held_out_per_topic
    for item in held:
        assert item["path"].startswith("heldout/")
        image = read_ppm(os.path.join(manifest["out_dir"], item["path"]))
        assert image.shape == (3, cfg.image_size, cfg.image_size)
        assert int(np.argmax(image.mean(axis=(1, 2)))) == item["topic"] % 3


def test_queries_come_from_topic_vocabularies(synth_dataset):
    cfg, manifest = synth_dataset
    for item in manifest["queries"]:
        assert item["word"] in manifest["topic_vocabularies"][item["topic"]]


def test_labels_files_match_manifest(synth_dataset):
    cfg, manifest = synth_dataset
    doc_labels = {}
    with open(os.path.join(manifest["out_dir"], "labels.csv"), encoding="utf-8") as fh:
        for line in fh:
            item_id, class_id = line.strip().split(",")
            doc_labels[item_id] = int(class_id)
    assert doc_labels == manifest["doc_labels"]


def test_write_dataset_deterministic(tmp_path):
    cfg = synth.SynthConfig(n_topics=2, docs_per_topic=5, tokens_per_doc=12, words_per_topic=8,
                            held_out_per_topic=1, seed=13)
    m1 = synth.write_dataset(cfg, str(tmp_path / "a"))
    m2 = synth.write_dataset(cfg, str(tmp_path / "b"))
    with open(m1["corpus"], "rb") as fa, open(m2["corpus"], "rb") as fb:
        assert fa.read() == fb.read()
    for item in m1["held_out"]:
        pa = os.path.join(str(tmp_path / "a"), item["path"])
        pb = os.path.join(str(tmp_path / "b"), item["path"])
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read()


def test_synth_config_validation():
    with pytest.raises(ValueError):
        synth.SynthConfig(n_topics=0)
    with pytest.raises(ValueError):
        synth.SynthConfig(image_size=7)
    with pytest.raises(ValueError):
        synth.SynthConfig(tokens_per_doc=0)
    for field in ("images_per_doc", "held_out_per_topic"):
        with pytest.raises(ValueError):
            synth.SynthConfig(**{field: -1})
    synth.SynthConfig(images_per_doc=0, held_out_per_topic=0)  # zero stays allowed


def _dataset_digest(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


# The fixtures and the benchmark generate at most 3 topics; these digests pin
# their data, so a change to the signatures of topics 3-8 cannot move it.
@pytest.mark.parametrize("n_topics, digest", [
    (1, "384515716014ba805c0bf3260e297e869e443b2cbaad06479925117996034628"),
    (2, "5511a506c1fd90d00ed16cc7dde26b9c6621536456e35159bcf0da69ec0dc3da"),
    (3, "4bacf74bbadc7cb055692e9fc5801c2b9bbd5d98b9df4ad72789b87da0154c8c"),
])
def test_three_topic_datasets_unchanged(tmp_path, n_topics, digest):
    cfg = synth.SynthConfig(n_topics=n_topics, docs_per_topic=3, tokens_per_doc=6, words_per_topic=5,
                            images_per_doc=2, held_out_per_topic=2, image_size=12, seed=5)
    synth.write_dataset(cfg, str(tmp_path))
    assert _dataset_digest(str(tmp_path)) == digest


def test_each_topic_has_its_own_signature(tmp_path):
    # Same draws for every topic: images differ only by color and shape.
    images = [synth.render_image(t, np.random.default_rng(0), 16).tobytes() for t in range(synth.N_SIGNATURES)]
    assert len(set(images)) == synth.N_SIGNATURES == 9
    with pytest.raises(ValueError, match="no visual signature"):
        synth.render_image(synth.N_SIGNATURES, np.random.default_rng(0), 16)
    with pytest.raises(ValueError, match="at most 9 topics"):
        synth.write_dataset(synth.SynthConfig(n_topics=10, docs_per_topic=1), str(tmp_path / "ten"))
    assert not (tmp_path / "ten").exists()  # refused before anything is written


def test_render_image_is_the_bytes_the_dataset_stores(synth_dataset):
    # write_dataset draws training images from (seed, 1) in document order
    # and held-out ones from (seed, 2), topic by topic; each PPM holds
    # render_image's bytes as they are.
    cfg, manifest = synth_dataset
    rendered = []
    rng = np.random.default_rng((cfg.seed, 1))
    for doc in load_corpus(manifest["corpus"]):
        topic = manifest["doc_labels"][doc.doc_id]
        rendered += [(rel, synth.render_image(topic, rng, cfg.image_size)) for rel in doc.image_paths]
    rng = np.random.default_rng((cfg.seed, 2))
    rendered += [(h["path"], synth.render_image(h["topic"], rng, cfg.image_size)) for h in manifest["held_out"]]
    assert len(rendered) == len(manifest["image_labels"])
    for rel, image in rendered:
        stored = decode_image(os.path.join(manifest["out_dir"], rel))
        assert image.dtype == stored.dtype == np.uint8, rel
        assert np.array_equal(image, stored), rel
