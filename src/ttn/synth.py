"""Planted synthetic multi-modal datasets for tests and demos.

Each topic owns a disjoint vocabulary of stemmer-stable nonsense words and a
visual signature (a dominant color channel plus a simple shape). Documents
draw their tokens from their topic's vocabulary only, and every document's
images carry that topic's signature, so ground truth is known exactly and
desk-scale pipelines can be scored against it. Three colors and three shapes
give N_SIGNATURES distinct signatures; topics past them have vocabularies but
no images.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .corpus import RawDocument, normalize, save_corpus, tokenize
from .fileio import atomic_write, write_ppm

# No vowels, no s/e/d/g endings: these letters survive tokenize + normalize
# unchanged, so planted words are their own stems.
_LETTERS = "bcfkmnprtvw"

N_SIGNATURES = 9


@dataclass(frozen=True)
class SynthConfig:
    n_topics: int = 3
    docs_per_topic: int = 200
    tokens_per_doc: int = 30
    words_per_topic: int = 30
    images_per_doc: int = 1
    held_out_per_topic: int = 20
    image_size: int = 40
    seed: int = 7

    def __post_init__(self):
        if not 1 <= self.n_topics <= len(_LETTERS):
            raise ValueError(f"n_topics must be in [1, {len(_LETTERS)}]")
        if min(self.docs_per_topic, self.tokens_per_doc, self.words_per_topic) < 1:
            raise ValueError("docs_per_topic, tokens_per_doc, words_per_topic must be >= 1")
        if min(self.images_per_doc, self.held_out_per_topic) < 0:
            raise ValueError("images_per_doc and held_out_per_topic must be >= 0")
        if self.image_size < 8:
            raise ValueError("image_size must be >= 8")


def topic_vocabularies(cfg):
    """Disjoint per-topic word lists, deterministic in cfg alone."""
    vocabularies = []
    for topic in range(cfg.n_topics):
        words = []
        i = 0
        while len(words) < cfg.words_per_topic:
            # Base-len(_LETTERS) encoding of i, prefixed by the topic letter.
            suffix = ""
            value = i
            for _ in range(3):
                suffix += _LETTERS[value % len(_LETTERS)]
                value //= len(_LETTERS)
            word = _LETTERS[topic] * 2 + suffix
            i += 1
            if normalize(tokenize(word)) != [word]:
                continue
            words.append(word)
        vocabularies.append(words)
    return vocabularies


def _draw_shape(image, topic, rng, size):
    """Stamp the topic's shape in the topic's color at a random position."""
    channel = topic % 3
    extent = max(4, size // 4)
    top = int(rng.integers(0, size - extent + 1))
    left = int(rng.integers(0, size - extent + 1))
    color = np.full(3, 0.08)
    color[channel] = 0.95
    kind = (topic + topic // 3) % 3  # with color topic % 3, one pair per topic 0-8
    ys, xs = np.mgrid[0:extent, 0:extent]
    if kind == 0:  # filled square
        mask = np.ones((extent, extent), dtype=bool)
    elif kind == 1:  # disk
        r = extent / 2.0
        mask = (ys - r + 0.5) ** 2 + (xs - r + 0.5) ** 2 <= r * r
    else:  # cross
        thickness = max(1, extent // 3)
        mid = (extent - thickness) // 2
        mask = np.zeros((extent, extent), dtype=bool)
        mask[mid : mid + thickness, :] = True
        mask[:, mid : mid + thickness] = True
    region = image[:, top : top + extent, left : left + extent]
    region[:, mask] = color[:, None]


def render_image(topic, rng, size):
    """A noisy background washed with the topic color, plus the topic shape,
    as (3, size, size) uint8 bytes: intensities in [0, 1] rounded to v * 255."""
    if not 0 <= topic < N_SIGNATURES:
        raise ValueError(f"topic {topic} has no visual signature; images exist for topics 0-{N_SIGNATURES - 1}")
    image = rng.uniform(0.15, 0.35, size=(3, size, size))
    image[topic % 3] += 0.35
    _draw_shape(image, topic, rng, size)
    return np.rint(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)


def make_documents(cfg):
    """Planted documents (without image paths) and their topic labels.

    Topics interleave by document index (doc i belongs to topic i mod T), so
    any stride-based train/validation split stays stratified.
    """
    vocabularies = topic_vocabularies(cfg)
    rng = np.random.default_rng((cfg.seed, 0))
    docs = []
    labels = {}
    for i in range(cfg.n_topics * cfg.docs_per_topic):
        topic = i % cfg.n_topics
        words = rng.choice(vocabularies[topic], size=cfg.tokens_per_doc)
        doc_id = f"doc{i:05d}"
        docs.append(RawDocument(doc_id=doc_id, text=" ".join(words)))
        labels[doc_id] = topic
    return docs, labels


def write_dataset(cfg, out_dir):
    """Materialize a dataset on disk and return its manifest.

    Layout: corpus.jsonl, images/ (training PPMs), heldout/ (evaluation PPMs
    never referenced by the corpus), labels.csv (doc_id,topic),
    image_labels.csv (relative image path,topic for both splits), and
    queries.json (ten planted one-word queries per topic).
    """
    if cfg.n_topics > N_SIGNATURES and (cfg.images_per_doc or cfg.held_out_per_topic):
        raise ValueError(f"images exist for at most {N_SIGNATURES} topics, got {cfg.n_topics}")
    os.makedirs(os.path.join(out_dir, "images"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "heldout"), exist_ok=True)
    docs, labels = make_documents(cfg)
    rng = np.random.default_rng((cfg.seed, 1))

    corpus_docs = []
    image_labels = {}
    for i, doc in enumerate(docs):
        topic = labels[doc.doc_id]
        rel_paths = []
        for j in range(cfg.images_per_doc):
            rel = os.path.join("images", f"{doc.doc_id}_{j}.ppm")
            write_ppm(os.path.join(out_dir, rel), render_image(topic, rng, cfg.image_size))
            rel_paths.append(rel)
            image_labels[rel] = topic
        corpus_docs.append(RawDocument(doc_id=doc.doc_id, text=doc.text, image_paths=tuple(rel_paths)))

    held_out = []
    rng_held = np.random.default_rng((cfg.seed, 2))
    for topic in range(cfg.n_topics):
        for j in range(cfg.held_out_per_topic):
            rel = os.path.join("heldout", f"topic{topic}_{j:03d}.ppm")
            write_ppm(os.path.join(out_dir, rel), render_image(topic, rng_held, cfg.image_size))
            held_out.append({"path": rel, "topic": topic})
            image_labels[rel] = topic

    save_corpus(corpus_docs, os.path.join(out_dir, "corpus.jsonl"))

    with atomic_write(os.path.join(out_dir, "labels.csv"), "w") as fh:
        for doc_id in sorted(labels):
            fh.write(f"{doc_id},{labels[doc_id]}\n")
    with atomic_write(os.path.join(out_dir, "image_labels.csv"), "w") as fh:
        for rel in sorted(image_labels):
            fh.write(f"{rel},{image_labels[rel]}\n")

    vocabularies = topic_vocabularies(cfg)
    queries = [
        {"word": word, "topic": topic}
        for topic in range(cfg.n_topics)
        for word in vocabularies[topic][: min(10, cfg.words_per_topic)]
    ]
    with atomic_write(os.path.join(out_dir, "queries.json"), "w") as fh:
        json.dump(queries, fh, sort_keys=True, indent=1)
        fh.write("\n")

    return {
        "out_dir": out_dir,
        "corpus": os.path.join(out_dir, "corpus.jsonl"),
        "doc_labels": labels,
        "image_labels": image_labels,
        "held_out": held_out,
        "queries": queries,
        "topic_vocabularies": vocabularies,
    }
