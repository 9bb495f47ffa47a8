"""Corpus handling: tokenization, stemming, vocabulary filtering, bag-of-words.

The text pipeline is deliberately rule-based and deterministic so that two
runs over the same corpus always produce byte-identical vocabularies. Word
ids are positions in the lexicographically sorted retained word list, which
makes them independent of document order.
"""

from __future__ import annotations

import functools
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field

from .errors import CorruptFile, DuplicateId, EmptyVocabulary
from .fileio import atomic_write, parse_json, read_text

_TOKEN_RE = re.compile(r"[a-z]+")
_VOWELS = frozenset("aeiouy")

# A compact general-purpose English stopword list (~150 entries). It is fixed
# rather than settable because no artifact records it: vocabulary building,
# LDA training and every fold-in must normalize text the same way.
DEFAULT_STOPWORDS = frozenset(
    """
    a about above after again against all also am an and any are as at
    be because been before being below between both but by
    came can cannot come could did do does doing down during
    each even every few for from further
    get go got had has have having he her here hers herself him himself his
    how however i if in into is it its itself just like
    made make many may me might more most much must my myself
    never no nor not now of off on once one only or other our ours ourselves
    out over own put said same say see seen shall she should since so some
    still such take than that the their theirs them themselves then there
    these they this those through to too under until up upon us used using
    very was we well were what when where which while who whom why will with
    would you your yours yourself yourselves
    """.split()
)


def tokenize(text):
    """Split text into lowercase alphabetic tokens.

    The text is lowercased, maximal runs of ASCII letters are extracted
    (digits and punctuation act as separators), and runs shorter than two
    characters are dropped.
    """
    return [t for t in _TOKEN_RE.findall(text.lower()) if len(t) >= 2]


def stem(token):
    """Strip common English suffixes from a lowercase token.

    This is a small deterministic stand-in for a full stemmer. One pass of
    the rules below can expose another suffix ("aaases" -> "aaas",
    "speeded" -> "speed"), so passes repeat until the word stops changing;
    every change shortens it, so this ends, and stem(stem(w)) == stem(w).
    """
    word = token
    while True:
        shorter = _strip_suffixes(word)
        if shorter == word:
            return word
        word = shorter


def _strip_suffixes(token):
    """One pass of stem's rules, in order:

    1. plurals: "-sses" -> "-ss"; "-ies" -> "-y" when the token has five or
       more letters; "-xes"/"-ses"/"-zes"/"-ches"/"-shes" drop the "es";
       otherwise a final "-s" is dropped when the token is longer than three
       letters and does not end in "-ss" or "-us";
    2. "-ing" and "-ed" are dropped when the remaining stem is at least three
       letters and contains a vowel;
    3. a doubled trailing consonant exposed by rule 2 is singled, except
       "ll", "ss", and "zz" ("running" -> "runn" -> "run").
    """
    word = token
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies") and len(word) >= 5:
        word = word[:-3] + "y"
    elif word.endswith(("xes", "ses", "zes", "ches", "shes")):
        word = word[:-2]
    elif word.endswith("s") and not word.endswith(("ss", "us")) and len(word) > 3:
        word = word[:-1]

    stripped = False
    for suffix in ("ing", "ed"):
        if word.endswith(suffix):
            rest = word[: -len(suffix)]
            if len(rest) >= 3 and any(c in _VOWELS for c in rest):
                word = rest
                stripped = True
            break
    if stripped and len(word) >= 2 and word[-1] == word[-2] and word[-1] not in "aeioulsz":
        word = word[:-1]
    return word


# Distinct tokens whose normal form normalize remembers.
_NORMAL_FORMS_CACHED = 2**16


@functools.lru_cache(maxsize=_NORMAL_FORMS_CACHED)
def _normal_form(token):
    """token's stem, or None when normalize drops it."""
    if token in DEFAULT_STOPWORDS:
        return None
    stemmed = stem(token)
    if len(stemmed) < 2 or stemmed in DEFAULT_STOPWORDS:
        return None
    return stemmed


def normalize(tokens):
    """Remove stopwords, stem the remainder, preserve order.

    A token whose stem lands on a stopword (or shrinks below two letters) is
    dropped as well, so running the tokenize/normalize pipeline over its own
    output changes nothing. Each distinct token is stemmed once.
    """
    return [form for form in map(_normal_form, tokens) if form is not None]


@dataclass(frozen=True)
class RawDocument:
    """One corpus entry: an id, its text, and paths of its paired images."""

    doc_id: str
    text: str
    image_paths: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.doc_id:
            raise ValueError("doc_id must be nonempty")
        object.__setattr__(self, "image_paths", tuple(self.image_paths))
        if any(not p for p in self.image_paths):
            raise ValueError(f"doc {self.doc_id!r} has an empty image path")


@dataclass(frozen=True)
class Vocabulary:
    """Retained words (lexicographically ordered) with their document counts."""

    words: tuple[str, ...]
    doc_freq: tuple[int, ...]
    min_df: int
    max_df_ratio: float
    n_docs: int
    index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(self.words))
        object.__setattr__(self, "doc_freq", tuple(self.doc_freq))
        if list(self.words) != sorted(self.words):
            raise ValueError("vocabulary words must be sorted")
        if len(self.words) != len(set(self.words)):
            raise ValueError("vocabulary words must be unique")
        if len(self.words) != len(self.doc_freq):
            raise ValueError("words and doc_freq lengths differ")
        if any(f < 0 for f in self.doc_freq):
            raise ValueError("doc_freq values must be >= 0")
        if self.min_df < 1 or self.n_docs < 1:
            raise ValueError(f"min_df and n_docs must be >= 1, got {self.min_df} and {self.n_docs}")
        if not 0.0 < self.max_df_ratio <= 1.0:  # NaN fails this too
            raise ValueError(f"max_df_ratio must be in (0, 1], got {self.max_df_ratio}")
        object.__setattr__(self, "index", {w: i for i, w in enumerate(self.words)})

    def __len__(self):
        return len(self.words)

    def __contains__(self, word):
        return word in self.index

    def word_id(self, word):
        return self.index[word]

    def to_json(self):
        return {
            "words": list(self.words),
            "doc_freq": list(self.doc_freq),
            "min_df": self.min_df,
            "max_df_ratio": self.max_df_ratio,
            "n_docs": self.n_docs,
        }

    @classmethod
    def from_json(cls, obj):
        """The vocabulary a JSON object holds. Each field must have its JSON
        type, a bool counting as neither integer nor number, and a value in
        its domain (doc_freq >= 0, min_df and n_docs >= 1, max_df_ratio in
        (0, 1]); else CorruptFile."""
        if not isinstance(obj, dict):
            raise CorruptFile("invalid vocabulary file: not a JSON object")
        words, doc_freq = obj.get("words"), obj.get("doc_freq")
        if not (
            isinstance(words, list)
            and all(isinstance(w, str) for w in words)
            and isinstance(doc_freq, list)
            and all(type(f) is int for f in doc_freq)
            and type(obj.get("min_df")) is int
            and type(obj.get("n_docs")) is int
            and type(obj.get("max_df_ratio")) in (int, float)
        ):
            raise CorruptFile(
                "invalid vocabulary file: words must be a list of strings, doc_freq a list of "
                "integers, min_df and n_docs integers and max_df_ratio a number"
            )
        try:
            return cls(
                words=tuple(words),
                doc_freq=tuple(doc_freq),
                min_df=obj["min_df"],
                max_df_ratio=obj["max_df_ratio"],
                n_docs=obj["n_docs"],
            )
        except ValueError as exc:
            raise CorruptFile(f"invalid vocabulary file: {exc}")

    def save(self, path):
        with atomic_write(path, "w") as fh:
            json.dump(self.to_json(), fh, sort_keys=True, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        return cls.from_json(parse_json(read_text(path), path))


@dataclass(frozen=True)
class BowDocument:
    """Bag-of-words view of a document: word id -> positive count."""

    doc_id: str
    counts: dict

    def __post_init__(self):
        if any(c < 1 for c in self.counts.values()):
            raise ValueError("bag-of-words counts must be >= 1")

    def n_tokens(self):
        return sum(self.counts.values())


def build_vocabulary(docs, min_df=20, max_df_ratio=0.5):
    """Build a document-frequency-filtered vocabulary over normalized tokens.

    A word is retained iff min_df <= df(word) <= floor(max_df_ratio * n_docs),
    both bounds inclusive. The defaults (20 and 0.5) drop rare typos and
    corpus-wide filler words on article-scale corpora; desk-scale corpora
    want smaller values.
    """
    if not docs:
        raise ValueError("docs must be nonempty")
    if min_df < 1:
        raise ValueError(f"min_df must be >= 1, got {min_df}")
    if not 0.0 < max_df_ratio <= 1.0:
        raise ValueError(f"max_df_ratio must be in (0, 1], got {max_df_ratio}")

    seen = set()
    for doc in docs:
        if doc.doc_id in seen:
            raise DuplicateId(f"duplicate doc_id {doc.doc_id!r}")
        seen.add(doc.doc_id)

    df = Counter()
    for doc in docs:
        df.update(set(normalize(tokenize(doc.text))))

    n_docs = len(docs)
    # Integer df makes "df <= ratio * n" equivalent to "df <= floor(ratio * n)";
    # the tiny epsilon guards against 0.5 * 4 style products landing below the
    # exact integer because of float rounding.
    max_df = math.floor(max_df_ratio * n_docs + 1e-9)
    kept = sorted(w for w, f in df.items() if min_df <= f <= max_df)
    if not kept:
        raise EmptyVocabulary(
            f"no word has document frequency in [{min_df}, {max_df}] over {n_docs} docs"
        )
    return Vocabulary(
        words=tuple(kept),
        doc_freq=tuple(df[w] for w in kept),
        min_df=min_df,
        max_df_ratio=max_df_ratio,
        n_docs=n_docs,
    )


def text_to_counts(text, word_index):
    """Normalized in-vocabulary token counts for a text, given word -> id."""
    counts = Counter()
    for token in normalize(tokenize(text)):
        word_id = word_index.get(token)
        if word_id is not None:
            counts[word_id] += 1
    return dict(counts)


def doc_to_bow(doc, vocab):
    """Bag-of-words for one document. Out-of-vocabulary tokens are dropped;
    a document with no in-vocabulary tokens yields empty counts, which later
    stages treat as an error or skip explicitly."""
    return BowDocument(doc_id=doc.doc_id, counts=text_to_counts(doc.text, vocab.index))


def load_corpus(path):
    """Read a JSON Lines corpus: one {"id", "text", "images"} object per line."""
    docs = []
    seen = set()
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        obj = parse_json(line, f"{path}:{lineno}")
        try:
            doc_id, text, images = obj["id"], obj["text"], obj.get("images", [])
            if not isinstance(doc_id, str) or not isinstance(text, str):
                raise TypeError("id and text must be strings")
            if not isinstance(images, list) or not all(isinstance(p, str) for p in images):
                raise TypeError("images must be a list of strings")
            doc = RawDocument(doc_id=doc_id, text=text, image_paths=tuple(images))
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptFile(f"{path}:{lineno}: invalid document: {exc}")
        if doc.doc_id in seen:
            raise DuplicateId(f"{path}:{lineno}: duplicate doc id {doc.doc_id!r}")
        seen.add(doc.doc_id)
        docs.append(doc)
    return docs


def save_corpus(docs, path):
    """Write documents as JSON Lines, one object per document."""
    with atomic_write(path, "w") as fh:
        for doc in docs:
            fh.write(
                json.dumps(
                    {"id": doc.doc_id, "text": doc.text, "images": list(doc.image_paths)},
                    sort_keys=True,
                )
            )
            fh.write("\n")
