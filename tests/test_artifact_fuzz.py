"""Every artifact loader fails only with DataError on damaged files.

One valid file of each kind (topic model, checkpoint, retrieval index,
features, PPM image, JSONL corpus, vocabulary JSON, label CSV, score CSV) is
truncated, bit-flipped and extended; loading the result must either succeed or raise a DataError
subclass, never anything else.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttn import corpus, evaluate, fileio, lda, nn, retrieval, textnet
from ttn.errors import CorruptFile, DataError, FormatVersionMismatch


def _model():
    rng = np.random.default_rng(0)
    words = ("aaa", "bbb", "ccc", "ddd")
    return lda.LdaModel(
        vocab_size=4, k=2, phi=rng.dirichlet(np.ones(4), size=2),
        hyper=lda.LdaHyperparams(k=2, n_iters=4, seed=3),
        doc_thetas={f"doc{i}": rng.dirichlet(np.ones(2)) for i in range(3)}, words=words,
    )


def _checkpoint():
    spec = nn.NetSpec(
        in_shape=(1, 4, 4),
        layers=(nn.Conv2d(2, 3, pad=1), nn.Relu(), nn.MaxPool2d(2), nn.Flatten(), nn.Dense(2)),
    )
    return textnet.Checkpoint(
        spec=spec, params=nn.init_params(spec, 0), iteration=7, sgd=nn.SgdConfig(), lda_model_hash="ab12",
    )


def _index():
    rng = np.random.default_rng(1)
    return retrieval.build_index([
        retrieval.IndexEntry(f"item{i}", ("text", "image")[i % 2], rng.dirichlet(np.ones(3)), f"ref{i}")
        for i in range(4)
    ])


def _corpus():
    return [
        corpus.RawDocument(f"doc{i}", f"apple banana cherry {i}", (f"img{i}.ppm",) * (i % 2))
        for i in range(3)
    ]


def _save_scores(path):
    rows = [f"q{i % 2},item{i},{0.1 * i:.1f},{i % 3 == 0:d}" for i in range(6)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("query_id,item_id,score,relevant\n" + "\n".join(rows) + "\n")


def _save_labels(path):
    rows = [f"img{i}.ppm,{i % 2},all" for i in range(4)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")


KINDS = {
    "model": (lambda path: lda.save_model(_model(), path), lda.load_model),
    "checkpoint": (lambda path: textnet.save_checkpoint(_checkpoint(), path), textnet.load_checkpoint),
    "index": (lambda path: retrieval.save_index(_index(), path), retrieval.load_index),
    "features": (
        lambda path: evaluate.save_features([(f"f{i}", np.arange(3.0) + i) for i in range(3)], path, "fc7"),
        evaluate.load_features,
    ),
    "ppm": (
        lambda path: fileio.write_ppm(path, np.rint(np.random.default_rng(2).random((3, 4, 5)) * 255).astype(np.uint8)),
        fileio.read_ppm,
    ),
    "corpus": (lambda path: corpus.save_corpus(_corpus(), path), corpus.load_corpus),
    "vocab": (
        lambda path: corpus.build_vocabulary(_corpus(), min_df=1, max_df_ratio=1.0).save(path),
        corpus.Vocabulary.load,
    ),
    "labels": (
        _save_labels,
        evaluate.load_labels,
    ),
    "scores": (_save_scores, evaluate.load_scores),
}
JSON_KINDS = ("corpus", "vocab")
TEXT_KINDS = JSON_KINDS + ("labels", "scores")


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("artifacts")
    files = {}
    for kind, (save, _) in KINDS.items():
        path = str(root / kind)
        save(path)
        with open(path, "rb") as fh:
            files[kind] = fh.read()
    return str(root), files


def _header_end(raw, kind):
    if kind in TEXT_KINDS:
        return len(raw)  # all structure
    if kind == "ppm":
        return raw.index(b"255\n") + 4  # a PPM's text header
    return 16 + int.from_bytes(raw[8:16], "little")


# Each mutation is (op, position, value). Positions are taken modulo the
# current length; flips land in the header half of the time, since that is
# where structure lives (payload flips only change float values).
mutations = st.lists(
    st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, 2**16), st.just(0)),
        st.tuples(st.just("flip_header"), st.integers(0, 2**16), st.integers(0, 7)),
        st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(0, 7)),
        st.tuples(st.just("append"), st.integers(1, 16), st.integers(0, 255)),
    ),
    min_size=1,
    max_size=3,
)


def _mutate(raw, kind, ops):
    data = bytearray(raw)
    header_end = _header_end(raw, kind)
    for op, pos, value in ops:
        if op == "truncate":
            del data[pos % (len(data) + 1):]
        elif op == "append":
            data += bytes([value]) * pos
        elif data:
            span = min(header_end, len(data)) if op == "flip_header" else len(data)
            data[pos % span] ^= 1 << value
    return bytes(data)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(derandomize=True, deadline=None, max_examples=80)
@given(ops=mutations)
def test_damaged_artifact_raises_only_data_error(valid_files, kind, ops):
    root, files = valid_files
    path = os.path.join(root, f"mutant_{kind}")
    with open(path, "wb") as fh:
        fh.write(_mutate(files[kind], kind, ops))
    try:
        KINDS[kind][1](path)
    except DataError:
        pass


@pytest.mark.parametrize("kind, old_magic", [
    ("model", b"TTNLDA1\x00"), ("model", b"TTNLDA2\x00"), ("checkpoint", b"TTNNET1\x00"),
])
def test_previous_format_version_rejected(valid_files, kind, old_magic):
    root, files = valid_files
    path = os.path.join(root, f"old_{kind}")
    with open(path, "wb") as fh:
        fh.write(old_magic + files[kind][8:])
    with pytest.raises(FormatVersionMismatch):
        KINDS[kind][1](path)


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("checkpoint", b'"iteration":7', b'"iteration":1e999'),
        ("index", b'"epsilon":1e-10', b'"epsilon":NaN'),
        ("index", b'"epsilon":1e-10', b'"epsilon":' + b"9" * 400),
        ("index", b'"epsilon":1e-10', b'"epsilon":-1.0'),
        ("model", b'"infer_iters":50', b'"infer_iters":2.5'),
        ("model", b'"seed":3', b'"seed":true'),
        ("model", b'"k":2', b'"k":7'),
        ("model", b'"alpha":null', b'"alpha":true'),
        ("model", b'"beta_prior":0.01', b'"beta_prior":true'),
        ("model", b'"alpha":null', b'"alpha":"0.5"'),
        ("model", b'"alpha":null', b'"alpha":' + b"9" * 400),
        ("checkpoint", b'"iteration":7', b'"iteration":"7"'),
        ("checkpoint", b'"iteration":7', b'"iteration":7.9'),
        ("checkpoint", b'"iteration":7', b'"iteration":true'),
        ("checkpoint", b'"iteration":7', b'"iteration":-5'),
        ("checkpoint", b'"seed":0', b'"seed":"3"'),
        ("checkpoint", b'"seed":0', b'"seed":2.5'),
        ("checkpoint", b'"lda_model_hash":"ab12"', b'"lda_model_hash":12'),
        ("checkpoint", b'"batch_size":64', b'"batch_size":true'),
        ("index", b'"epsilon":1e-10', b'"epsilon":true'),
        ("index", b'"epsilon":1e-10', b'"epsilon":"0.5"'),
    ],
    ids=["iteration-overflow", "nan-epsilon", "int-epsilon-overflow", "negative-epsilon",
         "float-infer-iters", "bool-seed", "k-not-phi-rows", "bool-alpha", "bool-beta-prior",
         "string-alpha", "int-alpha-overflow", "string-iteration", "float-iteration", "bool-iteration",
         "negative-iteration", "string-seed", "float-seed", "int-lda-model-hash", "bool-batch-size",
         "bool-epsilon", "string-epsilon"],
)
def test_out_of_range_header_numbers_rejected(valid_files, kind, field, value):
    path = _rewrite_header(valid_files, kind, field, value)
    with pytest.raises(CorruptFile):
        KINDS[kind][1](path)


@pytest.mark.parametrize("alpha, effective", [(b"2", 2), (b"0.5", 0.5), (b"null", 25.0)])
def test_model_header_alpha_takes_numbers_and_null(valid_files, alpha, effective):
    path = _rewrite_header(valid_files, "model", b'"alpha":null', b'"alpha":' + alpha)
    assert lda.load_model(path).hyper.effective_alpha == effective


def _rewrite_header(valid_files, kind, field, value):
    """Path of a copy of the valid file of this kind with field replaced by value in its header."""
    root, files = valid_files
    raw = files[kind]
    header = raw[16:_header_end(raw, kind)]
    assert field in header
    header = header.replace(field, value)
    path = os.path.join(root, f"numbers_{kind}")
    with open(path, "wb") as fh:
        fh.write(raw[:8] + len(header).to_bytes(8, "little") + header + raw[_header_end(raw, kind):])
    return path


@pytest.mark.parametrize("kind", JSON_KINDS)
def test_deeply_nested_text_rejected(valid_files, kind):
    root, files = valid_files
    path = os.path.join(root, f"deep_{kind}")
    with open(path, "wb") as fh:
        fh.write(b"[" * 200_000 + files[kind])  # nested far beyond the parser's recursion limit
    with pytest.raises(CorruptFile):
        KINDS[kind][1](path)


def test_valid_files_load(valid_files):
    root, _ = valid_files
    for kind, (_, load) in KINDS.items():
        load(os.path.join(root, kind))


def _set_one(arrays, tensor, pos, value):
    flat = arrays[tensor % len(arrays)].reshape(-1)  # a view: the arrays are contiguous
    flat[pos % flat.size] = value


def _model_with(tensor, pos, value):
    model = _model()
    _set_one([model.phi] + list(model.doc_thetas.values()), tensor, pos, value)
    return model


def _checkpoint_with(tensor, pos, value):
    checkpoint = _checkpoint()
    tensors = [t for p in checkpoint.params if p is not None
               for t in (p.weight, p.bias, p.weight_momentum, p.bias_momentum)]
    _set_one(tensors, tensor, pos, value)
    return checkpoint


def _index_with(tensor, pos, value, epsilon):
    rows = list(np.random.default_rng(1).dirichlet(np.ones(3), size=4))
    _set_one(rows, tensor, pos, value)
    entries = [retrieval.IndexEntry(f"item{i}", ("text", "image")[i % 2], row) for i, row in enumerate(rows)]
    return retrieval.build_index(entries, epsilon=epsilon)


def _features_with(tensor, pos, value):
    items = [(f"f{i}", np.arange(3.0) + i) for i in range(3)]
    _set_one([vector for _, vector in items], tensor, pos, value)
    return items


TENSOR_WRITERS = {
    "model": (lambda path, t, i, v, e: lda.save_model(_model_with(t, i, v), path), lda.load_model),
    "checkpoint": (
        lambda path, t, i, v, e: textnet.save_checkpoint(_checkpoint_with(t, i, v), path),
        textnet.load_checkpoint,
    ),
    "index": (lambda path, t, i, v, e: retrieval.save_index(_index_with(t, i, v, e), path), retrieval.load_index),
    "features": (
        lambda path, t, i, v, e: evaluate.save_features(_features_with(t, i, v), path, "fc7"),
        evaluate.load_features,
    ),
}


# One value of one tensor is replaced before the artifact is built and
# written: probabilities, values off the simplex, and non-finite values.
@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    kind=st.sampled_from(sorted(TENSOR_WRITERS)),
    tensor=st.integers(0, 20),
    pos=st.integers(0, 2**16),
    value=st.sampled_from([0.0, -0.0, 0.3, 1.0, 2.5, -0.5, 1e-300, math.nan, math.inf, -math.inf]),
    epsilon=st.sampled_from([0.0, 1e-10, -1.0, math.nan]),
)
def test_every_writer_output_loads(kind, tensor, pos, value, epsilon):
    # A writer either refuses with DataError or writes what its reader loads.
    save, load = TENSOR_WRITERS[kind]
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, kind)
        try:
            save(path, tensor, pos, value, epsilon)
        except DataError:
            assert not os.path.exists(path)
            return
        load(path)
