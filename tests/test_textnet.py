"""Topic-regression training: pairing, augmentation, determinism, resume."""

from __future__ import annotations

import dataclasses
import glob
import importlib
import os
import tracemalloc

import numpy as np
import pytest

from ttn import corpus as corpus_mod
from ttn import lda as lda_mod
from ttn import nn, textnet
from ttn.errors import CorruptFile, CropTooLarge, DataError, NoPairs, ShapeMismatch, UnknownLayer
from ttn.fileio import MAGIC_NET, read_tensor_file, write_tensor_file


def _toy_pairs(n=12, k=3, size=36, seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(n):
        topic = i % k
        image = rng.random((3, size, size)) * 0.2
        image[topic % 3] += 0.6
        target = np.full(k, 0.05 / (k - 1))
        target[topic] = 0.95
        target = target / target.sum()
        pairs.append(textnet.TrainingPair(image=np.clip(image, 0, 1), target=target, doc_id=f"t{i:03d}"))
    return pairs


def _toy_spec(k=3, side=32):
    return nn.NetSpec(
        in_shape=(3, side, side),
        layers=(
            nn.Conv2d(4, 3, pad=1),
            nn.Relu(),
            nn.MaxPool2d(4),
            nn.Flatten(),
            nn.Dense(k),
        ),
    )


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
FAST_SGD = nn.SgdConfig(base_lr=0.01, lr_decay=0.1, lr_step=10_000, momentum=0.9, batch_size=4, max_iters=30)
AUG32 = textnet.AugmentConfig(crop_size=32, mirror_prob=0.5, seed=2)


# ----------------------------------------------------------------- make_pairs

@pytest.fixture(scope="module")
def small_model(synth_dataset):
    cfg, manifest = synth_dataset
    docs = corpus_mod.load_corpus(manifest["corpus"])
    vocab = corpus_mod.build_vocabulary(docs, min_df=2, max_df_ratio=0.9)
    bows = [corpus_mod.doc_to_bow(d, vocab) for d in docs]
    hyper = lda_mod.LdaHyperparams(k=2, alpha=0.1, n_iters=60, seed=0)
    return docs, lda_mod.train(bows, hyper, vocab.words)


def test_make_pairs_counts_and_targets(synth_dataset, small_model):
    cfg, manifest = synth_dataset
    docs, model = small_model
    pairs = textnet.make_pairs(docs, model, manifest["out_dir"])
    assert len(pairs) == sum(len(d.image_paths) for d in docs)
    assert [p.doc_id for p in pairs] == sorted(p.doc_id for p in pairs)
    for pair in pairs:
        assert np.array_equal(pair.target, model.doc_thetas[pair.doc_id])
        assert pair.image.shape == (3, cfg.image_size, cfg.image_size)
        assert pair.image.min() >= 0.0 and pair.image.max() <= 1.0


def test_make_pairs_image_color_tracks_topic(synth_dataset, small_model):
    cfg, manifest = synth_dataset
    docs, model = small_model
    pairs = textnet.make_pairs(docs, model, manifest["out_dir"])
    labels = manifest["doc_labels"]
    # Planted rule: topic t washes color channel t % 3, so that channel is brightest.
    for pair in pairs:
        channel_means = pair.image.mean(axis=(1, 2))
        assert int(np.argmax(channel_means)) == labels[pair.doc_id] % 3


def test_make_pairs_missing_images_skipped(synth_dataset, small_model, tmp_path):
    docs, model = small_model
    with pytest.raises(NoPairs):
        textnet.make_pairs(docs, model, str(tmp_path))  # wrong root: nothing decodable


def test_make_pairs_infer_missing(synth_dataset, small_model):
    cfg, manifest = synth_dataset
    docs, model = small_model
    stripped = lda_mod.LdaModel(
        vocab_size=model.vocab_size,
        k=model.k,
        phi=model.phi,
        hyper=model.hyper,
        doc_thetas={},
        words=model.words,
    )
    with pytest.raises(NoPairs):
        textnet.make_pairs(docs, stripped, manifest["out_dir"], infer_missing=False)
    pairs = textnet.make_pairs(docs, stripped, manifest["out_dir"], infer_missing=True)
    assert len(pairs) == sum(len(d.image_paths) for d in docs)
    for pair in pairs:
        assert pair.target.sum() == pytest.approx(1.0)


# -------------------------------------------------------------------- augment

def test_augment_identity_when_crop_fills_image():
    image = np.random.default_rng(0).random((3, 8, 8))
    cfg = textnet.AugmentConfig(crop_size=8, mirror_prob=0.0, seed=1)
    assert np.array_equal(textnet.augment(image, cfg, 0), image)


def test_augment_mirror_is_involution():
    image = np.random.default_rng(1).random((3, 8, 8))
    cfg = textnet.AugmentConfig(crop_size=8, mirror_prob=1.0, seed=1)
    once = textnet.augment(image, cfg, 0)
    assert np.array_equal(once[:, :, ::-1], image)


def test_augment_deterministic_in_sample_index():
    image = np.random.default_rng(2).random((3, 12, 12))
    cfg = textnet.AugmentConfig(crop_size=8, mirror_prob=0.5, seed=9)
    a = textnet.augment(image, cfg, 17)
    b = textnet.augment(image, cfg, 17)
    assert np.array_equal(a, b)
    views = {textnet.augment(image, cfg, i).tobytes() for i in range(40)}
    assert len(views) > 1  # different indices explore different views


def test_augment_output_is_a_window():
    image = np.arange(3 * 10 * 10, dtype=np.float64).reshape(3, 10, 10)
    cfg = textnet.AugmentConfig(crop_size=4, mirror_prob=0.0, seed=0)
    view = textnet.augment(image, cfg, 3)
    assert view.shape == (3, 4, 4)
    # A pure crop preserves row-contiguity of the source values.
    assert view[0, 0, 1] - view[0, 0, 0] == 1.0


def test_augment_rejects_oversized_crop():
    image = np.zeros((3, 6, 6))
    with pytest.raises(CropTooLarge):
        textnet.augment(image, textnet.AugmentConfig(crop_size=7), 0)


# ------------------------------------------------------------------- training

def test_train_zero_iters_returns_init():
    pairs = _toy_pairs()
    spec = _toy_spec()
    cfg = nn.SgdConfig(max_iters=0, batch_size=4)
    checkpoint, history = textnet.train(pairs, spec, cfg, AUG32, seed=3)
    assert history == []
    assert checkpoint.iteration == 0
    assert nn.params_equal(checkpoint.params, nn.init_params(spec, 3))


def test_train_deterministic():
    pairs = _toy_pairs()
    spec = _toy_spec()
    a, ha = textnet.train(pairs, spec, FAST_SGD, AUG32, seed=1)
    b, hb = textnet.train(pairs, spec, FAST_SGD, AUG32, seed=1)
    assert nn.params_equal(a.params, b.params)
    assert ha == hb


def test_train_seed_matters():
    pairs = _toy_pairs()
    spec = _toy_spec()
    a, _ = textnet.train(pairs, spec, FAST_SGD, AUG32, seed=1)
    b, _ = textnet.train(pairs, spec, FAST_SGD, AUG32, seed=2)
    assert not nn.params_equal(a.params, b.params)


def test_train_resume_matches_straight_run():
    pairs = _toy_pairs()
    spec = _toy_spec()
    full_cfg = FAST_SGD
    half_cfg = nn.SgdConfig(base_lr=FAST_SGD.base_lr, lr_decay=FAST_SGD.lr_decay,
                            lr_step=FAST_SGD.lr_step, momentum=FAST_SGD.momentum,
                            batch_size=FAST_SGD.batch_size, max_iters=15)
    straight, h_full = textnet.train(pairs, spec, full_cfg, AUG32, seed=4)
    half, h1 = textnet.train(pairs, spec, half_cfg, AUG32, seed=4)
    half_params = nn.copy_params(half.params)
    resumed, h2 = textnet.train(pairs, spec, full_cfg, AUG32, seed=4, start=half)
    assert nn.params_equal(half.params, half_params)  # trains on its own copy
    assert nn.params_equal(straight.params, resumed.params)
    assert h_full == h1 + h2
    assert resumed.iteration == full_cfg.max_iters


def test_train_refuses_start_past_max_iters():
    pairs = _toy_pairs()
    spec = _toy_spec()
    ahead, _ = textnet.train(pairs, spec, nn.SgdConfig(batch_size=4, max_iters=10), AUG32, seed=4)
    with pytest.raises(ValueError, match="past max_iters"):
        textnet.train(pairs, spec, nn.SgdConfig(batch_size=4, max_iters=5), AUG32, seed=4, start=ahead)
    level, history = textnet.train(pairs, spec, nn.SgdConfig(batch_size=4, max_iters=10), AUG32, seed=4,
                                   start=ahead)
    assert history == [] and level.iteration == 10
    assert nn.params_equal(level.params, ahead.params)


def test_train_loss_decreases_on_planted_data():
    pairs = _toy_pairs(n=24)
    spec = _toy_spec()
    cfg = nn.SgdConfig(base_lr=0.02, lr_decay=1.0, lr_step=10_000, momentum=0.9, batch_size=8, max_iters=120)
    _, history = textnet.train(pairs, spec, cfg, AUG32, seed=0)
    first = np.mean([h[2] for h in history[:10]])
    last = np.mean([h[2] for h in history[-10:]])
    assert last < 0.6 * first


def test_train_rejects_mismatched_target_dim():
    pairs = _toy_pairs(k=3)
    spec = _toy_spec(k=4)
    with pytest.raises(ShapeMismatch):
        textnet.train(pairs, spec, FAST_SGD, AUG32, seed=0)


def test_train_rejects_crop_spec_mismatch():
    pairs = _toy_pairs()
    spec = _toy_spec(side=32)
    with pytest.raises(ShapeMismatch):
        textnet.train(pairs, spec, FAST_SGD, textnet.AugmentConfig(crop_size=30), seed=0)


def test_train_history_logs_lr_schedule():
    pairs = _toy_pairs()
    spec = _toy_spec()
    cfg = nn.SgdConfig(base_lr=0.01, lr_decay=0.1, lr_step=10, momentum=0.9, batch_size=4, max_iters=20)
    _, history = textnet.train(pairs, spec, cfg, AUG32, seed=0)
    assert [h[0] for h in history] == list(range(20))
    assert all(lr == pytest.approx(0.01) for _, lr, _ in history[:10])
    assert all(lr == pytest.approx(0.001) for _, lr, _ in history[10:])


def test_train_step_runs_in_float32(monkeypatch):
    # The net has one dtype: the batch, every layer output, the loss gradient,
    # every parameter gradient and the updated weights and momenta.
    seen = []
    forward, backward = nn.forward, nn.backward

    def recording_forward(spec, params, batch):
        logits, cache = forward(spec, params, batch)
        seen.append(("batch", batch))
        seen.extend((f"output {i}", out) for i, out in enumerate(nn.layer_outputs(cache)))
        return logits, cache

    def recording_backward(spec, params, cache, grad_logits):
        grads = backward(spec, params, cache, grad_logits)
        seen.append(("grad logits", grad_logits))
        seen.extend((f"grad {i}", g) for i, pair in enumerate(grads) if pair is not None for g in pair)
        return grads

    monkeypatch.setattr(nn, "forward", recording_forward)
    monkeypatch.setattr(nn, "backward", recording_backward)
    checkpoint, _ = textnet.train(_toy_pairs(), nn.tiny_topic_net(3), nn.SgdConfig(batch_size=4, max_iters=1),
                                  AUG32, seed=0)
    seen.extend((f"param {i}", t) for i, p in enumerate(checkpoint.params) if p is not None
                for t in dataclasses.astuple(p))
    assert len(seen) == 1 + 10 + 1 + 8 + 16
    assert {name: str(a.dtype) for name, a in seen if a.dtype != np.float32} == {}


def test_train_holds_one_step_cache_at_a_time():
    # Each step's batch and forward cache (about 18 MiB at batch 64) are
    # freed before the next step's forward allocates its own, so three steps
    # peak where one does.
    pairs = _toy_pairs(n=64, size=32)
    spec = nn.tiny_topic_net(3)

    def traced_peak(iters):
        sgd = nn.SgdConfig(batch_size=64, max_iters=iters)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            textnet.train(pairs, spec, sgd, AUG32, seed=0)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()

    traced_peak(1)  # warm-up
    one, three = traced_peak(1), traced_peak(3)
    assert three - one < 2 * 2**20, f"3 steps peaked {(three - one) / 2**20:.1f} MiB above 1 step"


def test_train_steps_trace_under_train(monkeypatch):
    # The benchmark's tracer swaps these module globals for wrappers, so the
    # loop must look each one up at call time, never through a value bound
    # earlier, such as a default argument.
    monkeypatch.syspath_prepend(PERFBENCH)
    tracer = importlib.import_module("tracing").Tracer()
    uninstall = tracer.install()
    try:
        textnet.train(_toy_pairs(), _toy_spec(), nn.SgdConfig(batch_size=4, max_iters=2), AUG32, seed=0)
    finally:
        uninstall()
    (train_id,) = [sid for sid, _, _, name, *_ in tracer.spans if name == "textnet.train"]
    parents = {}
    for _, parent, _, name, *_ in tracer.spans:
        parents.setdefault(name, set()).add(parent)
    for name in ("nn.forward", "nn.backward", "nn.sgd_step", "nn.sigmoid_cross_entropy", "textnet.augment"):
        assert parents.get(name) == {train_id}, name


# ------------------------------------------------------------ checkpoint files

def test_checkpoint_roundtrip(tmp_path):
    pairs = _toy_pairs()
    spec = _toy_spec()
    checkpoint, _ = textnet.train(pairs, spec, FAST_SGD, AUG32, seed=6, lda_model_hash="abc123")
    path = tmp_path / "net.ckpt"
    textnet.save_checkpoint(checkpoint, str(path))
    loaded = textnet.load_checkpoint(str(path))
    assert loaded.spec == checkpoint.spec
    assert loaded.iteration == checkpoint.iteration
    assert loaded.sgd == checkpoint.sgd
    assert loaded.seed == checkpoint.seed
    assert loaded.lda_model_hash == "abc123"
    assert _param_bits(loaded.params) == _param_bits(checkpoint.params)
    assert {dtype for dtype, _ in _param_bits(loaded.params)} == {"float32"}


def _param_bits(params):
    return [(str(t.dtype), t.tobytes()) for p in params if p is not None for t in dataclasses.astuple(p)]


def test_float64_checkpoint_loads_as_float32_and_resumes(tmp_path):
    # A checkpoint written by a float64 net loads rounded to float32 and
    # resumes like the float32 checkpoint it rounds to.
    pairs = _toy_pairs()
    spec = _toy_spec()
    half, _ = textnet.train(pairs, spec, dataclasses.replace(FAST_SGD, max_iters=15), AUG32, seed=4)
    # Off each float32 value by far less than half a float32 ulp.
    wide = [None if p is None else nn.LayerParams(*(t.astype(np.float64) * (1 + 1e-12) for t in dataclasses.astuple(p)))
            for p in half.params]
    assert not np.array_equal(wide[0].weight, wide[0].weight.astype(np.float32))
    path = str(tmp_path / "wide.ckpt")
    textnet.save_checkpoint(dataclasses.replace(half, params=wide), path)
    loaded = textnet.load_checkpoint(path)
    assert _param_bits(loaded.params) == _param_bits(half.params)
    resumed, _ = textnet.train(pairs, spec, FAST_SGD, AUG32, seed=4, start=loaded)
    straight, _ = textnet.train(pairs, spec, FAST_SGD, AUG32, seed=4)
    assert _param_bits(resumed.params) == _param_bits(straight.params)


def test_checkpoint_truncation_detected(tmp_path):
    checkpoint, _ = textnet.train(_toy_pairs(), _toy_spec(), FAST_SGD, AUG32, seed=0)
    path = tmp_path / "net.ckpt"
    textnet.save_checkpoint(checkpoint, str(path))
    raw = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(raw[:-24])
    with pytest.raises(CorruptFile):
        textnet.load_checkpoint(str(cut))


def test_checkpoint_tensors_must_match_spec(tmp_path):
    checkpoint, _ = textnet.train(_toy_pairs(), _toy_spec(), FAST_SGD, AUG32, seed=0)
    path = str(tmp_path / "net.ckpt")
    textnet.save_checkpoint(checkpoint, path)
    header, arrays = read_tensor_file(path, MAGIC_NET)
    del header["shapes"]
    for bad_arrays in (arrays[:-1], arrays[:2] + [arrays[3], arrays[2]] + arrays[4:]):
        write_tensor_file(path, MAGIC_NET, header, bad_arrays)
        with pytest.raises(CorruptFile):
            textnet.load_checkpoint(path)


def test_intermediate_checkpoints_resume_exactly(tmp_path):
    pairs = _toy_pairs()
    spec = _toy_spec()
    cfg = nn.SgdConfig(base_lr=0.01, lr_decay=1.0, lr_step=100, momentum=0.9, batch_size=4, max_iters=20)
    straight, _ = textnet.train(pairs, spec, cfg, AUG32, seed=8)
    _, _ = textnet.train(
        pairs, spec, cfg, AUG32, seed=8, checkpoint_every=5, checkpoint_dir=str(tmp_path)
    )
    written = sorted(glob.glob(os.path.join(str(tmp_path), "ckpt_*.ckpt")))
    assert [os.path.basename(p) for p in written] == ["ckpt_000005.ckpt", "ckpt_000010.ckpt", "ckpt_000015.ckpt"]
    mid = textnet.load_checkpoint(written[1])
    assert mid.iteration == 10
    resumed, _ = textnet.train(pairs, spec, cfg, AUG32, seed=8, start=mid)
    assert nn.params_equal(resumed.params, straight.params)


# ------------------------------------------------------------------ inference

def _checkpoint_with_conv1_weight(path, value):
    checkpoint = _zero_head_checkpoint()
    textnet.save_checkpoint(checkpoint, path)
    header, arrays = read_tensor_file(path, MAGIC_NET)
    del header["shapes"]
    arrays[0][0, 0, 0, 0] = value
    write_tensor_file(path, MAGIC_NET, header, arrays)
    return checkpoint


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_checkpoint_tensors_must_be_finite(tmp_path, value):
    path = str(tmp_path / "net.ckpt")
    checkpoint = _checkpoint_with_conv1_weight(path, value)
    with pytest.raises(CorruptFile, match="conv1 weight is not finite"):
        textnet.load_checkpoint(path)
    checkpoint.params[-1].bias_momentum[1] = value
    with pytest.raises(DataError, match="fc1 bias momentum is not finite"):
        textnet.save_checkpoint(checkpoint, str(tmp_path / "refused.ckpt"))
    assert not (tmp_path / "refused.ckpt").exists()


def test_checkpoint_value_past_float32_range_refused(tmp_path):
    path = str(tmp_path / "net.ckpt")
    _checkpoint_with_conv1_weight(path, 1e300)
    with pytest.raises(CorruptFile, match="conv1 weight is not finite in float32"):
        textnet.load_checkpoint(path)


def _zero_head_checkpoint(k=4, side=8):
    spec = nn.NetSpec(
        in_shape=(3, side, side),
        layers=(nn.Conv2d(2, 3, pad=1), nn.Relu(), nn.Flatten(), nn.Dense(k)),
    )
    params = nn.init_params(spec, seed=0)
    params[-1].weight[:] = 0.0
    params[-1].bias[:] = 0.0
    return textnet.Checkpoint(spec=spec, params=params, iteration=0, sgd=nn.SgdConfig())


def test_predict_topics_uniform_for_zero_head():
    checkpoint = _zero_head_checkpoint(k=4)
    image = np.random.default_rng(0).random((3, 12, 12))
    theta = textnet.predict_topics(checkpoint, image)
    np.testing.assert_allclose(theta, 0.25, rtol=1e-12)


def test_predict_topics_simplex_and_crop_count():
    """The center crop, the four corners, then the same five mirrored: each
    view's sigmoid outputs, forwarded alone, average to the prediction."""
    pairs = _toy_pairs()
    checkpoint, _ = textnet.train(pairs, _toy_spec(), FAST_SGD, AUG32, seed=0)
    image = np.random.default_rng(1).random((3, 36, 36))
    theta = textnet.predict_topics(checkpoint, image)
    assert theta.shape == (3,)
    assert theta.sum() == pytest.approx(1.0)
    assert np.all(theta > 0)
    views = [image[:, top : top + 32, left : left + 32] for top, left in ((2, 2), (0, 0), (0, 4), (4, 0), (4, 4))]
    views += [view[:, :, ::-1] for view in views]
    outputs = [nn.sigmoid(nn.forward(checkpoint.spec, checkpoint.params, v[None].astype(np.float32))[0])[0]
               for v in views]
    expected = np.mean(outputs, axis=0, dtype=np.float64)
    np.testing.assert_allclose(theta, expected / expected.sum(), rtol=1e-6)


def test_predict_topics_rejects_small_image():
    checkpoint = _zero_head_checkpoint(side=8)
    with pytest.raises(CropTooLarge):
        textnet.predict_topics(checkpoint, np.zeros((3, 6, 6)))


def test_extract_features_shapes_and_consistency():
    pairs = _toy_pairs()
    spec = nn.tiny_topic_net(3, in_shape=(3, 32, 32))
    cfg = nn.SgdConfig(base_lr=0.01, batch_size=4, max_iters=10)
    checkpoint, _ = textnet.train(pairs, spec, cfg, AUG32, seed=0)
    image = np.random.default_rng(4).random((3, 32, 32))
    pool = textnet.extract_features(checkpoint, image, "pool5")
    fc = textnet.extract_features(checkpoint, image, "fc7")
    logits_vec = textnet.extract_features(checkpoint, image, "fc2")
    assert pool.shape == (32 * 8 * 8,)
    assert fc.shape == (128,)
    logits, _ = nn.forward(spec, checkpoint.params, image[None].astype(np.float32))
    np.testing.assert_allclose(logits_vec, logits[0], rtol=1e-12)
    with pytest.raises(UnknownLayer):
        textnet.extract_features(checkpoint, image, "pool9")
