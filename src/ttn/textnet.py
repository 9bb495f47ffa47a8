"""Train a small CNN to regress each image's text topic distribution.

Pairs are (image, topic distribution of the paired document); the net is
trained from scratch with sigmoid cross-entropy on those soft targets, so
whatever the text side considers topically similar becomes the supervisory
signal for the image side. No labels are involved anywhere.

Determinism: batch composition depends only on (seed, iteration), per-sample
augmentation only on (augment seed, global sample index). A checkpoint stores
the momentum buffers, so resuming from iteration i replays exactly the
trajectory a single longer run would have taken.
"""

from __future__ import annotations

import logging
import os
from dataclasses import asdict, dataclass
from itertools import islice

import numpy as np

from . import lda as lda_mod
from . import nn
from .errors import (
    CorruptFile,
    CropTooLarge,
    DataError,
    NoPairs,
    NonFiniteLoss,
    ShapeMismatch,
)
from .fileio import MAGIC_NET, decode_image, finite_non_negative, is_number, read_tensor_file, write_tensor_file

log = logging.getLogger(__name__)


@dataclass
class TrainingPair:
    """One training example: a stored image and its soft topic target.

    The image is (3, H, W) uint8 bytes, as decode_image returns them. The
    target is a distribution: finite, non-negative and summing to 1 within
    1e-6. A wrong image shape raises ShapeMismatch; an image of another dtype
    or a target off the simplex raises ValueError.
    """

    image: np.ndarray
    target: np.ndarray
    doc_id: str

    def __post_init__(self):
        image, target = self.image, self.target
        if image.ndim != 3 or image.shape[0] != 3:
            raise ShapeMismatch(f"image must be (3, H, W), got {image.shape}")
        if image.dtype != np.uint8:
            raise ValueError(f"image for {self.doc_id!r} must be uint8, got {image.dtype}")
        if not (finite_non_negative(target) and abs(float(target.sum()) - 1.0) <= 1e-6):
            raise ValueError(f"target for {self.doc_id!r} is not a distribution (finite, >= 0, sum 1)")


@dataclass(frozen=True)
class AugmentConfig:
    """Random-crop-and-mirror policy applied per sample during training."""

    crop_size: int
    mirror_prob: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.crop_size < 1:
            raise ValueError(f"crop_size must be >= 1, got {self.crop_size}")
        if not 0.0 <= self.mirror_prob <= 1.0:
            raise ValueError(f"mirror_prob must be in [0, 1], got {self.mirror_prob}")


@dataclass
class Checkpoint:
    spec: nn.NetSpec
    params: list
    iteration: int
    sgd: nn.SgdConfig
    seed: int = 0
    lda_model_hash: str = ""


def make_pairs(docs, model, image_root):
    """Pair every decodable image of every document with that doc's theta.

    Documents are visited in doc_id order, and each target is
    lda.doc_theta's: the stored theta, else fold-in over the doc's text. A
    document owning several images yields several pairs with identical
    targets. Unreadable images, and docs with neither a stored theta nor an
    in-vocabulary token, are skipped with a warning; if nothing survives,
    NoPairs is raised.
    """
    pairs = []
    for doc in sorted(docs, key=lambda d: d.doc_id):
        theta = lda_mod.doc_theta(model, doc)
        if theta is None:
            log.warning("doc %s: no stored theta and no in-vocabulary token, skipped", doc.doc_id)
            continue
        for rel_path in doc.image_paths:
            path = os.path.join(image_root, rel_path)
            try:
                pairs.append(TrainingPair(image=decode_image(path), target=np.asarray(theta, dtype=np.float64),
                                          doc_id=doc.doc_id))
            except (DataError, OSError) as exc:
                log.warning("skipping image %s: %s", path, exc)
    if not pairs:
        raise NoPairs("no (image, theta) pair could be built")
    return pairs


def augment(image, cfg, sample_index):
    """Deterministic random crop plus optional horizontal mirror.

    All randomness comes from (cfg.seed, sample_index), so the same sample
    index always produces the same view. Draw order is fixed: top offset,
    left offset, mirror coin. The view is a contiguous uint8 copy;
    _net_batch makes the float32 batch.
    """
    c, h, w = image.shape
    if cfg.crop_size > min(h, w):
        raise CropTooLarge(f"crop {cfg.crop_size} exceeds image {h}x{w}")
    rng = np.random.default_rng((cfg.seed, sample_index))
    top = int(rng.integers(0, h - cfg.crop_size + 1))
    left = int(rng.integers(0, w - cfg.crop_size + 1))
    view = image[:, top : top + cfg.crop_size, left : left + cfg.crop_size]
    if rng.random() < cfg.mirror_prob:
        view = view[:, :, ::-1]
    return np.ascontiguousarray(view)


def _net_batch(views):
    """The net's float32 (B, 3, S, S) input from B (3, S, S) uint8 crops.

    Byte v becomes v / 255, the float64 quotient rounded once to float32,
    written straight into the batch: the one float copy of the pixels. Crops
    of any other dtype raise DataError.
    """
    batch = np.stack(views)
    if batch.dtype != np.uint8:
        raise DataError(f"the net takes uint8 images, got {batch.dtype}")
    out = np.empty(batch.shape, dtype=np.float32)
    return np.divide(batch, 255.0, dtype=np.float64, out=out, casting="same_kind")


def _epoch_permutation(seed, epoch, n):
    return np.random.default_rng((seed, 1, epoch)).permutation(n)


def _pair_index(seed, n, position, perm_cache):
    epoch, offset = divmod(position, n)
    if epoch not in perm_cache:
        perm_cache.clear()
        perm_cache[epoch] = _epoch_permutation(seed, epoch, n)
    return int(perm_cache[epoch][offset])


def train(pairs, spec, sgd_cfg, aug_cfg, seed, *, start=None, checkpoint_every=None, checkpoint_dir=None,
          lda_model_hash=""):
    """Train from scratch (or resume from `start`) on topic-regression pairs.

    Runs SGD on sigmoid cross-entropy up to sgd_cfg.max_iters, on a copy of
    the starting parameters, so `start` is left as it was. Every
    checkpoint_every iterations short of the end it writes
    ckpt_<iteration>.ckpt into checkpoint_dir. Returns (final checkpoint,
    history) where history rows are (iteration, learning rate, loss). With
    max_iters == 0 the returned parameters equal the seeded initialization
    bit for bit. A `start` past sgd_cfg.max_iters or a negative
    checkpoint_every raises ValueError.
    """
    if checkpoint_every is not None and checkpoint_every < 0:
        raise ValueError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
    if start is None:
        start = Checkpoint(spec=spec, params=nn.init_params(spec, seed), iteration=0, sgd=sgd_cfg, seed=seed)
    elif start.spec != spec:
        raise ShapeMismatch("resume checkpoint was trained with a different spec")
    if not pairs:
        raise NoPairs("pairs must be nonempty")
    if start.iteration > sgd_cfg.max_iters:
        raise ValueError(f"start checkpoint is at iteration {start.iteration}, past max_iters {sgd_cfg.max_iters}")
    _, in_h, in_w = spec.in_shape
    if in_h != in_w:
        raise ShapeMismatch(f"net input must be square, got {spec.in_shape}")
    if aug_cfg.crop_size != in_h:
        raise ShapeMismatch(f"crop_size {aug_cfg.crop_size} != net input side {in_h}")
    out_dim = spec.out_dim
    for pair in pairs:
        _, h, w = pair.image.shape
        if min(h, w) < aug_cfg.crop_size:
            raise CropTooLarge(f"doc {pair.doc_id!r}: image {h}x{w} smaller than crop")
        if pair.target.shape != (out_dim,):
            raise ShapeMismatch(f"doc {pair.doc_id!r}: target dim {pair.target.shape} != net out {out_dim}")

    params = nn.copy_params(start.params)
    targets = np.stack([p.target for p in pairs]).astype(np.float64)

    def checkpoint(iteration):
        return Checkpoint(spec=spec, params=params, iteration=iteration, sgd=sgd_cfg, seed=seed,
                          lda_model_hash=lda_model_hash)

    n = len(pairs)
    batch = sgd_cfg.batch_size
    history = []
    perm_cache = {}
    for iteration in range(start.iteration, sgd_cfg.max_iters):
        idx = [_pair_index(seed, n, iteration * batch + j, perm_cache) for j in range(batch)]
        views = [augment(pairs[i].image, aug_cfg, iteration * batch + j) for j, i in enumerate(idx)]
        x = _net_batch(views)
        logits, tape = nn.forward(spec, params, x)
        loss, grad_logits = nn.sigmoid_cross_entropy(logits, targets[idx])
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"loss became non-finite at iteration {iteration}")
        grads = nn.backward(spec, params, tape, grad_logits)
        # Backward has freed the tape layer by layer; free the batch too
        # (0.75 MiB at batch 64) before the next step's is built. The
        # gradients stay bound until the next step's replace them: freeing
        # everything at once let glibc trim the heap after each step, and
        # every step then faulted its pages in afresh.
        del views, x, logits
        nn.sgd_step(params, grads, sgd_cfg, iteration)
        history.append((iteration, nn.learning_rate(sgd_cfg, iteration), loss))
        done = iteration + 1
        if checkpoint_every and checkpoint_dir and done % checkpoint_every == 0 and done < sgd_cfg.max_iters:
            save_checkpoint(checkpoint(done), os.path.join(checkpoint_dir, f"ckpt_{done:06d}.ckpt"))
    return checkpoint(sgd_cfg.max_iters), history


def _crop_at(image, top, left, size):
    return image[:, top : top + size, left : left + size]


def predict_topics(checkpoint, image):
    """Topic distribution for one image: sigmoid logits averaged over crops.

    The ten views are the center crop and the four corner crops, then the
    same five mirrored, in that order. The averaged activations are
    renormalized to sum to one in float64. The image is (3, H, W) uint8
    bytes; any other dtype raises DataError.
    """
    spec = checkpoint.spec
    size = spec.in_shape[1]
    c, h, w = image.shape
    if min(h, w) < size:
        raise CropTooLarge(f"image {h}x{w} smaller than net input {size}")
    corners = [((h - size) // 2, (w - size) // 2), (0, 0), (0, w - size), (h - size, 0), (h - size, w - size)]
    views = [_crop_at(image, top, left, size) for top, left in corners]
    views += [view[:, :, ::-1] for view in views]
    logits, _ = nn.forward(spec, checkpoint.params, _net_batch(views))
    mean_act = nn.sigmoid(logits).mean(axis=0)
    return mean_act / mean_act.sum()


def extract_features(checkpoint, image, layer_name):
    """Flattened activation of a named layer for the center crop of a
    (3, H, W) uint8 image; any other dtype raises DataError.

    Runs the layers up to the named one and no further, keeping no backward
    data. A relu writes its output into the activation before it, which
    here only ever belongs to this call.
    """
    spec = checkpoint.spec
    index = spec.resolve_layer(layer_name)
    size = spec.in_shape[1]
    c, h, w = image.shape
    if min(h, w) < size:
        raise CropTooLarge(f"image {h}x{w} smaller than net input {size}")
    x = _net_batch([_crop_at(image, (h - size) // 2, (w - size) // 2, size)])
    if x.shape[1:] != spec.in_shape:
        raise ShapeMismatch(f"crop shape {x.shape[1:]} does not match net input {spec.in_shape}")
    for layer, p in zip(spec.layers[: index + 1], checkpoint.params):
        x, _ = nn.layer_forward(layer, p, x)
    return x.reshape(-1)


def _non_finite_tensor(spec, params):
    """The name of the first parameter tensor holding NaN or inf, else None."""
    for name, p in zip(spec.layer_names(), params):
        if p is None:
            continue
        parts = {"weight": p.weight, "bias": p.bias, "weight momentum": p.weight_momentum,
                 "bias momentum": p.bias_momentum}
        for part, tensor in parts.items():
            if not np.isfinite(tensor).all():
                return f"{name} {part}"
    return None


def save_checkpoint(checkpoint, path):
    """Tensor container: JSON header, then (weight, bias, weight momentum,
    bias momentum) of every parameter layer in spec order. A NaN or inf
    tensor, which load_checkpoint would refuse, raises DataError."""
    bad = _non_finite_tensor(checkpoint.spec, checkpoint.params)
    if bad:
        raise DataError(f"refusing to save the checkpoint: {bad} is not finite")
    header = {
        "spec": checkpoint.spec.to_dict(),
        "iteration": checkpoint.iteration,
        "sgd": asdict(checkpoint.sgd),
        "seed": checkpoint.seed,
        "lda_model_hash": checkpoint.lda_model_hash,
    }
    arrays = [
        tensor
        for p in checkpoint.params
        if p is not None
        for tensor in (p.weight, p.bias, p.weight_momentum, p.bias_momentum)
    ]
    write_tensor_file(path, MAGIC_NET, header, arrays)


def load_checkpoint(path):
    """The checkpoint save_checkpoint wrote, its tensors in the net's float32.

    The container stores float64, which holds float32 values exactly; a
    checkpoint written by a float64 net loads rounded to float32.
    """
    header, arrays = read_tensor_file(path, MAGIC_NET)
    try:
        spec = nn.NetSpec.from_dict(header["spec"])
        sgd_cfg = nn.SgdConfig(**header["sgd"])
        iteration = header["iteration"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptFile(f"{path}: invalid checkpoint header: {exc}")
    seed = header.get("seed", 0)
    lda_model_hash = header.get("lda_model_hash", "")
    counts = (iteration, seed, sgd_cfg.lr_step, sgd_cfg.batch_size, sgd_cfg.max_iters)
    if any(type(v) is not int for v in counts) or iteration < 0:
        raise CorruptFile(f"{path}: checkpoint iteration (>= 0), seed and sgd lr_step, batch_size and max_iters"
                          " must be integers")
    if not all(map(is_number, (sgd_cfg.base_lr, sgd_cfg.lr_decay, sgd_cfg.momentum))):
        raise CorruptFile(f"{path}: checkpoint sgd base_lr, lr_decay and momentum must be numbers")
    if type(lda_model_hash) is not str:
        raise CorruptFile(f"{path}: checkpoint lda_model_hash must be a string")
    shapes = nn.param_shapes(spec)
    expected = [s for layer in shapes if layer is not None for s in layer + layer]
    if [a.shape for a in arrays] != expected:
        raise CorruptFile(f"{path}: stored tensors do not match the spec's parameter shapes")
    with np.errstate(over="ignore"):  # a value past float32's range becomes inf, refused below
        tensors = iter([a.astype(np.float32) for a in arrays])
    params = [None if layer is None else nn.LayerParams(*islice(tensors, 4)) for layer in shapes]
    bad = _non_finite_tensor(spec, params)
    if bad:
        raise CorruptFile(f"{path}: {bad} is not finite in float32")
    return Checkpoint(
        spec=spec,
        params=params,
        iteration=iteration,
        sgd=sgd_cfg,
        seed=seed,
        lda_model_hash=lda_model_hash,
    )
