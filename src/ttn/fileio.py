"""Low-level file plumbing: atomic writes, the binary tensor container, images.

All binary artifacts (topic model, checkpoint, retrieval index, features)
share one container layout: 8 magic bytes, a uint64 little-endian header
length, a UTF-8 JSON header whose "shapes" field lists the tensor shapes, then
raw little-endian float64 payloads in that order. Every writer goes through
atomic_write so a crashed run never leaves a half-written artifact behind.

Images are binary PPM (P6, maxval 255), and uint8 (3, H, W) bytes are the
one in-memory image type: read_ppm returns the file's own bytes and
write_ppm accepts nothing else. Only textnet's batch builder turns the crops
it feeds the net into float32 v / 255.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import struct
import sys
import tempfile

import numpy as np

from .errors import CorruptFile, DataError, FormatVersionMismatch

MAGIC_LDA = b"TTNLDA3\x00"
MAGIC_NET = b"TTNNET2\x00"
MAGIC_FEATURES = b"TTNFEA1\x00"
MAGIC_INDEX = b"TTNIDX1\x00"


@contextlib.contextmanager
def atomic_write(path, mode="wb"):
    """Write to a temp file in the target directory, then rename into place.

    The target is only ever replaced by a fully written file; on any error the
    temp file is removed and the previous target (if any) is left untouched.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def dump_json(obj):
    """Canonical JSON bytes: sorted keys, no whitespace drift between runs."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def read_text(path):
    """A file's whole text, decoded as UTF-8; undecodable bytes give CorruptFile."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise CorruptFile(f"{path}: not UTF-8 text: {exc}")


def read_csv(path):
    """(line number, row) for every row of a UTF-8 CSV file; undecodable
    bytes and rows the csv module rejects, such as a field over its size
    limit, give CorruptFile."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            return [(reader.line_num, row) for row in reader]
        except (UnicodeDecodeError, csv.Error) as exc:
            raise CorruptFile(f"{path}:{reader.line_num}: unreadable CSV: {exc}")


def parse_json(text, where):
    """json.loads, raising CorruptFile (naming where) for malformed JSON, for
    nesting deeper than the parser's recursion limit and for integers too
    long to convert."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise CorruptFile(f"{where}: invalid JSON: {exc}")


def write_tensor_file(path, magic, header, arrays):
    """One-shot container write: header plus arrays in the given order.

    The header gains a "shapes" field recording each array's shape so the
    reader needs no out-of-band knowledge.
    """
    header = dict(header)
    header["shapes"] = [list(a.shape) for a in arrays]
    body = dump_json(header)
    with atomic_write(path) as fh:
        fh.write(magic)
        fh.write(struct.pack("<Q", len(body)))
        fh.write(body)
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def finite_non_negative(values):
    """Every value finite and >= 0. A NaN fails min() >= 0, since min and max
    propagate it, so two reductions check all three conditions."""
    return values.size == 0 or (values.min() >= 0.0 and values.max() < math.inf)


def is_number(value):
    """A JSON number that fits a float: an int or a float, never a bool
    (which would pass as 0 or 1) or a numeric string. Header readers check
    their numbers with this, or with type(value) is int for counts."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _finite_float(text):
    # Parses JSON floats and the NaN/Infinity constants Python's json accepts.
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _is_shape(value):
    return isinstance(value, list) and all(
        isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in value
    )


def read_tensor_file(path, magic):
    """Read a container written by write_tensor_file: (header dict, arrays).

    This is the only parser of container bytes. Every declared length is
    checked against the bytes left in the file before anything is allocated,
    so a malformed file raises CorruptFile (or FormatVersionMismatch for a
    foreign magic) and never a MemoryError or numpy error. NaN, Infinity and
    numbers that overflow a float (1e999) are rejected in the header.
    """
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size
        got = fh.read(len(magic))
        if len(got) < len(magic):
            raise CorruptFile("file too short to contain a header")
        if got != magic:
            raise FormatVersionMismatch(f"expected magic {magic!r}, found {got!r}")
        raw_len = fh.read(8)
        if len(raw_len) < 8:
            raise CorruptFile("truncated header length")
        (n,) = struct.unpack("<Q", raw_len)
        left -= len(magic) + 8
        if n > left:
            raise CorruptFile(f"header length {n} exceeds the {left} bytes left in the file")
        try:
            header = json.loads(
                fh.read(n).decode("utf-8"), parse_float=_finite_float, parse_constant=_finite_float
            )
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, NaN/inf, absurd nesting or ints
            raise CorruptFile(f"unreadable JSON header: {exc}")
        if not isinstance(header, dict):
            raise CorruptFile("header is not a JSON object")
        shapes = header.get("shapes")
        if not isinstance(shapes, list) or not all(_is_shape(s) for s in shapes):
            raise CorruptFile("header shapes must be a list of lists of non-negative ints")
        counts = [math.prod(s) for s in shapes]
        left -= n
        if 8 * sum(counts) != left:
            raise CorruptFile(
                f"header declares {8 * sum(counts)} payload bytes but {left} follow it"
                " (truncated file or trailing bytes)"
            )
        payload = bytearray(left)
        if fh.readinto(payload) != left:
            raise CorruptFile("file shrank while being read")
    arrays = []
    offset = 0
    for shape, count in zip(shapes, counts):
        arrays.append(np.frombuffer(payload, dtype="<f8", count=count, offset=offset).reshape(shape))
        offset += 8 * count
    return header, arrays


def string_list(header, key):
    """header[key] checked to be a list of strings, else CorruptFile."""
    value = header.get(key)
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise CorruptFile(f"header field {key!r} must be a list of strings")
    return value


# ---------------------------------------------------------------------------
# Images. PPM (binary P6, maxval 255) is the one format.


def _read_ppm_token(fh):
    # Tokens are separated by whitespace; '#' starts a comment to end of line.
    token = b""
    while True:
        ch = fh.read(1)
        if ch == b"":
            raise CorruptFile("unexpected end of PPM header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = fh.read(1)
            continue
        if ch.isspace():
            if token:
                return token
            continue
        token += ch


def read_ppm(path):
    """Decode a binary PPM (P6, maxval 255) file to its (3, H, W) uint8 bytes.

    The array is channel-major and owns its memory. A foreign tag raises
    FormatVersionMismatch; another maxval, a size that is not positive or
    pixel data shorter than the header declares raises CorruptFile.
    """
    with open(path, "rb") as fh:
        if fh.read(2) != b"P6":
            raise FormatVersionMismatch(f"{path}: not a binary PPM (P6) file")
        try:
            width, height, maxval = (int(_read_ppm_token(fh)) for _ in range(3))
        except ValueError:
            raise CorruptFile(f"{path}: PPM width, height and maxval must be integers")
        if maxval != 255:
            raise CorruptFile(f"{path}: only maxval 255 is supported, got {maxval}")
        if width < 1 or height < 1:
            raise CorruptFile(f"{path}: PPM size {width}x{height} is not positive")
        # checked before reading, so a huge declared size cannot reach the allocator
        if width * height * 3 > os.fstat(fh.fileno()).st_size - fh.tell():
            raise CorruptFile(f"{path}: truncated pixel data")
        raw = fh.read(width * height * 3)
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(height, width, 3)
    return np.ascontiguousarray(pixels.transpose(2, 0, 1))


def write_ppm(path, image):
    """Write (3, H, W) uint8 bytes, as read_ppm returns them, as binary PPM.
    Any other dtype or shape raises DataError."""
    image = np.asarray(image)
    if image.dtype != np.uint8 or image.ndim != 3 or image.shape[0] != 3:
        raise DataError(f"expected a (3, H, W) uint8 image, got {image.dtype} of shape {image.shape}")
    _, h, w = image.shape
    with atomic_write(path) as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(image.transpose(1, 2, 0).tobytes())


def decode_image(path):
    """Decode an image file by extension to (3, H, W) uint8 bytes; .ppm is
    the one format, and any other extension raises DataError."""
    if os.fspath(path).lower().endswith(".ppm"):
        return read_ppm(path)
    raise DataError(f"unsupported image format: {path}")
