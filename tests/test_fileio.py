"""Binary containers, PPM codec, atomic writes, thread knob."""

from __future__ import annotations

import io
import os

import numpy as np
import pytest

from ttn import fileio as F
from ttn.errors import CorruptFile, DataError, FormatVersionMismatch


# ------------------------------------------------------------------ container

def test_tensor_file_roundtrip(tmp_path):
    path = str(tmp_path / "t.bin")
    arrays = [np.arange(6.0).reshape(2, 3), np.array([7.0])]
    F.write_tensor_file(path, F.MAGIC_FEATURES, {"note": "x"}, arrays)
    header, loaded = F.read_tensor_file(path, F.MAGIC_FEATURES)
    assert header["note"] == "x"
    assert len(loaded) == 2
    assert np.array_equal(loaded[0], arrays[0]) and loaded[0].shape == (2, 3)
    assert np.array_equal(loaded[1], arrays[1])


def test_tensor_file_wrong_magic(tmp_path):
    path = str(tmp_path / "t.bin")
    F.write_tensor_file(path, F.MAGIC_FEATURES, {}, [np.zeros(2)])
    with pytest.raises(FormatVersionMismatch):
        F.read_tensor_file(path, F.MAGIC_NET)


def test_tensor_file_truncated(tmp_path):
    path = tmp_path / "t.bin"
    F.write_tensor_file(str(path), F.MAGIC_FEATURES, {}, [np.zeros(8)])
    clipped = tmp_path / "clip.bin"
    clipped.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(CorruptFile):
        F.read_tensor_file(str(clipped), F.MAGIC_FEATURES)


def test_tensor_file_trailing_bytes(tmp_path):
    path = tmp_path / "t.bin"
    F.write_tensor_file(str(path), F.MAGIC_FEATURES, {}, [np.zeros(2)])
    fat = tmp_path / "fat.bin"
    fat.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CorruptFile):
        F.read_tensor_file(str(fat), F.MAGIC_FEATURES)


def test_header_rejects_bad_json(tmp_path):
    path = tmp_path / "t.bin"
    payload = b"{bad json"
    path.write_bytes(F.MAGIC_FEATURES + len(payload).to_bytes(8, "little") + payload)
    with pytest.raises(CorruptFile):
        F.read_tensor_file(str(path), F.MAGIC_FEATURES)


def _raw_container(magic, header_body, payload=b"", declared_len=None):
    """Container bytes assembled by hand, so tests can lie in any field."""
    n = len(header_body) if declared_len is None else declared_len
    return magic + n.to_bytes(8, "little") + header_body + payload


def test_tensor_file_empty_array_roundtrip(tmp_path):
    path = str(tmp_path / "t.bin")
    F.write_tensor_file(path, F.MAGIC_FEATURES, {}, [np.zeros((0, 4)), np.array(2.5)])
    _, (empty, scalar) = F.read_tensor_file(path, F.MAGIC_FEATURES)
    assert empty.shape == (0, 4)
    assert scalar.shape == () and scalar == 2.5


@pytest.mark.parametrize(
    "raw",
    [
        # a 2**62 header length must fail before any allocation (no MemoryError)
        _raw_container(F.MAGIC_FEATURES, b"{}", declared_len=2**62),
        # a declared payload far beyond the file size (no OverflowError)
        _raw_container(F.MAGIC_FEATURES, b'{"item_ids":["a"],"shapes":[[1099511627776,1048576]]}'),
        # shapes given as a string (no numpy UFuncNoLoopError)
        _raw_container(F.MAGIC_FEATURES, b'{"item_ids":["a"],"shapes":"abc"}'),
        _raw_container(F.MAGIC_FEATURES, b'{"shapes":[[-1,2]]}', b"\x00" * 16),
        _raw_container(F.MAGIC_FEATURES, b'{"shapes":[[true]]}', b"\x00" * 8),
        _raw_container(F.MAGIC_FEATURES, b'{"shapes":[2]}', b"\x00" * 16),
        _raw_container(F.MAGIC_FEATURES, b"{}"),
        _raw_container(F.MAGIC_FEATURES, b'[{"shapes":[]}]'),
        _raw_container(F.MAGIC_FEATURES, b'"shapes"'),
        _raw_container(F.MAGIC_FEATURES, b"\xff\xfe"),
        _raw_container(F.MAGIC_FEATURES, b'{"x":NaN,"shapes":[]}'),
        _raw_container(F.MAGIC_FEATURES, b'{"x":-Infinity,"shapes":[]}'),
        _raw_container(F.MAGIC_FEATURES, b'{"x":1e999,"shapes":[]}'),
    ],
    ids=["huge-header-len", "huge-shape", "string-shapes", "negative-dim", "bool-dim",
         "flat-shapes", "no-shapes", "list-header", "string-header", "not-utf8",
         "nan", "infinity", "float-overflow"],
)
def test_reader_rejects_malformed_headers(tmp_path, raw):
    path = tmp_path / "bad.bin"
    path.write_bytes(raw)
    with pytest.raises(CorruptFile):
        F.read_tensor_file(str(path), F.MAGIC_FEATURES)


def test_string_list_checks_type():
    assert F.string_list({"ids": ["a", "b"]}, "ids") == ["a", "b"]
    for header in ({}, {"ids": "ab"}, {"ids": ["a", 1]}):
        with pytest.raises(CorruptFile):
            F.string_list(header, "ids")


# --------------------------------------------------------------------- atomic

def test_atomic_write_success(tmp_path):
    path = tmp_path / "out.txt"
    with F.atomic_write(str(path), "w") as fh:
        fh.write("hello")
    assert path.read_text() == "hello"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]  # no temp left behind


def test_atomic_write_failure_leaves_target_untouched(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("original")
    with pytest.raises(RuntimeError):
        with F.atomic_write(str(path), "w") as fh:
            fh.write("partial")
            raise RuntimeError("interrupted")
    assert path.read_text() == "original"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_atomic_write_no_file_created_on_error(tmp_path):
    path = tmp_path / "fresh.txt"
    with pytest.raises(RuntimeError):
        with F.atomic_write(str(path), "w"):
            raise RuntimeError("boom")
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------------------ ppm

def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    levels = rng.integers(0, 256, size=(3, 5, 7), dtype=np.uint8)
    path = str(tmp_path / "img.ppm")
    F.write_ppm(path, levels)
    loaded = F.read_ppm(path)
    assert loaded.dtype == np.uint8 and loaded.shape == (3, 5, 7)
    assert loaded.tobytes() == levels.tobytes()
    # the bytes read_ppm returns write back unchanged
    again = str(tmp_path / "again.ppm")
    F.write_ppm(again, loaded)
    with open(path, "rb") as a, open(again, "rb") as b:
        assert a.read() == b.read()


@pytest.mark.parametrize(
    "image",
    [np.full((3, 2, 2), np.nan), np.full((3, 2, 2), 3, dtype=np.int64), np.full((3, 2, 2), 0.5)],
    ids=["nan", "int64", "unit-float"],
)
def test_write_ppm_refuses_images_that_are_not_bytes(tmp_path, image):
    # Bytes are the one image type: a float or wider int image is refused,
    # never clipped or wrapped into pixels.
    path = tmp_path / "img.ppm"
    with pytest.raises(DataError, match="uint8"):
        F.write_ppm(str(path), image)
    assert list(tmp_path.iterdir()) == []


def test_ppm_header_comments_and_whitespace(tmp_path):
    # A hand-written P6 with comments sprinkled through the header tokens.
    body = bytes([255, 0, 0, 0, 255, 0])  # two pixels
    raw = b"P6\n# comment line\n2 # trailing\n# another\n 1\n255\n" + body
    path = tmp_path / "odd.ppm"
    path.write_bytes(raw)
    image = F.read_ppm(str(path))
    assert image.dtype == np.uint8 and image.shape == (3, 1, 2)
    assert image[0, 0, 0] == 255 and image[1, 0, 1] == 255
    assert image.tolist() == [[[255, 0]], [[0, 255]], [[0, 0]]]


def test_ppm_rejects_other_maxval(tmp_path):
    path = tmp_path / "deep.ppm"
    path.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")
    with pytest.raises(DataError):
        F.read_ppm(str(path))


def test_ppm_rejects_wrong_tag(tmp_path):
    path = tmp_path / "gray.ppm"
    path.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(DataError):
        F.read_ppm(str(path))


def test_ppm_rejects_short_body(tmp_path):
    path = tmp_path / "short.ppm"
    path.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
    with pytest.raises(DataError):
        F.read_ppm(str(path))


@pytest.mark.parametrize(
    "header",
    [b"P6\n2147483648 2147483648\n255\n", b"P6\n0 5\n255\n", b"P6\n3 -1\n255\n", b"P6\n2 x1\n255\n"],
    ids=["huge", "zero-width", "negative-height", "not-a-number"],
)
def test_ppm_rejects_bad_size_before_reading(tmp_path, header):
    path = tmp_path / "bad.ppm"
    path.write_bytes(header + b"\x00" * 9)
    with pytest.raises(CorruptFile):
        F.read_ppm(str(path))


def test_decode_image_dispatches_on_extension(tmp_path):
    image = np.zeros((3, 2, 2), dtype=np.uint8)
    image[0] = 255
    path = str(tmp_path / "img.ppm")
    F.write_ppm(path, image)
    assert np.array_equal(F.decode_image(path), F.read_ppm(path))
    with pytest.raises(DataError):
        F.decode_image(str(tmp_path / "img.tiff"))


@pytest.mark.parametrize("name", ["img.png", "IMG.PNG"])
def test_decode_image_refuses_png(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b"\x89PNG\r\n\x1a\n" + b"\x00" * 16)
    with pytest.raises(DataError, match="unsupported image format"):
        F.decode_image(str(path))
