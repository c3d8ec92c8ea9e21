"""QOI and TIFF codec conformance: round-trips, spec corner cases, and
container-invariance of the perceptual-hash pipeline feature."""

import numpy as np
import pytest

from ahrd_ray.functions.codecs import (
    decode_qoi,
    decode_tiff,
    encode_qoi,
    encode_tiff,
)
from ahrd_ray.stages.multimodal import _raster, decode_image


def test_qoi_roundtrip_gray_and_rgb():
    rng = np.random.default_rng(11)
    for shape in [(1, 1), (3, 200), (68, 128)]:
        img = rng.integers(0, 256, shape, dtype=np.uint8)
        assert (decode_qoi(encode_qoi(img)) == img).all()
    rgb = rng.integers(0, 256, (17, 23, 3), dtype=np.uint8)
    out = decode_qoi(encode_qoi(rgb))
    assert out.shape == (17, 23, 3) and (out == rgb).all()


def test_qoi_run_lengths_cross_62():
    # a 200-pixel constant row forces OP_RUN chunking at the 62 cap
    img = np.full((2, 100), 77, dtype=np.uint8)
    blob = encode_qoi(img)
    assert (decode_qoi(blob) == img).all()
    # runs of the PREVIOUS pixel start from (0,0,0): leading zeros are runs
    img0 = np.zeros((1, 130), dtype=np.uint8)
    assert (decode_qoi(encode_qoi(img0)) == img0).all()


def test_qoi_op_coverage_and_magic():
    # sawtooth exercises DIFF (+/-1), LUMA (mid jumps) and RGB (big jumps)
    x = ((np.arange(400) * 7) % 256).astype(np.uint8).reshape(4, 100)
    blob = encode_qoi(x)
    assert blob[:4] == b"qoif" and blob[-8:] == b"\x00" * 7 + b"\x01"
    assert (decode_qoi(blob) == x).all()
    with pytest.raises(ValueError):
        decode_qoi(b"nope" + bytes(16))


def test_qoi_rgba_chunk_decodes():
    # hand-built stream with an OP_RGBA chunk (our encoder never emits one;
    # the decoder must still accept it per spec)
    import struct

    head = b"qoif" + struct.pack(">IIBB", 2, 1, 4, 0)
    body = bytes([0xFF, 10, 20, 30, 200]) + bytes([0xC0 | 0])  # RGBA + run 1
    img = decode_qoi(head + body + b"\x00" * 7 + b"\x01")
    assert img.shape == (1, 2, 4)
    assert img[0, 0].tolist() == [10, 20, 30, 200]
    assert img[0, 1].tolist() == [10, 20, 30, 200]


def test_tiff_roundtrip_and_big_endian():
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, (21, 33), dtype=np.uint8)
    blob = encode_tiff(img)
    assert blob[:2] == b"II"
    assert (decode_tiff(blob) == img).all()
    # hand-built big-endian, two-strip variant
    import struct

    h, w = 4, 6
    img2 = rng.integers(0, 256, (h, w), dtype=np.uint8)
    s1, s2 = img2[:2].tobytes(), img2[2:].tobytes()
    data = s1 + s2
    ifd_off = 8 + len(data)
    entries = [
        (256, 4, 1, w), (257, 4, 1, h), (258, 3, 1, 8), (259, 3, 1, 1),
        (262, 3, 1, 1), (277, 3, 1, 1), (278, 4, 1, 2),
    ]
    ifd = struct.pack(">H", len(entries) + 2)
    for tag, typ, cnt, val in entries:
        ifd += struct.pack(">HHI", tag, typ, cnt)
        ifd += struct.pack(">I", val) if typ != 3 else struct.pack(">HH", val, 0)
    # strip offsets/counts arrays live OUT of line after the IFD
    arr_off = ifd_off + 2 + 12 * (len(entries) + 2) + 4
    ifd += struct.pack(">HHII", 273, 4, 2, arr_off)
    ifd += struct.pack(">HHII", 279, 4, 2, arr_off + 8)
    ifd += struct.pack(">I", 0)
    arrays = struct.pack(">II", 8, 8 + len(s1)) + struct.pack(
        ">II", len(s1), len(s2)
    )
    blob2 = struct.pack(">2sHI", b"MM", 42, ifd_off) + data + ifd + arrays
    assert (decode_tiff(blob2) == img2).all()


def test_tiff_rejects_unsupported():
    img = np.zeros((2, 2), dtype=np.uint8)
    blob = bytearray(encode_tiff(img))
    with pytest.raises(ValueError):
        decode_tiff(b"XX" + bytes(blob[2:]))


@pytest.mark.parametrize(
    "tag, name",
    [(256, "width"), (257, "height"), (273, "strip_offsets"), (279, "strip_counts")],
)
def test_tiff_missing_required_tag_raises_value_error(tag, name):
    """A TIFF without one of the tags the decoder needs is a malformed
    input (ValueError naming the tag), not a KeyError."""
    import struct

    blob = bytearray(encode_tiff(np.zeros((3, 5), dtype=np.uint8)))
    ifd_off = struct.unpack_from("<I", blob, 4)[0]
    for k in range(struct.unpack_from("<H", blob, ifd_off)[0]):
        off = ifd_off + 2 + 12 * k
        if struct.unpack_from("<H", blob, off)[0] == tag:
            struct.pack_into("<H", blob, off, 0xFFFF)  # a tag the decoder skips
    with pytest.raises(ValueError, match=f"missing required TIFF tag.*{name}"):
        decode_tiff(bytes(blob))


def test_dispatch_container_invariance():
    # the SAME doc raster through qoi and tiff containers decodes to the
    # identical 2-D array the pnm/arim fixture path produces
    text = "the fast key order sort table scan merge part window " * 40
    for doc_id in (0, 13, 96):
        truth = _raster(doc_id, text)
        assert (decode_image(encode_qoi(truth)) == truth).all()
        assert (decode_image(encode_tiff(truth)) == truth).all()
