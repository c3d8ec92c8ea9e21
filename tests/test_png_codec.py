"""PNG codec gate (VERDICT r4 item 4): stdlib-zlib PNG is a real decode
path — round-trip across all five scanline filters and all supported color
types, sha256 content pins on deterministic payloads (the BMP-gate shape),
and the mm feature stages producing IDENTICAL output over PNG payloads as
over the BMP/PNM containers (the raster content is container-invariant)."""

import hashlib

import numpy as np
import pyarrow as pa
import pytest

from ahrd_ray.stages.multimodal import (
    AverageHasher,
    MediaFeatureExtractor,
    _raster,
    decode_image,
    encode_png,
    payloads_dataset,
)

SF = "/root/testdata/sf0.001"


def _img(shape, seed=7):
    return np.random.RandomState(seed).randint(0, 256, size=shape, dtype=np.uint8)


@pytest.mark.parametrize("filter_type", [0, 1, 2, 3, 4])
@pytest.mark.parametrize(
    "shape", [(11, 13), (11, 13, 3), (11, 13, 4), (1, 1), (5, 1, 3), (1, 7)]
)
def test_png_roundtrip(shape, filter_type):
    img = _img(shape)
    out = decode_image(encode_png(img, filter_type=filter_type))
    assert out.shape == img.shape
    np.testing.assert_array_equal(out, img)


# pinned at codec introduction (container zlib 1.2.13, level 6); the
# decoded-content pin is zlib-independent and must NEVER drift
_PIN_PAYLOAD = "2d5d5af5653b2e5dbf3912482cba6fb0cbca8b7992e2f0e6ef88b7c1cf398713"
_PIN_CONTENT = "db88f89f69db39b09c7d8a86fe83aa5c8ad8752fe516d7ada167ca5eee2c669a"


def test_png_sha256_pins():
    """Deterministic fixture raster -> pinned payload bytes AND pinned
    decoded content: a codec regression cannot slip through either
    direction (same oracle shape as the BMP gate)."""
    img = _raster(7, "the quick brown fox " * 40)
    blob = encode_png(img)
    assert hashlib.sha256(img.tobytes()).hexdigest() == _PIN_CONTENT
    assert hashlib.sha256(blob).hexdigest() == _PIN_PAYLOAD, "encoder bytes drifted"
    assert hashlib.sha256(decode_image(blob).tobytes()).hexdigest() == _PIN_CONTENT


def test_png_hostile_payloads():
    img = _img((6, 5))
    blob = bytearray(encode_png(img))
    with pytest.raises(ValueError):
        decode_image(b"\x89PNG\r\n\x1a\n")  # no chunks
    with pytest.raises(ValueError):
        decode_image(bytes(blob[: len(blob) // 2]))  # truncated IDAT
    # unsupported-but-recognized variants raise NotImplementedError
    import struct

    from ahrd_ray.stages.multimodal import _png_chunk

    def ihdr(depth, color, interlace=0):
        return (
            b"\x89PNG\r\n\x1a\n"
            + _png_chunk(b"IHDR", struct.pack(">IIBBBBB", 4, 4, depth, color, 0, 0, interlace))
            + _png_chunk(b"IDAT", b"x")
        )

    with pytest.raises(NotImplementedError):
        decode_image(ihdr(16, 0))  # 16-bit stays unsupported
    # palette + Adam7 are REAL paths now; these headerless stubs are
    # malformed (no PLTE / bogus IDAT), not unsupported
    with pytest.raises(ValueError):
        decode_image(ihdr(8, 3))
    with pytest.raises(ValueError):
        decode_image(ihdr(8, 0, interlace=1))


def test_jpeg_malformed_raises_valueerror():
    # JPEG decodes for real since the codecs module landed; a payload with
    # the SOI magic but garbage after it is malformed, not unsupported
    with pytest.raises(ValueError):
        decode_image(b"\xff\xd8\xff\xe0" + b"\x00" * 16)


def _collect(ds):
    return ds.to_pandas().sort_values("doc_id").reset_index(drop=True)


def test_mm_features_container_invariant_png(ray_session):
    """ahash + media features over fmt='png' == over fmt='bmp': the
    Ray-side plumbing (task map, batch size, schema) is identical and
    the zlib codec reproduces the exact raster."""
    import pandas as pd

    def run(fmt, cls):
        return _collect(
            payloads_dataset(SF, fmt=fmt).map_batches(
                cls(allow_fake=True), batch_format="pyarrow", batch_size=64
            )
        )

    for cls in (AverageHasher, MediaFeatureExtractor):
        png = run("png", cls)
        bmp = run("bmp", cls)
        pd.testing.assert_frame_equal(png, bmp)

    # and the payload container is genuinely PNG
    first = payloads_dataset(SF, fmt="png").take(1)[0]
    assert bytes(first["media"])[:8] == b"\x89PNG\r\n\x1a\n"
    assert first["media_type"] == "image/png"


def test_png_adam7_and_palette_roundtrips():
    """Adam7 interlace (all 5 filters, every pass its own sub-image) and
    indexed-color PNG round-trip bit-exactly, including sub-8px edge
    shapes where some passes are empty."""
    rng = np.random.default_rng(5)
    for h, w in [(1, 1), (3, 5), (7, 9), (40, 64)]:
        g = rng.integers(0, 256, (h, w)).astype(np.uint8)
        for ft in range(5):
            assert np.array_equal(
                decode_image(encode_png(g, filter_type=ft, interlace=True)), g
            ), (h, w, ft)
        assert np.array_equal(decode_image(encode_png(g, palette=True)), g)
        assert np.array_equal(
            decode_image(encode_png(g, palette=True, interlace=True)), g
        )
        rgb = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
        assert np.array_equal(
            decode_image(encode_png(rgb, interlace=True, filter_type=4)), rgb
        )


def test_png_adam7_partition():
    # every pixel belongs to exactly one Adam7 pass
    from ahrd_ray.stages.multimodal import _ADAM7

    for h, w in [(1, 1), (7, 5), (8, 8), (59, 44)]:
        seen = np.zeros((h, w), int)
        for x0, y0, dx, dy in _ADAM7:
            seen[y0::dy, x0::dx] += 1
        assert (seen == 1).all(), (h, w)
