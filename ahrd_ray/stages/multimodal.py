"""Multimodal columns: opaque binary payloads + typed metadata + REAL codecs.

Media travels the pipeline as an opaque ``binary`` column; decode /
feature-extract / resize / frame-sample are task ``map_batches`` stages
(callable instances whose setup runs once in ``__init__``, small batches
because payloads are large).  The container has no codec LIBRARY (no
PIL/cv2/imageio), but the uncompressed formats need none — this module
carries real pure-Python parsers/writers for three of them:

* **PNM** (``P5`` grayscale / ``P6`` RGB, binary raster, maxval <= 255)
* **BMP** (BITMAPINFOHEADER, uncompressed 8-bit-palette or 24-bit,
  bottom-up or top-down rows, 4-byte row padding)
* **WAV** (RIFF/WAVE: PCM 8/16-bit AND G.711 A-law/mu-law companded,
  format tags 6/7, exact expansion LUTs)
* **PNG** (stdlib zlib + per-scanline unfiltering: 8-bit gray / RGB /
  gray+alpha / RGBA, all five filters, Adam7 interlace, indexed color)
* **GIF** and **JPEG** (baseline DCT and lossless DPCM) via the real
  pure-Python entropy codecs in :mod:`ahrd_ray.functions.codecs` —
  LZW and canonical-Huffman decoders need no codec library either

plus the ``ARIM`` fake container kept as an extra image format so the
dispatch path is exercised.  JPEG covers baseline, PROGRESSIVE (SOF2)
and lossless (SOF3); only arithmetic-coded / hierarchical processes
still raise ``NotImplementedError``.

``payloads_dataset`` manufactures the media column from the corpus
(documents text bytes as the pixel raster, wrapped per-doc in one of the
three image containers) purely so the plumbing has real bytes to move; a
real deployment points ``read_parquet`` at a table with
(id, media:binary, media_type) columns instead.  The raster CONTENT is
identical across containers, so every downstream stat is pure arithmetic
on (doc_id, text) — which is what lets the mm_* registry queries carry
exact DuckDB oracles despite the binary column.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

import ray.data

MAGIC = b"ARIM"  # fake media container magic (second image format)

# -- payload spec (synthetic fixture): raster dims are arithmetic on doc_id,
# raster bytes are the doc's utf-8 text truncated/zero-padded to w*h.
_W_BASE, _W_MOD = 32, 97
_H_BASE, _H_MOD = 16, 53


def _dims(doc_id: int) -> tuple[int, int]:
    return _W_BASE + (doc_id % _W_MOD), _H_BASE + (doc_id % _H_MOD)


def _raster(doc_id: int, text: str) -> np.ndarray:
    w, h = _dims(doc_id)
    body = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)[: w * h]
    if len(body) < w * h:
        body = np.pad(body, (0, w * h - len(body)))
    return body.reshape(h, w)


# ---------------------------------------------------------------------------
# Real encoders (pure Python/numpy — no codec library involved)
# ---------------------------------------------------------------------------


def encode_pnm(img: np.ndarray) -> bytes:
    """Binary PNM: ``P5`` for (h, w) grayscale, ``P6`` for (h, w, 3) RGB."""
    if img.ndim == 2:
        magic = b"P5"
    elif img.ndim == 3 and img.shape[2] == 3:
        magic = b"P6"
    else:
        raise ValueError(f"PNM needs (h,w) or (h,w,3), got {img.shape}")
    h, w = img.shape[:2]
    return magic + f"\n{w} {h}\n255\n".encode() + np.ascontiguousarray(
        img, dtype=np.uint8
    ).tobytes()


def encode_bmp(img: np.ndarray) -> bytes:
    """Uncompressed BMP (BITMAPINFOHEADER): 8-bit gray palette for (h, w),
    24-bit BGR for (h, w, 3).  Rows bottom-up, padded to 4 bytes."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    h, w = img.shape[:2]
    if img.ndim == 2:
        bpp, palette = 8, b"".join(bytes([i, i, i, 0]) for i in range(256))
        rows = img
    elif img.ndim == 3 and img.shape[2] == 3:
        bpp, palette = 24, b""
        rows = img[:, :, ::-1].reshape(h, w * 3)  # RGB -> BGR
    else:
        raise ValueError(f"BMP needs (h,w) or (h,w,3), got {img.shape}")
    stride = (rows.shape[1] + 3) & ~3
    px = np.zeros((h, stride), dtype=np.uint8)
    px[:, : rows.shape[1]] = rows
    pixel_bytes = px[::-1].tobytes()  # bottom-up
    offset = 14 + 40 + len(palette)
    header = struct.pack(
        "<2sIHHI", b"BM", offset + len(pixel_bytes), 0, 0, offset
    ) + struct.pack(
        "<IiiHHIIiiII", 40, w, h, 1, bpp, 0, len(pixel_bytes), 2835, 2835,
        256 if bpp == 8 else 0, 0,
    )
    return header + palette + pixel_bytes


def encode_wav(
    samples: np.ndarray, rate: int = 8000, channels: int = 1,
    law: str | None = None,
) -> bytes:
    """RIFF/WAVE writer: PCM16 by default, or G.711 companded 8-bit when
    ``law`` is 'alaw'/'ulaw' (format tags 6/7 — the telephone-audio WAV
    variants).  ``samples`` is int16, frame-major (interleaved if
    multi-channel)."""
    if law is not None:
        from ahrd_ray.functions.codecs import g711_compress

        data = g711_compress(np.asarray(samples), law).tobytes()  # validates law
        tag = {"alaw": 6, "ulaw": 7}[law]
        fmt = struct.pack(
            "<HHIIHH", tag, channels, rate, rate * channels, channels, 8
        )
        return (
            struct.pack("<4sI4s", b"RIFF", 4 + 8 + len(fmt) + 8 + len(data), b"WAVE")
            + struct.pack("<4sI", b"fmt ", len(fmt)) + fmt
            + struct.pack("<4sI", b"data", len(data)) + data
        )
    data = np.ascontiguousarray(samples, dtype="<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, channels, rate, rate * channels * 2, channels * 2, 16)
    return (
        struct.pack("<4sI4s", b"RIFF", 4 + 8 + len(fmt) + 8 + len(data), b"WAVE")
        + struct.pack("<4sI", b"fmt ", len(fmt)) + fmt
        + struct.pack("<4sI", b"data", len(data)) + data
    )


# channel counts for the non-indexed PNG color types (indexed color is
# handled separately via PLTE lookup)
_PNG_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}


def _png_chunk(tag: bytes, body: bytes) -> bytes:
    import zlib

    return (
        struct.pack(">I", len(body))
        + tag
        + body
        + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF)
    )


# Adam7 interlace pass geometry: (x0, y0, dx, dy) per pass, spec order
_ADAM7 = (
    (0, 0, 8, 8), (4, 0, 8, 8), (0, 4, 4, 8), (2, 0, 4, 4),
    (0, 2, 2, 4), (1, 0, 2, 2), (0, 1, 1, 2),
)


def _png_filter_pass(rows: np.ndarray, bpp: int, filter_type: int) -> bytes:
    """Filter one (sub-)image's rows (h, w*bpp) with one filter type and
    prepend the per-scanline filter byte — fully vectorizable encode-side
    because the predictors subtract KNOWN original bytes."""
    h = rows.shape[0]
    rows = rows.astype(np.int16)
    left = np.zeros_like(rows)
    left[:, bpp:] = rows[:, :-bpp]
    up = np.zeros_like(rows)
    up[1:] = rows[:-1]
    upleft = np.zeros_like(rows)
    upleft[1:, bpp:] = rows[:-1, :-bpp]
    if filter_type == 0:
        filt = rows
    elif filter_type == 1:
        filt = rows - left
    elif filter_type == 2:
        filt = rows - up
    elif filter_type == 3:
        filt = rows - (left + up) // 2
    elif filter_type == 4:
        p = left + up - upleft
        pa_, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - upleft)
        pred = np.where(
            (pa_ <= pb) & (pa_ <= pc), left, np.where(pb <= pc, up, upleft)
        )
        filt = rows - pred
    else:
        raise ValueError(f"unknown PNG filter {filter_type}")
    return np.concatenate(
        [
            np.full((h, 1), filter_type, dtype=np.uint8),
            (filt & 0xFF).astype(np.uint8),
        ],
        axis=1,
    ).tobytes()


def encode_png(
    img: np.ndarray,
    filter_type: int = 0,
    interlace: bool = False,
    palette: bool = False,
) -> bytes:
    """Real PNG writer (stdlib zlib): 8-bit gray (h,w), RGB (h,w,3) or
    RGBA (h,w,4); optional Adam7 interlace (each of the 7 passes filtered
    as its own sub-image, per spec) and — for grayscale input — an
    indexed-color variant (``palette=True``: color type 3 with an identity
    grayscale PLTE).  ``filter_type`` 0-4 applies that scanline filter to
    EVERY row; non-zero filters exist mainly so the decoder's unfiltering
    paths are exercised by round-trip tests."""
    import zlib

    img = np.ascontiguousarray(img, dtype=np.uint8)
    plte = b""
    if palette:
        if img.ndim != 2:
            raise ValueError("palette PNG encoding takes (h, w) grayscale")
        color_type, bpp = 3, 1
        plte = bytes(i for i in range(256) for _ in range(3))
    elif img.ndim == 2:
        color_type, bpp = 0, 1
    elif img.ndim == 3 and img.shape[2] == 3:
        color_type, bpp = 2, 3
    elif img.ndim == 3 and img.shape[2] == 4:
        color_type, bpp = 6, 4
    else:
        raise ValueError(f"PNG needs (h,w), (h,w,3) or (h,w,4), got {img.shape}")
    h, w = img.shape[:2]
    flat = img.reshape(h, w * bpp)
    if interlace:
        raster = b"".join(
            _png_filter_pass(
                img[y0::dy, x0::dx].reshape(-(-(h - y0) // dy), -1), bpp, filter_type
            )
            for x0, y0, dx, dy in _ADAM7
            if (h - y0) > 0 and (w - x0) > 0
        )
    else:
        raster = _png_filter_pass(flat, bpp, filter_type)

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 1 if interlace else 0)
    out = b"\x89PNG\r\n\x1a\n" + _png_chunk(b"IHDR", ihdr)
    if plte:
        out += _png_chunk(b"PLTE", plte)
    return out + _png_chunk(b"IDAT", zlib.compress(raster, 6)) + _png_chunk(b"IEND", b"")


def _decode_png(blob: bytes) -> np.ndarray:
    """Real PNG reader (stdlib zlib + per-scanline unfiltering): 8-bit
    gray / RGB / gray+alpha / RGBA, Adam7 interlace, indexed color.  Filters
    None/Sub/Up unfilter vectorized (Sub is a per-channel modular prefix
    sum); Average/Paeth carry a genuine left-dependency and walk the row's
    pixels (channels vectorized).  Handles Adam7 interlace (7 passes,
    each unfiltered as its own sub-image) and indexed color (PLTE lookup,
    grayscale palettes collapsing to (h, w) like the GIF path)."""
    import zlib

    if blob[:8] != b"\x89PNG\r\n\x1a\n":
        raise ValueError("not a PNG payload")
    i, ihdr, idat, plte = 8, None, [], None
    while i + 8 <= len(blob):
        (size,) = struct.unpack_from(">I", blob, i)
        tag = blob[i + 4 : i + 8]
        body = blob[i + 8 : i + 8 + size]
        if tag == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", body)
        elif tag == b"PLTE":
            plte = np.frombuffer(body, dtype=np.uint8).reshape(-1, 3)
        elif tag == b"IDAT":
            idat.append(body)
        elif tag == b"IEND":
            break
        i += 12 + size  # len + tag + body + crc
    if ihdr is None or not idat:
        raise ValueError("PNG missing IHDR/IDAT")
    w, h, depth, color_type, comp, filt_method, interlace = ihdr
    if depth != 8:
        raise NotImplementedError(f"{depth}-bit PNG not supported (8-bit only)")
    if color_type != 3 and color_type not in _PNG_CHANNELS:
        raise ValueError(f"bad PNG color type {color_type}")
    if color_type == 3 and plte is None:
        raise ValueError("palette PNG missing PLTE")
    if interlace not in (0, 1):
        raise ValueError(f"bad PNG interlace method {interlace}")
    if comp or filt_method:
        raise ValueError("bad PNG compression/filter method")

    bpp = 1 if color_type == 3 else _PNG_CHANNELS[color_type]
    try:
        raw = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8)
    except zlib.error as exc:
        raise ValueError(f"corrupt PNG IDAT stream: {exc}") from exc
    if interlace:
        out = np.zeros((h, w * bpp), dtype=np.int64).reshape(h, w, bpp)
        pos = 0
        for x0, y0, dx, dy in _ADAM7:
            if h - y0 <= 0 or w - x0 <= 0:
                continue
            ph = -(-(h - y0) // dy)
            pw = -(-(w - x0) // dx)
            n = ph * (pw * bpp + 1)
            sub = _png_unfilter(raw[pos : pos + n], ph, pw * bpp, bpp)
            pos += n
            out[y0::dy, x0::dx] = sub.reshape(ph, pw, bpp)
        if pos != len(raw):
            raise ValueError("PNG interlaced raster size mismatch")
        out = out.reshape(h, w * bpp)
    else:
        if len(raw) != h * (w * bpp + 1):
            raise ValueError("PNG raster size mismatch")
        out = _png_unfilter(raw, h, w * bpp, bpp)

    img = out.astype(np.uint8)
    if color_type == 3:
        rgb = plte[img.reshape(h, w)]
        if np.array_equal(rgb[..., 0], rgb[..., 1]) and np.array_equal(
            rgb[..., 0], rgb[..., 2]
        ):
            return np.ascontiguousarray(rgb[..., 0])
        return np.ascontiguousarray(rgb)
    return img.reshape((h, w) if bpp == 1 else (h, w, bpp)).copy()


def _png_unfilter(raw: np.ndarray, h: int, stride: int, bpp: int) -> np.ndarray:
    """Unfilter one (sub-)image of ``h`` scanlines, each 1 filter byte +
    ``stride`` data bytes.  Filters None/Sub/Up unfilter vectorized (Sub
    is a per-channel modular prefix sum); Average/Paeth carry a genuine
    left-dependency and walk the row's pixels (channels vectorized)."""
    raw = raw.reshape(h, stride + 1)
    ftypes, rows = raw[:, 0], raw[:, 1:].astype(np.int64)
    w = stride // bpp
    out = np.zeros((h, stride), dtype=np.int64)
    prev = np.zeros(stride, dtype=np.int64)
    for r in range(h):
        ft, x = int(ftypes[r]), rows[r]
        if ft == 0:
            rec = x
        elif ft == 1:  # Sub: per-channel modular prefix sum
            rec = x.copy()
            for c in range(bpp):
                rec[c::bpp] = np.cumsum(rec[c::bpp]) & 0xFF
        elif ft == 2:  # Up
            rec = (x + prev) & 0xFF
        elif ft in (3, 4):  # Average/Paeth: real left-dependency
            rec = np.zeros(stride, dtype=np.int64)
            for px in range(w):
                s = px * bpp
                left = rec[s - bpp : s] if px else np.zeros(bpp, dtype=np.int64)
                up = prev[s : s + bpp]
                if ft == 3:
                    pred = (left + up) // 2
                else:
                    upleft = (
                        prev[s - bpp : s] if px else np.zeros(bpp, dtype=np.int64)
                    )
                    p = left + up - upleft
                    pa_, pb, pc = (
                        np.abs(p - left),
                        np.abs(p - up),
                        np.abs(p - upleft),
                    )
                    pred = np.where(
                        (pa_ <= pb) & (pa_ <= pc),
                        left,
                        np.where(pb <= pc, up, upleft),
                    )
                rec[s : s + bpp] = (x[s : s + bpp] + pred) & 0xFF
        else:
            raise ValueError(f"bad PNG scanline filter {ft}")
        out[r] = rec
        prev = out[r]
    return out


def _encode_fake(doc_id: int, img: np.ndarray) -> bytes:
    h, w = img.shape
    return MAGIC + struct.pack("<iii", int(doc_id), w, h) + img.tobytes()


# ---------------------------------------------------------------------------
# Real decoders
# ---------------------------------------------------------------------------


def _decode_pnm(blob: bytes) -> np.ndarray:
    channels = 1 if blob[:2] == b"P5" else 3
    # header: magic, width, height, maxval — whitespace-separated tokens,
    # '#'-to-EOL comments allowed, then ONE whitespace byte before raster
    i, tokens = 2, []
    while len(tokens) < 3:
        while i < len(blob) and blob[i : i + 1].isspace():
            i += 1
        if blob[i : i + 1] == b"#":
            while i < len(blob) and blob[i] != 0x0A:
                i += 1
            continue
        j = i
        while j < len(blob) and not blob[j : j + 1].isspace():
            j += 1
        tokens.append(int(blob[i:j]))
        i = j
    i += 1  # the single whitespace after maxval
    w, h, maxval = tokens
    if maxval > 255:
        raise NotImplementedError("16-bit PNM rasters not supported")
    n = w * h * channels
    body = np.frombuffer(blob, dtype=np.uint8, count=n, offset=i)
    return body.reshape((h, w) if channels == 1 else (h, w, 3)).copy()


def _decode_bmp(blob: bytes) -> np.ndarray:
    offset = struct.unpack_from("<I", blob, 10)[0]
    dib = struct.unpack_from("<I", blob, 14)[0]
    if dib < 40:
        raise NotImplementedError("BITMAPCOREHEADER BMP not supported")
    w, h_signed = struct.unpack_from("<ii", blob, 18)
    bpp, compression = struct.unpack_from("<HH", blob, 28)[0], struct.unpack_from("<I", blob, 30)[0]
    if compression != 0:
        raise NotImplementedError("compressed BMP (RLE/bitfields) not supported")
    h, bottom_up = abs(h_signed), h_signed > 0
    if bpp == 8:
        n_colors = struct.unpack_from("<I", blob, 46)[0] or 256
        palette = np.frombuffer(blob, dtype=np.uint8, count=n_colors * 4, offset=54)
        gray = palette.reshape(-1, 4)[:, 0]  # blue channel (identity for gray)
        stride = (w + 3) & ~3
        px = np.frombuffer(blob, dtype=np.uint8, count=stride * h, offset=offset)
        rows = px.reshape(h, stride)[:, :w]
        rows = rows[::-1] if bottom_up else rows
        return gray[rows].astype(np.uint8)
    if bpp == 24:
        stride = (w * 3 + 3) & ~3
        px = np.frombuffer(blob, dtype=np.uint8, count=stride * h, offset=offset)
        rows = px.reshape(h, stride)[:, : w * 3].reshape(h, w, 3)
        rows = rows[::-1] if bottom_up else rows
        return rows[:, :, ::-1].copy()  # BGR -> RGB
    raise NotImplementedError(f"{bpp}-bpp BMP not supported")


def decode_image(blob: bytes, allow_fake: bool = False) -> np.ndarray:
    """Decode an image payload to a uint8 array, dispatched on its magic.

    Pure-Python decoders: binary PNM (P5/P6) and uncompressed BMP here,
    PNG (8-bit, every color type, Adam7) here, and GIF, JPEG (baseline,
    progressive and lossless), QOI and TIFF in :mod:`ahrd_ray.functions.codecs`.
    Results are (h, w) or (h, w, 3), except that PNG keeps an alpha channel
    ((h, w, 2) or (h, w, 4)) and QOI keeps one ((h, w, 4)) when some pixel's
    alpha is below 255.  A QOI whose every pixel is achromatic with alpha
    255 comes back as (h, w), even when it was encoded from an RGB image.
    The ``ARIM`` fake container decodes only with ``allow_fake=True`` (it
    is a test fixture, not a format).

    Still raising ``NotImplementedError``: arithmetic-coded and
    hierarchical JPEG, JPEG with other than 1 or 3 components or with
    other than 8-bit DCT samples, 16-bit PNG and PNM rasters, RLE/bitfields
    or BITMAPCOREHEADER BMP, and compressed or other than 8-bit
    single-sample TIFF.  Malformed payloads and unknown magics raise
    ``ValueError``."""
    head = bytes(blob[:4])
    if head[:2] in (b"P5", b"P6"):
        return _decode_pnm(blob)
    if head[:2] == b"BM":
        return _decode_bmp(blob)
    if head == MAGIC:
        if not allow_fake:
            raise NotImplementedError(
                "ARIM is the synthetic test container; pass allow_fake=True"
            )
        _doc, w, h = struct.unpack("<iii", blob[4:16])
        body = np.frombuffer(blob[16:], dtype=np.uint8)[: w * h]
        if len(body) < w * h:
            body = np.pad(body, (0, w * h - len(body)))
        return body.reshape(h, w)
    if head == b"\x89PNG":
        return _decode_png(blob)
    if head[:3] == b"GIF":
        from ahrd_ray.functions.codecs import decode_gif

        return decode_gif(blob)
    if head[:2] == b"\xff\xd8":
        from ahrd_ray.functions.codecs import decode_jpeg

        return decode_jpeg(blob)
    if head == b"qoif":
        from ahrd_ray.functions.codecs import decode_qoi

        return decode_qoi(blob)
    if head[:2] in (b"II", b"MM"):
        from ahrd_ray.functions.codecs import decode_tiff

        return decode_tiff(blob)
    raise ValueError(f"unrecognized image container (magic {head!r})")


def decode_audio(blob: bytes) -> dict:
    """RIFF/WAVE PCM parser -> {'rate', 'channels', 'samples': int16 ndarray
    (n_frames, channels) squeezed to 1-D when mono}."""
    if blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    i, fmt, data = 12, None, None
    while i + 8 <= len(blob):
        cid, size = struct.unpack_from("<4sI", blob, i)
        body = blob[i + 8 : i + 8 + size]
        if cid == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            data = body
        i += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or data is None:
        raise ValueError("WAV missing fmt/data chunk")
    audio_format, channels, rate, _, _, bits = fmt
    if audio_format == 6 or audio_format == 7:  # G.711 A-law / mu-law
        from ahrd_ray.functions.codecs import g711_expand

        if bits != 8:
            raise ValueError(f"G.711 WAV must be 8-bit, got {bits}")
        samples = g711_expand(
            np.frombuffer(data, dtype=np.uint8),
            "alaw" if audio_format == 6 else "ulaw",
        )
    elif audio_format != 1:
        raise NotImplementedError(
            f"WAV format {audio_format} not supported (PCM / A-law / mu-law are)"
        )
    elif bits == 16:
        samples = np.frombuffer(data, dtype="<i2").astype(np.int16)
    elif bits == 8:  # 8-bit WAV is unsigned, centered at 128
        samples = (np.frombuffer(data, dtype=np.uint8).astype(np.int16) - 128) * 256
    else:
        raise NotImplementedError(f"{bits}-bit PCM not supported")
    if channels > 1:
        samples = samples[: len(samples) - len(samples) % channels].reshape(
            -1, channels
        )
    return {"rate": rate, "channels": channels, "samples": samples}


# ---------------------------------------------------------------------------
# Payload fixtures
# ---------------------------------------------------------------------------

_FMT_BY_MOD = (  # doc_id % 3 picks the container — all three decoders run
    ("pnm", "image/x-portable-graymap"),
    ("bmp", "image/bmp"),
    ("arim", "image/fake"),
    # pinned-only (index > 2 keeps the 'mixed' rotation and its oracles
    # byte-stable); fmt="png" exercises the zlib codec end-to-end, "gif"
    # the LZW entropy codec, "jpegls" the lossless-JPEG Huffman DPCM codec
    # (all three lossless -> container-invariant oracles); "jpeg" is the
    # lossy baseline-DCT path, gated on dims + pytest error bounds
    ("png", "image/png"),
    ("gif", "image/gif"),
    ("jpegls", "image/jpeg"),
    ("jpeg", "image/jpeg"),
    ("jpeg_prog", "image/jpeg"),
    # "qoi" runs the QOI byte codec (index/diff/luma/run ops), "tiff" the
    # TIFF 6.0 baseline strip reader — both lossless, container-invariant
    ("qoi", "image/qoi"),
    ("tiff", "image/tiff"),
)


def payloads_dataset(sf_dir: str, fmt: str = "mixed") -> ray.data.Dataset:
    """documents -> (doc_id, media:binary, media_type) opaque payloads.

    ``fmt``: 'mixed' (default — container rotates pnm/bmp/arim by doc_id%3),
    or 'pnm' / 'bmp' / 'arim' to pin one.  Raster bytes are IDENTICAL across
    containers, so downstream stats do not depend on the choice."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def wrap(batch: pa.Table) -> pa.Table:
        blobs, types = [], []
        for d, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            img = _raster(d, t)
            f, mt = _FMT_BY_MOD[d % 3] if fmt == "mixed" else next(
                (p, m) for p, m in _FMT_BY_MOD if p == fmt
            )
            if f == "pnm":
                blobs.append(encode_pnm(img))
            elif f == "bmp":
                blobs.append(encode_bmp(img))
            elif f == "png":
                blobs.append(encode_png(img))
            elif f == "gif":
                from ahrd_ray.functions.codecs import encode_gif

                blobs.append(encode_gif(img))
            elif f == "jpegls":
                from ahrd_ray.functions.codecs import encode_jpeg_lossless

                blobs.append(encode_jpeg_lossless(img))
            elif f == "jpeg":
                from ahrd_ray.functions.codecs import encode_jpeg

                blobs.append(encode_jpeg(img, quality=95))
            elif f == "jpeg_prog":
                from ahrd_ray.functions.codecs import encode_jpeg_progressive

                blobs.append(encode_jpeg_progressive(img, quality=95))
            elif f == "qoi":
                from ahrd_ray.functions.codecs import encode_qoi

                blobs.append(encode_qoi(img))
            elif f == "tiff":
                from ahrd_ray.functions.codecs import encode_tiff

                blobs.append(encode_tiff(img))
            else:
                blobs.append(_encode_fake(d, img))
            types.append(mt)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "media": pa.array(blobs, type=pa.binary()),
                "media_type": pa.array(types, type=pa.string()),
            }
        )

    return docs.map_batches(wrap, batch_format="pyarrow")


def wav_payloads(
    sf_dir: str, rate: int = 8000, law: str | None = None
) -> ray.data.Dataset:
    """documents -> (doc_id, media:binary WAV) — PCM16, or G.711
    A-law/mu-law companded 8-bit when ``law`` is set.  Deterministic
    integer waveform: sample[i] = ((doc_id*7 + i*13) % 512) - 256 over
    n = 100 + doc_id % 50 frames — integer arithmetic, so the decode stats
    carry an exact SQL oracle (for G.711 the oracle bakes the 512-entry
    compand->expand mapping generated from the same LUTs)."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def wrap(batch: pa.Table) -> pa.Table:
        blobs = []
        for d in batch["doc_id"].to_pylist():
            n = 100 + d % 50
            i = np.arange(n, dtype=np.int64)
            samples = ((d * 7 + i * 13) % 512 - 256).astype(np.int16)
            blobs.append(encode_wav(samples, rate=rate, law=law))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "media": pa.array(blobs, type=pa.binary()),
                "media_type": pa.array(["audio/wav"] * len(batch), type=pa.string()),
            }
        )

    return docs.map_batches(wrap, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Callable-instance stages (plain tasks: each task unpickles the instance)
# ---------------------------------------------------------------------------


class MediaFeatureExtractor:
    """Feature stage: 'model' setup once in __init__, small batches
    because payloads are large.  Decodes via the REAL dispatch (PNM/BMP/
    fake) and emits fixed-width feature vectors + dims — the output layout
    a CLIP/whisper-style stage would produce."""

    N_FEATURES = 16

    def __init__(self, allow_fake: bool = True):
        # setup (once, on the driver): bin edges of the byte histogram 'model'
        self.allow_fake = allow_fake
        self.bins = np.linspace(0, 256, self.N_FEATURES + 1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats, widths, heights = [], [], []
        for blob in batch["media"].to_pylist():
            img = decode_image(blob, allow_fake=self.allow_fake)
            h, w = img.shape[:2]
            hist, _ = np.histogram(img, bins=self.bins)
            total = hist.sum()
            feats.append((hist / total if total else hist).astype(np.float32))
            widths.append(w)
            heights.append(h)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "width": pa.array(widths, type=pa.int32()),
                "height": pa.array(heights, type=pa.int32()),
                "features": pa.array(
                    [f.tolist() for f in feats], type=pa.list_(pa.float32())
                ),
            }
        )


def media_features(sf_dir: str, batch_size: int = 64) -> ray.data.Dataset:
    """payloads -> features (small batch_size: a batch of decoded media
    must fit a worker's heap)."""
    return payloads_dataset(sf_dir).map_batches(
        MediaFeatureExtractor(allow_fake=True), batch_format="pyarrow", batch_size=batch_size
    )


class MediaHistogram:
    """Exact-count sibling of MediaFeatureExtractor for the oracle gate:
    (doc_id, bin, n) int64 long-format byte histogram (bin = byte // 16,
    only bins with n > 0 — matching SQL GROUP BY)."""

    def __init__(self, allow_fake: bool = True):
        self.allow_fake = allow_fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, bins, ns = [], [], []
        for d, blob in zip(batch["doc_id"].to_pylist(), batch["media"].to_pylist()):
            img = decode_image(blob, allow_fake=self.allow_fake)
            hist = np.bincount(np.asarray(img).reshape(-1) >> 4, minlength=16)
            nz = np.flatnonzero(hist)
            ids.extend([d] * len(nz))
            bins.extend(nz.tolist())
            ns.extend(hist[nz].tolist())
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "bin": pa.array(bins, type=pa.int64()),
                "n": pa.array(ns, type=pa.int64()),
            }
        )


def media_histogram(sf_dir: str, batch_size: int = 64) -> ray.data.Dataset:
    return payloads_dataset(sf_dir).map_batches(
        MediaHistogram(allow_fake=True), batch_format="pyarrow", batch_size=batch_size
    )


class ImageResizer:
    """Resize stage: decode (real dispatch) -> nearest-neighbor resize
    (numpy index math) -> re-encoded P5 payload.  Swapping in a
    Pillow/opencv codec changes no Ray-side plumbing."""

    def __init__(self, out_w: int = 16, out_h: int = 8, allow_fake: bool = True):
        self.out_w, self.out_h = out_w, out_h
        self.allow_fake = allow_fake

    def _grids(self, w: int, h: int) -> tuple[np.ndarray, np.ndarray]:
        cols = (np.arange(self.out_w) * w) // self.out_w
        rows = (np.arange(self.out_h) * h) // self.out_h
        return rows, cols

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs, widths, heights = [], [], []
        for blob in batch["media"].to_pylist():
            img = decode_image(blob, allow_fake=self.allow_fake)
            h, w = img.shape[:2]
            rows, cols = self._grids(w, h)
            small = img[rows][:, cols]
            blobs.append(encode_pnm(small))
            heights.append(small.shape[0])
            widths.append(small.shape[1])
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "media": pa.array(blobs, type=pa.binary()),
                "width": pa.array(widths, type=pa.int32()),
                "height": pa.array(heights, type=pa.int32()),
            }
        )


def resized_images(
    sf_dir: str, out_w: int = 16, out_h: int = 8, batch_size: int = 64
) -> ray.data.Dataset:
    return payloads_dataset(sf_dir).map_batches(
        ImageResizer(out_w, out_h, allow_fake=True), batch_format="pyarrow", batch_size=batch_size
    )


def resized_pixels(sf_dir: str, out_w: int = 16, out_h: int = 8) -> ray.data.Dataset:
    """(doc_id, r, c, v) — every pixel of every RESIZED image, decoded back
    from the resizer's re-encoded P5 payload.  Gates the full
    decode -> resample -> encode -> decode round trip against pure
    (doc_id, text) arithmetic in SQL."""

    def explode(batch: pa.Table) -> pa.Table:
        ids, rs, cs, vs = [], [], [], []
        for d, blob in zip(batch["doc_id"].to_pylist(), batch["media"].to_pylist()):
            img = decode_image(blob)  # P5: the real parser, no fake flag
            h, w = img.shape
            rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
            ids.extend([d] * (h * w))
            rs.extend(rr.reshape(-1).tolist())
            cs.extend(cc.reshape(-1).tolist())
            vs.extend(img.reshape(-1).tolist())
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "r": pa.array(rs, type=pa.int64()),
                "c": pa.array(cs, type=pa.int64()),
                "v": pa.array(vs, type=pa.int64()),
            }
        )

    return resized_images(sf_dir, out_w=out_w, out_h=out_h).map_batches(
        explode, batch_format="pyarrow", batch_size=64
    )


class FrameSampler:
    """Video analogue: the decoded raster is a sequence of fsize-byte
    frames; emit every Nth frame as its own row (doc_id, frame_idx,
    frame:binary).  Row-exploding map_batches with small batches — the
    layout a real ffmpeg-backed sampler produces; only the demux is the
    image raster standing in for a video stream."""

    def __init__(
        self, every_n: int = 4, frame_w: int = 8, frame_h: int = 8,
        allow_fake: bool = True,
    ):
        self.every_n = every_n
        self.frame_w, self.frame_h = frame_w, frame_h
        self.allow_fake = allow_fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, idxs, frames = [], [], []
        for d, blob in zip(batch["doc_id"].to_pylist(), batch["media"].to_pylist()):
            body = decode_image(blob, allow_fake=self.allow_fake).reshape(-1)
            fsize = self.frame_w * self.frame_h
            n_frames = len(body) // fsize if fsize else 0
            for fi in range(0, n_frames, self.every_n):
                ids.append(d)
                idxs.append(fi)
                frames.append(body[fi * fsize : (fi + 1) * fsize].tobytes())
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "frame_idx": pa.array(idxs, type=pa.int32()),
                "frame": pa.array(frames, type=pa.binary()),
            }
        )


def sampled_frames(
    sf_dir: str, every_n: int = 4, frame_w: int = 8, frame_h: int = 8, batch_size: int = 64
) -> ray.data.Dataset:
    return payloads_dataset(sf_dir).map_batches(
        FrameSampler(every_n, frame_w, frame_h, allow_fake=True),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def frame_sums(sf_dir: str, every_n: int = 4) -> ray.data.Dataset:
    """(doc_id, frame_idx, f_sum) — exact per-frame byte sums of the sampled
    frames (8x8 = 64 bytes each), the SQL-gateable projection of
    sampled_frames."""

    def summarize(batch: pa.Table) -> pa.Table:
        sums = [
            int(np.frombuffer(f, dtype=np.uint8).sum())
            for f in batch["frame"].to_pylist()
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "frame_idx": batch["frame_idx"].cast(pa.int64()),
                "f_sum": pa.array(sums, type=pa.int64()),
            }
        )

    return sampled_frames(sf_dir, every_n=every_n).map_batches(
        summarize, batch_format="pyarrow", batch_size=256
    )


def audio_stats(sf_dir: str) -> ray.data.Dataset:
    """WAV payloads -> (doc_id, n_samples, sample_rate, amp_sum, amp_min,
    amp_max) through the REAL RIFF/PCM parser — exact integers, SQL-gated."""

    def stats(batch: pa.Table) -> pa.Table:
        ids, ns, rates, sums, mins, maxs = [], [], [], [], [], []
        for d, blob in zip(batch["doc_id"].to_pylist(), batch["media"].to_pylist()):
            a = decode_audio(blob)
            s = a["samples"].astype(np.int64)
            ids.append(d)
            ns.append(len(s))
            rates.append(a["rate"])
            sums.append(int(s.sum()))
            mins.append(int(s.min()))
            maxs.append(int(s.max()))
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "n_samples": pa.array(ns, type=pa.int64()),
                "sample_rate": pa.array(rates, type=pa.int64()),
                "amp_sum": pa.array(sums, type=pa.int64()),
                "amp_min": pa.array(mins, type=pa.int64()),
                "amp_max": pa.array(maxs, type=pa.int64()),
            }
        )

    return wav_payloads(sf_dir).map_batches(
        stats, batch_format="pyarrow", batch_size=64
    )


# aHash grid side: 8x8 = 64 threshold bits, the standard perceptual
# average-hash layout (Krawetz).  Bits pack into two NON-NEGATIVE int64
# halves (hi = bits 32..63, lo = bits 0..31) so neither column ever
# touches the int64 sign bit — SQL and numpy shift arithmetic stay equal.
AHASH_SIDE = 8


class AverageHasher:
    """aHash stage: decode (real dispatch) -> 8x8 nearest-neighbor
    downsample (the ImageResizer grid math) -> strict mean threshold
    (bit = pixel*64 > total, integer-exact on both sides) -> packed 64-bit
    perceptual aHash.  The classic image near-dup feature: Hamming-close
    hashes mean visually-near-duplicate rasters, so this column feeds the
    same banding dedup machinery the text SimHash uses."""

    def __init__(self, allow_fake: bool = True):
        self.allow_fake = allow_fake
        self.side = AHASH_SIDE

    def __call__(self, batch: pa.Table) -> pa.Table:
        his, los = [], []
        for blob in batch["media"].to_pylist():
            img = decode_image(blob, allow_fake=self.allow_fake)
            h, w = img.shape[:2]
            rows = (np.arange(self.side) * h) // self.side
            cols = (np.arange(self.side) * w) // self.side
            small = np.asarray(img)[rows][:, cols].astype(np.int64).reshape(-1)
            total = int(small.sum())
            b = np.flatnonzero(small * 64 > total)
            his.append(int((np.int64(1) << (b[b >= 32] - 32)).sum()))
            los.append(int((np.int64(1) << b[b < 32]).sum()))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "ahash_hi": pa.array(his, type=pa.int64()),
                "ahash_lo": pa.array(los, type=pa.int64()),
            }
        )


def ahash_features(sf_dir: str, batch_size: int = 64, fmt: str = "mixed") -> ray.data.Dataset:
    return payloads_dataset(sf_dir, fmt=fmt).map_batches(
        AverageHasher(allow_fake=True), batch_format="pyarrow", batch_size=batch_size
    )


# frame-energy windowing: the VAD / silence-trim front-end of an audio
# training pipeline.  Non-overlapping windows; the trailing partial window
# is kept (n < WAV_WIN tells the consumer).
WAV_WIN = 32


def wav_energy(sf_dir: str, law: str | None = None) -> ray.data.Dataset:
    """WAV payloads -> (doc_id, win_idx, n_samples, energy) through the
    REAL RIFF/PCM parser: per non-overlapping WAV_WIN-sample window, the
    exact int64 sum of squared amplitudes — the frame-energy feature every
    voice-activity / silence-trimming stage consumes.  Integer-exact, so
    the SQL oracle re-derives it from the synthetic waveform arithmetic.

    Scale shape: a task map over small batches (payloads are
    large), zero shuffle — window rows leave the task already final."""

    def energy(batch: pa.Table) -> pa.Table:
        ids, wins, ns, es = [], [], [], []
        for d, blob in zip(batch["doc_id"].to_pylist(), batch["media"].to_pylist()):
            s = decode_audio(blob)["samples"].astype(np.int64)
            n = len(s)
            n_win = (n + WAV_WIN - 1) // WAV_WIN
            starts = np.arange(n_win) * WAV_WIN
            sq = s * s
            e = np.add.reduceat(sq, starts)
            cnt = np.minimum(WAV_WIN, n - starts)
            ids.extend([d] * n_win)
            wins.extend(range(n_win))
            ns.extend(cnt.tolist())
            es.extend(e.tolist())
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "win_idx": pa.array(wins, type=pa.int64()),
                "n_samples": pa.array(ns, type=pa.int64()),
                "energy": pa.array(es, type=pa.int64()),
            }
        )

    return wav_payloads(sf_dir, law=law).map_batches(
        energy, batch_format="pyarrow", batch_size=64
    )


def jpeg_dims(sf_dir: str, progressive: bool = False) -> ray.data.Dataset:
    """(doc_id, width, height) decoded from REAL DCT JPEG payloads (lossy,
    quality 95) — baseline SOF0, or multi-scan PROGRESSIVE SOF2 when
    ``progressive`` (spectral selection + successive approximation).  The
    dims are the SQL-gateable projection — decoded CONTENT is inherently
    codec-defined for a lossy format, so pixel error bounds, sha256 pins
    and the progressive==sequential pixel-equivalence gate live in pytest
    (test_gif_jpeg_codec) instead."""

    def dims(batch: pa.Table) -> pa.Table:
        from ahrd_ray.functions.codecs import decode_jpeg

        ids, ws, hs = [], [], []
        for d, blob in zip(batch["doc_id"].to_pylist(), batch["media"].to_pylist()):
            img = decode_jpeg(blob)
            ids.append(d)
            hs.append(img.shape[0])
            ws.append(img.shape[1])
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "width": pa.array(ws, type=pa.int64()),
                "height": pa.array(hs, type=pa.int64()),
            }
        )

    return payloads_dataset(
        sf_dir, fmt="jpeg_prog" if progressive else "jpeg"
    ).map_batches(
        dims, batch_format="pyarrow", batch_size=64
    )


def gif_video_payloads(
    sf_dir: str, frame_w: int = 8, frame_h: int = 8
) -> ray.data.Dataset:
    """documents -> (doc_id, media: REAL ANIMATED GIF89a).  The doc raster
    splits into consecutive frame_h x frame_w frames, each written as one
    GIF animation frame (GCE + image block, NETSCAPE loop) — a genuine
    multi-frame video container, not the ARIM stand-in."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    fsize = frame_w * frame_h

    def wrap(batch: pa.Table) -> pa.Table:
        from ahrd_ray.functions.codecs import encode_gif_frames

        ids, blobs = [], []
        for d, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            body = _raster(d, t).reshape(-1)
            n_frames = len(body) // fsize
            if n_frames == 0:
                continue
            frames = [
                body[fi * fsize : (fi + 1) * fsize].reshape(frame_h, frame_w)
                for fi in range(n_frames)
            ]
            ids.append(d)
            blobs.append(encode_gif_frames(frames))
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "media": pa.array(blobs, type=pa.binary()),
                "media_type": pa.array(["image/gif"] * len(ids), type=pa.string()),
            }
        )

    return docs.map_batches(wrap, batch_format="pyarrow", batch_size=64)


def gif_frame_sums(sf_dir: str, every_n: int = 4) -> ray.data.Dataset:
    """(doc_id, frame_idx, f_sum) — every Nth frame DEMUXED from the real
    animated-GIF container (LZW decode per frame) and byte-summed: the
    video frame-sampling product over an actual multi-frame format, gated
    by the same raster-arithmetic oracle as the ARIM-based sampler."""

    def sums(batch: pa.Table) -> pa.Table:
        from ahrd_ray.functions.codecs import decode_gif_frames

        ids, idxs, fs = [], [], []
        for d, blob in zip(batch["doc_id"].to_pylist(), batch["media"].to_pylist()):
            frames = decode_gif_frames(blob)
            for fi in range(0, len(frames), every_n):
                ids.append(d)
                idxs.append(fi)
                fs.append(int(frames[fi].astype(np.int64).sum()))
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "frame_idx": pa.array(idxs, type=pa.int64()),
                "f_sum": pa.array(fs, type=pa.int64()),
            }
        )

    return gif_video_payloads(sf_dir).map_batches(
        sums, batch_format="pyarrow", batch_size=64
    )


# lag set for the autocorrelation feature (lag 0 = energy normalizer)
AUTOCORR_LAGS = (0, 1, 2, 4, 8)


def wav_autocorr(sf_dir: str) -> ray.data.Dataset:
    """WAV payloads -> (doc_id, lag, n_terms, autocorr) through the real
    RIFF/PCM parser: exact int64 autocorrelation at AUTOCORR_LAGS — the
    pitch/periodicity feature a speech-filtering stage consumes (frame
    energy's spectral-free complement; lag 0 is the normalizer).
    Integer-exact, so the oracle re-derives it from the synthetic
    waveform arithmetic with a per-lag self-join.  Task map over
    small batches, zero shuffle."""

    def corr(batch: pa.Table) -> pa.Table:
        ids, lags, ns, cs = [], [], [], []
        for d, blob in zip(batch["doc_id"].to_pylist(), batch["media"].to_pylist()):
            s = decode_audio(blob)["samples"].astype(np.int64)
            n = len(s)
            for lag in AUTOCORR_LAGS:
                if lag >= n:
                    continue
                ids.append(d)
                lags.append(lag)
                ns.append(n - lag)
                cs.append(int((s[: n - lag] * s[lag:]).sum()))
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "lag": pa.array(lags, type=pa.int64()),
                "n_terms": pa.array(ns, type=pa.int64()),
                "autocorr": pa.array(cs, type=pa.int64()),
            }
        )

    return wav_payloads(sf_dir).map_batches(
        corr, batch_format="pyarrow", batch_size=64
    )


def ahash_groups(sf_dir: str) -> ray.data.Dataset:
    """(ahash_hi, ahash_lo, n_docs, rep_doc) — perceptual-dedup buckets:
    images sharing an EXACT 64-bit aHash, with the min doc_id as the
    bucket representative; singleton hashes are dropped.  The linear
    image-dedup pass (pairs would be quadratic in the hot buckets — text
    rasters make perceptual collisions very dense, the shape a real
    screenshot-heavy crawl also has); per-block combine, one hash-keyed
    fold."""
    import pandas as pd

    from ahrd_ray.stages.partitioning import n_hash_parts

    n_parts = n_hash_parts()

    def partial(batch: pa.Table) -> "pd.DataFrame":
        df = pd.DataFrame(
            {
                "ahash_hi": batch["ahash_hi"].to_numpy(),
                "ahash_lo": batch["ahash_lo"].to_numpy(),
                "doc_id": batch["doc_id"].to_numpy(),
            }
        )
        out = df.groupby(["ahash_hi", "ahash_lo"], as_index=False).agg(
            n_docs=("doc_id", "size"), rep_doc=("doc_id", "min")
        )
        out["hpart"] = (
            (out["ahash_hi"] * 1000003 + out["ahash_lo"]) % n_parts
        ).astype("int32")
        return out

    def final(df: "pd.DataFrame") -> "pd.DataFrame":
        out = df.groupby(["ahash_hi", "ahash_lo"], as_index=False).agg(
            n_docs=("n_docs", "sum"), rep_doc=("rep_doc", "min")
        )
        out = out[out["n_docs"] > 1]
        return out.astype({"n_docs": "int64", "rep_doc": "int64"})

    return (
        ahash_features(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("hpart")
        .map_groups(final, batch_format="pandas")
    )


def ahash_dedup_docs(sf_dir: str) -> ray.data.Dataset:
    """(doc_id,) — survivors of perceptual image dedup: a doc survives iff
    it is the min doc_id of its exact-aHash bucket (singletons survive
    trivially).  Completes the bucket pass with the survivor selection a
    cleaning chain consumes; one hash-keyed fold, min per bucket, no join
    back to documents."""
    import pandas as pd

    from ahrd_ray.stages.partitioning import n_hash_parts

    n_parts = n_hash_parts()

    def partial(batch: pa.Table) -> "pd.DataFrame":
        df = pd.DataFrame(
            {
                "ahash_hi": batch["ahash_hi"].to_numpy(),
                "ahash_lo": batch["ahash_lo"].to_numpy(),
                "doc_id": batch["doc_id"].to_numpy(),
            }
        )
        out = df.groupby(["ahash_hi", "ahash_lo"], as_index=False)["doc_id"].min()
        out["hpart"] = (
            (out["ahash_hi"] * 1000003 + out["ahash_lo"]) % n_parts
        ).astype("int32")
        return out

    def final(df: "pd.DataFrame") -> "pd.DataFrame":
        out = df.groupby(["ahash_hi", "ahash_lo"], as_index=False)["doc_id"].min()
        return out[["doc_id"]].astype({"doc_id": "int64"})

    return (
        ahash_features(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("hpart")
        .map_groups(final, batch_format="pandas")
    )
