"""Pure-Python compressed image codecs: GIF (LZW) and JPEG (baseline DCT
+ lossless predictive).

The container has no codec library (no PIL/cv2/imageio), and the round-4
multimodal module shipped real pure-Python PNM/BMP/WAV/PNG codecs with the
note that JPEG/GIF "need an entropy decoder".  This module supplies those
entropy decoders from the public specs alone:

* **GIF** (GIF87a/89a): real LZW compression both ways — variable-width
  codes 9→12 bits LSB-first, clear/EOI handling, table reset at 4096, the
  KwKwK corner case, optional Adam-style 4-pass interlace, grayscale or
  palette RGB output.  Lossless, so decoded rasters are bit-identical to
  the input — which is what lets GIF payloads carry the same exact DuckDB
  oracles as the PNG path.
* **JPEG baseline + progressive** (ITU T.81 SOF0/SOF2): canonical Huffman
  entropy codec with
  per-image optimal length-limited tables (the libjpeg ``-optimize``
  strategy — tables travel in DHT, so nothing needs the Annex K defaults),
  8x8 FDCT/IDCT as separable orthonormal float64 matmuls, Annex K
  quantization tables with the libjpeg quality scaling, grayscale and
  YCbCr 4:4:4 / 4:2:0, restart markers (DRI/RSTn) on the decode side, and
  0xFF byte stuffing.  The progressive path implements the full SOF2
  machinery — spectral-selection bands, successive-approximation DC/AC
  refinement scans with correction bits, cross-block EOB runs — and its
  4-phase encoder refines to Al=0, making progressive decode PIXEL-EXACT
  equal to the sequential decode of the same inputs (the pytest gate).
  Lossy by design — gated by round-trip error bounds and sha256 content
  pins in pytest plus a dims-only SQL oracle.
* **JPEG lossless** (ITU T.81 process 14, SOF3): predictor-1 spatial DPCM
  with SSSS-category Huffman coding, mod-2^16 diff arithmetic.  Bit-exact
  lossless, so it carries the same exact content oracles as PNG/GIF.

Reference parity note: the AHRD reference has no media path at all (its
only binary inputs are FASTA/BLAST text); these codecs exist for the
beyond-reference multimodal pipeline (SURVEY §6), where image payloads are
opaque binary columns decoded inside task ``map_batches`` stages.
"""

from __future__ import annotations

import struct

import numpy as np

# ---------------------------------------------------------------------------
# GIF — LZW
# ---------------------------------------------------------------------------

_GIF_MAX_CODE = 1 << 12  # LZW code space is capped at 12 bits


def _gif_interlace_rows(h: int) -> np.ndarray:
    """Row output order of a 4-pass interlaced GIF (rows 0,8,16.. then
    4,12.. then 2,6.. then 1,3..)."""
    return np.concatenate(
        [
            np.arange(0, h, 8),
            np.arange(4, h, 8),
            np.arange(2, h, 4),
            np.arange(1, h, 2),
        ]
    )


def _lzw_encode(data: bytes, min_code_size: int = 8) -> bytes:
    """GIF-variant LZW: emits CLEAR first, variable code width growing
    9→12 bits (width bumps when next_code reaches 2^width + 1 on the
    encoder side, mirroring the decoder's bump at 2^width), CLEAR + table
    reset when the 12-bit space is exhausted, EOI last.  LSB-first bit
    packing per the GIF spec."""
    clear = 1 << min_code_size
    eoi = clear + 1
    out = bytearray()
    acc = 0
    nbits = 0
    code_size = min_code_size + 1

    def emit(code: int) -> None:
        nonlocal acc, nbits
        acc |= code << nbits
        nbits += code_size
        while nbits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            nbits -= 8

    table: dict[tuple[int, int], int] = {}
    next_code = eoi + 1
    emit(clear)
    prefix = -1
    for b in data:
        if prefix < 0:
            prefix = b
            continue
        key = (prefix, b)
        got = table.get(key)
        if got is not None:
            prefix = got
            continue
        emit(prefix)
        if next_code < _GIF_MAX_CODE:
            table[key] = next_code
            next_code += 1
            if next_code == (1 << code_size) + 1 and code_size < 12:
                code_size += 1
        else:
            emit(clear)
            table.clear()
            next_code = eoi + 1
            code_size = min_code_size + 1
        prefix = b
    if prefix >= 0:
        emit(prefix)
    emit(eoi)
    if nbits:
        out.append(acc & 0xFF)
    return bytes(out)


def _lzw_decode(data: bytes, min_code_size: int, n_expected: int) -> bytes:
    """GIF-variant LZW decoder: handles CLEAR, EOI, width growth at
    next_code == 2^width, the KwKwK (code == next_code) case, and stops
    at ``n_expected`` output bytes."""
    clear = 1 << min_code_size
    eoi = clear + 1
    bits = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8), bitorder="little"
    )
    weights = 1 << np.arange(12)
    pos = 0
    code_size = min_code_size + 1
    # table: code -> bytes chunk; 0..clear-1 are base bytes, the clear/eoi
    # slots are unaddressable placeholders, new entries start at eoi + 1
    base = [bytes([i]) for i in range(clear)] + [b"", b""]
    table = list(base)
    next_code = eoi + 1
    out = bytearray()
    prev: bytes | None = None
    n_bits_total = len(bits)
    while pos + code_size <= n_bits_total and len(out) < n_expected:
        code = int(bits[pos : pos + code_size] @ weights[:code_size])
        pos += code_size
        if code == clear:
            table = list(base)
            next_code = eoi + 1
            code_size = min_code_size + 1
            prev = None
            continue
        if code == eoi:
            break
        if code < next_code and code != eoi:
            entry = table[code]
        elif code == next_code and prev is not None:
            entry = prev + prev[:1]  # KwKwK
        else:
            raise ValueError(f"bad LZW code {code} (next={next_code})")
        out.extend(entry)
        if prev is not None and next_code < _GIF_MAX_CODE:
            table.append(prev + entry[:1])
            next_code += 1
            if next_code == (1 << code_size) and code_size < 12:
                code_size += 1
        prev = entry
    if len(out) < n_expected:
        raise ValueError(
            f"LZW stream ended early ({len(out)} of {n_expected} bytes)"
        )
    return bytes(out[:n_expected])


def encode_gif(img: np.ndarray, interlace: bool = False) -> bytes:
    """Real GIF89a writer for (h, w) grayscale rasters: 256-entry
    grayscale global color table (identity palette), real LZW-compressed
    index stream, optional 4-pass interlace."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim != 2:
        raise ValueError(f"GIF encoder takes (h, w) grayscale, got {img.shape}")
    h, w = img.shape
    # logical screen descriptor: GCT present, 8 bits/channel, 256 entries
    lsd = struct.pack("<HHBBB", w, h, 0xF7, 0, 0)
    gct = bytes(i for i in range(256) for _ in range(3))
    packed = 0x40 if interlace else 0x00
    idesc = struct.pack("<BHHHHB", 0x2C, 0, 0, w, h, packed)
    rows = img[_gif_interlace_rows(h)] if interlace else img
    lzw = _lzw_encode(rows.tobytes(), min_code_size=8)
    sub = b"".join(
        bytes([len(lzw[i : i + 255])]) + lzw[i : i + 255]
        for i in range(0, len(lzw), 255)
    )
    return b"GIF89a" + lsd + gct + idesc + bytes([8]) + sub + b"\x00\x3B"


def decode_gif(blob: bytes) -> np.ndarray:
    """Real GIF reader (87a/89a): first image block only, global or local
    color table, LZW decode, de-interlace.  Returns (h, w) uint8 when the
    palette is grayscale (r == g == b everywhere), else (h, w, 3) RGB.
    Malformed/truncated payloads raise ValueError (the malformed-media
    contract shared with the PNG/JPEG paths)."""
    try:
        return _decode_gif_inner(blob)
    except (IndexError, struct.error) as exc:
        raise ValueError(f"truncated or malformed GIF payload: {exc}") from exc


def _decode_gif_inner(blob: bytes) -> np.ndarray:
    return _decode_gif_stream(blob, first_only=True)[0]


def decode_gif_frames(blob: bytes) -> "list[np.ndarray]":
    """Decode EVERY frame of a (possibly animated) GIF, composing each
    image block onto the logical-screen canvas per the 89a animation
    model: frame placement at (left, top), graphic-control transparency
    (transparent indices leave the canvas untouched), and disposal
    methods 0/1 (leave) and 2 (restore the frame rect to the background
    color).  Returns one (sh, sw) gray or (sh, sw, 3) RGB array per
    frame — the real video-demux path behind the frame-sampling stage."""
    try:
        return _decode_gif_stream(blob, first_only=False)
    except (IndexError, struct.error) as exc:
        raise ValueError(f"truncated or malformed GIF payload: {exc}") from exc


def _decode_gif_stream(blob: bytes, first_only: bool) -> "list[np.ndarray]":
    if blob[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("not a GIF payload")
    sw, sh, flags, bg_idx, _ar = struct.unpack_from("<HHBBB", blob, 6)
    i = 13
    gct = None
    if flags & 0x80:
        n = 2 << (flags & 0x07)
        gct = np.frombuffer(blob, dtype=np.uint8, count=n * 3, offset=i).reshape(
            n, 3
        )
        i += n * 3
    # composition happens in RGB space so frames with DIFFERENT local
    # color tables (optimized animated GIFs) compose correctly
    frames: list[np.ndarray] = []
    canvas = None  # (sh, sw, 3) RGB canvas
    bg_rgb = (
        gct[bg_idx] if gct is not None and bg_idx < len(gct)
        else np.zeros(3, dtype=np.uint8)
    )
    transparent = -1
    disposal = 0
    while i < len(blob):
        b0 = blob[i]
        if b0 == 0x21:  # extension: label + sub-blocks
            label = blob[i + 1]
            i += 2
            if label == 0xF9 and blob[i] >= 4:  # graphic control
                packed, _delay, tidx = struct.unpack_from("<BHB", blob, i + 1)
                disposal = (packed >> 2) & 0x07
                transparent = tidx if packed & 0x01 else -1
            while blob[i]:
                i += 1 + blob[i]
            i += 1
        elif b0 == 0x2C:  # image descriptor
            fx, fy, w, h, ipacked = struct.unpack_from("<HHHHB", blob, i + 1)
            i += 10
            ct = gct
            if ipacked & 0x80:
                n = 2 << (ipacked & 0x07)
                ct = np.frombuffer(
                    blob, dtype=np.uint8, count=n * 3, offset=i
                ).reshape(n, 3)
                i += n * 3
            if ct is None:
                raise ValueError("GIF image has no color table")
            min_code_size = blob[i]
            i += 1
            chunks = []
            while blob[i]:
                size = blob[i]
                chunks.append(blob[i + 1 : i + 1 + size])
                i += 1 + size
            i += 1  # block terminator
            idx = np.frombuffer(
                _lzw_decode(b"".join(chunks), min_code_size, w * h),
                dtype=np.uint8,
            ).reshape(h, w)
            if ipacked & 0x40:
                out = np.empty_like(idx)
                out[_gif_interlace_rows(h)] = idx
                idx = out
            if first_only:
                return [_gif_collapse([ct[idx]])[0]]
            if canvas is None:
                canvas = np.broadcast_to(bg_rgb, (sh, sw, 3)).copy()
            saved = canvas[fy : fy + h, fx : fx + w].copy() if disposal == 3 else None
            rect = canvas[fy : fy + h, fx : fx + w]
            painted = ct[idx]
            if transparent >= 0:
                opaque = idx != transparent
                rect[opaque] = painted[opaque]
            else:
                rect[:] = painted
            frames.append(canvas.copy())
            if disposal == 2:  # restore frame rect to background
                canvas[fy : fy + h, fx : fx + w] = bg_rgb
            elif disposal == 3:  # restore to previous canvas content
                canvas[fy : fy + h, fx : fx + w] = saved
            disposal = 0
            transparent = -1
        elif b0 == 0x3B:
            break
        else:
            raise ValueError(f"bad GIF block 0x{b0:02x}")
    if not frames:
        raise ValueError("GIF contained no image block")
    return _gif_collapse(frames)


def _gif_collapse(frames: "list[np.ndarray]") -> "list[np.ndarray]":
    """Collapse RGB frames to (h, w) grayscale only when EVERY frame is
    grayscale, so one animation never mixes 2-D and 3-D frame shapes."""
    if all(
        np.array_equal(f[..., 0], f[..., 1]) and np.array_equal(f[..., 0], f[..., 2])
        for f in frames
    ):
        return [np.ascontiguousarray(f[..., 0]) for f in frames]
    return [np.ascontiguousarray(f) for f in frames]


def encode_gif_frames(
    frames: "list[np.ndarray]", delay_cs: int = 4, interlace: bool = False
) -> bytes:
    """Real ANIMATED GIF89a writer: every (h, w) grayscale frame becomes
    one full-canvas image block preceded by a graphic-control extension
    (disposal 1 = leave, ``delay_cs`` centiseconds), with a NETSCAPE2.0
    loop block — the standard web animation layout."""
    if not frames:
        raise ValueError("need at least one frame")
    h, w = frames[0].shape
    out = bytearray(b"GIF89a")
    out += struct.pack("<HHBBB", w, h, 0xF7, 0, 0)
    out += bytes(i for i in range(256) for _ in range(3))
    out += b"\x21\xff\x0bNETSCAPE2.0\x03\x01\x00\x00\x00"  # loop forever
    for fr in frames:
        fr = np.ascontiguousarray(fr, dtype=np.uint8)
        if fr.shape != (h, w):
            raise ValueError("animated GIF frames must share the canvas size")
        # GCE: introducer, label, size 4, packed (disposal 1 = leave),
        # delay, transparent index (unused), block terminator
        out += bytes([0x21, 0xF9, 0x04, 0x04]) + struct.pack("<H", delay_cs) + bytes([0, 0])
        out += struct.pack(
            "<BHHHHB", 0x2C, 0, 0, w, h, 0x40 if interlace else 0x00
        )
        rows = fr[_gif_interlace_rows(h)] if interlace else fr
        lzw = _lzw_encode(rows.tobytes(), min_code_size=8)
        out += bytes([8])
        for k in range(0, len(lzw), 255):
            out += bytes([len(lzw[k : k + 255])]) + lzw[k : k + 255]
        out += b"\x00"
    out += b"\x3b"
    return bytes(out)


# ---------------------------------------------------------------------------
# JPEG — shared entropy machinery (ITU T.81, public spec)
# ---------------------------------------------------------------------------

# standard zigzag scan order as (row, col) pairs: even diagonals run
# up-right (column-major within the diagonal), odd run down-left
_ZIGZAG = sorted(
    ((r, c) for r in range(8) for c in range(8)),
    key=lambda rc: (rc[0] + rc[1], rc[0] if (rc[0] + rc[1]) % 2 else rc[1]),
)
_ZZ_FLAT = np.array([r * 8 + c for r, c in _ZIGZAG], dtype=np.int64)

# Annex K quantization tables (luminance / chrominance)
_QT_LUMA = np.array(
    [
        16, 11, 10, 16, 24, 40, 51, 61,
        12, 12, 14, 19, 26, 58, 60, 55,
        14, 13, 16, 24, 40, 57, 69, 56,
        14, 17, 22, 29, 51, 87, 80, 62,
        18, 22, 37, 56, 68, 109, 103, 77,
        24, 35, 55, 64, 81, 104, 113, 92,
        49, 64, 78, 87, 103, 121, 120, 101,
        72, 92, 95, 98, 112, 100, 103, 99,
    ],
    dtype=np.int64,
).reshape(8, 8)
_QT_CHROMA = np.array(
    [
        17, 18, 24, 47, 99, 99, 99, 99,
        18, 21, 26, 66, 99, 99, 99, 99,
        24, 26, 56, 99, 99, 99, 99, 99,
        47, 66, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
    ],
    dtype=np.int64,
).reshape(8, 8)


def _quality_scale(table: np.ndarray, quality: int) -> np.ndarray:
    """libjpeg quality scaling: 50 keeps Annex K, 100 degenerates to
    all-ones (DCT-rounding-only loss)."""
    quality = min(100, max(1, int(quality)))
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    return np.clip((table * scale + 50) // 100, 1, 255).astype(np.int64)


# orthonormal 8-point DCT-II basis (separable 2-D transform by matmul)
_DCT_C = np.array(
    [
        [
            (np.sqrt(1.0 / 8) if u == 0 else np.sqrt(2.0 / 8))
            * np.cos((2 * x + 1) * u * np.pi / 16)
            for x in range(8)
        ]
        for u in range(8)
    ],
    dtype=np.float64,
)


def _fdct(blocks: np.ndarray) -> np.ndarray:
    """(n, 8, 8) level-shifted samples -> DCT coefficients."""
    return np.einsum("ux,nxy,vy->nuv", _DCT_C, blocks, _DCT_C, optimize=True)


def _idct(coefs: np.ndarray) -> np.ndarray:
    # B = C^T F C for the orthonormal basis: B_xy = sum_uv C_ux F_uv C_vy
    return np.einsum("ux,nuv,vy->nxy", _DCT_C, coefs, _DCT_C, optimize=True)


def _huff_code_lengths(freq_in: dict[int, int]) -> dict[int, int]:
    """Optimal length-limited (<=16) Huffman code lengths per T.81 Annex K.2
    (the libjpeg strategy): merge the two least-frequent trees repeatedly
    (ties broken toward the LARGEST symbol index, which pins the reserved
    symbol 256 to the deepest code), then Adjust_BITS folds any length
    beyond 16 and the deepest code slot (the all-ones code, held by the
    reserved symbol) is dropped."""
    freq = np.zeros(257, dtype=np.int64)
    for s, c in freq_in.items():
        freq[s] = c
    freq[256] = 1  # reserved: takes the all-ones deepest code, never emitted
    codesize = np.zeros(257, dtype=np.int64)
    others = np.full(257, -1, dtype=np.int64)
    while True:
        active = np.flatnonzero(freq > 0)
        if len(active) <= 1:
            break
        fa = freq[active]
        c1 = int(active[np.flatnonzero(fa == fa.min())[-1]])
        rest = active[active != c1]
        fr = freq[rest]
        c2 = int(rest[np.flatnonzero(fr == fr.min())[-1]])
        freq[c1] += freq[c2]
        freq[c2] = 0
        codesize[c1] += 1
        while others[c1] >= 0:
            c1 = int(others[c1])
            codesize[c1] += 1
        others[c1] = c2
        codesize[c2] += 1
        while others[c2] >= 0:
            c2 = int(others[c2])
            codesize[c2] += 1
    bits = np.zeros(60, dtype=np.int64)
    for size in codesize[codesize > 0]:
        bits[size] += 1
    for i in range(len(bits) - 1, 16, -1):  # Adjust_BITS
        while bits[i] > 0:
            j = i - 2
            while bits[j] == 0:
                j -= 1
            bits[i] -= 2
            bits[i - 1] += 1
            bits[j + 1] += 2
            bits[j] -= 1
    i = 16
    while bits[i] == 0:
        i -= 1
    bits[i] -= 1  # drop the deepest slot: the reserved all-ones code
    # symbols ordered by pre-adjust depth then index; reassign adjusted bits
    order = [
        int(s)
        for size in range(1, int(codesize.max()) + 1)
        for s in np.flatnonzero(codesize == size)
        if s != 256
    ]
    out: dict[int, int] = {}
    k = 0
    for length in range(1, 17):
        for _ in range(int(bits[length])):
            out[order[k]] = length
            k += 1
    assert k == len(order), "Huffman length assignment mismatch"
    return out


def _canonical_codes(lengths: dict[int, int]) -> dict[int, tuple[int, int]]:
    """{symbol: (code, nbits)} canonical assignment: ascending code length,
    ascending symbol value within a length (the DHT emission order)."""
    code = 0
    out: dict[int, tuple[int, int]] = {}
    for length in range(1, 17):
        for sym in sorted(s for s, l in lengths.items() if l == length):
            out[sym] = (code, length)
            code += 1
        code <<= 1
    return out


def _dht_segment(table_class: int, table_id: int, lengths: dict[int, int]) -> bytes:
    counts = [0] * 17
    for l in lengths.values():
        counts[l] += 1
    syms = bytes(
        s
        for length in range(1, 17)
        for s in sorted(s for s, l in lengths.items() if l == length)
    )
    body = bytes([table_class << 4 | table_id]) + bytes(counts[1:]) + syms
    return struct.pack(">HH", 0xFFC4, len(body) + 2) + body


class _BitWriter:
    """MSB-first entropy bit writer with JPEG 0xFF byte stuffing."""

    def __init__(self) -> None:
        self.buf = bytearray()
        self.acc = 0
        self.n = 0

    def write(self, value: int, nbits: int) -> None:
        if nbits == 0:
            return
        self.acc = (self.acc << nbits) | (value & ((1 << nbits) - 1))
        self.n += nbits
        while self.n >= 8:
            byte = (self.acc >> (self.n - 8)) & 0xFF
            self.n -= 8
            self.buf.append(byte)
            if byte == 0xFF:
                self.buf.append(0x00)
        self.acc &= (1 << self.n) - 1

    def flush(self) -> None:
        if self.n:
            self.write((1 << (8 - self.n)) - 1, 8 - self.n)


def _category(v: int) -> int:
    return int(v).bit_length() if v >= 0 else int(-v).bit_length()


def _extra_bits(v: int, s: int) -> int:
    return v if v >= 0 else v + (1 << s) - 1


class _BitReader:
    """MSB-first reader over an UNSTUFFED entropy segment."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.i = 0
        self.window = 0
        self.wbits = 0

    def _fill(self, n: int) -> None:
        while self.wbits < n:
            # past the end: pad with 1-bits (the spec's padding convention)
            byte = self.data[self.i] if self.i < len(self.data) else 0xFF
            self.i += 1
            self.window = (self.window << 8) | byte
            self.wbits += 8

    def peek(self, n: int) -> int:
        self._fill(n)
        return (self.window >> (self.wbits - n)) & ((1 << n) - 1)

    def skip(self, n: int) -> None:
        self.wbits -= n
        self.window &= (1 << self.wbits) - 1

    def read(self, n: int) -> int:
        v = self.peek(n)
        self.skip(n)
        return v


_PEEK_BITS = 16


def _decode_table(lengths_syms: list[tuple[int, int]]) -> list:
    """peek-16 lookup: index by the next 16 bits -> (symbol, code length).
    Built from the DHT (length, symbol) list via canonical assignment."""
    tbl = [None] * (1 << _PEEK_BITS)
    code = 0
    cur_len = 0
    for length, sym in lengths_syms:
        code <<= length - cur_len
        cur_len = length
        lo = code << (_PEEK_BITS - length)
        hi = lo + (1 << (_PEEK_BITS - length))
        tbl[lo:hi] = [(sym, length)] * (hi - lo)
        code += 1
    return tbl


def _read_symbol(reader: _BitReader, table: list) -> int:
    hit = table[reader.peek(_PEEK_BITS)]
    if hit is None:
        raise ValueError("invalid Huffman code in entropy stream")
    reader.skip(hit[1])
    return hit[0]


def _read_signed(reader: _BitReader, s: int) -> int:
    if s == 0:
        return 0
    v = reader.read(s)
    return v if v >= (1 << (s - 1)) else v - (1 << s) + 1


def _entropy_segments(blob: bytes, start: int) -> tuple[list[bytes], int]:
    """Split the entropy-coded data at ``start`` into unstuffed segments
    separated by RSTn markers; returns (segments, index of the terminating
    marker's 0xFF)."""
    segs = []
    cur = bytearray()
    i = start
    n = len(blob)
    while i < n:
        b = blob[i]
        if b != 0xFF:
            cur.append(b)
            i += 1
            continue
        m = blob[i + 1] if i + 1 < n else 0xD9
        if m == 0x00:
            cur.append(0xFF)
            i += 2
        elif 0xD0 <= m <= 0xD7:
            segs.append(bytes(cur))
            cur = bytearray()
            i += 2
        else:
            break
    segs.append(bytes(cur))
    return segs, i


# ---------------------------------------------------------------------------
# JPEG — baseline DCT (SOF0)
# ---------------------------------------------------------------------------


def _rgb_to_ycbcr(img: np.ndarray):
    r = img[..., 0].astype(np.float64)
    g = img[..., 1].astype(np.float64)
    b = img[..., 2].astype(np.float64)
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168735892 * r - 0.331264108 * g + 0.5 * b + 128.0
    cr = 0.5 * r - 0.418687589 * g - 0.081312411 * b + 128.0
    return y, cb, cr


def _ycbcr_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    r = y + 1.402 * (cr - 128.0)
    g = y - 0.344136286 * (cb - 128.0) - 0.714136286 * (cr - 128.0)
    b = y + 1.772 * (cb - 128.0)
    out = np.stack([r, g, b], axis=-1)
    return np.clip(np.round(out), 0, 255).astype(np.uint8)


def _edge_pad(plane: np.ndarray, ph: int, pw: int) -> np.ndarray:
    h, w = plane.shape
    return np.pad(plane, ((0, ph - h), (0, pw - w)), mode="edge")


def _box2(plane: np.ndarray) -> np.ndarray:
    """2x2 box-average downsample (edge-replicated to even dims first)."""
    h, w = plane.shape
    p = _edge_pad(plane, h + h % 2, w + w % 2)
    return (p[0::2, 0::2] + p[0::2, 1::2] + p[1::2, 0::2] + p[1::2, 1::2]) / 4.0


def _block_symbols(zz: np.ndarray, dc_pred: int):
    """One quantized 8x8 block in zigzag order -> (dc symbol/value pair,
    [(ac run-size symbol, extra value, extra bits)], new dc predictor)."""
    dc = int(zz[0])
    diff = dc - dc_pred
    s = _category(diff)
    dc_tok = (s, _extra_bits(diff, s))
    ac_toks = []
    run = 0
    nz = np.flatnonzero(zz[1:])
    for k in nz:
        k = int(k) + 1
        while k - 1 - run >= 16:
            ac_toks.append((0xF0, 0, 0))  # ZRL
            run += 16
        r = k - 1 - run
        v = int(zz[k])
        sz = _category(v)
        ac_toks.append((r << 4 | sz, _extra_bits(v, sz), sz))
        run = k
    if len(nz) == 0 or int(nz[-1]) + 1 < 63:
        ac_toks.append((0x00, 0, 0))  # EOB
    return dc_tok, ac_toks, dc


def _prepare_components(img: np.ndarray, quality: int, subsample: bool):
    """Shared encoder front half: color transform, sampling layout, FDCT,
    quantization.  Returns (gray, h, w, samp, qts, qids, hufids, comp_zz,
    mcu_w, mcu_h) with comp_zz[ci] of shape (by, bx, 64) in zigzag order."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    gray = img.ndim == 2
    if not gray and (img.ndim != 3 or img.shape[2] != 3):
        raise ValueError(f"JPEG needs (h,w) or (h,w,3), got {img.shape}")
    h, w = img.shape[:2]
    qt_l = _quality_scale(_QT_LUMA, quality)
    qt_c = _quality_scale(_QT_CHROMA, quality)
    if gray:
        planes = [img.astype(np.float64)]
        samp, qts, qids, hufids = [(1, 1)], [qt_l], [0], [(0, 0)]
    else:
        y, cb, cr = _rgb_to_ycbcr(img)
        if subsample:
            planes = [y, _box2(cb), _box2(cr)]
            samp = [(2, 2), (1, 1), (1, 1)]
        else:
            planes = [y, cb, cr]
            samp = [(1, 1), (1, 1), (1, 1)]
        qts, qids = [qt_l, qt_c, qt_c], [0, 1, 1]
        hufids = [(0, 0), (1, 1), (1, 1)]
    max_h = max(s[0] for s in samp)
    max_v = max(s[1] for s in samp)
    mcu_w = -(-w // (8 * max_h))
    mcu_h = -(-h // (8 * max_v))

    comp_zz = []  # per component: (by, bx, 64) zigzag quantized coefs
    for plane, (hi, vi), qt in zip(planes, samp, qts):
        ph, pw = mcu_h * 8 * vi, mcu_w * 8 * hi
        p = _edge_pad(plane, ph, pw)
        blocks = (
            p.reshape(ph // 8, 8, pw // 8, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)
        )
        q = np.round(_fdct(blocks - 128.0) / qt).astype(np.int64)
        comp_zz.append(
            q.reshape(-1, 64)[:, _ZZ_FLAT].reshape(ph // 8, pw // 8, 64)
        )
    return gray, h, w, samp, qts, qids, hufids, comp_zz, mcu_w, mcu_h


def _frame_headers(
    marker: int, gray: bool, h: int, w: int, samp, qts, qids
) -> bytes:
    """SOI + JFIF APP0 + DQT + SOFn header bytes shared by the sequential
    and progressive encoders."""
    out = bytearray(b"\xff\xd8")
    out += (
        struct.pack(">HH", 0xFFE0, 16)
        + b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
    )
    emitted = []
    for tq, qt in ((q, t) for q, t in zip(qids, qts)):
        if tq in emitted:
            continue
        emitted.append(tq)
        body = bytes([tq]) + bytes(int(x) for x in qt.reshape(-1)[_ZZ_FLAT])
        out += struct.pack(">HH", 0xFFDB, len(body) + 2) + body
    sof = struct.pack(">BHHB", 8, h, w, len(samp))
    for ci, ((hi, vi), qid) in enumerate(zip(samp, qids)):
        sof += bytes([ci + 1, hi << 4 | vi, qid])
    out += struct.pack(">HH", marker, len(sof) + 2) + sof
    return bytes(out)


def encode_jpeg(
    img: np.ndarray,
    quality: int = 90,
    subsample: bool = False,
    restart_interval: int = 0,
) -> bytes:
    """Real baseline JPEG writer (ITU T.81 SOF0): grayscale (h, w) or RGB
    (h, w, 3); YCbCr 4:4:4 or (``subsample=True``) 4:2:0 with box-averaged
    chroma; Annex K quantization scaled by libjpeg ``quality``; per-image
    optimal Huffman tables emitted in DHT; optional DRI/RSTn restart
    markers; 0xFF byte stuffing."""
    (gray, h, w, samp, qts, qids, hufids, comp_zz, mcu_w, mcu_h) = (
        _prepare_components(img, quality, subsample)
    )

    # MCU-ordered token pass (DC prediction + restart resets), then build
    # optimal tables from the token frequencies, then the bit pass
    n_tables = 1 if gray else 2
    dc_freq = [dict() for _ in range(n_tables)]
    ac_freq = [dict() for _ in range(n_tables)]
    mcu_tokens = []  # (table_id, dc_tok, ac_toks) per block, MCU order
    dc_pred = [0] * len(samp)
    mcu_idx = 0
    restarts = []  # block-token indices where a restart marker lands
    for my in range(mcu_h):
        for mx in range(mcu_w):
            if restart_interval and mcu_idx and mcu_idx % restart_interval == 0:
                restarts.append(len(mcu_tokens))
                dc_pred = [0] * len(samp)
            mcu_idx += 1
            for ci, (hi, vi) in enumerate(samp):
                tid = hufids[ci][0]
                for by in range(vi):
                    for bx in range(hi):
                        zz = comp_zz[ci][my * vi + by, mx * hi + bx]
                        dc_tok, ac_toks, dc_pred[ci] = _block_symbols(
                            zz, dc_pred[ci]
                        )
                        mcu_tokens.append((tid, dc_tok, ac_toks))
                        dc_freq[tid][dc_tok[0]] = dc_freq[tid].get(dc_tok[0], 0) + 1
                        for sym, _v, _n in ac_toks:
                            ac_freq[tid][sym] = ac_freq[tid].get(sym, 0) + 1

    dc_lengths = [_huff_code_lengths(f) for f in dc_freq]
    ac_lengths = [_huff_code_lengths(f) for f in ac_freq]
    dc_codes = [_canonical_codes(x) for x in dc_lengths]
    ac_codes = [_canonical_codes(x) for x in ac_lengths]

    wtr = _BitWriter()
    restart_set = set(restarts)
    n_rst = 0
    for bi, (tid, (ds, dv), ac_toks) in enumerate(mcu_tokens):
        if bi in restart_set:
            wtr.flush()
            wtr.buf += struct.pack(">H", 0xFFD0 + n_rst % 8)
            n_rst += 1
        code, nb = dc_codes[tid][ds]
        wtr.write(code, nb)
        wtr.write(dv, ds)
        for sym, v, nbits in ac_toks:
            code, nb = ac_codes[tid][sym]
            wtr.write(code, nb)
            wtr.write(v, nbits)
    wtr.flush()

    out = bytearray(_frame_headers(0xFFC0, gray, h, w, samp, qts, qids))
    for tid in range(n_tables):
        out += _dht_segment(0, tid, dc_lengths[tid])
        out += _dht_segment(1, tid, ac_lengths[tid])
    if restart_interval:
        out += struct.pack(">HHH", 0xFFDD, 4, restart_interval)
    sos = bytes([len(samp)])
    for ci in range(len(samp)):
        sos += bytes([ci + 1, hufids[ci][0] << 4 | hufids[ci][1]])
    sos += bytes([0, 63, 0])
    out += struct.pack(">HH", 0xFFDA, len(sos) + 2) + sos
    out += wtr.buf
    out += b"\xff\xd9"  # EOI
    return bytes(out)


def _planes_from_coefs(frame, qts, coefs) -> np.ndarray:
    """Dequantize + IDCT the per-component coefficient arrays and compose
    the output image (shared by the sequential and progressive paths)."""
    prec, fh, fw, comps = frame
    max_h = max(c[1] for c in comps)
    max_v = max(c[2] for c in comps)
    planes = []
    for (cid, hi, vi, tq), zz in zip(comps, coefs):
        qt = qts[tq]
        nby, nbx = zz.shape[:2]
        nat = np.zeros((nby * nbx, 64), dtype=np.float64)
        nat[:, _ZZ_FLAT] = zz.reshape(-1, 64)
        deq = nat.reshape(-1, 8, 8) * qt
        px = _idct(deq) + 128.0
        plane = (
            px.reshape(nby, nbx, 8, 8).transpose(0, 2, 1, 3).reshape(nby * 8, nbx * 8)
        )
        ch = -(-fh * vi // max_v)
        cw = -(-fw * hi // max_h)
        plane = plane[:ch, :cw]
        plane = np.repeat(np.repeat(plane, max_v // vi, axis=0), max_h // hi, axis=1)
        planes.append(plane[:fh, :fw])
    if len(planes) == 1:
        return np.clip(np.round(planes[0]), 0, 255).astype(np.uint8)
    if len(planes) == 3:
        return _ycbcr_to_rgb(*planes)
    raise NotImplementedError(f"{len(planes)}-component JPEG not supported")


def _decode_baseline_scan(frame, scomp, qts, dc_raw, ac_raw, segs, ri):
    prec, fh, fw, comps = frame
    if prec != 8:
        raise NotImplementedError(f"{prec}-bit baseline JPEG not supported")
    cfg = []
    for cs, td, ta in scomp:
        match = [c for c in comps if c[0] == cs]
        if not match:
            raise ValueError(f"scan references unknown component id {cs}")
        cid, hi, vi, tq = match[0]
        cfg.append((hi, vi, qts[tq], _decode_table(dc_raw[td]), _decode_table(ac_raw[ta])))
    max_h = max(c[0] for c in cfg)
    max_v = max(c[1] for c in cfg)
    mcu_w = -(-fw // (8 * max_h))
    mcu_h = -(-fh // (8 * max_v))
    coefs = [
        np.zeros((mcu_h * vi, mcu_w * hi, 64), dtype=np.int64)
        for hi, vi, _q, _d, _a in cfg
    ]
    dc_pred = [0] * len(cfg)
    seg_idx = 0
    rd = _BitReader(segs[0])
    mcu_idx = 0
    for my in range(mcu_h):
        for mx in range(mcu_w):
            if ri and mcu_idx and mcu_idx % ri == 0:
                seg_idx += 1
                rd = _BitReader(segs[seg_idx])
                dc_pred = [0] * len(cfg)
            mcu_idx += 1
            for ci, (hi, vi, _qt, dct, act) in enumerate(cfg):
                for by in range(vi):
                    for bx in range(hi):
                        zz = coefs[ci][my * vi + by, mx * hi + bx]
                        s = _read_symbol(rd, dct)
                        dc_pred[ci] += _read_signed(rd, s)
                        zz[0] = dc_pred[ci]
                        k = 1
                        while k < 64:
                            sym = _read_symbol(rd, act)
                            if sym == 0x00:  # EOB
                                break
                            run, size = sym >> 4, sym & 0x0F
                            if size == 0:
                                if run != 15:
                                    raise ValueError(f"bad AC symbol {sym:#x}")
                                k += 16  # ZRL
                                continue
                            k += run
                            if k > 63:
                                raise ValueError("AC run past block end")
                            zz[k] = _read_signed(rd, size)
                            k += 1

    # order the coefficient arrays by FRAME component order for finishing;
    # a scan covering only a subset of frame components is the multi-scan
    # sequential layout this single-scan decoder does not implement
    scan_pos = {cs: si for si, (cs, _t, _a) in enumerate(scomp)}
    missing = [cid for cid, _h, _v, _t in comps if cid not in scan_pos]
    if missing:
        raise NotImplementedError(
            f"multi-scan sequential JPEG not supported (components {missing} "
            "not in the first scan)"
        )
    by_frame = [coefs[scan_pos[cid]] for cid, _hi, _vi, _tq in comps]
    return _planes_from_coefs(frame, qts, by_frame)


def _decode_lossless_scan(frame, scomp, predictor, dc_raw, segs, ri):
    prec, fh, fw, comps = frame
    if prec != 8:
        raise NotImplementedError(f"{prec}-bit lossless JPEG not supported")
    if len(comps) != 1 or len(scomp) != 1:
        raise NotImplementedError("multi-component lossless JPEG not supported")
    if predictor not in (1, 2):
        raise NotImplementedError(f"lossless predictor {predictor} not supported")
    if ri:
        raise NotImplementedError("restart markers in lossless scans not supported")
    tbl = _decode_table(dc_raw[scomp[0][1]])
    rd = _BitReader(segs[0])
    n = fh * fw
    diffs = np.empty(n, dtype=np.int64)
    read_symbol, read_signed = _read_symbol, _read_signed
    for k in range(n):
        s = read_symbol(rd, tbl)
        if s == 16:
            raise NotImplementedError("category-16 diff needs 16-bit precision")
        diffs[k] = read_signed(rd, s)
    d = diffs.reshape(fh, fw)
    if predictor == 1:  # Ra (left); first column Rb; first sample 2^(P-1)
        col0 = 128 + np.cumsum(d[:, 0])
        x = np.concatenate([col0[:, None], d[:, 1:]], axis=1).cumsum(axis=1)
    else:  # Rb (above); first line Ra per H.1.2
        row0 = 128 + np.cumsum(d[0])
        x = np.concatenate([row0[None, :], d[1:]], axis=0).cumsum(axis=0)
    return x.astype(np.uint8)


def decode_jpeg(blob: bytes) -> np.ndarray:
    """Real JPEG reader: baseline sequential DCT (SOF0/SOF1) in grayscale
    or YCbCr with per-component sampling factors and restart markers,
    PROGRESSIVE DCT (SOF2: spectral selection + successive approximation,
    multi-scan), and single-component 8-bit lossless (SOF3, predictors
    1-2).  Arithmetic-coded / hierarchical processes raise
    ``NotImplementedError``; malformed/truncated payloads raise
    ValueError."""
    try:
        return _decode_jpeg_inner(blob)
    except (IndexError, struct.error) as exc:
        raise ValueError(f"truncated or malformed JPEG payload: {exc}") from exc


def _decode_jpeg_inner(blob: bytes) -> np.ndarray:
    if blob[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG payload (no SOI)")
    i = 2
    qts: dict[int, np.ndarray] = {}
    dc_raw: dict[int, list] = {}
    ac_raw: dict[int, list] = {}
    frame = None
    lossless = False
    progressive = False
    prog_state = None
    restart_interval = 0
    n = len(blob)
    while i + 1 < n:
        if blob[i] != 0xFF:
            raise ValueError(f"expected marker at {i}, got {blob[i]:#x}")
        m = blob[i + 1]
        i += 2
        while m == 0xFF and i < n:  # fill bytes
            m = blob[i]
            i += 1
        if m in (0x01, 0xD8) or 0xD0 <= m <= 0xD7:
            continue  # TEM / SOI / stray RST: no payload
        if m == 0xD9:
            break
        (length,) = struct.unpack_from(">H", blob, i)
        body = blob[i + 2 : i + length]
        i += length
        if m == 0xDB:  # DQT (may hold several tables)
            j = 0
            while j < len(body):
                pq, tq = body[j] >> 4, body[j] & 0x0F
                if pq:
                    raise NotImplementedError("16-bit quantization tables")
                vals = np.frombuffer(body, np.uint8, 64, j + 1).astype(np.int64)
                qt = np.zeros(64, dtype=np.int64)
                qt[_ZZ_FLAT] = vals
                qts[tq] = qt.reshape(8, 8)
                j += 65
        elif m == 0xC4:  # DHT (may hold several tables)
            j = 0
            while j < len(body):
                tc, th = body[j] >> 4, body[j] & 0x0F
                counts = body[j + 1 : j + 17]
                j += 17
                ls = []
                for ln in range(1, 17):
                    for _ in range(counts[ln - 1]):
                        ls.append((ln, body[j]))
                        j += 1
                (dc_raw if tc == 0 else ac_raw)[th] = ls
        elif m in (0xC0, 0xC1, 0xC2, 0xC3):  # baseline / progressive / lossless
            lossless = m == 0xC3
            progressive = m == 0xC2
            prec, fh, fw, nc = struct.unpack_from(">BHHB", body, 0)
            comps = [
                (body[6 + 3 * c], body[7 + 3 * c] >> 4, body[7 + 3 * c] & 0x0F,
                 body[8 + 3 * c])
                for c in range(nc)
            ]
            frame = (prec, fh, fw, comps)
            if progressive:
                if prec != 8:
                    raise NotImplementedError("progressive JPEG needs 8-bit precision here")
                prog_state = _ProgState(frame)
        elif m in (0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise NotImplementedError(f"JPEG process SOF{m - 0xC0} not supported")
        elif m == 0xDD:
            (restart_interval,) = struct.unpack(">H", body)
        elif m == 0xDA:  # SOS: entropy data follows
            if frame is None:
                raise ValueError("SOS before SOF")
            ns = body[0]
            scomp = [
                (body[1 + 2 * c], body[2 + 2 * c] >> 4, body[2 + 2 * c] & 0x0F)
                for c in range(ns)
            ]
            ss = body[1 + 2 * ns]
            se = body[2 + 2 * ns]
            ahal = body[3 + 2 * ns]
            segs, i = _entropy_segments(blob, i)
            if progressive:
                _decode_prog_scan(
                    prog_state, frame, scomp, ss, se, ahal >> 4, ahal & 0x0F,
                    dc_raw, ac_raw, segs, restart_interval,
                )
                continue  # accumulate scans until EOI
            if lossless:
                return _decode_lossless_scan(
                    frame, scomp, ss, dc_raw, segs, restart_interval
                )
            return _decode_baseline_scan(
                frame, scomp, qts, dc_raw, ac_raw, segs, restart_interval
            )
        # else: APPn / COM / DNL — skipped via the length field
    if progressive and frame is not None:
        return _planes_from_coefs(frame, qts, prog_state.coefs)
    raise ValueError("JPEG contained no scan")


# ---------------------------------------------------------------------------
# JPEG — lossless (SOF3, process 14)
# ---------------------------------------------------------------------------


def encode_jpeg_lossless(img: np.ndarray, predictor: int = 1) -> bytes:
    """Real lossless JPEG writer (ITU T.81 process 14, SOF3): 8-bit
    single-component spatial DPCM, predictor 1 (Ra) or 2 (Rb), optimal
    SSSS-category Huffman table, 0xFF stuffing.  Bit-exact: decode_jpeg
    returns the input raster unchanged."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim != 2:
        raise ValueError(f"lossless JPEG takes (h, w) grayscale, got {img.shape}")
    if predictor not in (1, 2):
        raise NotImplementedError(f"encode predictor {predictor} not supported")
    h, w = img.shape
    x = img.astype(np.int64)
    d = np.empty((h, w), dtype=np.int64)
    if predictor == 1:
        d[:, 1:] = x[:, 1:] - x[:, :-1]
        d[0, 0] = x[0, 0] - 128
        d[1:, 0] = x[1:, 0] - x[:-1, 0]
    else:
        d[1:] = x[1:] - x[:-1]
        d[0, 0] = x[0, 0] - 128
        d[0, 1:] = x[0, 1:] - x[0, :-1]
    flat = d.reshape(-1)
    mags = np.abs(flat)
    cats = np.zeros(len(flat), dtype=np.int64)
    nz = mags > 0
    cats[nz] = np.floor(np.log2(mags[nz])).astype(np.int64) + 1
    freqs = {int(c): int(n) for c, n in zip(*np.unique(cats, return_counts=True))}
    lengths = _huff_code_lengths(freqs)
    codes = _canonical_codes(lengths)
    wtr = _BitWriter()
    for v, s in zip(flat.tolist(), cats.tolist()):
        code, nb = codes[s]
        wtr.write(code, nb)
        if s:
            wtr.write(_extra_bits(v, s), s)
    wtr.flush()

    out = bytearray(b"\xff\xd8")
    sof = struct.pack(">BHHB", 8, h, w, 1) + bytes([1, 0x11, 0])
    out += struct.pack(">HH", 0xFFC3, len(sof) + 2) + sof
    out += _dht_segment(0, 0, lengths)
    sos = bytes([1, 1, 0x00, predictor, 0, 0])
    out += struct.pack(">HH", 0xFFDA, len(sos) + 2) + sos
    out += wtr.buf
    out += b"\xff\xd9"
    return bytes(out)


# ---------------------------------------------------------------------------
# JPEG — progressive DCT (SOF2)
# ---------------------------------------------------------------------------


class _ProgState:
    """Per-frame coefficient accumulator for a progressive decode: one
    mcu-padded (by, bx, 64) int64 array per frame component, plus the
    AC end-of-band run counter that spans blocks within a scan."""

    def __init__(self, frame):
        prec, fh, fw, comps = frame
        self.max_h = max(c[1] for c in comps)
        self.max_v = max(c[2] for c in comps)
        self.mcu_w = -(-fw // (8 * self.max_h))
        self.mcu_h = -(-fh // (8 * self.max_v))
        self.coefs = [
            np.zeros((self.mcu_h * vi, self.mcu_w * hi, 64), dtype=np.int64)
            for _cid, hi, vi, _tq in comps
        ]

    def comp_grid(self, frame, ci) -> tuple[int, int]:
        """Block grid of component ci for a NON-interleaved scan:
        ceil(component sample dims / 8), not the mcu-padded grid."""
        prec, fh, fw, comps = frame
        _cid, hi, vi, _tq = comps[ci]
        ch = -(-fh * vi // self.max_v)
        cw = -(-fw * hi // self.max_h)
        return -(-ch // 8), -(-cw // 8)


def _prog_refine_ac(rd, act, zz, ss, se, al, eobrun):
    """AC successive-approximation refinement for ONE block (T.81 G.1.2.3 /
    the libjpeg decode_mcu_AC_refine control flow)."""
    p1 = 1 << al
    m1 = -1 << al
    k = ss
    if eobrun == 0:
        while k <= se:
            sym = _read_symbol(rd, act)
            r, s = sym >> 4, sym & 0x0F
            val = 0
            if s == 0:
                if r != 15:
                    # NB: counts the CURRENT block too — the correction
                    # tail below must still run for it (then decrements)
                    eobrun = 1 << r
                    if r:
                        eobrun += rd.read(r)
                    break
                # ZRL: pass 16 zero-history coefficients
            else:
                if s != 1:
                    raise ValueError("bad refinement symbol size")
                val = p1 if rd.read(1) else m1
            while k <= se:
                if zz[k] != 0:
                    if rd.read(1) and (zz[k] & p1) == 0:
                        zz[k] += p1 if zz[k] >= 0 else m1
                else:
                    if r == 0:
                        break
                    r -= 1
                k += 1
            if s:
                zz[k] = val
            k += 1
    if eobrun > 0:
        while k <= se:
            if zz[k] != 0:
                if rd.read(1) and (zz[k] & p1) == 0:
                    zz[k] += p1 if zz[k] >= 0 else m1
            k += 1
        eobrun -= 1
    return eobrun


def _prog_first_ac(rd, act, zz, ss, se, al, eobrun):
    """AC first-pass (Ah == 0) for one block, with end-of-band runs."""
    if eobrun > 0:
        return eobrun - 1
    k = ss
    while k <= se:
        sym = _read_symbol(rd, act)
        r, s = sym >> 4, sym & 0x0F
        if s == 0:
            if r == 15:
                k += 16  # ZRL
                continue
            eobrun = (1 << r) - 1
            if r:
                eobrun += rd.read(r)
            break
        k += r
        if k > se:
            raise ValueError("AC run past spectral band end")
        zz[k] = _read_signed(rd, s) << al
        k += 1
    return eobrun


def _decode_prog_scan(state, frame, scomp, ss, se, ah, al, dc_raw, ac_raw, segs, ri):
    prec, fh, fw, comps = frame
    pos = {c[0]: j for j, c in enumerate(comps)}
    for cs, _t, _a in scomp:
        if cs not in pos:
            raise ValueError(f"scan references unknown component id {cs}")
    idxs = [pos[cs] for cs, _t, _a in scomp]
    seg_idx = 0
    rd = _BitReader(segs[0])
    if ss == 0:  # DC scan (interleaved over scan comps, or single)
        if se != 0:
            raise ValueError("DC scan with Se != 0")
        tables = (
            {j: _decode_table(dc_raw[td]) for (cs, td, ta), j in zip(scomp, idxs)}
            if ah == 0
            else None
        )
        pred = {j: 0 for j in idxs}
        unit_idx = 0
        # T.81 A.2: a scan is interleaved only when it lists >1 component;
        # an Ns=1 scan uses the component's own ceil(dims/8) grid in
        # raster order, sampling factors ignored (even in a 1-comp frame
        # the grids coincide, so this branch is also the 1-comp path)
        if len(scomp) > 1:
            mcu_iter = (
                (my, mx)
                for my in range(state.mcu_h)
                for mx in range(state.mcu_w)
            )
            for my, mx in mcu_iter:
                if ri and unit_idx and unit_idx % ri == 0:
                    seg_idx += 1
                    rd = _BitReader(segs[seg_idx])
                    pred = {j: 0 for j in idxs}
                unit_idx += 1
                for j in idxs:
                    _cid, hi, vi, _tq = comps[j]
                    for by in range(vi):
                        for bx in range(hi):
                            zz = state.coefs[j][my * vi + by, mx * hi + bx]
                            if ah == 0:
                                s = _read_symbol(rd, tables[j])
                                pred[j] += _read_signed(rd, s)
                                zz[0] = pred[j] << al
                            else:
                                if rd.read(1):
                                    zz[0] |= 1 << al
        else:  # single-component DC scan in a multi-component frame
            j = idxs[0]
            nby, nbx = state.comp_grid(frame, j)
            for by in range(nby):
                for bx in range(nbx):
                    if ri and unit_idx and unit_idx % ri == 0:
                        seg_idx += 1
                        rd = _BitReader(segs[seg_idx])
                        pred = {j: 0}
                    unit_idx += 1
                    zz = state.coefs[j][by, bx]
                    if ah == 0:
                        s = _read_symbol(rd, tables[j])
                        pred[j] += _read_signed(rd, s)
                        zz[0] = pred[j] << al
                    else:
                        if rd.read(1):
                            zz[0] |= 1 << al
        return
    # AC scan: spec requires exactly one component
    if len(scomp) != 1:
        raise ValueError("progressive AC scan must be single-component")
    j = idxs[0]
    act = _decode_table(ac_raw[scomp[0][2]])
    nby, nbx = state.comp_grid(frame, j)
    eobrun = 0
    unit_idx = 0
    for by in range(nby):
        for bx in range(nbx):
            if ri and unit_idx and unit_idx % ri == 0:
                seg_idx += 1
                rd = _BitReader(segs[seg_idx])
                eobrun = 0
            unit_idx += 1
            zz = state.coefs[j][by, bx]
            if ah == 0:
                eobrun = _prog_first_ac(rd, act, zz, ss, se, al, eobrun)
            else:
                eobrun = _prog_refine_ac(rd, act, zz, ss, se, al, eobrun)


# -- progressive encoder ----------------------------------------------------


def _scan_header(scomps: list[tuple[int, int, int]], ss: int, se: int, ah: int, al: int) -> bytes:
    sos = bytes([len(scomps)])
    for cid, td, ta in scomps:
        sos += bytes([cid, td << 4 | ta])
    sos += bytes([ss, se, ah << 4 | al])
    return struct.pack(">HH", 0xFFDA, len(sos) + 2) + sos


def _ac_first_tokens(blocks, al: int):
    """Symbol stream for an AC first scan (Ah=0): (sym, extra, nbits)
    triples with cross-block end-of-band runs."""
    toks = []
    eobrun = 0

    def flush_eob():
        nonlocal eobrun
        if eobrun:
            r = eobrun.bit_length() - 1
            toks.append((r << 4, eobrun - (1 << r), r))
            eobrun = 0

    for zz in blocks:
        t = zz[1:64]
        tv = np.where(t >= 0, t >> al, -((-t) >> al))
        nz = np.flatnonzero(tv)
        if len(nz) == 0:
            eobrun += 1
            if eobrun == 0x7FFF:
                flush_eob()
            continue
        flush_eob()
        run = 0
        for k in nz:
            k = int(k)
            while k - run >= 16:
                toks.append((0xF0, 0, 0))
                run += 16
            v = int(tv[k])
            s = _category(v)
            toks.append(((k - run) << 4 | s, _extra_bits(v, s), s))
            run = k + 1
        if int(nz[-1]) < 62:
            eobrun += 1
            if eobrun == 0x7FFF:
                flush_eob()
    flush_eob()
    return toks


def _ac_refine_tokens(blocks, al: int):
    """Symbol stream for an AC refinement scan (Ah = al + 1): tokens are
    (sym, extra, nbits, correction_bits) — the libjpeg
    encode_mcu_AC_refine control flow."""
    toks = []
    eobrun = 0
    pending: list[int] = []

    def flush_eob():
        nonlocal eobrun, pending
        if eobrun:
            r = eobrun.bit_length() - 1
            toks.append((r << 4, eobrun - (1 << r), r, pending))
            eobrun = 0
            pending = []

    for zz in blocks:
        t = zz[1:64]
        tv = np.where(t >= 0, t >> al, -((-t) >> al))
        ab = np.abs(tv)
        newly = np.flatnonzero(ab == 1)
        eob = int(newly[-1]) + 1 if len(newly) else 0
        r = 0
        br: list[int] = []
        block_toks = []
        for k in range(63):
            a = int(ab[k])
            if a == 0:
                r += 1
                continue
            while r > 15 and k < eob:
                block_toks.append((0xF0, 0, 0, br))
                br = []
                r -= 16
            if a > 1:
                br.append(a & 1)
                continue
            block_toks.append(((r << 4) | 1, 1 if tv[k] > 0 else 0, 1, br))
            br = []
            r = 0
        if block_toks:
            flush_eob()
            toks.extend(block_toks)
        if r > 0 or br:
            eobrun += 1
            pending.extend(br)
            if eobrun == 0x7FFF:
                flush_eob()
    flush_eob()
    return toks


def encode_jpeg_progressive(
    img: np.ndarray, quality: int = 90, subsample: bool = False
) -> bytes:
    """Real progressive JPEG writer (ITU T.81 SOF2) with a 4-phase scan
    script exercising every progressive scan type: interleaved DC first
    pass (Al=1), per-component AC first passes (spectral band 1-63, Al=1,
    cross-block EOB runs), DC successive-approximation refinement (raw
    bits), and per-component AC refinements (correction bits).  Fully
    refined to Al=0, so the decoded image is bit-identical to the
    sequential encoding of the same (img, quality, subsample)."""
    (gray, h, w, samp, qts, qids, hufids, comp_zz, mcu_w, mcu_h) = (
        _prepare_components(img, quality, subsample)
    )
    out = bytearray(_frame_headers(0xFFC2, gray, h, w, samp, qts, qids))
    n_comp = len(samp)

    def comp_blocks(ci):
        hi, vi = samp[ci]
        max_h = max(s[0] for s in samp)
        max_v = max(s[1] for s in samp)
        nby = -(-(-(-h * vi // max_v)) // 8)
        nbx = -(-(-(-w * hi // max_h)) // 8)
        return [comp_zz[ci][by, bx] for by in range(nby) for bx in range(nbx)]

    # scan 1: DC first pass, interleaved, Al=1 (arithmetic shift per spec)
    pred = [0] * n_comp
    order = []
    for my in range(mcu_h):
        for mx in range(mcu_w):
            for ci, (hi, vi) in enumerate(samp):
                for by in range(vi):
                    for bx in range(hi):
                        dc_t = int(comp_zz[ci][my * vi + by, mx * hi + bx][0]) >> 1
                        diff = dc_t - pred[ci]
                        pred[ci] = dc_t
                        s = _category(diff)
                        tid = hufids[ci][0]
                        order.append((tid, (s, _extra_bits(diff, s), s)))
    freq = [dict() for _ in range(1 if gray else 2)]
    for tid, (s, _v, _n) in order:
        freq[tid][s] = freq[tid].get(s, 0) + 1
    dc_lengths = [_huff_code_lengths(f) if f else None for f in freq]
    for tid, ls in enumerate(dc_lengths):
        if ls is not None:
            out += _dht_segment(0, tid, ls)
    dc_codes = [(_canonical_codes(ls) if ls else None) for ls in dc_lengths]
    out += _scan_header([(ci + 1, hufids[ci][0], 0) for ci in range(n_comp)], 0, 0, 0, 1)
    wtr = _BitWriter()
    for tid, (s, v, n) in order:
        code, nb = dc_codes[tid][s]
        wtr.write(code, nb)
        wtr.write(v, n)
    wtr.flush()
    out += wtr.buf

    # scans 2..: AC first pass per component, band 1-63, Al=1
    for ci in range(n_comp):
        toks = _ac_first_tokens(comp_blocks(ci), 1)
        hdr = _scan_header([(ci + 1, 0, hufids[ci][1])], 1, 63, 0, 1)
        out += _emit_huffman_scan_with_header(toks, 1, hufids[ci][1], hdr)

    # DC refinement: Ah=1 -> one raw bit per block, no Huffman table
    out += _scan_header([(ci + 1, 0, 0) for ci in range(n_comp)], 0, 0, 1, 0)
    wtr = _BitWriter()
    for my in range(mcu_h):
        for mx in range(mcu_w):
            for ci, (hi, vi) in enumerate(samp):
                for by in range(vi):
                    for bx in range(hi):
                        wtr.write(int(comp_zz[ci][my * vi + by, mx * hi + bx][0]) & 1, 1)
    wtr.flush()
    out += wtr.buf

    # AC refinement per component: Ah=1, Al=0
    for ci in range(n_comp):
        toks = _ac_refine_tokens(comp_blocks(ci), 0)
        hdr = _scan_header([(ci + 1, 0, hufids[ci][1])], 1, 63, 1, 0)
        out += _emit_huffman_scan_with_header(toks, 1, hufids[ci][1], hdr)

    out += b"\xff\xd9"
    return bytes(out)


def _emit_huffman_scan_with_header(toks, table_class, table_id, scan_header: bytes) -> bytes:
    """DHT (from token stats) + SOS header + entropy bits, in marker order."""
    freq: dict[int, int] = {}
    for tok in toks:
        freq[tok[0]] = freq.get(tok[0], 0) + 1
    if not freq:
        freq = {0x00: 1}  # degenerate scan: emit a table for EOB only
        toks = []
    lengths = _huff_code_lengths(freq)
    codes = _canonical_codes(lengths)
    wtr = _BitWriter()
    for tok in toks:
        code, nb = codes[tok[0]]
        wtr.write(code, nb)
        wtr.write(tok[1], tok[2])
        if len(tok) > 3:
            for bit in tok[3]:
                wtr.write(bit, 1)
    wtr.flush()
    return _dht_segment(table_class, table_id, lengths) + scan_header + bytes(wtr.buf)


# ---------------------------------------------------------------------------
# G.711 companded audio (A-law / mu-law) — the telephone-audio WAV formats
# ---------------------------------------------------------------------------


def _ulaw_decode_lut() -> np.ndarray:
    """mu-law byte -> 16-bit linear PCM (ITU G.711 / Sun libaudio
    expansion formula), all 256 codes."""
    u = ~np.arange(256, dtype=np.int64) & 0xFF
    t = (((u & 0x0F) << 3) + 0x84) << ((u & 0x70) >> 4)
    return np.where(u & 0x80, 0x84 - t, t - 0x84).astype(np.int64)


def _alaw_decode_lut() -> np.ndarray:
    """A-law byte -> 16-bit linear PCM (G.711 expansion), all 256 codes."""
    a = np.arange(256, dtype=np.int64) ^ 0x55
    mant = (a & 0x0F) << 4
    seg = (a & 0x70) >> 4
    t = np.where(seg == 0, mant + 8, (mant + 0x108) << np.maximum(seg - 1, 0))
    return np.where(a & 0x80, t, -t).astype(np.int64)


_ULAW_LUT = _ulaw_decode_lut()
_ALAW_LUT = _alaw_decode_lut()


def _g711_lut(law: str) -> np.ndarray:
    if law == "ulaw":
        return _ULAW_LUT
    if law == "alaw":
        return _ALAW_LUT
    raise ValueError(f"unknown G.711 law {law!r} (use 'alaw' or 'ulaw')")


def g711_expand(codes: np.ndarray, law: str) -> np.ndarray:
    """Companded bytes -> int16 linear samples via the exact G.711
    expansion tables."""
    lut = _g711_lut(law)
    return lut[np.asarray(codes, dtype=np.int64) & 0xFF].astype(np.int16)


def g711_compress(samples: np.ndarray, law: str) -> np.ndarray:
    """int16 linear samples -> companded bytes.  Implemented as exact
    nearest-representable inversion of the expansion table (ties toward
    the lower decoded value): expand(compress(expand(code))) == expand(code)
    for every byte, and the CODE round trip is exact except mu-law's
    +0/-0 alias (0xFF and 0x7F both expand to 0; compression
    canonicalizes to 0x7F) — the properties the round-trip tests pin."""
    lut = _g711_lut(law)
    order = np.argsort(lut, kind="stable")
    sorted_vals = lut[order]
    x = np.asarray(samples, dtype=np.int64)
    idx = np.searchsorted(sorted_vals, x)
    idx = np.clip(idx, 0, len(sorted_vals) - 1)
    lo = np.clip(idx - 1, 0, len(sorted_vals) - 1)
    pick_lo = np.abs(sorted_vals[lo] - x) <= np.abs(sorted_vals[idx] - x)
    return order[np.where(pick_lo, lo, idx)].astype(np.uint8)


# ---------------------------------------------------------------------------
# QOI — the "Quite OK Image" format (qoiformat.org, public spec)
# ---------------------------------------------------------------------------
# Single-pass byte-oriented codec: 64-slot color index, 2-bit channel
# diffs, luma diffs and run-length ops.  Lossless for 8-bit RGB(A), so a
# QOI payload carries the same exact content oracles as PNG/GIF/JPEG-LS.
# Grayscale rasters are encoded as achromatic RGB (r=g=b); the decoder
# collapses fully-achromatic images back to one channel so downstream
# stages see the identical 2-D raster regardless of container.

_QOI_MAGIC = b"qoif"
_QOI_END = b"\x00" * 7 + b"\x01"


def _qoi_hash(r: int, g: int, b: int, a: int) -> int:
    return (r * 3 + g * 5 + b * 7 + a * 11) % 64


def encode_qoi(img: np.ndarray) -> bytes:
    """Encode a (h, w) gray or (h, w, 3) RGB uint8 raster as QOI (spec
    v1.0: OP_RUN / OP_INDEX / OP_DIFF / OP_LUMA / OP_RGB, alpha fixed at
    255 so channels=3)."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim == 2:
        px = np.repeat(img.reshape(-1, 1), 3, axis=1)
    elif img.ndim == 3 and img.shape[2] == 3:
        px = img.reshape(-1, 3)
    else:
        raise ValueError(f"QOI needs (h,w) or (h,w,3), got {img.shape}")
    h, w = img.shape[:2]
    out = bytearray(_QOI_MAGIC + struct.pack(">IIBB", w, h, 3, 0))
    index = [(0, 0, 0, 0)] * 64
    pr, pg, pb, pa = 0, 0, 0, 255
    run = 0
    for r, g, b in px.tolist():
        if (r, g, b) == (pr, pg, pb):
            run += 1
            if run == 62:
                out.append(0xC0 | (run - 1))
                run = 0
            continue
        if run:
            out.append(0xC0 | (run - 1))
            run = 0
        k = _qoi_hash(r, g, b, 255)
        if index[k] == (r, g, b, 255):
            out.append(k)  # OP_INDEX
        else:
            index[k] = (r, g, b, 255)
            dr = (r - pr + 128) % 256 - 128
            dg = (g - pg + 128) % 256 - 128
            db = (b - pb + 128) % 256 - 128
            if -2 <= dr <= 1 and -2 <= dg <= 1 and -2 <= db <= 1:
                out.append(0x40 | ((dr + 2) << 4) | ((dg + 2) << 2) | (db + 2))
            elif (
                -32 <= dg <= 31 and -8 <= dr - dg <= 7 and -8 <= db - dg <= 7
            ):
                out.append(0x80 | (dg + 32))
                out.append(((dr - dg + 8) << 4) | (db - dg + 8))
            else:
                out += bytes((0xFE, r, g, b))  # OP_RGB
        pr, pg, pb = r, g, b
    if run:
        out.append(0xC0 | (run - 1))
    out += _QOI_END
    return bytes(out)


def decode_qoi(blob: bytes) -> np.ndarray:
    """Full QOI decoder (RGB and RGBA chunks, all five ops).  Returns
    (h, w, channels) uint8 — collapsed to (h, w) when every pixel is
    achromatic with alpha 255, so gray rasters round-trip shape-exact."""
    if blob[:4] != _QOI_MAGIC:
        raise ValueError("not a QOI payload")
    w, h, channels, _cs = struct.unpack_from(">IIBB", blob, 4)
    if channels not in (3, 4):
        raise ValueError(f"QOI channels must be 3 or 4, got {channels}")
    n = w * h
    px = np.empty((n, 4), dtype=np.uint8)
    index = [(0, 0, 0, 0)] * 64
    r, g, b, a = 0, 0, 0, 255
    i, j = 14, 0
    data = blob
    while j < n:
        byte = data[i]
        i += 1
        if byte == 0xFE:  # OP_RGB
            r, g, b = data[i], data[i + 1], data[i + 2]
            i += 3
        elif byte == 0xFF:  # OP_RGBA
            r, g, b, a = data[i], data[i + 1], data[i + 2], data[i + 3]
            i += 4
        else:
            tag = byte >> 6
            if tag == 0:  # OP_INDEX
                r, g, b, a = index[byte & 0x3F]
                px[j] = (r, g, b, a)
                j += 1
                continue
            if tag == 1:  # OP_DIFF
                r = (r + ((byte >> 4) & 3) - 2) % 256
                g = (g + ((byte >> 2) & 3) - 2) % 256
                b = (b + (byte & 3) - 2) % 256
            elif tag == 2:  # OP_LUMA
                dg = (byte & 0x3F) - 32
                nxt = data[i]
                i += 1
                r = (r + dg + ((nxt >> 4) & 0xF) - 8) % 256
                g = (g + dg) % 256
                b = (b + dg + (nxt & 0xF) - 8) % 256
            else:  # OP_RUN
                run = (byte & 0x3F) + 1
                px[j : j + run] = (r, g, b, a)
                j += run
                continue
        index[_qoi_hash(r, g, b, a)] = (r, g, b, a)
        px[j] = (r, g, b, a)
        j += 1
    img = px.reshape(h, w, 4)
    if channels == 3 or (img[:, :, 3] == 255).all():
        img = img[:, :, :3]
    if img.ndim == 3 and img.shape[2] == 3 and (
        (img[:, :, 0] == img[:, :, 1]).all() and (img[:, :, 1] == img[:, :, 2]).all()
    ):
        return img[:, :, 0].copy()
    return np.ascontiguousarray(img)


# ---------------------------------------------------------------------------
# TIFF — classic (non-Big) baseline grayscale, uncompressed
# ---------------------------------------------------------------------------
# TIFF 6.0 baseline reader/writer for the archival-scan corner of a web
# corpus: II/MM byte orders, 8-bit BlackIsZero grayscale, Compression=1,
# arbitrary strip layout on read (writer emits one strip).  Lossless.

_TIFF_TAGS = {256: "width", 257: "height", 258: "bits", 259: "compression",
              262: "photometric", 273: "strip_offsets", 277: "spp",
              278: "rows_per_strip", 279: "strip_counts"}
_TIFF_TYPE_SIZE = {1: 1, 3: 2, 4: 4}  # BYTE, SHORT, LONG


def encode_tiff(img: np.ndarray) -> bytes:
    """Little-endian classic TIFF, 8-bit grayscale, one uncompressed strip."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim != 2:
        raise ValueError(f"TIFF writer is grayscale-only, got {img.shape}")
    h, w = img.shape
    data = img.tobytes()
    # layout: header(8) + pixel data + IFD
    ifd_off = 8 + len(data)
    entries = [
        (256, 4, 1, w), (257, 4, 1, h), (258, 3, 1, 8), (259, 3, 1, 1),
        (262, 3, 1, 1), (273, 4, 1, 8), (277, 3, 1, 1), (278, 4, 1, h),
        (279, 4, 1, len(data)),
    ]
    ifd = struct.pack("<H", len(entries))
    for tag, typ, cnt, val in entries:
        ifd += struct.pack("<HHI", tag, typ, cnt)
        ifd += struct.pack("<I", val) if typ != 3 else struct.pack("<HH", val, 0)
    ifd += struct.pack("<I", 0)  # next-IFD pointer: none
    return struct.pack("<2sHI", b"II", 42, ifd_off) + data + ifd


def decode_tiff(blob: bytes) -> np.ndarray:
    """Baseline TIFF grayscale decoder: both byte orders, multi-strip,
    inline or pointed values.  Compression must be 1 (none)."""
    order = blob[:2]
    if order == b"II":
        e = "<"
    elif order == b"MM":
        e = ">"
    else:
        raise ValueError("not a TIFF payload")
    magic, ifd_off = struct.unpack_from(e + "HI", blob, 2)
    if magic != 42:
        raise ValueError("bad TIFF magic (BigTIFF not supported)")
    n = struct.unpack_from(e + "H", blob, ifd_off)[0]
    fields: dict[str, list[int]] = {}
    for k in range(n):
        off = ifd_off + 2 + 12 * k
        tag, typ, cnt = struct.unpack_from(e + "HHI", blob, off)
        name = _TIFF_TAGS.get(tag)
        if name is None or typ not in _TIFF_TYPE_SIZE:
            continue
        size = _TIFF_TYPE_SIZE[typ] * cnt
        voff = off + 8 if size <= 4 else struct.unpack_from(e + "I", blob, off + 8)[0]
        code = {1: "B", 3: "H", 4: "I"}[typ]
        fields[name] = list(struct.unpack_from(e + str(cnt) + code, blob, voff))
    missing = [t for t in ("width", "height", "strip_offsets", "strip_counts") if t not in fields]
    if missing:
        raise ValueError(f"missing required TIFF tag(s): {', '.join(missing)}")
    w, h = fields["width"][0], fields["height"][0]
    if fields.get("compression", [1])[0] != 1:
        raise NotImplementedError("compressed TIFF not supported")
    if fields.get("bits", [8])[0] != 8 or fields.get("spp", [1])[0] != 1:
        raise NotImplementedError("only 8-bit single-sample TIFF supported")
    strips = [
        blob[o : o + c]
        for o, c in zip(fields["strip_offsets"], fields["strip_counts"])
    ]
    raster = np.frombuffer(b"".join(strips), dtype=np.uint8, count=w * h)
    return raster.reshape(h, w).copy()
