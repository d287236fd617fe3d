"""Binary PPM (P6) and PGM (P5) reading and writing.

Only maxval 255 is supported; these formats exist so fixtures and
exports stay bit-exact with zero image-library dependencies.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError


def _read_header_token(blob, offset):
    # skip whitespace and '#' comments between header fields
    while offset < len(blob):
        ch = blob[offset : offset + 1]
        if ch.isspace():
            offset += 1
        elif ch == b"#":
            while offset < len(blob) and blob[offset : offset + 1] != b"\n":
                offset += 1
        else:
            break
    start = offset
    while offset < len(blob) and not blob[offset : offset + 1].isspace():
        offset += 1
    if start == offset:
        raise FormatError("truncated header", offset=start)
    return blob[start:offset], offset


def read_pnm(path):
    """Read a binary PGM/PPM into (pixels, channels); pixels is HxWxC uint8."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, offset = _read_header_token(blob, 0)
    if magic not in (b"P5", b"P6"):
        raise FormatError(f"unsupported magic {magic!r}", offset=0)
    channels = 1 if magic == b"P5" else 3
    fields = []
    for name in ("width", "height", "maxval"):
        token, offset = _read_header_token(blob, offset)
        try:
            fields.append(int(token))
        except ValueError:
            raise FormatError(f"non-numeric {name} field {token!r}", offset=offset) from None
    width, height, maxval = fields
    if maxval != 255:
        raise FormatError(f"only maxval 255 supported, got {maxval}", offset=offset)
    offset += 1  # single whitespace byte after maxval
    expected = width * height * channels
    payload = memoryview(blob)[offset : offset + expected]  # a view: the copy below is the only one
    if len(payload) != expected:
        raise FormatError(f"expected {expected} pixel bytes, found {len(payload)}", offset=offset)
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return pixels.copy(), channels


def write_pgm(pixels, path):
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim == 3:
        if pixels.shape[2] != 1:
            raise FormatError("write_pgm expects one channel")
        pixels = pixels[:, :, 0]
    height, width = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(pixels).tobytes())


def write_ppm(pixels, path):
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise FormatError("write_ppm expects HxWx3 pixels")
    height, width = pixels.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(pixels).tobytes())
